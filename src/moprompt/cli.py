"""Command line interface.

Three commands: run executes an experiment from a JSON config plus
overrides, report rebuilds comparison tables from finished run directories,
and hv computes hypervolumes for a CSV of points. Exit codes: 0 on success,
1 for runtime failures (no successful repetition, unreadable run data),
2 for configuration and usage errors (an output directory that cannot be
created, a run directory that already holds a run's summary.json, or a
summary.json or report CSV that cannot be written, among them).
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

from .backends import BackendPolicy, LlmSettings, load_lexicons
from .domain import SUMMARY_FILE, FitnessPoint, ObjectivePair, Prompt, open_for_writing
from .moea import hv_subset_select, hypervolume_2d
from .report import ReportError, discover_runs, load_run
from .rules import build, check, read_json_object, section, strings, text
from .runner import (
    BACKEND_KINDS,
    HV_MODES,
    SELECTORS,
    BackendConfig,
    RunConfig,
    build_backends,
    run_experiment,
)
from .variation import OperatorSuite, load_operator_suite


_TOP_LEVEL_KEYS = (
    "mu", "lambda", "generations", "repetitions", "pair", "selector", "hv_mode", "seed",
    "seed_prompts", "backend", "out_dir", "llm", "classifier", "policy", "operators_file",
    "lexicon_file",
)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus CLI overrides.

    Unknown keys anywhere in the file are rejected. Omitted fields keep the
    reference defaults. Each field is checked by the rule its dataclass
    declares (`moprompt.rules`), and the operators and lexicon files are
    read here, so a bad config fails before a run starts, whatever the
    backend. Every such failure is a ValueError.
    """
    raw = read_json_object(path, "config file") if path is not None else {}
    fields = section(raw, _TOP_LEVEL_KEYS, "config")
    llm, policy = fields.pop("llm", {}), fields.pop("policy", {})
    # the base URL sits in the llm section but is the BackendConfig's own field
    llm_base_url = llm.pop("base_url", None) if isinstance(llm, dict) else None
    classifier = section(fields.pop("classifier", {}), ("base_url", "token"), "classifier")
    fields.update({k: v for k, v in overrides.items() if v is not None})
    if fields.get("pair") is None:
        raise ValueError("an objective pair is required (config 'pair' or --pair)")
    pair = ObjectivePair.parse(check("pair", fields.pop("pair"), text()))
    if "lambda" in fields:
        fields["lam"] = fields.pop("lambda")
    if fields.get("selector") == "sms-emoa":
        fields["selector"] = "sms_emoa"
    if "seed_prompts" in fields:
        prompts = check("seed_prompts", fields.pop("seed_prompts"), strings())
        fields["seed_prompts"] = tuple(Prompt(p) for p in prompts)
    operators_file, lexicon_file = (check(name, fields.pop(name, None), text(optional=True))
                                    for name in ("operators_file", "lexicon_file"))
    backend = BackendConfig(
        kind=fields.pop("backend", "mock"),
        llm=build(LlmSettings, llm, "llm"),
        llm_base_url=llm_base_url,
        classifier_base_url=classifier.get("base_url"),
        classifier_token=classifier.get("token"),
        policy=build(BackendPolicy, policy, "policy"),
        lexicons=load_lexicons(lexicon_file) if lexicon_file else None,
    )
    return RunConfig(
        pair=pair,
        backend=backend,
        operators=load_operator_suite(operators_file) if operators_file else OperatorSuite(),
        **fields,
    )


def cmd_run(args) -> int:
    # the run flags are stored under their config keys and override them
    overrides = {key: value for key, value in vars(args).items() if key in _TOP_LEVEL_KEYS}
    try:
        config = load_config(args.config, overrides)
        backends = build_backends(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def progress(rep: int, record) -> None:
        if args.quiet:
            return
        print(
            f"rep {rep} gen {record.generation_index}/{config.generations} "
            f"hv {record.hypervolume:.6f} fallbacks {record.fallback_count}"
        )

    with backends:
        try:  # is_file raises, as mkdir would, for a name too long for the file system
            if (config.run_dir / SUMMARY_FILE).is_file():
                print(f"error: {config.run_dir} already holds a run ({SUMMARY_FILE})",
                      file=sys.stderr)
                return 2
            config.run_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create output directory: {exc}", file=sys.stderr)
            return 2
        try:
            summary = run_experiment(config, backends, progress=progress)
        except OSError as exc:  # summary.json; a repetition's write error fails only it
            path = exc.filename or config.run_dir / SUMMARY_FILE  # a failed write names none
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    for result in summary.results:
        if result.status == "ok":
            print(
                f"rep {result.repetition} done final {result.final_hypervolume:.6f} "
                f"max {result.max_hypervolume:.6f}"
            )
        else:
            print(f"rep {result.repetition} failed: {result.error}")
    for name, stats in (("final", summary.final_stats), ("running_max", summary.running_max_stats)):
        if stats:
            print(
                f"summary {name} best {stats['best']:.6f} worst {stats['worst']:.6f} "
                f"mean {stats['mean']:.6f} std_dev {stats['std_dev']:.6f}"
            )
    print(f"wrote {summary.out_dir}")
    return 0 if summary.successes > 0 else 1


# the columns of the printed report table and of report.csv
_REPORT_COLUMNS = ("problem", "selector", "metric", "best", "worst", "mean", "std_dev")


def _format_table(rows: list[tuple]) -> str:
    table = [_REPORT_COLUMNS] + [(*row[:3], *(f"{x:.6f}" for x in row[3:])) for row in rows]
    widths = [max(len(entry[i]) for entry in table) for i in range(len(_REPORT_COLUMNS))]
    return "\n".join("  ".join(cell.ljust(width) for cell, width in zip(entry, widths)).rstrip()
                     for entry in table)


def cmd_report(args) -> int:
    root = Path(args.run)
    run_dirs = discover_runs(root)
    if not run_dirs:
        print(f"error: no completed runs under {root}", file=sys.stderr)
        return 1
    reports = []
    failures: list[str] = []
    for run_dir in run_dirs:
        try:
            reports.append(load_run(run_dir))
        except ReportError as exc:
            failures.extend(exc.bad_files)
    if failures:
        print("error: unreadable run data in:", file=sys.stderr)
        for path in failures:
            print(f"  {path}", file=sys.stderr)
        return 1
    rows = [
        (report.problem, report.selector, metric, *(stats[c] for c in _REPORT_COLUMNS[3:]))
        for report in reports
        for metric, stats in (("final", report.final_stats),
                              ("running_max", report.running_max_stats))
    ]
    print(_format_table(rows))
    tables = {
        "report.csv": (_REPORT_COLUMNS, ((*row[:3], *map(repr, row[3:])) for row in rows)),
        "curves.csv": (
            ("problem", "selector", "repetition", "generation", "hypervolume"),
            ([report.problem, report.selector, curve.repetition, generation, repr(hv)]
             for report in reports for curve in report.curves
             for generation, hv in enumerate(curve.hypervolumes)),
        ),
    }
    for name, (header, cells) in tables.items():
        path = root / name
        try:
            _write_csv(path, header, cells)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0


def _write_csv(path: Path, header, rows) -> None:
    with open_for_writing(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def _read_points_csv(path: str) -> list[FitnessPoint]:
    points = []
    # utf-8-sig drops the byte order mark spreadsheet programs write
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        rows = ((number, row) for number, row in enumerate(reader, start=1)
                if "".join(row).strip())  # blank rows are skipped but keep their numbers
        try:
            for index, (row_number, row) in enumerate(rows):
                if len(row) != 2:
                    raise ValueError(f"row {row_number}: expected two columns, got {len(row)}")
                first, second = row[0].strip(), row[1].strip()
                if index == 0 and not _is_number(first):
                    continue  # only the first non-blank row may be a header
                if not (_is_number(first) and _is_number(second)):
                    raise ValueError(f"row {row_number}: non-numeric value")
                try:
                    points.append(FitnessPoint(float(first), float(second)))
                except ValueError as exc:
                    raise ValueError(f"row {row_number}: {exc}")
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise ValueError(f"row {reader.line_num}: {exc}") from None
    if not points:
        raise ValueError("no points in file")
    return points


def _is_number(value: str) -> bool:
    try:
        float(value)
        return True
    except ValueError:
        return False


def cmd_hv(args) -> int:
    try:
        points = _read_points_csv(args.points)
        if args.subset is not None:
            selected = hv_subset_select(points, args.subset, args.mode)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total = hypervolume_2d(points)
    print(f"hypervolume {total:.12f}")
    if args.subset is not None:
        subset_hv = hypervolume_2d([points[i] for i in selected])
        print("selected " + " ".join(str(i) for i in selected))
        print(f"subset_hypervolume {subset_hv:.12f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the verbosity flags hang off both the main parser and every
    # subcommand, so they work in either position; SUPPRESS keeps the
    # subparser from stomping a flag given before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--verbose",
        action="store_true",
        default=argparse.SUPPRESS,
        help="debug logging",
    )
    common.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS,
        help="suppress progress output",
    )
    parser = argparse.ArgumentParser(
        prog="moprompt",
        description="Evolve prompts toward two conflicting emotion objectives.",
        parents=[common],
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run an experiment", parents=[common])
    run_parser.add_argument("--config", help="JSON config file")
    run_parser.add_argument("--backend", choices=BACKEND_KINDS)
    run_parser.add_argument("--pair", help="objective pair, e.g. love:anger")
    run_parser.add_argument("--selector", choices=(*SELECTORS, "sms-emoa"))
    run_parser.add_argument("--hv-mode", choices=HV_MODES, dest="hv_mode")
    run_parser.add_argument("--seed", type=int)
    run_parser.add_argument("--out", dest="out_dir", help="output directory")
    run_parser.add_argument("--reps", type=int, dest="repetitions", help="number of repetitions")
    run_parser.add_argument("--gens", type=int, dest="generations", help="number of generations")
    run_parser.set_defaults(func=cmd_run)

    report_parser = commands.add_parser(
        "report", help="summarize finished runs", parents=[common]
    )
    report_parser.add_argument("--run", required=True, help="directory holding completed runs")
    report_parser.set_defaults(func=cmd_report)

    hv_parser = commands.add_parser(
        "hv", help="hypervolume of a CSV of points", parents=[common]
    )
    hv_parser.add_argument("--points", required=True, help="CSV file of f1,f2 rows")
    hv_parser.add_argument("--subset", type=int, help="also select a k-point subset")
    hv_parser.add_argument("--mode", choices=HV_MODES, default="greedy")
    hv_parser.set_defaults(func=cmd_hv)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv, argparse.Namespace(verbose=False, quiet=False))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    level = logging.WARNING
    if args.verbose:
        level = logging.DEBUG
    elif args.quiet:
        level = logging.ERROR
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
