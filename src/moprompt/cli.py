"""Command line interface.

Three commands: run executes an experiment from a JSON config plus
overrides, report rebuilds comparison tables from finished run directories,
and hv computes hypervolumes for a CSV of points. Exit codes: 0 on success,
1 for runtime failures (no successful repetition, unreadable run data),
2 for configuration and usage errors (an output directory that cannot be
created among them).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from .backends import BackendPolicy, LlmSettings
from .domain import FitnessPoint, ObjectivePair, Prompt
from .moea import DEFAULT_REFERENCE, hv_subset_select, hypervolume_2d
from .report import ReportError, discover_runs, load_run
from .runner import (
    BACKEND_KINDS,
    HV_MODES,
    BackendConfig,
    RunConfig,
    build_backends,
    run_experiment,
)
from .variation import OperatorSuite, load_operator_suite


class ConfigError(ValueError):
    pass


def _take(section: dict, known: tuple[str, ...], where: str) -> dict:
    """Copy a config section, rejecting keys outside known."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} section must be a JSON object")
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(sorted(unknown))}")
    return dict(section)


_TOP_LEVEL_KEYS = (
    "mu", "lambda", "generations", "repetitions", "pair", "selector", "hv_mode", "seed",
    "seed_prompts", "backend", "out_dir", "llm", "classifier", "policy", "operators_file",
    "lexicon_file",
)
_LLM_KEYS = ("model", "base_url", "temperature", "context_window", "max_output_tokens")
_CLASSIFIER_KEYS = ("base_url", "token")
_POLICY_KEYS = ("timeout", "max_retries", "backoff", "max_concurrent_requests")
# fields that hold text; the two optional file paths may also be null
_STRING_KEYS = ("pair", "selector", "out_dir", "operators_file", "lexicon_file")


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus CLI overrides.

    Unknown keys anywhere in the file are rejected. Omitted fields keep the
    reference defaults. Every field is checked here, and the operators file
    is read here, so a bad config fails before a run starts.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    fields = _take(raw, _TOP_LEVEL_KEYS, "config")
    llm_section = _take(fields.pop("llm", {}), _LLM_KEYS, "llm")
    classifier_section = _take(fields.pop("classifier", {}), _CLASSIFIER_KEYS, "classifier")
    policy_section = _take(fields.pop("policy", {}), _POLICY_KEYS, "policy")
    fields.update({k: v for k, v in overrides.items() if v is not None})
    if fields.get("pair") is None:
        raise ConfigError("an objective pair is required (config 'pair' or --pair)")
    for key in _STRING_KEYS:
        value = fields.get(key, "")
        if not isinstance(value, str) and not (value is None and key.endswith("_file")):
            raise ConfigError(f"{key} must be a string, got {value!r}")
    if "lambda" in fields:
        fields["lam"] = fields.pop("lambda")
    if "selector" in fields:
        fields["selector"] = fields["selector"].replace("-", "_")
    pair_spec = fields.pop("pair")
    backend_kind = fields.pop("backend", "mock")
    lexicon_file = fields.pop("lexicon_file", None)
    operators_file = fields.pop("operators_file", None)
    seed_prompts = fields.pop("seed_prompts", None)
    llm_url = llm_section.pop("base_url", None)
    try:
        backend = BackendConfig(
            kind=backend_kind,
            llm=LlmSettings(**llm_section),
            llm_base_url=llm_url,
            classifier_base_url=classifier_section.get("base_url"),
            classifier_token=classifier_section.get("token"),
            policy=BackendPolicy(**policy_section),
            lexicon_file=lexicon_file,
        )
        if seed_prompts is not None:
            if not isinstance(seed_prompts, list) or not all(
                isinstance(p, str) for p in seed_prompts
            ):
                raise ConfigError("seed_prompts must be a list of strings")
            fields["seed_prompts"] = tuple(Prompt(p) for p in seed_prompts)
        return RunConfig(
            pair=ObjectivePair.parse(pair_spec),
            backend=backend,
            operators=load_operator_suite(operators_file) if operators_file else OperatorSuite(),
            **fields,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))


def cmd_run(args) -> int:
    overrides = {
        "backend": args.backend,
        "pair": args.pair,
        "selector": args.selector,
        "hv_mode": args.hv_mode,
        "seed": args.seed,
        "out_dir": args.out,
        "repetitions": args.reps,
        "generations": args.gens,
    }
    try:
        config = load_config(args.config, overrides)
        backends = build_backends(config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        config.run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 2

    def progress(rep: int, record) -> None:
        if args.quiet:
            return
        print(
            f"rep {rep} gen {record.generation_index}/{config.generations} "
            f"hv {record.hypervolume:.6f} fallbacks {record.fallback_count}"
        )

    summary = run_experiment(config, backends, progress=progress)
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


def _report_cells(row: dict, number) -> list[str]:
    """A report row in column order, its statistics rendered by number."""
    return [
        value if isinstance(value, str) else number(value)
        for value in (row[column] for column in _REPORT_COLUMNS)
    ]


def _format_table(rows: list[dict]) -> str:
    table = [_REPORT_COLUMNS] + [_report_cells(row, lambda x: f"{x:.6f}") for row in rows]
    widths = [max(len(entry[i]) for entry in table) for i in range(len(_REPORT_COLUMNS))]
    lines = []
    for entry in table:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(entry, widths)).rstrip())
    return "\n".join(lines)


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
    rows = []
    for report in reports:
        for metric, stats in (
            ("final", report.final_stats),
            ("running_max", report.running_max_stats),
        ):
            rows.append(
                {
                    "problem": report.problem,
                    "selector": report.selector,
                    "metric": metric,
                    **stats,
                }
            )
    print(_format_table(rows))
    report_path = root / "report.csv"
    with open(report_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_REPORT_COLUMNS)
        for row in rows:
            writer.writerow(_report_cells(row, repr))
    curves_path = root / "curves.csv"
    with open(curves_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["problem", "selector", "repetition", "generation", "hypervolume"])
        for report in reports:
            for curve in report.curves:
                for generation, hv in enumerate(curve.hypervolumes):
                    writer.writerow(
                        [report.problem, report.selector, curve.repetition, generation, repr(hv)]
                    )
    print(f"wrote {report_path}")
    print(f"wrote {curves_path}")
    return 0


def _read_points_csv(path: str) -> list[FitnessPoint]:
    points = []
    with open(path, encoding="utf-8", newline="") as handle:
        for row_number, row in enumerate(csv.reader(handle), start=1):
            if not row or not "".join(row).strip():
                continue
            if len(row) != 2:
                raise ValueError(f"row {row_number}: expected two columns, got {len(row)}")
            first, second = row[0].strip(), row[1].strip()
            if row_number == 1 and not _is_number(first):
                continue
            if not (_is_number(first) and _is_number(second)):
                raise ValueError(f"row {row_number}: non-numeric value")
            try:
                points.append(FitnessPoint(float(first), float(second)))
            except ValueError as exc:
                raise ValueError(f"row {row_number}: {exc}")
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total = hypervolume_2d(points, DEFAULT_REFERENCE)
    print(f"hypervolume {total:.12f}")
    if args.subset is not None:
        try:
            selected = hv_subset_select(points, args.subset, DEFAULT_REFERENCE, args.mode)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        subset_hv = hypervolume_2d([points[i] for i in selected], DEFAULT_REFERENCE)
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
    run_parser.add_argument("--selector", choices=["nsga2", "sms-emoa", "sms_emoa"])
    run_parser.add_argument("--hv-mode", choices=HV_MODES, dest="hv_mode")
    run_parser.add_argument("--seed", type=int)
    run_parser.add_argument("--out", help="output directory")
    run_parser.add_argument("--reps", type=int, help="number of repetitions")
    run_parser.add_argument("--gens", type=int, help="number of generations")
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # SUPPRESS defaults mean the flags are absent unless given
    args.verbose = getattr(args, "verbose", False)
    args.quiet = getattr(args, "quiet", False)
    level = logging.WARNING
    if args.verbose:
        level = logging.DEBUG
    elif args.quiet:
        level = logging.ERROR
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())
