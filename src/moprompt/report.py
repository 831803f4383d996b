"""Post-hoc aggregation over completed run directories.

The report path deliberately recomputes everything from the raw
per-generation records instead of trusting the stored summaries: fitness
points are reloaded from gen_*.jsonl, hypervolumes are recomputed, and the
statistics are rebuilt, so a reported table is always consistent with the
data on disk. `moprompt.rules` reads and checks `summary.json`.

A survivor carried into the next generation is written again byte for byte,
so most lines of a gen_*.jsonl repeat a line of the file before it. Each
repetition's load keeps the lines of the previous generation's file with the
points parsed from them: a repeated line reuses its point, and so is parsed
once per repetition, while every distinct line is still stripped, parsed
and checked in full. A reused line moves from that memo into the current
generation's, so the loader holds about one generation's lines at a time.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .domain import FitnessPoint
from .moea import hypervolume_2d
from .rules import check, integer, items, read_json_object, text
from .runner import _stats

# exactly the names the writer gives: no leading zero, only ASCII digits
_GEN_FILE_RE = re.compile(r"gen_(0|[1-9][0-9]*)\.jsonl")


class ReportError(Exception):
    """Raised when a run directory is missing or holds unreadable records.

    bad_files lists every offending path so the caller can report them all.
    """

    def __init__(self, message: str, bad_files: list[str]):
        super().__init__(message)
        self.bad_files = bad_files


@dataclass(frozen=True)
class RepetitionCurve:
    repetition: int
    hypervolumes: tuple[float, ...]

    @property
    def final(self) -> float:
        return self.hypervolumes[-1]

    @property
    def running_max(self) -> float:
        return max(self.hypervolumes)


@dataclass(frozen=True)
class RunReport:
    """Recomputed view of one (pair, selector) run directory."""

    problem: str
    selector: str
    curves: tuple[RepetitionCurve, ...]

    @property
    def final_stats(self) -> dict:
        return _stats([c.final for c in self.curves])

    @property
    def running_max_stats(self) -> dict:
        return _stats([c.running_max for c in self.curves])


def discover_runs(root: Path) -> list[Path]:
    """Run directories under root, identified by their summary.json."""
    return sorted(p.parent for p in Path(root).rglob("summary.json"))


def _load_points(path: Path, previous: dict) -> tuple[list[FitnessPoint], dict]:
    """The points of one gen_*.jsonl, and the memo from each raw line to its
    point. A line in previous, the memo of the generation before, moves out
    of it with its point; any other non-blank line is parsed and checked."""
    points = []
    memo: dict[str, FitnessPoint] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            point = previous.pop(line, None)
            if point is None:
                stripped = line.strip()
                if not stripped:
                    continue
                data = json.loads(stripped)
                try:
                    point = FitnessPoint(*data["fitness"])
                except (KeyError, TypeError):
                    raise ValueError("record without a two-number fitness") from None
            memo[line] = point
            points.append(point)
    if not points:
        raise ValueError("no individuals in record")
    return points, memo


def load_run(run_dir: Path) -> RunReport:
    """Recompute one run's curves and statistics from its gen_*.jsonl files.

    Only repetitions the summary marks ok are loaded; their records must all
    be present and parseable, else a ReportError lists the bad files. A
    summary or record that parses as JSON but has the wrong shape or a
    wrong-typed field counts as unparseable.
    """
    run_dir = Path(run_dir)
    bad: list[str] = []
    summary_path = run_dir / "summary.json"
    try:
        summary = read_json_object(summary_path, "summary")
        results = check("results", summary.get("results", []),
                        items(lambda result: isinstance(result, dict), "a list of objects"))
        for key, rule in (("pair", text(empty=True)), ("selector", text(empty=True)),
                          ("generations", integer())):
            if key in summary:
                check(key, summary[key], rule)
        repetitions = [check("repetition", result.get("repetition"), integer())
                       for result in results if result.get("status") == "ok"]
    except ValueError:
        raise ReportError(f"unreadable summary in {run_dir}", [str(summary_path)]) from None
    expected_last = summary.get("generations")
    curves: list[RepetitionCurve] = []
    for rep in repetitions:
        rep_dir = run_dir / f"rep_{rep}"
        gen_files: dict[int, Path] = {}
        if rep_dir.is_dir():
            for path in rep_dir.iterdir():
                match = _GEN_FILE_RE.fullmatch(path.name)
                if match:
                    gen_files[int(match.group(1))] = path
        complete = bool(gen_files) and sorted(gen_files) == list(range(max(gen_files) + 1))
        if complete and expected_last is not None:
            complete = max(gen_files) == expected_last
        if not complete:
            bad.append(str(rep_dir))
            continue
        series: list[float] = []
        memo: dict[str, FitnessPoint] = {}
        for generation in sorted(gen_files):
            path = gen_files[generation]
            try:
                points, memo = _load_points(path, memo)
            except (OSError, ValueError, RecursionError):  # RecursionError: nested too deeply
                bad.append(str(path))
                break
            series.append(hypervolume_2d(points))
        else:
            curves.append(RepetitionCurve(repetition=rep, hypervolumes=tuple(series)))
    if bad:
        raise ReportError(f"missing or corrupt records in {run_dir}", bad)
    if not curves:
        raise ReportError(f"no successful repetitions recorded in {run_dir}", [str(summary_path)])
    return RunReport(
        problem=summary.get("pair", run_dir.parent.name),
        selector=summary.get("selector", run_dir.name),
        curves=tuple(curves),
    )
