"""Post-hoc aggregation over completed run directories.

The report path deliberately recomputes everything from the raw
per-generation records instead of trusting the stored summaries: fitness
points are reloaded from gen_*.jsonl, hypervolumes are recomputed, and the
statistics are rebuilt, so a reported table is always consistent with the
data on disk.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .domain import FitnessPoint
from .moea import DEFAULT_REFERENCE, hypervolume_2d
from .runner import _stats

_GEN_FILE_RE = re.compile(r"^gen_(\d+)\.jsonl$")


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
    run_dir: str
    curves: tuple[RepetitionCurve, ...]
    summary: dict

    @property
    def final_stats(self) -> dict:
        return _stats([c.final for c in self.curves])

    @property
    def running_max_stats(self) -> dict:
        return _stats([c.running_max for c in self.curves])


def discover_runs(root: Path) -> list[Path]:
    """Run directories under root, identified by their summary.json."""
    return sorted(p.parent for p in Path(root).rglob("summary.json"))


def _load_points(path: Path) -> list[FitnessPoint]:
    points = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            try:
                points.append(FitnessPoint(*data["fitness"]))
            except (KeyError, TypeError):
                raise ValueError("record without a two-number fitness") from None
    if not points:
        raise ValueError("no individuals in record")
    return points


def load_run(run_dir: Path) -> RunReport:
    """Recompute one run's curves and statistics from its gen_*.jsonl files.

    Only repetitions the summary marks ok are loaded; their records must all
    be present and parseable, else a ReportError lists the bad files. A
    summary or record that parses as JSON but has the wrong shape counts as
    unparseable.
    """
    run_dir = Path(run_dir)
    bad: list[str] = []
    summary_path = run_dir / "summary.json"
    unreadable = ReportError(f"unreadable summary in {run_dir}", [str(summary_path)])
    try:
        with open(summary_path, encoding="utf-8") as handle:
            summary = json.load(handle)
    except (OSError, json.JSONDecodeError):
        raise unreadable from None
    results = summary.get("results", []) if isinstance(summary, dict) else None
    if not isinstance(results, list) or not all(isinstance(r, dict) for r in results):
        raise unreadable
    curves: list[RepetitionCurve] = []
    for result in results:
        if result.get("status") != "ok":
            continue
        rep = result.get("repetition")
        if isinstance(rep, bool) or not isinstance(rep, int):
            raise unreadable
        rep_dir = run_dir / f"rep_{rep}"
        gen_files: dict[int, Path] = {}
        if rep_dir.is_dir():
            for path in rep_dir.iterdir():
                match = _GEN_FILE_RE.match(path.name)
                if match:
                    gen_files[int(match.group(1))] = path
        expected_last = summary.get("generations")
        complete = bool(gen_files) and sorted(gen_files) == list(range(max(gen_files) + 1))
        if complete and expected_last is not None:
            complete = max(gen_files) == expected_last
        if not complete:
            bad.append(str(rep_dir))
            continue
        series: list[float] = []
        for generation in sorted(gen_files):
            path = gen_files[generation]
            try:
                points = _load_points(path)
            except (OSError, ValueError):
                bad.append(str(path))
                break
            series.append(hypervolume_2d(points, DEFAULT_REFERENCE))
        else:
            curves.append(RepetitionCurve(repetition=rep, hypervolumes=tuple(series)))
    if bad:
        raise ReportError(f"missing or corrupt records in {run_dir}", bad)
    if not curves:
        raise ReportError(f"no successful repetitions recorded in {run_dir}", [str(summary_path)])
    return RunReport(
        problem=summary.get("pair", run_dir.parent.name),
        selector=summary.get("selector", run_dir.name),
        run_dir=str(run_dir),
        curves=tuple(curves),
        summary=summary,
    )
