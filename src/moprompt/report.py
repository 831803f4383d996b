"""Post-hoc aggregation over completed run directories.

The report path deliberately recomputes everything from the raw
per-generation records instead of trusting the stored summaries: fitness
points are reloaded from gen_*.jsonl, hypervolumes are recomputed, and the
statistics are rebuilt, so a reported table is always consistent with the
data on disk.

A survivor is written again byte for byte in each generation it survives
(`moprompt.domain`), so most lines of a gen_*.jsonl repeat a line of the
file before. `_load_points` keys each line by its first 32 characters,
which hold the record's "id" and are cheap to hash where a whole line of a
large run is not, and reuses the point of a stored line equal to it in
full, so such a line is parsed once per repetition while every other line
is parsed and checked in full. A point is a function of its line alone, so
two lines sharing a key cost a parse and never change a result. The loader
holds about one generation's lines at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .domain import GENERATION_FILE, REPETITION_DIR, SUMMARY_FILE, FitnessPoint, stats
from .moea import hypervolume_2d
from .rules import check, integer, items, read_json_object, text


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
        return stats([c.final for c in self.curves])

    @property
    def running_max_stats(self) -> dict:
        return stats([c.running_max for c in self.curves])


def discover_runs(root: Path) -> list[Path]:
    """Run directories under root, identified by their summary.json."""
    return sorted(p.parent for p in Path(root).rglob(SUMMARY_FILE))


_KEY_LENGTH = 32  # '{"id": <id>, "prompt": "' and the prompt's first characters


def _load_points(path: Path, previous: dict) -> tuple[list[FitnessPoint], dict]:
    """The points of one gen_*.jsonl, and the memo from each raw line's key,
    its first _KEY_LENGTH characters, to the line and its point. A line
    stored in previous, the memo of the generation before, moves out of it
    with its point; any other non-blank line is parsed and checked."""
    points = []
    memo: dict[str, tuple[str, FitnessPoint]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            key = line[:_KEY_LENGTH]
            held = previous.pop(key, None)
            if held is not None and held[0] == line:
                point = held[1]
            else:
                stripped = line.strip()
                if not stripped:
                    continue
                data = json.loads(stripped)
                try:
                    point = FitnessPoint(*data["fitness"])
                except (KeyError, TypeError):
                    raise ValueError("record without a two-number fitness") from None
            memo[key] = line, point
            points.append(point)
    if not points:
        raise ValueError("no individuals in record")
    return points, memo


def load_run(run_dir: Path) -> RunReport:
    """Recompute one run's curves and statistics from its gen_*.jsonl files.

    summary.json alone gives the layout: for each repetition it marks ok,
    rep_<r>/gen_0.jsonl through gen_<generations>.jsonl are read by name, and
    no other file is opened. A summary that lacks pair, selector, generations
    or results, gives one a wrong type, or lists a repetition twice is
    unreadable. The first missing or unparseable record of a repetition ends
    it, and a ReportError lists every such file. A record that parses as JSON
    but has the wrong shape or a wrong-typed field counts as unparseable.
    """
    run_dir = Path(run_dir)
    bad: list[str] = []
    summary_path = run_dir / SUMMARY_FILE
    try:
        summary = read_json_object(summary_path, "summary")
        pair = check("pair", summary.get("pair"), text(empty=True))
        selector = check("selector", summary.get("selector"), text(empty=True))
        generations = check("generations", summary.get("generations"), integer(0))
        results = check("results", summary.get("results"),
                        items(lambda result: isinstance(result, dict), "a list of objects"))
        repetitions = [check("repetition", result.get("repetition"), integer(0))
                       for result in results if result.get("status") == "ok"]
        if len(set(repetitions)) != len(repetitions):
            raise ValueError("a repetition is listed twice")
    except ValueError:
        raise ReportError(f"unreadable summary in {run_dir}", [str(summary_path)]) from None
    curves: list[RepetitionCurve] = []
    for rep in repetitions:
        rep_dir = run_dir / REPETITION_DIR.format(rep)
        series: list[float] = []
        memo: dict[str, tuple[str, FitnessPoint]] = {}
        for generation in range(generations + 1):
            path = rep_dir / GENERATION_FILE.format(generation)
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
    return RunReport(problem=pair, selector=selector, curves=tuple(curves))
