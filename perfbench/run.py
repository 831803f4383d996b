"""The repository benchmark: runs a workload for a fixed time and prints its
metrics.

    python3 perfbench/run.py --workload offline --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout. Each iteration is a fresh
interpreter (perfbench/worker.py) that sets up, runs the experiment through
the public API (run_experiment with a progress callback), reloads the tree
with report.load_run and checks it; its tree goes to a temporary directory
inside the checkout that is removed afterwards. Iterations repeat until
--seconds have passed, and the metrics are medians over them. The names
and units of the metrics are read from BENCHMARK.json.

The box the benchmark runs on is shared, and its speed drifts by tens of
percent over seconds and minutes. Each untraced iteration therefore times
fixed calibration slices (perfbench/calibration.py) next to what it times,
outside the timed intervals, and divides each time by the speed factor of
the slices next to it: their time over their time on the reference box.
setup_s and report_s are scaled on every workload; run_s and the
generation intervals on offline and wide, whose runs are pure CPU work (a
generation interval by the slices nearest before and after it, run_s by all
of the run's slices).
The live workload's run mostly waits on its stub server, so those are
reported as measured there. The scaled metrics read as seconds on the
reference box; the times as measured are printed before the result.

With --trace 0 the result holds the end-to-end metrics; with --trace 1
untraced and traced iterations alternate and the result holds the per-layer
metrics from the traced ones, plus the tracing overhead. --workload all
runs every workload, alternating their order between rounds.

Every iteration is checked, and one that fails a check counts as a failed
operation: every repetition ended ok, the reloaded statistics equal the
summary, and the tree hashes to the value recorded for the workload and
seed in perfbench/checksums.json. The live tree hashes like the mock tree
of the same config, so it also must equal it. For a seed with no recorded
value the hash is computed instead: every iteration must agree with the
first, and for live with a mock run of the same config.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the percentile gen_tail_ms reports, with at least ten samples beyond it in
# MIN_PLAIN iterations (300, 25 and 12 generation intervals per iteration);
# offline could afford p95, but on a shared box it moves twice as much as p90
TAIL_PERCENTILE = {"offline": 90, "wide": 85, "live": 70}
# iterations of each kind that an invocation makes however long they take
MIN_PLAIN = 3
MIN_TRACED = 2
WORKER_TIMEOUT_S = 150
TMP_DIR = ".perfbench_tmp"
# how long past --seconds iterations may go on to reach the minimum counts
GRACE_S = 30


def run_worker(root: Path, work: Path, workload: str, seed: int, traced: bool, mock=False) -> dict:
    """Run one iteration; its result, or {"error": ...} when it broke."""
    out = Path(tempfile.mkdtemp(dir=work))
    result_file = out / "result.json"
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out / "tree"), "--result", str(result_file)]
    command += ["--trace"] * traced + ["--mock"] * mock
    try:
        done = subprocess.run(command, cwd=root, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            return {"error": f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}"}
        with open(result_file, encoding="utf-8") as handle:
            return json.load(handle)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(out, ignore_errors=True)


class Workload:
    """The iterations of one workload and the checks on them."""

    def __init__(self, name: str, seed: int, recorded: dict):
        self.name = name
        self.seed = seed
        self.expected = recorded.get(name, {}).get(str(seed))
        self.compared = self.expected is not None
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.failures: list[str] = []

    def reference(self, root: Path, work: Path) -> None:
        """Without a recorded hash, a live run must still match the mock run
        of its config, so run that once."""
        if self.expected is None and self.name == "live":
            mock = run_worker(root, work, self.name, self.seed, traced=False, mock=True)
            self.expected = mock.get("checksum")
            if self.expected is None:
                self.failures.append(f"mock reference run failed: {mock['error']}")

    def add(self, result: dict) -> None:
        if "error" in result:
            self.failures.append(result["error"])
            return
        problems = [name for name, ok in result["checks"].items() if not ok]
        if self.expected is None:
            self.expected = result["checksum"]
        if result["checksum"] != self.expected:
            problems.append(f"tree checksum {result['checksum']} != {self.expected}")
        if problems:
            self.failures.append("; ".join(problems))
            return
        (self.traced if result["traced"] else self.plain).append(result)

    @property
    def attempted(self) -> int:
        return len(self.plain) + len(self.traced) + len(self.failures)

    def intervals(self) -> list[float]:
        """The scaled generation intervals of every untraced iteration."""
        return [ms for r in self.plain for ms in r["scaled"]["intervals_ms"]]

    def scaled(self, metric: str) -> list[float]:
        """A time of every untraced iteration divided by the speed factor of
        its calibration slices."""
        return [r["scaled"][metric] for r in self.plain]

    def fallback_ratio(self) -> float:
        """Operator records with a fallback over all operator records."""
        records = sum(r["operator_records"] for r in self.plain)
        return sum(r["fallback_records"] for r in self.plain) / records

    def end_to_end(self) -> dict[str, float]:
        runs = self.plain
        intervals = self.intervals()
        return {
            "setup_s": statistics.median(self.scaled("setup_s")),
            "run_s": statistics.median(self.scaled("run_s")),
            "gen_p50_ms": statistics.median(intervals),
            "gen_tail_ms": statistics.quantiles(intervals, n=100)[TAIL_PERCENTILE[self.name] - 1],
            "report_s": statistics.median(self.scaled("report_s")),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "hv_final_mean": runs[0]["hv_final_mean"],
            # the share of operator records without a fallback: the
            # fallback ratio is 0 on every workload, and a metric must not be
            "ok_op_ratio": 1 - self.fallback_ratio(),
        }

    def record(self, root: Path) -> dict:
        """What ran: interpreter, cores, source revision and result hash."""
        runs = self.plain + self.traced
        return {
            "workload": self.name,
            "seed": self.seed,
            "python": runs[0]["python"] if runs else platform.python_version(),
            "cpu_count": runs[0]["cpu_count"] if runs else os.cpu_count(),
            "git_rev": _git_rev(root),
            "checksum": self.expected,
            "checksum_source": "recorded" if self.compared else "computed",
            "iterations": {"untraced": len(self.plain), "traced": len(self.traced),
                           "failed": len(self.failures)},
        }


def _git_rev(root: Path) -> str | None:
    """The commit checked out at root, when root is a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def _spread(values) -> str:
    if len(values) < 2:
        return ""
    low, high = min(values), max(values)
    return f"  (n={len(values)}, min {low:.4g}, max {high:.4g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting iterations, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "moprompt" / "__init__.py").is_file():
        print(f"error: no moprompt sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(HERE / "checksums.json", encoding="utf-8") as handle:
        recorded = json.load(handle)
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        units = {m["name"]: m["unit"]
                 for m in json.load(handle)["per_layer" if args.trace else "end_to_end"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workloads = {name: Workload(name, args.seed, recorded) for name in names}
    modes = [False, True] if args.trace else [False]
    (root / TMP_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / TMP_DIR))
    try:
        # fill the bytecode cache before anything is timed
        subprocess.run([sys.executable, "-c", "import moprompt.cli, tracer, layers, stub_server"],
                       cwd=HERE, env={**os.environ, "PYTHONPATH": str(root / "src")},
                       check=True, timeout=WORKER_TIMEOUT_S)
        for workload in workloads.values():
            workload.reference(root, work)
        budget = args.seconds * len(names)
        started = time.perf_counter()
        rounds: list[float] = []
        while True:
            # a traced invocation needs untraced iterations only for the overhead
            enough = all(
                len(w.plain) >= (MIN_TRACED if args.trace else MIN_PLAIN)
                and len(w.traced) >= (MIN_TRACED if args.trace else 0)
                for w in workloads.values()
            )
            elapsed = time.perf_counter() - started
            if enough and elapsed + statistics.median(rounds) > budget:
                break
            if elapsed > budget + GRACE_S:
                break
            round_start = time.perf_counter()
            flip = len(rounds) % 2 == 1
            for name in reversed(names) if flip else names:
                for traced in reversed(modes) if flip else modes:
                    workloads[name].add(run_worker(root, work, name, args.seed, traced))
            rounds.append(time.perf_counter() - round_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / TMP_DIR).rmdir()
        except OSError:
            pass

    attempted = sum(w.attempted for w in workloads.values())
    failed = sum(len(w.failures) for w in workloads.values())
    metrics: dict[str, dict] = {}
    for name, workload in workloads.items():
        print(json.dumps({"record": workload.record(root)}))
        for failure in workload.failures:
            print(f"{name}: FAILED: {failure}")
        if not workload.plain or (args.trace and not workload.traced):
            continue
        prefix = f"{name}." if len(names) > 1 else ""
        if args.trace:
            values = per_layer(workload.traced, workload.plain)
        else:
            values = workload.end_to_end()
            print(f"{name}: fallback_ratio {workload.fallback_ratio():.4g}, "
                  f"{len(workload.intervals())} generation intervals, "
                  f"gen_tail_ms is p{TAIL_PERCENTILE[name]}")
        if set(values) != set(units):
            raise RuntimeError(f"computed metrics {sorted(values)} are not the ones "
                               f"BENCHMARK.json lists: {sorted(units)}")
        if not args.trace:
            speeds = [r["run_speed"] for r in workload.plain]
            print(f"{name}: run speed factor {statistics.median(speeds):.4g}{_spread(speeds)}; "
                  + ", ".join(f"{metric} as measured "
                              f"{statistics.median(r[metric] for r in workload.plain):.4g} s"
                              for metric in ("setup_s", "run_s", "report_s")))
        for metric in units:
            samples = []
            if not args.trace and metric in ("setup_s", "run_s", "report_s"):
                samples = workload.scaled(metric)
            print(f"{name}: {metric} {values[metric]:.6g} {units[metric]}{_spread(samples)}")
            metrics[prefix + metric] = {"value": values[metric], "unit": units[metric]}
    complete = all(w.plain and (not args.trace or w.traced) for w in workloads.values())
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
