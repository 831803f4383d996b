"""One iteration of a workload, run in a fresh interpreter so that its set-up
time and peak memory belong to it alone.

Sets up (imports the package, builds the config and backends, and for the
live workload starts the stub server and waits until it listens), runs the
experiment with a progress callback, reloads the tree it wrote with
report.load_run, checks the results and writes one JSON result file.
Untraced iterations time REPORT_LOADS reloads, each of a tree no earlier
load in the process has read.
Untraced iterations also time calibration slices (perfbench/calibration.py)
next to what they time: one after set-up, one before and one after each
timed reload and, on the workloads whose run is pure CPU work, one on a
pool of SLOTS threads at a generation boundary whenever RUN_SLICE_EVERY_S
has passed since the last.
Each time is also reported divided by the speed factor of its slices, under
"scaled".
With --trace the run goes through the tracer's wrappers and the result also
holds every span.

    python3 perfbench/worker.py --workload offline --seed 0 --out DIR --result FILE
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import workloads  # noqa: E402

# the one line of summary.json a live run writes differently from a mock run
_LIVE_BACKEND_LINE = b'\n  "backend": "live",\n'
_MOCK_BACKEND_LINE = b'\n  "backend": "mock",\n'


def tree_stats(root: Path) -> dict:
    """One pass over every file under root: its sha256, its size in bytes,
    and the operator records of every gen_*.jsonl with how many of them
    are fallbacks.

    Files are hashed keyed by their relative path, and the backend field of
    summary.json is read as "mock", so a live run and a mock run of the
    same config hash alike exactly when their trees agree everywhere else.
    """
    digest = hashlib.sha256()
    size = records = fallbacks = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        if path.name == "summary.json":
            data = data.replace(_LIVE_BACKEND_LINE, _MOCK_BACKEND_LINE, 1)
        elif path.name.startswith("gen_") and path.suffix == ".jsonl":
            for line in data.splitlines():
                for record in json.loads(line)["operator_trace"]:
                    records += 1
                    fallbacks += bool(record["fallback"])
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0" + hashlib.sha256(data).digest())
    return {"checksum": digest.hexdigest(), "tree_bytes": size,
            "operator_records": records, "fallback_records": fallbacks}


# an untraced iteration times this many reloads: the first of the tree the
# run wrote, the others each of a fresh copy of it, so that no cache kept in
# the process can serve a load, as none can for the report command, which
# loads a run once; report_s is their median, since one load of a small
# tree takes milliseconds and a single sample moves with the box's load
REPORT_LOADS = 5


# the least time between two calibration slices in a run: a slice at about
# every sixth offline generation boundary and at nearly every wide one
RUN_SLICE_EVERY_S = 0.1


def timed_loads(load_run, tree: Path, run_dir: Path):
    """The report of run_dir, which lies under tree, and for each of
    REPORT_LOADS loads the seconds it took and the speed factor of the
    calibration slices on either side of it."""
    loads = []
    for index in range(REPORT_LOADS):
        path = run_dir
        if index:
            copy = tree.parent / f"reload_{index}"
            shutil.copytree(tree, copy)
            path = copy / run_dir.relative_to(tree)
        before = calibration.run_slice()
        started = time.perf_counter()
        loaded = load_run(path)
        took = time.perf_counter() - started
        loads.append((took, calibration.speed([before, calibration.run_slice()])))
        if index:
            shutil.rmtree(copy)
        else:
            report = loaded
    return report, loads


def scaled_intervals(stamps) -> list[float]:
    """Milliseconds from the end of each progress callback to the start of
    the next, for generations >= 1, each divided by the mean speed factor of
    the nearest slice before it and the nearest after it (of the one there
    is at either end of the run; by 1 when no slice ran)."""
    speeds = [stamp[4] for stamp in stamps]
    before, after = [], []
    for ordered, nearest in ((speeds, before), (speeds[::-1], after)):
        last = None
        for speed in ordered:
            last = speed if speed is not None else last
            nearest.append(last)
    after.reverse()
    intervals = []
    for index in range(1, len(stamps)):
        if stamps[index][3] >= 1:
            near = [s for s in (before[index - 1], after[index]) if s is not None] or [1.0]
            gap = stamps[index][0] - stamps[index - 1][1]
            intervals.append(gap * 1000 / statistics.fmean(near))
    return intervals


class StubServer:
    """The live workload's stub server, in a process of its own."""

    def __init__(self, seed: int):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=30)
            raise RuntimeError(f"stub server exited with code {self.process.returncode}")
        self.url = f"http://127.0.0.1:{json.loads(line)['port']}"

    def stop(self) -> dict | None:
        """Close the server's input, which stops it, and return its counters."""
        try:
            self.process.stdin.close()
            output = self.process.stdout.read()
            self.process.wait(timeout=30)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
        return json.loads(output) if output.strip() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory the run writes its tree into")
    parser.add_argument("--result", required=True, help="file the JSON result is written to")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("--mock", action="store_true",
                        help="run the live workload's experiment against the in-process mocks")
    args = parser.parse_args(argv)

    from moprompt import build_backends, run_experiment
    from moprompt.report import load_run

    server = None
    try:
        if args.workload == "live" and not args.mock:
            server = StubServer(args.seed)
        config = workloads.build_config(
            args.workload, args.seed, args.out, live_url=server.url if server else None
        )
        backends = build_backends(config)
        setup_s = time.perf_counter() - STARTED
        setup_speed = 1.0
        if not args.trace:
            setup_speed = calibration.speed([calibration.run_slice()])

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            backends = tracer.wrap_backends(backends)
        # a stamp is (callback start, callback end, repetition, generation,
        # speed factor of the slice the callback ran or None); the run's
        # time excludes the callbacks, in which untraced iterations of a
        # calibrated workload run their slices
        calibrated = not args.trace and args.workload in workloads.CALIBRATED_RUNS
        stamps: list[tuple[float, float, int, int, float | None]] = []
        sliced = -RUN_SLICE_EVERY_S

        def progress(rep, record):
            nonlocal sliced
            called = time.perf_counter()
            speed = None
            if calibrated and called - sliced >= RUN_SLICE_EVERY_S:
                speed = calibration.speed([calibration.run_slice(workloads.SLOTS)])
                sliced = time.perf_counter()
            stamps.append((called, time.perf_counter(), rep, record.generation_index, speed))

        with tracer.installed() if tracer else contextlib.nullcontext():
            started = time.perf_counter()
            if tracer:
                summary = tracer.call("runner.run_experiment", run_experiment,
                                      (config, backends), {"progress": progress})
            else:
                summary = run_experiment(config, backends, progress=progress)
            ran = time.perf_counter()
            if tracer:
                report = tracer.call("report.load_run", load_run, (Path(summary.out_dir),))
                loads = [(time.perf_counter() - ran, 1.0)]
            else:
                report, loads = timed_loads(load_run, Path(args.out), Path(summary.out_dir))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        server_counters = server.stop() if server else None

    run_s = ran - started - sum(end - called for called, end, *_ in stamps)
    speeds = [stamp[4] for stamp in stamps if stamp[4] is not None]
    run_speed = statistics.fmean(speeds) if speeds else 1.0
    run_dir = Path(summary.out_dir)
    with open(run_dir / "summary.json", encoding="utf-8") as handle:
        stored = json.load(handle)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s,
        "run_s": run_s,
        "report_s": statistics.median(took for took, _ in loads),
        "run_speed": run_speed,
        "scaled": {
            "setup_s": setup_s / setup_speed,
            "run_s": run_s / run_speed,
            "report_s": statistics.median(took / speed for took, speed in loads),
            "intervals_ms": scaled_intervals(stamps),
        },
        "peak_rss_mb": peak_rss_mb,
        "stamps": stamps,
        "hv_final_mean": summary.final_stats["mean"] if summary.final_stats else None,
        **tree_stats(Path(args.out)),
        "checks": {
            "every repetition ok": all(r["status"] == "ok" for r in stored["results"]),
            "report final stats equal summary": report.final_stats == stored["final"],
            "report running-max stats equal summary":
                report.running_max_stats == stored["running_max"],
        },
        "server": server_counters,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
