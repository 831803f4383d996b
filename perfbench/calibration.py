"""Machine-speed calibration: the speed factors the worker divides its times by.

The benchmark runs on a shared box whose speed drifts by tens of percent,
over seconds and over minutes, with the load of its neighbours, and every
time spent on CPU work moves with that drift. To take it out, the worker
times a fixed slice of pure-Python work next to each thing it times: after
set-up, before and after each timed reload and, on the workloads whose run
is pure CPU work, at generation boundaries (from the progress callback,
outside the run's timed intervals, at most one per RUN_SLICE_EVERY_S), so
that the slices sample the machine's speed over the same seconds. The runner
calls the progress callback between generations, when no other thread of
the program is working, so nothing competes with a slice. The run's slices
run on a pool of as many threads as the runner's offspring pool: when the
box's cores are taken away in turn, threads handing the interpreter lock to
each other slow down much more than one thread alone, and a one-thread
slice misses that part of the drift. A speed factor is the slices' time
over what they take on the reference box (REFERENCE_ROUND_S per round); a
time divided by it reads as seconds on the reference box.

The slice uses only this file and the standard library, so no change to the
program can change it. It does what the program spends its time on: seeded
random draws, string splitting and joining, regular expression matching,
comparisons of float pairs, sorting and JSON encoding. It frees everything it
allocates and runs with the garbage collector off, so its time does not
depend on the size of the program's heap, and an untimed first round warms
the caches, so that it depends little on what the program touched before.
"""

from __future__ import annotations

import gc
import json
import random
import re
import time
from concurrent.futures import ThreadPoolExecutor

# seconds one round takes on the reference box (a 2-core shared VM) in a
# quiet phase; only the scale of the calibrated times depends on it
REFERENCE_ROUND_S = 1.0e-4
# rounds in a slice, about 20 ms: long enough that the cost of coming back
# to the slice's code after the program ran is a small part of it
ROUNDS = 200
# rounds in one task of a slice run on a thread pool, about a millisecond,
# which is what one offspring costs the offline workload's mock backends
BATCH = 10

_WORDS = (
    "love adore tender warm joy delight rage fury hate bitter resent scorn "
    "once upon a time quiet town long ago evening village pale sky spoke again"
).split()
_PATTERNS = tuple(re.compile(r"\b" + word + r"\b") for word in _WORDS[:12])


def _round(index: int) -> int:
    rng = random.Random(index)
    words = [rng.choice(_WORDS) for _ in range(24)]
    text = " ".join(words).lower()
    hits = sum(len(pattern.findall(text)) for pattern in _PATTERNS)
    merged: list[str] = []
    for word in words:
        if word not in merged and rng.random() < 0.9:
            merged.append(word)
    points = [(rng.random(), rng.random()) for _ in range(16)]
    dominated = sum(a[0] <= b[0] and a[1] <= b[1] and a != b for a in points for b in points)
    record = {"id": index, "prompt": " ".join(merged), "points": sorted(points)}
    return hits + dominated + len(json.dumps(record))


def speed(slices: list[float]) -> float:
    """How many times longer than on the reference box the slices took."""
    return sum(slices) / (len(slices) * ROUNDS * REFERENCE_ROUND_S)


def _batch(start: int) -> None:
    for index in range(start, start + BATCH):
        _round(index)


def run_slice(threads: int = 1) -> float:
    """Seconds that a slice of ROUNDS rounds of the fixed work took, after
    one untimed round that brings the work back into the caches. With more
    than one thread the rounds run in tasks of BATCH on a new thread pool of
    that many workers, as the runner produces offspring."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _round(ROUNDS)
        started = time.perf_counter()
        if threads == 1:
            for start in range(0, ROUNDS, BATCH):
                _batch(start)
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(_batch, range(0, ROUNDS, BATCH)))
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
