"""Per-layer metrics computed from the spans of a traced iteration.

A span's self time is its duration minus the part of it that its children
cover. Layer shares are measured in wall time: the union of the self
intervals of a layer's spans, across threads, over the wall time of the run
plus the reload, so two backend calls overlapping on the two slots count
once. The metrics' names and units are listed in BENCHMARK.json.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from workloads import LIVE_LATENCY_MS, SLOTS

LAYERS = ("backends", "variation", "moea", "runner", "report")
_GENERATE_KINDS = ("crossover", "mutation", "story")
_FALLBACK_KINDS = ("crossover", "mutation", "generation", "evaluation")
_SELECTORS = ("moea.nsga2_select", "moea.sms_emoa_select")
_MOEA_PARTS = ("nondominated_sort", "crowding_distance", "hv_contributions",
               "hv_subset_select", "hypervolume_2d")


def _merge(intervals):
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _length(merged) -> float:
    return sum(end - start for start, end in merged)


def _self_intervals(start, end, children):
    """[start, end] minus the union of the children's intervals."""
    gaps, cursor = [], start
    for child_start, child_end in _merge(children):
        if child_start > cursor:
            gaps.append((cursor, min(child_start, end)))
        cursor = max(cursor, child_end)
    if cursor < end:
        gaps.append((cursor, end))
    return gaps


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def iteration_metrics(result: dict) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, for one traced
    iteration's result."""
    spans = result["spans"]
    counts = result["counts"]
    children = defaultdict(list)
    for index, name, start, end, parent, rep, gen, info in spans:
        if parent is not None:
            children[parent].append((start, end))
    by_name = defaultdict(list)
    self_s = defaultdict(float)
    layer_intervals = defaultdict(list)
    for index, name, start, end, parent, rep, gen, info in spans:
        by_name[name].append((start, end, rep, gen, info))
        gaps = _self_intervals(start, end, children.get(index, ()))
        self_s[name] += _length(gaps)
        layer_intervals[name.split(".")[0]].extend(gaps)

    def durations(name):
        return [end - start for start, end, *_ in by_name[name]]

    def info(name):
        return [row[4] for row in by_name[name]]

    m: dict[str, float] = {}
    client_calls = []
    for kind in _GENERATE_KINDS:
        calls = durations(f"backends.generate.{kind}")
        client_calls += calls
        m[f"backends.generate.{kind}.calls"] = len(calls)
        m[f"backends.generate.{kind}.p50_ms"] = _p50(calls) * 1000
    m["backends.classify.calls"] = len(durations("backends.classify"))
    m["backends.generate.busy_s"] = sum(client_calls)
    m["backends.classify.busy_s"] = sum(durations("backends.classify"))
    m["backends.classify.p50_ms"] = _p50(durations("backends.classify")) * 1000
    client_calls += durations("backends.classify")

    server = result.get("server")
    if server:
        served = server["requests"]["generate"] + server["requests"]["classify"]
        m["backends.http.overhead_ms"] = _p50(client_calls) * 1000 - LIVE_LATENCY_MS
        m["backends.server.requests.generate"] = server["requests"]["generate"]
        m["backends.server.requests.classify"] = server["requests"]["classify"]
        m["backends.server.connections"] = server["connections"]
        m["backends.server.faults"] = server["faults"]
        m["backends.retries"] = served - len(client_calls)
        m["backends.server.inflight_mean"] = server["inflight_mean"]
        m["backends.server.inflight_max"] = server["inflight_max"]
    else:
        for name in ("backends.http.overhead_ms", "backends.server.requests.generate",
                     "backends.server.requests.classify", "backends.server.connections",
                     "backends.server.faults", "backends.retries",
                     "backends.server.inflight_mean", "backends.server.inflight_max"):
            m[name] = 0
    # request-seconds seen from the client, over what two slots could hold
    m["backends.slot_util"] = sum(client_calls) / (SLOTS * result["run_s"])

    for name in ("crossover", "mutate", "generate_text"):
        m[f"variation.{name}.self_s"] = self_s[f"variation.{name}"]
    for kind in _FALLBACK_KINDS:
        m[f"variation.fallbacks.{kind}"] = counts.get(f"fallback.{kind}", 0)

    selections = [d for name in _SELECTORS for d in durations(name)]
    m["moea.select_s"] = sum(selections)
    m["moea.select.p50_ms"] = _p50(selections) * 1000
    m["moea.candidates_n"] = _p50([n for name in _SELECTORS for n in info(name)])
    for part in _MOEA_PARTS:
        m[f"moea.{part}.self_s"] = self_s[f"moea.{part}"]
    m["moea.subset_calls"] = len(by_name["moea.hv_subset_select"])
    front0 = info("moea.nondominated_sort")
    m["moea.front0_size.p50"] = _p50(front0)
    m["moea.front0_size.max"] = max(front0, default=0)

    inits = durations("runner.initialize")
    m["runner.init_s"] = statistics.fmean(inits) if inits else 0.0
    m["runner.offspring_s"] = sum(durations("runner.produce_offspring"))
    offspring_busy = sum(
        end - start
        for name, rows in by_name.items() if name.startswith("backends.")
        for start, end, rep, gen, _ in rows if gen >= 1
    )
    m["runner.parallel_eff"] = (
        offspring_busy / (SLOTS * m["runner.offspring_s"]) if m["runner.offspring_s"] else 0.0
    )
    m["runner.threads_started"] = counts.get("threads_started", 0)
    m["runner.step_self_s"] = self_s["runner.step"]
    # persistence: from the return of initialize or step to the progress
    # callback, which the runner calls once the generation is on disk
    produced = {(rep, gen): end for name in ("runner.initialize", "runner.step")
                for start, end, rep, gen, _ in by_name[name]}
    m["runner.persist_s"] = sum(
        called - produced[(rep, gen)] for called, _, rep, gen, _ in result["stamps"]
    )
    m["runner.persist_bytes"] = result["tree_bytes"]

    m["report.load_s"] = sum(durations("report.load_run"))
    m["report.files_read"] = counts.get("report.files_read", 0)
    m["report.bytes_read"] = counts.get("report.bytes_read", 0)

    wall = sum(durations("runner.run_experiment")) + m["report.load_s"]
    for layer in LAYERS:
        m[f"layer.{layer}.share"] = _length(_merge(layer_intervals[layer])) / wall
    return m


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """Medians over the traced iterations, plus the tracing overhead: the
    median traced run_s over the median untraced run_s, both as measured
    (neither is divided by a speed factor)."""
    rows = [iteration_metrics(result) for result in traced]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["run_s"] for r in traced) / statistics.median(r["run_s"] for r in plain)
    )
    return metrics
