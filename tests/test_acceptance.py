"""Acceptance checks, one per criterion, each printing a PASS or FAIL line.

Run with -s to see every line; a failing criterion also fails its test.
The end-to-end criteria share one mock experiment via a module fixture.
Criterion 11 runs against EMO_LLM_URL and EMO_CLF_URL when both are set,
and otherwise against the benchmark's stub server.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from moprompt.domain import FitnessPoint, ObjectivePair
from moprompt.moea import (
    hv_subset_select,
    hypervolume_2d,
    nondominated_sort,
    nsga2_select,
    sms_emoa_select,
)
from moprompt.report import load_run
from moprompt.runner import BackendConfig, RunConfig, build_backends, run_experiment
from oracles import check_tree, hypervolume_oracle, sort_oracle
from test_backends import SIX_SCORES, StubServer

ORIGIN = (0.0, 0.0)
STUB_SERVER = Path(__file__).resolve().parent.parent / "perfbench" / "stub_server.py"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL {number}: {description}")
        raise
    print(f"PASS {number}: {description}")


def random_points(rng, n):
    return [FitnessPoint(rng.random(), rng.random()) for _ in range(n)]


@pytest.fixture(scope="module")
def mock_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    config = RunConfig(
        pair=ObjectivePair.parse("joy:fear"),
        mu=10,
        lam=20,
        generations=30,
        repetitions=3,
        selector="sms_emoa",
        hv_mode="exact",
        seed=0,
        out_dir=str(root / "a"),
    )
    started = time.perf_counter()
    summary = run_experiment(config, build_backends(config))
    elapsed = time.perf_counter() - started
    return root, config, summary, elapsed


def _series(root, config, rep):
    path = root / "a" / config.pair.slug / config.selector / f"rep_{rep}" / "hypervolume.csv"
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [float(row.split(",")[1]) for row in rows]


def test_criterion_1_hypervolume_matches_rectangle_union_oracle():
    with criterion(1, "sweep hypervolume equals rectangle-union oracle on 200 random sets"):
        rng = random.Random(2024)
        started = time.perf_counter()
        for _ in range(200):
            pts = random_points(rng, rng.randrange(1, 51))
            got = hypervolume_2d(pts)
            want = hypervolume_oracle(pts, ORIGIN)
            assert abs(got - want) <= 1e-12
        assert time.perf_counter() - started < 5.0


def test_criterion_2_ideal_diagonal_benchmark():
    with criterion(2, "ten equally spaced diagonal points score 4/9"):
        pts = [FitnessPoint(k / 9, 1 - k / 9) for k in range(10)]
        assert abs(hypervolume_2d(pts) - 4 / 9) <= 1e-12


def test_criterion_3_sorting_matches_dominance_matrix_oracle():
    with criterion(3, "nondominated sort equals dominance-matrix oracle on 100 random sets"):
        rng = random.Random(7)
        started = time.perf_counter()
        for _ in range(100):
            pts = random_points(rng, rng.randrange(1, 201))
            got = [sorted(front) for front in nondominated_sort(pts)]
            want = [sorted(front) for front in sort_oracle(pts)]
            assert got == want
        assert time.perf_counter() - started < 5.0


def test_criterion_4_exact_subset_selection_is_optimal():
    with criterion(4, "exact subset selection matches enumeration and never trails greedy"):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randrange(2, 13)
            k = rng.randrange(1, min(n, 6) + 1)
            pts = random_points(rng, n)
            exact = hv_subset_select(pts, k, "exact")
            exact_hv = hypervolume_2d([pts[i] for i in exact])
            best = max(
                hypervolume_2d([pts[i] for i in combo])
                for combo in itertools.combinations(range(n), k)
            )
            assert abs(exact_hv - best) <= 1e-12
            greedy = hv_subset_select(pts, k, "greedy")
            greedy_hv = hypervolume_2d([pts[i] for i in greedy])
            assert exact_hv >= greedy_hv - 1e-12


def test_criterion_5_selectors_are_deterministic_and_elitist():
    with criterion(5, "both selectors are deterministic, elitist on front 0, and size-exact"):
        rng = random.Random(23)
        for _ in range(100):
            pts = random_points(rng, 30)
            front0 = set(sort_oracle(pts)[0])
            for select in (
                lambda p: nsga2_select(p, 10),
                lambda p: sms_emoa_select(p, 10, "exact"),
                lambda p: sms_emoa_select(p, 10, "greedy"),
            ):
                first = select(pts)
                second = select(pts)
                assert first.selected == second.selected
                assert len(first.selected) == 10
                if len(front0) <= 10:
                    assert front0 <= set(first.selected)


def test_criterion_6_mock_run_hypervolume_is_monotone(mock_run):
    with criterion(6, "30-generation mock run keeps a non-decreasing hypervolume series"):
        root, config, summary, elapsed = mock_run
        assert summary.successes == 3
        for rep in range(3):
            series = _series(root, config, rep)
            assert len(series) == 31
            assert all(b >= a for a, b in zip(series, series[1:]))
        assert elapsed < 30.0


def test_criterion_7_mock_landscape_shows_selection_pressure(mock_run):
    with criterion(7, "final hypervolume beats initial by 0.05 in at least 2 of 3 repetitions"):
        root, config, _, _ = mock_run
        gains = []
        for rep in range(3):
            series = _series(root, config, rep)
            gains.append(series[-1] - series[0])
        assert sum(1 for gain in gains if gain >= 0.05) >= 2


def test_criterion_8_identical_configs_give_byte_identical_trees(mock_run):
    with criterion(8, "two identical mock experiments write byte-identical trees"):
        root, config, _, _ = mock_run
        again = RunConfig(
            pair=config.pair,
            mu=config.mu,
            lam=config.lam,
            generations=config.generations,
            repetitions=config.repetitions,
            selector=config.selector,
            hv_mode=config.hv_mode,
            seed=config.seed,
            out_dir=str(root / "b"),
        )
        run_experiment(again, build_backends(again))
        files_a = sorted(p for p in (root / "a").rglob("*") if p.is_file())
        files_b = sorted(p for p in (root / "b").rglob("*") if p.is_file())
        assert [p.relative_to(root / "a") for p in files_a] == [
            p.relative_to(root / "b") for p in files_b
        ]
        assert files_a
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()


def test_criterion_9_wire_contract():
    with criterion(9, "generation requests carry the decoding defaults and retries obey policy"):
        from moprompt.backends import BackendError, BackendPolicy, GenerationRequest
        from moprompt.live import OllamaClient, parse_classifier_response

        with StubServer([(200, {"response": "ok"})]) as server:
            OllamaClient(server.url).complete(GenerationRequest("hello"))
            _, _, body = server.seen[0]
            assert body["options"]["temperature"] == 0.7
            assert body["options"]["num_ctx"] == 512
        with StubServer([(500, {})]) as server:
            policy = BackendPolicy(max_retries=2, backoff=0.0)
            with pytest.raises(BackendError):
                OllamaClient(server.url, policy).complete(GenerationRequest("hello"))
            assert len(server.seen) == policy.max_retries + 1
        shuffled = [dict(e, label=e["label"].upper()) for e in reversed(SIX_SCORES)]
        assert parse_classifier_response(shuffled) == parse_classifier_response(SIX_SCORES)


def test_criterion_10_report_statistics_match_summaries(mock_run):
    with criterion(10, "report statistics recomputed from raw records match summary.json"):
        root, config, _, _ = mock_run
        run_dir = root / "a" / config.pair.slug / config.selector
        report = load_run(run_dir)
        stored = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        for recomputed, kept in (
            (report.final_stats, stored["final"]),
            (report.running_max_stats, stored["running_max"]),
        ):
            for key in ("best", "worst", "mean", "std_dev"):
                assert abs(recomputed[key] - kept[key]) <= 1e-12


@pytest.fixture
def live_services(monkeypatch):
    """The services criterion 11 calls: EMO_LLM_URL and EMO_CLF_URL when both
    are set, else perfbench/stub_server.py, which serves the in-process mocks
    with injected 503s. The stub is read, not edited: if it drops --seed for
    ROADMAP item 6's slice B, this fixture must follow."""
    if os.environ.get("EMO_LLM_URL") and os.environ.get("EMO_CLF_URL"):
        yield
        return
    command = [sys.executable, str(STUB_SERVER), "--seed", "0"]
    # the stub prints its port, serves until its stdin closes, then prints its counters
    with subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True, encoding="utf-8") as stub:
        url = f"http://127.0.0.1:{json.loads(stub.stdout.readline())['port']}"
        monkeypatch.setenv("EMO_LLM_URL", url)
        monkeypatch.setenv("EMO_CLF_URL", f"{url}/classify")
        yield
        counters, _ = stub.communicate(timeout=10)
    assert stub.returncode == 0
    counters = json.loads(counters)
    assert counters["requests"]["generate"] > 0 and counters["faults"] > 0


def test_criterion_11_live_smoke(tmp_path, live_services):
    with criterion(11, "live one-repetition run completes with positive hypervolume"):
        config = RunConfig(
            pair=ObjectivePair.parse("joy:fear"),
            mu=10,
            lam=20,
            generations=5,
            repetitions=1,
            selector="sms_emoa",
            hv_mode="exact",
            seed=0,
            out_dir=str(tmp_path),
            backend=BackendConfig(kind="live"),
        )
        with build_backends(config) as backends:
            summary = run_experiment(config, backends)
        assert summary.successes == 1
        assert summary.results[0].final_hypervolume > 0.0
        rep_dir = tmp_path / "joy_vs_fear" / "sms_emoa" / "rep_0"
        for gen in range(6):
            lines = rep_dir.joinpath(f"gen_{gen}.jsonl").read_text(encoding="utf-8").splitlines()
            assert len(lines) == 10
            for line in lines:
                record = json.loads(line)
                assert record["prompt"].strip()
                f1, f2 = record["fitness"]
                assert 0.0 <= f1 <= 1.0 and 0.0 <= f2 <= 1.0
        check_tree(rep_dir.parent)
