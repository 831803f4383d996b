"""Generational loop: initialization, offspring, elitism, output tree."""

import collections
import dataclasses
import functools
import json
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moprompt.runner as runner
from moprompt.backends import (
    BackendError,
    BackendPolicy,
    BackendRejected,
    Backends,
    GenerationRequest,
    MockEmotionClassifier,
    MockTextGenerator,
    truncate_to_token_budget,
)
from moprompt.domain import (
    EmotionLabel,
    EmotionScores,
    FitnessPoint,
    GeneratedText,
    Individual,
    ObjectivePair,
    Prompt,
    individual_from_dict,
    individual_to_dict,
    stats,
)
from moprompt.moea import hypervolume_2d
from moprompt.report import load_run
from moprompt.runner import (
    BackendConfig,
    RunConfig,
    build_backends,
    derive_rng,
    initialize,
    produce_offspring,
    run_experiment,
    step,
)
from moprompt.variation import MutationInstruction, OperatorSuite
from oracles import check_tree, hypervolume_oracle, is_rounded_stdev, sort_oracle
from test_backends import SIX_SCORES, StubServer

PAIR = ObjectivePair.parse("love:anger")


def small_config(**overrides):
    defaults = dict(pair=PAIR, mu=4, lam=6, generations=3, repetitions=2, seed=0)
    defaults.update(overrides)
    return RunConfig(**defaults)


class UniformClassifier:
    def classify_emotions(self, text):
        return EmotionScores({label: 1 / 6 for label in EmotionLabel})


class FailingClassifier:
    def classify_emotions(self, text):
        raise BackendError("classifier down")


class BuggyClassifier:
    def classify_emotions(self, text):
        raise TypeError("unsupported operand type(s)")


class FailingGenerator:
    def complete(self, request):
        raise BackendError("generator down")


def make_parent(i, f1, f2):
    return Individual(
        prompt=Prompt(f"seed prompt number {i}"),
        text=GeneratedText("placeholder"),
        fitness=FitnessPoint(f1, f2),
        id=i,
    )


# rng derivation


def test_derive_rng_is_reproducible():
    a = [derive_rng(0, "g", 1, "o", 2).random() for _ in range(3)]
    b = [derive_rng(0, "g", 1, "o", 2).random() for _ in range(3)]
    assert a == b


def test_derive_rng_separates_streams():
    draws = {derive_rng(0, "g", g, "o", i).random() for g in range(5) for i in range(5)}
    assert len(draws) == 25


# config validation


def test_run_config_validation():
    with pytest.raises(ValueError):
        small_config(mu=0)
    with pytest.raises(ValueError):
        small_config(lam=-1)
    with pytest.raises(ValueError):
        small_config(generations=0)
    with pytest.raises(ValueError):
        small_config(repetitions=0)
    with pytest.raises(ValueError):
        small_config(selector="tournament")
    with pytest.raises(ValueError):
        small_config(hv_mode="approximate")
    with pytest.raises(ValueError, match="seed prompts"):
        small_config(mu=11)  # only ten defaults to found from
    with pytest.raises(ValueError, match="mu must be >= 2"):
        small_config(mu=1)  # crossover needs two parents
    with pytest.raises(ValueError):
        small_config(backend=BackendConfig(kind="imaginary"))


# backend wiring


def test_build_backends_mock_uses_run_seed():
    backends = build_backends(small_config(seed=42))
    assert isinstance(backends.generator, MockTextGenerator)
    assert backends.generator.seed == 42


def test_build_backends_live_requires_urls(monkeypatch):
    monkeypatch.delenv("EMO_LLM_URL", raising=False)
    monkeypatch.delenv("EMO_CLF_URL", raising=False)
    config = small_config(backend=BackendConfig(kind="live"))
    with pytest.raises(ValueError, match="EMO_LLM_URL"):
        build_backends(config)
    monkeypatch.setenv("EMO_LLM_URL", "http://localhost:11434")
    with pytest.raises(ValueError, match="EMO_CLF_URL"):
        build_backends(config)


def test_build_backends_live_reads_env(monkeypatch):
    def reply(path, body):
        return (200, SIX_SCORES) if path == "/classify" else (200, {"response": "a story"})

    with StubServer(reply) as server:
        monkeypatch.setenv("EMO_LLM_URL", server.url)
        monkeypatch.setenv("EMO_CLF_URL", f"{server.url}/classify")
        monkeypatch.setenv("EMO_CLF_TOKEN", "tok")
        with build_backends(small_config(backend=BackendConfig(kind="live"))) as backends:
            assert backends.generator.complete(GenerationRequest("hi")) == "a story"
            scores = backends.classifier.classify_emotions(GeneratedText("a story"))
    assert scores.scores[EmotionLabel.SADNESS] == 0.5
    assert [path for path, _, _ in server.seen] == ["/api/generate", "/classify"]
    # only the classifier sends the token
    assert [headers.get("Authorization") for _, headers, _ in server.seen] == [None, "Bearer tok"]


# initialization


def test_initialize_founds_population_from_seed_prompts():
    config = small_config()
    population = initialize(config, build_backends(config))
    assert len(population) == config.mu
    assert [ind.id for ind in population] == [0, 1, 2, 3]
    assert [ind.prompt for ind in population] == list(config.seed_prompts[: config.mu])
    for ind in population:
        assert ind.parent_ids == ()
        assert [r.kind for r in ind.operator_trace] == ["generation"]
        assert 0.0 <= ind.fitness.f1 <= 1.0 and 0.0 <= ind.fitness.f2 <= 1.0
        assert ind.rank is None and ind.crowding is None


def test_initialize_aborts_on_classifier_failure():
    config = small_config()
    backends = Backends(generator=MockTextGenerator(), classifier=FailingClassifier())
    with pytest.raises(BackendError):
        initialize(config, backends)


def test_initialize_on_a_pool_equals_serial():
    config = small_config()
    backends = build_backends(config)
    with ThreadPoolExecutor(max_workers=3) as pool:
        pooled = initialize(config, backends, pool)
    assert pooled == initialize(config, backends)


# offspring production


def test_produce_offspring_needs_two_parents():
    config = small_config()
    backends = build_backends(config)
    lone = (make_parent(0, 0.5, 0.5),)
    with pytest.raises(ValueError, match="two parents"):
        produce_offspring(lone, backends, 0, config, generation=1)


def test_produce_offspring_zero_count():
    config = small_config(lam=0)
    parents = (make_parent(0, 0.5, 0.5), make_parent(1, 0.4, 0.6))
    assert produce_offspring(parents, build_backends(config), 0, config, generation=1) == []


def test_produce_offspring_ids_and_lineage():
    config = small_config()
    backends = build_backends(config)
    population = initialize(config, backends)
    offspring = produce_offspring(population, backends, 0, config, generation=1)
    assert [o.id for o in offspring] == [4, 5, 6, 7, 8, 9]
    parent_ids = {ind.id for ind in population}
    for child in offspring:
        assert len(child.parent_ids) == 2
        assert child.parent_ids[0] != child.parent_ids[1]
        assert set(child.parent_ids) <= parent_ids
        assert [r.kind for r in child.operator_trace] == ["crossover", "mutation", "generation"]
    # ids continue after the mu founders and lambda per earlier generation
    later = produce_offspring(population, backends, 0, config, generation=3)
    assert [o.id for o in later] == [16, 17, 18, 19, 20, 21]


def test_produce_offspring_identical_across_worker_counts():
    config = small_config()
    backends = build_backends(config)
    population = initialize(config, backends)
    serial = produce_offspring(population, backends, 5, config, generation=2)
    for workers in (1, 4):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pooled = produce_offspring(population, backends, 5, config, generation=2, pool=pool)
        assert pooled == serial
    assert [o.id for o in serial] == [10, 11, 12, 13, 14, 15]


def test_produce_offspring_uses_the_configured_operators():
    only = MutationInstruction(id="only", text="Reword this prompt")
    config = small_config(operators=OperatorSuite(mutation_instructions=(only,)))
    backends = build_backends(config)
    offspring = produce_offspring(
        initialize(config, backends), backends, 0, config, generation=1
    )
    assert {ind.operator_trace[1].instruction_id for ind in offspring} == {"only"}


def test_produce_offspring_downgrades_scoring_failure():
    config = small_config(lam=2)
    backends = Backends(generator=MockTextGenerator(), classifier=FailingClassifier())
    parents = (make_parent(0, 0.5, 0.5), make_parent(1, 0.4, 0.6))
    offspring = produce_offspring(parents, backends, 0, config, generation=1)
    assert len(offspring) == 2
    for child in offspring:
        assert child.fitness == FitnessPoint(0.0, 0.0)
        trailing = child.operator_trace[-1]
        assert trailing.kind == "evaluation" and trailing.fallback


def test_produce_offspring_lets_a_refused_scoring_request_through():
    class RefusingClassifier:
        def classify_emotions(self, text):
            raise BackendRejected("emotion classification failed: HTTP Error 403")

    config = small_config(lam=2)
    backends = Backends(generator=MockTextGenerator(), classifier=RefusingClassifier())
    parents = (make_parent(0, 0.5, 0.5), make_parent(1, 0.4, 0.6))
    with pytest.raises(BackendRejected, match="403"):
        produce_offspring(parents, backends, 0, config, generation=1)


# one generation step


@pytest.mark.parametrize("selector", ["nsga2", "sms_emoa"])
def test_step_keeps_parents_when_offspring_are_dominated(selector):
    # offspring always score uniform 1/6 per emotion, dominated by every parent
    config = small_config(selector=selector)
    backends = Backends(generator=MockTextGenerator(), classifier=UniformClassifier())
    parents = (
        make_parent(0, 0.9, 0.2),
        make_parent(1, 0.7, 0.6),
        make_parent(2, 0.5, 0.8),
        make_parent(3, 0.2, 0.9),
    )
    record = step(parents, config, backends, 0, generation=1)
    assert sorted(ind.id for ind in record.population) == [0, 1, 2, 3]
    assert all(ind.rank == 0 for ind in record.population)
    assert record.generation_index == 1


def test_step_attaches_selector_diagnostics():
    config = small_config()
    backends = build_backends(config)
    population = initialize(config, backends)
    survivors = step(population, config, backends, 0, generation=1).population
    assert all(ind.crowding is not None for ind in survivors)
    assert all(ind.contribution is None for ind in survivors)
    sms = small_config(selector="sms_emoa")
    survivors = step(population, sms, backends, 0, generation=1).population
    assert all(ind.contribution is not None for ind in survivors)
    assert all(ind.crowding is None for ind in survivors)


def test_step_hypervolume_matches_oracle():
    config = small_config(selector="sms_emoa", hv_mode="exact")
    backends = build_backends(config)
    population = initialize(config, backends)
    record = step(population, config, backends, 0, generation=1)
    want = hypervolume_oracle([ind.fitness for ind in record.population], (0.0, 0.0))
    assert record.hypervolume == pytest.approx(want, abs=1e-12)


def test_step_counts_offspring_fallbacks():
    # a dead generator forces crossover, mutation, and generation fallbacks
    config = small_config(lam=4)
    backends = Backends(generator=FailingGenerator(), classifier=UniformClassifier())
    parents = tuple(make_parent(i, 0.5 + i / 100, 0.5 - i / 100) for i in range(4))
    record = step(parents, config, backends, 0, generation=1)
    assert record.fallback_count == 12


def test_step_with_zero_lambda_reselects_parents():
    config = small_config(lam=0)
    backends = build_backends(config)
    parents = (
        make_parent(0, 0.9, 0.2),
        make_parent(1, 0.7, 0.6),
        make_parent(2, 0.5, 0.8),
        make_parent(3, 0.2, 0.9),
    )
    record = step(parents, config, backends, 0, generation=1)
    assert sorted(ind.id for ind in record.population) == [0, 1, 2, 3]
    assert record.fallback_count == 0


def test_step_with_one_parent_and_no_offspring():
    config = small_config(mu=1, lam=0)
    backends = build_backends(config)
    population = initialize(config, backends)
    survivors = step(population, config, backends, 0, generation=1).population
    assert [ind.id for ind in survivors] == [0]


# serialization round-trip


def test_individual_round_trip_through_json():
    config = small_config()
    backends = build_backends(config)
    population = initialize(config, backends)
    survivors = step(population, config, backends, 0, generation=1).population
    for ind in survivors:
        encoded = json.dumps(individual_to_dict(ind))
        assert individual_from_dict(json.loads(encoded)) == ind


def test_individual_round_trip_preserves_infinite_crowding():
    ind = make_parent(3, 0.9, 0.1).with_selection(rank=0, crowding=float("inf"))
    encoded = json.dumps(individual_to_dict(ind))
    assert individual_from_dict(json.loads(encoded)) == ind


# whole experiments


def test_run_experiment_writes_output_tree(tmp_path):
    config = small_config(out_dir=str(tmp_path), selector="sms_emoa", hv_mode="exact")
    summary = run_experiment(config, build_backends(config))
    assert summary.successes == 2
    run_dir = tmp_path / "love_vs_anger" / "sms_emoa"
    assert (run_dir / "summary.json").is_file()
    for rep in range(2):
        rep_dir = run_dir / f"rep_{rep}"
        for gen in range(4):
            assert (rep_dir / f"gen_{gen}.jsonl").is_file()
        assert (rep_dir / "hypervolume.csv").is_file()
        assert (rep_dir / "pareto_front.json").is_file()

    payload = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    assert payload["pair"] == "love_vs_anger"
    assert payload["selector"] == "sms_emoa"
    assert payload["mu"] == 4 and payload["lambda"] == 6
    assert payload["generations"] == 3 and payload["repetitions"] == 2
    assert [r["status"] for r in payload["results"]] == ["ok", "ok"]
    assert payload["final"]["best"] >= payload["final"]["worst"]
    assert payload["running_max"]["best"] >= payload["final"]["best"] - 1e-12


@settings(max_examples=45, deadline=None)
@given(st.sampled_from([("nsga2", "greedy"), ("sms_emoa", "greedy"), ("sms_emoa", "exact")]),
       st.integers(2, 10), st.integers(0, 20), st.integers(1, 3), st.integers(0, 1000))
def test_pareto_front_holds_front_0_of_the_last_generation(selection, mu, lam, generations,
                                                            seed):
    selector, hv_mode = selection
    with tempfile.TemporaryDirectory() as tmp:
        config = RunConfig(pair=PAIR, mu=mu, lam=lam, generations=generations, repetitions=1,
                           selector=selector, hv_mode=hv_mode, seed=seed, out_dir=tmp)
        run_experiment(config, build_backends(config))
        rep_dir = config.run_dir / "rep_0"
        lines = rep_dir.joinpath(f"gen_{generations}.jsonl").read_text(encoding="utf-8")
        records = [json.loads(line) for line in lines.splitlines()]
        front = json.loads(rep_dir.joinpath("pareto_front.json").read_text(encoding="utf-8"))
    front0 = sort_oracle([FitnessPoint(*record["fitness"]) for record in records])[0]
    assert front["individuals"] == [records[i] for i in front0]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([("nsga2", "greedy"), ("sms_emoa", "greedy"), ("sms_emoa", "exact")]),
       st.sampled_from(["love:anger", "joy:fear", "sadness:surprise", "joy:sadness"]),
       st.integers(2, 10), st.integers(0, 20), st.integers(1, 3), st.integers(1, 2),
       st.integers(0, 1000))
def test_every_small_mock_tree_passes_the_tree_oracle(selection, pair, mu, lam, generations,
                                                      repetitions, seed):
    selector, hv_mode = selection
    with tempfile.TemporaryDirectory() as tmp:
        config = RunConfig(pair=ObjectivePair.parse(pair), mu=mu, lam=lam,
                           generations=generations, repetitions=repetitions,
                           selector=selector, hv_mode=hv_mode, seed=seed, out_dir=tmp)
        run_experiment(config, build_backends(config))
        check_tree(config.run_dir)


def test_run_experiment_series_consistent_with_population_files(tmp_path):
    config = small_config(out_dir=str(tmp_path))
    run_experiment(config, build_backends(config))
    rep_dir = tmp_path / "love_vs_anger" / "nsga2" / "rep_0"
    rows = rep_dir.joinpath("hypervolume.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == config.generations + 1
    for row in rows:
        gen, hv, _ = row.split(",")
        lines = rep_dir.joinpath(f"gen_{gen}.jsonl").read_text(encoding="utf-8").splitlines()
        individuals = [individual_from_dict(json.loads(line)) for line in lines]
        points = [ind.fitness for ind in individuals]
        assert float(hv) == hypervolume_2d(points)


def test_run_experiment_lineage_closure(tmp_path):
    config = small_config(out_dir=str(tmp_path))
    run_experiment(config, build_backends(config))
    rep_dir = tmp_path / "love_vs_anger" / "nsga2" / "rep_1"
    previous_ids = set()
    for gen in range(config.generations + 1):
        lines = rep_dir.joinpath(f"gen_{gen}.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == config.mu
        fresh_start = config.mu + (gen - 1) * config.lam
        for record in records:
            if gen > 0 and record["id"] >= fresh_start:
                # members created this generation cite parents that
                # survived the previous one
                assert set(record["parent_ids"]) <= previous_ids
        previous_ids = {record["id"] for record in records}


def test_run_experiment_is_byte_reproducible(tmp_path):
    config_a = small_config(out_dir=str(tmp_path / "a"))
    config_b = small_config(out_dir=str(tmp_path / "b"))
    run_experiment(config_a, build_backends(config_a))
    run_experiment(config_b, build_backends(config_b))
    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert [p.relative_to(tmp_path / "a") for p in files_a] == [
        p.relative_to(tmp_path / "b") for p in files_b
    ]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_summary_std_dev_is_the_same_on_every_python(tmp_path):
    # the shape of the benchmark's live workload at seed 0, whose final
    # hypervolumes have a std_dev that a root rounded twice misses by one ulp
    config = small_config(mu=10, lam=20, generations=3, repetitions=4, out_dir=str(tmp_path))
    summary = run_experiment(config, build_backends(config))
    finals = [r.final_hypervolume for r in summary.results]
    assert summary.final_stats["std_dev"] == 0.01166849058694184
    assert not is_rounded_stdev(0.011668490586941839, finals)
    check_tree(config.run_dir)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300,
                          max_value=1e300), min_size=1, max_size=8))
def test_stats_std_dev_is_correctly_rounded(values):
    assert is_rounded_stdev(stats(values)["std_dev"], values)


def test_run_experiment_records_failed_repetitions(tmp_path):
    config = small_config(out_dir=str(tmp_path))
    backends = Backends(generator=MockTextGenerator(), classifier=FailingClassifier())
    summary = run_experiment(config, backends)
    assert summary.successes == 0
    assert all(r.status == "failed" for r in summary.results)
    assert summary.final_stats is None
    payload = json.loads(
        (tmp_path / "love_vs_anger" / "nsga2" / "summary.json").read_text(encoding="utf-8")
    )
    assert payload["final"] is None
    assert all(r["error"] for r in payload["results"])


def test_run_experiment_records_failed_live_repetitions(tmp_path):
    # the founding classifier failure surfaces through the run's pool too
    config = small_config(out_dir=str(tmp_path), backend=BackendConfig(kind="live"))
    backends = Backends(generator=MockTextGenerator(), classifier=FailingClassifier())
    summary = run_experiment(config, backends)
    assert [r.status for r in summary.results] == ["failed", "failed"]
    assert all(r.error == "classifier down" for r in summary.results)


def test_live_run_falls_back_on_stories_with_lone_surrogates(tmp_path):
    # the stub serves the mocks over HTTP, but every story reply carries the
    # escape of a lone surrogate, which json.loads accepts and no file can hold
    generator, classifier = MockTextGenerator(), MockEmotionClassifier()

    def reply(path, body):
        if path == "/classify":
            scores = classifier.classify_emotions(GeneratedText(body["inputs"]))
            return 200, [{"label": k, "score": v} for k, v in scores.as_dict().items()]
        request = GenerationRequest(body["prompt"], system=body["system"])
        text = generator.complete(request)
        if "Mutation Prompt:" in request.prompt_body or "One prompt is:" in request.prompt_body:
            return 200, {"response": text}
        return 200, {"response": text + "\ud800"}

    with StubServer(reply) as server:
        config = small_config(out_dir=str(tmp_path), backend=BackendConfig(
            kind="live", llm_base_url=server.url, classifier_base_url=f"{server.url}/classify",
            policy=BackendPolicy(max_retries=0, backoff=0.0, max_concurrent_requests=2),
        ))
        summary = run_experiment(config, build_backends(config))
    assert summary.successes == config.repetitions
    run_dir = tmp_path / "love_vs_anger" / "nsga2"
    assert len(load_run(run_dir).curves) == config.repetitions
    for rep in range(config.repetitions):
        path = run_dir / f"rep_{rep}" / "hypervolume.csv"
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == config.generations + 1
        # every offspring's story fell back to an empty text
        assert all(int(row.split(",")[2]) == config.lam for row in rows[1:])


def test_run_experiment_builds_one_pool_per_live_run(tmp_path, monkeypatch):
    built, batches = [], []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

        def map(self, fn, *iterables, **kwargs):
            batches.append(fn)
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr(runner, "ThreadPoolExecutor", RecordingPool)
    # only live backends get the pool; the mock pair stands in for the
    # clients so the pooled path runs offline
    live = small_config(
        out_dir=str(tmp_path / "live"),
        backend=BackendConfig(kind="live", policy=BackendPolicy(max_concurrent_requests=3)),
    )
    run_experiment(live, build_backends(small_config()))
    assert built == [6]
    # every repetition founds and breeds on it, one batch per generation
    assert len(batches) == live.repetitions * (live.generations + 1)

    mock = small_config(out_dir=str(tmp_path / "mock"))
    run_experiment(mock, build_backends(mock))
    assert built == [6]
    # and the pool changes no record
    mock_dir = tmp_path / "mock" / "love_vs_anger" / "nsga2"
    live_dir = tmp_path / "live" / "love_vs_anger" / "nsga2"
    files = sorted(mock_dir.glob("rep_*/*"))
    assert len(files) == mock.repetitions * (mock.generations + 3)
    for path in files:
        assert (live_dir / path.relative_to(mock_dir)).read_bytes() == path.read_bytes(), path


INJECTED = {"error": "injected fault"}


def mock_service(faults):
    """A stub script that serves the mocks over HTTP, seeding the generator
    with the seed the request carries, so a live tree equals the mock one.
    faults maps (path, request number) to the (status, payload) sent in
    place of that request's reply; served lists the faults sent."""
    classifier = MockEmotionClassifier()
    requests, served, lock = collections.Counter(), [], threading.Lock()

    def reply(path, body):
        with lock:
            requests[path] += 1
            fault = faults.get((path, requests[path]))
            if fault:
                served.append(((path, requests[path]), fault))
                return fault
        if path == "/classify":
            scores = classifier.classify_emotions(GeneratedText(body["inputs"]))
            return 200, [{"label": k, "score": v} for k, v in scores.as_dict().items()]
        return 200, {"response": MockTextGenerator(seed=body["options"]["seed"]).complete(
            GenerationRequest(body["prompt"], system=body["system"])
        )}

    return reply, served


def live_config(server, max_retries=0, timeout=BackendPolicy.timeout, **overrides):
    """small_config against server, one request slot per client, no backoff."""
    return small_config(backend=BackendConfig(
        kind="live", llm_base_url=server.url, classifier_base_url=f"{server.url}/classify",
        policy=BackendPolicy(timeout=timeout, max_retries=max_retries, backoff=0.0,
                             max_concurrent_requests=1),
    ), **overrides)


@pytest.mark.parametrize("seed, faults, http11, idle_timeout, timeout", [
    (0, {}, False, None, None),
    # two transient replies, each passing on its one retry, over kept-alive connections
    (7, {("/api/generate", 4): (503, INJECTED), ("/classify", 2): (429, INJECTED)}, True, None,
     None),
    # the server closes a kept-alive connection idle for 5 ms, so the clients reconnect
    (3, {}, True, 0.005, None),
    # a reset before the reply; each connection is new, so the retry policy meets it
    (1, {("/classify", 3): (None, None)}, False, None, None),
    # a reply later than the client's timeout, which closes that connection
    (2, {("/api/generate", 5): (200, INJECTED, 1.0)}, True, None, 0.5),
], ids=["seed_0", "seed_7_with_faults", "seed_3_idle_close", "seed_1_reset",
        "seed_2_late_reply"])
def test_live_run_overlaps_generation_and_classification(tmp_path, seed, faults, http11,
                                                         idle_timeout, timeout):
    # each client has one request slot, and the pool has a worker for each,
    # so a story and a classification can be in flight together
    reply, served = mock_service(faults)
    with StubServer(reply, delay=0.01, http11=http11, idle_timeout=idle_timeout) as server:
        live = live_config(server, max_retries=1 if faults else 0,
                           timeout=timeout or BackendPolicy.timeout, seed=seed,
                           out_dir=str(tmp_path / "live"))
        # closing the clients closes their kept-alive connections
        with build_backends(live) as backends:
            summary = run_experiment(live, backends)
    assert summary.successes == live.repetitions
    assert dict(served) == faults
    if idle_timeout:
        assert server.connections > 2
    if timeout:  # one kept-alive connection per client, and one opened for the retry
        assert server.connections == 3
    assert set(server.path_max_inflight) == {"/api/generate", "/classify"}
    assert max(server.path_max_inflight.values()) == 1
    assert frozenset({"/api/generate", "/classify"}) in server.paths_together
    assert_live_tree_is_the_mock_tree(live, tmp_path / "mock")


def assert_live_tree_is_the_mock_tree(live, mock_root):
    """The live run's tree passes check_tree and equals a mock run's with the
    same config byte for byte, apart from the backend its summary names."""
    mock = dataclasses.replace(live, backend=BackendConfig(), out_dir=str(mock_root))
    run_experiment(mock, build_backends(mock))
    check_tree(live.run_dir)
    files = sorted(mock.run_dir.glob("rep_*/*"))
    assert len(files) == mock.repetitions * (mock.generations + 3)
    for path in files:
        live_path = live.run_dir / path.relative_to(mock.run_dir)
        assert live_path.read_bytes() == path.read_bytes(), path
    mock_summary = json.loads((mock.run_dir / "summary.json").read_text(encoding="utf-8"))
    live_summary = json.loads((live.run_dir / "summary.json").read_text(encoding="utf-8"))
    assert (live_summary.pop("backend"), mock_summary.pop("backend")) == ("live", "mock")
    assert live_summary == mock_summary


RETRYABLE = [(503, INJECTED), (429, INJECTED), (None, None)]  # None: a TCP reset


@functools.cache
def distinct_requests(seed):
    """How many distinct bodies each path gets in the live run of
    test_live_run_writes_the_mock_tree_under_any_retryable_schedule at seed,
    counted on its mock run: through its one request slot a client sends
    each distinct body exactly once, and retries only add to these counts."""
    generator, classifier = MockTextGenerator(seed=seed), MockEmotionClassifier()
    requests, texts = set(), set()

    class Generator:
        def complete(self, request):
            requests.add(request)
            return generator.complete(request)

    class Classifier:
        def classify_emotions(self, text):
            texts.add(truncate_to_token_budget(text))
            return classifier.classify_emotions(text)

    with tempfile.TemporaryDirectory() as tmp:
        config = small_config(generations=2, repetitions=1, seed=seed, out_dir=tmp)
        assert run_experiment(config, Backends(Generator(), Classifier())).successes == 1
    return {"/api/generate": len(requests), "/classify": len(texts)}


@st.composite
def fault_schedules(draw):
    """A seed, then up to four retryable faults at distinct (path, request
    number) slots within that seed's distinct requests, at most one of them
    a reply later than 0.25 s."""
    seed = draw(st.integers(0, 3))
    counts = distinct_requests(seed)
    slot = st.sampled_from(sorted(counts)).flatmap(
        lambda path: st.tuples(st.just(path), st.integers(1, counts[path])))
    slots = draw(st.lists(slot, max_size=4, unique=True))
    late = draw(st.integers(-1, len(slots) - 1))  # the late one's position, if any
    return seed, {key: (200, INJECTED, 1.0) if n == late else draw(st.sampled_from(RETRYABLE))
                  for n, key in enumerate(slots)}


@settings(max_examples=15, deadline=None)
@given(fault_schedules(), st.sampled_from([(False, None), (True, None), (True, 0.005)]))
def test_live_run_writes_the_mock_tree_under_any_retryable_schedule(schedule, transport):
    # the pool's two workers take the one generate slot in either order, so a
    # request number does not name one request, and a retry may land on a
    # later fault: a retry per scheduled fault covers every request
    seed, faults = schedule
    http11, idle_timeout = transport
    reply, served = mock_service(faults)
    with tempfile.TemporaryDirectory() as tmp:
        with StubServer(reply, http11=http11, idle_timeout=idle_timeout) as server:
            live = live_config(server, max_retries=len(faults), timeout=0.25, generations=2,
                               repetitions=1, seed=seed, out_dir=f"{tmp}/live")
            with build_backends(live) as backends:
                assert run_experiment(live, backends).successes == 1
        assert dict(served) == faults
        assert_live_tree_is_the_mock_tree(live, f"{tmp}/mock")


def test_live_run_counts_a_malformed_reply_as_one_fallback(tmp_path):
    # after repetition 0's four founders, generate request 6 belongs to its
    # first generation; a malformed reply is not retried but falls back
    faults = {("/api/generate", 6): (200, b"not json")}
    reply, served = mock_service(faults)
    with StubServer(reply, http11=True) as server:
        live = live_config(server, out_dir=str(tmp_path))
        with build_backends(live) as backends:
            summary = run_experiment(live, backends)
    assert summary.successes == live.repetitions
    assert dict(served) == faults
    counts = {}
    for rep in range(live.repetitions):
        path = live.run_dir / f"rep_{rep}" / "hypervolume.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        for line in lines[1:]:
            generation, _, fallbacks = line.split(",")
            counts[rep, int(generation)] = int(fallbacks)
    assert counts == {(rep, g): int((rep, g) == (0, 1)) for rep in range(live.repetitions)
                      for g in range(live.generations + 1)}
    check_tree(live.run_dir)


def test_run_experiment_never_pools_mock_backends(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("mock backends must not start a thread pool")

    monkeypatch.setattr(runner, "ThreadPoolExecutor", no_pool)
    config = small_config(
        out_dir=str(tmp_path),
        backend=BackendConfig(policy=BackendPolicy(max_concurrent_requests=4)),
    )
    assert run_experiment(config, build_backends(config)).successes == 2


def test_run_experiment_propagates_programming_errors(tmp_path):
    config = small_config(out_dir=str(tmp_path))
    backends = Backends(generator=MockTextGenerator(), classifier=BuggyClassifier())
    with pytest.raises(TypeError, match="unsupported operand"):
        run_experiment(config, backends)
