"""Generational loop: initialization, offspring, elitism, output tree."""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

import moprompt.runner as runner
from moprompt.backends import (
    BackendError,
    BackendPolicy,
    Backends,
    GenerationRequest,
    MockEmotionClassifier,
    MockTextGenerator,
)
from moprompt.domain import (
    EmotionLabel,
    EmotionScores,
    FitnessPoint,
    GeneratedText,
    Individual,
    ObjectivePair,
    Population,
    Prompt,
)
from moprompt.moea import hypervolume_2d
from moprompt.report import load_run
from moprompt.runner import (
    BackendConfig,
    RunConfig,
    build_backends,
    derive_rng,
    individual_from_dict,
    individual_to_dict,
    initialize,
    produce_offspring,
    run_experiment,
    step,
)
from moprompt.variation import MutationInstruction, OperatorSuite
from oracles import hypervolume_oracle
from test_backends import StubServer

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
    monkeypatch.setenv("EMO_LLM_URL", "http://localhost:11434")
    monkeypatch.setenv("EMO_CLF_URL", "http://localhost:8000/classify")
    monkeypatch.setenv("EMO_CLF_TOKEN", "tok")
    backends = build_backends(small_config(backend=BackendConfig(kind="live")))
    assert backends.generator.base_url == "http://localhost:11434"
    assert backends.classifier.base_url == "http://localhost:8000/classify"
    assert backends.classifier.token == "tok"


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
    lone = Population((make_parent(0, 0.5, 0.5),))
    with pytest.raises(ValueError, match="two parents"):
        produce_offspring(lone, backends, 0, config, generation=1)


def test_produce_offspring_zero_count():
    config = small_config(lam=0)
    parents = Population((make_parent(0, 0.5, 0.5), make_parent(1, 0.4, 0.6)))
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
    parents = Population((make_parent(0, 0.5, 0.5), make_parent(1, 0.4, 0.6)))
    offspring = produce_offspring(parents, backends, 0, config, generation=1)
    assert len(offspring) == 2
    for child in offspring:
        assert child.fitness == FitnessPoint(0.0, 0.0)
        trailing = child.operator_trace[-1]
        assert trailing.kind == "evaluation" and trailing.fallback


# one generation step


@pytest.mark.parametrize("selector", ["nsga2", "sms_emoa"])
def test_step_keeps_parents_when_offspring_are_dominated(selector):
    # offspring always score uniform 1/6 per emotion, dominated by every parent
    config = small_config(selector=selector)
    backends = Backends(generator=MockTextGenerator(), classifier=UniformClassifier())
    parents = Population(
        (
            make_parent(0, 0.9, 0.2),
            make_parent(1, 0.7, 0.6),
            make_parent(2, 0.5, 0.8),
            make_parent(3, 0.2, 0.9),
        )
    )
    survivors, record = step(parents, config, backends, 0, generation=1)
    assert sorted(ind.id for ind in survivors) == [0, 1, 2, 3]
    assert all(ind.rank == 0 for ind in survivors)
    assert record.generation_index == 1


def test_step_attaches_selector_diagnostics():
    config = small_config()
    backends = build_backends(config)
    population = initialize(config, backends)
    survivors, _ = step(population, config, backends, 0, generation=1)
    assert all(ind.crowding is not None for ind in survivors)
    assert all(ind.contribution is None for ind in survivors)
    sms = small_config(selector="sms_emoa")
    survivors, _ = step(population, sms, backends, 0, generation=1)
    assert all(ind.contribution is not None for ind in survivors)
    assert all(ind.crowding is None for ind in survivors)


def test_step_hypervolume_matches_oracle():
    config = small_config(selector="sms_emoa", hv_mode="exact")
    backends = build_backends(config)
    population = initialize(config, backends)
    survivors, record = step(population, config, backends, 0, generation=1)
    want = hypervolume_oracle(list(survivors.fitness_points()), (0.0, 0.0))
    assert record.hypervolume == pytest.approx(want, abs=1e-12)


def test_step_counts_offspring_fallbacks():
    # a dead generator forces crossover, mutation, and generation fallbacks
    config = small_config(lam=4)
    backends = Backends(generator=FailingGenerator(), classifier=UniformClassifier())
    parents = Population(
        tuple(make_parent(i, 0.5 + i / 100, 0.5 - i / 100) for i in range(4))
    )
    _, record = step(parents, config, backends, 0, generation=1)
    assert record.fallback_count == 12


def test_step_with_zero_lambda_reselects_parents():
    config = small_config(lam=0)
    backends = build_backends(config)
    parents = Population(
        (
            make_parent(0, 0.9, 0.2),
            make_parent(1, 0.7, 0.6),
            make_parent(2, 0.5, 0.8),
            make_parent(3, 0.2, 0.9),
        )
    )
    survivors, record = step(parents, config, backends, 0, generation=1)
    assert sorted(ind.id for ind in survivors) == [0, 1, 2, 3]
    assert record.fallback_count == 0


def test_step_with_one_parent_and_no_offspring():
    config = small_config(mu=1, lam=0)
    backends = build_backends(config)
    population = initialize(config, backends)
    survivors, _ = step(population, config, backends, 0, generation=1)
    assert [ind.id for ind in survivors] == [0]


# serialization round-trip


def test_individual_round_trip_through_json():
    config = small_config()
    backends = build_backends(config)
    population = initialize(config, backends)
    survivors, _ = step(population, config, backends, 0, generation=1)
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

    payload = json.loads((run_dir / "summary.json").read_text())
    assert payload["pair"] == "love_vs_anger"
    assert payload["selector"] == "sms_emoa"
    assert payload["mu"] == 4 and payload["lambda"] == 6
    assert payload["generations"] == 3 and payload["repetitions"] == 2
    assert [r["status"] for r in payload["results"]] == ["ok", "ok"]
    assert payload["final"]["best"] >= payload["final"]["worst"]
    assert payload["running_max"]["best"] >= payload["final"]["best"] - 1e-12


def test_run_experiment_series_consistent_with_population_files(tmp_path):
    config = small_config(out_dir=str(tmp_path))
    run_experiment(config, build_backends(config))
    rep_dir = tmp_path / "love_vs_anger" / "nsga2" / "rep_0"
    rows = rep_dir.joinpath("hypervolume.csv").read_text().splitlines()[1:]
    assert len(rows) == config.generations + 1
    for row in rows:
        gen, hv, _ = row.split(",")
        individuals = [
            individual_from_dict(json.loads(line))
            for line in rep_dir.joinpath(f"gen_{gen}.jsonl").read_text().splitlines()
        ]
        points = [ind.fitness for ind in individuals]
        assert float(hv) == hypervolume_2d(points, (0.0, 0.0))


def test_run_experiment_lineage_closure(tmp_path):
    config = small_config(out_dir=str(tmp_path))
    run_experiment(config, build_backends(config))
    rep_dir = tmp_path / "love_vs_anger" / "nsga2" / "rep_1"
    previous_ids = set()
    for gen in range(config.generations + 1):
        lines = rep_dir.joinpath(f"gen_{gen}.jsonl").read_text().splitlines()
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


def test_run_experiment_records_failed_repetitions(tmp_path):
    config = small_config(out_dir=str(tmp_path))
    backends = Backends(generator=MockTextGenerator(), classifier=FailingClassifier())
    summary = run_experiment(config, backends)
    assert summary.successes == 0
    assert all(r.status == "failed" for r in summary.results)
    assert summary.final_stats is None
    payload = json.loads(
        (tmp_path / "love_vs_anger" / "nsga2" / "summary.json").read_text()
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
        rows = (run_dir / f"rep_{rep}" / "hypervolume.csv").read_text().splitlines()[1:]
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


def test_live_run_overlaps_generation_and_classification(tmp_path):
    # the stub serves the mocks over HTTP, so the live tree must equal the
    # mock one; each client has one request slot, and the pool has a worker
    # for each, so a story and a classification can be in flight together
    generator, classifier = MockTextGenerator(), MockEmotionClassifier()

    def reply(path, body):
        if path == "/classify":
            scores = classifier.classify_emotions(GeneratedText(body["inputs"]))
            return 200, [{"label": k, "score": v} for k, v in scores.as_dict().items()]
        return 200, {"response": generator.complete(
            GenerationRequest(body["prompt"], system=body["system"])
        )}

    with StubServer(reply, delay=0.01) as server:
        live = small_config(out_dir=str(tmp_path / "live"), backend=BackendConfig(
            kind="live", llm_base_url=server.url, classifier_base_url=f"{server.url}/classify",
            policy=BackendPolicy(max_retries=0, backoff=0.0, max_concurrent_requests=1),
        ))
        summary = run_experiment(live, build_backends(live))
    assert summary.successes == live.repetitions
    assert set(server.path_max_inflight) == {"/api/generate", "/classify"}
    assert max(server.path_max_inflight.values()) == 1
    assert frozenset({"/api/generate", "/classify"}) in server.paths_together

    mock = small_config(out_dir=str(tmp_path / "mock"))
    run_experiment(mock, build_backends(mock))
    mock_dir = tmp_path / "mock" / "love_vs_anger" / "nsga2"
    live_dir = tmp_path / "live" / "love_vs_anger" / "nsga2"
    files = sorted(mock_dir.glob("rep_*/*"))
    assert len(files) == mock.repetitions * (mock.generations + 3)
    for path in files:
        assert (live_dir / path.relative_to(mock_dir)).read_bytes() == path.read_bytes(), path
    # the summaries differ only in the backend they name
    mock_summary = json.loads((mock_dir / "summary.json").read_text())
    live_summary = json.loads((live_dir / "summary.json").read_text())
    assert (live_summary.pop("backend"), mock_summary.pop("backend")) == ("live", "mock")
    assert live_summary == mock_summary


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
