"""The generational loop and experiment driver.

A run evolves a population of prompts under a (mu + lambda) scheme: every
generation draws parent pairs, applies crossover then mutation, generates
and scores one text per offspring, and selects mu survivors from parents
plus offspring. An experiment repeats the run with shifted seeds and writes
a fully reproducible output tree: per-generation population records, a
hypervolume series per repetition, the final Pareto front, and a summary.

A survivor's record changes from one generation to the next only in its
selection fields (rank, crowding, contribution), and most survivors keep
even those: selection hands such a survivor on as the same object, which
writes again the line it has already encoded (`Individual.record_line`). A
survivor is encoded when it enters the population and again whenever
selection changes one of its fields. A repetition holds one population plus
one (generation, hypervolume, fallback count) row per generation, not every
generation's population.
"""

from __future__ import annotations

import json
import logging
import os
import random
import statistics
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import variation
from .backends import (
    BackendError,
    BackendPolicy,
    BackendRejected,
    Backends,
    CLASSIFIER_TOKEN_ENV,
    CLASSIFIER_URL_ENV,
    LLM_URL_ENV,
    LlmSettings,
    MockEmotionClassifier,
    MockTextGenerator,
)
from .domain import (
    EmotionLabel,
    FitnessPoint,
    Individual,
    ObjectivePair,
    OperatorRecord,
    Prompt,
    extract_fitness,
    individual_to_dict,
)
from .moea import hypervolume_2d, nsga2_select, sms_emoa_select
from .rules import check_fields, choice, integer, text, token, url

logger = logging.getLogger(__name__)

SELECTORS = ("nsga2", "sms_emoa")
HV_MODES = ("greedy", "exact")
BACKEND_KINDS = ("mock", "live")

# ten plain story instructions used to found the initial population; any
# list of at least mu prompts can replace them through the config
DEFAULT_SEED_PROMPTS = tuple(
    Prompt(text)
    for text in (
        "provide a 3 sentence story",
        "write a 3 sentence story",
        "tell a short story in three sentences",
        "compose a three sentence tale",
        "create a brief story of exactly three sentences",
        "narrate a small story using three sentences",
        "produce a three sentence short story",
        "share a tiny story told in three sentences",
        "invent a story that spans three sentences",
        "craft a concise three sentence story",
    )
)


@dataclass(frozen=True)
class BackendConfig:
    """Which backends a run talks to and how. URLs and the token are checked
    here for either kind, so a bad one fails when the config loads. lexicons
    are the mock classifier's keyword lists (`load_lexicons`), None the defaults."""

    kind: str = field(default="mock", metadata=choice(BACKEND_KINDS, name="backend"))
    llm: LlmSettings = field(default_factory=LlmSettings)
    llm_base_url: str | None = field(default=None, metadata=url("llm.base_url"))
    classifier_base_url: str | None = field(default=None, metadata=url("classifier.base_url"))
    classifier_token: str | None = field(default=None, metadata=token("classifier.token"))
    policy: BackendPolicy = field(default_factory=BackendPolicy)
    lexicons: dict[EmotionLabel, tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, with defaults matching the reference setup."""

    pair: ObjectivePair
    mu: int = field(default=10, metadata=integer(1))
    lam: int = field(default=20, metadata=integer(0, name="lambda"))
    generations: int = field(default=30, metadata=integer(1))
    repetitions: int = field(default=10, metadata=integer(1))
    selector: str = field(default="nsga2", metadata=choice(SELECTORS))
    hv_mode: str = field(default="greedy", metadata=choice(HV_MODES))
    seed: int = field(default=0, metadata=integer())
    seed_prompts: tuple[Prompt, ...] = DEFAULT_SEED_PROMPTS
    backend: BackendConfig = field(default_factory=BackendConfig)
    # the file system takes no NUL in a path, and mkdir raises for one
    out_dir: str = field(default="runs", metadata=text(
        then=lambda value: "must not hold a NUL character" if "\0" in value else None))
    operators: variation.OperatorSuite = field(default_factory=variation.OperatorSuite)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.lam > 0 and self.mu < 2:
            raise ValueError("mu must be >= 2 when lambda > 0 (crossover needs two parents)")
        if len(self.seed_prompts) < self.mu:
            raise ValueError(
                f"need at least mu={self.mu} seed prompts, got {len(self.seed_prompts)}"
            )

    @property
    def run_dir(self) -> Path:
        """The directory run_experiment writes this run's tree to."""
        return Path(self.out_dir) / self.pair.slug / self.selector


@dataclass(frozen=True)
class GenerationRecord:
    """Snapshot of one generation's surviving population."""

    generation_index: int
    population: tuple[Individual, ...]
    hypervolume: float
    fallback_count: int


@dataclass(frozen=True)
class RepetitionResult:
    repetition: int
    status: str
    final_hypervolume: float | None = None
    max_hypervolume: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class RunSummary:
    results: tuple[RepetitionResult, ...]
    final_stats: dict | None
    running_max_stats: dict | None
    out_dir: str

    @property
    def successes(self) -> int:
        return sum(1 for r in self.results if r.status == "ok")


def derive_rng(*parts) -> random.Random:
    """A reproducible generator keyed on a path of seed components."""
    return random.Random(":".join(str(p) for p in parts))


def build_backends(config: RunConfig) -> Backends:
    """Instantiate the generator/classifier pair the config asks for.

    Live URLs come from the config or the EMO_LLM_URL / EMO_CLF_URL
    environment variables; EMO_CLF_TOKEN supplies an optional bearer token.
    The generation client is given the run's decoding settings and the seed
    the mock generator takes, which it sends with every request. The HTTP
    clients are imported here, so a mock run never loads them.
    """
    bc = config.backend
    if bc.kind == "mock":
        return Backends(
            generator=MockTextGenerator(seed=config.seed),
            classifier=MockEmotionClassifier(lexicons=bc.lexicons),
        )
    llm_url = bc.llm_base_url or os.environ.get(LLM_URL_ENV)
    clf_url = bc.classifier_base_url or os.environ.get(CLASSIFIER_URL_ENV)
    if not llm_url:
        raise ValueError(f"live backend needs llm.base_url or {LLM_URL_ENV}")
    if not clf_url:
        raise ValueError(f"live backend needs classifier.base_url or {CLASSIFIER_URL_ENV}")
    token = bc.classifier_token or os.environ.get(CLASSIFIER_TOKEN_ENV)
    from .live import HttpEmotionClassifier, OllamaClient

    return Backends(
        generator=OllamaClient(llm_url, policy=bc.policy, llm=bc.llm, seed=config.seed),
        classifier=HttpEmotionClassifier(clf_url, token=token, policy=bc.policy),
    )


def _record(generation: int, population: tuple[Individual, ...], evaluated) -> GenerationRecord:
    """The generation's record; evaluated holds the members created in it,
    whose operator fallbacks it counts."""
    return GenerationRecord(
        generation_index=generation,
        population=population,
        hypervolume=hypervolume_2d([ind.fitness for ind in population]),
        fallback_count=sum(
            1 for ind in evaluated for record in ind.operator_trace if record.fallback
        ),
    )


def _build(make, count: int, pool: Executor | None) -> list[Individual]:
    """make(0), ..., make(count - 1) in index order, on the pool when there is one."""
    if pool is None:
        return [make(i) for i in range(count)]
    return list(pool.map(make, range(count)))


def initialize(
    config: RunConfig, backends: Backends, pool: Executor | None = None
) -> tuple[Individual, ...]:
    """Found the population from the first mu seed prompts.

    Each seed prompt is generated from and scored once. Classifier failures
    here are unrecoverable and abort the run; a generation failure scores an
    empty text like anywhere else, unless the request was refused. The
    founders are built like offspring: on the pool when one is given, in
    seed-prompt order either way.
    """

    def make(k: int) -> Individual:
        prompt = config.seed_prompts[k]
        text, gen_record = variation.generate_text(prompt, backends.generator,
                                                   suite=config.operators)
        scores = backends.classifier.classify_emotions(text)
        return Individual(
            prompt=prompt,
            text=text,
            fitness=extract_fitness(scores, config.pair),
            id=k,
            parent_ids=(),
            operator_trace=(gen_record,),
        )

    return tuple(_build(make, config.mu, pool))


def produce_offspring(
    parents: tuple[Individual, ...],
    backends: Backends,
    rng_seed: int,
    config: RunConfig,
    *,
    generation: int,
    pool: Executor | None = None,
) -> list[Individual]:
    """Produce the generation's lambda offspring from the parent population.

    Offspring ids continue from the mu founders and the lambda offspring of
    every earlier generation. Each offspring draws its own rng stream from
    (rng_seed, generation, offspring index), picks two distinct parents
    uniformly, and runs the crossover, mutation, generation, scoring
    pipeline. A scoring failure downgrades the offspring to fitness (0, 0)
    instead of aborting, unless the request was refused (BackendRejected).
    The pipelines are independent, so they run on the pool when one is
    given; results keep offspring-index order either way.
    """
    if config.lam <= 0:
        return []
    if len(parents) < 2:
        raise ValueError("offspring production needs at least two parents")
    parent_list = list(parents)
    id_start = config.mu + (generation - 1) * config.lam

    def make(index: int) -> Individual:
        rng = derive_rng(rng_seed, "g", generation, "o", index)
        ia, ib = rng.sample(range(len(parent_list)), 2)
        parent_a, parent_b = parent_list[ia], parent_list[ib]
        child, cross_record = variation.crossover(
            parent_a.prompt, parent_b.prompt, backends.generator, suite=config.operators
        )
        mutated, mut_record = variation.mutate(child, backends.generator, rng,
                                               suite=config.operators)
        text, gen_record = variation.generate_text(mutated, backends.generator,
                                                   suite=config.operators)
        trace = [cross_record, mut_record, gen_record]
        try:
            scores = backends.classifier.classify_emotions(text)
            fitness = extract_fitness(scores, config.pair)
        except BackendRejected:
            raise
        except BackendError as exc:
            logger.warning("eval_failed for offspring %d: %s", id_start + index, exc)
            fitness = FitnessPoint(0.0, 0.0)
            trace.append(OperatorRecord(kind="evaluation", fallback=True))
        return Individual(
            prompt=mutated,
            text=text,
            fitness=fitness,
            id=id_start + index,
            parent_ids=(parent_a.id, parent_b.id),
            operator_trace=tuple(trace),
        )

    return _build(make, config.lam, pool)


def step(
    parents: tuple[Individual, ...],
    config: RunConfig,
    backends: Backends,
    rng_seed: int,
    generation: int,
    pool: Executor | None = None,
) -> GenerationRecord:
    """Advance one generation: lambda offspring, then survivor selection
    over parents plus offspring. The record holds the survivors."""
    offspring = produce_offspring(
        parents, backends, rng_seed, config, generation=generation, pool=pool
    )
    candidates = list(parents) + offspring
    points = [c.fitness for c in candidates]
    if config.selector == "nsga2":
        outcome = nsga2_select(points, config.mu)
        diagnostic = "crowding"
    else:
        outcome = sms_emoa_select(points, config.mu, config.hv_mode)
        diagnostic = "contribution"
    population = tuple(
        candidates[i].with_selection(rank=outcome.ranks[i], **{diagnostic: outcome.diagnostics[i]})
        for i in outcome.selected
    )
    return _record(generation, population, offspring)


# a wide run's generation file is about 1.1 MB, which the default 8 KiB
# buffer writes in about 140 calls
_WRITE_BUFFER = 1 << 16


def _open_for_writing(path: Path):
    """A text file for one of the run's writers: UTF-8, LF line ends."""
    return open(path, "w", encoding="utf-8", newline="\n", buffering=_WRITE_BUFFER)


def _write_generation(rep_dir: Path, record: GenerationRecord) -> None:
    """Write the generation's survivors, one record line each."""
    with _open_for_writing(rep_dir / f"gen_{record.generation_index}.jsonl") as handle:
        for ind in record.population:
            handle.write(ind.record_line())


def _write_hypervolume_series(rep_dir: Path, rows: list[tuple[int, float, int]]) -> None:
    with _open_for_writing(rep_dir / "hypervolume.csv") as handle:
        handle.write("generation,hypervolume,fallback_count\n")
        for generation, hypervolume, fallback_count in rows:
            handle.write(f"{generation},{hypervolume!r},{fallback_count}\n")


def _write_pareto_front(
    rep_dir: Path, config: RunConfig, repetition: int, final: tuple[Individual, ...]
) -> None:
    # selection keeps whole fronts in rank order, so front 0 is the rank-0 survivors
    payload = {
        "pair": config.pair.slug,
        "selector": config.selector,
        "repetition": repetition,
        "individuals": [individual_to_dict(ind) for ind in final if ind.rank == 0],
    }
    _write_json(rep_dir / "pareto_front.json", payload)


def _write_json(path: Path, payload: dict) -> None:
    with _open_for_writing(path) as handle:
        json.dump(payload, handle, ensure_ascii=False, indent=2)
        handle.write("\n")


def _stats(values: list[float]) -> dict:
    return {
        "best": max(values),
        "worst": min(values),
        "mean": statistics.fmean(values),
        "std_dev": statistics.stdev(values) if len(values) >= 2 else 0.0,
    }


def run_experiment(
    config: RunConfig,
    backends: Backends,
    progress=None,
) -> RunSummary:
    """Run every repetition and write the output tree.

    Repetition r breeds with seed config.seed + r; founding uses only the
    run's seed prompts and generator, so every repetition starts from the
    same generation 0. A repetition that fails with a backend or
    file-system error is recorded and excluded from the statistics without
    stopping the others; any other exception is a bug and propagates. It
    writes into config.run_dir whatever that directory already holds;
    refusing a directory with an earlier run's summary.json is the command
    line's job.
    progress, when given, is called as progress(repetition, record) after
    every recorded generation. The summary reports the final-generation
    hypervolume statistics and, separately, statistics over each
    repetition's running maximum.
    A live run founds and breeds every repetition on one thread pool with a
    worker for every request slot of both clients, so its network waits
    overlap and each client's max_concurrent_requests slots are the one
    bound on its requests in flight: one offspring's classification
    overlaps the next offspring's generation. Mock backends are pure Python
    under the GIL and run in order on this thread.
    """
    run_dir = config.run_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    results: list[RepetitionResult] = []
    # one worker per request slot of the generator and of the classifier
    workers = 2 * config.backend.policy.max_concurrent_requests
    with (
        ThreadPoolExecutor(max_workers=workers) if config.backend.kind == "live"
        else nullcontext()
    ) as pool:
        for rep in range(config.repetitions):
            try:
                series = _run_repetition(config, backends, rep, run_dir / f"rep_{rep}",
                                         progress, pool)
                results.append(RepetitionResult(
                    repetition=rep, status="ok",
                    final_hypervolume=series[-1], max_hypervolume=max(series),
                ))
            except (BackendError, OSError) as exc:
                logger.warning("repetition %d failed: %s", rep, exc)
                results.append(RepetitionResult(repetition=rep, status="failed", error=str(exc)))
    finals = [r.final_hypervolume for r in results if r.status == "ok"]
    maxima = [r.max_hypervolume for r in results if r.status == "ok"]
    summary = RunSummary(
        results=tuple(results),
        final_stats=_stats(finals) if finals else None,
        running_max_stats=_stats(maxima) if maxima else None,
        out_dir=str(run_dir),
    )
    _write_summary(run_dir, config, summary)
    return summary


def _run_repetition(
    config: RunConfig,
    backends: Backends,
    rep: int,
    rep_dir: Path,
    progress,
    pool: Executor | None,
) -> list[float]:
    rep_dir.mkdir(parents=True, exist_ok=True)
    population = initialize(config, backends, pool)
    record = _record(0, population, population)
    rows: list[tuple[int, float, int]] = []
    for generation in range(config.generations + 1):
        if generation:
            record = step(population, config, backends, config.seed + rep,
                          generation=generation, pool=pool)
            population = record.population
        rows.append((generation, record.hypervolume, record.fallback_count))
        _write_generation(rep_dir, record)
        if progress:
            progress(rep, record)
    _write_hypervolume_series(rep_dir, rows)
    _write_pareto_front(rep_dir, config, rep, population)
    return [hypervolume for _, hypervolume, _ in rows]


def _write_summary(run_dir: Path, config: RunConfig, summary: RunSummary) -> None:
    payload = {
        "pair": config.pair.slug,
        "selector": config.selector,
        "hv_mode": config.hv_mode,
        "mu": config.mu,
        "lambda": config.lam,
        "generations": config.generations,
        "repetitions": config.repetitions,
        "seed": config.seed,
        "backend": config.backend.kind,
        "results": [asdict(r) for r in summary.results],
        "final": summary.final_stats,
        "running_max": summary.running_max_stats,
    }
    _write_json(run_dir / "summary.json", payload)
