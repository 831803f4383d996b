"""The generational loop and experiment driver.

A run evolves a population of prompts under a (mu + lambda) scheme: every
generation draws parent pairs, applies crossover then mutation, generates
and scores one text per offspring, and selects mu survivors from parents
plus offspring. An experiment repeats the run with shifted seeds and writes
a fully reproducible output tree: per-generation population records, a
hypervolume series per repetition, the final Pareto front, and a summary.

A survivor's record changes from one generation to the next only in its
selection fields (rank, crowding, contribution), so each survivor's other
JSON is encoded once per repetition and reused while it survives. A
repetition holds one population plus one (generation, hypervolume,
fallback count) row per generation, not every generation's population.
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
    Backends,
    CLASSIFIER_TOKEN_ENV,
    CLASSIFIER_URL_ENV,
    LLM_URL_ENV,
    LlmSettings,
    MockEmotionClassifier,
    MockTextGenerator,
    load_lexicons,
)
from .domain import (
    FitnessPoint,
    GeneratedText,
    Individual,
    ObjectivePair,
    OperatorRecord,
    Population,
    Prompt,
    extract_fitness,
)
from .moea import (
    DEFAULT_REFERENCE,
    hypervolume_2d,
    nondominated_sort,
    nsga2_select,
    sms_emoa_select,
)

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
    """Which backends a run talks to and how."""

    kind: str = "mock"
    llm: LlmSettings = field(default_factory=LlmSettings)
    llm_base_url: str | None = None
    classifier_base_url: str | None = None
    classifier_token: str | None = None
    policy: BackendPolicy = field(default_factory=BackendPolicy)
    lexicon_file: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"backend kind must be one of {BACKEND_KINDS}, got {self.kind!r}")
        for name, value in (
            ("llm.base_url", self.llm_base_url),
            ("classifier.base_url", self.classifier_base_url),
            ("classifier.token", self.classifier_token),
        ):
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, with defaults matching the reference setup."""

    pair: ObjectivePair
    mu: int = 10
    lam: int = 20
    generations: int = 30
    repetitions: int = 10
    selector: str = "nsga2"
    hv_mode: str = "greedy"
    seed: int = 0
    seed_prompts: tuple[Prompt, ...] = DEFAULT_SEED_PROMPTS
    backend: BackendConfig = field(default_factory=BackendConfig)
    out_dir: str = "runs"
    operators: variation.OperatorSuite = field(default_factory=variation.OperatorSuite)

    def __post_init__(self) -> None:
        for name, value in (
            ("mu", self.mu), ("lambda", self.lam), ("generations", self.generations),
            ("repetitions", self.repetitions), ("seed", self.seed),
        ):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mu < 1:
            raise ValueError("mu must be >= 1")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.lam > 0 and self.mu < 2:
            raise ValueError("mu must be >= 2 when lambda > 0 (crossover needs two parents)")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.selector not in SELECTORS:
            raise ValueError(f"selector must be one of {SELECTORS}, got {self.selector!r}")
        if self.hv_mode not in HV_MODES:
            raise ValueError(f"hv_mode must be one of {HV_MODES}, got {self.hv_mode!r}")
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
    population: Population
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
    pair: ObjectivePair
    selector: str
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
    The HTTP clients are imported here, so a mock run never loads them.
    """
    bc = config.backend
    if bc.kind == "mock":
        lexicons = load_lexicons(bc.lexicon_file) if bc.lexicon_file else None
        return Backends(
            generator=MockTextGenerator(seed=config.seed),
            classifier=MockEmotionClassifier(lexicons=lexicons),
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
        generator=OllamaClient(llm_url, policy=bc.policy),
        classifier=HttpEmotionClassifier(clf_url, token=token, policy=bc.policy),
    )


def _record(generation: int, population: Population, evaluated) -> GenerationRecord:
    """The generation's record; evaluated holds the members created in it,
    whose operator fallbacks it counts."""
    return GenerationRecord(
        generation_index=generation,
        population=population,
        hypervolume=hypervolume_2d(population.fitness_points(), DEFAULT_REFERENCE),
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
) -> Population:
    """Found the population from the first mu seed prompts.

    Each seed prompt is generated from and scored once. Classifier failures
    here are unrecoverable and abort the run; a generation failure scores an
    empty text like anywhere else. The founders are built like offspring:
    on the pool when one is given, in seed-prompt order either way.
    """

    def make(k: int) -> Individual:
        prompt = config.seed_prompts[k]
        text, gen_record = variation.generate_text(
            prompt, backends.generator, suite=config.operators, llm=config.backend.llm
        )
        scores = backends.classifier.classify_emotions(text)
        return Individual(
            prompt=prompt,
            text=text,
            fitness=extract_fitness(scores, config.pair),
            id=k,
            parent_ids=(),
            operator_trace=(gen_record,),
        )

    return Population(tuple(_build(make, config.mu, pool)))


def produce_offspring(
    parents: Population,
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
    instead of aborting. The pipelines are independent, so they run on the
    pool when one is given; results keep offspring-index order either way.
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
            parent_a.prompt, parent_b.prompt, backends.generator,
            suite=config.operators, llm=config.backend.llm,
        )
        mutated, mut_record = variation.mutate(
            child, backends.generator, rng, suite=config.operators, llm=config.backend.llm
        )
        text, gen_record = variation.generate_text(
            mutated, backends.generator, suite=config.operators, llm=config.backend.llm
        )
        trace = [cross_record, mut_record, gen_record]
        try:
            scores = backends.classifier.classify_emotions(text)
            fitness = extract_fitness(scores, config.pair)
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
    parents: Population,
    config: RunConfig,
    backends: Backends,
    rng_seed: int,
    generation: int,
    pool: Executor | None = None,
) -> tuple[Population, GenerationRecord]:
    """Advance one generation: lambda offspring, then survivor selection
    over parents plus offspring."""
    offspring = produce_offspring(
        parents, backends, rng_seed, config, generation=generation, pool=pool
    )
    candidates = list(parents) + offspring
    points = [c.fitness for c in candidates]
    if config.selector == "nsga2":
        outcome = nsga2_select(points, config.mu)
        diagnostic = "crowding"
    else:
        outcome = sms_emoa_select(points, config.mu, DEFAULT_REFERENCE, config.hv_mode)
        diagnostic = "contribution"
    population = Population(tuple(
        candidates[i].with_selection(rank=outcome.ranks[i], **{diagnostic: outcome.diagnostics[i]})
        for i in outcome.selected
    ))
    return population, _record(generation, population, offspring)


def individual_to_dict(ind: Individual) -> dict:
    return {
        "id": ind.id,
        "prompt": ind.prompt.text,
        "text": ind.text.text,
        "fitness": [ind.fitness.f1, ind.fitness.f2],
        "rank": ind.rank,
        "crowding": ind.crowding,
        "contribution": ind.contribution,
        "parent_ids": list(ind.parent_ids),
        "operator_trace": [
            {
                "kind": record.kind,
                "instruction_id": record.instruction_id,
                "fallback": record.fallback,
                "raw_output": record.raw_output,
            }
            for record in ind.operator_trace
        ],
    }


def individual_from_dict(data: dict) -> Individual:
    return Individual(
        prompt=Prompt(data["prompt"]),
        text=GeneratedText(data["text"]),
        fitness=FitnessPoint(*data["fitness"]),
        id=data["id"],
        parent_ids=tuple(data["parent_ids"]),
        operator_trace=tuple(
            OperatorRecord(
                kind=r["kind"],
                instruction_id=r.get("instruction_id"),
                fallback=r.get("fallback", False),
                raw_output=r.get("raw_output", ""),
            )
            for r in data.get("operator_trace", ())
        ),
        rank=data.get("rank"),
        crowding=data.get("crowding"),
        contribution=data.get("contribution"),
    )


_INF = float("inf")


def _line_pieces(ind: Individual) -> tuple[str, str]:
    """The JSON of ind's line before and after its three selection fields
    (rank, crowding, contribution), cut from the json.dumps of
    individual_to_dict."""
    items = list(individual_to_dict(ind).items())
    cut = [key for key, _ in items].index("rank")
    head = json.dumps(dict(items[:cut]), ensure_ascii=False)[:-1]
    tail = json.dumps(dict(items[cut + 3:]), ensure_ascii=False)[1:]
    return head, tail


def _json_number(value: float | None) -> str:
    """None, an int or a float as json.dumps writes it."""
    if value is None:
        return "null"
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return repr(value)


def _write_generation(
    rep_dir: Path, record: GenerationRecord, pieces: dict[int, tuple[str, str]]
) -> dict[int, tuple[str, str]]:
    """Write the generation's survivors, one json.dumps(individual_to_dict)
    line each, and return the head and tail pieces of exactly these
    survivors by id. pieces holds those of the previous generation of the
    same repetition (ids restart in every repetition), which survivors
    reuse; only their selection fields are formatted again."""
    path = rep_dir / f"gen_{record.generation_index}.jsonl"
    current: dict[int, tuple[str, str]] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for ind in record.population:
            head, tail = current[ind.id] = pieces.get(ind.id) or _line_pieces(ind)
            handle.write(
                f'{head}, "rank": {_json_number(ind.rank)}, '
                f'"crowding": {_json_number(ind.crowding)}, '
                f'"contribution": {_json_number(ind.contribution)}, {tail}\n'
            )
    return current


def _write_hypervolume_series(rep_dir: Path, rows: list[tuple[int, float, int]]) -> None:
    with open(rep_dir / "hypervolume.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("generation,hypervolume,fallback_count\n")
        for generation, hypervolume, fallback_count in rows:
            handle.write(f"{generation},{hypervolume!r},{fallback_count}\n")


def _write_pareto_front(
    rep_dir: Path, config: RunConfig, repetition: int, final: Population
) -> None:
    fronts = nondominated_sort(final.fitness_points())
    front0 = fronts[0].indices if fronts else ()
    payload = {
        "pair": config.pair.slug,
        "selector": config.selector,
        "repetition": repetition,
        "individuals": [individual_to_dict(final[i]) for i in front0],
    }
    with open(rep_dir / "pareto_front.json", "w", encoding="utf-8", newline="\n") as handle:
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

    Repetition r runs with seed config.seed + r. A repetition that fails
    with a backend or file-system error is recorded and excluded from the
    statistics without stopping the others; any other exception is a bug
    and propagates.
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
        pair=config.pair,
        selector=config.selector,
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
    pieces: dict[int, tuple[str, str]] = {}
    for generation in range(config.generations + 1):
        if generation:
            population, record = step(
                population, config, backends, config.seed + rep, generation=generation, pool=pool
            )
        rows.append((generation, record.hypervolume, record.fallback_count))
        pieces = _write_generation(rep_dir, record, pieces)
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
    with open(run_dir / "summary.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, ensure_ascii=False, indent=2)
        handle.write("\n")
