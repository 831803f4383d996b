"""Core value types for emotion-steered prompt evolution, and the run tree.

A candidate solution couples a prompt (the genotype) with the text a language
model generated from it (the phenotype) and the pair of emotion scores that
the search maximizes. Everything here is an immutable value object; the
evolutionary loop builds new individuals instead of mutating old ones.

The tree a run writes is defined here too: its file names, its writers and
the record an individual writes (`individual_to_dict`). A run directory
(`RunConfig.run_dir`) holds
- summary.json, the config and each repetition's result, read by
  `report.load_run` and by the `run` command, which refuses to write over it;
- rep_<r>/gen_<g>.jsonl, generation g's survivors, read by `report.load_run`;
- rep_<r>/hypervolume.csv, each generation's hypervolume and fallback
  count, and rep_<r>/pareto_front.json, the last rank-0 records: no reader.

Selection hands on a survivor whose rank, crowding and contribution are
unchanged as the same object, which writes again the line it has already
encoded (`Individual.record_line`): a survivor is encoded when it enters the
population and again only when selection changes one of those fields.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import NewType

MAX_PROMPT_CHARS = 2000
SCORE_SUM_TOLERANCE = 1e-3


class EmotionLabel(str, Enum):
    """The closed set of emotion classes the evaluator can report."""

    SADNESS = "sadness"
    JOY = "joy"
    LOVE = "love"
    ANGER = "anger"
    FEAR = "fear"
    SURPRISE = "surprise"

    @classmethod
    def parse(cls, name: str) -> "EmotionLabel":
        """Parse a label by name, case-insensitively. Unknown names are errors."""
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown emotion label: {name!r}") from None


# the labels in canonical order; a tuple iterates without the enum's machinery
EMOTION_LABELS = tuple(EmotionLabel)


@dataclass(frozen=True)
class Prompt:
    """A non-empty instruction used to ask the model for a text.

    The text is stored stripped of surrounding whitespace and must fit the
    fixed character budget; operators truncate their outputs before
    constructing a Prompt.
    """

    text: str

    def __post_init__(self) -> None:
        stripped = self.text.strip()
        if not stripped:
            raise ValueError("prompt text must be non-empty")
        if len(stripped) > MAX_PROMPT_CHARS:
            raise ValueError(
                f"prompt exceeds {MAX_PROMPT_CHARS} characters ({len(stripped)})"
            )
        object.__setattr__(self, "text", stripped)


# model output for a prompt, empty only when the backend returned nothing
GeneratedText = NewType("GeneratedText", str)


@dataclass(frozen=True)
class EmotionScores:
    """A full six-way emotion distribution for one text.

    All six labels must be present, each score lies in [0, 1], and the scores
    sum to 1 within a small tolerance (classifier outputs are softmax-shaped).
    """

    scores: dict[EmotionLabel, float]

    def __post_init__(self) -> None:
        clean: dict[EmotionLabel, float] = {}
        for label in EMOTION_LABELS:
            if label not in self.scores:
                raise ValueError(f"missing score for {label.value}")
            value = float(self.scores[label])
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"score for {label.value} out of [0, 1]: {value}")
            clean[label] = value
        if len(self.scores) != len(clean):
            extra = set(self.scores) - set(clean)
            raise ValueError(f"unexpected score keys: {extra}")
        total = sum(clean.values())
        if abs(total - 1.0) > SCORE_SUM_TOLERANCE:
            raise ValueError(f"scores sum to {total}, expected 1 +/- {SCORE_SUM_TOLERANCE}")
        object.__setattr__(self, "scores", clean)

    def __getitem__(self, label: EmotionLabel) -> float:
        return self.scores[label]

    def as_dict(self) -> dict[str, float]:
        """Scores keyed by label name, in canonical label order."""
        return {label.value: self.scores[label] for label in EMOTION_LABELS}


@dataclass(frozen=True)
class ObjectivePair:
    """The two emotions a run tries to maximize simultaneously."""

    first: EmotionLabel
    second: EmotionLabel

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError("objective pair labels must differ")

    @classmethod
    def parse(cls, spec: str) -> "ObjectivePair":
        """Parse 'love:anger' style strings."""
        parts = spec.split(":")
        if len(parts) != 2:
            raise ValueError(f"expected '<emotion>:<emotion>', got {spec!r}")
        return cls(EmotionLabel.parse(parts[0]), EmotionLabel.parse(parts[1]))

    @property
    def slug(self) -> str:
        return f"{self.first.value}_vs_{self.second.value}"


@dataclass(frozen=True)
class FitnessPoint:
    """A point in the bi-objective space [0, 1]^2. Both coordinates are maximized."""

    f1: float
    f2: float

    def __post_init__(self) -> None:
        f1, f2 = self.f1, self.f2
        if type(f1) is float and type(f2) is float and 0.0 <= f1 <= 1.0 and 0.0 <= f2 <= 1.0:
            return  # the common case, which passes the checks below (NaN fails a comparison)
        for name, value in (("f1", f1), ("f2", f2)):
            if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {value}")


def extract_fitness(scores: EmotionScores, pair: ObjectivePair) -> FitnessPoint:
    """Project a six-way score distribution onto the run's objective pair.

    The two scores are taken as-is, with no renormalization, so f1 + f2 <= 1
    up to the classifier's own sum tolerance.
    """
    return FitnessPoint(scores[pair.first], scores[pair.second])


@dataclass(frozen=True)
class OperatorRecord:
    """One step in an individual's provenance: which operator ran and what
    the backend returned before post-processing. fallback marks that the
    operator had to substitute a deterministic default."""

    kind: str
    raw_output: str = ""
    instruction_id: str | None = None
    fallback: bool = False


@dataclass(frozen=True, slots=True)
class Individual:
    """A prompt with its generated text and fitness, plus lineage metadata.

    rank and the selector diagnostic (crowding for NSGA-II, contribution for
    the hypervolume selector) are attached only by survivor selection;
    freshly produced individuals carry None there.
    """

    prompt: Prompt
    text: GeneratedText
    fitness: FitnessPoint
    id: int
    parent_ids: tuple[int, ...] = ()
    operator_trace: tuple[OperatorRecord, ...] = ()
    rank: int | None = None
    crowding: float | None = None
    contribution: float | None = None
    _line: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.parent_ids) > 2:
            raise ValueError("an individual has at most two parents")
        if self.rank is not None and self.rank < 0:
            raise ValueError("rank must be non-negative")
        if self.crowding is not None and self.crowding < 0:
            raise ValueError("crowding must be non-negative")

    def with_selection(
        self,
        rank: int,
        crowding: float | None = None,
        contribution: float | None = None,
    ) -> "Individual":
        """This individual with the given selection fields; itself when each
        field is already the same as written (same type and repr, so 0.0
        and -0.0, or 1 and 1.0, differ while nan matches nan)."""
        if (_same(rank, self.rank) and _same(crowding, self.crowding)
                and _same(contribution, self.contribution)):
            return self  # frozen, so sharing is safe
        return Individual(self.prompt, self.text, self.fitness, self.id, self.parent_ids,
                          self.operator_trace, rank, crowding, contribution)

    def record_line(self) -> str:
        """This individual's line in a generation file, newline included:
        json.dumps(individual_to_dict(self)), encoded on the first call."""
        line = self._line
        if line is None:
            line = json.dumps(individual_to_dict(self), ensure_ascii=False) + "\n"
            object.__setattr__(self, "_line", line)
        return line


def _same(a, b) -> bool:
    return a is b or (type(a) is type(b) and repr(a) == repr(b))


def individual_to_dict(ind: Individual) -> dict:
    return {
        "id": ind.id,
        "prompt": ind.prompt.text,
        "text": ind.text,
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
        # individual_to_dict writes every OperatorRecord field
        operator_trace=tuple(OperatorRecord(**r) for r in data.get("operator_trace", ())),
        rank=data.get("rank"),
        crowding=data.get("crowding"),
        contribution=data.get("contribution"),
    )


# the names in a run directory; the module docstring lists what each holds
SUMMARY_FILE = "summary.json"
REPETITION_DIR = "rep_{}"
GENERATION_FILE = "gen_{}.jsonl"

# a wide run's generation file is about 1.1 MB, which the default 8 KiB
# buffer writes in about 140 calls
_WRITE_BUFFER = 1 << 16


def open_for_writing(path: Path):
    """A text file for any file the program writes: UTF-8, no newline translation."""
    return open(path, "w", encoding="utf-8", newline="\n", buffering=_WRITE_BUFFER)


def write_generation(rep_dir: Path, generation: int, population: tuple[Individual, ...]) -> None:
    """Write the generation's survivors, one record line each."""
    with open_for_writing(rep_dir / GENERATION_FILE.format(generation)) as handle:
        for ind in population:
            handle.write(ind.record_line())


def write_hypervolume_series(rep_dir: Path, rows: list[tuple[int, float, int]]) -> None:
    with open_for_writing(rep_dir / "hypervolume.csv") as handle:
        handle.write("generation,hypervolume,fallback_count\n")
        for generation, hypervolume, fallback_count in rows:
            handle.write(f"{generation},{hypervolume!r},{fallback_count}\n")


def write_pareto_front(rep_dir: Path, config, repetition: int, final) -> None:
    # selection keeps whole fronts in rank order, so front 0 is the rank-0 survivors
    _write_json(rep_dir / "pareto_front.json", {
        "pair": config.pair.slug,
        "selector": config.selector,
        "repetition": repetition,
        "individuals": [individual_to_dict(ind) for ind in final if ind.rank == 0],
    })


def write_summary(run_dir: Path, config, summary) -> None:
    _write_json(run_dir / SUMMARY_FILE, {
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
    })


def _write_json(path: Path, payload: dict) -> None:
    with open_for_writing(path) as handle:
        json.dump(payload, handle, ensure_ascii=False, indent=2)
        handle.write("\n")


def stats(values: list[float]) -> dict:
    return {
        "best": max(values),
        "worst": min(values),
        "mean": statistics.fmean(values),
        "std_dev": statistics.stdev(values) if len(values) >= 2 else 0.0,
    }
