"""Core value types for emotion-steered prompt evolution.

A candidate solution couples a prompt (the genotype) with the text a language
model generated from it (the phenotype) and the pair of emotion scores that
the search maximizes. Everything here is an immutable value object; the
evolutionary loop builds new individuals instead of mutating old ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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


@dataclass(frozen=True)
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


def _same(a, b) -> bool:
    return a is b or (type(a) is type(b) and repr(a) == repr(b))
