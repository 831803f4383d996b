"""The two services the evolutionary loop calls out to, a text generation
model and an emotion classifier: their protocols, the request and policy
types, and the seeded mocks.

Mock implementations are pure functions of their inputs plus a seed, so
offline runs are fully reproducible and still expose a non-trivial fitness
landscape: the mock generator echoes prompt words into its stories and the
mock classifier counts emotion keywords. The HTTP clients live in
`moprompt.live`, which only a run that builds live backends imports, so a
mock run never loads the HTTP stack.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Protocol

from .domain import EmotionLabel, EmotionScores, GeneratedText

# token budget of the emotion evaluator; inputs are truncated to fit
CLASSIFIER_TOKEN_BUDGET = 512
# conservative subword estimate per whitespace token
SUBWORDS_PER_WORD = 1.3

LLM_URL_ENV = "EMO_LLM_URL"
CLASSIFIER_URL_ENV = "EMO_CLF_URL"
CLASSIFIER_TOKEN_ENV = "EMO_CLF_TOKEN"


class BackendError(RuntimeError):
    """Raised when a backend call failed: at once for an error a retry would
    repeat, after exhausting its retries for a transient one."""


@dataclass(frozen=True)
class BackendPolicy:
    """Retry and concurrency behavior for a backend client."""

    timeout: float = 30.0
    max_retries: int = 2
    backoff: float = 0.5
    max_concurrent_requests: int = 4

    def __post_init__(self) -> None:
        for name in ("timeout", "backoff"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("max_retries", "max_concurrent_requests"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.max_concurrent_requests < 1:
            raise ValueError("max_concurrent_requests must be >= 1")


@dataclass(frozen=True)
class LlmSettings:
    """Decoding defaults applied to every request a run issues."""

    model: str = "llama2"
    temperature: float = 0.7
    context_window: int = 512
    max_output_tokens: int = 256

    def __post_init__(self) -> None:
        if not isinstance(self.model, str):
            raise ValueError(f"model must be a string, got {self.model!r}")
        t = self.temperature
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0 <= t < math.inf:
            raise ValueError(f"temperature must be a non-negative number, got {t!r}")
        for name in ("context_window", "max_output_tokens"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class GenerationRequest:
    """One completion request: the rendered prompt, its system instruction
    and the run's decoding settings."""

    prompt_body: str
    system: str = ""
    llm: LlmSettings = field(default_factory=LlmSettings)


class TextGenerationBackend(Protocol):
    def complete(self, request: GenerationRequest) -> str: ...


class EmotionClassifierBackend(Protocol):
    def classify_emotions(self, text: GeneratedText) -> EmotionScores: ...


@dataclass(frozen=True)
class Backends:
    """The generator/classifier pair a run is wired to."""

    generator: TextGenerationBackend
    classifier: EmotionClassifierBackend


def truncate_to_token_budget(text: str, budget: int = CLASSIFIER_TOKEN_BUDGET) -> str:
    """Drop trailing words until the estimated subword count fits the budget."""
    words = text.split()
    limit = int(budget / SUBWORDS_PER_WORD)
    if len(words) <= limit:
        return text
    return " ".join(words[:limit])


# Keyword lexicons behind the mock classifier. One list per emotion; the
# label's own name is always included so evolved prompts can hit it directly.
DEFAULT_LEXICONS: dict[EmotionLabel, tuple[str, ...]] = {
    EmotionLabel.SADNESS: (
        "sadness", "sorrow", "grief", "tears", "mourning", "despair", "loss", "weeping",
    ),
    EmotionLabel.JOY: (
        "joy", "delight", "laughter", "cheerful", "bliss", "celebrate", "smile", "sunshine",
    ),
    EmotionLabel.LOVE: (
        "love", "tender", "devotion", "embrace", "darling", "affection", "beloved", "romance",
    ),
    EmotionLabel.ANGER: (
        "anger", "rage", "fury", "wrath", "seething", "bitter", "scorn", "vengeance",
    ),
    EmotionLabel.FEAR: (
        "fear", "dread", "terror", "shiver", "haunted", "panic", "ominous", "afraid",
    ),
    EmotionLabel.SURPRISE: (
        "surprise", "astonished", "sudden", "unexpected", "twist", "startled", "gasp", "marvel",
    ),
}


def load_lexicons(path) -> dict[EmotionLabel, tuple[str, ...]]:
    """Read keyword lexicons from a JSON file mapping label names to word
    lists. Labels not mentioned keep their defaults. Every problem with the
    file is a ValueError."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read lexicon file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("lexicon file must hold a JSON object")
    lexicons = dict(DEFAULT_LEXICONS)
    for name, words in raw.items():
        label = EmotionLabel.parse(name)
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise ValueError(f"lexicon for {name!r} must be a list of strings")
        lexicons[label] = tuple(words)
    return lexicons


_TOKEN_RE = re.compile(r"\w+")


class MockEmotionClassifier:
    """Deterministic keyword-count classifier.

    Each emotion's raw score is 1 plus the number of whole-word,
    case-insensitive occurrences of its lexicon words in the text (a word
    listed twice, or under two labels, counts each time); raw scores are
    normalized to sum to 1. Empty text therefore scores uniform 1/6.

    Words made only of word characters are counted in one pass: such a word
    matches as a whole word exactly where a maximal run of word characters
    equals it, so the text is tokenized once and each token looked up. Any
    other entry (several words, hyphens, apostrophes, empty) keeps its own
    whole-word regex.
    """

    def __init__(self, lexicons: dict[EmotionLabel, tuple[str, ...]] | None = None):
        self.lexicons = dict(lexicons) if lexicons is not None else dict(DEFAULT_LEXICONS)
        for label in EmotionLabel:
            self.lexicons.setdefault(label, ())
        self._token_labels: dict[str, list[EmotionLabel]] = {}
        self._phrase_patterns: list[tuple[EmotionLabel, re.Pattern]] = []
        for label, words in self.lexicons.items():
            for word in words:
                lowered = word.lower()
                if _TOKEN_RE.fullmatch(lowered):
                    self._token_labels.setdefault(lowered, []).append(label)
                else:
                    pattern = re.compile(r"\b" + re.escape(lowered) + r"\b")
                    self._phrase_patterns.append((label, pattern))

    def classify_emotions(self, text: GeneratedText) -> EmotionScores:
        lowered = truncate_to_token_budget(text.text).lower()
        counts = dict.fromkeys(EmotionLabel, 0)
        lookup = self._token_labels.get
        for token in _TOKEN_RE.findall(lowered):
            for label in lookup(token, ()):
                counts[label] += 1
        for label, pattern in self._phrase_patterns:
            counts[label] += len(pattern.findall(lowered))
        raw = {label: 1.0 + counts[label] for label in EmotionLabel}
        total = sum(raw.values())
        return EmotionScores({label: raw[label] / total for label in EmotionLabel})


# Fixed wording for mock stories. Deliberately disjoint from every default
# lexicon so scaffolding never leaks into the scores.
_STORY_OPENERS = (
    "Once upon a time",
    "In a quiet town",
    "Long ago",
    "One evening",
    "At the edge of the village",
    "Under a pale sky",
)
_STORY_CLOSERS = (
    "Nobody spoke of it again",
    "The lanterns burned until morning",
    "And so the season turned",
    "The road went on without them",
    "That was how it ended",
)
_NEUTRAL_WORDS = (
    "river", "lantern", "letter", "garden", "harbor", "window",
    "winter", "bridge", "orchard", "clock", "mirror", "train",
)
_PROMPT_STOPWORDS = {
    "a", "an", "the", "of", "to", "in", "on", "and", "or",
    "with", "about", "that", "this", "is", "for", "it", "its",
}

_WORD_RE = re.compile(r"[a-zA-Z]+")
_MOCK_MAX_PROMPT_TOKENS = 24


def _content_words(text: str) -> list[str]:
    words = [w.lower() for w in _WORD_RE.findall(text)]
    return [w for w in words if len(w) >= 3 and w not in _PROMPT_STOPWORDS]


def _injection_pool() -> tuple[str, ...]:
    pool: list[str] = []
    for label in EmotionLabel:
        pool.extend(DEFAULT_LEXICONS[label])
    pool.extend(_NEUTRAL_WORDS)
    return tuple(pool)


_INJECTION_POOL = _injection_pool()


class MockTextGenerator:
    """Seeded stand-in for the live model.

    The reply is a pure function of (system, prompt body, seed). The request
    body decides the task: prompt-combination requests merge the two quoted
    parent prompts, prompt-rewrite requests edit the embedded prompt and
    inject a word from a fixed pool, and anything else is treated as a story
    request whose reply echoes the prompt's content words. Replies are never
    empty.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def complete(self, request: GenerationRequest) -> str:
        rng = random.Random(f"{self.seed}|{request.system}|{request.prompt_body}")
        body = request.prompt_body
        if "Mutation Prompt:" in body:
            return self._rewrite(body, rng)
        if "One prompt is:" in body:
            return self._merge(body, rng)
        return self._story(body, rng)

    def _merge(self, body: str, rng: random.Random) -> str:
        quoted = re.findall(r'"([^"]*)"', body)
        parent_a = quoted[0] if quoted else ""
        parent_b = quoted[1] if len(quoted) > 1 else parent_a
        merged: list[str] = []
        for word in parent_a.split() + parent_b.split():
            lowered = word.lower().strip('"')
            if lowered and lowered not in merged and rng.random() < 0.9:
                merged.append(lowered)
        if not merged:
            merged = ["write", "a", "short", "story"]
        merged = _cap_tokens(merged, rng)
        return " ".join(merged)

    def _rewrite(self, body: str, rng: random.Random) -> str:
        targets = re.findall(r"(?m)^Prompt:\s*(.*)$", body)
        target = targets[-1].strip() if targets else "write a short story"
        tokens = [w.strip('"') for w in target.split() if w.strip('"')]
        if not tokens:
            tokens = ["write", "a", "short", "story"]
        if len(tokens) > 3 and rng.random() < 0.2:
            tokens.pop(rng.randrange(len(tokens)))
        injected = rng.choice(_INJECTION_POOL)
        tokens.insert(rng.randrange(len(tokens) + 1), injected)
        tokens = _cap_tokens(tokens, rng)
        return " ".join(tokens)

    def _story(self, body: str, rng: random.Random) -> str:
        words = _content_words(body)
        opener = rng.choice(_STORY_OPENERS)
        closer = rng.choice(_STORY_CLOSERS)
        filler = rng.choice(_NEUTRAL_WORDS)
        if words:
            middle = ", ".join(words)
            return (
                f"{opener}, the telling spoke of {middle}. "
                f"A {filler} stood witness through it all. {closer}."
            )
        return f"{opener}, a {filler} waited alone. {closer}."


def _cap_tokens(tokens: list[str], rng: random.Random) -> list[str]:
    if len(tokens) <= _MOCK_MAX_PROMPT_TOKENS:
        return tokens
    keep = sorted(rng.sample(range(len(tokens)), _MOCK_MAX_PROMPT_TOKENS))
    return [tokens[i] for i in keep]
