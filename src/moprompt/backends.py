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

import random
import re
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from threading import TIMEOUT_MAX
from typing import Protocol

from .domain import EMOTION_LABELS, EmotionLabel, EmotionScores, GeneratedText
from .rules import check, check_fields, integer, number, read_json_object, strings, text

# token budget of the emotion evaluator; inputs are truncated to fit
CLASSIFIER_TOKEN_BUDGET = 512
# conservative subword estimate per whitespace token
SUBWORDS_PER_WORD = 1.3
# the most whitespace words whose estimated subwords fit the budget
_WORD_LIMIT = int(CLASSIFIER_TOKEN_BUDGET / SUBWORDS_PER_WORD)

LLM_URL_ENV = "EMO_LLM_URL"
CLASSIFIER_URL_ENV = "EMO_CLF_URL"
CLASSIFIER_TOKEN_ENV = "EMO_CLF_TOKEN"

# the longest retry wait, where the doubling backoff stops: time.sleep adds
# the monotonic clock to a wait, and the sum must stay within TIMEOUT_MAX
BACKOFF_MAX = TIMEOUT_MAX / 2


class BackendError(RuntimeError):
    """Raised when a backend call failed: at once for an error a retry would
    repeat, after exhausting its retries for a transient one."""


class BackendRejected(BackendError):
    """Raised for a reply status that is not retried (a 3xx, or a 4xx other than 429).
    Every later request would be refused too, so the repetition fails."""


@dataclass(frozen=True)
class BackendPolicy:
    """Retry and concurrency behavior for a backend client."""

    # a socket timeout past TIMEOUT_MAX overflows, as does a sleep whose deadline passes it
    timeout: float = field(default=30.0, metadata=number(positive=True, high=TIMEOUT_MAX))
    max_retries: int = field(default=2, metadata=integer(0))
    backoff: float = field(default=0.5, metadata=number(high=BACKOFF_MAX))
    max_concurrent_requests: int = field(default=4, metadata=integer(1))

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class LlmSettings:
    """Decoding settings that the generation client sends with every request."""

    model: str = field(default="llama2", metadata=text())
    temperature: float = field(default=0.7, metadata=number())
    context_window: int = field(default=512, metadata=integer(1))
    max_output_tokens: int = field(default=256, metadata=integer(1))

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class GenerationRequest:
    """One completion request: the rendered prompt and its system instruction."""

    prompt_body: str
    system: str = ""


class TextGenerationBackend(Protocol):
    def complete(self, request: GenerationRequest) -> str: ...


class EmotionClassifierBackend(Protocol):
    def classify_emotions(self, text: GeneratedText) -> EmotionScores: ...


@dataclass(frozen=True)
class Backends(AbstractContextManager):
    """The generator/classifier pair a run is wired to. As a context
    manager it closes both on exit."""

    generator: TextGenerationBackend
    classifier: EmotionClassifierBackend

    def close(self) -> None:
        """Close the idle connections of the clients that hold any."""
        for backend in (self.generator, self.classifier):
            if hasattr(backend, "close"):
                backend.close()

    def __exit__(self, *exc) -> None:
        self.close()


def truncate_to_token_budget(text: str) -> str:
    """Drop trailing words until the estimated subword count fits CLASSIFIER_TOKEN_BUDGET."""
    if len(text) <= _WORD_LIMIT:
        return text  # at most _WORD_LIMIT characters hold at most that many words
    words = text.split()
    if len(words) <= _WORD_LIMIT:
        return text
    return " ".join(words[:_WORD_LIMIT])


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
    lexicons = dict(DEFAULT_LEXICONS)
    for name, words in read_json_object(path, "lexicon file").items():
        lexicons[EmotionLabel.parse(name)] = tuple(check(f"lexicon for {name!r}", words, strings()))
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
        self._token_labels: dict[str, list[EmotionLabel]] = {}
        self._phrase_patterns: list[tuple[EmotionLabel, re.Pattern]] = []
        for label, words in (DEFAULT_LEXICONS if lexicons is None else lexicons).items():
            for word in words:
                lowered = word.lower()
                if _TOKEN_RE.fullmatch(lowered):
                    self._token_labels.setdefault(lowered, []).append(label)
                else:
                    pattern = re.compile(r"\b" + re.escape(lowered) + r"\b")
                    self._phrase_patterns.append((label, pattern))

    def classify_emotions(self, text: GeneratedText) -> EmotionScores:
        lowered = truncate_to_token_budget(text).lower()
        counts = dict.fromkeys(EMOTION_LABELS, 0)
        lookup = self._token_labels.get
        for token in _TOKEN_RE.findall(lowered):
            for label in lookup(token, ()):
                counts[label] += 1
        for label, pattern in self._phrase_patterns:
            counts[label] += len(pattern.findall(lowered))
        # the raw scores are whole numbers, so their sum is exact in either type
        total = len(EMOTION_LABELS) + sum(counts.values())
        return EmotionScores({label: (1.0 + counts[label]) / total for label in EMOTION_LABELS})


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
_QUOTED_RE = re.compile(r'"([^"]*)"')
_PROMPT_LINE_RE = re.compile(r"(?m)^Prompt:\s*(.*)$")
_MOCK_MAX_PROMPT_TOKENS = 24


def _content_words(text: str) -> list[str]:
    words = [w.lower() for w in _WORD_RE.findall(text)]
    return [w for w in words if len(w) >= 3 and w not in _PROMPT_STOPWORDS]


def _injection_pool() -> tuple[str, ...]:
    pool: list[str] = []
    for label in EMOTION_LABELS:
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
        quoted = _QUOTED_RE.findall(body)
        parent_a = quoted[0] if quoted else ""
        parent_b = quoted[1] if len(quoted) > 1 else parent_a
        # an insertion-ordered set of the words kept so far. A quoted parent
        # holds no '"', and no whitespace character is case-ignorable, so a
        # final sigma lowers alike in the joined parents and in its own word
        merged: dict[str, None] = {}
        for word in f"{parent_a} {parent_b}".lower().split():
            if word not in merged and rng.random() < 0.9:
                merged[word] = None
        tokens = _cap_tokens(list(merged) or ["write", "a", "short", "story"], rng)
        return " ".join(tokens)

    def _rewrite(self, body: str, rng: random.Random) -> str:
        targets = _PROMPT_LINE_RE.findall(body)
        target = targets[-1].strip() if targets else "write a short story"
        tokens = [token for word in target.split() if (token := word.strip('"'))]
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
