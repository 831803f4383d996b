"""LLM-backed variation operators.

Crossover and mutation both work on prompt text: crossover asks the model to
combine two parent prompts into one, mutation asks it to rewrite a prompt
under a randomly drawn rewrite instruction. A third template turns a prompt
into the story text that gets scored. Raw completions are post-processed
into a single clean instruction line; when a backend fails or returns
nothing usable, each operator falls back to a deterministic default and
marks the step in the returned trace record. A request holds only the
rendered prompt and its system instruction; the client holds the decoding settings.
"""

from __future__ import annotations

import logging
import re
import string
from dataclasses import dataclass, field, fields
from functools import cached_property

from .backends import (
    BackendError,
    BackendRejected,
    GenerationRequest,
    TextGenerationBackend,
    truncate_to_token_budget,
)
from .domain import MAX_PROMPT_CHARS, GeneratedText, OperatorRecord, Prompt
from .rules import build, check, check_fields, items, pairs, read_json_object, section, text

logger = logging.getLogger(__name__)

# the placeholders that the body of each operator slot's template uses
_PLACEHOLDERS = {
    "crossover": {"parent_a", "parent_b"},
    "mutation": {"mutation_prompt", "prompt"},
    "generation": {"prompt"},
}


@dataclass(frozen=True)
class OperatorTemplate:
    """A prompt template for one operator slot of an OperatorSuite, which
    checks the body's placeholders against the slot. few_shot_examples are
    user/response pairs rendered ahead of the instantiated body."""

    body_template: str = field(metadata=text())
    system_instruction: str = field(default="", metadata=text(empty=True))
    few_shot_examples: tuple[tuple[str, str], ...] = field(default=(), metadata=pairs())

    def __post_init__(self) -> None:
        check_fields(self)
        # JSON gives the pairs as lists
        object.__setattr__(self, "few_shot_examples", tuple(map(tuple, self.few_shot_examples)))

    @cached_property
    def few_shot_prefix(self) -> str:
        """The few-shot examples as user/response blocks, each followed by a blank line."""
        return "".join(f"### User:\n{user}\n\n### Response:\n{response}\n\n"
                       for user, response in self.few_shot_examples)


@dataclass(frozen=True)
class MutationInstruction:
    """One rewrite instruction the mutation operator can draw."""

    id: str = field(metadata=text())
    text: str = field(metadata=text(then=lambda value: None if value.strip() else
                                    "must not be blank"))

    def __post_init__(self) -> None:
        check_fields(self)


DEFAULT_CROSSOVER_TEMPLATE = OperatorTemplate(
    system_instruction=(
        "You combine two prompts into one better prompt. Use one sentence "
        "maximum, which is a instruction to generate text, and keep the "
        "answer as concise as possible."
    ),
    body_template=(
        'One prompt is: "{parent_a}", another prompt is: "{parent_b}". '
        "Analyze the prompts and generate a better prompt based on this "
        "analysis, but it should still be a 1-sentence instruction to "
        "generate text."
    ),
)

DEFAULT_MUTATION_TEMPLATE = OperatorTemplate(
    system_instruction=(
        "Use the following mutation prompt and the following prompt, to "
        "change the prompt and generate a better prompt. Use one sentence "
        "maximum, which is a instruction to generate text, and keep the "
        "answer as concise as possible."
    ),
    body_template="Mutation Prompt: {mutation_prompt}\nPrompt: {prompt}\nNew Prompt:",
    few_shot_examples=(
        (
            "Change the following prompt: provide a 3 sentence story",
            "Craft a three-sentence story",
        ),
        (
            "Modify the following prompt: write a 3 sentence story",
            "Create a three-sentence tale with a twist ending.",
        ),
    ),
)

DEFAULT_GENERATION_TEMPLATE = OperatorTemplate(
    system_instruction=(
        "Follow the instruction and write a short story of at most three "
        "sentences. Output only the story."
    ),
    body_template="{prompt}",
)

DEFAULT_MUTATION_INSTRUCTIONS = (
    MutationInstruction(
        id="rewrite",
        text=(
            "Change this prompt, but it should still be a 1-sentence "
            "instruction to generate text"
        ),
    ),
    MutationInstruction(
        id="reshape",
        text=(
            "Modify this prompt to generate a 1-sentence instruction for "
            "text generation"
        ),
    ),
    MutationInstruction(
        id="paraphrase",
        text=(
            "Generate a variation of the following prompt while keeping "
            "the semantic meaning"
        ),
    ),
)


@dataclass(frozen=True)
class OperatorSuite:
    """The three operator templates plus the mutation instruction pool."""

    crossover: OperatorTemplate = DEFAULT_CROSSOVER_TEMPLATE
    mutation: OperatorTemplate = DEFAULT_MUTATION_TEMPLATE
    generation: OperatorTemplate = DEFAULT_GENERATION_TEMPLATE
    mutation_instructions: tuple[MutationInstruction, ...] = DEFAULT_MUTATION_INSTRUCTIONS

    def __post_init__(self) -> None:
        for slot, expected in _PLACEHOLDERS.items():
            body = getattr(self, slot).body_template
            try:  # each field as (name, format spec, conversion)
                found = {part[1:] for part in string.Formatter().parse(body) if part[1] is not None}
            except ValueError:  # an unmatched brace
                found = None
            # with plain fields of exactly these names, rendering cannot fail
            if found != {(name, "", None) for name in expected}:
                raise ValueError(f"{slot}.body_template must use the plain placeholders "
                                 f"{sorted(expected)} and no others, got {body!r}")
        if not self.mutation_instructions:
            raise ValueError("at least one mutation instruction is required")
        ids = [instr.id for instr in self.mutation_instructions]
        if len(set(ids)) != len(ids):
            raise ValueError("mutation instruction ids must be unique")


def load_operator_suite(path) -> OperatorSuite:
    """Read operator overrides from a JSON file: crossover, mutation and
    generation hold the fields of OperatorTemplate, mutation_instructions a
    list of objects with those of MutationInstruction. Sections left out keep
    their defaults. Every problem with the file is a ValueError that names
    the field by its place in the file, as in generation.body_template."""
    raw = section(read_json_object(path, "operators file"),
                  [spec.name for spec in fields(OperatorSuite)], "operators file")
    given = {slot: build(OperatorTemplate, raw[slot], slot)
             for slot in _PLACEHOLDERS if slot in raw}
    if "mutation_instructions" in raw:
        given["mutation_instructions"] = tuple(
            build(MutationInstruction, item, f"mutation_instructions[{index}]")
            for index, item in enumerate(
                check("mutation_instructions", raw["mutation_instructions"], items()))
        )
    return OperatorSuite(**given)


def render_prompt_body(template: OperatorTemplate, slots: dict[str, str]) -> str:
    """Instantiate a template body and prepend its few-shot examples as
    user/response blocks."""
    body = template.body_template.format(**slots)
    if not template.few_shot_examples:
        return body
    return f"{template.few_shot_prefix}### User:\n{body}\n\n### Response:"


_LABEL_PREFIX_RE = re.compile(
    r"^(?:new prompt|prompt|response|answer|output|assistant|user|story)\s*[:\-]\s*",
    re.IGNORECASE,
)
_QUOTE_PAIRS = {'"': '"', "'": "'", "“": "”", "‘": "’"}
_PARAGRAPH_BREAK_RE = re.compile(r"\n\s*\n")


def clean_completion(raw: str, max_chars: int = MAX_PROMPT_CHARS) -> str:
    """Normalize a raw completion into a single instruction line.

    Strips code fences, keeps the first non-empty paragraph, removes leading
    role or label markers and enclosing quotes, collapses whitespace, and
    truncates at the last sentence boundary inside the character budget.
    Returns an empty string when nothing survives.
    """
    text = raw.strip()
    if text.startswith("```"):
        lines = text.split("\n")
        lines = lines[1:]
        if lines and lines[-1].strip().startswith("```"):
            lines = lines[:-1]
        text = "\n".join(lines).strip()
    if "\n" in text:  # else the text is one paragraph
        # stripped, text starts with its first non-empty paragraph
        text = _PARAGRAPH_BREAK_RE.split(text, maxsplit=1)[0]
    # collapse whitespace: str.split splits at the characters that \s matches
    text = " ".join(text.split())
    for _ in range(4):
        prefix = _LABEL_PREFIX_RE.match(text)
        if not prefix:
            break
        text = text[prefix.end():].strip()
    while len(text) >= 2 and text[0] in _QUOTE_PAIRS and text[-1] == _QUOTE_PAIRS[text[0]]:
        text = text[1:-1].strip()
    if len(text) > max_chars:
        cut = text[:max_chars]
        boundary = max(cut.rfind(mark) for mark in ".!?")
        text = cut[: boundary + 1] if boundary > 0 else cut
        logger.info("truncated completion to %d characters", len(text))
    return text.strip()


def _apply(kind: str, suite: OperatorSuite, slots: dict[str, str], backend, result, fallback,
           note: str, **record):
    """The shared path of the three operators: render the template in the
    suite's kind slot with slots, ask the backend, and turn the reply into a
    value with result. When the backend fails, or result returns None for an
    unusable reply, the value is fallback() and the record is marked; note
    says what the fallback does. A refused request (BackendRejected)
    propagates instead. record holds further OperatorRecord fields."""
    template = getattr(suite, kind)
    request = GenerationRequest(
        prompt_body=render_prompt_body(template, slots),
        system=template.system_instruction,
    )
    raw = ""
    try:
        raw = backend.complete(request)
        value = result(raw)
        if value is not None:
            return value, OperatorRecord(kind=kind, raw_output=raw, **record)
    except BackendRejected:
        raise
    except BackendError as exc:
        logger.warning("%s backend failed, %s: %s", kind, note, exc)
    logger.info("variation_fallback %s", kind)
    return fallback(), OperatorRecord(kind=kind, raw_output=raw, fallback=True, **record)


def _cleaned_prompt(raw: str) -> Prompt | None:
    cleaned = clean_completion(raw)
    return Prompt(cleaned) if cleaned else None


def crossover(
    parent_a: Prompt,
    parent_b: Prompt,
    backend: TextGenerationBackend,
    suite: OperatorSuite = OperatorSuite(),
) -> tuple[Prompt, OperatorRecord]:
    """Combine two parent prompts into a child prompt via the backend.

    On backend failure or an unusable completion the child is a copy of the
    lexicographically first parent and the trace marks the fallback.
    """
    return _apply(
        "crossover", suite, {"parent_a": parent_a.text, "parent_b": parent_b.text}, backend,
        _cleaned_prompt, lambda: Prompt(min(parent_a.text, parent_b.text)),
        "copying a parent",
    )


def mutate(
    prompt: Prompt,
    backend: TextGenerationBackend,
    rng,
    suite: OperatorSuite = OperatorSuite(),
) -> tuple[Prompt, OperatorRecord]:
    """Rewrite a prompt under a uniformly drawn mutation instruction.

    On backend failure or an unusable completion the prompt is returned
    unchanged and the trace marks the fallback.
    """
    instruction = suite.mutation_instructions[rng.randrange(len(suite.mutation_instructions))]
    return _apply(
        "mutation", suite, {"mutation_prompt": instruction.text, "prompt": prompt.text},
        backend, _cleaned_prompt, lambda: Prompt(prompt.text), "keeping prompt",
        instruction_id=instruction.id,
    )


def generate_text(
    prompt: Prompt,
    backend: TextGenerationBackend,
    suite: OperatorSuite = OperatorSuite(),
) -> tuple[GeneratedText, OperatorRecord]:
    """Produce the story text for a prompt, truncated to the evaluator's
    token budget. Backend failure yields empty text plus a fallback record;
    the empty text still gets evaluated downstream."""
    return _apply(
        "generation", suite, {"prompt": prompt.text}, backend,
        lambda raw: GeneratedText(truncate_to_token_budget(raw.strip())),
        lambda: GeneratedText(""), "scoring empty text",
    )
