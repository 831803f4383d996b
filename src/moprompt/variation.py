"""LLM-backed variation operators.

Crossover and mutation both work on prompt text: crossover asks the model to
combine two parent prompts into one, mutation asks it to rewrite a prompt
under a randomly drawn rewrite instruction. A third template turns a prompt
into the story text that gets scored. Raw completions are post-processed
into a single clean instruction line; when a backend fails or returns
nothing usable, each operator falls back to a deterministic default and
marks the step in the returned trace record.
"""

from __future__ import annotations

import json
import logging
import re
import string
from dataclasses import dataclass

from .backends import (
    BackendError,
    CLASSIFIER_TOKEN_BUDGET,
    GenerationRequest,
    LlmSettings,
    TextGenerationBackend,
    truncate_to_token_budget,
)
from .domain import MAX_PROMPT_CHARS, GeneratedText, OperatorRecord, Prompt

logger = logging.getLogger(__name__)

_KIND_PLACEHOLDERS = {
    "crossover": {"parent_a", "parent_b"},
    "mutation": {"mutation_prompt", "prompt"},
    "generation": {"prompt"},
}


@dataclass(frozen=True)
class OperatorTemplate:
    """A prompt template for one operator kind.

    body_template carries the placeholders for its kind (checked at
    construction); few_shot_examples are user/response pairs rendered ahead
    of the instantiated body.
    """

    kind: str
    body_template: str
    system_instruction: str = ""
    few_shot_examples: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KIND_PLACEHOLDERS:
            raise ValueError(f"unknown operator kind: {self.kind!r}")
        found = {
            name
            for _, name, _, _ in string.Formatter().parse(self.body_template)
            if name
        }
        expected = _KIND_PLACEHOLDERS[self.kind]
        if found != expected:
            raise ValueError(
                f"{self.kind} template must use placeholders {sorted(expected)}, found {sorted(found)}"
            )


@dataclass(frozen=True)
class MutationInstruction:
    """One rewrite instruction the mutation operator can draw."""

    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.id or not self.text.strip():
            raise ValueError("mutation instructions need an id and non-empty text")


DEFAULT_CROSSOVER_TEMPLATE = OperatorTemplate(
    kind="crossover",
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
    kind="mutation",
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
    kind="generation",
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
        if self.crossover.kind != "crossover":
            raise ValueError("crossover slot holds a non-crossover template")
        if self.mutation.kind != "mutation":
            raise ValueError("mutation slot holds a non-mutation template")
        if self.generation.kind != "generation":
            raise ValueError("generation slot holds a non-generation template")
        if not self.mutation_instructions:
            raise ValueError("at least one mutation instruction is required")
        ids = [instr.id for instr in self.mutation_instructions]
        if len(set(ids)) != len(ids):
            raise ValueError("mutation instruction ids must be unique")


def load_operator_suite(path) -> OperatorSuite:
    """Read operator overrides from a JSON file.

    Recognized top-level keys: crossover, mutation, generation (each an
    object with a body_template string and optional system_instruction
    string and few_shot_examples list of [user, response] string pairs), and
    mutation_instructions (a list of {"id": str, "text": str}). Sections left
    out keep their built-in defaults; unknown keys are errors. Every problem
    with the file is a ValueError.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read operators file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"operators file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("operators file must hold a JSON object")
    known = {"crossover", "mutation", "generation", "mutation_instructions"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown operator file keys: {sorted(unknown)}")
    defaults = OperatorSuite()
    templates = {}
    for kind in ("crossover", "mutation", "generation"):
        if kind not in raw:
            templates[kind] = getattr(defaults, kind)
            continue
        section = raw[kind]
        if not isinstance(section, dict):
            raise ValueError(f"{kind} template must be a JSON object")
        extra = set(section) - {"body_template", "system_instruction", "few_shot_examples"}
        if extra:
            raise ValueError(f"unknown keys in {kind} template: {sorted(extra)}")
        if not isinstance(section.get("body_template"), str):
            raise ValueError(f"{kind} template needs a body_template string")
        if not isinstance(section.get("system_instruction", ""), str):
            raise ValueError(f"{kind} system_instruction must be a string")
        examples = section.get("few_shot_examples", [])
        if not isinstance(examples, list) or not all(map(_is_string_pair, examples)):
            raise ValueError(f"{kind} few_shot_examples must be a list of [user, response] strings")
        templates[kind] = OperatorTemplate(
            kind=kind,
            body_template=section["body_template"],
            system_instruction=section.get("system_instruction", ""),
            few_shot_examples=tuple(tuple(pair) for pair in examples),
        )
    instructions = defaults.mutation_instructions
    if "mutation_instructions" in raw:
        items = raw["mutation_instructions"]
        if not isinstance(items, list) or not all(
            isinstance(item, dict) and all(isinstance(item.get(k), str) for k in ("id", "text"))
            for item in items
        ):
            raise ValueError('mutation_instructions must be a list of {"id", "text"} strings')
        instructions = tuple(
            MutationInstruction(id=item["id"], text=item["text"]) for item in items
        )
    return OperatorSuite(
        crossover=templates["crossover"],
        mutation=templates["mutation"],
        generation=templates["generation"],
        mutation_instructions=instructions,
    )


def _is_string_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(isinstance(v, str) for v in value)


def render_prompt_body(template: OperatorTemplate, slots: dict[str, str]) -> str:
    """Instantiate a template body and prepend its few-shot examples as
    user/response blocks."""
    body = template.body_template.format(**slots)
    if not template.few_shot_examples:
        return body
    blocks: list[str] = []
    for user, response in template.few_shot_examples:
        blocks.append(f"### User:\n{user}")
        blocks.append(f"### Response:\n{response}")
    blocks.append(f"### User:\n{body}")
    blocks.append("### Response:")
    return "\n\n".join(blocks)


_LABEL_PREFIX_RE = re.compile(
    r"^(?:new prompt|prompt|response|answer|output|assistant|user|story)\s*[:\-]\s*",
    re.IGNORECASE,
)
_QUOTE_PAIRS = {'"': '"', "'": "'", "“": "”", "‘": "’"}


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
    paragraphs = [p.strip() for p in re.split(r"\n\s*\n", text) if p.strip()]
    if not paragraphs:
        return ""
    text = re.sub(r"\s+", " ", paragraphs[0])
    for _ in range(4):
        stripped = _LABEL_PREFIX_RE.sub("", text).strip()
        if stripped == text:
            break
        text = stripped
    while len(text) >= 2 and text[0] in _QUOTE_PAIRS and text[-1] == _QUOTE_PAIRS[text[0]]:
        text = text[1:-1].strip()
    if len(text) > max_chars:
        cut = text[:max_chars]
        boundary = max(cut.rfind(mark) for mark in ".!?")
        text = cut[: boundary + 1] if boundary > 0 else cut
        logger.info("truncated completion to %d characters", len(text))
    return text.strip()


def _request(
    template: OperatorTemplate, slots: dict[str, str], llm: LlmSettings
) -> GenerationRequest:
    return GenerationRequest(
        prompt_body=render_prompt_body(template, slots),
        system=template.system_instruction,
        llm=llm,
    )


def crossover(
    parent_a: Prompt,
    parent_b: Prompt,
    backend: TextGenerationBackend,
    suite: OperatorSuite | None = None,
    llm: LlmSettings | None = None,
) -> tuple[Prompt, OperatorRecord]:
    """Combine two parent prompts into a child prompt via the backend.

    On backend failure or an unusable completion the child is a copy of the
    lexicographically first parent and the trace marks the fallback.
    """
    suite = suite or OperatorSuite()
    llm = llm or LlmSettings()
    request = _request(
        suite.crossover,
        {"parent_a": parent_a.text, "parent_b": parent_b.text},
        llm,
    )
    raw = ""
    try:
        raw = backend.complete(request)
        cleaned = clean_completion(raw)
        if cleaned:
            return Prompt(cleaned), OperatorRecord(kind="crossover", raw_output=raw)
    except BackendError as exc:
        logger.warning("crossover backend failed, copying a parent: %s", exc)
    fallback = min(parent_a.text, parent_b.text)
    logger.info("variation_fallback crossover")
    return Prompt(fallback), OperatorRecord(kind="crossover", raw_output=raw, fallback=True)


def mutate(
    prompt: Prompt,
    backend: TextGenerationBackend,
    rng,
    suite: OperatorSuite | None = None,
    llm: LlmSettings | None = None,
) -> tuple[Prompt, OperatorRecord]:
    """Rewrite a prompt under a uniformly drawn mutation instruction.

    On backend failure or an unusable completion the prompt is returned
    unchanged and the trace marks the fallback.
    """
    suite = suite or OperatorSuite()
    llm = llm or LlmSettings()
    instruction = suite.mutation_instructions[rng.randrange(len(suite.mutation_instructions))]
    request = _request(
        suite.mutation,
        {"mutation_prompt": instruction.text, "prompt": prompt.text},
        llm,
    )
    raw = ""
    try:
        raw = backend.complete(request)
        cleaned = clean_completion(raw)
        if cleaned:
            return Prompt(cleaned), OperatorRecord(
                kind="mutation", raw_output=raw, instruction_id=instruction.id
            )
    except BackendError as exc:
        logger.warning("mutation backend failed, keeping prompt: %s", exc)
    logger.info("variation_fallback mutation")
    return Prompt(prompt.text), OperatorRecord(
        kind="mutation", raw_output=raw, instruction_id=instruction.id, fallback=True
    )


def generate_text(
    prompt: Prompt,
    backend: TextGenerationBackend,
    suite: OperatorSuite | None = None,
    llm: LlmSettings | None = None,
) -> tuple[GeneratedText, OperatorRecord]:
    """Produce the story text for a prompt, truncated to the evaluator's
    token budget. Backend failure yields empty text plus a fallback record;
    the empty text still gets evaluated downstream."""
    suite = suite or OperatorSuite()
    llm = llm or LlmSettings()
    request = _request(suite.generation, {"prompt": prompt.text}, llm)
    try:
        raw = backend.complete(request)
    except BackendError as exc:
        logger.warning("generation backend failed, scoring empty text: %s", exc)
        return GeneratedText(""), OperatorRecord(kind="generation", fallback=True)
    truncated = truncate_to_token_budget(raw.strip(), CLASSIFIER_TOKEN_BUDGET)
    return GeneratedText(truncated), OperatorRecord(kind="generation", raw_output=raw)
