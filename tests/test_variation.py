"""Operator templates, completion cleanup, and the three variation steps."""

import json
import random

import pytest

from moprompt.backends import BackendError, MockTextGenerator
from moprompt.domain import MAX_PROMPT_CHARS, Prompt
from moprompt.variation import (
    DEFAULT_CROSSOVER_TEMPLATE,
    DEFAULT_MUTATION_INSTRUCTIONS,
    DEFAULT_MUTATION_TEMPLATE,
    MutationInstruction,
    OperatorSuite,
    OperatorTemplate,
    clean_completion,
    crossover,
    generate_text,
    load_operator_suite,
    mutate,
    render_prompt_body,
)


class EchoBackend:
    """Returns a canned completion; records the requests it saw."""

    def __init__(self, reply="a new prompt"):
        self.reply = reply
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.reply


class FailingBackend:
    def complete(self, request):
        raise BackendError("backend down")


# template validation


def test_template_requires_exact_placeholders():
    with pytest.raises(ValueError, match="placeholders"):
        OperatorTemplate(kind="crossover", body_template="only {parent_a}")
    with pytest.raises(ValueError, match="placeholders"):
        OperatorTemplate(kind="generation", body_template="{prompt} and {extra}")


def test_template_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown operator kind"):
        OperatorTemplate(kind="selection", body_template="{prompt}")


def test_suite_slots_must_match_kinds():
    with pytest.raises(ValueError):
        OperatorSuite(crossover=DEFAULT_MUTATION_TEMPLATE)


def test_suite_rejects_duplicate_instruction_ids():
    twice = (
        MutationInstruction(id="same", text="Do one thing"),
        MutationInstruction(id="same", text="Do another"),
    )
    with pytest.raises(ValueError, match="unique"):
        OperatorSuite(mutation_instructions=twice)


def test_suite_rejects_empty_instruction_pool():
    with pytest.raises(ValueError):
        OperatorSuite(mutation_instructions=())


def test_mutation_instruction_validation():
    with pytest.raises(ValueError):
        MutationInstruction(id="", text="x")
    with pytest.raises(ValueError):
        MutationInstruction(id="x", text="   ")


# rendering


def test_render_without_few_shot_is_just_the_body():
    body = render_prompt_body(
        DEFAULT_CROSSOVER_TEMPLATE, {"parent_a": "first", "parent_b": "second"}
    )
    assert body.startswith('One prompt is: "first", another prompt is: "second".')
    assert "### User:" not in body


def test_render_with_few_shot_builds_dialogue_blocks():
    body = render_prompt_body(
        DEFAULT_MUTATION_TEMPLATE,
        {"mutation_prompt": "Shorten it", "prompt": "write a long story"},
    )
    blocks = body.split("\n\n")
    assert blocks[0] == "### User:\nChange the following prompt: provide a 3 sentence story"
    assert blocks[1] == "### Response:\nCraft a three-sentence story"
    assert blocks[-2] == "### User:\nMutation Prompt: Shorten it\nPrompt: write a long story\nNew Prompt:"
    assert blocks[-1] == "### Response:"


# completion cleanup


def test_clean_completion_passthrough():
    assert clean_completion("Write a story about rain.") == "Write a story about rain."


def test_clean_completion_strips_code_fences():
    assert clean_completion("```\nWrite a story\n```") == "Write a story"
    assert clean_completion("```text\nWrite a story\n```") == "Write a story"


def test_clean_completion_keeps_first_paragraph():
    raw = "Write about the sea\n\nHere is some extra chatter."
    assert clean_completion(raw) == "Write about the sea"


def test_clean_completion_collapses_inner_newlines():
    assert clean_completion("Write a story\nwith two lines") == "Write a story with two lines"


def test_clean_completion_strips_label_prefixes_iteratively():
    assert clean_completion("New Prompt: Write a story") == "Write a story"
    assert clean_completion("Response: Answer: Write a story") == "Write a story"


def test_clean_completion_strips_matched_quotes():
    assert clean_completion('"Write a story"') == "Write a story"
    assert clean_completion("“Write a story”") == "Write a story"
    # unmatched quotes stay
    assert clean_completion('"Write a story') == '"Write a story'


def test_clean_completion_empty_input():
    assert clean_completion("") == ""
    assert clean_completion("   \n\n  ") == ""
    assert clean_completion("``````") == ""


def test_clean_completion_truncates_at_sentence_boundary():
    raw = "One two three. " * 200
    cleaned = clean_completion(raw)
    assert len(cleaned) <= MAX_PROMPT_CHARS
    assert cleaned.endswith(".")
    assert set(cleaned.split(". ")) <= {"One two three.", "One two three"}


def test_clean_completion_hard_cut_without_boundary():
    cleaned = clean_completion("x" * 2500)
    assert len(cleaned) == MAX_PROMPT_CHARS


# operators against the seeded mock backend


MOCK = MockTextGenerator(seed=11)
PARENT_A = Prompt("provide a 3 sentence story")
PARENT_B = Prompt("write a 3 sentence story")


def test_crossover_mock_golden():
    child, record = crossover(PARENT_A, PARENT_B, MOCK)
    assert child.text == "provide a 3 story write sentence"
    assert record.kind == "crossover"
    assert not record.fallback
    assert record.raw_output == "provide a 3 story write sentence"


def test_mutate_mock_golden():
    child, record = mutate(PARENT_A, MOCK, random.Random(0))
    assert child.text == "provide celebrate a 3 sentence story"
    assert record.instruction_id == "reshape"
    assert not record.fallback


def test_generate_text_mock_golden():
    text, record = generate_text(PARENT_A, MOCK)
    assert text.text == (
        "Under a pale sky, the telling spoke of provide, sentence, story. "
        "A train stood witness through it all. That was how it ended."
    )
    assert record.kind == "generation"
    assert not record.fallback


def test_operators_are_deterministic():
    again, _ = crossover(PARENT_A, PARENT_B, MockTextGenerator(seed=11))
    assert again.text == "provide a 3 story write sentence"
    again, _ = mutate(PARENT_A, MockTextGenerator(seed=11), random.Random(0))
    assert again.text == "provide celebrate a 3 sentence story"


def test_mutation_instruction_draw_is_uniform():
    backend = EchoBackend()
    rng = random.Random(0)
    counts = {instr.id: 0 for instr in DEFAULT_MUTATION_INSTRUCTIONS}
    for _ in range(3000):
        _, record = mutate(PARENT_A, backend, rng)
        counts[record.instruction_id] += 1
    chi = sum((count - 1000) ** 2 / 1000 for count in counts.values())
    assert chi < 13.815  # df=2 at p=0.001


def test_mutate_sends_instruction_text_in_request():
    backend = EchoBackend()
    _, record = mutate(PARENT_A, backend, random.Random(0))
    drawn = {i.id: i.text for i in DEFAULT_MUTATION_INSTRUCTIONS}[record.instruction_id]
    assert f"Mutation Prompt: {drawn}" in backend.requests[0].prompt_body
    assert f"Prompt: {PARENT_A.text}" in backend.requests[0].prompt_body


def test_crossover_cleans_noisy_completion():
    backend = EchoBackend(reply='New Prompt: "Tell a tale of two rivers."')
    child, record = crossover(PARENT_A, PARENT_B, backend)
    assert child.text == "Tell a tale of two rivers."
    assert record.raw_output == 'New Prompt: "Tell a tale of two rivers."'


# fallback behavior


def test_crossover_fallback_copies_lexicographically_first_parent():
    child, record = crossover(PARENT_B, PARENT_A, FailingBackend())
    assert child.text == PARENT_A.text  # "provide..." sorts before "write..."
    assert record.fallback
    assert record.kind == "crossover"


def test_crossover_falls_back_on_unusable_completion():
    child, record = crossover(PARENT_A, PARENT_B, EchoBackend(reply="   "))
    assert child.text == PARENT_A.text
    assert record.fallback
    assert record.raw_output == "   "


def test_mutate_fallback_keeps_prompt():
    child, record = mutate(PARENT_A, FailingBackend(), random.Random(0))
    assert child.text == PARENT_A.text
    assert record.fallback
    assert record.instruction_id in {i.id for i in DEFAULT_MUTATION_INSTRUCTIONS}


def test_generate_text_fallback_scores_empty_text():
    text, record = generate_text(PARENT_A, FailingBackend())
    assert text.text == ""
    assert record.fallback


# operator file loading


def test_load_operator_suite_overrides_instructions(tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"mutation_instructions": [{"id": "only", "text": "Reword it"}]}))
    suite = load_operator_suite(path)
    assert [i.id for i in suite.mutation_instructions] == ["only"]
    assert suite.crossover == DEFAULT_CROSSOVER_TEMPLATE


def test_load_operator_suite_overrides_template(tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(
        json.dumps({"crossover": {"body_template": 'Mix "{parent_a}" with "{parent_b}".'}})
    )
    suite = load_operator_suite(path)
    assert suite.crossover.body_template == 'Mix "{parent_a}" with "{parent_b}".'
    assert suite.crossover.system_instruction == ""
    assert suite.mutation == DEFAULT_MUTATION_TEMPLATE


def test_load_operator_suite_rejects_unknown_keys(tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"selection": {}}))
    with pytest.raises(ValueError, match="unknown operator file keys"):
        load_operator_suite(path)
    path.write_text(json.dumps({"mutation": {"body_template": "x", "notes": "y"}}))
    with pytest.raises(ValueError, match="unknown keys in mutation"):
        load_operator_suite(path)


def test_load_operator_suite_checks_placeholders(tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"generation": {"body_template": "no placeholder"}}))
    with pytest.raises(ValueError, match="placeholders"):
        load_operator_suite(path)


def test_load_operator_suite_reads_few_shot_examples(tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"generation": {
        "body_template": "{prompt}", "few_shot_examples": [["tell it", "Once, a river."]]
    }}))
    suite = load_operator_suite(path)
    assert suite.generation.few_shot_examples == (("tell it", "Once, a river."),)

