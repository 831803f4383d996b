"""Operator templates, completion cleanup, and the three variation steps."""

import dataclasses
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moprompt.backends import BackendError, BackendRejected, MockTextGenerator
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
from oracles import clean_completion_oracle


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
    # a template is checked against the suite slot that holds it
    with pytest.raises(ValueError, match=r"^crossover.body_template must use the plain"):
        OperatorSuite(crossover=OperatorTemplate(body_template="only {parent_a}"))
    with pytest.raises(ValueError, match=r"^generation.body_template must use the plain"):
        OperatorSuite(generation=OperatorTemplate(body_template="{prompt} and {extra}"))


@pytest.mark.parametrize("body", ["{prompt}{}", "{prompt}{0}", "{prompt:d}", "{prompt:{w}}",
                                  "{prompt:{prompt}}", "{prompt!r}", "{prompt.upper}",
                                  "{prompt[0]}", "{prompt"])
def test_template_placeholders_must_be_plain_fields(body):
    # each of these would raise, or render more than the slot value, mid-run
    with pytest.raises(ValueError, match=r"^generation.body_template must use the plain"):
        OperatorSuite(generation=OperatorTemplate(body_template=body))


def test_template_checks_its_field_rules():
    with pytest.raises(ValueError, match=r"^body_template must be a string, got 5$"):
        OperatorTemplate(body_template=5)
    with pytest.raises(ValueError, match=r"^system_instruction must be a string"):
        OperatorTemplate(body_template="{prompt}", system_instruction=None)
    with pytest.raises(ValueError, match=r"^few_shot_examples must be a list of \[user"):
        OperatorTemplate(body_template="{prompt}", few_shot_examples=(("only a user turn",),))


def test_suite_slots_must_match_kinds():
    with pytest.raises(ValueError, match=r"^crossover.body_template must use the plain"):
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
    with pytest.raises(ValueError, match="^id must not be empty$"):
        MutationInstruction(id="", text="x")
    with pytest.raises(ValueError, match="^text must not be blank$"):
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
    assert len(blocks) == 6
    assert blocks[0] == "### User:\nChange the following prompt: provide a 3 sentence story"
    assert blocks[1] == "### Response:\nCraft a three-sentence story"
    assert blocks[-2] == "### User:\nMutation Prompt: Shorten it\nPrompt: write a long story\nNew Prompt:"
    assert blocks[-1] == "### Response:"


# completion cleanup

_WHITESPACE = [chr(code) for code in range(0x3001) if chr(code).isspace()]
# pieces of a raw completion: fences, label markers, quotes, sentence marks,
# words whose case folds change length, and every whitespace character
COMPLETION_PIECES = st.one_of(
    st.sampled_from(["```", "```text\n", "Prompt:", "new prompt -", "ANSWER :", "Story:", "User-",
                     '"', "'", "“", "”", "‘", "’", ".", "!", "?", "\n\n", " \n\t\n ",
                     "write", "a", "tale", "ΟΔΟΣ", "İ", "Straße"]),
    st.sampled_from(_WHITESPACE),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
)
COMPLETIONS = st.lists(COMPLETION_PIECES, max_size=30).map("".join)


@settings(max_examples=400, deadline=None)
@given(raw=COMPLETIONS, max_chars=st.sampled_from([MAX_PROMPT_CHARS, 12, 2]))
@example(raw="write write a tale", max_chars=MAX_PROMPT_CHARS)
@example(raw=" ".join(f"w{i}" for i in range(30)), max_chars=MAX_PROMPT_CHARS)
@example(raw="", max_chars=MAX_PROMPT_CHARS)
@example(raw="a\tb\rc\x0bd\x0ce", max_chars=MAX_PROMPT_CHARS)
@example(raw="\n\n  \n\nfirst\tpart\r\n \nsecond", max_chars=MAX_PROMPT_CHARS)
@example(raw="Prompt: Answer - “‘a quoted tale’”", max_chars=MAX_PROMPT_CHARS)
@example(raw='New Prompt: "ΟΔΟΣ ΑΒ İ"', max_chars=MAX_PROMPT_CHARS)
@example(raw="```", max_chars=MAX_PROMPT_CHARS)
@example(raw="```python write a tale", max_chars=MAX_PROMPT_CHARS)
@example(raw="One. Two three four", max_chars=12)
def test_clean_completion_matches_its_oracle(raw, max_chars):
    assert clean_completion(raw, max_chars) == clean_completion_oracle(raw, max_chars)


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
    assert text == (
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
    assert text == ""
    assert record.fallback


@pytest.mark.parametrize("operator", [
    lambda backend: crossover(PARENT_A, PARENT_B, backend),
    lambda backend: mutate(PARENT_A, backend, random.Random(0)),
    lambda backend: generate_text(PARENT_A, backend),
], ids=["crossover", "mutate", "generate_text"])
def test_operators_let_a_refused_request_through(operator):
    # a refused request would be refused again, so no operator falls back
    class RefusingBackend:
        def complete(self, request):
            raise BackendRejected("text generation failed: HTTP Error 404")

    with pytest.raises(BackendRejected, match="404"):
        operator(RefusingBackend())


# operator file loading


def test_load_operator_suite_overrides_instructions(tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"mutation_instructions": [{"id": "only", "text": "Reword it"}]}),
                    encoding="utf-8")
    suite = load_operator_suite(path)
    assert [i.id for i in suite.mutation_instructions] == ["only"]
    assert suite.crossover == DEFAULT_CROSSOVER_TEMPLATE


def test_load_operator_suite_overrides_template(tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(
        json.dumps({"crossover": {"body_template": 'Mix "{parent_a}" with "{parent_b}".'}})
    , encoding="utf-8")
    suite = load_operator_suite(path)
    assert suite.crossover.body_template == 'Mix "{parent_a}" with "{parent_b}".'
    assert suite.crossover.system_instruction == ""
    assert suite.mutation == DEFAULT_MUTATION_TEMPLATE


def test_load_operator_suite_rejects_unknown_keys(tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"selection": {}}), encoding="utf-8")
    with pytest.raises(ValueError, match="^unknown operators file keys: selection$"):
        load_operator_suite(path)
    path.write_text(json.dumps({"mutation": {"body_template": "x", "notes": "y"}}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="^unknown mutation keys: notes$"):
        load_operator_suite(path)


def test_load_operator_suite_checks_placeholders(tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"generation": {"body_template": "no placeholder"}}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"^generation.body_template must use the plain "
                                         r"placeholders \['prompt'\] and no others, "
                                         r"got 'no placeholder'$"):
        load_operator_suite(path)


def test_load_operator_suite_reads_few_shot_examples(tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"generation": {
        "body_template": "{prompt}", "few_shot_examples": [["tell it", "Once, a river."]]
    }}), encoding="utf-8")
    suite = load_operator_suite(path)
    assert suite.generation.few_shot_examples == (("tell it", "Once, a river."),)



def test_the_default_templates_load_back_from_json(tmp_path):
    # JSON gives the few-shot pairs as lists; they load as the defaults' tuples
    sections = {slot: dataclasses.asdict(getattr(OperatorSuite(), slot))
                for slot in ("crossover", "mutation", "generation")}
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({**sections, "mutation_instructions": [
        dataclasses.asdict(instruction) for instruction in DEFAULT_MUTATION_INSTRUCTIONS]}),
        encoding="utf-8")
    assert load_operator_suite(path) == OperatorSuite()
    written = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(written["mutation"]["few_shot_examples"][0], list)
