import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moprompt.domain import (
    MAX_PROMPT_CHARS,
    EmotionLabel,
    EmotionScores,
    FitnessPoint,
    GeneratedText,
    Individual,
    ObjectivePair,
    Prompt,
    extract_fitness,
)


def make_scores(**overrides):
    base = {label: 1 / 6 for label in EmotionLabel}
    for name, value in overrides.items():
        base[EmotionLabel(name)] = value
    return EmotionScores(base)


def test_emotion_label_parse():
    assert EmotionLabel.parse("LOVE") is EmotionLabel.LOVE
    assert EmotionLabel.parse(" fear ") is EmotionLabel.FEAR
    with pytest.raises(ValueError):
        EmotionLabel.parse("disgust")


def test_label_set_is_closed():
    assert {label.value for label in EmotionLabel} == {
        "sadness", "joy", "love", "anger", "fear", "surprise",
    }


def test_prompt_strips_and_rejects_empty():
    assert Prompt("  write a story  ").text == "write a story"
    with pytest.raises(ValueError):
        Prompt("   ")
    with pytest.raises(ValueError):
        Prompt("x" * (MAX_PROMPT_CHARS + 1))
    assert len(Prompt("x" * MAX_PROMPT_CHARS).text) == MAX_PROMPT_CHARS


def test_generated_text_may_be_empty():
    assert GeneratedText("") == ""


def test_scores_require_all_labels():
    partial = {label: 0.2 for label in list(EmotionLabel)[:5]}
    with pytest.raises(ValueError):
        EmotionScores(partial)
    extra = {**{label: 1 / 6 for label in EmotionLabel}, "neutral": 0.0}
    with pytest.raises(ValueError, match="unexpected score keys"):
        EmotionScores(extra)


def test_scores_sum_tolerance():
    make_scores()  # exact
    almost = {label: 1 / 6 for label in EmotionLabel}
    almost[EmotionLabel.JOY] += 0.0009
    EmotionScores(almost)
    off = {label: 1 / 6 for label in EmotionLabel}
    off[EmotionLabel.JOY] += 0.01
    with pytest.raises(ValueError):
        EmotionScores(off)


def test_scores_range():
    bad = {label: 0.0 for label in EmotionLabel}
    bad[EmotionLabel.JOY] = 1.2
    bad[EmotionLabel.FEAR] = -0.2
    with pytest.raises(ValueError):
        EmotionScores(bad)


def test_objective_pair_labels_must_differ():
    with pytest.raises(ValueError):
        ObjectivePair(EmotionLabel.JOY, EmotionLabel.JOY)
    with pytest.raises(ValueError):
        ObjectivePair.parse("joy:joy")


def test_objective_pair_parse_and_slug():
    pair = ObjectivePair.parse("love:anger")
    assert pair.first is EmotionLabel.LOVE
    assert pair.second is EmotionLabel.ANGER
    assert pair.slug == "love_vs_anger"
    with pytest.raises(ValueError):
        ObjectivePair.parse("love")
    with pytest.raises(ValueError):
        ObjectivePair.parse("love:anger:fear")


def test_fitness_point_bounds():
    FitnessPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        FitnessPoint(-0.1, 0.5)
    with pytest.raises(ValueError):
        FitnessPoint(0.5, 1.1)
    with pytest.raises(ValueError):
        FitnessPoint(float("nan"), 0.5)
    with pytest.raises(ValueError, match="real number"):
        FitnessPoint(True, False)
    with pytest.raises(ValueError, match="real number"):
        FitnessPoint(0.5, True)
    point = FitnessPoint(1, 0)
    assert (point.f1, point.f2) == (1, 0)


def test_extract_fitness_love_anger_example():
    scores = make_scores(
        love=0.05, anger=0.82, sadness=0.05, joy=0.04, fear=0.02, surprise=0.02
    )
    point = extract_fitness(scores, ObjectivePair.parse("love:anger"))
    assert (point.f1, point.f2) == (0.05, 0.82)


def test_extract_fitness_joy_fear_example():
    scores = make_scores(
        joy=0.98, fear=0.00, sadness=0.01, love=0.005, anger=0.004, surprise=0.001
    )
    point = extract_fitness(scores, ObjectivePair.parse("joy:fear"))
    assert (point.f1, point.f2) == (0.98, 0.00)


def test_extract_fitness_uniform():
    point = extract_fitness(make_scores(), ObjectivePair.parse("surprise:fear"))
    assert point.f1 == pytest.approx(1 / 6)
    assert point.f2 == pytest.approx(1 / 6)


@st.composite
def score_dicts(draw):
    raw = [draw(st.floats(0.001, 1.0)) for _ in EmotionLabel]
    total = sum(raw)
    return {label: value / total for label, value in zip(EmotionLabel, raw)}


@given(score_dicts(), st.sampled_from(list(EmotionLabel)), st.sampled_from(list(EmotionLabel)))
def test_extract_fitness_is_pure_projection(scores_dict, first, second):
    if first == second:
        return
    scores = EmotionScores(scores_dict)
    pair = ObjectivePair(first, second)
    point = extract_fitness(scores, pair)
    assert point.f1 == scores[first]
    assert point.f2 == scores[second]
    assert point.f1 + point.f2 <= 1.0 + 1e-3


def test_individual_parent_limit():
    prompt = Prompt("tell a story")
    ind = Individual(
        prompt=prompt, text=GeneratedText("t"), fitness=FitnessPoint(0.1, 0.2), id=0
    )
    assert ind.rank is None and ind.crowding is None
    with pytest.raises(ValueError):
        Individual(
            prompt=prompt,
            text=GeneratedText("t"),
            fitness=FitnessPoint(0.1, 0.2),
            id=1,
            parent_ids=(1, 2, 3),
        )
    with pytest.raises(ValueError, match="^rank must be non-negative$"):
        replace(ind, rank=-1)
    with pytest.raises(ValueError, match="^crowding must be non-negative$"):
        replace(ind, crowding=-0.5)


def test_individual_with_selection():
    ind = Individual(
        prompt=Prompt("p"), text=GeneratedText(""), fitness=FitnessPoint(0.3, 0.3), id=4
    )
    tagged = ind.with_selection(rank=0, crowding=math.inf)
    assert tagged.rank == 0 and tagged.crowding == math.inf
    assert ind.rank is None  # original untouched


SELECTED = Individual(
    prompt=Prompt("p"), text=GeneratedText(""), fitness=FitnessPoint(0.3, 0.3), id=4
)


@pytest.mark.parametrize("fields", [
    (None, None, None),
    (0, 0.0, None),
    (2, -0.0, -0.0),
    (1, math.inf, None),
    (3, None, math.nan),
    (0, None, -math.inf),
    (7, 0.25, 5e-324),
])
def test_with_selection_keeps_an_individual_whose_fields_read_the_same(fields):
    tagged = SELECTED.with_selection(*fields)
    # fresh objects of the same type and repr, nan included
    again = tuple(None if v is None else type(v)(repr(v)) for v in fields)
    assert tagged.with_selection(*again) is tagged


@pytest.mark.parametrize("before, after", [
    ((0, 0.0, None), (0, -0.0, None)),
    ((0, -0.0, None), (0, 0.0, None)),
    ((0, None, 0.0), (0, None, -0.0)),
    ((0, None, -0.0), (0, None, 0.0)),
    ((1, None, None), (1.0, None, None)),
    ((1.0, None, None), (1, None, None)),
    ((0, 1.0, None), (0, None, 1.0)),
    ((0, None, None), (1, None, None)),
    ((0, 0.5, None), (0, 0.25, None)),
    ((0, None, math.nan), (0, None, math.inf)),
    ((0, math.inf, None), (0, None, None)),
])
def test_with_selection_builds_a_new_individual_when_a_field_changes(before, after):
    tagged = SELECTED.with_selection(*before)
    changed = tagged.with_selection(*after)
    assert changed is not tagged
    assert [repr(v) for v in (changed.rank, changed.crowding, changed.contribution)] == [
        repr(v) for v in after]

