"""The output tree's bytes: recorded fingerprints, and every survivor line
against the oracle encoding."""

import hashlib
import itertools
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moprompt.backends import (
    DEFAULT_LEXICONS,
    Backends,
    MockEmotionClassifier,
    MockTextGenerator,
)
from moprompt.domain import (
    FitnessPoint,
    GeneratedText,
    Individual,
    ObjectivePair,
    OperatorRecord,
    Prompt,
    write_generation,
)
from moprompt.runner import (
    DEFAULT_SEED_PROMPTS,
    RunConfig,
    build_backends,
    run_experiment,
)
from oracles import check_tree, encode_individual_oracle

PAIR = ObjectivePair.parse("love:anger")

# sha256 of each tree below, recorded before survivors were encoded once per
# repetition; a change to the writers that alters a single byte fails here
TREE_FINGERPRINTS = {
    "nsga2": "2aedcc9a406fc724be6fbb9a4dd629a8354da388c8109ce89e9e8d4115bbeee1",
    "sms_emoa": "08bb07a3e0c071231ecf82d6040dbc8fa011510a677e49d03be73105d2a4ddcf",
}


def tree_sha256(root: Path) -> str:
    """Hash of every file under root, keyed by its relative path."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def fingerprint_config(selector: str, out_dir: Path) -> RunConfig:
    return RunConfig(
        pair=PAIR, mu=6, lam=8, generations=5, repetitions=2, seed=4,
        selector=selector, hv_mode="exact", out_dir=str(out_dir),
    )


@pytest.mark.parametrize("selector", sorted(TREE_FINGERPRINTS))
def test_mock_tree_matches_recorded_fingerprint(tmp_path, selector):
    config = fingerprint_config(selector, tmp_path)
    assert run_experiment(config, build_backends(config)).successes == 2
    if selector == "nsga2":
        # boundary crowding is infinite and written as Infinity
        gen_1 = tmp_path / PAIR.slug / "nsga2" / "rep_0" / "gen_1.jsonl"
        assert "Infinity" in gen_1.read_text(encoding="utf-8")
    assert tree_sha256(tmp_path) == TREE_FINGERPRINTS[selector]
    check_tree(config.run_dir)


# sha256 of a small converging run, recorded before unchanged survivors were
# carried across generations as the same object with the same written line
CONVERGED_FINGERPRINT = "5c0ce5ae88889815d5b34ec280709dc6251fac3c31ab38ae025dcc9eea58b2bf"


def converged_config(out_dir: Path) -> RunConfig:
    """A small run whose seed prompts are saturated with the pair's own
    lexicon words, so most survivors keep their rank and contribution from
    one generation to the next."""
    pool = list(DEFAULT_LEXICONS[PAIR.first]) + list(DEFAULT_LEXICONS[PAIR.second])
    rng = random.Random("converged-seed-prompts")
    prompts: dict[str, None] = {}
    while len(prompts) < 40:
        instruction = rng.choice(DEFAULT_SEED_PROMPTS[:2]).text
        prompts[f"{instruction} about {' '.join(rng.sample(pool, rng.randint(13, 16)))}"] = None
    return RunConfig(
        pair=PAIR, mu=40, lam=8, generations=6, repetitions=1, seed=7,
        selector="sms_emoa", hv_mode="exact", out_dir=str(out_dir),
        seed_prompts=tuple(Prompt(p) for p in prompts),
    )


def selection_fields(ind: Individual) -> tuple[str, str, str]:
    return repr(ind.rank), repr(ind.crowding), repr(ind.contribution)


def test_converged_tree_matches_recorded_fingerprint(tmp_path):
    config = converged_config(tmp_path)
    previous: dict[int, Individual] = {}
    kept = []

    def progress(rep, record):
        nonlocal previous
        current = {m.id: m for m in record.population}
        if record.generation_index > 1:  # founders carry no selection fields
            same = [m for i, m in current.items()
                    if i in previous and selection_fields(previous[i]) == selection_fields(m)]
            assert all(previous[m.id] is m for m in same)
            kept.append(len(same))
        previous = current

    assert run_experiment(config, build_backends(config), progress=progress).successes == 1
    # most survivors leave selection as they entered it, as the same object
    assert len(kept) == 5 and min(kept) > config.mu // 2
    assert tree_sha256(tmp_path) == CONVERGED_FINGERPRINT
    check_tree(config.run_dir)


# every written line against the oracle

INF, NAN = float("inf"), float("nan")
# characters json.dumps escapes or, with ensure_ascii=False, writes raw
TRICKY = st.sampled_from(
    ['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "情", "😀"]
)
# the record's own keys, so a string can look like a field boundary
KEYS = st.sampled_from([', "rank": ', ', "parent_ids": '])
# lone surrogates cannot be written as UTF-8 at all
texts = st.lists(
    TRICKY | KEYS | st.characters(blacklist_categories=("Cs",)), max_size=20
).map("".join)
specials = st.sampled_from([None, INF, -0.0, 0.0, 5e-324, NAN])
crowdings = st.one_of(specials, st.floats(min_value=0.0))
contributions = st.one_of(specials, st.just(-INF), st.floats())
ranks = st.one_of(st.none(), st.integers(min_value=0))
records = st.builds(
    OperatorRecord, kind=texts, raw_output=texts,
    instruction_id=st.one_of(st.none(), texts), fallback=st.booleans(),
)


@st.composite
def individuals(draw, ident: int) -> Individual:
    return Individual(
        prompt=Prompt(draw(texts.filter(str.strip))),
        text=GeneratedText(draw(texts)),
        fitness=FitnessPoint(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))),
        id=ident,
        parent_ids=tuple(draw(st.lists(st.integers(0, 10**6), max_size=2))),
        operator_trace=tuple(draw(st.lists(records, max_size=2))),
        rank=draw(ranks),
        crowding=draw(crowdings),
        contribution=draw(contributions),
    )


def lines_of(path: Path) -> list[str]:
    # split on the newline alone: a raw U+2028 inside a string is no line break
    return path.read_bytes().decode("utf-8").split("\n")


def copy_value(value):
    """A distinct object of the same type and repr where one can be made."""
    return value if value is None else type(value)(repr(value))


KINDS = ["dropped", "carried", "reselected", "rebuilt", "flipped", "changed"]
DIAGNOSTICS = st.sampled_from([("crowding",), ("contribution",), ("crowding", "contribution")])
ZEROS = st.sampled_from([0.0, -0.0])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_written_lines_equal_the_oracle_encoding(data):
    first, second, expected = [], [], []
    for ident, kind in enumerate(data.draw(st.lists(st.sampled_from(KINDS), min_size=1,
                                                    max_size=5))):
        member = data.draw(individuals(ident))
        if kind == "flipped":  # a zero of one sign now and of the other next
            names = data.draw(DIAGNOSTICS)
            member = replace(member, **{name: data.draw(ZEROS) for name in names})
        first.append(member)
        fields = {"rank": member.rank, "crowding": member.crowding,
                  "contribution": member.contribution}
        if kind == "dropped":
            continue
        if kind == "carried":
            survivor = member
        elif kind == "reselected":  # repr-equal values hand on the same object
            survivor = member.with_selection(**{k: copy_value(v) for k, v in fields.items()})
            assert survivor is member
        elif kind == "rebuilt":  # an equal individual that is another object
            survivor = replace(member)
        else:
            if kind == "flipped":
                fields.update({name: -fields[name] for name in names})
            else:
                fields = {"rank": data.draw(ranks), "crowding": data.draw(crowdings),
                          "contribution": data.draw(contributions)}
            survivor = member.with_selection(**fields)
        second.append(survivor)
        # the oracle encodes an individual built with the intended fields,
        # so neither with_selection nor the writer may drop a change
        expected.append(replace(member, **fields))
    newcomers = [
        data.draw(individuals(len(first) + i)) for i in range(data.draw(st.integers(0, 2)))
    ]
    order = data.draw(st.permutations(range(len(second) + len(newcomers))))
    second = [(second + newcomers)[i] for i in order]
    expected = [(expected + newcomers)[i] for i in order]
    with tempfile.TemporaryDirectory() as tmp:
        for generation, (members, encoded) in enumerate(((first, first), (second, expected))):
            write_generation(Path(tmp), generation, members)
            assert lines_of(Path(tmp) / f"gen_{generation}.jsonl") == [
                encode_individual_oracle(member) for member in encoded
            ] + [""]
            if generation == 0:
                written = {id(member): member.record_line() for member in first}
    # a survivor handed on as the same object writes the very line it wrote before
    for member in second:
        if id(member) in written:
            assert member.record_line() is written[id(member)]


class CountingGenerator:
    """The mock generator with a run-wide call number on every reply, so
    no two texts of a run are equal, not even two repetitions' founders
    (the plain mock founds every repetition alike, which would hide a
    survivor cache shared across repetitions)."""

    def __init__(self):
        self.mock = MockTextGenerator(seed=0)
        self.calls = itertools.count()

    def complete(self, request):
        return f"{self.mock.complete(request)} call {next(self.calls)}"


def test_every_generation_file_encodes_the_population_progress_saw(tmp_path):
    config = RunConfig(pair=PAIR, mu=6, lam=4, generations=3, repetitions=2, out_dir=str(tmp_path))
    backends = Backends(generator=CountingGenerator(), classifier=MockEmotionClassifier())
    seen = {}

    def progress(rep, record):
        seen[(rep, record.generation_index)] = record.population

    assert run_experiment(config, backends, progress=progress).successes == 2
    assert sorted(seen) == [(rep, gen) for rep in range(2) for gen in range(4)]
    # ids restart per repetition: founder ids that survived repetition 0
    # name other individuals in repetition 1
    assert {m.id for m in seen[(0, 3)]} & {m.id for m in seen[(1, 0)]}
    lines = {key: [encode_individual_oracle(m) for m in population]
             for key, population in seen.items()}
    assert any("Infinity" in line for written in lines.values() for line in written)
    run_dir = tmp_path / PAIR.slug / "nsga2"
    for (rep, gen), written in lines.items():
        assert lines_of(run_dir / f"rep_{rep}" / f"gen_{gen}.jsonl") == written + [""]
