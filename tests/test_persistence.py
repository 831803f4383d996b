"""The output tree's bytes: a recorded fingerprint, and every survivor line
against the oracle encoding."""

import hashlib
import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moprompt.backends import Backends, MockEmotionClassifier, MockTextGenerator
from moprompt.domain import (
    FitnessPoint,
    GeneratedText,
    Individual,
    ObjectivePair,
    OperatorRecord,
    Population,
    Prompt,
)
from moprompt.runner import (
    GenerationRecord,
    RunConfig,
    _write_generation,
    build_backends,
    run_experiment,
)
from oracles import encode_individual_oracle

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
        assert "Infinity" in gen_1.read_text()
    assert tree_sha256(tmp_path) == TREE_FINGERPRINTS[selector]


# every written line against the oracle

INF, NAN = float("inf"), float("nan")
# characters json.dumps escapes or, with ensure_ascii=False, writes raw
TRICKY = st.sampled_from(
    ['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "情", "😀"]
)
# lone surrogates cannot be written as UTF-8 at all
texts = st.text(alphabet=TRICKY | st.characters(blacklist_categories=("Cs",)), max_size=20)
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_written_lines_equal_the_oracle_encoding(data):
    first = [data.draw(individuals(i)) for i in range(data.draw(st.integers(1, 4)))]
    survivors = [
        member.with_selection(data.draw(st.integers(min_value=0)),
                              data.draw(crowdings), data.draw(contributions))
        for member in first if data.draw(st.booleans())
    ]
    newcomers = [
        data.draw(individuals(len(first) + i)) for i in range(data.draw(st.integers(0, 2)))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        pieces: dict = {}
        for generation, members in enumerate((first, survivors + newcomers)):
            record = GenerationRecord(generation, Population(tuple(members)), 0.0, 0)
            pieces = _write_generation(Path(tmp), record, pieces)
            assert lines_of(Path(tmp) / f"gen_{generation}.jsonl") == [
                encode_individual_oracle(member) for member in members
            ] + [""]
            assert sorted(pieces) == sorted(member.id for member in members)


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
