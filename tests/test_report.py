"""Report loading recomputes curves from raw records and flags gaps."""

import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moprompt import cli
from moprompt.domain import FitnessPoint, ObjectivePair
from moprompt.moea import hypervolume_2d
from moprompt.report import ReportError, _load_points, discover_runs, load_run
from moprompt.runner import RunConfig, build_backends, run_experiment
from oracles import load_points_oracle

PAIR = ObjectivePair.parse("joy:fear")


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    config = RunConfig(
        pair=PAIR, mu=4, lam=6, generations=3, repetitions=2, seed=3, out_dir=str(root)
    )
    summary = run_experiment(config, build_backends(config))
    return root, config, summary


def test_discover_runs_finds_summary_dirs(finished_run):
    root, _, _ = finished_run
    assert discover_runs(root) == [root / "joy_vs_fear" / "nsga2"]


def test_load_run_matches_stored_summary(finished_run):
    root, config, summary = finished_run
    report = load_run(root / "joy_vs_fear" / "nsga2")
    assert report.problem == "joy_vs_fear"
    assert report.selector == "nsga2"
    assert [c.repetition for c in report.curves] == [0, 1]
    for curve in report.curves:
        assert len(curve.hypervolumes) == config.generations + 1
        assert curve.running_max >= curve.final
    # recomputed statistics agree with what the run itself reported
    stored = [r.final_hypervolume for r in summary.results]
    assert [c.final for c in report.curves] == stored
    assert report.final_stats == summary.final_stats
    assert report.running_max_stats == summary.running_max_stats


def test_load_run_missing_summary(tmp_path):
    with pytest.raises(ReportError, match="unreadable summary"):
        load_run(tmp_path)


def copy_run(finished_run, dst):
    root, _, _ = finished_run
    src = root / "joy_vs_fear" / "nsga2"
    dst.mkdir()
    (dst / "summary.json").write_text((src / "summary.json").read_text())
    for rep in range(2):
        rep_dir = dst / f"rep_{rep}"
        rep_dir.mkdir()
        for path in (src / f"rep_{rep}").glob("gen_*.jsonl"):
            rep_dir.joinpath(path.name).write_text(path.read_text())
    return dst


def test_load_run_reports_missing_generation_files(finished_run, tmp_path):
    dst = copy_run(finished_run, tmp_path / "broken")
    (dst / "rep_1" / "gen_2.jsonl").unlink()
    with pytest.raises(ReportError) as excinfo:
        load_run(dst)
    assert excinfo.value.bad_files == [str(dst / "rep_1" / "gen_2.jsonl")]


def test_load_run_ignores_the_files_of_an_earlier_longer_run(tmp_path, capsys):
    for generations in (4, 2):
        config = RunConfig(pair=PAIR, mu=4, lam=6, generations=generations, repetitions=2,
                           seed=3, out_dir=str(tmp_path))
        run_experiment(config, build_backends(config))
    run_dir = tmp_path / "joy_vs_fear" / "nsga2"
    assert (run_dir / "rep_1" / "gen_4.jsonl").exists()
    summary = json.loads((run_dir / "summary.json").read_text())
    report = load_run(run_dir)
    assert [len(c.hypervolumes) for c in report.curves] == [3, 3]
    assert report.final_stats == summary["final"]
    assert report.running_max_stats == summary["running_max"]
    assert cli.main(["report", "--run", str(tmp_path)]) == 0
    assert "joy_vs_fear" in capsys.readouterr().out


def test_load_run_reads_only_the_generation_files_the_writer_names(finished_run, tmp_path):
    dst = copy_run(finished_run, tmp_path / "aliases")
    expected = load_run(dst).curves
    # a leading zero, a non-ASCII digit, a trailing newline: none is a name
    # the writer gives, so none may stand in for gen_1.jsonl or add a generation
    for rep in range(2):
        for name in ("gen_01.jsonl", "gen_\u0661.jsonl", "gen_1.jsonl\n", "gen_04.jsonl"):
            (dst / f"rep_{rep}" / name).write_text("not json\n")
    assert load_run(dst).curves == expected


def test_load_run_reports_corrupt_records(finished_run, tmp_path):
    dst = copy_run(finished_run, tmp_path / "corrupt")
    target = dst / "rep_0" / "gen_1.jsonl"
    target.write_text("not json\n")
    with pytest.raises(ReportError) as excinfo:
        load_run(dst)
    assert excinfo.value.bad_files == [str(target)]


@pytest.mark.parametrize("record", [
    {"fitness": [0.5]}, [1, 2], {"fitness": 0.5}, {"id": 3}, {"fitness": [True, 0.5]},
])
def test_load_run_reports_wrong_shaped_records(finished_run, tmp_path, record):
    dst = copy_run(finished_run, tmp_path / "corrupt")
    target = dst / "rep_0" / "gen_1.jsonl"
    target.write_text(json.dumps(record) + "\n")
    with pytest.raises(ReportError) as excinfo:
        load_run(dst)
    assert excinfo.value.bad_files == [str(target)]


MISSING = object()


def summary_with(**fields):
    """A summary that loads against finished_run, with fields replaced or, as MISSING, removed."""
    summary = {"pair": "joy_vs_fear", "selector": "nsga2", "generations": 3,
               "results": [{"repetition": 0, "status": "ok"}]}
    summary.update(fields)
    return {key: value for key, value in summary.items() if value is not MISSING}


def test_load_run_reads_the_summary_the_corrupt_cases_start_from(finished_run, tmp_path):
    dst = copy_run(finished_run, tmp_path / "base")
    (dst / "summary.json").write_text(json.dumps(summary_with()))
    assert [curve.repetition for curve in load_run(dst).curves] == [0]


@pytest.mark.parametrize("summary", [
    [1, 2],
    summary_with(results={"repetition": 0, "status": "ok"}),
    summary_with(results=[{"repetition": 0, "status": "ok"}, "ok"]),
    summary_with(results=[{"status": "ok"}]),
    summary_with(results=[{"repetition": "0", "status": "ok"}]),
    summary_with(pair=None),
    summary_with(selector=None),
    summary_with(selector=["nsga2"]),
    summary_with(generations="2"),
    summary_with(generations=2.0),
    summary_with(generations=True),
    summary_with(generations=None),
    summary_with(pair=MISSING, selector=MISSING, generations=MISSING),
    summary_with(results=[{"repetition": 0, "status": "ok"}, {"repetition": 0, "status": "ok"}]),
    summary_with(generations=-1),
    summary_with(pair=MISSING),
    summary_with(selector=MISSING),
    summary_with(generations=MISSING),
    summary_with(results=MISSING),
    summary_with(results=[{"repetition": -1, "status": "ok"}]),
])
def test_load_run_reports_corrupt_summary(finished_run, tmp_path, summary):
    dst = copy_run(finished_run, tmp_path / "corrupt")
    (dst / "summary.json").write_text(json.dumps(summary))
    with pytest.raises(ReportError, match="unreadable summary") as excinfo:
        load_run(dst)
    assert excinfo.value.bad_files == [str(dst / "summary.json")]


def test_load_run_skips_failed_repetitions(tmp_path):
    summary = {
        "pair": "joy_vs_fear",
        "selector": "nsga2",
        "generations": 1,
        "results": [
            {"repetition": 0, "status": "failed"},
            {"repetition": 1, "status": "ok"},
        ],
    }
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    rep_dir = tmp_path / "rep_1"
    rep_dir.mkdir()
    row = {"fitness": [0.5, 0.5]}
    for gen in (0, 1):
        (rep_dir / f"gen_{gen}.jsonl").write_text(json.dumps(row) + "\n")
    report = load_run(tmp_path)
    assert [c.repetition for c in report.curves] == [1]
    assert report.curves[0].hypervolumes == (0.25, 0.25)


def test_load_run_with_no_ok_repetitions(tmp_path):
    summary = {"pair": "joy_vs_fear", "selector": "nsga2", "generations": 1,
               "results": [{"repetition": 0, "status": "failed"}]}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    with pytest.raises(ReportError, match="no successful repetitions"):
        load_run(tmp_path)


RECORDS = st.builds(
    lambda f1, f2, prompt: json.dumps({"fitness": [f1, f2], "prompt": prompt},
                                      ensure_ascii=False).encode(),
    st.floats(0, 1), st.floats(0, 1), st.text(max_size=4),
)


@st.composite
def repetition(draw, generations: int) -> list[bytes]:
    """The bytes of one repetition's gen_*.jsonl files. Each line is a new
    record, a line of the file before (carried), a line of an older file
    (re-selected), a blank or whitespace-only line, or a carried line with
    one byte changed; each ends in LF or CRLF, and a file's last line may
    end in neither."""
    files: list[list[bytes]] = []
    for _ in range(generations + 1):
        previous = files[-1] if files else []
        older = [line for lines in files[:-1] for line in lines]
        lines = []
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from(["new", "carried", "reselected", "blank", "corrupt"]))
            if kind == "carried" and previous:
                line = draw(st.sampled_from(previous))
            elif kind == "reselected" and older:
                line = draw(st.sampled_from(older))
            elif kind == "blank":
                line = draw(st.sampled_from([b"", b" ", b"\t  "]))
            elif kind == "corrupt" and previous:
                line = bytearray(draw(st.sampled_from(previous)))
                if line:  # a byte moved by 1 to 255 places: a digit, JSON or UTF-8 broken
                    at = draw(st.integers(0, len(line) - 1))
                    line[at] = (line[at] + draw(st.integers(1, 255))) % 256
                line = bytes(line)
            else:
                line = draw(RECORDS)
            lines.append(line)
        files.append(lines)
    endings = st.sampled_from([b"\n", b"\r\n"])
    return [b"".join(line + draw(endings) for line in lines[:-1])
            + (lines[-1] + draw(st.sampled_from([b"", b"\n", b"\r\n"])) if lines else b"")
            for lines in files]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(lambda generations: st.lists(
    repetition(generations), min_size=1, max_size=2)))
def test_load_run_matches_the_line_by_line_oracle(reps):
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        summary = {"pair": "joy_vs_fear", "selector": "nsga2", "generations": len(reps[0]) - 1,
                   "results": [{"repetition": rep, "status": "ok"} for rep in range(len(reps))]}
        (run_dir / "summary.json").write_text(json.dumps(summary))
        bad, curves = [], []
        for rep, contents in enumerate(reps):
            (run_dir / f"rep_{rep}").mkdir()
            series = []
            for generation, content in enumerate(contents):
                path = run_dir / f"rep_{rep}" / f"gen_{generation}.jsonl"
                path.write_bytes(content)
                if len(series) < generation:
                    continue  # an earlier file of this repetition is bad
                try:
                    series.append(hypervolume_2d(load_points_oracle(path)))
                except ValueError:
                    bad.append(str(path))
            if len(series) == len(contents):
                curves.append(tuple(series))
        if bad:
            with pytest.raises(ReportError) as excinfo:
                load_run(run_dir)
            assert excinfo.value.bad_files == bad
        else:
            assert [c.hypervolumes for c in load_run(run_dir).curves] == curves


def test_load_run_reuses_a_point_only_for_an_equal_line(tmp_path, monkeypatch):
    # the memo keys a line by its first 32 characters: a line that shares
    # them with a stored one but differs after them is parsed, a
    # whitespace-only line is never stored, and a line carried over a
    # generation that lacks it is parsed again
    a = '{"id": 1, "prompt": "a prompt long enough", "fitness": [0.5, 0.5]}'
    b = '{"id": 2, "prompt": "another", "fitness": [0.2, 0.8]}'
    a_moved = a.replace("[0.5, 0.5]", "[0.9, 0.9]")
    assert a_moved[:32] == a[:32]
    files = [[a, b], [a_moved, " \t", b], [a, b]]
    (tmp_path / "summary.json").write_text(json.dumps(
        {"pair": "joy_vs_fear", "selector": "nsga2", "generations": 2,
         "results": [{"repetition": 0, "status": "ok"}]}))
    (tmp_path / "rep_0").mkdir()
    for generation, lines in enumerate(files):
        (tmp_path / "rep_0" / f"gen_{generation}.jsonl").write_text("\n".join(lines) + "\n")
    parsed = []

    def loads(line):
        parsed.append(line)
        return json.loads(line)

    monkeypatch.setattr("moprompt.report.json", SimpleNamespace(loads=loads))
    (curve,) = load_run(tmp_path).curves
    first = hypervolume_2d([FitnessPoint(0.5, 0.5), FitnessPoint(0.2, 0.8)])
    assert curve.hypervolumes == (
        first, hypervolume_2d([FitnessPoint(0.9, 0.9), FitnessPoint(0.2, 0.8)]), first)
    assert parsed == [a, b, a_moved, a]
    _, memo = _load_points(tmp_path / "rep_0" / "gen_1.jsonl", {})
    assert [line for line, _ in memo.values()] == [a_moved + "\n", b + "\n"]
