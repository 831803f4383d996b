"""Report loading recomputes curves from raw records and flags gaps."""

import json

import pytest

from moprompt.domain import ObjectivePair
from moprompt.report import ReportError, discover_runs, load_run
from moprompt.runner import RunConfig, build_backends, run_experiment

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


def test_load_run_reports_missing_generation_files(finished_run, tmp_path):
    root, _, _ = finished_run
    src = root / "joy_vs_fear" / "nsga2"
    dst = tmp_path / "broken"
    dst.mkdir()
    (dst / "summary.json").write_text((src / "summary.json").read_text())
    for rep in range(2):
        rep_dir = dst / f"rep_{rep}"
        rep_dir.mkdir()
        for path in (src / f"rep_{rep}").glob("gen_*.jsonl"):
            rep_dir.joinpath(path.name).write_text(path.read_text())
    (dst / "rep_1" / "gen_2.jsonl").unlink()
    with pytest.raises(ReportError) as excinfo:
        load_run(dst)
    assert excinfo.value.bad_files == [str(dst / "rep_1")]


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


@pytest.mark.parametrize("summary", [
    [1, 2],
    {"results": {"repetition": 0, "status": "ok"}},
    {"results": [{"repetition": 0, "status": "ok"}, "ok"]},
    {"results": [{"status": "ok"}]},
    {"results": [{"repetition": "0", "status": "ok"}]},
    {"pair": None, "results": [{"repetition": 0, "status": "ok"}]},
    {"selector": None, "results": [{"repetition": 0, "status": "ok"}]},
    {"selector": ["nsga2"], "results": [{"repetition": 0, "status": "ok"}]},
    {"generations": "2", "results": [{"repetition": 0, "status": "ok"}]},
    {"generations": 2.0, "results": [{"repetition": 0, "status": "ok"}]},
    {"generations": True, "results": [{"repetition": 0, "status": "ok"}]},
    {"generations": None, "results": [{"repetition": 0, "status": "ok"}]},
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
    summary = {"results": [{"repetition": 0, "status": "failed"}]}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    with pytest.raises(ReportError, match="no successful repetitions"):
        load_run(tmp_path)
