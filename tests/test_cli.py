"""End-to-end command line behavior, exit codes, and printed contracts."""

import json
import re
import shlex
from pathlib import Path

import pytest

from moprompt.cli import build_parser, load_config, main
from moprompt.variation import OperatorSuite

DIAGONAL_ROWS = "f1,f2\n" + "".join(f"{k / 9!r},{1 - k / 9!r}\n" for k in range(10))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# run command


def test_run_with_flags_only(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "run", "--pair", "joy:fear", "--out", str(tmp_path),
        "--reps", "1", "--gens", "2",
    )
    assert code == 0, err
    assert "rep 0 gen 0/2 hv 0.027778 fallbacks 0" in out
    assert "rep 0 gen 2/2 hv " in out
    assert "rep 0 done final " in out
    assert "summary final best " in out
    assert "summary running_max best " in out
    run_dir = tmp_path / "joy_vs_fear" / "nsga2"
    assert out.rstrip().endswith(f"wrote {run_dir}")
    assert (run_dir / "summary.json").is_file()
    assert (run_dir / "rep_0" / "gen_2.jsonl").is_file()


def test_run_with_config_file(tmp_path, capsys):
    config = {
        "pair": "love:anger",
        "mu": 4,
        "lambda": 6,
        "generations": 2,
        "repetitions": 2,
        "selector": "sms-emoa",
        "hv_mode": "exact",
        "out_dir": str(tmp_path / "runs"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 0, err
    payload = json.loads(
        (tmp_path / "runs" / "love_vs_anger" / "sms_emoa" / "summary.json").read_text()
    )
    assert payload["selector"] == "sms_emoa"
    assert payload["hv_mode"] == "exact"
    assert payload["mu"] == 4 and payload["lambda"] == 6
    assert [r["status"] for r in payload["results"]] == ["ok", "ok"]


def test_run_flag_overrides_beat_config(tmp_path, capsys):
    config = {"pair": "love:anger", "mu": 4, "lambda": 6, "generations": 2, "repetitions": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(
        capsys,
        "run", "--config", str(path), "--pair", "joy:fear",
        "--selector", "sms-emoa", "--out", str(tmp_path / "out"),
    )
    assert code == 0, err
    assert (tmp_path / "out" / "joy_vs_fear" / "sms_emoa" / "summary.json").is_file()


def test_run_quiet_suppresses_progress(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "--quiet", "run", "--pair", "joy:fear", "--out", str(tmp_path),
        "--reps", "1", "--gens", "1",
    )
    assert code == 0
    assert " gen " not in out
    assert "rep 0 done final " in out


def test_run_quiet_also_accepted_after_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--pair", "joy:fear", "--out", str(tmp_path),
        "--reps", "1", "--gens", "1", "--quiet",
    )
    assert code == 0
    assert " gen " not in out
    assert "rep 0 done final " in out


def test_run_rejects_equal_pair_labels(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--pair", "joy:joy", "--out", str(tmp_path))
    assert code == 2
    assert "objective pair labels must differ" in err


def test_run_rejects_an_out_dir_that_cannot_be_created(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    code, out, err = run_cli(
        capsys, "run", "--pair", "love:anger", "--out", str(blocker / "x"), "--gens", "1",
    )
    assert code == 2
    assert err.startswith("error: cannot create output directory: ")
    assert "Traceback" not in err
    # no repetition ran
    assert out == ""


def test_run_keeps_exit_1_when_no_repetition_can_write(tmp_path, capsys):
    run_dir = tmp_path / "love_vs_anger" / "nsga2"
    run_dir.mkdir(parents=True)
    (run_dir / "rep_0").write_text("")
    code, out, _ = run_cli(
        capsys, "run", "--pair", "love:anger", "--out", str(tmp_path),
        "--reps", "1", "--gens", "1",
    )
    assert code == 1
    assert "rep 0 failed: " in out


def test_run_requires_a_pair(capsys):
    code, _, err = run_cli(capsys, "run")
    assert code == 2
    assert "objective pair is required" in err


def test_run_rejects_unknown_config_keys(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "population_size": 10}))
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "unknown config keys: population_size" in err


def test_run_rejects_unknown_section_keys(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "llm": {"modl": "llama2"}}))
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "unknown llm keys: modl" in err


def test_run_rejects_malformed_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("section", ["llm", "classifier", "policy"])
def test_run_rejects_non_object_sections(tmp_path, capsys, section):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", section: 5}))
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert f"{section} section must be a JSON object" in err


@pytest.mark.parametrize("seed_prompts", ["abcdefghijk", ["write a story", 7]])
def test_run_rejects_seed_prompts_that_are_not_a_string_list(tmp_path, capsys, seed_prompts):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "seed_prompts": seed_prompts}))
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    assert "seed_prompts must be a list of strings" in err


def test_run_rejects_single_parent_with_offspring(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "mu": 1}))
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "mu must be >= 2" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "field, value",
    [("seed", "abc"), ("mu", "ten"), ("mu", 2.5), ("lambda", True), ("generations", 3.0),
     ("repetitions", "2")],
)
def test_run_rejects_non_integer_fields(tmp_path, capsys, field, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", field: value}))
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert f"{field} must be an integer, got {value!r}" in err
    assert not (tmp_path / "runs").exists()


def test_run_rejects_bad_lexicon_file(tmp_path, capsys):
    lexicon = tmp_path / "lex.json"
    lexicon.write_text(json.dumps({"joy": "delight"}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "lexicon_file": str(lexicon)}))
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "must be a list of strings" in err


MALFORMED_OPERATOR_FILES = {
    "not JSON": ("{crossover", "operators file is not valid JSON"),
    "not an object": ("[]", "operators file must hold a JSON object"),
    "section not an object": (
        json.dumps({"crossover": "Mix them"}), "crossover template must be a JSON object"
    ),
    "missing body_template": (
        json.dumps({"mutation": {"system_instruction": "be brief"}}),
        "mutation template needs a body_template string",
    ),
    "body_template not a string": (
        json.dumps({"generation": {"body_template": 5}}),
        "generation template needs a body_template string",
    ),
    "system_instruction not a string": (
        json.dumps({"generation": {"body_template": "{prompt}", "system_instruction": 1}}),
        "generation system_instruction must be a string",
    ),
    "bad few_shot_examples": (
        json.dumps({"generation": {"body_template": "{prompt}", "few_shot_examples": [["x"]]}}),
        "generation few_shot_examples must be a list",
    ),
    "instructions not a list": (
        json.dumps({"mutation_instructions": {"id": "a", "text": "b"}}),
        "mutation_instructions must be a list",
    ),
    "instruction not an object": (
        json.dumps({"mutation_instructions": ["Reword it"]}), "mutation_instructions must be a list"
    ),
    "instruction without text": (
        json.dumps({"mutation_instructions": [{"id": "a"}]}), "mutation_instructions must be a list"
    ),
    "instruction id not a string": (
        json.dumps({"mutation_instructions": [{"id": 1, "text": "b"}]}),
        "mutation_instructions must be a list",
    ),
}


@pytest.mark.parametrize(
    "content, message", MALFORMED_OPERATOR_FILES.values(), ids=MALFORMED_OPERATOR_FILES
)
def test_run_rejects_malformed_operators_file(tmp_path, capsys, content, message):
    operators = tmp_path / "ops.json"
    operators.write_text(content)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "operators_file": str(operators)}))
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert f"error: {message}" in err
    assert not (tmp_path / "runs").exists()


def test_run_rejects_unreadable_operators_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "operators_file": str(tmp_path / "no.json")}))
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "cannot read operators file" in err
    assert not (tmp_path / "runs").exists()


def test_load_config_reads_the_operators_file(tmp_path):
    operators = tmp_path / "ops.json"
    operators.write_text(json.dumps({"mutation_instructions": [{"id": "only", "text": "Reword"}]}))
    config = load_config(None, {"pair": "joy:fear", "operators_file": str(operators)})
    assert [i.id for i in config.operators.mutation_instructions] == ["only"]
    assert load_config(None, {"pair": "joy:fear"}).operators == OperatorSuite()


@pytest.mark.parametrize("field", ["pair", "selector", "out_dir", "operators_file", "lexicon_file",
                                   "llm.base_url", "classifier.base_url", "classifier.token"])
def test_run_rejects_non_string_fields(tmp_path, capsys, monkeypatch, field):
    monkeypatch.chdir(tmp_path)  # the default out_dir is "runs" under the working directory
    section, _, key = field.rpartition(".")
    config = {"pair": "joy:fear", **({section: {key: 5}} if section else {key: 5})}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert f"{field} must be a string, got 5" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "llm, message",
    [({"temperature": "hot"}, "temperature"), ({"temperature": -1}, "temperature"),
     ({"context_window": 0}, "context_window"), ({"max_output_tokens": 2.5}, "max_output_tokens")],
)
def test_run_rejects_bad_llm_settings(tmp_path, capsys, llm, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "llm": llm}))
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert message in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "policy, message",
    [({"max_concurrent_requests": 2.5}, "max_concurrent_requests must be an integer"),
     ({"max_retries": 1.5}, "max_retries must be an integer"),
     ({"timeout": True}, "timeout must be a finite number"),
     ({"timeout": float("inf")}, "timeout must be a finite number"),
     ({"backoff": "0.5"}, "backoff must be a finite number")],
)
def test_run_rejects_bad_policy_settings(tmp_path, capsys, policy, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "policy": policy}))
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert message in err
    assert not (tmp_path / "runs").exists()


def test_run_live_backend_without_urls(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EMO_LLM_URL", raising=False)
    monkeypatch.delenv("EMO_CLF_URL", raising=False)
    code, _, err = run_cli(
        capsys, "run", "--pair", "joy:fear", "--backend", "live", "--out", str(tmp_path)
    )
    assert code == 2
    assert "EMO_LLM_URL" in err


@pytest.mark.parametrize("url", ["localhost:11434", "ftp://x"])
@pytest.mark.parametrize(
    "source, field",
    [("llm", "llm.base_url"), ("classifier", "classifier.base_url"),
     ("EMO_LLM_URL", "llm.base_url"), ("EMO_CLF_URL", "classifier.base_url")],
)
def test_run_rejects_unreachable_base_urls(tmp_path, capsys, monkeypatch, url, source, field):
    # a URL no request could reach is a configuration error, whether it
    # comes from the config file or the environment
    monkeypatch.setenv("EMO_LLM_URL", "http://localhost:11434")
    monkeypatch.setenv("EMO_CLF_URL", "http://localhost:8000/classify")
    config = {"pair": "joy:fear", "backend": "live"}
    if source.startswith("EMO_"):
        monkeypatch.setenv(source, url)
    else:
        config[source] = {"base_url": url}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert f"{field} must be an http:// or https:// URL with a host, got {url!r}" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("source", ["config", "EMO_CLF_TOKEN"])
def test_run_rejects_a_token_that_cannot_be_a_header_value(tmp_path, capsys, monkeypatch, source):
    # nothing listens on port 1, and the run must stop before any request
    monkeypatch.setenv("EMO_LLM_URL", "http://127.0.0.1:1")
    monkeypatch.setenv("EMO_CLF_URL", "http://127.0.0.1:1/classify")
    config = {"pair": "joy:fear", "backend": "live"}
    if source == "config":
        config["classifier"] = {"token": "a\nb"}
    else:
        monkeypatch.setenv(source, "a\rb")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "classifier.token must be printable ASCII" in err
    assert not (tmp_path / "runs").exists()


# hv command


def test_hv_command_golden(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text(DIAGONAL_ROWS)
    code, out, _ = run_cli(capsys, "hv", "--points", str(path))
    assert code == 0
    assert out == "hypervolume 0.444444444444\n"


def test_hv_subset_golden(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("1.0,0.0\n0.5,0.5\n0.0,1.0\n0.4,0.4\n")
    code, out, _ = run_cli(
        capsys, "hv", "--points", str(path), "--subset", "3", "--mode", "exact"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "hypervolume 0.250000000000"
    assert lines[1] == "selected 0 1 2"
    assert lines[2] == "subset_hypervolume 0.250000000000"


@pytest.mark.parametrize("mode", ["greedy", "exact"])
def test_hv_rejects_a_subset_size_below_one(tmp_path, capsys, mode):
    path = tmp_path / "points.csv"
    path.write_text(DIAGONAL_ROWS)
    code, _, err = run_cli(
        capsys, "hv", "--points", str(path), "--subset", "-1", "--mode", mode
    )
    assert code == 2
    assert err == "error: subset size must be at least 1, got -1\n"


def test_hv_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "hv", "--points", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "error:" in err


def test_hv_rejects_bad_rows(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("0.5,0.5,0.5\n")
    code, _, err = run_cli(capsys, "hv", "--points", str(path))
    assert code == 2
    assert "expected two columns" in err
    path.write_text("0.5,1.5\n")
    code, _, err = run_cli(capsys, "hv", "--points", str(path))
    assert code == 2


# report command


@pytest.fixture()
def finished_runs(tmp_path, capsys):
    for pair, selector in (("joy:fear", "nsga2"), ("joy:fear", "sms-emoa")):
        code = main(
            [
                "--quiet", "run", "--pair", pair, "--selector", selector,
                "--out", str(tmp_path), "--reps", "2", "--gens", "2",
            ]
        )
        assert code == 0
    capsys.readouterr()
    return tmp_path


def test_report_prints_table_and_writes_csvs(finished_runs, capsys):
    code, out, err = run_cli(capsys, "report", "--run", str(finished_runs))
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].split() == ["problem", "selector", "metric", "best", "worst", "mean", "std_dev"]
    metrics = [line.split()[:3] for line in lines[1:5]]
    assert ["joy_vs_fear", "nsga2", "final"] in metrics
    assert ["joy_vs_fear", "sms_emoa", "running_max"] in metrics

    report_rows = (finished_runs / "report.csv").read_text().splitlines()
    assert report_rows[0] == "problem,selector,metric,best,worst,mean,std_dev"
    assert len(report_rows) == 1 + 4  # two selectors times two metrics

    curve_rows = (finished_runs / "curves.csv").read_text().splitlines()
    assert curve_rows[0] == "problem,selector,repetition,generation,hypervolume"
    assert len(curve_rows) == 1 + 2 * 2 * 3  # selectors x reps x (gens + 1)
    for row in curve_rows[1:]:
        hv = float(row.split(",")[-1])
        assert 0.0 <= hv <= 1.0


def test_report_on_empty_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", "--run", str(tmp_path))
    assert code == 1
    assert "no completed runs" in err


def test_report_lists_unreadable_files(finished_runs, capsys):
    target = finished_runs / "joy_vs_fear" / "nsga2" / "rep_0" / "gen_1.jsonl"
    target.write_text("garbage\n")
    code, _, err = run_cli(capsys, "report", "--run", str(finished_runs))
    assert code == 1
    assert "unreadable run data" in err
    assert str(target) in err


@pytest.mark.parametrize("name, content", [
    ("rep_0/gen_1.jsonl", json.dumps({"fitness": [0.5]}) + "\n"),
    ("rep_0/gen_1.jsonl", "[1, 2]\n"),
    ("summary.json", "[]\n"),
])
def test_report_lists_wrong_shaped_files(finished_runs, capsys, name, content):
    target = finished_runs / "joy_vs_fear" / "nsga2" / name
    target.write_text(content)
    code, _, err = run_cli(capsys, "report", "--run", str(finished_runs))
    assert code == 1
    assert "unreadable run data" in err
    assert str(target) in err


# argument handling


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "run", "--selector", "rank")[0] == 2


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


# the README stays in step with the CLI

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_config_example_loads(tmp_path):
    (example,) = re.findall(r"```json\n(.*?)```", README, re.DOTALL)
    path = tmp_path / "config.json"
    path.write_text(example)
    config = load_config(str(path), {})
    assert config.pair.slug == "love_vs_anger"
    assert config.selector == "sms_emoa"


def test_readme_command_lines_parse():
    blocks = re.findall(r"```\n(.*?)```", README, re.DOTALL)
    commands = [
        part.strip()
        for block in blocks
        for line in block.splitlines()
        for part in line.split("&&")
        if part.strip().startswith("moprompt ")
    ]
    assert any(c.startswith("moprompt report") for c in commands)
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command, comments=True)[1:])
