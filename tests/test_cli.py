"""End-to-end command line behavior, exit codes, and printed contracts."""

import contextlib
import csv
import hashlib
import io
import json
import logging
import re
import shlex
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moprompt import cli
from moprompt.backends import Backends, MockEmotionClassifier, MockTextGenerator, load_lexicons
from moprompt.cli import build_parser, load_config, main
from moprompt.domain import EmotionLabel, Prompt
from moprompt.runner import RunConfig
from moprompt.variation import OperatorSuite, load_operator_suite
from test_backends import SIX_SCORES, StubServer

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
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 0, err
    payload = json.loads(
        (tmp_path / "runs" / "love_vs_anger" / "sms_emoa" / "summary.json").read_text(
            encoding="utf-8")
    )
    assert payload["selector"] == "sms_emoa"
    assert payload["hv_mode"] == "exact"
    assert payload["mu"] == 4 and payload["lambda"] == 6
    assert [r["status"] for r in payload["results"]] == ["ok", "ok"]


def test_run_flag_overrides_beat_config(tmp_path, capsys):
    config = {"pair": "love:anger", "mu": 4, "lambda": 6, "generations": 2, "repetitions": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
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
    blocker.write_text("", encoding="utf-8")
    # under a file, and a name longer than any file system allows
    for out_dir in (blocker / "x", tmp_path / ("a" * 300)):
        code, out, err = run_cli(
            capsys, "run", "--pair", "love:anger", "--out", str(out_dir), "--gens", "1",
        )
        assert code == 2
        assert err.startswith("error: cannot create output directory: ")
        assert "Traceback" not in err
        # no repetition ran, and nothing was created
        assert out == ""
    assert sorted(tmp_path.iterdir()) == [blocker]


def test_run_keeps_exit_1_when_no_repetition_can_write(tmp_path, capsys):
    run_dir = tmp_path / "love_vs_anger" / "nsga2"
    run_dir.mkdir(parents=True)
    (run_dir / "rep_0").write_text("", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "run", "--pair", "love:anger", "--out", str(tmp_path),
        "--reps", "1", "--gens", "1",
    )
    assert code == 1
    assert "rep 0 failed: " in out


def test_run_closes_its_backends(tmp_path, capsys, monkeypatch):
    closed = []

    class ClosingGenerator(MockTextGenerator):
        def close(self):
            closed.append(self)

    monkeypatch.setattr(cli, "build_backends", lambda config: Backends(
        generator=ClosingGenerator(config.seed), classifier=MockEmotionClassifier()))
    code, _, _ = run_cli(capsys, "run", "--pair", "joy:fear", "--reps", "1", "--gens", "1",
                         "--out", str(tmp_path), "--quiet")
    assert code == 0
    assert len(closed) == 1


def test_run_exits_2_when_the_summary_cannot_be_written(tmp_path, capsys):
    summary = tmp_path / "love_vs_anger" / "nsga2" / "summary.json"
    summary.mkdir(parents=True)
    code, out, err = run_cli(
        capsys, "run", "--pair", "love:anger", "--out", str(tmp_path),
        "--reps", "1", "--gens", "1", "--quiet",
    )
    assert code == 2
    assert err == f"error: cannot write {summary}: Is a directory\n"
    assert "rep 0 done final " not in out


def test_run_refuses_a_directory_that_holds_a_run(tmp_path, capsys):
    argv = ("run", "--pair", "love:anger", "--out", str(tmp_path), "--reps", "1", "--gens", "1",
            "--quiet")
    assert run_cli(capsys, *argv)[0] == 0

    def digests():
        return {path: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in tmp_path.rglob("*") if path.is_file()}

    before = digests()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    run_dir = tmp_path / "love_vs_anger" / "nsga2"
    assert err == f"error: {run_dir} already holds a run (summary.json)\n"
    assert out == ""
    assert digests() == before


def live_generate_bodies(tmp_path, capsys, **fields):
    """The /api/generate bodies of a small live run of the config with fields added."""
    def reply(path, body):
        return (200, {"response": "a story"}) if path == "/api/generate" else (200, SIX_SCORES)

    llm = {"model": "mistral", "temperature": 0.2, "context_window": 1024,
           "max_output_tokens": 64}
    config = {"pair": "love:anger", "backend": "live", "mu": 2, "lambda": 2, "generations": 1,
              "repetitions": 1, "llm": llm, "out_dir": str(tmp_path / "runs"), **fields}
    with StubServer(reply) as server:
        config["llm"]["base_url"] = server.url
        config["classifier"] = {"base_url": f"{server.url}/classify"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(path), "--quiet")
    assert code == 0, err
    bodies = [body for path, _, body in server.seen if path == "/api/generate"]
    # two founders' stories, then crossover, mutation and story for two offspring
    assert len(bodies) == 2 + 3 * 2
    return bodies


def test_live_run_sends_the_configured_llm_settings(tmp_path, capsys):
    for body in live_generate_bodies(tmp_path, capsys):
        assert body["model"] == "mistral"
        assert body["options"] == {"temperature": 0.2, "num_ctx": 1024, "num_predict": 64,
                                   "seed": 0}


def test_live_run_sends_the_config_seed_with_every_generate_request(tmp_path, capsys):
    assert [body["options"]["seed"] for body in live_generate_bodies(tmp_path, capsys, seed=7)] \
        == [7] * (2 + 3 * 2)


def test_run_fails_when_the_model_server_refuses_every_request(tmp_path, capsys):
    # Ollama answers a model it does not have with a 404; falling back on it
    # would run the whole search on fallbacks and exit 0
    refusal = {"error": "model 'lama2' not found"}

    def reply(path, body):
        return (404, refusal) if path == "/api/generate" else (200, SIX_SCORES)

    config = {"pair": "love:anger", "backend": "live", "repetitions": 2, "generations": 3,
              "llm": {"model": "lama2"}, "out_dir": str(tmp_path / "runs")}
    with StubServer(reply) as server:
        config["llm"]["base_url"] = server.url
        config["classifier"] = {"base_url": f"{server.url}/classify"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", "--config", str(path), "--quiet")
    assert code == 1
    # each failed repetition names the server's reason, as the repr of its body
    assert out.count(repr(json.dumps(refusal))) == config["repetitions"]
    generate_requests = [path for path, _, _ in server.seen if path == "/api/generate"]
    assert 0 < len(generate_requests) <= config["repetitions"] * RunConfig.mu


def test_run_requires_a_pair(capsys):
    code, _, err = run_cli(capsys, "run")
    assert code == 2
    assert "objective pair is required" in err


def test_run_rejects_unknown_config_keys(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "population_size": 10}), encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "unknown config keys: population_size" in err


def test_run_rejects_unknown_section_keys(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "llm": {"modl": "llama2"}}), encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "unknown llm keys: modl" in err


def test_run_rejects_malformed_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("section", ["llm", "classifier", "policy"])
def test_run_rejects_non_object_sections(tmp_path, capsys, section):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", section: 5}), encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert f"{section} section must be a JSON object" in err


@pytest.mark.parametrize("seed_prompts", ["abcdefghijk", ["write a story", 7]])
def test_run_rejects_seed_prompts_that_are_not_a_string_list(tmp_path, capsys, seed_prompts):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "seed_prompts": seed_prompts}),
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    assert "seed_prompts must be a list of strings" in err


def test_run_rejects_single_parent_with_offspring(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "mu": 1}), encoding="utf-8")
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
    path.write_text(json.dumps({"pair": "joy:fear", field: value}), encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert f"{field} must be an integer, got {value!r}" in err
    assert not (tmp_path / "runs").exists()


def test_run_rejects_bad_lexicon_file(tmp_path, capsys):
    lexicon = tmp_path / "lex.json"
    lexicon.write_text(json.dumps({"joy": "delight"}), encoding="utf-8")
    # the file is read when the config loads, whatever the backend; nothing
    # listens on port 1, so a live run that started would fall back and exit 1
    closed = "http://127.0.0.1:1"
    live = {"backend": "live", "llm": {"base_url": closed}, "classifier": {"base_url": closed},
            "repetitions": 1, "policy": {"max_retries": 0}}
    path = tmp_path / "config.json"
    for backend, lexicon_file in (({}, lexicon), ({}, tmp_path / "absent.json"),
                                  (live, lexicon), (live, tmp_path / "absent.json")):
        path.write_text(json.dumps({"pair": "joy:fear", "lexicon_file": str(lexicon_file),
                                    **backend}), encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--config", str(path),
                                 "--out", str(tmp_path / "runs"))
        assert code == 2, (backend, lexicon_file, out)
        assert ("must be a list of strings" if lexicon_file == lexicon
                else "error: cannot read lexicon file") in err
        assert not (tmp_path / "runs").exists()


# each case's whole error line, naming the offending <section>.<field>
MALFORMED_OPERATOR_FILES = {
    "not JSON": (
        "{crossover",
        "operators file is not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    "not an object": ("[]", "operators file must hold a JSON object"),
    "unknown section": (
        json.dumps({"selection": {}}), "unknown operators file keys: selection"
    ),
    "section not an object": (
        json.dumps({"crossover": "Mix them"}), "crossover section must be a JSON object"
    ),
    "unknown template key": (
        json.dumps({"mutation": {"body_template": "{prompt}", "notes": "x"}}),
        "unknown mutation keys: notes",
    ),
    "missing body_template": (
        json.dumps({"mutation": {"system_instruction": "be brief"}}),
        "mutation.body_template must be a string, got None",
    ),
    "body_template not a string": (
        json.dumps({"generation": {"body_template": 5}}),
        "generation.body_template must be a string, got 5",
    ),
    "wrong placeholders": (
        json.dumps({"crossover": {"body_template": "Mix {parent_a} with {prompt}"}}),
        "crossover.body_template must use the plain placeholders ['parent_a', 'parent_b'] and "
        "no others, got 'Mix {parent_a} with {prompt}'",
    ),
    "system_instruction not a string": (
        json.dumps({"generation": {"body_template": "{prompt}", "system_instruction": 1}}),
        "generation.system_instruction must be a string, got 1",
    ),
    "bad few_shot_examples": (
        json.dumps({"generation": {"body_template": "{prompt}", "few_shot_examples": [["x"]]}}),
        "generation.few_shot_examples must be a list of [user, response] string pairs",
    ),
    "instructions not a list": (
        json.dumps({"mutation_instructions": {"id": "a", "text": "b"}}),
        "mutation_instructions must be a list",
    ),
    "instruction not an object": (
        json.dumps({"mutation_instructions": ["Reword it"]}),
        "mutation_instructions[0] section must be a JSON object",
    ),
    "instruction without text": (
        json.dumps({"mutation_instructions": [{"id": "a"}]}),
        "mutation_instructions[0].text must be a string, got None",
    ),
    "instruction id not a string": (
        json.dumps({"mutation_instructions": [{"id": "a", "text": "b"}, {"id": 1, "text": "c"}]}),
        "mutation_instructions[1].id must be a string, got 1",
    ),
    "blank instruction text": (
        json.dumps({"mutation_instructions": [{"id": "a", "text": " "}]}),
        "mutation_instructions[0].text must not be blank",
    ),
    "no instructions": (
        json.dumps({"mutation_instructions": []}),
        "at least one mutation instruction is required",
    ),
}


@pytest.mark.parametrize(
    "content, message", MALFORMED_OPERATOR_FILES.values(), ids=MALFORMED_OPERATOR_FILES
)
def test_run_rejects_malformed_operators_file(tmp_path, capsys, content, message):
    operators = tmp_path / "ops.json"
    operators.write_text(content, encoding="utf-8")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "operators_file": str(operators)}),
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err == f"error: {message}\n"
    assert not (tmp_path / "runs").exists()


def test_run_rejects_unreadable_operators_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "operators_file": str(tmp_path / "no.json")}),
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "cannot read operators file" in err
    assert not (tmp_path / "runs").exists()


def test_load_config_reads_the_operators_file(tmp_path):
    operators = tmp_path / "ops.json"
    operators.write_text(json.dumps({"mutation_instructions": [{"id": "only", "text": "Reword"}]}),
                         encoding="utf-8")
    config = load_config(None, {"pair": "joy:fear", "operators_file": str(operators)})
    assert [i.id for i in config.operators.mutation_instructions] == ["only"]
    assert load_config(None, {"pair": "joy:fear"}).operators == OperatorSuite()


def test_load_config_reads_seed_prompts_from_the_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "mu": 2,
                                "seed_prompts": ["  write a story ", "tell a tale"]}),
                    encoding="utf-8")
    assert load_config(str(path), {}).seed_prompts == (Prompt("write a story"),
                                                       Prompt("tell a tale"))


@pytest.mark.parametrize("field", ["pair", "selector", "out_dir", "operators_file", "lexicon_file",
                                   "llm.base_url", "classifier.base_url", "classifier.token"])
def test_run_rejects_non_string_fields(tmp_path, capsys, monkeypatch, field):
    monkeypatch.chdir(tmp_path)  # the default out_dir is "runs" under the working directory
    section, _, key = field.rpartition(".")
    config = {"pair": "joy:fear", **({section: {key: 5}} if section else {key: 5})}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
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
    path.write_text(json.dumps({"pair": "joy:fear", "llm": llm}), encoding="utf-8")
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
    path.write_text(json.dumps({"pair": "joy:fear", "policy": policy}), encoding="utf-8")
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
    path.write_text(json.dumps(config), encoding="utf-8")
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
    path.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "classifier.token must be printable ASCII" in err
    assert not (tmp_path / "runs").exists()


# values that once loaded silently: an empty path, URL, model or token, a URL
# that is checked for every backend kind, numbers no float can hold
SILENTLY_ACCEPTED = {
    "operators_file": ({"operators_file": ""}, "operators_file must not be empty"),
    "lexicon_file": ({"lexicon_file": ""}, "lexicon_file must not be empty"),
    "out_dir": ({"out_dir": ""}, "out_dir must not be empty"),
    # mkdir once raised ValueError: embedded null byte
    "out_dir with a NUL": ({"out_dir": "a\u0000b"}, "out_dir must not hold a NUL character"),
    "llm.base_url": ({"llm": {"base_url": ""}}, "llm.base_url must not be empty"),
    "classifier.token": ({"classifier": {"token": ""}}, "classifier.token must not be empty"),
    "llm.model": ({"llm": {"model": ""}}, "llm.model must not be empty"),
    "mock backend URL": (
        {"backend": "mock", "llm": {"base_url": "ftp://nowhere"}},
        "llm.base_url must be an http:// or https:// URL with a host, got 'ftp://nowhere'",
    ),
    "huge timeout": ({"policy": {"timeout": 10**400}}, "policy.timeout must be a finite number"),
    # waits the platform cannot time: they once ended a live run with a traceback
    "timeout beyond the platform's": (
        {"policy": {"timeout": 1e300}},
        f"policy.timeout must be at most {threading.TIMEOUT_MAX!r}, got 1e+300",
    ),
    "backoff beyond the platform's": (
        {"policy": {"backoff": 1e300}},
        f"policy.backoff must be at most {threading.TIMEOUT_MAX / 2!r}, got 1e+300",
    ),
    "huge temperature": ({"llm": {"temperature": 10**400}},
                         "llm.temperature must be a finite number"),
}


@pytest.mark.parametrize(
    "fields, message", SILENTLY_ACCEPTED.values(), ids=SILENTLY_ACCEPTED
)
def test_run_rejects_values_that_once_loaded_silently(tmp_path, capsys, monkeypatch, fields,
                                                     message):
    monkeypatch.chdir(tmp_path)  # where the default or an empty out_dir would write
    monkeypatch.setenv("EMO_LLM_URL", "http://127.0.0.1:1")
    monkeypatch.setenv("EMO_CLF_TOKEN", "from-the-environment")
    (tmp_path / "config.json").write_text(json.dumps({"pair": "love:anger", **fields}),
                                          encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", "config.json")
    assert code == 2
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_run_names_a_lexicon_file_that_is_not_json(tmp_path, capsys):
    lexicon = tmp_path / "lex.json"
    lexicon.write_text("{joy: [delight]}", encoding="utf-8")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pair": "joy:fear", "lexicon_file": str(lexicon)}),
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "error: lexicon file is not valid JSON: Expecting property name" in err
    assert not (tmp_path / "runs").exists()


# a JSON value nested deeper than the parser can follow
TOO_DEEP = "[" * 100_000 + "]" * 100_000


def test_run_rejects_a_config_nested_too_deeply(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"pair": "joy:fear", "seed_prompts": ' + TOO_DEEP + "}", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err == "error: config file is not valid JSON: nested too deeply\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("kind, content", [
    ("config", {"seed_prompts": ["write a story \ud800"]}),
    ("operators", {"mutation_instructions": [{"id": "a", "text": "Reword \udfff"}]}),
    ("lexicon", {"joy": ["delight", "\ud800"]}),
])
def test_run_rejects_a_string_that_is_not_valid_unicode(tmp_path, capsys, kind, content):
    # json.loads accepts a lone surrogate escape, which no story or file can hold
    config = {"pair": "joy:fear"}
    if kind == "config":
        config.update(content)
    else:
        other = tmp_path / f"{kind}.json"
        other.write_text(json.dumps(content), encoding="utf-8")
        config[f"{kind}_file"] = str(other)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err.startswith(f"error: {kind} file holds a string that is not valid Unicode: ")
    assert not (tmp_path / "runs").exists()


# every key a config file may hold, as "section.key" inside a section
CONFIG_PATHS = (
    "pair", "mu", "lambda", "generations", "repetitions", "selector", "hv_mode", "seed",
    "seed_prompts", "backend", "out_dir", "operators_file", "lexicon_file", "llm", "classifier",
    "policy", "llm.model", "llm.base_url", "llm.temperature", "llm.context_window",
    "llm.max_output_tokens", "classifier.base_url", "classifier.token", "policy.timeout",
    "policy.max_retries", "policy.backoff", "policy.max_concurrent_requests", "unknown",
)
# mistyped and edge values: huge ints, NaN and infinities, empty strings, wrong types
EDGE_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30),
    st.integers(min_value=2**1024, max_value=10**401), st.integers(max_value=-(2**1024)),
    st.floats(), st.sampled_from(["", " ", "love:anger", "sms-emoa", "exact", "live",
                                  "http://127.0.0.1:1", "ftp://nowhere", "a\nb"]),
    st.text(max_size=8), st.lists(st.text(max_size=4), max_size=12),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@st.composite
def config_objects(draw):
    """A valid config with one to three keys set to edge values."""
    raw = {"pair": "love:anger"}
    for path in draw(st.lists(st.sampled_from(CONFIG_PATHS), min_size=1, max_size=3,
                              unique=True)):
        section, _, key = path.rpartition(".")
        target = raw.setdefault(section, {}) if section else raw
        if isinstance(target, dict):
            target[key] = draw(EDGE_VALUES)
    return raw


@settings(max_examples=300, deadline=None)
@given(config_objects())
def test_any_json_object_loads_or_is_a_config_error(raw):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        try:
            config = load_config(str(path), {})
        except ValueError:
            return
    assert isinstance(config, RunConfig)


# every key an operators file may hold, as "section.key" inside a section
OPERATOR_PATHS = (
    "crossover", "mutation", "generation", "mutation_instructions", "unknown",
    *(f"{slot}.{key}" for slot in ("crossover", "mutation", "generation")
      for key in ("body_template", "system_instruction", "few_shot_examples", "unknown")),
)
# nothing, or a field that breaks or bends rendering when it ends a slot's body
BODY_ENDINGS = st.one_of(st.just(""), st.sampled_from(
    ["{}", "{0}", " {prompt:d}", " {prompt!r}", " {prompt:{w}}", " {prompt.upper}", "{", "}",
     " {{x}}"]))
PAIRS = st.lists(st.lists(st.text(max_size=4), min_size=1, max_size=3), max_size=3)
INSTRUCTIONS = st.lists(
    st.one_of(EDGE_VALUES, st.fixed_dictionaries(
        {"id": st.sampled_from(["a", "b", "", 1]), "text": st.sampled_from(["Reword", " ", None])},
        optional={"unknown": st.just(1)},
    )),
    max_size=3,
)


# a valid value for each top-level key of an operators file
OPERATOR_SECTIONS = {
    "crossover": {"body_template": "Mix {parent_a} with {parent_b}"},
    "mutation": {"body_template": "{mutation_prompt}: {prompt}",
                 "few_shot_examples": [["a", "b"]]},
    "generation": {"body_template": "{prompt}", "system_instruction": "Be brief"},
    "mutation_instructions": [{"id": "only", "text": "Reword it"}],
}


@st.composite
def operator_files(draw):
    """Some sections of a valid operators file, each template's body with an
    ending drawn from BODY_ENDINGS, and up to three keys set to edge values."""
    raw = {key: json.loads(json.dumps(OPERATOR_SECTIONS[key]))
           for key in draw(st.lists(st.sampled_from(sorted(OPERATOR_SECTIONS)), unique=True))}
    for slot in set(raw) - {"mutation_instructions"}:
        raw[slot]["body_template"] += draw(BODY_ENDINGS)
    for path in draw(st.lists(st.sampled_from(OPERATOR_PATHS), max_size=3, unique=True)):
        section, _, key = path.rpartition(".")
        target = raw.setdefault(section, {}) if section else raw
        if isinstance(target, dict):
            values = st.text("{}:!.[]0prompt ", max_size=12) if key == "body_template" else (
                st.one_of(PAIRS, INSTRUCTIONS))
            target[key] = draw(st.one_of(values, EDGE_VALUES))
    return raw


@settings(max_examples=150, deadline=None)
@given(operator_files())
def test_any_operators_file_loads_or_exits_2(raw):
    with tempfile.TemporaryDirectory() as directory:
        operators = Path(directory) / "ops.json"
        operators.write_text(json.dumps(raw), encoding="utf-8")
        try:
            suite = load_operator_suite(operators)
        except ValueError:
            suite = None
        config = Path(directory) / "config.json"
        config.write_text(json.dumps({
            "pair": "love:anger", "mu": 2, "lambda": 2, "generations": 1, "repetitions": 1,
            "operators_file": str(operators), "out_dir": str(Path(directory) / "runs"),
        }), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--quiet", "run", "--config", str(config)])
    assert code == (2 if suite is None else 0), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if suite is not None:
        # few-shot pairs given as JSON lists load as tuples, like the defaults'
        for slot in ("crossover", "mutation", "generation"):
            examples = getattr(suite, slot).few_shot_examples
            assert type(examples) is tuple
            assert all(type(pair) is tuple and len(pair) == 2 for pair in examples)


# a label's name in any case, or one with a space before it
LABEL_NAMES = st.tuples(
    st.sampled_from([label.value for label in EmotionLabel]),
    st.sampled_from([str.lower, str.upper, str.title, lambda name: f" {name}"]),
).map(lambda t: t[1](t[0]))
OTHER_NAMES = st.one_of(st.sampled_from(["hope", "", "joyful"]), st.text(max_size=4))
WORD_LISTS = st.lists(st.text(max_size=6), max_size=4)
NOT_WORD_LISTS = st.one_of(
    st.none(), st.text(max_size=6), st.integers(), st.floats(),
    st.lists(st.one_of(st.none(), st.integers(), st.floats()), min_size=1, max_size=4),
)


@st.composite
def lexicon_files(draw):
    """An object of label names and word lists, in which one key or value in
    four is something else; or, one time in four, any JSON value."""
    if draw(st.integers(0, 3)) == 0:
        return draw(EDGE_VALUES)
    odd = lambda: draw(st.integers(0, 3)) == 0
    raw = {}
    for _ in range(draw(st.integers(0, 3))):
        key = draw(OTHER_NAMES if odd() else LABEL_NAMES)
        raw[key] = draw(NOT_WORD_LISTS if odd() else WORD_LISTS)
    return raw


@settings(max_examples=100, deadline=None)
@given(lexicon_files())
def test_any_lexicon_file_loads_or_exits_2(raw):
    with tempfile.TemporaryDirectory() as directory:
        lexicon = Path(directory) / "lexicon.json"
        lexicon.write_text(json.dumps(raw), encoding="utf-8")
        try:
            load_lexicons(lexicon)
            loads = True
        except ValueError:
            loads = False
        config = Path(directory) / "config.json"
        config.write_text(json.dumps({
            "pair": "love:anger", "mu": 2, "lambda": 2, "generations": 1, "repetitions": 1,
            "lexicon_file": str(lexicon), "out_dir": str(Path(directory) / "runs"),
        }), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--quiet", "run", "--config", str(config)])
    assert code == (0 if loads else 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# hv command


def test_hv_command_golden(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text(DIAGONAL_ROWS, encoding="utf-8")
    code, out, _ = run_cli(capsys, "hv", "--points", str(path))
    assert code == 0
    assert out == "hypervolume 0.444444444444\n"
    # blank rows between points are skipped
    path.write_text(DIAGONAL_ROWS.replace("\n", "\n\n", 3), encoding="utf-8")
    assert run_cli(capsys, "hv", "--points", str(path)) == (0, out, "")
    # the header may follow blank rows: the first non-blank row is the possible header
    path.write_text("\nf1,f2\n0.5,0.5\n", encoding="utf-8")
    assert run_cli(capsys, "hv", "--points", str(path)) == (0, "hypervolume 0.250000000000\n", "")


@pytest.mark.parametrize("flags, level", [
    ((), logging.WARNING),
    (("--verbose",), logging.DEBUG),
    (("--quiet",), logging.ERROR),
])
def test_verbosity_flags_set_the_log_level_before_or_after_the_command(tmp_path, monkeypatch,
                                                                       capsys, flags, level):
    path = tmp_path / "points.csv"
    path.write_text(DIAGONAL_ROWS, encoding="utf-8")
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: levels.append(kwargs["level"]))
    assert run_cli(capsys, *flags, "hv", "--points", str(path))[0] == 0
    assert run_cli(capsys, "hv", "--points", str(path), *flags)[0] == 0
    assert levels == [level, level]


def test_hv_ignores_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_bytes("0.5,0.5\n0.2,0.9\n".encode("utf-8-sig"))
    code, out, _ = run_cli(capsys, "hv", "--points", str(path))
    assert code == 0
    assert out == "hypervolume 0.330000000000\n"


def test_hv_subset_golden(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("1.0,0.0\n0.5,0.5\n0.0,1.0\n0.4,0.4\n", encoding="utf-8")
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
    # and one above the number of points; neither prints a result first
    path = tmp_path / "points.csv"
    path.write_text(DIAGONAL_ROWS, encoding="utf-8")
    for subset, message in (("-1", "subset size must be at least 1, got -1"),
                            ("0", "subset size must be at least 1, got 0"),
                            ("11", "cannot select 11 of 10 points")):
        code, out, err = run_cli(
            capsys, "hv", "--points", str(path), "--subset", subset, "--mode", mode
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_hv_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "hv", "--points", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "error:" in err


def test_hv_rejects_bad_rows(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("0.5,0.5,0.5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "hv", "--points", str(path))
    assert code == 2
    assert "expected two columns" in err
    path.write_text("0.5,1.5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "hv", "--points", str(path))
    assert code == 2
    path.write_text("f1,f2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "hv", "--points", str(path))
    assert code == 2
    assert err == "error: no points in file\n"
    path.write_text("0.5,0.5\n0.2,x\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "hv", "--points", str(path))
    assert code == 2
    assert err == "error: row 2: non-numeric value\n"
    # only the first non-blank row may be a header, and rows keep their physical numbers
    path.write_text("f1,f2\n\nx,0.5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "hv", "--points", str(path))
    assert code == 2
    assert err == "error: row 3: non-numeric value\n"
    # rows the csv module refuses once ended the command with a traceback
    limit = csv.field_size_limit()
    path.write_text("0.5,0.5\n0.2," + "1" * (limit + 1) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "hv", "--points", str(path))
    assert code == 2
    assert err == f"error: row 2: field larger than field limit ({limit})\n"
    path.write_text("0.5,0.5\n0.2,0.\x003\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "hv", "--points", str(path))
    assert code == 2
    assert err == "error: row 2: non-numeric value\n"


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

    report_rows = (finished_runs / "report.csv").read_text(encoding="utf-8").splitlines()
    assert report_rows[0] == "problem,selector,metric,best,worst,mean,std_dev"
    assert len(report_rows) == 1 + 4  # two selectors times two metrics

    curve_rows = (finished_runs / "curves.csv").read_text(encoding="utf-8").splitlines()
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
    target.write_text("garbage\n", encoding="utf-8")
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
    target.write_text(content, encoding="utf-8")
    code, _, err = run_cli(capsys, "report", "--run", str(finished_runs))
    assert code == 1
    assert "unreadable run data" in err
    assert str(target) in err


@pytest.mark.parametrize("name", ["summary.json", "rep_0/gen_1.jsonl"])
def test_report_lists_a_file_nested_too_deeply(finished_runs, capsys, name):
    target = finished_runs / "joy_vs_fear" / "nsga2" / name
    target.write_text(TOO_DEEP + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "report", "--run", str(finished_runs))
    assert code == 1
    assert "unreadable run data" in err
    assert str(target) in err
    assert "Traceback" not in err


def test_report_lists_a_summary_with_a_wrong_typed_field(finished_runs, capsys):
    target = finished_runs / "joy_vs_fear" / "nsga2" / "summary.json"
    summary = json.loads(target.read_text(encoding="utf-8"))
    target.write_text(json.dumps({**summary, "selector": None}), encoding="utf-8")
    code, _, err = run_cli(capsys, "report", "--run", str(finished_runs))
    assert code == 1
    assert "unreadable run data" in err
    assert str(target) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["pair", "selector"])
def test_report_lists_a_summary_string_that_is_not_valid_unicode(finished_runs, capsys, key):
    # JSON may escape a lone surrogate, which no printed table or CSV can hold
    target = finished_runs / "joy_vs_fear" / "nsga2" / "summary.json"
    summary = json.loads(target.read_text(encoding="utf-8"))
    target.write_text(json.dumps({**summary, key: "\ud800"}), encoding="utf-8")
    code, out, err = run_cli(capsys, "report", "--run", str(finished_runs))
    assert code == 1
    assert "unreadable run data" in err
    assert str(target) in err
    assert "Traceback" not in out + err


def test_report_exits_2_when_a_csv_cannot_be_written(finished_runs, capsys):
    (finished_runs / "report.csv").mkdir()
    code, _, err = run_cli(capsys, "report", "--run", str(finished_runs))
    assert code == 2
    assert err.startswith(f"error: cannot write {finished_runs / 'report.csv'}: ")
    assert not (finished_runs / "curves.csv").exists()


def test_report_lists_a_summary_that_is_not_utf8(finished_runs, capsys):
    target = finished_runs / "joy_vs_fear" / "nsga2" / "summary.json"
    target.write_bytes(b'{"results": "\xff"}\n')
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
    example, operators_example = re.findall(r"```json\n(.*?)```", README, re.DOTALL)
    path = tmp_path / "config.json"
    path.write_text(example, encoding="utf-8")
    config = load_config(str(path), {})
    assert config.pair.slug == "love_vs_anger"
    assert config.selector == "sms_emoa"
    operators = tmp_path / "ops.json"
    operators.write_text(operators_example, encoding="utf-8")
    suite = load_operator_suite(operators)
    assert suite.mutation.few_shot_examples == (
        ("Change the following prompt: write a story", "Craft a story"),)
    assert [instruction.id for instruction in suite.mutation_instructions] == ["rewrite"]


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
