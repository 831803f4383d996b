"""The package needs nothing beyond the Python standard library, and a mock
run loads none of the HTTP stack."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moprompt"
# modules only the live clients need; OpenSSL alone costs megabytes of RSS
HTTP_STACK = ("http.client", "urllib.request", "email.parser", "ssl")


def imported_roots(path: Path):
    """The top-level name of every absolute import in the module at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    allowed = sys.stdlib_module_names | {"moprompt"}
    for path in modules:
        outside = sorted(set(imported_roots(path)) - allowed)
        assert not outside, f"{path.name} imports {outside}"


def test_every_module_parses_as_python_3_10():
    # pyproject.toml claims requires-python >= 3.11, and the code keeps to the
    # stricter 3.10 syntax; syntax newer than that, such as except* or a type
    # alias, fails here on any later interpreter
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    modules = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def run_python(*args: str, check: bool = False) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the package from the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=check)


def loaded_http_modules(script: str, *args: str) -> list[str]:
    """Run script in a fresh interpreter and return which HTTP_STACK modules
    it left loaded."""
    script += (
        "\nimport json, sys"
        f"\nprint(json.dumps([m for m in {HTTP_STACK!r} if m in sys.modules]))"
    )
    result = run_python("-c", script, *args, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def test_python_m_moprompt_runs_the_command_line(tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("f1,f2\n0.5,0.5\n")
    for module in ("moprompt", "moprompt.cli"):
        result = run_python("-m", module, "hv", "--points", str(points))
        assert (result.returncode, result.stdout, result.stderr) == (
            0, "hypervolume 0.250000000000\n", "")
        result = run_python("-m", module)
        assert result.returncode == 2
        assert result.stderr.startswith("usage: moprompt")


def test_mock_run_and_report_load_no_http_stack(tmp_path):
    script = """
import sys
from pathlib import Path
import moprompt, moprompt.cli, moprompt.report
from moprompt import ObjectivePair, RunConfig, build_backends, run_experiment
config = RunConfig(pair=ObjectivePair.parse("love:anger"), mu=2, lam=2, generations=2,
                   repetitions=1, out_dir=sys.argv[1])
summary = run_experiment(config, build_backends(config))
assert summary.successes == 1
moprompt.report.load_run(Path(summary.out_dir))
"""
    assert loaded_http_modules(script, str(tmp_path)) == []


def test_loading_a_live_config_loads_no_http_stack(tmp_path):
    # the URLs and the token are checked when the config loads, without the clients
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "pair": "love:anger", "backend": "live",
        "llm": {"base_url": "http://127.0.0.1:1"},
        "classifier": {"base_url": "https://127.0.0.1:1/classify", "token": "tok"},
    }))
    script = """
import sys
from moprompt.cli import load_config
assert load_config(sys.argv[1], {}).backend.kind == "live"
"""
    assert loaded_http_modules(script, str(config)) == []


def test_live_backends_load_the_http_stack():
    # building the clients sends no request, so nothing need listen on the port
    script = """
from moprompt import ObjectivePair, RunConfig, build_backends
from moprompt.runner import BackendConfig
url = "http://127.0.0.1:1"
config = RunConfig(pair=ObjectivePair.parse("love:anger"), backend=BackendConfig(
    kind="live", llm_base_url=url, classifier_base_url=url))
build_backends(config)
"""
    assert "http.client" in loaded_http_modules(script)
