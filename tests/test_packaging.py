"""The package needs nothing beyond the Python standard library, and a mock
run loads none of the HTTP stack."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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


def loaded_http_modules(script: str, *args: str) -> list[str]:
    """Run script in a fresh interpreter and return which HTTP_STACK modules
    it left loaded."""
    script += (
        "\nimport json, sys"
        f"\nprint(json.dumps([m for m in {HTTP_STACK!r} if m in sys.modules]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, *args], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    return json.loads(result.stdout.splitlines()[-1])


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
