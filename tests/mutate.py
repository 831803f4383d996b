"""Mutation testing of one module by its `if` statements.

    python tests/mutate.py src/moprompt/<module>.py [test files]

Each mutant replaces one `if` statement (an `elif` too) by its `else`
branch, or by `pass` when it has none. The files the checkout would commit
are copied once to a temporary directory, and only that copy is mutated.
One pytest process at a time runs the given test files (all of tier-1 when
none are given) against each mutant, and then full tier-1 against each
mutant those files did not kill. It prints the line of each mutant that
only full tier-1 killed, and of each survivor: a mutant that passes both. A
run that outlasts three times the unmutated run, plus a minute, counts as
killed. The exit status is 1 if any mutant survived.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tier-1 as CI runs it; -x ends a run at the first failure, which kills the mutant
PYTEST = [sys.executable, "-X", "dev", "-X", "warn_default_encoding", "-m", "pytest",
          "-q", "-x", "-p", "no:cacheprovider"]


def mutants(source: str):
    """Yield (line, mutated source) for each `if` statement in source."""
    lines = source.splitlines(keepends=True)
    tree = ast.parse(source)

    def is_elif(node: ast.If) -> bool:
        return lines[node.lineno - 1].startswith("elif", node.col_offset)

    heads = sorted((node for node in ast.walk(tree) if isinstance(node, ast.If)
                    and not is_elif(node)), key=lambda node: node.lineno)
    for head in heads:
        parent, node = None, head
        while True:
            if parent is None:
                replacement = head.orelse or [ast.Pass()]
            else:
                # an elif is the only statement of its parent's else branch
                parent.orelse = node.orelse
                replacement = [head]
            text = ast.unparse(ast.Module(body=replacement, type_ignores=[]))
            if parent is not None:
                parent.orelse = [node]
            indent = " " * head.col_offset
            spliced = "".join(f"{indent}{row}\n" if row else "\n" for row in text.splitlines())
            yield node.lineno, "".join(lines[:head.lineno - 1]) + spliced + "".join(
                lines[head.end_lineno:])
            if not (len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If)
                    and is_elif(node.orelse[0])):
                break
            parent, node = node, node.orelse[0]


def copy_checkout(destination: Path) -> None:
    """Copy the files git would commit, tracked or not, as they are on disk."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True).stdout
    for name in filter(None, listed.decode("utf-8").split("\0")):
        source = ROOT / name
        if source.is_file():
            (destination / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, destination / name)


def passes(workdir: Path, tests: list[str], timeout: float | None) -> bool:
    """Whether pytest passes tests in workdir, with nothing compiled ahead, so
    a mutant of the same size and second as the last one is never read stale."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(PYTEST + tests, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as process:
        try:
            return process.wait(timeout=timeout) == 0
        except subprocess.TimeoutExpired:
            # a hang is a detected fault; end the servers the tests started too
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            return False


def timed_baseline(workdir: Path, tests: list[str]) -> float:
    """The timeout for one mutant's run of tests, from the unmutated run."""
    start = time.monotonic()
    if not passes(workdir, tests, None):
        sys.exit(f"the unmutated copy fails {' '.join(tests) or 'tier-1'}; nothing to measure")
    return 3 * (time.monotonic() - start) + 60


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, e.g. src/moprompt/live.py")
    parser.add_argument("tests", nargs="*", help="test files run first (default: all)")
    args = parser.parse_args()
    module = Path(args.module).resolve().relative_to(ROOT)
    source = (ROOT / module).read_text(encoding="utf-8")
    found = list(mutants(source))
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        workdir = Path(scratch)
        copy_checkout(workdir)
        target = workdir / module

        def survivors(candidates, tests):
            timeout = timed_baseline(workdir, tests)
            alive = []
            for line, mutated in candidates:
                target.write_text(mutated, encoding="utf-8")
                if passes(workdir, tests, timeout):
                    alive.append((line, mutated))
                target.write_text(source, encoding="utf-8")
            return alive

        alive = survivors(found, args.tests)
        print(f"{module}: {len(found)} mutants, {len(found) - len(alive)} killed by "
              f"{' '.join(args.tests) or 'tier-1'}", flush=True)
        if alive and args.tests:
            after = survivors(alive, [])
            for line, mutated in alive:
                if (line, mutated) not in after:
                    print(f"{module}:{line}: killed only by tier-1", flush=True)
            alive = after
    for line, _ in alive:
        print(f"{module}:{line}: survived")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
