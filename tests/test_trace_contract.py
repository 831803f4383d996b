"""The names the benchmark uses stay where it looks for them.

perfbench/tracer.py swaps module attributes of the package for timing
wrappers, and perfbench/stub_server.py serves the package's mocks over HTTP
to the live clients; a rename or a signature change there would only show
up as a broken benchmark run, so these tests pin the contract here.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from moprompt.backends import (
    Backends,
    GenerationRequest,
    MockEmotionClassifier,
    MockTextGenerator,
)
from moprompt.domain import GeneratedText, ObjectivePair
from moprompt.live import HttpEmotionClassifier, OllamaClient
from moprompt.report import load_run
from moprompt.runner import BackendConfig, RunConfig, build_backends, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer_module):
    for module_name, attr, _ in tracer_module.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def traced_run(tmp_path, tracer_module, **fields):
    """The tracer's spans of a 2-rep, 3-generation run with mu 4, lambda 6."""
    config = RunConfig(
        pair=ObjectivePair.parse("love:anger"), mu=4, lam=6, generations=3, repetitions=2,
        out_dir=str(tmp_path), **fields,
    )
    # the mock pair stands in for the live clients, so both kinds run offline
    tracer = tracer_module.Tracer()
    backends = tracer.wrap_backends(build_backends(RunConfig(pair=config.pair)))
    with tracer.installed():
        assert run_experiment(config, backends).successes == 2
    return tracer.spans


@pytest.mark.parametrize("kind", ["mock", "live"])
def test_traced_run_attributes_spans_to_generations(tmp_path, tracer_module, kind):
    spans = {
        (name, rep, gen) for _, name, _, _, _, rep, gen, _
        in traced_run(tmp_path, tracer_module, backend=BackendConfig(kind=kind))
    }
    assert {(rep, gen) for name, rep, gen in spans if name == "runner.produce_offspring"} == {
        (rep, gen) for rep in range(2) for gen in range(1, 4)
    }
    assert {(rep, gen) for name, rep, gen in spans if name == "runner.initialize"} == {
        (0, 0), (1, 0)
    }


def test_traced_selection_values_are_the_sizes_the_benchmark_reads(tmp_path, tracer_module):
    # perfbench/layers.py reads the front 0 size off nondominated_sort and
    # the candidate count off each selector span
    spans = traced_run(tmp_path, tracer_module, selector="sms_emoa", hv_mode="exact")
    values = {}
    for _, name, _, _, _, _, gen, value in spans:
        values.setdefault(name, []).append((gen, value))
    assert values["moea.nondominated_sort"]
    for _, front0 in values["moea.nondominated_sort"]:
        assert type(front0) is int and 1 <= front0 <= 4 + 6
    assert len(values["moea.sms_emoa_select"]) == 2 * 3
    for gen, candidates in values["moea.sms_emoa_select"]:
        assert gen >= 1 and candidates == 4 + 6


def test_traced_report_counts_the_generation_files_it_reads(tmp_path, tracer_module):
    # perfbench/tracer.py counts report.files_read and report.bytes_read by
    # swapping moprompt.report.open; summary.json is read through
    # moprompt.rules, so only the gen_*.jsonl files count
    config = RunConfig(pair=ObjectivePair.parse("love:anger"), mu=4, lam=6, generations=3,
                       repetitions=2, out_dir=str(tmp_path))
    run_dir = Path(run_experiment(config, build_backends(config)).out_dir)
    tracer = tracer_module.Tracer()
    with tracer.installed():
        load_run(run_dir)
    generation_files = list(run_dir.glob("rep_*/gen_*.jsonl"))
    assert len(generation_files) == 8
    assert tracer.counts["report.files_read"] == 8
    assert tracer.counts["report.bytes_read"] == sum(
        path.stat().st_size for path in generation_files)


def test_the_benchmark_stub_answers_like_the_in_process_mocks():
    # the stub prints its port, serves until its stdin closes, then prints its counters
    command = [sys.executable, str(PERFBENCH / "stub_server.py"), "--seed", "3"]
    with subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True, encoding="utf-8") as stub:
        url = f"http://127.0.0.1:{json.loads(stub.stdout.readline())['port']}"
        request = GenerationRequest("write a 3 sentence story", system="Tell the story.")
        with Backends(generator=OllamaClient(url, seed=3),
                      classifier=HttpEmotionClassifier(f"{url}/classify")) as backends:
            text = GeneratedText(backends.generator.complete(request))
            scores = backends.classifier.classify_emotions(text)
        assert text and text == MockTextGenerator(seed=3).complete(request)
        assert scores == MockEmotionClassifier().classify_emotions(text)
        counters, _ = stub.communicate(timeout=10)  # closes its stdin and waits
    assert stub.returncode == 0
    assert json.loads(counters)["requests"] == {"generate": 1, "classify": 1}
