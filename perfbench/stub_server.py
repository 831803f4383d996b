"""Localhost stand-in for the live generation and classification services.

Serves the Ollama-style POST /api/generate and the hosted-inference style
POST /classify by wrapping the package's seeded mocks, so with the run's
seed its replies equal the in-process mocks' and a live run writes the same
tree as a mock run. Every request sleeps a fixed latency first, and every
Nth request per endpoint is answered 503 instead.

The server speaks HTTP/1.1 keep-alive with a raised listen backlog (the
default of 5 caused second-long connect stalls). It prints {"port": ...}
once it listens, serves until its standard input closes, then prints its
counters as one JSON line and exits:

    python3 perfbench/stub_server.py --seed 0

The latency and the fault period are the live workload's, from
perfbench/workloads.py.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from moprompt.backends import GenerationRequest, MockEmotionClassifier, MockTextGenerator  # noqa: E402
from moprompt.domain import GeneratedText  # noqa: E402
from workloads import LIVE_FAULT_EVERY, LIVE_LATENCY_MS  # noqa: E402

ENDPOINTS = {"/api/generate": "generate", "/classify": "classify"}


class Counters:
    """Request, connection and fault counts plus the time-weighted number of
    requests in flight."""

    def __init__(self):
        self.requests = {name: 0 for name in ENDPOINTS.values()}
        self.connections = 0
        self.faults = 0
        self.inflight = 0
        self.inflight_max = 0
        self.request_seconds = 0.0
        self._first: float | None = None
        self._changed = 0.0
        self._lock = threading.Lock()

    def _advance(self, now: float) -> None:
        self.request_seconds += self.inflight * (now - self._changed)
        self._changed = now

    def connected(self) -> None:
        with self._lock:
            self.connections += 1

    def begin(self, endpoint: str) -> bool:
        """Count a request arriving; True when it is to be answered 503."""
        now = time.perf_counter()
        with self._lock:
            if self._first is None:
                self._first = self._changed = now
            self._advance(now)
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
            self.requests[endpoint] += 1
            fault = self.requests[endpoint] % LIVE_FAULT_EVERY == 0
            self.faults += fault
            return fault

    def end(self) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            self.inflight -= 1

    def report(self) -> dict:
        with self._lock:
            window = self._changed - self._first if self._first is not None else 0.0
            return {
                "requests": dict(self.requests),
                "connections": self.connections,
                "faults": self.faults,
                "request_seconds": self.request_seconds,
                "inflight_mean": self.request_seconds / window if window > 0 else 0.0,
                "inflight_max": self.inflight_max,
            }


def make_server(seed: int, counters: Counters) -> ThreadingHTTPServer:
    generator = MockTextGenerator(seed=seed)
    classifier = MockEmotionClassifier()

    def answer(endpoint: str, body: dict):
        if endpoint == "generate":
            request = GenerationRequest(prompt_body=body["prompt"], system=body.get("system", ""))
            return {"response": generator.complete(request)}
        scores = classifier.classify_emotions(GeneratedText(body["inputs"]))
        return [{"label": label, "score": score} for label, score in scores.as_dict().items()]

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = 30

        def setup(self):
            super().setup()
            counters.connected()

        def do_POST(self):
            endpoint = ENDPOINTS.get(self.path)
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if endpoint is None:
                self._reply(404, {"error": f"no endpoint {self.path}"})
                return
            fault = counters.begin(endpoint)
            try:
                time.sleep(LIVE_LATENCY_MS / 1000.0)
                if fault:
                    self._reply(503, {"error": "injected fault"})
                else:
                    self._reply(200, answer(endpoint, json.loads(body)))
            finally:
                counters.end()

        def _reply(self, status: int, payload) -> None:
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    class Server(ThreadingHTTPServer):
        daemon_threads = True
        request_queue_size = 128

    return Server(("127.0.0.1", 0), Handler)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    counters = Counters()
    server = make_server(args.seed, counters)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    serving.join(timeout=10)
    print(json.dumps(counters.report()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
