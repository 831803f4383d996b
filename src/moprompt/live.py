"""HTTP clients for the two services: an Ollama-style /api/generate
endpoint for text generation and a hosted-inference style endpoint for
emotion classification.

Both post JSON through `_post_json` over kept-alive `http.client`
connections to their one URL, bound their requests in flight by a
per-client semaphore, and retry transient failures under the run's
BackendPolicy. A call takes an idle connection, or opens one, inside its
request slot and puts it back once it has read the whole reply, so a client
holds at most `max_concurrent_requests` connections. This module owns the
whole HTTP stack; `runner.build_backends` imports it only when a run asks
for live backends.
"""

from __future__ import annotations

import base64
import contextlib
import http.client
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

from .backends import (BACKOFF_MAX, BackendError, BackendPolicy, BackendRejected,
                       GenerationRequest, LlmSettings, truncate_to_token_budget)
from .domain import EmotionLabel, EmotionScores, GeneratedText
from .rules import check, check_base_url, check_token, items, number, text, utf8

logger = logging.getLogger(__name__)

# Linux only. A server that writes a reply's headers and body separately,
# without TCP_NODELAY, holds the body until the headers are acknowledged,
# and on a reused connection the client delays that ACK by about 40 ms.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)
# how much of an error reply's body its HTTPError message keeps
_REASON_CHARS = 200


def _is_transient(exc: Exception) -> bool:
    """Transport failures, 5xx and 429 replies may pass on a retry; other
    4xx replies and malformed bodies would fail the same way again."""
    if isinstance(exc, urllib.error.HTTPError):
        return exc.code >= 500 or exc.code == 429
    return isinstance(exc, (OSError, http.client.HTTPException))


def _call_with_retries(policy: BackendPolicy, attempt, describe: str):
    delay = policy.backoff
    for attempt_index in range(policy.max_retries + 1):
        try:
            return attempt()
        # RecursionError: a reply nested deeper than the parser can follow
        except (OSError, http.client.HTTPException, ValueError, KeyError, TypeError,
                RecursionError) as exc:
            if not _is_transient(exc):  # a refused status, or a malformed reply
                cls = BackendRejected if isinstance(exc, urllib.error.HTTPError) else BackendError
                raise cls(f"{describe} failed: {exc}") from exc
            if attempt_index == policy.max_retries:
                raise BackendError(
                    f"{describe} failed after {policy.max_retries + 1} attempts: {exc}"
                ) from exc
            logger.debug("%s failed (attempt %d): %s", describe, attempt_index + 1, exc)
            if delay > 0:
                time.sleep(delay)
            delay = min(delay * 2, BACKOFF_MAX)


class _Connections:
    """Idle kept-alive connections to the one URL a client posts to.

    The proxy is read from the environment once, since the host is fixed:
    `http_proxy` or `https_proxy` for the URL's scheme, unless `no_proxy`
    names the host. Plain HTTP then goes to the proxy with the absolute URL
    as its request target, and HTTPS through a CONNECT tunnel. Credentials
    in the proxy URL are sent as Proxy-Authorization: Basic. HTTPS uses the
    default verifying TLS context.
    """

    def __init__(self, url: str, timeout: float):
        parts = urllib.parse.urlsplit(url)
        self.url = url
        self.target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self.headers: dict[str, str] = {}
        self.idle: list[http.client.HTTPConnection] = []
        self._timeout = timeout
        self._secure = parts.scheme == "https"
        self._address = (parts.hostname, parts.port)
        self._tunnel = None
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(parts.netloc):
            proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            auth = {}
            if proxy_parts.username and proxy_parts.password:
                credentials = (f"{urllib.parse.unquote(proxy_parts.username)}:"
                               f"{urllib.parse.unquote(proxy_parts.password)}")
                auth["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(credentials.encode()).decode("ascii")
                )
            if self._secure:
                self._tunnel = (parts.hostname, parts.port, auth)
            else:
                self.target = urllib.parse.urldefrag(url).url
                self.headers = auth
            self._address = (proxy_parts.hostname, proxy_parts.port)

    def open(self) -> http.client.HTTPConnection:
        host, port = self._address
        if not self._secure:
            return http.client.HTTPConnection(host, port, timeout=self._timeout)
        connection = http.client.HTTPSConnection(host, port, timeout=self._timeout)
        if self._tunnel:
            tunnel_host, tunnel_port, auth = self._tunnel
            connection.set_tunnel(tunnel_host, tunnel_port, headers=auth)
        return connection


def _send(connection: http.client.HTTPConnection, target: str, body: bytes,
          headers: dict) -> http.client.HTTPResponse:
    """Send one POST and return its response with the headers read."""
    connection.request("POST", target, body=body, headers=headers)
    if _QUICKACK is not None:
        # the kernel leaves quick-ACK mode by itself, so set it per request
        with contextlib.suppress(OSError):
            connection.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
    return connection.getresponse()


def _post_json(connections: _Connections, body: bytes, headers: dict) -> bytes:
    """POST body, an encoded JSON document, and return the whole reply body.

    The request goes over an idle connection when there is one. If the
    server closed that connection before replying, the request is sent once
    more on a new one; a failure on a new connection, or a timeout, is left
    to the caller's retry policy. A connection goes back to the idle list
    only after its whole reply has been read, and is closed after any
    exception. A reply other than 2xx raises HTTPError once its body is read;
    its message ends with the start of that body, so the server's own reason
    reaches the log.
    """
    headers = {"Content-Type": "application/json", **connections.headers, **headers}
    try:
        connection, reused = connections.idle.pop(), True
    except IndexError:
        connection, reused = connections.open(), False
    try:
        try:
            response = _send(connection, connections.target, body, headers)
        except (BrokenPipeError, ConnectionResetError):  # RemoteDisconnected is one too
            if not reused:
                raise
            connection.close()
            connection = connections.open()
            response = _send(connection, connections.target, body, headers)
        data = response.read()
    except BaseException:
        connection.close()
        raise
    if response.will_close:
        connection.close()
    else:
        connections.idle.append(connection)
    if not 200 <= response.status < 300:
        # repr escapes control characters, so a body cannot forge log lines
        detail = data.decode("utf-8", "replace")[:_REASON_CHARS]
        reason = f"{response.reason}: {detail!r}" if detail else response.reason
        raise urllib.error.HTTPError(connections.url, response.status, reason,
                                     response.headers, None)
    return data


class _Client:
    """What both clients share: request slots, the kept-alive connections to
    their one URL, and calls retried under the policy."""

    def __init__(self, url: str, policy: BackendPolicy):
        self.policy = policy
        self._slots = threading.BoundedSemaphore(self.policy.max_concurrent_requests)
        self._connections = _Connections(url, self.policy.timeout)

    def _call(self, describe: str, body: bytes, headers: dict, parse):
        """POST body in a request slot and return parse(the decoded reply)."""

        def attempt():
            with self._slots:
                raw = _post_json(self._connections, body, headers)
            return parse(json.loads(raw))

        return _call_with_retries(self.policy, attempt, describe)

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        while self._connections.idle:
            self._connections.idle.pop().close()


class OllamaClient(_Client):
    """Text generation over an Ollama-compatible /api/generate endpoint.

    Sends the system instruction and prompt per request rather than baking
    them into a server-side model definition, so one running model serves
    every operator. Every request carries the model and decoding settings
    of llm, and seed as options.seed, so the same model on the same server
    build answers the same request with the same text.
    """

    def __init__(self, base_url: str, policy: BackendPolicy = BackendPolicy(),
                 llm: LlmSettings = LlmSettings(), seed: int = 0):
        check_base_url(base_url, "llm.base_url")
        self.base_url = base_url.rstrip("/")
        self.llm = llm
        self.seed = seed
        super().__init__(f"{self.base_url}/api/generate", policy)

    def complete(self, request: GenerationRequest) -> str:
        llm = self.llm
        body = json.dumps({
            "model": llm.model,
            "prompt": request.prompt_body,
            "system": request.system,
            "stream": False,
            "options": {
                "temperature": llm.temperature,
                "num_ctx": llm.context_window,
                "num_predict": llm.max_output_tokens,
                "seed": self.seed,
            },
        }).encode()
        return self._call("text generation", body, {}, _response_text)


def _response_text(reply) -> str:
    if "response" not in reply:
        raise ValueError(f"no 'response' field in reply: {sorted(reply)}")
    return check("reply text", reply["response"], text(empty=True, then=utf8))


class HttpEmotionClassifier(_Client):
    """Emotion scoring over a hosted-inference style JSON endpoint.

    POSTs {"inputs": "<text>"} and expects a list (possibly nested one deep)
    of {"label": ..., "score": ...} objects covering all six emotions.
    Labels are matched by name, case-insensitively, in any order.
    """

    def __init__(self, base_url: str, token: str | None = None,
                 policy: BackendPolicy = BackendPolicy()):
        check_base_url(base_url, "classifier.base_url")
        check_token(token)
        self.base_url = base_url
        self.token = token
        super().__init__(base_url, policy)

    def classify_emotions(self, text: GeneratedText) -> EmotionScores:
        body = json.dumps({"inputs": truncate_to_token_budget(text)}).encode()
        headers = {"Authorization": f"Bearer {self.token}"} if self.token else {}
        return self._call("emotion classification", body, headers, parse_classifier_response)


def parse_classifier_response(body) -> EmotionScores:
    """Turn the service's label/score list into EmotionScores.

    Accepts either a flat list of {"label", "score"} objects or the common
    singly-nested variant. A missing or repeated emotion, a label that is
    not a string and a score that is not a number are parse failures.
    """
    entries = body[0] if isinstance(body, list) and body and isinstance(body[0], list) else body
    scores: dict[EmotionLabel, float] = {}
    for entry in check("reply", entries, items(lambda item: isinstance(item, dict),
                                               "a list of label/score objects")):
        label = EmotionLabel.parse(check("reply label", entry["label"], text()))
        if label in scores:
            raise ValueError(f"reply label {label.value} is given twice")
        scores[label] = check("reply score", entry["score"], number())
    return EmotionScores(scores)
