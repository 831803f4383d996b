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

from .backends import BackendError, BackendPolicy, GenerationRequest, truncate_to_token_budget
from .domain import EmotionLabel, EmotionScores, GeneratedText

logger = logging.getLogger(__name__)

# Linux only. A server that writes a reply's headers and body separately,
# without TCP_NODELAY, holds the body until the headers are acknowledged,
# and on a reused connection the client delays that ACK by about 40 ms.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


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
        except (OSError, http.client.HTTPException, ValueError, KeyError, TypeError) as exc:
            if not _is_transient(exc):
                raise BackendError(f"{describe} failed: {exc}") from exc
            if attempt_index == policy.max_retries:
                raise BackendError(
                    f"{describe} failed after {policy.max_retries + 1} attempts: {exc}"
                ) from exc
            logger.debug("%s failed (attempt %d): %s", describe, attempt_index + 1, exc)
            if delay > 0:
                time.sleep(delay)
            delay *= 2


def _check_base_url(url: str, field_name: str) -> None:
    """Reject a URL that no request could reach, before any request is made."""
    try:
        parts = urllib.parse.urlsplit(url)
        # reading the port raises ValueError when it is not a number in range
        valid = parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
    except (AttributeError, TypeError, ValueError):  # not a string, or a malformed port
        valid = False
    if not valid:
        raise ValueError(
            f"{field_name} must be an http:// or https:// URL with a host, got {url!r}"
        )


def _check_token(token: str | None) -> None:
    """Reject a bearer token that cannot be sent as a header value. Bearer
    tokens are printable ASCII (RFC 6750); the token itself is not echoed."""
    if token is not None and not all(" " <= ch <= "~" for ch in token):
        raise ValueError(
            "classifier.token must be printable ASCII, with no line breaks or other "
            "control characters"
        )


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
    exception. A reply other than 2xx raises HTTPError once its body is read.
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
        raise urllib.error.HTTPError(connections.url, response.status, response.reason,
                                     response.headers, None)
    return data


class OllamaClient:
    """Text generation over an Ollama-compatible /api/generate endpoint.

    Sends the system instruction and prompt per request rather than baking
    them into a server-side model definition, so one running model serves
    every operator.
    """

    def __init__(self, base_url: str, policy: BackendPolicy | None = None):
        _check_base_url(base_url, "llm.base_url")
        self.base_url = base_url.rstrip("/")
        self.policy = policy or BackendPolicy()
        self._slots = threading.BoundedSemaphore(self.policy.max_concurrent_requests)
        self._connections = _Connections(f"{self.base_url}/api/generate", self.policy.timeout)

    def complete(self, request: GenerationRequest) -> str:
        llm = request.llm
        body = json.dumps({
            "model": llm.model,
            "prompt": request.prompt_body,
            "system": request.system,
            "stream": False,
            "options": {
                "temperature": llm.temperature,
                "num_ctx": llm.context_window,
                "num_predict": llm.max_output_tokens,
            },
        }).encode()

        def attempt() -> str:
            with self._slots:
                raw = _post_json(self._connections, body, {})
            reply = json.loads(raw)
            if "response" not in reply:
                raise ValueError(f"no 'response' field in reply: {sorted(reply)}")
            text = str(reply["response"])
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                # JSON may escape a lone surrogate, which no file can hold
                raise ValueError(f"reply text is not valid Unicode: {exc}") from exc
            return text

        return _call_with_retries(self.policy, attempt, "text generation")


class HttpEmotionClassifier:
    """Emotion scoring over a hosted-inference style JSON endpoint.

    POSTs {"inputs": "<text>"} and expects a list (possibly nested one deep)
    of {"label": ..., "score": ...} objects covering all six emotions.
    Labels are matched by name, case-insensitively, in any order.
    """

    def __init__(
        self,
        base_url: str,
        token: str | None = None,
        policy: BackendPolicy | None = None,
    ):
        _check_base_url(base_url, "classifier.base_url")
        _check_token(token)
        self.base_url = base_url
        self.token = token
        self.policy = policy or BackendPolicy()
        self._slots = threading.BoundedSemaphore(self.policy.max_concurrent_requests)
        self._connections = _Connections(base_url, self.policy.timeout)

    def classify_emotions(self, text: GeneratedText) -> EmotionScores:
        body = json.dumps({"inputs": truncate_to_token_budget(text.text)}).encode()
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"

        def attempt() -> EmotionScores:
            with self._slots:
                raw = _post_json(self._connections, body, headers)
            return parse_classifier_response(json.loads(raw))

        return _call_with_retries(self.policy, attempt, "emotion classification")


def parse_classifier_response(body) -> EmotionScores:
    """Turn the service's label/score list into EmotionScores.

    Accepts either a flat list of {"label", "score"} objects or the common
    singly-nested variant. A missing emotion is a parse failure.
    """
    entries = body
    if isinstance(entries, list) and entries and isinstance(entries[0], list):
        entries = entries[0]
    if not isinstance(entries, list):
        raise ValueError(f"expected a list of label/score objects, got {type(body).__name__}")
    scores: dict[EmotionLabel, float] = {}
    for entry in entries:
        label = EmotionLabel.parse(str(entry["label"]))
        scores[label] = float(entry["score"])
    return EmotionScores(scores)
