"""HTTP clients for the two services: an Ollama-style /api/generate
endpoint for text generation and a hosted-inference style endpoint for
emotion classification.

Both are a `_Client`, the one class that holds what posting JSON to one URL
takes: the route there, direct or through a proxy, the request headers, the
idle kept-alive `http.client` connections, a semaphore of request slots, and
the retry loop under the run's BackendPolicy. A call takes an idle
connection, or opens one, inside its request slot and puts it back once
`_post_json` has read the whole reply, so a client holds at most
`max_concurrent_requests` connections. This module owns the whole HTTP
stack; `runner.build_backends` imports it only when a run asks for live
backends.
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
import urllib.parse
import urllib.request

from .backends import (BACKOFF_MAX, BackendError, BackendPolicy, BackendRejected,
                       GenerationRequest, LlmSettings, truncate_to_token_budget)
from .domain import EmotionLabel, EmotionScores, GeneratedText
from .rules import check, check_base_url, check_token, items, number, parse_json, text

logger = logging.getLogger(__name__)

# Linux only. A server that writes a reply's headers and body separately,
# without TCP_NODELAY, holds the body until the headers are acknowledged,
# and on a reused connection the client delays that ACK by about 40 ms.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)
# how much of an error reply's body its error message keeps
_REASON_CHARS = 200


def _send(connection: http.client.HTTPConnection, target: str, body: bytes,
          headers: dict) -> http.client.HTTPResponse:
    """Send one POST and return its response with the headers read."""
    connection.request("POST", target, body=body, headers=headers)
    if _QUICKACK is not None:
        # the kernel leaves quick-ACK mode by itself, so set it per request
        with contextlib.suppress(OSError):
            connection.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
    return connection.getresponse()


def _post_json(client: _Client, body: bytes) -> bytes:
    """POST body, an encoded JSON document, and return the whole reply body.

    The request goes over an idle connection when there is one. If the
    server closed that connection before replying, the request is sent once
    more on a new one; a failure on a new connection, or a timeout, is left
    to the caller's retry policy. A connection goes back to the idle list
    only after its whole reply has been read, and is closed after any
    exception. A reply other than 2xx raises once its body is read: a 5xx or
    429 raises HTTPException, which the retry policy retries, and any other
    status BackendRejected. The message ends with the start of that body, so
    the server's own reason reaches the log.
    """
    try:
        connection, reused = client._idle.pop(), True
    except IndexError:
        connection, reused = client._open(), False
    try:
        try:
            response = _send(connection, client._target, body, client._headers)
        except (BrokenPipeError, ConnectionResetError):  # RemoteDisconnected is one too
            if not reused:
                raise
            connection.close()
            connection = client._open()
            response = _send(connection, client._target, body, client._headers)
        data = response.read()
    except BaseException:
        connection.close()
        raise
    if response.will_close:
        connection.close()
    else:
        client._idle.append(connection)
    if not 200 <= response.status < 300:
        # repr escapes control characters, so a body cannot forge log lines
        detail = data.decode("utf-8", "replace")[:_REASON_CHARS]
        reason = f"{response.reason}: {detail!r}" if detail else response.reason
        message = f"HTTP Error {response.status}: {reason}"
        if response.status >= 500 or response.status == 429:
            raise http.client.HTTPException(message)
        raise BackendRejected(message)
    return data


class _Client:
    """What both clients share: the route and headers of their one URL, its
    idle kept-alive connections, request slots, and calls retried under the
    policy.

    The proxy is read from the environment once, since the host is fixed:
    `http_proxy` or `https_proxy` for the URL's scheme, unless `no_proxy`
    names the host. Plain HTTP then goes to the proxy with the absolute URL
    as its request target, and HTTPS through a CONNECT tunnel. Credentials
    in the proxy URL are sent as Proxy-Authorization: Basic. HTTPS uses the
    default verifying TLS context.
    """

    def __init__(self, url: str, policy: BackendPolicy, headers: dict[str, str]):
        self.policy = policy
        self._slots = threading.BoundedSemaphore(policy.max_concurrent_requests)
        self._idle: list[http.client.HTTPConnection] = []
        self._headers = {"Content-Type": "application/json"}
        parts = urllib.parse.urlsplit(url)
        self._target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
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
                self._target = urllib.parse.urldefrag(url).url
                self._headers.update(auth)
            self._address = (proxy_parts.hostname, proxy_parts.port)
        self._headers.update(headers)

    def _open(self) -> http.client.HTTPConnection:
        host, port = self._address
        if not self._secure:
            return http.client.HTTPConnection(host, port, timeout=self.policy.timeout)
        connection = http.client.HTTPSConnection(host, port, timeout=self.policy.timeout)
        if self._tunnel:
            tunnel_host, tunnel_port, auth = self._tunnel
            connection.set_tunnel(tunnel_host, tunnel_port, headers=auth)
        return connection

    def _call(self, describe: str, body: bytes, parse):
        """POST body in a request slot and return parse(the reply's JSON value).
        Only what may pass on a retry is retried: transport failures, 5xx, 429."""
        delay = self.policy.backoff
        for attempt in range(self.policy.max_retries + 1):
            try:
                with self._slots:
                    raw = _post_json(self, body)
                return parse(parse_json(raw, "reply"))
            except BackendRejected as exc:
                raise BackendRejected(f"{describe} failed: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                if attempt == self.policy.max_retries:
                    raise BackendError(
                        f"{describe} failed after {attempt + 1} attempts: {exc}") from exc
                logger.debug("%s failed (attempt %d): %s", describe, attempt + 1, exc)
                if delay > 0:
                    time.sleep(delay)
                delay = min(delay * 2, BACKOFF_MAX)
            except (ValueError, KeyError, TypeError) as exc:  # a malformed reply
                raise BackendError(f"{describe} failed: {exc}") from exc

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        while self._idle:
            self._idle.pop().close()


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
        self.llm = llm
        self.seed = seed
        super().__init__(f"{base_url.rstrip('/')}/api/generate", policy, {})

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
        return self._call("text generation", body, _response_text)


def _response_text(reply) -> str:
    if "response" not in reply:
        raise ValueError(f"no 'response' field in reply: {sorted(reply)}")
    return check("reply text", reply["response"], text(empty=True))


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
        super().__init__(base_url, policy, {"Authorization": f"Bearer {token}"} if token else {})

    def classify_emotions(self, text: GeneratedText) -> EmotionScores:
        body = json.dumps({"inputs": truncate_to_token_budget(text)}).encode()
        return self._call("emotion classification", body, parse_classifier_response)


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
