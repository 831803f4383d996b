"""HTTP clients for the two services: an Ollama-style /api/generate
endpoint for text generation and a hosted-inference style endpoint for
emotion classification.

Both post JSON through one stdlib urllib opener per client, bound their
requests in flight by a per-client semaphore, and retry transient failures
under the run's BackendPolicy. This module owns the whole HTTP stack;
`runner.build_backends` imports it only when a run asks for live backends.
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

from .backends import BackendError, BackendPolicy, GenerationRequest, truncate_to_token_budget
from .domain import EmotionLabel, EmotionScores, GeneratedText

logger = logging.getLogger(__name__)


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


def _post_json(opener: urllib.request.OpenerDirector, url: str, payload, headers: dict,
               timeout: float) -> bytes:
    """POST payload as JSON and return the whole reply body. A reply other
    than 2xx raises HTTPError, whose body is closed first; each request opens
    and closes its own connection."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **headers}, method="POST",
    )
    try:
        with opener.open(request, timeout=timeout) as response:
            return response.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        raise


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
        self._opener = urllib.request.build_opener()

    def complete(self, request: GenerationRequest) -> str:
        llm = request.llm
        payload = {
            "model": llm.model,
            "prompt": request.prompt_body,
            "system": request.system,
            "stream": False,
            "options": {
                "temperature": llm.temperature,
                "num_ctx": llm.context_window,
                "num_predict": llm.max_output_tokens,
            },
        }
        url = f"{self.base_url}/api/generate"

        def attempt() -> str:
            with self._slots:
                raw = _post_json(self._opener, url, payload, {}, self.policy.timeout)
            body = json.loads(raw)
            if "response" not in body:
                raise ValueError(f"no 'response' field in reply: {sorted(body)}")
            text = str(body["response"])
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
        self.base_url = base_url
        self.token = token
        self.policy = policy or BackendPolicy()
        self._slots = threading.BoundedSemaphore(self.policy.max_concurrent_requests)
        self._opener = urllib.request.build_opener()

    def classify_emotions(self, text: GeneratedText) -> EmotionScores:
        payload = {"inputs": truncate_to_token_budget(text.text)}
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"

        def attempt() -> EmotionScores:
            with self._slots:
                raw = _post_json(self._opener, self.base_url, payload, headers,
                                 self.policy.timeout)
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
