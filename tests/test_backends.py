"""Backend clients: token budgeting, mock determinism, wire protocol."""

import collections
import contextlib
import http.server
import json
import math
import random
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moprompt.backends as backends
import moprompt.live as live
from moprompt.backends import (
    BackendError,
    BackendPolicy,
    BackendRejected,
    CLASSIFIER_TOKEN_BUDGET,
    DEFAULT_LEXICONS,
    GenerationRequest,
    LlmSettings,
    MockEmotionClassifier,
    MockTextGenerator,
    load_lexicons,
    truncate_to_token_budget,
)
from moprompt.live import HttpEmotionClassifier, OllamaClient, parse_classifier_response
from moprompt.domain import EmotionLabel, GeneratedText, Prompt
from moprompt.variation import OperatorSuite, mutate, render_prompt_body
from oracles import (
    MockTextGeneratorOracle,
    classify_oracle,
    estimate_tokens,
    truncate_to_token_budget_oracle,
)


class StubServer:
    """Scripted local HTTP server for exercising the live clients.

    script is a list of (status, payload) pairs consumed per request; the
    final entry repeats. Or it is a function (path, request_body) -> (status,
    payload). A bytes payload is sent as it is, any other is sent as JSON.
    A reply may carry a third item, seconds to wait before sending it, and a
    status of None closes the connection with a TCP reset instead of a reply.
    Records every request and tracks the peak number served concurrently,
    overall and per path, plus every set of paths served at the same moment
    (counted strictly between request read and response write, so it never
    overshoots the client's own window), and counts connections.

    It speaks HTTP/1.0, closing each connection after one reply, unless
    http11 is set: then connections are kept alive, and a connection idle
    for idle_timeout seconds is closed. Either way it writes each reply's
    headers and body separately with Nagle's algorithm on. A CONNECT request
    is recorded and answered like a POST, so a stub can stand in for a proxy.

    An exception in a handler, such as writing a late reply to a client that
    gave up, is kept in errors rather than printed. On exit the stub cuts
    pending delays short, ends the reads of open connections and joins every
    handler thread, so no handler outlives it to write into a later test.
    """

    def __init__(self, script, delay=0.0, http11=False, idle_timeout=None):
        assert script
        self.script = script if callable(script) else list(script)
        self.delay = delay
        self.seen = []
        self.connections = 0
        self.inflight = 0
        self.max_inflight = 0
        self.path_inflight = collections.Counter()
        self.path_max_inflight = collections.Counter()
        self.paths_together = set()
        self.errors = []
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._open = set()
        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if http11 else "HTTP/1.0"
            timeout = idle_timeout

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.connections += 1
                    outer._open.add(self.connection)

            def finish(self):
                with outer._lock:
                    outer._open.discard(self.connection)
                super().finish()

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with outer._lock:
                    outer.inflight += 1
                    outer.max_inflight = max(outer.max_inflight, outer.inflight)
                    outer.path_inflight[self.path] += 1
                    outer.path_max_inflight[self.path] = max(
                        outer.path_max_inflight[self.path], outer.path_inflight[self.path]
                    )
                    outer.paths_together.add(frozenset(+outer.path_inflight))
                if outer.delay:
                    outer._closing.wait(outer.delay)
                with outer._lock:
                    outer.inflight -= 1
                    outer.path_inflight[self.path] -= 1
                    outer.seen.append((self.path, dict(self.headers), body))
                    if callable(outer.script):
                        reply = outer.script(self.path, body)
                    elif len(outer.script) > 1:
                        reply = outer.script.pop(0)
                    else:
                        reply = outer.script[0]
                status, payload, *late = reply
                if late:
                    outer._closing.wait(*late)
                if status is None:
                    # with a zero linger time the close sends a reset, not a FIN;
                    # the socket closes once setup's reader is closed in finish
                    self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                               struct.pack("ii", 1, 0))
                    self.connection.close()
                    self.close_connection = True
                    return
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            do_CONNECT = do_POST

            def log_message(self, *args):
                pass

        class Server(http.server.ThreadingHTTPServer):
            daemon_threads = False  # so server_close joins every handler thread

            def handle_error(self, request, client_address):
                outer.errors.append(sys.exc_info()[1])

        self._server = Server(("127.0.0.1", 0), Handler)
        # a short poll lets shutdown return quickly
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    @property
    def url(self):
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._closing.set()
        with self._lock:
            for connection in self._open:
                # a handler waiting for a request on this connection reads its end
                with contextlib.suppress(OSError):
                    connection.shutdown(socket.SHUT_RD)
        self._server.server_close()
        return False


SIX_SCORES = [
    {"label": "sadness", "score": 0.5},
    {"label": "joy", "score": 0.2},
    {"label": "love", "score": 0.1},
    {"label": "anger", "score": 0.1},
    {"label": "fear", "score": 0.05},
    {"label": "surprise", "score": 0.05},
]


# token budgeting


def test_estimate_tokens_rounds_up():
    assert estimate_tokens("") == 0
    assert estimate_tokens("one two three") == 4  # ceil(3 * 1.3)


def test_truncation_threshold():
    # 393 words estimate to 511 tokens and fit the 512 budget; 394 do not
    fits = " ".join(["word"] * 393)
    assert estimate_tokens(fits) <= CLASSIFIER_TOKEN_BUDGET
    assert truncate_to_token_budget(fits) == fits
    over = " ".join(["word"] * 394)
    truncated = truncate_to_token_budget(over)
    assert len(truncated.split()) == 393
    assert over.startswith(truncated)


def test_truncation_preserves_short_text_exactly():
    text = "a short  text with   odd spacing"
    assert truncate_to_token_budget(text) == text


_WHITESPACE = [chr(code) for code in range(0x3001) if chr(code).isspace()]
_ONE_CHAR_WORDS = [word + space for word in ("a", "é", "情") for space in _WHITESPACE]
_LONGER = ["bc" + space for space in _WHITESPACE] + _WHITESPACE


@st.composite
def budget_texts(draw):
    """380-800 characters, mostly one-character words each followed by one
    whitespace character, so that texts fall on either side of the
    393-word limit; a few two-character words and whitespace runs mixed in."""
    tokens = draw(st.lists(st.sampled_from(_ONE_CHAR_WORDS), min_size=190, max_size=420))
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.sampled_from(_LONGER)) + tokens[i]
    return "".join(tokens)[:800]


_AT_LIMIT = " ".join(["a"] * 393)


@settings(max_examples=100, deadline=None)
@given(budget_texts())
@example(_AT_LIMIT)
@example(_AT_LIMIT + " ")
@example(_AT_LIMIT + " a")
@example("\u3000" + _AT_LIMIT + "\u2028a\u3000")
def test_truncation_matches_its_oracle(text):
    assert 380 <= len(text) <= 800
    assert truncate_to_token_budget(text) == truncate_to_token_budget_oracle(text)


# settings validation


def test_llm_settings_validation():
    with pytest.raises(ValueError, match="temperature must be a non-negative number"):
        LlmSettings(temperature=-0.1)
    with pytest.raises(ValueError, match="temperature"):
        LlmSettings(temperature="hot")
    with pytest.raises(ValueError, match="context_window must be a positive integer"):
        LlmSettings(context_window=0)
    with pytest.raises(ValueError, match="max_output_tokens"):
        LlmSettings(max_output_tokens=0)
    with pytest.raises(ValueError, match="max_output_tokens"):
        LlmSettings(max_output_tokens=True)


def test_backend_policy_validation():
    with pytest.raises(ValueError):
        BackendPolicy(timeout=0)
    with pytest.raises(ValueError):
        BackendPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        BackendPolicy(backoff=-0.5)
    with pytest.raises(ValueError):
        BackendPolicy(max_concurrent_requests=0)
    # wrong types are named, not coerced: a fractional semaphore bound or
    # retry count would be silently wrong, a string would fail mid-run
    for field, value in (
        ("max_concurrent_requests", 2.5), ("max_concurrent_requests", True),
        ("max_retries", 1.5), ("max_retries", "2"),
        ("timeout", True), ("timeout", math.inf), ("timeout", math.nan), ("timeout", "30"),
        ("backoff", "0.5"), ("backoff", False), ("backoff", math.inf),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            BackendPolicy(**{field: value})
    assert BackendPolicy(timeout=5, backoff=0, max_retries=0).timeout == 5


def test_backend_policy_waits_fit_the_platform():
    # a socket takes a timeout up to TIMEOUT_MAX; time.sleep adds the
    # monotonic clock to the backoff, which must not pass TIMEOUT_MAX either
    BackendPolicy(timeout=threading.TIMEOUT_MAX, backoff=threading.TIMEOUT_MAX / 2)
    with pytest.raises(ValueError, match="^timeout must be at most"):
        BackendPolicy(timeout=threading.TIMEOUT_MAX * 2)
    with pytest.raises(ValueError, match="^backoff must be at most"):
        BackendPolicy(backoff=threading.TIMEOUT_MAX)


# mock classifier


def test_mock_classifier_empty_text_is_uniform():
    scores = MockEmotionClassifier().classify_emotions(GeneratedText(""))
    for value in scores.as_dict().values():
        assert value == pytest.approx(1 / 6)


def test_mock_classifier_count_formula():
    # raw score is 1 + keyword count, normalized: joy 3/9, fear 2/9, rest 1/9
    clf = MockEmotionClassifier(
        {EmotionLabel.JOY: ("delight",), EmotionLabel.FEAR: ("dread",)}
    )
    scores = clf.classify_emotions(GeneratedText("delight delight dread")).as_dict()
    assert scores[EmotionLabel.JOY] == pytest.approx(3 / 9)
    assert scores[EmotionLabel.FEAR] == pytest.approx(2 / 9)
    assert scores[EmotionLabel.SADNESS] == pytest.approx(1 / 9)


def test_mock_classifier_matches_whole_words_case_insensitively():
    clf = MockEmotionClassifier({EmotionLabel.JOY: ("delight",)})
    scores = clf.classify_emotions(GeneratedText("Delightful DELIGHT delight!")).as_dict()
    # "delightful" must not count; the two standalone occurrences do
    assert scores[EmotionLabel.JOY] == pytest.approx(3 / 8)


def test_mock_classifier_is_deterministic():
    clf = MockEmotionClassifier()
    text = GeneratedText("tears of joy and sudden dread")
    assert clf.classify_emotions(text) == clf.classify_emotions(text)


def test_mock_classifier_truncates_before_counting():
    clf = MockEmotionClassifier()
    text = GeneratedText(" ".join(["word"] * 393) + " joy")
    scores = clf.classify_emotions(text).as_dict()
    assert scores[EmotionLabel.JOY] == pytest.approx(1 / 6)


# words shared by texts and lexicons so the property tests hit often:
# mixed case, digits, underscores, non-ASCII letters, apostrophes, hyphens,
# several words, and the empty entry
VOCABULARY = (
    "love", "Love", "LOVE", "loves", "rage", "joy", "joy_ful", "_", "x2", "42",
    "café", "CAFÉ", "straße", "ΑΓΑΠΗ", "любовь", "İstanbul", "naïve",
    "don't", "o'clock", "ice-cold", "well-", "broken heart", "tears of joy", "",
)
SEPARATORS = ("", " ", "  ", ", ", ". ", "-", "'", "!", "\n", "\t", "_", "é")
PUNCTUATED = st.text(alphabet="abcdeÉéß_'-.,!? 0123456789\nLOVEjoy", max_size=60)


@st.composite
def classifier_texts(draw):
    if draw(st.booleans()):
        return draw(PUNCTUATED)
    extra = ("story", "Tears", "dread", "sudden")
    words = draw(st.lists(st.sampled_from(VOCABULARY + extra), max_size=25))
    separator = draw(st.sampled_from(SEPARATORS))
    # repeating the words pushes some texts past the 512-token budget
    return separator.join(words * draw(st.sampled_from((1, 2, 40))))


LEXICONS = st.one_of(
    st.just(DEFAULT_LEXICONS),
    st.dictionaries(
        st.sampled_from(list(EmotionLabel)),
        st.lists(st.sampled_from(VOCABULARY), max_size=8).map(tuple),
    ),
)


@settings(deadline=None, max_examples=300)
@given(text=classifier_texts(), lexicons=LEXICONS)
def test_mock_classifier_matches_regex_oracle(text, lexicons):
    clf = MockEmotionClassifier(lexicons)
    assert clf.classify_emotions(GeneratedText(text)) == classify_oracle(text, lexicons)


def test_mock_classifier_counts_duplicates_and_phrases():
    lexicons = {
        EmotionLabel.JOY: ("joy", "Joy", "tears of joy"),
        EmotionLabel.SADNESS: ("tears", "tears of joy", "ice-cold", ""),
    }
    text = "Tears of JOY, ice-cold tears"
    got = MockEmotionClassifier(lexicons).classify_emotions(GeneratedText(text))
    assert got == classify_oracle(text, lexicons)
    # joy counts "joy" once per listing plus the phrase: 1 + 3; sadness
    # counts "tears" twice, the phrase, "ice-cold" and the empty entry's 12
    # word boundaries: 1 + 16; four other labels at 1 each
    assert got.scores[EmotionLabel.JOY] == 4 / 25
    assert got.scores[EmotionLabel.SADNESS] == 17 / 25


def test_load_lexicons_merges_over_defaults(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps({"joy": ["glee"], "FEAR": ["qualm"]}), encoding="utf-8")
    lexicons = load_lexicons(path)
    assert lexicons[EmotionLabel.JOY] == ("glee",)
    assert lexicons[EmotionLabel.FEAR] == ("qualm",)
    assert lexicons[EmotionLabel.SADNESS] == DEFAULT_LEXICONS[EmotionLabel.SADNESS]


@pytest.mark.parametrize(
    "payload", [{"joy": "delight"}, {"joy": ["delight", 3]}, {"joy": None}, ["joy"]]
)
def test_load_lexicons_rejects_bad_word_lists(tmp_path, payload):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError):
        load_lexicons(path)


def test_load_lexicons_missing_file_is_value_error(tmp_path):
    with pytest.raises(ValueError, match="cannot read lexicon file"):
        load_lexicons(tmp_path / "absent.json")


def test_load_lexicons_rejects_unknown_label(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps({"boredom": ["yawn"]}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_lexicons(path)


# mock generator


def test_mock_generator_is_a_pure_function_of_inputs_and_seed():
    request = GenerationRequest("write a 3 sentence story", system="be brief")
    assert MockTextGenerator(seed=7).complete(request) == MockTextGenerator(seed=7).complete(request)


def test_mock_generator_seed_changes_output():
    request = GenerationRequest("write a 3 sentence story about rivers")
    outputs = {MockTextGenerator(seed=s).complete(request) for s in range(8)}
    assert len(outputs) > 1


def test_mock_generator_story_echoes_content_words():
    request = GenerationRequest("write a 3 sentence story about grief and laughter")
    story = MockTextGenerator(seed=1).complete(request)
    assert "grief" in story and "laughter" in story


def test_mock_generator_story_never_empty():
    request = GenerationRequest("a of to")  # stopwords only
    story = MockTextGenerator(seed=1).complete(request)
    assert story.strip()


def test_mock_scaffolding_is_disjoint_from_default_lexicons():
    # story filler must never move any emotion score on its own
    scaffold = " ".join(
        backends._STORY_OPENERS + backends._STORY_CLOSERS + backends._NEUTRAL_WORDS
    )
    scores = MockEmotionClassifier().classify_emotions(GeneratedText(scaffold))
    for value in scores.as_dict().values():
        assert value == pytest.approx(1 / 6)


def test_mock_generator_rewrite_inserts_one_token():
    body = "Mutation Prompt: rephrase the prompt\nPrompt: tell sea story\nNew Prompt:"
    out = MockTextGenerator(seed=3).complete(GenerationRequest(body)).split()
    # 3-token targets are never shortened, so the edit is exactly one insertion
    assert len(out) == 4
    assert [w for w in out if w in {"tell", "sea", "story"}] == ["tell", "sea", "story"]


def test_mock_generator_rewrite_caps_length():
    target = " ".join(f"w{i}" for i in range(40))
    body = f"Mutation Prompt: shorten it\nPrompt: {target}\nNew Prompt:"
    out = MockTextGenerator(seed=3).complete(GenerationRequest(body))
    assert len(out.split()) <= backends._MOCK_MAX_PROMPT_TOKENS


def test_mock_generator_merge_unions_parent_words():
    body = (
        'One prompt is: "Write a somber tale", another prompt is: "Sing a bright tale". '
        "Analyze the prompts and generate a better prompt."
    )
    out = MockTextGenerator(seed=5).complete(GenerationRequest(body)).split()
    union = {"write", "a", "somber", "tale", "sing", "bright"}
    assert out
    assert set(out) <= union
    assert len(out) == len(set(out))


# prompt text that exercises the mock's tokenizing: quotes, repeats, case
# folds that change length or depend on the next letter (final sigma), and
# every whitespace character, paragraph breaks among them
_PROMPT_WORDS = st.one_of(
    st.sampled_from(["love", "Love", "LOVE", "rage", "the", "a", "story", '"quoted"', '"', "“x”",
                     "ΟΔΟΣ", "ΑΒ", "Σ", "ς", "İ", "İstanbul", "Straße", "\u212a", "tears,",
                     "Prompt:", "Mutation Prompt:", "One prompt is:"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
)
_SEPARATORS = st.one_of(st.sampled_from(["\n", "\n\n", " \n \n"]), st.sampled_from(_WHITESPACE))
PROMPT_TEXTS = st.lists(st.tuples(_PROMPT_WORDS, _SEPARATORS), max_size=40).map(
    lambda parts: "".join(word + sep for word, sep in parts))
MANY_WORDS = " ".join(f"w{i}" for i in range(30))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["crossover", "mutation", "generation", "raw"]),
       first=PROMPT_TEXTS, second=PROMPT_TEXTS, seed=st.integers(0, 3))
@example(kind="crossover", first='love "love" LOVE love rage', second="rage Rage", seed=0)
@example(kind="crossover", first=MANY_WORDS, second=MANY_WORDS.upper(), seed=1)
@example(kind="crossover", first="", second="", seed=0)
@example(kind="crossover", first="a\tb\rc\x0bd", second="e\n\nf", seed=2)
@example(kind="crossover", first="ΟΔΟΣ ΑΒ", second="İ İstanbul", seed=0)
@example(kind="mutation", first='"quoted" words "" here "', second="rewrite it", seed=0)
@example(kind="mutation", first=MANY_WORDS, second="shorten", seed=3)
@example(kind="mutation", first="", second="", seed=0)
@example(kind="mutation", first="x\n\nPrompt: \t\r\x0b spaced", second="go", seed=1)
@example(kind="generation", first="ΟΔΟΣ ΑΒ İ about love and rage\n\nand joy", second="", seed=0)
@example(kind="raw", first="Prompt:\nPrompt: last one", second="", seed=0)
# a rewrite whose prompt line is empty or only quotes
@example(kind="raw", first="Mutation Prompt: go\nPrompt:", second="", seed=0)
@example(kind="raw", first='Mutation Prompt: go\nPrompt: "" "', second="", seed=1)
def test_mock_generator_matches_its_oracle(kind, first, second, seed):
    if kind == "raw":  # a body that no template rendered
        request = GenerationRequest(first, system=second)
    else:
        template = getattr(OperatorSuite(), kind)
        slots = {"crossover": {"parent_a": first, "parent_b": second},
                 "mutation": {"mutation_prompt": second, "prompt": first},
                 "generation": {"prompt": first}}[kind]
        request = GenerationRequest(render_prompt_body(template, slots),
                                    template.system_instruction)
    expected = MockTextGeneratorOracle(seed).complete(request)
    assert MockTextGenerator(seed).complete(request) == expected


# response parsing


def test_parse_classifier_response_flat_list():
    scores = parse_classifier_response(SIX_SCORES).as_dict()
    assert scores[EmotionLabel.SADNESS] == 0.5
    assert scores[EmotionLabel.SURPRISE] == 0.05


def test_parse_classifier_response_nested_list():
    assert parse_classifier_response([SIX_SCORES]) == parse_classifier_response(SIX_SCORES)


def test_parse_classifier_response_any_label_order_and_case():
    shuffled = [dict(entry, label=entry["label"].upper()) for entry in reversed(SIX_SCORES)]
    assert parse_classifier_response(shuffled) == parse_classifier_response(SIX_SCORES)


def test_parse_classifier_response_missing_emotion():
    with pytest.raises(ValueError):
        parse_classifier_response(SIX_SCORES[:5])


def test_parse_classifier_response_rejects_non_list():
    with pytest.raises(ValueError):
        parse_classifier_response({"label": "joy", "score": 1.0})


# live clients against a stub server


def test_ollama_client_request_shape():
    with StubServer([(200, {"response": "a story"})]) as server:
        client = OllamaClient(server.url + "/")  # trailing slash is tolerated
        reply = client.complete(GenerationRequest("tell me", system="be kind"))
    assert reply == "a story"
    path, _, body = server.seen[0]
    assert path == "/api/generate"
    assert body["model"] == "llama2"
    assert body["prompt"] == "tell me"
    assert body["system"] == "be kind"
    assert body["stream"] is False
    assert body["options"] == {"temperature": 0.7, "num_ctx": 512, "num_predict": 256,
                               "seed": 0}


def test_ollama_client_sends_the_request_settings():
    llm = LlmSettings(model="mistral", temperature=0.2, context_window=1024, max_output_tokens=64)
    with StubServer([(200, {"response": "x"})]) as server:
        OllamaClient(server.url, llm=llm, seed=5).complete(GenerationRequest("hi"))
    _, _, body = server.seen[0]
    assert body["model"] == "mistral"
    assert body["options"] == {"temperature": 0.2, "num_ctx": 1024, "num_predict": 64,
                               "seed": 5}


def test_ollama_client_retries_then_succeeds():
    script = [(500, {}), (500, {}), (200, {"response": "ok"})]
    with StubServer(script) as server:
        policy = BackendPolicy(max_retries=2, backoff=0.0)
        assert OllamaClient(server.url, policy).complete(GenerationRequest("hi")) == "ok"
    assert len(server.seen) == 3


def test_ollama_client_exhausts_retries():
    with StubServer([(500, {})]) as server:
        policy = BackendPolicy(max_retries=1, backoff=0.0)
        with pytest.raises(BackendError, match="2 attempts"):
            OllamaClient(server.url, policy).complete(GenerationRequest("hi"))
    assert len(server.seen) == 2


def test_ollama_client_does_not_retry_a_client_error():
    with StubServer([(400, {"error": "bad request"})]) as server:
        policy = BackendPolicy(max_retries=2, backoff=0.0)
        with pytest.raises(BackendError, match="400") as info:
            OllamaClient(server.url, policy).complete(GenerationRequest("hi"))
    assert len(server.seen) == 1
    assert '"error": "bad request"' in str(info.value)  # the server's own reason


def test_ollama_client_retries_too_many_requests():
    script = [(429, {}), (200, {"response": "ok"})]
    with StubServer(script) as server:
        policy = BackendPolicy(max_retries=2, backoff=0.0)
        assert OllamaClient(server.url, policy).complete(GenerationRequest("hi")) == "ok"
    assert len(server.seen) == 2


def test_ollama_client_does_not_retry_a_malformed_reply():
    with StubServer([(200, {"unexpected": 1})]) as server:
        policy = BackendPolicy(max_retries=2, backoff=0.0)
        with pytest.raises(BackendError, match="no 'response' field"):
            OllamaClient(server.url, policy).complete(GenerationRequest("hi"))
    assert len(server.seen) == 1


def test_classifier_client_does_not_retry_a_malformed_reply():
    with StubServer([(200, SIX_SCORES[:5])]) as server:
        policy = BackendPolicy(max_retries=2, backoff=0.0)
        client = HttpEmotionClassifier(server.url + "/classify", policy=policy)
        with pytest.raises(BackendError, match="emotion classification failed"):
            client.classify_emotions(GeneratedText("a story"))
    assert len(server.seen) == 1


def test_ollama_client_rejects_reply_without_response_field():
    with StubServer([(200, {"unexpected": 1})]) as server:
        policy = BackendPolicy(max_retries=0, backoff=0.0)
        with pytest.raises(BackendError):
            OllamaClient(server.url, policy).complete(GenerationRequest("hi"))


def test_ollama_client_does_not_retry_a_non_json_reply():
    with StubServer([(200, b"<html>busy</html>")]) as server:
        policy = BackendPolicy(max_retries=2, backoff=0.0)
        with pytest.raises(BackendError, match="text generation failed"):
            OllamaClient(server.url, policy).complete(GenerationRequest("hi"))
    assert len(server.seen) == 1


def test_ollama_client_does_not_retry_a_lone_surrogate():
    # json.loads accepts the escape, but no UTF-8 file can hold the result, so
    # a reply holding one in any string is malformed, as a config file would be
    scores = [dict(entry, note="\udfff") if entry["label"] == "joy" else entry
              for entry in SIX_SCORES]
    generate = lambda url, policy: OllamaClient(url, policy).complete(GenerationRequest("hi"))
    classify = lambda url, policy: HttpEmotionClassifier(url, policy=policy).classify_emotions(
        GeneratedText("a story"))
    for reply, call in ((b'{"response": "a story \\ud800"}', generate),
                        (b'{"response": "a story", "model": "llama2 \\ud800"}', generate),
                        (json.dumps(scores).encode(), classify)):
        with StubServer([(200, reply)]) as server:
            policy = BackendPolicy(max_retries=2, backoff=0.0)
            with pytest.raises(BackendError, match="not valid Unicode") as info:
                call(server.url, policy)
            assert not isinstance(info.value, BackendRejected)
        assert len(server.seen) == 1


def test_a_reply_nested_too_deeply_is_a_malformed_reply():
    # json.loads gives up with RecursionError, so the body is as malformed as
    # any other: not retried, not refused, and the operator falls back
    nested = b'{"response": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    with StubServer([(200, nested)]) as server:
        client = OllamaClient(server.url, BackendPolicy(max_retries=2, backoff=0.0))
        with pytest.raises(BackendError, match="^text generation failed: ") as info:
            client.complete(GenerationRequest("hi"))
        assert not isinstance(info.value, BackendRejected)
        child, record = mutate(Prompt("write a story"), client, random.Random(0))
        classifier = HttpEmotionClassifier(server.url, policy=BackendPolicy(max_retries=2))
        with pytest.raises(BackendError, match="^emotion classification failed: "):
            classifier.classify_emotions(GeneratedText("a story"))
    assert child.text == "write a story" and record.fallback
    assert len(server.seen) == 3


def test_a_response_that_is_not_a_string_is_a_malformed_reply():
    # not read as the text "None" or "5": not retried, not refused, and the
    # operator falls back
    for reply in ({"response": None}, 5, [1]):
        with StubServer([(200, reply)]) as server:
            client = OllamaClient(server.url, BackendPolicy(max_retries=2, backoff=0.0))
            with pytest.raises(BackendError, match="^text generation failed: ") as info:
                client.complete(GenerationRequest("hi"))
            assert not isinstance(info.value, BackendRejected)
            assert len(server.seen) == 1
            child, record = mutate(Prompt("write a story"), client, random.Random(0))
        assert child.text == "write a story" and record.fallback


@pytest.mark.parametrize("reply", [
    # joy's 0.2 sent as a string
    [dict(entry, score=str(entry["score"])) if entry["label"] == "joy" else entry
     for entry in SIX_SCORES],
    # joy's 1 sent as true, which float() would read as 1.0
    [{"label": label.value, "score": True if label is EmotionLabel.JOY else 0.0}
     for label in EmotionLabel],
])
def test_a_score_that_is_not_a_number_is_a_malformed_reply(reply):
    with StubServer([(200, reply)]) as server:
        client = HttpEmotionClassifier(server.url, policy=BackendPolicy(max_retries=2, backoff=0.0))
        with pytest.raises(BackendError, match="^emotion classification failed: reply score "):
            client.classify_emotions(GeneratedText("a story"))
    assert len(server.seen) == 1


def test_a_reply_that_names_an_emotion_twice_is_a_malformed_reply():
    # the later joy would replace the earlier one, and the six would sum to 1
    reply = [{"label": "joy", "score": 0.9}] + SIX_SCORES
    with StubServer([(200, reply)]) as server:
        client = HttpEmotionClassifier(server.url, policy=BackendPolicy(max_retries=2, backoff=0.0))
        with pytest.raises(BackendError, match="^emotion classification failed: reply label joy "
                                               "is given twice") as info:
            client.classify_emotions(GeneratedText("a story"))
        assert not isinstance(info.value, BackendRejected)
    assert len(server.seen) == 1


def test_retry_backoff_doubles(monkeypatch):
    calls = []
    delays = []

    def refused(*args, **kwargs):
        calls.append(args)
        raise ConnectionRefusedError("connection refused")

    monkeypatch.setattr(live, "_post_json", refused)
    monkeypatch.setattr(live.time, "sleep", delays.append)
    policy = BackendPolicy(max_retries=3, backoff=0.1)
    with pytest.raises(BackendError, match="4 attempts"):
        OllamaClient("http://127.0.0.1:1", policy).complete(GenerationRequest("hi"))
    assert len(calls) == 4
    assert delays == [0.1, 0.2, 0.4]


def test_retry_waits_stay_within_the_backoff_bound(monkeypatch):
    # doubled without a cap, the second wait could not be timed by time.sleep
    delays = []

    def refused(*args, **kwargs):
        raise ConnectionRefusedError("connection refused")

    monkeypatch.setattr(live, "_post_json", refused)
    monkeypatch.setattr(live.time, "sleep", delays.append)
    policy = BackendPolicy(max_retries=3, backoff=threading.TIMEOUT_MAX / 2)
    with pytest.raises(BackendError, match="^text generation failed after 4 attempts: "):
        OllamaClient("http://127.0.0.1:1", policy).complete(GenerationRequest("hi"))
    assert len(delays) == 3
    assert all(delay <= threading.TIMEOUT_MAX / 2 for delay in delays)


def test_zero_backoff_never_sleeps(monkeypatch):
    delays = []

    def refused(*args, **kwargs):
        raise ConnectionRefusedError("connection refused")

    monkeypatch.setattr(live, "_post_json", refused)
    monkeypatch.setattr(live.time, "sleep", delays.append)
    policy = BackendPolicy(max_retries=2, backoff=0.0)
    with pytest.raises(BackendError):
        OllamaClient("http://127.0.0.1:1", policy).complete(GenerationRequest("hi"))
    assert delays == []


@contextlib.contextmanager
def closed_port():
    """A URL whose port nothing listens on, so every connection is refused."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
    yield f"http://127.0.0.1:{port}"


@contextlib.contextmanager
def answering_late():
    """A server that answers after the client's timeout has passed."""
    with StubServer([(200, {"response": "late"})], delay=1.0) as server:
        yield server.url


@contextlib.contextmanager
def hanging_up():
    """A server that reads each request and closes the connection unanswered."""
    stop = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(0.05)

        def serve():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except TimeoutError:
                    continue
                with conn:
                    conn.recv(65536)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            yield f"http://127.0.0.1:{listener.getsockname()[1]}"
        finally:
            stop.set()
            thread.join(timeout=5)
    assert not thread.is_alive()


CLIENT_CALLS = {
    "generate": lambda url, policy: OllamaClient(url, policy).complete(GenerationRequest("hi")),
    "classify": lambda url, policy: HttpEmotionClassifier(url, policy=policy).classify_emotions(
        GeneratedText("hi")
    ),
}


@pytest.mark.parametrize("client", sorted(CLIENT_CALLS))
@pytest.mark.parametrize("server", [closed_port, answering_late, hanging_up],
                         ids=["refused", "read-timeout", "closed-unanswered"])
def test_transport_failures_are_retried_then_raise(monkeypatch, client, server):
    sent = []
    post = live._post_json

    def counting(opener, url, *args):
        sent.append(url)
        return post(opener, url, *args)

    monkeypatch.setattr(live, "_post_json", counting)
    policy = BackendPolicy(timeout=0.2, max_retries=2, backoff=0.0)
    with server() as url:
        with pytest.raises(BackendError, match="after 3 attempts"):
            CLIENT_CALLS[client](url, policy)
    assert len(sent) == policy.max_retries + 1


@pytest.mark.parametrize(
    "url", ["localhost:11434", "ftp://x", "http://", "http://h:port", "http://h:0", "", 5]
)
def test_clients_reject_unreachable_base_urls(url):
    with pytest.raises(ValueError, match="^llm.base_url must be an http"):
        OllamaClient(url)
    with pytest.raises(ValueError, match="^classifier.base_url must be an http"):
        HttpEmotionClassifier(url)


@pytest.mark.parametrize("token", ["a\nb", "a\r\nX-Injected: 1", "a\x00b", "a\tb", "caf\u00e9"])
def test_classifier_rejects_a_token_that_cannot_be_a_header_value(token):
    with pytest.raises(ValueError, match="^classifier.token must be printable ASCII") as info:
        HttpEmotionClassifier("http://127.0.0.1:1", token=token)
    assert token not in str(info.value)  # a secret is not echoed


def test_classifier_client_sends_token_and_truncates():
    with StubServer([(200, SIX_SCORES)]) as server:
        client = HttpEmotionClassifier(server.url + "/classify", token="sekrit")
        text = GeneratedText(" ".join(["word"] * 500))
        scores = client.classify_emotions(text)
    assert scores.as_dict()[EmotionLabel.SADNESS] == 0.5
    path, headers, body = server.seen[0]
    assert path == "/classify"
    assert headers["Authorization"] == "Bearer sekrit"
    assert len(body["inputs"].split()) == 393


def test_classifier_client_omits_header_without_token():
    with StubServer([(200, SIX_SCORES)]) as server:
        HttpEmotionClassifier(server.url).classify_emotions(GeneratedText("hi"))
    _, headers, _ = server.seen[0]
    assert "Authorization" not in headers


def test_classifier_client_parses_nested_reply():
    with StubServer([(200, [SIX_SCORES])]) as server:
        scores = HttpEmotionClassifier(server.url).classify_emotions(GeneratedText("hi"))
    assert scores.as_dict()[EmotionLabel.JOY] == 0.2


def test_concurrency_cap_is_respected():
    with StubServer([(200, {"response": "ok"})], delay=0.15) as server:
        policy = BackendPolicy(max_concurrent_requests=2, max_retries=0)
        client = OllamaClient(server.url, policy)
        results = []

        def worker():
            results.append(client.complete(GenerationRequest("hi")))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert results == ["ok"] * 6
    assert server.max_inflight <= 2


def test_the_stub_leaves_no_handler_behind(capsys):
    # a handler that outlived its stub once printed the traceback of its late
    # write into the captured stderr of whichever test ran at that moment
    with StubServer([(200, {"response": "late"})], delay=5.0) as server:
        policy = BackendPolicy(timeout=0.1, max_retries=0)
        with pytest.raises(BackendError, match="timed out"):
            OllamaClient(server.url, policy).complete(GenerationRequest("hi"))
    assert not [t for t in threading.enumerate() if "process_request_thread" in t.name]
    assert all(isinstance(error, OSError) for error in server.errors)
    assert capsys.readouterr().err == ""


# kept-alive connections


def echo_prompt(path, body):
    return 200, {"response": body["prompt"]}


# an unclosed socket warns only when it is collected, inside a finalizer, so
# the warning reaches pytest as an unraisable exception, not as a warning
CLOSES_ITS_SOCKETS = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


@CLOSES_ITS_SOCKETS
def test_sequential_calls_share_one_connection():
    with StubServer(echo_prompt, http11=True) as server, contextlib.closing(
        OllamaClient(server.url, BackendPolicy(max_retries=0))
    ) as client:
        replies = [client.complete(GenerationRequest(f"call {i}")) for i in range(10)]
    assert replies == [f"call {i}" for i in range(10)]
    assert server.connections == 1


@CLOSES_ITS_SOCKETS
def test_concurrent_calls_hold_one_connection_per_slot():
    with StubServer(echo_prompt, delay=0.05, http11=True) as server, contextlib.closing(
        OllamaClient(server.url, BackendPolicy(max_concurrent_requests=2, max_retries=0))
    ) as client:
        results = []

        def worker(i):
            results.append(client.complete(GenerationRequest(f"call {i}")))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == sorted(f"call {i}" for i in range(8))
    assert 1 <= server.connections <= 2


@CLOSES_ITS_SOCKETS
def test_a_connection_the_server_closed_is_reopened_within_the_attempt():
    with StubServer(echo_prompt, http11=True, idle_timeout=0.05) as server, contextlib.closing(
        OllamaClient(server.url, BackendPolicy(max_retries=0))
    ) as client:
        assert client.complete(GenerationRequest("first")) == "first"
        time.sleep(0.5)  # the server closes the idle connection meanwhile
        assert client.complete(GenerationRequest("second")) == "second"
    assert [body["prompt"] for _, _, body in server.seen] == ["first", "second"]
    assert server.connections == 2


@CLOSES_ITS_SOCKETS
def test_a_late_reply_is_never_read_as_the_next_calls_reply():
    with StubServer(echo_prompt, delay=1.0, http11=True) as server, contextlib.closing(
        OllamaClient(server.url, BackendPolicy(timeout=0.3, max_retries=0))
    ) as client:
        with pytest.raises(BackendError, match="timed out"):
            client.complete(GenerationRequest("first"))
        server.delay = 0.0
        assert client.complete(GenerationRequest("second")) == "second"
    assert server.connections == 2


@CLOSES_ITS_SOCKETS
@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="needs TCP_QUICKACK")
def test_a_server_with_nagle_on_does_not_stall_a_kept_alive_connection():
    # the stub writes headers and body separately without TCP_NODELAY; with
    # delayed ACKs each reply on a reused connection would wait about 40 ms
    with StubServer([(200, {"response": "ok"})], http11=True) as server, contextlib.closing(
        OllamaClient(server.url, BackendPolicy(max_retries=0))
    ) as client:
        start = time.perf_counter()
        for _ in range(20):
            client.complete(GenerationRequest("hi"))
        elapsed = time.perf_counter() - start
    assert server.connections == 1
    assert elapsed < 0.4


# proxies and request targets


@pytest.fixture
def proxy_env(monkeypatch):
    """Set proxy variables for one test; the lowercase names win over any
    uppercase ones already set."""
    for name in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.setenv(name, "")

    def set_proxy(**names):
        for name, value in names.items():
            monkeypatch.setenv(name, value)

    return set_proxy


def test_plain_http_goes_to_the_proxy_with_an_absolute_target(proxy_env):
    with StubServer([(200, {"response": "via proxy"})]) as proxy, closed_port() as url:
        host_port = proxy.url.removeprefix("http://")
        proxy_env(http_proxy=f"http://user:p%40ss@{host_port}")
        assert OllamaClient(url).complete(GenerationRequest("hi")) == "via proxy"
    path, headers, body = proxy.seen[0]
    assert path == f"{url}/api/generate"
    assert headers["Host"] == url.removeprefix("http://")
    assert headers["Proxy-Authorization"] == "Basic dXNlcjpwQHNz"  # user:p@ss
    assert body["prompt"] == "hi"


def test_https_goes_through_a_connect_tunnel(proxy_env):
    with StubServer([(403, {})]) as proxy, closed_port() as url:
        port = url.rpartition(":")[2]
        proxy_env(https_proxy=f"user:pw@{proxy.url.removeprefix('http://')}")
        client = HttpEmotionClassifier(f"https://127.0.0.1:{port}/classify",
                                       policy=BackendPolicy(max_retries=0))
        with pytest.raises(BackendError, match="Tunnel connection failed: 403"):
            client.classify_emotions(GeneratedText("hi"))
    path, headers, _ = proxy.seen[0]
    assert path == f"127.0.0.1:{port}"
    assert headers["Proxy-Authorization"] == "Basic dXNlcjpwdw=="  # user:pw


def test_a_host_in_no_proxy_is_reached_directly(proxy_env):
    with StubServer([(200, {})]) as proxy, StubServer([(200, {"response": "direct"})]) as server:
        proxy_env(http_proxy=proxy.url, no_proxy="example.org,127.0.0.1")
        assert OllamaClient(server.url).complete(GenerationRequest("hi")) == "direct"
    assert [path for path, _, _ in server.seen] == ["/api/generate"]
    assert proxy.seen == []


def test_classifier_url_path_and_query_reach_the_server():
    with StubServer([(200, SIX_SCORES)]) as server:
        HttpEmotionClassifier(server.url + "/classify?wait_for_model=true").classify_emotions(
            GeneratedText("hi")
        )
    assert server.seen[0][0] == "/classify?wait_for_model=true"
