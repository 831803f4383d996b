"""Declared checks for the JSON values the program reads, and its JSON reader.

A config dataclass gives each field its rule in the field's metadata, as in
`mu: int = field(default=10, metadata=integer(1))`, and calls
`check_fields(self)`. The config keys that `load_config` converts before a
dataclass sees them apply their rule there with `check`, as do the report
reading `summary.json` and the live clients reading a reply. A rule may
carry the field's name in the config file (`lambda`, `llm.base_url`).
`parse_json` parses each JSON file read whole and each service reply, and
`section` and `build` read a JSON object by the same rules. Only the
standard library is imported, so checking a config loads no HTTP code.
"""

from __future__ import annotations

import json
import sys
import urllib.parse
from dataclasses import MISSING, fields


def integer(low: int | None = None, name: str | None = None) -> dict:
    """An int other than a bool, at least low when low is given."""

    def problem(value):
        if isinstance(value, bool) or not isinstance(value, int):
            return f"must be an integer, got {value!r}"
        if low is not None and value < low:
            return f"must be {'a positive integer' if low == 1 else f'>= {low}'}, got {value!r}"
        return None

    return {"problem": problem, "name": name}


def number(positive: bool = False, high: float = sys.float_info.max) -> dict:
    """A finite int or float, not a bool, at most high: > 0 when positive, else >= 0."""

    def problem(value):
        real = isinstance(value, (int, float)) and not isinstance(value, bool)
        # NaN fails the comparison, and so does an int too large for any float
        if not (real and abs(value) <= sys.float_info.max):
            return f"must be a finite number, got {value!r}"
        if value < 0 or (positive and value == 0):
            return f"must be a {'positive' if positive else 'non-negative'} number, got {value!r}"
        if value > high:
            return f"must be at most {high!r}, got {value!r}"
        return None

    return {"problem": problem, "name": None}


def text(optional: bool = False, name: str | None = None, then=None, empty: bool = False) -> dict:
    """A string, non-empty unless empty, or None when optional, in which then finds no problem."""

    def problem(value):
        if value is None and optional:
            return None
        if not isinstance(value, str):
            return f"must be a string, got {value!r}"
        if not (value or empty):
            return "must not be empty"
        return then(value) if then else None

    return {"problem": problem, "name": name}


def choice(options: tuple[str, ...], name: str | None = None) -> dict:
    return text(name=name, then=lambda value: None if value in options
                else f"must be one of {options}, got {value!r}")


def items(test=lambda item: True, what: str = "a list") -> dict:
    """A list, or a tuple, each of whose items passes test."""
    return {"problem": lambda value: None if isinstance(value, (list, tuple)) and all(
        map(test, value)) else f"must be {what}", "name": None}


def strings() -> dict:
    return items(lambda item: isinstance(item, str), "a list of strings")


def pairs() -> dict:
    return items(lambda item: isinstance(item, (list, tuple)) and len(item) == 2 and all(
        isinstance(part, str) for part in item), "a list of [user, response] string pairs")


def _url_problem(url) -> str | None:
    try:
        parts = urllib.parse.urlsplit(url)
        # reading the port raises ValueError when it is not a number in range
        valid = parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
    except (AttributeError, TypeError, ValueError):  # not a string, or a malformed port
        valid = False
    return None if valid else f"must be an http:// or https:// URL with a host, got {url!r}"


def _token_problem(token: str | None) -> str | None:
    # bearer tokens are printable ASCII (RFC 6750); a token is never echoed
    if token is None or all(" " <= ch <= "~" for ch in token):
        return None
    return "must be printable ASCII, with no line breaks or other control characters"


def url(name: str) -> dict:
    """An optional base URL that a request could reach."""
    return text(optional=True, name=name, then=_url_problem)


def token(name: str) -> dict:
    """An optional bearer token that can be sent as a header value."""
    return text(optional=True, name=name, then=_token_problem)


def check(name: str, value, rule: dict):
    """value, if rule passes it; otherwise a ValueError naming the field."""
    problem = rule["problem"](value)
    if problem:
        raise ValueError(f"{name} {problem}")
    return value


def check_fields(obj) -> None:
    """Apply the rule that each field of the dataclass obj declares."""
    for spec in fields(obj):
        if "problem" in spec.metadata:
            check(spec.metadata["name"] or spec.name, getattr(obj, spec.name), spec.metadata)


def section(raw, known, where: str) -> dict:
    """A copy of the JSON object raw, none of whose keys may fall outside known."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} section must be a JSON object")
    unknown = set(raw) - set(known)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(sorted(unknown))}")
    return dict(raw)


def build(cls, raw, where: str):
    """The dataclass cls made from the JSON object raw, a section of a file.
    Each field of cls declares a rule; each that raw gives, or that has no
    default, is checked by it and named where.field."""
    given = section(raw, [spec.name for spec in fields(cls)], where)
    for spec in fields(cls):
        required = spec.default is MISSING and spec.default_factory is MISSING
        if required or spec.name in given:
            check(f"{where}.{spec.name}", given.get(spec.name), spec.metadata)
    return cls(**given)


def check_base_url(value, name: str) -> None:
    """The URL check for a URL given to a client directly or by environment."""
    check(name, value, {"problem": _url_problem})


def check_token(value: str | None) -> None:
    """The token check for a token given to a client directly or by environment."""
    check("classifier.token", value, {"problem": _token_problem})


def parse_json(content: str | bytes, what: str):
    """The JSON value in content, a file's text or a service's reply, or a
    ValueError that names it as what. A value nested too deeply to parse, or
    a string that is not valid Unicode, is such an error."""
    try:
        value = json.loads(content)
        # JSON may escape a lone surrogate, which no text written later can hold
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{what} holds a string that is not valid Unicode: "
                         f"{exc.object[exc.start:exc.end]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{what} is not valid JSON: nested too deeply") from None
    return value


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at path, or a ValueError that names it as
    what; the content is read by parse_json."""
    try:
        with open(path, encoding="utf-8") as handle:
            content = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise ValueError(f"cannot read {what}: {exc}") from exc
    raw = parse_json(content, what)
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must hold a JSON object")
    return raw
