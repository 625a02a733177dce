"""The one record codec, the one JSONL reader, the one atomic file write
and the one HTTP POST every module shares.

``encode`` and ``decode`` map a record dataclass to and from its JSON
object: the fields its constructor takes and their type hints are the
schema, each field under its own name. A field the constructor does not take
(``init=False``) is derived: ``encode`` does not write it, and the
constructor fills it again when ``decode`` builds the record. A field whose
default is None is written only when it holds a value. A key whose field has
a default may be absent; extra keys are ignored. ``decode`` checks each value
against its hint (``true`` is not a number; an integer is) and raises
``DataError`` naming the JSON path of the first mismatch, as in
``turns[0].raw: expected string, got null``; a ``ValueError`` the
constructor raises is reported the same way, at the record's path. Each
class is compiled once into a table walker; the path is built only when a
value does not fit.

``parse_jsonl`` reads every file format the package writes line by line and
yields each record as its line is read: blank lines are skipped and every bad
line is collected, so one error, raised after the last line, lists them all as
``<source>: N error(s)`` followed by one ``line L: ...`` each.

``atomic_write`` is how every output file is written: into a temp file
with a unique name beside the target, which replaces the target only once
it is complete. An interrupted writer leaves the old file as it was and no
temp file behind. There is no fsync: this guards against a process that
stops, not against power loss.

``post_json`` is the request policy of both HTTP clients: one
``X-Request-Id`` for every attempt of a call (so a server can drop
duplicates), transport errors and 5xx retried after a short backoff, any
other non-200 status fatal, and a 200 body that is not a JSON object holding
the expected key a malformed response. It imports ``requests`` on its first
call, so a run that makes no HTTP call never loads the HTTP stack.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
import types
import uuid
from contextlib import contextmanager
from enum import Enum
from functools import cache
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, TypeVar, Union, get_args, get_origin, get_type_hints

from .errors import BackendError, DataError

__all__ = ["atomic_write", "decode", "encode", "parse_jsonl", "post_json"]

logger = logging.getLogger(__name__)

T = TypeVar("T")

_JSON_NAMES = {str: "string", int: "integer", float: "number", bool: "boolean", type(None): "null",
               list: "array", dict: "object"}


class _Mismatch(Exception):
    """A value that does not fit its type hint. ``path`` holds the keys and
    indexes that lead to it, innermost first; each record or list the error
    passes out of adds its own."""

    def __init__(self, message: str, *path: str | int):
        super().__init__(message)
        self.path = list(path)


def _expected(expected: str, value: object, *path: str | int) -> _Mismatch:
    return _Mismatch(f"expected {expected}, got {_JSON_NAMES.get(type(value), type(value).__name__)}", *path)


def _optional(convert):
    return None if convert is None else (lambda value: None if value is None else convert(value))


@cache
def _codec(hint) -> tuple[tuple[type, ...], Callable | None, Callable | None, str]:
    """A type hint compiled to (JSON types, from_json, to_json, expected). A
    JSON value fits when its type is one of the JSON types, and is then read
    as ``from_json(value)``; a field value is written as ``to_json(value)``.
    Either one None keeps the value as it is. ``expected`` names the type in
    errors."""
    origin, args = get_origin(hint), get_args(hint)
    if dataclasses.is_dataclass(hint):
        return (dict,), *_record_codec(hint), "object"
    if isinstance(hint, type) and issubclass(hint, Enum):
        members = {m.value: m for m in hint}
        expected = "one of " + ", ".join(map(repr, members))

        def member(value):
            if value in members:
                return members[value]
            raise _Mismatch(f"expected {expected}, got {value!r}")

        return tuple({type(v) for v in members}), member, attrgetter("value"), expected
    if origin in (Union, types.UnionType) and len(args) == 2 and type(None) in args:
        fits, from_json, to_json, expected = _codec(next(a for a in args if a is not type(None)))
        return (*fits, type(None)), _optional(from_json), _optional(to_json), f"{expected} or null"
    if origin in (list, tuple) and len(set(args) - {...}) == 1:  # a tuple's length is not checked
        item = _codec(args[0])
        to_json = item[2]
        write = list if to_json is None else (lambda value: [to_json(v) for v in value])
        return (list,), _elements(item, origin), write, "array"
    if origin is dict and args[0] is str:
        item = _codec(args[1])
        to_json = item[2]
        write = None if to_json is None else (lambda value: {k: to_json(v) for k, v in value.items()})
        return (dict,), _elements(item, dict), write, "object"
    leaves = {str: (str,), int: (int,), float: (float, int), bool: (bool,), dict: (dict,)}
    if hint in leaves:  # a dict leaf may be held read-only, and is written as a dict
        return leaves[hint], None, dict if hint is dict else None, _JSON_NAMES[hint]
    raise TypeError(f"no JSON form for type {hint!r}")


def _elements(item: tuple, container: type) -> Callable[[object], object]:
    """The from_json of a list (each element) or a dict (each value) whose
    items ``_codec`` compiled to ``item``."""
    fits, from_json, _, expected = item

    def elements(value):
        pairs = value.items() if container is dict else enumerate(value)
        out = []
        for at, element in pairs:
            if type(element) not in fits:
                raise _expected(expected, element, at)
            if from_json is not None:
                try:
                    element = from_json(element)
                except _Mismatch as exc:
                    exc.path.append(at)
                    raise
            out.append((at, element) if container is dict else element)
        return container(out)

    return elements


def _record_codec(cls: type) -> tuple[Callable[[dict], object], Callable[[object], dict]]:
    """The from_json and to_json of a dataclass: each walks one table of the
    fields its constructor takes."""
    hints = get_type_hints(cls)
    fields = [(f, _codec(hints[f.name])) for f in dataclasses.fields(cls) if f.init]
    # Each field's default as a factory; MISSING when its key is required.
    reading = [
        (f.name, fits, from_json, expected,
         f.default_factory if f.default is dataclasses.MISSING else (lambda default=f.default: default))
        for f, (fits, from_json, _, expected) in fields
    ]
    writing = [(f.name, to_json, f.default is None) for f, (_, _, to_json, _) in fields]

    def record_from_json(obj: dict):
        values = []
        for key, fits, from_json, expected, default in reading:
            try:
                value = obj[key]
            except KeyError:
                if default is dataclasses.MISSING:
                    raise _Mismatch(f"missing {key!r}") from None
                values.append(default())
                continue
            if type(value) not in fits:
                raise _expected(expected, value, key)
            if from_json is not None:
                try:
                    value = from_json(value)
                except _Mismatch as exc:
                    exc.path.append(key)
                    raise
            values.append(value)
        try:
            return cls(*values)
        except ValueError as exc:
            raise _Mismatch(str(exc)) from None

    def record_to_json(record) -> dict:
        out = {}
        for name, to_json, omit_none in writing:
            value = getattr(record, name)
            if value is None and omit_none:
                continue
            out[name] = value if to_json is None else to_json(value)
        return out

    return record_from_json, record_to_json


def decode(cls: type[T], obj: object) -> T:
    """The ``cls`` record that JSON value ``obj`` holds; a value that does not
    fit raises ``DataError`` naming its path."""
    fits, from_json, _, expected = _codec(cls)
    try:
        if type(obj) not in fits:
            raise _expected(expected, obj)
        return from_json(obj)
    except _Mismatch as exc:
        path = "".join(f"[{at}]" if type(at) is int else f".{at}" for at in reversed(exc.path))
        raise DataError(f"{path.lstrip('.')}: {exc}" if path else str(exc)) from None


def encode(record: object) -> dict:
    """The JSON object for a record dataclass: every field its constructor
    takes, under its name, less the None values of fields whose default is
    None."""
    return _codec(type(record))[2](record)


def parse_jsonl(
    lines: Iterable[str],
    source: object,
    parse: Callable[[object, int], T],
    error: type[DataError],
) -> Iterator[T]:
    """Yield ``parse(obj, line_no)`` for each non-blank line, in order, as
    the line is read: a reader holds one record at a time unless it keeps
    them.

    A line that is not JSON, or whose ``parse`` raises ``DataError``,
    ``KeyError``, ``TypeError`` or ``ValueError``, is recorded and reading
    goes on; after the last line one ``error`` names every bad line, so a
    caller that acts on each record as it comes must be ready to see that
    error after the good ones. Input that is not UTF-8 raises ``error``
    naming ``source``.
    """
    errors: list[str] = []
    try:
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {line_no}: invalid JSON ({exc.msg})")
                continue
            try:
                record = parse(obj, line_no)
            except (DataError, KeyError, TypeError, ValueError) as exc:
                errors.append(f"line {line_no}: {exc}")
                continue
            yield record
    except UnicodeDecodeError as exc:
        raise error(f"{source}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    if errors:
        raise error(f"{source}: {len(errors)} error(s)\n" + "\n".join(errors))


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a new temp file beside ``path`` for writing (UTF-8 text unless
    ``binary``). When the block ends it replaces ``path``; when the block
    raises, it is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def post_json(
    url: str,
    payload: dict,
    *,
    api_key: str | None,
    timeout: float,
    retries: int,
    name: str,
    key: str,
    error: type[BackendError],
) -> tuple[object, int]:
    """POST ``payload`` and return ``(response[key], attempts made)``.

    Makes up to ``retries + 1`` attempts. Every failure raises ``error``
    with the attempts made; ``name`` ("chat", "embed") labels its message.
    """
    import requests

    request_id = str(uuid.uuid4())
    headers = {"X-Request-Id": request_id}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    logger.debug("%s request %s", name, request_id)
    last_error: Exception | None = None
    attempt = 0
    for attempt in range(1, retries + 2):
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            last_error = exc
        else:
            if resp.status_code < 500:
                break
            last_error = error(f"server error {resp.status_code}: {resp.text[:200]}", attempt)
        if attempt <= retries:  # back off between attempts, not after the last
            time.sleep(min(0.2 * attempt, 1.0))
    else:
        raise error(f"{name} endpoint unreachable after {attempt} attempt(s): {last_error}", attempt)
    if resp.status_code != 200:
        raise error(f"{name} endpoint returned {resp.status_code}: {resp.text[:200]}", attempt)
    try:
        return resp.json()[key], attempt
    except (ValueError, KeyError, TypeError) as exc:  # TypeError: the body is not an object
        raise error(f"malformed {name} response: {exc}", attempt) from exc
