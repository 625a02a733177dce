"""The one JSONL reader, the one atomic file write and the one HTTP POST
every module shares.

``parse_jsonl`` reads every file format the package writes line by line:
blank lines are skipped and every bad line is collected, so one error lists
them all as ``<source>: N error(s)`` followed by one ``line L: ...`` each.

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

import json
import logging
import os
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, TypeVar

from .errors import BackendError, DataError

__all__ = ["atomic_write", "parse_jsonl", "post_json"]

logger = logging.getLogger(__name__)

T = TypeVar("T")


def parse_jsonl(
    lines: Iterable[str],
    source: object,
    parse: Callable[[object, int], T],
    error: type[DataError],
) -> list[T]:
    """Return ``parse(obj, line_no)`` for each non-blank line, in order.

    A line that is not JSON, or whose ``parse`` raises ``DataError``,
    ``KeyError``, ``TypeError`` or ``ValueError``, is recorded and reading
    goes on; at the end one ``error`` names every bad line. Input that is
    not UTF-8 raises ``error`` naming ``source``.
    """
    out: list[T] = []
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
                out.append(parse(obj, line_no))
            except (DataError, KeyError, TypeError, ValueError) as exc:
                errors.append(f"line {line_no}: {exc}")
    except UnicodeDecodeError as exc:
        raise error(f"{source}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    if errors:
        raise error(f"{source}: {len(errors)} error(s)\n" + "\n".join(errors))
    return out


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
