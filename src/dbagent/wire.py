"""The one JSONL reader and the one HTTP POST every module shares.

``parse_jsonl`` reads every file format the package writes line by line:
blank lines are skipped and every bad line is collected, so one error lists
them all as ``<source>: N error(s)`` followed by one ``line L: ...`` each.

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
import time
import uuid
from typing import Callable, Iterable, TypeVar

from .errors import BackendError, DataError

__all__ = ["parse_jsonl", "post_json"]

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
