"""Chat-model access: a remote HTTP backend and a file-scripted backend.

Both expose the same duck-typed surface::

    backend.complete(messages, params, turn_index=0) -> str

and both honor stop sequences the same way: the returned text never extends
past the first stop sequence, and the stop sequence itself is included. The
closing action tags are always part of the stop set, so a well-behaved
generation ends exactly at its action tag.

The scripted backend replays a JSONL rule file and is a pure function of
(rules, messages, turn_index); it exists so rollouts, the trajectory
factory, and CI can run without a model server. Each rule's pattern is
compiled once, with DOTALL, when the rule is built, so a call compiles
nothing however many rules the script holds.

A call costs what its message costs, not what the script costs. When the
backend is built, a small scanner reads each pattern's source for the
literal runs every match must contain: plain characters and escaped
punctuation outside any class, ended by any escape letter (``\\A``,
``\\n``, ``\\b``, ``\\d``...), class, anchor, ``.`` or quantifier; a
quantifier also drops the character it repeats, and a pattern holding
``(``, ``|`` or ``{`` has no runs. A pattern rule whose runs hold a gram of
``_GRAM`` (8) characters is keyed on the rarest such gram, the one the
fewest runs of the script hold (ties by the gram itself). ``complete``
runs, in script order, only the rules whose key occurs in the last user
message, the rules for its turn, and the unkeyed pattern rules, which are
checked on every call. A rule whose key is absent cannot match, so the
first match is the one a scan of every rule finds.

To find the keys in a message, ``complete`` scans it once with one compiled
probe, a lookahead that reads the ``_GRAM`` characters at each position
holding some key's first character, and looks those grams up in the key
set. Every gram that could be a key is read, so the answer is the one that
cutting every gram of the message gives; a message costs least when few of
its characters start a key, as with sample tags that all start with ``[``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Sequence

from .errors import BackendError, DataError
from .protocol import CLOSING_ACTION_TAGS
from .wire import parse_jsonl, post_json

__all__ = [
    "ChatMessage",
    "GenerationParams",
    "EmptyGenerationError",
    "ChatBackendError",
    "ScriptError",
    "ScriptedRule",
    "ScriptedBackend",
    "HttpChatBackend",
    "load_script",
    "truncate_at_stop",
]

class ChatBackendError(BackendError):
    """The chat backend failed or returned an unusable response."""


class EmptyGenerationError(ChatBackendError):
    """The backend produced no text (or no scripted rule matched)."""


class ScriptError(DataError):
    """Scripted-backend rule file failed validation."""


@dataclass(frozen=True)
class ChatMessage:
    """One chat message. ``images`` carries refs the server resolves."""

    role: str
    content: str
    images: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown chat role: {self.role!r}")
        if not self.content and not self.images:
            raise ValueError("chat message needs content or an image attachment")


@dataclass
class GenerationParams:
    temperature: float = 0.0
    max_new_tokens: int = 1024
    stop_sequences: list[str] = field(default_factory=lambda: list(CLOSING_ACTION_TAGS))

    def __post_init__(self) -> None:
        # The closing action tags are non-negotiable members of the stop set.
        # The caller's list is copied, never extended.
        self.stop_sequences = list(self.stop_sequences)
        for tag in CLOSING_ACTION_TAGS:
            if tag not in self.stop_sequences:
                self.stop_sequences.append(tag)


def truncate_at_stop(text: str, stop_sequences: Sequence[str]) -> str:
    """Cut at the earliest stop sequence, keeping the stop sequence itself."""
    best: int | None = None
    for stop in stop_sequences:
        pos = text.find(stop)
        if pos >= 0:
            end = pos + len(stop)
            if best is None or end < best:
                best = end
    return text if best is None else text[:best]


@dataclass(frozen=True)
class ScriptedRule:
    """Exactly one of ``turn_index`` and ``pattern`` is set; both or neither
    raises ``ValueError``.

    ``pattern`` is a regex searched against the most recent user-role message
    content. It is compiled once, with DOTALL, when the rule is built (a bad
    pattern raises ``re.error`` then), and the compiled object is left out of
    eq, repr and hash.
    """

    output: str
    turn_index: int | None = None
    pattern: str | None = None
    _regex: re.Pattern[str] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.turn_index is None) == (self.pattern is None):
            raise ValueError("scripted rule needs exactly one of turn_index/pattern")
        if self.pattern is not None:
            object.__setattr__(self, "_regex", re.compile(self.pattern, re.DOTALL))

    def matches(self, last_user_content: str, turn_index: int) -> bool:
        if self._regex is None:
            return self.turn_index == turn_index
        return self._regex.search(last_user_content) is not None


# The length of the literal grams that key pattern rules. Eight keys each
# rule of a recorded factory replay on its sample tag.
_GRAM = 8

# A scan of a compiled pattern's source, token by token. Group 1 is a run:
# plain characters and escaped punctuation, less a last one that a
# quantifier repeats. The other tokens end a run: any other escape (an
# escape letter or digit with its argument, or escaped punctuation under a
# quantifier), a class, and any one character (``.``, ``^``, ``$``, a
# quantifier or the character it repeats). The pattern compiled, so each
# escape's argument is well formed.
_TOKENS = re.compile(
    r"((?:[^\\\[.^$*+?]+|\\[^A-Za-z0-9])+)(?![*+?])"
    r"|\\(?:x..|u.{4}|U.{8}|[0-9]+|.)"
    r"|\[\^?\]?(?:\\.|[^\\\]])*\]"
    r"|.",
    re.DOTALL,
)


def _escaped_runs(pattern: str) -> list[str]:
    """The literal runs that every match of ``pattern`` (compiled with
    DOTALL) contains, as the pattern writes them: ``_unescape`` gives their
    text. See the module docstring. Conservative: a pattern holding ``(``,
    ``|`` or ``{`` has none."""
    if "(" in pattern or "|" in pattern or "{" in pattern:
        return []
    return list(filter(None, _TOKENS.findall(pattern)))


def _grams(text: str) -> set[str]:
    """The distinct ``_GRAM``-character grams of ``text``, ranked when the
    backend is built; a call probes for keys instead."""
    return {text[i : i + _GRAM] for i in range(len(text) - _GRAM + 1)}


def _unescape(run: str) -> str:
    """A run's text. Each backslash in a run escapes the character after
    it, so pairs of backslashes, taken from the left, stand for one."""
    return "\\".join([part.replace("\\", "") for part in run.split("\\\\")])


class ScriptedBackend:
    """Deterministic replay backend driven by first-match-wins rules.

    ``rules`` is a tuple: the dispatch index built from it, and the probe
    that finds its keys in a message (module docstring), cannot go stale.
    """

    def __init__(self, rules: Sequence[ScriptedRule]):
        self.rules = tuple(rules)
        runs_of = [_escaped_runs(rule.pattern) if rule.pattern is not None else [] for rule in self.rules]
        # How rare a gram is: how many runs of the script hold it. A script
        # repeats most of its runs, so each distinct run is unescaped, cut
        # and ranked once.
        run_counts = Counter(chain.from_iterable(runs_of))
        grams_of_run = {run: _grams(_unescape(run)) for run in run_counts}
        gram_counts: Counter[str] = Counter()
        for run, grams in grams_of_run.items():
            for gram in grams:
                gram_counts[gram] += run_counts[run]
        rarest_of_run = {
            run: min(zip(map(gram_counts.__getitem__, grams), grams))
            for run, grams in grams_of_run.items()
            if grams
        }
        self._by_key: dict[str, list[int]] = {}
        self._by_turn: dict[int, list[int]] = {}
        self._unkeyed: list[int] = []
        for i, (rule, runs) in enumerate(zip(self.rules, runs_of)):
            ranked = [rarest_of_run[run] for run in runs if run in rarest_of_run]
            if rule.pattern is None:
                self._by_turn.setdefault(rule.turn_index, []).append(i)
            elif ranked:
                self._by_key.setdefault(min(ranked)[1], []).append(i)
            else:
                self._unkeyed.append(i)
        self._keys = frozenset(self._by_key)
        # ``findall`` gives the gram at each position of a message that holds
        # a key's first character (module docstring); None when no rule is
        # keyed.
        firsts = "".join(sorted({re.escape(key[0]) for key in self._keys}))
        self._probe = re.compile(rf"(?=([{firsts}].{{{_GRAM - 1}}}))", re.DOTALL) if firsts else None

    def complete(
        self,
        messages: Sequence[ChatMessage],
        params: GenerationParams,
        turn_index: int = 0,
    ) -> str:
        last_user = next((m.content for m in reversed(messages) if m.role == "user"), "")
        candidates = self._unkeyed + self._by_turn.get(turn_index, [])
        if self._probe is not None:
            for key in self._keys.intersection(self._probe.findall(last_user)):
                candidates += self._by_key[key]
        for i in sorted(candidates):
            rule = self.rules[i]
            if rule.matches(last_user, turn_index):
                return truncate_at_stop(rule.output, params.stop_sequences)
        raise EmptyGenerationError(f"no scripted rule matched turn {turn_index}")


def load_script(path: str | Path) -> ScriptedBackend:
    """Load JSONL rules: {"match": {"turn_index": N} | {"pattern": S}, "output": S}."""

    def parse(obj: object, line_no: int) -> ScriptedRule:
        if not isinstance(obj, dict) or not isinstance(obj.get("match"), dict):
            raise ScriptError("rule needs a 'match' object")
        if not isinstance(obj.get("output"), str) or not obj["output"]:
            raise ScriptError("rule needs a non-empty 'output' string")
        match = obj["match"]
        if ("turn_index" in match) == ("pattern" in match):
            raise ScriptError("match needs exactly one of 'turn_index'/'pattern'")
        # bool is an int subclass, but JSON true is not a turn number.
        if "turn_index" in match and (
            not isinstance(match["turn_index"], int) or isinstance(match["turn_index"], bool)
        ):
            raise ScriptError("'turn_index' must be an integer")
        if "pattern" in match and not isinstance(match["pattern"], str):
            raise ScriptError("'pattern' must be a string")
        try:
            return ScriptedRule(
                output=obj["output"],
                turn_index=match.get("turn_index"),
                pattern=match.get("pattern"),
            )
        except re.error as exc:
            raise ScriptError(f"bad pattern: {exc}") from exc

    with Path(path).open("r", encoding="utf-8") as fh:
        return ScriptedBackend(list(parse_jsonl(fh, path, parse, ScriptError)))


@dataclass
class HttpChatBackend:
    """Client for a POST /chat endpoint.

    Request: {"messages": [{"role", "content", "images"?}], "temperature",
    "max_tokens", "stop"}; response: {"text": str}. Requests carry a
    client-generated X-Request-Id that is reused across retries of the same
    call, so server-side dedup is possible and the id is logged once.
    """

    url: str
    api_key: str | None = None
    timeout: float = 60.0
    retries: int = 2

    def complete(
        self,
        messages: Sequence[ChatMessage],
        params: GenerationParams,
        turn_index: int = 0,
    ) -> str:
        payload_messages = []
        for m in messages:
            entry: dict = {"role": m.role, "content": m.content}
            if m.images:
                entry["images"] = list(m.images)
            payload_messages.append(entry)
        payload = {
            "messages": payload_messages,
            "temperature": params.temperature,
            "max_tokens": params.max_new_tokens,
            "stop": list(params.stop_sequences),
        }
        text, _ = post_json(
            self.url, payload, api_key=self.api_key, timeout=self.timeout, retries=self.retries,
            name="chat", key="text", error=ChatBackendError,
        )
        if not isinstance(text, str) or not text.strip():
            raise EmptyGenerationError("chat endpoint returned empty text")
        return truncate_at_stop(text, params.stop_sequences)
