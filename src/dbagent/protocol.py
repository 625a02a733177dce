"""Turn grammar for the search agent: parsing, validation, rendering.

A turn is a single model generation. Canonically it starts with one
``<think>`` block, optionally carries one ``<caption>`` block, and ends with
exactly one action tag. The grammar (also in ``docs/tag-grammar.md``):

    turn         = think , [ caption ] , action ;
    think        = "<think>" , text , "</think>" ;
    caption      = "<caption>" , text , "</caption>" ;
    action       = answer | text-search | image-search ;
    answer       = "<answer>" , text , "</answer>" ;
    text-search  = "<text_search>" , text , "</text_search>" ;
    image-search = "<image_search>" , "image_path" , "</image_search>" ;

Tag names are case-sensitive and lowercase. Inner text is trimmed of
surrounding whitespace; internal whitespace (including newlines) is
preserved. ``<image_search>`` payloads must be the literal placeholder
``image_path``: the runtime always re-queries the original input image.

Parsing is total. Any string yields a (possibly absent) record plus the full
list of violations found, never an exception. Surrounding whitespace around
the whole turn is tolerated by the parser; the canonical serialization emits
none. Whitespace is Unicode whitespace (``str.isspace``) throughout.

A parse is one walk over the turn's tag tokens: ``str.find`` jumps to each
``<`` and the tag pattern is matched there. Each token is read once; blocks
are paired as the walk goes, each violation is recorded where it is found,
and the text between tags is checked gap by gap. No step loops over the
turn's characters in Python.

A ``TurnRecord`` is built from its raw text alone: one parse, made when the
record is built, fills its think, action, payload, caption (and the caption
block's span) and intra-turn violations, so a record cannot disagree with
its raw, and validation reads those violations instead of parsing again. A
raw that yields no record cannot be built into one; ``parse_turn`` is the
total entry point.

This module holds the rules of one turn: the grammar, and in
``validate_in_context`` the rules that depend on the turns before it. The
rules of a whole trajectory (which turns may follow which, and one evidence
block per search) live in ``runtime.Trajectory``, which applies these to
each of its turns when it is built.

Evidence is environment-emitted, never model-emitted. An ``EvidenceBlock``
holds the retrieved items (or the message of a tool that failed) of one
search turn; it pairs with that turn by position among the trajectory's
search turns, and its ``rendered`` text is derived from its items as::

    <evidence>
    [1] {title} — {heading}: {text}
    </evidence>

with one line per item, ``[no results]`` when retrieval returned nothing,
and ``[tool error] {message}`` when the tool failed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Sequence

__all__ = [
    "ActionKind",
    "ViolationCode",
    "ProtocolViolation",
    "TurnRecord",
    "EvidenceItem",
    "EvidenceBlock",
    "MAX_TURN_CHARS",
    "IMAGE_PAYLOAD",
    "CLOSING_ACTION_TAGS",
    "parse_turn",
    "validate_in_context",
    "serialize_turn",
    "make_turn",
    "render_evidence",
    "render_tool_error",
    "extract_final_answer",
]

THINK = "think"
CAPTION = "caption"
AGENT_TAGS = ("think", "caption", "answer", "text_search", "image_search")
ACTION_TAG_NAMES = ("answer", "text_search", "image_search")
CLOSING_ACTION_TAGS = ("</answer>", "</text_search>", "</image_search>")

IMAGE_PAYLOAD = "image_path"
NO_RESULTS_LINE = "[no results]"
MAX_TURN_CHARS = 65_536

_TAG_TOKEN = re.compile(r"<(/?)([A-Za-z_][A-Za-z0-9_]*)>")


class ActionKind(Enum):
    ANSWER = "answer"
    TEXT_SEARCH = "text_search"
    IMAGE_SEARCH = "image_search"


class ViolationCode(Enum):
    MISSING_THINK = "MissingThink"
    MULTIPLE_ACTIONS = "MultipleActions"
    NO_ACTION = "NoAction"
    TRAILING_TEXT = "TrailingText"
    BAD_IMAGE_PAYLOAD = "BadImagePayload"
    CAPTION_MISPLACED = "CaptionMisplaced"
    CAPTION_WITHOUT_PRIOR_IMAGE_SEARCH = "CaptionWithoutPriorImageSearch"
    UNKNOWN_TAG = "UnknownTag"
    INPUT_TOO_LONG = "InputTooLong"


@dataclass(frozen=True, slots=True)
class ProtocolViolation:
    """One grammar or context problem, located by a char span in the raw turn."""

    code: ViolationCode
    span: tuple[int, int]
    message: str


_span = attrgetter("span")
_ACTION_KINDS = {kind.value: kind for kind in ActionKind}
# The code of a known open tag that is never closed; an action's is NoAction.
_UNCLOSED = {THINK: ViolationCode.MISSING_THINK, CAPTION: ViolationCode.CAPTION_MISPLACED}


class _Unparsed(ValueError):
    """A raw turn without the think/action skeleton a record needs."""

    def __init__(self, violations: list[ProtocolViolation]):
        super().__init__()
        self.violations = violations

    def __str__(self) -> str:  # built when shown: parse_turn drops the error unread
        codes = ", ".join(dict.fromkeys(v.code.value for v in self.violations))
        return f"raw does not parse ({codes})"


@dataclass(frozen=True, slots=True)
class TurnRecord:
    """A turn: ``raw`` as generated, and what one parse of it finds.

    Only ``raw`` is given. The other fields are filled at construction by
    parsing it, so a record always holds what its raw says: the trimmed
    think, action, payload and caption, the span of the caption block (None
    without one), and the intra-turn grammar ``violations`` sorted by span.
    A raw with no think/action skeleton raises ``ValueError``.
    """

    raw: str
    think: str = field(init=False)
    action: ActionKind = field(init=False)
    action_payload: str = field(init=False)
    caption: str | None = field(init=False)
    caption_span: tuple[int, int] | None = field(init=False, repr=False)
    violations: tuple[ProtocolViolation, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        parts, violations = _parse(self.raw)
        if parts is None:
            raise _Unparsed(violations)
        think, action, payload, caption, caption_span = parts
        set_field = object.__setattr__  # the record is frozen
        set_field(self, "think", think)
        set_field(self, "action", action)
        set_field(self, "action_payload", payload)
        set_field(self, "caption", caption)
        set_field(self, "caption_span", caption_span)
        set_field(self, "violations", tuple(violations))


@dataclass(frozen=True, slots=True)
class EvidenceItem:
    """One retrieved item, already resolved to article text for rendering."""

    article_id: str
    title: str
    heading: str
    text: str
    score: float
    section_id: str | None = None


@dataclass(frozen=True, slots=True)
class EvidenceBlock:
    """What one search turn's tool returned: the retrieved ``items``, or the
    ``error`` message of a tool that failed."""

    items: tuple[EvidenceItem, ...]
    error: str | None = None

    @property
    def rendered(self) -> str:
        """The block exactly as the model sees it, byte for byte the same
        for the same fields (see the module docstring)."""
        if self.error is not None:
            lines = [f"[tool error] {_flatten(self.error)}"]
        elif self.items:
            lines = [
                f"[{i}] {_flatten(item.title)} — {_flatten(item.heading)}: {_flatten(item.text)}"
                for i, item in enumerate(self.items, start=1)
            ]
        else:
            lines = [NO_RESULTS_LINE]
        return "\n".join(["<evidence>", *lines, "</evidence>"])


def parse_turn(raw: str) -> tuple[TurnRecord | None, list[ProtocolViolation]]:
    """Parse one model turn.

    Total over arbitrary strings. Returns the recovered record (or None when
    the think/action skeleton cannot be found) together with every violation
    detected, not just the first. A turn is well-formed iff the violation
    list is empty.
    """
    try:
        record = TurnRecord(raw)
    except _Unparsed as exc:
        return None, exc.violations
    return record, list(record.violations)


def _parse(
    raw: str,
) -> tuple[tuple[str, ActionKind, str, str | None, tuple[int, int] | None] | None, list[ProtocolViolation]]:
    """The one parse of a turn: (think, action, payload, caption, caption
    span), or None without the skeleton, and every violation sorted by span.
    The caption and its span are those of the first caption block.

    One walk over the tag tokens pairs each known open tag with the next
    known tag when that closes it, into blocks held as (start, inner_start,
    inner_end, end, name). The text between two tokens is a gap, and a gap
    no block holds is unaccounted text; whether a block holds the gaps after
    an open tag is known when the next known tag comes, so they are held
    until then.
    """
    size = len(raw)
    if size > MAX_TURN_CHARS:
        message = f"turn exceeds {MAX_TURN_CHARS} characters ({size})"
        return None, [ProtocolViolation(ViolationCode.INPUT_TOO_LONG, (0, MAX_TURN_CHARS), message)]

    thinks: list[tuple[int, int, int, int, str]] = []
    captions: list[tuple[int, int, int, int, str]] = []
    actions: list[tuple[int, int, int, int, str]] = []
    blocks_of = {THINK: thinks, CAPTION: captions, "answer": actions, "text_search": actions,
                 "image_search": actions}
    violations: list[ProtocolViolation] = []
    add = violations.append
    gaps: list[tuple[int, int]] = []
    held: list[tuple[int, int]] = []
    pending: tuple[str, int, int] | None = None  # (name, start, inner_start) of the open tag
    last = 0  # end of the previous token

    start = raw.find("<")
    while start >= 0:
        token = _TAG_TOKEN.match(raw, start)
        if token is None:
            start = raw.find("<", start + 1)
            continue
        end = token.end()
        close, name = token.groups()
        blocks = blocks_of.get(name)
        if blocks is None:
            message = f"tag <{name}> is not part of the agent tag set"
            add(ProtocolViolation(ViolationCode.UNKNOWN_TAG, (start, end), message))
            if last < start:
                (gaps if pending is None else held).append((last, start))
        elif close and pending is not None and pending[0] == name:
            blocks.append((pending[1], pending[2], start, end, name))
            pending = None
            held = []
        else:
            if pending is not None:
                code = _UNCLOSED.get(pending[0], ViolationCode.NO_ACTION)
                add(ProtocolViolation(code, pending[1:], f"tag <{pending[0]}> is never closed"))
                gaps += held
                held = []
                pending = None
            if last < start:
                gaps.append((last, start))
            if close:
                message = f"closing tag </{name}> has no matching open tag"
                add(ProtocolViolation(ViolationCode.TRAILING_TEXT, (start, end), message))
            else:
                pending = (name, start, end)
        last = end
        start = raw.find("<", end)
    if pending is not None:
        code = _UNCLOSED.get(pending[0], ViolationCode.NO_ACTION)
        add(ProtocolViolation(code, pending[1:], f"tag <{pending[0]}> is never closed"))
        gaps += held
    if last < size:
        gaps.append((last, size))

    lead = size - len(raw.lstrip())
    if not thinks or thinks[0][0] != lead:
        message = "turn must begin with a <think> block"
        add(ProtocolViolation(ViolationCode.MISSING_THINK, (lead, min(size, lead + 7)), message))
    for extra in thinks[1:]:
        add(ProtocolViolation(ViolationCode.TRAILING_TEXT, (extra[0], extra[3]), "duplicate <think> block"))

    if not actions:
        if not any(v.code is ViolationCode.NO_ACTION for v in violations):
            message = "turn has no action tag (<answer>, <text_search>, or <image_search>)"
            add(ProtocolViolation(ViolationCode.NO_ACTION, (max(0, size - 1), size), message))
    elif len(actions) > 1:
        names = ", ".join(f"<{action[4]}>" for action in actions)
        message = f"turn has {len(actions)} action tags ({names}); exactly one is allowed"
        add(ProtocolViolation(ViolationCode.MULTIPLE_ACTIONS, (actions[1][0], actions[-1][3]), message))

    if captions:
        first = captions[0]
        lo = thinks[0][3] if thinks else 0
        hi = actions[0][0] if actions else size
        if first[0] < lo or first[3] > hi:
            message = "<caption> may appear only between </think> and the action tag"
            add(ProtocolViolation(ViolationCode.CAPTION_MISPLACED, (first[0], first[3]), message))
        for extra in captions[1:]:
            add(ProtocolViolation(ViolationCode.CAPTION_MISPLACED, (extra[0], extra[3]), "duplicate <caption> block"))

    # Text after the final action tag is flagged as one span, so the gaps
    # there are left out; no gap straddles that tag's end.
    limit = size
    if actions:
        limit = actions[-1][3]
        tail = raw[limit:].lstrip()
        if tail:
            message = "text after the closing action tag"
            add(ProtocolViolation(ViolationCode.TRAILING_TEXT, (size - len(tail), size), message))
    # A gap holds at most one run, from its first non-whitespace character to its last.
    for start, end in gaps:
        rest = raw[start:end].lstrip() if start < limit else ""
        if rest:
            first_char = end - len(rest)
            span = (first_char, first_char + len(rest.rstrip()))
            add(ProtocolViolation(ViolationCode.TRAILING_TEXT, span, "unexpected text between tags"))

    parts = None
    if actions:
        _, inner_start, inner_end, _, name = actions[0]
        payload = raw[inner_start:inner_end].strip()
        if name == "image_search" and payload != IMAGE_PAYLOAD:
            message = f"<image_search> payload must be exactly '{IMAGE_PAYLOAD}', got {payload!r}"
            add(ProtocolViolation(ViolationCode.BAD_IMAGE_PAYLOAD, (inner_start, inner_end), message))
        if thinks:
            think = raw[thinks[0][1] : thinks[0][2]].strip()
            caption = raw[captions[0][1] : captions[0][2]].strip() if captions else None
            caption_span = (captions[0][0], captions[0][3]) if captions else None
            parts = (think, _ACTION_KINDS[name], payload, caption, caption_span)
    violations.sort(key=_span)
    return parts, violations


def validate_in_context(
    turn: TurnRecord,
    history: Sequence[TurnRecord],
    mode: str = "strict",
) -> list[ProtocolViolation]:
    """Validate a turn against the turns that precede it.

    ``strict`` reports the intra-turn grammar violations (``turn.violations``,
    found when the turn was parsed) and adds the contextual rules: a caption
    requires a prior image-search turn, and a caption may not ride on an
    answer turn. ``lenient`` reports only intra-turn grammar and downgrades
    UnknownTag to a warning. Strict findings are always a superset of
    lenient findings for the same input. Nothing is parsed here.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown validation mode: {mode!r}")
    if mode == "lenient":
        return [v for v in turn.violations if v.code is not ViolationCode.UNKNOWN_TAG]

    out = list(turn.violations)
    if turn.caption is not None:
        span = turn.caption_span
        if not any(t.action is ActionKind.IMAGE_SEARCH for t in history):
            out.append(
                ProtocolViolation(
                    ViolationCode.CAPTION_WITHOUT_PRIOR_IMAGE_SEARCH,
                    span,
                    "<caption> requires an earlier <image_search> turn",
                )
            )
        if turn.action is ActionKind.ANSWER:
            out.append(
                ProtocolViolation(
                    ViolationCode.CAPTION_MISPLACED,
                    span,
                    "<caption> is not allowed on an answer turn",
                )
            )
    out.sort(key=_span)
    return out


def _canonical(think: str, action: ActionKind, payload: str, caption: str | None) -> str:
    caption_tag = "" if caption is None else f"<caption>{caption}</caption>"
    return f"<think>{think}</think>{caption_tag}<{action.value}>{payload}</{action.value}>"


def serialize_turn(turn: TurnRecord) -> str:
    """Canonical re-emission: think, optional caption, then the action tag."""
    return _canonical(turn.think, turn.action, turn.action_payload, turn.caption)


def make_turn(
    think: str,
    action: ActionKind,
    payload: str,
    caption: str | None = None,
) -> TurnRecord:
    """The record that the canonical serialization of these parts, trimmed,
    parses to: its raw equals its serialization whenever the parts hold no
    tags. Raises ``ValueError`` when the serialization does not parse."""
    return TurnRecord(_canonical(think.strip(), action, payload.strip(), None if caption is None else caption.strip()))


def _flatten(text: str) -> str:
    """One physical line per evidence item: fold internal newlines to spaces."""
    return " ".join(text.split("\n"))


def render_evidence(items: Sequence[EvidenceItem]) -> EvidenceBlock:
    """The evidence block of retrieval output; its ``rendered`` is what the
    model sees.

    Format: ``<evidence>\\n[i] {title} — {heading}: {text}\\n</evidence>``,
    items numbered from 1 in rank order; ``[no results]`` when empty.
    Rendering is deterministic byte-for-byte given identical items.
    """
    return EvidenceBlock(items=tuple(items))


def render_tool_error(message: str) -> EvidenceBlock:
    """Sentinel evidence for a tool that failed: renders as
    ``[tool error] {message}``."""
    return EvidenceBlock(items=(), error=message)


def extract_final_answer(turns: Sequence[TurnRecord]) -> str | None:
    """Payload of the last answer turn, or None if no turn answered."""
    for turn in reversed(turns):
        if turn.action is ActionKind.ANSWER:
            return turn.action_payload
    return None
