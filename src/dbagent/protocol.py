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

A parse is one regex pass over the turn plus Python work per tag span; no
step loops over the turn's characters in Python.

Evidence is environment-emitted, never model-emitted, and renders as::

    <evidence>
    [1] {title} — {heading}: {text}
    </evidence>

with one line per item, ``[no results]`` when retrieval returned nothing,
and ``[tool error] {message}`` when the tool failed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from enum import Enum
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
    "check_stored_turn",
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

_TAG_TOKEN = re.compile(r"</?([A-Za-z_][A-Za-z0-9_]*)>")


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


@dataclass(frozen=True, slots=True)
class TurnRecord:
    """A parsed turn. Field text is trimmed; ``raw`` is the input as given."""

    think: str
    action: ActionKind
    action_payload: str = field(metadata={"json": "payload"})
    raw: str
    caption: str | None = None


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
    items: tuple[EvidenceItem, ...]
    turn_index: int
    rendered: str


@dataclass(frozen=True, slots=True)
class _Block:
    name: str
    start: int
    inner_start: int
    inner_end: int
    end: int


def _scan_blocks(raw: str) -> tuple[list[_Block], list[ProtocolViolation], list[tuple[int, int]]]:
    """Tokenize tags and pair known open/close tags into blocks.

    Returns (blocks in document order, violations from malformed tag usage,
    spans of raw already accounted for by tags/blocks/violations).
    """
    violations: list[ProtocolViolation] = []
    accounted: list[tuple[int, int]] = []
    blocks: list[_Block] = []
    pending: tuple[str, int, int] | None = None  # (name, start, inner_start)

    for match in _TAG_TOKEN.finditer(raw):
        name = match.group(1)
        is_close = raw[match.start() + 1] == "/"
        span = (match.start(), match.end())
        if name not in AGENT_TAGS:
            violations.append(
                ProtocolViolation(
                    ViolationCode.UNKNOWN_TAG,
                    span,
                    f"tag <{name}> is not part of the agent tag set",
                )
            )
            accounted.append(span)
            continue
        if not is_close:
            if pending is not None:
                violations.append(_unclosed(pending, raw))
                accounted.append((pending[1], pending[2]))
            pending = (name, match.start(), match.end())
        else:
            if pending is not None and pending[0] == name:
                blocks.append(_Block(name, pending[1], pending[2], match.start(), match.end()))
                accounted.append((pending[1], match.end()))
                pending = None
            else:
                if pending is not None:
                    violations.append(_unclosed(pending, raw))
                    accounted.append((pending[1], pending[2]))
                    pending = None
                violations.append(
                    ProtocolViolation(
                        ViolationCode.TRAILING_TEXT,
                        span,
                        f"closing tag </{name}> has no matching open tag",
                    )
                )
                accounted.append(span)
    if pending is not None:
        violations.append(_unclosed(pending, raw))
        accounted.append((pending[1], pending[2]))
    return blocks, violations, accounted


def _unclosed(pending: tuple[str, int, int], raw: str) -> ProtocolViolation:
    name, start, inner_start = pending
    span = (start, inner_start)
    if name == THINK:
        code = ViolationCode.MISSING_THINK
    elif name == CAPTION:
        code = ViolationCode.CAPTION_MISPLACED
    else:
        code = ViolationCode.NO_ACTION
    return ProtocolViolation(code, span, f"tag <{name}> is never closed")


def parse_turn(raw: str) -> tuple[TurnRecord | None, list[ProtocolViolation]]:
    """Parse one model turn.

    Total over arbitrary strings. Returns the recovered record (or None when
    the think/action skeleton cannot be found) together with every violation
    detected, not just the first. A turn is well-formed iff the violation
    list is empty.
    """
    if len(raw) > MAX_TURN_CHARS:
        return None, [
            ProtocolViolation(
                ViolationCode.INPUT_TOO_LONG,
                (0, MAX_TURN_CHARS),
                f"turn exceeds {MAX_TURN_CHARS} characters ({len(raw)})",
            )
        ]

    blocks, violations, accounted = _scan_blocks(raw)
    thinks = [b for b in blocks if b.name == THINK]
    captions = [b for b in blocks if b.name == CAPTION]
    actions = [b for b in blocks if b.name in ACTION_TAG_NAMES]

    lead = len(raw) - len(raw.lstrip())
    if not thinks or thinks[0].start != lead:
        violations.append(
            ProtocolViolation(
                ViolationCode.MISSING_THINK,
                (lead, min(len(raw), lead + 7)),
                "turn must begin with a <think> block",
            )
        )
    for extra in thinks[1:]:
        violations.append(
            ProtocolViolation(
                ViolationCode.TRAILING_TEXT,
                (extra.start, extra.end),
                "duplicate <think> block",
            )
        )

    if not actions:
        if not any(v.code is ViolationCode.NO_ACTION for v in violations):
            violations.append(
                ProtocolViolation(
                    ViolationCode.NO_ACTION,
                    (max(0, len(raw) - 1), len(raw)),
                    "turn has no action tag (<answer>, <text_search>, or <image_search>)",
                )
            )
    elif len(actions) > 1:
        names = ", ".join(f"<{b.name}>" for b in actions)
        violations.append(
            ProtocolViolation(
                ViolationCode.MULTIPLE_ACTIONS,
                (actions[1].start, actions[-1].end),
                f"turn has {len(actions)} action tags ({names}); exactly one is allowed",
            )
        )

    if captions:
        first = captions[0]
        lo = thinks[0].end if thinks else 0
        hi = actions[0].start if actions else len(raw)
        if first.start < lo or first.end > hi:
            violations.append(
                ProtocolViolation(
                    ViolationCode.CAPTION_MISPLACED,
                    (first.start, first.end),
                    "<caption> may appear only between </think> and the action tag",
                )
            )
        for extra in captions[1:]:
            violations.append(
                ProtocolViolation(
                    ViolationCode.CAPTION_MISPLACED,
                    (extra.start, extra.end),
                    "duplicate <caption> block",
                )
            )

    if actions:
        tail = raw[actions[-1].end :]
        if tail.strip():
            start = actions[-1].end + (len(tail) - len(tail.lstrip()))
            violations.append(
                ProtocolViolation(
                    ViolationCode.TRAILING_TEXT,
                    (start, len(raw)),
                    "text after the closing action tag",
                )
            )

    for start, end in _unaccounted_runs(raw, accounted, blocks):
        violations.append(
            ProtocolViolation(
                ViolationCode.TRAILING_TEXT,
                (start, end),
                "unexpected text between tags",
            )
        )

    action_kind: ActionKind | None = None
    payload = ""
    if actions:
        action_kind = ActionKind(actions[0].name)
        payload = raw[actions[0].inner_start : actions[0].inner_end].strip()
        if action_kind is ActionKind.IMAGE_SEARCH and payload != IMAGE_PAYLOAD:
            violations.append(
                ProtocolViolation(
                    ViolationCode.BAD_IMAGE_PAYLOAD,
                    (actions[0].inner_start, actions[0].inner_end),
                    f"<image_search> payload must be exactly '{IMAGE_PAYLOAD}', got {payload!r}",
                )
            )

    record: TurnRecord | None = None
    if thinks and action_kind is not None:
        record = TurnRecord(
            think=raw[thinks[0].inner_start : thinks[0].inner_end].strip(),
            action=action_kind,
            action_payload=payload,
            raw=raw,
            caption=(raw[captions[0].inner_start : captions[0].inner_end].strip() if captions else None),
        )
    violations.sort(key=lambda v: v.span)
    return record, violations


def _unaccounted_runs(
    raw: str, accounted: list[tuple[int, int]], blocks: list[_Block]
) -> list[tuple[int, int]]:
    """Non-whitespace char runs covered neither by a block nor a flagged token.

    Text after the final action tag is excluded here; it gets its own,
    more specific TrailingText violation.

    The accounted spans (non-empty, possibly overlapping) are walked in
    order; each gap between them up to ``limit`` holds at most one run,
    from its first non-whitespace character to its last.
    """
    actions = [b for b in blocks if b.name in ACTION_TAG_NAMES]
    limit = actions[-1].end if actions else len(raw)
    runs: list[tuple[int, int]] = []
    pos = 0
    for start, end in sorted(accounted) + [(limit, limit)]:
        stop = min(start, limit)
        rest = raw[pos:stop].lstrip()
        if rest:
            first = stop - len(rest)
            runs.append((first, first + len(rest.rstrip())))
        pos = max(pos, end)
        if pos >= limit:
            break
    return runs


def validate_in_context(
    turn: TurnRecord,
    history: Sequence[TurnRecord],
    mode: str = "strict",
    *,
    allow_caption_before_answer: bool = False,
    parsed_violations: Sequence[ProtocolViolation] | None = None,
) -> list[ProtocolViolation]:
    """Validate a parsed turn against the turns that precede it.

    ``strict`` re-checks the intra-turn grammar and adds the contextual
    rules: a caption requires a prior image-search turn, and (unless
    ``allow_caption_before_answer``) a caption may not ride on an answer
    turn. ``lenient`` checks only intra-turn grammar and downgrades
    UnknownTag to a warning. Strict findings are always a superset of
    lenient findings for the same input.

    ``parsed_violations``, when given, must be the violations
    ``parse_turn(turn.raw)`` returned; the intra-turn grammar is then taken
    from it instead of parsing ``turn.raw`` again.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown validation mode: {mode!r}")
    intra = parse_turn(turn.raw)[1] if parsed_violations is None else parsed_violations
    if mode == "lenient":
        return [v for v in intra if v.code is not ViolationCode.UNKNOWN_TAG]

    out = list(intra)
    if turn.caption is not None:
        span = _caption_span(turn.raw)
        if not any(t.action is ActionKind.IMAGE_SEARCH for t in history):
            out.append(
                ProtocolViolation(
                    ViolationCode.CAPTION_WITHOUT_PRIOR_IMAGE_SEARCH,
                    span,
                    "<caption> requires an earlier <image_search> turn",
                )
            )
        if turn.action is ActionKind.ANSWER and not allow_caption_before_answer:
            out.append(
                ProtocolViolation(
                    ViolationCode.CAPTION_MISPLACED,
                    span,
                    "<caption> is not allowed on an answer turn",
                )
            )
    out.sort(key=lambda v: v.span)
    return out


def check_stored_turn(turn: TurnRecord) -> list[ProtocolViolation]:
    """The violations ``parse_turn(turn.raw)`` finds, to hand to
    ``validate_in_context(parsed_violations=...)``, for a turn read back
    from a file. A stored turn is what its ``raw`` parses to: raises
    ``ValueError`` when ``raw`` yields no record, or one whose think,
    action, payload or caption differs from the stored field."""
    record, violations = parse_turn(turn.raw)
    if record is None:
        raise ValueError("raw does not parse")
    if record != turn:
        # raw is the same in both, so only the fields parsed from it differ.
        differ = [
            f.metadata.get("json", f.name) for f in fields(TurnRecord) if getattr(record, f.name) != getattr(turn, f.name)
        ]
        raise ValueError(f"stored {'/'.join(differ)} differs from what its raw parses to")
    return violations


def _caption_span(raw: str) -> tuple[int, int]:
    start = raw.find("<caption>")
    if start < 0:
        return (0, 0)
    end = raw.find("</caption>", start)
    return (start, end + len("</caption>") if end >= 0 else len(raw))


def serialize_turn(turn: TurnRecord) -> str:
    """Canonical re-emission: think, optional caption, then the action tag."""
    parts = [f"<think>{turn.think}</think>"]
    if turn.caption is not None:
        parts.append(f"<caption>{turn.caption}</caption>")
    tag = turn.action.value
    parts.append(f"<{tag}>{turn.action_payload}</{tag}>")
    return "".join(parts)


def make_turn(
    think: str,
    action: ActionKind,
    payload: str,
    caption: str | None = None,
) -> TurnRecord:
    """Build a canonical TurnRecord whose raw equals its serialization."""
    record = TurnRecord(
        think=think.strip(),
        action=action,
        action_payload=payload.strip(),
        raw="",
        caption=caption.strip() if caption is not None else None,
    )
    raw = serialize_turn(record)
    return TurnRecord(
        think=record.think,
        action=record.action,
        action_payload=record.action_payload,
        raw=raw,
        caption=record.caption,
    )


def _flatten(text: str) -> str:
    """One physical line per evidence item: fold internal newlines to spaces."""
    return " ".join(text.split("\n"))


def render_evidence(items: Sequence[EvidenceItem], turn_index: int) -> EvidenceBlock:
    """Render retrieval output exactly as the model sees it.

    Format: ``<evidence>\\n[i] {title} — {heading}: {text}\\n</evidence>``,
    items numbered from 1 in rank order; ``[no results]`` when empty.
    Rendering is deterministic byte-for-byte given identical items.
    """
    lines = ["<evidence>"]
    if items:
        for i, item in enumerate(items, start=1):
            lines.append(f"[{i}] {_flatten(item.title)} — {_flatten(item.heading)}: {_flatten(item.text)}")
    else:
        lines.append(NO_RESULTS_LINE)
    lines.append("</evidence>")
    return EvidenceBlock(items=tuple(items), turn_index=turn_index, rendered="\n".join(lines))


def render_tool_error(message: str, turn_index: int) -> EvidenceBlock:
    """Sentinel evidence for a tool that failed."""
    rendered = f"<evidence>\n[tool error] {_flatten(message)}\n</evidence>"
    return EvidenceBlock(items=(), turn_index=turn_index, rendered=rendered)


def extract_final_answer(turns: Sequence[TurnRecord]) -> str | None:
    """Payload of the last answer turn, or None if no turn answered."""
    for turn in reversed(turns):
        if turn.action is ActionKind.ANSWER:
            return turn.action_payload
    return None
