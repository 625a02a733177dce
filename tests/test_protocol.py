from __future__ import annotations

import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbagent import protocol
from dbagent.protocol import (
    ACTION_TAG_NAMES,
    AGENT_TAGS,
    IMAGE_PAYLOAD,
    MAX_TURN_CHARS,
    ActionKind,
    EvidenceItem,
    ProtocolViolation,
    TurnRecord,
    ViolationCode,
    extract_final_answer,
    make_turn,
    parse_turn,
    render_evidence,
    render_tool_error,
    serialize_turn,
    validate_in_context,
)
from dbagent.wire import decode, encode
from protocol_cases import CASES, run_case


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_case_table(case):
    assert run_case(case) == []


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_preparsed_violations_change_nothing(case, monkeypatch):
    # A record carries the violations of the one parse that built it;
    # validation reads them and parses nothing.
    record, violations = parse_turn(case.raw)
    if record is None:
        return
    assert list(record.violations) == violations
    history = [parse_turn(raw)[0] for raw in case.context or ()]
    for mode in ("strict", "lenient"):
        expected = validate_in_context(record, history, mode)
        with monkeypatch.context() as m:
            m.setattr(protocol, "parse_turn", None)  # neither may be called
            m.setattr(protocol, "_parse", None)
            got = validate_in_context(record, history, mode)
        assert got == expected
        assert got == sorted(got, key=lambda v: v.span)
        if mode == "lenient":
            assert got == [v for v in violations if v.code is not ViolationCode.UNKNOWN_TAG]
        else:
            assert set(violations) <= set(got)


def test_every_case_that_parses_round_trips_through_the_codec():
    records = [record for record, _ in map(parse_turn, (case.raw for case in CASES)) if record is not None]
    assert len(records) > len(CASES) // 2
    for record in records:
        assert encode(record) == {"raw": record.raw}
        assert decode(TurnRecord, encode(record)) == record


def test_a_record_is_built_from_its_raw_alone():
    record = TurnRecord("<think> t </think><caption>c</caption><tool></tool><text_search>q</text_search>")
    assert (record.think, record.caption, record.action, record.action_payload) == ("t", "c", ActionKind.TEXT_SEARCH, "q")
    assert [v.code for v in record.violations] == [ViolationCode.UNKNOWN_TAG, ViolationCode.UNKNOWN_TAG]
    with pytest.raises(TypeError):
        TurnRecord(raw="<think>t</think><answer>a</answer>", think="other")
    with pytest.raises(ValueError, match=r"^raw does not parse \(MissingThink, TrailingText, NoAction\)$"):
        TurnRecord("no tags at all")
    with pytest.raises(ValueError, match=r"^raw does not parse \(InputTooLong\)$"):
        TurnRecord("x" * (MAX_TURN_CHARS + 1))


def test_parsed_fields_are_trimmed():
    record, violations = parse_turn("<think>  padded think </think><answer>  Paris </answer>")
    assert violations == []
    assert record.think == "padded think"
    assert record.action is ActionKind.ANSWER
    assert record.action_payload == "Paris"
    assert record.caption is None


def test_caption_is_recovered():
    record, violations = parse_turn(
        "<think>t</think><caption> A tower. </caption><text_search>height</text_search>"
    )
    assert violations == []
    assert record.caption == "A tower."
    assert record.action_payload == "height"


def test_record_recovered_alongside_violations():
    # Reprompting needs the parsed record even when the turn is invalid.
    record, violations = parse_turn("<think>t</think><answer>a</answer> extra")
    assert [v.code for v in violations] == [ViolationCode.TRAILING_TEXT]
    assert record is not None and record.action_payload == "a"


def test_multiple_actions_keeps_first():
    record, _ = parse_turn("<think>t</think><text_search>q</text_search><answer>a</answer>")
    assert record.action is ActionKind.TEXT_SEARCH
    assert record.action_payload == "q"


def test_violations_sorted_by_span():
    _, violations = parse_turn("preface <think>t</think><answer>a</answer> tail")
    spans = [v.span for v in violations]
    assert spans == sorted(spans)


def test_input_length_cap_is_exact():
    at_cap = "<think>" + "x" * (MAX_TURN_CHARS - len("<think></think><answer>a</answer>")) + "</think><answer>a</answer>"
    assert len(at_cap) == MAX_TURN_CHARS
    record, violations = parse_turn(at_cap)
    assert violations == [] and record is not None
    record, violations = parse_turn(at_cap + "y")
    assert record is None
    assert [v.code for v in violations] == [ViolationCode.INPUT_TOO_LONG]


def test_unicode_whitespace_between_tags_is_ws():
    # `ws` in docs/tag-grammar.md is any character for which str.isspace() holds.
    raw = "\u2003\x0c<think>t</think>\x0c\u3000<caption>c</caption>\xa0\x1c<text_search>q</text_search>\x0c\u2003"
    record, violations = parse_turn(raw)
    assert violations == []
    assert (record.think, record.caption, record.action_payload) == ("t", "c", "q")


def test_serialize_canonical_order():
    turn = make_turn("think", ActionKind.TEXT_SEARCH, "query", caption="cap")
    assert serialize_turn(turn) == "<think>think</think><caption>cap</caption><text_search>query</text_search>"
    assert turn.raw == serialize_turn(turn)


def test_make_turn_round_trip():
    turn = make_turn("multi\nline think", ActionKind.IMAGE_SEARCH, "image_path")
    parsed, violations = parse_turn(turn.raw)
    assert violations == []
    assert parsed == turn


# --- contextual validation -----------------------------------------------

_IMG = "<think>look</think><image_search>image_path</image_search>"
_CAPTIONED_SEARCH = "<think>t</think><caption>c</caption><text_search>q</text_search>"
_CAPTIONED_ANSWER = "<think>t</think><caption>c</caption><answer>a</answer>"


def _parsed(raw):
    record, violations = parse_turn(raw)
    assert record is not None and not violations
    return record


def test_caption_after_image_search_is_legal():
    out = validate_in_context(_parsed(_CAPTIONED_SEARCH), [_parsed(_IMG)], mode="strict")
    assert out == []


def test_caption_on_answer_rejected_by_default():
    out = validate_in_context(_parsed(_CAPTIONED_ANSWER), [_parsed(_IMG)], mode="strict")
    assert [v.code for v in out] == [ViolationCode.CAPTION_MISPLACED]


def test_a_contextual_caption_violation_spans_the_caption_block_the_parse_paired():
    # The first literal <caption> here is an unclosed tag; the caption the
    # record holds is the block at (25, 45).
    raw = "<caption><think>t</think><caption>c</caption><answer>a</answer>"
    record, _ = parse_turn(raw)
    assert record.caption == "c" and raw[25:45] == "<caption>c</caption>"
    for history, message in (
        ([_parsed(_IMG)], "<caption> is not allowed on an answer turn"),
        ([], "<caption> requires an earlier <image_search> turn"),
    ):
        found = validate_in_context(record, history, mode="strict")
        assert [v.span for v in found if v.message == message] == [(25, 45)]


def test_lenient_drops_unknown_tag_only():
    record, violations = parse_turn("<think>t</think><tool>x</tool><answer>a</answer>")
    assert any(v.code is ViolationCode.UNKNOWN_TAG for v in violations)
    lenient = validate_in_context(record, [], mode="lenient")
    assert all(v.code is not ViolationCode.UNKNOWN_TAG for v in lenient)
    # the stray inner text is still flagged
    assert [v.code for v in lenient] == [ViolationCode.TRAILING_TEXT]


def test_unknown_validation_mode_raises():
    with pytest.raises(ValueError):
        validate_in_context(_parsed(_IMG), [], mode="casual")


# --- evidence rendering ---------------------------------------------------


def test_render_evidence_format():
    items = [
        EvidenceItem("a1", "Eiffel Tower", "Lead", "Completed in 1889.", 0.9, section_id="s0"),
        EvidenceItem("a2", "Big Ben", "Lead", "A bell in Westminster.", 0.5, section_id="s0"),
    ]
    block = render_evidence(items)
    assert block.rendered == (
        "<evidence>\n"
        "[1] Eiffel Tower — Lead: Completed in 1889.\n"
        "[2] Big Ben — Lead: A bell in Westminster.\n"
        "</evidence>"
    )
    assert len(block.items) == 2


def test_render_evidence_empty_sentinel():
    block = render_evidence([])
    assert block.rendered == "<evidence>\n[no results]\n</evidence>"


def test_render_evidence_flattens_newlines():
    items = [EvidenceItem("a1", "T", "H", "line one\nline two", 0.1)]
    block = render_evidence(items)
    assert "\nline two" not in block.rendered
    assert "line one line two" in block.rendered


def test_render_tool_error():
    block = render_tool_error("timeout\nafter retry")
    assert block.rendered == "<evidence>\n[tool error] timeout after retry\n</evidence>"
    assert block.items == ()


def test_extract_final_answer():
    search = _parsed("<think>t</think><text_search>q</text_search>")
    answer = _parsed("<think>t</think><answer>42</answer>")
    assert extract_final_answer([search, answer]) == "42"
    assert extract_final_answer([search]) is None
    assert extract_final_answer([]) is None


# --- properties -----------------------------------------------------------

_EVIDENCE_LINE = re.compile(r"^<evidence>\n(\[\d+\] .*\n|\[no results\]\n|\[tool error\] .*\n)+</evidence>$")

_inner_text = st.text(
    alphabet=st.characters(blacklist_characters="<>", blacklist_categories=("Cs",)),
    max_size=80,
)


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None)
def test_parse_is_total(raw):
    record, violations = parse_turn(raw)
    assert isinstance(violations, list)
    for v in violations:
        assert isinstance(v, ProtocolViolation)
        assert 0 <= v.span[0] <= v.span[1] <= max(len(raw), MAX_TURN_CHARS)
    if not violations:
        assert record is not None


@given(
    think=_inner_text,
    payload=_inner_text.filter(lambda s: s.strip()),
    caption=st.one_of(st.none(), _inner_text),
    action=st.sampled_from([ActionKind.ANSWER, ActionKind.TEXT_SEARCH]),
)
@settings(max_examples=200, deadline=None)
def test_round_trip_well_formed(think, payload, caption, action):
    turn = make_turn(think, action, payload, caption=caption)
    parsed, violations = parse_turn(serialize_turn(turn))
    assert violations == []
    assert parsed == turn


# Text that is mostly tags: a part with a tag in it breaks the canonical form.
_tags = st.sampled_from((*(f"<{name}>" for name in AGENT_TAGS), *(f"</{name}>" for name in AGENT_TAGS), "<b>"))
_part = st.lists(_tags | _inner_text, max_size=4).map("".join)


@given(think=_part, payload=_part, caption=st.one_of(st.none(), _part), action=st.sampled_from(ActionKind))
@settings(max_examples=300, deadline=None)
def test_make_turn_is_what_its_raw_parses_to(think, payload, caption, action):
    try:
        turn = make_turn(think, action, payload, caption=caption)
    except ValueError:
        # Its serialization yields no record: the raw make_turn would hold.
        raw = protocol._canonical(think.strip(), action, payload.strip(), caption if caption is None else caption.strip())
        assert parse_turn(raw)[0] is None
        return
    assert parse_turn(turn.raw)[0] == turn


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_strict_is_superset_of_lenient(raw):
    record, _ = parse_turn(raw)
    if record is None:
        return
    strict = validate_in_context(record, [], mode="strict")
    lenient = validate_in_context(record, [], mode="lenient")
    strict_set = {(v.code, v.span) for v in strict}
    for violation in lenient:
        assert (violation.code, violation.span) in strict_set


@given(
    st.lists(
        st.tuples(_inner_text, _inner_text, _inner_text, _inner_text),
        max_size=5,
    )
)
@settings(max_examples=150, deadline=None)
def test_render_evidence_matches_pattern(specs):
    items = [
        EvidenceItem(article_id=a or "a", title=t, heading=h, text=x, score=0.5)
        for a, t, h, x in specs
    ]
    block = render_evidence(items)
    assert _EVIDENCE_LINE.match(block.rendered), block.rendered


# --- the parser against the one it replaced ----------------------------------
#
# The parser before the one-walk rewrite, verbatim but for its names: it
# scanned the tag tokens into ``_Block`` records, then checked them, and
# found unaccounted text with the per-character scan its gap walk replaced.

_TAG_TOKEN = re.compile(r"</?([A-Za-z_][A-Za-z0-9_]*)>")
THINK = "think"
CAPTION = "caption"


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


def _reference_parse(raw: str) -> tuple[tuple[str, ActionKind, str, str | None] | None, list[ProtocolViolation]]:
    """The one parse of a turn: (think, action, payload, caption), or None
    without the skeleton, and every violation sorted by span."""
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

    for start, end in _reference_unaccounted_runs(raw, accounted, blocks):
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

    parts = None
    if thinks and action_kind is not None:
        think = raw[thinks[0].inner_start : thinks[0].inner_end].strip()
        caption = raw[captions[0].inner_start : captions[0].inner_end].strip() if captions else None
        parts = (think, action_kind, payload, caption)
    violations.sort(key=lambda v: v.span)
    return parts, violations


def _reference_unaccounted_runs(raw, accounted, blocks):
    """The per-character scan of unaccounted text that the gap walk replaced, verbatim."""
    actions = [b for b in blocks if b.name in ACTION_TAG_NAMES]
    limit = actions[-1].end if actions else len(raw)
    covered = bytearray(len(raw))
    for start, end in accounted:
        for i in range(start, min(end, len(raw))):
            covered[i] = 1
    runs: list[tuple[int, int]] = []
    i = 0
    while i < limit:
        if covered[i] or raw[i].isspace():
            i += 1
            continue
        j = i
        while j < limit and not covered[j]:
            j += 1
        chunk = raw[i:j].rstrip()
        if chunk:
            runs.append((i, i + len(chunk)))
        i = j
    return runs


def _parse_turn_parts(raw):
    """``parse_turn``'s record and violations in the reference's shape."""
    record, violations = parse_turn(raw)
    if record is None:
        return None, violations
    return (record.think, record.action, record.action_payload, record.caption), violations


_SOUP_TOKENS = (
    *(f"<{name}>" for name in AGENT_TAGS),
    *(f"</{name}>" for name in AGENT_TAGS),
    "<b>", "</tool>", "<x_1>", "<", "/", ">", "a", "Zq", "image_path",
    " ", "\t", "\n", "\r", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u3000",
)
_tag_soup = st.lists(st.sampled_from(_SOUP_TOKENS), max_size=40).map("".join)


@given(_tag_soup)
@settings(max_examples=500, deadline=None)
def test_gap_scan_matches_reference_on_tag_soup(raw):
    assert _parse_turn_parts(raw) == _reference_parse(raw)


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_gap_scan_matches_reference_on_cases(case):
    assert _parse_turn_parts(case.raw) == _reference_parse(case.raw)


def test_gap_scan_matches_reference_at_max_turn_chars():
    unit = "<think>t</think> stray\x0c<b>\u3000</caption> x\n"
    tail = " <answer>a</answer>after"
    raw = unit * ((MAX_TURN_CHARS - len(tail)) // len(unit))
    raw += "y" * (MAX_TURN_CHARS - len(raw) - len(tail)) + tail
    assert len(raw) == MAX_TURN_CHARS
    parts, violations = _parse_turn_parts(raw)
    assert (parts, violations) == _reference_parse(raw)
    assert sum(v.message == "unexpected text between tags" for v in violations) > 1000


@pytest.mark.parametrize(
    "raw",
    [
        "<answer><think>a <b> c</think> stray <text_search>q</text_search>",
        "<think>a <tool> b </x_1> c</think> d <caption> e </tool></caption><answer>f</answer>",
        "<caption> <think>t</think> q<think> r </think>s<answer> </b> </answer>u v",
    ],
)
def test_gap_scan_matches_reference_on_overlapping_spans(raw):
    blocks, _, accounted = _scan_blocks(raw)
    ordered = sorted(accounted)
    assert any(a_end > b_start for (_, a_end), (b_start, _) in zip(ordered, ordered[1:]))
    parts, violations = _parse_turn_parts(raw)
    assert (parts, violations) == _reference_parse(raw)
    assert any(v.message == "unexpected text between tags" for v in violations)


# Turns where two violations share a span, so the order in which the parser
# records them decides their order in the sorted list.
_TIED_SPANS = [
    "",
    "x",
    "<x>",
    "<think>",
    "abcdefg<think>t</think><answer>a</answer>",
    "<abcde><think>t</think><answer>a</answer>",
    "<think>t</think><answer>a</answer> <b>",
    "<think>t</think><answer>a</answer>\t</caption>",
    "<think>t</think><answer>a</answer> <text_search>",
    "<think>a</think><answer>x</answer> <think>b</think>",
    "<think>t</think><answer>a</answer><caption>c</caption>",
    "<think>t</think><caption>c</caption><answer>a</answer> <caption>d</caption>",
    "<think>t</think><image_search><b></image_search>",
]


@pytest.mark.parametrize("raw", _TIED_SPANS)
def test_parse_matches_reference_where_spans_tie(raw):
    parts, violations = _parse_turn_parts(raw)
    assert (parts, violations) == _reference_parse(raw)
    spans = [v.span for v in violations]
    assert len(set(spans)) < len(spans)


# Turns shaped like a model's: a think of a few hundred words, stray angle
# brackets, an unknown tag pair, then the action and sometimes text after it.
_word = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
_stray = st.sampled_from(("<", ">", "a < b", "b > a", "<<", "< think>", "<think", "x<y>", "</>", "<1>"))
_think_words = st.lists(st.one_of(_word, _word, _word, _stray), min_size=150, max_size=250).map(" ".join)


@st.composite
def _long_turns(draw):
    think = draw(_think_words)
    caption = draw(st.none() | _think_words.map(lambda words: f"<caption>{words[:200]}</caption>"))
    lookup = draw(st.sampled_from(("", "<lookup>x</lookup>", "<lookup>q</lookup> stray ", "<tool>")))
    action = draw(st.sampled_from(ACTION_TAG_NAMES))
    payload = draw(st.sampled_from((IMAGE_PAYLOAD, " 1889 ", "tower <b> height", "")))
    after = draw(st.sampled_from(("", "\n", " done", "<answer>2</answer>", " <x>")))
    head = draw(st.sampled_from(("", " ", "Sure. ", "<think>")))
    return f"{head}<think>{think}</think>{caption or ''}{lookup}<{action}>{payload}</{action}>{after}"


_LONG_TURNS = [
    "<think>" + "word " * 200 + "a < b and c > d</think><lookup>x</lookup><answer>6365</answer>",
    "<think>" + "word " * 200 + "</think><caption>c</caption><tool> <image_search>image</image_search> then",
    "<think>" + "w<x " * 200 + "</think>\n<text_search>q</text_search>\n<answer>a</answer>tail",
]


@pytest.mark.parametrize("raw", _LONG_TURNS, ids=range(len(_LONG_TURNS)))
def test_parse_matches_reference_on_long_turns(raw):
    parts, violations = _parse_turn_parts(raw)
    assert (parts, violations) == _reference_parse(raw)
    assert parts is not None and violations


@given(_long_turns())
@settings(max_examples=200, deadline=None)
def test_parse_matches_reference_on_generated_long_turns(raw):
    assert len(raw) > 300
    assert _parse_turn_parts(raw) == _reference_parse(raw)
