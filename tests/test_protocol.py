from __future__ import annotations

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbagent import protocol
from dbagent.protocol import (
    ACTION_TAG_NAMES,
    AGENT_TAGS,
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
        for allow in (False, True):
            kwargs = {"mode": mode, "allow_caption_before_answer": allow}
            expected = validate_in_context(record, history, **kwargs)
            with monkeypatch.context() as m:
                m.setattr(protocol, "parse_turn", None)  # neither may be called
                m.setattr(protocol, "_parse", None)
                got = validate_in_context(record, history, **kwargs)
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


def test_caption_on_answer_allowed_when_configured():
    out = validate_in_context(
        _parsed(_CAPTIONED_ANSWER), [_parsed(_IMG)], mode="strict", allow_caption_before_answer=True
    )
    assert out == []


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
    block = render_evidence(items, 1)
    assert block.rendered == (
        "<evidence>\n"
        "[1] Eiffel Tower — Lead: Completed in 1889.\n"
        "[2] Big Ben — Lead: A bell in Westminster.\n"
        "</evidence>"
    )
    assert block.turn_index == 1
    assert len(block.items) == 2


def test_render_evidence_empty_sentinel():
    block = render_evidence([], 2)
    assert block.rendered == "<evidence>\n[no results]\n</evidence>"


def test_render_evidence_flattens_newlines():
    items = [EvidenceItem("a1", "T", "H", "line one\nline two", 0.1)]
    block = render_evidence(items, 1)
    assert "\nline two" not in block.rendered
    assert "line one line two" in block.rendered


def test_render_tool_error():
    block = render_tool_error("timeout\nafter retry", 3)
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
    block = render_evidence(items, 1)
    assert _EVIDENCE_LINE.match(block.rendered), block.rendered


# --- the gap scan against the per-character scan it replaced ----------------


def _reference_unaccounted_runs(raw, accounted, blocks):
    """The per-character scan ``protocol._unaccounted_runs`` used before the gap walk, verbatim."""
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


def _reference_parse(raw):
    with mock.patch.object(protocol, "_unaccounted_runs", _reference_unaccounted_runs):
        return parse_turn(raw)


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
    assert parse_turn(raw) == _reference_parse(raw)


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_gap_scan_matches_reference_on_cases(case):
    assert parse_turn(case.raw) == _reference_parse(case.raw)


def test_gap_scan_matches_reference_at_max_turn_chars():
    unit = "<think>t</think> stray\x0c<b>\u3000</caption> x\n"
    tail = " <answer>a</answer>after"
    raw = unit * ((MAX_TURN_CHARS - len(tail)) // len(unit))
    raw += "y" * (MAX_TURN_CHARS - len(raw) - len(tail)) + tail
    assert len(raw) == MAX_TURN_CHARS
    record, violations = parse_turn(raw)
    assert (record, violations) == _reference_parse(raw)
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
    blocks, _, accounted = protocol._scan_blocks(raw)
    ordered = sorted(accounted)
    assert any(a_end > b_start for (_, a_end), (b_start, _) in zip(ordered, ordered[1:]))
    assert protocol._unaccounted_runs(raw, accounted, blocks) == _reference_unaccounted_runs(raw, accounted, blocks)
    assert parse_turn(raw) == _reference_parse(raw)
