"""The 40-case turn-grammar table shared by unit and acceptance tests.

Each case pins the exact multiset of violation codes `parse_turn` reports
and whether a record is still recoverable. Contextual cases additionally
run `validate_in_context` against a scripted history.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    name: str
    raw: str
    parse_codes: tuple[str, ...]  # sorted multiset of ViolationCode values
    parses: bool  # parse_turn returns a record (possibly with violations)
    context: tuple[str, ...] | None = None  # prior turn raws, all well-formed
    mode: str = "strict"
    context_codes: tuple[str, ...] | None = None


_IMG_TURN = "<think>look it up</think><image_search>image_path</image_search>"

CASES: tuple[Case, ...] = (
    # --- well-formed: the five decision shapes and formatting variants ---
    Case("wf_answer", "<think>The landmark is familiar.</think><answer>Paris</answer>", (), True),
    Case(
        "wf_answer_multiline_think",
        "<think>Line one.\nLine two,\n  indented.</think>\n<answer>42</answer>",
        (),
        True,
    ),
    Case(
        "wf_text_search",
        "<think>I need the completion year.</think><text_search>eiffel tower completion</text_search>",
        (),
        True,
    ),
    Case("wf_image_search", _IMG_TURN, (), True),
    Case(
        "wf_caption_text_search",
        "<think>The article names the subject.</think><caption>A lattice tower at dusk.</caption>"
        "<text_search>lattice tower height</text_search>",
        (),
        True,
    ),
    Case(
        "wf_unicode",
        "<think>café — münchen ✓ 東京</think><answer>Zürich</answer>",
        (),
        True,
    ),
    Case("wf_long_think", "<think>" + "history " * 250 + "</think><answer>1889</answer>", (), True),
    Case(
        "wf_spacing_between_tags",
        "<think>t</think>\n\n  <caption>c</caption>  \n<text_search>q</text_search>\n",
        (),
        True,
    ),
    Case("wf_inner_trim", "<think>  padded  </think><answer>  Paris  </answer>", (), True),
    Case("wf_trailing_whitespace", "<think>t</think><answer>a</answer>\n   \n", (), True),
    Case("wf_empty_think", "<think></think><answer>a</answer>", (), True),
    Case("wf_empty_answer", "<think>t</think><answer></answer>", (), True),
    # --- malformed: one block per ProtocolViolation code ---
    Case("missing_think_absent", "<answer>Paris</answer>", ("MissingThink",), False),
    Case(
        "missing_think_not_first",
        "<answer>x</answer><think>t</think>",
        ("MissingThink", "TrailingText"),
        True,
    ),
    Case(
        "two_answers",
        "<think>t</think><answer>a</answer><answer>b</answer>",
        ("MultipleActions",),
        True,
    ),
    Case(
        "mixed_actions",
        "<think>t</think><text_search>q</text_search><answer>a</answer>",
        ("MultipleActions",),
        True,
    ),
    Case("think_only", "<think>all thought, no action</think>", ("NoAction",), False),
    Case(
        "text_after_action",
        "<think>t</think><answer>a</answer> trailing words",
        ("TrailingText",),
        True,
    ),
    Case(
        "stray_text_between_tags",
        "<think>t</think> stray words <answer>a</answer>",
        ("TrailingText",),
        True,
    ),
    Case(
        "leading_text",
        "preface <think>t</think><answer>a</answer>",
        ("MissingThink", "TrailingText"),
        True,
    ),
    Case(
        "bad_image_payload",
        "<think>t</think><image_search>photo.jpg</image_search>",
        ("BadImagePayload",),
        True,
    ),
    Case(
        "bad_image_payload_empty",
        "<think>t</think><image_search></image_search>",
        ("BadImagePayload",),
        True,
    ),
    Case(
        "caption_before_think",
        "<caption>c</caption><think>t</think><answer>a</answer>",
        ("CaptionMisplaced", "MissingThink"),
        True,
    ),
    Case(
        "caption_after_action",
        "<think>t</think><answer>a</answer><caption>c</caption>",
        ("CaptionMisplaced", "TrailingText"),
        True,
    ),
    Case(
        "unknown_tag_pair",
        "<think>t</think><tool>x</tool><answer>a</answer>",
        ("TrailingText", "UnknownTag", "UnknownTag"),
        True,
    ),
    Case(
        "unknown_tag_no_action",
        "<think>t</think><lookup>q</lookup>",
        ("NoAction", "TrailingText", "UnknownTag", "UnknownTag"),
        False,
    ),
    Case(
        "unclosed_think",
        "<think>t<answer>a</answer>",
        ("MissingThink", "MissingThink", "TrailingText"),
        False,
    ),
    Case("unclosed_answer", "<think>t</think><answer>a", ("NoAction", "TrailingText"), False),
    Case(
        "stray_closing_tag",
        "<think>t</think></caption><answer>a</answer>",
        ("TrailingText",),
        True,
    ),
    Case(
        "duplicate_think",
        "<think>a</think><think>b</think><answer>c</answer>",
        ("TrailingText",),
        True,
    ),
    Case(
        "duplicate_caption",
        "<think>t</think><caption>a</caption><caption>b</caption><text_search>q</text_search>",
        ("CaptionMisplaced",),
        True,
    ),
    Case("empty_string", "", ("MissingThink", "NoAction"), False),
    Case("whitespace_only", "  \n\t ", ("MissingThink", "NoAction"), False),
    Case(
        "untagged_text",
        "The answer is Paris.",
        ("MissingThink", "NoAction", "TrailingText"),
        False,
    ),
    Case(
        "tags_inside_answer",
        "<think>t</think><answer>a <think>inner</think></answer>",
        ("NoAction", "TrailingText", "TrailingText", "TrailingText"),
        False,
    ),
    Case(
        "uppercase_tags",
        "<THINK>t</THINK><answer>a</answer>",
        ("MissingThink", "TrailingText", "UnknownTag", "UnknownTag"),
        False,
    ),
    Case(
        "tag_with_attribute",
        '<think lang="en">t</think><answer>a</answer>',
        ("MissingThink", "TrailingText", "TrailingText"),
        False,
    ),
    Case(
        "action_inside_think",
        "<think>use <text_search>q</text_search> now</think><answer>a</answer>",
        (
            "MissingThink",
            "MissingThink",
            "MultipleActions",
            "TrailingText",
            "TrailingText",
            "TrailingText",
        ),
        False,
    ),
    Case(
        "input_too_long",
        "<think>" + "x" * 65_600 + "</think><answer>a</answer>",
        ("InputTooLong",),
        False,
    ),
    # --- contextual: caption legality depends on history ---
    Case(
        "ctx_caption_without_prior_image",
        "<think>describing</think><caption>A tower.</caption><text_search>tower</text_search>",
        (),
        True,
        context=(),
        mode="strict",
        context_codes=("CaptionWithoutPriorImageSearch",),
    ),
)

assert len(CASES) == 40, len(CASES)


def run_case(case: Case) -> list[str]:
    """Return the mismatch description list (empty = case passes)."""
    from dbagent.protocol import parse_turn, validate_in_context

    problems: list[str] = []
    record, violations = parse_turn(case.raw)
    got_codes = tuple(sorted(v.code.value for v in violations))
    if got_codes != tuple(sorted(case.parse_codes)):
        problems.append(f"parse codes {got_codes} != expected {tuple(sorted(case.parse_codes))}")
    if (record is not None) != case.parses:
        problems.append(f"record presence {record is not None} != expected {case.parses}")
    for violation in violations:
        start, end = violation.span
        if not (0 <= start <= end <= max(len(case.raw), 1)):
            problems.append(f"violation span {violation.span} outside raw bounds")
    if case.context is not None:
        if record is None:
            problems.append("contextual case must parse to a record")
        else:
            history = []
            for prior_raw in case.context:
                prior, prior_violations = parse_turn(prior_raw)
                assert prior is not None and not prior_violations, "context turns must be clean"
                history.append(prior)
            ctx = validate_in_context(record, history, mode=case.mode)
            got_ctx = tuple(sorted(v.code.value for v in ctx))
            if got_ctx != tuple(sorted(case.context_codes or ())):
                problems.append(f"context codes {got_ctx} != expected {case.context_codes}")
    return problems
