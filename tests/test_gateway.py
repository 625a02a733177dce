from __future__ import annotations

import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dbagent import gateway
from dbagent.gateway import (
    ChatBackendError,
    ChatMessage,
    EmptyGenerationError,
    GenerationParams,
    HttpChatBackend,
    ScriptError,
    ScriptedBackend,
    ScriptedRule,
    load_script,
    truncate_at_stop,
)
from dbagent.protocol import CLOSING_ACTION_TAGS
from helpers import HttpStub


# --- messages and params ---------------------------------------------------


def test_chat_message_rejects_unknown_role():
    with pytest.raises(ValueError, match="unknown chat role"):
        ChatMessage(role="tool", content="hi")


def test_chat_message_needs_content_or_image():
    with pytest.raises(ValueError, match="needs content"):
        ChatMessage(role="user", content="")
    # An image attachment alone is a legal message.
    msg = ChatMessage(role="user", content="", images=("img-1",))
    assert msg.images == ("img-1",)


def test_generation_params_always_include_closing_action_tags():
    params = GenerationParams(stop_sequences=["\n\n"])
    for tag in CLOSING_ACTION_TAGS:
        assert tag in params.stop_sequences
    assert "\n\n" in params.stop_sequences


def test_generation_params_do_not_duplicate_tags():
    params = GenerationParams(stop_sequences=list(CLOSING_ACTION_TAGS))
    assert len(params.stop_sequences) == len(CLOSING_ACTION_TAGS)


def test_generation_params_leave_the_callers_list_alone():
    mine = ["\n\n"]
    params = GenerationParams(stop_sequences=mine)
    assert mine == ["\n\n"]
    assert params.stop_sequences is not mine
    assert params.stop_sequences == ["\n\n", *CLOSING_ACTION_TAGS]


# --- stop truncation -------------------------------------------------------


def test_truncate_keeps_stop_sequence():
    text = "<think>x</think><answer>y</answer> and trailing junk"
    assert truncate_at_stop(text, ["</answer>"]) == "<think>x</think><answer>y</answer>"


def test_truncate_uses_earliest_stop():
    text = "a STOP1 b STOP2 c"
    assert truncate_at_stop(text, ["STOP2", "STOP1"]) == "a STOP1"


def test_truncate_without_stop_returns_text():
    assert truncate_at_stop("no stops here", ["</answer>"]) == "no stops here"


def test_truncate_prefers_earliest_end_not_first_listed():
    # Overlapping stops: the one whose *end* comes first wins.
    text = "xx</text_search></answer>"
    assert truncate_at_stop(text, ["</answer>", "</text_search>"]) == "xx</text_search>"


# --- scripted rules --------------------------------------------------------


def test_rule_matches_turn_index():
    rule = ScriptedRule(output="out", turn_index=2)
    assert rule.matches("anything", 2)
    assert not rule.matches("anything", 1)


def test_rule_matches_pattern_on_last_user_message():
    rule = ScriptedRule(output="out", pattern=r"gold\s+article")
    backend = ScriptedBackend([rule])
    messages = [
        ChatMessage(role="system", content="gold article everywhere"),
        ChatMessage(role="user", content="nothing here"),
        ChatMessage(role="assistant", content="gold article"),
        ChatMessage(role="user", content="the gold  article appears"),
    ]
    assert backend.complete(messages, GenerationParams()) == "out"
    # Only the most recent user message is searched.
    messages2 = [
        ChatMessage(role="user", content="the gold article appears"),
        ChatMessage(role="user", content="but not in this one"),
    ]
    with pytest.raises(EmptyGenerationError):
        backend.complete(messages2, GenerationParams())


def test_pattern_spans_newlines():
    rule = ScriptedRule(output="ok", pattern=r"first.*second")
    assert rule.matches("first line\nsecond line", 0)


def test_first_matching_rule_wins():
    backend = ScriptedBackend(
        [
            ScriptedRule(output="by-pattern", pattern="question"),
            ScriptedRule(output="by-turn", turn_index=0),
        ]
    )
    out = backend.complete(
        [ChatMessage(role="user", content="a question")], GenerationParams(), turn_index=0
    )
    assert out == "by-pattern"


def test_no_match_raises_empty_generation():
    backend = ScriptedBackend([ScriptedRule(output="x", turn_index=5)])
    with pytest.raises(EmptyGenerationError, match="turn 3"):
        backend.complete([ChatMessage(role="user", content="q")], GenerationParams(), turn_index=3)


def test_rule_needs_exactly_one_matcher():
    with pytest.raises(ValueError, match="exactly one"):
        ScriptedRule(output="x", turn_index=0, pattern="p")
    with pytest.raises(ValueError, match="exactly one"):
        ScriptedRule(output="x")


def test_rule_compiles_its_pattern_when_built():
    with pytest.raises(re.error):
        ScriptedRule(output="x", pattern="(unclosed")


def test_rules_differing_only_in_compiled_pattern_are_equal():
    a = ScriptedRule(output="o", pattern="p")
    b = ScriptedRule(output="o", pattern="p")
    object.__setattr__(b, "_regex", re.compile("something else"))
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b) == "ScriptedRule(output='o', turn_index=None, pattern='p')"


def test_complete_compiles_nothing_past_cache_size(tmp_path, monkeypatch):
    lines = [json.dumps({"match": {"pattern": rf"\bkey{i:03d}\b"}, "output": f"out {i}"}) for i in range(600)]
    backend = load_script(_write_script(tmp_path, lines))

    def refuse(*args, **kwargs):
        raise AssertionError("complete compiled a pattern")

    def ask(text):
        try:
            return backend.complete([ChatMessage(role="user", content=text)], GenerationParams())
        except EmptyGenerationError as exc:
            return exc

    monkeypatch.setattr(re, "compile", refuse)
    monkeypatch.setattr(re, "search", refuse)
    answers = [ask(f"the key{i:03d} here") for i in (0, 300, 599)] + [ask("no key at all")]
    monkeypatch.undo()
    assert answers[:3] == ["out 0", "out 300", "out 599"]
    assert isinstance(answers[3], EmptyGenerationError)


# The atoms cover each token the dispatch scanner reads: escaped punctuation,
# literals longer than the gram, quantified characters, classes, and the
# constructs that leave a pattern without runs. The long literals come three
# times over, so that many rules get a key. Each of ``_SPECIAL_KEYS`` is one
# gram long, so it keys its rule on a first character that is special inside
# the probe's character class.
_SPECIAL_KEYS = ["]xyabxya", "^abxyabx", "-abxyabx", "\\abxyabx", "\nab\nxyab"]
_LONG = ["abxyabxyab", r"\[ab\-xyab\]"] + [re.escape(key) for key in _SPECIAL_KEYS]
_ATOMS = [
    "a", "b", "x", ".", ".*", r"\n", "[ab]", "b?",
    r"\[", r"\-", "ab*", "ab+?", "[]a]", r"[^\n]", "(?:ab)?", "a|b", r"\b", "a{2}",
] + _LONG * 3
_PREFIXES = ["", "(?i)", r"\A", r"(?i)\A", r"\[\-", "[]a]", r"\b"]
_TEXTS = st.lists(
    st.sampled_from(
        ["a", "b", "A", "B", "\n", "x", "y", "[", "-", "]", "abxyabxyab", "[ab-xyab]", "xyabxyab", "^", "\\"]
        + _SPECIAL_KEYS
    ),
    max_size=6,
).map("".join)


@st.composite
def _patterns(draw):
    """Patterns from prefixes (anchors, inline ``(?i)``, literals), atoms
    that include ``.`` across newlines, and an optional ``\\Z``."""
    body = "".join(draw(st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=3)))
    return draw(st.sampled_from(_PREFIXES)) + body + draw(st.sampled_from(["", r"\Z"]))


@st.composite
def _reference_rules(draw):
    """Rules as (output, turn_index, pattern) triples."""
    rules = []
    for i in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            rules.append((f"out {i}", draw(st.integers(0, 3)), None))
        else:
            rules.append((f"out {i}", None, draw(_patterns())))
    return rules


@st.composite
def _rules_and_text(draw):
    """Rules, and a text: short text over a small alphabet, text built from
    pieces, or text generated to match one of the patterns, so that keyed
    rules often match."""
    rules = draw(_reference_rules())
    patterns = [p for _, _, p in rules if p is not None]
    texts = [st.text(alphabet="abAB\nxy", max_size=8), _TEXTS]
    if patterns:
        texts.append(st.sampled_from(patterns).flatmap(lambda p: st.from_regex(re.compile(p, re.DOTALL))))
    return rules, draw(st.one_of(texts))


def _reference_complete(rules, text, turn_index):
    """The per-call scan that compiled-once rules must agree with."""
    for output, rule_turn, pattern in rules:
        if rule_turn is not None:
            if rule_turn == turn_index:
                return output
        elif re.search(pattern, text, re.DOTALL) is not None:
            return output
    return None


@settings(max_examples=300, deadline=None)
@given(_rules_and_text(), st.integers(0, 3))
def test_scripted_backend_matches_per_call_search(rules_and_text, turn_index):
    rules, text = rules_and_text
    backend = ScriptedBackend([ScriptedRule(output=o, turn_index=t, pattern=p) for o, t, p in rules])
    expected = _reference_complete(rules, text, turn_index)
    # An empty text is searched as the missing user message's "".
    messages = [ChatMessage(role="user", content=text)] if text else [ChatMessage(role="system", content="s")]
    if expected is None:
        with pytest.raises(EmptyGenerationError):
            backend.complete(messages, GenerationParams(), turn_index=turn_index)
    else:
        assert backend.complete(messages, GenerationParams(), turn_index=turn_index) == expected


@pytest.mark.parametrize("key", _SPECIAL_KEYS)
def test_keys_starting_with_class_specials_are_probed(key):
    backend = ScriptedBackend([ScriptedRule(output="hit", pattern=re.escape(key))])
    assert backend._keys == {key}

    def ask(text):
        return backend.complete([ChatMessage(role="user", content=text)], GenerationParams())

    assert ask(f"before {key} after") == "hit"
    assert ask(key) == "hit"
    for near_miss in (f"before {key[:-1]}_ after", f"before _{key[1:]} after", key[:-1]):
        with pytest.raises(EmptyGenerationError):
            ask(near_miss)


def test_script_without_keys_builds_no_probe():
    rules = [
        ("out 0", 1, None),
        ("out 1", None, "abxy"),
        ("out 2", None, "(?:abxyabxy)"),
        ("out 3", 0, None),
    ]
    backend = ScriptedBackend([ScriptedRule(output=o, turn_index=t, pattern=p) for o, t, p in rules])
    assert backend._probe is None
    for text in ("abxyabxy", "(?:abxyabxy)", "none"):
        for turn_index in (0, 1, 2):
            messages = [ChatMessage(role="user", content=text)]
            expected = _reference_complete(rules, text, turn_index)
            if expected is None:
                with pytest.raises(EmptyGenerationError):
                    backend.complete(messages, GenerationParams(), turn_index=turn_index)
            else:
                assert backend.complete(messages, GenerationParams(), turn_index=turn_index) == expected


def _required_runs(pattern):
    return [gateway._unescape(run) for run in gateway._escaped_runs(pattern)]


@pytest.mark.parametrize(
    "pattern,runs",
    [
        (r"\A\[question\] [^\n]*\[f\-00012\]\n.*\n\[stage3_query\] ", ["[question] ", "[f-00012]", "[stage3_query] "]),
        (r"ab*c", ["a", "c"]),
        (r"ab+?", ["a"]),
        (r"\[*x\]", ["x]"]),
        (r"[]a]bc[^\n]d", ["bc", "d"]),
        (r"\bkey001\b", ["key001"]),
        (r"^x.y$", ["x", "y"]),
        (r"\x41bc\0123d\tef", ["bc", "d", "ef"]),
        (r"a\\\\b\\\-", ["a\\\\b\\-"]),
        (r"(?:ab)?cd", []),
        (r"ab|cd", []),
        (r"a{2}bc", []),
        (r"(?i)abc", []),
    ],
)
def test_required_runs(pattern, runs):
    assert _required_runs(pattern) == runs


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_required_runs_occur_in_every_match(data):
    pattern = data.draw(_patterns())
    compiled = re.compile(pattern, re.DOTALL)
    match = compiled.search(data.draw(st.from_regex(compiled)))
    assume(match is not None)
    for run in _required_runs(pattern):
        assert run in match.group()


def test_dispatch_runs_a_handful_of_rules_in_a_large_script(monkeypatch):
    # Recorded-replay rules for 10,000 samples: three per sample, told apart
    # only by the sample tag.
    rules = []
    for i in range(10_000):
        head = r"\A\[question\] [^\n]*" + re.escape(f"[s-{i:05d}]")
        rules += [
            ScriptedRule(output=f"stage3 {i}", pattern=head + r"\n.*\n\[stage3_query\] "),
            ScriptedRule(output=f"stage2 {i}", pattern=head + r"\n\[stage1_output\] "),
            ScriptedRule(output=f"stage1 {i}", pattern=head + r"\Z"),
        ]
    backend = ScriptedBackend(rules)
    assert isinstance(backend.rules, tuple) and len(backend.rules) == 30_000
    evaluated = []
    matches = ScriptedRule.matches

    def spy(rule, text, turn_index):
        evaluated.append(rule)
        return matches(rule, text, turn_index)

    monkeypatch.setattr(ScriptedRule, "matches", spy)
    for i in (0, 4_321, 9_999):
        question = f"[question] Which year? [s-{i:05d}]"
        asks = {
            f"stage1 {i}": question,
            f"stage2 {i}": question + "\n[stage1_output] 1990",
            f"stage3 {i}": question + "\n[stage1_output] 1990\n[stage3_query] ",
        }
        for output, text in asks.items():
            evaluated.clear()
            assert backend.complete([ChatMessage(role="user", content=text)], GenerationParams()) == output
            assert len(evaluated) <= 3
    evaluated.clear()
    with pytest.raises(EmptyGenerationError):
        backend.complete([ChatMessage(role="user", content="[question] no tag [s-10000]")], GenerationParams())
    assert evaluated == []


def test_threads_sharing_a_backend_get_every_answer():
    # A call changes no state of the backend, so worker threads may share
    # one, as `factory build --workers N` does.
    backend = ScriptedBackend([ScriptedRule(output=f"out {i}", pattern=rf"\[tag\-{i:04d}\]") for i in range(200)])
    asks = [(f"out {i}", "x" * (i * 37 % 3000) + f"[tag-{i:04d}]") for i in range(200)] * 5

    def ask(text):
        return backend.complete([ChatMessage(role="user", content=text)], GenerationParams())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = list(pool.map(ask, [text for _, text in asks], timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert answers == [output for output, _ in asks]


def test_scripted_output_is_stop_truncated():
    long_output = "<think>t</think><answer>a</answer><think>extra</think>"
    backend = ScriptedBackend([ScriptedRule(output=long_output, turn_index=0)])
    out = backend.complete([ChatMessage(role="user", content="q")], GenerationParams())
    assert out == "<think>t</think><answer>a</answer>"


# --- script loading --------------------------------------------------------


def _write_script(tmp_path, lines):
    path = tmp_path / "script.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_script_round_trip(tmp_path):
    path = _write_script(
        tmp_path,
        [
            json.dumps({"match": {"pattern": "why"}, "output": "<think>a</think><answer>b</answer>"}),
            json.dumps({"match": {"turn_index": 1}, "output": "<think>c</think><answer>d</answer>"}),
            "",
        ],
    )
    backend = load_script(path)
    assert len(backend.rules) == 2
    assert backend.rules[0].pattern == "why"
    assert backend.rules[1].turn_index == 1


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("not json", "invalid JSON"),
        (json.dumps({"output": "x"}), "'match' object"),
        (json.dumps({"match": {"pattern": "p"}}), "non-empty 'output'"),
        (json.dumps({"match": {"pattern": "p"}, "output": ""}), "non-empty 'output'"),
        (json.dumps({"match": {}, "output": "x"}), "exactly one"),
        (
            json.dumps({"match": {"pattern": "p", "turn_index": 0}, "output": "x"}),
            "exactly one",
        ),
        (json.dumps({"match": {"turn_index": "0"}, "output": "x"}), "must be an integer"),
        (json.dumps({"match": {"pattern": "["}, "output": "x"}), "bad pattern"),
    ],
)
def test_load_script_rejects_bad_rules(tmp_path, line, fragment):
    path = _write_script(tmp_path, [line])
    with pytest.raises(ScriptError, match="line 1") as excinfo:
        load_script(path)
    assert fragment in str(excinfo.value)


def test_load_script_reports_correct_line_number(tmp_path):
    path = _write_script(
        tmp_path,
        [
            json.dumps({"match": {"pattern": "ok"}, "output": "fine"}),
            "",
            "broken",
        ],
    )
    with pytest.raises(ScriptError, match="line 3"):
        load_script(path)


@pytest.mark.parametrize("flag", [True, False])
def test_load_script_rejects_boolean_turn_index(tmp_path, flag):
    # JSON true/false load as bool, which is an int subclass: true would
    # otherwise become a rule for turn 1.
    lines = [
        json.dumps({"match": {"turn_index": 0}, "output": "fine"}),
        json.dumps({"match": {"turn_index": flag}, "output": "x"}),
    ]
    with pytest.raises(ScriptError, match="line 2: 'turn_index' must be an integer"):
        load_script(_write_script(tmp_path, lines))


def test_load_script_names_line_of_bad_pattern_past_cache_size(tmp_path):
    lines = [json.dumps({"match": {"pattern": f"ok {i}"}, "output": "fine"}) for i in range(599)]
    lines.append(json.dumps({"match": {"pattern": "(unclosed"}, "output": "x"}))
    with pytest.raises(ScriptError, match="line 600: bad pattern"):
        load_script(_write_script(tmp_path, lines))


# --- HTTP backend ----------------------------------------------------------


def _messages():
    return [
        ChatMessage(role="system", content="be brief"),
        ChatMessage(role="user", content="hello", images=("img-7",)),
    ]


def test_http_backend_payload_shape():
    with HttpStub(lambda r: (200, {"text": "<think>t</think><answer>a</answer>"})) as stub:
        backend = HttpChatBackend(url=stub.url + "/chat", api_key="sk-secret")
        out = backend.complete(_messages(), GenerationParams(temperature=0.3, max_new_tokens=77))
    assert out == "<think>t</think><answer>a</answer>"
    (req,) = stub.server.requests
    assert req["path"] == "/chat"
    assert req["payload"]["messages"] == [
        {"role": "system", "content": "be brief"},
        {"role": "user", "content": "hello", "images": ["img-7"]},
    ]
    assert req["payload"]["temperature"] == 0.3
    assert req["payload"]["max_tokens"] == 77
    for tag in CLOSING_ACTION_TAGS:
        assert tag in req["payload"]["stop"]
    assert req["headers"]["Authorization"] == "Bearer sk-secret"
    assert req["headers"]["X-Request-Id"]


def test_http_backend_omits_auth_without_key():
    with HttpStub(lambda r: (200, {"text": "ok"})) as stub:
        HttpChatBackend(url=stub.url).complete(_messages(), GenerationParams())
    assert "Authorization" not in stub.server.requests[0]["headers"]


def test_http_backend_retries_5xx_with_same_request_id():
    calls = []

    def script(record):
        calls.append(record)
        if len(calls) < 3:
            return 503, {"error": "overloaded"}
        return 200, {"text": "answer text"}

    with HttpStub(script) as stub:
        backend = HttpChatBackend(url=stub.url, retries=2)
        out = backend.complete(_messages(), GenerationParams())
    assert out == "answer text"
    ids = {c["headers"]["X-Request-Id"] for c in calls}
    assert len(calls) == 3
    assert len(ids) == 1


def test_http_backend_gives_up_after_retries():
    with HttpStub(lambda r: (500, {"error": "down"})) as stub:
        backend = HttpChatBackend(url=stub.url, retries=1)
        with pytest.raises(ChatBackendError, match="after 2 attempt"):
            backend.complete(_messages(), GenerationParams())
    assert len(stub.server.requests) == 2


def test_http_backend_4xx_is_fatal_not_retried():
    with HttpStub(lambda r: (401, {"error": "bad key"})) as stub:
        backend = HttpChatBackend(url=stub.url, retries=3)
        with pytest.raises(ChatBackendError, match="401"):
            backend.complete(_messages(), GenerationParams())
    assert len(stub.server.requests) == 1


def test_http_backend_error_snips_body():
    with HttpStub(lambda r: (400, {"error": "x" * 500})) as stub:
        backend = HttpChatBackend(url=stub.url)
        with pytest.raises(ChatBackendError) as excinfo:
            backend.complete(_messages(), GenerationParams())
    assert len(str(excinfo.value)) < 300


def test_http_backend_empty_text_raises():
    with HttpStub(lambda r: (200, {"text": "   "})) as stub:
        backend = HttpChatBackend(url=stub.url)
        with pytest.raises(EmptyGenerationError):
            backend.complete(_messages(), GenerationParams())


def test_http_backend_malformed_response_raises():
    with HttpStub(lambda r: (200, "not json at all")) as stub:
        backend = HttpChatBackend(url=stub.url)
        with pytest.raises(ChatBackendError, match="malformed"):
            backend.complete(_messages(), GenerationParams())


def test_http_backend_truncates_at_stop():
    text = "<think>a</think><text_search>q</text_search> overflow"
    with HttpStub(lambda r: (200, {"text": text})) as stub:
        backend = HttpChatBackend(url=stub.url)
        out = backend.complete(_messages(), GenerationParams())
    assert out == "<think>a</think><text_search>q</text_search>"
