from __future__ import annotations

import json

import pytest

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
