from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbagent import protocol, runtime
from dbagent.gateway import EmptyGenerationError, ScriptedBackend, ScriptedRule, truncate_at_stop
from dbagent.protocol import ActionKind, EvidenceItem, TurnRecord, render_evidence, serialize_turn
from dbagent.runtime import (
    RolloutConfig,
    TERMINATED_ANSWER,
    TERMINATED_BUDGET,
    TERMINATED_PROTOCOL,
    ToolBinding,
    Trajectory,
    TrajectoryError,
    batch_rollout,
    read_trajectory_file,
    rollout,
    write_trajectory_file,
)
from dbagent.errors import DataError
from dbagent.factory import read_outcome_file
from dbagent.wire import decode, encode
from helpers import (
    make_canonical_trajectory,
    make_corpus,
    make_tools,
    marker,
    question,
    rule_breaking_trajectories,
    trajectory_json,
    value,
    write_jsonl,
)


@pytest.fixture(scope="module")
def tools12():
    return make_tools(make_corpus(12))


def turn_raw(think, action, payload, caption=None):
    parts = [f"<think>{think}</think>"]
    if caption is not None:
        parts.append(f"<caption>{caption}</caption>")
    parts.append(f"<{action}>{payload}</{action}>")
    return "".join(parts)


def answer_rule(i):
    return ScriptedRule(
        output=turn_raw("The evidence states the fact.", "answer", value(i)),
        pattern=rf"is {value(i)}\.",
    )


def search_rule(i):
    return ScriptedRule(
        output=turn_raw(
            f"The fact about {marker(i)} must be looked up.",
            "text_search",
            f"special fact of {marker(i)}",
        ),
        pattern=rf"special fact of {marker(i)}\?$",
    )


class SpyBackend:
    """Wraps a backend and records the message list of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def complete(self, messages, params, turn_index=0):
        self.calls.append([(m.role, m.content) for m in messages])
        return self.inner.complete(messages, params, turn_index=turn_index)


# --- the five trajectory shapes -------------------------------------------


def test_direct_answer_shape(tools12):
    backend = ScriptedBackend(
        [ScriptedRule(output=turn_raw("I recognize this.", "answer", value(3)), pattern=r".")]
    )
    traj = rollout("img-003", question(3), backend, tools12, RolloutConfig(), task_id="q003")
    assert traj.action_kinds == (ActionKind.ANSWER,)
    assert traj.final_answer == value(3)
    assert traj.terminated_by == TERMINATED_ANSWER
    assert traj.observations == ()
    assert traj.protocol_events == ()


def test_text_then_answer_shape(tools12):
    backend = ScriptedBackend([answer_rule(4), search_rule(4)])
    traj = rollout("img-004", question(4), backend, tools12, RolloutConfig(), task_id="q004")
    assert traj.action_kinds == (ActionKind.TEXT_SEARCH, ActionKind.ANSWER)
    assert traj.final_answer == value(4)
    assert len(traj.observations) == 1
    assert f"is {value(4)}." in traj.observations[0].rendered


def test_image_then_answer_shape(tools12):
    backend = ScriptedBackend(
        [
            answer_rule(7),
            ScriptedRule(
                output=turn_raw("The subject is unfamiliar.", "image_search", "image_path"),
                pattern=r"special fact",
            ),
        ]
    )
    traj = rollout("img-007", question(7), backend, tools12, RolloutConfig(), task_id="q007")
    assert traj.action_kinds == (ActionKind.IMAGE_SEARCH, ActionKind.ANSWER)
    assert traj.final_answer == value(7)
    # Image evidence is the matched article's title and lead.
    assert f"Topic 7 {marker(7)}" in traj.observations[0].rendered


def test_image_text_answer_shape_with_caption(tools12):
    backend = ScriptedBackend(
        [
            ScriptedRule(
                output=turn_raw("Identify the image first.", "image_search", "image_path"),
                turn_index=0,
            ),
            ScriptedRule(
                output=turn_raw(
                    "The article names the entity; now find the fact.",
                    "text_search",
                    f"{marker(8)} special fact",
                    caption=f"The image shows Topic 8 {marker(8)}.",
                ),
                turn_index=1,
            ),
            ScriptedRule(
                output=turn_raw("Found it.", "answer", value(8)),
                turn_index=2,
            ),
        ]
    )
    traj = rollout("img-008", question(8), backend, tools12, RolloutConfig(), task_id="q008")
    assert traj.action_kinds == (
        ActionKind.IMAGE_SEARCH,
        ActionKind.TEXT_SEARCH,
        ActionKind.ANSWER,
    )
    assert traj.turns[1].caption == f"The image shows Topic 8 {marker(8)}."
    assert len(traj.observations) == 2
    assert traj.final_answer == value(8)


def test_double_text_answer_shape(tools12):
    backend = ScriptedBackend(
        [
            ScriptedRule(
                output=turn_raw("Try a broad query.", "text_search", f"{marker(5)} notes"),
                turn_index=0,
            ),
            ScriptedRule(
                output=turn_raw(
                    "Not specific enough; target the fact.",
                    "text_search",
                    f"special fact of {marker(5)}",
                ),
                turn_index=1,
            ),
            ScriptedRule(output=turn_raw("Now answer.", "answer", value(5)), turn_index=2),
        ]
    )
    traj = rollout("img-005", question(5), backend, tools12, RolloutConfig(), task_id="q005")
    assert traj.action_kinds == (
        ActionKind.TEXT_SEARCH,
        ActionKind.TEXT_SEARCH,
        ActionKind.ANSWER,
    )
    assert len(traj.observations) == 2
    assert traj.final_answer == value(5)


# --- determinism and batching ---------------------------------------------


def _mixed_script(n):
    rules = []
    for i in range(n):
        rules.append(answer_rule(i))
        rules.append(search_rule(i))
    return ScriptedBackend(rules)


def _samples(n):
    return [
        SimpleNamespace(sample_id=f"q{i:03d}", image_ref=f"img-{i:03d}", question=question(i))
        for i in range(n)
    ]


def test_batch_output_follows_input_order(tools12):
    backend = _mixed_script(10)
    out = batch_rollout(_samples(10), backend, tools12, RolloutConfig(), workers=8)
    assert [t.task_id for t in out] == [f"q{i:03d}" for i in range(10)]


def test_rollouts_byte_identical_across_runs_and_workers(tools12, tmp_path):
    backend = _mixed_script(10)
    blobs = []
    for workers in (1, 8, 1, 8):
        out = batch_rollout(_samples(10), backend, tools12, RolloutConfig(), workers=workers)
        path = tmp_path / f"run-{len(blobs)}.jsonl"
        write_trajectory_file(out, path)
        blobs.append(path.read_bytes())
    assert len(set(blobs)) == 1


# --- budget ----------------------------------------------------------------


def always_search_backend(i=0):
    return ScriptedBackend(
        [
            ScriptedRule(
                output=turn_raw("Keep looking.", "text_search", f"{marker(i)} more details"),
                pattern=r".",
            )
        ]
    )


def test_budget_exhaustion_after_exact_budget(tools12):
    traj = rollout(
        "img-000", question(0), always_search_backend(), tools12, RolloutConfig(budget=4)
    )
    assert traj.terminated_by == TERMINATED_BUDGET
    assert len(traj.turns) == 4
    assert traj.n_tool_turns == 4
    assert len(traj.observations) == 4
    assert traj.final_answer is None


def test_budget_respected_for_other_values(tools12):
    traj = rollout(
        "img-000", question(0), always_search_backend(), tools12, RolloutConfig(budget=2)
    )
    assert len(traj.turns) == 2
    assert traj.terminated_by == TERMINATED_BUDGET


@pytest.mark.parametrize("field", ["k_text", "k_image"])
def test_a_retrieval_depth_below_1_is_refused(field):
    # A search at k 0 could only fail, so every search would be tool-error
    # evidence; a budget of 0 stays valid (a trajectory with no turns).
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
        RolloutConfig(**{field: 0})
    assert RolloutConfig(budget=0, **{field: 1}).budget == 0


# --- protocol handling -----------------------------------------------------


def test_single_violation_recovers_after_reprompt(tools12):
    backend = SpyBackend(
        ScriptedBackend(
            [
                ScriptedRule(output=f"<answer>{value(2)}</answer>", turn_index=0),  # no think
                ScriptedRule(
                    output=turn_raw("Second try, following the rules.", "answer", value(2)),
                    turn_index=1,
                ),
            ]
        )
    )
    traj = rollout("img-002", question(2), backend, tools12, RolloutConfig(), task_id="q002")
    assert traj.terminated_by == TERMINATED_ANSWER
    assert traj.final_answer == value(2)
    assert len(traj.protocol_events) == 1
    assert traj.protocol_events[0]["generation_index"] == 0
    assert any(v["code"] == "MissingThink" for v in traj.protocol_events[0]["violations"])
    # The reprompt is a user message quoting the violation.
    roles_then_content = backend.calls[1]
    assert roles_then_content[-1][0] == "user"
    assert "violated the output format" in roles_then_content[-1][1]
    assert "MissingThink" in roles_then_content[-1][1]


def test_two_consecutive_violations_terminate(tools12):
    backend = ScriptedBackend(
        [ScriptedRule(output="<answer>no think, ever</answer>", pattern=r".")]
    )
    traj = rollout("img-002", question(2), backend, tools12, RolloutConfig())
    assert traj.terminated_by == TERMINATED_PROTOCOL
    assert traj.turns == ()
    assert traj.final_answer is None
    assert len(traj.protocol_events) == 2


def test_violation_streak_resets_on_accepted_turn(tools12):
    bad = f"<answer>{value(2)}</answer>"
    backend = ScriptedBackend(
        [
            ScriptedRule(output=bad, turn_index=0),
            ScriptedRule(
                output=turn_raw("Search first.", "text_search", f"special fact of {marker(2)}"),
                turn_index=1,
            ),
            ScriptedRule(output=bad, turn_index=2),
            ScriptedRule(
                output=turn_raw("The evidence settles it.", "answer", value(2)), turn_index=3
            ),
        ]
    )
    traj = rollout("img-002", question(2), backend, tools12, RolloutConfig())
    assert traj.terminated_by == TERMINATED_ANSWER
    assert len(traj.protocol_events) == 2
    assert traj.action_kinds == (ActionKind.TEXT_SEARCH, ActionKind.ANSWER)


def test_each_generation_is_parsed_once(tools12, monkeypatch):
    parsed = []

    def counting(raw):
        parsed.append(raw)
        return real(raw)

    real = runtime.parse_turn
    monkeypatch.setattr(runtime, "parse_turn", counting)
    monkeypatch.setattr(protocol, "parse_turn", counting)
    bad = f"<answer>{value(2)}</answer>"
    backend = ScriptedBackend(
        [
            ScriptedRule(output=bad, turn_index=0),
            ScriptedRule(
                output=turn_raw("Search first.", "text_search", f"special fact of {marker(2)}"),
                turn_index=1,
            ),
            ScriptedRule(output=turn_raw("Settled.", "answer", value(2)), turn_index=2),
        ]
    )
    for strict in (True, False):
        parsed.clear()
        config = RolloutConfig(strict_protocol=strict)
        traj = rollout("img-002", question(2), backend, tools12, config)
        assert traj.terminated_by == TERMINATED_ANSWER
        assert len(parsed) == 3


def test_lenient_mode_tolerates_unknown_tags(tools12):
    raw = f"<think>ok</think><note></note><answer>{value(2)}</answer>"
    backend = ScriptedBackend([ScriptedRule(output=raw, pattern=r".")])
    strict_traj = rollout("img-002", question(2), backend, tools12, RolloutConfig())
    lenient_traj = rollout(
        "img-002", question(2), backend, tools12, RolloutConfig(strict_protocol=False)
    )
    assert strict_traj.terminated_by == TERMINATED_PROTOCOL
    assert lenient_traj.terminated_by == TERMINATED_ANSWER
    assert lenient_traj.final_answer == value(2)


def test_caption_without_prior_image_search_is_strict_failure(tools12):
    raw = turn_raw("Describing.", "text_search", "anything", caption="A photo of something.")
    backend = ScriptedBackend([ScriptedRule(output=raw, pattern=r".")])
    traj = rollout("img-002", question(2), backend, tools12, RolloutConfig())
    assert traj.terminated_by == TERMINATED_PROTOCOL
    codes = {
        v["code"] for event in traj.protocol_events for v in event["violations"]
    }
    assert "CaptionWithoutPriorImageSearch" in codes


def test_rollout_rejects_blank_question():
    with pytest.raises(ValueError, match="question must be non-empty"):
        rollout("img-001", "   ", ScriptedBackend([]), fake_tools(), RolloutConfig())


# --- tool binding behavior -------------------------------------------------


class RecordingRetriever:
    def __init__(self, items, fail_times=0):
        self.items = items
        self.fail_times = fail_times
        self.calls = []

    def search(self, query, k):
        self.calls.append((query, k))
        if self.fail_times > 0:
            self.fail_times -= 1
            raise RuntimeError("index offline")
        return self.items


def fake_tools(text_items=(), image_items=(), text_fail=0, image_fail=0):
    return ToolBinding(
        text_retriever=RecordingRetriever(list(text_items), text_fail),
        image_retriever=RecordingRetriever(list(image_items), image_fail),
    )


ITEM = EvidenceItem(
    article_id="a001", title="Topic 1", heading="Lead", text="A fact.", score=0.5
)


def test_image_search_always_uses_original_image_ref():
    tools = fake_tools(image_items=[ITEM])
    backend = ScriptedBackend(
        [
            ScriptedRule(
                output=turn_raw("Look at the image.", "image_search", "image_path"),
                turn_index=0,
            ),
            ScriptedRule(output=turn_raw("Done.", "answer", "a fact"), turn_index=1),
        ]
    )
    rollout("img-original", "what is shown?", backend, tools, RolloutConfig(k_image=1))
    assert tools.image_retriever.calls == [("img-original", 1)]


def test_text_search_passes_query_and_k():
    tools = fake_tools(text_items=[ITEM])
    backend = ScriptedBackend(
        [
            ScriptedRule(output=turn_raw("Search.", "text_search", "my query"), turn_index=0),
            ScriptedRule(output=turn_raw("Done.", "answer", "a fact"), turn_index=1),
        ]
    )
    rollout("img-x", "q?", backend, tools, RolloutConfig(k_text=2))
    assert tools.text_retriever.calls == [("my query", 2)]


def test_evidence_message_is_exact_rendering():
    tools = fake_tools(text_items=[ITEM])
    backend = SpyBackend(
        ScriptedBackend(
            [
                ScriptedRule(output=turn_raw("Search.", "text_search", "q"), turn_index=0),
                ScriptedRule(output=turn_raw("Done.", "answer", "a fact"), turn_index=1),
            ]
        )
    )
    traj = rollout("img-x", "q?", backend, tools, RolloutConfig())
    expected = render_evidence([ITEM]).rendered
    assert traj.observations[0].rendered == expected
    # The second generation saw exactly that rendering as the latest user turn.
    assert backend.calls[1][-1] == ("user", expected)


def test_failed_tool_runs_once_and_becomes_error_evidence():
    tools = fake_tools(text_items=[ITEM], text_fail=1)
    backend = ScriptedBackend(
        [
            ScriptedRule(output=turn_raw("Search.", "text_search", "q"), turn_index=0),
            ScriptedRule(output=turn_raw("Done.", "answer", "a fact"), turn_index=1),
        ]
    )
    traj = rollout("img-x", "q?", backend, tools, RolloutConfig())
    assert tools.text_retriever.calls == [("q", 3)]
    assert traj.observations[0].rendered == "<evidence>\n[tool error] index offline\n</evidence>"


def test_tool_error_twice_becomes_error_evidence():
    tools = fake_tools(text_items=[ITEM], text_fail=2)
    backend = ScriptedBackend(
        [
            ScriptedRule(output=turn_raw("Search.", "text_search", "q"), turn_index=0),
            ScriptedRule(output=turn_raw("Give up gracefully.", "answer", "unknown"), turn_index=1),
        ]
    )
    traj = rollout("img-x", "q?", backend, tools, RolloutConfig())
    assert traj.terminated_by == TERMINATED_ANSWER
    assert "[tool error] index offline" in traj.observations[0].rendered


def test_an_empty_generation_ends_the_rollout_at_once(caplog):
    class FlakyBackend:
        def __init__(self, inner):
            self.inner = inner
            self.calls = 0

        def complete(self, messages, params, turn_index=0):
            self.calls += 1
            if self.calls == 1:
                raise EmptyGenerationError("nothing")
            return self.inner.complete(messages, params, turn_index=turn_index)

    backend = FlakyBackend(
        ScriptedBackend([ScriptedRule(output=turn_raw("Hi.", "answer", "yes"), pattern=r".")])
    )
    with caplog.at_level("WARNING", logger="dbagent.runtime"):
        traj = rollout("img-x", "q?", backend, fake_tools(), RolloutConfig())
    assert backend.calls == 1
    assert traj.terminated_by == TERMINATED_PROTOCOL
    assert traj.turns == ()
    assert [r.getMessage() for r in caplog.records] == ["empty generation at index 0: nothing"]


def test_persistent_empty_generation_is_protocol_failure():
    class DeadBackend:
        def complete(self, messages, params, turn_index=0):
            raise EmptyGenerationError("nothing at all")

    traj = rollout("img-x", "q?", DeadBackend(), fake_tools(), RolloutConfig())
    assert traj.terminated_by == TERMINATED_PROTOCOL
    assert traj.turns == ()


def test_image_evidence_is_the_title_and_lead_section(tools12):
    backend = ScriptedBackend(
        [
            ScriptedRule(
                output=turn_raw("Check the image.", "image_search", "image_path"), turn_index=0
            ),
            ScriptedRule(output=turn_raw("Done.", "answer", value(6)), turn_index=1),
        ]
    )
    traj = rollout("img-006", question(6), backend, tools12, RolloutConfig())
    (item,) = traj.observations[0].items
    lead = tools12.image_retriever.corpus.articles[item.article_id].lead_section
    assert (item.section_id, item.heading, item.text) == (None, lead.heading, lead.text)
    assert "Part 1:" not in traj.observations[0].rendered  # no later section


# --- config snapshot -------------------------------------------------------


def test_config_snapshot_digests_system_prompt(tools12):
    import hashlib

    config = RolloutConfig(system_prompt="custom instructions")
    backend = ScriptedBackend(
        [ScriptedRule(output=turn_raw("Hello.", "answer", value(1)), pattern=r".")]
    )
    traj = rollout("img-001", question(1), backend, tools12, config)
    snap = traj.config
    assert snap["budget"] == 4
    assert snap["strict_protocol"] is True
    expected = hashlib.sha256(b"custom instructions").hexdigest()
    assert snap["system_prompt_sha256"] == expected
    assert "custom instructions" not in json.dumps(dict(snap))


def _parent_snapshot(config):
    """What ``snapshot`` gave before it kept the digest: the encoded fields,
    the prompt replaced by its sha256, hashed on every call."""
    snap = encode(config)
    snap["system_prompt_sha256"] = hashlib.sha256(snap.pop("system_prompt").encode("utf-8")).hexdigest()
    return snap


@pytest.mark.parametrize("prompt", [None, "custom instructions \u2014 caf\u00e9"])
def test_snapshot_is_the_fields_and_the_prompt_digest(prompt):
    config = RolloutConfig() if prompt is None else RolloutConfig(system_prompt=prompt)
    assert config.snapshot() == _parent_snapshot(config)
    assert list(config.snapshot()) == list(_parent_snapshot(config))
    grid_point = replace(config, k_text=7)  # how run_topk_grid varies a config
    assert grid_point.snapshot() == {**_parent_snapshot(config), "k_text": 7}
    config.system_prompt = "edited after the first snapshot"
    assert config.snapshot() == _parent_snapshot(config)


@pytest.mark.parametrize("workers", [1, 4])
def test_a_batch_hashes_its_prompt_once(tools12, workers):
    config = RolloutConfig(system_prompt=f"batch prompt for {workers} worker(s)")
    runtime._prompt_sha256.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(10.0)  # no thread switch between a cache miss and its store
    try:
        out = batch_rollout(_samples(8), _mixed_script(8), tools12, config, workers=workers)
    finally:
        sys.setswitchinterval(interval)
    info = runtime._prompt_sha256.cache_info()
    assert (info.misses, info.hits) == (1, 7)
    assert {t.config["system_prompt_sha256"] for t in out} == {_parent_snapshot(config)["system_prompt_sha256"]}


def test_the_prompt_digest_holds_under_thread_switches(tools12):
    # Threads that miss the cache together each hash the prompt; every
    # rollout must still record its digest.
    config = RolloutConfig(system_prompt="prompt shared by eight threads")
    runtime._prompt_sha256.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = batch_rollout(_samples(32), _mixed_script(32), tools12, config, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert [t.config for t in out] == [_parent_snapshot(config)] * 32
    assert runtime._prompt_sha256.cache_info().misses <= 8


# --- wire format -----------------------------------------------------------


def test_trajectory_file_round_trip(tools12, tmp_path):
    backend = _mixed_script(6)
    out = batch_rollout(_samples(6), backend, tools12, RolloutConfig())
    path = tmp_path / "trajs.jsonl"
    write_trajectory_file(out, path)
    loaded = read_trajectory_file(path)
    assert [encode(t) for t in loaded] == [encode(t) for t in out]


def test_read_trajectory_file_reports_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("\nnot json\n", encoding="utf-8")
    with pytest.raises(TrajectoryError, match="line 2"):
        read_trajectory_file(path)


def test_read_trajectory_file_reports_missing_keys(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"task_id": "x", "question": "q"}) + "\n", encoding="utf-8")
    with pytest.raises(TrajectoryError, match="missing"):
        read_trajectory_file(path)


def test_protocol_events_are_checked_and_read_only(tmp_path, tools12):
    backend = ScriptedBackend(
        [
            ScriptedRule(output=f"<answer>{value(2)}</answer>", turn_index=0),  # no think
            ScriptedRule(output=turn_raw("Second try.", "answer", value(2)), turn_index=1),
        ]
    )
    traj = rollout("img-002", question(2), backend, tools12, RolloutConfig(), task_id="q002")
    (event,) = traj.protocol_events
    with pytest.raises(TypeError):
        event["raw"] = None
    good = tmp_path / "good.jsonl"
    write_trajectory_file([traj, traj], good)
    lines = good.read_text(encoding="utf-8").splitlines()
    # An unknown key is dropped, and the line rewrites to the bytes written.
    extra = json.loads(lines[0])
    extra["protocol_events"][0]["injected"] = 1
    path = tmp_path / "extra.jsonl"
    path.write_text(json.dumps(extra, sort_keys=True, ensure_ascii=False) + "\n" + lines[1] + "\n", encoding="utf-8")
    loaded = read_trajectory_file(path)
    assert loaded == [traj, traj] and "injected" not in loaded[0].protocol_events[0]
    write_trajectory_file(loaded, path)
    assert path.read_bytes() == good.read_bytes()
    # A value of the wrong type is refused at its line.
    bad = json.loads(lines[1])
    bad["protocol_events"][0]["raw"] = None
    path.write_text(lines[0] + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(TrajectoryError, match=r"line 2: protocol_events\[0\]: raw: expected string, got null"):
        read_trajectory_file(path)


def test_serialized_turn_round_trips_through_file(tmp_path):
    from dbagent.protocol import make_turn

    turn = make_turn("Reasoning.", ActionKind.TEXT_SEARCH, "a query", caption=None)
    traj = Trajectory(
        task_id="t",
        image_ref="img",
        question="q?",
        turns=[turn],
        observations=[render_evidence([])],
        terminated_by=TERMINATED_BUDGET,
        config={},
    )
    path = tmp_path / "one.jsonl"
    write_trajectory_file([traj], path)
    (loaded,) = read_trajectory_file(path)
    assert loaded.turns[0].raw == serialize_turn(turn)
    assert loaded.turns[0].raw == turn.raw


# --- golden trajectory bytes -----------------------------------------------


class _ReplayByQuestion:
    """Each task's own generations, picked by its question and indexed by
    generation; ``None`` is an empty generation."""

    def __init__(self, scripts):
        self.scripts = scripts

    def complete(self, messages, params, turn_index=0):
        outputs = self.scripts[messages[1].content]
        raw = outputs[min(turn_index, len(outputs) - 1)]
        if raw is None:
            raise EmptyGenerationError("nothing")
        return truncate_at_stop(raw, params.stop_sequences)


class _OfflineFor:
    """A retriever that fails on every query containing ``needle``."""

    def __init__(self, inner, needle):
        self.inner, self.needle = inner, needle

    def search(self, query, k):
        if self.needle in query:
            raise RuntimeError("index offline")
        return self.inner.search(query, k)


def _golden_scripts():
    fact = lambda i: turn_raw("Look the fact up.", "text_search", f"special fact of {marker(i)}")  # noqa: E731
    image = turn_raw("Identify the image first.", "image_search", "image_path")
    done = lambda i: turn_raw("The evidence settles it.", "answer", value(i))  # noqa: E731
    caption = turn_raw(
        "The article names the entity; now find the fact.",
        "text_search",
        f"{marker(3)} special fact",
        caption=f"The image shows Topic 3 {marker(3)}.",
    )
    unknown_tag = f"<think>ok</think><note></note><answer>{value(9)}</answer>"
    return {
        question(0): [done(0)],
        question(1): [fact(1), done(1)],
        question(2): [image, done(2)],
        question(3): [image, caption, done(3)],
        question(4): [turn_raw("Try a broad query.", "text_search", f"{marker(4)} notes"), fact(4), done(4)],
        question(5): [f"<answer>{value(5)}</answer>", done(5)],
        question(6): ["<answer>no think, ever</answer>"],
        question(7): [None],
        question(8): [turn_raw("Keep looking.", "text_search", f"{marker(8)} more details")],
        question(9): [unknown_tag],
        question(10): [turn_raw("Search.", "text_search", f"offline {marker(10)}"), done(10)],
    }


def _golden_tools(tools12):
    return ToolBinding(
        text_retriever=_OfflineFor(tools12.text_retriever, "offline"),
        image_retriever=tools12.image_retriever,
    )


def test_every_rollout_record_round_trips_through_the_codec(tools12):
    trajectories = batch_rollout(_samples(11), _ReplayByQuestion(_golden_scripts()), _golden_tools(tools12), RolloutConfig())
    assert any(block.error for traj in trajectories for block in traj.observations)
    for traj in trajectories:
        assert decode(Trajectory, encode(traj)) == traj
        for turn in traj.turns:
            assert encode(turn) == {"raw": turn.raw}
            assert decode(TurnRecord, encode(turn)) == turn


def test_trajectory_bytes_are_pinned(tools12, tmp_path):
    tools = _golden_tools(tools12)
    backend = _ReplayByQuestion(_golden_scripts())
    samples = _samples(11)
    digests = []
    for workers in (1, 4):
        out = [
            traj
            for strict in (True, False)
            for traj in batch_rollout(
                samples, backend, tools, RolloutConfig(strict_protocol=strict), workers=workers
            )
        ]
        path = tmp_path / f"workers-{workers}.jsonl"
        write_trajectory_file(out, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert [t.terminated_by for t in out[:11]] == [TERMINATED_ANSWER] * 6 + [TERMINATED_PROTOCOL] * 2 + [
        TERMINATED_BUDGET, TERMINATED_PROTOCOL, TERMINATED_ANSWER
    ]
    assert out[11 + 9].terminated_by == TERMINATED_ANSWER  # lenient: the unknown tag is ignored
    assert "[tool error] index offline" in out[10].observations[0].rendered
    assert digests == ["c243497e98aa25b8a9730497e7c2af55f846ec063440139eaa88bcb103f2d401"] * 2


# --- the rules a trajectory holds ------------------------------------------


# What a scripted model may generate: well-formed searches and answers,
# captions (legal in strict mode only after an image search), unknown tags,
# malformed turns, a search the tool fails on, and None, an empty generation.
_GENERATIONS = [
    turn_raw("Look the fact up.", "text_search", f"special fact of {marker(1)}"),
    turn_raw("Identify the image first.", "image_search", "image_path"),
    turn_raw("The evidence settles it.", "answer", value(1)),
    turn_raw("The article names it.", "text_search", f"{marker(1)} fact", caption="The image shows a topic."),
    turn_raw("Named.", "answer", value(1), caption="The image shows a topic."),
    "<think>ok</think><note></note><text_search>a query</text_search>",
    f"<think>ok</think><note></note><answer>{value(1)}</answer>",
    f"<answer>{value(1)}</answer>",
    "no tags at all",
    "<think>t</think><text_search>a</text_search><answer>b</answer>",
    turn_raw("Search.", "text_search", "offline notes"),
    None,
]


@settings(max_examples=200, deadline=None)
@given(
    outputs=st.lists(st.sampled_from(_GENERATIONS), min_size=1, max_size=10),
    strict=st.booleans(),
    budget=st.integers(min_value=0, max_value=4),
)
@example(outputs=[_GENERATIONS[1], _GENERATIONS[3], _GENERATIONS[4]], strict=True, budget=4)
@example(outputs=[_GENERATIONS[1], _GENERATIONS[4]], strict=True, budget=4)
def test_every_trajectory_a_rollout_writes_reads_back(tools12, outputs, strict, budget):
    config = RolloutConfig(budget=budget, strict_protocol=strict)
    backend = _ReplayByQuestion({question(1): outputs})
    traj = rollout("img-001", question(1), backend, _golden_tools(tools12), config, task_id="q001")
    # Built, so it holds every rule; a file line of it reads back as itself.
    assert decode(Trajectory, json.loads(json.dumps(encode(traj)))) == traj


_RULE_CASES = rule_breaking_trajectories()


@pytest.mark.parametrize("name, fields, message", _RULE_CASES, ids=[name for name, _, _ in _RULE_CASES])
def test_each_rule_rejects_its_case(tmp_path, name, fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Trajectory(**fields)
    good = make_canonical_trajectory("q001", "T-A", 1)
    path = write_jsonl(tmp_path / "trajectories.jsonl", [json.dumps(encode(good)), json.dumps(trajectory_json(fields))])
    with pytest.raises(DataError, match=f"1 error\\(s\\)\nline 2: {re.escape(message)}$"):
        read_trajectory_file(path)
    outcomes = [
        {"sample_id": "q001", "trajectory_type": "T→A", "stages": [], "assembled": trajectory, "difficulty": "medium"}
        for trajectory in (encode(good), trajectory_json(fields))
    ]
    path = write_jsonl(tmp_path / "outcomes.jsonl", [json.dumps(o) for o in outcomes])
    with pytest.raises(DataError, match=f"1 error\\(s\\)\nline 2: assembled: {re.escape(message)}$"):
        read_outcome_file(path)


def test_a_built_trajectory_cannot_be_edited(tmp_path):
    # Its rules were checked when it was built; an edit that broke one would
    # be written as a line that every reader refuses.
    traj = make_canonical_trajectory("q0", "T-A")
    with pytest.raises(AttributeError):
        traj.observations.append(traj.observations[0])
    with pytest.raises(AttributeError):
        traj.turns.append(traj.turns[-1])
    with pytest.raises(FrozenInstanceError):
        traj.observations = ()
    built = Trajectory(**{**{name: getattr(traj, name) for name in traj.__dataclass_fields__},
                          "turns": list(traj.turns), "observations": list(traj.observations)})
    assert (type(built.turns), type(built.observations), type(built.protocol_events)) == (tuple, tuple, tuple)
    write_trajectory_file([traj], tmp_path / "trajectories.jsonl")
    assert read_trajectory_file(tmp_path / "trajectories.jsonl") == [traj]


def test_lenient_mode_accepts_a_caption_before_any_image_search(tmp_path):
    (fields,) = [fields for name, fields, _ in _RULE_CASES if name == "caption before any image search"]
    lenient = Trajectory(**{**fields, "config": {"strict_protocol": False}})
    write_trajectory_file([lenient], tmp_path / "lenient.jsonl")
    assert read_trajectory_file(tmp_path / "lenient.jsonl") == [lenient]


def test_a_built_trajectorys_config_cannot_be_edited(tmp_path):
    # The validation mode is read from the config: a lenient trajectory
    # edited to record strict would be written as a line every reader refuses.
    (fields,) = [fields for name, fields, _ in _RULE_CASES if name == "caption before any image search"]
    config = {"strict_protocol": False}
    lenient = Trajectory(**{**fields, "config": config})
    with pytest.raises(TypeError):
        lenient.config["strict_protocol"] = True
    config["strict_protocol"] = True  # the trajectory holds its own copy
    assert lenient.validation == "lenient"
    write_trajectory_file([lenient], tmp_path / "lenient.jsonl")
    assert read_trajectory_file(tmp_path / "lenient.jsonl") == [lenient]
