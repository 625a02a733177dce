from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbagent import runtime
from dbagent.factory import (
    BranchOutcome,
    DatasetError,
    FactoryConfig,
    JudgeParseFailure,
    StageParseError,
    TYPE_DIRECT,
    TYPE_DISCARDED,
    TYPE_FAILED,
    TYPE_IMAGE,
    TYPE_IMAGE_TEXT,
    TYPE_TEXT,
    TYPE_TEXT_TEXT,
    _extract_tag,
    assign_difficulty,
    build_outcome,
    entity_matches,
    judge_answer,
    load_qa_dataset,
    normalize_answer,
    read_outcome_file,
    run_factory,
    sample_balanced,
    trajectory_type_of,
    write_outcome_file,
)
from dbagent.gateway import ScriptedBackend, ScriptedRule
from dbagent.protocol import TurnRecord
from dbagent.runtime import RolloutConfig
from dbagent.wire import decode, encode
from helpers import (
    factory_backend,
    factory_rules,
    make_canonical_trajectory,
    make_corpus,
    make_tools,
    marker,
    qa_obj,
    qa_sample,
    question,
    stage1_output,
    stage1_pattern,
    stage2_pattern,
    stage3_pattern,
    stage_answer_output,
    value,
    write_jsonl,
)


@pytest.fixture(scope="module")
def tools():
    return make_tools(make_corpus(10))


# --- answer normalization and judging --------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("  The  Quick  Fox. ", "the quick fox"),
        ("Paris.", "paris"),
        ("VAL003", "val003"),
        ("answer ?!", "answer"),
        ("a.b", "a.b"),
        ("Hello...", "hello"),
        ("", ""),
    ],
)
def test_normalize_answer(raw, expected):
    assert normalize_answer(raw) == expected


def test_judge_answer_normalized_membership():
    assert judge_answer("Val003", ["val003"])
    assert judge_answer("paris.", ["Paris", "City of Paris"])
    assert judge_answer("B.", "a|b")
    assert not judge_answer("the congridae", ["Congridae"])
    assert not judge_answer("", ["anything"])
    assert not judge_answer("   ", ["anything"])


def test_entity_matches_equality_and_containment():
    assert entity_matches("Labrador Retriever", "labrador retriever")
    assert entity_matches("Labrador", "Labrador Retriever")
    assert entity_matches("Labrador Retriever", "Retriever")
    assert not entity_matches("cat", "dog")
    assert not entity_matches("", "dog")
    assert not entity_matches("cat", "")


class CannedBackend:
    def __init__(self, text):
        self.text = text
        self.last_messages = None

    def complete(self, messages, params, turn_index=0):
        self.last_messages = messages
        return self.text


@pytest.mark.parametrize(
    "judge_text,expected",
    [
        ("[correct]", True),
        ("The answer is fine. [correct]", True),
        ("[wrong]", False),
        ("[wrong] though it nearly reads as [correct]", False),
        ("[correct] though some call it [wrong]", True),
    ],
)
def test_model_judge_marker_parsing(judge_text, expected):
    backend = CannedBackend(judge_text)
    assert judge_answer("pred", ["gold"], mode="model_judge", backend=backend) is expected


def test_model_judge_without_marker_raises():
    with pytest.raises(JudgeParseFailure):
        judge_answer("pred", ["gold"], mode="model_judge", backend=CannedBackend("hmm, unclear"))


def test_model_judge_prompt_lists_question_answer_and_golds():
    backend = CannedBackend("[correct]")
    judge_answer("my guess", ["g1", "g2"], mode="model_judge", backend=backend, question="why?")
    content = backend.last_messages[-1].content
    assert "[question] why?" in content
    assert "[answer] my guess" in content
    assert "[gold_answer] g1|g2" in content


def test_model_judge_requires_backend():
    with pytest.raises(ValueError):
        judge_answer("x", ["x"], mode="model_judge")


def test_unknown_judge_mode_rejected():
    with pytest.raises(ValueError):
        judge_answer("x", ["x"], mode="vibes")


# --- QA dataset loading -----------------------------------------------------


def test_load_qa_dataset_round_trip(tmp_path):
    path = write_jsonl(tmp_path / "qa.jsonl", [json.dumps(qa_obj(i)) for i in range(3)] + [""])
    samples = load_qa_dataset(path)
    assert [s.sample_id for s in samples] == ["q000", "q001", "q002"]
    assert samples[1].question == question(1)
    assert samples[1].answers == (value(1),)
    assert samples[1].split == "train"
    assert samples[1].gold_entity == f"Topic 1 {marker(1)}"


def test_load_qa_dataset_accepts_pipe_answers(tmp_path):
    path = write_jsonl(tmp_path / "qa.jsonl", [json.dumps(qa_obj(0, answers="a|b|c"))])
    (sample,) = load_qa_dataset(path)
    assert sample.answers == ("a", "b", "c")


def test_load_qa_dataset_collects_all_errors(tmp_path):
    lines = [
        "not json",
        json.dumps(qa_obj(0)),
        json.dumps(qa_obj(0)),  # duplicate id
        json.dumps(qa_obj(1, question="")),
    ]
    path = write_jsonl(tmp_path / "qa.jsonl", lines)
    with pytest.raises(DatasetError) as excinfo:
        load_qa_dataset(path)
    message = str(excinfo.value)
    assert "3 error(s)" in message
    assert "line 1: invalid JSON" in message
    assert "duplicate sample_id 'q000' (first seen on line 2)" in message
    assert "line 4: field 'question'" in message


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"split": "dev"}, "split must be train/val/test"),
        ({"answers": []}, "'answers' is empty"),
        ({"answers": ["", "  "]}, "'answers' is empty"),
        ({"answers": 42}, "'answers' must be"),
        ({"image_ref": "   "}, "field 'image_ref'"),
    ],
)
def test_load_qa_dataset_field_validation(tmp_path, overrides, fragment):
    path = write_jsonl(tmp_path / "qa.jsonl", [json.dumps(qa_obj(0, **overrides))])
    with pytest.raises(DatasetError, match="1 error"):
        load_qa_dataset(path)
    try:
        load_qa_dataset(path)
    except DatasetError as exc:
        assert fragment in str(exc)


# --- routing matrix ---------------------------------------------------------


@pytest.mark.parametrize(
    "route,ttype,n_turns,difficulty",
    [
        ("A", TYPE_DIRECT, 1, "easy"),
        ("I-A", TYPE_IMAGE, 2, "medium"),
        ("T-A", TYPE_TEXT, 2, "medium"),
        ("I-T-A", TYPE_IMAGE_TEXT, 3, "hard"),
        ("T-T-A", TYPE_TEXT_TEXT, 3, "hard"),
    ],
)
def test_routes_assemble_expected_types(tools, route, ttype, n_turns, difficulty):
    backend = ScriptedBackend(factory_rules(3, route))
    out = build_outcome(qa_sample(3), backend, tools, FactoryConfig())
    assert out.trajectory_type == ttype
    assert out.difficulty == difficulty
    assert out.discard_reason is None
    traj = out.assembled
    assert traj is not None
    assert len(traj.turns) == n_turns
    assert traj.final_answer == value(3)
    assert traj.terminated_by == "answer"
    assert trajectory_type_of(traj) == ttype


def test_direct_answer_think_merges_entity_sentence(tools):
    backend = ScriptedBackend(factory_rules(1, "A"))
    out = build_outcome(qa_sample(1), backend, tools, FactoryConfig())
    assert out.assembled.turns[0].think == (
        f"This is {marker(1)}, whose special fact is {value(1)}. "
        f"The main entity is Topic 1 {marker(1)}."
    )
    assert out.assembled.observations == ()


def test_text_route_query_and_choose_text(tools):
    backend = ScriptedBackend(factory_rules(3, "T-A"))
    out = build_outcome(qa_sample(3), backend, tools, FactoryConfig())
    first = out.assembled.turns[0]
    assert first.action_payload == f"Topic 3 {marker(3)} {question(3)}"
    assert first.think == (
        "The subject is familiar but the fact is not. "
        f"The main entity is Topic 3 {marker(3)}. "
        "The entity is correct but the needed fact is missing, so it must be looked up."
    )
    # Grounding: the searched evidence carries the gold fact.
    assert len(out.assembled.observations[0].items) == 3  # default k_text
    assert value(3) in out.assembled.observations[0].rendered


def test_image_route_payload_and_evidence(tools):
    backend = ScriptedBackend(factory_rules(5, "I-A"))
    out = build_outcome(qa_sample(5), backend, tools, FactoryConfig())
    first = out.assembled.turns[0]
    assert first.action_payload == "image_path"
    assert "re-identified" in first.think
    assert len(out.assembled.observations[0].items) == 1  # default k_image
    assert marker(5) in out.assembled.observations[0].rendered


def test_double_text_route_appends_refinement(tools):
    backend = ScriptedBackend(factory_rules(4, "T-T-A"))
    out = build_outcome(qa_sample(4), backend, tools, FactoryConfig())
    turns = out.assembled.turns
    assert turns[1].action_payload == turns[0].action_payload + " additional details"
    assert turns[1].caption is None
    assert turns[1].think == (
        "The evidence does not contain the asked fact; "
        "the query needs to target it more directly."
    )
    assert len(out.assembled.observations) == 2


def test_image_text_route_captions_from_retrieved_title(tools):
    backend = ScriptedBackend(factory_rules(6, "I-T-A"))
    out = build_outcome(qa_sample(6), backend, tools, FactoryConfig())
    turns = out.assembled.turns
    assert turns[0].caption is None
    # The caption and refined query anchor on the top image hit's title.
    assert turns[1].caption == f"The image shows Topic 6 {marker(6)}."
    assert turns[1].action_payload == f"Topic 6 {marker(6)} {question(6)}"
    assert "focused text query" in turns[1].think


def test_stage_records_trace_the_pipeline(tools):
    backend = ScriptedBackend(factory_rules(2, "T-T-A"))
    out = build_outcome(qa_sample(2), backend, tools, FactoryConfig())
    trace = [(s.stage, s.prompt_id, s.verdict) for s in out.stages]
    assert trace == [
        ("stage1_answer", "stage1-answer-v1", "n/a"),
        ("stage1_judge", "judge-normalized-exact-v1", "wrong"),
        ("stage2_text_answer", "stage2-text-answer-v1", "n/a"),
        ("stage2_text_judge", "judge-normalized-exact-v1", "wrong"),
        ("stage3_text_answer", "stage3-text-answer-v1", "n/a"),
        ("stage3_judge", "judge-normalized-exact-v1", "correct"),
    ]


def test_image_branch_stage_names(tools):
    backend = ScriptedBackend(factory_rules(7, "I-A"))
    out = build_outcome(qa_sample(7), backend, tools, FactoryConfig())
    assert [s.stage for s in out.stages] == [
        "stage1_answer",
        "stage1_judge",
        "stage2_image_answer",
        "stage2_image_judge",
    ]
    assert out.stages[-1].verdict == "correct"


def test_image_evidence_is_the_title_and_lead_section(tools):
    out = build_outcome(qa_sample(5), ScriptedBackend(factory_rules(5, "I-A")), tools, FactoryConfig())
    (item,) = out.assembled.observations[0].items
    lead = tools.image_retriever.corpus.articles[item.article_id].lead_section
    assert (item.section_id, item.heading, item.text) == (None, lead.heading, lead.text)
    assert "Part 1:" not in out.assembled.observations[0].rendered  # no later section


def test_missing_gold_entity_defaults_to_text_route(tools):
    backend = ScriptedBackend(factory_rules(6, "T-A"))
    out = build_outcome(qa_sample(6, gold_entity=None), backend, tools, FactoryConfig())
    assert out.trajectory_type == TYPE_TEXT


# --- failure labeling -------------------------------------------------------


def test_stage3_wrong_discards_by_default(tools):
    backend = ScriptedBackend(factory_rules(3, "T-T-A", stage3_correct=False))
    out = build_outcome(qa_sample(3), backend, tools, FactoryConfig())
    assert out.trajectory_type == TYPE_DISCARDED
    assert out.assembled is None
    assert out.difficulty is None
    assert out.discard_reason == "stage3 answer judged wrong"


def test_stage3_wrong_kept_as_failed_when_configured(tools):
    backend = ScriptedBackend(factory_rules(3, "I-T-A", stage3_correct=False))
    out = build_outcome(qa_sample(3), backend, tools, FactoryConfig(keep_failed=True))
    assert out.trajectory_type == TYPE_FAILED
    assert out.discard_reason == "stage3 answer judged wrong"


def test_malformed_stage_output_discards_even_with_keep_failed(tools):
    doubled = "<think>t</think>\n<entity>e</entity><entity>f</entity>\n<answer>x</answer>"
    backend = ScriptedBackend([ScriptedRule(pattern=stage1_pattern(2), output=doubled)])
    out = build_outcome(qa_sample(2), backend, tools, FactoryConfig(keep_failed=True))
    assert out.trajectory_type == TYPE_DISCARDED
    assert "stage1_answer" in out.discard_reason
    assert "appears 2 times" in out.discard_reason


def test_stage_parse_retry_recovers(tools):
    good = stage1_output("Known at once.", f"Topic 2 {marker(2)}", value(2))
    backend = ScriptedBackend(
        [
            ScriptedRule(turn_index=0, output="<think>missing the other tags</think>"),
            ScriptedRule(turn_index=1, output=good),
        ]
    )
    out = build_outcome(qa_sample(2), backend, tools, FactoryConfig())
    assert out.trajectory_type == TYPE_DIRECT
    assert out.stages[0].model_output == good


def _reference_extract_tag(text, name, required):
    """The regex scan that ``_extract_tag``'s find loop replaces."""
    found = re.findall(rf"<{name}>(.*?)</{name}>", text, re.DOTALL)
    if len(found) > 1:
        raise StageParseError(f"tag <{name}> appears {len(found)} times, expected once")
    if not found:
        if required:
            raise StageParseError(f"tag <{name}> missing from stage output")
        return None
    return found[0].strip()


def _value_or_error(extract, text, name, required):
    try:
        return extract(text, name, required)
    except StageParseError as exc:
        return ("error", str(exc))


# Whole and partial tags of two names, and filler, so that nested,
# repeated, unclosed, crossed and empty tags can all be drawn.
_TAG_PIECES = ["<think>", "</think>", "<answer>", "</answer>", "<think", "</think", "think>", "a", "b", " ", "\n"]


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.sampled_from(_TAG_PIECES), max_size=12).map("".join),
    st.sampled_from(["think", "answer"]),
    st.booleans(),
)
@example("<think><think>a</think></think>", "think", True)
@example("<think>a</think> <think>b</think>", "think", True)
@example("<think>a\n<answer>b</think></answer>", "answer", True)
@example("<think>a</think", "think", True)
@example("<think>a</think", "think", False)
@example("<think></think>", "think", True)
@example("<think> \n </think>", "think", False)
@example("<think</think>think><think>a</think>", "think", True)
def test_extract_tag_matches_lazy_findall(text, name, required):
    assert _value_or_error(_extract_tag, text, name, required) == _value_or_error(
        _reference_extract_tag, text, name, required
    )


# --- gold-answer leakage ----------------------------------------------------


def _leak_rules(i, s1_think):
    s1 = stage1_output(s1_think, f"Topic {i} {marker(i)}", "not sure")
    s2 = stage_answer_output("The sources do not print it, but it is known.", "zephyr fact")
    return [
        ScriptedRule(pattern=stage2_pattern(i), output=s2),
        ScriptedRule(pattern=stage1_pattern(i), output=s1),
    ]


def test_gold_mention_in_early_think_discards(tools):
    backend = ScriptedBackend(
        _leak_rules(4, "The phrase zephyr fact comes to mind but needs checking.")
    )
    out = build_outcome(qa_sample(4, answers=["zephyr fact"]), backend, tools, FactoryConfig())
    assert out.trajectory_type == TYPE_DISCARDED
    assert out.discard_reason == (
        "turn 1 mentions gold answer 'zephyr fact' absent from evidence"
    )


def test_leak_check_keys_on_mention_not_support(tools):
    # Same unsupported gold, but no early mention: the trajectory assembles.
    backend = ScriptedBackend(_leak_rules(4, "The fact is not in memory."))
    out = build_outcome(qa_sample(4, answers=["zephyr fact"]), backend, tools, FactoryConfig())
    assert out.trajectory_type == TYPE_TEXT
    assert out.assembled.final_answer == "zephyr fact"


def test_an_answer_whose_tags_leave_no_turn_discards(tools):
    # The canonical turn <think>..</think><answer>a <think> b</answer> has
    # no action tag left, so no turn can be built from it.
    answer = f"{value(1)} <think> more"
    s1 = stage1_output("It is known.", f"Topic 1 {marker(1)}", answer)
    backend = ScriptedBackend([ScriptedRule(pattern=stage1_pattern(1), output=s1)])
    out = build_outcome(qa_sample(1, answers=[answer]), backend, tools, FactoryConfig())
    assert out.trajectory_type == TYPE_DISCARDED
    assert out.discard_reason == "assembled turn 1 raw does not parse (NoAction, TrailingText, MissingThink)"


# --- model-judge mode -------------------------------------------------------


def _model_judge(stage1, stage2, stage3="[correct]"):
    # Judge prompts are distinguishable by their unique labels.
    return ScriptedBackend(
        [
            ScriptedRule(pattern=r"\[stage1_entity\]", output=stage1),
            ScriptedRule(pattern=r"\[stage2_answer\]", output=stage2),
            ScriptedRule(pattern=r"\[answer\]", output=stage3),
        ]
    )


def test_model_judge_verdict_overrides_string_match(tools):
    # The scripted judge accepts an answer that normalized matching would not.
    backend = ScriptedBackend(
        [
            ScriptedRule(
                pattern=stage1_pattern(1),
                output=stage1_output("It is known.", f"Topic 1 {marker(1)}", "a paraphrase"),
            )
        ]
    )
    judge = _model_judge("[correct]", "[wrong]")
    cfg = FactoryConfig(judge_mode="model_judge", judge_backend=judge)
    out = build_outcome(qa_sample(1), backend, tools, cfg)
    assert out.trajectory_type == TYPE_DIRECT
    assert out.assembled.final_answer == "a paraphrase"
    assert out.stages[1].prompt_id == "stage1-judge-v1"


def test_model_judge_caption_leak_discards(tools):
    backend = ScriptedBackend(
        [
            ScriptedRule(
                pattern=stage3_pattern(2),
                output=stage_answer_output("Assembling the hints.", "zephyr fact"),
            ),
            ScriptedRule(
                pattern=stage2_pattern(2),
                output=stage_answer_output("The article does not give it.", "still not sure"),
            ),
            ScriptedRule(
                pattern=stage1_pattern(2),
                output=stage1_output("Memory offers nothing.", "a hazy figure", "not sure"),
            ),
        ]
    )
    judge = _model_judge(
        "[wrong]\n<choose>The entity is off; the image needs re-identification.</choose>"
        "\n<image_search>image_path</image_search>",
        "[wrong]\n<caption>The image hints at the zephyr fact.</caption>"
        "\n<think>A text query should target it.</think>"
        "\n<text_search>zephyr origins</text_search>",
    )
    cfg = FactoryConfig(judge_mode="model_judge", judge_backend=judge)
    out = build_outcome(qa_sample(2, answers=["zephyr fact"]), backend, tools, cfg)
    assert out.trajectory_type == TYPE_DISCARDED
    assert out.discard_reason == (
        "turn 2 mentions gold answer 'zephyr fact' absent from evidence"
    )
    stage2_judge = out.stages[3]
    assert stage2_judge.stage == "stage2_image_judge"
    assert stage2_judge.verdict == "wrong"
    assert stage2_judge.parsed_fields["text_search"] == "zephyr origins"


def test_model_judge_rewrite_must_differ_from_first_query(tools):
    backend = ScriptedBackend(
        [
            ScriptedRule(
                pattern=stage2_pattern(5),
                output=stage_answer_output("Cannot tell.", "not sure"),
            ),
            ScriptedRule(
                pattern=stage1_pattern(5),
                output=stage1_output("Uncertain.", f"Topic 5 {marker(5)}", "not sure"),
            ),
        ]
    )
    judge = _model_judge(
        "[wrong]\n<choose>Look the fact up.</choose>\n<text_search>same words</text_search>",
        "[wrong]\n<think>Retry.</think>\n<text_search>Same  words</text_search>",
    )
    cfg = FactoryConfig(judge_mode="model_judge", judge_backend=judge)
    out = build_outcome(qa_sample(5), backend, tools, cfg)
    assert out.trajectory_type == TYPE_DISCARDED
    assert "stage2_text_judge" in out.discard_reason
    assert "must differ" in out.discard_reason


def test_a_stage1_judge_discard_keeps_its_stage_records(tools):
    cfg = FactoryConfig(judge_mode="model_judge", judge_backend=ScriptedBackend(_judge_rules(3, "no verdict here")))
    out = build_outcome(qa_sample(3), factory_backend([(3, "T-A")]), tools, cfg)
    assert out.trajectory_type == TYPE_DISCARDED
    assert out.discard_reason.startswith("stage1_judge: judge output has no verdict marker")
    assert [s.stage for s in out.stages] == ["stage1_answer"]


# --- orchestration ----------------------------------------------------------


def test_build_outcome_rejects_non_train_split(tools):
    backend = ScriptedBackend(factory_rules(1, "A"))
    with pytest.raises(ValueError, match="split=train"):
        build_outcome(qa_sample(1, split="val"), backend, tools, FactoryConfig())


def test_run_factory_skips_non_train_and_keeps_order(tools):
    plan = [(0, "A"), (1, "T-A"), (2, "I-A"), (3, "I-T-A"), (4, "T-T-A"), (5, "A")]
    backend = factory_backend(plan)
    samples = [qa_sample(i) for i, _ in plan]
    samples.insert(3, qa_sample(8, split="test"))
    outcomes = run_factory(samples, backend, tools, FactoryConfig(), workers=2)
    assert [o.sample_id for o in outcomes] == [f"q{i:03d}" for i, _ in plan]
    assert [o.trajectory_type for o in outcomes] == [
        TYPE_DIRECT,
        TYPE_TEXT,
        TYPE_IMAGE,
        TYPE_IMAGE_TEXT,
        TYPE_TEXT_TEXT,
        TYPE_DIRECT,
    ]


@pytest.mark.parametrize("workers", [1, 4])
def test_a_factory_run_hashes_its_prompt_once(tools, workers):
    plan = [(0, "A"), (1, "T-A"), (2, "I-A"), (3, "I-T-A"), (4, "T-T-A")]
    cfg = FactoryConfig(rollout_config=RolloutConfig(system_prompt=f"factory prompt for {workers} worker(s)"))
    runtime._prompt_sha256.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(10.0)  # no thread switch between a cache miss and its store
    try:
        outcomes = run_factory([qa_sample(i) for i, _ in plan], factory_backend(plan), tools, cfg, workers=workers)
    finally:
        sys.setswitchinterval(interval)
    info = runtime._prompt_sha256.cache_info()
    assert (info.misses, info.hits) == (1, len(plan) - 1)
    digest = hashlib.sha256(cfg.rollout_config.system_prompt.encode("utf-8")).hexdigest()
    assert {o.assembled.config["system_prompt_sha256"] for o in outcomes} == {digest}


# --- labeling and balanced sampling ----------------------------------------


@pytest.mark.parametrize(
    "shape,ttype,difficulty",
    [
        ("A", TYPE_DIRECT, "easy"),
        ("I-A", TYPE_IMAGE, "medium"),
        ("T-A", TYPE_TEXT, "medium"),
        ("I-T-A", TYPE_IMAGE_TEXT, "hard"),
        ("T-T-A", TYPE_TEXT_TEXT, "hard"),
    ],
)
def test_labels_for_canonical_shapes(shape, ttype, difficulty):
    traj = make_canonical_trajectory("t", shape, 1)
    assert trajectory_type_of(traj) == ttype
    assert assign_difficulty(traj) == difficulty


def test_unfamiliar_shape_labeled_other():
    base = make_canonical_trajectory("t", "T-T-A", 1)
    cut = replace(base, turns=base.turns[:2], terminated_by="budget_exhausted")
    assert trajectory_type_of(cut) == "other:text_search/text_search"
    assert assign_difficulty(cut) == "hard"


def _outcome(idx, shape):
    traj = make_canonical_trajectory(f"s{idx:03d}", shape, idx % 10)
    return BranchOutcome(
        sample_id=f"s{idx:03d}",
        trajectory_type=trajectory_type_of(traj),
        stages=[],
        assembled=traj,
        difficulty=assign_difficulty(traj),
    )


def _outcome_pool():
    shapes = ["A", "A", "A", "A", "T-A", "I-A", "T-A", "I-A", "T-T-A", "I-T-A", "T-T-A", "I-T-A"]
    pool = [_outcome(i, s) for i, s in enumerate(shapes)]
    pool.append(BranchOutcome(sample_id="sbad", trajectory_type=TYPE_DISCARDED, stages=[], discard_reason="judged wrong"))
    return pool


def test_sample_balanced_exact_counts_and_determinism():
    pool = _outcome_pool()
    first = sample_balanced(pool, 3, seed=11)
    second = sample_balanced(pool, 3, seed=11)
    assert [o.sample_id for o in first] == [o.sample_id for o in second]
    counts = {}
    for o in first:
        counts[o.difficulty] = counts.get(o.difficulty, 0) + 1
    assert counts == {"easy": 3, "medium": 3, "hard": 3}
    assert all(o.assembled is not None for o in first)


def test_sample_balanced_rejects_deficient_tier():
    with pytest.raises(ValueError, match="'easy' has 4 usable outcomes, need 5"):
        sample_balanced(_outcome_pool(), 5, seed=0)


def test_outcome_labels_must_be_those_of_its_trajectory():
    good = _outcome(4, "T-A")
    for relabel in ({"difficulty": "easy"}, {"trajectory_type": TYPE_IMAGE}, {"difficulty": None}):
        with pytest.raises(ValueError, match="disagree with the trajectory's"):
            replace(good, **relabel)
    for ttype, difficulty in ((TYPE_TEXT, None), (TYPE_DISCARDED, "easy")):
        with pytest.raises(ValueError, match="of an outcome with no trajectory"):
            BranchOutcome(sample_id="s", trajectory_type=ttype, stages=[], difficulty=difficulty)


def test_only_an_outcome_with_no_trajectory_has_a_discard_reason():
    with pytest.raises(ValueError, match=r"^an assembled outcome has discard_reason 'kept'$"):
        replace(_outcome(4, "T-A"), discard_reason="kept")
    for ttype in (TYPE_DISCARDED, TYPE_FAILED):
        for reason in (None, ""):
            with pytest.raises(ValueError, match=f"^a {ttype} outcome has no discard_reason$"):
                BranchOutcome(sample_id="s", trajectory_type=ttype, stages=[], discard_reason=reason)
        assert BranchOutcome("s", ttype, [], discard_reason="judged wrong").discard_reason == "judged wrong"


@pytest.mark.parametrize("command", [["validate"], ["dataset", "emit", "--n-per-tier", "1", "--outcomes"]])
def test_an_outcome_with_a_misplaced_discard_reason_fails_validate_and_emit(tools, tmp_path, capsys, command):
    from dbagent.cli import EXIT_DATA, main

    kept = encode(_outcome(4, "T-A"))
    discarded = encode(BranchOutcome("s9", TYPE_DISCARDED, [], discard_reason="judged wrong"))
    lines = [{**kept, "discard_reason": "kept"}, {k: v for k, v in discarded.items() if k != "discard_reason"}]
    path = write_jsonl(tmp_path / "outcomes.jsonl", [json.dumps(obj, ensure_ascii=False) for obj in lines])
    out = ["--out", str(tmp_path / "sft.jsonl")] if command[0] == "dataset" else []
    assert main([*command, str(path), *out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "line 1: an assembled outcome has discard_reason 'kept'" in err
    assert "line 2: a DISCARDED outcome has no discard_reason" in err
    assert not (tmp_path / "sft.jsonl").exists()


# --- wire format ------------------------------------------------------------


def test_outcome_file_round_trip(tools, tmp_path):
    plan = [(0, "A"), (1, "T-A"), (2, "I-T-A"), (3, "T-T-A", False)]
    backend = factory_backend(plan)
    outcomes = run_factory(
        [qa_sample(i) for i, *_ in plan], backend, tools, FactoryConfig()
    )
    path = tmp_path / "outcomes.jsonl"
    write_outcome_file(outcomes, path)
    loaded = read_outcome_file(path)
    assert [encode(o) for o in loaded] == [encode(o) for o in outcomes]
    assert loaded[3].trajectory_type == TYPE_DISCARDED
    assert loaded[3].assembled is None


def test_read_outcome_file_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"sample_id": "x"}) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 1.*missing 'trajectory_type'"):
        read_outcome_file(path)


# --- golden outcome bytes ---------------------------------------------------


class _FlakyOnce:
    """Answers ``bad`` to the first attempt whose last user message matches
    ``pattern``; everything else goes to ``inner``."""

    def __init__(self, inner, pattern, bad):
        self.inner, self.pattern, self.bad = inner, pattern, bad

    def complete(self, messages, params, turn_index=0):
        last_user = next(m.content for m in reversed(messages) if m.role == "user")
        if turn_index == 0 and re.search(self.pattern, last_user, re.DOTALL):
            return self.bad
        return self.inner.complete(messages, params, turn_index)


def _judge_rules(i, stage1, stage2=None, stage3=None):
    # Each judge prompt is told apart by the label after the question line.
    q = re.escape(question(i))
    rules = [ScriptedRule(pattern=rf"{q}\n\[stage1_think\]", output=stage1)]
    if stage2 is not None:
        rules.append(ScriptedRule(pattern=rf"{q}\n.*\[stage2_answer\]", output=stage2))
    if stage3 is not None:
        rules.append(ScriptedRule(pattern=rf"{q}\n\[answer\]", output=stage3))
    return rules


def _golden_exact_runs():
    doubled = "<think>t</think>\n<entity>e</entity><entity>f</entity>\n<answer>x</answer>"
    plan = [(0, "A"), (1, "I-A"), (2, "T-A"), (3, "I-T-A"), (4, "T-T-A"), (5, "T-T-A", False)]
    runs = [(qa_sample(entry[0]), factory_backend([entry])) for entry in plan]
    runs.append((qa_sample(6), ScriptedBackend([ScriptedRule(pattern=stage1_pattern(6), output=doubled)])))
    flaky = _FlakyOnce(factory_backend([(7, "I-T-A")]), r"\[evidence\]", "<think>no answer tag</think>")
    runs.append((qa_sample(7), flaky))
    runs.append((qa_sample(8, gold_entity=None), factory_backend([(8, "T-A")])))
    return runs


def _golden_model_runs():
    text1 = "[wrong]\n<choose>Look the fact up.</choose>\n<text_search>{q}</text_search>"
    image1 = "[wrong]\n<choose>Re-identify the image.</choose>\n<image_search>image_path</image_search>"
    rewrite = "[wrong]\n<think>Target the fact.</think>\n<text_search>{q} special fact</text_search>"
    same = "[wrong]\n<think>Retry.</think>\n<text_search>{q}</text_search>"
    caption = (
        "[wrong]\n<caption>The image shows {q}.</caption>\n<think>Now the fact.</think>\n<text_search>{q} fact</text_search>"
    )
    runs = [
        (0, "A", _judge_rules(0, "[correct]")),
        (1, "I-A", _judge_rules(1, image1, "[correct]")),
        (2, "T-A", _judge_rules(2, text1.format(q=marker(2)), "[correct]")),
        (3, "I-T-A", _judge_rules(3, image1, caption.format(q=marker(3)), "[correct]")),
        (4, "T-T-A", _judge_rules(4, text1.format(q=marker(4)), rewrite.format(q=marker(4)), "[correct]")),
        (5, "T-T-A", _judge_rules(5, text1.format(q=marker(5)), rewrite.format(q=marker(5)), "[wrong]")),
        (6, "T-T-A", _judge_rules(6, text1.format(q=marker(6)), same.format(q=marker(6)))),
        (7, "T-T-A", _judge_rules(7, text1.format(q=marker(7)), rewrite.format(q=marker(7)), "[correct]")),
    ]
    out = []
    for i, route, rules in runs:
        judge = ScriptedBackend(rules)
        if i == 7:
            judge = _FlakyOnce(judge, r"\[stage2_answer\]", "no verdict here")
        out.append((qa_sample(i), factory_backend([(i, route)]), judge))
    return out


def test_outcome_bytes_are_pinned_in_both_judge_modes(tools, tmp_path):
    exact = [build_outcome(s, b, tools, FactoryConfig(keep_failed=True)) for s, b in _golden_exact_runs()]
    model = [
        build_outcome(s, b, tools, FactoryConfig(judge_mode="model_judge", judge_backend=j, keep_failed=True))
        for s, b, j in _golden_model_runs()
    ]
    assert [o.trajectory_type for o in exact] == [
        TYPE_DIRECT, TYPE_IMAGE, TYPE_TEXT, TYPE_IMAGE_TEXT, TYPE_TEXT_TEXT, TYPE_FAILED, TYPE_DISCARDED,
        TYPE_IMAGE_TEXT, TYPE_TEXT,
    ]
    assert [o.trajectory_type for o in model] == [
        TYPE_DIRECT, TYPE_IMAGE, TYPE_TEXT, TYPE_IMAGE_TEXT, TYPE_TEXT_TEXT, TYPE_FAILED, TYPE_DISCARDED,
        TYPE_TEXT_TEXT,
    ]
    digests = []
    for outcomes in (exact, model):
        path = tmp_path / "outcomes.jsonl"
        write_outcome_file(outcomes, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests == [
        "4ed21c2023f99c540dfb9022335e9ad3da83f6b3c5709a15d0464de9e8ef3db1",
        "5e5b887730d192e8cc0763381f446826e8268ea65189ff5ebd5a49ee34feb7d1",
    ]


def test_stage3_judge_without_verdict_discards_only_that_sample(tools):
    text1 = "[wrong]\n<choose>Look the fact up.</choose>\n<text_search>{q}</text_search>"
    rewrite = "[wrong]\n<think>Target the fact.</think>\n<text_search>{q} special fact</text_search>"
    rules = []
    for i, stage3 in ((4, "[correct]"), (5, "no marker")):
        rules += _judge_rules(i, text1.format(q=marker(i)), rewrite.format(q=marker(i)), stage3)
    # keep_failed: an ungraded answer is still DISCARDED, never FAILED.
    cfg = FactoryConfig(judge_mode="model_judge", judge_backend=ScriptedBackend(rules), keep_failed=True)
    backend = factory_backend([(4, "T-T-A"), (5, "T-T-A")])
    outcomes = run_factory([qa_sample(4), qa_sample(5)], backend, tools, cfg)
    assert [o.trajectory_type for o in outcomes] == [TYPE_TEXT_TEXT, TYPE_DISCARDED]
    assert outcomes[1].discard_reason.startswith("stage3_judge: judge output has no verdict marker")
    assert outcomes[1].assembled is None


def test_stage3_judge_without_verdict_is_asked_again(tools):
    # The stage-3 judge is retried like every other stage output, and its
    # output is recorded.
    text1 = f"[wrong]\n<choose>Look the fact up.</choose>\n<text_search>{marker(4)}</text_search>"
    rewrite = f"[wrong]\n<think>Target the fact.</think>\n<text_search>{marker(4)} special fact</text_search>"
    judge = _FlakyOnce(ScriptedBackend(_judge_rules(4, text1, rewrite, "[correct]")), r"\n\[answer\] ", "no verdict")
    cfg = FactoryConfig(judge_mode="model_judge", judge_backend=judge)
    outcome = build_outcome(qa_sample(4), factory_backend([(4, "T-T-A")]), tools, cfg)
    assert outcome.trajectory_type == TYPE_TEXT_TEXT
    assert [(r.stage, r.model_output, r.verdict) for r in outcome.stages[-1:]] == [
        ("stage3_judge", "[correct]", "correct")
    ]


def test_every_outcome_record_round_trips_through_the_codec(tools):
    exact = [build_outcome(s, b, tools, FactoryConfig(keep_failed=True)) for s, b in _golden_exact_runs()]
    model = [
        build_outcome(s, b, tools, FactoryConfig(judge_mode="model_judge", judge_backend=j, keep_failed=True))
        for s, b, j in _golden_model_runs()
    ]
    for outcome in exact + model:
        assert decode(BranchOutcome, encode(outcome)) == outcome
        for turn in outcome.assembled.turns if outcome.assembled is not None else ():
            assert encode(turn) == {"raw": turn.raw}
            assert decode(TurnRecord, encode(turn)) == turn


# What each model judge may say at each stage: a verdict, a route or
# rewrite (one with an unknown tag in its think, which the assembled
# trajectory's strict check discards, one that repeats the query, one that
# captions the image), or no verdict at all. ``{q}`` is the sample's marker.
_STAGE1_JUDGES = (
    "[correct]",
    "[wrong]\n<choose>Look the fact up.</choose>\n<text_search>{q}</text_search>",
    "[wrong]\n<choose>Re-identify the image.</choose>\n<image_search>image_path</image_search>",
    "no verdict here",
)
_STAGE2_JUDGES = (
    "[correct]",
    "[wrong]\n<think>Target the fact.</think>\n<text_search>{q} special fact</text_search>",
    "[wrong]\n<think>Target <b> the fact.</think>\n<text_search>{q} special fact</text_search>",
    "[wrong]\n<think>Retry.</think>\n<text_search>{q}</text_search>",
    "[wrong]\n<caption>The image shows {q}.</caption>\n<think>Now the fact.</think>\n<text_search>{q} fact</text_search>",
    "no verdict here",
)
_STAGE3_JUDGES = ("[correct]", "[wrong]", "no marker")


@settings(max_examples=150, deadline=None)
@given(
    route=st.sampled_from(["A", "I-A", "T-A", "I-T-A", "T-T-A"]),
    stage3_correct=st.booleans(),
    gold_entity=st.booleans(),
    keep_failed=st.booleans(),
    judges=st.none()
    | st.tuples(st.sampled_from(_STAGE1_JUDGES), st.sampled_from(_STAGE2_JUDGES), st.sampled_from(_STAGE3_JUDGES)),
)
def test_every_outcome_the_factory_builds_reads_back(tools, route, stage3_correct, gold_entity, keep_failed, judges):
    # Exact judging follows the scripted route; a model judge routes as it
    # says, over a model scripted for all three stages.
    i = 3
    sample = qa_sample(i) if gold_entity else qa_sample(i, gold_entity=None)
    if judges is None:
        backend = factory_backend([(i, route, stage3_correct)])
        cfg = FactoryConfig(keep_failed=keep_failed)
    else:
        backend = factory_backend([(i, "T-T-A", stage3_correct)])
        judge = ScriptedBackend(_judge_rules(i, *(j.format(q=marker(i)) for j in judges)))
        cfg = FactoryConfig(judge_mode="model_judge", judge_backend=judge, keep_failed=keep_failed)
    outcome = build_outcome(sample, backend, tools, cfg)
    # Built, so its trajectory holds every rule; a file line of it reads back as itself.
    assert decode(BranchOutcome, json.loads(json.dumps(encode(outcome)))) == outcome


def test_reading_outcomes_and_emitting_sft_parses_each_turn_once(tools, tmp_path, monkeypatch, capsys):
    from dbagent import protocol
    from dbagent.cli import EXIT_OK, main

    outcomes = [build_outcome(s, b, tools, FactoryConfig(keep_failed=True)) for s, b in _golden_exact_runs()]
    path = tmp_path / "outcomes.jsonl"
    write_outcome_file(outcomes, path)
    turns = [turn.raw for o in outcomes if o.assembled is not None for turn in o.assembled.turns]
    assert len(turns) >= 10
    calls = []
    parse = protocol._parse
    monkeypatch.setattr(protocol, "_parse", lambda raw: calls.append(raw) or parse(raw))
    assert main(["dataset", "emit", "--outcomes", str(path), "--out", str(tmp_path / "sft.jsonl")]) == EXIT_OK
    assert f"emitted {sum(o.assembled is not None for o in outcomes)} samples" in capsys.readouterr().out
    assert calls == turns


@pytest.mark.parametrize("command", [["validate"], ["dataset", "emit", "--n-per-tier", "1", "--outcomes"]])
def test_a_relabelled_outcome_fails_validate_and_emit(tools, tmp_path, capsys, command):
    from dbagent.cli import EXIT_DATA, main

    outcomes = [build_outcome(s, b, tools, FactoryConfig(keep_failed=True)) for s, b in _golden_exact_runs()]
    path = tmp_path / "outcomes.jsonl"
    write_outcome_file(outcomes, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    relabelled = json.loads(lines[1])
    assert relabelled["difficulty"] == "medium"
    lines[1] = json.dumps({**relabelled, "difficulty": "easy"}, sort_keys=True, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = ["--out", str(tmp_path / "sft.jsonl")] if command[0] == "dataset" else []
    assert main([*command, str(path), *out]) == EXIT_DATA
    assert "line 2: labels ('I→A', 'easy') disagree with the trajectory's ('I→A', 'medium')" in capsys.readouterr().err
    assert not (tmp_path / "sft.jsonl").exists()
