from __future__ import annotations

import json
from dataclasses import replace

import pytest

from dbagent.errors import DataError
from dbagent.evaluation import (
    EvalRecord,
    aggregate,
    build_eval_records,
    hit_at_any_turn,
    render_grid_text,
    render_report_csv,
    render_report_text,
    report_to_json,
    run_kb_scale,
    run_topk_grid,
    score_answer,
)
from dbagent.retrieval import DeterministicEmbedder
from dbagent.runtime import RolloutConfig
from helpers import (
    EvidencePolicy,
    make_canonical_trajectory,
    make_corpus,
    make_tools,
    qa_sample,
)


class CannedBackend:
    def __init__(self, text):
        self.text = text

    def complete(self, messages, params, turn_index=0):
        return self.text


# --- per-sample scoring -----------------------------------------------------


def test_score_answer_em_normalizes():
    assert score_answer("Val003", ["val003"]) is True
    assert score_answer("paris.", ["Paris", "City of Paris"]) is True
    assert score_answer("the congridae", ["Congridae"]) is False
    assert score_answer(None, ["x"]) is False
    assert score_answer("   ", ["x"]) is False


def test_score_answer_raw_exact_switch():
    assert score_answer("Paris", ["Paris"], raw_exact=True) is True
    assert score_answer("paris", ["Paris"], raw_exact=True) is False
    assert score_answer("Lyon", "Paris|Lyon", raw_exact=True) is True


def test_score_answer_judge_metric():
    assert score_answer("x", ["y"], metric="judge", judge_backend=CannedBackend("[correct]")) is True
    assert score_answer("x", ["y"], metric="judge", judge_backend=CannedBackend("[wrong]")) is False
    # A judge without a verdict marker leaves the sample unscored.
    assert score_answer("x", ["y"], metric="judge", judge_backend=CannedBackend("shrug")) is None


def test_score_answer_unknown_metric():
    with pytest.raises(ValueError):
        score_answer("x", ["y"], metric="bleu")


def test_hit_at_any_turn_rules():
    direct = make_canonical_trajectory("q", "A", 2)
    searched = make_canonical_trajectory("q", "T-A", 2)
    assert hit_at_any_turn(direct, "a002") is None  # no tool calls
    assert hit_at_any_turn(searched, None) is None  # nothing to check against
    assert hit_at_any_turn(searched, "a002") is True
    assert hit_at_any_turn(searched, "a999") is False


# --- joining rollouts with samples ------------------------------------------


def test_build_eval_records_joins_and_scores():
    trajs = [
        make_canonical_trajectory("q000", "A", 0),
        make_canonical_trajectory("q001", "T-A", 1),
    ]
    samples = [qa_sample(0, split="val"), qa_sample(1)]
    records, stats = build_eval_records(trajs, samples)
    assert stats == {"unscored": 0, "empty_predictions": 0}
    assert [r.sample_id for r in records] == ["q000", "q001"]
    assert records[0].retrieval_hit is None
    assert records[0].split_tags == ("val",)
    assert records[1].answer_correct is True
    assert records[1].retrieval_hit is True
    assert records[1].n_tool_calls == 1


def test_build_eval_records_counts_empty_predictions():
    base = make_canonical_trajectory("q002", "T-T-A", 2)
    stalled = replace(
        base, turns=base.turns[:2], terminated_by="budget_exhausted"
    )
    records, stats = build_eval_records([stalled], [qa_sample(2)])
    assert stats["empty_predictions"] == 1
    assert records[0].answer_correct is False
    assert records[0].trajectory_type == "other:text_search/text_search"


def test_build_eval_records_excludes_unscored():
    trajs = [make_canonical_trajectory("q001", "T-A", 1)]
    records, stats = build_eval_records(
        trajs, [qa_sample(1)], metric="judge", judge_backend=CannedBackend("no verdict here")
    )
    assert records == []
    assert stats["unscored"] == 1


def test_build_eval_records_requires_matching_sample():
    with pytest.raises(ValueError, match="no QA sample"):
        build_eval_records([make_canonical_trajectory("mystery", "A", 0)], [qa_sample(0)])


@pytest.mark.parametrize("name", ["question", "image_ref"])
def test_build_eval_records_refuses_a_trajectory_asked_about_another_sample(name):
    # Sample 1's question or image under sample 0's id: the id alone would
    # join them and score the answer against the wrong gold.
    samples = [qa_sample(0, **{name: getattr(qa_sample(1), name)}), qa_sample(1)]
    trajectories = [make_canonical_trajectory("q000", "A", 0), make_canonical_trajectory("q001", "A", 1)]
    with pytest.raises(DataError, match=f"trajectory 'q000' has {name} "):
        build_eval_records(trajectories, samples)


# --- aggregation over a hand-checked fixture --------------------------------


def _rec(sid, ttype, correct, hit, tools=1, split="test"):
    return EvalRecord(
        sample_id=sid,
        trajectory_type=ttype,
        answer_correct=correct,
        retrieval_hit=hit,
        n_tool_calls=tools,
        split_tags=(split,),
    )


HAND_RECORDS = [
    _rec("r01", "A", True, None, 0, "val"),
    _rec("r02", "A", False, None, 0, "val"),
    _rec("r03", "T→A", True, True, 1, "val"),
    _rec("r04", "T→A", True, True, 1, "val"),
    _rec("r05", "T→A", False, True, 1, "val"),
    _rec("r06", "T→A", False, False, 1, "test"),
    _rec("r07", "I→T→A", True, True, 2, "test"),
    _rec("r08", "I→T→A", False, False, 2, "test"),
    _rec("r09", "I→T→A", False, False, 2, "test"),
    _rec("r10", "I→T→A", True, False, 2, "test"),
]


def test_aggregate_hand_checked_fixture():
    report = aggregate(HAND_RECORDS)
    assert report.n_records == 10
    assert report.overall_accuracy == 50.0
    assert report.per_split == {
        "test": {"n": 5, "accuracy": 40.0},
        "val": {"n": 5, "accuracy": 60.0},
    }
    assert report.per_type["A"] == {
        "n": 2,
        "proportion": 20.0,
        "retrieval_recall": None,
        "accuracy": 50.0,
    }
    assert report.per_type["T→A"] == {
        "n": 4,
        "proportion": 40.0,
        "retrieval_recall": 75.0,
        "accuracy": 50.0,
    }
    assert report.per_type["I→T→A"]["retrieval_recall"] == 25.0
    assert report.contingency == {
        "retrieval_correct": {"n": 4, "answer_correct_pct": 75.0, "answer_wrong_pct": 25.0},
        "retrieval_incorrect": {"n": 4, "answer_correct_pct": 25.0, "answer_wrong_pct": 75.0},
    }


def test_aggregate_is_order_independent():
    assert aggregate(list(reversed(HAND_RECORDS))) == aggregate(HAND_RECORDS)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


# --- rendering --------------------------------------------------------------


def test_render_report_text_layout():
    text = render_report_text(aggregate(HAND_RECORDS))
    assert "records: 10   overall accuracy: 50.0%" in text
    assert "val: 60.0% (n=5)" in text
    type_row = next(line for line in text.splitlines() if line.startswith("T→A"))
    assert "75.0" in type_row
    a_row = next(line for line in text.splitlines() if line.startswith("A"))
    assert "-" in a_row  # no recall for direct answers
    assert "retrieval_correct" in text


def test_render_report_csv_rows():
    lines = render_report_csv(aggregate(HAND_RECORDS)).splitlines()
    assert lines[0] == (
        "row,label,n,share_pct,recall_pct,accuracy_pct,answer_correct_pct,answer_wrong_pct"
    )
    assert "overall,,10,,,50.0,," in lines
    assert "type,A,2,20.0,,50.0,," in lines
    assert "type,T→A,4,40.0,75.0,50.0,," in lines
    assert "contingency,retrieval_correct,4,,,,75.0,25.0" in lines


def test_report_json_is_loadable():
    doc = json.loads(report_to_json(aggregate(HAND_RECORDS)))
    assert doc["n_records"] == 10
    assert doc["per_type"]["T→A"]["retrieval_recall"] == 75.0
    assert doc["contingency"]["retrieval_incorrect"]["answer_wrong_pct"] == 75.0


# --- sweeps -----------------------------------------------------------------


def test_run_topk_grid_covers_every_cell():
    # Dimension 256 keeps hash collisions from reordering near-identical
    # template leads, so even k=1 retrieval stays on the right article.
    tools = make_tools(make_corpus(6), dimension=256)
    samples = [qa_sample(i) for i in range(4)]
    backend = EvidencePolicy()
    grid = run_topk_grid(
        samples, backend, tools, RolloutConfig(), text_ks=(1, 3), image_ks=(1, 2)
    )
    assert set(grid) == {(1, 1), (1, 2), (3, 1), (3, 2)}
    for (k_text, k_image), report in grid.items():
        assert report.config == {"k_text": k_text, "k_image": k_image}
        assert report.overall_accuracy == 100.0
        assert report.per_type["T→A"]["retrieval_recall"] == 100.0


def test_render_grid_text_layout():
    tools = make_tools(make_corpus(4), dimension=256)
    samples = [qa_sample(i) for i in range(2)]
    grid = run_topk_grid(
        samples, EvidencePolicy(), tools, RolloutConfig(), text_ks=(1, 3), image_ks=(1,)
    )
    text = render_grid_text(grid)
    assert "text_k \\ image_k" in text
    assert text.count("100.0") == 2


def test_run_kb_scale_pins_golds_and_orders_sizes():
    corpus = make_corpus(12)
    samples = [qa_sample(i) for i in range(3)]
    series = run_kb_scale(
        samples,
        corpus,
        DeterministicEmbedder(dimension=256, seed=0),
        DeterministicEmbedder(dimension=256, seed=0),
        EvidencePolicy(),
        RolloutConfig(),
        sizes=(8, 4),
        seed=5,
    )
    assert [entry["size"] for entry in series] == [4, 8]
    for entry in series:
        report = entry["report"]
        assert report.config == {"kb_size": entry["size"]}
        # Gold articles are pinned into every subsample, so the scripted
        # policy keeps succeeding at every size.
        assert report.overall_accuracy == 100.0
        assert report.per_type["T→A"]["retrieval_recall"] == 100.0
