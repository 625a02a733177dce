from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from dbagent.factory import trajectory_type_of
from dbagent.protocol import ActionKind, make_turn, serialize_turn
from dbagent.sft import (
    EMITTER_VERSION,
    LinearizedSample,
    Segment,
    SftError,
    emit_dataset,
    linearize,
    read_sft_file,
    scan_sft_file,
)
from dbagent.wire import encode
from helpers import make_canonical_trajectory

# Quotes the decision tags on purpose: instruction text is exempt from the
# supervised-tag audit.
SYSTEM = (
    "Answer the question about the image. Wrap reasoning in <think> tags "
    "and the final answer in <answer> tags."
)


def canonical(shape, i=0, task_id="t0"):
    return make_canonical_trajectory(task_id, shape, i)


# --- linearization ----------------------------------------------------------


@pytest.mark.parametrize(
    "shape,roles,flags",
    [
        ("A", ["instruction", "decision"], [False, True]),
        ("T-A", ["instruction", "decision", "observation", "decision"], [False, True, False, True]),
        ("I-A", ["instruction", "decision", "observation", "decision"], [False, True, False, True]),
        (
            "I-T-A",
            ["instruction", "decision", "observation", "decision", "observation", "decision"],
            [False, True, False, True, False, True],
        ),
        (
            "T-T-A",
            ["instruction", "decision", "observation", "decision", "observation", "decision"],
            [False, True, False, True, False, True],
        ),
    ],
)
def test_segment_shapes(shape, roles, flags):
    sample = linearize(canonical(shape), SYSTEM)
    assert [s.role for s in sample.segments] == roles
    assert [s.supervise for s in sample.segments] == flags
    assert all(s.text.endswith("\n") for s in sample.segments)


def test_transcript_reconstructs_byte_for_byte():
    traj = canonical("T-A", 2)
    sample = linearize(traj, SYSTEM)
    expected = (
        f"{SYSTEM}\n<image>{traj.image_ref}</image>\n{traj.question}\n"
        + serialize_turn(traj.turns[0])
        + "\n"
        + traj.observations[0].rendered
        + "\n"
        + serialize_turn(traj.turns[1])
        + "\n"
    )
    assert sample.transcript == expected
    assert sample.n_chars == len(expected)


def test_meta_labels_the_sample():
    traj = canonical("I-T-A", 3, task_id="q003")
    sample = linearize(traj, SYSTEM)
    assert sample.meta == {
        "task_id": "q003",
        "trajectory_type": trajectory_type_of(traj),
        "difficulty": "hard",
        "n_turns": 3,
    }


def test_linearize_rejects_empty_trajectory():
    traj = replace(canonical("A"), turns=[], final_answer=None)
    with pytest.raises(SftError, match="no turns"):
        linearize(traj, SYSTEM)


def test_linearize_rejects_non_answer_termination():
    traj = replace(canonical("T-A"), terminated_by="budget_exhausted")
    with pytest.raises(SftError, match="terminated by 'budget_exhausted'"):
        linearize(traj, SYSTEM)


def test_linearize_rejects_contextually_invalid_turns():
    base = canonical("T-A")
    bad_first = make_turn(
        "A caption with no prior image search.",
        ActionKind.TEXT_SEARCH,
        "some query",
        caption="A photo.",
    )
    traj = replace(base, turns=[bad_first, base.turns[1]])
    with pytest.raises(SftError, match="turn 1 fails strict validation"):
        linearize(traj, SYSTEM)


def test_linearize_rejects_missing_observation():
    traj = replace(canonical("T-A"), observations=[])
    with pytest.raises(SftError, match="without a matching observation"):
        linearize(traj, SYSTEM)


# --- emission ---------------------------------------------------------------


def _mixed_samples():
    shapes = ["A", "T-A", "I-A", "I-T-A", "T-T-A", "A", "T-A"]
    return [linearize(canonical(s, i, task_id=f"s{i:03d}"), SYSTEM) for i, s in enumerate(shapes)]


def test_emit_dataset_writes_file_and_manifest(tmp_path):
    path = tmp_path / "train.jsonl"
    manifest = emit_dataset(_mixed_samples(), path)
    assert manifest.emitter_version == EMITTER_VERSION
    assert manifest.total == 7
    assert manifest.dropped_over_cap == 0
    assert manifest.by_type == {"A": 2, "I→A": 1, "I→T→A": 1, "T→A": 2, "T→T→A": 1}
    assert manifest.by_difficulty == {"easy": 2, "hard": 2, "medium": 3}
    assert sum(manifest.length_histogram.values()) == 7
    assert manifest.dataset_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    sidecar = json.loads((tmp_path / "train.jsonl.manifest.json").read_text())
    assert sidecar == encode(manifest)


def test_emitting_over_a_dataset_replaces_both_files_and_leaves_no_temp(tmp_path):
    path = tmp_path / "train.jsonl"
    emit_dataset(_mixed_samples(), path)
    manifest = emit_dataset(_mixed_samples()[:2], path)
    assert manifest.total == 2
    assert manifest.dataset_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert json.loads((tmp_path / "train.jsonl.manifest.json").read_text()) == encode(manifest)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.jsonl", "train.jsonl.manifest.json"]


def test_emission_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    first = emit_dataset(_mixed_samples(), a)
    second = emit_dataset(_mixed_samples(), b)
    assert a.read_bytes() == b.read_bytes()
    assert first.dataset_sha256 == second.dataset_sha256


def test_over_cap_samples_dropped_and_counted(tmp_path):
    samples = _mixed_samples()
    assert max(s.n_chars for s in samples) <= 700
    big = LinearizedSample(
        meta={"task_id": "huge", "trajectory_type": "A", "difficulty": "easy", "n_turns": 1},
        segments=[Segment(role="instruction", text="x" * 800 + "\n", supervise=False)],
    )
    manifest = emit_dataset(samples + [big], tmp_path / "d.jsonl", max_chars=700)
    assert manifest.dropped_over_cap == 1
    assert manifest.total == 7
    ids = [s.meta["task_id"] for s in read_sft_file(tmp_path / "d.jsonl")]
    assert "huge" not in ids


def test_manifest_hashes_source_files(tmp_path):
    src = tmp_path / "outcomes.jsonl"
    src.write_text('{"sample_id": "x"}\n', encoding="utf-8")
    manifest = emit_dataset(_mixed_samples(), tmp_path / "d.jsonl", source_files=[src])
    (entry,) = manifest.source_files
    assert entry["path"] == str(src)
    assert entry["sha256"] == hashlib.sha256(src.read_bytes()).hexdigest()


def test_read_sft_file_round_trip(tmp_path):
    path = tmp_path / "d.jsonl"
    samples = _mixed_samples()
    emit_dataset(samples, path)
    loaded = read_sft_file(path)
    assert [s.meta for s in loaded] == [s.meta for s in samples]
    assert [s.segments for s in loaded] == [s.segments for s in samples]


def test_read_sft_file_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"meta": {}}\n', encoding="utf-8")
    with pytest.raises(SftError, match="line 1: missing 'segments'"):
        read_sft_file(path)
    path.write_text("{]\n", encoding="utf-8")
    with pytest.raises(SftError, match="line 1: invalid JSON"):
        read_sft_file(path)


# --- mask audit -------------------------------------------------------------


def test_scan_clean_file_reports_no_violations(tmp_path):
    path = tmp_path / "d.jsonl"
    emit_dataset(_mixed_samples(), path)
    report = scan_sft_file(path)
    assert report == {
        "samples": 7,
        "supervised_evidence_chars": 0,
        "unsupervised_decision_tags": 0,
        "structure_errors": 0,
    }


def _rewrite_with(path, mutate):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    mutate(rows)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")


def test_scan_flags_supervised_evidence(tmp_path):
    path = tmp_path / "d.jsonl"
    emit_dataset(_mixed_samples(), path)

    def flip_observation(rows):
        for seg in rows[1]["segments"]:
            if seg["role"] == "observation":
                seg["supervise"] = True
                return

    _rewrite_with(path, flip_observation)
    report = scan_sft_file(path)
    assert report["supervised_evidence_chars"] > 0


def test_scan_flags_unsupervised_decisions(tmp_path):
    path = tmp_path / "d.jsonl"
    emit_dataset(_mixed_samples(), path)

    def unflag_decision(rows):
        rows[0]["segments"][1]["supervise"] = False

    _rewrite_with(path, unflag_decision)
    report = scan_sft_file(path)
    assert report["unsupervised_decision_tags"] > 0


def test_scan_flags_structural_disorder(tmp_path):
    path = tmp_path / "d.jsonl"
    emit_dataset(_mixed_samples(), path)

    def swap_first_two(rows):
        segs = rows[1]["segments"]
        segs[1], segs[2] = segs[2], segs[1]

    _rewrite_with(path, swap_first_two)
    assert scan_sft_file(path)["structure_errors"] == 1


def test_scan_flags_a_supervised_instruction(tmp_path):
    path = tmp_path / "d.jsonl"
    emit_dataset(_mixed_samples(), path)

    def supervise_instruction(rows):
        rows[0]["segments"][0]["supervise"] = True

    _rewrite_with(path, supervise_instruction)
    report = scan_sft_file(path)
    assert report["structure_errors"] == 1
    assert report["supervised_evidence_chars"] == report["unsupervised_decision_tags"] == 0


@pytest.mark.parametrize("flag, got", [("false", "string"), ("no", "string"), (0, "integer"), (None, "null")])
def test_read_sft_file_rejects_a_supervise_flag_that_is_not_boolean(tmp_path, flag, got):
    path = tmp_path / "d.jsonl"
    emit_dataset(_mixed_samples()[:2], path)

    def set_flag(rows):
        rows[1]["segments"][0]["supervise"] = flag

    _rewrite_with(path, set_flag)
    with pytest.raises(SftError, match=rf"1 error\(s\)\nline 2: segments\[0\]\.supervise: expected boolean, got {got}$"):
        read_sft_file(path)
