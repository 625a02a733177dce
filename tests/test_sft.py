from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbagent.factory import trajectory_type_of
from dbagent.protocol import ActionKind, make_turn, serialize_turn
from dbagent.sft import (
    _DECISION_TAGS,
    _EVIDENCE_SPAN,
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
from helpers import make_canonical_trajectory, traced_peak

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


def _stalled():
    """A T→T trajectory whose budget ran out after its two searches."""
    base = canonical("T-T-A")
    return replace(base, turns=base.turns[:2], terminated_by="budget_exhausted")


# A trajectory that breaks a rule cannot be built, so ``linearize`` never
# sees one: its no-turn, contextual and missing-observation cases are
# rejected where the trajectory is built.


def test_linearize_rejects_empty_trajectory():
    with pytest.raises(ValueError, match="^terminated_by 'answer' with no answer turn last$"):
        replace(canonical("A"), turns=[])


def test_linearize_rejects_non_answer_termination():
    with pytest.raises(SftError, match="terminated by 'budget_exhausted'"):
        linearize(_stalled(), SYSTEM)


def test_linearize_rejects_contextually_invalid_turns():
    base = canonical("T-A")
    bad_first = make_turn(
        "A caption with no prior image search.",
        ActionKind.TEXT_SEARCH,
        "some query",
        caption="A photo.",
    )
    with pytest.raises(ValueError, match="^turn 1 fails strict validation: <caption> requires an earlier"):
        replace(base, turns=[bad_first, base.turns[1]])
    # Recorded lenient, the same turns are a trajectory, which SFT refuses.
    lenient = replace(base, turns=[bad_first, base.turns[1]], config={"strict_protocol": False})
    with pytest.raises(SftError, match="recorded lenient, not strict"):
        linearize(lenient, SYSTEM)


@pytest.mark.parametrize(
    "config, recorded",
    [({"strict_protocol": False}, "lenient")],
)
def test_linearize_refuses_a_trajectory_not_recorded_strict_even_when_its_turns_are(config, recorded):
    traj = replace(canonical("I-T-A"), config=config)
    with pytest.raises(SftError, match=f"^t0: trajectory recorded {recorded}, not strict$"):
        linearize(traj, SYSTEM)


def test_linearize_rejects_missing_observation():
    with pytest.raises(ValueError, match=r"^0 observation\(s\) for 1 tool turn\(s\)$"):
        replace(canonical("T-A"), observations=[])


@pytest.mark.parametrize(
    "field, value",
    [("action_payload", "edited query"), ("think", "Edited."), ("caption", "A photo."), ("action", ActionKind.IMAGE_SEARCH)],
)
def test_a_turn_field_its_raw_does_not_hold_cannot_be_built(field, value):
    # The decision segment is serialized from the parsed fields, and those
    # are filled from the raw turn alone: no field can be given beside it.
    turn = canonical("T-A").turns[0]
    with pytest.raises(ValueError, match=f"field {field} is declared with init=False"):
        replace(turn, **{field: value})


def test_a_raw_turn_that_does_not_parse_cannot_be_built():
    turn = canonical("A").turns[0]
    with pytest.raises(ValueError, match=r"^raw does not parse \(MissingThink, TrailingText, NoAction\)$"):
        replace(turn, raw="no tags at all")


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


def test_emitting_from_a_generator_writes_the_same_bytes_as_from_a_list(tmp_path):
    samples = _mixed_samples()
    from_list = emit_dataset(samples, tmp_path / "list.jsonl", max_chars=600)
    from_generator = emit_dataset((s for s in samples), tmp_path / "gen.jsonl", max_chars=600)
    assert from_list.dropped_over_cap > 0  # the cap is met on the way through
    assert from_generator == from_list
    for name in ("{}.jsonl", "{}.jsonl.manifest.json"):
        assert (tmp_path / name.format("gen")).read_bytes() == (tmp_path / name.format("list")).read_bytes()


def test_a_sample_that_fails_to_linearize_leaves_the_old_dataset(tmp_path):
    path = tmp_path / "d.jsonl"
    emit_dataset(_mixed_samples(), path)
    before = path.read_bytes()
    with pytest.raises(SftError):
        emit_dataset((linearize(t, SYSTEM) for t in [canonical("A"), _stalled()]), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "d.jsonl.manifest.json"]


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


def _reference_scan(samples):
    """The per-character audit ``scan_sft_file`` replaced: one flag byte per
    transcript char, summed over each evidence span and tag occurrence."""
    report = {"samples": len(samples), "supervised_evidence_chars": 0, "unsupervised_decision_tags": 0,
              "structure_errors": 0}
    for sample in samples:
        if not sample.segments or sample.segments[0].role != "instruction" or sample.segments[0].supervise:
            report["structure_errors"] += 1
            continue
        roles = [s.role for s in sample.segments[1:]]
        sound = bool(roles) and roles[0] == "decision" and roles[-1] == "decision"
        for prev, cur in zip(roles, roles[1:]):
            if cur not in ("decision", "observation"):
                sound = False
            if cur == "observation" and prev != "decision":
                sound = False
        if not sound:
            report["structure_errors"] += 1

        transcript = sample.transcript
        supervised = bytearray(len(transcript))
        pos = 0
        for seg in sample.segments:
            if seg.supervise:
                supervised[pos : pos + len(seg.text)] = b"\x01" * len(seg.text)
            pos += len(seg.text)
        body_start = len(sample.segments[0].text)
        evidence_spans = [m.span() for m in _EVIDENCE_SPAN.finditer(transcript)]
        for start, end in evidence_spans:
            report["supervised_evidence_chars"] += sum(supervised[start:end])
        for tag in _DECISION_TAGS:
            idx = transcript.find(tag, body_start)
            while idx >= 0:
                inside_evidence = any(s <= idx < e for s, e in evidence_spans)
                span = supervised[idx : idx + len(tag)]
                if not inside_evidence and sum(span) != len(tag):
                    report["unsupervised_decision_tags"] += 1
                idx = transcript.find(tag, idx + 1)
    return report


# Evidence delimiters, decision tags (whole and cut), and filler, so that
# tags inside, across and outside evidence and segment edges can all be drawn.
_MASK_PIECES = ["<evidence>\n", "</evidence>", "<think>", "</think>", "<answer>", "</answer>", "<caption>",
                "</text_search>", "<think", "nswer>", "a", "\n", " — "]
_segments = st.lists(
    st.builds(
        Segment,
        role=st.sampled_from(["instruction", "decision", "observation"]),
        text=st.lists(st.sampled_from(_MASK_PIECES), max_size=8).map("".join),
        supervise=st.booleans(),
    ),
    max_size=7,
)


def _sample(segments):
    return LinearizedSample(meta={"task_id": "t"}, segments=segments)


@settings(max_examples=400, deadline=None)
@given(st.lists(_segments.map(_sample), min_size=1, max_size=3))
@example([_sample([Segment("instruction", "<think>", False), Segment("decision", "<thi", True),
                   Segment("decision", "nk></think>", True), Segment("observation", "</think>", False)])])
@example([_sample([Segment("instruction", "", False), Segment("decision", "<evidence>\n<think>", True),
                   Segment("observation", "", True), Segment("decision", "a</evidence><answer>", True)])])
def test_scan_matches_the_per_character_audit(samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        path.write_text("".join(json.dumps(encode(s)) + "\n" for s in samples), encoding="utf-8")
        assert scan_sft_file(path) == _reference_scan(samples)


def _synthetic_samples(n):
    """``n`` T→A samples of about 4 KB each; the em dash of the evidence
    line makes each JSON line a two-byte-per-char string."""
    for i in range(n):
        evidence = "<evidence>\n" + "".join(f"[{j}] Title {i} — Part {j}: {'words ' * 40}\n" for j in range(1, 4))
        yield LinearizedSample(
            meta={"task_id": f"s{i:05d}", "trajectory_type": "T→A", "difficulty": "medium", "n_turns": 2},
            segments=[
                Segment("instruction", f"{SYSTEM}\n<image>img-{i}</image>\nWhat is it? {'x' * 1200}\n", False),
                Segment("decision", f"<think>{'reason ' * 100}</think><text_search>q {i}</text_search>\n", True),
                Segment("observation", evidence + "</evidence>\n", False),
                Segment("decision", f"<think>Found.</think><answer>val{i}</answer>\n", True),
            ],
        )


def test_emit_and_scan_hold_one_sample_not_the_dataset(tmp_path):
    n = 100
    peaks = {}
    for size in (n, 4 * n):
        path = tmp_path / f"d{size}.jsonl"
        manifest, emit_peak = traced_peak(lambda: emit_dataset(_synthetic_samples(size), path))
        assert manifest.total == size
        report, scan_peak = traced_peak(lambda: scan_sft_file(path))
        assert report["samples"] == size and report["structure_errors"] == 0
        peaks[size] = (emit_peak, scan_peak, path.stat().st_size)
    (emit_n, scan_n, bytes_n), (emit_4n, scan_4n, bytes_4n) = peaks[n], peaks[4 * n]
    assert bytes_4n - bytes_n > 12 * 64 * 1024  # the data grows far more than the bound below
    # What may grow with the sample count: the manifest's counters only.
    assert emit_4n - emit_n < 64 * 1024
    assert scan_4n - scan_n < 64 * 1024
