"""SFT linearization and dataset emission.

A trajectory becomes an ordered list of text segments, each flagged
``supervise`` true or false:

* the instruction segment (system prompt, image placeholder, question) is
  never supervised;
* each decision segment (one canonical turn serialization, tags included)
  is supervised;
* each observation segment (one rendered evidence block, tags included) is
  never supervised.

Concatenating segment texts reproduces the transcript byte-for-byte, so a
training stack can tokenize the concatenation and mask by segment spans.
Reprompt/reflection exchanges are not part of trajectories and therefore
never appear here.

The emitted file is JSONL ({"meta": ..., "segments": [...]}) with a JSON
manifest beside it (counts by type and difficulty, a length histogram,
source hashes). Samples longer than the char cap are dropped and counted;
emission is deterministic, so re-emitting the same inputs is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import DataError
from .factory import assign_difficulty, trajectory_type_of
from .protocol import ActionKind, serialize_turn, validate_in_context
from .runtime import Trajectory
from .wire import atomic_write, decode, encode, parse_jsonl

__all__ = [
    "SftError",
    "Segment",
    "LinearizedSample",
    "DatasetManifest",
    "EMITTER_VERSION",
    "MAX_SAMPLE_CHARS",
    "linearize",
    "emit_dataset",
    "read_sft_file",
    "scan_sft_file",
]

logger = logging.getLogger(__name__)

EMITTER_VERSION = "sft-emitter-v1"
MAX_SAMPLE_CHARS = 49_152  # ~16k tokens at ~3 chars/token

_EVIDENCE_SPAN = re.compile(r"<evidence>\n.*?</evidence>", re.DOTALL)
_DECISION_TAGS = ("<think>", "</think>", "<caption>", "</caption>", "<answer>", "</answer>",
                  "<text_search>", "</text_search>", "<image_search>", "</image_search>")


class SftError(DataError):
    """SFT file or input trajectory failed validation."""


@dataclass(frozen=True)
class Segment:
    role: str  # instruction | decision | observation
    text: str
    supervise: bool


@dataclass
class LinearizedSample:
    meta: dict
    segments: list[Segment]

    @property
    def transcript(self) -> str:
        return "".join(s.text for s in self.segments)

    @property
    def n_chars(self) -> int:
        return len(self.transcript)


@dataclass
class DatasetManifest:
    emitter_version: str
    total: int
    dropped_over_cap: int
    by_type: dict[str, int]
    by_difficulty: dict[str, int]
    length_histogram: dict[str, int]
    source_files: list[dict]
    dataset_sha256: str


def _instruction_text(traj: Trajectory, system_prompt: str) -> str:
    # The image ref stays a placeholder; the training stack resolves it.
    return f"{system_prompt}\n<image>{traj.image_ref}</image>\n{traj.question}\n"


def linearize(traj: Trajectory, system_prompt: str) -> LinearizedSample:
    """Turn one strict-valid, answer-terminated trajectory into segments."""
    if not traj.turns:
        raise SftError(f"{traj.task_id}: trajectory has no turns")
    if traj.terminated_by != "answer":
        raise SftError(f"{traj.task_id}: trajectory terminated by {traj.terminated_by!r}, not answer")
    for i, turn in enumerate(traj.turns):
        problems = validate_in_context(turn, traj.turns[:i], mode="strict",
                                       allow_caption_before_answer=False)
        if problems:
            raise SftError(
                f"{traj.task_id}: turn {i + 1} fails strict validation: "
                + "; ".join(v.message for v in problems)
            )

    segments = [Segment(role="instruction", text=_instruction_text(traj, system_prompt), supervise=False)]
    observation = 0
    for turn in traj.turns:
        segments.append(Segment(role="decision", text=serialize_turn(turn) + "\n", supervise=True))
        if turn.action is not ActionKind.ANSWER:
            if observation >= len(traj.observations):
                raise SftError(f"{traj.task_id}: tool turn without a matching observation")
            segments.append(
                Segment(
                    role="observation",
                    text=traj.observations[observation].rendered + "\n",
                    supervise=False,
                )
            )
            observation += 1
    meta = {
        "task_id": traj.task_id,
        "trajectory_type": trajectory_type_of(traj),
        "difficulty": assign_difficulty(traj),
        "n_turns": len(traj.turns),
    }
    return LinearizedSample(meta=meta, segments=segments)


def _histogram(lengths: Sequence[int]) -> dict[str, int]:
    buckets = [1024, 2048, 4096, 8192, 16384, 32768, 65536]
    hist: dict[str, int] = {}
    for length in lengths:
        label = next((f"<={b}" for b in buckets if length <= b), f">{buckets[-1]}")
        hist[label] = hist.get(label, 0) + 1
    return dict(sorted(hist.items(), key=lambda kv: (len(kv[0]), kv[0])))


def emit_dataset(
    samples: Sequence[LinearizedSample],
    path: str | Path,
    max_chars: int = MAX_SAMPLE_CHARS,
    source_files: Sequence[str | Path] = (),
) -> DatasetManifest:
    """Write the dataset and its manifest; returns the manifest.

    Over-cap samples are dropped (never truncated) and counted. Each file
    is written with ``wire.atomic_write``: a partial file never remains.
    """
    kept: list[LinearizedSample] = []
    dropped = 0
    for sample in samples:
        if sample.n_chars > max_chars:
            dropped += 1
            logger.warning(
                "dropping %s: %d chars over cap %d", sample.meta.get("task_id"), sample.n_chars, max_chars
            )
        else:
            kept.append(sample)

    lines = [json.dumps(encode(s), sort_keys=True, ensure_ascii=False) + "\n" for s in kept]
    payload = "".join(lines).encode("utf-8")

    by_type: dict[str, int] = {}
    by_difficulty: dict[str, int] = {}
    for sample in kept:
        t = sample.meta.get("trajectory_type", "?")
        d = sample.meta.get("difficulty", "?")
        by_type[t] = by_type.get(t, 0) + 1
        by_difficulty[d] = by_difficulty.get(d, 0) + 1

    manifest = DatasetManifest(
        emitter_version=EMITTER_VERSION,
        total=len(kept),
        dropped_over_cap=dropped,
        by_type=dict(sorted(by_type.items())),
        by_difficulty=dict(sorted(by_difficulty.items())),
        length_histogram=_histogram([s.n_chars for s in kept]),
        source_files=[
            {"path": str(p), "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
            for p in source_files
        ],
        dataset_sha256=hashlib.sha256(payload).hexdigest(),
    )

    with atomic_write(path, binary=True) as fh:
        fh.write(payload)
    with atomic_write(str(path) + ".manifest.json") as fh:
        fh.write(json.dumps(encode(manifest), sort_keys=True, indent=2, ensure_ascii=False) + "\n")
    return manifest


def read_sft_file(path: str | Path) -> list[LinearizedSample]:
    with Path(path).open("r", encoding="utf-8") as fh:
        return parse_jsonl(fh, path, lambda obj, _: decode(LinearizedSample, obj), SftError)


def scan_sft_file(path: str | Path) -> dict:
    """Mask-soundness audit against the raw emitted text.

    Checks, per sample: segments alternate decision/observation after one
    unsupervised instruction; no char inside any evidence span is supervised;
    every decision-tag occurrence lies in a supervised segment. Returns
    counters; any nonzero violation count means the file is unsound.
    """
    samples = read_sft_file(path)
    report = {
        "samples": len(samples),
        "supervised_evidence_chars": 0,
        "unsupervised_decision_tags": 0,
        "structure_errors": 0,
    }
    for sample in samples:
        if not sample.segments or sample.segments[0].role != "instruction" or sample.segments[0].supervise:
            report["structure_errors"] += 1
            continue
        roles = [s.role for s in sample.segments[1:]]
        # decision, then optional observation after each decision, ending in a
        # decision (the answer turn)
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
        # The instruction quotes the tags when telling the model the output
        # format; only text after it belongs to the trajectory proper.
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
