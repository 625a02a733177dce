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

Emission and the mask audit stream: each holds one sample in memory at a
time, whatever the size of the dataset. The emitter hashes the source files
first, in 64 KiB blocks, then encodes, hashes, counts and writes one sample
after another; the audit checks each sample as its line is decoded.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError
from .factory import assign_difficulty, trajectory_type_of
from .protocol import ActionKind, serialize_turn
from .protocol import validate_in_context  # noqa: F401 - unused: perfbench's spans rebind it (ROADMAP item 2)
from .runtime import TERMINATED_ANSWER, Trajectory
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
        return sum(len(s.text) for s in self.segments)


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
    """Turn one answer-terminated trajectory, recorded strict, into
    segments. The trajectory checked its turns and observations when it was
    built."""
    if traj.terminated_by != TERMINATED_ANSWER:
        raise SftError(f"{traj.task_id}: trajectory terminated by {traj.terminated_by!r}, not answer")
    if traj.validation != "strict":
        raise SftError(f"{traj.task_id}: trajectory recorded {traj.validation}, not strict")

    segments = [Segment(role="instruction", text=_instruction_text(traj, system_prompt), supervise=False)]
    observations = iter(traj.observations)  # one per tool turn, in order
    for turn in traj.turns:
        segments.append(Segment(role="decision", text=serialize_turn(turn) + "\n", supervise=True))
        if turn.action is not ActionKind.ANSWER:
            segments.append(Segment(role="observation", text=next(observations).rendered + "\n", supervise=False))
    meta = {
        "task_id": traj.task_id,
        "trajectory_type": trajectory_type_of(traj),
        "difficulty": assign_difficulty(traj),
        "n_turns": len(traj.turns),
    }
    return LinearizedSample(meta=meta, segments=segments)


def _length_bucket(length: int) -> str:
    buckets = (1024, 2048, 4096, 8192, 16384, 32768, 65536)
    return next((f"<={b}" for b in buckets if length <= b), f">{buckets[-1]}")


def _file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def emit_dataset(
    samples: Iterable[LinearizedSample],
    path: str | Path,
    max_chars: int = MAX_SAMPLE_CHARS,
    source_files: Sequence[str | Path] = (),
) -> DatasetManifest:
    """Write the dataset and its manifest; returns the manifest.

    One pass over ``samples`` (any iterable, a generator included), which
    holds one sample and its line at a time: each kept sample is encoded,
    hashed, counted and written before the next is drawn. The source files
    are hashed first, in 64 KiB blocks, so a source that is also the target
    is hashed as it was. Over-cap samples are dropped (never truncated) and
    counted. Each file is written with ``wire.atomic_write``: a partial
    file never remains, also when drawing a sample raises.
    """
    sources = [{"path": str(p), "sha256": _file_sha256(p)} for p in source_files]
    digest = hashlib.sha256()
    total = dropped = 0
    by_type: Counter[str] = Counter()
    by_difficulty: Counter[str] = Counter()
    lengths: Counter[str] = Counter()
    with atomic_write(path, binary=True) as fh:
        for sample in samples:
            n_chars = sample.n_chars
            if n_chars > max_chars:
                dropped += 1
                logger.warning("dropping %s: %d chars over cap %d", sample.meta.get("task_id"), n_chars, max_chars)
                continue
            line = (json.dumps(encode(sample), sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")
            digest.update(line)
            fh.write(line)
            total += 1
            by_type[sample.meta.get("trajectory_type", "?")] += 1
            by_difficulty[sample.meta.get("difficulty", "?")] += 1
            lengths[_length_bucket(n_chars)] += 1

    manifest = DatasetManifest(
        emitter_version=EMITTER_VERSION,
        total=total,
        dropped_over_cap=dropped,
        by_type=dict(sorted(by_type.items())),
        by_difficulty=dict(sorted(by_difficulty.items())),
        length_histogram=dict(sorted(lengths.items(), key=lambda kv: (len(kv[0]), kv[0]))),
        source_files=sources,
        dataset_sha256=digest.hexdigest(),
    )
    with atomic_write(str(path) + ".manifest.json") as fh:
        fh.write(json.dumps(encode(manifest), sort_keys=True, indent=2, ensure_ascii=False) + "\n")
    return manifest


def _parse_sft(fh: Iterable[str], path: str | Path) -> Iterator[LinearizedSample]:
    return parse_jsonl(fh, path, lambda obj, _: decode(LinearizedSample, obj), SftError)


def read_sft_file(path: str | Path) -> list[LinearizedSample]:
    with Path(path).open("r", encoding="utf-8") as fh:
        return list(_parse_sft(fh, path))


def _audit_mask(sample: LinearizedSample) -> tuple[int, int]:
    """(supervised chars inside evidence spans, decision-tag occurrences
    outside evidence that some unsupervised char covers) of one sample.

    Works on the merged supervised intervals of the transcript, found by
    bisection: its cost grows with segments, evidence spans and tag
    occurrences, not with characters.
    """
    transcript = sample.transcript
    starts: list[int] = []  # merged supervised intervals, sorted and disjoint
    ends: list[int] = []
    pos = 0
    for seg in sample.segments:
        end = pos + len(seg.text)
        if seg.supervise and end > pos:
            if ends and ends[-1] == pos:
                ends[-1] = end
            else:
                starts.append(pos)
                ends.append(end)
        pos = end

    evidence_starts: list[int] = []
    evidence_ends: list[int] = []
    supervised_evidence = 0
    for match in _EVIDENCE_SPAN.finditer(transcript):
        start, end = match.span()
        evidence_starts.append(start)
        evidence_ends.append(end)
        i = bisect_right(ends, start)  # the first interval that ends after start
        while i < len(starts) and starts[i] < end:
            supervised_evidence += min(ends[i], end) - max(starts[i], start)
            i += 1

    unsupervised_tags = 0
    # The instruction quotes the tags when telling the model the output
    # format; only text after it belongs to the trajectory proper.
    body_start = len(sample.segments[0].text)
    for tag in _DECISION_TAGS:
        idx = transcript.find(tag, body_start)
        while idx >= 0:
            e = bisect_right(evidence_starts, idx) - 1
            if not (e >= 0 and idx < evidence_ends[e]):
                i = bisect_right(starts, idx) - 1
                if not (i >= 0 and idx + len(tag) <= ends[i]):
                    unsupervised_tags += 1
            idx = transcript.find(tag, idx + 1)
    return supervised_evidence, unsupervised_tags


def scan_sft_file(path: str | Path) -> dict:
    """Mask-soundness audit against the raw emitted text.

    Checks, per sample: segments alternate decision/observation after one
    unsupervised instruction; no char inside any evidence span is supervised;
    every decision-tag occurrence lies in a supervised segment. Each sample
    is audited as its line is decoded, so one sample is held at a time.
    Returns counters; any nonzero violation count means the file is unsound.
    """
    report = {
        "samples": 0,
        "supervised_evidence_chars": 0,
        "unsupervised_decision_tags": 0,
        "structure_errors": 0,
    }
    with Path(path).open("r", encoding="utf-8") as fh:
        for sample in _parse_sft(fh, path):
            report["samples"] += 1
            if not sample.segments or sample.segments[0].role != "instruction" or sample.segments[0].supervise:
                report["structure_errors"] += 1
                continue
            roles = [s.role for s in sample.segments[1:]]
            # decision, then optional observation after each decision, ending
            # in a decision (the answer turn)
            sound = bool(roles) and roles[0] == "decision" and roles[-1] == "decision"
            for prev, cur in zip(roles, roles[1:]):
                if cur not in ("decision", "observation"):
                    sound = False
                if cur == "observation" and prev != "decision":
                    sound = False
            if not sound:
                report["structure_errors"] += 1
            evidence_chars, tags = _audit_mask(sample)
            report["supervised_evidence_chars"] += evidence_chars
            report["unsupervised_decision_tags"] += tags
    return report
