"""Failure-aware trajectory construction.

Training trajectories are built in three stages that branch on where the
model's first attempt went wrong:

* Stage 1: answer from the model's own knowledge; a judge grades it. A
  correct answer becomes a direct-answer trajectory. A wrong answer routes
  by entity: wrong entity -> image branch (re-identify the image), right
  entity -> text branch (look the fact up).
* Stage 2: answer again with the branch's retrieval in context. Correct
  ends the branch; wrong produces a rewrite (a refined text query, plus a
  caption on the image branch).
* Stage 3: answer with the refined retrieval. Correct yields the two-tool
  trajectory; wrong discards the sample.

Each stage appends the turn its judge's verdict implies: the answer that
ends the sample, or the search the next stage runs, with stage judge/choose
text folded into its think. Each search appends its evidence block when it
runs. The turns are built into a ``Trajectory`` recorded as strict,
whatever the rollout config says, and a trajectory that breaks its rules
is discarded; the trajectory type and difficulty are read off the result.
Judging is either
``normalized_exact`` (closed-form string match plus synthesized routing
text, so the whole factory runs offline) or ``model_judge`` (a chat backend
grades and writes the routing text).

Trajectory types: ``A``, ``I→A``, ``T→A``, ``I→T→A``, ``T→T→A``.
Difficulty comes from interaction depth: 0 tool turns easy, 1 medium,
2 or more hard.
"""

from __future__ import annotations

import json
import logging
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError
from .gateway import ChatMessage, GenerationParams
from .prompts import load_prompt, prompt_id
from .protocol import (
    ActionKind,
    EvidenceBlock,
    IMAGE_PAYLOAD,
    TurnRecord,
    make_turn,
    render_evidence,
    validate_in_context,  # noqa: F401 - unused: perfbench's spans rebind it (ROADMAP item 2)
)
from .runtime import TERMINATED_ANSWER, RolloutConfig, ToolBinding, Trajectory
from .wire import atomic_write, decode, encode, parse_jsonl

__all__ = [
    "DatasetError",
    "JudgeParseFailure",
    "StageParseError",
    "QaSample",
    "StageRecord",
    "BranchOutcome",
    "FactoryConfig",
    "TYPE_DIRECT",
    "TYPE_IMAGE",
    "TYPE_TEXT",
    "TYPE_IMAGE_TEXT",
    "TYPE_TEXT_TEXT",
    "TYPE_DISCARDED",
    "TYPE_FAILED",
    "normalize_answer",
    "judge_answer",
    "entity_matches",
    "load_qa_dataset",
    "build_outcome",
    "run_factory",
    "trajectory_type_of",
    "assign_difficulty",
    "sample_balanced",
    "write_outcome_file",
    "iter_outcome_file",
    "read_outcome_file",
]

logger = logging.getLogger(__name__)

TYPE_DIRECT = "A"
TYPE_IMAGE = "I→A"
TYPE_TEXT = "T→A"
TYPE_IMAGE_TEXT = "I→T→A"
TYPE_TEXT_TEXT = "T→T→A"
TYPE_DISCARDED = "DISCARDED"
TYPE_FAILED = "FAILED"

SFT_TYPES = (TYPE_DIRECT, TYPE_IMAGE, TYPE_TEXT, TYPE_IMAGE_TEXT, TYPE_TEXT_TEXT)

DIFFICULTY_TIERS = ("easy", "medium", "hard")

_CORRECT = "[correct]"
_WRONG = "[wrong]"
_TERMINAL_PUNCT = ".,;:!?"
# A stage output that does not parse is asked for once more, then the
# sample is discarded.
_STAGE_RETRIES = 1
# Prompt id recorded for a stage graded by the normalized_exact judge.
_EXACT_JUDGE = "judge-normalized-exact-v1"


class DatasetError(DataError):
    """QA dataset file failed validation."""


class StageParseError(Exception):
    """A stage output did not match its required tag shape."""


class JudgeParseFailure(StageParseError):
    """A model judge emitted neither [correct] nor [wrong]."""


# --- answers and judging -------------------------------------------------


def normalize_answer(text: str) -> str:
    """Lowercase, trim, collapse whitespace, strip terminal punctuation."""
    out = " ".join(text.lower().split())
    return out.rstrip(_TERMINAL_PUNCT).rstrip()


def _gold_list(gold_answers: str | Sequence[str]) -> list[str]:
    if isinstance(gold_answers, str):
        return [g for g in gold_answers.split("|") if g.strip()]
    return list(gold_answers)


def judge_answer(
    predicted: str,
    gold_answers: str | Sequence[str],
    mode: str = "normalized_exact",
    backend=None,
    question: str | None = None,
) -> bool:
    """Grade a prediction against the gold answer set.

    ``normalized_exact`` is normalized membership. ``model_judge`` asks a
    chat backend and parses a [correct]/[wrong] marker; an output with
    neither marker raises JudgeParseFailure.
    """
    golds = _gold_list(gold_answers)
    if mode == "normalized_exact":
        if not predicted or not predicted.strip():
            return False
        want = normalize_answer(predicted)
        return any(normalize_answer(g) == want for g in golds)
    if mode == "model_judge":
        if backend is None:
            raise ValueError("model_judge mode needs a backend")
        messages = [
            ChatMessage(role="system", content=load_prompt("stage3_judge")),
            ChatMessage(role="user", content="\n".join(_judge_lines(question, predicted, golds))),
        ]
        output = backend.complete(messages, GenerationParams(), turn_index=0)
        return _parse_verdict(output) == "correct"
    raise ValueError(f"unknown judge mode: {mode!r}")


def _judge_lines(question: str | None, predicted: str, golds: Sequence[str]) -> list[str]:
    """The user message lines of a grade-only judge (``stage3_judge``)."""
    return [
        f"[question] {question or '(not provided)'}",
        f"[answer] {predicted}",
        f"[gold_answer] {'|'.join(golds)}",
    ]


def entity_matches(predicted_entity: str, gold_entity: str) -> bool:
    """Case-insensitive normalized equality or containment either way."""
    a = normalize_answer(predicted_entity)
    b = normalize_answer(gold_entity)
    if not a or not b:
        return False
    return a == b or a in b or b in a


def _parse_verdict(text: str) -> str:
    pos_ok = text.find(_CORRECT)
    pos_bad = text.find(_WRONG)
    if pos_ok < 0 and pos_bad < 0:
        raise JudgeParseFailure(f"judge output has no verdict marker: {text[:120]!r}")
    if pos_bad < 0 or (0 <= pos_ok < pos_bad):
        return "correct"
    return "wrong"


def _extract_tag(text: str, name: str, required: bool = True) -> str | None:
    """Reads the spans that ``re.findall(rf"<{name}>(.*?)</{name}>", text, re.DOTALL)`` returns."""
    opening, closing = f"<{name}>", f"</{name}>"
    found = []
    pos = 0
    while (start := text.find(opening, pos)) >= 0:
        end = text.find(closing, start + len(opening))
        if end < 0:
            break
        found.append(text[start + len(opening) : end])
        pos = end + len(closing)
    if len(found) > 1:
        raise StageParseError(f"tag <{name}> appears {len(found)} times, expected once")
    if not found:
        if required:
            raise StageParseError(f"tag <{name}> missing from stage output")
        return None
    return found[0].strip()


# --- dataset -------------------------------------------------------------


@dataclass(frozen=True)
class QaSample:
    sample_id: str
    image_ref: str
    question: str
    answers: tuple[str, ...]
    gold_entity: str | None = None
    gold_article_id: str | None = None
    split: str = "train"


def load_qa_dataset(path: str | Path) -> list[QaSample]:
    """Load JSONL QA samples; ``answers`` is "a|b|c" or a JSON list."""
    seen: dict[str, int] = {}

    def parse(obj: object, line_no: int) -> QaSample:
        sample = _parse_sample(obj)
        if sample.sample_id in seen:
            raise DatasetError(
                f"duplicate sample_id {sample.sample_id!r} (first seen on line {seen[sample.sample_id]})"
            )
        seen[sample.sample_id] = line_no
        return sample

    with Path(path).open("r", encoding="utf-8") as fh:
        return list(parse_jsonl(fh, path, parse, DatasetError))


def _parse_sample(obj: object) -> QaSample:
    if not isinstance(obj, dict):
        raise DatasetError("sample must be a JSON object")
    for key in ("sample_id", "image_ref", "question"):
        if not isinstance(obj.get(key), str) or not obj[key].strip():
            raise DatasetError(f"field {key!r} must be a non-empty string")
    raw_answers = obj.get("answers")
    if isinstance(raw_answers, str):
        answers = tuple(a for a in raw_answers.split("|") if a.strip())
    elif isinstance(raw_answers, list) and all(isinstance(a, str) for a in raw_answers):
        answers = tuple(a for a in raw_answers if a.strip())
    else:
        raise DatasetError("'answers' must be 'a|b|c' or a list of strings")
    if not answers:
        raise DatasetError("'answers' is empty")
    for key in ("gold_entity", "gold_article_id"):
        if obj.get(key) is not None and not isinstance(obj[key], str):
            raise DatasetError(f"field {key!r} must be a string")
    split = obj.get("split", "train")
    if split not in ("train", "val", "test"):
        raise DatasetError(f"split must be train/val/test, got {split!r}")
    return QaSample(
        sample_id=obj["sample_id"],
        image_ref=obj["image_ref"],
        question=obj["question"],
        answers=answers,
        gold_entity=obj.get("gold_entity"),
        gold_article_id=obj.get("gold_article_id"),
        split=split,
    )


# --- stage plumbing ------------------------------------------------------


@dataclass(frozen=True)
class StageRecord:
    stage: str
    prompt_id: str
    model_output: str
    parsed_fields: dict[str, str]
    verdict: str = "n/a"  # correct | wrong | n/a


@dataclass
class FactoryConfig:
    """Factory behavior knobs.

    ``judge_mode`` is "normalized_exact" or "model_judge"; model mode uses
    ``judge_backend`` when given, else the answering backend. ``keep_failed``
    labels stage-3 failures FAILED (kept for analysis) instead of DISCARDED;
    neither ever reaches SFT emission.
    """

    judge_mode: str = "normalized_exact"
    judge_backend: object | None = None
    keep_failed: bool = False
    rollout_config: RolloutConfig = field(default_factory=RolloutConfig)


class _Discard(Exception):
    def __init__(self, reason: str, failed: bool = False):
        super().__init__(reason)
        self.reason = reason
        self.failed = failed


@dataclass
class _Pipeline:
    """One sample's turns as its stages decide them, each as the ``(think,
    action, payload[, caption])`` parts ``make_turn`` takes, the evidence
    block of each search, and what later prompts quote."""

    sample: QaSample
    stages: list[StageRecord] = field(default_factory=list)
    parts: list[tuple] = field(default_factory=list)
    observations: list[EvidenceBlock] = field(default_factory=list)
    route: str = ""  # the stage-1 judge's choose and action tags
    entity: str = ""
    answer: str = ""  # the latest stage's answer
    caption: str | None = None  # the image branch's stage-2 caption


def _tags(*names: str):
    """Stage-output parser that requires each named tag exactly once."""
    return lambda output: {name: _extract_tag(output, name) for name in names}


def _ask(pipe: _Pipeline, backend, template: str, lines: Sequence[str], extract, images=()) -> StageRecord:
    """Send ``template``'s prompt with ``lines`` as the user message and
    record the parsed reply.

    A reply ``extract`` cannot parse is asked for again, up to
    ``_STAGE_RETRIES`` times, before the sample is discarded. A ``verdict``
    field (a model judge's) becomes the record's verdict.
    """
    messages = [
        ChatMessage(role="system", content=load_prompt(template)),
        ChatMessage(role="user", content="\n".join(lines), images=images),
    ]
    params = GenerationParams()
    for attempt in range(_STAGE_RETRIES + 1):
        output = backend.complete(messages, params, turn_index=attempt)
        try:
            fields = extract(output)
            break
        except StageParseError as exc:
            last = exc
            logger.warning("%s parse failed (attempt %d): %s", template, attempt + 1, exc)
    else:
        raise _Discard(f"{template}: {last}")
    verdict = fields.pop("verdict", "n/a")
    pipe.stages.append(StageRecord(template, prompt_id(template), output, fields, verdict))
    return pipe.stages[-1]


def _judge(pipe: _Pipeline, backend, cfg: FactoryConfig, template: str, rewrite, lines, extract) -> StageRecord:
    """Grade the latest answer and record the judge; a wrong verdict's fields
    route the next stage.

    ``normalized_exact`` matches strings and synthesizes with ``rewrite(pipe)``
    the fields a model judge writes; ``model_judge`` asks the judge backend
    with ``lines`` and parses its reply with ``extract``.
    """
    if cfg.judge_mode != "normalized_exact":
        judge = cfg.judge_backend if cfg.judge_backend is not None else backend
        return _ask(pipe, judge, template, lines, extract)
    correct = judge_answer(pipe.answer, pipe.sample.answers)
    fields = {} if correct else rewrite(pipe)
    pipe.stages.append(StageRecord(template, _EXACT_JUDGE, "", fields, "correct" if correct else "wrong"))
    return pipe.stages[-1]


def _branch(pipe: _Pipeline) -> str:
    """The branch stage 1 routed to: "image" or "text"."""
    return "image" if pipe.parts[0][1] is ActionKind.IMAGE_SEARCH else "text"


def _search(pipe: _Pipeline, tools: ToolBinding, rc: RolloutConfig) -> EvidenceBlock:
    """Run the last turn's search and append its evidence block."""
    _, action, payload = pipe.parts[-1][:3]
    if action is ActionKind.IMAGE_SEARCH:
        # Always the sample's image; the payload is just a placeholder.
        items = tools.image_retriever.search(pipe.sample.image_ref, rc.k_image)
    else:
        items = tools.text_retriever.search(payload, rc.k_text)
    pipe.observations.append(render_evidence(items))
    return pipe.observations[-1]


def _merge_think(*parts: str) -> str:
    return " ".join(p.strip() for p in parts if p and p.strip())


# --- stage 1 -------------------------------------------------------------


def _stage1(pipe: _Pipeline, tools: ToolBinding, backend, cfg: FactoryConfig) -> None:
    """First-pass answer plus judge routing.

    A correct answer is the answer turn. A wrong one is an image search
    (entity mismatch) or a text search (entity right, fact missing), with
    the entity and the judge's choose text merged into its think.
    """
    sample = pipe.sample
    images = (sample.image_ref,) if sample.image_ref else ()
    lines = [f"[question] {sample.question}"]
    fields = _ask(pipe, backend, "stage1_answer", lines, _tags("think", "entity", "answer"), images).parsed_fields
    pipe.entity, pipe.answer = fields["entity"], fields["answer"]
    lines += [
        f"[stage1_think] {fields['think']}",
        f"[stage1_entity] {pipe.entity}",
        f"[stage1_answer] {pipe.answer}",
        f"[gold_answer] {'|'.join(sample.answers)}",
        f"[gold_entity] {sample.gold_entity or '(not provided)'}",
    ]
    judged = _judge(pipe, backend, cfg, "stage1_judge", _stage1_rewrite, lines, _parse_stage1_judge)
    route = judged.parsed_fields
    entity = f"The main entity is {pipe.entity}." if pipe.entity.strip() else ""
    think = _merge_think(fields["think"], entity, route.get("choose", ""))
    if judged.verdict == "correct":
        pipe.parts.append((think, ActionKind.ANSWER, pipe.answer))
        return
    action = ActionKind.IMAGE_SEARCH if "image_search" in route else ActionKind.TEXT_SEARCH
    tag, payload = action.value, route[action.value]
    pipe.parts.append((think, action, payload))
    pipe.route = f"<choose>{route['choose']}</choose>\n<{tag}>{payload}</{tag}>"


def _stage1_rewrite(pipe: _Pipeline) -> dict[str, str]:
    sample = pipe.sample
    # Without a gold entity there is no way to certify a mismatch, so
    # default to the text branch.
    if sample.gold_entity is None or entity_matches(pipe.entity, sample.gold_entity):
        return {
            "choose": "The entity is correct but the needed fact is missing, so it must be looked up.",
            "text_search": f"{pipe.entity} {sample.question}".strip(),
        }
    return {
        "choose": "The identified entity does not match the image, so the image itself must be re-identified.",
        "image_search": IMAGE_PAYLOAD,
    }


def _verdict(output: str) -> dict[str, str]:
    return {"verdict": _parse_verdict(output)}


def _parse_stage1_judge(output: str) -> dict[str, str]:
    verdict = _parse_verdict(output)
    if verdict == "correct":
        return {"verdict": verdict}
    image = _extract_tag(output, "image_search", required=False)
    query = _extract_tag(output, "text_search", required=False)
    choose = _extract_tag(output, "choose")
    if (image is None) == (query is None):
        raise StageParseError("judge must emit exactly one of <image_search>/<text_search>")
    if image is not None and image != IMAGE_PAYLOAD:
        raise StageParseError(f"<image_search> payload must be '{IMAGE_PAYLOAD}'")
    route = {"image_search": image} if image is not None else {"text_search": query}
    return {"verdict": verdict, "choose": choose, **route}


# --- stage 2 -------------------------------------------------------------


def _stage2(pipe: _Pipeline, tools: ToolBinding, backend, cfg: FactoryConfig) -> None:
    """Retrieval-grounded second pass on the routed branch.

    A correct answer is the answer turn; a wrong one is a refined text
    search, captioned on the image branch.
    """
    sample = pipe.sample
    branch = _branch(pipe)
    block = _search(pipe, tools, cfg.rollout_config)
    lines = [f"[question] {sample.question}", f"[stage1_output] {pipe.route}", f"[evidence] {block.rendered}"]
    fields = _ask(pipe, backend, f"stage2_{branch}_answer", lines, _tags("think", "answer")).parsed_fields
    pipe.answer = fields["answer"]

    def parse_judge(output: str) -> dict[str, str]:
        verdict = _parse_verdict(output)
        if verdict == "correct":
            return {"verdict": verdict}
        caption = {"caption": _extract_tag(output, "caption")} if branch == "image" else {}
        think = _extract_tag(output, "think")
        query = _extract_tag(output, "text_search")
        if not query:
            raise StageParseError("judge rewrite needs a <text_search> query")
        if branch == "text" and normalize_answer(query) == normalize_answer(pipe.parts[0][2]):
            raise StageParseError("rewrite query must differ from the previous query")
        return {"verdict": verdict, **caption, "think": think, "text_search": query}

    lines += [f"[stage2_answer] {pipe.answer}", f"[gold_answer] {'|'.join(sample.answers)}"]
    judged = _judge(pipe, backend, cfg, f"stage2_{branch}_judge", _stage2_rewrite, lines, parse_judge)
    if judged.verdict == "correct":
        pipe.parts.append((fields["think"], ActionKind.ANSWER, pipe.answer))
        return
    rewrite = judged.parsed_fields
    pipe.caption = rewrite.get("caption")
    pipe.parts.append((rewrite["think"], ActionKind.TEXT_SEARCH, rewrite["text_search"], pipe.caption))


def _stage2_rewrite(pipe: _Pipeline) -> dict[str, str]:
    if _branch(pipe) == "image":
        items = pipe.observations[0].items
        anchor = items[0].title if items else pipe.entity
        return {
            "caption": f"The image shows {anchor}.",
            "think": "The retrieved article identifies the entity but does not state the asked fact, "
            "so a focused text query is needed.",
            "text_search": f"{anchor} {pipe.sample.question}".strip(),
        }
    return {
        "think": "The evidence does not contain the asked fact; the query needs to target it more directly.",
        "text_search": f"{pipe.parts[0][2]} additional details",
    }


# --- stage 3 -------------------------------------------------------------


def _stage3(pipe: _Pipeline, tools: ToolBinding, backend, cfg: FactoryConfig) -> None:
    """Final pass on the refined query. A correct answer is the answer turn;
    a wrong one fails the sample."""
    sample = pipe.sample
    think, _, query = pipe.parts[-1][:3]
    block = _search(pipe, tools, cfg.rollout_config)
    lines = [
        f"[question] {sample.question}",
        f"[stage1_output] {pipe.route}",
        f"[stage2_evidence] {pipe.observations[0].rendered}",
        f"[stage2_answer] {pipe.answer}",
        *([f"[stage2_caption] {pipe.caption}"] if pipe.caption is not None else []),
        f"[stage2_think] {think}",
        f"[stage3_query] {query}",
        f"[stage3_new_evidence] {block.rendered}",
    ]
    fields = _ask(pipe, backend, f"stage3_{_branch(pipe)}_answer", lines, _tags("think", "answer")).parsed_fields
    pipe.answer = fields["answer"]

    # The stage-3 judge only grades. A judge output with no verdict after the
    # retry discards the sample, never FAILED: the answer was never graded.
    lines = _judge_lines(sample.question, pipe.answer, sample.answers)
    judged = _judge(pipe, backend, cfg, "stage3_judge", lambda _: {}, lines, _verdict)
    if judged.verdict != "correct":
        raise _Discard("stage3 answer judged wrong", failed=True)
    pipe.parts.append((fields["think"], ActionKind.ANSWER, pipe.answer))


# --- assembly ------------------------------------------------------------


def _assemble(pipe: _Pipeline, rc: RolloutConfig) -> Trajectory:
    """The sample's turns as one agent trajectory, recorded (and so
    validated) strict.

    Raises _Discard when a turn does not parse, the trajectory breaks a rule
    (``Trajectory``), or it leaks a gold answer outside evidence.
    """
    turns: list[TurnRecord] = []
    for i, part in enumerate(pipe.parts):
        try:
            turns.append(make_turn(*part))
        except ValueError as exc:  # stage text that breaks the tag grammar
            raise _Discard(f"assembled turn {i + 1} {exc}") from None
    sample = pipe.sample
    try:
        trajectory = Trajectory(
            task_id=sample.sample_id,
            image_ref=sample.image_ref,
            question=sample.question,
            turns=turns,
            observations=pipe.observations,
            terminated_by=TERMINATED_ANSWER,
            config={**rc.snapshot(), "strict_protocol": True},
        )
    except ValueError as exc:
        raise _Discard(f"assembled {exc}") from None
    _reject_gold_leak(turns, pipe.observations, sample)
    return trajectory


def _reject_gold_leak(
    turns: Sequence[TurnRecord],
    observations: Sequence[EvidenceBlock],
    sample: QaSample,
) -> None:
    """Discard trajectories whose pre-answer think or any caption names a
    gold answer the evidence does not contain.

    Judge-written text (route rationale, rewrite think, caption) only ever
    lands in non-final turns and captions, so those are the leak channels.
    The final turn's think is the answering model's own conclusion and may
    legitimately restate the answer it is about to give.
    """
    evidence_text = normalize_answer(" ".join(b.rendered for b in observations))
    for gold in sample.answers:
        needle = normalize_answer(gold)
        if not needle or needle in evidence_text:
            continue
        for i, turn in enumerate(turns):
            haystacks = []
            if i < len(turns) - 1:
                haystacks.append(normalize_answer(turn.think))
            if turn.caption:
                haystacks.append(normalize_answer(turn.caption))
            if any(needle in h for h in haystacks):
                raise _Discard(
                    f"turn {i + 1} mentions gold answer {gold!r} absent from evidence"
                )


# --- orchestration -------------------------------------------------------


@dataclass
class BranchOutcome:
    """One sample's factory result.

    An assembled outcome is labelled with its trajectory's type and
    difficulty and has no discard reason; any other is DISCARDED or FAILED,
    with no difficulty and a non-empty discard reason. Labels that disagree
    raise ``ValueError``.
    """

    sample_id: str
    trajectory_type: str
    stages: list[StageRecord]
    assembled: Trajectory | None = None
    difficulty: str | None = None
    discard_reason: str | None = None

    def __post_init__(self) -> None:
        labels = (self.trajectory_type, self.difficulty)
        if self.assembled is not None:
            want = (trajectory_type_of(self.assembled), assign_difficulty(self.assembled))
            if labels != want:
                raise ValueError(f"labels {labels} disagree with the trajectory's {want}")
            if self.discard_reason is not None:
                raise ValueError(f"an assembled outcome has discard_reason {self.discard_reason!r}")
        elif self.trajectory_type not in (TYPE_DISCARDED, TYPE_FAILED) or self.difficulty is not None:
            raise ValueError(f"labels {labels} of an outcome with no trajectory are not DISCARDED or FAILED")
        elif not self.discard_reason:
            raise ValueError(f"a {self.trajectory_type} outcome has no discard_reason")


def build_outcome(sample: QaSample, backend, tools: ToolBinding, cfg: FactoryConfig) -> BranchOutcome:
    """Run the stages for one sample until one answers, then assemble its
    turns; the labels are read off the result."""
    if sample.split != "train":
        raise ValueError(f"factory runs on split=train only, got {sample.split!r}")
    pipe = _Pipeline(sample=sample)
    try:
        for stage in (_stage1, _stage2, _stage3):
            stage(pipe, tools, backend, cfg)
            if pipe.parts[-1][1] is ActionKind.ANSWER:
                break
        assembled = _assemble(pipe, cfg.rollout_config)
    except _Discard as exc:
        label = TYPE_FAILED if (exc.failed and cfg.keep_failed) else TYPE_DISCARDED
        return BranchOutcome(sample.sample_id, label, pipe.stages, discard_reason=exc.reason)
    return BranchOutcome(
        sample.sample_id, trajectory_type_of(assembled), pipe.stages, assembled, assign_difficulty(assembled)
    )


def run_factory(
    samples: Iterable[QaSample],
    backend,
    tools: ToolBinding,
    cfg: FactoryConfig,
    workers: int = 1,
) -> list[BranchOutcome]:
    """Build outcomes for every train-split sample; others are skipped.

    Samples are independent; ``workers`` bounds backend parallelism.
    Output order follows input order regardless of worker count.
    """
    train = []
    for sample in samples:
        if sample.split != "train":
            logger.warning("skipping %s: split=%s", sample.sample_id, sample.split)
            continue
        train.append(sample)
    if workers <= 1:
        return [build_outcome(s, backend, tools, cfg) for s in train]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda s: build_outcome(s, backend, tools, cfg), train))


# --- labeling and sampling ----------------------------------------------


def trajectory_type_of(traj: Trajectory) -> str:
    """Label a trajectory by its action shape."""
    shape = tuple(k.value for k in traj.action_kinds)
    table = {
        ("answer",): TYPE_DIRECT,
        ("image_search", "answer"): TYPE_IMAGE,
        ("text_search", "answer"): TYPE_TEXT,
        ("image_search", "text_search", "answer"): TYPE_IMAGE_TEXT,
        ("text_search", "text_search", "answer"): TYPE_TEXT_TEXT,
    }
    return table.get(shape, "other:" + "/".join(shape))


def assign_difficulty(traj: Trajectory) -> str:
    """Interaction depth: 0 tool turns easy, 1 medium, >=2 hard."""
    return DIFFICULTY_TIERS[min(traj.n_tool_turns, len(DIFFICULTY_TIERS) - 1)]


def sample_balanced(
    outcomes: Sequence[BranchOutcome],
    n_per_tier: int,
    seed: int,
) -> list[BranchOutcome]:
    """Draw exactly n_per_tier outcomes per difficulty tier, seeded,
    without replacement. Raises naming the deficient tier."""
    tiers: dict[str, list[BranchOutcome]] = {t: [] for t in DIFFICULTY_TIERS}
    for outcome in outcomes:
        if outcome.assembled is None or outcome.difficulty not in tiers:
            continue
        tiers[outcome.difficulty].append(outcome)
    rng = random.Random(seed)
    chosen: list[BranchOutcome] = []
    for tier in DIFFICULTY_TIERS:
        pool = sorted(tiers[tier], key=lambda o: o.sample_id)
        if len(pool) < n_per_tier:
            raise ValueError(
                f"difficulty tier {tier!r} has {len(pool)} usable outcomes, need {n_per_tier}"
            )
        chosen.extend(sorted(rng.sample(pool, n_per_tier), key=lambda o: o.sample_id))
    return chosen


# --- wire format ---------------------------------------------------------


def write_outcome_file(outcomes: Iterable[BranchOutcome], path: str | Path) -> None:
    with atomic_write(path) as fh:
        for outcome in outcomes:
            fh.write(json.dumps(encode(outcome), sort_keys=True, ensure_ascii=False))
            fh.write("\n")


def iter_outcome_file(path: str | Path) -> Iterator[BranchOutcome]:
    """The outcomes of a file, each yielded as its line is read; a bad line
    raises after the last good one (``wire.parse_jsonl``)."""
    with Path(path).open("r", encoding="utf-8") as fh:
        yield from parse_jsonl(fh, path, lambda obj, _: decode(BranchOutcome, obj), DatasetError)


def read_outcome_file(path: str | Path) -> list[BranchOutcome]:
    return list(iter_outcome_file(path))
