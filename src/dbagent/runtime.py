"""Multi-turn rollout engine: reason, act, observe, update.

A rollout alternates model generations with tool dispatch under a fixed
action budget. Each accepted turn is one of the three actions:

* ``<text_search>`` runs dense section retrieval with the turn's query;
* ``<image_search>`` runs image retrieval with the *original* input image
  ref (the payload is a fixed placeholder, never a path to follow);
* ``<answer>`` terminates the rollout.

Tool output is injected back as a user-role message containing exactly the
rendered evidence block. A turn that violates the protocol is answered with
one corrective reprompt; a second consecutive violation terminates the
rollout as a protocol failure, and so does an empty generation, at once.
Violating generations are never stored as turns; they live in
``Trajectory.protocol_events``. A tool runs once per search; if it fails,
its error comes back as ``[tool error]`` evidence.

A ``Trajectory`` checks, when it is built, every rule a stored trajectory
must hold: a known ``terminated_by``, an answer turn only last and exactly
when the trajectory is answer-terminated, one evidence block per search
turn (paired by position), and each turn valid in context in the mode its
``config`` records. The rollout, the factory and every file reader build
one the same way, so a trajectory that breaks a rule cannot be held, and
a file line that holds one is rejected where it is read.

Rollouts are deterministic: same config, backend, and tools give
byte-identical serialized trajectories, independent of worker count.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError
from .gateway import ChatMessage, EmptyGenerationError, GenerationParams
from .kb import Corpus
from .prompts import load_prompt
from .protocol import (
    ActionKind,
    EvidenceBlock,
    EvidenceItem,
    ProtocolViolation,
    TurnRecord,
    ViolationCode,
    extract_final_answer,
    parse_turn,
    render_evidence,
    render_tool_error,
    validate_in_context,
)
from .retrieval import bind, image_search, text_search
from .wire import atomic_write, decode, encode, parse_jsonl

__all__ = [
    "RolloutConfig",
    "ToolBinding",
    "TextRetriever",
    "ImageRetriever",
    "Trajectory",
    "TrajectoryError",
    "TERMINATED_ANSWER",
    "TERMINATED_BUDGET",
    "TERMINATED_PROTOCOL",
    "TERMINATED_KINDS",
    "rollout",
    "batch_rollout",
    "write_trajectory_file",
    "read_trajectory_file",
]

logger = logging.getLogger(__name__)

TERMINATED_ANSWER = "answer"
TERMINATED_BUDGET = "budget_exhausted"
TERMINATED_PROTOCOL = "protocol_failure"
TERMINATED_KINDS = (TERMINATED_ANSWER, TERMINATED_BUDGET, TERMINATED_PROTOCOL)


class TrajectoryError(DataError):
    """Trajectory file failed validation."""


def default_system_prompt() -> str:
    return load_prompt("agent_system")


@dataclass
class RolloutConfig:
    """Knobs for one rollout.

    Args:
        budget: max number of accepted action turns.
        k_text: top-k for text retrieval.
        k_image: top-k (distinct articles) for image retrieval.
        strict_protocol: validate turns in strict mode (contextual caption
            rules, unknown tags fatal); lenient warns on unknown tags.
        system_prompt: instruction text; defaults to the packaged template.

    Every generation is sent with the ``GenerationParams`` defaults. A
    ``k_text`` or ``k_image`` below 1 raises ``ValueError``; a budget of 0
    is valid and gives a trajectory with no turns.
    """

    budget: int = 4
    k_text: int = 3
    k_image: int = 1
    strict_protocol: bool = True
    system_prompt: str = field(default_factory=default_system_prompt)

    def __post_init__(self) -> None:
        for name in ("k_text", "k_image"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def snapshot(self) -> dict:
        """Scalar config fields plus the sha256 of the system prompt, which
        is computed once per distinct prompt text (``_prompt_sha256``), not
        once per rollout."""
        snap = encode(self)
        snap["system_prompt_sha256"] = _prompt_sha256(snap.pop("system_prompt"))
        return snap


@functools.cache
def _prompt_sha256(prompt: str) -> str:
    """Hex sha256 of a prompt's UTF-8 bytes, kept for the life of the
    process: a batch has one prompt, and every rollout records its digest."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class _Retriever:
    """A search tool over ``corpus``: an index of it and the provider that
    embeds its queries. An index without row keys (one ``load_index`` read)
    is bound to ``corpus`` here; ``retrieval.bind`` raises ``DataError``
    unless it is what a build from ``corpus`` with ``provider`` would give."""

    def __init__(self, index, provider, corpus: Corpus):
        self.index = bind(index, corpus, provider) if index.keys is None else index
        self.provider = provider
        self.corpus = corpus


class TextRetriever(_Retriever):
    """Text search returning each hit section's title, heading and text."""

    def search(self, query: str, k: int) -> list[EvidenceItem]:
        hits = text_search(self.index, self.provider, query, k=k)
        items = []
        for hit in hits:
            article = self.corpus.article(hit.article_id)
            section = next(s for s in article.sections if s.section_id == hit.section_id)
            items.append(
                EvidenceItem(
                    article_id=hit.article_id,
                    section_id=hit.section_id,
                    title=article.title,
                    heading=section.heading,
                    text=section.text,
                    score=hit.score,
                )
            )
        return items


class ImageRetriever(_Retriever):
    """Image search returning article text: each matched article's title and
    lead section."""

    def search(self, image_ref: str, k: int) -> list[EvidenceItem]:
        hits = image_search(self.index, self.provider, image_ref, k=k)
        items = []
        for hit in hits:
            article = self.corpus.article(hit.article_id)
            items.append(
                EvidenceItem(
                    article_id=hit.article_id,
                    section_id=None,
                    title=article.title,
                    heading=article.lead_section.heading,
                    text=article.lead_section.text,
                    score=hit.score,
                )
            )
        return items


@dataclass(frozen=True)
class ToolBinding:
    text_retriever: TextRetriever
    image_retriever: ImageRetriever


def _searched(retriever, query: str, k: int) -> EvidenceBlock:
    """Run a tool once; a failure surfaces as sentinel evidence so the model
    can react instead of the rollout dying. Transport retries belong to the
    provider's HTTP client."""
    try:
        return render_evidence(retriever.search(query, k))
    except Exception as exc:  # tool errors must not kill the rollout
        logger.warning("tool failed: %s", exc)
        return render_tool_error(str(exc))


@dataclass(frozen=True)
class _ProtocolEvent:
    """One ``Trajectory.protocol_events`` entry: a rejected generation, and why."""

    generation_index: int
    raw: str
    violations: tuple[ProtocolViolation, ...]


@dataclass(frozen=True)
class Trajectory:
    """One rollout: its turns, the evidence block of each search turn in
    order, how it ended, and the config it ran with.

    Construction raises ``ValueError`` unless the rules of the module
    docstring hold; the validation mode is the one ``config`` records
    (``validation``). The record is frozen, holds its sequences as tuples
    and a read-only copy of ``config``, so a trajectory stays what its
    checks passed. Each protocol event, a ``_ProtocolEvent`` or a mapping
    decoded as one (unknown keys dropped), is held as a read-only mapping of
    its encoding.
    """

    task_id: str
    image_ref: str
    question: str
    turns: tuple[TurnRecord, ...]
    observations: tuple[EvidenceBlock, ...]
    terminated_by: str
    config: dict = field(default_factory=dict)
    protocol_events: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        for name in ("turns", "observations"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        events = []
        for i, event in enumerate(self.protocol_events):
            if not isinstance(event, _ProtocolEvent):  # rollout builds typed records; a mapping is checked
                try:
                    event = decode(_ProtocolEvent, dict(event))
                except DataError as exc:
                    raise ValueError(f"protocol_events[{i}]: {exc}") from None
            events.append(types.MappingProxyType(encode(event)))
        object.__setattr__(self, "protocol_events", tuple(events))
        object.__setattr__(self, "config", types.MappingProxyType(dict(self.config)))
        if self.terminated_by not in TERMINATED_KINDS:
            raise ValueError(
                f"terminated_by {self.terminated_by!r} is not one of " + ", ".join(map(repr, TERMINATED_KINDS))
            )
        mode = self.validation
        turns = self.turns
        tool_turns = 0
        for i, turn in enumerate(turns):
            if turn.action is not ActionKind.ANSWER:
                tool_turns += 1
            elif i < len(turns) - 1:
                raise ValueError(f"turn {i + 1} of {len(turns)} is an answer turn before the last")
            problems = validate_in_context(turn, turns[:i], mode)
            if problems:
                raise ValueError(f"turn {i + 1} fails {mode} validation: " + "; ".join(v.message for v in problems))
        if (self.terminated_by == TERMINATED_ANSWER) != (tool_turns < len(turns)):
            ending = "an answer turn" if tool_turns < len(turns) else "no answer turn"
            raise ValueError(f"terminated_by {self.terminated_by!r} with {ending} last")
        if len(self.observations) != tool_turns:
            raise ValueError(f"{len(self.observations)} observation(s) for {tool_turns} tool turn(s)")

    @property
    def validation(self) -> str:
        """The validation mode that ``config`` records; a config without one
        is strict."""
        return "strict" if self.config.get("strict_protocol", True) else "lenient"

    @property
    def final_answer(self) -> str | None:
        """Payload of the last answer turn; None when no turn answered."""
        return extract_final_answer(self.turns)

    @property
    def action_kinds(self) -> tuple[ActionKind, ...]:
        return tuple(t.action for t in self.turns)

    @property
    def n_tool_turns(self) -> int:
        return sum(1 for t in self.turns if t.action is not ActionKind.ANSWER)


def _reflection_message(violations: Sequence[ProtocolViolation]) -> str:
    lines = ["Your last turn violated the output format:"]
    lines.extend(f"- {v.code.value}: {v.message}" for v in violations)
    lines.append("Reply again, following the format rules exactly.")
    return "\n".join(lines)


def rollout(
    image_ref: str,
    question: str,
    backend,
    tools: ToolBinding,
    config: RolloutConfig,
    task_id: str = "task",
) -> Trajectory:
    """Run the full agent loop for one (image, question) pair."""
    if not question or not question.strip():
        raise ValueError("question must be non-empty")
    params = GenerationParams()
    messages: list[ChatMessage] = [
        ChatMessage(role="system", content=config.system_prompt),
        ChatMessage(role="user", content=question, images=(image_ref,) if image_ref else ()),
    ]
    turns: list[TurnRecord] = []
    observations: list[EvidenceBlock] = []
    protocol_events: list[_ProtocolEvent] = []
    mode = "strict" if config.strict_protocol else "lenient"
    generation_index = 0
    violation_streak = 0
    terminated_by = TERMINATED_BUDGET

    while len(turns) < config.budget:
        try:
            raw = backend.complete(messages, params, turn_index=generation_index)
        except EmptyGenerationError as exc:
            logger.warning("empty generation at index %d: %s", generation_index, exc)
            terminated_by = TERMINATED_PROTOCOL
            break
        generation_index += 1

        record, violations = parse_turn(raw)
        if record is not None:
            if mode == "lenient":
                for v in violations:
                    if v.code is ViolationCode.UNKNOWN_TAG:
                        logger.warning("ignoring unknown tag in lenient mode: %s", v.message)
            violations = validate_in_context(record, turns, mode)
        elif mode == "lenient":  # lenient drops unknown tags also where there is no record to validate
            violations = [v for v in violations if v.code is not ViolationCode.UNKNOWN_TAG]
        if record is None or violations:
            protocol_events.append(_ProtocolEvent(generation_index - 1, raw, tuple(violations)))
            if violation_streak >= 1:
                terminated_by = TERMINATED_PROTOCOL
                break
            violation_streak += 1
            messages.append(ChatMessage(role="assistant", content=raw))
            messages.append(ChatMessage(role="user", content=_reflection_message(violations)))
            continue

        violation_streak = 0
        turns.append(record)
        messages.append(ChatMessage(role="assistant", content=raw))
        if record.action is ActionKind.ANSWER:
            terminated_by = TERMINATED_ANSWER
            break
        if record.action is ActionKind.TEXT_SEARCH:
            block = _searched(tools.text_retriever, record.action_payload, config.k_text)
        else:
            # Always the original input image; the payload is just a placeholder.
            block = _searched(tools.image_retriever, image_ref, config.k_image)
        observations.append(block)
        messages.append(ChatMessage(role="user", content=block.rendered))

    return Trajectory(
        task_id=task_id,
        image_ref=image_ref,
        question=question,
        turns=turns,
        observations=observations,
        terminated_by=terminated_by,
        config=config.snapshot(),
        protocol_events=protocol_events,
    )


def batch_rollout(
    samples: Sequence,
    backend,
    tools: ToolBinding,
    config: RolloutConfig,
    workers: int = 1,
) -> list[Trajectory]:
    """Roll out many tasks; output order follows input order regardless of
    worker count. ``samples`` need `.sample_id`, `.image_ref`, `.question`."""

    def one(sample) -> Trajectory:
        return rollout(
            sample.image_ref,
            sample.question,
            backend,
            tools,
            config,
            task_id=sample.sample_id,
        )

    if workers <= 1:
        return [one(s) for s in samples]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, samples))


# --- wire format ---------------------------------------------------------


def write_trajectory_file(trajectories: Iterable[Trajectory], path: str | Path) -> None:
    with atomic_write(path) as fh:
        for traj in trajectories:
            fh.write(json.dumps(encode(traj), sort_keys=True, ensure_ascii=False))
            fh.write("\n")


def read_trajectory_file(path: str | Path) -> list[Trajectory]:
    with Path(path).open("r", encoding="utf-8") as fh:
        return list(parse_jsonl(fh, path, lambda obj, _: decode(Trajectory, obj), TrajectoryError))
