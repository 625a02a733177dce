"""Evaluation: answer scoring, retrieval hits, aggregate reports, sweeps.

Two per-sample metrics feed everything else:

* answer correctness: normalized exact membership against the gold set
  (or a model judge, or raw string equality via a config switch);
* hit-at-any-turn: whether the gold article appeared in any evidence block
  of the trajectory. Trajectories with zero tool calls are not applicable
  and are excluded from retrieval denominators.

``aggregate`` folds scored records into a Report: overall and per-split
accuracy, per-trajectory-type share/recall/accuracy, and a row-normalized
2x2 of retrieval correctness vs answer correctness. Reports render as
aligned text, flat CSV, and JSON. Aggregation sorts records by sample_id
first, so results do not depend on arrival order.

``run_topk_grid`` re-rolls the same tasks over a grid of retrieval depths;
``run_kb_scale`` re-rolls them over nested corpus sizes with the gold
articles pinned into every subsample.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import DataError
from .factory import SFT_TYPES, JudgeParseFailure, QaSample, judge_answer, trajectory_type_of
from .kb import Corpus, subsample_corpus
from .retrieval import build_image_index, build_text_index
from .runtime import (
    ImageRetriever,
    TextRetriever,
    ToolBinding,
    Trajectory,
    batch_rollout,
    RolloutConfig,
)
from .wire import encode

__all__ = [
    "EvalRecord",
    "Report",
    "score_answer",
    "hit_at_any_turn",
    "build_eval_records",
    "aggregate",
    "render_report_text",
    "render_report_csv",
    "report_to_json",
    "run_topk_grid",
    "render_grid_text",
    "run_kb_scale",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalRecord:
    sample_id: str
    trajectory_type: str
    answer_correct: bool
    retrieval_hit: bool | None  # None: no tool calls or no gold article
    n_tool_calls: int
    split_tags: tuple[str, ...] = ()


def score_answer(
    predicted: str | None,
    gold_answers: str | Sequence[str],
    metric: str = "em",
    raw_exact: bool = False,
    judge_backend=None,
    question: str | None = None,
) -> bool | None:
    """Score one prediction; None means unscored (judge parse failure)."""
    if predicted is None or not predicted.strip():
        return False
    if metric == "em":
        if raw_exact:
            golds = gold_answers.split("|") if isinstance(gold_answers, str) else list(gold_answers)
            return predicted in golds
        return judge_answer(predicted, gold_answers, mode="normalized_exact")
    if metric == "judge":
        try:
            return judge_answer(
                predicted, gold_answers, mode="model_judge", backend=judge_backend, question=question
            )
        except JudgeParseFailure as exc:
            logger.warning("judge unscorable: %s", exc)
            return None
    raise ValueError(f"unknown metric: {metric!r}")


def hit_at_any_turn(traj: Trajectory, gold_article_id: str | None) -> bool | None:
    """Did any evidence block cite the gold article? None when not applicable
    (no tool calls, or no gold article to check against)."""
    if gold_article_id is None or traj.n_tool_turns == 0:
        return None
    return any(
        item.article_id == gold_article_id for block in traj.observations for item in block.items
    )


def build_eval_records(
    trajectories: Sequence[Trajectory],
    samples: Sequence[QaSample],
    metric: str = "em",
    raw_exact: bool = False,
    judge_backend=None,
) -> tuple[list[EvalRecord], dict]:
    """Join rollouts with their QA samples and score them.

    A trajectory joins the sample of its ``task_id``, and its ``question``
    and ``image_ref`` must be that sample's, else ``DataError`` names the
    id: a trajectory file scored against another dataset is refused, not
    scored. Returns (records, stats); stats counts unscored judge failures
    and empty predictions. Unscored samples are excluded from records.
    """
    by_id = {s.sample_id: s for s in samples}
    records: list[EvalRecord] = []
    stats = {"unscored": 0, "empty_predictions": 0}
    for traj in trajectories:
        sample = by_id.get(traj.task_id)
        if sample is None:
            raise ValueError(f"no QA sample for trajectory {traj.task_id!r}")
        for name in ("question", "image_ref"):
            if getattr(traj, name) != getattr(sample, name):
                raise DataError(
                    f"trajectory {traj.task_id!r} has {name} {getattr(traj, name)!r},"
                    f" its QA sample {getattr(sample, name)!r}"
                )
        prediction = traj.final_answer
        if not prediction or not prediction.strip():
            stats["empty_predictions"] += 1
        verdict = score_answer(
            prediction,
            sample.answers,
            metric=metric,
            raw_exact=raw_exact,
            judge_backend=judge_backend,
            question=sample.question,
        )
        if verdict is None:
            stats["unscored"] += 1
            continue
        records.append(
            EvalRecord(
                sample_id=traj.task_id,
                trajectory_type=trajectory_type_of(traj),
                answer_correct=verdict,
                retrieval_hit=hit_at_any_turn(traj, sample.gold_article_id),
                n_tool_calls=traj.n_tool_turns,
                split_tags=(sample.split,),
            )
        )
    return records, stats


@dataclass
class Report:
    n_records: int
    overall_accuracy: float  # percent
    per_split: dict[str, dict]
    per_type: dict[str, dict]
    contingency: dict[str, dict]
    unscored: int = 0
    empty_predictions: int = 0
    config: dict = field(default_factory=dict)


def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def aggregate(
    records: Sequence[EvalRecord],
    config: dict | None = None,
    stats: dict | None = None,
) -> Report:
    """Fold records into a Report. Deterministic: records are re-sorted by
    sample_id before any reduction."""
    if not records:
        raise ValueError("aggregate needs at least one record")
    rows = sorted(records, key=lambda r: r.sample_id)
    n = len(rows)

    per_split: dict[str, dict] = {}
    for tag in sorted({t for r in rows for t in r.split_tags}):
        tagged = [r for r in rows if tag in r.split_tags]
        per_split[tag] = {"n": len(tagged), "accuracy": _pct(sum(r.answer_correct for r in tagged), len(tagged))}

    def type_row_key(label: str) -> tuple[int, str]:
        # Canonical types render in tool-call-depth order, before any
        # "other:" shapes.
        return (SFT_TYPES.index(label) if label in SFT_TYPES else len(SFT_TYPES), label)

    per_type: dict[str, dict] = {}
    for label in sorted({r.trajectory_type for r in rows}, key=type_row_key):
        of_type = [r for r in rows if r.trajectory_type == label]
        with_hit = [r for r in of_type if r.retrieval_hit is not None]
        per_type[label] = {
            "n": len(of_type),
            "proportion": _pct(len(of_type), n),
            "retrieval_recall": (
                _pct(sum(r.retrieval_hit for r in with_hit), len(with_hit)) if with_hit else None
            ),
            "accuracy": _pct(sum(r.answer_correct for r in of_type), len(of_type)),
        }

    contingency: dict[str, dict] = {}
    scored = [r for r in rows if r.retrieval_hit is not None]
    for label, want in (("retrieval_correct", True), ("retrieval_incorrect", False)):
        row = [r for r in scored if r.retrieval_hit is want]
        contingency[label] = {
            "n": len(row),
            "answer_correct_pct": _pct(sum(r.answer_correct for r in row), len(row)),
            "answer_wrong_pct": _pct(sum(not r.answer_correct for r in row), len(row)),
        }

    stats = stats or {}
    return Report(
        n_records=n,
        overall_accuracy=_pct(sum(r.answer_correct for r in rows), n),
        per_split=per_split,
        per_type=per_type,
        contingency=contingency,
        unscored=stats.get("unscored", 0),
        empty_predictions=stats.get("empty_predictions", 0),
        config=config or {},
    )


# --- rendering -----------------------------------------------------------


def _fmt(value: float | None, width: int = 7) -> str:
    return f"{value:{width}.1f}" if value is not None else " " * (width - 1) + "-"


def render_report_text(report: Report) -> str:
    lines = [
        f"records: {report.n_records}   overall accuracy: {report.overall_accuracy:.1f}%"
        + (f"   unscored: {report.unscored}" if report.unscored else "")
    ]
    if report.per_split:
        parts = ", ".join(f"{tag}: {v['accuracy']:.1f}% (n={v['n']})" for tag, v in report.per_split.items())
        lines.append(f"splits: {parts}")
    lines.append("")
    lines.append(f"{'type':<10}{'n':>7}{'share%':>9}{'recall%':>9}{'acc%':>9}")
    for label, row in report.per_type.items():
        lines.append(
            f"{label:<10}{row['n']:>7}{_fmt(row['proportion'], 9)}"
            f"{_fmt(row['retrieval_recall'], 9)}{_fmt(row['accuracy'], 9)}"
        )
    lines.append("")
    lines.append(f"{'retrieval':<20}{'n':>7}{'ans ok%':>9}{'ans bad%':>9}")
    for label, row in report.contingency.items():
        lines.append(
            f"{label:<20}{row['n']:>7}{_fmt(row['answer_correct_pct'], 9)}"
            f"{_fmt(row['answer_wrong_pct'], 9)}"
        )
    return "\n".join(lines) + "\n"


def render_report_csv(report: Report) -> str:
    """Flat CSV: one row per aggregate, blank cells where not applicable."""
    header = "row,label,n,share_pct,recall_pct,accuracy_pct,answer_correct_pct,answer_wrong_pct"
    rows = [header]

    def cell(value: float | None) -> str:
        return f"{value:.1f}" if value is not None else ""

    rows.append(f"overall,,{report.n_records},,,{cell(report.overall_accuracy)},,")
    for tag, v in report.per_split.items():
        rows.append(f"split,{tag},{v['n']},,,{cell(v['accuracy'])},,")
    for label, v in report.per_type.items():
        rows.append(
            f"type,{label},{v['n']},{cell(v['proportion'])},{cell(v['retrieval_recall'])},"
            f"{cell(v['accuracy'])},,"
        )
    for label, v in report.contingency.items():
        rows.append(
            f"contingency,{label},{v['n']},,,,{cell(v['answer_correct_pct'])},{cell(v['answer_wrong_pct'])}"
        )
    return "\n".join(rows) + "\n"


def report_to_json(report: Report) -> str:
    return json.dumps(encode(report), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# --- sweeps --------------------------------------------------------------


def run_topk_grid(
    samples: Sequence[QaSample],
    backend,
    tools: ToolBinding,
    base_config: RolloutConfig,
    text_ks: Sequence[int] = (1, 3, 5),
    image_ks: Sequence[int] = (1, 2, 3),
    workers: int = 1,
) -> dict[tuple[int, int], Report | dict]:
    """Evaluate every (k_text, k_image) cell on identical tasks.

    A failing cell records {"error": msg} and the grid continues.
    """
    grid: dict[tuple[int, int], Report | dict] = {}
    for k_text in text_ks:
        for k_image in image_ks:
            try:  # a k below 1 fails in RolloutConfig, and only its cell
                config = replace(base_config, k_text=k_text, k_image=k_image)
                trajectories = batch_rollout(samples, backend, tools, config, workers=workers)
                records, stats = build_eval_records(trajectories, samples)
                grid[(k_text, k_image)] = aggregate(
                    records, config={"k_text": k_text, "k_image": k_image}, stats=stats
                )
            except Exception as exc:
                logger.warning("grid cell (%d, %d) failed: %s", k_text, k_image, exc)
                grid[(k_text, k_image)] = {"error": str(exc)}
    return grid


def render_grid_text(grid: dict[tuple[int, int], Report | dict]) -> str:
    text_ks = sorted({kt for kt, _ in grid})
    image_ks = sorted({ki for _, ki in grid})
    lines = ["overall accuracy (%) by retrieval depth", ""]
    lines.append("text_k \\ image_k" + "".join(f"{ki:>9}" for ki in image_ks))
    for kt in text_ks:
        cells = []
        for ki in image_ks:
            cell = grid.get((kt, ki))
            if isinstance(cell, Report):
                cells.append(f"{cell.overall_accuracy:>9.1f}")
            else:
                cells.append(f"{'ERR':>9}")
        lines.append(f"{kt:<16}" + "".join(cells))
    return "\n".join(lines) + "\n"


def run_kb_scale(
    samples: Sequence[QaSample],
    corpus: Corpus,
    text_provider,
    image_provider,
    backend,
    base_config: RolloutConfig,
    sizes: Sequence[int],
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """Evaluate on growing corpus subsamples with gold articles pinned.

    Indexes are rebuilt per size. Returns [{"size", "report"}] ascending.
    """
    pinned = sorted({s.gold_article_id for s in samples if s.gold_article_id})
    series = []
    for size in sorted(sizes):
        sub = subsample_corpus(corpus, size, seed=seed, must_include=pinned)
        tools = ToolBinding(
            text_retriever=TextRetriever(build_text_index(sub, text_provider), text_provider, sub),
            image_retriever=ImageRetriever(build_image_index(sub, image_provider), image_provider, sub),
        )
        trajectories = batch_rollout(samples, backend, tools, base_config, workers=workers)
        records, stats = build_eval_records(trajectories, samples)
        report = aggregate(records, config={"kb_size": size}, stats=stats)
        series.append({"size": size, "report": report})
    return series
