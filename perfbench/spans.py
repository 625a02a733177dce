"""In-memory spans for the traced run, recorded from outside the program.

The traced run rebinds layer functions in the modules that call them (for
example ``runtime.parse_turn`` and ``runtime.text_search``) and wraps the
backend and retriever objects handed to the program. The untraced run
patches nothing. Spans hold name, start, end, parent and request id (the
task id); they stay in memory and are written once, at the end.
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from dbagent import evaluation, factory, gateway, kb, protocol, retrieval, runtime, sft

# (module, attribute) pairs rebound while tracing. Each module is the one
# that calls the function, so the wrapper sits on that call edge.
PATCHES = {
    kb: ("load_corpus",),
    retrieval: ("embed_batch", "build_text_index", "build_image_index", "save_index", "load_index"),
    protocol: ("parse_turn",),  # the re-parse inside validate_in_context
    runtime: (
        "rollout",
        "parse_turn",
        "validate_in_context",
        "render_evidence",
        "render_tool_error",
        "text_search",
        "image_search",
        "write_trajectory_file",
        "read_trajectory_file",
    ),
    gateway: ("load_script",),
    factory: (
        "load_qa_dataset",
        "build_outcome",
        "validate_in_context",
        "render_evidence",
        "write_outcome_file",
        "read_outcome_file",
    ),
    sft: ("validate_in_context", "linearize", "emit_dataset", "scan_sft_file"),
    evaluation: ("build_eval_records", "aggregate", "render_report_text"),
}

# Span name for a function, named after the layer that owns it.
OWNER = {
    "load_corpus": "kb",
    "embed_batch": "retrieval",
    "build_text_index": "retrieval",
    "build_image_index": "retrieval",
    "save_index": "retrieval",
    "load_index": "retrieval",
    "text_search": "retrieval",
    "image_search": "retrieval",
    "parse_turn": "protocol",
    "validate_in_context": "protocol",
    "render_evidence": "protocol",
    "render_tool_error": "protocol",
    "load_script": "gateway",
    "load_qa_dataset": "factory",
}

LAYERS = ("kb", "retrieval", "protocol", "runtime", "gateway", "factory", "sft", "evaluation", "standin")


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request, round]
        self.stack: list[int] = []
        self.request = ""
        self.round = -1  # -1: set-up

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.request, self.round])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = perf_counter()

        return traced

    @contextmanager
    def patched(self):
        saved = []
        for module, names in PATCHES.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in names:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(f"{OWNER.get(attr, layer)}.{attr}", fn))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, request, rnd) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "request": request, "round": rnd}
                    )
                    + "\n"
                )


class Traced:
    """Proxy for an injected object: one span per call of ``method``."""

    def __init__(self, tracer: Tracer, name: str, target, method: str):
        setattr(self, method, tracer.wrap(name, getattr(target, method)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class SpanStats:
    """Durations, self times and counts of the recorded spans.

    Set-up spans (round -1) give one duration per set-up; round spans are
    summed per round so each per-layer figure is "per pass over every task".
    """

    def __init__(self, tracer: Tracer, setup_reps: int):
        self.setup_reps = setup_reps
        spans = tracer.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.setup_durations: dict[str, list[float]] = {}
        self.round_durations: dict[str, list[float]] = {}
        self.by_round: dict[tuple[str, int], list] = {}  # -> [busy, self, calls]
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        for sid, (name, start, end, _, _, rnd) in enumerate(spans):
            dur = end - start
            if rnd < 0:
                self.setup_durations.setdefault(name, []).append(dur)
                continue
            self.round_durations.setdefault(name, []).append(dur)
            acc = self.by_round.setdefault((name, rnd), [0.0, 0.0, 0])
            acc[0] += dur
            acc[1] += dur - child[sid]
            acc[2] += 1
            self.layer_self[name.split(".", 1)[0]] += dur - child[sid]
        self.rounds = sorted({rnd for _, rnd in self.by_round})

    def per_round(self, names: tuple[str, ...], field: int) -> float:
        """Median over traced rounds of the summed busy time (field 0), self
        time (1) or call count (2) of the spans with these names."""
        if not self.rounds:
            return 0.0
        return statistics.median(
            sum(self.by_round.get((n, r), (0.0, 0.0, 0))[field] for n in names) for r in self.rounds
        )

    def setup(self, name: str) -> float:
        """Time in calls of this name per set-up; 0.0 when there are none."""
        return sum(self.setup_durations.get(name, ())) / self.setup_reps

    def shares(self) -> dict[str, float]:
        """Each layer's self time in the traced rounds, as a percentage."""
        total = sum(self.layer_self.values())
        return {layer: 100.0 * v / total if total else 0.0 for layer, v in self.layer_self.items()}


def layer_metrics(st: SpanStats, sections: int, index_bytes: int) -> dict[str, float]:
    """Every span-derived per-layer metric; layers without spans read 0."""
    search = ("retrieval.text_search", "retrieval.image_search")
    retrievers = ("runtime.text_retriever", "runtime.image_retriever")
    completes = ("gateway.complete", "standin.complete")
    outcomes = st.per_round(("factory.build_outcome",), 2)
    protocol_render = ("protocol.render_evidence", "protocol.render_tool_error")
    search_durations = [d for n in search for d in st.round_durations.get(n, [])]
    complete_durations = st.round_durations.get("gateway.complete", [])
    build_text_s = st.setup("retrieval.build_text_index")
    metrics = {
        "kb.load_s": st.setup("kb.load_corpus"),
        "kb.sections": sections,
        "retrieval.build_s": build_text_s + st.setup("retrieval.build_image_index"),
        "retrieval.build_sections_per_s": sections / build_text_s if build_text_s else 0.0,
        "retrieval.embed_busy_s": st.setup("retrieval.embed_batch"),
        "retrieval.save_s": st.setup("retrieval.save_index"),
        "retrieval.load_s": st.setup("retrieval.load_index"),
        "retrieval.index_bytes": index_bytes,
        "retrieval.search_calls": st.per_round(search, 2),
        "retrieval.search_busy_s": st.per_round(search, 0),
        "retrieval.search_p50_us": 1e6 * percentile(search_durations, 0.50),
        "retrieval.search_p95_us": 1e6 * percentile(search_durations, 0.95),
        "retrieval.rank_self_s": st.per_round(search, 1),
        "protocol.parse_calls": st.per_round(("protocol.parse_turn",), 2),
        "protocol.parse_busy_s": st.per_round(("protocol.parse_turn",), 0),
        "protocol.validate_calls": st.per_round(("protocol.validate_in_context",), 2),
        "protocol.validate_busy_s": st.per_round(("protocol.validate_in_context",), 0),
        "protocol.render_calls": st.per_round(protocol_render, 2),
        "protocol.render_busy_s": st.per_round(protocol_render, 0),
        "gateway.load_script_s": st.setup("gateway.load_script"),
        "gateway.complete_calls": st.per_round(("gateway.complete",), 2),
        "gateway.complete_busy_s": st.per_round(("gateway.complete",), 0),
        "gateway.complete_p50_us": 1e6 * percentile(complete_durations, 0.50),
        "gateway.complete_p95_us": 1e6 * percentile(complete_durations, 0.95),
        "standin.complete_busy_s": st.per_round(("standin.complete",), 0),
        "runtime.rollout_self_s": st.per_round(("runtime.rollout",), 1),
        "runtime.retriever_self_s": st.per_round(retrievers, 1),
        "runtime.write_s": st.per_round(("runtime.write_trajectory_file",), 0),
        "runtime.read_s": st.per_round(("runtime.read_trajectory_file",), 0),
        "factory.build_outcome_self_s": st.per_round(("factory.build_outcome",), 1),
        "factory.backend_calls_per_sample": st.per_round(completes, 2) / outcomes if outcomes else 0.0,
        "factory.retrieval_calls": st.per_round(retrievers, 2) if outcomes else 0.0,
        "factory.write_s": st.per_round(("factory.write_outcome_file",), 0),
        "factory.read_s": st.per_round(("factory.read_outcome_file",), 0),
        "sft.linearize_calls": st.per_round(("sft.linearize",), 2),
        "sft.linearize_busy_s": st.per_round(("sft.linearize",), 0),
        "sft.emit_s": st.per_round(("sft.emit_dataset",), 0),
        "sft.scan_s": st.per_round(("sft.scan_sft_file",), 0),
        "evaluation.build_records_s": st.per_round(("evaluation.build_eval_records",), 0),
        "evaluation.aggregate_s": st.per_round(("evaluation.aggregate",), 0),
        "evaluation.render_s": st.per_round(("evaluation.render_report_text",), 0),
    }
    for layer, share in st.shares().items():
        metrics[f"{layer}.share_pct"] = share
    return metrics
