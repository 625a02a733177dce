"""The workloads: inputs, program set-up, one timed round, checks.

Every workload is a closed loop with one client: tasks run one after the
other in this process, each starting when the previous one returns, as in
a batch job with ``workers=1``. A *round* is one pass over every task plus
the file work the matching CLI flow does after it. All program calls go
through module attributes (``runtime.rollout``, ``kb.load_corpus``...) so
the traced run can rebind them.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from time import perf_counter

import gen
from spans import Traced, Tracer

from dbagent import evaluation, factory, gateway, kb, retrieval, runtime, sft
from dbagent.prompts import load_prompt

DIMENSION = 64  # the CLI's default embedding width

# Output-derived counters; a workload reports 0 for those of the other flow.
COUNTERS = (
    "runtime.generations",
    "runtime.turns",
    "runtime.reprompts",
    "runtime.tool_errors",
    "runtime.terminated_answer",
    "runtime.terminated_budget",
    "runtime.terminated_protocol",
    "runtime.useful_generation_ratio",
    "runtime.trajectory_bytes",
    "protocol.violations",
    "factory.kept_ratio",
    "factory.discarded",
    "factory.outcome_bytes",
    "sft.bytes",
    "gateway.rules",
)


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _embedders():
    return (
        retrieval.DeterministicEmbedder(dimension=DIMENSION, seed=0, modality="text"),
        retrieval.DeterministicEmbedder(dimension=DIMENSION, seed=0, modality="image"),
    )


class Workload:
    """Shared plumbing; subclasses fill in set-up, rounds and checks."""

    def __init__(self, out: Path):
        self.corpus_path = out / "corpus.jsonl"
        self.qa_path = out / "qa.jsonl"
        self.inputs = [self.corpus_path, self.qa_path]
        self.outputs: list[Path] = []
        self.ctx: dict = {}
        self.traced: dict = {}
        self.notes: list[str] = []

    def _tools(self, corpus, text_index, image_index, text_provider, image_provider):
        return runtime.ToolBinding(
            text_retriever=runtime.TextRetriever(text_index, text_provider, corpus),
            image_retriever=runtime.ImageRetriever(image_index, image_provider, corpus),
        )

    def trace_objects(self, tracer: Tracer) -> None:
        """Wrap the injected backend and retrievers for the traced rounds."""
        tools, backend = self.ctx["tools"], self.ctx["backend"]
        layer = "gateway" if isinstance(backend, gateway.ScriptedBackend) else "standin"
        self.traced = {
            "backend": Traced(tracer, f"{layer}.complete", backend, "complete"),
            "tools": runtime.ToolBinding(
                text_retriever=Traced(tracer, "runtime.text_retriever", tools.text_retriever, "search"),
                image_retriever=Traced(tracer, "runtime.image_retriever", tools.image_retriever, "search"),
            ),
        }

    def injected(self, tracer: Tracer | None):
        src = self.traced if tracer is not None else self.ctx
        return src["backend"], src["tools"]

    def task_error(self, task_id: str, exc: Exception) -> None:
        """Record a task that raised; the round's check counts it missing."""
        if len(self.notes) < 5:
            self.notes.append(f"{task_id}: raised {exc!r}")

    def sections(self) -> int:
        return self.ctx["tools"].text_retriever.corpus.n_sections

    def index_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.outputs if p.name.endswith("_index.json"))

    def output_hashes(self) -> dict[str, str]:
        return {p.name: sha256_of(p) for p in self.outputs}

    def counters(self) -> dict[str, float]:
        return dict.fromkeys(COUNTERS, 0.0)

    def setup_checks(self) -> tuple[int, int]:
        """(attempted, failed) checks on the set-up's results."""
        return 0, 0


# --- rollouts ------------------------------------------------------------


class RolloutWorkload(Workload):
    """``agent batch`` then ``eval report`` with a stand-in agent model."""

    def __init__(self, out: Path, seed: int, *, n_articles: int, n_tasks: int, mix: dict,
                 think_words: int, k_text: int, index_dir: bool):
        super().__init__(out)
        rng = random.Random(seed)
        articles = gen.make_articles(n_articles, rng)
        self.config = runtime.RolloutConfig(k_text=k_text)
        self.tasks = gen.plan_rollouts("r", n_tasks, mix, articles, rng, think_words, self.config.budget)
        gen.write_corpus(articles, self.corpus_path)
        gen.write_qa(self.tasks, self.qa_path)
        self.agent = gen.StandInAgent(self.tasks)
        self.index_dir = out / "index" if index_dir else None
        self.traj_path = out / "trajectories.jsonl"
        self.report_path = out / "report.txt"
        self.outputs = [self.traj_path, self.report_path]
        if self.index_dir is not None:
            self.index_dir.mkdir()
            self.outputs += [self.index_dir / "text_index.json", self.index_dir / "image_index.json"]
        self.expect_em = 100.0 * sum(t.expect_answer == t.gold for t in self.tasks) / n_tasks

    def setup(self) -> None:
        """``index build`` (when the workload keeps an index directory) and
        the set-up of ``agent batch``."""
        self.ctx = {}
        corpus = kb.load_corpus(self.corpus_path)
        text_provider, image_provider = _embedders()
        text_index = retrieval.build_text_index(corpus, text_provider)
        image_index = retrieval.build_image_index(corpus, image_provider)
        if self.index_dir is not None:
            built = (text_index, image_index)
            retrieval.save_index(text_index, self.index_dir / "text_index.json")
            retrieval.save_index(image_index, self.index_dir / "image_index.json")
            del text_index, image_index
            text_index = retrieval.load_index(self.index_dir / "text_index.json", expect_modality="text")
            image_index = retrieval.load_index(self.index_dir / "image_index.json", expect_modality="image")
            self.ctx["built"] = built
        self.ctx["samples"] = factory.load_qa_dataset(self.qa_path)
        self.ctx["tools"] = self._tools(corpus, text_index, image_index, text_provider, image_provider)
        self.ctx["backend"] = self.agent

    def setup_checks(self) -> tuple[int, int]:
        """The loaded index must rank exactly as the built one."""
        if "built" not in self.ctx:
            return 0, 0
        built_text, built_image = self.ctx.pop("built")
        tools = self.ctx["tools"]
        text_provider = tools.text_retriever.provider
        image_provider = tools.image_retriever.provider
        failed = 0
        probes = self.tasks[:32]
        for t in probes:
            a = retrieval.text_search(built_text, text_provider, t.passage, k=self.config.k_text)
            b = retrieval.text_search(tools.text_retriever.index, text_provider, t.passage, k=self.config.k_text)
            c = retrieval.image_search(built_image, image_provider, t.image_ref, k=3)
            d = retrieval.image_search(tools.image_retriever.index, image_provider, t.image_ref, k=3)
            failed += (a != b) + (c != d)
        if failed:
            self.notes.append(f"loaded index disagrees with built index on {failed} probe(s)")
        return 2 * len(probes), failed

    def run_round(self, latencies: list[float], tracer: Tracer | None) -> float:
        self.last = None  # the previous round's outputs must not inflate peak memory
        backend, tools = self.injected(tracer)
        config = self.config
        trajectories = []
        start = perf_counter()
        for s in self.ctx["samples"]:
            if tracer is not None:
                tracer.request = s.sample_id
            t0 = perf_counter()
            try:
                trajectories.append(
                    runtime.rollout(s.image_ref, s.question, backend, tools, config, task_id=s.sample_id)
                )
            except Exception as exc:  # a failing task is counted, not fatal
                self.task_error(s.sample_id, exc)
                continue
            latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.request = ""
        runtime.write_trajectory_file(trajectories, self.traj_path)
        read_back = runtime.read_trajectory_file(self.traj_path)
        records, stats = evaluation.build_eval_records(read_back, self.ctx["samples"])
        report = evaluation.aggregate(records, config={"metric": "em"}, stats=stats)
        self.report_path.write_text(evaluation.render_report_text(report), encoding="utf-8")
        wall = perf_counter() - start
        self.last = (read_back, records, report)
        return wall

    def check_round(self) -> tuple[int, int]:
        """Each task's route, termination and answer against its plan, plus
        the report's accuracy against the planned share of right answers."""
        read_back, _, report = self.last
        failed = 0
        by_id = {t.sample_id: t for t in self.tasks}
        for traj in read_back:
            plan = by_id.get(traj.task_id)
            ok = (
                plan is not None
                and tuple(k.value for k in traj.action_kinds) == plan.expect_route
                and traj.terminated_by == plan.expect_termination
                and traj.final_answer == plan.expect_answer
            )
            if not ok:
                failed += 1
                if len(self.notes) < 5:
                    self.notes.append(f"{traj.task_id}: route/termination/answer differ from plan")
        failed += len(self.tasks) - len(read_back)
        if abs(report.overall_accuracy - self.expect_em) > 1e-9:
            failed += 1
            self.notes.append(f"report accuracy {report.overall_accuracy} != planned {self.expect_em}")
        return len(self.tasks) + 1, failed

    def quality(self) -> tuple[float, float]:
        _, records, report = self.last
        hits = [r.retrieval_hit for r in records if r.retrieval_hit is not None]
        return report.overall_accuracy, 100.0 * sum(hits) / len(hits) if hits else 0.0

    def counters(self) -> dict[str, float]:
        read_back = self.last[0]
        generations = sum(len(t.turns) + len(t.protocol_events) for t in read_back)
        turns = sum(len(t.turns) for t in read_back)
        ended = [t.terminated_by for t in read_back]
        protocol_failures = ended.count(runtime.TERMINATED_PROTOCOL)
        return super().counters() | {
            "runtime.generations": generations,
            "runtime.turns": turns,
            "runtime.reprompts": sum(len(t.protocol_events) for t in read_back) - protocol_failures,
            "runtime.tool_errors": sum(
                "[tool error]" in b.rendered for t in read_back for b in t.observations
            ),
            "runtime.terminated_answer": ended.count(runtime.TERMINATED_ANSWER),
            "runtime.terminated_budget": ended.count(runtime.TERMINATED_BUDGET),
            "runtime.terminated_protocol": protocol_failures,
            "runtime.useful_generation_ratio": turns / generations if generations else 0.0,
            "protocol.violations": sum(
                len(e["violations"]) for t in read_back for e in t.protocol_events
            ),
            "runtime.trajectory_bytes": self.traj_path.stat().st_size,
        }


# --- factory -------------------------------------------------------------


class FactoryWorkload(Workload):
    """``factory build`` then ``dataset emit``, with a stand-in stage model
    or, for ``replay``, the program's scripted backend and a rule file."""

    def __init__(self, out: Path, seed: int, *, n_articles: int, n_samples: int, mix: dict,
                 think_words: int, retry_share: float, replay: bool):
        super().__init__(out)
        rng = random.Random(seed)
        articles = gen.make_articles(n_articles, rng)
        self.tasks = gen.plan_factory("f", n_samples, mix, articles, rng, think_words, retry_share)
        gen.write_corpus(articles, self.corpus_path)
        gen.write_qa(self.tasks, self.qa_path)
        self.script_path = out / "script.jsonl" if replay else None
        self.stage_model = None
        if replay:
            self.n_rules = gen.write_replay_script(self.tasks, self.script_path)
            self.inputs.append(self.script_path)
        else:
            self.n_rules = 0
            self.stage_model = gen.StandInStageModel(self.tasks, load_prompt)
        self.cfg = factory.FactoryConfig(judge_mode="normalized_exact")
        self.outcome_path = out / "outcomes.jsonl"
        self.sft_path = out / "sft.jsonl"
        self.manifest_path = out / "sft.jsonl.manifest.json"
        self.outputs = [self.outcome_path, self.sft_path, self.manifest_path]

    def setup(self) -> None:
        """The set-up of ``factory build`` (in-memory index, as without
        ``--index-dir``) and of ``dataset emit``."""
        self.ctx = {}
        corpus = kb.load_corpus(self.corpus_path)
        text_provider, image_provider = _embedders()
        text_index = retrieval.build_text_index(corpus, text_provider)
        image_index = retrieval.build_image_index(corpus, image_provider)
        self.ctx["samples"] = factory.load_qa_dataset(self.qa_path)
        self.ctx["tools"] = self._tools(corpus, text_index, image_index, text_provider, image_provider)
        self.ctx["backend"] = (
            gateway.load_script(self.script_path) if self.script_path is not None else self.stage_model
        )
        self.ctx["system_prompt"] = load_prompt("agent_system")

    def run_round(self, latencies: list[float], tracer: Tracer | None) -> float:
        self.last = None  # the previous round's outputs must not inflate peak memory
        backend, tools = self.injected(tracer)
        cfg = self.cfg
        outcomes = []
        start = perf_counter()
        for s in self.ctx["samples"]:
            if tracer is not None:
                tracer.request = s.sample_id
            t0 = perf_counter()
            try:
                outcomes.append(factory.build_outcome(s, backend, tools, cfg))
            except Exception as exc:  # a failing sample is counted, not fatal
                self.task_error(s.sample_id, exc)
                continue
            latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.request = ""
        factory.write_outcome_file(outcomes, self.outcome_path)
        read_back = factory.read_outcome_file(self.outcome_path)
        usable = [o for o in read_back if o.assembled is not None]
        system_prompt = self.ctx["system_prompt"]
        linearized = [sft.linearize(o.assembled, system_prompt) for o in usable]
        # A relative source path keeps the manifest identical across checkouts.
        manifest = sft.emit_dataset(linearized, self.sft_path, source_files=[self.outcome_path])
        scan = sft.scan_sft_file(self.sft_path)
        wall = perf_counter() - start
        self.last = (read_back, manifest, scan)
        return wall

    def check_round(self) -> tuple[int, int]:
        """Each sample's label, answer and discard reason against its plan;
        the SFT file must supervise no evidence and keep every sample."""
        read_back, manifest, scan = self.last
        by_id = {t.sample_id: t for t in self.tasks}
        failed = 0
        for o in read_back:
            plan = by_id.get(o.sample_id)
            answer = o.assembled.final_answer if o.assembled is not None else None
            ok = (
                plan is not None
                and o.trajectory_type == plan.expect_route
                and answer == plan.expect_answer
                and o.discard_reason == plan.expect_discard
            )
            if not ok:
                failed += 1
                if len(self.notes) < 5:
                    self.notes.append(f"{o.sample_id}: {o.trajectory_type} ({o.discard_reason}) differs from plan")
        failed += len(self.tasks) - len(read_back)
        kept = sum(o.assembled is not None for o in read_back)
        sound = (
            scan["supervised_evidence_chars"] == 0
            and scan["unsupervised_decision_tags"] == 0
            and scan["structure_errors"] == 0
            and scan["samples"] == kept == manifest.total
        )
        if not sound:
            failed += 1
            self.notes.append(f"SFT scan {scan} (kept {kept}, manifest {manifest.total})")
        return len(self.tasks) + 1, failed

    def quality(self) -> tuple[float, float]:
        read_back = self.last[0]
        answers = {t.sample_id: t.gold for t in self.tasks}
        gold_article = {t.sample_id: t.article.article_id for t in self.tasks}
        correct = sum(
            bool(evaluation.score_answer(o.assembled.final_answer, [answers[o.sample_id]]))
            for o in read_back
            if o.assembled is not None
        )
        hits = [
            evaluation.hit_at_any_turn(o.assembled, gold_article[o.sample_id])
            for o in read_back
            if o.assembled is not None
        ]
        hits = [h for h in hits if h is not None]
        return 100.0 * correct / len(self.tasks), 100.0 * sum(hits) / len(hits) if hits else 0.0

    def counters(self) -> dict[str, float]:
        read_back = self.last[0]
        kept = sum(o.assembled is not None for o in read_back)
        return super().counters() | {
            "factory.kept_ratio": kept / len(self.tasks),
            "factory.discarded": sum(o.trajectory_type == factory.TYPE_DISCARDED for o in read_back),
            "factory.outcome_bytes": self.outcome_path.stat().st_size,
            "sft.bytes": self.sft_path.stat().st_size,
            "gateway.rules": self.n_rules,
        }


# --- registry ------------------------------------------------------------

# Sizes keep the slowest workload's run (three set-ups plus 30 s of rounds)
# near 50 s on two cores, so every run the benchmark needs fits in its time
# budget. ``factory_sft`` is not in BENCHMARK.json: four workloads leave
# room for only about 20 s of rounds per run, too few for steady figures on
# a host whose CPU speed drifts; it stays runnable by name.
WORKLOADS = {
    "rollout_large": lambda out, seed: RolloutWorkload(
        out, seed, n_articles=4000, n_tasks=300, mix=gen.ROLLOUT_LARGE_MIX,
        think_words=20, k_text=3, index_dir=True,
    ),
    "rollout_small": lambda out, seed: RolloutWorkload(
        out, seed, n_articles=400, n_tasks=400, mix=gen.ROLLOUT_SMALL_MIX,
        think_words=200, k_text=5, index_dir=False,
    ),
    "factory_sft": lambda out, seed: FactoryWorkload(
        out, seed, n_articles=2000, n_samples=2000, mix=gen.FACTORY_MIX,
        think_words=120, retry_share=0.10, replay=False,
    ),
    "factory_replay": lambda out, seed: FactoryWorkload(
        out, seed, n_articles=400, n_samples=300, mix=gen.REPLAY_MIX,
        think_words=120, retry_share=0.0, replay=True,
    ),
}
