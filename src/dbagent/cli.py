"""Command-line entry points.

Subcommands: ``index build``, ``agent run``, ``agent batch``,
``factory build``, ``dataset emit``, ``eval report``, ``eval topk-grid``,
``eval kb-scale``, ``validate``.

Exit codes: 0 success, 1 usage error, 2 data/validation error or an input
file that cannot be read, 3 backend unavailable.

Settings resolve with precedence flags > environment > config file >
defaults. Environment variables: DBAGENT_CHAT_URL, DBAGENT_EMBED_URL,
DBAGENT_API_KEY. The config file is JSON with the same keys the flags use,
each holding a value of its setting's type; it may hold any setting, while
each subcommand takes only the setting flags it reads.
``--print-config`` dumps the effective merged settings (API key masked);
the key itself is never logged or echoed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import BackendError, DataError
from .evaluation import (
    aggregate,
    build_eval_records,
    render_grid_text,
    render_report_csv,
    render_report_text,
    report_to_json,
    run_kb_scale,
    run_topk_grid,
)
from .factory import (
    FactoryConfig,
    iter_outcome_file,
    load_qa_dataset,
    read_outcome_file,
    run_factory,
    sample_balanced,
    write_outcome_file,
)
from .gateway import HttpChatBackend, load_script
from .kb import load_corpus
from .prompts import load_prompt
from .retrieval import (
    DeterministicEmbedder,
    RemoteEmbedder,
    build_image_index,
    build_text_index,
    index_mismatch,
    load_index,
    save_index,
)
from .runtime import (
    ImageRetriever,
    RolloutConfig,
    TextRetriever,
    ToolBinding,
    batch_rollout,
    read_trajectory_file,
    rollout,
    write_trajectory_file,
)
from .sft import DatasetManifest, emit_dataset, linearize, scan_sft_file
from .wire import atomic_write, decode, encode

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3

ENV_CHAT_URL = "DBAGENT_CHAT_URL"
ENV_EMBED_URL = "DBAGENT_EMBED_URL"
ENV_API_KEY = "DBAGENT_API_KEY"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class Settings:
    chat_url: str | None = None
    embed_url: str | None = None
    api_key: str | None = None
    script: str | None = None
    dimension: int = 64
    seed: int = 0
    budget: int = 4
    k_text: int = 3
    k_image: int = 1
    strict: bool = True
    workers: int = 1

    def masked(self) -> dict:
        out = self.__dict__.copy()
        if out.get("api_key"):
            out["api_key"] = "***"
        return out


def resolve_settings(args: argparse.Namespace) -> Settings:
    """defaults < config file < environment < explicit flags."""
    names = [f.name for f in fields(Settings)]
    values: dict = {}

    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise DataError(f"config file {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise DataError(f"config file {config_path}: top level must be an object")
        unknown = set(loaded) - set(names)
        if unknown:
            raise DataError(f"config file {config_path}: unknown keys {sorted(unknown)}")
        values.update(loaded)

    if os.environ.get(ENV_CHAT_URL):
        values["chat_url"] = os.environ[ENV_CHAT_URL]
    if os.environ.get(ENV_EMBED_URL):
        values["embed_url"] = os.environ[ENV_EMBED_URL]
    if os.environ.get(ENV_API_KEY):
        values["api_key"] = os.environ[ENV_API_KEY]

    for key in names:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag

    try:  # flags and environment are typed already, so a mismatch is the config file's
        settings = decode(Settings, values)
    except DataError as exc:
        raise DataError(f"config file {config_path}: {exc}") from None
    if getattr(args, "print_config", False):
        print(json.dumps(settings.masked(), sort_keys=True, indent=2))
    return settings


def derive_seed(master: int, stream: str) -> int:
    """Named substream of one master seed (stable across platforms)."""
    digest = hashlib.sha256(f"{master}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _rollout_config(settings: Settings) -> RolloutConfig:
    return RolloutConfig(
        budget=settings.budget,
        k_text=settings.k_text,
        k_image=settings.k_image,
        strict_protocol=settings.strict,
    )


def _embedders(settings: Settings) -> tuple[object, object]:
    if settings.embed_url:
        return (
            RemoteEmbedder(settings.embed_url, "text", settings.dimension, api_key=settings.api_key),
            RemoteEmbedder(settings.embed_url, "image", settings.dimension, api_key=settings.api_key),
        )
    return (
        DeterministicEmbedder(dimension=settings.dimension, seed=settings.seed, modality="text"),
        DeterministicEmbedder(dimension=settings.dimension, seed=settings.seed, modality="image"),
    )


def _backend(settings: Settings, parser: _Parser):
    if settings.script:
        return load_script(settings.script)
    if settings.chat_url:
        return HttpChatBackend(settings.chat_url, api_key=settings.api_key)
    parser.error("no backend: pass --script or --chat-url (or set " + ENV_CHAT_URL + ")")


def _load_indexes(corpus, providers: tuple, dimension: int, index_dir: str) -> tuple:
    """The indexes ``index build`` wrote to ``index_dir``, checked to be what
    it would write now: the embedding dimension, the provider, and the row
    keys and texts of ``corpus``."""
    indexes = []
    for provider in providers:
        path = Path(index_dir) / f"{provider.modality}_index.json"
        index = load_index(path, expect_dimension=dimension, expect_modality=provider.modality)
        problem = index_mismatch(index, corpus, provider)
        if problem:
            raise DataError(f"{path}: {problem}")
        indexes.append(index)
    return tuple(indexes)


def _tools(corpus, settings: Settings, index_dir: str | None) -> ToolBinding:
    text_provider, image_provider = _embedders(settings)
    if index_dir:
        text_index, image_index = _load_indexes(corpus, (text_provider, image_provider), settings.dimension, index_dir)
    else:
        text_index = build_text_index(corpus, text_provider)
        image_index = build_image_index(corpus, image_provider)
    return ToolBinding(
        text_retriever=TextRetriever(text_index, text_provider, corpus),
        image_retriever=ImageRetriever(image_index, image_provider, corpus),
    )


# --- subcommands ---------------------------------------------------------


def cmd_index_build(args, parser: _Parser) -> int:
    settings = resolve_settings(args)
    text_provider, image_provider = _embedders(settings)
    corpus = load_corpus(args.corpus)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text_index = build_text_index(corpus, text_provider)
    save_index(text_index, out_dir / "text_index.json")
    image_index = build_image_index(corpus, image_provider)
    save_index(image_index, out_dir / "image_index.json")
    print(
        f"indexed {len(text_index)} sections and {len(image_index)} images "
        f"from {corpus.n_articles} articles into {out_dir}"
    )
    return EXIT_OK


def cmd_agent_run(args, parser: _Parser) -> int:
    settings = resolve_settings(args)
    config = _rollout_config(settings)
    corpus = load_corpus(args.corpus)
    tools = _tools(corpus, settings, args.index_dir)
    backend = _backend(settings, parser)
    traj = rollout(
        args.image or "",
        args.question,
        backend,
        tools,
        config,
        task_id=args.task_id,
    )
    obs = 0
    for turn in traj.turns:
        print(turn.raw)
        if turn.action.value != "answer" and obs < len(traj.observations):
            print(traj.observations[obs].rendered)
            obs += 1
    print(f"terminated_by: {traj.terminated_by}")
    print(f"final_answer: {traj.final_answer if traj.final_answer is not None else '(none)'}")
    return EXIT_OK


def cmd_agent_batch(args, parser: _Parser) -> int:
    settings = resolve_settings(args)
    config = _rollout_config(settings)
    corpus = load_corpus(args.corpus)
    samples = load_qa_dataset(args.dataset)
    tools = _tools(corpus, settings, args.index_dir)
    backend = _backend(settings, parser)
    trajectories = batch_rollout(
        samples, backend, tools, config, workers=settings.workers
    )
    write_trajectory_file(trajectories, args.out)
    print(f"wrote {len(trajectories)} trajectories to {args.out}")
    return EXIT_OK


def cmd_factory_build(args, parser: _Parser) -> int:
    settings = resolve_settings(args)
    cfg = FactoryConfig(
        judge_mode=args.judge_mode,
        keep_failed=args.keep_failed,
        rollout_config=_rollout_config(settings),
    )
    corpus = load_corpus(args.corpus)
    samples = load_qa_dataset(args.dataset)
    tools = _tools(corpus, settings, args.index_dir)
    backend = _backend(settings, parser)
    outcomes = run_factory(samples, backend, tools, cfg, workers=settings.workers)
    write_outcome_file(outcomes, args.out)
    counts: dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.trajectory_type] = counts.get(outcome.trajectory_type, 0) + 1
    print(f"wrote {len(outcomes)} outcomes to {args.out}")
    for label in sorted(counts):
        print(f"  {label}: {counts[label]}")
    return EXIT_OK


def cmd_dataset_emit(args, parser: _Parser) -> int:
    settings = resolve_settings(args)
    # Streamed: without balancing, one outcome is held at a time, and a bad
    # line raises inside the emitter's atomic write, after the last good one.
    usable = (o for o in iter_outcome_file(args.outcomes) if o.assembled is not None)
    if args.n_per_tier:
        usable = sample_balanced(list(usable), args.n_per_tier, derive_seed(settings.seed, "balance"))
    system_prompt = (
        Path(args.system_prompt_file).read_text(encoding="utf-8")
        if args.system_prompt_file
        else load_prompt("agent_system")
    )
    # A generator: each sample is linearized as the emitter writes it.
    samples = (linearize(o.assembled, system_prompt) for o in usable)
    manifest = emit_dataset(
        samples, args.out, max_chars=args.max_chars, source_files=[args.outcomes]
    )
    print(
        f"emitted {manifest.total} samples to {args.out} "
        f"(dropped over cap: {manifest.dropped_over_cap})"
    )
    return EXIT_OK


def _write_report(path: str, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def cmd_eval_report(args, parser: _Parser) -> int:
    settings = resolve_settings(args)
    trajectories = read_trajectory_file(args.trajectories)
    samples = load_qa_dataset(args.dataset)
    judge_backend = None
    if args.metric == "judge":
        judge_backend = _backend(settings, parser)
    records, stats = build_eval_records(
        trajectories, samples, metric=args.metric, raw_exact=args.raw_exact,
        judge_backend=judge_backend,
    )
    if not records:
        raise DataError("no scorable records")
    report = aggregate(records, config={"metric": args.metric}, stats=stats)
    text = render_report_text(report)
    print(text, end="")
    if args.out_prefix:
        _write_report(args.out_prefix + ".txt", text)
        _write_report(args.out_prefix + ".csv", render_report_csv(report))
        _write_report(args.out_prefix + ".json", report_to_json(report))
    return EXIT_OK


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise DataError(f"bad {what} list {text!r}: {exc}") from exc


def cmd_eval_topk_grid(args, parser: _Parser) -> int:
    settings = resolve_settings(args)
    config = _rollout_config(settings)
    corpus = load_corpus(args.corpus)
    samples = load_qa_dataset(args.dataset)
    tools = _tools(corpus, settings, args.index_dir)
    backend = _backend(settings, parser)
    grid = run_topk_grid(
        samples,
        backend,
        tools,
        config,
        text_ks=_parse_int_list(args.text_ks, "text_k"),
        image_ks=_parse_int_list(args.image_ks, "image_k"),
        workers=settings.workers,
    )
    text = render_grid_text(grid)
    print(text, end="")
    if args.out_prefix:
        _write_report(args.out_prefix + ".txt", text)
        doc = {}
        for (kt, ki), cell in grid.items():
            key = f"text{kt}_image{ki}"
            doc[key] = encode(cell) if not isinstance(cell, dict) else cell
        _write_report(args.out_prefix + ".json", json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_eval_kb_scale(args, parser: _Parser) -> int:
    settings = resolve_settings(args)
    config = _rollout_config(settings)
    text_provider, image_provider = _embedders(settings)
    corpus = load_corpus(args.corpus)
    samples = load_qa_dataset(args.dataset)
    backend = _backend(settings, parser)
    series = run_kb_scale(
        samples,
        corpus,
        text_provider,
        image_provider,
        backend,
        config,
        sizes=_parse_int_list(args.sizes, "sizes"),
        seed=derive_seed(settings.seed, "kb-scale"),
        workers=settings.workers,
    )
    lines = ["size     accuracy%  recall%"]
    doc = []
    for entry in series:
        report = entry["report"]
        # Recall over every sample it applies to: hits / (hits + misses).
        hits, misses = (report.contingency[row]["n"] for row in ("retrieval_correct", "retrieval_incorrect"))
        recall = 100.0 * hits / (hits + misses) if hits + misses else None
        lines.append(
            f"{entry['size']:<9}{report.overall_accuracy:>8.1f}"
            + (f"{recall:>9.1f}" if recall is not None else "        -")
        )
        doc.append({"size": entry["size"], "report": encode(report)})
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out_prefix:
        _write_report(args.out_prefix + ".txt", text)
        _write_report(args.out_prefix + ".json", json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


# --- validate ------------------------------------------------------------


def _json_line(line: str):
    """The JSON value on one line, or None when the line does not parse."""
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        return None


def _detect_kind(path: Path) -> str:
    """Sniff a file's kind from its first line that holds a JSON object.

    Bad lines before it are left to the kind's reader, which lists them all.
    """
    try:
        with path.open("r", encoding="utf-8") as fh:
            obj = next((o for o in map(_json_line, fh) if isinstance(o, dict)), None)
        if obj is None:
            # maybe a single pretty-printed JSON document (index/manifest)
            text = path.read_text(encoding="utf-8")
            if not text.strip():
                raise DataError(f"{path}: empty file")
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: not JSON or JSONL ({exc.msg})") from exc
    except UnicodeDecodeError as exc:
        hint = f"; it is an index's vector matrix, validate its header {path.with_suffix('.json')}"
        raise DataError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})" + (hint if path.suffix == ".npy" else "")
        ) from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: records must be JSON objects")
    for kind, (keys, _) in _KINDS.items():
        if all(key in obj for key in keys):
            return kind
    raise DataError(f"{path}: unrecognized record shape")


def _validate_corpus(path: Path) -> str:
    corpus = load_corpus(path)
    return f"{corpus.n_articles} articles, {corpus.n_sections} sections, {corpus.n_images} images"


def _validate_sft(path: Path) -> str:
    report = scan_sft_file(path)
    bad = report["supervised_evidence_chars"] + report["unsupervised_decision_tags"] + report["structure_errors"]
    if bad:
        raise DataError(f"{path}: mask soundness violated: {report}")
    return f"{report['samples']} samples, masks sound"


def _validate_index(path: Path) -> str:
    index = load_index(path)
    return f"{len(index)} {index.modality} vectors, dimension {index.dimension}"


def _validate_manifest(path: Path) -> str:
    try:
        manifest = decode(DatasetManifest, json.loads(path.read_text(encoding="utf-8")))
    except (DataError, ValueError) as exc:  # ValueError: not JSON or not UTF-8
        raise DataError(f"{path}: {exc}") from exc
    return f"manifest for {manifest.total} samples"


# Each kind ``validate`` knows: the keys that identify its first record, and
# the check that reads the file and returns the detail it prints. Detection
# tries the kinds in this order. Every index header has a format_version,
# and a version 1 header is then rejected by load_index.
_KINDS = {
    "index": (("format_version",), _validate_index),
    "manifest": (("emitter_version", "dataset_sha256"), _validate_manifest),
    "corpus": (("article_id", "sections"), _validate_corpus),
    "sft": (("segments", "meta"), _validate_sft),
    "script": (("match", "output"), lambda path: f"{len(load_script(path).rules)} rules"),
    "outcomes": (("stages", "trajectory_type"), lambda path: f"{len(read_outcome_file(path))} outcomes"),
    "trajectories": (("turns", "terminated_by"), lambda path: f"{len(read_trajectory_file(path))} trajectories"),
    "dataset": (("sample_id", "question"), lambda path: f"{len(load_qa_dataset(path))} samples"),
}


def cmd_validate(args, parser: _Parser) -> int:
    path = Path(args.path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    kind = args.kind if args.kind != "auto" else _detect_kind(path)
    print(f"OK ({kind}): {_KINDS[kind][1](path)}")
    return EXIT_OK


# --- wiring --------------------------------------------------------------


# Every flag that more than one subcommand takes, defined once: its
# ``add_argument`` keywords. Each subcommand lists the ones it reads.
_SHARED = {
    "--config": {"help": "JSON config file"},
    "--print-config": {"action": "store_true", "help": "dump effective settings"},
    "--dimension": {"type": int, "help": "embedding dimension"},
    "--script": {"help": "scripted backend rules (JSONL)"},
    **dict.fromkeys(("--seed", "--budget", "--k-text", "--k-image", "--workers"), {"type": int}),
    **dict.fromkeys(("--chat-url", "--embed-url", "--api-key", "--index-dir", "--out-prefix"), {}),
    **dict.fromkeys(("--corpus", "--dataset", "--out"), {"required": True}),
}
_CFG = ("--config", "--print-config")
_SETTINGS = (*_CFG, "--seed", "--dimension", "--chat-url", "--embed-url", "--api-key", "--script",
             "--budget", "--k-text", "--k-image", "--workers")


def _subcommand(sub, name: str, help: str, func, shared=(), exclude=()) -> argparse.ArgumentParser:
    """A subcommand parser that runs ``func`` and takes the ``shared`` flags
    less those in ``exclude``."""
    p = sub.add_parser(name, help=help)
    for flag in shared:
        if flag not in exclude:
            p.add_argument(flag, **_SHARED[flag])
    p.set_defaults(func=func)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="dbagent", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="vector index operations")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p_build = _subcommand(index_sub, "build", "embed a corpus into text/image indexes", cmd_index_build,
                          ("--corpus", *_CFG, "--seed", "--dimension", "--embed-url", "--api-key"))
    p_build.add_argument("--out-dir", required=True)

    p_agent = sub.add_parser("agent", help="run the search agent")
    agent_sub = p_agent.add_subparsers(dest="agent_command", required=True)
    p_run = _subcommand(agent_sub, "run", "single question", cmd_agent_run,
                        ("--corpus", "--index-dir", *_SETTINGS), exclude=("--workers",))
    p_run.add_argument("--question", required=True)
    p_run.add_argument("--image", default=None, help="image ref for the question")
    p_run.add_argument("--task-id", default="task")
    _subcommand(agent_sub, "batch", "roll out a QA dataset", cmd_agent_batch,
                ("--dataset", "--corpus", "--index-dir", "--out", *_SETTINGS))

    p_factory = sub.add_parser("factory", help="trajectory construction")
    factory_sub = p_factory.add_subparsers(dest="factory_command", required=True)
    p_fbuild = _subcommand(factory_sub, "build", "run the three-stage factory", cmd_factory_build,
                           ("--dataset", "--corpus", "--index-dir", "--out", *_SETTINGS))
    p_fbuild.add_argument("--judge-mode", choices=("normalized_exact", "model_judge"), default="normalized_exact")
    p_fbuild.add_argument("--keep-failed", action="store_true")

    p_dataset = sub.add_parser("dataset", help="SFT dataset operations")
    dataset_sub = p_dataset.add_subparsers(dest="dataset_command", required=True)
    p_emit = _subcommand(dataset_sub, "emit", "linearize outcomes into an SFT file", cmd_dataset_emit,
                         ("--out", *_CFG, "--seed"))
    p_emit.add_argument("--outcomes", required=True)
    p_emit.add_argument("--max-chars", type=int, default=49152)
    p_emit.add_argument("--n-per-tier", type=int, default=0, help="balance tiers before emitting")
    p_emit.add_argument("--system-prompt-file", default=None)

    p_eval = sub.add_parser("eval", help="evaluation and sweeps")
    eval_sub = p_eval.add_subparsers(dest="eval_command", required=True)
    p_report = _subcommand(eval_sub, "report", "score a trajectory file", cmd_eval_report,
                           ("--dataset", "--out-prefix", *_CFG, "--script", "--chat-url", "--api-key"))
    p_report.add_argument("--trajectories", required=True)
    p_report.add_argument("--metric", choices=("em", "judge"), default="em")
    p_report.add_argument("--raw-exact", action="store_true")
    # Each grid cell replaces k_text and k_image.
    p_grid = _subcommand(eval_sub, "topk-grid", "retrieval-depth grid", cmd_eval_topk_grid,
                         ("--dataset", "--corpus", "--index-dir", "--out-prefix", *_SETTINGS),
                         exclude=("--k-text", "--k-image"))
    p_grid.add_argument("--text-ks", default="1,3,5")
    p_grid.add_argument("--image-ks", default="1,2,3")
    p_scale = _subcommand(eval_sub, "kb-scale", "corpus-size sweep", cmd_eval_kb_scale,
                          ("--dataset", "--corpus", "--out-prefix", *_SETTINGS))
    p_scale.add_argument("--sizes", default="200,1000,5000")

    p_validate = _subcommand(sub, "validate", "lint any file the suite emits", cmd_validate)
    p_validate.add_argument("path")
    p_validate.add_argument("--kind", default="auto", choices=("auto", *_KINDS))

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("DBAGENT_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (DataError, ValueError, OSError) as exc:  # OSError: an input file is missing or unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
