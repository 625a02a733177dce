"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload rollout_small --seed 1 --seconds 10 --trace 0

Run from the repository root (the script changes there itself). It
generates the workload's inputs from the seed, runs the program's own
set-up at least three times (``setup_s`` is their median), then runs rounds of
tasks until ``--seconds`` have passed, checking every round's outputs.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and prints the per-layer metrics. The metric names and units
come from ``BENCHMARK.json``. The last line of standard output is the
result as one JSON object.

BLAS runs one thread unless the environment sets a BLAS thread variable
(see ``pin_blas_threads``); the environment is printed with every result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# setup_s is the median of at least MIN_SETUPS set-ups, more when they are
# quick, so that cheap set-ups are not a handful of noisy samples.
MIN_SETUPS, MAX_SETUPS, MIN_SETUP_SECONDS = 3, 10, 3.0
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# The program layer each workload is built to stress in the traced run
# (None: neither retrieval nor gateway may be the largest there).
PREDICTED_TOP = {
    "rollout_large": "retrieval",
    "rollout_small": None,
    "factory_sft": None,
    "factory_replay": "gateway",
}


def pin_blas_threads() -> None:
    """Run BLAS on one thread unless a BLAS thread variable is already set.

    With OpenBLAS's default of one thread per core, a search's matrix-vector
    product waits for a worker thread that any other process on the host can
    hold off the CPU: one busy-looping process on one of two cores cut
    ``factory_sft`` from 281 to 165 tasks/s and raised its p95 from 5.2 to
    15.4 ms, while with one BLAS thread it stayed at 281 tasks/s. That cost
    follows the neighbours' load, not the program. Set e.g.
    ``OPENBLAS_NUM_THREADS=2`` to measure threaded BLAS anyway. Must run
    before numpy is imported.
    """
    if not any(os.environ.get(k) for k in BLAS_ENV):
        for k in BLAS_ENV:
            os.environ[k] = "1"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dbagent" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import dbagent

    if Path(dbagent.__file__).resolve().parent != ROOT / "src" / "dbagent":
        print(f"error: imported dbagent from {dbagent.__file__}, not this checkout", file=sys.stderr)
        return 2
    from spans import SpanStats, Tracer, layer_metrics, percentile
    from workloads import WORKLOADS, sha256_of

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # Relative paths keep output bytes independent of where the checkout is.
    out = Path("perfbench") / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = WORKLOADS[args.workload](out, args.seed)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    for path in wl.inputs:
        print(f"sha256 input {path.name} {sha256_of(path)}")

    tracer = Tracer() if args.trace else None
    setup_times: list[float] = []
    while len(setup_times) < MAX_SETUPS and (
        len(setup_times) < MIN_SETUPS or sum(setup_times) < MIN_SETUP_SECONDS
    ):
        with tracer.patched() if tracer is not None else nullcontext():
            t0 = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t0)
    attempted, failed = wl.setup_checks()

    latencies: list[float] = []
    round_walls: list[tuple[bool, float]] = []  # (traced, wall)
    first_hashes = None
    if tracer is not None:
        wl.trace_objects(tracer)
    start = perf_counter()
    while True:
        n_traced = sum(t for t, _ in round_walls)
        done = round_walls and perf_counter() - start >= args.seconds
        if done and (tracer is None or 0 < n_traced < len(round_walls)):
            break
        # Traced runs alternate untraced and traced rounds, so both see the
        # same warm-up and the overhead compares like with like.
        traced = tracer is not None and len(round_walls) % 2 == 1
        if traced:
            tracer.round = len(round_walls)
            with tracer.patched():
                wall = wl.run_round([], tracer)
        else:
            wall = wl.run_round(latencies, None)
        round_walls.append((traced, wall))
        a, f = wl.check_round()
        hashes = wl.output_hashes()
        first_hashes = first_hashes or hashes
        attempted, failed = attempted + a + 1, failed + f + (hashes != first_hashes)
        if hashes != first_hashes:
            wl.notes.append(f"round {len(round_walls)} outputs differ from round 1")

    for name, digest in sorted((first_hashes or {}).items()):
        print(f"sha256 output {name} {digest}")
    for note in dict.fromkeys(wl.notes):
        print(f"check failed: {note}")
    n_tasks = len(wl.tasks)
    untraced = [w for t, w in round_walls if not t]
    em, recall = wl.quality()
    metrics: dict[str, float] = {
        "setup_s": statistics.median(setup_times),
        # Tasks over the summed wall time of the untraced rounds. The host's
        # CPU speed drifts over seconds; a per-round median would jump
        # between its levels, a time-weighted rate follows their mix.
        "tasks_per_s": n_tasks * len(untraced) / sum(untraced),
        "task_p50_ms": 1e3 * percentile(latencies, 0.50),
        "task_p95_ms": 1e3 * percentile(latencies, 0.95),
        "em_pct": em,
        "recall_pct": recall,
        "ops_ok_pct": 100.0 * (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("round walls (s): " + " ".join(f"{'T' if t else ''}{w:.3f}" for t, w in round_walls))
    print(
        f"samples: {len(latencies)} task latencies over {len(untraced)} untraced round(s) of "
        f"{n_tasks} tasks; setup x{len(setup_times)}; checks {attempted} attempted, {failed} failed"
    )

    if tracer is not None:
        st = SpanStats(tracer, len(setup_times))
        metrics = layer_metrics(st, wl.sections(), wl.index_bytes()) | wl.counters()
        traced_walls = [w for t, w in round_walls if t]
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_walls) / statistics.median(untraced) - 1.0
        )
        print_predictions(args.workload, st.shares())
        tracer.write(out / "spans.jsonl")
        print(f"spans: {len(tracer.spans)} written to {out / 'spans.jsonl'}")
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    for m in wanted:
        print(f"metric {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    (out / "result.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "env": env, **result}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


def print_predictions(workload: str, shares: dict[str, float]) -> None:
    program = {k: v for k, v in shares.items() if k != "standin"}
    top = max(program, key=program.get)
    ranked = ", ".join(f"{k} {v:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
    print(f"layer shares (self time, traced rounds): {ranked}")
    want = PREDICTED_TOP[workload]
    if want is None:
        met = top not in ("retrieval", "gateway")
        claim = "neither retrieval nor gateway is the largest layer"
    else:
        met = top == want
        claim = f"{want} is the largest layer"
    print(f"prediction {workload}: {claim}: {'met' if met else 'NOT MET'} (largest: {top})")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
