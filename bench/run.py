"""Benchmark of the lhts pipeline: price -> finetune -> sample -> score.

Run from the repository root:

    python3 bench/run.py --workload tabular-exact --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the lhts
modules' public functions and prints the per-layer metrics. The metric names,
units and directions are those of BENCHMARK.json. The last line of standard
output is the result; the line before it is the run's record (seed,
environment, quality numbers, checks and, when traced, a span summary).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-ups per run, and the time they fill; setup_s is their median
MIN_SETUPS, MAX_SETUPS, SETUP_FILL_S = 3, 2000, 1.0

# one process, no extra threads: pin the BLAS pools before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _decile(values: list[float], k: int) -> float:
    """The k-th decile (k=1 is p10, k=9 is p90), inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def end_to_end(iterations, steps_s: list[float], setup_s: list[float]) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and informational ones for the record.

    Each vCPU of the shared machine this was built on runs in a fast regime
    or one 1.5-2x slower, and the share of slow time drifts from run to run.
    A median or a minimum of unit times flips between the two regimes when
    that share crosses its threshold; the slow tail does so only when a run
    is almost wholly fast. So each gated timing is the 90th percentile of
    many short units spread over the run (for a rate, its 10th percentile):
    every training step, price or sample chunk and scoring pass is a unit.
    """
    price = [n / dt for it in iterations for n, dt in it.price]
    sample = [n / dt for it in iterations for n, dt in it.sample]
    score = [s for it in iterations for s in it.score_s]
    steps_ms = [1e3 * d for d in steps_s]
    gated = {
        "setup_s": statistics.median(setup_s),
        "step_ms_p90": _decile(steps_ms, 9),
        "price_per_s_p10": _decile(price, 1),
        "samples_per_s_p10": _decile(sample, 1),
        "score_s_p90": _decile(score, 9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "units": {"steps": len(steps_ms), "price": len(price), "sample": len(sample),
                  "score": len(score)},
        "train_steps_per_s": sum(it.steps for it in iterations)
        / sum(it.train_s for it in iterations),
        "step_ms_min": min(steps_ms),
        "step_ms_p50": statistics.median(steps_ms),
        "price_per_s": sum(n for it in iterations for n, _ in it.price)
        / sum(dt for it in iterations for _, dt in it.price),
        "samples_per_s": sum(n for it in iterations for n, _ in it.sample)
        / sum(dt for it in iterations for _, dt in it.sample),
        "score_s": statistics.median(score),
    }
    return gated, info


def run(name: str, seed: int, seconds: float, trace: bool, workloads: dict | None = None):
    """Set up at least ``MIN_SETUPS`` times and until ``SETUP_FILL_S`` is
    spent (at most ``MAX_SETUPS``), then run pipeline iterations while the next
    one is expected to end within ``seconds`` (at least one). Returns the
    result dict and the record dict."""
    import layers
    import workloads as wl_mod
    from tracer import Tracer

    wl = (workloads or wl_mod.FULL)[name]
    tracer = Tracer(layers.layer_targets() if trace else layers.step_targets(), layers.MODULES)

    setup_s = []
    with tracer:
        while len(setup_s) < MIN_SETUPS or (sum(setup_s) < SETUP_FILL_S
                                            and len(setup_s) < MAX_SETUPS):
            with tracer.region(layers.SETUP):
                t0 = perf_counter()
                state = wl.setup(seed)
                setup_s.append(perf_counter() - t0)

    untraced_s = None
    if trace:
        # one iteration with nothing wrapped, for the tracing overhead
        t0 = perf_counter()
        wl.iterate(state)
        untraced_s = perf_counter() - t0

    iterations, walls = [], []
    start = perf_counter()
    with tracer:
        while not walls or perf_counter() - start + walls[-1] <= seconds:
            with tracer.region(layers.ITERATION):
                t0 = perf_counter()
                iterations.append(wl.iterate(state))
                walls.append(perf_counter() - t0)

    checks = [c for it in iterations for c in it.checks.items()]
    failed_checks = sorted({k for k, ok in checks if not ok})
    attempted = sum(it.steps for it in iterations) + len(checks)
    failed = sum(1 for _, ok in checks if not ok)

    info = {"run_s": statistics.fmean(walls)}
    if trace:
        metrics = layers.layer_metrics(tracer.spans, len(iterations), len(setup_s),
                                       statistics.median(walls) / untraced_s - 1.0)
    else:
        metrics, more = end_to_end(iterations, layers.step_durations(tracer.spans), setup_s)
        info.update(more)

    spec = load_spec()
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(listed):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(listed))} do not match "
                           "BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": listed[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "setups": len(setup_s),
        "iterations": len(iterations),
        "failed_frac": failed / attempted,
        "failed_checks": failed_checks,
        "quality": iterations[-1].quality,
        "info": info,
    }
    if trace:
        record["spans"] = layers.span_summary(tracer.spans)
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lhts" / "__init__.py").is_file():
        print(f"bench: the lhts sources are missing under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.FULL:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.FULL)}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
