#!/usr/bin/env python3
"""Closed-loop benchmark of the treeseg pipeline.

One client in one process runs seeded ops back to back, the next starting
when the last one ends, for ``--seconds`` seconds. Run from the repository
root:

    python3 perfbench/run.py --workload wass-default --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``--trace 0`` prints the end-to-end metrics; ``setup_s`` among them is the
median of whole set-ups timed in fresh interpreters between the ops.
``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics of the traced
ops, the tracing overhead, and every span. The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from tracing import PER_LAYER, Tracer

# BLAS/OpenMP thread pools are sized when numpy loads: pin them first, so
# the two fold threads of a jobs=2 workload use no more than two cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The host's speed moves in phases of several seconds (a fresh import takes
# 0.57 s in one and 0.87 s in the next), so set-up is sampled this many
# times, between the timed ops and spread evenly over them.
SETUP_SAMPLES = 9
# Quality depends on the instance far more than timing does (leaf accuracy
# ranges over +-30% between seeds), so it is always read from this seed's
# instance, which makes it deterministic per commit.
QUALITY_SEED = 0
# One whole set-up in a fresh interpreter: import treeseg, numpy and scipy,
# then write the workload's config and hierarchy or corpus.
SETUP_PROBE = (
    "import sys, time; t = time.perf_counter(); from pathlib import Path; "
    "from workloads import WORKLOADS, make_inputs; "
    "make_inputs(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3])); "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs[:1]:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "pinned": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_seconds(workload: str, seed: int, root: Path) -> float:
    """Seconds of one whole set-up in a fresh interpreter, as it measures them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    cmd = [sys.executable, "-c", SETUP_PROBE, workload, str(seed), str(root)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
    shutil.rmtree(root, ignore_errors=True)
    return float(out.stdout.strip())


class SetupSampler:
    """Takes ``SETUP_SAMPLES`` set-up times spread evenly over ``seconds``
    of op time: one at once, then those due whenever ``catch_up`` is called."""

    def __init__(self, workload: str, seed: int, root: Path, seconds: float):
        self.workload, self.seed, self.root, self.seconds = workload, seed, root, seconds
        self.samples: list[float] = []
        self.start = time.perf_counter()
        self.spent = 0.0  # seconds spent taking samples, not running ops
        self.take()

    def take(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(setup_seconds(self.workload, self.seed, self.root))
        self.spent += time.perf_counter() - t0

    def catch_up(self) -> None:
        op_s = time.perf_counter() - self.start - self.spent
        due = min(SETUP_SAMPLES, 1 + int((SETUP_SAMPLES - 1) * op_s / self.seconds))
        while len(self.samples) < due:
            self.take()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return self.samples


def fmt(value: float) -> str:
    return f"{value:.6g}"


@dataclass
class Loop:
    """What a closed loop of ops measured."""

    attempted: int = 0
    failed: int = 0
    quality: dict | None = None  # report means of the first correct op
    plain: list = field(default_factory=list)  # untraced op seconds
    traced: list = field(default_factory=list)  # traced op seconds
    layers: list = field(default_factory=list)  # per-layer metrics per traced op
    first_spans: tuple | None = None  # (breakdown, self s per thread, wall) of the first traced op


def closed_loop(inputs, masks, seconds: float, work: Path, tracer=None, min_ops: int = 1, op=None, between=None) -> Loop:
    """Run ops back to back for ``seconds`` and at least ``min_ops`` times;
    with a tracer every second op is traced. ``between()`` runs after each
    op, and the seconds it takes are added to the deadline.

    An op fails if it raises, or if its outputs are wrong: a manifest that
    does not match the files or differs from the first op's, or a report
    that disagrees with the predictions it was computed from.
    """
    from workloads import OpFailed, check_manifest, check_report, run_op

    op = op or run_op
    loop = Loop()
    reference = None
    deadline = time.perf_counter() + seconds
    while loop.attempted < min_ops or time.perf_counter() < deadline:
        if between is not None and loop.attempted:
            t0 = time.perf_counter()
            between()
            deadline += time.perf_counter() - t0
        use_trace = tracer is not None and loop.attempted % 2 == 1
        out = work / f"op{loop.attempted}"
        loop.attempted += 1
        if use_trace:
            tracer.reset()
            tracer.install()
        try:
            t0 = time.perf_counter()
            op(inputs, out)
            dt = time.perf_counter() - t0
        except Exception:  # a failed op is counted, never fatal
            loop.failed += 1
            print(f"op {loop.attempted - 1} failed:\n{traceback.format_exc()}", file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)
            continue
        finally:
            if use_trace:
                tracer.uninstall()
        try:
            manifest = check_manifest(out)
            if reference is None:
                loop.quality = check_report(inputs, out, masks)
                reference = manifest
            elif manifest != reference:
                raise OpFailed("manifest.json differs from the first op's")
        except (OpFailed, OSError, ValueError, KeyError) as e:
            loop.failed += 1
            print(f"op {loop.attempted - 1} is wrong: {e}", file=sys.stderr)
            continue
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if use_trace:
            loop.traced.append(dt)
            loop.layers.append(tracer.layer_metrics())
            if loop.first_spans is None:
                loop.first_spans = (tracer.breakdown(), dict(tracer.thread_self), dt)
        else:
            loop.plain.append(dt)
    return loop


def run_workload(args) -> dict:
    from workloads import WORKLOADS, corpus_masks, make_inputs

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        with tracer or nullcontext():
            inputs = make_inputs(workload, args.seed, work / "inputs")
        setup_spans = tracer.breakdown() if tracer else None

        # untimed warm-up op on the reference instance; it gives the quality metrics
        ref = inputs if args.seed == QUALITY_SEED else make_inputs(workload, QUALITY_SEED, work / "reference")
        warm = closed_loop(ref, corpus_masks(ref), 0.0, work)

        # untraced runs time whole set-ups between the timed ops
        sampler = None if tracer else SetupSampler(workload.name, args.seed, work / "setup", args.seconds)
        between = sampler.catch_up if sampler else None
        loop = closed_loop(inputs, corpus_masks(inputs), args.seconds, work, tracer, min_ops=2 if tracer else 1, between=between)
        setup_samples = sampler.finish() if sampler else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain, traced, layers, quality = loop.plain, loop.traced, loop.layers, warm.quality
    attempted, failed = warm.attempted + loop.attempted, warm.failed + loop.failed
    correct = failed == 0 and quality is not None and loop.quality is not None
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}: {attempted} ops attempted (1 warm-up), {failed} failed, correct={correct}")
    print(f"quality at seed {QUALITY_SEED}: {quality}; at seed {args.seed}: {loop.quality}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if not plain or (tracer and not traced):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}

    run_s = statistics.median(plain)
    print(f"run_s samples (n={len(plain)}): " + " ".join(fmt(x) for x in plain))
    if not tracer:
        print(f"setup_s samples (n={len(setup_samples)}): " + " ".join(fmt(x) for x in setup_samples))
        metrics = {
            "run_s": (run_s, "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "top_f1": (quality["top_f1"] if quality else 0.0, "ratio"),
            "leaf_acc": (quality["leaf_acc"] if quality else 0.0, "ratio"),
            "err_tree_dist": (quality["err_tree_dist"] if quality else 0.0, "edge_weight"),
        }
    else:
        if any(_counts(lm) != _counts(layers[0]) for lm in layers):
            correct = False
            print("per-layer counts differ between traced ops", file=sys.stderr)
        traced_s = statistics.median(traced)
        # counts are equal in every traced op (checked above); times are medians
        metrics = {
            name: (layers[0][name] if unit == "count" else statistics.median(lm[name] for lm in layers), unit)
            for name, (unit, _) in PER_LAYER.items()
        }
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - run_s, "s")
        print(f"traced run_s samples (n={len(traced)}): " + " ".join(fmt(x) for x in traced))
        print(f"tracing overhead: {fmt(traced_s - run_s)} s per op ({fmt(100 * (traced_s - run_s) / run_s)}% of untraced run_s)")
        if setup_spans:
            _print_spans("set-up spans", setup_spans)
        breakdown, thread_self, wall = loop.first_spans
        _print_spans("spans of the first traced op", breakdown)
        print(f"self seconds per thread (op wall {fmt(wall)} s): " + ", ".join(fmt(v) for v in thread_self.values()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {fmt(value):>14s} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items() if PER_LAYER[k][0] == "count"}


def _print_spans(title: str, breakdown: dict) -> None:
    print(title + ":")
    print(f"  {'span':34s} {'calls':>8s} {'s':>10s} {'self_s':>10s}")
    for name, row in sorted(breakdown.items(), key=lambda kv: -kv[1]["self_s"]):
        extra = " ".join(f"{k}={v}" for k, v in row.items() if k not in ("calls", "s", "self_s"))
        print(f"  {name:34s} {row['calls']:8d} {row['s']:10.4f} {row['self_s']:10.4f} {extra}")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """Run one workload in its own process; return its result and the lines
    printed before it. A run that prints no result counts as incorrect."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}, lines
    return json.loads(lines[-1]), lines[:-1]


def run_all(args) -> dict:
    """Run each workload in its own process and print one table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        results[name], lines = run_one(name, args.seed, args.seconds, args.trace)
        if args.trace:
            print("\n".join(lines))
    print(f"\n{'workload':22s} {'metric':32s} {'value':>14s} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:22s} {metric:32s} {fmt(m['value']):>14s} {m['unit']}")
        print(f"{name:22s} {'failed/attempted':32s} {res['failed']:>7d}/{res['attempted']:<6d}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}:{metric}": m for name, res in results.items() for metric, m in res["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treeseg" / "__init__.py").is_file():
        print(f"error: no treeseg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["attempted"] else 1


if __name__ == "__main__":
    sys.exit(main())
