#!/usr/bin/env python3
"""Digest of every file the benchmark's workloads write, to check that a change keeps outputs.

For each workload and seed it writes the workload's inputs with
``perfbench.workloads.make_inputs`` and runs one op with ``run_op``, in a
temporary directory, then hashes every file there. It prints one line per
workload (the file count and a sha256 over each file's sorted relative
path and bytes) and a total line. A workload that saves a corpus in its
inputs (``dense-leafgate-wide``) gets one more line, ``<name> cli:``: per
seed, ``treeseg train`` on the workload's config, then ``gate``,
``sweep`` and ``eval`` on the saved corpus with that model, and a digest
of every file they write; these are the readers of a loaded corpus other
than the op. The total line covers the ops only. Two checkouts write the
same bytes when they print the same lines. ``--jobs N`` runs every op
with N jobs instead of its workload's own, so the lines of ``--jobs 1``
and ``--jobs 2`` show that folds write the same bytes in worker processes
as in the caller. Run from the repository root:

    python3 scripts/output_digest.py                       # all workloads, seeds 0-2
    python3 scripts/output_digest.py --workload wass-default --seeds 0 1
    python3 scripts/output_digest.py --jobs 2              # every op with two jobs
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

# BLAS/OpenMP thread pools are sized when numpy loads: pin them first, as perfbench/run.py does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import treeseg.cli as cli  # noqa: E402
from workloads import WORKLOADS, Inputs, make_inputs, run_op  # noqa: E402


def digest(root: Path, h) -> int:
    """Feed every file under ``root`` into ``h``, sorted by relative path; returns the file count."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    for p in files:
        rel = p.relative_to(root).as_posix().encode()
        data = p.read_bytes()
        for part in (rel, data):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return len(files)


def run_cli(inputs: Inputs, out: Path) -> None:
    """``treeseg train`` on the workload's config, then ``gate``, ``sweep`` and ``eval`` on its saved corpus, into ``out``."""
    out.mkdir(parents=True)
    corpus, model = str(inputs.config.corpus_path), str(out / "model.bin")
    tolerance = [] if inputs.config.nsd_tolerance is None else ["--tolerance", str(inputs.config.nsd_tolerance)]
    for argv in (
        ["train", "--config", str(inputs.config_path), "--out", model],
        ["gate", "--corpus", corpus, "--model", model, "--tau", "0.5", "--out", str(out / "gate")],
        ["sweep", "--corpus", corpus, "--model", model, "--out", str(out / "tau_curve.csv")],
        ["eval", "--corpus", corpus, "--pred", str(out / "gate"), *tolerance, "--out", str(out / "eval")],
    ):
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"treeseg {argv[0]} exited with code {code}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    ap.add_argument("--jobs", type=int, default=None, help="jobs of every op (default: the workload's own)")
    args = ap.parse_args(argv)
    total, total_files = hashlib.sha256(), 0
    for name in args.workload:
        w = WORKLOADS[name] if args.jobs is None else replace(WORKLOADS[name], jobs=args.jobs)
        h = hashlib.sha256()
        with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as cli_tmp:
            for seed in args.seeds:
                root = Path(tmp) / f"seed{seed}"
                inputs = make_inputs(w, seed, root / "inputs")
                run_op(inputs, root / "out")
                if w.corpus is not None:
                    run_cli(inputs, Path(cli_tmp) / f"seed{seed}")
            n = digest(Path(tmp), h)
            total.update(h.digest())
            total_files += n
            print(f"{name}: {n} files sha256 {h.hexdigest()}")
            if w.corpus is not None:
                h = hashlib.sha256()
                n = digest(Path(cli_tmp), h)
                print(f"{name} cli: {n} files sha256 {h.hexdigest()}")
    print(f"total: {total_files} files sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
