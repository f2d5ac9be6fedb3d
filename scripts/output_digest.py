#!/usr/bin/env python3
"""Digest of every file the benchmark's workloads write, to check that a change keeps outputs.

For each workload and seed it writes the workload's inputs with
``perfbench.workloads.make_inputs`` and runs one op with ``run_op``, in a
temporary directory, then hashes every file there. It prints one line per
workload (the file count and a sha256 over each file's sorted relative
path and bytes) and a total line. Two checkouts write the same bytes when
they print the same lines. Run from the repository root:

    python3 scripts/output_digest.py                       # all workloads, seeds 0-2
    python3 scripts/output_digest.py --workload wass-default --seeds 0 1
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# BLAS/OpenMP thread pools are sized when numpy loads: pin them first, as perfbench/run.py does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, make_inputs, run_op  # noqa: E402


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    args = ap.parse_args(argv)
    total, total_files = hashlib.sha256(), 0
    for name in args.workload:
        h = hashlib.sha256()
        with tempfile.TemporaryDirectory() as tmp:
            for seed in args.seeds:
                root = Path(tmp) / f"seed{seed}"
                run_op(make_inputs(WORKLOADS[name], seed, root / "inputs"), root / "out")
            n = digest(Path(tmp), h)
        total.update(h.digest())
        total_files += n
        print(f"{name}: {n} files sha256 {h.hexdigest()}")
    print(f"total: {total_files} files sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
