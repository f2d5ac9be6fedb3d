#!/usr/bin/env python3
"""Head-to-head of the semantic losses against the plain-CE baseline.

Runs the CE baseline, the Wasserstein compound (hier, kappa=10) and the
tree-weighted CE compound (hier, kappa=2) on the same synthetic corpus
and folds, then prints the comparison table including the mean tree
distance of misclassified pixels per method.

Example:
    python3 scripts/compare_semantic_losses.py --seed 0 --out runs/compare
"""

from __future__ import annotations

import argparse
from pathlib import Path

import treeseg.experiment as exp

LOSSES = {
    "ce_baseline": {"semantic": "none", "beta": 1.0, "seg": "ce"},
    "wass_hier10": {"semantic": "wass", "scheme": "hier", "kappa": 10, "alpha": 0.5, "beta": 0.5, "seg": "ce"},
    "twce_hier2": {"semantic": "twce", "scheme": "hier", "kappa": 2, "alpha": 0.5, "beta": 0.5, "seg": "ce"},
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sparsity", type=float, default=0.6)
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--lr", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", default="runs/compare")
    args = ap.parse_args()

    out = Path(args.out)
    report_dirs = []
    for name, loss in LOSSES.items():
        config = exp.config_from_dict(
            {
                "loss": loss,
                "train": {"model": "linear", "lr": args.lr, "epochs": args.epochs},
                "synth": {"sparsity": args.sparsity},
                "n_subject_folds": 2,
                "seed": args.seed,
            }
        )
        run_dir = exp.run_experiment(config, out / name, jobs=args.jobs)
        report_dirs.append(run_dir)
        print(f"finished {name}")

    table = exp.compare(report_dirs, out=out)
    print()
    print(table)
    print(f"comparison files in {out}")


if __name__ == "__main__":
    main()
