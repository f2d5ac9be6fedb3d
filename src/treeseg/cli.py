"""Command-line entry point.

Subcommands: tree check/distmat, synth, train, gate, sweep, eval,
confusion, run, compare. Exit codes: 0 success, 1 validation problem
(bad inputs or configs), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiment as exp
from . import training
from .distances import distance_matrix
from .errors import ConfigError, ShapeError, TreesegError, ValidationError, read_block, read_json_object
from .evaluation import evaluate_level, level_counts, pool_nsd
from .gating import LevelScorer, ThresholdPolicy, default_grid
from .hierarchy import WEIGHT_SCHEMES, EdgeWeightScheme, assign_weights, parse_level, read_tree, resolve_level
from .synth import SynthConfig, generate, load_corpus, make_folds, read_field, save_corpus, save_folds, write_field
from .training import load_model, save_model


def cmd_tree_check(args) -> int:
    try:
        tree = read_tree(args.file)
    except ValidationError as e:
        print(f"INVALID: {e}")
        return 1
    print(f"OK: {tree.n_leaves} leaves, {tree.n_nodes} nodes, {tree.levels} levels")
    print(f"root: {tree.name_of(tree.root)}")
    print(f"top-level classes: {', '.join(sorted(tree.name_of(v) for v in tree.children(tree.root)))}")
    return 0


def cmd_tree_distmat(args) -> int:
    tree = read_tree(args.file)
    scheme = EdgeWeightScheme(args.scheme, kappa=args.kappa)
    m = distance_matrix(assign_weights(tree, scheme))
    names = tree.leaf_names()
    lines = ["," + ",".join(names)]
    for name, row in zip(names, m):
        lines.append(name + "," + ",".join(f"{x:.10g}" for x in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _config(args) -> exp.ExperimentConfig:
    config = exp.load_config(args.config)
    return config if args.seed is None else replace(config, seed=args.seed)


def cmd_synth(args) -> int:
    data = read_json_object(args.config) if args.config else {}
    if "synth" in data:  # an experiment config: the corpus that `run` and `train` generate
        config = _config(args)
        corpus = generate(replace(config.synth, seed=config.seed))
        folds = make_folds(corpus, config.n_subject_folds, config.n_label_folds)
    else:  # a bare synth block
        cfg = read_block(data, SynthConfig, "synth")
        corpus = generate(cfg if args.seed is None else replace(cfg, seed=args.seed))
        folds = make_folds(corpus, 2)
    out = Path(args.out)
    save_corpus(corpus, out)
    save_folds(folds, out / "folds.json")
    print(f"wrote {len(corpus.subjects)} subjects, {corpus.n_classes} classes to {out}")
    return 0


def cmd_train(args) -> int:
    config = _config(args)
    corpus = exp.build_corpus(config)
    fold = exp.config_folds(corpus, config)[0]
    params, trace = exp.fit(corpus, fold, config)
    save_model(params, args.out)
    print(f"trained fold {fold.index} for {len(trace)} epochs, final loss {trace[-1]:.6f}")
    print(f"model written to {args.out}")
    return 0


def cmd_gate(args) -> int:
    corpus, params = load_corpus(args.corpus), load_model(args.model)
    scorer = LevelScorer(corpus.tree, resolve_level(corpus.tree, args.level))
    ThresholdPolicy(args.tau)  # rejects a tau outside [0, 1] before anything is written
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, s in enumerate(corpus.subjects):
        labels, _ = scorer.gate(scorer.score(training.class_probs(params, s.features)), args.tau)
        write_field(out / f"pred_s{i:03d}.bin", labels.reshape(s.features.shape[:-1]))
    print(f"gated {len(corpus.subjects)} subjects at level {scorer.k}, tau={args.tau:g} -> {out}")
    return 0


def cmd_sweep(args) -> int:
    corpus, params = load_corpus(args.corpus), load_model(args.model)
    scorer = LevelScorer(corpus.tree, resolve_level(corpus.tree, args.level))
    images = [scorer.score(training.class_probs(params, s.features)) for s in corpus.subjects]
    tau_m, curve = scorer.sweep(images, [s.mask for s in corpus.subjects], default_grid(args.grid_step))
    out = Path(args.out) if args.out else Path("tau_curve.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    exp.write_tau_curve(curve, out)
    print(f"tau_m = {tau_m:g}")
    print(f"curve written to {out}")
    return 0


def _load_preds(pred_dir: Path, masks: list[np.ndarray]) -> list[np.ndarray]:
    """One prediction field per subject; a field whose shape is not its mask's is a ShapeError naming the file."""
    preds = []
    for i, mask in enumerate(masks):
        path = pred_dir / f"pred_s{i:03d}.bin"
        pred = read_field(path)
        if pred.shape != mask.shape:
            raise ShapeError(f"{path}: prediction field is {pred.shape[0]}x{pred.shape[1]}, the subject's mask {mask.shape[0]}x{mask.shape[1]}")
        preds.append(pred)
    return preds


def cmd_eval(args) -> int:
    if args.tolerance is not None and not args.tolerance >= 0:
        raise ConfigError(f"--tolerance must be >= 0, got {args.tolerance}")
    corpus = load_corpus(args.corpus)
    masks = [s.mask for s in corpus.subjects]
    preds = _load_preds(Path(args.pred), masks)
    level = resolve_level(corpus.tree, args.level)
    pred, truth = exp.pool_pixels(preds), exp.pool_pixels(masks)
    rep = evaluate_level(corpus.tree, pred, truth, level)
    if args.tolerance is not None:
        pool_nsd(rep, corpus.tree, preds, masks, args.tolerance)
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    exp.write_confusion_csv(corpus.tree, level, [level_counts(corpus.tree, pred, truth, level)], out / "confusion.csv")
    print(json.dumps(rep.to_dict()["means"], indent=2, sort_keys=True))
    return 0


def cmd_confusion(args) -> int:
    corpus = load_corpus(args.corpus)
    masks = [s.mask for s in corpus.subjects]
    fold_preds = [exp.pool_pixels(_load_preds(Path(d), masks)) for d in args.pred]
    out = Path(args.out) if args.out else Path("confusion.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    level, truth = resolve_level(corpus.tree, args.level), exp.pool_pixels(masks)
    exp.write_confusion_csv(corpus.tree, level, [level_counts(corpus.tree, pred, truth, level) for pred in fold_preds], out)
    print(f"confusion written to {out}")
    return 0


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    out = exp.run_experiment(_config(args), args.out, jobs=args.jobs)
    print((out / "report.txt").read_text(), end="")
    print(f"experiment written to {out}")
    return 0


def cmd_compare(args) -> int:
    table = exp.compare(args.reports, out=args.out)
    print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treeseg", description="Tree-based semantic segmentation losses and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    tree_p = sub.add_parser("tree", help="hierarchy utilities")
    tree_sub = tree_p.add_subparsers(dest="tree_command", required=True)
    p = tree_sub.add_parser("check", help="validate a hierarchy file")
    p.add_argument("file")
    p.set_defaults(func=cmd_tree_check)
    p = tree_sub.add_parser("distmat", help="emit the leaf distance matrix as CSV")
    p.add_argument("file")
    p.add_argument("--scheme", choices=WEIGHT_SCHEMES, default="equal")
    p.add_argument("--kappa", type=float, default=10.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tree_distmat)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", default=None, help="experiment config or bare synth block (JSON)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on fold 0 of the configured corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gate", help="apply background gating to model predictions")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--level", default="topmost")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("sweep", help="sweep the gating threshold on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--level", default="topmost")
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate stored predictions against a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--pred", required=True, help="directory with pred_sNNN.bin files")
    p.add_argument("--level", default="leaf")
    p.add_argument("--tolerance", type=float, default=None, help="NSD tolerance (dense corpora only)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("confusion", help="fold-averaged confusion matrix from prediction dirs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--pred", nargs="+", required=True)
    p.add_argument("--level", default="topmost")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_confusion)

    p = sub.add_parser("run", help="run a full experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="compare experiment reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "level"):
            args.level = parse_level(args.level)
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (TreesegError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
