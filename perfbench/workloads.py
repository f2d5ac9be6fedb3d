"""The benchmark's workloads: inputs made from a seed, one op, and its checks.

Every workload uses a random depth-3 tree drawn from the workload seed and
redrawn until it has the workload's leaf count, so the amount of work is
the same for every seed while the inputs differ. At seed 0 the first draw
is the tree ``treeseg.synth.generate`` itself samples, so seed 0 is the
README default corpus.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import treeseg.cli as cli
import treeseg.experiment as exp
from treeseg.hierarchy import LabelTree, random_tree, serialize
from treeseg.seeding import substream
import treeseg.synth as synth

LOSS = {"scheme": "hier", "kappa": 10, "alpha": 0.5, "beta": 0.5, "seg": "ce"}
TRAIN = {"model": "linear", "lr": 0.05, "epochs": 50}
SYNTH = {"n_subjects": 16, "height": 64, "width": 64, "channels": 16, "n_regions": 48, "sparsity": 0.6}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    branching: tuple[int, int]
    n_leaves: int
    config: dict  # experiment config without hierarchy, corpus or seed
    jobs: int = 1
    corpus: dict | None = None  # synth block of a corpus made and saved in set-up
    via_cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wass-default",
            why="README default wass run (C=21): the loss kernels take ~78% of it, gating and evaluation ~3%",
            branching=(2, 3),
            n_leaves=21,
            config={
                "loss": {"semantic": "wass", **LOSS},
                "train": TRAIN,
                "synth": SYNTH,
                "gate": {"level": "topmost"},
                "eval": {"levels": ["leaf", "topmost"]},
                "preproc": "standardize",
                "n_subject_folds": 2,
                "n_label_folds": 1,
            },
        ),
        Workload(
            name="twce-heldout-j2",
            why="twce with 2 label folds on 2 threads: per-batch tree walks, held-out pseudo-background, threaded folds",
            branching=(2, 3),
            n_leaves=21,
            config={
                "loss": {"semantic": "twce", **LOSS},
                "train": TRAIN,
                "synth": SYNTH,
                "gate": {"level": "topmost"},
                "eval": {"levels": ["leaf", "topmost"]},
                "preproc": "standardize",
                "n_subject_folds": 2,
                "n_label_folds": 2,
            },
            jobs=2,
        ),
        Workload(
            name="dense-leafgate-wide",
            why="C=99 dense corpus from disk via cli run, leaf gating, NSD: sweep_tau, NSD and gate dominate, training ~20%",
            branching=(4, 5),
            n_leaves=99,
            config={
                "loss": {"semantic": "wass", **LOSS},
                "train": {**TRAIN, "epochs": 1},
                # "leaf" is what is meant, but config_from_dict rejects it
                "gate": {"level": 0},
                "eval": {"levels": ["leaf", 1, "topmost"], "tolerance": 2},
                "preproc": "standardize",
                "n_subject_folds": 2,
                "n_label_folds": 1,
            },
            corpus={"n_subjects": 8, "height": 128, "width": 128, "channels": 16, "n_regions": 160, "sparsity": 1.0},
            via_cli=True,
        ),
    )
}


def workload_tree(seed: int, branching: tuple[int, int], n_leaves: int) -> LabelTree:
    """The first depth-3 tree drawn from the seed that has ``n_leaves`` leaves."""
    draw = 0
    while True:
        rng = substream(seed, "tree") if draw == 0 else substream(seed, "bench-tree", draw)
        tree = random_tree(rng, 3, branching)
        if tree.n_leaves == n_leaves:
            return tree
        draw += 1


@dataclass
class Inputs:
    workload: Workload
    tree: LabelTree
    config_path: Path
    config: exp.ExperimentConfig


def make_inputs(w: Workload, seed: int, root: Path) -> Inputs:
    """Write the workload's hierarchy or corpus and its config under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    tree = workload_tree(seed, w.branching, w.n_leaves)
    data = dict(w.config, seed=seed)
    if w.corpus is not None:
        # through the module, so a tracer installed during set-up sees these calls
        synth.save_corpus(synth.generate(synth.SynthConfig(tree=tree, seed=seed, **w.corpus)), root / "corpus")
        data["corpus"] = "corpus"
    else:
        (root / "hierarchy.json").write_text(serialize(tree))
        data["hierarchy"] = "hierarchy.json"
    path = root / "config.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True))
    return Inputs(w, tree, path, exp.load_config(path))


class OpFailed(Exception):
    pass


def run_op(inputs: Inputs, out: Path) -> None:
    """One op: a seeded run of the whole pipeline into ``out``."""
    w = inputs.workload
    if w.via_cli:
        argv = ["run", "--config", str(inputs.config_path), "--out", str(out), "--jobs", str(w.jobs)]
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"treeseg run exited with code {code}")
    else:
        exp.run_experiment(inputs.config, out, jobs=w.jobs)


# -- correctness -------------------------------------------------------------


def check_manifest(out: Path) -> str:
    """Verify manifest.json lists exactly the files on disk with their hashes."""
    text = (out / "manifest.json").read_text()
    listed = json.loads(text)["files"]
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"}
    if set(listed) != on_disk:
        raise OpFailed(f"manifest lists {sorted(set(listed) ^ on_disk)} wrongly")
    for rel, digest in listed.items():
        if hashlib.sha256((out / rel).read_bytes()).hexdigest() != digest:
            raise OpFailed(f"{rel} does not match its manifest hash")
    return text


def _read_codes(path: Path) -> np.ndarray:
    with open(path, "rb") as f:
        h, w, d = (int(x) for x in f.readline().split())
        codes = np.frombuffer(f.read(), dtype="<i8")
    if d != 1 or codes.size != h * w:
        raise OpFailed(f"{path.name}: bad label field")
    return codes


def _top_codes(tree: LabelTree) -> np.ndarray:
    """Lookup from leaf code (0 = background) to the code of its root child."""
    lut = np.zeros(tree.n_leaves + 1, dtype=np.int64)
    for leaf in range(tree.n_leaves):
        v = leaf
        while tree.parent[v] != tree.root:
            v = tree.parent[v]
        lut[leaf + 1] = v + 1
    return lut


def topmost_f1(pred: np.ndarray, truth: np.ndarray, classes: list[int]) -> float:
    """Mean one-vs-rest F1 over the classes present in ``truth``."""
    f1 = []
    for c in classes:
        pos, hit = truth == c, pred == c
        n_pos = int(pos.sum())
        if n_pos:
            tp = int((pos & hit).sum())
            f1.append(2.0 * tp / (n_pos + int(hit.sum())))
    return float(np.mean(f1))


def check_report(inputs: Inputs, out: Path, masks: list[np.ndarray]) -> dict:
    """Recompute each fold's topmost F1 from the prediction files and compare
    it with report.json; return the report's means."""
    report = json.loads((out / "report.json").read_text())
    tree = inputs.tree
    top = str(tree.levels - 1)
    lut = _top_codes(tree)
    classes = sorted(int(c) + 1 for c in tree.children(tree.root))
    folds = report["folds"]
    n_expected = inputs.config.n_subject_folds * inputs.config.n_label_folds
    if len(folds) != n_expected:
        raise OpFailed(f"report has {len(folds)} folds, expected {n_expected}")
    for fold in folds:
        held = np.asarray(fold["held_out"], dtype=np.int64)
        preds, truths = [], []
        for s in fold["val_subjects"]:
            mask = masks[s].reshape(-1)
            domain = mask > 0
            truth = np.where(np.isin(mask, held), 0, mask)
            preds.append(lut[_read_codes(out / f"fold_{fold['index']:03d}" / f"pred_s{s:03d}.bin")][domain])
            truths.append(lut[truth][domain])
        ours = topmost_f1(np.concatenate(preds), np.concatenate(truths), classes)
        theirs = fold["levels"][top]["means"]["f1"]
        if not abs(ours - theirs) <= 1e-9:
            raise OpFailed(f"fold {fold['index']}: report topmost F1 {theirs} != recomputed {ours}")
    means = report["means"]
    values = {
        "top_f1": means["levels"][top]["f1"],
        "leaf_acc": means["leaf_accuracy"],
        "err_tree_dist": means["semantic_error_distance"],
    }
    if not (0 < values["top_f1"] <= 1 and 0 < values["leaf_acc"] <= 1 and values["err_tree_dist"] > 0):
        raise OpFailed(f"report means out of range: {values}")
    return values


def corpus_masks(inputs: Inputs) -> list[np.ndarray]:
    """The annotation masks of the op's corpus, for the independent check."""
    cfg = inputs.config
    if cfg.corpus_path is not None:
        corpus = synth.load_corpus(cfg.corpus_path)
    else:
        corpus = synth.generate(replace(cfg.synth, seed=cfg.seed))
    return [s.mask for s in corpus.subjects]
