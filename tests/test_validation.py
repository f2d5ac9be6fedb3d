"""The validation half of a fold: run_fold scores each image once, class-major,
and must give what the public (..., C) functions give one after another."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

import treeseg.experiment as exp
import treeseg.gating as gating
from treeseg.distances import distance_matrix
from treeseg.evaluation import confusion, level_classes, map_to_level
from treeseg.gating import ThresholdPolicy, default_grid, gate, sweep_tau
from treeseg.hierarchy import EdgeWeightScheme, assign_weights, resolve_level
from treeseg.losses import LossSpec
from treeseg.synth import SynthConfig, read_field, val_view
from treeseg.training import TrainConfig, predict


def two_label_fold_config(gate_level) -> exp.ExperimentConfig:
    """Two subject folds by two label folds: each fold's held-out classes are pseudo-background."""
    return exp.ExperimentConfig(
        loss=LossSpec("wass", EdgeWeightScheme("hier", kappa=10.0)),
        train=TrainConfig(model="linear", lr=0.05, epochs=3),
        synth=SynthConfig(n_subjects=4, height=16, width=16, channels=4, n_regions=24, sparsity=0.7),
        gate_level=gate_level,
        grid_step=0.05,
        n_label_folds=2,
        seed=3,
    )


@pytest.mark.parametrize("gate_level", [0, 1, "topmost"])
def test_run_fold_is_predict_sweep_gate_argmax(gate_level, tmp_path):
    config = two_label_fold_config(gate_level)
    corpus = exp.build_corpus(config)
    tree = corpus.tree
    k = resolve_level(tree, gate_level)
    assert tree.levels == 3  # levels 0, 1 and topmost are three different levels
    m_err = distance_matrix(assign_weights(tree, exp.ERROR_METRIC_SCHEME))
    folds = exp.config_folds(corpus, config)
    assert len(folds) == 4 and all(f.held_out for f in folds)
    for fold in folds:
        res = exp.run_fold(corpus, fold, config, tmp_path)
        written = [read_field(exp.fold_dir(tmp_path, fold.index) / f"pred_s{s:03d}.bin") for s in fold.val_subjects]

        params, _ = exp.fit(corpus, fold, config)
        val = val_view(corpus, fold)
        probs = [predict(params, f) for f, _, _ in val]
        truths = [t for _, t, _ in val]
        truth, domain = exp.pool_pixels(truths), exp.pool_pixels([d for _, _, d in val])
        assert (domain & (truth == 0)).any()  # pseudo-background is scored
        tau, curve = sweep_tau(tree, probs, truths, k, default_grid(config.grid_step))
        preds = [gate(tree, p, ThresholdPolicy(tau, level=k)).labels for p in probs]
        raw = exp.pool_pixels([np.argmax(p, axis=-1) + 1 for p in probs])
        fg = domain & (truth > 0)

        assert res.tau == tau
        assert np.array_equal(res.curve, curve, equal_nan=True)
        assert len(written) == len(preds)
        for ours, theirs in zip(written, preds):
            assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
        assert res.leaf_accuracy == float(np.mean(raw[fg] == truth[fg]))
        assert res.error_distance == exp.semantic_error_distance(m_err, np.where(fg, raw, 0), np.where(fg, truth, 0))


@pytest.mark.parametrize("gate_level", [0, "topmost"])
def test_each_validation_image_is_scored_once_per_fold(monkeypatch, tmp_path, gate_level):
    """One level-score pass (column check, level sums) per validation image, shared by
    the sweep, the gate and the leaf argmax; none of the public entry points runs."""
    config = two_label_fold_config(gate_level)
    corpus = exp.build_corpus(config)
    scored, summed = [], []
    scores, sum_up = gating.LevelScorer.scores, gating._sum_up
    monkeypatch.setattr(gating.LevelScorer, "scores", lambda self, p: scored.append(p.shape) or scores(self, p))
    monkeypatch.setattr(gating, "_sum_up", lambda *a: summed.append(1) or sum_up(*a))

    def forbidden(*args, **kwargs):
        raise AssertionError("run_fold went through a public (..., C) entry point")

    for name in ("score_at_level", "gate", "sweep_tau"):
        monkeypatch.setattr(gating, name, forbidden)
    monkeypatch.setattr("treeseg.training.predict", forbidden)
    fold = exp.config_folds(corpus, config)[0]
    exp.run_fold(corpus, fold, config, tmp_path)
    assert scored == [(corpus.tree.n_leaves, 16 * 16)] * len(fold.val_subjects)
    assert len(summed) == (0 if gate_level == 0 else len(fold.val_subjects))


def test_a_fold_result_holds_no_pixels(tmp_path):
    """run_fold writes its predictions and hands back counts and scores: the pickled
    result is as long for 32x32 validation images as for 16x16 ones, and its
    confusion table counts the written predictions at the topmost level."""
    sizes = []
    for side in (16, 32):
        base = two_label_fold_config("topmost")
        config = replace(base, synth=replace(base.synth, height=side, width=side))
        corpus = exp.build_corpus(config)
        tree, top = corpus.tree, corpus.tree.levels - 1
        fold = exp.config_folds(corpus, config)[0]
        res = exp.run_fold(corpus, fold, config, tmp_path / str(side))
        sizes.append(len(pickle.dumps(res)))

        val = val_view(corpus, fold)
        written = [read_field(exp.fold_dir(tmp_path / str(side), fold.index) / f"pred_s{s:03d}.bin") for s in fold.val_subjects]
        assert written[0].shape == (side, side)
        pred, truth = exp.pool_pixels(written), exp.pool_pixels([t for _, t, _ in val])
        expected = confusion(
            [map_to_level(tree, pred, top)], [map_to_level(tree, truth, top)], level_classes(tree, top),
            [exp.pool_pixels([d for _, _, d in val])], include_background=True,
        )
        assert res.confusion.shape == (len(expected.classes),) * 2
        assert np.array_equal(res.confusion, expected.per_fold[0])
    assert sizes[0] == sizes[1]
