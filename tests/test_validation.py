"""The validation half of a fold: run_fold scores each image once, class-major,
and must give what the public (..., C) functions give one after another."""

from __future__ import annotations

import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

import treeseg.evaluation as evaluation
import treeseg.experiment as exp
import treeseg.gating as gating
from treeseg.distances import distance_matrix
from treeseg.evaluation import confusion, level_classes, level_counts, map_to_level
from treeseg.gating import ThresholdPolicy, default_grid, gate, sweep_tau
from treeseg.hierarchy import EdgeWeightScheme, assign_weights, resolve_level
from treeseg.losses import LossSpec
from treeseg.synth import FoldSpec, Subject, SynthConfig, read_field, val_view
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


@pytest.mark.parametrize("levels, tables", [(("leaf", "topmost"), 2), (("leaf",), 2), (("leaf", 1, "topmost"), 3)])
def test_a_fold_counts_each_level_once(levels, tables, tmp_path, monkeypatch):
    """Dice, the one-vs-rest rates and the topmost confusion of a fold read one count table
    per level: evaluating levels L builds one table for each level of L and topmost, and
    the fold's confusion is the topmost report's table."""
    calls = []
    count_table = evaluation._count_table

    def counted(*args):
        calls.append(1)
        return count_table(*args)

    config = replace(two_label_fold_config("topmost"), eval_levels=levels)
    corpus = exp.build_corpus(config)
    tree, top = corpus.tree, corpus.tree.levels - 1
    assert tree.levels == 3
    fold = exp.config_folds(corpus, config)[0]
    monkeypatch.setattr(evaluation, "_count_table", counted)
    res = exp.run_fold(corpus, fold, config, tmp_path)
    assert len(calls) == tables
    if top in res.reports:
        assert res.confusion is res.reports[top].counts
    val = val_view(corpus, fold)
    written = [read_field(exp.fold_dir(tmp_path, fold.index) / f"pred_s{s:03d}.bin") for s in fold.val_subjects]
    pred, truth, domain = (exp.pool_pixels(fields) for fields in (written, [t for _, t, _ in val], [d for _, _, d in val]))
    assert np.array_equal(res.confusion, level_counts(tree, pred, truth, top, domain))


def test_a_fold_without_foreground_truth_reports_null_leaf_accuracy(tmp_path):
    """With a fixed tau, a fold whose every annotated validation pixel is held out has no
    foreground truth: its leaf accuracy and error distance are null, and its entry is valid JSON."""
    config = replace(two_label_fold_config("topmost"), tau=0.5, n_label_folds=1)
    corpus = exp.build_corpus(replace(config, synth=replace(config.synth, n_subjects=2)))
    val = corpus.subjects[1]
    corpus.subjects[1] = Subject(val.features, val.truth, np.where(val.mask > 0, 1, 0))
    res = exp.run_fold(corpus, FoldSpec(0, (0,), (1,), (1,)), config, tmp_path)
    assert res.leaf_accuracy is None and res.error_distance is None
    entry = json.loads(json.dumps(exp._fold_dict(res), allow_nan=False))
    assert entry["leaf_accuracy"] is None and entry["swept"] is False


def test_semantic_error_distance_without_errors_is_none():
    """Background predictions and unannotated truth are not errors."""
    m = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert exp.semantic_error_distance(m, np.array([1, 2, 0, 1]), np.array([1, 2, 2, 0])) is None
