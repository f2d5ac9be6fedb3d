import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from treeseg.errors import ConfigError, NormalizationError, RangeError
from treeseg.evaluation import ovr_scores
from treeseg.gating import LevelScorer, ThresholdPolicy, default_grid, first_max, gate, score_at_level, sweep_tau
from treeseg.hierarchy import leaf_level_map, level_nodes, random_tree, resolve_level
from treeseg.losses import aggregate

from conftest import make_random_tree, node_id, random_probs


class TestFirstMax:
    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12), elements=st.integers(-3, 3)))
    def test_is_numpys_argmax_and_max_down_the_columns(self, s):
        """Small integers make ties common; np.argmax takes the first index of a tie."""
        for a in (s, s.astype(float)):
            best, top = first_max(a)
            assert np.array_equal(best, np.argmax(a, axis=0))
            assert np.array_equal(top, np.max(a, axis=0))
            assert best.dtype == np.int64


class TestScoreAtLevel:
    def test_crisp_leaf_scores_one_on_its_ancestor(self, three_leaf_tree):
        t = three_leaf_tree
        p = np.array([[1.0, 0.0, 0.0]])
        scores, nodes = score_at_level(t, p, t.levels - 1)
        a_slot = nodes.index(node_id(t, "A"))
        assert scores[0, a_slot] == 1.0
        assert scores[0].sum() == 1.0

    def test_uniform_scores_are_subtree_fractions(self, three_leaf_tree):
        t = three_leaf_tree
        scores, nodes = score_at_level(t, np.full((1, 3), 1.0 / 3.0), t.levels - 1)
        by_name = {t.name_of(v): scores[0, i] for i, v in enumerate(nodes)}
        assert abs(by_name["A"] - 2.0 / 3.0) <= 1e-12
        assert abs(by_name["B"] - 1.0 / 3.0) <= 1e-12

    def test_level_zero_is_identity(self, rng, three_leaf_tree):
        p = random_probs(rng, 4, 3)
        scores, nodes = score_at_level(three_leaf_tree, p, 0)
        assert nodes == [0, 1, 2]
        assert np.array_equal(scores, p)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_aggregate_restriction(self, seed):
        t = make_random_tree(seed, ragged=True)
        rng = np.random.default_rng(seed)
        p = random_probs(rng, 3, t.n_leaves)
        for k in range(t.levels):
            scores, nodes = score_at_level(t, p, k)
            assert nodes == sorted(level_nodes(t, k))
            assert np.array_equal(scores, aggregate(t, p)[:, nodes])

    def test_bad_level(self, three_leaf_tree):
        with pytest.raises(RangeError):
            score_at_level(three_leaf_tree, np.full((1, 3), 1 / 3), 99)

    @pytest.mark.parametrize("level", [1, "topmost"])
    def test_wide_image_above_the_leaves_gets_rows_for_inner_nodes_only(self, level):
        """Scoring a (99, 16384) image allocates the planned inner nodes' rows and the
        level's, plus a few (n,) vectors: the leaf rows are read from the probabilities."""
        import tracemalloc

        rng = np.random.default_rng(19)
        tree = random_tree(rng, depth=3, branching=(4, 5))
        while tree.n_leaves != 99:
            tree = random_tree(rng, depth=3, branching=(4, 5))
        scorer = LevelScorer(tree, resolve_level(tree, level))
        assert tree.levels == 3  # level 1 is not the topmost
        n = 16384
        probs = np.ascontiguousarray(rng.dirichlet(np.ones(tree.n_leaves), size=n).T)
        scorer.score(probs)  # once untraced first
        tracemalloc.start()
        try:
            scorer.score(probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = peak / (8 * n)
        assert rows < len(scorer.plan) + len(scorer.node_ids) + 4, (rows, len(scorer.plan), len(scorer.node_ids))


class TestGate:
    def test_tau_zero_keeps_everything(self, rng):
        t = make_random_tree(3)
        p = random_probs(rng, 50, t.n_leaves)
        field = gate(t, p, ThresholdPolicy(tau=0.0))
        assert np.all(field.labels > 0)

    def test_tau_one_drops_everything(self, rng):
        t = make_random_tree(3)
        p = random_probs(rng, 50, t.n_leaves)
        field = gate(t, p, ThresholdPolicy(tau=1.0))
        assert np.all(field.labels == 0)

    def test_hand_thresholding(self):
        # three top-level groups; per-pixel top maxima 0.6 and 0.4, tau=0.5
        import json

        from treeseg.hierarchy import parse_tree

        doc = json.dumps(
            {
                "name": "r",
                "children": [
                    {"name": "g1", "children": [{"name": "g1a"}, {"name": "g1b"}]},
                    {"name": "g2", "children": [{"name": "g2a"}, {"name": "g2b"}]},
                    {"name": "g3", "children": [{"name": "g3a"}, {"name": "g3b"}]},
                ],
            }
        )
        t = parse_tree(doc)
        p = np.array(
            [
                [0.5, 0.1, 0.2, 0.0, 0.1, 0.1],  # group scores (0.6, 0.2, 0.2) -> kept
                [0.2, 0.2, 0.3, 0.1, 0.1, 0.1],  # group scores (0.4, 0.4, 0.2) -> dropped
            ]
        )
        field = gate(t, p, ThresholdPolicy(tau=0.5, level=t.levels - 1))
        assert field.labels[0] == node_id(t, "g1a") + 1  # argmax leaf inside the winning group
        assert field.labels[1] == 0

    def test_max_exactly_tau_is_background(self, three_leaf_tree):
        t = three_leaf_tree
        p = np.array([[0.25, 0.25, 0.5]])  # top scores (0.5, 0.5), not > 0.5
        assert gate(t, p, ThresholdPolicy(tau=0.5, level=t.levels - 1)).labels[0] == 0

    def test_leaf_label_lives_under_winning_top_node(self, rng):
        t = make_random_tree(8, ragged=True)
        p = random_probs(rng, 100, t.n_leaves)
        field = gate(t, p, ThresholdPolicy(tau=0.0))
        lut = leaf_level_map(t, t.levels - 1)
        for label, node in zip(field.labels, field.level_class):
            assert lut[label - 1] == node

    def test_leaf_is_argmax_within_subtree(self, rng):
        t = make_random_tree(8)
        p = random_probs(rng, 40, t.n_leaves)
        field = gate(t, p, ThresholdPolicy(tau=0.0))
        for i in range(len(p)):
            leaves = t.leaves_under(int(field.level_class[i]))
            best = leaves[int(np.argmax(p[i, leaves]))]
            assert field.labels[i] == best + 1

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_labels_match_the_subtree_argmax_at_every_level(self, rng, level):
        """Lone-leaf slots (every slot at level 0, some on a ragged tree above it) take
        their leaf without an argmax; the labels are the oracle's at every level."""
        t = make_random_tree(8, ragged=True)
        p = random_probs(rng, 200, t.n_leaves)
        field = gate(t, p, ThresholdPolicy(tau=0.3, level=level))
        scores, _ = score_at_level(t, p, level)
        for i in range(len(p)):
            leaves = t.leaves_under(int(field.level_class[i]))
            best = leaves[int(np.argmax(p[i, leaves]))] + 1
            assert field.labels[i] == (best if scores[i].max() > 0.3 else 0)
        assert field.labels.dtype == np.int64
        if level == 0:
            assert np.array_equal(field.labels[field.labels > 0], field.level_class[field.labels > 0] + 1)

    def test_nan_probabilities_are_rejected(self, rng):
        t = make_random_tree(8)
        p = random_probs(rng, 5, t.n_leaves)
        p[2] = np.nan
        with pytest.raises(NormalizationError):
            gate(t, p, ThresholdPolicy(tau=0.3))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_tau(self, seed):
        t = make_random_tree(seed)
        rng = np.random.default_rng(seed)
        p = random_probs(rng, 60, t.n_leaves)
        grid = default_grid(0.1)
        prev_fg = None
        prev_bg = -1
        for tau in grid:
            labels = gate(t, p, ThresholdPolicy(tau=float(tau))).labels
            fg = set(np.flatnonzero(labels > 0))
            bg = int((labels == 0).sum())
            assert bg >= prev_bg
            if prev_fg is not None:
                assert fg <= prev_fg
            prev_fg, prev_bg = fg, bg

    def test_gate_consistent_with_scores(self, rng):
        t = make_random_tree(15)
        p = random_probs(rng, 30, t.n_leaves)
        policy = ThresholdPolicy(tau=0.45)
        field = gate(t, p, policy)
        scores, nodes = score_at_level(t, p, policy.resolve_level(t))
        best = np.argmax(scores, axis=1)
        keep = scores[np.arange(len(best)), best] > policy.tau
        assert np.array_equal(field.labels == 0, ~keep)
        assert np.array_equal(field.level_class, np.asarray(nodes)[best])

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            ThresholdPolicy(tau=1.5)

    @pytest.mark.parametrize("level", ["leaf", 1, "topmost"])
    def test_a_scored_image_holds_only_per_pixel_vectors(self, rng, level):
        """Scoring reduces an image's (C, n) probabilities to (n,) vectors and keeps none of them."""
        t = make_random_tree(15)
        p = np.ascontiguousarray(random_probs(rng, 30, t.n_leaves).T)
        image = LevelScorer(t, resolve_level(t, level)).score(p)
        for f in dataclasses.fields(image):
            value = getattr(image, f.name)
            assert isinstance(value, np.ndarray) and value.shape == (30,), f.name
            assert not np.shares_memory(value, p), f.name


class TestSweep:
    def _perfect_single_class_setup(self):
        t = make_random_tree(2)
        c = t.n_leaves
        probs = np.full((20, c), 1e-6)
        probs[:, 0] = 1.0 - 1e-6 * (c - 1)
        masks = np.ones(20, dtype=int)  # every pixel is leaf code 1
        return t, [probs], [masks]

    def test_perfect_model_takes_largest_tau(self):
        t, probs, masks = self._perfect_single_class_setup()
        grid = default_grid(0.01)
        tau_m, curve = sweep_tau(t, probs, masks, t.levels - 1, grid)
        # F1 stays 1.0 until tau reaches the score; tie-break takes the largest
        ones = curve[curve[:, 3] == 1.0][:, 0]
        assert tau_m == ones.max()

    def test_single_point_grid(self):
        t, probs, masks = self._perfect_single_class_setup()
        tau_m, curve = sweep_tau(t, probs, masks, t.levels - 1, np.array([0.0]))
        assert tau_m == 0.0
        assert curve.shape == (1, 4)

    def test_empty_grid_or_empty_masks_rejected(self):
        t, probs, masks = self._perfect_single_class_setup()
        with pytest.raises(ConfigError):
            sweep_tau(t, probs, masks, t.levels - 1, np.array([]))
        with pytest.raises(ConfigError):
            sweep_tau(t, probs, [np.zeros(20, dtype=int)], t.levels - 1, np.array([0.0]))

    def test_one_mask_per_field(self):
        t, probs, masks = self._perfect_single_class_setup()
        with pytest.raises(ConfigError, match="need one mask per probability field"):
            sweep_tau(t, probs, masks * 2, t.levels - 1, np.array([0.0]))

    def test_an_image_without_annotated_pixels_changes_nothing(self, rng):
        t = make_random_tree(33)
        scorer = LevelScorer(t, t.levels - 1)
        images = [scorer.score(np.ascontiguousarray(random_probs(rng, n, t.n_leaves).T)) for n in (30, 40)]
        masks = [np.zeros(30, dtype=int), rng.integers(0, t.n_leaves + 1, size=40)]
        grid = default_grid(0.05)
        tau, curve = scorer.sweep(images, masks, grid)
        alone_tau, alone_curve = scorer.sweep(images[1:], masks[1:], grid)
        assert tau == alone_tau
        assert np.array_equal(curve, alone_curve)

    def test_matches_exhaustive_gate_and_score_oracle(self, rng):
        t = make_random_tree(33)
        k = t.levels - 1
        probs = [random_probs(rng, 80, t.n_leaves), random_probs(rng, 50, t.n_leaves)]
        masks = [rng.integers(0, t.n_leaves + 1, size=80), rng.integers(0, t.n_leaves + 1, size=50)]
        grid = default_grid(0.05)
        tau_m, curve = sweep_tau(t, probs, masks, k, grid)

        lut = leaf_level_map(t, k) + 1
        best_tau, best_f1 = None, -1.0
        for row, tau in enumerate(grid):
            preds, trues = [], []
            for p, mask in zip(probs, masks):
                ann = mask > 0
                labels = gate(t, p[ann], ThresholdPolicy(tau=float(tau), level=k)).labels
                top = np.where(labels > 0, lut[np.maximum(labels - 1, 0)], 0)
                preds.append(top)
                trues.append(lut[mask[ann] - 1])
            pred = np.concatenate(preds)
            true = np.concatenate(trues)
            classes = sorted(int(x) for x in np.unique(true))
            f1 = float(np.nanmean(ovr_scores(pred, true, classes)["f1"]))
            assert abs(f1 - curve[row, 3]) <= 1e-12
            if f1 > best_f1 or (f1 == best_f1 and tau > best_tau):
                best_tau, best_f1 = float(tau), f1
        assert tau_m == best_tau
