import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeseg.distances import distance_matrix, solve_transport_lp, tree_wasserstein
from treeseg.errors import NormalizationError
from treeseg.hierarchy import EdgeWeightScheme, assign_weights, parse_tree

from conftest import make_random_tree, node_id, random_probs


def equal_weighted(tree):
    return assign_weights(tree, EdgeWeightScheme("equal"))


class TestDistanceMatrix:
    def test_two_leaves_under_root(self):
        t = equal_weighted(parse_tree(json.dumps({"name": "r", "children": [{"name": "a"}, {"name": "b"}]})))
        assert np.array_equal(distance_matrix(t), [[0.0, 2.0], [2.0, 0.0]])

    def test_depth2_balanced_hier10(self):
        doc = json.dumps(
            {
                "name": "r",
                "children": [
                    {"name": "L", "children": [{"name": "l1"}, {"name": "l2"}]},
                    {"name": "R", "children": [{"name": "r1"}, {"name": "r2"}]},
                ],
            }
        )
        t = assign_weights(parse_tree(doc), EdgeWeightScheme("hier", kappa=10.0))
        m = distance_matrix(t)
        i = {name: node_id(t, name) for name in ("l1", "l2", "r1", "r2")}
        assert m[i["l1"], i["l2"]] == 2.0  # same parent: two leaf edges
        assert m[i["l1"], i["r1"]] == 2.0 + 2.0 * 10.0  # across the root

    def test_leaf_only_gives_all_twos(self):
        t = assign_weights(make_random_tree(5, depth=3), EdgeWeightScheme("leaf"))
        m = distance_matrix(t)
        off = m[~np.eye(m.shape[0], dtype=bool)]
        assert np.all(off == 2.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_tree_metric_axioms(self, seed, ragged):
        t = equal_weighted(make_random_tree(seed, ragged=ragged))
        m = distance_matrix(t)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0)
        assert np.all(m[~np.eye(len(m), dtype=bool)] > 0)
        rng = np.random.default_rng(seed)
        c = len(m)
        for _ in range(200):
            i, j, k = rng.integers(0, c, 3)
            assert m[i, k] <= m[i, j] + m[j, k] + 1e-12

    def test_four_point_condition(self):
        # for tree metrics the two largest of the three pairings coincide
        t = equal_weighted(make_random_tree(17, depth=4))
        m = distance_matrix(t)
        rng = np.random.default_rng(0)
        c = len(m)
        for _ in range(500):
            i, j, k, l = rng.integers(0, c, 4)
            sums = sorted([m[i, j] + m[k, l], m[i, k] + m[j, l], m[i, l] + m[j, k]])
            assert sums[2] - sums[1] <= 1e-9

    def test_weight_scaling_scales_distances(self):
        t = make_random_tree(23)
        base = assign_weights(t, EdgeWeightScheme("equal"))
        scaled = base
        scaled = scaled.__class__(
            nodes=base.nodes,
            root=base.root,
            parent=base.parent,
            edge_weight={v: 3.5 * w for v, w in base.edge_weight.items()},
            depth=base.depth,
            levels=base.levels,
        )
        assert np.allclose(distance_matrix(scaled), 3.5 * distance_matrix(base))


class TestTransportLP:
    def test_identical_marginals_cost_zero(self, three_leaf_tree):
        m = distance_matrix(equal_weighted(three_leaf_tree))
        p = np.array([0.2, 0.5, 0.3])
        cost, plan = solve_transport_lp(m, p, p)
        assert abs(cost) <= 1e-9
        assert np.allclose(plan.sum(axis=1), p, atol=1e-9)

    def test_all_mass_moves(self):
        m = np.array([[0.0, 2.0], [2.0, 0.0]])
        cost, _ = solve_transport_lp(m, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert abs(cost - 2.0) <= 1e-9

    def test_crisp_target_cost_is_closed_form(self):
        t = equal_weighted(make_random_tree(2, depth=2, branching=(2, 3)))
        c = t.n_leaves
        m = distance_matrix(t)
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = random_probs(rng, 1, c)[0]
            g = np.zeros(c)
            g[rng.integers(c)] = 1.0
            cost, _ = solve_transport_lp(m, p, g)
            assert abs(cost - p @ m @ g) <= 1e-9

    def test_unnormalized_input_raises(self):
        m = np.zeros((2, 2))
        with pytest.raises(NormalizationError):
            solve_transport_lp(m, np.array([0.5, 0.6]), np.array([0.5, 0.5]))
        with pytest.raises(NormalizationError):
            solve_transport_lp(m, np.array([1.5, -0.5]), np.array([0.5, 0.5]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(NormalizationError, match=r"shape mismatch: M \(2, 2\), p 2, q 3"):
            solve_transport_lp(np.zeros((2, 2)), np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))

    def test_nan_marginal_raises(self):
        m = np.zeros((2, 2))
        for bad in (np.array([np.nan, 1.0]), np.array([np.nan, np.nan])):
            with pytest.raises(NormalizationError):
                solve_transport_lp(m, bad, np.array([0.5, 0.5]))
            with pytest.raises(NormalizationError):
                tree_wasserstein(parse_tree('{"name": "r", "children": [{"name": "a"}, {"name": "b"}]}'), np.array([0.5, 0.5]), bad)

    def test_plan_marginals(self):
        t = equal_weighted(make_random_tree(4))
        c = t.n_leaves
        m = distance_matrix(t)
        rng = np.random.default_rng(10)
        p, q = random_probs(rng, 2, c)
        cost, plan = solve_transport_lp(m, p, q)
        assert np.all(plan >= -1e-12)
        assert np.abs(plan.sum(axis=1) - p).max() <= 1e-9
        assert np.abs(plan.sum(axis=0) - q).max() <= 1e-9


class TestTreeWasserstein:
    def test_identical_inputs_zero(self, three_leaf_tree):
        t = equal_weighted(three_leaf_tree)
        p = np.full(3, 1.0 / 3.0)
        assert tree_wasserstein(t, p, p) == 0.0

    def test_same_parent_crisp_pair(self, three_leaf_tree):
        t = equal_weighted(three_leaf_tree)
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 1.0, 0.0])
        assert abs(tree_wasserstein(t, p, q) - 2.0) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_lp_oracle(self, seed):
        t = equal_weighted(make_random_tree(seed, depth=3, branching=(2, 3)))
        m = distance_matrix(t)
        rng = np.random.default_rng(seed + 1)
        p, q = random_probs(rng, 2, t.n_leaves)
        lp_cost, _ = solve_transport_lp(m, p, q)
        assert abs(tree_wasserstein(t, p, q) - lp_cost) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry_and_triangle(self, seed):
        t = equal_weighted(make_random_tree(seed))
        rng = np.random.default_rng(seed)
        p, q, r = random_probs(rng, 3, t.n_leaves)
        assert abs(tree_wasserstein(t, p, q) - tree_wasserstein(t, q, p)) <= 1e-12
        assert tree_wasserstein(t, p, r) <= tree_wasserstein(t, p, q) + tree_wasserstein(t, q, r) + 1e-12

    def test_scaling_weights_scales_w(self):
        t = equal_weighted(make_random_tree(31))
        scaled = t.__class__(
            nodes=t.nodes,
            root=t.root,
            parent=t.parent,
            edge_weight={v: 2.0 * w for v, w in t.edge_weight.items()},
            depth=t.depth,
            levels=t.levels,
        )
        rng = np.random.default_rng(5)
        p, q = random_probs(rng, 2, t.n_leaves)
        assert np.isclose(tree_wasserstein(scaled, p, q), 2.0 * tree_wasserstein(t, p, q))
