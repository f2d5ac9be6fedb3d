import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeseg.losses as losses
from treeseg.distances import distance_matrix, solve_transport_lp
from treeseg.errors import ConfigError, EmptyMaskError, LabelError, NormalizationError
from treeseg.hierarchy import EdgeWeightScheme, LabelTree, adjacency, assign_weights, parse_tree
from treeseg.losses import (
    LossSpec,
    aggregate,
    compound_twce,
    compound_wass,
    make_loss,
    seg_loss_ce,
    seg_loss_dice,
    softmax,
    tree_weighted_ce,
    wasserstein_crisp,
)

from conftest import assert_twce_close, make_random_tree, node_id, random_probs, relative_grad_error

TWO_LEAF_M = np.array([[0.0, 2.0], [2.0, 0.0]])


def equal_weighted(tree):
    return assign_weights(tree, EdgeWeightScheme("equal"))


class TestWassersteinCrisp:
    def test_matching_crisp_prediction_is_zero(self):
        logits = np.array([[50.0, 0.0], [0.0, 50.0]])
        target = np.array([1, 2])
        loss, grad = wasserstein_crisp(TWO_LEAF_M, logits, target)
        assert loss <= 1e-12

    def test_half_half_prediction(self):
        # p = (0.5, 0.5) against class 2: expected distance 2 * 0.5 = 1.0
        logits = np.array([[0.0, 0.0]])
        loss, _ = wasserstein_crisp(TWO_LEAF_M, logits, np.array([2]))
        assert abs(loss - 1.0) <= 1e-12

    def test_matches_lp_oracle_on_random_instances(self):
        t = equal_weighted(make_random_tree(12, depth=2, branching=(2, 3)))
        m = distance_matrix(t)
        c = t.n_leaves
        rng = np.random.default_rng(3)
        for _ in range(10):
            logits = rng.normal(size=(1, c))
            code = int(rng.integers(1, c + 1))
            loss, _ = wasserstein_crisp(m, logits, np.array([code]))
            g = np.zeros(c)
            g[code - 1] = 1.0
            lp_cost, _ = solve_transport_lp(m, softmax(logits)[0], g)
            assert abs(loss - lp_cost) <= 1e-9

    def test_mask_restriction(self):
        # unannotated pixels are invisible: permuting or adding them changes nothing
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 2))
        target = np.array([1, 0, 2, 0, 1])
        base, _ = wasserstein_crisp(TWO_LEAF_M, logits, target)
        swapped = logits.copy()
        swapped[[1, 3]] = swapped[[3, 1]]
        also, _ = wasserstein_crisp(TWO_LEAF_M, swapped, target)
        assert also == base
        extended = np.vstack([logits, rng.normal(size=(3, 2))])
        more, _ = wasserstein_crisp(TWO_LEAF_M, extended, np.concatenate([target, [0, 0, 0]]))
        assert more == base

    def test_label_and_mask_errors(self):
        with pytest.raises(LabelError):
            wasserstein_crisp(TWO_LEAF_M, np.zeros((1, 2)), np.array([3]))
        with pytest.raises(EmptyMaskError):
            wasserstein_crisp(TWO_LEAF_M, np.zeros((1, 2)), np.array([0]))

    def test_loss_callable_checks_logits_against_its_tree_and_target(self, three_leaf_tree):
        fn = make_loss(three_leaf_tree, LossSpec("wass", EdgeWeightScheme("equal")))
        with pytest.raises(LabelError, match=r"expected class-major logits with 3 rows, got shape \(2, 4\)"):
            fn(np.zeros((2, 4)), np.array([1, 2, 3, 1]))
        with pytest.raises(LabelError, match="target has 3 pixels, logits have 4"):
            fn(np.zeros((3, 4)), np.array([1, 2, 3]))

    def test_argmin_at_true_class(self):
        t = assign_weights(make_random_tree(6), EdgeWeightScheme("hier", kappa=3.0))
        m = distance_matrix(t)
        c = t.n_leaves
        g = 2  # code
        losses = []
        for leaf in range(c):
            logits = np.full((1, c), -40.0)
            logits[0, leaf] = 40.0
            losses.append(wasserstein_crisp(m, logits, np.array([g]))[0])
        assert int(np.argmin(losses)) == g - 1
        assert losses[g - 1] < min(x for i, x in enumerate(losses) if i != g - 1)


class TestSegLosses:
    def test_uniform_ce_is_log_c(self):
        c = 7
        loss, _ = seg_loss_ce(np.zeros((4, c)), np.ones(4, dtype=int))
        assert abs(loss - np.log(c)) <= 1e-12

    def test_perfect_prediction(self):
        logits = np.array([[60.0, 0.0, 0.0], [0.0, 60.0, 0.0]])
        target = np.array([1, 2])
        ce, _ = seg_loss_ce(logits, target)
        dc, _ = seg_loss_dice(logits, target)
        assert ce <= 1e-12
        assert dc <= 1e-6  # epsilon smoothing keeps it just above zero

    def test_dice_rejects_sparse(self):
        with pytest.raises(ConfigError):
            seg_loss_dice(np.zeros((2, 2)), np.array([1, 0]))

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(6, 4))
        target = rng.integers(1, 5, size=6)
        for fn in (seg_loss_ce, seg_loss_dice):
            _, grad = fn(logits, target)
            assert np.abs(grad.sum(axis=1)).max() <= 1e-8


class TestAggregate:
    def test_wrong_leaf_count_is_normalization_error(self, three_leaf_tree):
        with pytest.raises(NormalizationError, match="expected 3 leaf columns, got 2"):
            losses.check_columns(np.full((2, 4), 0.5), three_leaf_tree.n_leaves)

    def test_uniform_distribution(self, three_leaf_tree):
        t = three_leaf_tree
        out = aggregate(t, np.full((1, 3), 1.0 / 3.0))[0]
        assert abs(out[t.root] - 1.0) <= 1e-12
        assert abs(out[node_id(t, "A")] - 2.0 / 3.0) <= 1e-12
        assert abs(out[node_id(t, "B")] - 1.0 / 3.0) <= 1e-12

    def test_crisp_leaf_lights_up_ancestors(self, three_leaf_tree):
        t = three_leaf_tree
        p = np.zeros((1, 3))
        p[0, 0] = 1.0  # leaf a1
        out = aggregate(t, p)[0]
        on = {v for v in range(t.n_nodes) if out[v] == 1.0}
        assert on == set(t.ancestors(0))
        assert np.all(out[sorted(set(range(t.n_nodes)) - on)] == 0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_matches_dense_inverse(self, seed, ragged):
        t = make_random_tree(seed, ragged=ragged)
        rng = np.random.default_rng(seed)
        p = random_probs(rng, 4, t.n_leaves)
        ours = aggregate(t, p)
        a = adjacency(t)
        padded = np.zeros((4, t.n_nodes))
        padded[:, : t.n_leaves] = p
        dense = padded @ np.linalg.inv(np.eye(t.n_nodes) - a).T
        assert np.abs(ours - dense).max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_level_sums_are_one(self, seed, ragged):
        from treeseg.hierarchy import level_nodes

        t = make_random_tree(seed, depth=4, ragged=ragged)
        rng = np.random.default_rng(seed)
        out = aggregate(t, random_probs(rng, 3, t.n_leaves))
        assert np.abs(out[:, t.root] - 1.0).max() <= 1e-12
        for k in range(t.levels):
            members = sorted(level_nodes(t, k))
            assert np.abs(out[:, members].sum(axis=1) - 1.0).max() <= 1e-12


class TestTreeWeightedCE:
    def test_leaf_only_weights_reduce_to_ce(self):
        t = assign_weights(make_random_tree(9), EdgeWeightScheme("leaf"))
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(8, t.n_leaves))
        target = rng.integers(1, t.n_leaves + 1, size=8)
        target[2] = 0
        tw, tw_grad = tree_weighted_ce(t, logits, target)
        ce, ce_grad = seg_loss_ce(logits, target)
        assert abs(tw - ce) <= 1e-12
        assert np.abs(tw_grad - ce_grad).max() <= 1e-12

    def test_crisp_correct_prediction_is_zero(self, three_leaf_tree):
        t = equal_weighted(three_leaf_tree)
        logits = np.array([[200.0, 0.0, 0.0]])
        loss, _ = tree_weighted_ce(t, logits, np.array([1]))
        assert loss <= 1e-12

    def test_hand_computed_value(self, three_leaf_tree):
        # p = (0.2, 0.3, 0.5), truth a1, equal weights:
        # -log p(a1) - log p(A) = -log 0.2 - log 0.5 = log 10
        t = equal_weighted(three_leaf_tree)
        logits = np.log(np.array([[0.2, 0.3, 0.5]]))
        loss, _ = tree_weighted_ce(t, logits, np.array([1]))
        assert abs(loss - 2.302585092994046) <= 1e-12

    def test_nonnegative(self):
        t = equal_weighted(make_random_tree(13))
        rng = np.random.default_rng(13)
        for _ in range(20):
            logits = rng.normal(size=(3, t.n_leaves))
            target = rng.integers(1, t.n_leaves + 1, size=3)
            loss, _ = tree_weighted_ce(t, logits, target)
            assert loss >= 0.0


class TestCompound:
    def test_alpha_zero_is_seg_loss(self):
        t = make_random_tree(21)
        spec = LossSpec("wass", EdgeWeightScheme("equal"), seg="ce", alpha=0.0, beta=1.0)
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(5, t.n_leaves))
        target = rng.integers(1, t.n_leaves + 1, size=5)
        loss, grad = compound_wass(spec, t, logits, target)
        ce, ce_grad = seg_loss_ce(logits, target)
        assert loss == ce
        assert np.array_equal(grad, ce_grad)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("semantic", ["wass", "twce"])
    def test_alpha_zero_compiles_no_tree(self, monkeypatch, semantic, sparse):
        """With alpha = 0 make_loss assigns no edge weights and builds no distance matrix or
        chain tables, and its callable still gives seg_loss_ce's bits."""

        def compiled(*args, **kwargs):
            raise AssertionError("alpha = 0 compiled the tree")

        for name in ("assign_weights", "distance_matrix", "_Wasserstein", "_TreeCE"):
            monkeypatch.setattr(losses, name, compiled)
        t = make_random_tree(21)
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(40, t.n_leaves))
        target = rng.integers(0 if sparse else 1, t.n_leaves + 1, size=40)
        loss_fn = make_loss(t, LossSpec(semantic, EdgeWeightScheme("hier", kappa=3.0), seg="ce", alpha=0.0, beta=1.0))
        loss, grad = loss_fn(np.array(logits.T, order="C"), target)
        ce, ce_grad = seg_loss_ce(logits, target)
        assert loss == ce
        assert np.array_equal(grad, ce_grad.T)

    def test_beta_zero_perfect_prediction_is_zero(self):
        t = make_random_tree(22)
        spec = LossSpec("wass", EdgeWeightScheme("equal"), seg="ce", alpha=1.0, beta=0.0)
        c = t.n_leaves
        logits = np.full((c, c), -50.0)
        np.fill_diagonal(logits, 50.0)
        target = np.arange(1, c + 1)
        loss, _ = compound_wass(spec, t, logits, target)
        assert loss <= 1e-12

    def test_two_pixel_hand_value(self):
        # leaves x, y under one root, equal weights, alpha = beta = 0.5:
        # pixel 1: p=(0.75,0.25), g=x -> W = 0.5, CE = -log 0.75
        # pixel 2: p=(0.5,0.5),   g=y -> W = 1.0, CE = -log 0.5
        doc = json.dumps({"name": "r", "children": [{"name": "x"}, {"name": "y"}]})
        tree = parse_tree(doc)
        spec = LossSpec("wass", EdgeWeightScheme("equal"), seg="ce", alpha=0.5, beta=0.5)
        logits = np.array([[np.log(3.0), 0.0], [0.0, 0.0]])
        loss, _ = compound_wass(spec, tree, logits, np.array([1, 2]))
        assert abs(loss - 0.6202073132529316) <= 1e-12

    def test_linearity_matches_ref_compound(self):
        """The fused compound is 0.3 * semantic + 0.7 * CE to the reference's tolerance, not to
        the bit: alpha is folded into the kernel's weights."""
        t = make_random_tree(25)
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(6, t.n_leaves))
        target = rng.integers(1, t.n_leaves + 1, size=6)
        spec = LossSpec("twce", EdgeWeightScheme("hier", kappa=2.0), seg="ce", alpha=0.3, beta=0.7)
        assert_twce_close(*compound_twce(spec, t, logits, target), *ref_compound(spec, t, logits, target))

    def test_twce_seg_none_is_pure_semantic(self):
        t = make_random_tree(26)
        spec = LossSpec("twce", EdgeWeightScheme("equal"), seg="none", alpha=1.0, beta=0.0)
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(4, t.n_leaves))
        target = rng.integers(1, t.n_leaves + 1, size=4)
        loss, grad = compound_twce(spec, t, logits, target)
        sem, sem_grad = tree_weighted_ce(assign_weights(t, EdgeWeightScheme("equal")), logits, target)
        assert loss == sem
        assert np.array_equal(grad, sem_grad)

    def test_twce_beta_one_leaf_only_is_double_checked_ce(self):
        t = make_random_tree(27)
        spec = LossSpec("twce", EdgeWeightScheme("leaf"), seg="ce", alpha=0.0, beta=1.0)
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(5, t.n_leaves))
        target = rng.integers(1, t.n_leaves + 1, size=5)
        loss, _ = compound_twce(spec, t, logits, target)
        ce, _ = seg_loss_ce(logits, target)
        assert abs(loss - ce) <= 1e-12

    def test_dice_with_sparse_mask_is_config_error(self):
        t = make_random_tree(28)
        spec = LossSpec("wass", EdgeWeightScheme("equal"), seg="dice_ce")
        logits = np.zeros((3, t.n_leaves))
        with pytest.raises(ConfigError):
            compound_wass(spec, t, logits, np.array([1, 0, 2]))

    def test_each_compound_rejects_the_other_semantic(self, three_leaf_tree):
        logits, target = np.zeros((2, 3)), np.array([1, 2])
        with pytest.raises(ConfigError, match="compound_wass needs semantic='wass', got 'twce'"):
            compound_wass(LossSpec("twce", EdgeWeightScheme("equal")), three_leaf_tree, logits, target)
        with pytest.raises(ConfigError, match="compound_twce needs semantic='twce', got 'wass'"):
            compound_twce(LossSpec("wass", EdgeWeightScheme("equal")), three_leaf_tree, logits, target)

    def test_seg_none_outside_twce_rejected(self):
        with pytest.raises(ConfigError):
            LossSpec("wass", EdgeWeightScheme("equal"), seg="none")

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            LossSpec("twce", EdgeWeightScheme("equal"), alpha=-0.1)

    def test_make_loss_matches_direct_call(self):
        t = make_random_tree(29)
        spec = LossSpec("wass", EdgeWeightScheme("hier", kappa=10.0), seg="ce")
        fn = make_loss(t, spec)
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(4, t.n_leaves))
        target = rng.integers(1, t.n_leaves + 1, size=4)
        a = fn(logits.T, target)  # the callable takes class-major (C, n) logits
        b = compound_wass(spec, t, logits, target)
        assert a[0] == b[0]
        assert np.array_equal(a[1].T, b[1])


class TestGradients:
    """Spot finite-difference checks; the acceptance suite runs the full sweep."""

    def _case(self, seed):
        t = make_random_tree(seed)
        rng = np.random.default_rng(seed + 1)
        logits = rng.normal(size=(5, t.n_leaves))
        target = rng.integers(1, t.n_leaves + 1, size=5)
        target[0] = 0
        dense = rng.integers(1, t.n_leaves + 1, size=5)
        return t, logits, target, dense

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_loss_matches_finite_differences(self, seed):
        t, logits, target, dense = self._case(seed)
        m = distance_matrix(equal_weighted(t))
        hier = assign_weights(t, EdgeWeightScheme("hier", kappa=2.0))
        wspec = LossSpec("wass", EdgeWeightScheme("hier", kappa=10.0), seg="ce")
        tspec = LossSpec("twce", EdgeWeightScheme("equal"), seg="ce")
        cases = [
            lambda z: wasserstein_crisp(m, z, target),
            lambda z: seg_loss_ce(z, target),
            lambda z: seg_loss_dice(z, dense),
            lambda z: tree_weighted_ce(hier, z, target),
            lambda z: compound_wass(wspec, t, z, target),
            lambda z: compound_twce(tspec, t, z, target),
        ]
        for fn in cases:
            assert relative_grad_error(fn, logits) <= 1e-5

    def test_grad_rows_sum_to_zero_for_softmax_losses(self):
        t, logits, target, _ = self._case(5)
        m = distance_matrix(equal_weighted(t))
        for fn in (lambda z: wasserstein_crisp(m, z, target), lambda z: tree_weighted_ce(equal_weighted(t), z, target)):
            _, grad = fn(logits)
            assert np.abs(grad.sum(axis=1)).max() <= 1e-8


# --- frozen reference --------------------------------------------------------
# The composition the fused loss replaced, pixel-major: every term takes its
# own softmax (the CE term two) over (n, C) rows, and a compound sums the
# separately scattered terms. The kernels now hold a batch class-major, so
# every sum over the classes (the softmax normaliser, the Wasserstein and
# softmax-chain inner products) and the Dice sums over pixels run in another
# order; the tree-weighted CE also reads each pixel's ancestor chain instead
# of the dense (n, N) node tensor. make_loss must agree with the reference
# to the tolerance of ``assert_twce_close``. A compound is one fused pass with
# alpha folded into the kernel's weights, so it matches the weighted sum of its
# terms to that tolerance too. Bit-for-bit pins between the entry points
# themselves (alpha = 0, beta = 0, any tile width) follow the reference.


def ref_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ref_log_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def ref_chain_softmax(p, dldp):
    inner = np.sum(p * dldp, axis=1, keepdims=True)
    return p * (dldp - inner)


def ref_split(logits, target):
    flat = logits.reshape(-1, logits.shape[-1])
    t = target.reshape(-1)
    return flat, t, np.flatnonzero(t > 0)


def ref_wasserstein(m, logits, target):
    flat, t, idx = ref_split(logits, target)
    p = ref_softmax(flat[idx])
    cols = m[:, t[idx] - 1].T
    loss = float(np.sum(p * cols, axis=1).mean())
    grad = np.zeros_like(flat)
    grad[idx] = ref_chain_softmax(p, cols) / idx.size
    return loss, grad.reshape(logits.shape)


def ref_ce(logits, target):
    flat, t, idx = ref_split(logits, target)
    logp = ref_log_softmax(flat[idx])
    rows = np.arange(idx.size)
    loss = float(-logp[rows, t[idx] - 1].mean())
    grad = np.zeros_like(flat)
    g = ref_softmax(flat[idx])
    g[rows, t[idx] - 1] -= 1.0
    grad[idx] = g / idx.size
    return loss, grad.reshape(logits.shape)


def ref_dice(logits, target):
    flat, t, _ = ref_split(logits, target)
    p = ref_softmax(flat)
    onehot = np.zeros_like(p)
    onehot[np.arange(t.size), t - 1] = 1.0
    num = 2.0 * np.sum(p * onehot, axis=0) + losses.DICE_SMOOTH
    den = p.sum(axis=0) + onehot.sum(axis=0) + losses.DICE_SMOOTH
    loss = float(np.mean(1.0 - num / den))
    dldp = -(2.0 * onehot * den - num) / (den * den) / flat.shape[1]
    return loss, ref_chain_softmax(p, dldp).reshape(logits.shape)


def ref_aggregate(tree, p):
    out = np.zeros((p.shape[0], tree.n_nodes))
    out[:, : tree.n_leaves] = p
    for v in tree.deepest_first():
        kids = tree.nodes[v].children
        if kids:
            acc = out[:, kids[0]].copy()
            for c in kids[1:]:
                acc += out[:, c]
            out[:, v] = acc
    return out


def ref_twce(tree, logits, target):
    flat, t, idx = ref_split(logits, target)
    u = np.zeros((tree.n_nodes, tree.n_leaves))
    for v in range(tree.n_nodes):
        u[v, tree.leaves_under(v)] = 1.0
    w = np.zeros(tree.n_nodes)
    for v, weight in tree.edge_weight.items():
        w[v] = weight
    p = ref_softmax(flat[idx])
    node_p = ref_aggregate(tree, p)
    contrib = w[None, :] * u[:, t[idx] - 1].T
    loss = float(-(contrib * np.log(np.maximum(node_p, losses.LOG_GUARD))).sum(axis=1).mean())
    inv = np.where(node_p > losses.LOG_GUARD, 1.0 / np.maximum(node_p, losses.LOG_GUARD), 0.0)
    grad = np.zeros_like(flat)
    grad[idx] = ref_chain_softmax(p, -(contrib * inv) @ u) / idx.size
    return loss, grad.reshape(logits.shape)


def ref_compound(spec, tree, logits, target):
    weighted = assign_weights(tree, spec.scheme)
    if spec.semantic == "wass":
        sem, sem_grad = ref_wasserstein(distance_matrix(weighted), logits, target)
    else:
        sem, sem_grad = ref_twce(weighted, logits, target)
    if spec.seg == "none":
        return spec.alpha * sem, spec.alpha * sem_grad
    seg, seg_grad = ref_ce(logits, target)
    if spec.seg == "dice_ce":
        dc, dc_grad = ref_dice(logits, target)
        seg, seg_grad = seg + dc, seg_grad + dc_grad
    return spec.alpha * sem + spec.beta * seg, spec.alpha * sem_grad + spec.beta * seg_grad


ORACLE_CASES = [
    (semantic, seg, alpha, sparse)
    for semantic, seg in (("wass", "ce"), ("wass", "dice_ce"), ("twce", "ce"), ("twce", "dice_ce"), ("twce", "none"))
    for alpha in (0.0, 0.5)
    for sparse in (False, True)
    if not (sparse and seg == "dice_ce")
]


def oracle_batch(rng, c, shape, sparse):
    logits = 3.0 * rng.normal(size=(*shape, c))
    target = rng.integers(1, c + 1, size=shape)
    if sparse:
        target[rng.random(shape) < 0.4] = 0
        target.flat[0] = 1
    return logits, target


def class_major_call(fn, logits, target):
    """A make_loss callable on (..., C) logits, its (C, n) gradient back in their shape."""
    loss, grad = fn(np.array(logits.reshape(-1, logits.shape[-1]).T, order="C"), target)
    return loss, grad.T.reshape(logits.shape)


class TestFusedMatchesReference:
    @pytest.mark.parametrize("semantic,seg,alpha,sparse", ORACLE_CASES)
    def test_make_loss_is_bitwise_equal(self, semantic, seg, alpha, sparse):
        for seed, ragged in ((0, True), (1, True), (2, False)):
            tree = make_random_tree(seed, depth=3, branching=(2, 4), ragged=ragged)
            spec = LossSpec(semantic, EdgeWeightScheme("hier", kappa=2.0), seg=seg, alpha=alpha, beta=0.5)
            fn = make_loss(tree, spec)
            rng = np.random.default_rng(seed + 40)
            for shape in ((1,), (37,), (2000,), (9, 11)):
                logits, target = oracle_batch(rng, tree.n_leaves, shape, sparse)
                assert_twce_close(*class_major_call(fn, logits, target), *ref_compound(spec, tree, logits, target))

    def test_single_terms_are_bitwise_equal(self):
        """Every term against its pixel-major reference, within ``assert_twce_close``."""
        tree = assign_weights(make_random_tree(3, ragged=True), EdgeWeightScheme("hier", kappa=2.0))
        m = distance_matrix(tree)
        rng = np.random.default_rng(43)
        sparse_logits, sparse = oracle_batch(rng, tree.n_leaves, (500,), True)
        dense_logits, dense = oracle_batch(rng, tree.n_leaves, (500,), False)
        pairs = [
            (wasserstein_crisp(m, sparse_logits, sparse), ref_wasserstein(m, sparse_logits, sparse)),
            (seg_loss_ce(sparse_logits, sparse), ref_ce(sparse_logits, sparse)),
            (seg_loss_dice(dense_logits, dense), ref_dice(dense_logits, dense)),
        ]
        for result, ref in pairs:
            assert_twce_close(*result, *ref)
        for logits, target in ((sparse_logits, sparse), (dense_logits, dense)):
            assert_twce_close(*tree_weighted_ce(tree, logits, target), *ref_twce(tree, logits, target))

    @pytest.mark.parametrize("seg,sparse", [("ce", False), ("ce", True), ("dice_ce", False), ("none", False), ("none", True)])
    def test_fused_twce_matches_ref_compound(self, seg, sparse):
        """The fused compound shares one softmax and one gradient pass, and equals
        alpha * tree-weighted CE + beta * seg to the reference's tolerance."""
        assert_fused_is_the_sum_of_its_terms("twce", seg, sparse)

    @pytest.mark.parametrize("seg,sparse", [("ce", False), ("ce", True), ("dice_ce", False)])
    def test_fused_wass_matches_ref_compound(self, seg, sparse):
        """The same for alpha * Wasserstein + beta * seg."""
        assert_fused_is_the_sum_of_its_terms("wass", seg, sparse)


def assert_fused_is_the_sum_of_its_terms(semantic, seg, sparse):
    """At alpha = 0.7, beta = 0.3: alpha is folded into the kernel's weights, so the
    compound matches the frozen reference's weighted sum to rounding, not to the bit."""
    tree = make_random_tree(4, depth=3, branching=(2, 4), ragged=True)
    spec = LossSpec(semantic, EdgeWeightScheme("hier", kappa=2.0), seg=seg, alpha=0.7, beta=0.3)
    logits, target = oracle_batch(np.random.default_rng(44), tree.n_leaves, (600,), sparse)
    assert_twce_close(*class_major_call(make_loss(tree, spec), logits, target), *ref_compound(spec, tree, logits, target))


@pytest.mark.parametrize("sparse", [False, True])
def test_class_major_callable_equals_every_entry_point_to_the_bit(sparse):
    """One batch, once class-major through make_loss and once (..., C) through each
    public function: a lone term is the compound with the other weight at zero."""
    tree = make_random_tree(6, depth=3, branching=(2, 4), ragged=True)
    scheme = EdgeWeightScheme("hier", kappa=3.0)
    weighted = assign_weights(tree, scheme)
    logits, target = oracle_batch(np.random.default_rng(45), tree.n_leaves, (12, 25), sparse)
    cases = [
        (LossSpec("wass", scheme, seg="ce", alpha=0.4, beta=0.6), lambda s: compound_wass(s, tree, logits, target)),
        (LossSpec("twce", scheme, seg="ce", alpha=0.4, beta=0.6), lambda s: compound_twce(s, tree, logits, target)),
        (LossSpec("wass", scheme, seg="ce", alpha=1.0, beta=0.0), lambda s: wasserstein_crisp(distance_matrix(weighted), logits, target)),
        (LossSpec("twce", scheme, seg="none", alpha=1.0, beta=0.0), lambda s: tree_weighted_ce(weighted, logits, target)),
        (LossSpec("wass", scheme, seg="ce", alpha=0.0, beta=1.0), lambda s: seg_loss_ce(logits, target)),
    ]
    if not sparse:
        cases.append((LossSpec("wass", scheme, seg="dice_ce", alpha=0.5, beta=0.5), lambda s: compound_wass(s, tree, logits, target)))
    for spec, entry in cases:
        loss, grad = entry(spec)
        fused_loss, fused_grad = class_major_call(make_loss(tree, spec), logits, target)
        assert loss == fused_loss, spec
        assert grad.flags.c_contiguous
        assert np.array_equal(grad, fused_grad), spec


@pytest.mark.parametrize("semantic", ["wass", "twce"])
def test_loss_fn_walks_no_tree(monkeypatch, semantic):
    tree = make_random_tree(31, ragged=True)
    fn = make_loss(tree, LossSpec(semantic, EdgeWeightScheme("hier", kappa=2.0)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the tree was walked after make_loss")

    monkeypatch.setattr(LabelTree, "leaves_under", forbidden)
    monkeypatch.setattr(LabelTree, "deepest_first", forbidden)
    monkeypatch.setattr(losses, "distance_matrix", forbidden)
    logits, target = oracle_batch(np.random.default_rng(5), tree.n_leaves, (64,), True)
    loss, grad = fn(logits.T, target)
    assert np.isfinite(loss) and grad.shape == logits.T.shape


# --- column tiles -------------------------------------------------------------
# A loss call works its annotated columns in tiles of at most losses.TILE_BYTES
# of (C, T) float64. Shrinking the budget splits small batches into several
# tiles, with one column left over for the last tile; every result must equal
# the one-tile result to the bit.

TILE_COLUMNS = 5
TILED_PIXELS = 3 * TILE_COLUMNS + 1  # annotated columns: three full tiles and one column left over


def tree_with_leaves(at_least, at_most, branching):
    """The first random depth-3 tree with a leaf count in [at_least, at_most]."""
    for seed in range(1000):
        tree = make_random_tree(seed, depth=3, branching=branching, ragged=True)
        if at_least <= tree.n_leaves <= at_most:
            return tree
    raise AssertionError("no tree of that size")


TILE_TREES = {21: tree_with_leaves(21, 21, (2, 4)), 99: tree_with_leaves(99, 140, (4, 6))}  # C = 21 and C >= 99


def force_tiles(monkeypatch, n_classes):
    monkeypatch.setattr(losses, "TILE_BYTES", 8 * n_classes * TILE_COLUMNS)


def tile_batch(c, sparse, seed=0):
    """(n, C) logits and codes with TILED_PIXELS annotated pixels; sparse ones interleave 9 unannotated."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(1, c + 1, size=TILED_PIXELS)
    if sparse:
        codes = np.insert(codes, rng.integers(0, TILED_PIXELS, size=9), 0)
    return 3.0 * rng.normal(size=(codes.size, c)), codes


def tile_entry_points(tree):
    """(name, (..., C) loss function) for every term and compound that tiles."""
    scheme = EdgeWeightScheme("hier", kappa=2.0)
    weighted = assign_weights(tree, scheme)
    m = distance_matrix(weighted)
    specs = [LossSpec("wass", scheme, seg="ce"), LossSpec("twce", scheme, seg="ce"), LossSpec("twce", scheme, seg="none")]
    yield from ((f"make_loss {s.semantic}/{s.seg}", lambda z, t, s=s: class_major_call(make_loss(tree, s), z, t)) for s in specs)
    yield "compound_wass", lambda z, t: compound_wass(specs[0], tree, z, t)
    yield "compound_twce", lambda z, t: compound_twce(specs[1], tree, z, t)
    yield "wasserstein_crisp", lambda z, t: wasserstein_crisp(m, z, t)
    yield "tree_weighted_ce", lambda z, t: tree_weighted_ce(weighted, z, t)
    yield "seg_loss_ce", seg_loss_ce


def test_a_lone_leftover_column_joins_the_last_tile():
    """numpy sums a one-column array's classes pairwise, a wider one's row by row."""
    assert losses._tiles(TILED_PIXELS, TILE_COLUMNS) == [(0, 5), (5, 10), (10, 16)]
    assert losses._tiles(15, 5) == [(0, 5), (5, 10), (10, 15)]
    assert losses._tiles(1, 5) == [(0, 1)]
    assert losses._tile_width(10**9) == 2


@pytest.mark.parametrize("c", sorted(TILE_TREES))
@pytest.mark.parametrize("sparse", [False, True])
def test_tiled_losses_equal_one_tile_to_the_bit(monkeypatch, c, sparse):
    tree = TILE_TREES[c]
    logits, target = tile_batch(tree.n_leaves, sparse)
    whole = {name: fn(logits, target) for name, fn in tile_entry_points(tree)}
    force_tiles(monkeypatch, tree.n_leaves)
    for name, fn in tile_entry_points(tree):
        loss, grad = fn(logits, target)
        assert loss == whole[name][0], name
        assert np.array_equal(grad, whole[name][1]), name
        assert grad.flags.c_contiguous or name.startswith("make_loss"), name


@pytest.mark.parametrize("c", sorted(TILE_TREES))
def test_tiled_softmax_and_predict_equal_one_tile_to_the_bit(monkeypatch, c):
    from treeseg.training import ModelParams, predict

    n_leaves = TILE_TREES[c].n_leaves
    rng = np.random.default_rng(1)
    logits = 3.0 * rng.normal(size=(4, TILED_PIXELS, n_leaves))
    params = ModelParams("linear", [rng.normal(size=(6, n_leaves)), rng.normal(size=n_leaves)])
    features = rng.normal(size=(2, TILED_PIXELS, 6))
    whole = softmax(logits), losses.log_softmax(logits), predict(params, features)
    force_tiles(monkeypatch, n_leaves)
    tiled = softmax(logits), losses.log_softmax(logits), predict(params, features)
    for a, b in zip(whole, tiled):
        assert np.array_equal(a, b)
        assert b.flags.c_contiguous


def test_dice_batch_is_one_tile(monkeypatch):
    tree = TILE_TREES[21]
    spec = LossSpec("wass", EdgeWeightScheme("hier", kappa=2.0), seg="dice_ce")
    logits, target = tile_batch(tree.n_leaves, sparse=False)
    x = np.ascontiguousarray(logits.T)
    whole = make_loss(tree, spec)(x.copy(), target)
    force_tiles(monkeypatch, tree.n_leaves)
    tiles = []
    take = losses._Batch.tile
    monkeypatch.setattr(losses._Batch, "tile", lambda b, start, stop: tiles.append((start, stop)) or take(b, start, stop))
    loss, grad = make_loss(tree, spec)(x, target)
    assert len(tiles) == 1
    assert loss == whole[0] and np.array_equal(grad, whole[1])
    assert grad is x


@pytest.mark.parametrize("sparse", [False, True])
def test_public_functions_leave_the_callers_logits_alone(monkeypatch, sparse):
    tree = TILE_TREES[21]
    logits, target = tile_batch(tree.n_leaves, sparse)
    kept = logits.copy()
    force_tiles(monkeypatch, tree.n_leaves)
    for name, fn in tile_entry_points(tree):
        if not name.startswith("make_loss"):
            fn(logits, target)
            assert np.array_equal(logits, kept), name


@pytest.mark.parametrize("sparse", [False, True])
def test_make_loss_writes_a_tiled_gradient_over_its_logits(monkeypatch, sparse):
    tree = TILE_TREES[21]
    fn = make_loss(tree, LossSpec("twce", EdgeWeightScheme("hier", kappa=2.0), seg="ce"))
    logits, target = tile_batch(tree.n_leaves, sparse)
    one_tile = np.ascontiguousarray(logits.T)
    _, whole = fn(one_tile, target)
    assert whole is one_tile
    force_tiles(monkeypatch, tree.n_leaves)
    x = np.ascontiguousarray(logits.T)
    _, grad = fn(x, target)
    assert grad is x
    assert np.array_equal(grad, whole)
    assert not grad[:, target == 0].any()


@pytest.mark.parametrize("semantic", ["wass", "twce"])
def test_tiled_loss_call_allocates_less_than_half_its_logits(semantic):
    """One make_loss call on a C >= 99 batch of eight tiles: the tiles, not logits-sized arrays."""
    import tracemalloc

    tree = TILE_TREES[99]
    fn = make_loss(tree, LossSpec(semantic, EdgeWeightScheme("hier", kappa=2.0), seg="ce"))
    rng = np.random.default_rng(2)
    n = 8 * losses._tile_width(tree.n_leaves)
    logits = rng.normal(size=(tree.n_leaves, n))
    target = rng.integers(1, tree.n_leaves + 1, size=n)
    assert logits.nbytes >= 4 * losses.TILE_BYTES
    tracemalloc.start()
    try:
        _, grad = fn(logits, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad is logits
    assert peak < logits.nbytes / 2


@pytest.mark.parametrize("c", sorted(TILE_TREES))
@pytest.mark.parametrize("semantic", ["wass", "twce"])
@pytest.mark.parametrize("tiled", [False, True])
def test_sparse_batch_equals_the_dense_batch_of_its_annotated_columns(monkeypatch, c, semantic, tiled):
    """A sparse batch gathers its annotated columns C-ordered, so its class sums run row
    by row as a dense batch's do, and loss and gradient keep the dense batch's bits."""
    tree = TILE_TREES[c]
    fn = make_loss(tree, LossSpec(semantic, EdgeWeightScheme("hier", kappa=2.0), seg="ce"))
    logits, target = tile_batch(tree.n_leaves, sparse=True, seed=5)
    if tiled:
        force_tiles(monkeypatch, tree.n_leaves)
    on = target > 0
    loss, grad = class_major_call(fn, logits, target)
    dense_loss, dense_grad = class_major_call(fn, logits[on], target[on])
    assert loss == dense_loss
    assert np.array_equal(grad[on], dense_grad)
    assert not grad[~on].any()


# --- one ownership rule -------------------------------------------------------
# The make_loss callable works every tile in place in its logits' own columns
# and returns the buffer it worked in: the logits themselves when they are
# C-ordered float64 (C, n), whatever the tile count, a Dice term or code 0.


@pytest.mark.parametrize("semantic", ["wass", "twce"])
@pytest.mark.parametrize("case", ["one tile", "tiles", "dice", "sparse", "sparse tiles"])
def test_make_loss_returns_its_logits_holding_the_gradient(monkeypatch, semantic, case):
    tree = TILE_TREES[21]
    fn = make_loss(tree, LossSpec(semantic, EdgeWeightScheme("hier", kappa=2.0), seg="dice_ce" if case == "dice" else "ce"))
    logits, target = tile_batch(tree.n_leaves, sparse=case.startswith("sparse"))
    want_loss, want = class_major_call(fn, logits, target)
    if case.endswith("tiles"):
        force_tiles(monkeypatch, tree.n_leaves)
    x = np.ascontiguousarray(logits.T)
    loss, grad = fn(x, target)
    assert grad is x and grad.dtype == np.float64 and grad.flags.c_contiguous
    assert loss == want_loss and np.array_equal(grad.T, want)
    assert (target == 0).any() == case.startswith("sparse")
    assert not grad[:, target == 0].any()


@pytest.mark.parametrize("semantic", ["wass", "twce"])
def test_make_loss_copies_other_logits_once_and_gives_the_same_bits(semantic):
    """F-ordered or float32 (C, n) logits are worked in a C-ordered float64
    copy; an F-ordered view would sum each column's classes pairwise."""
    tree = TILE_TREES[21]
    fn = make_loss(tree, LossSpec(semantic, EdgeWeightScheme("hier", kappa=2.0), seg="ce"))
    logits, target = tile_batch(tree.n_leaves, sparse=False)
    single = logits.T.astype(np.float32)
    for x in (logits.T, single, np.asfortranarray(single)):
        kept = x.copy()
        want_loss, want = fn(np.array(x, dtype=float, order="C"), target)
        loss, grad = fn(x, target)
        assert np.array_equal(x, kept) and x.dtype == kept.dtype
        assert grad is not x and grad.dtype == np.float64 and grad.flags.c_contiguous
        assert loss == want_loss and np.array_equal(grad, want)


@pytest.mark.parametrize("semantic,bound", [("wass", 1.5), ("twce", 3.0)])
def test_one_tile_loss_call_allocates_no_second_logits_buffer(semantic, bound):
    """One one-tile C = 21 make_loss call with a CE term: its softmax and gradient live in the logits.

    Peak over logits bytes: the fused Wasserstein kernel holds one (C, T) table
    (~1.3), the tree-weighted CE kernel its (N, T) node rows, N = 31 here (~2.3;
    its (C, T) index and gather, before the push-down, read ~2.6); before the
    fusion they were 2.24 and 2.97. Each table is scratch the call allocates once
    and the kernel takes into with ``mode="clip"``: a take into ``out`` with the
    default ``mode="raise"`` buffers its result, and read 2.19 for the Wasserstein."""
    import tracemalloc

    tree = TILE_TREES[21]
    fn = make_loss(tree, LossSpec(semantic, EdgeWeightScheme("hier", kappa=2.0), seg="ce"))
    rng = np.random.default_rng(3)
    n = 12_000
    assert losses._tiles(n, losses._tile_width(tree.n_leaves)) == [(0, n)]
    logits = rng.normal(size=(tree.n_leaves, n))
    target = rng.integers(1, tree.n_leaves + 1, size=n)
    tracemalloc.start()
    try:
        _, grad = fn(logits, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad is logits
    assert peak < bound * logits.nbytes, peak / logits.nbytes


# --- the true-leaf index -------------------------------------------------------
# A tile reads and updates each column's true-leaf entry through a flat index
# into the batch buffer. The frozen tile below indexes it the way the flat
# index replaced: the pair (leaf, arange(T)) into the tile's own view, which it
# hands the kernels as ``flat``, so every fused kernel's ``flat[true] -= beta``
# runs through the pair index too.


class PairIndexTile(losses._Tile):
    def __init__(self, work, start, stop, leaf, n):
        z = work[:, start:stop]
        self.leaf, self.n, self.width = leaf, n, stop - start
        self.flat, self.true = z, (leaf, np.arange(self.width))
        z -= np.maximum.reduce(z, axis=0)
        self.z_true = z[self.true]
        self.p, self.s = losses._exp_normalize(z)


def pair_index_dice(b, scratch):
    p = b.p
    onehot = np.zeros_like(p)
    onehot[b.true] = 1.0
    num = 2.0 * np.add.reduce(p * onehot, axis=1, keepdims=True) + losses.DICE_SMOOTH
    den = np.add.reduce(p, axis=1, keepdims=True) + np.add.reduce(onehot, axis=1, keepdims=True) + losses.DICE_SMOOTH
    loss = float(np.mean(1.0 - num / den))
    dldp = -(2.0 * onehot * den - num) / (den * den) / p.shape[0]
    return loss, losses._chain_softmax(p, dldp)


@pytest.mark.parametrize("c", sorted(TILE_TREES))
@pytest.mark.parametrize("semantic,seg,sparse", [("wass", "ce", True), ("twce", "ce", True), ("twce", "none", True), ("wass", "dice_ce", False)])
def test_flat_true_leaf_index_keeps_the_pair_index_bits(monkeypatch, c, semantic, seg, sparse):
    """Multi-tile batches with unannotated columns (one tile for Dice, which needs a dense batch)."""
    tree = TILE_TREES[c]
    fn = make_loss(tree, LossSpec(semantic, EdgeWeightScheme("hier", kappa=2.0), seg=seg))
    logits, target = tile_batch(tree.n_leaves, sparse, seed=4)
    force_tiles(monkeypatch, tree.n_leaves)
    tiles = []
    take = losses._Batch.tile
    monkeypatch.setattr(losses._Batch, "tile", lambda b, start, stop: tiles.append(start) or take(b, start, stop))
    flat = class_major_call(fn, logits, target)
    assert len(tiles) == (1 if seg == "dice_ce" else 3)
    narrow = class_major_call(fn, logits, target.astype(np.uint8))  # codes whose dtype cannot hold a flat index
    monkeypatch.setattr(losses, "_Tile", PairIndexTile)
    monkeypatch.setattr(losses, "_dice", pair_index_dice)
    pair = class_major_call(fn, logits, target)
    for other in (pair, narrow):
        assert flat[0] == other[0]
        assert np.array_equal(flat[1], other[1])
