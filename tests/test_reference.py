"""References for the ancestor table, the count table, the scoring passes and the tree-weighted CE.

The per-class counting loops, the parent-chain tree walks, the per-class
distance-transform NSD, the per-grid-point threshold sweep, the
pixel-major subtree sum and the dense tree-weighted CE kernel below are
the earlier implementations, frozen. Every level query, subtree, ancestor
chain and distance matrix now reads ``LabelTree.ancestor_table``; Dice,
one-vs-rest scores and confusion counts all read one pixel count table;
NSD scores every class in one pass over the tolerance ball, the sweep
counts every threshold in one pass, and level scores sum only the level's
subtrees, into rows for those subtrees' inner nodes alone. These tests
hold them equal to the walks and loops, bit for bit.
The tree-weighted CE now reads each pixel's ancestor chain and sums in
another order, so it is held to the dense kernel within a tolerance.
Corpus generation now tabulates Voronoi distances a block of rows at a
time, takes every region's pixels from one sort and builds the features
in place; it is held to the full-distance-array generator, byte for byte.
The gate and the ungated leaf argmax now read four per-pixel vectors that
scoring keeps in place of an image's probabilities; they are held to the
gate that read the probabilities at gating time, bit for bit. Training
now preprocesses only the annotated pixels it keeps and reads each loss
tile's features from the batch's images; ``fit`` is held to the fit that
preprocessed every image and concatenated every batch, bit for bit.
The tree-weighted CE now pushes its gradient down the tree in its node
table; it is held to the chain kernel that gathered it from prefix sums,
bit for bit and sign of zero for sign of zero. The standardizer now
streams the images; it is held to the one that concatenated them, bit for
bit for two or more channels.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from treeseg import losses, synth, training
from treeseg.distances import distance_matrix
from treeseg.errors import ConfigError, EmptyEvalError
from treeseg.evaluation import confusion, dice_scores, evaluate_level, level_classes, nsd_scores, ovr_scores
from treeseg.experiment import ExperimentConfig, fit
from treeseg.gating import LevelScorer, ThresholdPolicy, default_grid, first_max, gate, score_at_level, sweep_tau
from treeseg.hierarchy import (
    EdgeWeightScheme,
    assign_weights,
    build_tree,
    edge_weight_vector,
    leaf_level_map,
    level_nodes,
    parse_tree,
    random_tree,
    resolve_level,
)
from treeseg.losses import LOG_GUARD, LossSpec, Terms, aggregate, batch_tiles, make_loss, softmax, tree_weighted_ce
from treeseg.seeding import substream
from treeseg.synth import SynthConfig, class_means, generate
from treeseg.training import TrainConfig, absorb_standardization, fit_standardizer, init_params

from conftest import ancestors, assert_twce_close, make_random_tree, wide_tree_doc

# -- frozen tree walks -------------------------------------------------------


def ref_ancestors(tree, v):
    chain = [v]
    while chain[-1] != tree.root:
        chain.append(tree.parent[chain[-1]])
    return chain


def ref_leaves_under(tree, v):
    out, stack = [], [v]
    while stack:
        u = stack.pop()
        if tree.nodes[u].is_leaf:
            out.append(u)
        else:
            stack.extend(tree.nodes[u].children)
    return sorted(out)


def ref_level_nodes(tree, k):
    out = set()
    for v in range(tree.n_nodes):
        if v == tree.root:
            continue
        band = tree.levels - tree.depth[v]
        if (band >= k) if tree.nodes[v].is_leaf else (band == k):
            out.add(v)
    return out


def ref_leaf_level_map(tree, k):
    members = ref_level_nodes(tree, k)
    out = np.empty(tree.n_leaves, dtype=np.int64)
    for leaf in range(tree.n_leaves):
        hit = [v for v in ref_ancestors(tree, leaf) if v in members]
        out[leaf] = hit[0] if hit else leaf
    return out


def ref_ancestor_matrix(tree):
    u = np.zeros((tree.n_nodes, tree.n_leaves))
    for v in range(tree.n_nodes):
        u[v, ref_leaves_under(tree, v)] = 1.0
    return u


def ref_distance_matrix(tree):
    c = tree.n_leaves
    root = tree.root
    wsum = {root: 0.0}
    for v in sorted(range(tree.n_nodes), key=lambda v: (tree.depth[v], -v)):
        if v != root:
            wsum[v] = wsum[tree.parent[v]] + tree.edge_weight[v]

    def lca(a, b):
        while a != b:
            if tree.depth[a] >= tree.depth[b]:
                a = tree.parent[a]
            else:
                b = tree.parent[b]
        return a

    m = np.zeros((c, c))
    for i in range(c):
        for j in range(i + 1, c):
            d = wsum[i] + wsum[j] - 2.0 * wsum[lca(i, j)]
            m[i, j] = m[j, i] = d
    return m


# -- frozen per-class counting loops -----------------------------------------


def ref_domain(truth, domain):
    if domain is None:
        domain = truth > 0
    domain = np.asarray(domain, dtype=bool)
    if not domain.any():
        raise EmptyEvalError("empty annotation domain")
    return domain


def ref_dice_scores(pred, truth, classes, domain=None):
    pred = np.asarray(pred).reshape(-1)
    truth = np.asarray(truth).reshape(-1)
    dom = ref_domain(truth, domain).reshape(-1)
    p, g = pred[dom], truth[dom]
    out = np.full(len(classes), np.nan)
    for i, c in enumerate(classes):
        pc, gc = p == c, g == c
        total = pc.sum() + gc.sum()
        if total:
            out[i] = 2.0 * np.sum(pc & gc) / total
    return out


def ref_ovr_scores(pred, truth, classes, domain=None):
    pred = np.asarray(pred).reshape(-1)
    truth = np.asarray(truth).reshape(-1)
    dom = ref_domain(truth, domain).reshape(-1)
    p, g = pred[dom], truth[dom]
    n = len(classes)
    tpr = np.full(n, np.nan)
    tnr = np.full(n, np.nan)
    f1 = np.full(n, np.nan)
    for i, c in enumerate(classes):
        pos, neg = g == c, g != c
        n_pos, n_neg = int(pos.sum()), int(neg.sum())
        if n_pos == 0:
            continue
        tp = int(np.sum(pos & (p == c)))
        fp = int(np.sum(neg & (p == c)))
        tpr[i] = tp / n_pos
        tnr[i] = (n_neg - fp) / n_neg if n_neg else 1.0
        f1[i] = 2.0 * tp / (2.0 * tp + fp + (n_pos - tp))
    return {"tpr": tpr, "tnr": tnr, "bacc": (tpr + tnr) / 2.0, "f1": f1}


def ref_confusion_counts(fold_preds, fold_truths, classes, domains=None, include_background=False):
    codes = list(classes) + ([0] if include_background else [])
    m = len(codes)
    per_fold = np.zeros((len(fold_preds), m, m))
    for f, (pred, truth) in enumerate(zip(fold_preds, fold_truths)):
        pred = np.asarray(pred).reshape(-1)
        truth = np.asarray(truth).reshape(-1)
        dom = ref_domain(truth, domains[f] if domains else None).reshape(-1)
        p, t = pred[dom], truth[dom]
        lut = np.full(int(max(p.max(initial=0), t.max(initial=0), max(codes))) + 1, -1, dtype=np.int64)
        for i, c in enumerate(codes):
            lut[c] = i
        ti, pi = lut[t], lut[p]
        keep = (ti >= 0) & (pi >= 0)
        np.add.at(per_fold[f], (ti[keep], pi[keep]), 1.0)
    return per_fold


# -- frozen scoring passes ----------------------------------------------------


def ref_boundary(mask):
    mask = np.asarray(mask, dtype=bool)
    padded = np.pad(mask, 1, constant_values=False)
    core = tuple(slice(1, -1) for _ in range(mask.ndim))
    all_in = mask.copy()
    for axis in range(mask.ndim):
        for off in (-1, 1):
            sl = list(core)
            sl[axis] = slice(1 + off, padded.shape[axis] - 1 + off)
            all_in &= padded[tuple(sl)]
    return mask & ~all_in


def ref_nsd_scores(pred, truth, classes, tolerance, spacing=None):
    out = np.full(len(classes), np.nan)
    for i, c in enumerate(classes):
        sp = ref_boundary(pred == c)
        sg = ref_boundary(truth == c)
        np_, ng = int(sp.sum()), int(sg.sum())
        if np_ == 0 and ng == 0:
            continue
        if np_ == 0 or ng == 0:
            out[i] = 0.0
            continue
        dist_to_g = ndimage.distance_transform_edt(~sg, sampling=spacing)
        dist_to_p = ndimage.distance_transform_edt(~sp, sampling=spacing)
        ok = np.sum(dist_to_g[sp] <= tolerance) + np.sum(dist_to_p[sg] <= tolerance)
        out[i] = ok / (np_ + ng)
    return out


def ref_aggregate(tree, probs):
    p = np.asarray(probs, dtype=float)
    lead = p.shape[:-1]
    p = p.reshape(-1, p.shape[-1])
    out = np.zeros((p.shape[0], tree.n_nodes))
    out[:, : p.shape[1]] = p
    for v in tree.deepest_first():
        kids = tree.nodes[v].children
        if kids:
            out[:, v] = out[:, kids[0]]
            for c in kids[1:]:
                out[:, v] += out[:, c]
    return out.reshape(*lead, tree.n_nodes)


def ref_dense_twce(tree, b):
    """The dense tree-weighted CE kernel the chain kernel replaced, on the
    softmax of a class-major ``losses._Batch`` taken as one tile and read
    pixel-major: an (n, N) node tensor, weighted and logged over all N
    columns, and its product with the (N, C) ancestor matrix for dL/dp. The
    gradient comes back (C, pixels), zero on unannotated columns."""
    u = ref_ancestor_matrix(tree)
    chains = np.ascontiguousarray(u.T) * edge_weight_vector(tree)
    tile = b.tile(0, b.n)
    p = tile.p.T
    node_p = ref_aggregate(tree, p)
    contrib = chains[tile.leaf]  # (n, N)
    live = node_p > LOG_GUARD
    clamped = np.maximum(node_p, LOG_GUARD, out=node_p)
    inv = np.divide(1.0, clamped, out=np.zeros_like(clamped), where=live)
    logp = np.log(clamped, out=clamped)
    logp *= contrib
    loss = float(-logp.sum(axis=1).mean())
    inv *= contrib
    dldp = np.negative(inv, out=inv) @ u  # (n, C)
    inner = np.sum(p * dldp, axis=1, keepdims=True)
    dldp -= inner
    dldp *= p
    dldp /= b.n
    grad = np.zeros_like(b.logits)
    grad[:, slice(None) if b.idx is None else b.idx] = dldp.T
    return loss, grad


def ref_score_at_level(tree, probs, k):
    node_ids = sorted(ref_level_nodes(tree, k))
    return ref_aggregate(tree, probs)[..., node_ids], node_ids


def ref_sweep_tau(tree, prob_fields, masks, k, grid):
    grid = np.asarray(grid, dtype=float)
    lut = ref_leaf_level_map(tree, k) + 1
    max_parts, arg_parts, true_parts = [], [], []
    for probs, mask in zip(prob_fields, masks):
        probs = np.asarray(probs, dtype=float).reshape(-1, tree.n_leaves)
        codes = np.asarray(mask).reshape(-1)
        ann = codes > 0
        if not ann.any():
            continue
        scores, node_ids = ref_score_at_level(tree, probs[ann], k)
        best = np.argmax(scores, axis=1)
        max_parts.append(scores[np.arange(len(best)), best])
        arg_parts.append(np.asarray(node_ids, dtype=np.int64)[best] + 1)
        true_parts.append(lut[codes[ann] - 1])
    max_score = np.concatenate(max_parts)
    arg_code = np.concatenate(arg_parts)
    true_code = np.concatenate(true_parts)
    classes = sorted(int(c) for c in np.unique(true_code))
    curve = np.zeros((grid.size, 4))
    best_tau, best_f1 = None, -1.0
    for row, tau in enumerate(grid):
        pred = np.where(max_score > tau, arg_code, 0)
        scores = ref_ovr_scores(pred, true_code, classes)
        means = [float(np.nanmean(scores[key])) for key in ("tpr", "bacc", "f1")]
        curve[row] = (tau, *means)
        if means[2] > best_f1 or (means[2] == best_f1 and tau > best_tau):
            best_tau, best_f1 = float(tau), means[2]
    return best_tau, curve


def ref_voronoi_regions(height, width, n_regions, rng):
    seeds = np.column_stack([rng.uniform(0, height, n_regions), rng.uniform(0, width, n_regions)])
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    d2 = (yy[..., None] - seeds[:, 0]) ** 2 + (xx[..., None] - seeds[:, 1]) ** 2
    return np.argmin(d2, axis=-1)


def ref_generate(config):
    """Every subject's (features, truth, mask) from a full (H, W, R) distance
    array and one ``flatnonzero`` per region."""
    tree = config.tree or random_tree(substream(config.seed, "tree"), config.tree_depth, config.tree_branching)
    n_classes = tree.n_leaves
    means = class_means(tree, config.channels, config.sigma_between, config.level_decay, substream(config.seed, "means"))
    subjects = []
    for s in range(config.n_subjects):
        rng = substream(config.seed, "subject", s)
        regions = ref_voronoi_regions(config.height, config.width, config.n_regions, rng)
        region_class = np.concatenate(
            [
                rng.permutation(n_classes) + 1,
                rng.integers(1, n_classes + 1, config.n_regions - n_classes),
            ]
        )
        truth = region_class[regions]
        noise = rng.standard_normal((config.height, config.width, config.channels))
        features = means[truth - 1] + config.sigma_within * noise
        features = features - features.min()

        mask = np.zeros_like(truth)
        flat_regions = regions.reshape(-1)
        flat_mask = mask.reshape(-1)
        for r in range(config.n_regions):
            code = int(region_class[r])
            if code in config.held_out:
                continue
            pix = np.flatnonzero(flat_regions == r)
            n_keep = max(1, int(round(config.sparsity * pix.size)))
            keep = pix if n_keep >= pix.size else rng.choice(pix, size=n_keep, replace=False)
            flat_mask[keep] = code
        subjects.append((features, truth, mask))
    return subjects


# -- random inputs -----------------------------------------------------------


def weighted_trees(seed, count):
    """Random trees, ragged or full, under every scheme and with random real weights."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        tree = random_tree(rng, depth=int(rng.integers(1, 5)), branching=(1, 4), ragged=bool(rng.random() < 0.7))
        kind = rng.choice(["top", "leaf", "equal", "hier", "random"])
        if kind == "random":
            raw = rng.random(tree.n_nodes) * 10.0 ** rng.integers(-3, 4)
            raw[rng.random(tree.n_nodes) < 0.2] = 0.0
            yield replace(tree, edge_weight={v: float(raw[v]) for v in tree.edge_weight})
        else:
            yield assign_weights(tree, EdgeWeightScheme(str(kind), kappa=float(rng.uniform(0.1, 12.0))))


def random_codes(rng, n_codes, size):
    """Codes 0..n_codes+2: background, classes, and codes above every class."""
    return rng.integers(0, n_codes + 3, size=size)


def random_classes(rng, n_codes):
    """A shuffled subset of 1..n_codes+1, so some classes never occur and some codes are not classes."""
    picked = rng.permutation(np.arange(1, n_codes + 2))[: int(rng.integers(1, n_codes + 2))]
    return [int(c) for c in picked]


def label_image(rng, n_codes, shape):
    """Codes 0..n_codes+2, either per pixel or in blocks, so regions have interiors."""
    if rng.random() < 0.5:
        return random_codes(rng, n_codes, shape)
    img = random_codes(rng, n_codes, tuple(max(1, s // 3) for s in shape))
    for axis, s in enumerate(shape):
        img = np.repeat(img, -(-s // img.shape[axis]), axis=axis)
    return img[tuple(slice(0, s) for s in shape)]


def probability_fields(rng, tree, shape, count):
    """Dirichlet rows, or coarse rows in tenths and quarters whose level scores hit grid values."""
    for _ in range(count):
        if rng.random() < 0.5:
            yield rng.dirichlet(np.full(tree.n_leaves, rng.choice([0.2, 1.0])), size=shape)
        else:
            units = int(rng.choice([4, 10]))
            ticks = rng.multinomial(units, np.full(tree.n_leaves, 1.0 / tree.n_leaves), size=shape)
            yield ticks / units


def grids(rng):
    """Sorted, shuffled, repeated and single-point threshold grids."""
    sorted_grid = default_grid(float(rng.choice([0.05, 0.1, 0.25])))
    yield sorted_grid
    yield rng.permutation(sorted_grid)
    yield rng.permutation(np.concatenate([sorted_grid, sorted_grid[rng.integers(0, sorted_grid.size, 5)]]))
    yield np.array([float(rng.choice(sorted_grid))])


# -- tree queries ------------------------------------------------------------


def test_tree_queries_match_the_walks():
    checked = 0
    for tree in weighted_trees(0, 300):
        for k in range(tree.levels):
            assert np.array_equal(leaf_level_map(tree, k), ref_leaf_level_map(tree, k))
            assert level_nodes(tree, k) == ref_level_nodes(tree, k)
            assert score_at_level(tree, np.full((1, tree.n_leaves), 1.0 / tree.n_leaves), k)[1] == sorted(ref_level_nodes(tree, k))
            assert level_classes(tree, k) == [v + 1 for v in sorted(ref_level_nodes(tree, k))]
        for v in range(tree.n_nodes):
            assert tree.leaves_under(v) == ref_leaves_under(tree, v)
            assert ancestors(tree, v) == ref_ancestors(tree, v)
        u = np.zeros((tree.n_nodes, tree.n_leaves))
        u[tree.ancestor_table[: tree.n_leaves], np.arange(tree.n_leaves)[:, None]] = 1.0
        assert np.array_equal(u, ref_ancestor_matrix(tree))
        assert np.array_equal(distance_matrix(tree), ref_distance_matrix(tree))
        checked += tree.levels > 1
    assert checked > 100  # most trees have more than one level


def test_distance_matrix_matches_the_lca_walk_on_weighted_trees():
    for tree in weighted_trees(1, 1500):
        assert np.array_equal(distance_matrix(tree), ref_distance_matrix(tree))


# -- pixel counts ------------------------------------------------------------


def test_scores_match_the_per_class_loops():
    rng = np.random.default_rng(2)
    for trial in range(400):
        n_codes = int(rng.integers(1, 25))
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        pred = random_codes(rng, n_codes, shape)
        truth = random_codes(rng, n_codes, shape)
        classes = random_classes(rng, n_codes)
        domain = None if trial % 3 == 0 else rng.random(shape) < rng.random()
        empty = not (truth > 0).any() if domain is None else not domain.any()
        if empty:
            with pytest.raises(EmptyEvalError):
                dice_scores(pred, truth, classes, domain)
            continue
        assert np.array_equal(dice_scores(pred, truth, classes, domain), ref_dice_scores(pred, truth, classes, domain), equal_nan=True)
        got, ref = ovr_scores(pred, truth, classes, domain), ref_ovr_scores(pred, truth, classes, domain)
        assert got.keys() == ref.keys()
        for key in ref:
            assert np.array_equal(got[key], ref[key], equal_nan=True), key


def test_confusion_matches_the_counting_loop():
    rng = np.random.default_rng(3)
    for trial in range(200):
        n_codes = int(rng.integers(1, 20))
        n_folds = int(rng.integers(1, 4))
        shapes = [(int(rng.integers(1, 30)),) for _ in range(n_folds)]
        preds = [random_codes(rng, n_codes, s) for s in shapes]
        truths = [random_codes(rng, n_codes, s) for s in shapes]
        for t in truths:
            t[0] = 1  # a nonempty default domain
        domains = None if trial % 2 else [rng.random(s) < 0.7 for s in shapes]
        if domains is not None:
            for d in domains:
                d[0] = True
        classes = random_classes(rng, n_codes)
        for background in (False, True):
            got = confusion(preds, truths, classes, domains, include_background=background)
            assert np.array_equal(got.per_fold, ref_confusion_counts(preds, truths, classes, domains, background))


def test_scores_reject_repeated_class_codes():
    with pytest.raises(ConfigError, match="distinct and non-negative"):
        ovr_scores(np.array([1, 2]), np.array([1, 2]), [1, 2, 1])


def test_empty_class_list_scores_nothing():
    assert dice_scores(np.array([1]), np.array([1]), []).shape == (0,)
    assert all(v.shape == (0,) for v in ovr_scores(np.array([1]), np.array([1]), []).values())


# -- scoring passes ----------------------------------------------------------


@pytest.mark.parametrize("tolerance", [0, 0.5, np.sqrt(2), 2.5, 4])
def test_nsd_matches_the_per_class_distance_transform(tolerance):
    empty = np.zeros((0, 4), dtype=np.int64)
    assert np.array_equal(nsd_scores(empty, empty, [1, 2], tolerance), ref_nsd_scores(empty, empty, [1, 2], tolerance), equal_nan=True)
    rng = np.random.default_rng(int(10 * tolerance))
    for trial in range(80):
        ndim = 3 if trial % 3 == 0 else 2
        shape = tuple(int(rng.integers(1, 9 if ndim == 3 else 24)) for _ in range(ndim))
        n_codes = int(rng.integers(1, 8))
        pred, truth = label_image(rng, n_codes, shape), label_image(rng, n_codes, shape)
        classes = random_classes(rng, n_codes)
        spacing = None if trial % 2 else tuple(float(s) for s in rng.choice([0.5, 0.7, 1.0, 1.5, 2.0], size=ndim))
        got = nsd_scores(pred, truth, classes, tolerance, spacing)
        assert np.array_equal(got, ref_nsd_scores(pred, truth, classes, tolerance, spacing), equal_nan=True)


def test_level_scores_match_the_pixel_major_sum():
    rng = np.random.default_rng(11)
    for tree in weighted_trees(12, 150):
        probs = rng.dirichlet(np.ones(tree.n_leaves), size=(int(rng.integers(1, 6)), 3))
        assert np.array_equal(aggregate(tree, probs), ref_aggregate(tree, probs))
        for k in range(tree.levels):
            got, nodes = score_at_level(tree, probs, k)
            ref, ref_nodes = ref_score_at_level(tree, probs, k)
            assert nodes == ref_nodes
            assert np.array_equal(got, ref)


def test_sweep_matches_the_per_grid_point_loop():
    rng = np.random.default_rng(13)
    checked = 0
    for tree in weighted_trees(14, 40):
        shape = (int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        fields = list(probability_fields(rng, tree, shape, int(rng.integers(1, 4))))
        masks = [rng.integers(1, tree.n_leaves + 1, size=shape) for _ in fields]
        for mask in masks:
            mask[rng.random(shape) < 0.4] = 0  # unannotated or pseudo-background
        masks[0].flat[0] = 1  # at least one annotated pixel
        if len(masks) > 1:
            masks[-1][:] = 0  # a field with nothing annotated
        for k in range(tree.levels):
            for grid in grids(rng):
                tau, curve = sweep_tau(tree, fields, masks, k, grid)
                ref_tau, ref_curve = ref_sweep_tau(tree, fields, masks, k, grid)
                assert tau == ref_tau
                assert np.array_equal(curve, ref_curve)
                checked += 1
    assert checked > 200


# -- gating from four per-pixel vectors ----------------------------------------
# ``LevelScorer.score`` reduces an image's (C, n) probabilities at once to
# four (n,) vectors and drops them; the gate and the leaf argmax read those.
# The frozen pair below read the probabilities at gating time instead, kept
# beside the image until every threshold was known.


def ref_gate_from_probs(scorer, probs, tau):
    """``(labels, level_class, ungated leaf argmax)`` of class-major (C, n) probabilities,
    the leaf inside the winning slot looked up in the probabilities once tau is known."""
    best, top = first_max(scorer.scores(probs))
    keep = top > tau
    lone = np.array([leaves[0] + 1 if leaves.size == 1 else 0 for leaves in scorer.under], dtype=np.int64)
    labels = np.where(keep, lone[best], 0)
    for slot, leaves in enumerate(scorer.under):
        if leaves.size == 1:
            continue
        cols = np.flatnonzero(keep & (best == slot))
        if cols.size:
            labels[cols] = leaves[first_max(probs[np.ix_(leaves, cols)])[0]] + 1
    return labels, scorer.node_ids[best], best if scorer.k == 0 else first_max(probs)[0]


def tied_probabilities(rng, tree, n):
    """(C, n) rows in tenths or quarters, so leaves and level scores tie, plus a uniform column."""
    units = int(rng.choice([4, 10]))
    p = rng.multinomial(units, np.full(tree.n_leaves, 1.0 / tree.n_leaves), size=n) / units
    p[0] = 1.0 / tree.n_leaves
    return np.ascontiguousarray(p.T)


def test_gate_from_the_scored_vectors_matches_the_gate_from_probabilities():
    rng = np.random.default_rng(17)
    checked = 0
    for tree in weighted_trees(18, 60):
        levels = {resolve_level(tree, level) for level in ("leaf", "topmost")} | ({1} if tree.levels > 1 else set())
        for probs in (tied_probabilities(rng, tree, 40), np.ascontiguousarray(rng.dirichlet(np.ones(tree.n_leaves), size=40).T)):
            for k in sorted(levels):
                scorer = LevelScorer(tree, k)
                image = scorer.score(probs.copy())
                for tau in (0.0, 0.5, 0.99):
                    labels, level_class, leaf = ref_gate_from_probs(scorer, probs, tau)
                    got_labels, got_class = scorer.gate(image, tau), scorer.node_ids[image.best]
                    for got, ref in ((got_labels, labels), (got_class, level_class), (image.leaf, leaf)):
                        assert got.dtype == ref.dtype
                        assert np.array_equal(got, ref)
                    checked += 1
    assert checked > 500


# -- tree-weighted CE --------------------------------------------------------


def tree_with_leaves(seed, lo, hi, branching):
    """A ragged depth-3 random tree with lo..hi leaves."""
    rng = np.random.default_rng(seed)
    while True:
        tree = random_tree(rng, depth=3, branching=branching, ragged=True)
        if lo <= tree.n_leaves <= hi:
            return tree


def twce_trees():
    """Ragged trees with ~21 and >= 99 leaves, a leaf at depth 1 beside leaves
    at depths 2 and 3, under the hier scheme and under random weights with zeros."""
    shallow = build_tree("root", {"root": ["a", "b", "c"], "b": ["d", "e"], "c": ["f", "g"], "g": ["h", "i", "j"]})
    rng = np.random.default_rng(21)
    for tree in (tree_with_leaves(17, 19, 23, (2, 3)), tree_with_leaves(18, 99, 140, (4, 6)), shallow):
        yield assign_weights(tree, EdgeWeightScheme("hier", kappa=10.0))
        raw = rng.random(tree.n_nodes) * 10.0
        raw[rng.random(tree.n_nodes) < 0.2] = 0.0
        yield replace(tree, edge_weight={v: float(raw[v]) for v in tree.edge_weight})


@pytest.mark.parametrize("scale", [3.0, 80.0])
@pytest.mark.parametrize("sparse", [False, True])
def test_twce_matches_the_dense_kernel(scale, sparse):
    rng = np.random.default_rng(22 + int(scale) + sparse)
    trees = list(twce_trees())
    assert {tree.n_leaves >= 99 for tree in trees} == {False, True}
    shallow = trees[-1]
    assert {shallow.depth[g] for g in range(shallow.n_leaves)} == {1, 2, 3}
    dead = 0
    for tree in trees:
        for shape in ((1,), (300,), (17, 13)):
            logits = scale * rng.normal(size=(*shape, tree.n_leaves))
            target = rng.integers(1, tree.n_leaves + 1, size=shape)
            if sparse:
                target[rng.random(shape) < 0.4] = 0
                target.flat[0] = 1
            ref_loss, ref_grad = ref_dense_twce(tree, losses._Batch(logits.reshape(-1, tree.n_leaves).T.copy(), target, tree.n_leaves))
            assert_twce_close(*tree_weighted_ce(tree, logits, target), ref_loss, ref_grad.T.reshape(logits.shape))
            true_mass = softmax(logits)[target > 0, target[target > 0] - 1]
            dead += int(np.sum(true_mass <= LOG_GUARD))
    assert (dead > 0) == (scale == 80.0)  # x80 logits put true leaves below the log guard


# -- the tree-weighted CE push-down -----------------------------------------
# ``_TreeCE`` writes each chain term on its node and pushes the rows down the
# tree in its scratch. The frozen kernel below is the one the push-down
# replaced: a table of LCA depths, each pixel's prefix sums of its chain, and a
# (C, T) gather of dL/dp from them. They must agree to the bit, signs of zero
# included: without its zero rules the push-down differed in the sign of zero.


class ChainGatherTreeCE(losses._TreeCE):
    def __init__(self, tree, alpha=1.0):
        super().__init__(tree, alpha)
        self.n_nodes = tree.n_nodes
        own = np.arange(1, tree.levels + 1)[:, None] <= np.array([tree.depth[g] for g in range(self.n_classes)])
        # lca[l, g]: how many non-root ancestors leaves l and g share, the depth of their LCA
        self.lca = ((self.chain[:, :, None] == self.chain[:, None]) & own[:, None]).sum(axis=0)

    def __call__(self, b, beta, scratch=None):
        k, rows = self.chain.shape[0], np.arange(b.width)
        mass = np.empty((self.n_nodes, b.width))
        mass[: self.n_classes] = b.p
        losses._sum_up(b.p, self.plan, mass[self.n_classes :])
        at = np.take(self.chain, b.leaf, axis=1)
        at *= b.width
        at += rows
        mass = np.take(mass, at)
        w = np.take(self.weight, b.leaf, axis=1)
        live = mass > LOG_GUARD
        per = np.add.reduce(w * np.log(np.maximum(mass, LOG_GUARD)), axis=0)
        np.negative(per, out=per)
        q = np.divide(w, mass, out=np.zeros_like(mass), where=live)
        np.negative(q, out=q)
        cum = np.zeros((b.width, k + 1))
        np.cumsum(q, axis=0, out=cum.T[1:])
        inner = np.add.reduce(np.multiply(q, mass, out=q), axis=0)
        inner -= beta
        at = np.take(self.lca, b.leaf, axis=1)
        at += (k + 1) * rows
        grad = np.take(cum, at)
        grad -= inner
        b.p *= grad
        b.flat[b.true] -= beta
        b.p /= b.n
        return per


def push_down_cases(seed, count):
    """(weighted tree, logits (C, n), codes, alpha, beta, seg): ragged trees of depth 1-4 under
    the hier scheme or random weights with zeros, sparse and dense codes, logits up to x80."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        tree = random_tree(rng, depth=int(rng.integers(1, 5)), branching=(2, 4), ragged=True)
        if i % 2:
            raw = rng.random(tree.n_nodes) * 10.0
            raw[rng.random(tree.n_nodes) < 0.2] = 0.0
            tree = replace(tree, edge_weight={v: float(raw[v]) for v in tree.edge_weight})
        else:
            tree = assign_weights(tree, EdgeWeightScheme("hier", kappa=float(rng.choice([2.0, 10.0]))))
        n = int(rng.integers(1, 120))
        codes = rng.integers(1, tree.n_leaves + 1, size=n)
        if rng.random() < 0.5:
            codes[rng.random(n) < 0.4] = 0
            codes[0] = 1
        logits = float(rng.choice([1.0, 3.0, 80.0])) * rng.normal(size=(tree.n_leaves, n))
        yield tree, logits, codes, float(rng.choice([0.5, 1.0])), float(rng.choice([0.0, 0.5])), str(rng.choice(["ce", "none"]))


def assert_push_down_matches_the_gather(monkeypatch, cases, width=None):
    for tree, logits, codes, alpha, beta, seg in cases:
        if width is not None:
            monkeypatch.setattr(losses, "TILE_BYTES", 8 * tree.n_leaves * width)
        got_loss, got = losses._Loss(losses._TreeCE(tree, alpha), seg, beta, tree.n_leaves)(logits.copy(), codes)
        ref_loss, ref = losses._Loss(ChainGatherTreeCE(tree, alpha), seg, beta, tree.n_leaves)(logits.copy(), codes)
        assert got_loss == ref_loss
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_twce_push_down_matches_the_chain_gather(monkeypatch):
    cases = list(push_down_cases(41, 300))
    assert {tree.levels for tree, *_ in cases} == {1, 2, 3, 4}
    assert_push_down_matches_the_gather(monkeypatch, cases)


def test_twce_push_down_matches_the_chain_gather_in_tiles(monkeypatch):
    """Tiles of 7 columns: one scratch serves tiles of 7 columns and a last one of 8 when a
    lone column joins it."""
    cases = [case for case in push_down_cases(42, 120) if (case[2] > 0).sum() > 8]
    assert any((codes > 0).sum() % 7 == 1 for _, _, codes, *_ in cases)
    assert_push_down_matches_the_gather(monkeypatch, cases, width=7)


# -- synthetic corpora -------------------------------------------------------


def test_voronoi_regions_match_the_full_distance_array():
    rng = np.random.default_rng(31)
    for height, width, n_regions in ((1, 1, 1), (1, 9, 4), (8, 8, 3), (37, 91, 40), (64, 64, 48), (17, 5, 200)):
        seed = int(rng.integers(1 << 30))
        got = synth._voronoi_regions(height, width, n_regions, np.random.default_rng(seed))
        want = ref_voronoi_regions(height, width, n_regions, np.random.default_rng(seed))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def generate_cases():
    tree = make_random_tree(4)
    wide = tree_with_leaves(19, 99, 99, (4, 5))
    return [
        pytest.param(SynthConfig(sparsity=0.6), id="readme-default"),
        pytest.param(SynthConfig(n_subjects=3, sparsity=0.3, held_out=(1, 3), seed=5), id="sparse-held-out"),
        pytest.param(SynthConfig(n_subjects=2, height=37, width=91, channels=3, n_regions=40, sparsity=0.7, seed=9), id="37x91"),
        pytest.param(SynthConfig(tree=tree, n_subjects=2, n_regions=tree.n_leaves, sparsity=0.5, seed=2), id="one-region-per-class"),
        pytest.param(SynthConfig(tree=wide, n_subjects=2, height=128, width=128, n_regions=160, seed=3), id="128x128-C99"),
    ]


@pytest.mark.parametrize("config", generate_cases())
def test_generate_matches_the_full_distance_generator(config):
    corpus = generate(config)
    want = ref_generate(config)
    assert len(corpus.subjects) == len(want) == config.n_subjects
    for sub, (features, truth, mask) in zip(corpus.subjects, want):
        for got, ref in ((sub.features, features), (sub.truth, truth), (sub.mask, mask)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def rebind(monkeypatch, original, replacement):
    """Replace ``original`` in every treeseg module that holds it by name."""
    for name, module in list(sys.modules.items()):
        if name.startswith("treeseg"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def forbidden(*args, **kwargs):
    raise AssertionError("a per-class or per-grid-point pass was made")


def guard_inputs():
    tree = random_tree(np.random.default_rng(15), depth=3, ragged=True)
    rng = np.random.default_rng(16)
    return tree, rng.dirichlet(np.ones(tree.n_leaves), size=(9, 7)), rng.integers(1, tree.n_leaves + 1, size=(9, 7))


def test_nsd_takes_no_distance_transform(monkeypatch):
    monkeypatch.setattr(ndimage, "distance_transform_edt", forbidden)
    tree, _, truth = guard_inputs()
    pred = np.roll(truth, 1, axis=0)
    for tolerance in (0, 2.0):
        assert nsd_scores(pred, truth, list(range(1, tree.n_leaves + 1)), tolerance).shape == (tree.n_leaves,)


def test_sweep_scores_no_grid_point_on_its_own(monkeypatch):
    rebind(monkeypatch, ovr_scores, forbidden)
    tree, probs, truth = guard_inputs()
    for k in range(tree.levels):
        assert sweep_tau(tree, [probs], [truth], k, default_grid(0.1))[1].shape == (10, 4)


def test_level_zero_scores_sum_no_subtree(monkeypatch):
    rebind(monkeypatch, losses._sum_up, forbidden)
    tree, probs, truth = guard_inputs()
    assert np.array_equal(score_at_level(tree, probs, 0)[0], probs)
    tau, _ = sweep_tau(tree, [probs], [truth], 0, default_grid(0.1))
    assert gate(tree, probs, ThresholdPolicy(tau, level=0)).labels.shape == (9, 7)


# -- compile once ------------------------------------------------------------


def test_level_path_walks_no_parent_chain(monkeypatch):
    """Once the ancestor table is built, gating, sweeping, evaluation and the
    tree matrices never walk a parent chain again."""
    tree = assign_weights(random_tree(np.random.default_rng(7), depth=3, ragged=True), EdgeWeightScheme("hier", kappa=3.0))
    tree.ancestor_table  # noqa: B018 - build the table before walks are forbidden

    class ParentLookupsForbidden(dict):
        def __getitem__(self, *args):
            raise AssertionError("a parent chain was walked after the ancestor table was built")

        get = __getitem__

    monkeypatch.setattr(tree, "parent", ParentLookupsForbidden(tree.parent))
    rng = np.random.default_rng(8)
    probs = rng.dirichlet(np.ones(tree.n_leaves), size=(6, 5))
    truth = rng.integers(1, tree.n_leaves + 1, size=(6, 5))
    for k in range(tree.levels):
        field = gate(tree, probs, ThresholdPolicy(0.3, level=k))
        tau, curve = sweep_tau(tree, [probs], [truth], k, default_grid(0.1))
        assert 0.0 <= tau < 1.0 and curve.shape == (10, 4)
        report = evaluate_level(tree, field.labels, truth, k, domain=field.labels >= 0)
        assert len(report.classes) == len(level_nodes(tree, k))
        assert leaf_level_map(tree, k).shape == (tree.n_leaves,)
    assert all(tree.leaves_under(v) for v in range(tree.n_nodes))
    assert distance_matrix(tree).shape == (tree.n_leaves, tree.n_leaves)


def test_ancestor_table_is_read_only(three_leaf_tree):
    table = three_leaf_tree.ancestor_table
    assert table.shape == (three_leaf_tree.n_nodes, three_leaf_tree.levels + 1)
    with pytest.raises(ValueError):
        table[0, 0] = 1
    leaf_level_map(three_leaf_tree, 0)[0] = 99  # a copy, not a view of the cache
    assert np.array_equal(leaf_level_map(three_leaf_tree, 0), np.arange(three_leaf_tree.n_leaves))


# -- one copy of the training features -----------------------------------------
# ``fit`` hands its preprocessing to ``train``, which applies it to the
# annotated pixels it keeps, and each loss tile reads its columns from the
# batch's images, a view inside one image. The frozen pair below is the
# earlier data path: a preprocessed copy of every training image, each
# batch's features concatenated, and each tile a column slice of that.


def ref_train(subjects, tree, spec, config):
    """``train`` with each batch's features concatenated (Adam only)."""
    loss_fn = make_loss(tree, spec)

    def annotated(features, mask):
        keep = mask.reshape(-1) > 0
        return np.ascontiguousarray(features.reshape(-1, features.shape[-1])[keep].T), mask.reshape(-1)[keep]

    static = [annotated(f, m) for f, m in subjects]
    params = init_params(config.model, subjects[0][0].shape[-1], tree.n_leaves, config.hidden, substream(config.seed, "init"))
    first, second = [np.zeros_like(a) for a in params.arrays], [np.zeros_like(a) for a in params.arrays]
    step, trace = 0, []
    for epoch in range(config.epochs):
        rng = substream(config.seed, "epoch", epoch)
        order = rng.permutation(len(subjects))
        pool = static
        if config.augment:
            flips = rng.random((len(subjects), 2)) < 0.5
            pool = [annotated(training._flip(f, fh, fv), training._flip(m, fh, fv)) for (f, m), (fh, fv) in zip(subjects, flips)]
        lr = config.lr * config.gamma**epoch
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            chosen = order[start : start + config.batch_size]
            x = np.concatenate([pool[i][0] for i in chosen], axis=1)
            y = np.concatenate([pool[i][1] for i in chosen])
            if y.size == 0:
                continue
            terms, grads = Terms(y.size), None
            for lo, hi in batch_tiles(y.size, tree.n_leaves, spec.seg == "dice_ce"):
                tile_grads = training._tile_gradients(params, loss_fn, x[:, lo:hi], y[lo:hi], terms)
                grads = tile_grads if grads is None else [g + t for g, t in zip(grads, tile_grads)]
            step += 1
            for a, g, m1, m2 in zip(params.arrays, grads, first, second):
                m1 *= config.beta1
                m1 += (1 - config.beta1) * g
                m2 *= config.beta2
                m2 += (1 - config.beta2) * g * g
                mhat = m1 / (1 - config.beta1**step)
                vhat = m2 / (1 - config.beta2**step)
                a -= lr * mhat / (np.sqrt(vhat) + config.adam_eps)
            batch_losses.append(terms.loss())
        trace.append(float(np.mean(batch_losses)))
    return params, trace


def ref_fit(corpus, fold, config):
    """``fit`` with a preprocessed copy of every training image."""
    data = synth.train_view(corpus, fold)
    if config.preproc == "standardize":
        mu, sd = fit_standardizer([f for f, _ in data])
        data = [((f - mu) / sd, m) for f, m in data]
    elif config.preproc == "l1":
        data = [(training.l1_normalize(f), m) for f, m in data]
    seed = int(substream(config.seed, "train", fold.index).integers(2**31))
    params, trace = ref_train(data, corpus.tree, config.loss, replace(config.train, seed=seed))
    if config.preproc == "standardize":
        params = absorb_standardization(params, mu, sd)
    params.preproc = "l1" if config.preproc == "l1" else "none"
    return params, trace


def counted_corpus(tree, counts, shape, channels, seed):
    """A corpus whose i-th mask annotates exactly ``counts[i]`` pixels, on features of
    unequal channel scales and offsets, and the fold that trains on all of it."""
    rng = np.random.default_rng(seed)
    subjects = []
    for n in counts:
        truth = rng.integers(1, tree.n_leaves + 1, size=shape)
        mask = np.where(rng.permutation(truth.size).reshape(shape) < n, truth, 0)
        features = rng.standard_normal((*shape, channels)) * rng.uniform(0.5, 3.0, channels) + rng.uniform(-2.0, 2.0, channels)
        subjects.append(synth.Subject(features, truth, mask))
    fold = synth.FoldSpec(index=1, train_subjects=tuple(range(len(counts))), val_subjects=(), held_out=())
    return synth.Corpus(tree=tree, subjects=subjects, config=SynthConfig(tree=tree)), fold


# (annotated pixels per subject, tile width, batch size): tiles of 4 that end on
# subject boundaries or inside the 8-pixel subject; 13 columns whose lone last
# column joins the last tile and whose tiles span subjects; batches of two with
# one-pixel and empty batches. Every layout holds a subject with no annotated pixel.
FIT_LAYOUTS = {
    "on-boundaries": ((4, 8, 0, 4), 4, 4),
    "spanning-leftover": ((5, 7, 0, 1), 4, 4),
    "pairs": ((6, 0, 3, 5, 1), 3, 2),
}


@pytest.mark.parametrize("layout", sorted(FIT_LAYOUTS))
@pytest.mark.parametrize("augment", [False, True], ids=["plain", "augment"])
@pytest.mark.parametrize("model", ["linear", "mlp"])
@pytest.mark.parametrize("preproc", ["standardize", "l1", "none"])
def test_fit_matches_the_preprocessed_image_copies(monkeypatch, layout, augment, model, preproc):
    counts, width, batch_size = FIT_LAYOUTS[layout]
    tree = make_random_tree(5)
    corpus, fold = counted_corpus(tree, counts, (4, 5), 3, seed=len(counts) * 10 + width)
    monkeypatch.setattr(losses, "TILE_BYTES", 8 * tree.n_leaves * width)
    train = TrainConfig(model=model, hidden=6, lr=0.05, epochs=4, batch_size=batch_size, augment=augment)
    spec = LossSpec("wass", EdgeWeightScheme("hier", kappa=2.0), seg="ce")
    config = ExperimentConfig(loss=spec, train=train, corpus_path="unused", preproc=preproc, seed=3)
    params, trace = fit(corpus, fold, config)
    ref_params, ref_trace = ref_fit(corpus, fold, config)
    assert trace == ref_trace
    assert params.preproc == ref_params.preproc
    for got, ref in zip(params.arrays, ref_params.arrays, strict=True):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("model", ["linear", "mlp"])
@pytest.mark.parametrize("preproc", ["standardize", "l1"])
def test_fit_matches_the_preprocessed_image_copies_at_c99(monkeypatch, model, preproc):
    """Dense 32x32 subjects of 16 channels at C = 99 in tiles of 700 columns, inside and across subjects."""
    tree = parse_tree(wide_tree_doc())
    corpus, fold = counted_corpus(tree, (1024, 0, 1024, 1024), (32, 32), 16, seed=8)
    monkeypatch.setattr(losses, "TILE_BYTES", 8 * tree.n_leaves * 700)
    train = TrainConfig(model=model, hidden=12, lr=0.05, epochs=2, batch_size=4)
    config = ExperimentConfig(loss=LossSpec("wass", EdgeWeightScheme("hier", kappa=10.0)), train=train, corpus_path="unused", preproc=preproc, seed=4)
    params, trace = fit(corpus, fold, config)
    ref_params, ref_trace = ref_fit(corpus, fold, config)
    assert trace == ref_trace
    for got, ref in zip(params.arrays, ref_params.arrays, strict=True):
        assert got.tobytes() == ref.tobytes()



# -- the streamed standardizer ---------------------------------------------------
# ``fit_standardizer`` streams the images through one buffer, the running sum
# first, and never concatenates them. The frozen reference is the one that did.


def ref_fit_standardizer(features):
    stacked = np.concatenate([f.reshape(-1, f.shape[-1]) for f in features])
    mu, sd = stacked.mean(axis=0), stacked.std(axis=0)
    return mu, np.where(sd > 0, sd, 1.0)


def unequal_images(rng, channels, scale):
    """Images of unequal sizes whose channels have spreads and offsets around ``scale``; the
    last channel is a power of two everywhere, so its sums are exact and its std reads 1."""
    images = []
    for shape in ((1, 1), (3, 4), (17, 5), (64, 64), (2, 33)):
        spread = scale * rng.uniform(0.1, 10.0, channels)
        offset = scale * rng.uniform(-100.0, 100.0, channels)
        image = rng.standard_normal((*shape, channels)) * spread + offset
        image[..., channels - 1] = np.exp2(np.round(np.log2(scale)))
        images.append(image)
    return images


@pytest.mark.parametrize("channels", [2, 5, 16])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
def test_streamed_standardizer_matches_the_concatenation(channels, scale):
    rng = np.random.default_rng(channels + int(np.log10(scale)) + 50)
    for _ in range(4):
        images = unequal_images(rng, channels, scale)
        rng.shuffle(images)
        mu, sd = fit_standardizer(images)
        ref_mu, ref_sd = ref_fit_standardizer(images)
        assert mu.tobytes() == ref_mu.tobytes()
        assert sd.tobytes() == ref_sd.tobytes()
        assert sd[-1] == 1.0


def test_streamed_standardizer_of_one_channel_sums_each_image_after_the_running_sum():
    """At d = 1 numpy sums a column pairwise, not row by row, so the streamed sums are each
    image's column after the running sum, and may differ from the concatenation's in the last bits."""
    rng = np.random.default_rng(57)
    for scale in (1e-3, 1.0, 1e6):
        images = [s * rng.standard_normal((*shape, 1)) + scale for shape, s in (((64, 64), scale), ((3, 5), 2 * scale), ((40, 1), scale))]

        def streamed(columns):
            acc = np.add.reduce(columns[0])
            for col in columns[1:]:
                acc = np.add.reduce(np.concatenate([[acc], col]))
            return acc

        columns = [f.reshape(-1) for f in images]
        mu = streamed(columns) / sum(c.size for c in columns)
        sd = np.sqrt(streamed([np.square(c - mu) for c in columns]) / sum(c.size for c in columns))
        got_mu, got_sd = fit_standardizer(images)
        assert got_mu.tobytes() == np.array([mu]).tobytes()
        assert got_sd.tobytes() == np.array([sd]).tobytes()
        ref_mu, ref_sd = ref_fit_standardizer(images)
        np.testing.assert_allclose(got_mu, ref_mu, rtol=1e-13, atol=0)
        np.testing.assert_allclose(got_sd, ref_sd, rtol=1e-12, atol=0)
