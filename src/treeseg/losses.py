"""Segmentation losses with analytic gradients w.r.t. pre-softmax logits.

Conventions used throughout:

* ``logits`` has shape ``(..., C)``; leading dimensions are pixels and are
  flattened internally. Gradients are returned in the original shape.
* ``target`` holds per-pixel class codes: ``0`` means unannotated, codes
  ``1..C`` map to leaf index ``code - 1``. Per-pixel losses average over
  annotated pixels only, in fixed index order, double precision.
* Every loss returns ``(loss, grad)`` where ``grad`` is the derivative of
  the scalar loss w.r.t. the logits.

The semantic losses are the label-space Wasserstein loss (closed form
``p^T M g`` for crisp ground truth) and the tree-weighted cross-entropy
over aggregated node probabilities; both can be compounded with a generic
segmentation loss as ``alpha * semantic + beta * seg``.

Each term has one kernel that reads a validated batch (``_Batch``) with
its softmax already taken. The public functions run one kernel on one
batch; a compound runs both kernels on the same batch, and ``make_loss``
compiles the tree into the kernels' arrays once. The tree-weighted CE
kernel reads only each pixel's ancestor chain (K nodes), not every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distances import distance_matrix
from .errors import ConfigError, EmptyMaskError, LabelError, NormalizationError
from .hierarchy import EdgeWeightScheme, LabelTree, assign_weights, edge_weight_vector

LOG_GUARD = 1e-12  # aggregated probabilities are sums of softmax outputs, clamp before log
DICE_SMOOTH = 1e-5

SEG_KINDS = ("ce", "dice_ce", "none")
SEMANTIC_KINDS = ("wass", "twce")


@dataclass(frozen=True)
class LossSpec:
    """Compound loss configuration: alpha * semantic + beta * seg.

    ``seg="none"`` is only allowed for the tree-weighted CE, where the
    leaf-edge terms already play the role of a CE on leaves.
    """

    semantic: str
    scheme: EdgeWeightScheme
    seg: str = "ce"
    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self):
        if self.semantic not in SEMANTIC_KINDS:
            raise ConfigError(f"semantic must be one of {SEMANTIC_KINDS}, got {self.semantic!r}")
        if self.seg not in SEG_KINDS:
            raise ConfigError(f"seg must be one of {SEG_KINDS}, got {self.seg!r}")
        for key, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0 <= value < math.inf:
                raise ConfigError(f"{key} must be finite and nonnegative, got {value!r}")
        if self.seg == "none" and self.semantic != "twce":
            raise ConfigError("seg='none' is only valid with the tree-weighted CE")


def _shifted(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    return z - z.max(axis=-1, keepdims=True)


def _exp_normalize(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of shifted logits ``z``, computed in z's own buffer; returns it and the row sums."""
    p = np.exp(z, out=z)
    s = p.sum(axis=-1, keepdims=True)
    p /= s
    return p, s


def softmax(logits: np.ndarray) -> np.ndarray:
    return _exp_normalize(_shifted(logits))[0]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = _shifted(logits)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class _Batch:
    """One validated loss call: the annotated rows, their true leaves and one shared softmax.

    Every term reads the softmax ``p``, its row sums ``s`` and the true
    leaf's shifted logit from here, and returns its gradient on the
    annotated rows only; ``scatter`` places it back.
    """

    def __init__(self, logits: np.ndarray, target: np.ndarray, n_classes: int):
        logits = np.asarray(logits, dtype=float)
        self.shape = logits.shape
        flat = logits.reshape(-1, self.shape[-1])
        t = np.asarray(target).reshape(-1)
        if t.shape[0] != flat.shape[0]:
            raise LabelError(f"target has {t.shape[0]} pixels, logits have {flat.shape[0]}")
        if flat.shape[1] != n_classes:
            raise LabelError(f"expected {n_classes} logit columns, got {flat.shape[1]}")
        if t.size and (t.min() < 0 or t.max() > n_classes):
            bad = t[(t < 0) | (t > n_classes)][0]
            raise LabelError(f"class code {bad} outside 0..{n_classes}")
        idx = np.flatnonzero(t > 0)
        if idx.size == 0:
            raise EmptyMaskError("no annotated pixels")
        self.n_pixels, self.n = t.size, idx.size
        # fully annotated (every training batch): no gather and no scatter
        self.idx = None if idx.size == t.size else idx
        x = np.ascontiguousarray(flat) if self.idx is None else flat[idx]
        self.leaf = (t if self.idx is None else t[idx]) - 1
        self.rows = np.arange(self.n)
        z = _shifted(x)
        self.z_true = z[self.rows, self.leaf]
        self.p, self.s = _exp_normalize(z)

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """A gradient on the annotated rows, in the logits' shape; unannotated rows are zero."""
        if self.idx is not None:
            full = np.zeros((self.n_pixels, rows.shape[1]))
            full[self.idx] = rows
            rows = full
        return rows.reshape(self.shape)


def ancestor_matrix(tree: LabelTree) -> np.ndarray:
    """N x C 0/1 matrix: entry (v, l) is 1 iff leaf l lies in the subtree of v."""
    u = np.zeros((tree.n_nodes, tree.n_leaves))
    u[tree.ancestor_table[: tree.n_leaves], np.arange(tree.n_leaves)[:, None]] = 1.0
    return u


def _aggregation_plan(tree: LabelTree) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(node, children) of every inner node, children before parents."""
    return tuple((v, tuple(tree.nodes[v].children)) for v in tree.deepest_first() if tree.nodes[v].children)


def _sum_up(p: np.ndarray, plan: tuple, out: np.ndarray) -> np.ndarray:
    """(n, C) leaf probabilities -> subtree masses in ``out``, indexed node-major (N, n).

    Leaf rows are copied and every planned node is the sum of its children,
    in plan order. The caller picks the memory layout: a C-ordered (N, n)
    buffer keeps each node's row contiguous, the transposed view of an
    (n, N) buffer fills a pixel-major array with the same sums.
    """
    out[: p.shape[1]] = p.T
    for v, kids in plan:
        out[v] = out[kids[0]]
        for c in kids[1:]:
            out[v] += out[c]
    return out


def leaf_rows(tree: LabelTree, probs: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """``probs`` (..., C) as checked (n, C) probability rows, with the leading shape."""
    p = np.asarray(probs, dtype=float)
    lead = p.shape[:-1]
    p = p.reshape(-1, p.shape[-1])
    if p.shape[1] != tree.n_leaves:
        raise NormalizationError(f"expected {tree.n_leaves} leaf columns, got {p.shape[1]}")
    if np.any(p < -1e-9) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
        raise NormalizationError("rows must be probability vectors over the leaves")
    return p, lead


def aggregate(tree: LabelTree, probs: np.ndarray) -> np.ndarray:
    """Extend leaf probabilities to all nodes by one leaf-to-root pass.

    Equivalent to applying (I - A)^-1 to the zero-padded leaf vector, but
    computed by summing children into parents in depth order. Input is
    ``(..., C)``, output ``(..., N)``.
    """
    p, lead = leaf_rows(tree, probs)
    out = np.zeros((p.shape[0], tree.n_nodes))
    _sum_up(p, _aggregation_plan(tree), out.T)
    return out.reshape(*lead, tree.n_nodes)


def _chain_softmax(p: np.ndarray, dldp: np.ndarray) -> np.ndarray:
    """Push a gradient w.r.t. probabilities through the softmax Jacobian, in dldp's buffer."""
    inner = np.sum(p * dldp, axis=1, keepdims=True)
    dldp -= inner
    dldp *= p
    return dldp


# --- term kernels: (batch) -> (loss, gradient on the annotated rows) ---------


class _Wasserstein:
    """Closed-form label-space Wasserstein term over a fixed ground metric."""

    def __init__(self, m: np.ndarray):
        m = np.asarray(m, dtype=float)
        self.n_classes = m.shape[0]
        self.mt = np.ascontiguousarray(m.T)  # mt[g] = M[:, g], a contiguous row per true leaf

    def __call__(self, b: _Batch) -> tuple[float, np.ndarray]:
        cols = self.mt[b.leaf]  # (n, C): distance of every leaf to the true leaf
        per = np.sum(b.p * cols, axis=1)  # the per-pixel loss is also the softmax chain's inner product
        loss = float(per.mean())
        cols -= per[:, None]
        cols *= b.p
        cols /= b.n
        return loss, cols


class _TreeCE:
    """Tree-weighted CE term over a weighted tree compiled into its leaves' ancestor chains.

    A pixel's loss and gradient read only the chain of non-root ancestors
    of its true leaf g (g included, at most K nodes), with subtree masses
    P_v. With ``q_v = w_v / P_v`` on that chain, ``dL/dp_l = -sum q_v`` over
    the ancestors g shares with leaf l: a root-first prefix sum of the
    chain, cut at their LCA depth.
    """

    def __init__(self, tree: LabelTree):
        c = self.n_classes = tree.n_leaves
        self.n_nodes = tree.n_nodes
        self.plan = _aggregation_plan(tree)
        # chain[g, k]: g's ancestor at depth k + 1, root side first; g itself past its own depth
        self.chain = np.ascontiguousarray(tree.ancestor_table[:c, 1:])
        own = np.arange(1, tree.levels + 1) <= np.array([tree.depth[g] for g in range(c)])[:, None]
        self.weight = np.where(own, edge_weight_vector(tree)[self.chain], 0.0)  # (C, K), zero on the padding
        # lca[g, l]: how many non-root ancestors leaves g and l share, the depth of their LCA
        self.lca = ((self.chain[:, None] == self.chain[None]) & own[:, None]).sum(axis=2)

    def __call__(self, b: _Batch) -> tuple[float, np.ndarray]:
        k = self.chain.shape[1]
        mass = _sum_up(b.p, self.plan, np.empty((self.n_nodes, b.n)))  # node-major: contiguous rows to sum
        mass = mass[np.take(self.chain, b.leaf, axis=0), b.rows[:, None]]  # (n, K): the true leaf's chain
        w = np.take(self.weight, b.leaf, axis=0)
        live = mass > LOG_GUARD
        loss = float(-(w * np.log(np.maximum(mass, LOG_GUARD))).sum(axis=1).mean())
        q = np.divide(w, mass, out=np.zeros_like(mass), where=live)
        np.negative(q, out=q)
        cum = np.zeros((b.n, k + 1))  # cum[i, d]: the sum of -q over the first d chain nodes
        np.cumsum(q, axis=1, out=cum[:, 1:])
        # the softmax chain's inner product sum_l p_l dL/dp_l, summed per chain node
        inner = np.sum(np.multiply(q, mass, out=q), axis=1, keepdims=True)
        at = np.take(self.lca, b.leaf, axis=0)
        at += (k + 1) * b.rows[:, None]
        grad = np.take(cum, at)  # (n, C): dL/dp
        grad -= inner
        grad *= b.p
        grad /= b.n
        return loss, grad


def _ce(b: _Batch) -> tuple[float, np.ndarray]:
    loss = float(-(b.z_true - np.log(b.s[:, 0])).mean())
    grad = b.p.copy()
    grad[b.rows, b.leaf] -= 1.0
    grad /= b.n
    return loss, grad


def _dice(b: _Batch) -> tuple[float, np.ndarray]:
    if b.idx is not None:
        raise ConfigError("soft Dice requires a dense target (no unannotated pixels)")
    p = b.p
    onehot = np.zeros_like(p)
    onehot[b.rows, b.leaf] = 1.0
    num = 2.0 * np.sum(p * onehot, axis=0) + DICE_SMOOTH
    den = p.sum(axis=0) + onehot.sum(axis=0) + DICE_SMOOTH
    loss = float(np.mean(1.0 - num / den))
    # d(1 - num_c/den_c)/dp_ic = -(2 g_ic den_c - num_c) / den_c^2, averaged over classes
    dldp = -(2.0 * onehot * den - num) / (den * den) / p.shape[1]
    return loss, _chain_softmax(p, dldp)


def _one_term(term, n_classes: int, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    b = _Batch(logits, target, n_classes)
    loss, grad = term(b)
    return loss, b.scatter(grad)


def _compound(
    spec: LossSpec, semantic: _Wasserstein | _TreeCE, logits: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray]:
    """alpha * semantic + beta * seg on one batch and one softmax.

    The arithmetic is that of summing the separate terms, so the result is
    the same to the bit; ``alpha == 0`` (the plain-CE baseline) skips the
    semantic term, whose products would all be zero.
    """
    b = _Batch(logits, target, semantic.n_classes)
    loss, grad = 0.0, None
    if spec.alpha:
        sem, grad = semantic(b)
        loss = spec.alpha * sem
        grad *= spec.alpha
    if spec.seg != "none":
        seg, seg_grad = _ce(b)
        if spec.seg == "dice_ce":
            dc, dc_grad = _dice(b)
            seg = seg + dc
            seg_grad += dc_grad
        seg_grad *= spec.beta
        loss += spec.beta * seg
        if grad is None:
            grad = seg_grad
        else:
            grad += seg_grad
    return loss, b.scatter(np.zeros_like(b.p) if grad is None else grad)


# --- public entry points ------------------------------------------------------


def wasserstein_crisp(m: np.ndarray, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Closed-form label-space Wasserstein loss for crisp ground truth.

    Per annotated pixel the loss is ``sum_l M[l, g] p_l``, i.e. the
    expected tree distance between the prediction and the true leaf;
    averaged over annotated pixels.
    """
    term = _Wasserstein(m)
    return _one_term(term, term.n_classes, logits, target)


def seg_loss_ce(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Standard softmax cross-entropy over annotated pixels."""
    return _one_term(_ce, np.shape(logits)[-1], logits, target)


def seg_loss_dice(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Soft Dice loss, averaged over classes. Requires a dense target.

    Per class: 1 - (2 sum(p*g) + eps) / (sum(p) + sum(g) + eps), with the
    sums running over all pixels.
    """
    return _one_term(_dice, np.shape(logits)[-1], logits, target)


def tree_weighted_ce(tree: LabelTree, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy extended over all tree nodes, weighted per edge.

    Per annotated pixel: ``-sum_v w_v [v ancestor of g] log p_agg_v`` where
    the aggregated probability of a node is the mass of its subtree. With
    unit weights on leaf edges and zero elsewhere this is the standard CE.
    """
    term = _TreeCE(tree)
    return _one_term(term, term.n_classes, logits, target)


def compound_wass(spec: LossSpec, tree: LabelTree, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """alpha * Wasserstein + beta * seg."""
    if spec.semantic != "wass":
        raise ConfigError(f"compound_wass needs semantic='wass', got {spec.semantic!r}")
    return make_loss(tree, spec)(logits, target)


def compound_twce(spec: LossSpec, tree: LabelTree, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """alpha * tree-weighted CE + beta * seg; seg='none' drops the second term."""
    if spec.semantic != "twce":
        raise ConfigError(f"compound_twce needs semantic='twce', got {spec.semantic!r}")
    return make_loss(tree, spec)(logits, target)


def make_loss(tree: LabelTree, spec: LossSpec) -> Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]:
    """Bind a LossSpec to a tree, compiling the weighted tree into arrays once.

    The returned ``loss_fn(logits, target)`` walks no tree: the Wasserstein
    term reads a precomputed distance matrix; the tree-weighted CE reads
    the aggregation order and three leaf tables, each leaf's (K,) ancestor
    chain, its edge weights and the (C,) LCA depths it shares with every leaf.
    """
    weighted = assign_weights(tree, spec.scheme)
    semantic = _Wasserstein(distance_matrix(weighted)) if spec.semantic == "wass" else _TreeCE(weighted)

    def loss_fn(logits, target):
        return _compound(spec, semantic, logits, target)

    return loss_fn
