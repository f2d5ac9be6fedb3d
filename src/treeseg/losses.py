"""Segmentation losses with analytic gradients w.r.t. pre-softmax logits.

Conventions used throughout:

* The public functions take ``logits`` of shape ``(..., C)``; leading
  dimensions are pixels and are flattened internally. Gradients are
  returned in the original shape.
* The callable that ``make_loss`` returns takes class-major logits
  ``(C, n)``, one column per pixel, and returns a ``(C, n)`` gradient: the
  layout a training batch is held in. Every kernel works class-major, so a
  reduction over the classes is a pass over C contiguous rows; a public
  function hands the same kernels a class-major copy and gets the same bits.
* ``target`` holds per-pixel class codes: ``0`` means unannotated, codes
  ``1..C`` map to leaf index ``code - 1``. Per-pixel losses average over
  annotated pixels only, in fixed index order, double precision.
* Every loss returns ``(loss, grad)`` where ``grad`` is the derivative of
  the scalar loss w.r.t. the logits.

The semantic losses are the label-space Wasserstein loss (closed form
``p^T M g`` for crisp ground truth) and the tree-weighted cross-entropy
over aggregated node probabilities; both can be compounded with a generic
segmentation loss as ``alpha * semantic + beta * seg``.

A loss call validates its batch once (``_Batch``) and then works through
the annotated columns in tiles of at most ``TILE_BYTES`` of (C, T)
float64. Each tile (``_Tile``) takes its own shifted logits and softmax,
and each term its per-pixel losses and the tile's gradient. A loss is the
mean of the per-pixel vector assembled from all tiles, and no sum crosses
a column, so loss and gradient are the same to the bit at any tile width;
a lone leftover column joins the last tile, because numpy sums the
classes of a one-column array in another order. Soft Dice couples all
pixels, so a batch with a Dice term is one tile.

Ownership: a batch of several tiles has each finished gradient tile
written over the logits columns it was read from, and the ``make_loss``
callable returns that buffer, so it owns the logits it is given. A
one-tile batch leaves its logits alone and returns the tile's own
gradient. The public ``(..., C)`` functions pass the kernels a private
copy, so a caller's array is never modified. ``softmax`` and
``log_softmax`` run the same tile loop and write each tile straight into
their pixel-major result.

``make_loss`` compiles the tree into the kernels' arrays once. The
tree-weighted CE kernel reads only each pixel's ancestor chain (K nodes),
not every node.
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
TILE_BYTES = 4 << 20  # the most (C, T) float64 one tile of a loss or softmax call holds

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


def _tile_width(n_classes: int) -> int:
    """Columns per tile: as many (C,) float64 columns as fit in TILE_BYTES, at least two."""
    return max(2, TILE_BYTES // (8 * n_classes))


def _tiles(n: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) of each column tile over n columns, ``width`` columns each.

    A lone leftover column joins the last tile: numpy sums the classes of a
    one-column array pairwise, not row by row as in a wider one, so a tile
    of one column would change the bits.
    """
    starts = list(range(0, n, width))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _class_major(logits: np.ndarray) -> np.ndarray:
    """``(..., C)`` logits as a ``(C, n)`` view."""
    z = np.asarray(logits, dtype=float)
    return z.reshape(-1, z.shape[-1]).T


def _transpose_into(x: np.ndarray, out: np.ndarray) -> None:
    """Copy a (C, n) array into a (n, C) one.

    Copied in (32, 1024) blocks: a plain transposed copy of a (99, 16384)
    softmax took 15-18 ms, the blocked one 6-9 ms (2 cores, numpy 2.4); at
    21 classes both take ~0.5 ms.
    """
    c, n = x.shape
    for i in range(0, n, 1024):
        for k in range(0, c, 32):
            out[i : i + 1024, k : k + 32] = x[k : k + 32, i : i + 1024].T


def _pixel_major(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A ``(C, n)`` array as a C-ordered copy of ``shape`` ``(..., C)``."""
    out = np.empty(x.shape[::-1])
    _transpose_into(x, out)
    return out.reshape(shape)


def _shifted(x: np.ndarray) -> np.ndarray:
    """Class-major logits minus each column's max, in a new C-ordered (C, n) buffer."""
    return np.subtract(x, np.maximum.reduce(x, axis=0), order="C")


def _exp_normalize(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of shifted class-major logits ``z``, in z's own buffer; returns it and the column sums."""
    p = np.exp(z, out=z)
    s = np.add.reduce(p, axis=0)
    p /= s
    return p, s


def _softmax_tiles(logits: np.ndarray, log: bool) -> np.ndarray:
    """(Log-)softmax of ``(..., C)`` logits, C-ordered in their shape, one column tile at a time.

    Each tile is shifted and normalised class-major in its own buffer and
    copied into its rows of the result; nothing else is logits-sized.
    """
    z = np.asarray(logits, dtype=float)
    x = _class_major(z)
    out = np.empty(x.shape[::-1])
    for start, stop in _tiles(x.shape[1], _tile_width(x.shape[0])):
        t = _shifted(x[:, start:stop])
        if log:
            t -= np.log(np.add.reduce(np.exp(t), axis=0))
        else:
            _exp_normalize(t)
        _transpose_into(t, out[start:stop])
    return out.reshape(z.shape)


def softmax(logits: np.ndarray) -> np.ndarray:
    return _softmax_tiles(logits, log=False)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    return _softmax_tiles(logits, log=True)


class _Batch:
    """One validated loss call on class-major (C, n) logits: the annotated
    columns and their true leaves.

    ``tile`` takes the softmax of a run of annotated columns. A batch of
    several tiles ``put``s each tile's gradient over the logits columns it
    was read from and returns the ``written`` buffer; a one-tile batch
    ``scatter``s its gradient instead and leaves the logits alone.
    """

    def __init__(self, logits: np.ndarray, target: np.ndarray, n_classes: int):
        x = np.asarray(logits, dtype=float)
        t = np.asarray(target).reshape(-1)
        if x.ndim != 2 or x.shape[0] != n_classes:
            raise LabelError(f"expected class-major logits with {n_classes} rows, got shape {x.shape}")
        if t.shape[0] != x.shape[1]:
            raise LabelError(f"target has {t.shape[0]} pixels, logits have {x.shape[1]}")
        if t.size and (t.min() < 0 or t.max() > n_classes):
            bad = t[(t < 0) | (t > n_classes)][0]
            raise LabelError(f"class code {bad} outside 0..{n_classes}")
        idx = np.flatnonzero(t > 0)
        if idx.size == 0:
            raise EmptyMaskError("no annotated pixels")
        self.logits, self.n_pixels, self.n = x, t.size, idx.size
        # fully annotated (every training batch): no gather and no scatter
        self.idx = None if idx.size == t.size else idx
        self.leaf = (t if self.idx is None else t[idx]) - 1

    def _columns(self, start: int, stop: int):
        """The logits columns of annotated columns ``start:stop``."""
        return slice(start, stop) if self.idx is None else self.idx[start:stop]

    def tile(self, start: int, stop: int) -> "_Tile":
        """The softmax of annotated columns ``start:stop``."""
        return _Tile(self.logits[:, self._columns(start, stop)], self.leaf[start:stop], self.n)

    def put(self, start: int, grad: np.ndarray) -> None:
        """Write the gradient of the tile at ``start`` over the logits columns it was read from."""
        self.logits[:, self._columns(start, start + grad.shape[1])] = grad

    def written(self) -> np.ndarray:
        """The logits buffer once every tile is ``put``: the gradient, zero on unannotated columns."""
        if self.idx is not None:
            blank = np.ones(self.n_pixels, dtype=bool)
            blank[self.idx] = False
            self.logits[:, blank] = 0.0
        return self.logits

    def scatter(self, grad: np.ndarray) -> np.ndarray:
        """A (C, n) gradient on the annotated columns as (C, pixels); unannotated columns are zero."""
        if self.idx is None:
            return grad
        full = np.zeros((grad.shape[0], self.n_pixels))
        full[:, self.idx] = grad
        return full


class _Tile:
    """The softmax of one column tile of a batch, shared by every term.

    A term reads the (C, T) softmax ``p``, its column sums ``s`` and the
    true leaf's shifted logit, and returns the tile's per-pixel losses and
    its (C, T) share of the gradient of the batch mean (a mean over ``n``,
    the batch's annotated pixels).
    """

    def __init__(self, x: np.ndarray, leaf: np.ndarray, n: int):
        self.leaf, self.n, self.width = leaf, n, leaf.size
        self.true = leaf * leaf.size + np.arange(leaf.size)  # flat index of each column's true-leaf entry
        z = _shifted(x)
        self.z_true = np.take(z, self.true)
        self.p, self.s = _exp_normalize(z)


def _aggregation_plan(tree: LabelTree) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(node, children) of every inner node, children before parents."""
    return tuple((v, tuple(tree.nodes[v].children)) for v in tree.deepest_first() if tree.nodes[v].children)


def _sum_up(p: np.ndarray, plan: tuple, out: np.ndarray) -> np.ndarray:
    """(C, n) leaf probabilities -> subtree masses in ``out``, indexed node-major (N, n).

    Leaf rows are copied and every planned node is the sum of its children,
    in plan order. The caller picks the memory layout: a C-ordered (N, n)
    buffer keeps each node's row contiguous, the transposed view of an
    (n, N) buffer fills a pixel-major array with the same sums.
    """
    out[: p.shape[0]] = p
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
    # written as failed passing conditions, so a NaN entry fails too
    if not (p >= -1e-9).all() or not (np.abs(p.sum(axis=1) - 1.0) <= 1e-9).all():
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
    _sum_up(p.T, _aggregation_plan(tree), out.T)
    return out.reshape(*lead, tree.n_nodes)


def _chain_softmax(p: np.ndarray, dldp: np.ndarray) -> np.ndarray:
    """Push a gradient w.r.t. probabilities through the softmax Jacobian, in dldp's buffer."""
    inner = np.add.reduce(p * dldp, axis=0)
    dldp -= inner
    dldp *= p
    return dldp


# --- term kernels: (tile) -> ((T,) per-pixel losses, (C, T) gradient of the batch mean)


class _Wasserstein:
    """Closed-form label-space Wasserstein term over a fixed ground metric."""

    def __init__(self, m: np.ndarray):
        self.m = np.ascontiguousarray(m, dtype=float)
        self.n_classes = self.m.shape[0]

    def __call__(self, b: _Tile) -> tuple[np.ndarray, np.ndarray]:
        cols = np.take(self.m, b.leaf, axis=1)  # (C, T): distance of every leaf to the column's true leaf
        per = np.add.reduce(b.p * cols, axis=0)  # the per-pixel loss is also the softmax chain's inner product
        cols -= per
        cols *= b.p
        cols /= b.n
        return per, cols


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
        # chain[k, g]: g's ancestor at depth k + 1, root side first; g itself past its own depth
        self.chain = np.ascontiguousarray(tree.ancestor_table[:c, 1:].T)
        own = np.arange(1, tree.levels + 1)[:, None] <= np.array([tree.depth[g] for g in range(c)])
        self.weight = np.where(own, edge_weight_vector(tree)[self.chain], 0.0)  # (K, C), zero on the padding
        # lca[l, g]: how many non-root ancestors leaves l and g share, the depth of their LCA
        self.lca = ((self.chain[:, :, None] == self.chain[:, None]) & own[:, None]).sum(axis=0)

    def __call__(self, b: _Tile) -> tuple[np.ndarray, np.ndarray]:
        k, rows = self.chain.shape[0], np.arange(b.width)
        mass = _sum_up(b.p, self.plan, np.empty((self.n_nodes, b.width)))  # node-major: contiguous rows to sum
        at = np.take(self.chain, b.leaf, axis=1)
        at *= b.width
        at += rows
        mass = np.take(mass, at)  # (K, T): the masses on each column's true-leaf chain
        w = np.take(self.weight, b.leaf, axis=1)
        live = mass > LOG_GUARD
        per = np.add.reduce(w * np.log(np.maximum(mass, LOG_GUARD)), axis=0)
        np.negative(per, out=per)
        q = np.divide(w, mass, out=np.zeros_like(mass), where=live)
        np.negative(q, out=q)
        # cum[i, d]: the sum of -q over the first d chain nodes; pixel-major, so the
        # gather below reads each pixel's K + 1 prefix sums from adjacent memory
        cum = np.zeros((b.width, k + 1))
        np.cumsum(q, axis=0, out=cum.T[1:])
        # the softmax chain's inner product sum_l p_l dL/dp_l, summed per chain node
        inner = np.add.reduce(np.multiply(q, mass, out=q), axis=0)
        at = np.take(self.lca, b.leaf, axis=1)
        at += (k + 1) * rows
        grad = np.take(cum, at)  # (C, T): dL/dp
        grad -= inner
        grad *= b.p
        grad /= b.n
        return per, grad


def _ce(b: _Tile) -> tuple[np.ndarray, np.ndarray]:
    """The CE term. It builds its gradient in the softmax's own buffer, so it is the tile's last reader."""
    per = b.z_true - np.log(b.s)
    np.negative(per, out=per)
    grad = b.p
    grad.reshape(-1)[b.true] -= 1.0
    grad /= b.n
    return per, grad


def _dice(b: _Tile) -> tuple[float, np.ndarray]:
    """The soft Dice term of a whole batch, which must be one tile."""
    p = b.p
    onehot = np.zeros_like(p)
    onehot.reshape(-1)[b.true] = 1.0
    num = 2.0 * np.add.reduce(p * onehot, axis=1, keepdims=True) + DICE_SMOOTH
    den = np.add.reduce(p, axis=1, keepdims=True) + np.add.reduce(onehot, axis=1, keepdims=True) + DICE_SMOOTH
    loss = float(np.mean(1.0 - num / den))
    # d(1 - num_c/den_c)/dp_ci = -(2 g_ci den_c - num_c) / den_c^2, averaged over classes
    dldp = -(2.0 * onehot * den - num) / (den * den) / p.shape[0]
    return loss, _chain_softmax(p, dldp)


def _require_dense(b: _Batch) -> _Batch:
    if b.idx is not None:
        raise ConfigError("soft Dice requires a dense target (no unannotated pixels)")
    return b


def _mean(parts: list[np.ndarray]) -> float:
    """The mean of the per-pixel vector the tiles' parts make up."""
    return float((parts[0] if len(parts) == 1 else np.concatenate(parts)).mean())


def _compound(
    semantic: _Wasserstein | _TreeCE | None,
    alpha: float,
    seg: str,
    beta: float,
    n_classes: int,
    logits: np.ndarray,
    target: np.ndarray,
) -> tuple[float, np.ndarray]:
    """alpha * semantic + beta * seg on one batch, one softmax per column tile.

    The arithmetic is that of summing the separate terms, so the result is
    the same to the bit; ``alpha == 0`` (the plain-CE baseline) skips the
    semantic term, whose products would all be zero. A batch of several
    tiles returns its gradient in the logits' buffer (see the module notes).
    """
    b = _Batch(logits, target, n_classes)
    dice = seg == "dice_ce"
    tiles = _tiles(b.n, _require_dense(b).n if dice else _tile_width(n_classes))
    sem, ce, dc = [], [], []

    def tile_grad(start: int, stop: int) -> np.ndarray:
        """The tile's gradient; its per-pixel losses go to ``sem`` and ``ce``, a Dice loss to ``dc``."""
        tile = b.tile(start, stop)
        grad = None
        if alpha:
            per, grad = semantic(tile)
            sem.append(per)
            grad *= alpha
        if seg != "none":
            if dice:
                loss, dc_grad = _dice(tile)  # before the CE, which takes over the softmax's buffer
                dc.append(loss)
            per, seg_grad = _ce(tile)
            ce.append(per)
            if dice:
                seg_grad += dc_grad
            seg_grad *= beta
            grad = seg_grad if grad is None else np.add(grad, seg_grad, out=grad)
        return np.zeros_like(tile.p) if grad is None else grad

    if len(tiles) == 1:
        grad = b.scatter(tile_grad(0, b.n))
    else:
        for start, stop in tiles:
            b.put(start, tile_grad(start, stop))
        grad = b.written()
    loss = alpha * _mean(sem) if alpha else 0.0
    if seg != "none":
        loss += beta * (_mean(ce) + dc[0] if dice else _mean(ce))
    return loss, grad


def _pixel_major_call(loss_fn, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """A class-major ``loss_fn`` on ``(..., C)`` logits, handed a private copy to own; the
    gradient comes back C-ordered in their shape."""
    z = np.asarray(logits, dtype=float)
    own = np.array(z.reshape(-1, z.shape[-1]), order="C")  # pixel-major, so its transpose is class-major
    x = own.T
    loss, grad = loss_fn(x, target)
    return loss, own.reshape(z.shape) if grad is x else _pixel_major(grad, z.shape)


def _one_term(semantic, alpha: float, seg: str, beta: float, n_classes: int, logits, target) -> tuple[float, np.ndarray]:
    """One term on ``(..., C)`` logits: the compound with the other weight at zero."""
    return _pixel_major_call(lambda x, t: _compound(semantic, alpha, seg, beta, n_classes, x, t), logits, target)


# --- public entry points ------------------------------------------------------


def wasserstein_crisp(m: np.ndarray, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Closed-form label-space Wasserstein loss for crisp ground truth.

    Per annotated pixel the loss is ``sum_l M[l, g] p_l``, i.e. the
    expected tree distance between the prediction and the true leaf;
    averaged over annotated pixels.
    """
    term = _Wasserstein(m)
    return _one_term(term, 1.0, "none", 0.0, term.n_classes, logits, target)


def seg_loss_ce(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Standard softmax cross-entropy over annotated pixels."""
    return _one_term(None, 0.0, "ce", 1.0, np.shape(logits)[-1], logits, target)


def seg_loss_dice(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Soft Dice loss, averaged over classes. Requires a dense target.

    Per class: 1 - (2 sum(p*g) + eps) / (sum(p) + sum(g) + eps), with the
    sums running over all pixels, so the batch is one tile.
    """
    z = np.asarray(logits, dtype=float)
    b = _require_dense(_Batch(_class_major(z), target, z.shape[-1]))
    loss, grad = _dice(b.tile(0, b.n))
    return loss, _pixel_major(grad, z.shape)


def tree_weighted_ce(tree: LabelTree, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy extended over all tree nodes, weighted per edge.

    Per annotated pixel: ``-sum_v w_v [v ancestor of g] log p_agg_v`` where
    the aggregated probability of a node is the mass of its subtree. With
    unit weights on leaf edges and zero elsewhere this is the standard CE.
    """
    term = _TreeCE(tree)
    return _one_term(term, 1.0, "none", 0.0, term.n_classes, logits, target)


def compound_wass(spec: LossSpec, tree: LabelTree, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """alpha * Wasserstein + beta * seg."""
    if spec.semantic != "wass":
        raise ConfigError(f"compound_wass needs semantic='wass', got {spec.semantic!r}")
    return _pixel_major_call(make_loss(tree, spec), logits, target)


def compound_twce(spec: LossSpec, tree: LabelTree, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """alpha * tree-weighted CE + beta * seg; seg='none' drops the second term."""
    if spec.semantic != "twce":
        raise ConfigError(f"compound_twce needs semantic='twce', got {spec.semantic!r}")
    return _pixel_major_call(make_loss(tree, spec), logits, target)


def make_loss(tree: LabelTree, spec: LossSpec) -> Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]:
    """Bind a LossSpec to a tree, compiling the weighted tree into arrays once.

    The returned ``loss_fn(logits, target)`` takes class-major logits
    ``(C, n)`` and per-pixel codes (n values, any shape) and returns
    ``(loss, grad)`` with a ``(C, n)`` gradient. It walks no tree: the Wasserstein
    term reads a precomputed distance matrix; the tree-weighted CE reads
    the aggregation order and three leaf tables, each leaf's (K,) ancestor
    chain, its edge weights and the (C,) LCA depths it shares with every leaf.

    The batch is worked in column tiles of at most ``TILE_BYTES`` of (C, T)
    float64 (one tile with a Dice term). When it spans several, the callable
    owns ``logits``: it writes each finished gradient tile over the columns
    it has read and returns that buffer. A one-tile batch leaves ``logits``
    as they are and returns a new gradient.
    """
    weighted = assign_weights(tree, spec.scheme)
    semantic = _Wasserstein(distance_matrix(weighted)) if spec.semantic == "wass" else _TreeCE(weighted)

    def loss_fn(logits, target):
        return _compound(semantic, spec.alpha, spec.seg, spec.beta, semantic.n_classes, logits, target)

    return loss_fn
