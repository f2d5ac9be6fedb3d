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

A compound is one fused pass per tile, not a sum of separate terms.
``make_loss`` folds ``alpha`` into the semantic kernel's compiled table
(``alpha * M``, or ``alpha`` times the chain weights), and the kernel
writes the whole gradient, ``p * (dL/dp - <p, dL/dp> + beta) - beta *
onehot`` over n with ``L`` the alpha-weighted term, into the tile's
softmax. So a compound equals the sum of its separately computed terms
to rounding, not to the bit. A ``none`` spec (``alpha == 0``, the
plain-CE baseline) compiles to no kernel: no edge weights, distance
matrix or chain tables. What stays bitwise: ``none`` equals
``seg_loss_ce``; ``beta == 0`` equals the lone term (``wasserstein_crisp``,
``tree_weighted_ce``), since ``seg="none"`` is the same kernel with
``beta = 0``; and every result is independent of the tile width.

A loss call validates its batch once (``_Batch``) and then works through
the annotated columns in tiles of at most ``TILE_BYTES`` of (C, T)
float64. Each tile (``_Tile``) is shifted, exponentiated and normalised
in place, in its own columns, and each term reads that softmax for its
per-pixel losses and the tile's gradient. A loss is the mean of the
per-pixel vector assembled from all tiles, and no sum crosses a column,
so loss and gradient are the same to the bit at any tile width; a lone
leftover column joins the last tile, because numpy sums the classes of a
one-column array in another order. Soft Dice couples all pixels, so a
batch with a Dice term is one tile (``batch_tiles``).

The tile kernel has one home, ``_Loss.tile``, the ``make_loss`` callable's
per-tile method. A whole-batch call loops it over column views of the
batch's logits. Training never makes a batch's logits whole: it makes each
tile's (C, T) logits from the features and hands them over one at a time
with the batch's ``Terms``, so each tile's gradient divides by the batch's
pixel count and the batch loss is the mean of the per-pixel terms that all
tiles gathered, the bits of a whole-batch call on the same logits.

Ownership: the ``make_loss`` callable owns the logits it is given, a
whole batch or one tile of one, and returns the gradient in the buffer it
worked in, which is the logits themselves whenever they are C-ordered
float64 (C, n). The public ``(..., C)`` functions pass the kernels a
private copy, so a caller's array is never modified. The softmax of prediction has one tile loop too,
``softmax_columns``, which normalises each tile of a class-major buffer
its caller owns in place: ``training.class_probs`` hands it the forward's
logits, which become the probabilities validation scores; ``softmax``,
``log_softmax`` and ``training.predict`` hand it a class-major buffer of
their own and transpose the result once into their pixel-major layout.

Each semantic kernel works one (rows, T) table in a ``Scratch`` that its
caller hands it: a flat buffer for any tile up to the scratch's width,
allocated by the first kernel that asks, at its rows times that width,
of which a tile uses a C-ordered view of its start. A Dice term works its
one-hot target, its products and its gradient in two (C, T) tables of the
same scratch. ``training.train`` makes one per call, with its other
buffers, so no step after the first allocates a table; a whole-batch
call, and so every public ``(..., C)`` function, makes one for its own
widest tile. A scratch is passed as an argument, never kept by the
callable, so one callable may serve threads that each hold their own.
The Wasserstein's table is the (C, T) distance
to each true leaf, taken into the buffer with ``mode="clip"``: a take
into ``out`` with the default ``mode="raise"`` buffers its result, and
``_Batch`` has already checked every code, so clipping changes no value.
The tree-weighted CE's is an (N, T) node table.

``make_loss`` compiles the tree into the kernels' arrays once, unless the
spec is ``none``. The tree-weighted CE kernel reads only each pixel's
ancestor chain (K nodes), not every node, for its loss; it then pushes
the chain's gradient terms down the tree in its node table, one pass
over the inner nodes, so it gathers no (C, T) gradient (``_TreeCE``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import distance_matrix
from .errors import ConfigError, EmptyMaskError, LabelError, NormalizationError
from .hierarchy import EdgeWeightScheme, LabelTree, assign_weights, edge_weight_vector

LOG_GUARD = 1e-12  # aggregated probabilities are sums of softmax outputs, clamp before log
DICE_SMOOTH = 1e-5
TILE_BYTES = 4 << 20  # the most (C, T) float64 one tile of a loss or softmax call holds

SEG_KINDS = ("ce", "dice_ce", "none")
SEMANTIC_KINDS = ("wass", "twce", "none")


@dataclass(frozen=True)
class LossSpec:
    """Compound loss configuration: alpha * semantic + beta * seg.

    ``semantic="none"`` (beta * seg alone, the plain-CE baseline) is the one
    form of every ``alpha == 0`` spec: scheme, kappa and alpha are reset.
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
        if self.alpha == 0 or self.semantic == "none":
            for key, value in (("semantic", "none"), ("alpha", 0.0), ("scheme", EdgeWeightScheme("equal"))):
                object.__setattr__(self, key, value)
        if self.semantic == "none" and (self.seg == "none" or self.beta == 0):
            raise ConfigError("the loss has no term: loss.alpha is 0 and " + ("loss.seg is 'none'" if self.seg == "none" else "loss.beta is 0"))
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


def _block(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first ``rows * cols`` entries of the flat buffer ``buf`` as a C-ordered (rows, cols) view."""
    return buf[: rows * cols].reshape(rows, cols)


class Scratch:
    """The loss kernels' table buffers for the tiles of one caller, up to ``width`` columns.

    The first semantic kernel that asks allocates its table, at its rows
    times ``width``, and a Dice term its two (C, width) tables the first
    time it runs; every later tile takes C-ordered views of their starts.
    A kernel's rows are fixed, so no buffer grows. Hold one per thread of work.
    """

    def __init__(self, width: int):
        self.width, self.buf, self.dice_buf = width, None, None

    def block(self, rows: int, cols: int) -> np.ndarray:
        if self.buf is None:
            self.buf = np.empty(rows * self.width)
        return _block(self.buf, rows, cols)

    def dice_blocks(self, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
        """The Dice term's two (rows, cols) tables: the one-hot target that becomes its
        gradient, and its products."""
        if self.dice_buf is None:
            self.dice_buf = np.empty((2, rows * self.width))
        return _block(self.dice_buf[0], rows, cols), _block(self.dice_buf[1], rows, cols)


def _pixel_major(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A (C, n) array the caller owns as a C-ordered (n, C) one, returned in ``shape``: a
    transposed copy, or a view when C or n is 1 and the transpose is already C-ordered."""
    return np.ascontiguousarray(x.T).reshape(shape)


def _columns_copy(values: np.ndarray) -> np.ndarray:
    """``(..., C)`` values as a C-ordered float64 ``(C, n)`` copy of their own."""
    z = np.asarray(values, dtype=float)
    return np.array(z.reshape(-1, z.shape[-1]).T, order="C")


def _exp_normalize(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of shifted class-major logits ``z``, in z's own buffer; returns it and the column sums."""
    p = np.exp(z, out=z)
    s = np.add.reduce(p, axis=0)
    p /= s
    return p, s


def softmax_columns(x: np.ndarray, log: bool = False) -> np.ndarray:
    """(Log-)softmax of class-major logits ``x`` (C, n), in x's own buffer; returns x.

    The caller owns ``x``, a C-ordered float64 array. Each column tile is
    shifted and normalised in place, as a loss tile is; the only other
    buffers are per tile.
    """
    for start, stop in _tiles(x.shape[1], _tile_width(x.shape[0])):
        t = x[:, start:stop]
        t -= np.maximum.reduce(t, axis=0)
        if log:
            t -= np.log(np.add.reduce(np.exp(t), axis=0))
        else:
            _exp_normalize(t)
    return x


def _softmax_pixel_major(logits: np.ndarray, log: bool) -> np.ndarray:
    """(Log-)softmax of ``(..., C)`` logits, C-ordered in their shape, worked on a class-major copy."""
    z = np.asarray(logits, dtype=float)
    return _pixel_major(softmax_columns(_columns_copy(z), log), z.shape)


def softmax(logits: np.ndarray) -> np.ndarray:
    return _softmax_pixel_major(logits, log=False)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    return _softmax_pixel_major(logits, log=True)


class _Batch:
    """One validated loss call on class-major (C, n) logits, worked in place.

    The batch works in C-ordered float64 rows, so each class sum is a pass
    over contiguous memory: C-ordered float64 logits are used as they are,
    any others are copied once. A batch with unannotated (code 0) pixels
    gathers its annotated columns into a buffer of its own, and
    ``gradient`` writes them back over zeroed logits. Each tile's gradient
    is that of a mean over ``divisor`` pixels: the batch's ``n`` annotated
    ones, or a larger batch's when these logits are one tile of it.
    """

    def __init__(self, logits: np.ndarray, target: np.ndarray, n_classes: int, divisor: int | None = None):
        x = np.asarray(logits, dtype=float, order="C")
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
        self.logits, self.n = x, idx.size
        self.divisor = self.n if divisor is None else divisor
        # fully annotated (every training batch): no gather and no write-back
        self.idx = None if idx.size == t.size else idx
        self.work = x if self.idx is None else np.take(x, idx, axis=1)  # C-ordered, as x[:, idx] is not
        # intp: a tile multiplies it into a flat index, which a narrow code dtype would overflow
        self.leaf = np.subtract(t if self.idx is None else t[idx], 1, dtype=np.intp)

    def tile(self, start: int, stop: int) -> "_Tile":
        """The softmax of annotated columns ``start:stop``, in their own columns."""
        return _Tile(self.work, start, stop, self.leaf[start:stop], self.divisor)

    def gradient(self) -> np.ndarray:
        """The logits buffer once every tile holds its gradient; unannotated columns are zero."""
        if self.idx is not None:
            self.logits.fill(0.0)
            self.logits[:, self.idx] = self.work
        return self.logits


class _Tile:
    """The softmax of one column tile of a batch, shared by every term.

    The tile's (C, T) view of the batch's ``work`` buffer is shifted and
    normalised in place into the softmax ``p``. The terms read ``p``, its
    column sums ``s`` and the true leaf's shifted logit, and one kernel then
    writes the tile's whole gradient of the batch mean (a mean over ``n``,
    the batch's annotated pixels) over ``p``. ``true`` holds each column's
    true-leaf entry as ``leaf * N + column``, a flat index into ``flat``, the
    C-ordered (C, N) buffer's 1-D view.
    """

    def __init__(self, work: np.ndarray, start: int, stop: int, leaf: np.ndarray, n: int):
        self.leaf, self.n, self.width = leaf, n, stop - start
        self.flat = work.reshape(-1)  # a view: the batch buffer is C-ordered
        self.true = leaf * work.shape[1] + np.arange(start, stop)
        z = work[:, start:stop]
        z -= np.maximum.reduce(z, axis=0)
        self.z_true = self.flat[self.true]
        self.p, self.s = _exp_normalize(z)


def _aggregation_plan(tree: LabelTree) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(node, children) of every inner node, children before parents."""
    return tuple((v, tuple(tree.nodes[v].children)) for v in tree.deepest_first() if tree.nodes[v].children)


def _sum_up(p: np.ndarray, plan: tuple, inner: np.ndarray) -> np.ndarray:
    """(C, n) leaf probabilities -> the planned inner nodes' subtree masses in ``inner``.

    Leaves are nodes 0..C-1; planned node v gets row v - C of ``inner``, the
    sum of its children in plan order, a leaf child read from ``p``. The
    caller picks the memory layout: a C-ordered buffer keeps each node's row
    contiguous, the transposed view of an (n, N) buffer past its C leaf
    columns fills a pixel-major array with the same sums.
    """
    c = p.shape[0]
    for v, kids in plan:
        out = inner[v - c]
        out[...] = p[kids[0]] if kids[0] < c else inner[kids[0] - c]
        for u in kids[1:]:
            out += p[u] if u < c else inner[u - c]
    return inner


def check_columns(p: np.ndarray, n_leaves: int) -> np.ndarray:
    """Return class-major (C, n) ``p`` once each column is a probability vector over the leaves.

    The messages speak of the caller's ``(..., C)`` layout, one row per pixel.
    """
    if p.shape[0] != n_leaves:
        raise NormalizationError(f"expected {n_leaves} leaf columns, got {p.shape[0]}")
    # written as failed passing conditions, so a NaN entry fails too
    if p.size and not (p.min() >= -1e-9 and (np.abs(np.add.reduce(p, axis=0) - 1.0) <= 1e-9).all()):
        raise NormalizationError("rows must be probability vectors over the leaves")
    return p


def aggregate(tree: LabelTree, probs: np.ndarray) -> np.ndarray:
    """Extend leaf probabilities to all nodes by one leaf-to-root pass.

    Equivalent to applying (I - A)^-1 to the zero-padded leaf vector, but
    computed by summing children into parents in depth order. Input is
    ``(..., C)``, output ``(..., N)``.
    """
    p = np.asarray(probs, dtype=float)
    lead = p.shape[:-1]
    p = check_columns(p.reshape(-1, p.shape[-1]).T, tree.n_leaves)
    out = np.zeros((p.shape[1], tree.n_nodes))
    out.T[: tree.n_leaves] = p
    _sum_up(p, _aggregation_plan(tree), out.T[tree.n_leaves :])
    return out.reshape(*lead, tree.n_nodes)


def _chain_softmax(p: np.ndarray, dldp: np.ndarray, prod: np.ndarray | None = None) -> np.ndarray:
    """Push a gradient w.r.t. probabilities through the softmax Jacobian, in dldp's buffer; the
    products of the two are taken into ``prod`` when given."""
    inner = np.add.reduce(np.multiply(p, dldp, out=prod), axis=0)
    dldp -= inner
    dldp *= p
    return dldp


# --- semantic kernels: (tile, beta) -> (T,) per-pixel alpha * semantic losses; the tile's
# softmax becomes the gradient of the batch mean of alpha * semantic + beta * CE


class _Wasserstein:
    """Closed-form label-space Wasserstein term over a fixed ground metric, alpha folded in.

    Its scratch is the (C, T) table of every leaf's distance to the true leaf.
    """

    def __init__(self, m: np.ndarray, alpha: float = 1.0):
        self.m = np.ascontiguousarray(m, dtype=float) * alpha
        self.n_classes = self.rows = self.m.shape[0]

    def __call__(self, b: _Tile, beta: float, scratch: Scratch) -> np.ndarray:
        # (C, T): alpha * the distance of every leaf to the true leaf; "clip", because a
        # "raise" take into ``out`` buffers its result, and _Batch has checked the codes
        cols = np.take(self.m, b.leaf, axis=1, out=scratch.block(self.rows, b.width), mode="clip")
        cols *= b.p
        per = np.add.reduce(cols, axis=0)  # the per-pixel loss is also the softmax chain's inner product
        b.p *= beta - per
        b.p += cols
        b.flat[b.true] -= beta
        b.p /= b.n
        return per


class _TreeCE:
    """Tree-weighted CE term over a weighted tree compiled into its leaves' ancestor chains.

    A pixel's loss reads only the chain of non-root ancestors of its true
    leaf g (g included, at most K nodes), with subtree masses P_v. With
    ``q_v = w_v / P_v`` on that chain, ``dL/dp_l = -sum q_v`` over the chain
    nodes that are ancestors of leaf l (l included). ``alpha`` is folded
    into the weights.

    The kernel's scratch is an (N, T) node-major buffer. It first holds the
    subtree masses, from which the (K, T) chain masses are read; then each
    ``-q_v`` is written on its chain node's row and every non-root inner
    node's row is added into its children's, root side first, so each leaf
    row ends up holding ``dL/dp_l``. A leaf's row sums the same chain terms,
    in the same order, as a root-first prefix sum cut at its LCA depth with
    g. The signs of zero follow that prefix sum too: the rows start at -0.0,
    the exact additive identity, except the depth-1 rows, which start at
    +0.0 (the sum of no chain node); and the chain is written deepest first,
    so a short chain's own entry overwrites its zero-weight padding.
    """

    def __init__(self, tree: LabelTree, alpha: float = 1.0):
        c = self.n_classes = tree.n_leaves
        self.rows = tree.n_nodes
        self.plan = _aggregation_plan(tree)
        # the push-down: (node, children) of every non-root inner node, parents first
        self.push = tuple((v, kids) for v, kids in reversed(self.plan) if v != tree.root)
        self.top = np.array(tree.nodes[tree.root].children)
        # chain[k, g]: g's ancestor at depth k + 1, root side first; g itself past its own depth
        self.chain = np.ascontiguousarray(tree.ancestor_table[:c, 1:].T)
        own = np.arange(1, tree.levels + 1)[:, None] <= np.array([tree.depth[g] for g in range(c)])
        self.weight = alpha * np.where(own, edge_weight_vector(tree)[self.chain], 0.0)  # (K, C), zero on the padding

    def __call__(self, b: _Tile, beta: float, scratch: Scratch) -> np.ndarray:
        node = scratch.block(self.rows, b.width)  # node-major: contiguous rows to sum
        node[: self.n_classes] = b.p
        _sum_up(b.p, self.plan, node[self.n_classes :])
        at = np.take(self.chain, b.leaf, axis=1)
        at *= b.width
        at += np.arange(b.width)
        mass = np.take(node, at)  # (K, T): the masses on each column's true-leaf chain
        w = np.take(self.weight, b.leaf, axis=1)
        live = mass > LOG_GUARD
        term = np.maximum(mass, LOG_GUARD, out=node[: len(at)])  # the chain masses are gathered: reuse the node rows
        np.log(term, out=term)
        term *= w
        per = np.add.reduce(term, axis=0)
        np.negative(per, out=per)
        q = np.divide(w, mass, out=w, where=live)
        q[~live] = 0.0
        np.negative(q, out=q)
        # dL/dp: -q on the chain nodes, pushed down the tree into the leaf rows
        node.fill(-0.0)
        node[self.top] = 0.0  # the sum of no chain node
        flat = node.reshape(-1)
        for d in reversed(range(len(q))):  # deepest first: a padded chain's own entry lands last
            flat[at[d]] = q[d]
        for v, kids in self.push:
            for u in kids:
                node[u] += node[v]
        # the softmax chain's inner product sum_l p_l dL/dp_l, summed per chain node
        inner = np.add.reduce(np.multiply(q, mass, out=q), axis=0)
        inner -= beta
        grad = node[: self.n_classes]
        grad -= inner
        b.p *= grad
        b.flat[b.true] -= beta  # through the batch buffer, so into the softmax
        b.p /= b.n
        return per


def _ce(b: _Tile) -> np.ndarray:
    """The CE term's per-pixel losses, from the shifted true logit and the column sums."""
    per = b.z_true - np.log(b.s)
    return np.negative(per, out=per)


def _plain_ce(b: _Tile, beta: float) -> None:
    """The tile's gradient of beta * CE alone (a ``none`` spec), built in the softmax's own buffer."""
    b.flat[b.true] -= 1.0
    b.p /= b.n
    b.p *= beta


def _dice(b: _Tile, scratch: Scratch) -> tuple[float, np.ndarray]:
    """The soft Dice term of a whole batch, which must be one tile. Its one-hot target, its
    products and its gradient, returned in the one-hot's buffer, are worked in ``scratch``'s
    Dice tables."""
    p = b.p
    onehot, prod = scratch.dice_blocks(*p.shape)
    onehot.fill(0.0)
    onehot.reshape(-1)[b.true] = 1.0  # one tile of the whole batch: the flat index is onehot's too
    num = 2.0 * np.add.reduce(np.multiply(p, onehot, out=prod), axis=1, keepdims=True) + DICE_SMOOTH
    den = np.add.reduce(p, axis=1, keepdims=True) + np.add.reduce(onehot, axis=1, keepdims=True) + DICE_SMOOTH
    loss = float(np.mean(1.0 - num / den))
    # d(1 - num_c/den_c)/dp_ci = -(2 g_ci den_c - num_c) / den_c^2, averaged over classes
    dldp = np.multiply(2.0, onehot, out=onehot)
    dldp *= den
    dldp -= num
    np.negative(dldp, out=dldp)
    dldp /= den * den
    dldp /= p.shape[0]
    return loss, _chain_softmax(p, dldp, prod)


def _require_dense(b: _Batch) -> _Batch:
    if b.idx is not None:
        raise ConfigError("soft Dice requires a dense target (no unannotated pixels)")
    return b


def _mean(parts: list[np.ndarray]) -> float:
    """The mean of the per-pixel vector the tiles' parts make up."""
    return float((parts[0] if len(parts) == 1 else np.concatenate(parts)).mean())


def batch_tiles(n: int, n_classes: int, dice: bool) -> list[tuple[int, int]]:
    """The column tiles a batch of n annotated pixels is worked in; a Dice term couples
    all pixels, so a batch with one is one tile."""
    return _tiles(n, n if dice else _tile_width(n_classes))


class Terms:
    """The per-pixel loss terms of one batch of ``n`` annotated pixels, gathered tile by tile.

    ``sem`` and ``ce`` hold each tile's (T,) alpha * semantic and CE losses,
    ``dice`` the soft Dice loss of a batch with a Dice term (one tile), and
    ``beta`` the seg weight the loss applied. The batch loss is the mean of
    each vector that the tiles make up, so it has the same bits at any tile
    width.
    """

    def __init__(self, n: int):
        self.n, self.beta = n, 0.0
        self.sem: list[np.ndarray] = []
        self.ce: list[np.ndarray] = []
        self.dice: float | None = None

    def loss(self) -> float:
        """alpha * semantic + beta * seg over the batch, once every tile is in."""
        loss = _mean(self.sem) if self.sem else 0.0
        ce = _mean(self.ce)
        return loss + self.beta * (ce if self.dice is None else ce + self.dice)


class _Loss:
    """alpha * semantic + beta * seg, compiled for one tree: the ``make_loss`` callable.

    ``tile`` is the one tile kernel. The semantic kernel, compiled with
    ``alpha`` folded in, writes the tile's whole alpha * semantic + beta * CE
    gradient over its softmax; ``seg="none"`` is the same kernel with
    ``beta = 0``. ``semantic`` is None for a ``none`` spec (the plain-CE
    baseline, every ``alpha == 0`` spec): ``make_loss`` then compiles no
    kernel, and each tile gets beta * seg alone. A Dice term reads the softmax first and adds beta times
    its gradient last. The result equals the sum of the separate terms to
    rounding (see the module notes).
    """

    def __init__(self, semantic: _Wasserstein | _TreeCE | None, seg: str, beta: float, n_classes: int):
        self.semantic, self.n_classes, self.dice = semantic, n_classes, seg == "dice_ce"
        self.beta = 0.0 if seg == "none" else beta

    def tile(self, t: _Tile, terms: Terms, scratch: Scratch) -> None:
        """One tile's per-pixel terms into ``terms``, and its gradient of the batch mean over its
        softmax; the semantic kernel works its table in ``scratch``."""
        if self.dice:
            terms.dice, dc_grad = _dice(t, scratch)  # before the softmax turns into the gradient
        if self.semantic is None:
            _plain_ce(t, self.beta)
        else:
            terms.sem.append(self.semantic(t, self.beta, scratch))
        terms.ce.append(_ce(t))  # from z_true and s, after the kernel: one (T,) buffer fewer at its peak
        if self.dice:
            dc_grad *= self.beta
            t.p += dc_grad

    def __call__(
        self, logits: np.ndarray, target: np.ndarray, terms: Terms | None = None, scratch: Scratch | None = None
    ) -> tuple[float | None, np.ndarray]:
        """``(loss, grad)`` of a whole batch of class-major (C, n) logits, worked in column tiles.

        Given the ``terms`` of a batch, ``logits`` are instead one tile of
        that batch's ``batch_tiles`` (the whole batch, with a Dice term),
        worked as one tile: its terms join ``terms``, the gradient is that
        of the batch mean, and ``loss`` is None until ``terms.loss()`` reads
        it once every tile is in. ``scratch``, a ``Scratch`` at least as
        wide as any tile, holds the kernel's table; without one the call
        makes one for its own widest tile.
        """
        whole = terms is None
        b = _Batch(logits, target, self.n_classes, None if whole else terms.n)
        if self.dice:
            _require_dense(b)
        terms = Terms(b.n) if whole else terms
        terms.beta = self.beta
        tiles = batch_tiles(b.n, self.n_classes, self.dice) if whole else [(0, b.n)]
        if scratch is None:
            scratch = Scratch(max(stop - start for start, stop in tiles))
        for start, stop in tiles:
            self.tile(b.tile(start, stop), terms, scratch)
        return terms.loss() if whole else None, b.gradient()


def _pixel_major_call(loss_fn, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """A class-major ``loss_fn`` on ``(..., C)`` logits, handed a C-ordered class-major copy to
    own; the gradient is transposed back once, C-ordered in their shape."""
    z = np.asarray(logits, dtype=float)
    loss, grad = loss_fn(_columns_copy(z), target)
    return loss, _pixel_major(grad, z.shape)


def _one_term(semantic, seg: str, beta: float, n_classes: int, logits, target) -> tuple[float, np.ndarray]:
    """One term on ``(..., C)`` logits: the compound with the other weight at zero."""
    return _pixel_major_call(_Loss(semantic, seg, beta, n_classes), logits, target)


# --- public entry points ------------------------------------------------------


def wasserstein_crisp(m: np.ndarray, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Closed-form label-space Wasserstein loss for crisp ground truth.

    Per annotated pixel the loss is ``sum_l M[l, g] p_l``, i.e. the
    expected tree distance between the prediction and the true leaf;
    averaged over annotated pixels.
    """
    term = _Wasserstein(m)
    return _one_term(term, "none", 0.0, term.n_classes, logits, target)


def seg_loss_ce(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Standard softmax cross-entropy over annotated pixels."""
    return _one_term(None, "ce", 1.0, np.shape(logits)[-1], logits, target)


def seg_loss_dice(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Soft Dice loss, averaged over classes. Requires a dense target.

    Per class: 1 - (2 sum(p*g) + eps) / (sum(p) + sum(g) + eps), with the
    sums running over all pixels, so the batch is one tile.
    """

    def dice(x: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
        b = _require_dense(_Batch(x, t, x.shape[0]))
        return _dice(b.tile(0, b.n), Scratch(b.n))

    return _pixel_major_call(dice, logits, target)


def tree_weighted_ce(tree: LabelTree, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy extended over all tree nodes, weighted per edge.

    Per annotated pixel: ``-sum_v w_v [v ancestor of g] log p_agg_v`` where
    the aggregated probability of a node is the mass of its subtree. With
    unit weights on leaf edges and zero elsewhere this is the standard CE.
    """
    term = _TreeCE(tree)
    return _one_term(term, "none", 0.0, term.n_classes, logits, target)


def compound_wass(spec: LossSpec, tree: LabelTree, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """alpha * Wasserstein + beta * seg; a ``none`` spec drops the first term."""
    if spec.semantic not in ("wass", "none"):
        raise ConfigError(f"compound_wass needs semantic='wass', got {spec.semantic!r}")
    return _pixel_major_call(make_loss(tree, spec), logits, target)


def compound_twce(spec: LossSpec, tree: LabelTree, logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """alpha * tree-weighted CE + beta * seg; seg='none' drops the second term, a ``none`` spec the first."""
    if spec.semantic not in ("twce", "none"):
        raise ConfigError(f"compound_twce needs semantic='twce', got {spec.semantic!r}")
    return _pixel_major_call(make_loss(tree, spec), logits, target)


def make_loss(tree: LabelTree, spec: LossSpec) -> _Loss:
    """Bind a LossSpec to a tree, compiling the weighted tree into arrays once.

    The returned ``loss_fn(logits, target)`` takes class-major logits
    ``(C, n)`` and per-pixel codes (n values, any shape) and returns
    ``(loss, grad)`` with a ``(C, n)`` gradient. It walks no tree: the Wasserstein
    term reads a precomputed distance matrix; the tree-weighted CE reads
    the aggregation order, the inner nodes root side first for its
    push-down, and two leaf tables, each leaf's (K,) ancestor chain and its
    edge weights. A ``none`` spec (every spec with ``alpha == 0``) compiles
    nothing: the callable is beta * seg.

    The batch is worked in column tiles of at most ``TILE_BYTES`` of (C, T)
    float64 (one tile with a Dice term), each in place in its own columns.
    The callable owns ``logits`` and returns the gradient in the buffer it
    worked in: ``logits`` themselves when they are C-ordered float64, else
    a C-ordered float64 copy of them. ``loss_fn(logits, target, terms,
    scratch)`` works one tile of a batch whose logits are made a tile at a
    time (``training.train``), its kernel's table in the caller's
    ``Scratch``; see ``_Loss``.
    """
    semantic = None
    if spec.semantic != "none":
        weighted = assign_weights(tree, spec.scheme)
        semantic = _Wasserstein(distance_matrix(weighted), spec.alpha) if spec.semantic == "wass" else _TreeCE(weighted, spec.alpha)
    return _Loss(semantic, spec.seg, spec.beta, tree.n_leaves)
