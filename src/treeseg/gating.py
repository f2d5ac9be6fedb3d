"""Background detection from positive-only models via hierarchy-level confidence.

A pixel is declared background when its maximum aggregated probability at
the chosen tree level does not exceed the threshold; otherwise the pixel
gets the argmax level class and, below it, the most probable leaf of that
subtree. ``sweep_tau`` picks the threshold maximizing mean one-vs-rest F1
over the positive classes on a validation set.

The kernels work class-major, on (C, n) probabilities, one column per
pixel, as training does. A ``LevelScorer`` compiles one tree level; its
``score`` checks an image's columns, sums its level scores node-major and
finds each column's first maximum, once. The leaf that the gate picks
inside the winning subtree does not depend on the threshold, so ``score``
also finds it, with the ungated leaf argmax, and reduces the image to a
``ScoredImage`` of four (n,) vectors; the probabilities can go as soon as
the image is scored. The sweep's counting, the gate
(``where(top > tau, inside + 1, 0)``) and the leaf argmax then read those
vectors, so a validation fold scores each image once and holds O(n) per
image until every threshold is known. The public ``(..., C)`` functions
``score_at_level``, ``gate`` and ``sweep_tau`` transpose once into the
same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evaluation import class_slots, ovr_from_counts
from .hierarchy import LabelTree, leaf_level_map, parse_level, resolve_level
# gating.aggregate stays importable: perfbench/test_perfbench.py rebinds it
from .losses import _aggregation_plan, _columns_copy, _pixel_major, _sum_up, aggregate, check_columns  # noqa: F401


@dataclass(frozen=True)
class ThresholdPolicy:
    """Gating threshold tau applied at a hierarchy level ("leaf", "topmost" or an index)."""

    tau: float
    level: int | str = "topmost"

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")
        object.__setattr__(self, "level", parse_level(self.level))

    def resolve_level(self, tree: LabelTree) -> int:
        return resolve_level(tree, self.level)


@dataclass
class PredictionField:
    """Gated per-pixel labels (leaf codes, 0 = background) plus the level-k
    argmax node id for every pixel, gated or not."""

    labels: np.ndarray
    level_class: np.ndarray
    level: int


def first_max(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's first maximum of a NaN-free (m, n) array: its row index and its value.

    A scan over the m rows, because ``np.argmax(s, axis=0)`` copies a
    C-ordered array pixel-major first: at (99, 16384) it took 14 ms, the
    scan 4 ms with the maxima (2 cores, numpy 2.4). The strict ``>`` keeps
    np.argmax's first-index rule on ties.
    """
    best = np.zeros(s.shape[1], dtype=np.int64)
    top = s[0].copy()
    up = np.empty(s.shape[1], dtype=bool)
    for row in range(1, s.shape[0]):
        np.greater(s[row], top, out=up)
        np.copyto(best, row, where=up)
        np.maximum(top, s[row], out=top)
    return best, top


@dataclass
class ScoredImage:
    """One image scored at a tree level, four (n,) vectors with one entry per column:
    the level slot of the first maximum level score, that score, the first most
    probable leaf inside that slot, and the first most probable leaf of all.

    The leaf inside the slot does not depend on the threshold, so an image
    keeps no probabilities once it is scored."""

    best: np.ndarray
    top: np.ndarray
    inside: np.ndarray
    leaf: np.ndarray


class LevelScorer:
    """Tree level k compiled once for scoring, sweeping and gating class-major probabilities.

    Slots are the level-k nodes in ascending id order. Only the subtrees
    under the level are summed; at k = 0 nothing is, and the scores are the
    checked leaf probabilities themselves.
    """

    def __init__(self, tree: LabelTree, k: int):
        level_of_leaf = leaf_level_map(tree, k)
        self.k, self.n_leaves = k, tree.n_leaves
        self.node_ids = np.unique(level_of_leaf).astype(np.int64)
        plan = [(v, kids) for v, kids in _aggregation_plan(tree) if tree.levels - tree.depth[v] <= k]
        # the planned nodes renumbered C, C + 1, ... in plan order, so that _sum_up gives them
        # one row each and no other node a row; the leaves keep their ids. rows: each level
        # slot's node in those ids
        renumber = {v: self.n_leaves + i for i, (v, _) in enumerate(plan)}
        self.plan = tuple((renumber[v], tuple(renumber.get(u, u) for u in kids)) for v, kids in plan)
        self.rows = [renumber.get(v, v) for v in self.node_ids.tolist()]
        self.under = [np.flatnonzero(level_of_leaf == node) for node in self.node_ids]
        self.code_of_leaf = level_of_leaf + 1  # leaf index -> level-k node code

    def scores(self, probs: np.ndarray) -> np.ndarray:
        """The (m, n) level scores of (C, n) probabilities, after checking every column.

        Only the planned nodes get rows of their own; a level node that is a
        leaf is read from ``probs``."""
        p = check_columns(probs, self.n_leaves)
        if self.k == 0:
            return p
        inner = _sum_up(p, self.plan, np.empty((len(self.plan), p.shape[1])))
        return np.stack([p[v] if v < self.n_leaves else inner[v - self.n_leaves] for v in self.rows])

    def score(self, probs: np.ndarray) -> ScoredImage:
        """Score one image's C-ordered (C, n) probabilities once, for the sweep, the gate and
        the leaf argmax; the returned image holds no reference to ``probs``."""
        best, top = first_max(self.scores(probs))
        if self.k == 0:  # every slot is one leaf
            return ScoredImage(best, top, best, best)
        inside = np.empty_like(best)  # every column's best is some slot
        for slot, leaves in enumerate(self.under):
            cols = np.flatnonzero(best == slot)
            if cols.size:
                inside[cols] = leaves[first_max(probs[np.ix_(leaves, cols)])[0]]
        return ScoredImage(best, top, inside, first_max(probs)[0])

    def gate(self, image: ScoredImage, tau: float) -> np.ndarray:
        """Flat leaf codes: 0 where the top score is not above tau."""
        return np.where(image.top > tau, image.inside + 1, 0)

    def sweep(self, images: list[ScoredImage], masks: list[np.ndarray], grid: np.ndarray) -> tuple[float, np.ndarray]:
        """``(tau_m, curve)`` over the annotated (code > 0) columns of the scored images; see ``sweep_tau``."""
        grid = np.asarray(grid, dtype=float)
        if grid.size == 0:
            raise ConfigError("empty threshold grid")
        max_parts, arg_parts, true_parts = [], [], []
        for image, mask in zip(images, masks):
            codes = np.asarray(mask).reshape(-1)
            ann = codes > 0
            if not ann.any():
                continue
            max_parts.append(image.top[ann])
            arg_parts.append(self.node_ids[image.best[ann]] + 1)
            true_parts.append(self.code_of_leaf[codes[ann] - 1])
        if not max_parts:
            raise ConfigError("validation set has no annotated pixels")
        max_score = np.concatenate(max_parts)
        arg_code = np.concatenate(arg_parts)
        true_code = np.concatenate(true_parts)
        classes = np.unique(true_code)
        m = classes.size

        # A pixel is predicted positive at the j-th smallest threshold iff more
        # than j grid values lie below its max score: count pixels per (number
        # below, predicted slot), then sum from the top.
        order = np.argsort(grid, kind="stable")
        below = np.searchsorted(grid[order], max_score, "left")
        cell = below * (m + 1) + class_slots(arg_code, classes)
        shape = (grid.size + 1, m + 1)
        predicted = np.bincount(cell, minlength=shape[0] * shape[1]).reshape(shape)
        correct = np.bincount(cell[arg_code == true_code], minlength=shape[0] * shape[1]).reshape(shape)
        tp, pp = (np.cumsum(c[::-1], axis=0)[::-1][1:, :m] for c in (correct, predicted))
        n_pos = np.broadcast_to(np.bincount(np.searchsorted(classes, true_code), minlength=m), tp.shape)
        scores = ovr_from_counts(tp, pp - tp, n_pos, true_code.size - n_pos)

        curve = np.zeros((grid.size, 4))
        curve[:, 0] = grid
        curve[order, 1:] = np.stack([np.nanmean(scores[key], axis=1) for key in ("tpr", "bacc", "f1")], axis=1)
        f1 = curve[:, 3]
        return float(grid[f1 == f1.max()].max()), curve


# --- public (..., C) entry points: one transpose into the kernels above


def score_at_level(tree: LabelTree, probs: np.ndarray, k: int) -> tuple[np.ndarray, list[int]]:
    """Aggregated probabilities restricted to the level-k nodes.

    Returns ``(scores, node_ids)`` with score columns in ascending node-id
    order. Only the subtrees under the level are summed; for k = 0 nothing
    is, and the scores are the checked leaf probabilities themselves.
    """
    scorer = LevelScorer(tree, k)
    s = scorer.scores(_columns_copy(probs))
    return _pixel_major(s, (*np.shape(probs)[:-1], s.shape[0])), scorer.node_ids.tolist()


def gate(tree: LabelTree, probs: np.ndarray, policy: ThresholdPolicy) -> PredictionField:
    """Apply the background threshold and pick leaf labels inside the
    winning level-k subtree."""
    scorer = LevelScorer(tree, policy.resolve_level(tree))
    image = scorer.score(_columns_copy(probs))
    lead = np.shape(probs)[:-1]
    return PredictionField(labels=scorer.gate(image, policy.tau).reshape(lead), level_class=scorer.node_ids[image.best].reshape(lead), level=scorer.k)


def check_grid_step(step: float) -> None:
    """Raise ConfigError unless ``step`` is a sweep-grid step, in (0, 1]."""
    if not 0 < step <= 1:
        raise ConfigError(f"grid_step must be in (0, 1], got {step}")


def default_grid(step: float = 0.01) -> np.ndarray:
    """Thresholds 0, step, ..., < 1 (the paper-style sweep grid)."""
    check_grid_step(step)
    return np.round(np.arange(0.0, 1.0 - 1e-12, step), 10)


def sweep_tau(
    tree: LabelTree,
    prob_fields: list[np.ndarray],
    masks: list[np.ndarray],
    k: int,
    grid: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Sweep the gating threshold on annotated validation pixels.

    Returns ``(tau_m, curve)`` where the curve rows are
    ``(tau, mean TPR, mean BACC, mean F1)`` over positive classes at level
    k and ``tau_m`` maximizes F1, ties broken toward the largest tau. Only
    the annotated pixels are scored and checked.
    """
    if len(prob_fields) != len(masks):
        raise ConfigError("need one mask per probability field")
    scorer = LevelScorer(tree, k)
    images, codes = [], []
    for probs, mask in zip(prob_fields, masks):
        c = np.asarray(mask).reshape(-1)
        ann = c > 0
        if ann.any():
            p = np.asarray(probs, dtype=float)
            images.append(scorer.score(_columns_copy(p.reshape(-1, p.shape[-1])[ann])))
            codes.append(c[ann])
    return scorer.sweep(images, codes, grid)
