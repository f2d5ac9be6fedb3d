"""Background detection from positive-only models via hierarchy-level confidence.

A pixel is declared background when its maximum aggregated probability at
the chosen tree level does not exceed the threshold; otherwise the pixel
gets the argmax level class and, below it, the most probable leaf of that
subtree. ``sweep_tau`` picks the threshold maximizing mean one-vs-rest F1
over the positive classes on a validation set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evaluation import class_slots, ovr_from_counts
from .hierarchy import LabelTree, leaf_level_map, parse_level, resolve_level
# gating.aggregate stays importable: perfbench/test_perfbench.py rebinds it
from .losses import _aggregation_plan, _sum_up, aggregate, leaf_rows  # noqa: F401


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


def score_at_level(tree: LabelTree, probs: np.ndarray, k: int) -> tuple[np.ndarray, list[int]]:
    """Aggregated probabilities restricted to the level-k nodes.

    Returns ``(scores, node_ids)`` with score columns in ascending node-id
    order. Only the subtrees under the level are summed; for k = 0 nothing
    is, and the scores are the checked leaf probabilities themselves.
    """
    node_ids = np.unique(leaf_level_map(tree, k)).tolist()
    p, lead = leaf_rows(tree, probs)
    if k > 0:
        plan = [(v, kids) for v, kids in _aggregation_plan(tree) if tree.levels - tree.depth[v] <= k]
        p = _sum_up(p.T, plan, np.zeros((tree.n_nodes, p.shape[0])))[node_ids].T
    return p.reshape(*lead, len(node_ids)), node_ids


def gate(tree: LabelTree, probs: np.ndarray, policy: ThresholdPolicy) -> PredictionField:
    """Apply the background threshold and pick leaf labels inside the
    winning level-k subtree."""
    probs = np.asarray(probs, dtype=float)
    lead = probs.shape[:-1]
    flat = probs.reshape(-1, probs.shape[-1])
    k = policy.resolve_level(tree)
    scores, node_ids = score_at_level(tree, flat, k)
    best = np.argmax(scores, axis=1)
    keep = scores[np.arange(len(best)), best] > policy.tau
    level_class = np.asarray(node_ids, dtype=np.int64)[best]

    level_of_leaf = leaf_level_map(tree, k)
    under = [np.flatnonzero(level_of_leaf == node) for node in node_ids]
    # a slot whose subtree is one leaf labels its pixels with that leaf, no argmax needed
    lone = np.array([leaves[0] + 1 if leaves.size == 1 else 0 for leaves in under], dtype=np.int64)
    labels = np.where(keep, lone[best], 0)
    for slot, leaves in enumerate(under):
        if leaves.size == 1:
            continue
        rows = keep & (best == slot)
        if not rows.any():
            continue
        sub = flat[np.ix_(rows, leaves)]
        labels[rows] = leaves[np.argmax(sub, axis=1)] + 1
    return PredictionField(labels=labels.reshape(lead), level_class=level_class.reshape(lead), level=k)


def default_grid(step: float = 0.01) -> np.ndarray:
    """Thresholds 0, step, ..., < 1 (the paper-style sweep grid)."""
    if not 0 < step <= 1:
        raise ConfigError("grid step must be in (0, 1]")
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
    k and ``tau_m`` maximizes F1, ties broken toward the largest tau.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ConfigError("empty threshold grid")
    if len(prob_fields) != len(masks):
        raise ConfigError("need one mask per probability field")

    lut = leaf_level_map(tree, k) + 1
    max_parts, arg_parts, true_parts = [], [], []
    for probs, mask in zip(prob_fields, masks):
        probs = np.asarray(probs, dtype=float).reshape(-1, tree.n_leaves)
        codes = np.asarray(mask).reshape(-1)
        ann = codes > 0
        if not ann.any():
            continue
        scores, node_ids = score_at_level(tree, probs[ann], k)
        best = np.argmax(scores, axis=1)
        max_parts.append(scores[np.arange(len(best)), best])
        arg_parts.append(np.asarray(node_ids, dtype=np.int64)[best] + 1)
        true_parts.append(lut[codes[ann] - 1])
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
