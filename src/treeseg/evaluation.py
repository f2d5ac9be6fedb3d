"""Hierarchical evaluation: Dice, surface Dice, one-vs-rest rates, confusion.

All functions work on integer class-code arrays (0 = background, codes
``1..`` = classes). Evaluation can run at any tree level: leaf codes are
mapped to the code of their level-k cut node (``node id + 1``), so code 0
stays reserved for background at every level. Sparse ground truth is
handled by restricting everything to an annotation domain.

Classes absent from both prediction and truth are excluded from means
(reported as NaN) rather than scored 1, so sparse corpora do not inflate
averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyEvalError, LabelError, ShapeError
from .hierarchy import LabelTree, leaf_level_map

LEVEL_MEANS = ("dice", "tpr", "bacc", "f1", "nsd")  # each level's per-class scores and means in report.json


def level_classes(tree: LabelTree, k: int) -> list[int]:
    """Class codes (node id + 1) of the level-k cut, ascending."""
    return (np.unique(leaf_level_map(tree, k)) + 1).tolist()


def nanmean_axis0(stack: np.ndarray) -> np.ndarray:
    """nanmean over axis 0 that stays silent on all-NaN slices."""
    valid = ~np.isnan(stack)
    count = valid.sum(axis=0)
    total = np.where(valid, stack, 0.0).sum(axis=0)
    return np.divide(total, count, out=np.full(count.shape, np.nan), where=count > 0)


def map_to_level(tree: LabelTree, codes: np.ndarray, k: int) -> np.ndarray:
    """Map leaf codes to level-k codes; background 0 is preserved."""
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() > tree.n_leaves):
        raise LabelError(f"leaf codes must lie in 0..{tree.n_leaves}")
    lut = np.concatenate([[0], leaf_level_map(tree, k) + 1])
    return lut[codes]


def class_slots(codes: np.ndarray, classes: list[int]) -> np.ndarray:
    """Slot of every code: slot i is ``classes[i]``, slot m pools every other code."""
    table = np.asarray(classes, dtype=np.int64)
    m = table.size
    if np.unique(table).size < m or np.any(table < 0):
        raise ConfigError("class codes must be distinct and non-negative")
    top = int(table.max(initial=0)) + 1
    lut = np.full(top + 1, m)  # lut[top], also reached as lut[-1], is the pool slot
    lut[table] = np.arange(m)
    return lut[np.clip(codes, -1, top)]


def _count_table(pred: np.ndarray, truth: np.ndarray, classes: list[int], domain: np.ndarray | None) -> np.ndarray:
    """(m+1, m+1) pixel counts on the domain (annotated truth if None), rows
    true and columns predicted: slot i is ``classes[i]``, slot m every other code."""
    pred = np.asarray(pred).reshape(-1)
    truth = np.asarray(truth).reshape(-1)
    dom = truth > 0 if domain is None else np.asarray(domain, dtype=bool).reshape(-1)
    if not pred.size == truth.size == dom.size:
        raise ShapeError(f"prediction, truth and domain differ in size: {pred.size}, {truth.size} and {dom.size} pixels")
    if not dom.any():
        raise EmptyEvalError("empty annotation domain")
    m = len(classes)
    pair = class_slots(truth[dom], classes) * (m + 1) + class_slots(pred[dom], classes)
    return np.bincount(pair, minlength=(m + 1) ** 2).reshape(m + 1, m + 1)


def dice_scores(pred: np.ndarray, truth: np.ndarray, classes: list[int], domain: np.ndarray | None = None) -> np.ndarray:
    """Per-class Dice 2|P&G| / (|P|+|G|); NaN where the class is absent from both."""
    return _dice(_count_table(pred, truth, classes, domain))


def _dice(table: np.ndarray) -> np.ndarray:
    """Per-class Dice of a ``_count_table`` table."""
    m = len(table) - 1
    tp = table.diagonal()[:m]
    total = table[:, :m].sum(axis=0) + table[:m].sum(axis=1)
    return np.divide(2.0 * tp, total, out=np.full(m, np.nan), where=total > 0)


def _surface(img: np.ndarray) -> np.ndarray:
    """Boundary of every label region at once: a pixel is on its label's
    boundary when a face neighbour has another label or lies outside the image."""
    edge = np.zeros(img.shape, dtype=bool)
    for axis in range(img.ndim):
        a, e = np.moveaxis(img, axis, 0), np.moveaxis(edge, axis, 0)
        e[0] = e[-1] = True
        step = a[1:] != a[:-1]
        e[1:] |= step
        e[:-1] |= step
    return edge


def nsd_scores(
    pred: np.ndarray,
    truth: np.ndarray,
    classes: list[int],
    tolerance: float,
    spacing: tuple[float, ...] | None = None,
) -> np.ndarray:
    """Normalised surface Dice per class on dense label images.

    Fraction of boundary elements of each surface lying within
    ``tolerance`` of the other surface, symmetrized over both surfaces.
    Every class is scored in one pass: a boundary pixel counts when some
    integer offset inside the tolerance ball, measured as scipy's
    Euclidean distance transform measures it, lands on a boundary pixel of
    the same class on the other side.
    """
    if not tolerance >= 0:
        raise ConfigError(f"tolerance must be >= 0, got {tolerance!r}")
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim < 2:
        raise ConfigError("nsd needs two dense label images of the same spatial shape")
    m = len(classes)
    if pred.size == 0:
        return np.full(m, np.nan)
    shape = np.array(pred.shape)
    sampling = np.ones(pred.ndim) if spacing is None else np.broadcast_to(np.asarray(spacing, dtype=float), (pred.ndim,))
    # integer offsets inside the tolerance ball; the reach bounds them and clips them to the image
    reach = np.minimum(shape - 1, np.floor(tolerance / sampling) + 1).astype(np.int64)
    ball = np.indices(2 * reach + 1).reshape(pred.ndim, -1)
    sq = (ball - reach[:, None]) * sampling[:, None]
    sq *= sq
    ball = ball[:, np.sqrt(np.add.reduce(sq, axis=0)) <= tolerance]
    # each side's boundary slots, -1 elsewhere, padded by the reach: an offset is one flat shift
    padded = shape + 2 * reach
    shifts = np.ravel_multi_index(tuple(ball), padded) - np.ravel_multi_index(tuple(reach), padded)
    flat = []
    for img in (pred, truth):
        slot = class_slots(img, classes)
        slot[(slot == m) | ~_surface(img)] = -1
        pad = np.full(padded, -1)
        pad[tuple(slice(r, r + n) for r, n in zip(reach, shape))] = slot
        flat.append(pad.reshape(-1))
    ok = np.zeros(m, dtype=np.int64)
    total = np.zeros(m, dtype=np.int64)
    for own, other in (flat, flat[::-1]):
        at = np.flatnonzero(own >= 0)
        label = own[at]
        hit = np.zeros(at.size, dtype=bool)
        for shift in shifts:
            hit |= other[at + shift] == label
        ok += np.bincount(label[hit], minlength=m)
        total += np.bincount(label, minlength=m)
    return np.divide(ok, total, out=np.full(m, np.nan), where=total > 0)


def ovr_scores(
    pred: np.ndarray, truth: np.ndarray, classes: list[int], domain: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """One-vs-rest TPR/TNR/BACC/F1 per class on the annotation domain.

    Background predictions (code 0) count as negatives for every class.
    Classes with zero annotated positives are NaN (excluded from means).
    A class with no negatives gets the vacuous TNR of 1.
    """
    return _ovr(_count_table(pred, truth, classes, domain))


def _ovr(table: np.ndarray) -> dict[str, np.ndarray]:
    """One-vs-rest TPR/TNR/BACC/F1 per class of a ``_count_table`` table."""
    m = len(table) - 1
    tp = table.diagonal()[:m]
    n_pos = table[:m].sum(axis=1)
    return ovr_from_counts(tp, table[:, :m].sum(axis=0) - tp, n_pos, table.sum() - n_pos)


def ovr_from_counts(tp: np.ndarray, fp: np.ndarray, n_pos: np.ndarray, n_neg: np.ndarray) -> dict[str, np.ndarray]:
    """One-vs-rest TPR/TNR/BACC/F1 from integer counts, all of one shape (..., m).

    A class without positives is NaN; one without negatives gets TNR 1.
    """
    seen = n_pos > 0
    tpr = np.divide(tp, n_pos, out=np.full(tp.shape, np.nan), where=seen)
    tnr = np.divide(n_neg - fp, n_neg, out=np.where(seen, 1.0, np.nan), where=seen & (n_neg > 0))
    f1 = np.divide(2.0 * tp, 2.0 * tp + fp + (n_pos - tp), out=np.full(tp.shape, np.nan), where=seen)
    return {"tpr": tpr, "tnr": tnr, "bacc": (tpr + tnr) / 2.0, "f1": f1}


def _mean(scores: np.ndarray | None) -> float | None:
    """The nanmean of per-class scores; None when there are none or every one is NaN."""
    if scores is None or np.all(np.isnan(scores)):
        return None
    return float(np.nanmean(scores))


@dataclass
class EvalReport:
    """Per-class and mean metrics at one tree level."""

    level: int
    classes: list[int]
    names: list[str]
    dice: np.ndarray
    tpr: np.ndarray
    bacc: np.ndarray
    f1: np.ndarray
    counts: np.ndarray  # the level's ``level_counts`` table, which to_dict does not write
    nsd: np.ndarray | None = None
    nsd_tolerance: float | None = None

    @property
    def means(self) -> dict[str, float | None]:
        """Each ``LEVEL_MEANS`` score averaged over the classes it is defined for; None if none."""
        return {key: _mean(getattr(self, key)) for key in LEVEL_MEANS}

    def to_dict(self) -> dict:
        def listify(a):
            return None if a is None else [None if np.isnan(x) else float(x) for x in a]

        return {
            "level": self.level,
            "classes": list(self.classes),
            "names": list(self.names),
            "per_class": {key: listify(getattr(self, key)) for key in LEVEL_MEANS},
            "means": self.means,
            "nsd_tolerance": self.nsd_tolerance,
        }


def evaluate_level(
    tree: LabelTree,
    pred: np.ndarray,
    truth: np.ndarray,
    level: int,
    *,
    domain: np.ndarray | None = None,
) -> EvalReport:
    """Evaluate leaf-coded predictions against leaf-coded truth at a level.

    Dice and the one-vs-rest rates read one count table, kept as ``counts``; ``evaluate_levels`` adds NSD.
    """
    classes = level_classes(tree, level)
    names = [tree.name_of(c - 1) for c in classes]
    table = _count_table(map_to_level(tree, pred, level), map_to_level(tree, truth, level), classes, domain)
    ovr = _ovr(table)
    return EvalReport(level=level, classes=classes, names=names, dice=_dice(table), tpr=ovr["tpr"], bacc=ovr["bacc"], f1=ovr["f1"], counts=table)


def pool_pixels(fields: list[np.ndarray]) -> np.ndarray:
    """Per-subject fields flattened and concatenated into one pixel vector."""
    return np.concatenate([f.reshape(-1) for f in fields])


def evaluate_levels(
    tree: LabelTree, preds: list[np.ndarray], truths: list[np.ndarray], domains: list[np.ndarray], levels: list[int], tolerance: float | None
) -> list[EvalReport]:
    """The evaluation stage: ``evaluate_level`` at each level on the domains, each list pooled once. With a tolerance and
    dense truth (surface distances need every field annotated), each report also gets NSD per subject, averaged over subjects."""
    pred, truth, domain = pool_pixels(preds), pool_pixels(truths), pool_pixels(domains)
    reports = [evaluate_level(tree, pred, truth, level, domain=domain) for level in levels]
    if tolerance is not None and all(np.all(t > 0) for t in truths):
        for rep in reports:
            nsd = [nsd_scores(map_to_level(tree, p, rep.level), map_to_level(tree, t, rep.level), rep.classes, tolerance) for p, t in zip(preds, truths)]
            rep.nsd, rep.nsd_tolerance = nanmean_axis0(np.stack(nsd)), tolerance
    return reports


def level_counts(tree: LabelTree, pred: np.ndarray, truth: np.ndarray, level: int, domain: np.ndarray | None = None) -> np.ndarray:
    """One fold's level confusion: the (m+1, m+1) pixel counts of leaf-coded ``pred``
    against ``truth`` on the domain (annotated truth if None), rows true and columns
    predicted, the level's classes ascending and background last."""
    return _count_table(map_to_level(tree, pred, level), map_to_level(tree, truth, level), level_classes(tree, level), domain)


@dataclass
class ConfusionTensor:
    """Per-fold raw-count confusion matrices plus the row-normalized average.

    Rows are true classes, columns predicted. When background is included
    it is the last row/column, code 0. Fold averaging takes the entrywise
    mean of row-normalized fold matrices, skipping rows without support.
    """

    classes: list[int]  # row/col codes; 0 last when background is included
    per_fold: np.ndarray  # (F, m, m) raw counts
    averaged: np.ndarray = field(init=False)  # (m, m), NaN rows = never supported

    def __post_init__(self):
        normed = np.full(self.per_fold.shape, np.nan)
        for f, counts in enumerate(self.per_fold):
            sums = counts.sum(axis=1, keepdims=True)
            rows = sums[:, 0] > 0
            normed[f, rows] = counts[rows] / sums[rows]
        self.averaged = nanmean_axis0(normed)


def confusion(
    fold_preds: list[np.ndarray],
    fold_truths: list[np.ndarray],
    classes: list[int],
    domains: list[np.ndarray] | None = None,
    include_background: bool = False,
) -> ConfusionTensor:
    """Count confusion per fold over the given class codes.

    ``include_background`` adds a trailing row/column for code 0 so gated
    background predictions and pseudo-background truth are visible.
    """
    if len(fold_preds) != len(fold_truths):
        raise ConfigError("need one truth field per prediction fold")
    codes = list(classes) + ([0] if include_background else [])
    m = len(codes)
    per_fold = np.zeros((len(fold_preds), m, m))
    for f, (pred, truth) in enumerate(zip(fold_preds, fold_truths)):
        per_fold[f] = _count_table(pred, truth, codes, domains[f] if domains else None)[:m, :m]
    return ConfusionTensor(classes=codes, per_fold=per_fold)
