"""Desk-scale per-pixel classifiers trained with the semantic losses.

Models map d-channel pixel features to C leaf logits: either a linear
softmax classifier or a one-hidden-layer tanh MLP. Training is mini-batch
gradient descent where a batch is the annotated pixels of a few whole
images. Only annotated pixels ever enter the computation, which makes the
positive-only contract (unannotated pixels cannot influence parameters)
hold bitwise by construction.

Preprocessing is part of the model and lives here: ``train`` takes its
kind, fits the standardizer on the images it is given and applies it (or
``l1_normalize``) to the annotated pixels it keeps, the one copy of the
features, channel-major (d, n_i). The standardizer streams the images
through one image-sized buffer and never concatenates them. An image's
features are an array or a loaded corpus's ``synth._FeatureFile``,
which maps its file when converted: each is converted once per pass
(twice to fit the standardizer, once to gather its annotated pixels, and
once more per epoch under ``augment``) and dropped before the next one
is converted, so a loaded corpus has one image mapped at a time. A batch's
(d, n) features are the virtual concatenation of its images' and are
never made whole: a tile's columns are a view of one image's array when
the tile lies inside that image, else the slices it spans, copied into a
buffer. Logits, hidden units and their gradients exist one column tile at
a time too: for each tile of ``losses.batch_tiles`` (at most
``losses.TILE_BYTES`` of (C, T) float64, or the whole batch with a Dice
term), the forward writes the tile's (h, T) hidden units and (C, T)
logits, the loss turns the logits into their gradient of the batch mean
in place, and the backward adds the tile's parameter gradients to the
batch's. So a batch's (C, n) logits never exist whole. Every reduction
over a short axis (the classes, the hidden units) is a pass over
contiguous rows.

``train`` allocates the tile buffers once per call (``_Buffers``): the
(d, T) features, the (h, T) hidden units, the (C, T) logits and the loss
kernels' tables (a ``losses.Scratch``). They are sized to the fold's
widest tile: the sum of the ``batch_size`` largest annotated counts, or
``_tile_width(C) + 1`` columns if that is fewer (the last tile may absorb
a lone column); with a Dice term the batch is one tile, so the sum. Each tile writes into the
start of each flat buffer, a C-ordered view, so no step after the first
allocates a (C, T) or (d, T) array on the linear path. The buffers belong
to the call, not to the module: ``run_experiment`` trains folds at once in
worker processes, but a library caller may train folds at once on
threads. Holding them also keeps a step off fresh pages: glibc serves an
allocation above its mmap threshold with new pages, and that threshold
rises only when a large mapped block is freed. The concatenating
standardizer once freed such a block early in each fold, so its per-tile
arrays came from the heap; streamed, without the buffers, an op of a
``twce`` run that trained its folds on two threads took ~185k minor page
faults instead of ~2.9k and ran ~26% longer.

A batch of one tile (every batch at C = 21) runs the operations of a
whole-batch step. In a wider one, the loss of each tile divides by the
batch's pixel count, so given the same logits each tile's logit gradient
has the bits of the matching columns of a one-tile gradient, and the batch
loss is the mean of the per-pixel terms of all tiles, as one tile computes
it. The parameter gradients are summed tile by tile, and the BLAS product
of a tile may round its logits otherwise than the whole batch's does, so a
batch wider than one tile moves the parameters in the last bits.

A trained model predicts on raw features: standardization is absorbed
into its first layer, and l1 is its ``preproc``, which ``class_probs``
applies. Prediction is held class-major too: ``class_probs`` turns the
forward's (C, n) logits into probabilities in place, tile by tile, and
validation scores them class-major (``gating.LevelScorer``). ``predict``
is that core plus one transpose into the pixel-major ``(..., C)`` layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .errors import ConfigError, DivergenceError, EmptyMaskError, ParseError, ShapeError, ValidationError
from .hierarchy import LabelTree
from .losses import LossSpec, Scratch, Terms, _block, _pixel_major, _tile_width, batch_tiles, make_loss, softmax_columns
from .seeding import substream


class ImageFeatures(Protocol):
    """An image's (H, W, d) features as ``train`` reads them: an array, or anything numpy
    converts to one that gives its ``shape`` unconverted (a loaded corpus's ``synth._FeatureFile``)."""

    @property
    def shape(self) -> tuple[int, ...]: ...

    def __array__(self, dtype=None, copy=None) -> np.ndarray: ...


MODEL_KINDS = ("linear", "mlp")
PREPROC_KINDS = ("standardize", "l1", "none")  # what train applies to the raw features it is given
MODEL_PREPROC = ("none", "l1")  # what predict applies to raw features first


@dataclass
class TrainConfig:
    model: str = "linear"
    hidden: int = 32  # mlp only
    lr: float = 1e-3
    gamma: float = 0.999  # exponential per-epoch lr decay
    batch_size: int = 5  # whole images per optimizer step
    epochs: int = 50
    optimizer: str = "adam"  # or "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    momentum: float = 0.9
    augment: bool = False  # horizontal/vertical flips
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        for key in ("hidden", "batch_size", "epochs"):
            if not getattr(self, key) >= 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("lr", "adam_eps"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and > 0, got {getattr(self, key)}")
        if not 0 < self.gamma <= 1:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        for key in ("beta1", "beta2", "momentum"):
            if not 0 <= getattr(self, key) < 1:
                raise ConfigError(f"{key} must be in [0, 1), got {getattr(self, key)}")


@dataclass
class ModelParams:
    """Flat parameter container; ``arrays`` order is fixed per model kind.

    ``preproc`` is the per-pixel preprocessing the model applies to raw
    features itself; standardization is absorbed into the weights instead.
    """

    kind: str
    arrays: list[np.ndarray]  # linear: [W(d,C), b(C)]; mlp: [W1(d,h), b1(h), W2(h,C), b2(C)]
    preproc: str = "none"  # one of MODEL_PREPROC

    @property
    def in_dim(self) -> int:
        return self.arrays[0].shape[0]

    @property
    def n_classes(self) -> int:
        return self.arrays[-1].shape[0]


def init_params(kind: str, in_dim: int, n_classes: int, hidden: int, rng: np.random.Generator) -> ModelParams:
    if kind == "linear":
        arrays = [0.01 * rng.standard_normal((in_dim, n_classes)), np.zeros(n_classes)]
    else:
        arrays = [
            rng.standard_normal((in_dim, hidden)) / np.sqrt(in_dim),
            np.zeros(hidden),
            rng.standard_normal((hidden, n_classes)) / np.sqrt(hidden),
            np.zeros(n_classes),
        ]
    return ModelParams(kind, arrays)


class _Buffers:
    """One ``train`` call's flat buffers, allocated once and sized to its widest tile of
    ``width`` columns: the tile's (d, T) features when it spans images, its (h, T) hidden
    units (mlp), its (C, T) logits, and the ``Scratch`` of the loss kernels' tables, which
    the first tile allocates."""

    def __init__(self, params: ModelParams, width: int):
        self.features = np.empty(params.in_dim * width)
        self.hidden = np.empty(params.arrays[0].shape[1] * width) if params.kind == "mlp" else None
        self.logits = np.empty(params.n_classes * width)
        self.scratch = Scratch(width)


def _affine(w: np.ndarray, b: np.ndarray, x: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """``w.T @ x + b[:, None]``, the bias added in the product's buffer: the start of the
    flat ``buf`` when one is given, else a new array."""
    out = np.matmul(w.T, x, out=None if buf is None else _block(buf, w.shape[1], x.shape[1]))
    out += b[:, None]
    return out


def _forward(params: ModelParams, x: np.ndarray, bufs: _Buffers | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Channel-major features (d, n) -> class-major logits (C, n) and the (h, n) hidden units,
    written into ``bufs`` when given."""
    if params.kind == "linear":
        w, b = params.arrays
        return _affine(w, b, x, bufs and bufs.logits), None
    w1, b1, w2, b2 = params.arrays
    hidden = _affine(w1, b1, x, bufs and bufs.hidden)
    np.tanh(hidden, out=hidden)
    return _affine(w2, b2, hidden, bufs and bufs.logits), hidden


def _backward(params: ModelParams, x: np.ndarray, hidden: np.ndarray | None, grad_logits: np.ndarray) -> list[np.ndarray]:
    """Parameter gradients from a class-major (C, n) logit gradient, in ``params.arrays`` order."""
    if params.kind == "linear":
        return [x @ grad_logits.T, np.add.reduce(grad_logits, axis=1)]
    w2 = params.arrays[2]
    grad_hidden = (w2 @ grad_logits) * (1.0 - hidden * hidden)
    return [x @ grad_hidden.T, np.add.reduce(grad_hidden, axis=1), hidden @ grad_logits.T, np.add.reduce(grad_logits, axis=1)]


def _tile_gradients(params: ModelParams, loss_fn, x: np.ndarray, y: np.ndarray, terms: Terms, bufs: _Buffers | None = None) -> list[np.ndarray]:
    """Forward, loss and backward of one column tile of a batch, whose loss terms gather in
    ``terms``: the tile's parameter gradients. Its logits live in ``bufs`` when given, else
    they die on return; either way before the next tile's exist."""
    logits, hidden = _forward(params, x, bufs)
    _, grad_logits = loss_fn(logits, y, terms, bufs and bufs.scratch)
    return _backward(params, x, hidden, grad_logits)


def check_preproc(kind: str) -> None:
    """Raise ConfigError unless ``kind`` is one of ``PREPROC_KINDS``."""
    if kind not in PREPROC_KINDS:
        raise ConfigError(f"preproc must be one of {PREPROC_KINDS}, got {kind!r}")


def l1_normalize(image: np.ndarray) -> np.ndarray:
    """Divide each spatial location's channel vector by its l1 norm.

    Zero vectors are left untouched; the operation is idempotent.
    """
    image = np.asarray(image, dtype=float)
    norm = np.abs(image).sum(axis=-1, keepdims=True)
    return np.divide(image, norm, out=image.copy(), where=norm > 0)


def fit_standardizer(features: Sequence[ImageFeatures]) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std over all pixels of the images (a zero std reads 1); a mean or std
    that overflows float64 (features near its maximum) is a ValidationError naming the channel.

    The images are arrays or loaded subjects' ``_FeatureFile``s: the sizes are read from
    their ``shape``s, and each pass converts each image once, dropping it before
    the next is converted, so at most one is mapped at a time. The images are streamed, never
    concatenated: one buffer holds an image's (n_i, d) rows below the running sum, and each
    pass (the sums, then the squared deviations from the mean) reduces it to the next running
    sum. numpy sums down a C-ordered (n, d >= 2) block row by row, so this gives the bits of
    ``mean`` and ``std`` over the concatenation; a one-channel block is summed pairwise, so at
    d = 1 they may move in the last bits.
    """
    sizes = [math.prod(f.shape[:-1]) for f in features]
    d = features[0].shape[-1]
    buf = np.empty((1 + max(sizes), d))
    count = sum(sizes)

    def total(write) -> np.ndarray:
        """The column sums of every image's rows as ``write(rows, out)`` puts them below the running sum."""
        acc = None
        for f, n in zip(features, sizes):
            write(np.asarray(f).reshape(n, d), buf[1 : n + 1])  # no name holds the rows past this call
            if acc is None:
                acc = np.add.reduce(buf[1 : n + 1], axis=0)
            else:
                buf[0] = acc
                acc = np.add.reduce(buf[: n + 1], axis=0)
        return acc

    with np.errstate(over="ignore", invalid="ignore"):
        mu = total(lambda r, out: np.copyto(out, r)) / count
        sd = np.sqrt(total(lambda r, out: np.square(np.subtract(r, mu, out=out), out=out)) / count)
    bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(sd)))
    if bad.size:
        raise ValidationError(f"preproc standardize: the mean or std of feature channel {bad[0]} overflows float64")
    return mu, np.where(sd > 0, sd, 1.0)


def absorb_standardization(params: ModelParams, mu: np.ndarray, sd: np.ndarray) -> ModelParams:
    """Fold x -> (x - mu) / sd into the first layer in place, so that the model acts on raw
    features as it acted on standardized ones and its file stores no standardizer; returns it."""
    w, b = params.arrays[0], params.arrays[1]
    w /= sd[:, None]
    b -= mu @ w
    return params


def class_probs(params: ModelParams, features: ImageFeatures) -> np.ndarray:
    """Softmax leaf probabilities of raw ``(..., d)`` features, class-major (C, n), in the forward's own buffer."""
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != params.in_dim:
        raise ShapeError(f"model expects {params.in_dim} channels, got {features.shape[-1]}")
    if params.preproc == "l1":
        features = l1_normalize(features)
    logits, _ = _forward(params, features.reshape(-1, params.in_dim).T)
    return softmax_columns(logits)


def predict(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Per-pixel softmax leaf probabilities of raw features, same leading shape as the input, C-ordered."""
    return _pixel_major(class_probs(params, features), (*np.shape(features)[:-1], params.n_classes))


def _flip(arr: np.ndarray, flip_h: bool, flip_v: bool) -> np.ndarray:
    if flip_v:
        arr = arr[::-1]
    if flip_h:
        arr = arr[:, ::-1]
    return arr


def _columns(parts: list[np.ndarray], lo: int, hi: int, buf: np.ndarray | None = None) -> np.ndarray:
    """Columns ``[lo, hi)`` of the (d, n) concatenation of the (d, n_i) ``parts``: a view of
    one part when they lie inside it, else the concatenation of the slices they span, written
    at the start of the flat ``buf`` when one is given."""
    spans, start = [], 0
    for x in parts:
        stop = start + x.shape[1]
        if lo < stop and start < hi:
            spans.append(x[:, max(lo - start, 0) : hi - start])
        start = stop
    if len(spans) == 1:
        return spans[0]
    return np.concatenate(spans, axis=1, out=None if buf is None else _block(buf, spans[0].shape[0], hi - lo))


def train(
    subjects: Sequence[tuple[ImageFeatures, np.ndarray]],
    tree: LabelTree,
    spec: LossSpec,
    config: TrainConfig,
    preproc: str = "none",
) -> tuple[ModelParams, list[float]]:
    """Train on raw (features, mask) images; returns (params, per-epoch loss trace).

    The features are arrays or loaded subjects' ``_FeatureFile``s, each converted once per
    pass and dropped before the next: twice to fit a standardizer, once to gather its
    annotated pixels, and once more per epoch under ``augment``.
    The loss sees only annotated pixels. Deterministic given config.seed.
    ``preproc`` is one of ``PREPROC_KINDS``: ``standardize`` fits each
    channel's mean and std on all pixels of the images, ``l1`` normalizes
    each pixel, ``none`` leaves the features as they are. It is applied to
    each image's annotated pixels, taken as fresh (n_i, d) rows; those rows,
    channel-major, are the only preprocessed copy of the features, and a
    batch is never concatenated: each tile reads its columns from its
    images'. Under ``augment`` each epoch gathers the annotated rows of the
    unflipped image in the flipped image's raster order, so no flipped image
    is copied. The tiles' features, logits and loss tables live in buffers
    allocated once per call (see the module notes). The returned model
    predicts on raw features: standardization is absorbed into its first
    layer, l1 is its ``preproc``.
    """
    check_preproc(preproc)
    if not subjects:
        raise EmptyMaskError("no training subjects")
    loss_fn = make_loss(tree, spec)
    dice = spec.seg == "dice_ce"
    if dice and any(np.any(m == 0) for _, m in subjects):
        raise ConfigError("seg='dice_ce' requires dense masks")
    if preproc == "standardize":
        mu, sd = fit_standardizer([f for f, _ in subjects])

    def annotated(features: ImageFeatures, mask: np.ndarray, flip_h: bool = False, flip_v: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The annotated pixels' preprocessed features channel-major (d, n_i) and their codes, in
        the raster order of the flipped image, gathered from the unflipped one, which is
        converted here and dropped on return."""
        order = _flip(np.arange(mask.size).reshape(mask.shape), flip_h, flip_v).reshape(-1)
        keep = order[mask.reshape(-1)[order] > 0]
        features = np.asarray(features)
        rows = features.reshape(-1, features.shape[-1])[keep]
        if preproc == "standardize":
            rows -= mu
            rows /= sd
        elif preproc == "l1":
            rows = l1_normalize(rows)
        return np.ascontiguousarray(rows.T), mask.reshape(-1)[keep]

    static = [annotated(f, m) for f, m in subjects]
    if sum(y.size for _, y in static) == 0:
        raise EmptyMaskError("training fold has no annotated pixels")

    in_dim = subjects[0][0].shape[-1]
    params = init_params(config.model, in_dim, tree.n_leaves, config.hidden, substream(config.seed, "init"))
    # the widest tile: a batch of the largest images, or a tile and a lone column it absorbed
    widest = sum(sorted((y.size for _, y in static), reverse=True)[: config.batch_size])
    bufs = _Buffers(params, widest if dice else min(widest, _tile_width(tree.n_leaves) + 1))
    slots = [np.zeros_like(a) for a in params.arrays]  # adam m / sgd velocity
    second = [np.zeros_like(a) for a in params.arrays]  # adam v
    step = 0
    trace: list[float] = []

    for epoch in range(config.epochs):
        rng = substream(config.seed, "epoch", epoch)
        order = rng.permutation(len(subjects))
        if config.augment:
            flips = rng.random((len(subjects), 2)) < 0.5
            pool = [annotated(f, m, fh, fv) for (f, m), (fh, fv) in zip(subjects, flips)]
        else:
            pool = static
        lr = config.lr * config.gamma**epoch
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            chosen = order[start : start + config.batch_size]
            xs = [pool[i][0] for i in chosen]
            y = np.concatenate([pool[i][1] for i in chosen])
            if y.size == 0:
                continue
            terms, grads = Terms(y.size), None
            for lo, hi in batch_tiles(y.size, tree.n_leaves, dice):
                tile_grads = _tile_gradients(params, loss_fn, _columns(xs, lo, hi, bufs.features), y[lo:hi], terms, bufs)
                if grads is None:
                    grads = tile_grads
                else:
                    for g, t in zip(grads, tile_grads):
                        g += t
            loss = terms.loss()
            if not np.isfinite(loss):
                raise DivergenceError(epoch)
            step += 1
            for a, g, m1, m2 in zip(params.arrays, grads, slots, second):
                if config.optimizer == "adam":
                    m1 *= config.beta1
                    m1 += (1 - config.beta1) * g
                    m2 *= config.beta2
                    m2 += (1 - config.beta2) * g * g
                    mhat = m1 / (1 - config.beta1**step)
                    vhat = m2 / (1 - config.beta2**step)
                    a -= lr * mhat / (np.sqrt(vhat) + config.adam_eps)
                else:
                    m1 *= config.momentum
                    m1 += g
                    a -= lr * m1
            batch_losses.append(loss)
        trace.append(float(np.mean(batch_losses)))
    if preproc == "standardize":
        absorb_standardization(params, mu, sd)
    params.preproc = "l1" if preproc == "l1" else "none"
    return params, trace


# --- model file format ------------------------------------------------------
#
# ASCII header line "kind d C [hidden] preproc\n" followed by the parameter
# arrays in fixed order, float64 little-endian.


def save_model(params: ModelParams, path: Path | str) -> None:
    dims = [params.in_dim, params.n_classes] + ([params.arrays[0].shape[1]] if params.kind == "mlp" else [])
    with open(path, "wb") as f:
        f.write(" ".join(map(str, [params.kind, *dims, params.preproc])).encode("ascii") + b"\n")
        for a in params.arrays:
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_model(path: Path | str) -> ModelParams:
    """Read a model file; a missing file, a bad header or payload, or a weight that
    is NaN or infinite is a validation error naming the file."""
    if not Path(path).is_file():
        raise ConfigError(f"missing model file {path}")
    with open(path, "rb") as f:
        try:
            kind, *dims, preproc = f.readline().decode("ascii").split()
            dims = [int(x) for x in dims]
        except ValueError:
            raise ParseError(f"{path}: malformed model header") from None
        payload = f.read()
    if kind not in MODEL_KINDS:
        raise ShapeError(f"{path}: unknown model kind {kind!r}")
    if len(dims) != (2 if kind == "linear" else 3) or min(dims) < 1 or preproc not in MODEL_PREPROC:
        raise ParseError(f"{path}: model header must read 'kind d C [hidden] preproc', preproc one of {MODEL_PREPROC}")
    d, c, *h = dims
    shapes = [(d, c), (c,)] if kind == "linear" else [(d, *h), (*h,), (*h, c), (c,)]
    sizes = [math.prod(shape) for shape in shapes]  # exact: an int64 product of huge dims can wrap
    if len(payload) != 8 * sum(sizes):
        raise ShapeError(f"{path}: payload of {len(payload)} bytes != expected {8 * sum(sizes)}")
    flat = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(flat).all():
        raise ParseError(f"{path}: non-finite model weights")
    arrays = np.split(flat, np.cumsum(sizes)[:-1])
    return ModelParams(kind, [a.reshape(shape).copy() for a, shape in zip(arrays, shapes)], preproc)
