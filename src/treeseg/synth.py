"""Synthetic segmentation corpora whose features respect the label tree.

Class-conditional feature means are drawn by a root-to-leaf random walk
with geometrically shrinking steps, so leaves that are close in the tree
get close means and expected feature distance correlates with tree
distance. Images are Voronoi partitions with one leaf class per region;
sparse positive-only masks keep a fraction of each region's pixels.

Corpora are bit-reproducible: every subject draws from an RNG substream
keyed by (seed, subject index), so generation order and parallelism
cannot change the output.

A generated subject's ``features`` is an array in memory. A subject read
with ``load_corpus`` keeps its labels and mask in memory, and as its
``features`` a ``_FeatureFile``: the path of its ``features.bin`` and the
shape it had at load. Converting one to an array (``np.asarray``) opens a
new read-only ``np.memmap`` of the file, after the same header and
payload-size check ``load_corpus`` made, and the mapping is gone once the
caller drops it; that conversion is the one place a loaded subject's file
is mapped. ``train_view`` and ``val_view`` hand out each subject's
``features`` as stored, so a view maps nothing: each image is mapped while
a reader converts it, one image at a time, and no heap copy of a subject's
features exists. A live mapping holds one file descriptor. ``write_field``
replaces a file rather than rewriting it, so a loaded corpus can be saved
over itself.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ValidationError, read_block, read_json_object
from .hierarchy import LabelTree, random_tree, read_tree, serialize
from .seeding import substream
from .training import ImageFeatures


@dataclass
class SynthConfig:
    """Corpus generation parameters; tree=None samples a random hierarchy."""

    tree: LabelTree | None = None
    tree_depth: int = 3
    tree_branching: tuple[int, int] = (2, 3)
    n_subjects: int = 16
    height: int = 64
    width: int = 64
    channels: int = 16
    n_regions: int = 48
    sigma_between: float = 1.0
    sigma_within: float = 0.35
    level_decay: float = 0.5  # walk step shrink factor per level away from the root
    sparsity: float = 1.0  # fraction of each region's pixels that stays annotated
    held_out: tuple[int, ...] = ()  # class codes never annotated anywhere
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.tree_branching
        if not self.tree_depth >= 1:
            raise ConfigError(f"tree_depth must be >= 1, got {self.tree_depth}")
        if not 0 <= lo <= hi or hi < 2:
            raise ConfigError(f"tree_branching must be [lo, hi] with 0 <= lo <= hi and hi >= 2, got {list(self.tree_branching)}")
        for key in ("n_subjects", "height", "width", "channels"):
            if not getattr(self, key) >= 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("sigma_between", "sigma_within", "level_decay"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and > 0, got {getattr(self, key)}")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ConfigError(f"sparsity must be in [0, 1], got {self.sparsity}")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["tree"] = None if self.tree is None else self.tree.to_dict()
        return d


@dataclass(frozen=True)
class _FeatureFile:
    """A subject's ``features.bin`` as ``load_corpus`` checked it: its path and its (H, W, d) then.

    Array-like: each conversion maps the file anew (``_map_features``), so the mapping lives
    only as long as the array the reader holds."""

    path: Path
    shape: tuple[int, int, int]

    def __array__(self, dtype=None, copy=None):
        """numpy's array protocol: a new read-only mapping, or a copy of it where ``dtype`` or
        ``copy`` asks for one; ``copy=False`` with another dtype raises the ``ValueError`` numpy
        raises for an array. numpy 1 passes ``dtype`` alone and numpy 2 ``copy`` too, so no
        numpy call here is given ``copy``."""
        m = _map_features(self.path, self.shape)
        if copy is False and dtype is not None and np.dtype(dtype) != m.dtype:
            raise ValueError(f"Unable to avoid copy while converting {self.path} to {np.dtype(dtype)}")
        return np.array(m, dtype=dtype) if copy else np.asanyarray(m, dtype=dtype)


@dataclass
class Subject:
    """One image. A generated subject's ``features`` is an array in memory; a loaded one's is a
    ``_FeatureFile``, which each conversion maps anew as a read-only ``np.memmap`` of its
    ``features.bin``, unmapped when the reader drops it."""

    features: ImageFeatures  # (H, W, d) float
    truth: np.ndarray  # (H, W) leaf codes 1..C
    mask: np.ndarray  # (H, W) codes, 0 = unannotated


@dataclass
class Corpus:
    tree: LabelTree
    subjects: list[Subject]
    config: SynthConfig

    @property
    def n_classes(self) -> int:
        return self.tree.n_leaves


@dataclass(frozen=True)
class FoldSpec:
    index: int
    train_subjects: tuple[int, ...]
    val_subjects: tuple[int, ...]
    held_out: tuple[int, ...]  # class codes hidden from training in this fold


def class_means(tree: LabelTree, channels: int, sigma_between: float, level_decay: float, rng: np.random.Generator) -> np.ndarray:
    """Leaf feature means from a root-to-leaf Gaussian walk, (C, d)."""
    means = {tree.root: np.zeros(channels)}
    for v in tree.deepest_first()[::-1]:  # parents first
        if v == tree.root:
            continue
        parent = tree.parent[v]
        step = sigma_between * level_decay ** tree.depth[parent]
        means[v] = means[parent] + step * rng.standard_normal(channels)
    return np.stack([means[leaf] for leaf in range(tree.n_leaves)])


_VORONOI_ROWS = 8  # image rows whose (rows, W, R) distances are held at once


def _voronoi_regions(height: int, width: int, n_regions: int, rng: np.random.Generator) -> np.ndarray:
    """(H, W) index of the nearest of ``n_regions`` uniform seeds to each pixel.

    Exact: the squared distance separates into a row term and a column term,
    and each pixel's ``(y - sy)**2 + (x - sx)**2`` is the same float sum
    whichever way the two terms are tabulated, so a block of rows at a time
    gives the bits a full (H, W, R) distance array gives, and ``argmin``
    keeps the first of tied seeds either way.
    """
    sy = rng.uniform(0, height, n_regions)
    sx = rng.uniform(0, width, n_regions)
    dy = (np.arange(height)[:, None] - sy) ** 2
    dx = (np.arange(width)[:, None] - sx) ** 2
    out = np.empty((height, width), dtype=np.intp)
    for i in range(0, height, _VORONOI_ROWS):
        np.argmin(dy[i : i + _VORONOI_ROWS, None, :] + dx, axis=-1, out=out[i : i + _VORONOI_ROWS])
    return out


def generate(config: SynthConfig) -> Corpus:
    """Generate a corpus; deterministic given config.seed."""
    tree = config.tree or random_tree(substream(config.seed, "tree"), config.tree_depth, config.tree_branching)
    n_classes = tree.n_leaves
    if config.n_regions < n_classes:
        raise ConfigError(f"synth.n_regions={config.n_regions} cannot cover {n_classes} classes")
    if config.sparsity == 0.0:
        raise ConfigError("sparsity=0 would leave no annotated pixels")
    _check_codes(config.held_out, 1, n_classes, "synth.held_out", ConfigError)

    means = class_means(tree, config.channels, config.sigma_between, config.level_decay, substream(config.seed, "means"))

    subjects = []
    for s in range(config.n_subjects):
        rng = substream(config.seed, "subject", s)
        regions = _voronoi_regions(config.height, config.width, config.n_regions, rng)
        region_class = np.concatenate(
            [
                rng.permutation(n_classes) + 1,  # every class gets at least one region
                rng.integers(1, n_classes + 1, config.n_regions - n_classes),
            ]
        )
        truth = region_class[regions]
        features = rng.standard_normal((config.height, config.width, config.channels))
        features *= config.sigma_within
        features += means[truth - 1]
        features -= features.min()  # reflectance-like: nonnegative

        mask = np.zeros_like(truth)
        flat_mask = mask.reshape(-1)
        # each region's pixels in ascending order: one stable sort of the map, cut at the region sizes
        flat_regions = regions.reshape(-1)
        ends = np.cumsum(np.bincount(flat_regions, minlength=config.n_regions))
        by_region = np.split(np.argsort(flat_regions, kind="stable"), ends[:-1])
        for r, pix in enumerate(by_region):
            code = int(region_class[r])
            if code in config.held_out:
                continue
            n_keep = max(1, int(round(config.sparsity * pix.size)))
            keep = pix if n_keep >= pix.size else rng.choice(pix, size=n_keep, replace=False)
            flat_mask[keep] = code
        subjects.append(Subject(features=features, truth=truth, mask=mask))
    return Corpus(tree=tree, subjects=subjects, config=config)


def make_folds(corpus: Corpus, n_subject_folds: int, n_label_folds: int = 1) -> list[FoldSpec]:
    """Cross product of subject folds and held-out label subsets.

    With one label fold no classes are held out (plain k-fold CV). With
    more, the positive classes are round-robin partitioned and each label
    fold hides one part from training; those classes become
    pseudo-background in validation.
    """
    n = len(corpus.subjects)
    if n < 2:
        raise ConfigError("need at least 2 subjects to fold")
    if not 2 <= n_subject_folds <= n:
        raise ConfigError(f"n_subject_folds={n_subject_folds} infeasible for {n} subjects")
    available = [c for c in range(1, corpus.n_classes + 1) if c not in corpus.config.held_out]
    if n_label_folds < 1 or (n_label_folds > 1 and n_label_folds > len(available) - 1):
        raise ConfigError(f"n_label_folds={n_label_folds} infeasible for {len(available)} classes")

    label_folds: list[tuple[int, ...]]
    if n_label_folds == 1:
        label_folds = [()]
    else:
        label_folds = [tuple(available[j::n_label_folds]) for j in range(n_label_folds)]

    folds = []
    for sf in range(n_subject_folds):
        val = tuple(i for i in range(n) if i % n_subject_folds == sf)
        train = tuple(i for i in range(n) if i % n_subject_folds != sf)
        for held in label_folds:
            folds.append(FoldSpec(index=len(folds), train_subjects=train, val_subjects=val, held_out=held))
    return folds


def _labels(codes: np.ndarray, held_out: tuple[int, ...]) -> np.ndarray:
    """``codes`` with the ``held_out`` ones unannotated: a copy when any are held out, else a
    read-only view, so the corpus cannot be changed through either."""
    if held_out:
        codes = codes.copy()
        codes[np.isin(codes, held_out)] = 0
    else:
        codes = codes.view()
        codes.flags.writeable = False
    return codes


def train_view(corpus: Corpus, fold: FoldSpec) -> list[tuple[ImageFeatures, np.ndarray]]:
    """(features, mask) pairs for training; fold-held-out codes are unannotated.

    The features are each subject's ``features`` itself: a generated subject's array, or a
    loaded one's ``_FeatureFile``, mapped only while a reader converts it. So the view maps
    nothing.
    """
    out = []
    for i in fold.train_subjects:
        sub = corpus.subjects[i]
        out.append((sub.features, _labels(sub.mask, fold.held_out)))
    return out


def val_view(corpus: Corpus, fold: FoldSpec) -> list[tuple[ImageFeatures, np.ndarray, np.ndarray]]:
    """(features, eval_truth, domain) triples for validation.

    The domain is every sparsely annotated pixel; truth codes of fold-
    held-out classes are remapped to 0 so they evaluate as background.
    The features are handed out as ``train_view`` hands them out, so the
    view maps nothing.
    """
    out = []
    for i in fold.val_subjects:
        sub = corpus.subjects[i]
        out.append((sub.features, _labels(sub.mask, fold.held_out), sub.mask > 0))
    return out


# --- disk format ----------------------------------------------------------
#
# One directory per subject: features.bin (float64), labels.bin and
# mask.bin (int64). Each file starts with an ASCII header line "H W d\n"
# followed by the row-major little-endian payload; label fields use d = 1.
# The corpus root holds hierarchy.json, corpus.json and (optionally)
# folds.json.


def write_field(path: Path, arr: ImageFeatures) -> None:
    """Write an image's features or a label field to a file beside ``path`` that then replaces it,
    so a mapping of the old file (``arr`` itself, when a loaded corpus is saved over itself) keeps
    its bytes and a write cut short leaves the old file whole."""
    arr = np.asarray(arr)
    # copies only an array not already C-ordered in the file's dtype
    arr = np.ascontiguousarray(arr, dtype="<f8" if arr.dtype.kind == "f" else "<i8")
    h, w = arr.shape[0], arr.shape[1]
    d = arr.shape[2] if arr.ndim == 3 else 1
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(f"{h} {w} {d}\n".encode("ascii"))
            f.write(memoryview(arr).cast("B"))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def _open_field(path: Path, features: bool):
    """The field file, open at its payload, and the (H, W, d) of its header, once the header
    and the payload size check out; any fault is an error naming the file."""
    if not path.is_file():
        raise ConfigError(f"missing field file {path}")
    with open(path, "rb") as f:
        try:
            h, w, d = (int(x) for x in f.readline().decode("ascii").split())
        except ValueError:
            raise ParseError(f"{path}: malformed field header") from None
        if min(h, w, d) < 1 or (d != 1 and not features):
            raise ParseError(f"{path}: bad field shape {h}*{w}*{d}")
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != 8 * h * w * d:
            raise ParseError(f"{path}: payload of {size} bytes != 8*{h}*{w}*{d}")
        yield f, (h, w, d)


def read_field(path: Path) -> np.ndarray:
    """Read a field file: features come back as (H, W, d), label fields as (H, W); non-finite features are a ParseError."""
    features = path.name.startswith("features")
    with _open_field(path, features) as (f, (h, w, d)):
        # the payload is read once, straight into the array that is returned
        arr = np.empty((h, w, d) if features else (h, w), dtype="<f8" if features else "<i8")
        got = f.readinto(memoryview(arr).cast("B"))
    if got != arr.nbytes:
        raise ParseError(f"{path}: payload of {got} bytes != 8*{h}*{w}*{d}")
    if features:
        _check_finite(path, arr)
    return arr


def _map_features(path: Path, shape: tuple[int, int, int] | None = None) -> np.memmap:
    """A read-only mapping of a features file, (H, W, d), after ``read_field``'s header and size
    check; given the ``shape`` it had at load, a header giving any other is an error naming it."""
    with _open_field(path, True) as (f, got):
        if shape is not None and got != shape:
            raise ParseError(f"{path}: field is {'x'.join(map(str, got))}, it was {'x'.join(map(str, shape))} when the corpus was loaded")
        return np.memmap(f, dtype="<f8", mode="r", offset=f.tell(), shape=got)


def _check_finite(path: Path, features: np.ndarray) -> None:
    if not np.isfinite(features).all():
        raise ParseError(f"{path}: non-finite feature values")


def save_corpus(corpus: Corpus, root: Path | str) -> Path:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "hierarchy.json").write_text(serialize(corpus.tree))
    meta = corpus.config.to_dict()
    meta.pop("tree")
    (root / "corpus.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    for i, sub in enumerate(corpus.subjects):
        d = root / f"s{i:03d}"
        d.mkdir(exist_ok=True)
        write_field(d / "features.bin", sub.features)
        write_field(d / "labels.bin", sub.truth)
        write_field(d / "mask.bin", sub.mask)
    return root


def _check_codes(codes, low: int, n_classes: int, where: str, error: type[ValidationError] = ParseError) -> None:
    """Raise ``error`` naming ``where`` unless every class code is in ``low..n_classes``."""
    codes = np.asarray(codes)
    bad = codes[(codes < low) | (codes > n_classes)]
    if bad.size:
        raise error(f"{where}: class code {bad.flat[0]} outside {low}..{n_classes}")


def load_corpus(root: Path | str) -> Corpus:
    """Read a corpus directory, checking each field against the tree and the subject's features.

    The subjects are the directories ``s000`` to ``s{n-1:03d}`` for the
    ``n_subjects`` that ``corpus.json`` declares, named as ``save_corpus``
    writes them; a missing one, or any other ``s<digits>`` directory, is an
    error naming it. Every subject's labels and mask have its features'
    H x W, all subjects share one channel count, features are finite,
    labels hold codes 1..C, masks 0..C and ``held_out`` 1..C; anything else
    is an error naming the file. Labels and masks are read into memory;
    features are checked through a mapping that is dropped at once, and
    each later conversion of a subject's ``features`` maps the file anew.
    """
    root = Path(root)
    if not root.is_dir():
        raise ConfigError(f"corpus directory {root} does not exist")
    tree = read_tree(root / "hierarchy.json")
    path = root / "corpus.json"
    config = read_block(read_json_object(path), SynthConfig, str(path), prefix=f"{path}: ", tree=tree)
    _check_codes(config.held_out, 1, tree.n_leaves, f"{path}: held_out", ConfigError)
    declared = f"{path} declares {config.n_subjects} subjects, s000 to s{config.n_subjects - 1:03d}"
    names = [f"s{i:03d}" for i in range(config.n_subjects)]  # as save_corpus writes them
    extra = sorted(d.name for d in root.iterdir() if d.is_dir() and re.fullmatch(r"s[0-9]+", d.name) and d.name not in names)
    if extra:
        raise ConfigError(f"unexpected subject directory {root / extra[0]}: {declared}")
    subjects = []
    for d in (root / name for name in names):
        if not d.is_dir():
            raise ConfigError(f"missing subject directory {d}: {declared}")
        path = d / "features.bin"
        features = _map_features(path)
        _check_finite(path, features)
        features = _FeatureFile(path, features.shape)  # drops the mapping
        h, w, channels = features.shape
        if not subjects:
            first_channels = channels
        elif channels != first_channels:
            raise ParseError(f"{path}: {channels} channels, the first subject has {first_channels}")
        fields = []
        for name, low in (("labels", 1), ("mask", 0)):
            path = d / f"{name}.bin"
            field = read_field(path)
            if field.shape != (h, w):
                raise ParseError(f"{path}: {field.shape[0]}x{field.shape[1]} field beside {h}x{w} features")
            _check_codes(field, low, tree.n_leaves, str(path))
            fields.append(field)
        subjects.append(Subject(features, *fields))
    return Corpus(tree=tree, subjects=subjects, config=config)


def save_folds(folds: list[FoldSpec], path: Path | str) -> None:
    data = [
        {"index": f.index, "train_subjects": list(f.train_subjects), "val_subjects": list(f.val_subjects), "held_out": list(f.held_out)}
        for f in folds
    ]
    Path(path).write_text(json.dumps({"folds": data}, indent=2, sort_keys=True))
