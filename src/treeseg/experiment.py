"""End-to-end experiment runner: corpus -> folds -> train -> gate -> eval.

One config drives the whole pipeline. Per fold: train with the configured
loss, sweep (or fix) the background threshold on validation, gate, write
the gated predictions, then evaluate at the requested tree levels and
count the top-level confusion; finally fold-average metrics and the
per-fold confusion counts. A fold hands back counts and scores, never
pixels. Every emitted file lands in the output directory and is listed
with a content hash in manifest.json, so reruns with the same seed are
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .distances import distance_matrix
from .errors import ConfigError, RangeError, TreesegError, check_keys, key_prefix, number, read_block, read_json_object
from .evaluation import LEVEL_MEANS, ConfusionTensor, EvalReport, evaluate_level, level_classes, level_counts, pool_nsd
from .gating import LevelScorer, ThresholdPolicy, check_grid_step, default_grid
from .hierarchy import EdgeWeightScheme, LabelTree, assign_weights, parse_level, read_tree, resolve_level
from .losses import LossSpec
from .seeding import substream
from .synth import (
    Corpus,
    FoldSpec,
    SynthConfig,
    generate,
    load_corpus,
    make_folds,
    save_folds,
    train_view,
    val_view,
    write_field,
)
from .training import ModelParams, TrainConfig, check_preproc, class_probs, train

# fixed yardstick for the tree distance of misclassified pixels, independent
# of the loss used for training
ERROR_METRIC_SCHEME = EdgeWeightScheme("hier", kappa=10.0)

CONFIG_KEYS = ("hierarchy", "corpus", "loss", "train", "synth", "gate", "eval", "preproc", "n_subject_folds", "n_label_folds", "fold_subset", "seed")


@dataclass
class ExperimentConfig:
    loss: LossSpec
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig | None = None
    corpus_path: str | None = None
    gate_level: int | str = "topmost"
    tau: float | None = None  # fixed threshold; None = sweep on validation
    grid_step: float = 0.01
    eval_levels: tuple = ("leaf", "topmost")
    nsd_tolerance: float | None = None
    preproc: str = "standardize"  # or "l1" (per-pixel norm) or "none"
    n_subject_folds: int = 2
    n_label_folds: int = 1
    fold_subset: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.synth is None and self.corpus_path is None:
            raise ConfigError("config needs either a synth block or a corpus path")
        if self.synth is not None and self.corpus_path is not None:
            raise ConfigError("config names both 'corpus' and a 'synth' block; give one of them")
        if self.loss.alpha == 0 and (self.loss.seg == "none" or self.loss.beta == 0):
            other = "loss.seg is 'none'" if self.loss.seg == "none" else "loss.beta is 0"
            raise ConfigError(f"the loss has no term: loss.alpha is 0 and {other}")
        check_preproc(self.preproc)
        if not self.seed >= 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.gate_level = parse_level(self.gate_level)
        with key_prefix("gate."):
            if self.tau is not None:
                ThresholdPolicy(self.tau)
            check_grid_step(self.grid_step)
        if not isinstance(self.eval_levels, (list, tuple)):
            raise ConfigError(f"eval.levels must be a list of levels, got {self.eval_levels!r}")
        self.eval_levels = tuple(parse_level(level) for level in self.eval_levels)
        if self.nsd_tolerance is not None and not self.nsd_tolerance >= 0:
            raise ConfigError(f"eval.tolerance must be >= 0, got {self.nsd_tolerance!r}")
        if self.fold_subset is not None:
            n_folds = self.n_subject_folds * self.n_label_folds
            if not isinstance(self.fold_subset, (list, tuple)) or not self.fold_subset:
                raise ConfigError("fold_subset must be a non-empty list of fold indices")
            for i in self.fold_subset:
                if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < n_folds:
                    raise ConfigError(f"fold_subset index {i!r} is outside 0..{n_folds - 1}")
            if len(set(self.fold_subset)) < len(self.fold_subset):
                raise ConfigError(f"fold_subset names a fold twice: {list(self.fold_subset)}")
            self.fold_subset = tuple(self.fold_subset)


def loss_spec_from_dict(d: dict) -> LossSpec:
    check_keys(d, ("semantic", "scheme", "kappa", "seg", "alpha", "beta"), "loss")
    scheme = EdgeWeightScheme(d.get("scheme", "equal"), kappa=float(number(d, "kappa", 10.0, "loss.")))
    return LossSpec(
        semantic=d.get("semantic", "wass"),
        scheme=scheme,
        seg=d.get("seg", "ce"),
        alpha=float(number(d, "alpha", 0.5, "loss.")),
        beta=float(number(d, "beta", 0.5, "loss.")),
    )


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from the JSON config file layout; unknown keys, at the top level
    or in a block, are rejected."""
    check_keys(d, CONFIG_KEYS, "top-level")
    for key in ("hierarchy", "corpus"):
        if d.get(key) is not None and not isinstance(d[key], str):
            raise ConfigError(f"{key} must be a path string, got {d[key]!r}")
    loss = loss_spec_from_dict(d.get("loss", {}))
    tree = None
    if d.get("hierarchy") is not None:
        if "synth" not in d:
            raise ConfigError("a hierarchy file requires a synth block to generate data for it")
        tree = read_tree(d["hierarchy"])
    corpus_path = d.get("corpus")
    if corpus_path is not None and not Path(corpus_path).exists():
        raise ConfigError(f"corpus path {corpus_path} does not exist")
    gate_block = d.get("gate", {})
    check_keys(gate_block, ("level", "tau", "grid_step"), "gate")
    eval_block = d.get("eval", {})
    check_keys(eval_block, ("levels", "tolerance"), "eval")
    return ExperimentConfig(
        loss=loss,
        # the seeds are not settable: fit and build_corpus seed from the experiment seed
        train=read_block(d.get("train", {}), TrainConfig, "train", seed=0),
        synth=read_block(d["synth"], SynthConfig, "synth", tree=tree, seed=0) if "synth" in d else None,
        corpus_path=corpus_path,
        gate_level=gate_block.get("level", "topmost"),
        tau=number(gate_block, "tau", None, "gate."),
        grid_step=float(number(gate_block, "grid_step", 0.01, "gate.")),
        eval_levels=eval_block.get("levels", ("leaf", "topmost")),
        nsd_tolerance=number(eval_block, "tolerance", None, "eval."),
        preproc=d.get("preproc", "standardize"),
        n_subject_folds=number(d, "n_subject_folds", 2, "", integer=True),
        n_label_folds=number(d, "n_label_folds", 1, "", integer=True),
        fold_subset=d.get("fold_subset"),
        seed=number(d, "seed", 0, "", integer=True),
    )


def load_config(path: Path | str) -> ExperimentConfig:
    """Load a config file; relative file references resolve against it."""
    path = Path(path)
    data = read_json_object(path)
    for key in ("hierarchy", "corpus"):
        if isinstance(data.get(key), str) and not Path(data[key]).is_absolute():
            data[key] = str(path.parent / data[key])
    return config_from_dict(data)


def build_corpus(config: ExperimentConfig) -> Corpus:
    """The configured corpus: loaded from disk, or generated with the experiment seed."""
    if config.corpus_path is not None:
        return load_corpus(config.corpus_path)
    return generate(replace(config.synth, seed=config.seed))


def config_folds(corpus: Corpus, config: ExperimentConfig) -> list[FoldSpec]:
    """The folds the config runs: all of them, or those named by fold_subset."""
    folds = make_folds(corpus, config.n_subject_folds, config.n_label_folds)
    return folds if config.fold_subset is None else [folds[i] for i in config.fold_subset]


def config_levels(tree: LabelTree, config: ExperimentConfig) -> tuple[int, list[int]]:
    """The gate level and the evaluation levels on ``tree``; a level the tree lacks names its key."""
    levels = []
    for key, level in [("gate.level", config.gate_level), *(("eval.levels", level) for level in config.eval_levels)]:
        try:
            levels.append(resolve_level(tree, level))
        except RangeError as e:
            raise ConfigError(f"{key}: {e}") from None
    return levels[0], levels[1:]


def fit(corpus: Corpus, fold: FoldSpec, config: ExperimentConfig) -> tuple[ModelParams, list[float]]:
    """Train the fold's model, seeded per fold from the experiment seed; it predicts on raw features."""
    seed = int(substream(config.seed, "train", fold.index).integers(2**31))
    return train(train_view(corpus, fold), corpus.tree, config.loss, replace(config.train, seed=seed), config.preproc)


def loss_label(spec: LossSpec) -> str:
    scheme = spec.scheme.kind + (f"{spec.scheme.kappa:g}" if spec.scheme.kind == "hier" else "")
    return f"{spec.semantic}[{scheme}]+{spec.seg}(a={spec.alpha:g};b={spec.beta:g})"


def corpus_fingerprint(corpus: Corpus) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(corpus.tree.to_dict(), sort_keys=True).encode())
    for sub in corpus.subjects:
        # the buffers themselves, not copies: an array already C-ordered in its dtype is not copied
        for arr, dtype in ((sub.features, "<f8"), (sub.truth, "<i8"), (sub.mask, "<i8")):
            h.update(memoryview(np.ascontiguousarray(arr, dtype=dtype)).cast("B"))
    return h.hexdigest()


def semantic_error_distance(m: np.ndarray, pred_codes: np.ndarray, truth_codes: np.ndarray) -> float | None:
    """Mean tree distance between predicted and true leaves over errors."""
    pred = np.asarray(pred_codes).reshape(-1)
    truth = np.asarray(truth_codes).reshape(-1)
    wrong = (truth > 0) & (pred > 0) & (pred != truth)
    if not wrong.any():
        return None
    return float(m[pred[wrong] - 1, truth[wrong] - 1].mean())


def _csv(rows: list[list], header: list[str]) -> str:
    def fmt(x):
        if isinstance(x, float):
            return f"{x:.10g}"
        return str(x)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def pool_pixels(fields: list[np.ndarray]) -> np.ndarray:
    """Per-subject fields flattened and concatenated into one pixel vector."""
    return np.concatenate([f.reshape(-1) for f in fields])


def write_tau_curve(curve: np.ndarray, path: Path) -> None:
    path.write_text(_csv([list(row) for row in curve], ["tau", "tpr", "bacc", "f1"]))


def fold_dir(out: Path | str, index: int) -> Path:
    """The directory of fold ``index``'s predictions and tau curve in a run's output."""
    return Path(out) / f"fold_{index:03d}"


def write_confusion_csv(tree: LabelTree, level: int, fold_counts: list[np.ndarray], path: Path) -> None:
    """Write the fold-averaged level confusion, background last, as CSV.

    Each fold entry is that fold's ``level_counts`` table at ``level``.
    """
    conf = ConfusionTensor(classes=level_classes(tree, level) + [0], per_fold=np.stack(fold_counts))
    names = [tree.name_of(c - 1) if c else "background" for c in conf.classes]
    rows = [[names[i]] + [x if not np.isnan(x) else "" for x in row] for i, row in enumerate(conf.averaged)]
    path.write_text(_csv(rows, ["true\\pred"] + names))


@dataclass
class FoldResult:
    fold: FoldSpec
    tau: float
    curve: np.ndarray | None  # None when tau is fixed, not swept
    trace: list[float]
    leaf_accuracy: float | None  # None when the fold's domain holds no foreground truth
    error_distance: float | None
    reports: dict[int, EvalReport]
    confusion: np.ndarray  # topmost-level level_counts on the fold's domain


def run_fold(corpus: Corpus, fold: FoldSpec, config: ExperimentConfig, out: Path | str) -> FoldResult:
    """Train, gate and evaluate one fold; its gated predictions are written to its
    ``fold_dir`` under ``out``, and the result holds counts and scores, no pixels."""
    tree = corpus.tree
    k, eval_levels = config_levels(tree, config)
    params, trace = fit(corpus, fold, config)

    # each validation image is scored once, class-major, in the forward's own buffer,
    # down to four per-pixel vectors: no image's probabilities outlive its scoring
    scorer = LevelScorer(tree, k)
    val = val_view(corpus, fold)
    images = [scorer.score(class_probs(params, f)) for f, _, _ in val]
    truths = [t for _, t, _ in val]
    domains = [d for _, _, d in val]

    if config.tau is None:
        tau, curve = scorer.sweep(images, truths, default_grid(config.grid_step))
    else:
        tau, curve = float(config.tau), None
    preds = [scorer.gate(image, tau).reshape(t.shape) for image, t in zip(images, truths)]
    pred_dir = fold_dir(out, fold.index)
    pred_dir.mkdir(parents=True, exist_ok=True)
    for subject, pred in zip(fold.val_subjects, preds):
        write_field(pred_dir / f"pred_s{subject:03d}.bin", pred)

    pooled_pred, pooled_truth, pooled_domain = pool_pixels(preds), pool_pixels(truths), pool_pixels(domains)
    # counted before the level reports: after them, its temporaries raised a fold worker's peak RSS
    counts = level_counts(tree, pooled_pred, pooled_truth, tree.levels - 1, domain=pooled_domain)
    reports = {}
    for level in eval_levels:
        rep = evaluate_level(tree, pooled_pred, pooled_truth, level, domain=pooled_domain)
        if config.nsd_tolerance is not None:
            pool_nsd(rep, tree, preds, truths, config.nsd_tolerance)
        reports[level] = rep

    # ungated leaf argmax, for accuracy and the semantic distance of errors
    pooled_raw = pool_pixels([image.leaf + 1 for image in images])
    fg = pooled_domain & (pooled_truth > 0)
    raw, truth = pooled_raw[fg], pooled_truth[fg]
    leaf_acc = float(np.mean(raw == truth)) if truth.size else None
    err_dist = semantic_error_distance(distance_matrix(assign_weights(tree, ERROR_METRIC_SCHEME)), raw, truth)

    return FoldResult(
        fold=fold,
        tau=tau,
        curve=curve,
        trace=trace,
        leaf_accuracy=leaf_acc,
        error_distance=err_dist,
        reports=reports,
        confusion=counts,
    )


def _fork_context(jobs: int):
    """The ``fork`` start method that fold workers start from; a platform without it is a ConfigError."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        raise ConfigError(f"jobs = {jobs} runs folds in forked processes, and this platform has no 'fork' start method; use 1 job") from None


def _sendable(e: BaseException) -> BaseException:
    """``e`` if it comes back whole through pickle, else a TreesegError with its text."""
    try:
        pickle.loads(pickle.dumps(e))
    except Exception:
        return TreesegError(str(e))
    return e


def _serve_folds(conn, corpus: Corpus, folds: list[FoldSpec], config: ExperimentConfig, out: Path) -> None:
    """A fold worker: ``run_fold`` of each of its folds in turn, each FoldResult sent on ``conn``.
    The first exception ends it and is sent in place of its fold's result, for the caller to
    raise."""
    try:
        for fold in folds:
            conn.send(run_fold(corpus, fold, config, out))
    except BaseException as e:
        conn.send(_sendable(e))
    finally:
        conn.close()


def _died(worker) -> TreesegError:
    worker.join()
    return TreesegError(f"a fold worker process died before it returned its fold (exit code {worker.exitcode})")


def _receive(conn, worker, running: dict) -> FoldResult:
    """The next fold ``worker`` sends on ``conn``; the exception it sends instead is raised.
    ``running`` maps the sentinel of each worker not yet seen to end to that worker: one that
    ends with a nonzero exit code, this one or another, is a TreesegError as soon as it ends."""
    from multiprocessing.connection import wait

    while conn not in (ready := wait([conn, *running])):
        for sentinel in ready:
            ended = running.pop(sentinel)
            ended.join()
            if ended.exitcode:
                raise _died(ended)
    try:
        res = conn.recv()
    except (EOFError, OSError):
        raise _died(worker) from None
    if isinstance(res, BaseException):
        raise res
    return res


def _run_folds_in_workers(corpus: Corpus, folds: list[FoldSpec], config: ExperimentConfig, out: Path, jobs: int, context) -> list[FoldResult]:
    """``run_fold`` of every fold in ``min(jobs, len(folds))`` forked worker processes, in fold order.

    Worker w runs folds w, w + workers, and so on, and sends each FoldResult, counts and
    scores, back on a one-way pipe of its own; a forked worker starts as a copy of the
    caller, so the corpus, folds, config and output directory reach it unpickled. The
    caller reads the pipes in fold order in its own thread and starts no other. An
    exception a fold raises is raised here and the other workers are stopped; a worker
    that dies is a TreesegError as soon as it dies. Every worker is joined before this
    returns or raises.
    """
    n = min(jobs, len(folds))
    workers, conns = [], []
    try:
        for share in range(n):
            recv, send = context.Pipe(duplex=False)
            conns.append(recv)
            worker = context.Process(target=_serve_folds, args=(send, corpus, folds[share::n], config, out))
            try:
                worker.start()
            finally:
                send.close()  # the worker holds the only write end, so its exit is the reader's EOF
            workers.append(worker)
        running = {worker.sentinel: worker for worker in workers}
        return [_receive(conns[i % n], workers[i % n], running) for i in range(len(folds))]
    except BaseException:
        for worker in workers:
            worker.terminate()
        raise
    finally:
        for worker in workers:
            worker.join()
        for conn in conns:
            conn.close()


def _fold_dict(res: FoldResult) -> dict:
    return {
        "index": res.fold.index,
        "train_subjects": list(res.fold.train_subjects),
        "val_subjects": list(res.fold.val_subjects),
        "held_out": list(res.fold.held_out),
        "tau": res.tau,
        "swept": res.curve is not None,
        "train_trace": [float(x) for x in res.trace],
        "leaf_accuracy": res.leaf_accuracy,
        "semantic_error_distance": res.error_distance,
        "levels": {str(level): rep.to_dict() for level, rep in res.reports.items()},
    }


def _mean_or_none(values) -> float | None:
    vals = [v for v in values if v is not None and not (isinstance(v, float) and np.isnan(v))]
    return float(np.mean(vals)) if vals else None


def write_manifest(out: Path) -> None:
    entries = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            entries[str(p.relative_to(out))] = hashlib.sha256(p.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps({"files": entries}, indent=2, sort_keys=True))


def run_experiment(config: ExperimentConfig, out: Path | str, jobs: int = 1) -> Path:
    """Run the full pipeline and write reports; returns the output directory."""
    corpus = build_corpus(config)
    folds = config_folds(corpus, config)
    _, eval_levels = config_levels(corpus.tree, config)  # the last config errors, raised before anything is written
    context = _fork_context(jobs) if jobs > 1 else None
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    save_folds(folds, out / "folds.json")

    if jobs > 1:
        results = _run_folds_in_workers(corpus, folds, config, out, jobs, context)
    else:
        results = [run_fold(corpus, f, config, out) for f in folds]

    tree = corpus.tree
    for res in results:
        if res.curve is not None:
            write_tau_curve(res.curve, fold_dir(out, res.fold.index) / "tau_curve.csv")
    write_confusion_csv(tree, tree.levels - 1, [r.confusion for r in results], out / "confusion.csv")

    means: dict = {"levels": {}}
    for level in eval_levels:
        fold_means = [r.reports[level].means for r in results]
        means["levels"][str(level)] = {key: _mean_or_none([m[key] for m in fold_means]) for key in LEVEL_MEANS}
    means["tau"] = _mean_or_none([r.tau for r in results])
    means["leaf_accuracy"] = _mean_or_none([r.leaf_accuracy for r in results])
    means["semantic_error_distance"] = _mean_or_none([r.error_distance for r in results])

    report = {
        "loss_label": loss_label(config.loss),
        "corpus": {
            "fingerprint": corpus_fingerprint(corpus),
            "n_subjects": len(corpus.subjects),
            "n_classes": corpus.n_classes,
            "levels": tree.levels,
        },
        "fold_structure": [[list(f.train_subjects), list(f.val_subjects), list(f.held_out)] for f in folds],
        "folds": [_fold_dict(r) for r in results],
        "means": means,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    (out / "report.txt").write_text(render_report(report))
    write_manifest(out)
    return out


def render_report(report: dict) -> str:
    lines = [f"loss: {report['loss_label']}", f"corpus: {report['corpus']['n_subjects']} subjects, {report['corpus']['n_classes']} classes"]
    lines.append(" ".join(f"{name:>8}" for name in ("level", *LEVEL_MEANS)))

    def cell(v):
        return f"{v:8.4f}" if v is not None else f"{'-':>8}"

    for level, m in sorted(report["means"]["levels"].items(), key=lambda kv: int(kv[0])):
        lines.append(f"{level:>8} " + " ".join(cell(m[k]) for k in LEVEL_MEANS))
    lines.append(f"mean tau: {report['means']['tau']}")
    lines.append(f"leaf accuracy (ungated): {report['means']['leaf_accuracy']}")
    lines.append(f"tree distance of errors: {report['means']['semantic_error_distance']}")
    return "\n".join(lines) + "\n"


def _is_number(value) -> bool:
    """A finite JSON number or null: what compare can print and subtract."""
    return value is None or (isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


# what compare reads of every report, and the kind of each value it prints, checked before any is read
_COMPARED_KEYS = (
    (("corpus", "fingerprint"), None),
    (("fold_structure",), None),
    (("loss_label",), ("a string", lambda v: isinstance(v, str))),
    (("means", "levels"), ("an object", lambda v: isinstance(v, dict))),
    (("means", "leaf_accuracy"), ("a finite number or null", _is_number)),
    (("means", "semantic_error_distance"), ("a finite number or null", _is_number)),
)


def _read_report(path: Path) -> dict:
    """The run report at ``path`` with every key compare reads, each of its kind: every level
    entry an object under an integer key, whose means present are finite numbers or null.
    Anything else is a ConfigError naming the file and the key."""
    rep = read_json_object(path)
    for keys, kind in _COMPARED_KEYS:
        node = rep
        for key in keys:
            if not isinstance(node, dict) or key not in node:
                raise ConfigError(f"{path}: report has no {'.'.join(keys)!r}")
            node = node[key]
        if kind is not None and not kind[1](node):
            raise ConfigError(f"{path}: report's {'.'.join(keys)!r} must be {kind[0]}")
    for level, entry in rep["means"]["levels"].items():
        name = f"means.levels.{level}"
        if not (level.isascii() and level.isdigit() and isinstance(entry, dict)):
            raise ConfigError(f"{path}: report's {name!r} must be an object under a level index")
        for key in LEVEL_MEANS:
            if not _is_number(entry.get(key)):
                raise ConfigError(f"{path}: report's '{name}.{key}' must be a finite number or null")
    return rep


def compare(report_paths: list[Path | str], out: Path | str | None = None) -> str:
    """Side-by-side comparison of runs over the same corpus and folds.

    Emits a CSV and an aligned text table (per-metric columns, deltas vs
    the first report, tree distance of errors per method). The columns are
    the means of every level any report holds; a value a report lacks is
    an empty cell and an empty delta.
    """
    if len(report_paths) < 2:
        raise ConfigError("compare needs at least 2 reports")
    paths = [Path(p) / "report.json" if Path(p).is_dir() else Path(p) for p in report_paths]
    reports = [_read_report(path) for path in paths]
    base = reports[0]
    for path, rep in zip(paths[1:], reports[1:]):
        if rep["corpus"]["fingerprint"] != base["corpus"]["fingerprint"]:
            raise ConfigError(f"{path}: report was produced on another corpus than {paths[0]}")
        if rep["fold_structure"] != base["fold_structure"]:
            raise ConfigError(f"{path}: report was produced with other folds than {paths[0]}")

    metrics = []
    for level in sorted({level for rep in reports for level in rep["means"]["levels"]}, key=int):
        for key in LEVEL_MEANS:
            get = lambda r, lv=level, k=key: r["means"]["levels"].get(lv, {}).get(k)
            if any(get(r) is not None for r in reports):
                metrics.append((f"L{level}_{key}", get))
    metrics.append(("leaf_accuracy", lambda r: r["means"]["leaf_accuracy"]))
    metrics.append(("error_tree_distance", lambda r: r["means"]["semantic_error_distance"]))

    header = ["method"] + [name for name, _ in metrics]
    rows = [[rep["loss_label"]] + ["" if get(rep) is None else get(rep) for _, get in metrics] for rep in reports]
    delta_rows = [
        [rep["loss_label"] + " - " + base["loss_label"]] + ["" if get(rep) is None or get(base) is None else get(rep) - get(base) for _, get in metrics]
        for rep in reports[1:]
    ]
    csv_text = _csv(rows + delta_rows, header)

    widths = [max(len(str(header[i])), *(len(_fmt_cell(r[i])) for r in rows + delta_rows)) for i in range(len(header))]
    text_lines = [" ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for r in rows + delta_rows:
        text_lines.append(" ".join(_fmt_cell(x).ljust(widths[i]) for i, x in enumerate(r)))
    table = "\n".join(text_lines) + "\n"
    if out is not None:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.csv").write_text(csv_text)
        (out / "comparison.txt").write_text(table)
    return table


def _fmt_cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.4f}"
    return str(x)
