"""Thread-aware span tracing of treeseg's public functions, from outside.

``Tracer.install()`` replaces selected functions with timing wrappers by
rebinding module attributes (every ``treeseg`` module that imported the
function by name gets the wrapper too) and class attributes of
``LabelTree``; ``uninstall()`` puts the originals back. No file of the
package changes.

Each thread keeps its own stack of open spans. A span's self time is its
duration minus the union of the intervals its child spans cover. A span
opened on a thread with an empty stack (a fold worker of a thread pool)
takes the innermost open span of the thread that installed the tracer as
its parent, so ``run_experiment`` is credited with the fold work it waits
for. Spans are aggregated as they close: per name a call count, total and
self seconds and optional counters; per thread the sum of self seconds.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field

# (layer, module, function) — the function's own module is where it is
# defined; every treeseg module that holds the same object is rebound.
FUNCTIONS = (
    ("losses", "treeseg.losses", "make_loss"),
    ("losses", "treeseg.losses", "softmax"),
    ("losses", "treeseg.losses", "log_softmax"),
    ("losses", "treeseg.losses", "aggregate"),
    ("losses", "treeseg.losses", "wasserstein_crisp"),
    ("losses", "treeseg.losses", "tree_weighted_ce"),
    ("losses", "treeseg.losses", "seg_loss_ce"),
    ("hierarchy", "treeseg.hierarchy", "level_nodes"),
    ("hierarchy", "treeseg.hierarchy", "leaf_level_map"),
    ("hierarchy", "treeseg.hierarchy", "assign_weights"),
    ("distances", "treeseg.distances", "distance_matrix"),
    ("training", "treeseg.training", "train"),
    ("training", "treeseg.training", "predict"),
    ("gating", "treeseg.gating", "sweep_tau"),
    ("gating", "treeseg.gating", "gate"),
    ("gating", "treeseg.gating", "score_at_level"),
    ("evaluation", "treeseg.evaluation", "ovr_scores"),
    ("evaluation", "treeseg.evaluation", "nsd_scores"),
    ("evaluation", "treeseg.evaluation", "evaluate_level"),
    ("evaluation", "treeseg.evaluation", "confusion"),
    ("synth", "treeseg.synth", "generate"),
    ("synth", "treeseg.synth", "load_corpus"),
    ("synth", "treeseg.synth", "save_corpus"),
    ("synth", "treeseg.synth", "write_field"),
    ("experiment", "treeseg.experiment", "run_experiment"),
    ("experiment", "treeseg.experiment", "run_fold"),
    ("experiment", "treeseg.experiment", "write_manifest"),
    ("cli", "treeseg.cli", "main"),
)
METHODS = (
    ("hierarchy", "leaves_under"),
    ("hierarchy", "deepest_first"),
)

def _calls(span: str):
    return lambda t: t.stat(span).calls


def _s(*spans: str):
    return lambda t: sum(t.stat(span).total_s for span in spans)


def _self_s(span: str):
    return lambda t: t.stat(span).self_s


def _counter(span: str, key: str):
    return lambda t: t.stat(span).counters.get(key, 0)


def _ns_per_px_class(t) -> float:
    loss_fn = t.stat("losses.loss_fn")
    px_class = loss_fn.counters.get("px_class", 0)
    return 1e9 * loss_fn.total_s / px_class if px_class else 0.0


# The per-layer metrics of one traced op: name -> (unit, how to read it).
PER_LAYER = {
    "losses.loss_fn.s": ("s", _s("losses.loss_fn")),
    "losses.loss_fn.calls": ("count", _calls("losses.loss_fn")),
    "losses.px": ("count", _counter("losses.loss_fn", "px")),
    "losses.ns_per_px_class": ("ns", _ns_per_px_class),
    "losses.semantic.s": ("s", _s("losses.wasserstein_crisp", "losses.tree_weighted_ce")),
    "losses.wasserstein_crisp.calls": ("count", _calls("losses.wasserstein_crisp")),
    "losses.tree_weighted_ce.calls": ("count", _calls("losses.tree_weighted_ce")),
    "losses.seg_loss_ce.s": ("s", _s("losses.seg_loss_ce")),
    "losses.aggregate.calls": ("count", _calls("losses.aggregate")),
    "losses.softmax.calls": ("count", _calls("losses.softmax")),
    "losses.log_softmax.calls": ("count", _calls("losses.log_softmax")),
    "hierarchy.leaves_under.calls": ("count", _calls("hierarchy.leaves_under")),
    "hierarchy.level_nodes.calls": ("count", _calls("hierarchy.level_nodes")),
    "hierarchy.leaf_level_map.calls": ("count", _calls("hierarchy.leaf_level_map")),
    "hierarchy.deepest_first.calls": ("count", _calls("hierarchy.deepest_first")),
    "hierarchy.assign_weights.calls": ("count", _calls("hierarchy.assign_weights")),
    "distances.distance_matrix.calls": ("count", _calls("distances.distance_matrix")),
    "distances.distance_matrix.s": ("s", _s("distances.distance_matrix")),
    "training.train.self_s": ("s", _self_s("training.train")),
    "training.predict.s": ("s", _s("training.predict")),
    "training.predict.px": ("count", _counter("training.predict", "px")),
    "gating.sweep_tau.s": ("s", _s("gating.sweep_tau")),
    "gating.gate.s": ("s", _s("gating.gate")),
    "gating.score_at_level.calls": ("count", _calls("gating.score_at_level")),
    "evaluation.ovr_scores.calls": ("count", _calls("evaluation.ovr_scores")),
    "evaluation.nsd_scores.calls": ("count", _calls("evaluation.nsd_scores")),
    "evaluation.evaluate_level.s": ("s", _s("evaluation.evaluate_level")),
    "evaluation.confusion.s": ("s", _s("evaluation.confusion")),
    "synth.corpus.s": ("s", _s("synth.generate", "synth.load_corpus")),
    "synth.generate.calls": ("count", _calls("synth.generate")),
    "synth.load_corpus.calls": ("count", _calls("synth.load_corpus")),
    "synth.write_field.calls": ("count", _calls("synth.write_field")),
    "experiment.run_fold.s": ("s", _s("experiment.run_fold")),
    "experiment.self_s": ("s", _self_s("experiment.run_experiment")),
    "experiment.write_manifest.s": ("s", _s("experiment.write_manifest")),
    "experiment.fold_overlap": ("ratio", lambda t: t.fold_overlap()),
    "cli.main.calls": ("count", _calls("cli.main")),
}


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)


@dataclass
class _Frame:
    name: str
    start: float
    parent: "_Frame | None"
    children: list = field(default_factory=list)  # (start, end) of closed child spans


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.thread_self: dict[int, float] = {}
        self.fold_spans: list[tuple[float, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack: list[_Frame] = []
        self._home = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats, self.thread_self, self.fold_spans = {}, {}, []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home_stack
            parent = home[-1] if home and stack is not home else None
        frame = _Frame(name, time.perf_counter(), parent)
        stack.append(frame)
        return frame

    def close(self, frame: _Frame, counters: dict | None = None) -> None:
        end = time.perf_counter()
        self._stack().pop()
        duration = end - frame.start
        with self._lock:
            own = duration - _covered(frame.children, frame.start, end)
            stat = self.stats.setdefault(frame.name, Stat())
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += own
            for key, value in (counters or {}).items():
                stat.counters[key] = stat.counters.get(key, 0) + value
            ident = threading.get_ident()
            self.thread_self[ident] = self.thread_self.get(ident, 0.0) + own
            if frame.parent is not None:
                frame.parent.children.append((frame.start, end))
            if frame.name == "experiment.run_fold":
                self.fold_spans.append((frame.start, end))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame, count(args) if count else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_make_loss(self, fn):
        tracer = self

        def make_loss(tree, spec):
            loss_fn = fn(tree, spec)
            n_classes = tree.n_leaves
            return tracer._wrap(
                "losses.loss_fn",
                loss_fn,
                lambda a: {"px": int(a[1].size), "px_class": int(a[1].size) * n_classes},
            )

        return self._wrap("losses.make_loss", make_loss)

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function; call ``uninstall`` to restore."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        from treeseg.hierarchy import LabelTree

        modules = [m for n, m in sorted(sys.modules.items()) if (n == "treeseg" or n.startswith("treeseg.")) and m]
        for layer, home, attr in FUNCTIONS:
            orig = getattr(sys.modules[home], attr)
            name = f"{layer}.{attr}"
            if attr == "make_loss":
                wrapper = self._wrap_make_loss(orig)
            elif attr == "predict":
                wrapper = self._wrap(name, orig, lambda a: {"px": int(a[1].size // a[1].shape[-1])})
            else:
                wrapper = self._wrap(name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._rebind(module, key, wrapper)
        for layer, attr in METHODS:
            self._rebind(LabelTree, attr, self._wrap(f"{layer}.{attr}", getattr(LabelTree, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived per-layer numbers -----------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def fold_overlap(self) -> float:
        """Sum of fold spans over the wall time from first fold start to last fold end."""
        if not self.fold_spans:
            return 0.0
        wall = max(b for _, b in self.fold_spans) - min(a for a, _ in self.fold_spans)
        return sum(b - a for a, b in self.fold_spans) / wall if wall > 0 else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer numbers of one traced op (call ``reset`` before it)."""
        return {name: read(self) for name, (_, read) in PER_LAYER.items()}

    def breakdown(self) -> dict[str, dict]:
        """Every span name with calls, total and self seconds and counters."""
        return {
            name: {"calls": s.calls, "s": s.total_s, "self_s": s.self_s, **s.counters}
            for name, s in sorted(self.stats.items())
        }
