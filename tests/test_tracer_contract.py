"""The benchmark's tracer (``perfbench/tracing.py``) times treeseg by rebinding
its functions from outside. Every name it wraps must still exist, install
and uninstall must leave the package as it was, and the call counts it
reports must keep their meaning."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import treeseg.cli  # noqa: F401 - imports every module the tracer names
from treeseg.gating import default_grid
from treeseg.hierarchy import LabelTree, random_tree

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("treeseg_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def traced_names(tracing):
    names = [(importlib.import_module(home), attr) for _, home, attr in tracing.FUNCTIONS]
    return names + [(LabelTree, attr) for _, attr in tracing.METHODS]


def test_every_traced_name_exists_and_is_restored(monkeypatch):
    tracing = load_tracing(monkeypatch)
    names = traced_names(tracing)
    before = [getattr(owner, attr) for owner, attr in names]
    assert all(callable(fn) for fn in before)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(names, before))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(names, before))


def test_the_sweep_calls_no_ovr_scores_and_each_level_counts_one_table(monkeypatch):
    tracing = load_tracing(monkeypatch)
    import treeseg.evaluation as evaluation
    import treeseg.gating as gating

    tree = random_tree(np.random.default_rng(4), depth=3, ragged=True)
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(tree.n_leaves), size=(8, 8))
    truth = rng.integers(1, tree.n_leaves + 1, size=(8, 8))
    grid = default_grid(0.05)
    with tracing.Tracer() as tracer:
        gating.sweep_tau(tree, [probs], [truth], tree.levels - 1, grid)
        assert tracer.stat("evaluation.ovr_scores").calls == 0  # the sweep counts every grid point in one pass
    labels = gating.gate(tree, probs, gating.ThresholdPolicy(0.2)).labels
    calls = []

    def spy(name):
        fn = getattr(evaluation, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    for name in ("dice_scores", "ovr_scores", "_count_table"):
        monkeypatch.setattr(evaluation, name, spy(name))
    for k in range(tree.levels):
        calls.clear()
        evaluation.evaluate_level(tree, labels, truth, k)
        assert calls == ["_count_table"]  # Dice and the one-vs-rest rates read the level's one table
