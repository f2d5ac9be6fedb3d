"""Tests of the benchmark itself, on shrunken workloads.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, check_manifest, check_report, corpus_masks, make_inputs, run_op  # noqa: E402

TINY_SYNTH = {"n_subjects": 12, "height": 16, "width": 16, "channels": 4, "n_regions": 16, "sparsity": 0.6}
TINY_CORPUS = {"n_subjects": 4, "height": 24, "width": 24, "channels": 4, "n_regions": 12, "sparsity": 1.0}
EPOCHS = 3
GRID_STEP = 0.05  # 20 thresholds


def tiny(name: str):
    """The named workload on a binary depth-3 tree (8 leaves) and small images."""
    w = WORKLOADS[name]
    config = dict(w.config, train={**w.config["train"], "epochs": EPOCHS}, gate={**w.config["gate"], "grid_step": GRID_STEP})
    if w.corpus is None:
        return replace(w, branching=(2, 2), n_leaves=8, config={**config, "synth": TINY_SYNTH})
    return replace(w, branching=(2, 2), n_leaves=8, config=config, corpus=TINY_CORPUS)


def traced_op(inputs, out: Path) -> tuple[Tracer, float]:
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        run_op(inputs, out)
        wall = time.perf_counter() - t0
    return tracer, wall


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_op_writes_the_untraced_manifest(name, tmp_path):
    inputs = make_inputs(tiny(name), 3, tmp_path / "inputs")
    run_op(inputs, tmp_path / "plain")
    traced_op(inputs, tmp_path / "traced")
    assert check_manifest(tmp_path / "traced") == check_manifest(tmp_path / "plain")
    check_report(inputs, tmp_path / "plain", corpus_masks(inputs))


def test_tracer_restores_every_attribute():
    import treeseg.experiment as exp
    import treeseg.gating as gating
    from treeseg.hierarchy import LabelTree

    before = (exp.train, gating.aggregate, LabelTree.leaves_under)
    with Tracer():
        assert exp.train is not before[0] and gating.aggregate is not before[1]
        assert LabelTree.leaves_under is not before[2]
    assert (exp.train, gating.aggregate, LabelTree.leaves_under) == before


def test_self_times_are_nonnegative_and_fit_each_thread(tmp_path):
    inputs = make_inputs(tiny("twce-heldout-j2"), 1, tmp_path / "inputs")
    tracer, wall = traced_op(inputs, tmp_path / "out")
    assert all(s.self_s >= -1e-12 for s in tracer.stats.values())
    assert all(s.self_s <= s.total_s + 1e-12 for s in tracer.stats.values())
    assert len(tracer.thread_self) >= 2  # the caller plus at least one fold thread
    assert all(total <= wall + 1e-6 for total in tracer.thread_self.values())
    # fold spans run on worker threads but count as children of run_experiment
    top = tracer.stats["experiment.run_experiment"]
    assert top.self_s < top.total_s / 2


def test_counts_match_hand_derivation(tmp_path):
    w = tiny("wass-default")
    inputs = make_inputs(w, 2, tmp_path / "inputs")
    tracer, _ = traced_op(inputs, tmp_path / "out")
    layers = tracer.layer_metrics()
    folds = w.config["n_subject_folds"] * w.config["n_label_folds"]
    train_subjects = TINY_SYNTH["n_subjects"] - TINY_SYNTH["n_subjects"] // w.config["n_subject_folds"]
    batches = math.ceil(train_subjects / 5)  # TrainConfig.batch_size
    grid_points = round(1 / GRID_STEP)
    assert layers["losses.loss_fn.calls"] == folds * EPOCHS * batches
    # the sweep scores every grid point; evaluate_level scores each eval level once
    assert layers["evaluation.ovr_scores.calls"] == folds * grid_points + folds * len(w.config["eval"]["levels"])
    assert layers["training.train.self_s"] > 0
    assert layers["losses.px"] > 0 and layers["training.predict.px"] == folds * 6 * 16 * 16


def test_counts_repeat_between_traced_ops(tmp_path):
    inputs = make_inputs(tiny("twce-heldout-j2"), 4, tmp_path / "inputs")
    first, _ = traced_op(inputs, tmp_path / "a")
    second, _ = traced_op(inputs, tmp_path / "b")
    calls = lambda t: {name: s.calls for name, s in t.stats.items()}  # noqa: E731
    assert calls(first) == calls(second)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wass-default", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_failed_and_wrong_ops_are_counted_not_fatal(tmp_path):
    import run

    inputs = make_inputs(tiny("dense-leafgate-wide"), 0, tmp_path / "inputs")
    calls = []

    def flaky(inputs, out):
        calls.append(out)
        if len(calls) == 2:
            raise ValueError("level must be an integer")  # escapes cli.main today
        run_op(inputs, out)
        if len(calls) == 3:
            (out / "report.txt").write_text("tampered")  # no longer matches the manifest

    loop = run.closed_loop(inputs, corpus_masks(inputs), 0.0, tmp_path / "work", min_ops=4, op=flaky)
    assert (loop.attempted, loop.failed, len(loop.plain)) == (4, 2, 2)
    assert loop.quality is not None
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


def test_setup_sample_builds_inputs_in_a_fresh_interpreter(tmp_path):
    import run

    seconds = run.setup_seconds("wass-default", 0, tmp_path / "setup")
    assert 0 < seconds < 60
    assert not (tmp_path / "setup").exists()


def test_between_runs_after_each_op_but_the_last(tmp_path):
    import run

    inputs = make_inputs(tiny("wass-default"), 0, tmp_path / "inputs")
    events = []

    def op(inputs, out):
        events.append("op")
        run_op(inputs, out)

    loop = run.closed_loop(inputs, corpus_masks(inputs), 0.0, tmp_path / "work", min_ops=3, op=op, between=lambda: events.append("between"))
    assert loop.attempted == 3 and loop.failed == 0
    assert events == ["op", "between", "op", "between", "op"]


def test_setup_samples_are_due_in_proportion_to_op_time(monkeypatch, tmp_path):
    import run

    monkeypatch.setattr(run, "setup_seconds", lambda *a: 1.0)
    early = run.SetupSampler("wass-default", 0, tmp_path, seconds=1e9)
    early.catch_up()
    assert len(early.samples) == 1  # no op time yet, so only the first is due
    assert early.finish() == [1.0] * run.SETUP_SAMPLES
    late = run.SetupSampler("wass-default", 0, tmp_path, seconds=1e-9)
    late.catch_up()
    assert len(late.samples) == run.SETUP_SAMPLES
