import csv
import hashlib
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeseg.cli import main
from treeseg.distances import distance_matrix
from treeseg.errors import ConfigError, TreesegError
from treeseg.experiment import CONFIG_KEYS, compare, config_from_dict, corpus_fingerprint, write_tau_curve
from treeseg.gating import ThresholdPolicy, default_grid, gate, sweep_tau
from treeseg.evaluation import level_classes
from treeseg.hierarchy import EdgeWeightScheme, assign_weights, parse_level, parse_tree, resolve_level
from treeseg.synth import SynthConfig, generate, load_corpus, read_field, save_corpus, write_field
from treeseg.training import TrainConfig, init_params, load_model, predict, save_model

from conftest import THREE_LEAF_DOC, mapped_feature_files, needs_proc, wide_tree_doc

EXP_CONFIG = {
    "loss": {"semantic": "wass", "scheme": "hier", "kappa": 10, "alpha": 0.5, "beta": 0.5, "seg": "ce"},
    "train": {"model": "linear", "lr": 0.05, "epochs": 4},
    "synth": {"n_subjects": 4, "height": 16, "width": 16, "channels": 4, "n_regions": 30, "sparsity": 0.8},
    "gate": {"level": "topmost"},
    "eval": {"levels": ["leaf", "topmost"]},
    "n_subject_folds": 2,
    "seed": 17,
}


@pytest.fixture
def hier_file(tmp_path):
    path = tmp_path / "hier.json"
    path.write_text(THREE_LEAF_DOC)
    return path


@pytest.fixture
def exp_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(EXP_CONFIG))
    return path


@pytest.fixture
def no_training(monkeypatch):
    """Training raises, so a test can show that a config fails before it."""
    import treeseg.experiment

    def train(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(treeseg.experiment, "train", train)


class TestTreeCommands:
    def test_check_valid_exits_zero(self, hier_file, capsys):
        assert main(["tree", "check", str(hier_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_invalid_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "r", "children": [{"name": "x"}, {"name": "x"}]}))
        assert main(["tree", "check", str(bad)]) == 1

    def test_check_missing_file_exits_one(self):
        assert main(["tree", "check", "/definitely/not/here.json"]) == 1

    def test_check_binary_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "hier.json"
        path.write_bytes(b'\xff\xfe{"name": "r"}')
        assert main(["tree", "check", str(path)]) == 1
        assert str(path) in capsys.readouterr().out

    def test_distmat_matches_library(self, hier_file, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["tree", "distmat", str(hier_file), "--scheme", "hier", "--kappa", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        tree = parse_tree(hier_file.read_text())
        assert lines[0] == "," + ",".join(tree.leaf_names())
        m = distance_matrix(assign_weights(tree, EdgeWeightScheme("hier", kappa=2.0)))
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == tree.leaf_names()[i]
            assert np.allclose([float(x) for x in cells[1:]], m[i])


    def test_distmat_bytes_on_a_plain_tree(self, hier_file, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["tree", "distmat", str(hier_file), "--scheme", "hier", "--kappa", "0.7", "--out", str(out)]) == 0
        assert out.read_bytes() == b",a1,a2,b1\na1,0,2,3.4\na2,2,0,3.4\nb1,3.4,3.4,0\n"


# class and leaf names that a CSV cell must quote: a comma, and quotes
QUOTED_NAMES_DOC = json.dumps(
    {
        "name": "root",
        "children": [
            {"name": "soft, tissue", "children": [{"name": "fat"}, {"name": "muscle, smooth"}]},
            {"name": '"trabecular"', "children": [{"name": 'bone "spongy"'}, {"name": "marrow"}]},
            {"name": "air", "children": [{"name": "lung"}]},
        ],
    }
)


def _csv_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text())))


def test_names_with_commas_and_quotes_round_trip_through_csv(tmp_path):
    """run's confusion.csv and tree distmat quote a name holding a comma or a quote:
    csv.reader reads every name back and every row as long as the header."""
    hier = tmp_path / "hier.json"
    hier.write_text(QUOTED_NAMES_DOC)
    tree = parse_tree(QUOTED_NAMES_DOC)
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(dict(EXP_CONFIG, hierarchy=str(hier), fold_subset=[0])))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    rows = _csv_rows(tmp_path / "run" / "confusion.csv")
    names = [tree.name_of(c - 1) for c in level_classes(tree, tree.levels - 1)] + ["background"]
    assert rows[0] == ["true\\pred", *names]
    assert [row[0] for row in rows[1:]] == names
    assert all(len(row) == len(names) + 1 for row in rows)

    assert main(["tree", "distmat", str(hier), "--out", str(tmp_path / "m.csv")]) == 0
    rows = _csv_rows(tmp_path / "m.csv")
    leaves = tree.leaf_names()
    assert rows[0] == ["", *leaves]
    assert [row[0] for row in rows[1:]] == leaves
    assert all(len(row) == len(leaves) + 1 for row in rows)


class TestPipelineCommands:
    def test_synth_train_sweep_gate_eval(self, exp_file, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        assert main(["synth", "--config", str(exp_file), "--out", str(corpus_dir)]) == 0
        assert (corpus_dir / "hierarchy.json").exists()
        assert (corpus_dir / "folds.json").exists()
        assert (corpus_dir / "s000" / "features.bin").exists()

        model = tmp_path / "model.bin"
        assert main(["train", "--config", str(exp_file), "--out", str(model)]) == 0
        assert model.exists()

        curve = tmp_path / "curve.csv"
        assert main(["sweep", "--corpus", str(corpus_dir), "--model", str(model), "--grid-step", "0.1", "--out", str(curve)]) == 0
        assert curve.read_text().startswith("tau,tpr,bacc,f1")
        assert "tau_m" in capsys.readouterr().out

        preds = tmp_path / "preds"
        assert main(["gate", "--corpus", str(corpus_dir), "--model", str(model), "--tau", "0.3", "--out", str(preds)]) == 0
        assert (preds / "pred_s003.bin").exists()

        evald = tmp_path / "evald"
        assert main(["eval", "--corpus", str(corpus_dir), "--pred", str(preds), "--level", "topmost", "--out", str(evald)]) == 0
        report = json.loads((evald / "report.json").read_text())
        assert set(report["means"]) == {"dice", "tpr", "bacc", "f1", "nsd"}
        assert (evald / "confusion.csv").exists()

        conf = tmp_path / "conf.csv"
        assert main(["confusion", "--corpus", str(corpus_dir), "--pred", str(preds), "--level", "topmost", "--out", str(conf)]) == 0
        assert conf.read_text().splitlines()[0].startswith("true\\pred")

    def test_missing_pred_file_is_validation_error(self, exp_file, tmp_path):
        corpus_dir = tmp_path / "corpus"
        main(["synth", "--config", str(exp_file), "--out", str(corpus_dir)])
        empty = tmp_path / "nopreds"
        empty.mkdir()
        assert main(["eval", "--corpus", str(corpus_dir), "--pred", str(empty)]) == 1

    def test_bad_level_is_validation_error(self, exp_file, tmp_path):
        corpus_dir = tmp_path / "corpus"
        main(["synth", "--config", str(exp_file), "--out", str(corpus_dir)])
        model = tmp_path / "model.bin"
        main(["train", "--config", str(exp_file), "--out", str(model)])
        assert main(["sweep", "--corpus", str(corpus_dir), "--model", str(model), "--level", "nonsense"]) == 1


class TestRunAndCompare:
    def test_run_writes_full_experiment(self, exp_file, tmp_path, capsys):
        out = tmp_path / "run1"
        assert main(["run", "--config", str(exp_file), "--out", str(out)]) == 0
        for name in ("report.json", "report.txt", "confusion.csv", "manifest.json", "folds.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert len(report["folds"]) == 2
        assert report["folds"][0]["swept"] is True
        assert (out / "fold_000" / "tau_curve.csv").exists()

    def test_rerun_is_byte_identical(self, exp_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(exp_file), "--out", str(a)])
        main(["run", "--config", str(exp_file), "--out", str(b)])
        assert (a / "manifest.json").read_text() == (b / "manifest.json").read_text()

    @staticmethod
    def _modules_after_a_run(exp_file, out, roots, jobs=1) -> list:
        """[exit code, loaded modules under ``roots``] after ``import treeseg, treeseg.cli`` and a
        whole ``cli.main(["run", ..., "--jobs", jobs])`` in a fresh interpreter."""
        script = (
            "import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "import treeseg, treeseg.cli\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    code = treeseg.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2], '--jobs', sys.argv[3]])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] in sys.argv[4:])]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        cmd = [sys.executable, "-c", script, str(exp_file), str(out), str(jobs), *roots]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    def test_run_loads_no_scipy(self, exp_file, tmp_path):
        """Only the LP oracle needs scipy: importing treeseg and a whole run load none of it."""
        assert self._modules_after_a_run(exp_file, tmp_path / "run", ["scipy"]) == [0, []]

    def test_serial_run_loads_no_process_pool(self, exp_file, tmp_path):
        """Only --jobs above 1 needs a pool: importing treeseg and a one-job run load neither module."""
        assert self._modules_after_a_run(exp_file, tmp_path / "run", ["concurrent", "multiprocessing"]) == [0, []]

    def test_run_in_workers_loads_no_executor(self, exp_file, tmp_path):
        """--jobs 2 forks its workers directly: the run loads no concurrent.futures module."""
        assert self._modules_after_a_run(exp_file, tmp_path / "run", ["concurrent"], jobs=2) == [0, []]

    def test_fixed_tau_zero_equals_ungated_argmax_eval(self, tmp_path):
        cfg = dict(EXP_CONFIG)
        cfg["gate"] = {"level": "topmost", "tau": 0.0}
        cfg["fold_subset"] = [0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        fold = report["folds"][0]
        assert fold["swept"] is False and fold["tau"] == 0.0
        # with tau = 0 nothing is gated away, so gated leaf Dice equals the
        # ungated argmax accuracy-style evaluation embedded in the report
        leaf = fold["levels"]["0"]
        assert leaf["means"]["tpr"] is not None

    def test_compare_reports(self, exp_file, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(exp_file), "--out", str(a)])
        cfg = dict(EXP_CONFIG)
        cfg["loss"] = {"semantic": "twce", "scheme": "equal", "alpha": 1.0, "beta": 0.0, "seg": "none"}
        other = tmp_path / "cfg2.json"
        other.write_text(json.dumps(cfg))
        main(["run", "--config", str(other), "--out", str(b)])
        out = tmp_path / "cmp"
        assert main(["compare", str(a), str(b), "--out", str(out)]) == 0
        table = capsys.readouterr().out
        assert "wass[hier10]+ce" in table
        assert "twce[equal]+none" in table
        assert (out / "comparison.csv").exists()
        assert (out / "comparison.txt").exists()

    def test_every_plain_ce_spelling_is_one_run(self, exp_file, tmp_path, capsys):
        """wass at alpha = 0 and semantic 'none' write the same bytes, and compare labels the run
        ce(b=1) beside a wass run."""
        runs = {}
        for name, loss in (("spelled", {"semantic": "wass", "scheme": "hier", "alpha": 0, "beta": 1}), ("none", {"semantic": "none", "beta": 1})):
            runs[name] = tmp_path / name
            assert main(["run", "--config", str(_write_config(tmp_path, name, loss=loss)), "--out", str(runs[name])]) == 0
        assert (runs["spelled"] / "manifest.json").read_bytes() == (runs["none"] / "manifest.json").read_bytes()
        main(["run", "--config", str(exp_file), "--out", str(tmp_path / "wass")])
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "wass"), str(runs["none"])]) == 0
        methods = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:3]]
        assert methods == ["wass[hier10]+ce(a=0.5;b=0.5)", "ce(b=1)"]

    def test_compare_identical_runs_zero_deltas(self, exp_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(exp_file), "--out", str(a)])
        main(["run", "--config", str(exp_file), "--out", str(b)])
        out = tmp_path / "cmp"
        main(["compare", str(a), str(b), "--out", str(out)])
        csv_lines = (out / "comparison.csv").read_text().strip().splitlines()
        deltas = csv_lines[-1].split(",")[1:]
        assert all(x == "" or abs(float(x)) == 0.0 for x in deltas)

    def test_compare_mismatched_corpora_exits_one(self, exp_file, tmp_path):
        a = tmp_path / "a"
        main(["run", "--config", str(exp_file), "--out", str(a)])
        cfg = dict(EXP_CONFIG)
        cfg["seed"] = 99  # different corpus
        other = tmp_path / "cfg3.json"
        other.write_text(json.dumps(cfg))
        b = tmp_path / "b"
        main(["run", "--config", str(other), "--out", str(b)])
        assert main(["compare", str(a), str(b)]) == 1

    def test_hierarchy_path_resolves_relative_to_config(self, tmp_path, monkeypatch):
        (tmp_path / "hier.json").write_text(THREE_LEAF_DOC)
        cfg = dict(EXP_CONFIG)
        cfg["hierarchy"] = "hier.json"
        cfg["synth"] = dict(cfg["synth"], n_regions=12)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path / "..")  # cwd differs from the config dir
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["corpus"]["n_classes"] == 3

    def test_divergent_training_exits_two(self, tmp_path):
        cfg = dict(EXP_CONFIG)
        cfg["train"] = {"model": "linear", "lr": 1e308, "epochs": 8, "optimizer": "sgd"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_seed_flag_overrides_config(self, exp_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(exp_file), "--out", str(a), "--seed", "123"])
        main(["run", "--config", str(exp_file), "--out", str(b)])
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        assert ra["corpus"]["fingerprint"] != rb["corpus"]["fingerprint"]


def test_corpus_fingerprint_is_the_digest_of_the_arrays_bytes():
    """The fingerprint hashes each array's C-ordered little-endian buffer: the digest of
    the arrays' ``tobytes()``, for C-ordered subjects and for converted ones alike."""
    corpus = generate(SynthConfig(n_subjects=3, height=6, width=5, channels=3, n_regions=40, sparsity=0.5, seed=4))

    def tobytes_digest(corpus) -> str:
        h = hashlib.sha256(json.dumps(corpus.tree.to_dict(), sort_keys=True).encode())
        for sub in corpus.subjects:
            h.update(np.ascontiguousarray(sub.features, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(sub.truth, dtype="<i8").tobytes())
            h.update(np.ascontiguousarray(sub.mask, dtype="<i8").tobytes())
        return h.hexdigest()

    digest = corpus_fingerprint(corpus)
    assert digest == tobytes_digest(corpus)
    first = corpus.subjects[0]
    corpus.subjects[0] = replace(first, features=np.asfortranarray(first.features), truth=first.truth.astype(np.int32), mask=np.asfortranarray(first.mask))
    assert corpus_fingerprint(corpus) == digest == tobytes_digest(corpus)


def _write_config(tmp_path, name, **changes):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(EXP_CONFIG, **changes)))
    return path


class TestLevelSpelling:
    def test_leaf_gate_level_matches_level_zero(self, tmp_path):
        manifests = []
        for name, level in (("leaf", "leaf"), ("zero", 0)):
            path = _write_config(tmp_path, name, gate={"level": level})
            assert main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
            manifests.append((tmp_path / name / "manifest.json").read_text())
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("block", [{"gate": {"level": "junk"}}, {"eval": {"levels": ["leaf", "junk"]}}])
    def test_junk_level_fails_before_training(self, tmp_path, no_training, capsys, block):
        path = _write_config(tmp_path, "junk", **block)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "'junk'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "block, key",
    [
        ({"synth": dict(EXP_CONFIG["synth"], n_subject=4)}, "n_subject"),
        ({"train": {"epoch": 3}}, "epoch"),
        ({"loss": dict(EXP_CONFIG["loss"], alhpa=0.5)}, "alhpa"),
        ({"gate": {"leve": "leaf"}}, "leve"),
        ({"eval": {"level": ["leaf"]}}, "level"),
        ({"n_label_fold": 2}, "n_label_fold"),
        ({"train": dict(EXP_CONFIG["train"], seed=3)}, "seed"),
        ({"synth": dict(EXP_CONFIG["synth"], seed=3)}, "seed"),
    ],
)
def test_unknown_config_key_exits_one(tmp_path, capsys, block, key):
    path = _write_config(tmp_path, "bad", **block)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"unknown key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "synth"])
@pytest.mark.parametrize("text", ['{"loss": {', "[1, 2]"])
def test_malformed_config_json_exits_one(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("subset", [[7], [-1], [0, 2], "0"])
def test_fold_subset_out_of_range_exits_one(tmp_path, no_training, capsys, subset):
    path = _write_config(tmp_path, "subset", fold_subset=subset)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "fold_subset" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("alpha", "NaN"), ("beta", "Infinity"), ("kappa", "Infinity")])
def test_non_finite_loss_setting_exits_one(tmp_path, no_training, capsys, key, value):
    path = _write_config(tmp_path, "nonfinite", loss=dict(EXP_CONFIG["loss"], **{key: float(value)}))
    assert f'"{key}": {value}' in path.read_text()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"{key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes, key",
    [
        ({"seed": "abc"}, "seed"),
        ({"n_subject_folds": "two"}, "n_subject_folds"),
        ({"loss": dict(EXP_CONFIG["loss"], alpha="x")}, "loss.alpha"),
        ({"gate": {"level": "topmost", "tau": "x"}}, "gate.tau"),
        ({"gate": {"level": "topmost", "grid_step": "x"}}, "gate.grid_step"),
        ({"synth": dict(EXP_CONFIG["synth"], height="x")}, "synth.height"),
        ({"train": dict(EXP_CONFIG["train"], lr="x")}, "train.lr"),
        ({"eval": {"levels": ["leaf"], "tolerance": "x"}}, "eval.tolerance"),
        ({"eval": {"levels": ["leaf"], "tolerance": -1}}, "eval.tolerance"),
        ({"train": dict(EXP_CONFIG["train"], augment="yes")}, "train.augment"),
        ({"synth": dict(EXP_CONFIG["synth"], held_out=5)}, "synth.held_out"),
        ({"synth": dict(EXP_CONFIG["synth"], tree_branching="ab")}, "synth.tree_branching"),
    ],
)
def test_non_numeric_config_value_exits_one(tmp_path, no_training, capsys, changes, key):
    path = _write_config(tmp_path, "nan", **changes)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"{key} must be" in capsys.readouterr().err


def test_string_eval_levels_asks_for_a_list(tmp_path, capsys):
    path = _write_config(tmp_path, "levels", eval={"levels": "leaf"})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "eval.levels must be a list" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")

SYNTH_RANGE_CASES = [
    ("tree_depth", 0),
    ("tree_depth", -1),
    ("tree_branching", [0, 0]),
    ("tree_branching", [1, 1]),
    ("tree_branching", [0, 1]),
    ("tree_branching", [3, 2]),
    ("n_subjects", 0),
    ("height", 0),
    ("width", 0),
    ("channels", 0),
    ("sigma_within", NAN),
    ("sigma_between", INF),
    ("level_decay", NAN),
    ("level_decay", 0),
]


@pytest.mark.parametrize("command", ["run", "synth", "synth-bare"])
@pytest.mark.parametrize("key, value", SYNTH_RANGE_CASES)
def test_synth_setting_out_of_range_exits_one(tmp_path, no_training, capsys, command, key, value):
    """A synth value that would hang or crash generation is exit 1 naming the key, before any work."""
    synth = dict(EXP_CONFIG["synth"], **{key: value})
    if command == "synth-bare":
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(synth))
    else:
        path = _write_config(tmp_path, "synth", synth=synth)
    out = tmp_path / "out"
    assert main([command.split("-")[0], "--config", str(path), "--out", str(out)]) == 1
    assert f"synth.{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_bare_synth_block_keeps_its_seed(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(dict(EXP_CONFIG["synth"], seed=5)))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "corpus")]) == 0
    assert json.loads((tmp_path / "corpus" / "corpus.json").read_text())["seed"] == 5
    path.write_text(json.dumps(dict(EXP_CONFIG["synth"], seed=-1)))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "bad")]) == 1
    assert "synth.seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_a_tree_key_in_a_bare_synth_block_exits_one(tmp_path):
    """A bare synth block cannot set the tree, as an experiment config's cannot: exit 1, no traceback."""
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(dict(EXP_CONFIG["synth"], tree=5)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    cmd = [sys.executable, "-m", "treeseg.cli", "synth", "--config", str(path), "--out", str(tmp_path / "corpus")]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "unknown key 'tree' in the synth block" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"train": dict(EXP_CONFIG["train"], lr=NAN)}, "train.lr must be finite and > 0"),
        ({"train": dict(EXP_CONFIG["train"], lr=0)}, "train.lr must be finite and > 0"),
        ({"train": dict(EXP_CONFIG["train"], adam_eps=INF)}, "train.adam_eps must be finite and > 0"),
        ({"train": dict(EXP_CONFIG["train"], beta1=2.0)}, "train.beta1 must be in [0, 1)"),
        ({"train": dict(EXP_CONFIG["train"], beta2=1.0)}, "train.beta2 must be in [0, 1)"),
        ({"train": dict(EXP_CONFIG["train"], momentum=-0.1)}, "train.momentum must be in [0, 1)"),
        ({"train": dict(EXP_CONFIG["train"], hidden=0)}, "train.hidden must be >= 1"),
        ({"train": dict(EXP_CONFIG["train"], model="cnn")}, "train.model must be one of"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"hierarchy": 5}, "hierarchy must be a path string"),
        ({"corpus": 5}, "corpus must be a path string"),
        ({"loss": {"semantic": "twce", "alpha": 0, "seg": "none"}}, "the loss has no term: loss.alpha is 0 and loss.seg is 'none'"),
        ({"loss": {"semantic": "wass", "alpha": 0, "beta": 0}}, "the loss has no term: loss.alpha is 0 and loss.beta is 0"),
        ({"gate": {"tau": 1.5}}, "gate.tau must be in [0, 1]"),
        ({"gate": {"tau": -0.1}}, "gate.tau must be in [0, 1]"),
        ({"gate": {"tau": NAN}}, "gate.tau must be in [0, 1]"),
        ({"gate": {"grid_step": 0}}, "gate.grid_step must be in (0, 1]"),
        ({"gate": {"grid_step": 2}}, "gate.grid_step must be in (0, 1]"),
        ({"fold_subset": []}, "fold_subset must be a non-empty list"),
        ({"fold_subset": [0, 0]}, "fold_subset names a fold twice"),
        # checked against the generated tree or corpus
        ({"synth": dict(EXP_CONFIG["synth"], n_regions=2)}, "synth.n_regions=2 cannot cover 9 classes"),
        ({"n_subject_folds": 9}, "n_subject_folds=9 infeasible for 4 subjects"),
        ({"synth": dict(EXP_CONFIG["synth"], held_out=[99])}, "synth.held_out: class code 99 outside 1..9"),
        ({"gate": {"level": 7}}, "gate.level: level 7 out of range [0, 2]"),
        ({"eval": {"levels": ["leaf", 7]}}, "eval.levels: level 7 out of range [0, 2]"),
    ],
)
def test_config_value_out_of_range_exits_one(tmp_path, no_training, capsys, changes, message):
    """Each range is checked before training and before the out dir exists (no folds.json
    either): exit 1 naming the key."""
    path = _write_config(tmp_path, "range", **changes)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_with_corpus_and_synth_exits_one(corpus_dir, tmp_path, no_training, capsys):
    """A config names its corpus once: a corpus path beside a synth block is exit 1 naming both keys."""
    path = _write_config(tmp_path, "both", corpus=str(corpus_dir), synth=dict(EXP_CONFIG["synth"], n_subjects=99))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'corpus'" in err and "'synth'" in err
    assert not out.exists()


def test_non_finite_feature_file_exits_one(exp_file, tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert main(["synth", "--config", str(exp_file), "--out", str(corpus_dir)]) == 0
    features = corpus_dir / "s001" / "features.bin"
    data = bytearray(features.read_bytes())
    data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    features.write_bytes(bytes(data))
    cfg = tmp_path / "disk.json"
    cfg.write_text(json.dumps({k: v for k, v in EXP_CONFIG.items() if k != "synth"} | {"corpus": str(corpus_dir)}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert str(features) in err and "non-finite" in err


def _run_on_features(corpus_dir, tmp_path, change, preproc="standardize", fp_errors="raise", jobs="1"):
    """``treeseg run --jobs jobs`` on the corpus after ``change(subject index, features)`` edits its
    feature fields in place: (exit code, stderr). Numpy's overflow, invalid-value and divide-by-zero
    warnings are ``fp_errors``: by default raised, so that a printed warning fails the test."""
    for i in range(EXP_CONFIG["synth"]["n_subjects"]):
        path = corpus_dir / f"s{i:03d}" / "features.bin"
        features = read_field(path)
        change(i, features)
        write_field(path, features)
    cfg = tmp_path / "disk.json"
    cfg.write_text(json.dumps({k: v for k, v in EXP_CONFIG.items() if k != "synth"} | {"corpus": str(corpus_dir), "preproc": preproc}))
    err = io.StringIO()
    with redirect_stderr(err), np.errstate(over=fp_errors, invalid=fp_errors, divide=fp_errors):
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / f"out{jobs}"), "--jobs", jobs])
    return code, err.getvalue()


def _every_value_1e308(i, features):
    features.fill(1e308)


def _one_pixel_1e300(i, features):
    if i == 0:
        features[2, 3, 1] = 1e300


OVERFLOWS = {"every-value-1e308": _every_value_1e308, "one-pixel-1e300": _one_pixel_1e300}


@pytest.mark.parametrize("overflow", sorted(OVERFLOWS))
def test_features_that_overflow_standardization_exit_one(corpus_dir, tmp_path, overflow):
    """Finite features whose channel sums overflow float64 are a corpus standardization cannot take."""
    code, err = _run_on_features(corpus_dir, tmp_path, OVERFLOWS[overflow])
    assert code == 1, err
    assert "preproc standardize" in err and "overflows" in err


def test_features_near_the_float64_maximum_diverge_unstandardized(corpus_dir, tmp_path):
    code, err = _run_on_features(corpus_dir, tmp_path, OVERFLOWS["every-value-1e308"], preproc="none", fp_errors="ignore")
    assert code == 2 and "non-finite loss" in err, err
    # in a fold worker process the divergence crosses a pickle round trip and reads the same
    assert _run_on_features(corpus_dir, tmp_path, OVERFLOWS["every-value-1e308"], preproc="none", fp_errors="ignore", jobs="2") == (code, err)


def test_truncated_model_file_exits_one(exp_file, tmp_path):
    corpus_dir, model = tmp_path / "corpus", tmp_path / "model.bin"
    assert main(["synth", "--config", str(exp_file), "--out", str(corpus_dir)]) == 0
    assert main(["train", "--config", str(exp_file), "--out", str(model)]) == 0
    model.write_bytes(model.read_bytes()[:-3])
    assert main(["gate", "--corpus", str(corpus_dir), "--model", str(model), "--tau", "0.3", "--out", str(tmp_path / "p")]) == 1


@pytest.mark.parametrize("preproc", ["standardize", "l1"])
def test_train_and_gate_reproduce_run_fold_zero(tmp_path, preproc):
    path = _write_config(tmp_path, "exp", preproc=preproc)
    run_dir, corpus_dir, model, preds = tmp_path / "run", tmp_path / "corpus", tmp_path / "model.bin", tmp_path / "preds"
    assert main(["run", "--config", str(path), "--out", str(run_dir)]) == 0
    fold = json.loads((run_dir / "report.json").read_text())["folds"][0]
    assert main(["synth", "--config", str(path), "--out", str(corpus_dir)]) == 0
    assert main(["train", "--config", str(path), "--out", str(model)]) == 0
    assert main(["gate", "--corpus", str(corpus_dir), "--model", str(model), "--tau", repr(fold["tau"]), "--out", str(preds)]) == 0
    for s in fold["val_subjects"]:
        name = f"pred_s{s:03d}.bin"
        assert (preds / name).read_bytes() == (run_dir / "fold_000" / name).read_bytes(), name


class TestScoringMatchesTheLibrary:
    """gate and sweep score each subject once, class-major; their files hold the bytes that
    the public (..., C) gate and sweep_tau give over predict."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mlp_twce")
        path = _write_config(root, "exp", loss=dict(EXP_CONFIG["loss"], semantic="twce"), train=dict(EXP_CONFIG["train"], model="mlp"))
        corpus_dir, model = root / "corpus", root / "model.bin"
        assert main(["synth", "--config", str(path), "--out", str(corpus_dir)]) == 0
        assert main(["train", "--config", str(path), "--out", str(model)]) == 0
        corpus, params = load_corpus(corpus_dir), load_model(model)
        assert any((s.mask == 0).any() for s in corpus.subjects)  # the sweep skips unannotated pixels
        return corpus_dir, model, corpus, params

    @pytest.mark.parametrize("level", ["leaf", "1", "topmost"])
    def test_sweep_writes_the_curve_of_sweep_tau(self, trained, tmp_path, level):
        corpus_dir, model, corpus, params = trained
        out, ref = tmp_path / "tau_curve.csv", tmp_path / "ref.csv"
        assert main(["sweep", "--corpus", str(corpus_dir), "--model", str(model), "--level", level, "--grid-step", "0.05", "--out", str(out)]) == 0
        k = resolve_level(corpus.tree, parse_level(level))
        probs = [predict(params, s.features) for s in corpus.subjects]
        write_tau_curve(sweep_tau(corpus.tree, probs, [s.mask for s in corpus.subjects], k, default_grid(0.05))[1], ref)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("level", ["leaf", "1", "topmost"])
    def test_gate_writes_the_fields_of_gate(self, trained, tmp_path, level):
        corpus_dir, model, corpus, params = trained
        out, ref = tmp_path / "preds", tmp_path / "ref.bin"
        assert main(["gate", "--corpus", str(corpus_dir), "--model", str(model), "--level", level, "--tau", "0.6", "--out", str(out)]) == 0
        policy = ThresholdPolicy(0.6, level=resolve_level(corpus.tree, parse_level(level)))
        gated = []
        for i, s in enumerate(corpus.subjects):
            labels = gate(corpus.tree, predict(params, s.features), policy).labels
            write_field(ref, labels.astype(np.int64))
            assert (out / f"pred_s{i:03d}.bin").read_bytes() == ref.read_bytes()
            gated.append(labels == 0)
        assert 0 < np.mean(gated) < 1  # tau gates some pixels at every level, not all


class TestEvalTolerance:
    def _gate(self, tmp_path, path):
        corpus_dir, model, preds = tmp_path / "corpus", tmp_path / "model.bin", tmp_path / "preds"
        assert main(["synth", "--config", str(path), "--out", str(corpus_dir)]) == 0
        assert main(["train", "--config", str(path), "--out", str(model)]) == 0
        assert main(["gate", "--corpus", str(corpus_dir), "--model", str(model), "--tau", "0.3", "--out", str(preds)]) == 0
        return corpus_dir, preds

    def test_sparse_corpus_reports_no_nsd(self, exp_file, tmp_path):
        corpus_dir, preds = self._gate(tmp_path, exp_file)
        out = tmp_path / "evald"
        assert main(["eval", "--corpus", str(corpus_dir), "--pred", str(preds), "--tolerance", "2", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["means"]["nsd"] is None and report["nsd_tolerance"] is None

    def test_dense_corpus_reports_the_nsd_of_run(self, tmp_path):
        synth = dict(EXP_CONFIG["synth"], sparsity=1.0)
        path = _write_config(tmp_path, "dense", synth=synth, eval={"levels": ["leaf", "topmost"], "tolerance": 2})
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(path), "--out", str(run_dir)]) == 0
        fold = json.loads((run_dir / "report.json").read_text())["folds"][0]
        corpus_dir, _ = self._gate(tmp_path, path)
        # a corpus of fold 0's validation subjects, with run's predictions for them
        sub, preds = tmp_path / "val_corpus", tmp_path / "val_preds"
        sub.mkdir()
        preds.mkdir()
        (sub / "hierarchy.json").write_bytes((corpus_dir / "hierarchy.json").read_bytes())
        meta = json.loads((corpus_dir / "corpus.json").read_text())
        (sub / "corpus.json").write_text(json.dumps(meta | {"n_subjects": len(fold["val_subjects"])}))
        for i, s in enumerate(fold["val_subjects"]):
            (corpus_dir / f"s{s:03d}").rename(sub / f"s{i:03d}")
            (run_dir / "fold_000" / f"pred_s{s:03d}.bin").rename(preds / f"pred_s{i:03d}.bin")
        for level_name, level in (("leaf", "0"), ("topmost", max(fold["levels"], key=int))):
            out = tmp_path / f"eval_{level_name}"
            assert main(["eval", "--corpus", str(sub), "--pred", str(preds), "--level", level_name, "--tolerance", "2", "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["means"]["nsd"] is not None
            # run and eval share the evaluation stage: every score of the fold's level entry
            for key in ("dice", "tpr", "bacc", "f1", "nsd"):
                assert report["per_class"][key] == fold["levels"][level]["per_class"][key], key
                assert report["means"][key] == fold["levels"][level]["means"][key], key


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_tree_weight_exits_one(tmp_path, capsys, weight):
    path = tmp_path / "hier.json"
    path.write_text('{"name": "r", "children": [{"name": "a", "weight": %s}, {"name": "b"}]}' % weight)
    assert main(["tree", "check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "'a'" in out


@pytest.mark.parametrize("doc, problem", [("{}", "every node requires a 'name' field"), ('{"name": "r", "children": [{"name": "a"}, {"name": "a"}]}', "duplicate node name 'a'")])
def test_hierarchy_that_is_not_a_tree_names_the_file(tmp_path, capsys, doc, problem):
    """Valid JSON that is not a tree: the message names the file before the problem."""
    path = tmp_path / "hier.json"
    path.write_text(doc)
    assert main(["tree", "check", str(path)]) == 1
    assert f"{path}: {problem}" in capsys.readouterr().out
    assert main(["tree", "distmat", str(path)]) == 1
    assert f"{path}: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, message",
    [
        ({}, "config needs either a synth block or a corpus path"),
        ({"hierarchy": "hier.json"}, "a hierarchy file requires a synth block to generate data for it"),
        ({"corpus": "no_corpus"}, "corpus path .*no_corpus does not exist"),
    ],
)
def test_config_without_its_data_is_config_error(tmp_path, data, message):
    """Checked before any file is read: a config names a synth block or an existing corpus."""
    data = {key: str(tmp_path / value) for key, value in data.items()}
    with pytest.raises(ConfigError, match=message):
        config_from_dict(data)


class TestCompareInputs:
    def test_one_report_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="compare needs at least 2 reports"):
            compare([tmp_path / "a"])

    def test_missing_run_directory_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "no_run"
        assert main(["compare", str(missing), str(tmp_path / "other")]) == 1
        assert str(missing) in capsys.readouterr().err

    def test_malformed_report_exits_one(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "report.json").write_text("{not json")
        assert main(["compare", str(run), str(tmp_path / "other")]) == 1
        assert str(run / "report.json") in capsys.readouterr().err

    def test_empty_reports_exit_one(self, tmp_path, capsys):
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            run.mkdir()
            (run / "report.json").write_text("{}")
        assert main(["compare", *map(str, runs)]) == 1
        err = capsys.readouterr().err
        assert str(runs[0] / "report.json") in err and "'corpus.fingerprint'" in err

    def test_report_without_means_exits_one(self, exp_file, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(exp_file), "--out", str(a)])
        b.mkdir()
        report = json.loads((a / "report.json").read_text())
        del report["means"]
        (b / "report.json").write_text(json.dumps(report))
        assert main(["compare", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert str(b / "report.json") in err and "'means.levels'" in err


@pytest.fixture(scope="module")
def level_runs(tmp_path_factory):
    """Two runs of one corpus on the same folds: ``both`` evaluates the leaf and topmost levels,
    ``leaf`` the leaf level alone; and the topmost level's key in report.json."""
    root = tmp_path_factory.mktemp("level_runs")
    runs = {}
    for name, levels in (("both", ["leaf", "topmost"]), ("leaf", ["leaf"])):
        path = _write_config(root, name, eval={"levels": levels})
        with redirect_stdout(io.StringIO()):
            assert main(["run", "--config", str(path), "--out", str(root / name)]) == 0
        runs[name] = root / name
    top = max(json.loads((runs["both"] / "report.json").read_text())["means"]["levels"], key=int)
    assert top != "0"
    return runs, top


def _compare(*runs) -> tuple[int, list[dict], str]:
    """``treeseg compare`` on the runs: (exit code, comparison.csv as dicts, stderr)."""
    out = runs[0].parent / "cmp"
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["compare", *map(str, runs), "--out", str(out)])
    rows = []
    if code == 0:
        header, *lines = (out / "comparison.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    return code, rows, err.getvalue()


class TestCompareLevels:
    """Reports that evaluated different levels compare over the union of their levels."""

    @pytest.mark.parametrize("order", [("both", "leaf"), ("leaf", "both")])
    def test_a_level_one_report_lacks_is_an_empty_cell(self, level_runs, order):
        runs, top = level_runs
        code, rows, err = _compare(*(runs[name] for name in order))
        assert code == 0, err
        first, second, delta = rows
        by_name = dict(zip(order, (first, second)))
        for key in ("dice", "tpr", "f1"):
            column = f"L{top}_{key}"
            assert by_name["leaf"][column] == "" and delta[column] == ""
            assert float(by_name["both"][column]) >= 0
            assert float(delta[f"L0_{key}"]) == 0.0  # the same leaf level in both runs

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("leaf_accuracy", "x", "'means.leaf_accuracy'"),
            ("semantic_error_distance", [1.0], "'means.semantic_error_distance'"),
            ("levels", {"0": [0.5]}, "'means.levels.0'"),
            ("levels", {"0": {"f1": "x"}}, "'means.levels.0.f1'"),
            ("levels", {"top": {}}, "'means.levels.top'"),
            ("levels", [], "'means.levels'"),
        ],
    )
    def test_a_value_of_the_wrong_kind_exits_one(self, level_runs, tmp_path, key, value, named):
        runs, _ = level_runs
        report = json.loads((runs["both"] / "report.json").read_text())
        report["means"][key] = value
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "report.json").write_text(json.dumps(report))
        for order in ((runs["leaf"], bad), (bad, runs["leaf"])):
            code, _, err = _compare(*order)
            assert code == 1 and str(bad / "report.json") in err and named in err, err

    def test_a_non_string_loss_label_exits_one(self, level_runs, tmp_path):
        runs, _ = level_runs
        report = json.loads((runs["leaf"] / "report.json").read_text())
        report["loss_label"] = 3
        (tmp_path / "report.json").write_text(json.dumps(report))
        code, _, err = _compare(runs["both"], tmp_path / "report.json")
        assert code == 1 and str(tmp_path / "report.json") in err and "'loss_label'" in err


@pytest.fixture
def corpus_dir(exp_file, tmp_path):
    path = tmp_path / "corpus"
    assert main(["synth", "--config", str(exp_file), "--out", str(path)]) == 0
    return path


class TestCorpusInputs:
    """A corpus that cannot be read is exit 1 naming the file; each case fails before the model is read."""

    def _sweep(self, corpus, tmp_path, capsys):
        assert main(["sweep", "--corpus", str(corpus), "--model", str(tmp_path / "no_model.bin")]) == 1
        return capsys.readouterr().err

    def test_malformed_corpus_json(self, corpus_dir, tmp_path, capsys):
        (corpus_dir / "corpus.json").write_text("{not json")
        assert str(corpus_dir / "corpus.json") in self._sweep(corpus_dir, tmp_path, capsys)

    def test_missing_corpus_directory(self, tmp_path, capsys):
        assert str(tmp_path / "nowhere") in self._sweep(tmp_path / "nowhere", tmp_path, capsys)

    def test_missing_hierarchy(self, corpus_dir, tmp_path, capsys):
        (corpus_dir / "hierarchy.json").unlink()
        assert str(corpus_dir / "hierarchy.json") in self._sweep(corpus_dir, tmp_path, capsys)

    def test_missing_subject_mask(self, corpus_dir, tmp_path, capsys):
        (corpus_dir / "s001" / "mask.bin").unlink()
        assert str(corpus_dir / "s001" / "mask.bin") in self._sweep(corpus_dir, tmp_path, capsys)

    @pytest.mark.parametrize(
        "key, value, problem",
        [("tree_depth", "x", "must be an integer"), ("tree_branching", [2], "must be a list of two integers"), ("sparsity", 2.0, "must be in [0, 1]")],
    )
    def test_bad_corpus_json_field_names_the_file(self, corpus_dir, tmp_path, capsys, key, value, problem):
        """A corpus.json field is the file's, not a config's synth block."""
        path = corpus_dir / "corpus.json"
        data = json.loads(path.read_text())
        data[key] = value
        path.write_text(json.dumps(data))
        err = self._sweep(corpus_dir, tmp_path, capsys)
        assert f"{path}: {key} {problem}" in err and "synth." not in err


def with_code(code):
    """A label field with one pixel's code replaced."""

    def change(field):
        field.flat[5] = code
        return field

    return change


MALFORMED_FIELDS = {
    "mask code 999": ("s001/mask.bin", with_code(999)),
    "mask code -3": ("s001/mask.bin", with_code(-3)),
    "mask 8x8": ("s001/mask.bin", lambda field: field[:8, :8]),  # the features are 16x16
    "labels code 999": ("s002/labels.bin", with_code(999)),
    "labels code 0": ("s002/labels.bin", with_code(0)),
    "labels 8x8": ("s002/labels.bin", lambda field: field[:8, :8]),
    "features 3 channels": ("s003/features.bin", lambda field: field[..., :3]),  # the others have 4
}


@pytest.mark.parametrize("command", ["sweep", "run"])
@pytest.mark.parametrize("fault", [*MALFORMED_FIELDS, "held_out 999"])
def test_malformed_corpus_exits_one_naming_the_file(corpus_dir, tmp_path, capsys, command, fault):
    """A corpus field that does not fit the tree or its subject is exit 1 naming the file, before any work."""
    if fault in MALFORMED_FIELDS:
        name, change = MALFORMED_FIELDS[fault]
        path = corpus_dir / name
        write_field(path, change(read_field(path)))
    else:
        path = corpus_dir / "corpus.json"
        path.write_text(json.dumps(json.loads(path.read_text()) | {"held_out": [999]}))
    if command == "sweep":
        model = tmp_path / "model.bin"
        n_leaves = parse_tree((corpus_dir / "hierarchy.json").read_text()).n_leaves
        save_model(init_params("linear", EXP_CONFIG["synth"]["channels"], n_leaves, 5, np.random.default_rng(0)), model)
        argv = ["sweep", "--corpus", str(corpus_dir), "--model", str(model), "--out", str(tmp_path / "curve.csv")]
    else:
        cfg = tmp_path / "disk.json"
        cfg.write_text(json.dumps({k: v for k, v in EXP_CONFIG.items() if k != "synth"} | {"corpus": str(corpus_dir)}))
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert str(path) in capsys.readouterr().err


def _run_on_corpus(corpus_dir, tmp_path):
    cfg = tmp_path / "disk.json"
    cfg.write_text(json.dumps({k: v for k, v in EXP_CONFIG.items() if k != "synth"} | {"corpus": str(corpus_dir)}))
    return main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "fault, named",
    [("gap", "s001"), ("missing last", "s003"), ("extra", "s009")],
)
def test_corpus_subject_directories_are_the_ones_corpus_json_declares(corpus_dir, tmp_path, capsys, fault, named):
    """corpus.json declares 4 subjects, so run reads s000 to s003: a missing one or any other
    s<digits> directory is exit 1 naming it, before any output."""
    if fault == "extra":
        shutil.copytree(corpus_dir / "s000", corpus_dir / named)
    else:
        shutil.rmtree(corpus_dir / named)
    assert _run_on_corpus(corpus_dir, tmp_path) == 1
    assert str(corpus_dir / named) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_thousand_and_one_subjects_load_back_in_order(tmp_path):
    """save_corpus names subject 1000 s1000; load_corpus reads it back, after s999."""
    corpus = generate(SynthConfig(tree=parse_tree(THREE_LEAF_DOC), n_subjects=1, height=5, width=5, channels=1, n_regions=3, seed=3))
    base = corpus.subjects[0]
    subjects = [replace(base, features=base.features + i) for i in range(1001)]
    root = save_corpus(replace(corpus, subjects=subjects, config=replace(corpus.config, n_subjects=1001)), tmp_path / "corpus")
    loaded = load_corpus(root)
    assert len(loaded.subjects) == 1001
    assert [np.asarray(s.features)[0, 0, 0] for s in loaded.subjects] == [base.features[0, 0, 0] + i for i in range(1001)]


def test_run_on_a_wide_corpus_holds_no_batch_logits(tmp_path, monkeypatch):
    """treeseg run at C = 99 on batches of eight tiles: training works one column tile at a time
    and validation keeps four vectors per image, so the whole run's tracemalloc peak stays below
    one training batch's (C, n) float64 logits."""
    import tracemalloc

    from treeseg import losses

    hier = tmp_path / "wide_tree.json"
    hier.write_text(wide_tree_doc())
    synth = {"n_subjects": 8, "height": 32, "width": 32, "channels": 4, "n_regions": 99, "sparsity": 1.0}
    path = _write_config(tmp_path, "wide", hierarchy=str(hier), synth=synth, train={"epochs": 1}, gate={"level": "leaf"}, eval={"levels": ["leaf"]})
    batch_pixels = 4 * 32 * 32  # the 4 training subjects of a fold, in one batch of up to 5
    monkeypatch.setattr(losses, "TILE_BYTES", 8 * 99 * batch_pixels // 8)
    with redirect_stdout(io.StringIO()):
        # once untraced first: the modules a run imports on first use are not the run's arrays
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 8 * 99 * batch_pixels, peak / (8 * 99 * batch_pixels)


@pytest.mark.parametrize("tolerance", ["-1", "nan"])
def test_eval_tolerance_below_zero_exits_one(corpus_dir, tmp_path, capsys, tolerance):
    preds = tmp_path / "preds"
    preds.mkdir()
    for i, subject in enumerate(sorted(corpus_dir.glob("s[0-9][0-9][0-9]"))):
        (preds / f"pred_s{i:03d}.bin").write_bytes((subject / "labels.bin").read_bytes())
    args = ["eval", "--corpus", str(corpus_dir), "--pred", str(preds), "--out", str(tmp_path / "evald")]
    assert main(args) == 0
    assert main(args + ["--tolerance", tolerance]) == 1
    assert "--tolerance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, message",
    [(["gate", "--tau", "1.5", "--out", "gated"], "tau must be in [0, 1]"), (["sweep", "--grid-step", "0"], "grid_step must be in (0, 1]")],
)
def test_a_bad_threshold_setting_exits_one_before_the_corpus_is_read(tmp_path, capsys, command, message):
    """gate's tau and sweep's grid step are checked first: the missing corpus is never reached."""
    args = [command[0], "--corpus", str(tmp_path / "missing"), "--model", str(tmp_path / "model.bin"), *command[1:]]
    assert main(args) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_jobs_below_one_exits_one(exp_file, tmp_path, capsys, jobs):
    out = tmp_path / "out"
    assert main(["run", "--config", str(exp_file), "--out", str(out), "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


class TestFoldWorkers:
    """With --jobs above 1, folds run in forked worker processes: the outputs, exit codes and
    messages are those of --jobs 1, and no process outlives the run."""

    @pytest.fixture
    def label_folds(self, tmp_path):
        path = tmp_path / "label_folds.json"
        path.write_text(json.dumps(EXP_CONFIG | {"n_label_folds": 2}))
        return path

    def _run(self, config, out, jobs):
        with redirect_stdout(io.StringIO()):
            return main(["run", "--config", str(config), "--out", str(out), "--jobs", str(jobs)])

    @staticmethod
    def _assert_no_children():
        """No worker is left running, and none is left unreaped."""
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_folds_run_in_worker_processes(self, label_folds, tmp_path, monkeypatch):
        import treeseg.experiment

        assert self._run(label_folds, tmp_path / "serial", 1) == 0
        real = treeseg.experiment.run_fold

        def run_fold(corpus, fold, config, out):
            (tmp_path / f"fold{fold.index}.pid").write_text(str(os.getpid()))
            return real(corpus, fold, config, out)

        monkeypatch.setattr(treeseg.experiment, "run_fold", run_fold)
        assert self._run(label_folds, tmp_path / "workers", 2) == 0
        pids = {int(p.read_text()) for p in tmp_path.glob("fold*.pid")}
        assert len(list(tmp_path.glob("fold*.pid"))) == 4 and os.getpid() not in pids and len(pids) <= 2
        assert (tmp_path / "workers" / "manifest.json").read_text() == (tmp_path / "serial" / "manifest.json").read_text()
        self._assert_no_children()

    def test_validation_error_in_a_worker_exits_one_as_in_one_job(self, exp_file, tmp_path, monkeypatch):
        import treeseg.experiment

        real = treeseg.experiment.class_probs

        def nan_probs(params, features):
            p = real(params, features)
            p[0] = np.nan
            return p

        monkeypatch.setattr(treeseg.experiment, "class_probs", nan_probs)
        runs = []
        for jobs in (1, 2):
            err = io.StringIO()
            with redirect_stderr(err):
                runs.append((self._run(exp_file, tmp_path / f"out{jobs}", jobs), err.getvalue()))
        assert runs[0][0] == 1 and "rows must be probability vectors" in runs[0][1]
        assert runs[1] == runs[0]
        self._assert_no_children()

    def test_a_worker_that_dies_is_a_runtime_error(self, exp_file, tmp_path, monkeypatch, capfd):
        import treeseg.experiment

        monkeypatch.setattr(treeseg.experiment, "run_fold", lambda corpus, fold, config, out: os._exit(3))
        assert self._run(exp_file, tmp_path / "out", 2) == 2
        err = capfd.readouterr().err
        assert "runtime error: a fold worker process died before it returned its fold (exit code 3)" in err and "Traceback" not in err
        self._assert_no_children()

    def test_a_worker_that_dies_ends_the_run_while_the_other_trains(self, exp_file, tmp_path, monkeypatch, capfd):
        """Fold 1's worker dies while fold 0, which the caller waits for first, trains for 20 s:
        the run ends at once, as a runtime error, and the training worker is stopped and reaped."""
        import time

        import treeseg.experiment

        real = treeseg.experiment.run_fold

        def run_fold(corpus, fold, config, out):
            if fold.index == 1:
                os._exit(3)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                res = real(corpus, fold, config, out)
            return res

        monkeypatch.setattr(treeseg.experiment, "run_fold", run_fold)
        begin = time.monotonic()
        assert self._run(exp_file, tmp_path / "out", 2) == 2
        assert time.monotonic() - begin < 10
        assert "runtime error: a fold worker process died before it returned its fold (exit code 3)" in capfd.readouterr().err
        self._assert_no_children()

    @pytest.mark.parametrize("error, code", [(ConfigError, 1), (TreesegError, 2)])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failing_second_fold_writes_no_report(self, exp_file, tmp_path, monkeypatch, capsys, jobs, error, code):
        """A fold that raises ends the run as it ends with one job: the exit code and message
        of its error, and no report or manifest; only fold directories written before it remain."""
        import treeseg.experiment

        real = treeseg.experiment.run_fold

        def run_fold(corpus, fold, config, out):
            if fold.index == 1:
                raise error("fold 1 cannot be scored")
            return real(corpus, fold, config, out)

        monkeypatch.setattr(treeseg.experiment, "run_fold", run_fold)
        out = tmp_path / "out"
        assert main(["run", "--config", str(exp_file), "--out", str(out), "--jobs", str(jobs)]) == code
        assert "fold 1 cannot be scored" in capsys.readouterr().err
        left = {p.name for p in out.iterdir()}
        assert "folds.json" in left and left <= {"folds.json", "fold_000"}
        assert not (out / "report.json").exists() and not (out / "manifest.json").exists()
        self._assert_no_children()

    def test_the_pool_starts_no_more_workers_than_folds(self, exp_file, tmp_path, monkeypatch):
        started = []
        process = multiprocessing.get_context("fork").Process
        real = process.start

        def start(self):
            started.append(self.name)
            real(self)

        monkeypatch.setattr(process, "start", start)
        assert self._run(exp_file, tmp_path / "out", 64) == 0
        assert len(started) == EXP_CONFIG["n_subject_folds"]
        self._assert_no_children()

    def test_a_run_in_workers_starts_no_thread(self, label_folds, tmp_path, monkeypatch):
        """The caller reads the workers' pipes itself: no executor, manager or feeder thread."""
        import threading

        started, real = [], threading.Thread.start

        def start(thread):
            started.append(thread.name)
            real(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        assert self._run(label_folds, tmp_path / "out", 2) == 0
        assert started == []
        self._assert_no_children()

    def test_a_fold_that_raises_stops_the_worker_still_training(self, exp_file, tmp_path, monkeypatch, capsys):
        """Fold 0 raises once fold 1 is training in the other worker; that worker, training fold 1
        over and over for 20 s, is stopped and reaped, and the run ends with fold 0's error."""
        import time

        import treeseg.experiment

        real = treeseg.experiment.run_fold
        training = tmp_path / "fold1.training"

        def run_fold(corpus, fold, config, out):
            if fold.index == 0:
                while not training.exists():
                    time.sleep(0.01)
                raise TreesegError("fold 0 cannot be scored")
            training.touch()
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                res = real(corpus, fold, config, out)
            return res

        monkeypatch.setattr(treeseg.experiment, "run_fold", run_fold)
        begin = time.monotonic()
        assert self._run(exp_file, tmp_path / "out", 2) == 2
        assert time.monotonic() - begin < 10
        assert "fold 0 cannot be scored" in capsys.readouterr().err
        self._assert_no_children()

    def test_an_exception_that_will_not_pickle_is_a_runtime_error(self, exp_file, tmp_path, monkeypatch, capsys):
        import treeseg.experiment

        class Local(Exception):
            """Defined in a function: pickle cannot find the class by name."""

        def run_fold(corpus, fold, config, out):
            raise Local(f"fold {fold.index} holds no pickle")

        monkeypatch.setattr(treeseg.experiment, "run_fold", run_fold)
        assert self._run(exp_file, tmp_path / "out", 2) == 2
        assert "runtime error: fold 0 holds no pickle" in capsys.readouterr().err
        self._assert_no_children()

    def test_a_platform_without_fork_exits_one(self, exp_file, tmp_path, monkeypatch, capsys):
        def get_context(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        out = tmp_path / "out"
        assert main(["run", "--config", str(exp_file), "--out", str(out), "--jobs", "2"]) == 1
        assert "'fork' start method" in capsys.readouterr().err
        assert not out.exists()


class TestModelInputs:
    """A model file that cannot be used is exit 1 naming the file, for gate and sweep alike."""

    def _commands(self, corpus_dir, model, tmp_path):
        yield ["gate", "--corpus", str(corpus_dir), "--model", str(model), "--tau", "0.3", "--out", str(tmp_path / "preds")]
        yield ["sweep", "--corpus", str(corpus_dir), "--model", str(model), "--out", str(tmp_path / "curve.csv")]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_exits_one(self, corpus_dir, tmp_path, capsys, value):
        params = init_params("mlp", EXP_CONFIG["synth"]["channels"], 8, 5, np.random.default_rng(0))
        params.arrays[2][1, 3] = value
        model = tmp_path / "model.bin"
        save_model(params, model)
        for argv in self._commands(corpus_dir, model, tmp_path):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert str(model) in err and "non-finite" in err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_weights_exit_one(self, corpus_dir, tmp_path, capsys):
        """Finite weights whose logits overflow give NaN probabilities, which fail the row check."""
        n_leaves = load_corpus(corpus_dir).tree.n_leaves
        params = init_params("linear", EXP_CONFIG["synth"]["channels"], n_leaves, 5, np.random.default_rng(0))
        params.arrays[0][:] = 1e308
        params.arrays[0][0, 0] = -1e308
        model = tmp_path / "model.bin"
        save_model(params, model)
        for argv in self._commands(corpus_dir, model, tmp_path):
            assert main(argv) == 1
            assert "rows must be probability vectors" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("command", ["gate", "sweep", "run"])
    def test_nan_probabilities_exit_one(self, corpus_dir, exp_file, tmp_path, capsys, monkeypatch, command):
        """NaN probabilities fail the column check on every path that scores them."""
        import treeseg.experiment
        import treeseg.training

        real = treeseg.training.class_probs

        def nan_probs(params, features):
            p = real(params, features)
            p[0] = np.nan  # the first leaf, at every pixel
            return p

        monkeypatch.setattr(treeseg.training, "class_probs", nan_probs)
        monkeypatch.setattr(treeseg.experiment, "class_probs", nan_probs)
        model = tmp_path / "model.bin"
        save_model(init_params("linear", EXP_CONFIG["synth"]["channels"], load_corpus(corpus_dir).tree.n_leaves, 5, np.random.default_rng(0)), model)
        argv = {args[0]: args for args in self._commands(corpus_dir, model, tmp_path)}
        argv["run"] = ["run", "--config", str(exp_file), "--out", str(tmp_path / "run")]
        assert main(argv[command]) == 1
        assert "rows must be probability vectors" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists() and not (tmp_path / "run" / "report.json").exists()

    def test_missing_model_file_exits_one(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "nowhere" / "model.bin"
        for argv in self._commands(corpus_dir, model, tmp_path):
            assert main(argv) == 1
            assert str(model) in capsys.readouterr().err


def test_eval_and_confusion_write_the_same_confusion_csv(corpus_dir, tmp_path):
    """eval writes its report's topmost table, confusion counts the directory: the same bytes."""
    preds = tmp_path / "random_preds"
    preds.mkdir()
    corpus = load_corpus(corpus_dir)
    rng = np.random.default_rng(6)
    for i, subject in enumerate(corpus.subjects):
        write_field(preds / f"pred_s{i:03d}.bin", rng.integers(0, corpus.n_classes + 1, subject.mask.shape))
    common = ["--corpus", str(corpus_dir), "--pred", str(preds), "--level", "topmost"]
    assert main(["eval", *common, "--out", str(tmp_path / "evald")]) == 0
    assert main(["confusion", *common, "--out", str(tmp_path / "confusion.csv")]) == 0
    assert (tmp_path / "evald" / "confusion.csv").read_bytes() == (tmp_path / "confusion.csv").read_bytes()


class TestPredictionInputs:
    """A prediction field whose shape is not its subject's mask, or that holds a code outside
    0..C, is exit 1 naming the file."""

    @pytest.fixture
    def preds(self, corpus_dir, tmp_path):
        path = tmp_path / "preds"
        path.mkdir()
        for i, subject in enumerate(sorted(corpus_dir.glob("s[0-9][0-9][0-9]"))):
            (path / f"pred_s{i:03d}.bin").write_bytes((subject / "labels.bin").read_bytes())
        write_field(path / "pred_s002.bin", np.ones((8, 8), dtype=np.int64))  # the masks are 16x16
        return path

    def test_eval_exits_one(self, corpus_dir, preds, tmp_path, capsys):
        assert main(["eval", "--corpus", str(corpus_dir), "--pred", str(preds), "--out", str(tmp_path / "evald")]) == 1
        err = capsys.readouterr().err
        assert str(preds / "pred_s002.bin") in err and "8x8" in err

    def test_confusion_exits_one(self, corpus_dir, preds, tmp_path, capsys):
        assert main(["confusion", "--corpus", str(corpus_dir), "--pred", str(preds), "--out", str(tmp_path / "c.csv")]) == 1
        assert str(preds / "pred_s002.bin") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "confusion"])
    def test_an_out_of_range_code_exits_one(self, corpus_dir, preds, tmp_path, capsys, command):
        n_classes = load_corpus(corpus_dir).n_classes
        path = preds / "pred_s001.bin"
        labels = read_field(path)
        labels[3, 5] = 999
        write_field(path, labels)
        out = tmp_path / ("evald" if command == "eval" else "c.csv")
        assert main([command, "--corpus", str(corpus_dir), "--pred", str(preds), "--out", str(out)]) == 1
        assert f"{path}: class code 999 outside 0..{n_classes}" in capsys.readouterr().err


# -- model-file fuzz ---------------------------------------------------------
# Every mutation below leaves a file that load_model must reject: a cut
# payload or header, a header token replaced by one that is wrong wherever it
# stands (a different positive integer changes the expected payload size) or
# dropped, and a NaN or infinity written over one weight.

BAD_TOKENS = [b"", b"x", b"0", b"-1", b"1.5", b"nan", b"\xff", b"linear 1", b"none\n", b"mlp", b"%d" % 2**62, b"%d" % 10**30]
MUTATIONS = st.one_of(
    st.tuples(st.just("cut"), st.integers(1, 1 << 20)),
    st.tuples(st.just("token"), st.integers(0, 7), st.sampled_from(BAD_TOKENS) | st.integers(1, 10**6).map(lambda n: b"%d" % n)),
    st.tuples(st.just("drop"), st.integers(0, 7)),
    st.tuples(st.just("weight"), st.integers(0, 1 << 20), st.sampled_from([np.nan, np.inf, -np.inf])),
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("model_fuzz")
    corpus = generate(SynthConfig(n_subjects=2, height=8, width=8, channels=3, n_regions=24, seed=3))
    save_corpus(corpus, root / "corpus")
    models = {}
    for kind in ("linear", "mlp"):
        save_model(init_params(kind, 3, corpus.n_classes, 4, np.random.default_rng(1)), root / f"{kind}.bin")
        models[kind] = (root / f"{kind}.bin").read_bytes()
    return root, models


def mutate(data: bytes, mutation) -> bytes:
    kind, at, *value = mutation
    header, payload = data.split(b"\n", 1)
    tokens = header.split(b" ")
    if kind == "cut":
        return data[: -(1 + at % len(data))]
    if kind == "weight":
        at = 8 * (at % (len(payload) // 8))
        return header + b"\n" + payload[:at] + np.array(value, dtype="<f8").tobytes() + payload[at + 8 :]
    i = at % len(tokens)
    if kind == "token" and value[0] == tokens[i]:
        return data[:-1]  # the same integer drawn again: cut one byte instead
    tokens[i : i + 1] = [value[0]] if kind == "token" else []
    return b" ".join(tokens) + b"\n" + payload


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["linear", "mlp"]), mutation=MUTATIONS | st.none())
def test_model_file_fuzz_through_gate(fuzz_inputs, kind, mutation):
    root, models = fuzz_inputs
    data = models[kind] if mutation is None else mutate(models[kind], mutation)
    model = root / "fuzzed.bin"
    model.write_bytes(data)
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["gate", "--corpus", str(root / "corpus"), "--model", str(model), "--tau", "0.2", "--out", str(root / "preds")])
    assert code == (0 if mutation is None else 1), (mutation, err.getvalue())
    if code:
        assert str(model) in err.getvalue()


# -- config fuzz ---------------------------------------------------------------
# One key of one block (the top level included) replaced by a value of the
# wrong kind, null, a list, a string, a non-finite or non-positive number, or
# a small valid one. Each config must either exit 1 naming an error before
# training, or reach training; every size stays at or below the base config's.


class TrainingReached(Exception):
    pass


FUZZ_KEYS = {
    None: CONFIG_KEYS,
    "loss": ("semantic", "scheme", "kappa", "seg", "alpha", "beta"),
    "train": tuple(f.name for f in dataclass_fields(TrainConfig) if f.name != "seed"),
    "synth": tuple(f.name for f in dataclass_fields(SynthConfig) if f.name not in ("tree", "seed")),
    "gate": ("level", "tau", "grid_step"),
    "eval": ("levels", "tolerance"),
}
FUZZ_SLOTS = [(block, key) for block, keys in FUZZ_KEYS.items() for key in keys]
FUZZ_VALUES = [{"bogus": 1}, True, None, [1, 2], [], "x", "leaf", NAN, INF, -INF, -1, -0.5, 0, 0.0, 1, 2, 0.5]


@settings(max_examples=300, deadline=None)
@given(slot=st.sampled_from(FUZZ_SLOTS), value=st.sampled_from(FUZZ_VALUES))
def test_config_fuzz_through_run(tmp_path_factory, slot, value):
    import treeseg.experiment

    block, key = slot
    config = json.loads(json.dumps(EXP_CONFIG))
    (config if block is None else config.setdefault(block, {}))[key] = value
    root = tmp_path_factory.mktemp("config_fuzz")
    path = root / "cfg.json"
    path.write_text(json.dumps(config))

    def reached(*args, **kwargs):
        raise TrainingReached

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stderr(err):
        mp.setattr(treeseg.experiment, "train", reached)
        try:
            code = main(["run", "--config", str(path), "--out", str(root / "out"), "--jobs", "1"])
        except TrainingReached:
            return
    assert code == 1 and "error:" in err.getvalue(), (slot, value, code, err.getvalue())


# -- corpus fuzz -----------------------------------------------------------------
# One change to a saved corpus, run through ``treeseg run``: a corpus.json key
# set to another value or dropped, an unknown key added, or its text cut; a
# field file's header token replaced or dropped, its payload cut or
# lengthened, or one payload value overwritten. Every run exits 0 or 1 and
# raises nothing. A change that leaves the corpus malformed exits 1 naming the
# file; a field value overwritten with a valid one exits 0.

CORPUS_KEYS = tuple(f.name for f in dataclass_fields(SynthConfig) if f.name != "tree")
NEVER_VALID = [None, "x", {"bogus": 1}, NAN, INF, True, [None]]  # the wrong kind for every corpus.json key
SOMETIMES_VALID = [-1, 0, 1, 2, 3, 0.5, 1e308, [], [1], [1, 2], [2, 3], [0, 99]]
CORPUS_JSON_CHANGES = st.one_of(
    st.tuples(st.just("value"), st.sampled_from(CORPUS_KEYS), st.sampled_from(NEVER_VALID)),
    st.tuples(st.just("maybe"), st.sampled_from(CORPUS_KEYS), st.sampled_from(SOMETIMES_VALID)),
    st.tuples(st.just("drop"), st.sampled_from(CORPUS_KEYS)),
    st.tuples(st.just("unknown"), st.sampled_from(["tree", "bogus", "n_classes"])),
    st.tuples(st.just("cut"), st.integers(1, 1 << 12)),
    st.tuples(st.just("text"), st.sampled_from(["", "[]", "null", "3", '"corpus"', "{", "\xff"])),
)
FIELD_NAMES = ("features", "labels", "mask")
FIELD_CHANGES = st.one_of(
    st.tuples(st.just("token"), st.integers(0, 2), st.sampled_from(BAD_TOKENS) | st.integers(1, 10**6).map(lambda n: b"%d" % n)),
    st.tuples(st.just("drop"), st.integers(0, 2)),
    st.tuples(st.just("cut"), st.integers(1, 1 << 12)),
    st.tuples(st.just("grow"), st.integers(1, 64)),
    st.tuples(st.just("bad"), st.integers(0, 1 << 12), st.integers(0, 3)),
    st.tuples(st.just("good"), st.integers(0, 1 << 12), st.integers(0, 1 << 10)),
)


@pytest.fixture(scope="module")
def corpus_fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus_fuzz")
    corpus = generate(SynthConfig(n_subjects=4, height=8, width=8, channels=3, n_regions=16, tree_depth=2, seed=3))
    save_corpus(corpus, root / "base")
    return root / "base", corpus.n_classes


def run_fuzzed_corpus(tmp_path_factory, base, change) -> tuple[int, str, Path]:
    """Copy the base corpus, apply ``change(copy)``, which returns the changed file, and run on
    the copy: (exit code, stderr, changed file). An uncaught exception fails the test."""
    root = tmp_path_factory.mktemp("fuzzed")
    shutil.copytree(base, root / "corpus")
    path = change(root / "corpus")
    config = root / "cfg.json"
    config.write_text(json.dumps({"corpus": str(root / "corpus"), "train": {"epochs": 1}, "n_subject_folds": 2, "seed": 1}))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["run", "--config", str(config), "--out", str(root / "out"), "--jobs", "1"])
    shutil.rmtree(root)
    assert code in (0, 1), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue(), path


@settings(max_examples=120, deadline=None)
@given(change=CORPUS_JSON_CHANGES | st.none())
def test_corpus_json_fuzz_through_run(tmp_path_factory, corpus_fuzz_inputs, change):
    base, _ = corpus_fuzz_inputs

    def apply(corpus: Path) -> Path:
        path = corpus / "corpus.json"
        if change is None:
            return path
        kind, *arg = change
        text = path.read_text()
        meta = json.loads(text)
        if kind in ("value", "maybe"):
            meta[arg[0]] = arg[1]
        elif kind == "drop":
            del meta[arg[0]]
        elif kind == "unknown":
            meta[arg[0]] = 1
        path.write_text(text[: -(1 + arg[0] % len(text))] if kind == "cut" else arg[0] if kind == "text" else json.dumps(meta))
        return path

    code, err, path = run_fuzzed_corpus(tmp_path_factory, base, apply)
    if change is None:
        assert code == 0, err
    elif change[0] in ("value", "unknown", "cut", "text"):
        assert code == 1 and "error:" in err and str(path) in err, (change, err)
    elif code == 1:
        assert "error:" in err, (change, err)


@settings(max_examples=200, deadline=None)
@given(subject=st.integers(0, 3), name=st.sampled_from(FIELD_NAMES), change=FIELD_CHANGES)
def test_field_file_fuzz_through_run(tmp_path_factory, corpus_fuzz_inputs, subject, name, change):
    base, n_classes = corpus_fuzz_inputs
    features = name == "features"
    # values no field may hold: non-finite features, codes outside 1..C (labels) or 0..C (mask)
    bad = [np.nan, np.inf, -np.inf, np.nan] if features else [-1, 0 if name == "labels" else n_classes + 1, n_classes + 1, 2**62]

    def apply(corpus: Path) -> Path:
        path = corpus / f"s{subject:03d}" / f"{name}.bin"
        data = path.read_bytes()
        header, payload = data.split(b"\n", 1)
        kind, at, *value = change
        if kind == "cut":
            data = data[: -(1 + at % len(data))]
        elif kind == "grow":
            data += bytes(at)
        elif kind in ("bad", "good"):
            at = 8 * (at % (len(payload) // 8))
            if kind == "bad":
                word = np.array(bad[value[0]], dtype="<f8" if features else "<i8")
            else:  # a finite feature, or a code in the field's range
                word = np.array(value[0] / 8.0 - 64.0 if features else (value[0] % n_classes) + (name == "labels"), dtype="<f8" if features else "<i8")
            data = header + b"\n" + payload[:at] + word.tobytes() + payload[at + 8 :]
        else:
            tokens = header.split(b" ")
            if kind == "token" and value[0].strip().isdigit() and int(value[0]) == int(tokens[at]):
                data = data[:-1]  # the same integer drawn again: cut one byte instead
            else:
                tokens[at : at + 1] = [value[0]] if kind == "token" else []
                data = b" ".join(tokens) + b"\n" + payload
        path.write_bytes(data)
        return path

    code, err, path = run_fuzzed_corpus(tmp_path_factory, base, apply)
    if change[0] == "good":
        assert code == 0, (change, err)
    else:
        assert code == 1 and "error:" in err and str(path) in err, (change, err)


# -- report fuzz -----------------------------------------------------------------
# One change to a run's report.json, compared with an unchanged run of the same
# corpus and folds, in either order: a key compare reads dropped or set to a
# value of another JSON kind, a level entry replaced, or the text cut. Every
# compare exits 0 or 1 and raises nothing; a change that leaves the report
# malformed exits 1 naming the file.

REPORT_KEYS = [("corpus", "fingerprint"), ("fold_structure",), ("loss_label",), ("means", "levels"), ("means", "leaf_accuracy"), ("means", "semantic_error_distance")]
REPORT_VALUES = [None, "x", 0, -2.5, 1e308, INF, NAN, True, [], [0.5], {}, {"f1": 0.5}, {"f1": "x"}]
REPORT_CHANGES = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(REPORT_KEYS)),
    st.tuples(st.just("value"), st.sampled_from(REPORT_KEYS + [("means", "levels", "0", key) for key in ("dice", "f1", "nsd")]), st.sampled_from(REPORT_VALUES)),
    st.tuples(st.just("entry"), st.sampled_from(["0", "top", "-1", "x"]), st.sampled_from(REPORT_VALUES)),
    st.tuples(st.just("cut"), st.integers(1, 1 << 16)),
)


def report_value_fits(keys, value, original) -> bool:
    """Whether compare takes ``value`` at ``keys`` of a report whose value there was ``original``."""
    if keys[0] in ("corpus", "fold_structure"):
        return value == original
    if keys == ("loss_label",):
        return isinstance(value, str)
    if keys == ("means", "levels"):
        return isinstance(value, dict) and all(k.isdigit() and isinstance(v, dict) and report_value_fits(("means", "levels", k, "f1"), v.get("f1"), None) for k, v in value.items())
    return value is None or (isinstance(value, (int, float)) and not isinstance(value, bool) and np.isfinite(value))


@settings(max_examples=100, deadline=None)
@given(change=REPORT_CHANGES, first=st.booleans())
def test_report_fuzz_through_compare(level_runs, tmp_path_factory, change, first):
    runs, top = level_runs
    text = (runs["both"] / "report.json").read_text()
    report = json.loads(text)
    kind, *arg = change
    if kind == "cut":
        text, fits = text[: -(1 + arg[0] % len(text))], False
    elif kind == "entry":
        level = top if arg[0] == "top" else arg[0]
        report["means"]["levels"][level] = arg[1]
        fits = report_value_fits(("means", "levels"), {level: arg[1]}, None)
    else:
        *parents, key = arg[0]
        node = report
        for name in parents:
            node = node[name]
        original = node.pop(key)
        if kind == "value":
            node[key] = arg[1]
        fits = kind == "value" and report_value_fits(arg[0], arg[1], original)
    fuzzed = tmp_path_factory.mktemp("report_fuzz") / "report.json"
    fuzzed.write_text(text if kind == "cut" else json.dumps(report))
    code, _, err = _compare(*((fuzzed, runs["leaf"]) if first else (runs["leaf"], fuzzed)))
    assert code == (0 if fits else 1), (change, err)
    if code:
        assert "error:" in err and str(fuzzed) in err, (change, err)


class TestMappedCorpus:
    """A corpus read from disk maps each subject's features per use: the run it makes is the run on
    the generated corpus, no mapping outlives a command, and a file changed after load is exit 1."""

    @staticmethod
    def _disk_config(exp_path, corpus_dir):
        path = exp_path.with_name(f"{exp_path.stem}_disk.json")
        path.write_text(json.dumps({k: v for k, v in json.loads(exp_path.read_text()).items() if k != "synth"} | {"corpus": str(corpus_dir)}))
        return path

    @pytest.mark.parametrize("model", ["linear", "mlp"])
    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("preproc", ["standardize", "l1", "none"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_on_the_synth_corpus_writes_the_generated_runs_manifest(self, tmp_path, jobs, preproc, augment, model):
        exp_path = _write_config(tmp_path, "exp", train=dict(EXP_CONFIG["train"], model=model, augment=augment), preproc=preproc)
        corpus_dir = tmp_path / "corpus"
        with redirect_stdout(io.StringIO()):
            assert main(["synth", "--config", str(exp_path), "--out", str(corpus_dir)]) == 0
            for path, out in ((exp_path, "generated"), (self._disk_config(exp_path, corpus_dir), "loaded")):
                assert main(["run", "--config", str(path), "--out", str(tmp_path / out), "--jobs", str(jobs)]) == 0
        assert (tmp_path / "loaded" / "manifest.json").read_bytes() == (tmp_path / "generated" / "manifest.json").read_bytes()

    @needs_proc
    def test_no_features_file_stays_mapped_after_a_command(self, exp_file, corpus_dir, tmp_path):
        import treeseg.experiment

        disk = self._disk_config(exp_file, corpus_dir)
        model, preds = str(tmp_path / "model.bin"), str(tmp_path / "gated")
        treeseg.experiment.run_experiment(treeseg.experiment.load_config(disk), tmp_path / "library")
        assert mapped_feature_files() == 0
        commands = [
            ["run", "--config", str(disk), "--out", str(tmp_path / "run")],
            ["run", "--config", str(disk), "--out", str(tmp_path / "run_j2"), "--jobs", "2"],
            ["train", "--config", str(disk), "--out", model],
            ["gate", "--corpus", str(corpus_dir), "--model", model, "--tau", "0.5", "--out", preds],
            ["sweep", "--corpus", str(corpus_dir), "--model", model, "--out", str(tmp_path / "curve.csv")],
            ["eval", "--corpus", str(corpus_dir), "--pred", preds, "--out", str(tmp_path / "eval")],
        ]
        for argv in commands:
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
            assert mapped_feature_files() == 0, argv

    @needs_proc
    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("preproc", ["standardize", "l1", "none"])
    def test_one_features_file_is_mapped_at_a_time(self, tmp_path, live_feature_mappings, preproc, augment):
        """Views map nothing: training, the standardizer's two passes and validation each map one image, dropped before the next."""
        import treeseg.experiment

        exp_path = _write_config(tmp_path, "exp", train=dict(EXP_CONFIG["train"], augment=augment), preproc=preproc)
        corpus_dir = tmp_path / "corpus"
        with redirect_stdout(io.StringIO()):
            assert main(["synth", "--config", str(exp_path), "--out", str(corpus_dir)]) == 0
        disk = self._disk_config(exp_path, corpus_dir)
        n = EXP_CONFIG["synth"]["n_subjects"]
        treeseg.experiment.run_experiment(treeseg.experiment.load_config(disk), tmp_path / "library", jobs=1)
        runs = [["run", "--config", str(disk), "--out", str(tmp_path / "run")], ["train", "--config", str(disk), "--out", str(tmp_path / "model.bin")]]
        for argv in runs:
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        assert len(live_feature_mappings) > 3 * n  # three loads, then the folds' and the model's reads
        assert max(live_feature_mappings) == 1, live_feature_mappings
        assert mapped_feature_files() == 0

    @pytest.mark.parametrize("command", ["gate", "sweep"])
    def test_gate_and_sweep_map_each_subject_once(self, corpus_dir, tmp_path, monkeypatch, command):
        """load_corpus maps each features file once to check it, and the command once to score it."""
        import treeseg.synth

        model = tmp_path / "model.bin"
        n_leaves = parse_tree((corpus_dir / "hierarchy.json").read_text()).n_leaves
        save_model(init_params("linear", EXP_CONFIG["synth"]["channels"], n_leaves, 5, np.random.default_rng(0)), model)
        mapped, real = [], treeseg.synth._map_features

        def map_features(path, shape=None):
            mapped.append(path.parent.name)
            return real(path, shape)

        monkeypatch.setattr(treeseg.synth, "_map_features", map_features)
        extra = ["--tau", "0.5", "--out", str(tmp_path / "gated")] if command == "gate" else ["--out", str(tmp_path / "curve.csv")]
        with redirect_stdout(io.StringIO()):
            assert main([command, "--corpus", str(corpus_dir), "--model", str(model), *extra]) == 0
        subjects = [f"s{i:03d}" for i in range(EXP_CONFIG["synth"]["n_subjects"])]
        assert mapped == subjects + subjects

    @pytest.mark.parametrize(
        "fault",
        [
            lambda data: data[:-8],
            lambda data: b"16 8 8\n" + data[data.index(b"\n") + 1 :],  # the same payload size, another shape
            lambda data: b"16 16\n" + data[data.index(b"\n") + 1 :],
        ],
        ids=["truncated", "reshaped header", "malformed header"],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_features_file_changed_after_load_exits_one_naming_it(self, exp_file, corpus_dir, tmp_path, monkeypatch, capsys, jobs, fault):
        """The file is checked again on each use, so the change is exit 1 naming it, not a crash, and no report is written."""
        import treeseg.experiment

        real, path = treeseg.experiment.load_corpus, corpus_dir / "s001" / "features.bin"

        def load_then_change(root):
            corpus = real(root)
            path.write_bytes(fault(path.read_bytes()))
            return corpus

        monkeypatch.setattr(treeseg.experiment, "load_corpus", load_then_change)
        out = tmp_path / "out"
        argv = ["run", "--config", str(self._disk_config(exp_file, corpus_dir)), "--out", str(out), "--jobs", str(jobs)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not (out / "report.json").exists() and not (out / "manifest.json").exists()
