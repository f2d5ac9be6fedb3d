import io
import json
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeseg.cli import main
from treeseg.distances import distance_matrix
from treeseg.hierarchy import EdgeWeightScheme, assign_weights, parse_tree
from treeseg.synth import SynthConfig, generate, load_corpus, save_corpus, write_field
from treeseg.training import init_params, save_model

from conftest import THREE_LEAF_DOC

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
    def test_junk_level_fails_before_training(self, tmp_path, monkeypatch, capsys, block):
        import treeseg.experiment

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(treeseg.experiment, "train", no_training)
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
def test_fold_subset_out_of_range_exits_one(tmp_path, monkeypatch, capsys, subset):
    import treeseg.experiment

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(treeseg.experiment, "train", no_training)
    path = _write_config(tmp_path, "subset", fold_subset=subset)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "fold_subset" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("alpha", "NaN"), ("beta", "Infinity"), ("kappa", "Infinity")])
def test_non_finite_loss_setting_exits_one(tmp_path, monkeypatch, capsys, key, value):
    import treeseg.experiment

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(treeseg.experiment, "train", no_training)
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
def test_non_numeric_config_value_exits_one(tmp_path, monkeypatch, capsys, changes, key):
    import treeseg.experiment

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(treeseg.experiment, "train", no_training)
    path = _write_config(tmp_path, "nan", **changes)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"{key} must be" in capsys.readouterr().err


def test_string_eval_levels_asks_for_a_list(tmp_path, capsys):
    path = _write_config(tmp_path, "levels", eval={"levels": "leaf"})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "eval.levels must be a list" in capsys.readouterr().err


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
        for name in ("hierarchy.json", "corpus.json"):
            (sub / name).write_bytes((corpus_dir / name).read_bytes())
        for i, s in enumerate(fold["val_subjects"]):
            (corpus_dir / f"s{s:03d}").rename(sub / f"s{i:03d}")
            (run_dir / "fold_000" / f"pred_s{s:03d}.bin").rename(preds / f"pred_s{i:03d}.bin")
        for level_name, level in (("leaf", "0"), ("topmost", max(fold["levels"], key=int))):
            out = tmp_path / f"eval_{level_name}"
            assert main(["eval", "--corpus", str(sub), "--pred", str(preds), "--level", level_name, "--tolerance", "2", "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["means"]["nsd"] is not None
            assert report["per_class"]["nsd"] == fold["levels"][level]["per_class"]["nsd"]
            assert report["means"]["nsd"] == fold["levels"][level]["means"]["nsd"]


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_tree_weight_exits_one(tmp_path, capsys, weight):
    path = tmp_path / "hier.json"
    path.write_text('{"name": "r", "children": [{"name": "a", "weight": %s}, {"name": "b"}]}' % weight)
    assert main(["tree", "check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "'a'" in out


class TestCompareInputs:
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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_jobs_below_one_exits_one(exp_file, tmp_path, capsys, jobs):
    out = tmp_path / "out"
    assert main(["run", "--config", str(exp_file), "--out", str(out), "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err
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

    def test_missing_model_file_exits_one(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "nowhere" / "model.bin"
        for argv in self._commands(corpus_dir, model, tmp_path):
            assert main(argv) == 1
            assert str(model) in capsys.readouterr().err


class TestPredictionInputs:
    """A prediction field whose shape is not its subject's mask is exit 1 naming the file."""

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
