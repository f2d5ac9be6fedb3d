import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from treeseg.distances import distance_matrix
from treeseg.errors import ConfigError, ParseError
from treeseg.hierarchy import EdgeWeightScheme, assign_weights
from treeseg.synth import (
    SynthConfig,
    class_means,
    generate,
    load_corpus,
    make_folds,
    read_field,
    save_corpus,
    train_view,
    val_view,
    write_field,
)
from treeseg.losses import LossSpec
from treeseg.training import TrainConfig, fit_standardizer, l1_normalize, train

from conftest import make_random_tree, mapped_feature_files, needs_proc

SMALL = dict(n_subjects=4, height=20, width=20, channels=5, n_regions=24, seed=42)


def corpus_bytes(root) -> dict:
    """Every file under a corpus directory, by its path relative to it, to its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()}


class TestGenerate:
    def test_deterministic(self):
        a = generate(SynthConfig(**SMALL))
        b = generate(SynthConfig(**SMALL))
        for sa, sb in zip(a.subjects, b.subjects):
            assert np.array_equal(sa.features, sb.features)
            assert np.array_equal(sa.truth, sb.truth)
            assert np.array_equal(sa.mask, sb.mask)

    def test_mask_subset_of_truth(self):
        corpus = generate(SynthConfig(sparsity=0.4, **SMALL))
        for sub in corpus.subjects:
            ann = sub.mask > 0
            assert np.array_equal(sub.mask[ann], sub.truth[ann])
            assert 0 < ann.mean() < 1

    def test_truth_covers_all_classes(self):
        corpus = generate(SynthConfig(**SMALL))
        for sub in corpus.subjects:
            assert set(np.unique(sub.truth)) == set(range(1, corpus.n_classes + 1))

    def test_full_sparsity_equals_truth(self):
        corpus = generate(SynthConfig(sparsity=1.0, **SMALL))
        for sub in corpus.subjects:
            assert np.array_equal(sub.mask, sub.truth)

    def test_zero_sparsity_rejected(self):
        with pytest.raises(ConfigError):
            generate(SynthConfig(sparsity=0.0, **SMALL))

    def test_sparsity_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(sparsity=1.5, **SMALL)

    def test_too_few_regions_rejected(self):
        cfg = dict(SMALL)
        cfg["n_regions"] = 2
        with pytest.raises(ConfigError):
            generate(SynthConfig(**cfg))

    def test_held_out_never_annotated(self):
        corpus = generate(SynthConfig(held_out=(1, 3), **SMALL))
        for sub in corpus.subjects:
            assert not np.isin(sub.mask, [1, 3]).any()
            assert np.isin(sub.truth, [1, 3]).any()  # still present in truth

    def test_features_nonnegative(self):
        corpus = generate(SynthConfig(**SMALL))
        for sub in corpus.subjects:
            assert sub.features.min() >= 0.0

    def test_feature_distance_tracks_tree_distance(self):
        # Monte-Carlo over 20 seeds at the default sigma settings
        defaults = SynthConfig(**SMALL)
        rhos = []
        for seed in range(20):
            tree = make_random_tree(seed + 100, depth=3)
            means = class_means(tree, 16, defaults.sigma_between, defaults.level_decay, np.random.default_rng(seed))
            m = distance_matrix(assign_weights(tree, EdgeWeightScheme("equal")))
            iu = np.triu_indices(tree.n_leaves, k=1)
            feat_d = np.linalg.norm(means[:, None] - means[None, :], axis=-1)[iu]
            rhos.append(np.corrcoef(m[iu], feat_d)[0, 1])
        assert np.mean(rhos) > 0.5


class TestL1Normalize:
    def test_simple_pixel(self):
        assert np.array_equal(l1_normalize(np.array([[[2.0, 2.0]]])), [[[0.5, 0.5]]])

    def test_already_normalized_unchanged(self):
        x = np.array([[[0.25, 0.75]]])
        assert np.allclose(l1_normalize(x), x)

    def test_zero_vector_untouched(self):
        x = np.zeros((1, 1, 3))
        assert np.array_equal(l1_normalize(x), x)

    def test_absolute_value_policy_for_signed_input(self):
        out = l1_normalize(np.array([[[-1.0, 3.0]]]))
        assert np.allclose(out, [[[-0.25, 0.75]]])
        assert np.abs(out).sum() == 1.0

    def test_norms_are_one_or_zero(self, rng):
        x = rng.random((8, 8, 6))
        x[0, 0] = 0.0
        norms = np.abs(l1_normalize(x)).sum(axis=-1)
        assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0))

    def test_idempotent(self, rng):
        x = rng.random((5, 5, 4))
        once = l1_normalize(x)
        assert np.allclose(l1_normalize(once), once, atol=1e-15)


class TestFolds:
    def _corpus(self, n_subjects=6):
        cfg = dict(SMALL)
        cfg["n_subjects"] = n_subjects
        return generate(SynthConfig(**cfg))

    def test_single_label_fold_is_plain_kfold(self):
        corpus = self._corpus()
        folds = make_folds(corpus, 3, 1)
        assert len(folds) == 3
        assert all(f.held_out == () for f in folds)
        all_val = sorted(i for f in folds for i in f.val_subjects)
        assert all_val == list(range(6))  # disjoint cover
        for f in folds:
            assert set(f.train_subjects).isdisjoint(f.val_subjects)
            assert sorted(f.train_subjects + f.val_subjects) == list(range(6))

    def test_two_by_two_cross_product(self):
        corpus = self._corpus(4)
        folds = make_folds(corpus, 2, 2)
        assert len(folds) == 4
        assert [f.index for f in folds] == [0, 1, 2, 3]
        held = {f.held_out for f in folds}
        assert len(held) == 2  # two distinct label subsets
        subject_folds = {f.val_subjects for f in folds}
        assert len(subject_folds) == 2

    def test_held_out_class_missing_from_training_masks(self):
        corpus = self._corpus(4)
        folds = make_folds(corpus, 2, 2)
        for fold in folds:
            if not fold.held_out:
                continue
            for _, mask in train_view(corpus, fold):
                assert not np.isin(mask, fold.held_out).any()

    def test_val_view_maps_held_out_to_background(self):
        corpus = self._corpus(4)
        fold = make_folds(corpus, 2, 2)[0]
        for i, (_, truth, domain) in zip(fold.val_subjects, val_view(corpus, fold)):
            orig = corpus.subjects[i].mask
            assert np.array_equal(domain, orig > 0)
            held_pixels = np.isin(orig, fold.held_out)
            assert np.all(truth[held_pixels] == 0)
            assert np.array_equal(truth[~held_pixels], orig[~held_pixels])

    def test_views_share_the_labels_read_only_unless_the_fold_holds_classes_out(self):
        corpus = self._corpus(4)
        for fold in make_folds(corpus, 2, 1) + make_folds(corpus, 2, 2):
            train = [(i, mask) for i, (_, mask) in zip(fold.train_subjects, train_view(corpus, fold))]
            val = [(i, truth) for i, (_, truth, _) in zip(fold.val_subjects, val_view(corpus, fold))]
            for i, labels in train + val:
                assert np.shares_memory(labels, corpus.subjects[i].mask) == (not fold.held_out)
                if fold.held_out:
                    labels[0, 0] = 0  # a copy: the corpus keeps its mask
                else:
                    with pytest.raises(ValueError, match="read-only"):
                        labels[0, 0] = 0
        assert all(np.array_equal(a.mask, b.mask) for a, b in zip(corpus.subjects, self._corpus(4).subjects))

    def test_too_many_folds_rejected(self):
        corpus = self._corpus(3)
        with pytest.raises(ConfigError):
            make_folds(corpus, 4, 1)

    def test_one_subject_is_rejected(self):
        with pytest.raises(ConfigError, match="need at least 2 subjects to fold"):
            make_folds(self._corpus(1), 2, 1)


class TestDiskFormat:
    def test_field_round_trip(self, tmp_path, rng):
        feats = rng.random((7, 9, 3))
        write_field(tmp_path / "features.bin", feats)
        assert np.array_equal(read_field(tmp_path / "features.bin"), feats)
        labels = rng.integers(0, 5, (7, 9))
        write_field(tmp_path / "labels.bin", labels)
        back = read_field(tmp_path / "labels.bin")
        assert back.dtype.kind == "i"
        assert np.array_equal(back, labels)

    def test_one_channel_features_keep_their_channel_axis(self, tmp_path, rng):
        feats = rng.random((8, 8, 1))
        write_field(tmp_path / "features.bin", feats)
        assert read_field(tmp_path / "features.bin").shape == (8, 8, 1)
        corpus = generate(SynthConfig(**dict(SMALL, channels=1)))
        loaded = load_corpus(save_corpus(corpus, tmp_path / "corpus"))
        assert loaded.subjects[0].features.shape == (20, 20, 1)

    @pytest.mark.parametrize("header", [b"4 x 1\n", b"4 6\n", b"4 6 1 1\n", b"0 6 1\n", b"\xff\n"])
    def test_bad_header_is_parse_error(self, tmp_path, header):
        (tmp_path / "labels.bin").write_bytes(header + bytes(8 * 24))
        with pytest.raises(ParseError):
            read_field(tmp_path / "labels.bin")

    def test_truncated_payload_is_parse_error(self, tmp_path):
        write_field(tmp_path / "labels.bin", np.zeros((4, 6), dtype=int))
        (tmp_path / "labels.bin").write_bytes((tmp_path / "labels.bin").read_bytes()[:-3])
        with pytest.raises(ParseError):
            read_field(tmp_path / "labels.bin")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_parse_error(self, tmp_path, rng, bad):
        feats = rng.random((4, 6, 2))
        feats[1, 2, 1] = bad
        write_field(tmp_path / "features.bin", feats)
        with pytest.raises(ParseError, match="non-finite"):
            read_field(tmp_path / "features.bin")

    def test_header_line(self, tmp_path):
        write_field(tmp_path / "labels.bin", np.zeros((4, 6), dtype=int))
        with open(tmp_path / "labels.bin", "rb") as f:
            assert f.readline() == b"4 6 1\n"

    def test_corpus_round_trip(self, tmp_path):
        corpus = generate(SynthConfig(sparsity=0.5, **SMALL))
        save_corpus(corpus, tmp_path / "corpus")
        loaded = load_corpus(tmp_path / "corpus")
        assert loaded.n_classes == corpus.n_classes
        assert loaded.tree.leaf_names() == corpus.tree.leaf_names()
        for a, b in zip(corpus.subjects, loaded.subjects):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.truth, b.truth)
            assert np.array_equal(a.mask, b.mask)


class TestMappedFeatures:
    """A loaded corpus keeps labels and masks in memory; each conversion of a subject's features maps its file."""

    @pytest.fixture
    def saved(self, tmp_path):
        return save_corpus(generate(SynthConfig(**SMALL)), tmp_path / "corpus")

    def test_load_corpus_keeps_the_features_off_the_heap(self, tmp_path):
        corpus = generate(SynthConfig(n_subjects=8, height=64, width=64, channels=16, n_regions=30, seed=5))
        root = save_corpus(corpus, tmp_path / "corpus")
        feature_bytes = sum(s.features.nbytes for s in corpus.subjects)
        load_corpus(root)  # untraced first: what a first load imports is not the corpus
        tracemalloc.start()
        try:
            loaded = load_corpus(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < feature_bytes / 4, peak / feature_bytes
        assert all(np.array_equal(a.features, b.features) for a, b in zip(corpus.subjects, loaded.subjects))

    def test_loaded_features_are_read_only(self, saved):
        features = np.asanyarray(load_corpus(saved).subjects[0].features)
        assert isinstance(features, np.memmap)
        with pytest.raises(ValueError):
            features[0, 0, 0] = 1.0

    def test_a_feature_file_converts_under_numpy_1s_array_calls(self, saved, monkeypatch):
        """numpy 1's ``asarray``/``asanyarray`` take no ``copy`` and call ``__array__`` with ``dtype`` alone."""
        corpus = load_corpus(saved)
        file, want = corpus.subjects[0].features, read_field(saved / "s000" / "features.bin")
        for name in ("asarray", "asanyarray"):
            real = getattr(np, name)

            def numpy_1(a, dtype=None, order=None, *, _real=real, **kw):
                if "copy" in kw:
                    raise TypeError(f"{_real.__name__}() got an unexpected keyword argument 'copy'")
                return _real(a, dtype, order, **kw)

            monkeypatch.setattr(np, name, numpy_1)
        assert np.array_equal(corpus.subjects[0].features, want)
        mapped, single = file.__array__(), file.__array__(np.float32)
        assert isinstance(mapped, np.memmap) and not mapped.flags.writeable and np.array_equal(mapped, want)
        assert single.dtype == np.float32 and np.array_equal(single, want.astype(np.float32))
        copied = file.__array__(copy=True)
        assert copied.flags.writeable and not np.shares_memory(copied, mapped) and np.array_equal(copied, want)

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 1 has no copy=False contract")
    def test_a_feature_file_keeps_numpy_2s_copy_false_contract(self, saved):
        """``copy=False`` with another dtype raises as it does for an array; with the mapping's own it maps."""
        file = load_corpus(saved).subjects[0].features
        for array_like in (read_field(file.path), file):
            with pytest.raises(ValueError, match="Unable to avoid copy"):
                np.asarray(array_like, dtype=np.float32, copy=False)
        mapped = np.asarray(file, dtype=np.float64, copy=False)
        assert not mapped.flags.writeable and np.array_equal(mapped, read_field(file.path))

    @pytest.mark.parametrize("loaded", [False, True], ids=["generated", "loaded"])
    def test_the_views_hand_out_what_each_subject_stores(self, saved, loaded):
        corpus = load_corpus(saved) if loaded else generate(SynthConfig(**SMALL))
        for fold in make_folds(corpus, 2, 2):
            for indices, view in ((fold.train_subjects, train_view(corpus, fold)), (fold.val_subjects, val_view(corpus, fold))):
                assert len(view) == len(indices)
                assert all(v[0] is corpus.subjects[i].features for i, v in zip(indices, view))

    def test_a_loaded_corpus_saves_the_bytes_it_was_loaded_from(self, saved, tmp_path):
        save_corpus(load_corpus(saved), tmp_path / "copy")
        assert corpus_bytes(tmp_path / "copy") == corpus_bytes(saved)

    def test_a_loaded_corpus_saves_over_itself(self, saved):
        """Run in a fresh interpreter, so that a save which truncates a file it still maps
        (a bus error) fails this test and not the whole suite."""
        before = corpus_bytes(saved)
        script = "import sys\nfrom treeseg.synth import load_corpus, save_corpus\nsave_corpus(load_corpus(sys.argv[1]), sys.argv[1])\n"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script, str(saved)], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert corpus_bytes(saved) == before
        assert not list(saved.rglob("*.tmp"))

    @needs_proc
    def test_a_mapping_of_a_replaced_file_is_counted_and_a_tmp_one_is_not(self, saved):
        path = saved / "s000" / "features.bin"
        tmp = path.with_name("features.bin.tmp")
        tmp.write_bytes(path.read_bytes())
        features, copy = np.asarray(load_corpus(saved).subjects[0].features), np.memmap(tmp, mode="r")
        assert mapped_feature_files() == 1
        del copy
        os.replace(tmp, path)  # the mapping now reads "features.bin (deleted)"
        assert mapped_feature_files() == 1
        del features
        assert mapped_feature_files() == 0

    @needs_proc
    def test_each_read_maps_the_file_until_the_reader_drops_it(self, saved):
        corpus = load_corpus(saved)
        assert mapped_feature_files() == 0
        first, second = np.asarray(corpus.subjects[0].features), np.asarray(corpus.subjects[0].features)
        assert first is not second and mapped_feature_files() == 2
        del first, second
        assert mapped_feature_files() == 0
        for fold in make_folds(corpus, 2):
            for view in (train_view(corpus, fold), val_view(corpus, fold)):
                assert mapped_feature_files() == 0
                features = np.asarray(view[0][0])
                assert mapped_feature_files() == 1
                del features
        assert mapped_feature_files() == 0

    def test_the_standardizer_of_a_loaded_view_has_the_bits_of_the_read_features(self, saved):
        corpus = load_corpus(saved)
        for fold in make_folds(corpus, 2):
            files = [f for f, _ in train_view(corpus, fold)]
            read = [read_field(f.path) for f in files]
            for got, want in zip(fit_standardizer(files), fit_standardizer(read)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("preproc", ["standardize", "l1", "none"])
    def test_training_on_a_loaded_view_has_the_bits_of_training_on_the_read_features(self, saved, preproc, augment):
        corpus = load_corpus(saved)
        spec, config = LossSpec("wass", EdgeWeightScheme("hier", kappa=10.0)), TrainConfig(epochs=3, batch_size=2, augment=augment, lr=0.05)
        for fold in make_folds(corpus, 2, 2):
            view = train_view(corpus, fold)
            got = train(view, corpus.tree, spec, config, preproc)
            want = train([(read_field(f.path), m) for f, m in view], corpus.tree, spec, config, preproc)
            assert [a.tobytes() for a in got[0].arrays] == [a.tobytes() for a in want[0].arrays]
            assert got[0].preproc == want[0].preproc and got[1] == want[1]

    @pytest.mark.parametrize(
        "change, problem",
        [
            (lambda data: data[:-8], "payload of"),
            (lambda data: b"20 10 10\n" + data[data.index(b"\n") + 1 :], "it was 20x20x5 when the corpus was loaded"),
            (lambda data: b"20 x 5\n" + data[data.index(b"\n") + 1 :], "malformed field header"),
            (lambda data: b"", "malformed field header"),
        ],
        ids=["truncated", "reshaped header", "malformed header", "emptied"],
    )
    def test_a_features_file_changed_after_load_is_a_parse_error_naming_it(self, saved, change, problem):
        corpus = load_corpus(saved)
        path = saved / "s001" / "features.bin"
        path.write_bytes(change(path.read_bytes()))
        with pytest.raises(ParseError, match=problem) as err:
            np.asarray(corpus.subjects[1].features)
        assert str(path) in str(err.value)
        assert np.array_equal(corpus.subjects[0].features, read_field(saved / "s000" / "features.bin"))

    def test_a_features_file_removed_after_load_is_a_config_error_naming_it(self, saved):
        corpus = load_corpus(saved)
        (saved / "s002" / "features.bin").unlink()
        with pytest.raises(ConfigError, match="missing field file .*s002"):
            np.asarray(corpus.subjects[2].features)
