import pickle

import numpy as np
import pytest

from treeseg import losses, training
from treeseg.errors import ConfigError, DivergenceError, EmptyMaskError, ParseError, ShapeError
from treeseg.experiment import ExperimentConfig, fit
from treeseg.hierarchy import EdgeWeightScheme, parse_tree
from treeseg.losses import LossSpec, make_loss
from treeseg.seeding import substream
from treeseg.synth import SynthConfig, generate, make_folds
from treeseg.training import (
    ModelParams,
    TrainConfig,
    init_params,
    l1_normalize,
    load_model,
    predict,
    save_model,
    train,
)

from conftest import make_random_tree, wide_tree_doc

CE_SPEC = LossSpec("wass", EdgeWeightScheme("equal"), seg="ce", alpha=0.0, beta=1.0)


def two_blob_subjects(rng, n=3, side=12, d=4):
    """Linearly separable 2-class toy images."""
    subjects = []
    for _ in range(n):
        truth = rng.integers(1, 3, (side, side))
        centers = np.array([[2.0] * d, [-2.0] * d])
        feats = centers[truth - 1] + 0.2 * rng.standard_normal((side, side, d))
        subjects.append((feats, truth))
    return subjects


def test_separable_toy_reaches_low_ce():
    rng = np.random.default_rng(0)
    tree = make_random_tree(0, depth=1, branching=(2, 2))  # 2 leaves
    subjects = two_blob_subjects(rng)
    config = TrainConfig(model="linear", lr=0.05, epochs=200, seed=0)
    _, trace = train(subjects, tree, CE_SPEC, config)
    assert trace[-1] < 0.05


def test_nothing_to_train_on_is_empty_mask_error():
    tree = make_random_tree(0, depth=1, branching=(2, 2))
    config = TrainConfig(model="linear", epochs=1, seed=0)
    with pytest.raises(EmptyMaskError, match="no training subjects"):
        train([], tree, CE_SPEC, config)
    with pytest.raises(EmptyMaskError, match="training fold has no annotated pixels"):
        train([(np.ones((4, 4, 2)), np.zeros((4, 4), dtype=int))], tree, CE_SPEC, config)


@pytest.mark.parametrize("entry", ["make_loss", "train"])
@pytest.mark.parametrize(
    "semantic, seg, beta, other",
    [("wass", "ce", 0.0, "loss.beta is 0"), ("twce", "none", 0.5, "loss.seg is 'none'")],
)
def test_a_loss_with_no_term_is_config_error(entry, semantic, seg, beta, other):
    """alpha = 0 with beta = 0, or with seg = 'none', leaves no term: the spec itself is
    rejected, so neither make_loss nor train returns a loss or a trace of zeros."""
    tree = make_random_tree(0, depth=1, branching=(2, 2))
    calls = {
        "make_loss": lambda spec: make_loss(tree, spec),
        "train": lambda spec: train(two_blob_subjects(np.random.default_rng(0)), tree, spec, TrainConfig(epochs=3)),
    }
    with pytest.raises(ConfigError, match=f"^the loss has no term: loss.alpha is 0 and {other}$"):
        calls[entry](LossSpec(semantic, EdgeWeightScheme("hier", kappa=2.0), seg=seg, alpha=0.0, beta=beta))


def test_same_seed_is_bit_identical():
    corpus = generate(SynthConfig(n_subjects=4, height=16, width=16, channels=4, n_regions=24, seed=2))
    data = [(s.features, s.mask) for s in corpus.subjects]
    spec = LossSpec("twce", EdgeWeightScheme("equal"), seg="ce")
    config = TrainConfig(model="mlp", hidden=8, lr=0.01, epochs=3, seed=9, augment=True)
    pa, ta = train(data, corpus.tree, spec, config)
    pb, tb = train(data, corpus.tree, spec, config)
    assert ta == tb
    for a, b in zip(pa.arrays, pb.arrays):
        assert np.array_equal(a, b)


def test_unannotated_pixels_never_influence_parameters():
    corpus = generate(SynthConfig(n_subjects=4, height=16, width=16, channels=4, n_regions=24, sparsity=0.5, seed=4))
    data = [(s.features, s.mask) for s in corpus.subjects]
    spec = LossSpec("wass", EdgeWeightScheme("hier", kappa=10.0), seg="ce")
    config = TrainConfig(model="linear", lr=0.02, epochs=4, seed=5)
    pa, ta = train(data, corpus.tree, spec, config)

    rng = np.random.default_rng(123)
    tampered = []
    for feats, mask in data:
        feats = feats.copy()
        unann = mask == 0
        feats[unann] = rng.random((int(unann.sum()), feats.shape[-1])) * 100.0
        tampered.append((feats, mask))
    pb, tb = train(tampered, corpus.tree, spec, config)
    assert ta == tb
    for a, b in zip(pa.arrays, pb.arrays):
        assert np.array_equal(a, b)


def test_first_epoch_objective_decreases_for_every_spec():
    corpus = generate(SynthConfig(n_subjects=6, height=24, width=24, channels=8, n_regions=30, seed=6))
    data = [(s.features, s.mask) for s in corpus.subjects]
    specs = [
        LossSpec("wass", EdgeWeightScheme("hier", kappa=10.0), seg="ce"),
        LossSpec("wass", EdgeWeightScheme("equal"), seg="dice_ce"),
        LossSpec("twce", EdgeWeightScheme("hier", kappa=2.0), seg="ce"),
        LossSpec("twce", EdgeWeightScheme("equal"), seg="none", alpha=1.0, beta=0.0),
    ]
    for spec in specs:
        config = TrainConfig(model="linear", lr=0.05, epochs=2, batch_size=3, seed=7)
        _, trace = train(data, corpus.tree, spec, config)
        assert trace[1] < trace[0], spec


def one_sgd_batch(kind, hidden=8):
    """A one-step SGD run on every subject at once, and the class-major batch
    it sees: features (d, n) and codes in the epoch's subject order."""
    tree = make_random_tree(8)
    corpus = generate(SynthConfig(tree=tree, n_subjects=2, height=10, width=10, channels=3, n_regions=tree.n_leaves, sparsity=0.3, seed=8))
    data = [(s.features, s.mask) for s in corpus.subjects]
    spec = LossSpec("twce", EdgeWeightScheme("equal"), seg="ce")
    config = TrainConfig(model=kind, hidden=hidden, lr=0.1, epochs=1, batch_size=10, optimizer="sgd", seed=11)
    trained, _ = train(data, corpus.tree, spec, config)

    params = init_params(kind, 3, tree.n_leaves, hidden, substream(config.seed, "init"))
    order = substream(config.seed, "epoch", 0).permutation(len(data))
    xs, ys = [], []
    for i in order:
        feats, mask = data[i]
        keep = mask.reshape(-1) > 0
        xs.append(np.ascontiguousarray(feats.reshape(-1, 3)[keep].T))  # C-ordered rows, as train holds them
        ys.append(mask.reshape(-1)[keep])
    x, y = np.concatenate(xs, axis=1), np.concatenate(ys)
    return trained, params, x, y, make_loss(tree, spec), config.lr


def test_optimizer_consumes_exact_loss_gradient():
    # one SGD step reproduced by hand from the loss module's (C, n) gradient
    trained, params, x, y, loss_fn, lr = one_sgd_batch("linear")
    w, b = params.arrays
    _, gz = loss_fn(w.T @ x + b[:, None], y)
    assert np.array_equal(trained.arrays[0], w - lr * (x @ gz.T))
    assert np.array_equal(trained.arrays[1], b - lr * gz.sum(axis=1))


def test_mlp_step_is_backpropagation_by_hand():
    trained, params, x, y, loss_fn, lr = one_sgd_batch("mlp")
    w1, b1, w2, b2 = params.arrays
    h = np.tanh(w1.T @ x + b1[:, None])  # (hidden, n)
    _, gz = loss_fn(w2.T @ h + b2[:, None], y)
    gh = (w2 @ gz) * (1.0 - h * h)
    expect = [w1 - lr * (x @ gh.T), b1 - lr * gh.sum(axis=1), w2 - lr * (h @ gz.T), b2 - lr * gz.sum(axis=1)]
    for got, want in zip(trained.arrays, expect):
        assert np.array_equal(got, want)


def test_divergence_raises_with_epoch():
    tree = make_random_tree(9)
    corpus = generate(SynthConfig(tree=tree, n_subjects=2, height=8, width=8, channels=3, n_regions=tree.n_leaves, seed=9))
    data = [(s.features, s.mask) for s in corpus.subjects]
    # lr at the float64 ceiling: the second accumulation overflows to inf,
    # the following matmul mixes inf signs into nan and the loss goes non-finite
    config = TrainConfig(model="linear", lr=1e308, epochs=8, optimizer="sgd", seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            train(data, tree, CE_SPEC, config)
    assert err.value.epoch >= 0
    # a fold worker process sends it back pickled: the round trip keeps its epoch and text
    back = pickle.loads(pickle.dumps(err.value))
    assert (type(back), back.epoch, str(back)) == (DivergenceError, err.value.epoch, str(err.value))


def test_dice_spec_with_sparse_mask_rejected_up_front():
    tree = make_random_tree(10)
    corpus = generate(SynthConfig(tree=tree, n_subjects=2, height=8, width=8, channels=3, n_regions=tree.n_leaves, sparsity=0.5, seed=10))
    data = [(s.features, s.mask) for s in corpus.subjects]
    spec = LossSpec("wass", EdgeWeightScheme("equal"), seg="dice_ce")
    with pytest.raises(ConfigError):
        train(data, tree, spec, TrainConfig())



@pytest.mark.parametrize("preproc", ["zscore", "L1", None])
def test_unknown_preproc_rejected_up_front(preproc):
    data = [(np.ones((2, 2, 3)), np.ones((2, 2), dtype=int))]
    with pytest.raises(ConfigError, match="preproc must be one of"):
        train(data, make_random_tree(10), CE_SPEC, TrainConfig(epochs=1), preproc)

class TestPredict:
    def test_zero_weights_give_uniform(self):
        params = ModelParams("linear", [np.zeros((4, 5)), np.zeros(5)])
        probs = predict(params, np.random.default_rng(0).random((3, 3, 4)))
        assert np.abs(probs - 0.2).max() <= 1e-12

    def test_shift_invariance_of_argmax(self, rng):
        params = init_params("linear", 4, 6, 8, rng)
        feats = rng.random((5, 5, 4))
        probs = predict(params, feats)
        shifted = ModelParams("linear", [params.arrays[0].copy(), params.arrays[1] + 7.5])
        probs2 = predict(shifted, feats)
        assert np.array_equal(np.argmax(probs, -1), np.argmax(probs2, -1))

    def test_rows_sum_to_one(self, rng):
        params = init_params("mlp", 4, 6, 8, rng)
        probs = predict(params, rng.random((7, 7, 4)))
        assert np.abs(probs.sum(-1) - 1.0).max() <= 1e-9

    def test_shape_mismatch(self, rng):
        params = init_params("linear", 4, 6, 8, rng)
        with pytest.raises(ShapeError):
            predict(params, rng.random((5, 5, 3)))


class TestModelIO:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_round_trip(self, tmp_path, rng, kind):
        params = init_params(kind, 5, 7, 4, rng)
        save_model(params, tmp_path / "model.bin")
        loaded = load_model(tmp_path / "model.bin")
        assert loaded.kind == kind
        for a, b in zip(params.arrays, loaded.arrays):
            assert np.array_equal(a, b)

    def test_round_trip_keeps_preproc(self, tmp_path, rng):
        params = init_params("linear", 5, 7, 4, rng)
        params.preproc = "l1"
        save_model(params, tmp_path / "model.bin")
        assert load_model(tmp_path / "model.bin").preproc == "l1"

    def test_truncated_payload_is_shape_error(self, tmp_path, rng):
        save_model(init_params("mlp", 5, 7, 4, rng), tmp_path / "model.bin")
        data = (tmp_path / "model.bin").read_bytes()
        for cut in (3, 8):
            (tmp_path / "cut.bin").write_bytes(data[:-cut])
            with pytest.raises(ShapeError):
                load_model(tmp_path / "cut.bin")

    def test_dims_whose_product_wraps_in_int64_are_shape_error(self, tmp_path):
        # 2**62 * 4 is 0 in int64, so the 4-float payload would have matched
        (tmp_path / "wrap.bin").write_bytes(b"linear 4611686018427387904 4 none\n" + np.zeros(4).tobytes())
        with pytest.raises(ShapeError):
            load_model(tmp_path / "wrap.bin")

    @pytest.mark.parametrize("header", [b"linear 5 7\n", b"linear 5 7 standardize\n", b"mlp 5 7 4\n", b"linear 5 x none\n", b"\n"])
    def test_bad_header_is_parse_error(self, tmp_path, rng, header):
        save_model(init_params("linear", 5, 7, 4, rng), tmp_path / "model.bin")
        payload = (tmp_path / "model.bin").read_bytes().split(b"\n", 1)[1]
        (tmp_path / "bad.bin").write_bytes(header + payload)
        with pytest.raises(ParseError):
            load_model(tmp_path / "bad.bin")


def test_l1_model_normalizes_raw_features(rng):
    params = init_params("linear", 4, 6, 8, rng)
    feats = rng.random((5, 5, 4)) * 7.0
    plain = predict(params, l1_normalize(feats))
    params.preproc = "l1"
    assert np.array_equal(predict(params, feats), plain)


# --- training in column tiles -------------------------------------------------
# Each batch runs forward, loss and backward one column tile at a time and
# sums the parameter gradients over its tiles, so a batch's (C, n) logits
# never exist whole. Each tile's logit gradient is that of the batch mean:
# given the same logits (at these sizes a tile's product has the whole
# batch's bits), it has the bits of the batch's one-tile gradient, and only
# the sum of the tiles' parameter gradients rounds in another order.


BACKWARD = training._backward


def tiled_training_run(monkeypatch, data, tree, spec, config, tile_bytes):
    """(params, trace, the logit gradient of every tile in order) of one ``train`` call."""
    monkeypatch.setattr(losses, "TILE_BYTES", tile_bytes)
    grads = []
    monkeypatch.setattr(training, "_backward", lambda p, x, h, g: grads.append(g.copy()) or BACKWARD(p, x, h, g))
    params, trace = train(data, tree, spec, config)
    return params, trace, grads


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("semantic", ["wass", "twce"])
def test_tiled_training_matches_one_tile_per_batch(monkeypatch, kind, semantic):
    """One epoch of one dense batch of 1024 pixels, in eleven tiles of at most 100 columns."""
    corpus = generate(SynthConfig(n_subjects=4, height=16, width=16, channels=4, n_regions=24, seed=6))
    data, tree = [(s.features, s.mask) for s in corpus.subjects], corpus.tree
    spec = LossSpec(semantic, EdgeWeightScheme("hier", kappa=2.0), seg="ce")
    config = TrainConfig(model=kind, hidden=8, lr=0.01, epochs=1, batch_size=4, seed=3)
    whole = tiled_training_run(monkeypatch, data, tree, spec, config, 1 << 40)
    tiled = tiled_training_run(monkeypatch, data, tree, spec, config, 8 * tree.n_leaves * 100)
    assert whole[1] == tiled[1]  # the train_trace, to the bit
    assert [g.shape[1] for g in whole[2]] == [1024]
    assert [g.shape[1] for g in tiled[2]] == [100] * 10 + [24]
    assert np.array_equal(np.concatenate(tiled[2], axis=1), whole[2][0])
    for a, b in zip(whole[0].arrays, tiled[0].arrays):
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=0)


def test_a_tiled_training_step_allocates_less_than_half_its_logits(monkeypatch):
    """One training step on a C = 99 batch of eight tiles: the tiles, not a (C, n) logits array."""
    import tracemalloc

    tree = parse_tree(wide_tree_doc())
    rng = np.random.default_rng(7)
    monkeypatch.setattr(losses, "TILE_BYTES", 8 * tree.n_leaves * 512)
    features = rng.standard_normal((64, 64, 4))
    mask = rng.integers(1, tree.n_leaves + 1, size=(64, 64))
    logits_bytes = 8 * tree.n_leaves * mask.size
    assert mask.size == 8 * losses._tile_width(tree.n_leaves)
    spec = LossSpec("wass", EdgeWeightScheme("hier", kappa=2.0), seg="ce")
    tracemalloc.start()
    try:
        _, trace = train([(features, mask)], tree, spec, TrainConfig(epochs=1, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 1
    assert peak < logits_bytes / 2, peak / logits_bytes


# --- one copy of the training features -----------------------------------------
# ``train`` preprocesses the annotated pixels it keeps, and each tile reads its
# columns from the batch's images, a view inside one image: no preprocessed
# image list and no batch concatenation exist beside that one copy.


def test_columns_are_a_view_inside_one_image_and_joined_across_images():
    rng = np.random.default_rng(4)
    parts = [rng.standard_normal((3, n)) for n in (5, 0, 4, 1)]
    whole = np.concatenate(parts, axis=1)
    for lo, hi, owner in ((0, 5, 0), (1, 4, 0), (5, 9, 2), (6, 8, 2), (9, 10, 3)):
        got = training._columns(parts, lo, hi)
        assert np.shares_memory(got, parts[owner])
        assert np.array_equal(got, whole[:, lo:hi])
    for lo, hi in ((0, 10), (4, 6), (3, 10), (8, 10)):
        got = training._columns(parts, lo, hi)
        assert not any(np.shares_memory(got, p) for p in parts)
        assert np.array_equal(got, whole[:, lo:hi])


@pytest.mark.parametrize("preproc", ["standardize", "l1", "none"])
def test_fit_holds_one_copy_of_the_training_features(monkeypatch, preproc):
    """fit at C = 99 on one dense batch of four 64x64 subjects of 16 channels, in tiles of
    512 columns: its peak stays below 1.5x the fold's annotated feature bytes plus four
    tiles. A preprocessed copy of every image and a concatenated batch beside the kept
    annotated pixels would be three copies."""
    import tracemalloc

    tree = parse_tree(wide_tree_doc())
    corpus = generate(SynthConfig(tree=tree, n_subjects=8, height=64, width=64, channels=16, n_regions=128, seed=2))
    fold = make_folds(corpus, 2)[0]
    spec = LossSpec("wass", EdgeWeightScheme("hier", kappa=10.0))
    config = ExperimentConfig(loss=spec, train=TrainConfig(epochs=1), corpus_path="unused", preproc=preproc)
    monkeypatch.setattr(losses, "TILE_BYTES", 8 * tree.n_leaves * 512)
    feature_bytes = sum(8 * 16 * np.count_nonzero(corpus.subjects[i].mask) for i in fold.train_subjects)
    assert feature_bytes == 8 * 16 * 4 * 64 * 64
    fit(corpus, fold, config)  # once untraced first: the modules fit imports on first use are not its arrays
    tracemalloc.start()
    try:
        fit(corpus, fold, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * feature_bytes + 4 * losses.TILE_BYTES, peak / feature_bytes


# --- training buffers, allocated once per call ------------------------------------
# ``train`` sizes its tile buffers (features, logits, the loss kernel's scratch)
# to the fold's widest tile once, and every step writes into them; the
# standardizer streams the images through one image-sized buffer.


def counted_subjects(rng, count, side, channels, annotated, n_classes):
    """Subjects with ``annotated`` annotated pixels each, so every batch is equally wide."""
    subjects = []
    for _ in range(count):
        mask = np.zeros(side * side, dtype=np.int64)
        mask[rng.permutation(side * side)[:annotated]] = rng.integers(1, n_classes + 1, size=annotated)
        subjects.append((rng.standard_normal((side, side, channels)), mask.reshape(side, side)))
    return subjects


@pytest.mark.parametrize("semantic, seg, annotated", [("wass", "ce", 600), ("twce", "ce", 600), ("wass", "dice_ce", 32 * 32)], ids=["wass", "twce", "wass-dice_ce"])
def test_training_steps_after_the_first_allocate_no_tile_sized_array(monkeypatch, semantic, seg, annotated):
    """C = 21, linear, 32 channels, batches of five images of 600 annotated pixels, or dense
    32x32 ones with a Dice term (one tile that spans five images): from the second step on,
    the peak above the step's start stays below a (C, T) array, the smaller of the tile's
    logits and features. It reads 0.29 (wass), 0.74 (twce) and 0.24 (wass with Dice) of one;
    a step that allocated its features, logits and kernel table read 3.8 and 5.1, and one
    that allocated its Dice term's tables 3.15."""
    import tracemalloc

    tree = make_random_tree(7)
    rng = np.random.default_rng(9)
    channels, width = 32, 5 * annotated
    subjects = counted_subjects(rng, 10, 32, channels, annotated, tree.n_leaves)
    spec = LossSpec(semantic, EdgeWeightScheme("hier", kappa=2.0), seg=seg)
    steps = []

    class MarkedTerms(losses.Terms):
        """A batch's terms, made as its step begins: the second marks where the peak is read from."""

        def __init__(self, n):
            assert n == width
            steps.append(tracemalloc.get_traced_memory()[0])
            if len(steps) == 2:
                tracemalloc.reset_peak()
            super().__init__(n)

    monkeypatch.setattr(training, "Terms", MarkedTerms)
    tracemalloc.start()
    try:
        train(subjects, tree, spec, TrainConfig(epochs=3, batch_size=5, seed=2), preproc="standardize")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(steps) == 6 and tree.n_leaves == 21 < channels
    assert peak - steps[1] < 8 * tree.n_leaves * width, (peak - steps[1]) / (8 * tree.n_leaves * width)


def test_standardizer_peaks_below_two_images():
    """Eight 64x64 images of 16 channels: the streamed fit holds one image-sized buffer and
    peaks 1.13 images above its entry; the concatenation held two copies of all eight (16.1)."""
    import tracemalloc

    rng = np.random.default_rng(12)
    images = [rng.standard_normal((64, 64, 16)) for _ in range(8)]
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        training.fit_standardizer(images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry < 2 * images[0].nbytes, (peak - entry) / images[0].nbytes


def test_threads_train_the_bits_of_one_after_the_other():
    """Each call owns its buffers: three folds trained at once on three threads, switching
    every 10 us, give the parameters trained in turn."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    tree = make_random_tree(7)
    rng = np.random.default_rng(13)
    subjects = counted_subjects(rng, 8, 24, 8, 300, tree.n_leaves)
    spec = LossSpec("twce", EdgeWeightScheme("hier", kappa=2.0))
    runs = [(subjects[:5], 2, 1), (subjects[3:], 3, 2), (subjects[1:7], 4, 3)]
    configs = [(data, TrainConfig(epochs=30, batch_size=batch, seed=seed)) for data, batch, seed in runs]
    in_turn = [train(data, tree, spec, config, preproc="standardize") for data, config in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(train, data, tree, spec, config, "standardize") for data, config in configs]
            at_once = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (params, trace), (ref_params, ref_trace) in zip(at_once, in_turn, strict=True):
        assert trace == ref_trace
        for got, ref in zip(params.arrays, ref_params.arrays, strict=True):
            assert got.tobytes() == ref.tobytes()
