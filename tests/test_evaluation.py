import numpy as np
import pytest

from treeseg.errors import ConfigError, EmptyEvalError, LabelError, ShapeError
from treeseg.evaluation import (
    confusion,
    dice_scores,
    evaluate_level,
    evaluate_levels,
    level_classes,
    level_counts,
    map_to_level,
    nsd_scores,
    ovr_scores,
)

from conftest import make_random_tree


class TestDice:
    def test_perfect_prediction(self):
        truth = np.array([1, 1, 2, 3, 2])
        assert np.array_equal(dice_scores(truth, truth, [1, 2, 3]), [1.0, 1.0, 1.0])

    def test_disjoint_regions(self):
        pred = np.array([1, 1, 2, 2])
        truth = np.array([2, 2, 1, 1])
        assert np.array_equal(dice_scores(pred, truth, [1, 2]), [0.0, 0.0])

    def test_half_overlap_squares(self):
        # class 1 occupies cols 0-1 in pred and cols 1-2 in truth on a 2x3 grid
        pred = np.zeros((2, 3), dtype=int)
        truth = np.zeros((2, 3), dtype=int)
        pred[:, :2] = 1
        truth[:, 1:] = 1
        pred[pred == 0] = 2
        truth[truth == 0] = 2
        scores = dice_scores(pred, truth, [1])
        assert scores[0] == 2 * 2 / (4 + 4)

    def test_absent_class_excluded(self):
        pred = np.array([1, 1])
        truth = np.array([1, 1])
        scores = dice_scores(pred, truth, [1, 9])
        assert scores[0] == 1.0
        assert np.isnan(scores[1])

    def test_empty_domain_raises(self):
        with pytest.raises(EmptyEvalError):
            dice_scores(np.array([1]), np.array([0]), [1])

    def test_unannotated_pixels_ignored(self):
        pred = np.array([1, 2, 2, 1])
        truth = np.array([1, 0, 0, 1])
        base = dice_scores(pred, truth, [1, 2])
        relabeled = pred.copy()
        relabeled[1:3] = 7  # garbage on unannotated pixels only (class 7 unseen)
        assert np.array_equal(
            dice_scores(relabeled, truth, [1, 2])[~np.isnan(base)], base[~np.isnan(base)], equal_nan=True
        )
        assert base[0] == 1.0


class TestNSD:
    @pytest.mark.parametrize(
        "pred_shape, tolerance, message",
        [((4, 4), float("nan"), "tolerance must be >= 0, got nan"), ((4, 4), -1.0, "tolerance must be >= 0, got -1.0"), ((4, 5), 1.0, "same spatial shape")],
    )
    def test_bad_tolerance_or_shapes_are_config_errors(self, pred_shape, tolerance, message):
        with pytest.raises(ConfigError, match=message):
            nsd_scores(np.ones(pred_shape, dtype=int), np.ones((4, 4), dtype=int), [1], tolerance)

    def test_identical_masks_score_one(self):
        img = np.zeros((12, 12), dtype=int)
        img[3:8, 2:9] = 1
        img[img == 0] = 2
        for tol in (0.0, 1.0, 3.0):
            assert np.array_equal(nsd_scores(img, img, [1, 2], tol), [1.0, 1.0])

    def test_offset_by_tolerance_is_one(self):
        a = np.zeros((16, 16), dtype=int)
        b = np.zeros((16, 16), dtype=int)
        a[4:9, 4:12] = 1
        b[5:10, 4:12] = 1  # shifted down by exactly 1 pixel
        assert nsd_scores(a, b, [1], tolerance=1.0)[0] == 1.0

    def test_offset_beyond_tolerance_drops(self):
        a = np.zeros((16, 16), dtype=int)
        b = np.zeros((16, 16), dtype=int)
        a[4:9, 4:12] = 1
        b[6:11, 4:12] = 1  # shifted by tolerance + 1
        assert nsd_scores(a, b, [1], tolerance=1.0)[0] < 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = (rng.random((20, 20)) > 0.5).astype(int) + 1
        b = (rng.random((20, 20)) > 0.5).astype(int) + 1
        fwd = nsd_scores(a, b, [1, 2], tolerance=1.5)
        bwd = nsd_scores(b, a, [1, 2], tolerance=1.5)
        assert np.allclose(fwd, bwd)

    def test_one_sided_absence_scores_zero(self):
        a = np.ones((8, 8), dtype=int)
        b = np.ones((8, 8), dtype=int)
        a[2:5, 2:5] = 2
        scores = nsd_scores(a, b, [2, 3], tolerance=1.0)
        assert scores[0] == 0.0  # class 2 only in a
        assert np.isnan(scores[1])  # class 3 nowhere


class TestOvr:
    def test_perfect_prediction(self):
        truth = np.array([1, 2, 2, 3])
        scores = ovr_scores(truth, truth, [1, 2, 3])
        for key in ("tpr", "bacc", "f1"):
            assert np.array_equal(scores[key], [1.0, 1.0, 1.0])

    def test_all_background_prediction(self):
        truth = np.array([1, 2, 2, 3])
        pred = np.zeros(4, dtype=int)
        scores = ovr_scores(pred, truth, [1, 2, 3])
        assert np.array_equal(scores["tpr"], [0.0, 0.0, 0.0])
        assert np.array_equal(scores["tnr"], [1.0, 1.0, 1.0])  # no false positives
        assert np.array_equal(scores["bacc"], [0.5, 0.5, 0.5])

    def test_hand_four_pixel_case(self):
        # class 1: TP=1 (pix0), FN=1 (pix1 predicted 2), FP=1 (pix3)
        # F1 = 2*1 / (2*1 + 1 + 1) = 0.5; TPR = 1/2; TNR = 1/2
        pred = np.array([1, 2, 2, 1])
        truth = np.array([1, 1, 2, 2])
        scores = ovr_scores(pred, truth, [1])
        assert scores["tpr"][0] == 0.5
        assert scores["tnr"][0] == 0.5
        assert scores["bacc"][0] == 0.5
        assert scores["f1"][0] == 0.5

    def test_zero_positive_class_excluded(self):
        pred = np.array([1, 1])
        truth = np.array([1, 1])
        scores = ovr_scores(pred, truth, [1, 2])
        assert np.isnan(scores["f1"][1])

    def test_dice_equals_f1_pointwise(self):
        rng = np.random.default_rng(4)
        pred = rng.integers(0, 4, 200)
        truth = rng.integers(1, 4, 200)
        classes = [1, 2, 3]
        d = dice_scores(pred, truth, classes)
        f = ovr_scores(pred, truth, classes)["f1"]
        assert np.abs(d - f).max() <= 1e-12

    def test_dice_is_f1_to_the_bit_where_the_class_has_positives(self):
        """Elsewhere F1 is NaN and Dice is 0 if the class is predicted on the domain, else NaN."""
        rng = np.random.default_rng(12)
        for _ in range(200):
            n, m = int(rng.integers(1, 40)), int(rng.integers(1, 6))
            pred, truth = rng.integers(0, m + 2, n), rng.integers(0, m + 2, n)
            domain = rng.random(n) < 0.8
            if not domain.any():
                continue
            classes = sorted(rng.choice(np.arange(1, m + 2), size=m, replace=False).tolist())
            d = dice_scores(pred, truth, classes, domain)
            f = ovr_scores(pred, truth, classes, domain)["f1"]
            for i, c in enumerate(classes):
                if np.any(domain & (truth == c)):
                    assert d[i] == f[i]
                else:
                    assert np.isnan(f[i])
                    assert d[i] == 0.0 if np.any(domain & (pred == c)) else np.isnan(d[i])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pred = rng.integers(0, 4, 100)
        truth = rng.integers(0, 4, 100)
        perm = rng.permutation(100)
        a = ovr_scores(pred, truth, [1, 2, 3])
        b = ovr_scores(pred[perm], truth[perm], [1, 2, 3])
        for key in a:
            assert np.array_equal(a[key], b[key], equal_nan=True)


class TestConfusion:
    def test_perfect_predictor_is_identity(self):
        truth = np.array([1, 2, 3, 1, 2, 3])
        tensor = confusion([truth], [truth], [1, 2, 3])
        assert np.array_equal(tensor.averaged, np.eye(3))

    def test_raw_counts_row_sums_match_annotations(self):
        rng = np.random.default_rng(6)
        truth = rng.integers(1, 4, 50)
        pred = rng.integers(1, 4, 50)
        tensor = confusion([pred], [truth], [1, 2, 3])
        for i, c in enumerate([1, 2, 3]):
            assert tensor.per_fold[0, i].sum() == np.sum(truth == c)

    def test_uniform_random_rows_near_uniform(self):
        m, n = 4, 40_000
        rng = np.random.default_rng(0)
        truth = rng.integers(1, m + 1, n)
        pred = rng.integers(1, m + 1, n)
        tensor = confusion([pred], [truth], list(range(1, m + 1)))
        row_counts = tensor.per_fold[0].sum(axis=1, keepdims=True)
        sigma = np.sqrt((1 / m) * (1 - 1 / m) / row_counts)
        assert np.abs(tensor.averaged - 1 / m).max() <= 3 * sigma.min()

    def test_two_fold_hand_average(self):
        # fold 1: class1 row counts (2, 0) -> (1, 0); fold 2: (1, 1) -> (.5, .5)
        p1, t1 = np.array([1, 1]), np.array([1, 1])
        p2, t2 = np.array([1, 2]), np.array([1, 1])
        tensor = confusion([p1, p2], [t1, t2], [1, 2])
        assert np.allclose(tensor.averaged[0], [0.75, 0.25])
        assert np.all(np.isnan(tensor.averaged[1]))  # class 2 never annotated

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        folds_p = [rng.integers(0, 4, 60) for _ in range(3)]
        folds_t = [rng.integers(1, 4, 60) for _ in range(3)]
        tensor = confusion(folds_p, folds_t, [1, 2, 3], include_background=True)
        sums = np.nansum(tensor.averaged, axis=1)
        supported = ~np.all(np.isnan(tensor.averaged), axis=1)
        assert np.abs(sums[supported] - 1.0).max() <= 1e-12

    def test_one_truth_per_prediction_fold(self):
        with pytest.raises(ConfigError, match="need one truth field per prediction fold"):
            confusion([np.array([1])], [np.array([1]), np.array([1])], [1])

    def test_background_row_and_column(self):
        pred = np.array([0, 1, 2])
        truth = np.array([1, 1, 0])
        dom = np.ones(3, dtype=bool)
        tensor = confusion([pred], [truth], [1, 2], domains=[dom], include_background=True)
        assert tensor.classes == [1, 2, 0]
        assert tensor.per_fold[0][0, 2] == 1  # truth 1 predicted background
        assert tensor.per_fold[0][2, 1] == 1  # pseudo-background predicted class 2


@pytest.mark.parametrize(
    "score, sizes",
    [
        (lambda t: dice_scores(np.array([1, 2]), np.array([1]), [1, 2]), "2, 1 and 1"),
        (lambda t: ovr_scores(np.array([1]), np.array([1, 2]), [1, 2]), "1, 2 and 2"),
        (lambda t: evaluate_level(t, np.array([1, 2]), np.array([1, 2]), 0, domain=np.ones(3, dtype=bool)), "2, 2 and 3"),
        (lambda t: confusion([np.array([1, 2])], [np.array([1])], [1, 2]), "2, 1 and 1"),
    ],
    ids=["dice_scores", "ovr_scores", "evaluate_level", "confusion"],
)
def test_pixel_counts_that_differ_are_shape_errors(score, sizes):
    with pytest.raises(ShapeError, match=f"prediction, truth and domain differ in size: {sizes} pixels"):
        score(make_random_tree(9))


class TestEvaluateLevel:
    def test_leaf_codes_outside_the_tree_are_label_errors(self):
        t = make_random_tree(9)
        for bad in (-1, t.n_leaves + 1):
            with pytest.raises(LabelError, match=f"leaf codes must lie in 0..{t.n_leaves}"):
                map_to_level(t, np.array([1, bad]), 0)

    def test_level_mapping_and_report(self):
        t = make_random_tree(9)
        rng = np.random.default_rng(9)
        truth = rng.integers(1, t.n_leaves + 1, (10, 10))
        rep_leaf = evaluate_level(t, truth, truth, 0)
        assert rep_leaf.means["dice"] == 1.0
        rep_top = evaluate_level(t, truth, truth, t.levels - 1)
        assert rep_top.means["f1"] == 1.0
        assert all(c - 1 in t.children(t.root) for c in rep_top.classes)

    def test_the_report_reads_its_level_counts(self):
        """Dice and the one-vs-rest rates of a level are those of the public functions on
        the mapped codes, and the report carries the level's count table."""
        t = make_random_tree(12, ragged=True)
        rng = np.random.default_rng(12)
        truth = rng.integers(0, t.n_leaves + 1, (12, 12))
        pred = rng.integers(0, t.n_leaves + 1, (12, 12))
        for k in range(t.levels):
            rep = evaluate_level(t, pred, truth, k)
            pred_k, truth_k, classes = map_to_level(t, pred, k), map_to_level(t, truth, k), level_classes(t, k)
            ovr = ovr_scores(pred_k, truth_k, classes)
            assert np.array_equal(rep.dice, dice_scores(pred_k, truth_k, classes), equal_nan=True)
            for key in ("tpr", "bacc", "f1"):
                assert np.array_equal(getattr(rep, key), ovr[key], equal_nan=True)
            assert np.array_equal(rep.counts, level_counts(t, pred, truth, k))
            assert "counts" not in rep.to_dict()

    def test_wrong_leaf_right_subtree_scores_at_top(self):
        t = make_random_tree(10)
        top = t.levels - 1
        # pick two leaves under the same root child
        for child in t.children(t.root):
            leaves = t.leaves_under(child)
            if len(leaves) >= 2:
                a, b = leaves[0], leaves[1]
                break
        truth = np.full(20, a + 1)
        pred = np.full(20, b + 1)
        assert evaluate_level(t, pred, truth, 0).means["dice"] == 0.0
        rep_top = evaluate_level(t, pred, truth, top)
        idx = rep_top.classes.index(int(map_to_level(t, np.array([a + 1]), top)[0]))
        assert rep_top.dice[idx] == 1.0

    def test_nsd_only_for_dense_spatial(self):
        t = make_random_tree(11)
        truth = np.ones((6, 6), dtype=int)
        truth[3:, :] = 2
        rep = evaluate_level(t, truth, truth, 0)
        assert rep.nsd is None
        rep = evaluate_levels(t, [truth], [truth], [truth > 0], [0], 1.0)[0]
        assert rep.nsd is not None and rep.nsd_tolerance == 1.0
        sparse = truth.copy()
        sparse[0, 0] = 0
        rep2 = evaluate_levels(t, [truth], [sparse], [truth > 0], [0], 1.0)[0]
        assert rep2.nsd is None and rep2.nsd_tolerance is None
