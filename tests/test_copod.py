import numpy as np
import pytest

from dosfl.copod import copod_scores, dos_outlier_scores, ecdf_left, ecdf_right, skew_sign
from dosfl.errors import ConfigError, NumericError
from dosfl.params import DistancePair, pairwise_distances, softmax_weights

from .oracles import copod_scores_oracle


def test_ecdf_left_examples():
    np.testing.assert_allclose(ecdf_left([1, 2, 3]), [1 / 3, 2 / 3, 1.0])
    np.testing.assert_allclose(ecdf_left([5, 5, 5]), [1.0, 1.0, 1.0])
    np.testing.assert_allclose(ecdf_left([3, 1, 2, 2]), [1.0, 0.25, 0.75, 0.75])


def test_ecdf_right_examples():
    np.testing.assert_allclose(ecdf_right([1, 2, 3]), [1.0, 2 / 3, 1 / 3])
    np.testing.assert_allclose(ecdf_right([5, 5, 5]), [1.0, 1.0, 1.0])


def test_ecdf_right_is_left_of_negated():
    rng = np.random.default_rng(0)
    for _ in range(50):
        col = rng.standard_normal(rng.integers(1, 12))
        np.testing.assert_allclose(ecdf_right(col), ecdf_left(-col))


def test_ecdf_values_at_least_one_over_n():
    rng = np.random.default_rng(1)
    for _ in range(30):
        col = np.round(rng.standard_normal(10), 1)  # rounding forces ties
        for f in (ecdf_left, ecdf_right):
            vals = f(col)
            assert np.all(vals >= 1 / len(col) - 1e-15)
            assert np.all(vals <= 1.0)


def test_skew_sign():
    assert skew_sign([1, 2, 9]) == 1
    assert skew_sign([-9, -2, -1]) == -1
    assert skew_sign([1, 2, 3]) == 0
    assert skew_sign([5, 5, 5]) == 0
    assert skew_sign([0.1, 0.1, 0.1]) == 0  # the float mean is not exactly 0.1


def test_skew_sign_is_scale_free():
    # the 1e-12 threshold applies to the standardised third moment, so a
    # tiny-scale column keeps its sign
    assert skew_sign(1e-6 * np.array([1, 2, 9])) == 1
    assert skew_sign(-1e-6 * np.array([1, 2, 9])) == -1
    assert skew_sign(1e-200 * np.array([1, 2, 9])) == 1
    assert skew_sign(1e200 * np.array([1, 2, 9])) == 1


def test_copod_identical_rows_score_zero():
    m = np.tile([2.0, 5.0, -1.0], (4, 1))
    np.testing.assert_allclose(copod_scores(m), np.zeros(4))


def test_copod_single_column_outlier():
    m = np.array([[0.0], [0.0], [0.0], [10.0]])
    scores = copod_scores(m)
    np.testing.assert_allclose(scores, copod_scores_oracle(m))
    assert scores[3] > scores[:3].max()


def test_copod_per_dimension_fusion_closed_form():
    # right-skewed column: L = [ln(4/3)]*3 + [0], R = [0]*3 + [ln 4]; each
    # cell scores max(R, (L + R) / 2), so the short-tail rows count half
    m = np.array([[0.0], [0.0], [0.0], [10.0]])
    expected = [np.log(4 / 3) / 2] * 3 + [np.log(4)]
    np.testing.assert_allclose(copod_scores(m), expected, rtol=0, atol=1e-15)


def test_copod_monotone_transform_invariance():
    # positive-affine per-column maps: ranks and the skewness sign both
    # survive, so the L/R tables are identical (nonlinear monotone maps may flip
    # a column's skew sign and legitimately change the skew channel)
    rng = np.random.default_rng(2)
    for _ in range(25):
        m = rng.standard_normal((6, 4))
        t = m.copy()
        for j in range(4):
            t[:, j] = float(rng.uniform(0.1, 5.0)) * t[:, j] + float(rng.uniform(-3, 3))
        np.testing.assert_allclose(copod_scores(t), copod_scores(m), atol=1e-12)


def test_copod_row_permutation_equivariance():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((7, 3))
    perm = rng.permutation(7)
    np.testing.assert_allclose(copod_scores(m[perm]), copod_scores(m)[perm])


def test_copod_score_bounds():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 6))
        scores = copod_scores(rng.standard_normal((n, d)))
        assert np.all(scores >= 0.0)
        assert np.all(scores <= d * np.log(n) + 1e-9)


def test_copod_matches_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 6))
        m = np.round(rng.standard_normal((n, d)) * 3, 1)  # ties included
        np.testing.assert_allclose(copod_scores(m), copod_scores_oracle(m), atol=1e-9)


def test_copod_rejects_bad_input():
    with pytest.raises(ConfigError):
        copod_scores(np.zeros((1, 3)))
    with pytest.raises(NumericError):
        copod_scores(np.array([[1.0, np.nan], [0.0, 2.0]]))


def test_dos_scores_average_both_matrices():
    rng = np.random.default_rng(6)
    dp = pairwise_distances(rng.standard_normal((5, 4)))
    expected = (copod_scores(dp.euclidean) + copod_scores(dp.cosine)) / 2.0
    np.testing.assert_allclose(dos_outlier_scores(dp), expected)


def test_dos_zero_distances_give_uniform_weights():
    dp = DistancePair(euclidean=np.zeros((3, 3)), cosine=np.zeros((3, 3)))
    scores = dos_outlier_scores(dp)
    np.testing.assert_allclose(scores, np.zeros(3))
    np.testing.assert_allclose(softmax_weights(scores), [1 / 3] * 3)


def test_dos_far_client_scores_highest():
    # tight cluster of four plus one client ~100 away in euclidean terms
    rng = np.random.default_rng(7)
    base = np.ones(6)
    cluster = [base + 0.01 * rng.standard_normal(6) for _ in range(4)]
    far = base + 100.0 * rng.standard_normal(6) / np.sqrt(6)
    scores = dos_outlier_scores(pairwise_distances(np.array(cluster + [far])))
    assert scores[4] > scores[:4].max()


def test_dos_invariant_under_global_rescaling():
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((6, 5))
    base = dos_outlier_scores(pairwise_distances(mat))
    for alpha in (0.25, 3.0, 117.0):
        scores = dos_outlier_scores(pairwise_distances(alpha * mat))
        np.testing.assert_allclose(scores, base, atol=1e-12)
        np.testing.assert_allclose(softmax_weights(scores), softmax_weights(base), atol=1e-12)


def test_dos_weights_invariant_under_tiny_global_rescaling():
    # tiny-scale distance columns keep their skewness sign
    rng = np.random.default_rng(9)
    for _ in range(20):
        mat = rng.standard_normal((6, 5))
        base = softmax_weights(dos_outlier_scores(pairwise_distances(mat)))
        tiny = softmax_weights(dos_outlier_scores(pairwise_distances(1e-4 * mat)))
        np.testing.assert_allclose(tiny, base, atol=1e-12)
