import tracemalloc
import warnings

import numpy as np
import pytest

from dosfl.aggregators import aggregate_dos
from dosfl.copod import _neg_log_table, copod_scores
from dosfl.errors import ConfigError, NumericError
from dosfl.params import pairwise_distances

from .oracles import copod_scores_oracle


def test_copod_identical_rows_score_zero():
    # [0.1, 0.1, 0.1]: the float mean of a constant column is not exactly 0.1
    for row in ([2.0, 5.0, -1.0], [0.1, 0.1, 0.1]):
        np.testing.assert_allclose(copod_scores(np.tile(row, (4, 1))), np.zeros(4))
    np.testing.assert_allclose(copod_scores([[0.1], [0.1], [0.1]]), np.zeros(3))


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


def test_copod_tie_example_closed_form():
    # [3, 1, 2, 2]: left ECDF [1, 1/4, 3/4, 3/4] and right ECDF
    # [1/4, 1, 3/4, 3/4], the tied 2s each counting both; the third moment
    # is 0, so each cell scores L + R
    m = np.array([[3.0], [1.0], [2.0], [2.0]])
    expected = [np.log(4), np.log(4), 2 * np.log(4 / 3), 2 * np.log(4 / 3)]
    np.testing.assert_allclose(copod_scores(m), expected, rtol=0, atol=1e-15)
    # [1, 2, 3]: left [1/3, 2/3, 1], right [1, 2/3, 1/3], skew sign 0
    expected = [np.log(3), 2 * np.log(3 / 2), np.log(3)]
    np.testing.assert_allclose(copod_scores([[1.0], [2.0], [3.0]]), expected, rtol=0, atol=1e-15)


def test_copod_invariant_under_negation():
    # negating swaps the left and right ECDFs and flips each skew sign
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = np.round(rng.standard_normal((int(rng.integers(2, 12)), 3)), 1)  # ties included
        np.testing.assert_array_equal(copod_scores(-m), copod_scores(m))
    # the left-skewed [-1, -2, -9] scores as its mirror [1, 2, 9]: S is L, not R
    expected = [np.log(3) / 2, np.log(3 / 2), np.log(3)]
    np.testing.assert_allclose(copod_scores([[-1.0], [-2.0], [-9.0]]), expected, rtol=0, atol=1e-15)


def test_copod_skewed_column_is_scale_free():
    # the 1e-12 threshold applies to the standardised third moment, so a
    # tiny- or huge-scale skewed column keeps its sign and its scores;
    # right-skewed, each cell scores max(R, (L + R) / 2)
    skewed = np.array([[1.0], [2.0], [9.0]])
    expected = [np.log(3) / 2, np.log(3 / 2), np.log(3)]
    np.testing.assert_allclose(copod_scores(skewed), expected, rtol=0, atol=1e-15)
    for scale in (1e-6, 1e-200, 1e200):
        np.testing.assert_array_equal(copod_scores(scale * skewed), copod_scores(skewed))


def test_copod_skew_sign_survives_an_overflowing_column_sum():
    # The column's sum overflows; dividing it by its largest magnitude before
    # the mean keeps the right skew that the column shows at 1e-10 its size.
    column = np.array([[1.7e308], [1.6e308], [1.0], [0.0], [2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge, small = copod_scores(column), copod_scores(column / 1e10)
        mixed = np.array([[-1.7e308], [1.7e308], [1.0], [0.0], [2.0]])
        np.testing.assert_array_equal(copod_scores(mixed), copod_scores(mixed / 1e10))
    np.testing.assert_array_equal(huge, small)
    np.testing.assert_allclose(small, copod_scores_oracle(column / 1e10))


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
        m = rng.standard_normal((n, d))
        for scores in (copod_scores(m), copod_scores(np.round(m, 1))):  # rounding forces ties
            assert np.all(scores >= 0.0)
            assert np.all(scores <= d * np.log(n) + 1e-9)


def test_copod_matches_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 6))
        m = np.round(rng.standard_normal((n, d)) * 3, 1)  # ties included
        np.testing.assert_allclose(copod_scores(m), copod_scores_oracle(m), atol=1e-9)


def test_neg_log_table_equals_elementwise_log_bitwise():
    # read through a shuffled 2-D index of counts, as copod_scores reads it
    rng = np.random.default_rng(6)
    for n in range(2, 3001):
        counts = np.stack([rng.permutation(n), rng.permutation(n)]) + 1
        got = _neg_log_table(n)[counts - 1]
        assert got.tobytes() == (-np.log(counts / n)).tobytes(), f"n = {n}"


def test_copod_peak_memory_is_four_score_matrices():
    # a tie-free 200 x 200 distance matrix, scored in sorted order: the
    # block, its sort order and its sorted values are the largest temporaries
    n = 200
    dist = pairwise_distances(np.random.default_rng(10).standard_normal((n, 84)))[0]
    assert all(np.unique(col).size == n for col in dist.T)
    tracemalloc.start()
    try:
        copod_scores(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n * 8


def test_copod_rejects_bad_input():
    with pytest.raises(ConfigError, match="2-D"):
        copod_scores(np.zeros(3))
    with pytest.raises(ConfigError):
        copod_scores(np.zeros((1, 3)))
    with pytest.raises(NumericError):
        copod_scores(np.array([[1.0, np.nan], [0.0, 2.0]]))


def test_dos_scores_average_both_matrices():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((5, 4))
    euclidean, cosine = pairwise_distances(mat)
    expected = (copod_scores(euclidean) + copod_scores(cosine)) / 2.0
    np.testing.assert_array_equal(aggregate_dos(mat).scores, expected)


def test_dos_zero_distances_give_uniform_weights():
    res = aggregate_dos(np.tile([0.5, -1.0], (3, 1)))  # every distance is 0
    np.testing.assert_allclose(res.scores, np.zeros(3))
    np.testing.assert_allclose(res.weights, [1 / 3] * 3)


def test_dos_far_client_scores_highest():
    # tight cluster of four plus one client ~100 away in euclidean terms
    rng = np.random.default_rng(7)
    base = np.ones(6)
    cluster = [base + 0.01 * rng.standard_normal(6) for _ in range(4)]
    far = base + 100.0 * rng.standard_normal(6) / np.sqrt(6)
    scores = aggregate_dos(np.array(cluster + [far])).scores
    assert scores[4] > scores[:4].max()


def test_dos_invariant_under_global_rescaling():
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((6, 5))
    base = aggregate_dos(mat)
    for alpha in (0.25, 3.0, 117.0):
        res = aggregate_dos(alpha * mat)
        np.testing.assert_allclose(res.scores, base.scores, atol=1e-12)
        np.testing.assert_allclose(res.weights, base.weights, atol=1e-12)


def test_dos_weights_invariant_under_tiny_global_rescaling():
    # tiny-scale distance columns keep their skewness sign
    rng = np.random.default_rng(9)
    for _ in range(20):
        mat = rng.standard_normal((6, 5))
        np.testing.assert_allclose(aggregate_dos(1e-4 * mat).weights, aggregate_dos(mat).weights,
                                   atol=1e-12)
