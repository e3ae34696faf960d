import math

import numpy as np
import pytest

from dosfl.errors import ConfigError, DimensionError, NumericError
from dosfl.params import (
    pairwise_distances,
    softmax_weights,
    stack_updates,
    weighted_average,
)

from . import oracles


def vec(*xs):
    return np.asarray(xs, dtype=float)


def matrix_of(values):
    """One update row per entry of ``values``; a scalar entry is a 1-D row."""
    return np.array([np.atleast_1d(np.asarray(v, dtype=float)) for v in values])


def test_stack_updates_rejects_bad_rows():
    with pytest.raises(NumericError, match=r"clients \[1\]"):
        stack_updates([vec(1, 2), vec(1, np.nan), vec(3, 4)])
    with pytest.raises(NumericError, match=r"clients \[0, 2\]"):
        stack_updates([vec(np.inf, 0), vec(1, 2), vec(0, -np.inf)])
    with pytest.raises(DimensionError, match=r"clients \[1\]"):
        stack_updates([vec(1, 2), vec(1, 2, 3)])
    with pytest.raises(DimensionError):
        stack_updates([vec(), vec()])
    with pytest.raises(ConfigError):
        stack_updates([])


def distances_of(*rows):
    return pairwise_distances(np.array(rows, dtype=float))


def test_euclidean_examples():
    assert distances_of(vec(0, 0), vec(3, 4)).euclidean[0, 1] == pytest.approx(5.0)
    v = vec(1.5, -2.5, 7.0)
    assert distances_of(v, v).euclidean[0, 1] == 0.0
    assert distances_of(vec(1, 2, 3), vec(4, 6, 3)).euclidean[0, 1] == pytest.approx(5.0)
    assert oracles.euclidean_distance(vec(0, 0), vec(3, 4)) == pytest.approx(5.0)


def test_euclidean_dimension_error():
    with pytest.raises(DimensionError):
        pairwise_distances(stack_updates([vec(1, 2), vec(1, 2, 3)]))


def test_cosine_examples():
    assert distances_of(vec(1, 0), vec(2, 0)).cosine[0, 1] == pytest.approx(0.0)
    assert distances_of(vec(1, 0), vec(-1, 0)).cosine[0, 1] == pytest.approx(2.0)
    assert distances_of(vec(1, 0), vec(0, 1)).cosine[0, 1] == pytest.approx(1.0)


def test_cosine_zero_norm_convention():
    assert distances_of(vec(0, 0), vec(1, 2)).cosine[0, 1] == 1.0
    assert distances_of(vec(1, 2), vec(0, 0)).cosine[0, 1] == 1.0
    assert oracles.cosine_distance(vec(0, 0), vec(1, 2)) == 1.0


def test_distance_symmetry_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        ab, ba = distances_of(a, b), distances_of(b, a)
        assert ab.euclidean[0, 1] == pytest.approx(ba.euclidean[0, 1])
        assert ab.cosine[0, 1] == pytest.approx(ba.cosine[0, 1])


def test_cosine_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        alpha, beta = rng.uniform(0.01, 100, size=2)
        assert distances_of(alpha * a, beta * b).cosine[0, 1] == pytest.approx(
            distances_of(a, b).cosine[0, 1], abs=1e-9)


def test_pairwise_identical_updates():
    dp = pairwise_distances(matrix_of([[1.0, 2.0], [1.0, 2.0]]))
    assert np.all(dp.euclidean == 0.0)
    assert np.all(dp.cosine == 0.0)


def test_pairwise_three_scalar_clients():
    dp = pairwise_distances(matrix_of([0.0, 1.0, 3.0]))
    expected = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float)
    np.testing.assert_allclose(dp.euclidean, expected)


def test_pairwise_matrix_invariants_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = rng.integers(2, 8)
        dp = pairwise_distances(rng.standard_normal((n, 5)))
        for m in (dp.euclidean, dp.cosine):
            np.testing.assert_allclose(m, m.T)
            assert np.all(np.diag(m) == 0.0)
        assert np.all(dp.euclidean >= 0.0)
        assert np.all((dp.cosine >= 0.0) & (dp.cosine <= 2.0))


def test_pairwise_needs_two_updates():
    with pytest.raises(ConfigError):
        pairwise_distances(matrix_of([[1.0, 2.0]]))


def test_softmax_constant_scores_uniform():
    np.testing.assert_allclose(softmax_weights([7.7, 7.7, 7.7]), [1 / 3] * 3)


def test_softmax_closed_form():
    w = softmax_weights([0.0, math.log(2.0)])
    np.testing.assert_allclose(w, [2 / 3, 1 / 3])


def test_softmax_saturation():
    w = softmax_weights([0.0, 100.0])
    assert w[1] < 1e-40
    assert w[0] == pytest.approx(1.0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = rng.standard_normal(6) * 10
        c = rng.uniform(-50, 50)
        np.testing.assert_allclose(softmax_weights(r + c), softmax_weights(r), atol=1e-12)


def test_softmax_weights_sum_and_positivity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        w = softmax_weights(rng.uniform(0, 20, size=7))
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.all(w > 0.0)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        softmax_weights([1.0, np.nan])


def test_weighted_average_identical_updates():
    mat = matrix_of([[2.0, -1.0]] * 3)
    np.testing.assert_allclose(weighted_average(mat, [0.2, 0.5, 0.3]), [2.0, -1.0])


def test_weighted_average_scalar_examples():
    mat = matrix_of([0.0, 10.0])
    assert weighted_average(mat, [0.5, 0.5])[0] == pytest.approx(5.0)
    assert weighted_average(mat, [0.9, 0.1])[0] == pytest.approx(1.0)


def test_weighted_average_length_mismatch():
    with pytest.raises(DimensionError):
        weighted_average(matrix_of([0.0, 1.0]), [1.0])


@pytest.mark.parametrize("weights", [
    [0.5, np.nan], [1.5, -0.5], [1.0 + 1e-6, 0.0], [0.3, 0.3],
], ids=["nan", "negative", "above_one", "sum_below_one"])
def test_weighted_average_rejects_invalid_weights(weights):
    with pytest.raises(NumericError):
        weighted_average(matrix_of([0.0, 1.0]), weights)


def test_weighted_average_convex_hull():
    rng = np.random.default_rng(5)
    for _ in range(30):
        mat = rng.standard_normal((5, 4))
        w = softmax_weights(rng.uniform(0, 3, 5))
        avg = weighted_average(mat, w)
        assert np.all(avg >= mat.min(axis=0) - 1e-12)
        assert np.all(avg <= mat.max(axis=0) + 1e-12)


def test_weighted_average_permutation_equivariant():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((6, 3))
    w = softmax_weights(rng.uniform(0, 2, 6))
    base = weighted_average(mat, w)
    # permuting the rows together with their weights must not matter
    perm = rng.permutation(6)
    np.testing.assert_allclose(weighted_average(mat[perm], w[perm]), base)
