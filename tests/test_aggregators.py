import tracemalloc

import numpy as np
import pytest

from dosfl import aggregators
from dosfl.aggregators import (
    AggregatorSpec,
    aggregate_dos,
    aggregate_fedavg,
    aggregate_krum,
    aggregate_median,
    aggregate_trimmed_mean,
    run_rule,
)
from dosfl.errors import ConfigError

from .oracles import krum_select_oracle, median_oracle, trimmed_mean_oracle


def matrix_of(values):
    """One update row per entry of ``values``; a scalar entry is a 1-D row."""
    return np.array([np.atleast_1d(np.asarray(v, dtype=float)) for v in values])


def test_spec_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="dos"):
        AggregatorSpec(kind="mean")


def test_spec_krum_f_default():
    assert AggregatorSpec(kind="krum").resolve_krum_f(10) == 4
    assert AggregatorSpec(kind="krum", krum_f=2).resolve_krum_f(10) == 2


def test_fedavg_examples():
    res = aggregate_fedavg(matrix_of([0.0, 10.0]))
    assert res.new_global[0] == pytest.approx(5.0)
    np.testing.assert_array_equal(res.weights, [0.5, 0.5])


def test_median_examples():
    assert aggregate_median(matrix_of([1.0, 2.0, 100.0])).new_global[0] == pytest.approx(2.0)
    assert aggregate_median(matrix_of([1.0, 3.0])).new_global[0] == pytest.approx(2.0)
    res = aggregate_median(matrix_of([[0, 9], [5, 0], [9, 5]]))
    np.testing.assert_allclose(res.new_global, [5.0, 5.0])
    assert res.weights is None


def test_trimmed_mean_examples():
    assert aggregate_trimmed_mean(matrix_of([1, 2, 3, 4, 100]), 0.2).new_global[0] == pytest.approx(3.0)
    vals = [3.0, -1.0, 7.0, 2.0]
    assert aggregate_trimmed_mean(matrix_of(vals), 0.0).new_global[0] == pytest.approx(np.mean(vals))
    assert aggregate_trimmed_mean(matrix_of([-100, 1, 2, 3, 100]), 0.2).new_global[0] == pytest.approx(2.0)


def test_trimmed_mean_rejects_bad_fraction():
    with pytest.raises(ConfigError):
        aggregate_trimmed_mean(matrix_of([1.0, 2.0]), 0.5)
    with pytest.raises(ConfigError):
        aggregate_trimmed_mean(matrix_of([1.0, 2.0, 3.0]), -0.1)


def test_krum_nearest_neighbor_scores():
    mat = matrix_of([0.0, 0.1, 0.2, 10.0])
    res = aggregate_krum(mat, f=1)
    # brute-force scores: [0.01, 0.01, 0.01, 96.04]; tie broken to client 0
    np.testing.assert_allclose(res.weights, [1, 0, 0, 0])
    assert res.new_global[0] == 0.0


def test_krum_identical_updates():
    mat = matrix_of([[3.0, 4.0]] * 4)
    np.testing.assert_allclose(aggregate_krum(mat, f=1).new_global, [3.0, 4.0])


def test_krum_never_picks_far_client():
    mat = matrix_of([0.0, 0.0, 0.0, 0.0, 100.0])
    res = aggregate_krum(mat, f=1)
    assert np.argmax(res.weights) < 4


def test_krum_precondition():
    with pytest.raises(ConfigError):
        aggregate_krum(matrix_of([0.0, 1.0, 2.0]), f=1)  # n - f - 2 = 0


def test_krum_rejects_negative_f():
    with pytest.raises(ConfigError):
        aggregate_krum(matrix_of([0.0, 1.0, 2.0, 3.0]), f=-1)  # n - f - 2 >= 1 alone holds


def test_krum_output_is_an_input_row():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mat = rng.standard_normal((6, 4))
        res = aggregate_krum(matrix_of(mat), f=2)
        assert any(np.array_equal(res.new_global, row) for row in mat)


def test_dos_identical_updates_uniform():
    mat = matrix_of([[1.0, -2.0]] * 5)
    res = aggregate_dos(mat)
    np.testing.assert_allclose(res.new_global, [1.0, -2.0])
    np.testing.assert_allclose(res.weights, np.full(5, 0.2))
    assert res.scores is not None


def test_dos_downweights_far_scalar_client():
    mat = matrix_of([1.0, 1.1, 0.9, 1.05, 1000.0])
    res = aggregate_dos(mat)
    assert res.weights[4] < 0.05
    assert 0.9 <= res.new_global[0] <= 1.1 + 0.05 * 999


def test_dos_permutation_equivariance():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((6, 3))
    base = aggregate_dos(mat)
    perm = rng.permutation(6)
    res = aggregate_dos(mat[perm])
    np.testing.assert_allclose(res.new_global, base.new_global, atol=1e-12)
    # each row keeps its weight: row k of mat[perm] is row perm[k] of mat
    np.testing.assert_allclose(res.weights, base.weights[perm], atol=1e-12)


@pytest.mark.parametrize("kind", ["dos", "fedavg", "median"])
def test_convex_hull_containment(kind):
    rng = np.random.default_rng(2)
    spec = AggregatorSpec(kind=kind)
    for _ in range(20):
        mat = rng.standard_normal((6, 4)) * rng.uniform(0.1, 10)
        res = run_rule(spec, matrix_of(mat))
        assert np.all(res.new_global >= mat.min(axis=0) - 1e-12)
        assert np.all(res.new_global <= mat.max(axis=0) + 1e-12)


def test_trimmed_mean_post_trim_hull():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mat = rng.standard_normal((7, 3))
        res = aggregate_trimmed_mean(matrix_of(mat), 0.25)
        k = int(np.floor(0.25 * 7))
        ordered = np.sort(mat, axis=0)[k:7 - k]
        assert np.all(res.new_global >= ordered.min(axis=0) - 1e-12)
        assert np.all(res.new_global <= ordered.max(axis=0) + 1e-12)


@pytest.mark.parametrize("kind", ["dos", "fedavg", "median", "trimmed_mean", "krum"])
def test_all_rules_input_order_invariant(kind):
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((7, 3))
    spec = AggregatorSpec(kind=kind, trim_fraction=0.2, krum_f=2)
    base = run_rule(spec, mat)
    perm = rng.permutation(7)
    res = run_rule(spec, mat[perm])
    np.testing.assert_allclose(res.new_global, base.new_global)
    if base.weights is not None:  # the weights follow the rows
        np.testing.assert_allclose(res.weights, base.weights[perm])


def test_median_breakdown_sanity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        honest = rng.standard_normal((6, 4))
        evil = rng.standard_normal((4, 4)) * 1e6
        res = aggregate_median(matrix_of(np.vstack([honest, evil])))
        assert np.all(res.new_global >= honest.min(axis=0) - 1e-12)
        assert np.all(res.new_global <= honest.max(axis=0) + 1e-12)


def test_dos_suppresses_isolated_outliers():
    # one or two isotropic far outliers against a tight majority cluster:
    # every outlier's weight falls strictly below every cluster weight
    rng = np.random.default_rng(6)
    for n_out in (1, 2):
        for _ in range(30):
            d = 30
            base = rng.standard_normal(d)
            base *= rng.uniform(1, 3) / np.linalg.norm(base)
            cluster = [base + 1e-3 * rng.standard_normal(d) / np.sqrt(d)
                       for _ in range(10 - n_out)]
            far = [10.0 * np.linalg.norm(base) / np.sqrt(d) * rng.standard_normal(d)
                   for _ in range(n_out)]
            res = aggregate_dos(matrix_of(cluster + far))
            assert res.weights[10 - n_out:].max() < res.weights[:10 - n_out].min()


def test_median_trimmed_krum_match_oracles():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(1, 5))
        mat = np.round(rng.standard_normal((n, d)) * 5, 2)
        np.testing.assert_allclose(aggregate_median(mat).new_global, median_oracle(mat))
        tf = float(rng.uniform(0, 0.4))
        if n - 2 * int(np.floor(tf * n)) >= 1:
            np.testing.assert_allclose(aggregate_trimmed_mean(mat, tf).new_global,
                                       trimmed_mean_oracle(mat, tf))
        f = int(rng.integers(0, max(1, n - 2)))
        if n - f - 2 >= 1:
            picked = aggregate_krum(mat, f)
            expected = krum_select_oracle(mat, f)
            np.testing.assert_array_equal(picked.new_global, mat[expected])


@pytest.mark.parametrize("rule", [lambda mat: aggregate_krum(mat, f=16), aggregate_dos],
                         ids=["krum", "dos"])
def test_rule_peak_memory_is_linear_in_input(rule):
    # an (n, n, d) temporary would be n = 40 times the input; the rules hold
    # (n, n) matrices and d-length rows besides the input
    n, d = 40, 5000
    mat = np.random.default_rng(11).standard_normal((n, d))
    tracemalloc.start()
    try:
        rule(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * d * 8


@pytest.mark.parametrize("n,trim", [(9, None), (10, None), (10, 0.2), (12, 0.1)])
def test_order_rules_in_column_blocks_equal_one_full_sort_bitwise(monkeypatch, n, trim):
    # Blocks of 3 columns over 13 leave a one-column tail.  12 rows trimmed
    # by 1 keep 10, where a one-column mean takes numpy's pairwise sum and
    # differs in the last bit from the full matrix's mean.
    monkeypatch.setattr(aggregators, "SORT_BYTES", 3 * (n + 1) * 8)
    rng = np.random.default_rng(n)
    for _ in range(20):
        mat = rng.standard_normal((n, 13)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        if trim is None:
            k, got = (n - 1) // 2, aggregate_median(mat).new_global
        else:
            k, got = int(trim * n), aggregate_trimmed_mean(mat, trim).new_global
        assert got.tobytes() == np.sort(mat, axis=0)[k:n - k].mean(axis=0).tobytes()


@pytest.mark.parametrize("trim", [None, 0.2])
def test_order_rules_peak_memory_is_kept_rows_and_one_block(trim):
    # wide_model's shape: beside the input, the kept rows, the result and one
    # sorted block; a sorted copy of the whole matrix would exceed it.
    n, d = 10, 105004
    mat = np.random.default_rng(12).standard_normal((n, d))
    k = (n - 1) // 2 if trim is None else int(trim * n)
    tracemalloc.start()
    try:
        if trim is None:
            aggregate_median(mat)
        else:
            aggregate_trimmed_mean(mat, trim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (n - 2 * k + 1) * d * 8 + 2 * aggregators.SORT_BYTES


def _tied_matrix(rng, n, d):
    """Half the columns from five values with both zeros, half spread over
    six decades, and repeated rows, so most columns hold ties."""
    mat = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=(1, d))
    tied = rng.random(d) < 0.5
    mat[:, tied] = rng.choice([-2.0, -0.0, 0.0, 1.5, 3.0], size=(n, int(tied.sum())))
    mat[rng.integers(0, n, size=n // 3)] = mat[rng.integers(0, n)]
    return mat


@pytest.mark.parametrize("n", [*range(2, 17), 40, 200])
def test_order_statistic_kernel_equals_one_full_sort_bytewise(monkeypatch, n):
    # Every k, at widths on both sides of the network's selection; then the
    # network alone in blocks of 3 columns over 4, which leave a one-column
    # tail.  A sum from +0.0 does not see which zero a -0.0/0.0 tie kept, so
    # the bytes match even where they tie.
    rng = np.random.default_rng(n)
    network = aggregators._network_slice_mean
    ran = []
    monkeypatch.setattr(aggregators, "_network_slice_mean",
                        lambda mat, k: ran.append(mat.shape[1]) or network(mat, k))
    for d in (1, 2, 5, 300, 5000):
        mat = _tied_matrix(rng, n, d)
        for k in range((n + 1) // 2):
            want = np.sort(mat, axis=0)[k:n - k].mean(axis=0)
            assert aggregators._sorted_slice_mean(mat, k).tobytes() == want.tobytes(), (d, k)
    if n <= 16:
        assert 5000 in ran and 1 not in ran and 5 not in ran
    mat = _tied_matrix(rng, n, 4)
    monkeypatch.setattr(aggregators, "SORT_BYTES", 3 * (n + 1) * 8)
    for k in range((n + 1) // 2):
        want = np.sort(mat, axis=0)[k:n - k].mean(axis=0)
        assert network(mat, k).tobytes() == want.tobytes(), k
