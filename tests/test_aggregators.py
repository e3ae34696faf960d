import tracemalloc

import numpy as np
import pytest

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
from dosfl.params import ClientUpdate

from .oracles import krum_select_oracle, median_oracle, trimmed_mean_oracle


def updates_of(values):
    return [ClientUpdate(i, np.atleast_1d(np.asarray(v, dtype=float)))
            for i, v in enumerate(values)]


def test_spec_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="dos"):
        AggregatorSpec(kind="mean")


def test_spec_krum_f_default():
    assert AggregatorSpec(kind="krum").resolve_krum_f(10) == 4
    assert AggregatorSpec(kind="krum", krum_f=2).resolve_krum_f(10) == 2


def test_fedavg_examples():
    ups = updates_of([0.0, 10.0])
    assert aggregate_fedavg(ups).new_global[0] == pytest.approx(5.0)
    assert aggregate_fedavg(ups, [1.0, 0.0]).new_global[0] == pytest.approx(0.0)
    assert aggregate_fedavg(ups, [0.25, 0.75]).new_global[0] == pytest.approx(7.5)


def test_fedavg_invalid_alphas():
    ups = updates_of([0.0, 10.0])
    with pytest.raises(ConfigError):
        aggregate_fedavg(ups, [0.8, 0.8])
    with pytest.raises(ConfigError):
        aggregate_fedavg(ups, [-0.5, 1.5])


def test_median_examples():
    assert aggregate_median(updates_of([1.0, 2.0, 100.0])).new_global[0] == pytest.approx(2.0)
    assert aggregate_median(updates_of([1.0, 3.0])).new_global[0] == pytest.approx(2.0)
    res = aggregate_median(updates_of([[0, 9], [5, 0], [9, 5]]))
    np.testing.assert_allclose(res.new_global, [5.0, 5.0])
    assert res.weights is None


def test_trimmed_mean_examples():
    assert aggregate_trimmed_mean(updates_of([1, 2, 3, 4, 100]), 0.2).new_global[0] == pytest.approx(3.0)
    vals = [3.0, -1.0, 7.0, 2.0]
    assert aggregate_trimmed_mean(updates_of(vals), 0.0).new_global[0] == pytest.approx(np.mean(vals))
    assert aggregate_trimmed_mean(updates_of([-100, 1, 2, 3, 100]), 0.2).new_global[0] == pytest.approx(2.0)


def test_trimmed_mean_rejects_bad_fraction():
    with pytest.raises(ConfigError):
        aggregate_trimmed_mean(updates_of([1.0, 2.0]), 0.5)
    with pytest.raises(ConfigError):
        aggregate_trimmed_mean(updates_of([1.0, 2.0, 3.0]), -0.1)


def test_krum_nearest_neighbor_scores():
    ups = updates_of([0.0, 0.1, 0.2, 10.0])
    res = aggregate_krum(ups, f=1)
    # brute-force scores: [0.01, 0.01, 0.01, 96.04]; tie broken to client 0
    np.testing.assert_allclose(res.weights, [1, 0, 0, 0])
    assert res.new_global[0] == 0.0


def test_krum_identical_updates():
    ups = updates_of([[3.0, 4.0]] * 4)
    np.testing.assert_allclose(aggregate_krum(ups, f=1).new_global, [3.0, 4.0])


def test_krum_never_picks_far_client():
    ups = updates_of([0.0, 0.0, 0.0, 0.0, 100.0])
    res = aggregate_krum(ups, f=1)
    assert np.argmax(res.weights) < 4


def test_krum_precondition():
    with pytest.raises(ConfigError):
        aggregate_krum(updates_of([0.0, 1.0, 2.0]), f=1)  # n - f - 2 = 0


def test_krum_output_is_an_input_row():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mat = rng.standard_normal((6, 4))
        res = aggregate_krum(updates_of(mat), f=2)
        assert any(np.array_equal(res.new_global, row) for row in mat)


def test_dos_identical_updates_uniform():
    ups = updates_of([[1.0, -2.0]] * 5)
    res = aggregate_dos(ups)
    np.testing.assert_allclose(res.new_global, [1.0, -2.0])
    np.testing.assert_allclose(res.weights, np.full(5, 0.2))
    assert res.scores is not None


def test_dos_downweights_far_scalar_client():
    ups = updates_of([1.0, 1.1, 0.9, 1.05, 1000.0])
    res = aggregate_dos(ups)
    assert res.weights[4] < 0.05
    assert 0.9 <= res.new_global[0] <= 1.1 + 0.05 * 999


def test_dos_permutation_equivariance():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((6, 3))
    base = aggregate_dos(updates_of(mat))
    perm = rng.permutation(6)
    # relabel client ids under perm: client perm[i] now holds row i
    relabeled = [ClientUpdate(int(perm[i]), mat[i]) for i in range(6)]
    res = aggregate_dos(relabeled)
    np.testing.assert_allclose(res.new_global, base.new_global, atol=1e-12)
    # weight of the update formerly at position i moved to sorted slot perm[i]
    inv = np.empty(6, dtype=int)
    inv[perm] = np.arange(6)
    np.testing.assert_allclose(res.weights, base.weights[inv], atol=1e-12)


@pytest.mark.parametrize("kind", ["dos", "fedavg", "median"])
def test_convex_hull_containment(kind):
    rng = np.random.default_rng(2)
    spec = AggregatorSpec(kind=kind)
    for _ in range(20):
        mat = rng.standard_normal((6, 4)) * rng.uniform(0.1, 10)
        res = run_rule(spec, updates_of(mat))
        assert np.all(res.new_global >= mat.min(axis=0) - 1e-12)
        assert np.all(res.new_global <= mat.max(axis=0) + 1e-12)


def test_trimmed_mean_post_trim_hull():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mat = rng.standard_normal((7, 3))
        res = aggregate_trimmed_mean(updates_of(mat), 0.25)
        k = int(np.floor(0.25 * 7))
        ordered = np.sort(mat, axis=0)[k:7 - k]
        assert np.all(res.new_global >= ordered.min(axis=0) - 1e-12)
        assert np.all(res.new_global <= ordered.max(axis=0) + 1e-12)


@pytest.mark.parametrize("kind", ["dos", "fedavg", "median", "trimmed_mean", "krum"])
def test_all_rules_input_order_invariant(kind):
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((7, 3))
    spec = AggregatorSpec(kind=kind, trim_fraction=0.2, krum_f=2)
    ups = updates_of(mat)
    base = run_rule(spec, ups)
    shuffled = [ups[i] for i in rng.permutation(7)]
    res = run_rule(spec, shuffled)
    np.testing.assert_allclose(res.new_global, base.new_global)


def test_median_breakdown_sanity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        honest = rng.standard_normal((6, 4))
        evil = rng.standard_normal((4, 4)) * 1e6
        res = aggregate_median(updates_of(np.vstack([honest, evil])))
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
            res = aggregate_dos(updates_of(cluster + far))
            assert res.weights[10 - n_out:].max() < res.weights[:10 - n_out].min()


def test_median_trimmed_krum_match_oracles():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(1, 5))
        mat = np.round(rng.standard_normal((n, d)) * 5, 2)
        ups = updates_of(mat)
        np.testing.assert_allclose(aggregate_median(ups).new_global, median_oracle(mat))
        tf = float(rng.uniform(0, 0.4))
        if n - 2 * int(np.floor(tf * n)) >= 1:
            np.testing.assert_allclose(aggregate_trimmed_mean(ups, tf).new_global,
                                       trimmed_mean_oracle(mat, tf))
        f = int(rng.integers(0, max(1, n - 2)))
        if n - f - 2 >= 1:
            picked = aggregate_krum(ups, f)
            expected = krum_select_oracle(mat, f)
            np.testing.assert_array_equal(picked.new_global, mat[expected])


@pytest.mark.parametrize("rule", [lambda ups: aggregate_krum(ups, f=16), aggregate_dos],
                         ids=["krum", "dos"])
def test_rule_peak_memory_is_linear_in_input(rule):
    # an (n, n, d) temporary would be n = 40 times the input; the rules hold
    # one stacked copy of it plus (n, n) matrices
    n, d = 40, 5000
    ups = updates_of(np.random.default_rng(11).standard_normal((n, d)))
    tracemalloc.start()
    try:
        rule(ups)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * d * 8
