import tracemalloc

import numpy as np
import pytest

from dosfl.aggregators import krum_select
from dosfl.attacks import (
    AttackPlan,
    Crafted,
    GaussianNoise,
    LabelFlip,
    Scale,
    apply_attack_plan,
    attack_crafted,
    attack_gaussian_noise,
    attack_label_flip,
    attack_scale,
    local_krum_oracle,
)
from dosfl.data import LabeledDataset
from dosfl.errors import ConfigError, NumericError

from .oracles import krum_select_oracle, reference_apply_attack_plan, reference_crafted_point


def rng_of(seed):
    return np.random.default_rng(seed)


def test_noise_moments_at_fixed_seed():
    out = attack_gaussian_noise(np.zeros(10000), GaussianNoise(1.0), rng_of(42))
    assert -0.05 <= out.mean() <= 0.05
    assert 0.97 <= out.std() <= 1.03


def test_noise_ignores_honest_values():
    a = attack_gaussian_noise(np.zeros(50), GaussianNoise(1.0), rng_of(7))
    b = attack_gaussian_noise(np.full(50, 1e6), GaussianNoise(1.0), rng_of(7))
    np.testing.assert_array_equal(a, b)


def test_noise_sigma_scales_exactly():
    a = attack_gaussian_noise(np.zeros(50), GaussianNoise(1.0), rng_of(9))
    b = attack_gaussian_noise(np.zeros(50), GaussianNoise(100.0), rng_of(9))
    np.testing.assert_array_equal(b, 100.0 * a)


def test_noise_rejects_bad_sigma():
    with pytest.raises(ConfigError):
        attack_gaussian_noise(np.zeros(3), GaussianNoise(0.0), rng_of(0))


def test_scale_examples():
    np.testing.assert_allclose(attack_scale(np.array([1.0, -2.0]), Scale(100.0)), [100.0, -200.0])
    np.testing.assert_allclose(attack_scale(np.array([1.0, -2.0]), Scale(-0.5)), [-0.5, 1.0])
    v = np.array([3.0, 4.0])
    np.testing.assert_array_equal(attack_scale(v, Scale(1.0)), v)
    with pytest.raises(ConfigError):
        attack_scale(v, Scale(0.0))


def toy_dataset(labels, class_count=3):
    labels = np.asarray(labels)
    feats = np.arange(len(labels) * 2, dtype=float).reshape(len(labels), 2)
    return LabeledDataset(features=feats, labels=labels, class_count=class_count)


def test_label_flip_full_fraction():
    ds = toy_dataset([0, 0, 1, 0, 2, 0])
    out = attack_label_flip(ds, LabelFlip(0, 1, 1.0), rng_of(0))
    assert np.sum(out.labels == 0) == 0
    assert np.sum(out.labels == 1) == 5


def test_label_flip_rounded_count():
    ds = toy_dataset([0] * 100 + [1] * 5, class_count=2)
    out = attack_label_flip(ds, LabelFlip(0, 1, 0.5), rng_of(1))
    assert np.sum(out.labels == 0) == 50


def test_label_flip_preserves_features_and_size():
    ds = toy_dataset([0, 0, 1, 2])
    out = attack_label_flip(ds, LabelFlip(0, 2, 1.0), rng_of(2))
    np.testing.assert_array_equal(out.features, ds.features)
    assert len(out) == len(ds)
    assert out.class_count == ds.class_count
    # original labels untouched
    assert np.sum(ds.labels == 0) == 2


def test_label_flip_errors():
    ds = toy_dataset([1, 1, 2])
    with pytest.raises(ConfigError):
        attack_label_flip(ds, LabelFlip(0, 1, 1.0), rng_of(3))  # source absent
    with pytest.raises(ConfigError):
        attack_label_flip(ds, LabelFlip(1, 1, 1.0), rng_of(3))  # source == target
    with pytest.raises(ConfigError):
        attack_label_flip(ds, LabelFlip(1, 7, 1.0), rng_of(3))  # target outside alphabet


def test_local_krum_oracle_needs_three_vectors():
    with pytest.raises(ConfigError):
        local_krum_oracle(np.array([[0.0, 2.0], [2.0, 0.0]]))  # f = len - 3 < 0


def test_crafted_moves_against_benign_direction():
    prev = np.zeros(4)
    honest = np.array([[1.0, 2.0, -1.0, 0.5] + 0.01 * rng_of(i).standard_normal(4)
                       for i in range(3)])
    out = attack_crafted(prev, honest.copy(), Crafted(2.0, 4), None,
                         [rng_of(10), rng_of(11), rng_of(12)])
    s = np.sign(np.mean(honest, axis=0) - prev)
    for crafted in out:
        moved = crafted - prev
        # jitter is 1% of lambda, far below the lambda-sized deviation
        assert np.all(np.sign(moved[s != 0]) == -s[s != 0])


def test_crafted_lambda_search_matches_bruteforce():
    prev = np.zeros(1)
    honest = np.array([[1.0], [1.1], [0.9]])
    candidates = [8.0 * 2.0 ** -k for k in range(7)]
    expect = None
    for lam in candidates:
        if krum_select_oracle([prev - lam * np.sign(np.mean(honest) - prev), *honest], 1) == 0:
            expect = lam
            break
    if expect is None:
        expect = candidates[-1]
    seen = []

    def krum_oracle_f1(sq):
        # the hook gets the (m+1, m+1) squared distances, crafted point first
        seen.append(sq)
        return krum_select(sq, 1)

    out = attack_crafted(prev, honest.copy(), Crafted(8.0, 6), krum_oracle_f1,
                         [rng_of(1), rng_of(2), rng_of(3)])
    for lam, sq in zip(candidates, seen):
        rows = [prev - lam * np.sign(np.mean(honest) - prev), *honest]
        np.testing.assert_allclose(sq, [[np.sum((a - b) ** 2) for b in rows] for a in rows],
                                   rtol=1e-12, atol=1e-12)
    assert len(seen) == candidates.index(expect) + 1
    for crafted in out:
        assert crafted[0] == pytest.approx(-expect, abs=0.05 * expect)


def test_crafted_oracle_matrix_is_clamped_at_zero():
    # The first honest row sits at the last candidate's crafted point; there the
    # closed form rounds to -2.2e-16 before the clamp.
    prev = np.array([2.7, 0.4, -0.4])
    s = np.array([-1.0, -1.0, 1.0])
    honest = np.array([prev - 0.625 * s, prev + 3.0 * s, prev + 3.0 * s])
    seen = []

    def oracle(sq):
        seen.append(sq)
        return local_krum_oracle(sq)

    out = attack_crafted(prev, honest, Crafted(10.0, 4), oracle, [rng_of(i) for i in range(3)])
    assert len(seen) == 5 and all(sq.min() == 0.0 for sq in seen)
    assert seen[-1][0, 1] == 0.0  # an exact tie, which the crafted point wins
    for crafted in out:
        np.testing.assert_allclose(crafted, prev - 0.625 * s, atol=0.05)


def test_crafted_single_candidate():
    prev = np.zeros(2)
    honest = np.array([np.ones(2), np.ones(2) * 1.2])
    out = attack_crafted(prev, honest, Crafted(4.0, 0), lambda vs: 5, [rng_of(4), rng_of(5)])
    for crafted in out:
        np.testing.assert_allclose(crafted, -4.0 * np.ones(2), atol=0.2)


def test_crafted_requires_matching_rngs():
    with pytest.raises(ValueError, match="zip"):
        attack_crafted(np.zeros(2), np.ones((1, 2)), Crafted(1.0, 2), None, [])


def plan_rngs(seed):
    return lambda cid: np.random.default_rng((seed, cid))


def apply_plan(plan, honest, seed=0):
    """apply_attack_plan on a copy of ``honest`` from a zero global model,
    checking that it returns the matrix it was given and that every
    unattacked row, label-flip rows included, keeps its bits."""
    mat = honest.copy()
    out = apply_attack_plan(plan, mat, np.zeros(honest.shape[1]), plan_rngs(seed))
    assert out is mat
    kept = [i for i in range(len(honest))
            if isinstance(plan.assignments.get(i, LabelFlip()), LabelFlip)]
    assert out[kept].tobytes() == honest[kept].tobytes()
    return out


def test_apply_plan_empty_is_identity():
    honest = np.array([[float(i), 1.0] for i in range(4)])
    np.testing.assert_array_equal(apply_plan(AttackPlan(), honest), honest)


def test_apply_plan_scale_only_touches_target():
    honest = np.array([[1.0 + i, -2.0] for i in range(5)])
    out = apply_plan(AttackPlan(assignments={3: Scale(100.0)}), honest)
    np.testing.assert_allclose(out[3], 100.0 * honest[3])
    np.testing.assert_array_equal(np.delete(out, 3, axis=0), np.delete(honest, 3, axis=0))


def test_apply_plan_mix_noise_and_label_flip():
    # label-flip clients pass through here: the flip poisons training data,
    # not the transmitted vector
    honest = np.array([np.full(3, float(i)) for i in range(10)])
    plan = AttackPlan(assignments={9: GaussianNoise(1.0), 8: GaussianNoise(1.0),
                                   7: LabelFlip(), 6: LabelFlip()})
    out = apply_plan(plan, honest)
    replaced = [i for i in range(10) if not np.array_equal(out[i], honest[i])]
    assert replaced == [8, 9]


def test_apply_plan_crafted_group_colludes():
    rng = np.random.default_rng(0)
    honest = np.ones((10, 6)) + 0.05 * rng.standard_normal((10, 6))
    plan = AttackPlan(assignments={i: Crafted(2.0, 4) for i in (6, 7, 8, 9)})
    crafted = apply_plan(plan, honest)[6:]
    # colluders transmit near-identical copies (jitter only)
    assert np.ptp(crafted, axis=0).max() < 0.5
    # and they moved below the previous global, against the upward benign drift
    assert crafted.mean() < 0.0


def test_apply_plan_deterministic():
    honest = np.array([np.full(4, float(i + 1)) for i in range(6)])
    plan = AttackPlan(assignments={5: GaussianNoise(2.0), 4: Crafted(1.0, 3)})
    np.testing.assert_array_equal(apply_plan(plan, honest, seed=3),
                                  apply_plan(plan, honest, seed=3))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_apply_plan_in_place_equals_the_out_of_place_reference_bytewise(seed):
    # The golden digests hash rank statistics only, so a rounding change in
    # the in-place assembly would not move them; this compares the bytes.
    rng = np.random.default_rng(seed)
    honest = 1.0 + 0.1 * rng.standard_normal((12, 7))
    prev = 0.1 * rng.standard_normal(7)
    plan = AttackPlan(assignments={
        0: GaussianNoise(3.0), 5: GaussianNoise(0.5), 1: Scale(-0.7), 8: Scale(1e10),
        2: LabelFlip(), 3: Crafted(2.0, 4), 6: Crafted(2.0, 4), 9: Crafted(2.0, 4),
        4: Crafted(0.5, 6), 10: Crafted(0.5, 6)})
    expected = reference_apply_attack_plan(plan, honest, prev, plan_rngs(seed))
    mat = honest.copy()
    out = apply_attack_plan(plan, mat, prev, plan_rngs(seed))
    assert out is mat
    assert out.tobytes() == expected.tobytes()


WIDE_D = 105004  # the wide_model workload's parameter count


def wide_crafted_case():
    """Ten honest rows at d = WIDE_D, a global model, and the sign vector s.

    Rows 6-9 are one crafted group, with consecutive ids.  Row 6 lies near
    prev - 0.625 s and rows 7-9 near prev + 3 s, so the group's vote accepts
    the fifth candidate of Crafted(10.0, 4).  Rows 1, 3 and 4 are a second
    group, with ids that are not consecutive, whose vote accepts nothing.
    """
    rng = np.random.default_rng(23)
    prev = rng.standard_normal(WIDE_D)
    s = rng.choice([-1.0, 1.0], size=WIDE_D)
    honest = prev + 0.5 * rng.standard_normal((10, WIDE_D))
    honest[6] = prev - 0.625 * s + 1e-4 * rng.standard_normal(WIDE_D)
    honest[7:] = prev + 3.0 * s + 0.01 * rng.standard_normal((3, WIDE_D))
    plan = AttackPlan(assignments={
        0: GaussianNoise(3.0), 2: Scale(-0.7), 5: LabelFlip(),
        **{i: Crafted(10.0, 4) for i in (6, 7, 8, 9)},
        **{i: Crafted(2.0, 4) for i in (1, 3, 4)}})
    return plan, honest, prev, s


def test_apply_plan_equals_the_reference_bytewise_at_wide_d():
    plan, honest, prev, s = wide_crafted_case()
    expected = reference_apply_attack_plan(plan, honest, prev, plan_rngs(4))
    mat = honest.copy()
    out = apply_attack_plan(plan, mat, prev, plan_rngs(4))
    assert out is mat
    assert out.tobytes() == expected.tobytes()
    # the group of rows 6-9 accepted lam = 0.625; its jitter has sd 0.00625
    assert np.abs(out[6:] - (prev - 0.625 * s)).max() < 0.05


def test_crafted_vote_matrices_equal_the_reference_bytewise_at_wide_d():
    # At this d a per-row einsum of the offsets differs from the 2-D one in
    # the last bits; only the vote matrices show it, unless it flips a vote.
    _, honest, prev, _ = wide_crafted_case()

    def recording(votes):
        def oracle(sq):
            votes.append(sq.copy())
            return local_krum_oracle(sq)
        return oracle

    seen, expected = [], []
    kind = Crafted(10.0, 4)
    reference_crafted_point(prev, honest[6:], kind, recording(expected))
    attack_crafted(prev, honest[6:], kind, recording(seen), [rng_of(i) for i in range(4)])
    assert len(seen) == len(expected) == 5
    assert all(a.tobytes() == b.tobytes() for a, b in zip(seen, expected))


def test_crafted_apply_peak_memory_is_one_group_array():
    # Beside the matrix, a crafted group of m = 4 rows holds one (m, d) array,
    # its rows, offsets and jittered vectors in turn, and a few d-vectors,
    # whether or not its ids are consecutive.
    _, honest, prev, _ = wide_crafted_case()
    for members in ((6, 7, 8, 9), (1, 3, 4, 8)):
        plan = AttackPlan(assignments={i: Crafted(10.0, 4) for i in members})
        rngs = plan_rngs(4)
        tracemalloc.start()
        try:
            apply_attack_plan(plan, honest, prev, rngs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (4 + 2) * WIDE_D * 8, members


def test_apply_plan_names_a_row_that_scaling_overflows():
    honest = np.full((4, 3), 2.0)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match=r"clients \[2\]"):
            apply_attack_plan(AttackPlan(assignments={2: Scale(1e308)}), honest,
                              np.zeros(3), plan_rngs(0))


def test_kind_validation():
    with pytest.raises(ConfigError):
        GaussianNoise(sigma=-1.0)
    with pytest.raises(ConfigError):
        Scale(factor=0.0)
    with pytest.raises(ConfigError):
        LabelFlip(source=1, target=1)
    with pytest.raises(ConfigError):
        LabelFlip(fraction=0.0)
    with pytest.raises(ConfigError):
        Crafted(lambda_init=0.0)
    with pytest.raises(ConfigError):
        Crafted(halving_steps=-1)
    # the config parser rejects these on their line, so the kinds do too
    for bad in (float("nan"), float("inf"), -float("inf")):
        for kind, name in ((GaussianNoise, "sigma"), (Scale, "factor"),
                           (Crafted, "lambda_init")):
            with pytest.raises(ConfigError):
                kind(**{name: bad})
