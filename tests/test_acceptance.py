"""End-to-end acceptance suite at the reference desk scale.

Setting: 10 clients, 4-class synthetic Gaussian data (20 features, 200
samples per class, class separation 6), logistic model, lr 0.01, T = 100
rounds, seeds 0..4.  Each test prints one PASS/FAIL line; thresholds are
fixed here, not tuned elsewhere.

The breakdown sweep expects DOS to hold up to 50% noise-replacement clients
and to break down at 60%.  The 50% case is the sharpest check on COPOD's
tail fusion: with whole-row fusion the tight honest cluster's small
distances make honest clients look as outlying as the noise clients, while
the per-dimension fusion in ``dosfl.copod`` keeps the honest mass near 0.94.
"""

from dataclasses import replace

import numpy as np
import pytest

from dosfl.aggregators import AggregatorSpec, aggregate_dos, aggregate_krum, aggregate_median, \
    aggregate_trimmed_mean
from dosfl.cli import main
from dosfl.attacks import GaussianNoise
from dosfl.config import ExperimentConfig, expand_groups
from dosfl.copod import copod_scores
from dosfl.harness import run_experiment
from dosfl.models import ModelSpec, loss_and_grad
from dosfl.params import softmax_weights

from . import golden
from .oracles import copod_scores_oracle, krum_select_oracle, median_oracle, \
    trimmed_mean_oracle

SEEDS = range(5)
CHANCE = 0.25  # 4 classes
BASE = ExperimentConfig()  # reference setting lives in the defaults


def report(ok: bool, label: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    return ok


def run_suite(aggregator: str, attack: str, *, plan=None, trim=0.4,
              partition="iid", skew_alpha=0.5):
    """One aggregator/attack combination across the reference seeds."""
    results = []
    for seed in SEEDS:
        cfg = replace(
            BASE,
            seed=seed,
            partition=partition,
            skew_alpha=skew_alpha,
            attack=attack,
            aggregator=AggregatorSpec(kind=aggregator, trim_fraction=trim),
        )
        results.append(run_experiment(cfg.to_setup(plan=plan)))
    return results


def final_acc(records_per_seed):
    return float(np.mean([recs[-1].metrics.accuracy for recs in records_per_seed]))


def run_grid():
    """Every rule/attack suite the tests below read, keyed by (rule, attack)."""
    runs = {
        ("dos", "no_attack"): run_suite("dos", "no_attack"),
        ("fedavg", "no_attack"): run_suite("fedavg", "no_attack"),
        ("dos", "noise_40"): run_suite("dos", "noise_40"),
        ("fedavg", "noise_40"): run_suite("fedavg", "noise_40"),
        ("dos", "noise_scaled_40"): run_suite("dos", "noise_scaled_40"),
        ("trimmed_mean", "noise_scaled_40"): run_suite("trimmed_mean", "noise_scaled_40",
                                                       trim=0.2),
        ("fedavg", "noise_scaled_40"): run_suite("fedavg", "noise_scaled_40"),
        ("dos", "crafted_40"): run_suite("dos", "crafted_40",
                                         partition="label_skew", skew_alpha=2.0),
        ("krum", "crafted_40"): run_suite("krum", "crafted_40",
                                          partition="label_skew", skew_alpha=2.0),
    }
    for frac in (0.1, 0.2, 0.3, 0.5, 0.6):
        runs[("dos", f"noise_frac_{frac}")] = run_suite(
            "dos", "no_attack", plan=expand_groups([(GaussianNoise(), frac)], 10))
    runs[("dos", "noise_frac_0.4")] = runs[("dos", "noise_40")]  # same plan
    return runs


@pytest.fixture(scope="module")
def grid():
    return run_grid()


def test_no_attack_parity(grid):
    dos = final_acc(grid[("dos", "no_attack")])
    fed = final_acc(grid[("fedavg", "no_attack")])
    ok = abs(dos - fed) <= 0.03
    assert report(ok, f"no-attack parity: |dos {dos:.3f} - fedavg {fed:.3f}| <= 0.03")


def test_noise_collapse_vs_resilience(grid):
    fed = final_acc(grid[("fedavg", "noise_40")])
    dos = final_acc(grid[("dos", "noise_40")])
    base = final_acc(grid[("dos", "no_attack")])
    ok_fed = fed <= CHANCE + 0.10
    ok_dos = dos >= 0.9 * base
    assert report(ok_fed, f"noise 40%: fedavg collapses to {fed:.3f} <= {CHANCE + 0.10:.2f}")
    assert report(ok_dos, f"noise 40%: dos keeps {dos:.3f} >= 0.9 x no-attack {base:.3f}")


def test_noise_scaled_resilience(grid):
    base = final_acc(grid[("dos", "no_attack")])
    dos = final_acc(grid[("dos", "noise_scaled_40")])
    tm = final_acc(grid[("trimmed_mean", "noise_scaled_40")])
    fed = final_acc(grid[("fedavg", "noise_scaled_40")])
    ok = dos >= 0.9 * base and tm < 0.8 * base and fed < 0.8 * base
    assert report(ok, f"noise+scaled 40%: dos {dos:.3f} >= {0.9 * base:.3f}; "
                      f"trimmed {tm:.3f} and fedavg {fed:.3f} < {0.8 * base:.3f}")


def test_malicious_weight_suppression(grid):
    # per-client mean weight over rounds 10..T, averaged across seeds
    per_seed = [np.array([r.weights for r in recs[10:]]).mean(axis=0)
                for recs in grid[("dos", "noise_40")]]
    mean_weights = np.mean(per_seed, axis=0)
    malicious = mean_weights[6:]   # noise_40 attacks the top ids 6..9
    honest = mean_weights[:6]
    ok_small = bool(malicious.max() < 0.2 / 10)
    ok_order = bool(honest.min() > malicious.max())
    assert report(ok_small, f"noise 40%: every malicious mean weight "
                            f"{malicious.max():.4f} < {0.2 / 10:.3f}")
    assert report(ok_order, f"noise 40%: honest mean weights (min {honest.min():.4f}) "
                            f"all above malicious max")


@pytest.mark.parametrize("fraction", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
def test_breakdown_threshold(grid, fraction):
    base = final_acc(grid[("dos", "no_attack")])
    acc = final_acc(grid[("dos", f"noise_frac_{fraction}")])
    if fraction <= 0.5:
        ok = acc >= 0.9 * base
        label = f"noise fraction {fraction}: dos {acc:.3f} >= 0.9 x no-attack {base:.3f}"
    else:
        ok = acc < 0.75 * base
        label = f"noise fraction {fraction}: dos {acc:.3f} < 0.75 x no-attack {base:.3f}"
    assert report(ok, label)


def test_crafted_attack_ordering(grid):
    dos = final_acc(grid[("dos", "crafted_40")])
    krum = final_acc(grid[("krum", "crafted_40")])
    ok_gap = dos - krum >= 0.10
    ok_band = abs(krum - CHANCE) <= 0.10
    assert report(ok_gap, f"crafted 40%: dos {dos:.3f} beats krum {krum:.3f} by >= 0.10")
    assert report(ok_band, f"crafted 40%: krum {krum:.3f} within 0.10 of chance {CHANCE}")


def test_outputs_match_golden_digests(grid):
    pinned = golden.load()
    if pinned["versions"] != golden.versions():
        pytest.fail(f"golden digests were made with {pinned['versions']}, this run has "
                    f"{golden.versions()}; regenerate them with python3 tools/golden_digests.py")
    got = golden.digests(grid)
    assert sorted(got) == sorted(pinned["digests"])
    moved = sorted(name for name, digest in pinned["digests"].items() if got[name] != digest)
    assert report(not moved, f"{len(got) - len(moved)} of {len(got)} runs match their "
                             f"golden digest; moved: {moved}")


def test_copod_matches_bruteforce_oracle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 6))
        m = np.round(rng.standard_normal((n, d)) * 3, 1)
        worst = max(worst, float(np.abs(copod_scores(m) - copod_scores_oracle(m)).max()))
    assert report(worst <= 1e-9, f"copod vs oracle on 50 matrices: max abs diff {worst:.2e}")


def test_aggregators_match_bruteforce_oracles():
    rng = np.random.default_rng(4321)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(1, 5))
        mat = np.round(rng.standard_normal((n, d)) * 4, 2)
        np.testing.assert_array_equal(aggregate_median(mat).new_global, median_oracle(mat))
        tf = float(rng.uniform(0, 0.45))
        if n - 2 * int(np.floor(tf * n)) >= 1:
            np.testing.assert_array_equal(aggregate_trimmed_mean(mat, tf).new_global,
                                          trimmed_mean_oracle(mat, tf))
        f = int(rng.integers(0, n - 2))
        np.testing.assert_array_equal(aggregate_krum(mat, f).new_global,
                                      mat[krum_select_oracle(mat, f)])
        checked += 1
    assert report(checked == 100, f"median/trimmed/krum match oracles on {checked} instances")


def test_property_suite(tmp_path):
    rng = np.random.default_rng(99)
    ok = True

    # softmax shift invariance
    for _ in range(20):
        r = rng.standard_normal(8) * 5
        ok &= bool(np.allclose(softmax_weights(r + rng.uniform(-40, 40)),
                               softmax_weights(r), atol=1e-12))

    # DOS weight invariance under global positive rescaling
    mat = rng.standard_normal((7, 6))
    w0 = aggregate_dos(mat).weights
    for alpha in (0.5, 42.0):
        w1 = aggregate_dos(alpha * mat).weights
        ok &= bool(np.allclose(w0, w1, atol=1e-12))

    # COPOD invariance under positive-affine per-column maps
    m = rng.standard_normal((6, 4))
    t = 3.0 * m + 0.7
    ok &= bool(np.allclose(copod_scores(t), copod_scores(m), atol=1e-12))

    # permutation equivariance: scores and weights follow the rows
    perm = rng.permutation(7)
    ok &= bool(np.allclose(copod_scores(mat[perm]), copod_scores(mat)[perm]))
    ok &= bool(np.allclose(aggregate_dos(mat[perm]).weights, w0[perm]))

    # partition conservation
    from dosfl.data import generate_synthetic, partition_iid, partition_label_skew
    ds = generate_synthetic(4, 5, 30, 4.0, np.random.default_rng(5))
    for shards in (partition_iid(ds, 6, np.random.default_rng(6)),
                   partition_label_skew(ds, 6, 0.5, np.random.default_rng(7))):
        merged = np.sort(np.concatenate([s.features for s in shards]).ravel())
        ok &= bool(np.allclose(merged, np.sort(ds.features.ravel())))

    # gradient vs central finite differences
    spec = ModelSpec(kind="logistic", input_dim=4, class_count=3)
    feats = rng.standard_normal((20, 4))
    labels = rng.integers(0, 3, 20)
    params = rng.standard_normal(spec.param_count) * 0.5
    _, grad = loss_and_grad(spec, params, feats, labels)
    worst = 0.0
    for j in range(params.size):
        hi, lo = params.copy(), params.copy()
        hi[j] += 1e-5
        lo[j] -= 1e-5
        fd = (loss_and_grad(spec, hi, feats, labels)[0]
              - loss_and_grad(spec, lo, feats, labels)[0]) / 2e-5
        worst = max(worst, abs(fd - grad[j]) / max(abs(fd), abs(grad[j]), 1e-3))
    ok &= worst < 1e-4

    # CSV byte determinism under a fixed seed
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("seed = 11\nclients = 4\nmodel.input_dim = 5\nmodel.classes = 3\n"
                        "data.samples_per_class = 30\ndata.test_per_class = 10\n"
                        "train.rounds = 2\nattack = noise_40\n"
                        f"output_dir = {tmp_path / 'o'}\n")
    main(["run", "--config", str(cfg_path)])
    first = ((tmp_path / "o" / "metrics.csv").read_bytes(),
             (tmp_path / "o" / "weights.csv").read_bytes())
    main(["run", "--config", str(cfg_path)])
    second = ((tmp_path / "o" / "metrics.csv").read_bytes(),
              (tmp_path / "o" / "weights.csv").read_bytes())
    ok &= first == second

    assert report(bool(ok), "property suite: shift/rescale/monotone invariance, "
                            "equivariance, conservation, gradcheck, csv determinism")
