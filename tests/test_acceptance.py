"""End-to-end acceptance suite at the reference desk scale.

Setting: 10 clients, 4-class synthetic Gaussian data (20 features, 200
samples per class, class separation 6), logistic model, lr 0.01, T = 100
rounds, seeds 0..4.  Each test prints one PASS/FAIL line per frozen line of
``frozen_lines`` it reads; thresholds are fixed there, not tuned elsewhere.

The breakdown sweep expects DOS to hold up to 50% noise-replacement clients
and to break down at 60%.  The 50% case is the sharpest check on COPOD's
tail fusion: with whole-row fusion the tight honest cluster's small
distances make honest clients look as outlying as the noise clients, while
the per-dimension fusion in ``dosfl.copod`` keeps the honest mass near 0.94.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from operator import ge, gt, le, lt
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from dosfl.aggregators import AggregatorSpec, aggregate_dos, aggregate_krum, aggregate_median, \
    aggregate_trimmed_mean
from dosfl.cli import main
from dosfl.config import ExperimentConfig, expand_groups
from dosfl.copod import copod_scores
from dosfl.models import ModelSpec, loss_and_grad
from dosfl.params import softmax_weights

from . import golden
from .oracles import copod_scores_oracle, krum_select_oracle, median_oracle, \
    reference_cross_entropy, trimmed_mean_oracle

SEEDS = range(5)
CHANCE = 0.25  # 4 classes
BASE = ExperimentConfig()  # reference setting lives in the defaults


def report(ok: bool, label: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    return ok


def suite_config(aggregator: str, attack: str, seed: int, *, custom_plan=(), trim=0.4,
                 partition="iid", skew_alpha=0.5) -> ExperimentConfig:
    return replace(
        BASE,
        seed=seed,
        partition=partition,
        skew_alpha=skew_alpha,
        attack=attack,
        custom_plan=custom_plan,
        aggregator=AggregatorSpec(kind=aggregator, trim_fraction=trim),
    )


def suite_configs(aggregator: str, attack: str, seeds=SEEDS, **kw) -> list[ExperimentConfig]:
    """One aggregator/attack combination across the reference seeds, or ``seeds``."""
    return [suite_config(aggregator, attack, seed, **kw) for seed in seeds]


def run_all(configs: list[ExperimentConfig]) -> list[golden.Run]:
    """``golden.run`` of each config, in order, on one worker process per
    usable core; on one core, in this process."""
    cores = len(os.sched_getaffinity(0))
    if cores == 1:
        return [golden.run(cfg) for cfg in configs]
    # one BLAS thread per worker, so that an idle OpenBLAS thread does not
    # spin on the core another worker runs on; forkserver workers inherit it
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with ProcessPoolExecutor(cores, mp_context=multiprocessing.get_context("forkserver")) as pool:
            return list(pool.map(golden.run, configs))
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


# the breakdown sweep's noise fractions besides 0.4, which is the noise_40 scenario
NOISE_FRACS = (0.1, 0.2, 0.3, 0.5, 0.6)


def noise_frac_plan(frac: float) -> tuple[tuple[int, str], ...]:
    """``custom_plan`` entries sending noise from round(frac * n) of the reference clients."""
    return tuple(sorted(expand_groups([("noise", frac)], BASE.clients).items()))


def run_grid(seeds=SEEDS):
    """Every rule/attack suite the tests below read, keyed by (rule, attack),
    each run carrying the digest of its global models; the tests read the
    reference seeds, and ``tools/acceptance_margins.py`` held-out ones."""
    configs = partial(suite_configs, seeds=seeds)
    suites = {
        ("dos", "no_attack"): configs("dos", "no_attack"),
        ("fedavg", "no_attack"): configs("fedavg", "no_attack"),
        ("dos", "noise_40"): configs("dos", "noise_40"),
        ("fedavg", "noise_40"): configs("fedavg", "noise_40"),
        ("dos", "noise_scaled_40"): configs("dos", "noise_scaled_40"),
        ("trimmed_mean", "noise_scaled_40"): configs("trimmed_mean", "noise_scaled_40", trim=0.2),
        ("fedavg", "noise_scaled_40"): configs("fedavg", "noise_scaled_40"),
        ("dos", "crafted_40"): configs("dos", "crafted_40",
                                       partition="label_skew", skew_alpha=2.0),
        ("krum", "crafted_40"): configs("krum", "crafted_40",
                                        partition="label_skew", skew_alpha=2.0),
    }
    for frac in NOISE_FRACS:
        suites[("dos", f"noise_frac_{frac}")] = configs("dos", "custom",
                                                        custom_plan=noise_frac_plan(frac))
    runs = iter(run_all([cfg for suite in suites.values() for cfg in suite]))
    grid = {key: [next(runs) for _ in suite] for key, suite in suites.items()}
    grid[("dos", "noise_frac_0.4")] = grid[("dos", "noise_40")]  # same plan
    return grid


SYMBOLS = {le: "≤", lt: "<", ge: "≥", gt: ">"}


class Line(NamedTuple):
    """A frozen line; it holds when ``comparison(statistic, factor * reference)``."""

    statistic: float
    comparison: Callable[[float, float], bool]
    factor: float
    reference: float = 1.0  # an absolute bound is the factor

    def holds(self) -> bool:
        return bool(self.comparison(self.statistic, self.factor * self.reference))

    def __str__(self) -> str:  # the statistic over the reference, against the factor
        return f"{self.statistic / self.reference:.3f} {SYMBOLS[self.comparison]} {self.factor:g}"


def frozen_lines(grid) -> dict[str, Line]:
    """Every frozen acceptance line of ``grid`` by its label, the most fragile first."""
    acc = {f"{rule}/{attack}": float(np.mean([recs[-1].metrics.accuracy for recs in suite]))
           for (rule, attack), suite in grid.items()}
    base = acc["dos/no_attack"]
    # per-client mean weight over rounds 10..T, averaged across seeds
    weights = np.mean([np.array([r.weights for r in recs[10:]]).mean(axis=0)
                       for recs in grid[("dos", "noise_40")]], axis=0)
    malicious, honest = weights[6:], weights[:6]  # noise_40 attacks the top ids 6..9
    return {
        "noise 40%: FedAvg collapses": Line(acc["fedavg/noise_40"], le, CHANCE + 0.10),
        "crafted 40%: |Krum − chance|": Line(abs(acc["krum/crafted_40"] - CHANCE), le, 0.10),
        "noise+scaled: trimmed mean / base": Line(acc["trimmed_mean/noise_scaled_40"], lt, 0.8, base),
        "noise+scaled: FedAvg / base": Line(acc["fedavg/noise_scaled_40"], lt, 0.8, base),
        "crafted 40%: DOS − Krum": Line(acc["dos/crafted_40"] - acc["krum/crafted_40"], ge, 0.10),
        "noise fraction 0.5: DOS / base": Line(acc["dos/noise_frac_0.5"], ge, 0.9, base),
        "noise fraction 0.6: DOS / base": Line(acc["dos/noise_frac_0.6"], lt, 0.75, base),
        "noise 40%: DOS / base": Line(acc["dos/noise_40"], ge, 0.9, base),
        "noise+scaled: DOS / base": Line(acc["dos/noise_scaled_40"], ge, 0.9, base),
        **{f"noise fraction {frac}: DOS / base": Line(acc[f"dos/noise_frac_{frac}"], ge, 0.9, base)
           for frac in (0.1, 0.2, 0.3)},
        "no attack: |DOS − FedAvg|": Line(abs(base - acc["fedavg/no_attack"]), le, 0.03),
        "noise 40%: max malicious mean weight": Line(malicious.max(), lt, 0.2 / 10),
        "noise 40%: min honest / max malicious weight": Line(honest.min(), gt, 1.0, malicious.max()),
    }


@pytest.fixture(scope="module")
def grid():
    return run_grid()


def check(grid, *labels):
    """One PASS/FAIL line per named frozen line, then one assert for all."""
    lines = frozen_lines(grid)
    assert all([report(lines[label].holds(), f"{label}: {lines[label]}") for label in labels])


def test_no_attack_parity(grid):
    check(grid, "no attack: |DOS − FedAvg|")


def test_noise_collapse_vs_resilience(grid):
    check(grid, "noise 40%: FedAvg collapses", "noise 40%: DOS / base")


def test_noise_scaled_resilience(grid):
    check(grid, "noise+scaled: DOS / base", "noise+scaled: trimmed mean / base",
          "noise+scaled: FedAvg / base")


def test_malicious_weight_suppression(grid):
    check(grid, "noise 40%: max malicious mean weight",
          "noise 40%: min honest / max malicious weight")


@pytest.mark.parametrize("fraction", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
def test_breakdown_threshold(grid, fraction):
    check(grid, "noise 40%: DOS / base" if fraction == 0.4
          else f"noise fraction {fraction}: DOS / base")


def test_noise_frac_configs_name_their_noise_clients(grid):
    # each noise_frac run's config, as summary.json would write it, names
    # exactly the clients that sent noise
    for frac in NOISE_FRACS:
        for seed, records in zip(SEEDS, grid[("dos", f"noise_frac_{frac}")], strict=True):
            flat = suite_config("dos", "custom", seed,
                                custom_plan=noise_frac_plan(frac)).flat_dict()
            named = [int(key.rsplit(".", 1)[1]) for key, spec in flat.items()
                     if key.startswith("attack.client.") and spec == "noise"]
            assert len(named) == int(frac * 10 + 0.5)
            for r in records:
                assert [cid for cid, kind in enumerate(r.attack_kinds) if kind == "noise"] == named


def test_crafted_attack_ordering(grid):
    check(grid, "crafted 40%: DOS − Krum", "crafted 40%: |Krum − chance|")


def golden_pair(made_on: dict) -> dict:
    """The golden file's pair of maps made on the platform ``made_on``; the
    calling test fails, naming the command that makes it, when there is none."""
    pinned = golden.load()
    if pinned["versions"] != golden.versions():
        pytest.fail(f"golden digests were made with {pinned['versions']}, this run has "
                    f"{golden.versions()}; regenerate them with python3 tools/golden_digests.py")
    if (found := golden.pair(pinned, made_on)) is None:
        pytest.fail(f"golden digests hold no pair made on {made_on}; python3 "
                    "tools/golden_digests.py makes the pair of the platform it runs on")
    return found


def test_outputs_match_golden_digests(grid):
    want, got = golden_pair(golden.platform()), golden.digests(grid)
    for key in golden.MAPS:
        assert sorted(got[key]) == sorted(want[key])
    moved = {key: sorted(name for name, digest in want[key].items() if got[key][name] != digest)
             for key in golden.MAPS}
    for key, names in moved.items():
        report(not names, f"{len(got[key]) - len(names)} of {len(got[key])} runs match their "
                          f"golden {key}; moved: {names}")
    assert not any(moved.values())


def other_platform_pair() -> dict:
    """A pair of the golden file made on a platform other than this one."""
    return next(p for p in golden.load()["platforms"] if p["platform"] != golden.platform())


@pytest.mark.parametrize("bits_move", [False, True])
def test_golden_digests_read_the_pair_of_another_platform(monkeypatch, capsys, bits_move):
    # on another platform the test reads that platform's pair, whose digests
    # differ from this one's
    other = other_platform_pair()
    got = {key: dict(other[key]) for key in golden.MAPS}
    if bits_move:
        got["theta_digests"]["short/median"] = "0" * 64
    monkeypatch.setattr(golden, "versions", lambda: golden.load()["versions"])
    monkeypatch.setattr(golden, "digests", lambda grid: got)
    monkeypatch.setattr(golden, "platform", lambda: other["platform"])
    if not bits_move:
        test_outputs_match_golden_digests(grid={})
        return
    with pytest.raises(AssertionError):
        test_outputs_match_golden_digests(grid={})
    assert capsys.readouterr().out.splitlines()[1].endswith("moved: ['short/median']")


def check_short_runs(names: list[str], env: dict[str, str]) -> None:
    """Run the named short runs in a child process with ``env`` added, and
    compare both digests of each with the golden pair of the child's platform."""
    got = golden.made_in_child(f"made_here({{}}, {names!r})", env)
    want = golden_pair(got["platform"])
    assert all([report(all(got[key][f"short/{name}"] == want[key][f"short/{name}"]
                           for key in golden.MAPS),
                       f"short/{name} with {env} matches both golden digests") for name in names])


def test_wide_dos_crafted_digests_hold_on_one_blas_thread():
    # the golden file is made at the machine's BLAS thread count; DOS and the
    # order rules at the wide_model width must give the same bits on one thread
    check_short_runs(["wide_dos_crafted", "wide_median", "wide_trimmed_mean"],
                     {"OPENBLAS_NUM_THREADS": "1"})


def test_short_runs_match_the_golden_digests_of_avx2_and_haswell_kernels():
    check_short_runs(list(golden.SHORT_RUNS), golden.EMULATED)


@pytest.mark.parametrize("bits_move", [False, True])
def test_one_thread_digests_read_the_pair_of_another_platform(monkeypatch, capsys, bits_move):
    # a child on another platform is compared with that platform's pair
    other = other_platform_pair()
    got = {"platform": other["platform"], **{key: dict(other[key]) for key in golden.MAPS}}
    if bits_move:
        got["theta_digests"]["short/wide_median"] = "0" * 64
    monkeypatch.setattr(golden, "versions", lambda: golden.load()["versions"])
    monkeypatch.setattr(subprocess, "run", lambda args, **kw: subprocess.CompletedProcess(
        args, 0, stdout=json.dumps(got), stderr=""))
    if not bits_move:
        test_wide_dos_crafted_digests_hold_on_one_blas_thread()
        return
    with pytest.raises(AssertionError):
        test_wide_dos_crafted_digests_hold_on_one_blas_thread()
    assert capsys.readouterr().out.splitlines()[1] == (
        "[FAIL] short/wide_median with {'OPENBLAS_NUM_THREADS': '1'} matches both golden digests")


@pytest.mark.parametrize("made_in_child", [False, True], ids=["grid", "child"])
def test_digest_tests_name_the_command_for_a_platform_missing_from_the_file(monkeypatch,
                                                                            made_in_child):
    nowhere = {"numpy_dispatch": [], "openblas_core": "nowhere"}
    monkeypatch.setattr(golden, "versions", lambda: golden.load()["versions"])
    monkeypatch.setattr(golden, "platform", lambda: nowhere)
    monkeypatch.setattr(subprocess, "run", lambda args, **kw: subprocess.CompletedProcess(
        args, 0, stdout=json.dumps({"platform": nowhere}), stderr=""))
    with pytest.raises(pytest.fail.Exception, match=r"no pair made on .*'nowhere'.*"
                                                    r"python3 tools/golden_digests.py"):
        if made_in_child:
            test_wide_dos_crafted_digests_hold_on_one_blas_thread()
        else:
            test_outputs_match_golden_digests(grid={})


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
    from dosfl.data import make_train_test, partition_iid, partition_label_skew
    ds = make_train_test(4, 5, 30, 1, 4.0, np.random.default_rng(5))[0]
    for shards in (partition_iid(ds, 6, np.random.default_rng(6)),
                   partition_label_skew(ds, 6, 0.5, np.random.default_rng(7))):
        merged = np.sort(np.concatenate([s.features for s in shards]).ravel())
        ok &= bool(np.allclose(merged, np.sort(ds.features.ravel())))

    # gradient vs central finite differences
    spec = ModelSpec(kind="logistic", input_dim=4, class_count=3)
    feats = rng.standard_normal((20, 4))
    labels = rng.integers(0, 3, 20)
    params = rng.standard_normal(spec.param_count) * 0.5

    stepped = params[None].copy()  # theta - theta' after one step at lr = 1 is the gradient
    loss_and_grad(spec, stepped, feats[None], labels[None], 1.0)
    grad = params - stepped[0]
    worst = 0.0
    for j in range(params.size):
        hi, lo = params.copy(), params.copy()
        hi[j] += 1e-5
        lo[j] -= 1e-5
        fd = (reference_cross_entropy(spec, hi, feats, labels)
              - reference_cross_entropy(spec, lo, feats, labels)) / 2e-5
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
