"""One benchmark process: runs one workload in one mode, prints one JSON line.

Modes (``run.py`` starts each in a fresh process):

* ``probe``    import dosfl, build the workload's first setup and prepare its
               shards, then print the monotonic clock so the parent can time
               the whole start-up.
* ``measure``  untraced: experiments back to back for ``--seconds``, one
               clock stamp per round boundary, correctness checked after each.
* ``traced``   each experiment twice, plain and with every span wrapper
               installed, in alternating order; the two must give identical
               records.

    python3 perfbench/worker.py measure --workload desk --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from dosfl.errors import DosflError  # noqa: E402
from dosfl.harness import RoundRecord, SimulationSetup, prepare_shards, run_experiment  # noqa: E402
from dosfl.params import check_weights  # noqa: E402
from tracer import LayerTotals, RoundClock, Tracer, round_latencies_ms  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

NO_WEIGHTS = ("median", "trimmed_mean")  # order-statistic rules have no attribution

# (metric, unit, spans it reads, formula); see layer_metrics.
LAYER_METRICS = (
    ("data.prepare_ms", "ms", ("data.prepare",), "ms_per_call"),
    ("harness.local_train.ms_per_round", "ms", ("harness.local_train",), "ms_per_round"),
    ("harness.local_train.calls_per_round", "calls/round", ("harness.local_train",),
     "calls_per_round"),
    ("models.loss_and_grad.calls_per_round", "calls/round", ("models.loss_and_grad",),
     "calls_per_round"),
    ("models.loss_and_grad.self_ms_per_round", "ms", ("models.loss_and_grad",),
     "self_ms_per_round"),
    ("harness.evaluate.ms_per_round", "ms", ("harness.evaluate",), "ms_per_round"),
    ("attacks.apply_plan.ms_per_round", "ms", ("attacks.apply_plan",), "ms_per_round"),
    ("attacks.krum_oracle.calls_per_round", "calls/round", ("attacks.krum_oracle",),
     "calls_per_round"),
    ("attacks.krum_oracle.accept_ratio", "ratio", ("attacks.krum_oracle",), "accept_ratio"),
    # run_rule is called once per round, so per call is per round that runs the rule
    *((f"aggregators.{rule}.ms_per_round", "ms", (f"aggregators.{rule}",), "ms_per_call")
      for rule in ("dos", "krum", "median", "trimmed_mean", "fedavg")),
    ("params.pairwise_distances.ms_per_call", "ms", ("params.pairwise_distances",),
     "ms_per_call"),
    ("copod.copod_scores.ms_per_call", "ms", ("copod.copod_scores",), "ms_per_call"),
    ("copod.copod_scores.calls_per_round", "calls/round", ("copod.copod_scores",),
     "calls_per_round"),
    ("params.stack_updates.calls_per_round", "calls/round", ("params.stack_updates",),
     "calls_per_round"),
    ("params.combine.ms_per_round", "ms", ("params.softmax_weights", "params.weighted_average"),
     "ms_per_round"),
)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def label(setup: SimulationSetup) -> str:
    return f"{setup.aggregator.kind}/seed {setup.seed}"


def records_digest(records: list[RoundRecord]) -> str:
    """Hash of every field of every record, floats by their exact bytes."""
    h = hashlib.sha256()
    for r in records:
        m = r.metrics
        h.update(repr((r.round, r.aggregator, r.attack_kinds, m.skipped_classes)).encode())
        h.update(np.array([m.macro_auc, m.pairwise_auc, m.accuracy]).tobytes())
        for arr in (r.weights, r.scores):
            h.update(b"-" if arr is None else np.ascontiguousarray(arr, np.float64).tobytes())
    return h.hexdigest()


def check_records(setup: SimulationSetup, records: list[RoundRecord]) -> str | None:
    """The invariants every run must satisfy; returns what broke, or None."""
    if [r.round for r in records] != list(range(setup.train.rounds)):
        return f"expected rounds 0..{setup.train.rounds - 1}, got {len(records)} records"
    for r in records:
        if (r.weights is None) != (setup.aggregator.kind in NO_WEIGHTS):
            return f"round {r.round}: weights presence does not match rule"
        if r.weights is not None:
            if r.weights.shape != (setup.clients,):
                return f"round {r.round}: weights shape {r.weights.shape}"
            try:
                check_weights(r.weights)
            except DosflError as exc:
                return f"round {r.round}: {exc}"
        m = r.metrics
        if not all(0.0 <= v <= 1.0 for v in (m.macro_auc, m.pairwise_auc, m.accuracy)):
            return f"round {r.round}: metrics outside [0, 1]: {m}"
    return None


def honest_mass(setup: SimulationSetup, records: list[RoundRecord]) -> float | None:
    """Mean total weight on honest clients after the first tenth of the rounds
    (from round 10 of 100, as in the acceptance suite), or None when the rule
    has no weights or nobody attacks."""
    attacked = setup.plan.malicious_ids()
    if not attacked or records[0].weights is None:
        return None
    honest = np.setdiff1d(np.arange(setup.clients), attacked)
    return float(np.mean([r.weights[honest].sum() for r in records[len(records) // 10:]]))


def warm_up(workload: Workload, seed: int) -> None:
    """One round of each kind, so lazy imports and first calls are not timed."""
    for _, setup in itertools.islice(workload.schedule(seed), len(workload.kinds)):
        run_experiment(replace(setup, train=replace(setup.train, rounds=1)))


def probe(workload: Workload, seed: int) -> dict:
    _, setup = next(workload.schedule(seed))
    prepare_shards(setup)
    return {"done": time.monotonic()}


def measure(workload: Workload, seed: int, seconds: float) -> dict:
    clock = RoundClock()
    clock.install()
    warm_up(workload, seed)
    clock.take()

    quality_runs = workload.quality_replicas * len(workload.kinds)
    finals: list[tuple[float, float]] = []  # (accuracy, macro AUC) of the last round
    masses: list[float] = []
    timed: dict[int, list[tuple[float, list[float]]]] = {}  # kind -> (seconds, round ms)
    errors: list[str] = []
    attempted = 0
    start = time.perf_counter()
    for kind, setup in workload.schedule(seed):
        # The quality replicas always complete, whatever the time budget.
        if attempted >= quality_runs and time.perf_counter() - start >= seconds:
            break
        attempted += 1
        t0 = time.perf_counter()
        try:
            records = run_experiment(setup)
        except DosflError as exc:
            clock.take()
            errors.append(f"{label(setup)}: {exc}")
            continue
        elapsed = time.perf_counter() - t0
        bounds = clock.take()
        problem = check_records(setup, records)
        if problem is not None:
            errors.append(f"{label(setup)}: {problem}")
            continue
        timed.setdefault(kind, []).append((elapsed, round_latencies_ms(bounds)))
        if attempted <= quality_runs:
            # Final accuracy and AUC cover the DOS experiments only.  Where an attack
            # beats a baseline rule, the model ends anywhere between 0.01 and 0.98
            # accuracy depending on the seed, which would drown any real change.
            if setup.aggregator.kind == "dos":
                finals.append((records[-1].metrics.accuracy, records[-1].metrics.macro_auc))
            mass = honest_mass(setup, records)
            if mass is not None:
                masses.append(mass)
    clock.uninstall()

    # One replica's rounds over one replica's time, each kind timed by the mean of
    # its runs, so the kinds the window happened to cut off do not tilt the mix.
    # Latency percentiles are taken within each run, then averaged over a kind's
    # runs and over kinds (all run the same number of rounds).  A percentile of
    # the pooled rounds jumps between clusters: between kinds on desk, and
    # between the shared machine's fast and slow stretches, which last seconds.
    pass_rounds = sum(len(runs[0][1]) for runs in timed.values())
    pass_seconds = sum(np.mean([s for s, _ in runs]) for runs in timed.values())
    per_kind = [np.mean([np.percentile(latencies, [50, 90]) for _, latencies in runs], axis=0)
                for runs in timed.values()]
    p50, p90 = np.mean(per_kind, axis=0) if per_kind else (0.0, 0.0)
    timed_runs = sum(len(runs) for runs in timed.values())
    timed_rounds = sum(len(latencies) for runs in timed.values() for _, latencies in runs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    metrics = {
        "rounds_per_s": (pass_rounds / pass_seconds if pass_seconds else 0.0, "1/s",
                         timed_runs),
        "round_ms_p50": (float(p50), "ms", timed_rounds),
        "round_ms_p90": (float(p90), "ms", timed_rounds),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "final_accuracy": (float(np.mean([f[0] for f in finals])) if finals else 0.0,
                           "fraction", len(finals)),
        "final_macro_auc": (float(np.mean([f[1] for f in finals])) if finals else 0.0,
                            "fraction", len(finals)),
        "honest_mass": (float(np.mean(masses)) if masses else 0.0, "fraction", len(masses)),
        "success_rate": ((attempted - len(errors)) / attempted, "fraction", attempted),
    }
    return {"attempted": attempted, "failed": len(errors), "errors": errors,
            "metrics": metrics}


def layer_metrics(totals: LayerTotals, expected: frozenset[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the span totals, and the names reported absent.

    A metric is absent when a span it reads is expected on this workload but
    never fired: a refactor that stops calling a function shows as lost
    coverage, not as zero time.  A span that is not on this workload's path
    reads as zero calls and zero time.
    """
    out, absent = {}, []
    per_round = 1.0 / max(totals.rounds, 1)
    for metric, unit, span_names, formula in LAYER_METRICS:
        stats = [totals.stats(name) for name in span_names]
        if any(s.calls == 0 and name in expected for s, name in zip(stats, span_names)):
            absent.append(metric)
            continue
        calls = sum(s.calls for s in stats)
        ms = sum(s.ms for s in stats)
        value = {
            "ms_per_call": ms / calls if calls else 0.0,
            "ms_per_round": ms * per_round,
            "self_ms_per_round": sum(s.self_ms for s in stats) * per_round,
            "calls_per_round": calls * per_round,
            "accept_ratio": totals.oracle_accepted / calls if calls else 0.0,
        }[formula]
        out[metric] = (value, unit, calls)
    out["harness.unattributed_ms_per_round"] = (totals.unattributed_ms * per_round, "ms",
                                                 totals.rounds)
    return out, absent


def traced(workload: Workload, seed: int, seconds: float) -> dict:
    clock = RoundClock()
    clock.install()
    warm_up(workload, seed)
    clock.take()

    tracer = Tracer()
    totals = LayerTotals()
    seconds_by_mode = {False: 0.0, True: 0.0}  # untraced / traced time of the same runs
    errors: list[str] = []
    attempted = 0
    start = time.perf_counter()
    for _, setup in workload.schedule(seed):
        # Every kind is traced at least once, whatever the time budget.
        if attempted >= len(workload.kinds) and time.perf_counter() - start >= seconds:
            break
        order = (False, True) if attempted % 2 == 0 else (True, False)
        attempted += 1
        runs = {}
        try:
            for with_spans in order:
                if with_spans:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    records = run_experiment(setup)
                finally:
                    elapsed = time.perf_counter() - t0
                    if with_spans:
                        tracer.uninstall()
                runs[with_spans] = (records, elapsed, clock.take())
        except DosflError as exc:
            clock.take()
            tracer.discard()
            errors.append(f"{label(setup)}: {exc}")
            continue
        plain, spanned = runs[False][0], runs[True][0]
        problem = check_records(setup, plain) or check_records(setup, spanned)
        if problem is None and records_digest(plain) != records_digest(spanned):
            problem = "traced records differ from untraced records"
        if problem is not None:
            tracer.discard()
            errors.append(f"{label(setup)}: {problem}")
            continue
        tracer.fold_into(totals, runs[True][2])
        for with_spans, (_, elapsed, _) in runs.items():
            seconds_by_mode[with_spans] += elapsed
    clock.uninstall()

    metrics, absent = layer_metrics(totals, workload.expected_spans())
    plain_s, traced_s = seconds_by_mode[False], seconds_by_mode[True]
    metrics["trace.overhead_pct"] = ((traced_s / plain_s - 1.0) * 100.0 if plain_s else 0.0,
                                     "%", attempted - len(errors))
    return {"attempted": attempted, "failed": len(errors), "errors": errors,
            "metrics": metrics, "absent": absent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "measure", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "probe":
        result = probe(workload, args.seed)
    else:
        result = (measure if args.mode == "measure" else traced)(workload, args.seed, args.seconds)
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
