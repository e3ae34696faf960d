"""Command-line front end.

Subcommands: ``run`` (one experiment, writes metrics.csv / weights.csv /
summary.json), ``compare`` (aggregator grid, writes compare.csv), ``sweep``
(malicious fraction or client count, writes sweep.csv), and ``copod score``
(standalone row scoring of a CSV matrix).

Exit codes: 0 success, 2 configuration error, 3 runtime error.  The env var
DOSFL_SEED overrides the config-file seed; a --seed flag overrides both.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .aggregators import AGGREGATOR_KINDS
from .attacks import GaussianNoise
from .config import (ExperimentConfig, _finite_float, expand_groups, parse_config_file,
                     with_overrides)
from .copod import copod_scores
from .errors import ConfigError, DosflError
from .harness import RoundRecord, run_experiment

SEED_ENV_VAR = "DOSFL_SEED"

SWEEP_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
SWEEP_CLIENT_COUNTS = (5, 10, 20, 40)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DosflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dosfl",
                                     description="Byzantine-robust FL aggregation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.set_defaults(handler=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several aggregators on the same setup")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--aggregators", required=True,
                       help="comma-separated subset of: " + ",".join(AGGREGATOR_KINDS))
    cmp_p.add_argument("--scenarios", default=None,
                       help="comma-separated scenario names (default: the config's attack)")
    cmp_p.add_argument("--seed", type=int, default=None)
    cmp_p.set_defaults(handler=cmd_compare)

    sweep_p = sub.add_parser("sweep", help="sweep malicious fraction or client count")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--param", required=True,
                         choices=("malicious_fraction", "client_count"))
    sweep_p.add_argument("--values", default=None,
                         help="comma-separated sweep values (defaults per --param)")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.set_defaults(handler=cmd_sweep)

    copod_p = sub.add_parser("copod", help="standalone outlier scoring")
    copod_sub = copod_p.add_subparsers(dest="copod_command", required=True)
    score_p = copod_sub.add_parser("score", help="score each row of a CSV matrix")
    score_p.add_argument("--input", required=True)
    score_p.set_defaults(handler=cmd_copod_score)

    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config_file(args.config)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg = with_overrides(cfg, seed=int(env_seed))
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from None
    if args.seed is not None:
        cfg = with_overrides(cfg, seed=args.seed)
    return cfg


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    records = run_experiment(cfg.to_setup())
    runtime = time.perf_counter() - started

    write_metrics_csv(records, out / "metrics.csv")
    write_weights_csv(records, cfg.clients, out / "weights.csv")
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(build_summary(cfg, records, runtime), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    names = _split_list(args.aggregators, "--aggregators")
    scenarios = ([cfg.attack] if args.scenarios is None
                 else _split_list(args.scenarios, "--scenarios"))
    # every run's setup is built, and so validated, before any run starts
    runs = [(name, scenario, replace(cfg, aggregator=replace(cfg.aggregator, kind=name),
                                     attack=scenario).to_setup())
            for name in names for scenario in scenarios]
    _write_grid(Path(cfg.output_dir) / "compare.csv", ("aggregator", "scenario"), runs)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if args.param == "malicious_fraction":
        runs = [(args.param, _fmt(frac),
                 cfg.to_setup(plan=expand_groups([(GaussianNoise(), frac)], cfg.clients)))
                for frac in _sweep_values(args.values, float, SWEEP_FRACTIONS)]
    else:
        runs = [(args.param, str(n), replace(cfg, clients=n).to_setup())
                for n in _sweep_values(args.values, int, SWEEP_CLIENT_COUNTS)]
    _write_grid(Path(cfg.output_dir) / "sweep.csv", ("sweep_param", "value"), runs)
    return 0


def _sweep_values(text: str | None, convert, defaults) -> list:
    try:
        return list(defaults) if text is None else [convert(v) for v in _split_list(text, "--values")]
    except ValueError:
        raise ConfigError(f"--values needs {convert.__name__} entries, got {text!r}") from None


def cmd_copod_score(args) -> int:
    for score in copod_scores(_read_csv_matrix(args.input)):
        print(f"{score:.9g}")
    return 0


# ---------------------------------------------------------------------------
# output files


def write_metrics_csv(records: list[RoundRecord], path) -> None:
    _write_csv(path, ("round", "macro_auc", "pairwise_auc", "accuracy"),
               [(str(r.round), _fmt(r.metrics.macro_auc), _fmt(r.metrics.pairwise_auc),
                 _fmt(r.metrics.accuracy)) for r in records])


def write_weights_csv(records: list[RoundRecord], n_clients: int, path) -> None:
    rows = []
    for r in records:
        for cid in range(n_clients):
            weight = "NA" if r.weights is None else _fmt(r.weights[cid])
            rows.append((str(r.round), str(cid), weight, r.attack_kinds[cid]))
    _write_csv(path, ("round", "client_id", "weight_or_marker", "attack_kind"), rows)


def build_summary(cfg: ExperimentConfig, records: list[RoundRecord],
                  runtime: float) -> dict:
    metric_names = ("macro_auc", "pairwise_auc", "accuracy")
    avg = {m: (float(np.mean([r.metrics.as_dict()[m] for r in records]))
               if records else None) for m in metric_names}
    final = records[-1].metrics.as_dict() if records else {m: None for m in metric_names}
    with_weights = [r for r in records if r.weights is not None]
    if with_weights:
        mean_weights = list(np.mean([r.weights for r in with_weights], axis=0))
    else:
        mean_weights = None
    return {
        "aggregator": cfg.aggregator.kind,
        "scenario": cfg.attack,
        "rounds": len(records),
        "average": avg,
        "final": final,
        "mean_client_weights": mean_weights,
        "runtime_seconds": runtime,
        "config": cfg.flat_dict(),
    }


def _write_grid(path, labels: tuple[str, str], runs) -> None:
    """Run each (label, label, setup) in turn and write one row of macro AUC
    averaged over the rounds and at the final round for each."""
    rows = []
    for first, second, setup in runs:
        records = run_experiment(setup)
        rows.append((first, second, _fmt(_avg_metric(records)), _fmt(_final_metric(records))))
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(path, labels + ("avg_metric", "final_metric"), rows)


def _write_csv(path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv_matrix(path) -> np.ndarray:
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    rows: list[list[float]] = []
    with fh:
        for i, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if rows and len(row) != len(rows[0]):
                raise ConfigError(f"{path}: row {i} has {len(row)} columns, "
                                  f"expected {len(rows[0])}")
            values = []
            for j, v in enumerate(row, start=1):
                try:
                    values.append(_finite_float(v))
                except ValueError:
                    raise ConfigError(f"{path}: {v!r} at row {i}, column {j} "
                                      "is not a finite number") from None
            rows.append(values)
    if not rows:
        raise ConfigError(f"{path}: empty matrix")
    return np.asarray(rows)


def _split_list(text: str, flag: str) -> list[str]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{flag} needs a non-empty comma-separated list")
    return items


def _avg_metric(records: list[RoundRecord]) -> float:
    return float(np.mean([r.metrics.macro_auc for r in records])) if records else float("nan")


def _final_metric(records: list[RoundRecord]) -> float:
    return records[-1].metrics.macro_auc if records else float("nan")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


if __name__ == "__main__":
    sys.exit(main())
