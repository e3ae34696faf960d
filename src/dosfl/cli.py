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
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .aggregators import AGGREGATOR_KINDS
from .config import ExperimentConfig, _finite_float, expand_groups, parse_config_file
from .copod import copod_scores
from .errors import ConfigError, DosflError
from .harness import METRIC_NAMES, RoundRecord, run_experiment

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
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from None
        cfg = replace(cfg, seed=seed)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    # nothing is created before a run succeeds, but a path that cannot be made fails now
    out = Path(cfg.output_dir)
    ancestor = next(p for p in (out, *out.parents) if os.path.exists(p))
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write to output_dir {cfg.output_dir}: "
                          f"{ancestor} is not a writable directory")
    return cfg


def cmd_run(args) -> int:
    cfg = _load_config(args)
    started = time.perf_counter()
    records = _run(args.config, cfg)
    runtime = time.perf_counter() - started
    with _output_dir(cfg.output_dir) as out:
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
    # every run's config is built, and so validated, before any run starts;
    # a named scenario drops the config's attack.client.* entries
    runs = [(name, scenario, replace(cfg, aggregator=replace(cfg.aggregator, kind=name),
                                     attack=scenario,
                                     custom_plan=cfg.custom_plan if scenario == "custom" else ()))
            for name in names for scenario in scenarios]
    _write_grid(args.config, cfg.output_dir, "compare.csv", ("aggregator", "scenario"), runs)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if args.param == "malicious_fraction":
        runs = [(args.param, _fmt(frac), replace(cfg, attack="custom", custom_plan=tuple(
                    sorted(expand_groups([("noise", frac)], cfg.clients).items()))))
                for frac in _sweep_values(args.values, float, SWEEP_FRACTIONS)]
    else:
        runs = [(args.param, str(n), replace(cfg, clients=n))
                for n in _sweep_values(args.values, int, SWEEP_CLIENT_COUNTS)]
    _write_grid(args.config, cfg.output_dir, "sweep.csv", ("sweep_param", "value"), runs)
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
    _write_csv(path, ("round",) + METRIC_NAMES,
               [(str(r.round), *(_fmt(getattr(r.metrics, m)) for m in METRIC_NAMES))
                for r in records])


def write_weights_csv(records: list[RoundRecord], n_clients: int, path) -> None:
    rows = []
    for r in records:
        for cid in range(n_clients):
            weight = "NA" if r.weights is None else _fmt(r.weights[cid])
            rows.append((str(r.round), str(cid), weight, r.attack_kinds[cid]))
    _write_csv(path, ("round", "client_id", "weight_or_marker", "attack_kind"), rows)


def build_summary(cfg: ExperimentConfig, records: list[RoundRecord],
                  runtime: float) -> dict:
    stats = {m: _mean_and_final(records, m, empty=None) for m in METRIC_NAMES}
    with_weights = [r for r in records if r.weights is not None]
    if with_weights:
        mean_weights = list(np.mean([r.weights for r in with_weights], axis=0))
    else:
        mean_weights = None
    return {
        "aggregator": cfg.aggregator.kind,
        "scenario": cfg.attack,
        "rounds": len(records),
        "average": {m: mean for m, (mean, _) in stats.items()},
        "final": {m: final for m, (_, final) in stats.items()},
        "mean_client_weights": mean_weights,
        "runtime_seconds": runtime,
        "config": cfg.flat_dict(),
    }


def _run(config_path: str, cfg: ExperimentConfig) -> list[RoundRecord]:
    """``run_experiment(cfg)``, naming the config file in a ConfigError it raises."""
    try:
        return run_experiment(cfg)
    except ConfigError as exc:  # a config that built but cannot run, such as an empty shard
        raise ConfigError(f"{config_path}: {exc}") from exc


def _write_grid(config_path: str, output_dir: str, name: str, labels: tuple[str, str],
                runs) -> None:
    """Run each (label, label, config) in turn and write ``output_dir/name``
    with one row of macro AUC averaged over the rounds and at the final round
    for each."""
    rows = [(first, second, *map(_fmt, _mean_and_final(_run(config_path, cfg), "macro_auc")))
            for first, second, cfg in runs]
    with _output_dir(output_dir) as out:
        _write_csv(out / name, labels + ("avg_metric", "final_metric"), rows)


@contextmanager
def _output_dir(path: str):
    """Create ``path`` with its parents and yield it as a Path for the block
    that writes the output files; an OSError from either becomes a
    ConfigError that names the path."""
    try:
        out = Path(path)
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except OSError as exc:
        raise ConfigError(f"cannot write to output_dir {path}: {exc}") from exc


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


def _mean_and_final(records: list[RoundRecord], name: str, empty=float("nan")) -> tuple:
    """Metric ``name``'s mean over the rounds and its final-round value;
    ``empty`` twice when there are no rounds."""
    if not records:
        return empty, empty
    values = [getattr(r.metrics, name) for r in records]
    return float(np.mean(values)), values[-1]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


if __name__ == "__main__":
    sys.exit(main())
