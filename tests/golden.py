"""Golden digests: one hash per experiment, pinned in ``golden_digests.json``.

Each experiment's records are hashed by ``perfbench/worker.py``'s
``records_digest``, which covers every field of every round, floats by their
exact bytes.  The pinned runs are the acceptance grid's 70 plus the short
runs below, which cover what the grid lacks.  A change that moves any bit of
any record moves its digest; one that changes bits on purpose regenerates the
file with ``python3 tools/golden_digests.py``.  A record holds weights,
scores and metrics, not the model, so a last-bit change in training shows
only where it changes one of those.

The digests hold only for the numpy, scipy and BLAS builds that made them,
so the file records those versions too.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from worker import environment, records_digest  # noqa: E402

from dosfl.aggregators import AggregatorSpec  # noqa: E402
from dosfl.config import ExperimentConfig, TrainConfig  # noqa: E402
from dosfl.harness import run_experiment  # noqa: E402
from dosfl.models import ModelSpec  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_digests.json"
VERSION_KEYS = ("numpy", "scipy", "blas")

_SHORT = ExperimentConfig(train=TrainConfig(rounds=3))
# name -> configuration of a run of at most 3 rounds
SHORT_RUNS = {
    # the many_clients workload's shape: tie-free distance columns at n = 200
    "many_clients": replace(_SHORT, clients=200, attack="noise_40",
                            train=replace(_SHORT.train, learning_rate=0.3)),
    "median": replace(_SHORT, attack="noise_scaled_40", aggregator=AggregatorSpec(kind="median")),
    "label_flip": replace(_SHORT, attack="label_flip_10"),
    "mlp1": replace(_SHORT, attack="crafted_40", model=ModelSpec(kind="mlp1", hidden_dim=32)),
}


def versions() -> dict[str, str]:
    env = environment()
    return {key: env[key] for key in VERSION_KEYS}


def digests(grid: dict) -> dict[str, str]:
    """Digest of every grid run, keyed by rule, attack and seed index, and of
    every short run, keyed by its name."""
    out, hashed = {}, set()
    for (rule, attack), runs in grid.items():
        if id(runs) in hashed:  # a second name for runs already hashed
            continue
        hashed.add(id(runs))
        for seed, records in enumerate(runs):
            out[f"grid/{rule}/{attack}/{seed}"] = records_digest(records)
    for name, cfg in SHORT_RUNS.items():
        out[f"short/{name}"] = records_digest(run_experiment(cfg))
    return out


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def write(grid: dict) -> None:
    body = {"versions": versions(), "digests": digests(grid)}
    GOLDEN_PATH.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
