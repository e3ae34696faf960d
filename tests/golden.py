"""Golden digests: two hashes per experiment, pinned in ``golden_digests.json``.

Each experiment's records are hashed by ``perfbench/worker.py``'s
``records_digest``, which covers every field of every round, floats by their
exact bytes.  A record holds weights, scores and metrics, not the model, so a
last-bit change in training shows in it only where it changes one of those.
The second hash, the theta digest, covers the exact bytes of every round's
global parameter vector, as ``run_experiment`` hands it to
``harness.evaluate``; :func:`run` captures them by wrapping that function.

The pinned runs are the acceptance grid's 70 plus the short runs below,
which cover what the grid lacks.  A change that moves any bit of any record
or any global model moves a digest; one that changes bits on purpose
regenerates the file with ``python3 tools/golden_digests.py``.

The digests hold only for the numpy, scipy and BLAS builds that made them,
so the file records those versions too.  They also depend on the SIMD
kernels numpy dispatches to and on the core OpenBLAS selects, which a CPU
without AVX-512 changes (``NPY_DISABLE_CPU_FEATURES`` and
``OPENBLAS_CORETYPE`` emulate one), so the file records that platform too:
when digests move on another platform, each digest test names both first
(:func:`platform_change`).
"""

import ctypes
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath as umath

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from worker import environment, records_digest  # noqa: E402

from dosfl import harness  # noqa: E402
from dosfl.aggregators import AggregatorSpec  # noqa: E402
from dosfl.config import ExperimentConfig, TrainConfig  # noqa: E402
from dosfl.models import ModelSpec  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_digests.json"
VERSION_KEYS = ("numpy", "scipy", "blas")
MAPS = ("digests", "theta_digests")  # record digests, then global-parameter digests

_SHORT = ExperimentConfig(train=TrainConfig(rounds=3))
# the wide_model workload's shape: mlp1 100-1000-4, 105004 parameters per client
_WIDE = replace(_SHORT, model=ModelSpec(kind="mlp1", input_dim=100, hidden_dim=1000))
# name -> configuration of a run of at most 3 rounds
SHORT_RUNS = {
    # the many_clients workload's shape: tie-free distance columns at n = 200
    "many_clients": replace(_SHORT, clients=200, attack="noise_40",
                            train=replace(_SHORT.train, learning_rate=0.3)),
    "median": replace(_SHORT, attack="noise_scaled_40", aggregator=AggregatorSpec(kind="median")),
    "label_flip": replace(_SHORT, attack="label_flip_10"),
    "mlp1": replace(_SHORT, attack="crafted_40", model=ModelSpec(kind="mlp1", hidden_dim=32)),
    # one crafted group whose ids are not consecutive, which no scenario assigns
    "crafted_split": replace(_SHORT, attack="custom",
                             custom_plan=tuple((cid, "crafted") for cid in (2, 5, 8, 9))),
    "wide_dos_crafted": replace(_WIDE, attack="crafted_40"),
    "wide_median": replace(_WIDE, attack="noise_scaled_40",
                           aggregator=AggregatorSpec(kind="median")),
    "wide_trimmed_mean": replace(_WIDE, attack="noise_scaled_40",
                                 aggregator=AggregatorSpec(kind="trimmed_mean",
                                                           trim_fraction=0.2)),
}


class Run(list):
    """One experiment's records, with the digest of its global models."""

    theta_digest: str


def run(cfg: ExperimentConfig) -> Run:
    """``run_experiment(cfg)``, hashing the bytes of each round's global
    parameters on their way into ``harness.evaluate``."""
    h = hashlib.sha256()
    evaluate = harness.evaluate

    def hashing_evaluate(model, params, test):
        h.update(params.tobytes())
        return evaluate(model, params, test)

    harness.evaluate = hashing_evaluate
    try:
        records = Run(harness.run_experiment(cfg))
    finally:
        harness.evaluate = evaluate
    records.theta_digest = h.hexdigest()
    return records


def versions() -> dict[str, str]:
    env = environment()
    return {key: env[key] for key in VERSION_KEYS}


def platform() -> dict[str, object]:
    """numpy's enabled SIMD dispatch targets and the OpenBLAS core of numpy's
    bundled library, ``"unknown"`` where it cannot be read."""
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    try:  # numpy has loaded the library already, so this is the handle it uses
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    except (IndexError, OSError, AttributeError):
        core = "unknown"
    return {"numpy_dispatch": targets, "openblas_core": core}


def platform_change(pinned: dict) -> str | None:
    """For a test whose digests moved: the line naming the golden file's
    platform and this run's, or None when they are the same."""
    here = platform()
    if pinned["platform"] == here:
        return None
    return f"golden digests were made on {pinned['platform']}, this run is on {here}"


def digests(grid: dict) -> dict[str, dict[str, str]]:
    """Both digests of every grid run, keyed by rule, attack and seed index,
    and of every short run, keyed by its name; the grid's runs come from
    :func:`run`."""
    runs, hashed = {}, set()
    for (rule, attack), suite in grid.items():
        if id(suite) in hashed:  # a second name for runs already hashed
            continue
        hashed.add(id(suite))
        for seed, records in enumerate(suite):
            runs[f"grid/{rule}/{attack}/{seed}"] = records
    for name, cfg in SHORT_RUNS.items():
        runs[f"short/{name}"] = run(cfg)
    return {"digests": {name: records_digest(r) for name, r in runs.items()},
            "theta_digests": {name: r.theta_digest for name, r in runs.items()}}


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def write(grid: dict) -> None:
    body = {"versions": versions(), "platform": platform(), **digests(grid)}
    GOLDEN_PATH.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
