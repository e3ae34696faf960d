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
kernels numpy dispatches to and on the core OpenBLAS selects (the
platform), which a CPU without AVX-512 changes.  So the file holds one pair
of maps per platform: the one the script runs on, and the AVX2 and Haswell
kernels such a CPU selects, which :data:`EMULATED` switches to in a child
process.  Each digest test compares the pair of the platform it runs on.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath as umath

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from worker import environment, records_digest  # noqa: E402

from dosfl import harness  # noqa: E402
from dosfl.aggregators import AggregatorSpec  # noqa: E402
from dosfl.config import ExperimentConfig, TrainConfig  # noqa: E402
from dosfl.models import ModelSpec  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_digests.json"
VERSION_KEYS = ("numpy", "scipy", "blas")
MAPS = ("digests", "theta_digests")  # record digests, then global-parameter digests
# numpy's AVX2 kernels and OpenBLAS's Haswell kernels, which a CPU without
# AVX-512 selects, for a process started with these variables
EMULATED = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
            "OPENBLAS_CORETYPE": "Haswell"}

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


def digests(grid: dict, short=tuple(SHORT_RUNS)) -> dict[str, dict[str, str]]:
    """Both digests of every grid run, keyed by rule, attack and seed index,
    and of the named short runs, keyed by their names; the grid's runs come
    from :func:`run`."""
    runs, hashed = {}, set()
    for (rule, attack), suite in grid.items():
        if id(suite) in hashed:  # a second name for runs already hashed
            continue
        hashed.add(id(suite))
        for seed, records in enumerate(suite):
            runs[f"grid/{rule}/{attack}/{seed}"] = records
    for name in short:
        runs[f"short/{name}"] = run(SHORT_RUNS[name])
    return {"digests": {name: records_digest(r) for name, r in runs.items()},
            "theta_digests": {name: r.theta_digest for name, r in runs.items()}}


def made_here(grid: dict, short=tuple(SHORT_RUNS)) -> dict:
    """A pair as the golden file holds it: this platform and :func:`digests`."""
    return {"platform": platform(), **digests(grid, short)}


def made_in_child(call: str, env: dict[str, str]) -> dict:
    """The pair that ``call``, a call of :func:`made_here` that may read
    ``run_grid``, returns in a fresh interpreter with ``env`` added to this
    process's environment."""
    code = ("import json; from tests import golden; from tests.test_acceptance import run_grid; "
            f"print(json.dumps(golden.{call}))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env})
    if proc.returncode:
        raise RuntimeError(f"{call} failed under {env}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def pair(pinned: dict, made_on: dict) -> dict | None:
    """The pinned file's pair made on the platform ``made_on``, or None."""
    return next((p for p in pinned["platforms"] if p["platform"] == made_on), None)


def write(pairs: list[dict]) -> None:
    body = {"versions": versions(), "platforms": pairs}
    GOLDEN_PATH.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
