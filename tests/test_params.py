import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.spatial.distance import pdist, squareform

from dosfl import params
from dosfl.aggregators import aggregate_dos
from dosfl.errors import ConfigError, DimensionError, NumericError
from dosfl.params import (
    pairwise_distances,
    softmax_weights,
    squared_distances,
    stack_updates,
    weighted_average,
)

from . import oracles


def vec(*xs):
    return np.asarray(xs, dtype=float)


def matrix_of(values):
    """One update row per entry of ``values``; a scalar entry is a 1-D row."""
    return np.array([np.atleast_1d(np.asarray(v, dtype=float)) for v in values])


def test_stack_updates_rejects_bad_rows():
    with pytest.raises(NumericError, match=r"clients \[1\]"):
        stack_updates([vec(1, 2), vec(1, np.nan), vec(3, 4)])
    with pytest.raises(NumericError, match=r"clients \[0, 2\]"):
        stack_updates([vec(np.inf, 0), vec(1, 2), vec(0, -np.inf)])
    with pytest.raises(DimensionError, match=r"clients \[1\]"):
        stack_updates([vec(1, 2), vec(1, 2, 3)])
    with pytest.raises(DimensionError):
        stack_updates([vec(), vec()])
    with pytest.raises(ConfigError):
        stack_updates([])


def test_stack_updates_takes_a_float64_matrix_uncopied():
    mat = np.arange(12.0).reshape(4, 3)
    assert stack_updates(mat) is mat
    rows = [vec(1, 2), vec(3, 4)]
    np.testing.assert_array_equal(stack_updates(rows), np.stack(rows))
    assert stack_updates(np.arange(4).reshape(2, 2)).dtype == np.float64


def euclidean_of(a, b):
    return pairwise_distances(np.array([a, b], dtype=float))[0][0, 1]


def cosine_of(a, b):
    return pairwise_distances(np.array([a, b], dtype=float))[1][0, 1]


def test_euclidean_examples():
    assert euclidean_of(vec(0, 0), vec(3, 4)) == pytest.approx(5.0)
    v = vec(1.5, -2.5, 7.0)
    assert euclidean_of(v, v) == 0.0
    assert euclidean_of(vec(1, 2, 3), vec(4, 6, 3)) == pytest.approx(5.0)
    assert oracles.euclidean_distance(vec(0, 0), vec(3, 4)) == pytest.approx(5.0)


def test_euclidean_dimension_error():
    with pytest.raises(DimensionError):
        pairwise_distances(stack_updates([vec(1, 2), vec(1, 2, 3)]))


def test_cosine_examples():
    assert cosine_of(vec(1, 0), vec(2, 0)) == pytest.approx(0.0)
    assert cosine_of(vec(1, 0), vec(-1, 0)) == pytest.approx(2.0)
    assert cosine_of(vec(1, 0), vec(0, 1)) == pytest.approx(1.0)


def test_cosine_zero_norm_convention():
    assert cosine_of(vec(0, 0), vec(1, 2)) == 1.0
    assert cosine_of(vec(1, 2), vec(0, 0)) == 1.0
    assert oracles.cosine_distance(vec(0, 0), vec(1, 2)) == 1.0


def test_distance_symmetry_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        assert euclidean_of(a, b) == pytest.approx(euclidean_of(b, a))
        assert cosine_of(a, b) == pytest.approx(cosine_of(b, a))


def test_cosine_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        alpha, beta = rng.uniform(0.01, 100, size=2)
        assert cosine_of(alpha * a, beta * b) == pytest.approx(cosine_of(a, b), abs=1e-9)


def test_pairwise_identical_updates():
    euclidean, cosine = pairwise_distances(matrix_of([[1.0, 2.0], [1.0, 2.0]]))
    assert np.all(euclidean == 0.0)
    assert np.all(cosine == 0.0)


def test_pairwise_three_scalar_clients():
    euclidean, _ = pairwise_distances(matrix_of([0.0, 1.0, 3.0]))
    expected = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float)
    np.testing.assert_allclose(euclidean, expected)


def test_pairwise_matrix_invariants_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = rng.integers(2, 8)
        euclidean, cosine = pairwise_distances(rng.standard_normal((n, 5)))
        for m in (euclidean, cosine):
            np.testing.assert_allclose(m, m.T)
            assert np.all(np.diag(m) == 0.0)
        assert np.all(euclidean >= 0.0)
        assert np.all((cosine >= 0.0) & (cosine <= 2.0))


def test_pairwise_distances_of_rows_near_overflow_are_finite():
    # finite rows whose squared differences overflow: (2e154)**2 > 1.8e308
    rng = np.random.default_rng(3)
    mat = np.where(rng.random((6, 84)) < 0.5, -1e154, 1e154)
    mat[1] = mat[0]
    mat[2, :42] *= 0.5
    euclidean, cosine = pairwise_distances(mat)
    assert np.all(np.isfinite(euclidean)) and np.all(np.isfinite(cosine))
    e = np.frexp(1e154)[1]
    np.testing.assert_array_equal(euclidean, squareform(pdist(mat / 2.0**e)))
    np.testing.assert_array_equal(cosine, pairwise_distances(mat / 2.0**e)[1])
    assert euclidean[0, 1] == 0.0 and cosine[0, 1] == 0.0
    weights = aggregate_dos(mat).weights
    assert np.all(np.isfinite(weights)) and weights.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("n, d", [(5, 3), (10, 84), (30, 7)])
def test_dos_scores_hold_under_every_power_of_two_scale(n, d):
    # COPOD reads ranks and skewness signs, so no power-of-two scale of the
    # rows moves a bit of the scores or weights: not up to the largest finite
    # one, where pairwise_distances scales the rows down for the kernels, and
    # not down to 2**-500, short of where the squares underflow
    rng = np.random.default_rng([n, d])
    mat = rng.standard_normal((n, d))
    mat[-1] = mat[0]  # tied columns
    want = aggregate_dos(mat)
    for k in range(-500, 1025 - np.frexp(np.abs(mat).max())[1]):
        got = aggregate_dos(np.ldexp(mat, k))
        assert_same_bytes(got.scores, want.scores)
        assert_same_bytes(got.weights, want.weights)


def awkward_rows(n: int, d: int, kind: str) -> np.ndarray:
    """A C-contiguous (n, d) float64 matrix of normal rows, with the rows that
    the distance kernels could treat differently: the last row all zero,
    row 1 a duplicate of row 0 and row 2 subnormal, where n leaves room."""
    rng = np.random.default_rng([n, d, len(kind)])
    mat = rng.standard_normal((n, d))
    if kind == "overflow":  # squared norms past max / 8: pairwise_distances' ldexp path
        mat = np.where(mat < 0.0, -1e154, 1e154) * rng.uniform(0.5, 1.0, (n, d))
    elif kind != "plain":
        mat *= float(kind)
    mat[-1] = 0.0
    if n >= 3:
        mat[1] = mat[0]
    if n >= 4:
        mat[2] = np.ldexp(rng.integers(-3, 4, d).astype(np.float64), -1074)
    return mat


def assert_same_bytes(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def scipy_distance_matrix(mat: np.ndarray, metric: str) -> np.ndarray:
    return squareform(pdist(mat, metric))


@pytest.mark.parametrize("kind", ["plain", "1e150", "1e-150", "overflow"])
@pytest.mark.parametrize("d", [1, 84, 5000])
@pytest.mark.parametrize("n", [2, 3, 10, 200])
def test_distance_kernels_give_scipys_bytes(n, d, kind, monkeypatch):
    mat = awkward_rows(n, d, kind)
    for metric in ("euclidean", "sqeuclidean", "cosine"):
        assert_same_bytes(params._distance_matrix(mat, metric), scipy_distance_matrix(mat, metric))
    assert_same_bytes(squared_distances(mat), scipy_distance_matrix(mat, "sqeuclidean"))
    got = pairwise_distances(mat)
    # pairwise_distances' own rules, around scipy's public functions
    monkeypatch.setattr(params, "_distance_matrix", scipy_distance_matrix)
    for matrix, expected in zip(got, pairwise_distances(mat)):
        assert_same_bytes(matrix, expected)


def test_squared_distances_of_one_row_is_zero():
    assert_same_bytes(squared_distances(np.ones((1, 5))), squareform(pdist(np.ones((1, 5)))))


@pytest.mark.parametrize("mat", [np.ones((3, 4), order="F"), np.ones((3, 8))[:, ::2],
                                 np.ones((3, 4), dtype=np.float32)],
                         ids=["fortran", "strided", "float32"])
def test_distance_kernels_refuse_what_they_would_misread(mat):
    with pytest.raises(ConfigError, match="C-contiguous float64"):
        squared_distances(mat)
    with pytest.raises(ConfigError, match="C-contiguous float64"):
        pairwise_distances(mat)


def test_stack_updates_makes_the_matrix_c_contiguous():
    mat = np.arange(12.0).reshape(3, 4, order="F")
    stacked = stack_updates(mat)
    assert stacked.flags.c_contiguous
    np.testing.assert_array_equal(stacked, mat)


def test_kernel_loader_names_the_missing_file_and_scipys_version(tmp_path):
    with pytest.raises(ImportError, match="_distance_pybind") as caught:
        params._load_distance_kernels(tmp_path)
    assert f"scipy {scipy.__version__}" in str(caught.value)


def test_kernel_loader_names_a_missing_function(monkeypatch):
    monkeypatch.setitem(params._KERNEL_NAMES, "_distance_wrap", ("no_such_kernel",))
    with pytest.raises(ImportError, match="no_such_kernel") as caught:
        params._load_distance_kernels(params._scipy_spatial_dir())
    assert f"scipy {scipy.__version__}" in str(caught.value)


SRC = Path(__file__).resolve().parent.parent / "src"


def scipy_imports(path: Path) -> list[str]:
    """Every module of scipy that the file imports, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level
                 else [])
        found += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"]
    return found


# Imports the package and CLI, runs 2 rounds of DOS, Krum and the median under
# the attacks that reach every distance kernel, and prints the scipy modules loaded.
RUN_AND_LIST_SCIPY_MODULES = """
import sys
from dataclasses import replace
import dosfl, dosfl.cli
from dosfl.aggregators import AggregatorSpec
from dosfl.config import ExperimentConfig, TrainConfig
from dosfl.harness import run_experiment
base = ExperimentConfig(train=TrainConfig(rounds=2))
for rule, attack in [("dos", "crafted_40"), ("krum", "crafted_40"), ("median", "noise_40")]:
    run_experiment(replace(base, attack=attack, aggregator=AggregatorSpec(kind=rule)))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_scipy_module_is_imported_or_run():
    assert [hit for path in sorted(SRC.rglob("*.py")) for hit in scipy_imports(path)] == []
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", RUN_AND_LIST_SCIPY_MODULES], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pairwise_needs_two_updates():
    with pytest.raises(ConfigError, match="at least 2 rows"):
        aggregate_dos(matrix_of([[1.0, 2.0]]))


def test_softmax_constant_scores_uniform():
    np.testing.assert_allclose(softmax_weights([7.7, 7.7, 7.7]), [1 / 3] * 3)


def test_softmax_closed_form():
    w = softmax_weights([0.0, math.log(2.0)])
    np.testing.assert_allclose(w, [2 / 3, 1 / 3])


def test_softmax_saturation():
    w = softmax_weights([0.0, 100.0])
    assert w[1] < 1e-40
    assert w[0] == pytest.approx(1.0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = rng.standard_normal(6) * 10
        c = rng.uniform(-50, 50)
        np.testing.assert_allclose(softmax_weights(r + c), softmax_weights(r), atol=1e-12)


def test_softmax_weights_sum_and_positivity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        w = softmax_weights(rng.uniform(0, 20, size=7))
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.all(w > 0.0)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        softmax_weights([1.0, np.nan])
    with pytest.raises(DimensionError, match="1-D"):
        softmax_weights([[1.0, 2.0]])


def test_weighted_average_identical_updates():
    mat = matrix_of([[2.0, -1.0]] * 3)
    np.testing.assert_allclose(weighted_average(mat, [0.2, 0.5, 0.3]), [2.0, -1.0])


def test_weighted_average_scalar_examples():
    mat = matrix_of([0.0, 10.0])
    assert weighted_average(mat, [0.5, 0.5])[0] == pytest.approx(5.0)
    assert weighted_average(mat, [0.9, 0.1])[0] == pytest.approx(1.0)


def test_weighted_average_length_mismatch():
    with pytest.raises(DimensionError):
        weighted_average(matrix_of([0.0, 1.0]), [1.0])


@pytest.mark.parametrize("weights", [
    [0.5, np.nan], [1.5, -0.5], [1.0 + 1e-6, 0.0], [0.3, 0.3],
], ids=["nan", "negative", "above_one", "sum_below_one"])
def test_weighted_average_rejects_invalid_weights(weights):
    with pytest.raises(NumericError):
        weighted_average(matrix_of([0.0, 1.0]), weights)


def test_weighted_average_convex_hull():
    rng = np.random.default_rng(5)
    for _ in range(30):
        mat = rng.standard_normal((5, 4))
        w = softmax_weights(rng.uniform(0, 3, 5))
        avg = weighted_average(mat, w)
        assert np.all(avg >= mat.min(axis=0) - 1e-12)
        assert np.all(avg <= mat.max(axis=0) + 1e-12)


def test_weighted_average_permutation_equivariant():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((6, 3))
    w = softmax_weights(rng.uniform(0, 2, 6))
    base = weighted_average(mat, w)
    # permuting the rows together with their weights must not matter
    perm = rng.permutation(6)
    np.testing.assert_allclose(weighted_average(mat[perm], w[perm]), base)
