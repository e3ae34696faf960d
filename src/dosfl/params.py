"""One round's update matrix, pairwise distance matrices, and softmax weighting.

Between local training and aggregation a round's updates exist only as an
(n, d) float64 matrix whose row i is client i's transmitted parameter vector.
The harness owns that one matrix per round: training allocates it, attacks
overwrite their rows in it, and it is freed before the next round trains.
:func:`stack_updates` is the one place it is checked, and it returns a
C-contiguous float64 matrix uncopied; the kernels here and every aggregation rule take it
as given and return no view of it.  All functions here are pure; matrix rows
and columns are always ordered by client index.

The distance kernels live here alone: scipy's compiled ``pdist`` loops and
its condensed-to-square copy, loaded from their two extension files in
scipy's ``spatial/`` directory.  Neither file needs the ``scipy.spatial``
package, whose import took 0.4 s and 36 MB (scipy 1.17.1, 2-core Xeon), so
no ``scipy`` module is imported.  They give the bits of
``scipy.spatial.distance.pdist`` and ``squareform``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

# How far a weight vector's sum may stray from 1 before check_weights rejects it.
WEIGHT_SUM_TOL = 1e-9

# The functions taken from each of scipy's distance extensions in spatial/.
_KERNEL_NAMES = {
    "_distance_pybind": ("pdist_euclidean", "pdist_sqeuclidean"),
    "_distance_wrap": ("pdist_cosine_double_wrap", "to_squareform_from_vector_wrap"),
}


def _load_distance_kernels(directory: Path) -> dict:
    """The functions of ``_KERNEL_NAMES``, by name, from the extension files
    in ``directory``.  A file is loaded under this module's name, not
    scipy's, and not entered in ``sys.modules``.  A missing file or function
    raises ImportError naming it."""
    kernels = {}
    for stem, names in _KERNEL_NAMES.items():
        paths = [directory / (stem + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if p.is_file()), None)
        if path is None:
            raise _missing_kernel(f"extension file {paths[0].name} in {directory}")
        spec = importlib.util.spec_from_file_location(f"{__name__}.{stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name in names:
            if not hasattr(module, name):
                raise _missing_kernel(f"function {name} in {path}")
            kernels[name] = getattr(module, name)
    return kernels


def _missing_kernel(what: str) -> ImportError:
    from importlib.metadata import PackageNotFoundError, version
    try:
        installed = f"scipy {version('scipy')}"
    except PackageNotFoundError:
        installed = "no scipy"
    return ImportError(f"dosfl needs scipy's compiled distance kernels: no {what} "
                       f"({installed} installed)")


def _scipy_spatial_dir() -> Path:
    """Found without running scipy's ``__init__``."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise _missing_kernel("scipy package")
    return Path(spec.submodule_search_locations[0]) / "spatial"


_KERNELS = _load_distance_kernels(_scipy_spatial_dir())


def stack_updates(rows) -> np.ndarray:
    """Stack one round's update vectors, row i from client i, into an (n, d) matrix.

    Raises unless there is at least one row, every row is 1-D of one non-zero
    length, and every entry is finite; the error names the offending clients.
    The result is C-contiguous float64, as the distance kernels need; such an
    (n, d) matrix passes through as the same object, uncopied.  The rows are
    walked one by one only when numpy cannot stack them.
    """
    if len(rows) == 0:
        raise ConfigError("no client updates given")
    try:
        mat = np.asarray(rows, dtype=np.float64, order="C")
    except ValueError:
        # name the clients whose rows differ in shape from row 0; if none
        # does, the error is numpy's own (an entry that is not a number)
        shape = np.shape(rows[0])
        _check_row_shape(shape)
        ragged = [i for i, row in enumerate(rows) if np.shape(row) != shape]
        if not ragged:
            raise
        raise DimensionError(f"updates of clients {ragged} differ in shape from {shape}") from None
    _check_row_shape(mat.shape[1:])
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if bad.size:
        raise NumericError(f"updates of clients {bad.tolist()} contain NaN or Inf")
    return mat


def _check_row_shape(shape: tuple[int, ...]) -> None:
    if len(shape) != 1 or shape[0] < 1:
        raise DimensionError(f"updates must be 1-D and non-empty, got shape {shape}")


def pairwise_distances(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compute the n x n Euclidean and cosine distance matrices of the rows
    of a round's update matrix, returned in that order.

    Both come from scipy's ``pdist`` kernels, which loop over the row pairs
    in C without a BLAS call or an (n, n, d) temporary, so ``mat`` must be
    C-contiguous float64, as :func:`stack_updates` returns it.  Both matrices
    are symmetric with an exactly zero diagonal.  The cosine distance
    1 - cos(a, b) lies in [0, 2]; a row whose norm is 0, including one whose
    squared entries underflow, is orthogonal to every other row (distance
    1.0), which keeps the matrix finite when an attack or initialization
    produces an all-zero update.  Any other pair at Euclidean distance
    exactly 0 is at cosine distance exactly 0.  Rows whose squared norms
    could overflow are scaled by 2**-e for the kernels and the Euclidean
    distances by 2**e back, so finite rows give finite distances.  A run has
    at least 2 rows, as its config ensures; ``copod_scores`` refuses fewer.
    """
    # A squared norm is 0 exactly when the norm is, also when every square underflows.
    sq_norms = np.einsum("ij,ij->i", mat, mat)
    e = 0
    if sq_norms.max() > np.finfo(np.float64).max / 8:  # below it, no squared difference overflows
        e = int(np.frexp(np.abs(mat).max())[1])
        mat = np.ldexp(mat, -e)  # entries below 1 in magnitude
        sq_norms = np.einsum("ij,ij->i", mat, mat)
    euc = _distance_matrix(mat, "euclidean")
    cos = _distance_matrix(mat, "cosine")  # NaN or arbitrary on zero-norm rows, reset below
    # Equal rows are at Euclidean distance 0, and so is a pair whose squared
    # differences all underflow, an angle too small for the cosine kernel to hold.
    cos[euc == 0.0] = 0.0
    zero_norm = sq_norms == 0.0
    cos[zero_norm, :] = 1.0
    cos[:, zero_norm] = 1.0
    np.fill_diagonal(cos, 0.0)
    if e:
        np.ldexp(euc, e, out=euc)
    return euc, cos


def squared_distances(mat: np.ndarray) -> np.ndarray:
    """The (n, n) squared Euclidean distances between the rows of a
    C-contiguous float64 (n, d) matrix, in O(n^2 + n*d) memory."""
    return _distance_matrix(mat, "sqeuclidean")


def _distance_matrix(mat: np.ndarray, metric: str) -> np.ndarray:
    """The square matrix of scipy's ``pdist`` over ``mat``, bit for bit, for
    metric "euclidean", "sqeuclidean" or "cosine".  The cosine kernel and the square
    copy read their buffers as C-contiguous float64 whatever the strides, so
    any other ``mat`` is refused rather than misread."""
    if mat.dtype != np.float64 or not mat.flags.c_contiguous:
        raise ConfigError(f"distance kernels need a C-contiguous float64 matrix, got {mat.dtype} "
                          f"with strides {mat.strides}")
    n = mat.shape[0]
    condensed = np.empty(n * (n - 1) // 2)
    if metric == "cosine":
        _KERNELS["pdist_cosine_double_wrap"](mat, condensed)
    else:
        _KERNELS[f"pdist_{metric}"](mat, out=condensed)
    square = np.zeros((n, n))
    _KERNELS["to_squareform_from_vector_wrap"](square, condensed)
    return square


def softmax_weights(scores) -> np.ndarray:
    """Map outlier scores r to weights w_i = exp(-r_i) / sum_j exp(-r_j).

    The max score is subtracted before exponentiation: crafted attacks can
    produce large scores and the shift does not change the result.  Finite
    scores give finite weights in [0, 1] that sum to 1, so the result is not
    re-checked here; :func:`weighted_average` checks the weights it is given.
    """
    r = np.asarray(scores, dtype=np.float64)
    if r.ndim != 1 or r.size < 1:
        raise DimensionError(f"scores must be a non-empty 1-D sequence, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise NumericError("outlier scores contain NaN or Inf")
    z = np.exp(-(r - r.min()))
    return z / z.sum()


def check_weights(w: np.ndarray) -> np.ndarray:
    """Assert weight-vector invariants: finite, in [0, 1], summing to 1."""
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NumericError("weights contain NaN or Inf")
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise NumericError(f"weights out of [0, 1]: {w}")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise NumericError(f"weights sum to {w.sum()!r}, expected 1")
    return w


def weighted_average(mat: np.ndarray, weights) -> np.ndarray:
    """Coordinate-wise convex combination sum_i w_i * mat[i].

    ``weights[k]`` applies to row k of ``mat``, client k's update.  This is
    the one place a round's weight vector is checked with :func:`check_weights`.
    No BLAS is called: the sum runs over the rows in client order, so its
    bits do not depend on the BLAS thread count, as a gemv's do at 105004
    columns.
    """
    w = check_weights(weights)
    if w.size != mat.shape[0]:
        raise DimensionError(f"{mat.shape[0]} updates but {w.size} weights")
    return np.einsum("i,ij->j", w, mat)
