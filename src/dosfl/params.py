"""One round's update matrix, pairwise distance matrices, and softmax weighting.

Between local training and aggregation a round's updates exist only as an
(n, d) float64 matrix whose row i is client i's transmitted parameter vector.
:func:`stack_updates` builds that matrix and is the one place it is checked;
the kernels here and every aggregation rule take it as given.  All functions
are pure; matrix rows and columns are always ordered by client index.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import ConfigError, DimensionError, NumericError

# How far a weight vector's sum may stray from 1 before check_weights rejects it.
WEIGHT_SUM_TOL = 1e-9


def stack_updates(rows) -> np.ndarray:
    """Stack one round's update vectors, row i from client i, into an (n, d) matrix.

    Raises unless there is at least one row, every row is 1-D of one non-zero
    length, and every entry is finite; the error names the offending clients.
    """
    if len(rows) == 0:
        raise ConfigError("no client updates given")
    shape = np.shape(rows[0])
    if len(shape) != 1 or shape[0] < 1:
        raise DimensionError(f"updates must be 1-D and non-empty, got shape {shape}")
    ragged = [i for i, row in enumerate(rows) if np.shape(row) != shape]
    if ragged:
        raise DimensionError(f"updates of clients {ragged} differ in shape from {shape}")
    mat = np.stack(rows).astype(np.float64, copy=False)
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if bad.size:
        raise NumericError(f"updates of clients {bad.tolist()} contain NaN or Inf")
    return mat


def pairwise_distances(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compute the n x n Euclidean and cosine distance matrices of the rows
    of a round's update matrix, returned in that order.

    Both come from ``scipy.spatial.distance.pdist``, which loops over the row
    pairs in C without a BLAS call or an (n, n, d) temporary.  Both matrices
    are symmetric with an exactly zero diagonal.  The cosine distance
    1 - cos(a, b) lies in [0, 2]; a row whose norm is 0, including one whose
    squared entries underflow, is orthogonal to every other row (distance
    1.0), which keeps the matrix finite when an attack or initialization
    produces an all-zero update.  Exactly equal non-zero rows are at
    distance exactly 0.
    """
    n = mat.shape[0]
    if n < 2:
        raise ConfigError(f"pairwise distances need at least 2 updates, got {n}")
    condensed = pdist(mat, "euclidean")  # pairs i < j in row-major order
    euc = squareform(condensed)
    zero = np.flatnonzero(condensed == 0.0)
    del condensed  # alive to the end, it would add to the peak memory of every call
    cos = squareform(pdist(mat, "cosine"))  # NaN or arbitrary on zero-norm rows, reset below
    # Equal rows are at Euclidean distance 0, but not every such pair is
    # equal: squared differences below ~1e-160 underflow.  Compare each
    # candidate row with the first row of its class of equal rows.  With no
    # candidate, each row is its own class, and the diagonal is zeroed below.
    if zero.size:
        first = np.arange(n)
        widths = np.arange(n - 1, 0, -1)
        starts = np.cumsum(widths) - widths  # condensed index of each pair (i, i + 1)
        rows = np.searchsorted(starts, zero, side="right") - 1
        for i, j in zip(rows, zero - starts[rows] + rows + 1):
            if first[i] == i and first[j] == j and np.array_equal(mat[i], mat[j]):
                first[j] = i
        cos[first[:, None] == first[None, :]] = 0.0
    # A squared norm is 0 exactly when the norm is, also when every square underflows.
    zero_norm = np.einsum("ij,ij->i", mat, mat) == 0.0
    cos[zero_norm, :] = 1.0
    cos[:, zero_norm] = 1.0
    np.fill_diagonal(cos, 0.0)
    return euc, cos


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
    """
    w = check_weights(weights)
    if w.size != mat.shape[0]:
        raise DimensionError(f"{mat.shape[0]} updates but {w.size} weights")
    return w @ mat
