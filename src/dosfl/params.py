"""One round's update matrix, pairwise distance matrices, and softmax weighting.

Between local training and aggregation a round's updates exist only as an
(n, d) float64 matrix whose row i is client i's transmitted parameter vector.
The harness owns that one matrix per round: training allocates it, attacks
overwrite their rows in it, and it is freed before the next round trains.
:func:`stack_updates` is the one place it is checked, and it returns a
float64 matrix uncopied; the kernels here and every aggregation rule take it
as given and return no view of it.  All functions here are pure; matrix rows
and columns are always ordered by client index.
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
    A float64 (n, d) matrix passes through as the same object, uncopied.  The
    rows are walked one by one only when numpy cannot stack them.
    """
    if len(rows) == 0:
        raise ConfigError("no client updates given")
    try:
        mat = np.asarray(rows, dtype=np.float64)
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

    Both come from ``scipy.spatial.distance.pdist``, which loops over the row
    pairs in C without a BLAS call or an (n, n, d) temporary.  Both matrices
    are symmetric with an exactly zero diagonal.  The cosine distance
    1 - cos(a, b) lies in [0, 2]; a row whose norm is 0, including one whose
    squared entries underflow, is orthogonal to every other row (distance
    1.0), which keeps the matrix finite when an attack or initialization
    produces an all-zero update.  Any other pair at Euclidean distance
    exactly 0 is at cosine distance exactly 0.  Rows whose squared norms
    could overflow are scaled by 2**-e for ``pdist`` and the Euclidean
    distances by 2**e back, so finite rows give finite distances.
    """
    n = mat.shape[0]
    if n < 2:
        raise ConfigError(f"pairwise distances need at least 2 updates, got {n}")
    # A squared norm is 0 exactly when the norm is, also when every square underflows.
    sq_norms = np.einsum("ij,ij->i", mat, mat)
    e = 0
    if sq_norms.max() > np.finfo(np.float64).max / 8:  # below it, no squared difference overflows
        e = int(np.frexp(np.abs(mat).max())[1])
        mat = np.ldexp(mat, -e)  # entries below 1 in magnitude
        sq_norms = np.einsum("ij,ij->i", mat, mat)
    euc = squareform(pdist(mat, "euclidean"))
    cos = squareform(pdist(mat, "cosine"))  # NaN or arbitrary on zero-norm rows, reset below
    # Equal rows are at Euclidean distance 0, and so is a pair whose squared
    # differences all underflow, an angle too small for pdist's cosine to hold.
    cos[euc == 0.0] = 0.0
    zero_norm = sq_norms == 0.0
    cos[zero_norm, :] = 1.0
    cos[:, zero_norm] = 1.0
    np.fill_diagonal(cos, 0.0)
    if e:
        np.ldexp(euc, e, out=euc)
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
    No BLAS is called: the sum runs over the rows in client order, so its
    bits do not depend on the BLAS thread count, as a gemv's do at 105004
    columns.
    """
    w = check_weights(weights)
    if w.size != mat.shape[0]:
        raise DimensionError(f"{mat.shape[0]} updates but {w.size} weights")
    return np.einsum("i,ij->j", w, mat)
