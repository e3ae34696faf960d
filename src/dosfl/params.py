"""Flat parameter vectors, pairwise distance matrices, and softmax weighting.

Parameter vectors are plain 1-D float64 numpy arrays validated by
:func:`as_parameter_vector`.  :func:`stack_updates` is the one place that
sorts a round's updates by client id, checks them against each other and
stacks them into an (n, d) matrix; the matrix kernels here take that matrix,
so a rule stacks and validates its updates once per round.  All functions are
pure; matrix rows and columns are always ordered by ascending client id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import ConfigError, DimensionError, NumericError


def as_parameter_vector(values) -> np.ndarray:
    """Validate and return a flat float64 parameter vector.

    Rejects empty vectors and any non-finite entry (attacks inject
    large-but-finite values, never NaN/Inf).
    """
    vec = np.asarray(values, dtype=np.float64)
    if vec.ndim != 1 or vec.size < 1:
        raise DimensionError(f"parameter vector must be 1-D and non-empty, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise NumericError("parameter vector contains NaN or Inf")
    return vec


@dataclass(frozen=True)
class ClientUpdate:
    """One client's transmitted flat parameter vector for a round."""

    client_id: int
    params: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "params", as_parameter_vector(self.params))
        if self.client_id < 0:
            raise ConfigError(f"client_id must be >= 0, got {self.client_id}")


@dataclass(frozen=True)
class DistancePair:
    """Euclidean and cosine pairwise distance matrices over one round's updates."""

    euclidean: np.ndarray
    cosine: np.ndarray


def stack_updates(updates) -> tuple[list[int], np.ndarray]:
    """Sort updates by client id and stack their vectors into an (n, d) matrix.

    Raises on duplicate ids or mismatched dimensions.
    """
    ups = sorted(updates, key=lambda u: u.client_id)
    if not ups:
        raise ConfigError("no client updates given")
    ids = [u.client_id for u in ups]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate client ids in update set: {ids}")
    dim = ups[0].params.size
    for u in ups:
        if u.params.size != dim:
            raise DimensionError(
                f"client {u.client_id} has dimension {u.params.size}, expected {dim}"
            )
    return ids, np.stack([u.params for u in ups])


def pairwise_distances(mat: np.ndarray) -> DistancePair:
    """Compute the n x n Euclidean and cosine distance matrices of the rows
    of a matrix stacked by :func:`stack_updates`.

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
    euc = squareform(pdist(mat, "euclidean"))
    cos = squareform(pdist(mat, "cosine"))  # NaN or arbitrary on zero-norm rows, reset below
    # Equal rows are at Euclidean distance 0, but not every such pair is
    # equal: squared differences below ~1e-160 underflow.  Compare each
    # candidate row with the first row of its class of equal rows.
    first = np.arange(n)
    for i, j in zip(*np.nonzero(np.triu(euc == 0.0, 1))):
        if first[i] == i and first[j] == j and np.array_equal(mat[i], mat[j]):
            first[j] = i
    cos[first[:, None] == first[None, :]] = 0.0
    # A squared norm is 0 exactly when the norm is, also when every square underflows.
    zero_norm = np.einsum("ij,ij->i", mat, mat) == 0.0
    cos[zero_norm, :] = 1.0
    cos[:, zero_norm] = 1.0
    np.fill_diagonal(cos, 0.0)
    return DistancePair(euclidean=euc, cosine=cos)


def softmax_weights(scores) -> np.ndarray:
    """Map outlier scores r to weights w_i = exp(-r_i) / sum_j exp(-r_j).

    The max score is subtracted before exponentiation: crafted attacks can
    produce large scores and the shift does not change the result.
    """
    r = np.asarray(scores, dtype=np.float64)
    if r.ndim != 1 or r.size < 1:
        raise DimensionError(f"scores must be a non-empty 1-D sequence, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise NumericError("outlier scores contain NaN or Inf")
    z = np.exp(-(r - r.min()))
    w = z / z.sum()
    check_weights(w)
    return w


def check_weights(w: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Assert weight-vector invariants: finite, in [0, 1], summing to 1."""
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NumericError("weights contain NaN or Inf")
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise NumericError(f"weights out of [0, 1]: {w}")
    if abs(w.sum() - 1.0) > tol:
        raise NumericError(f"weights sum to {w.sum()!r}, expected 1")
    return w


def weighted_average(mat: np.ndarray, weights) -> np.ndarray:
    """Coordinate-wise convex combination sum_i w_i * mat[i].

    ``mat`` is stacked by :func:`stack_updates`, so ``weights[k]`` applies to
    the k-th smallest client id.
    """
    w = check_weights(weights)
    if w.size != mat.shape[0]:
        raise DimensionError(f"{mat.shape[0]} updates but {w.size} weights")
    return w @ mat
