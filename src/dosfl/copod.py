"""Parameter-free copula-based outlier scoring (COPOD) for row samples.

Given an (n, d) matrix with rows as samples, each column gives every sample
a left-tail and a right-tail probability from its empirical CDF.  The tails
are fused per dimension, as in the COPOD authors' reference implementation
(PyOD's ``COPOD``): with L = -ln(left ECDF) and R = -ln(right ECDF), a
column contributes max(S, (L + R) / 2), where S is the tail that the
column's skewness points to (L if left-skewed, R if right-skewed, L + R if
symmetric).  A sample's score is the sum over columns, so a sample deep in
the skewed tail of any column scores high, while a sample in the short tail
of a skewed column counts only half.

The ECDFs of all columns come from one sort per column of the transposed
matrix: the weak-inequality counts at a point are the ends of its tie run in
sorted order.  They are exact integers, so the scores do not depend on how
they are computed.  The skewness signs are reductions along the same
transposed block, and the per-column contributions are summed in column
order.

Scoring is rank-based apart from the skewness sign, so the scores are
invariant under positive-affine per-column maps, which keep both the ranks
and the sign of the skewness.  They are not invariant under every strictly
increasing map: a nonlinear one keeps the ranks but can flip a column's
skewness sign.  Both ECDFs use weak inequalities, so every value is at least
1/n and the logarithms stay finite; a zero-variance column yields all-ones
tables and contributes nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError
from .params import DistancePair


def ecdf_left(column) -> np.ndarray:
    """Left-tail ECDF evaluated at each point: F(x_i) = |{k : x_k <= x_i}| / n."""
    x = _as_column(column)
    at_most, _ = _ecdf_counts(x[None, :])
    return at_most[0] / x.size


def ecdf_right(column) -> np.ndarray:
    """Right-tail ECDF: F(x_i) = |{k : x_k >= x_i}| / n.

    Equals ecdf_left applied to the negated column.
    """
    x = _as_column(column)
    _, below = _ecdf_counts(x[None, :])
    return (x.size - below[0]) / x.size


def skew_sign(column) -> int:
    """Sign of the sample skewness; a constant column or a standardised third
    moment below 1e-12 in magnitude maps to 0.

    The column is standardised before the threshold test, so the sign does
    not depend on the column's scale.
    """
    x = _as_column(column)
    if x.size < 2:
        raise ConfigError("skew_sign needs at least 2 values")
    return int(_skew_signs(x[None, :])[0])


def copod_scores(matrix) -> np.ndarray:
    """Score each row of an (n, d) matrix; larger means more outlying.

    Per column j: L_ij = -ln(left ECDF), R_ij = -ln(right ECDF), and S_ij is
    L_ij for a left-skewed column, R_ij for a right-skewed one and
    L_ij + R_ij for skew sign 0.  Per row: the score is
    sum_j max(S_ij, (L_ij + R_ij) / 2), each term bounded by ln(n).  The
    scores are invariant under positive-affine per-column maps, not under
    every monotone map (see the module docstring).
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ConfigError(f"expected a 2-D matrix, got shape {m.shape}")
    n = m.shape[0]
    if n < 2:
        raise ConfigError(f"COPOD needs at least 2 rows, got {n}")
    if not np.all(np.isfinite(m)):
        raise NumericError("score matrix contains NaN or Inf")

    block = np.ascontiguousarray(m.T)  # one row per column of the input
    at_most, below = _ecdf_counts(block)
    left = -np.log(at_most / n)
    right = -np.log((n - below) / n)
    sign = _skew_signs(block)[:, None]
    tail = np.where(sign < 0, left, np.where(sign > 0, right, left + right))
    # summing along axis 0 adds the columns in order, as a running sum would
    return np.maximum(tail, (left + right) / 2.0).sum(axis=0)


def dos_outlier_scores(distances: DistancePair) -> np.ndarray:
    """Average the COPOD scores of the Euclidean and cosine distance matrices.

    The self-distance diagonal stays in: the black-box scorer takes the full
    (n, n) matrix and the weak-inequality ECDFs absorb the tied zeros.
    """
    r_e = copod_scores(distances.euclidean)
    r_c = copod_scores(distances.cosine)
    return (r_e + r_c) / 2.0


def _as_column(column) -> np.ndarray:
    x = np.asarray(column, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ConfigError(f"expected a non-empty 1-D column, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("column contains NaN or Inf")
    return x


def _ecdf_counts(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row x of a (d, n) block, the counts |{k : x_k <= x_i}| and
    |{k : x_k < x_i}| at every i, read from one sort per row.

    In sorted order, the first count is the end of x_i's tie run and the
    second its start.
    """
    d, n = block.shape
    order = np.argsort(block, axis=1)  # the order within a tie run does not matter
    ranked = np.take_along_axis(block, order, axis=1)
    starts = np.ones((d, n), dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    ends = np.ones((d, n), dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    pos = np.arange(n)
    run_start = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
    run_end = np.minimum.accumulate(np.where(ends, pos + 1, n)[:, ::-1], axis=1)[:, ::-1]
    at_most = np.empty((d, n), dtype=np.intp)
    below = np.empty((d, n), dtype=np.intp)
    np.put_along_axis(at_most, order, run_end, axis=1)
    np.put_along_axis(below, order, run_start, axis=1)
    return at_most, below


def _skew_signs(block: np.ndarray) -> np.ndarray:
    """Skewness sign of each row of a (d, n) block, reduced along the rows.

    Constant rows map to 0.  Each row's deviations are divided by their
    largest magnitude, which keeps the powers from under- or overflowing.
    """
    constant = block.min(axis=1) == block.max(axis=1)
    dev = block - block.mean(axis=1, keepdims=True)
    dev[constant] = 0.0  # the mean of equal values can be off by rounding
    dev /= np.where(constant, 1.0, np.abs(dev).max(axis=1))[:, None]
    sq = dev * dev
    with np.errstate(invalid="ignore"):  # 0 / 0 on constant rows
        # sq * dev, not dev**3: numpy's pow is ~50x slower on negative bases
        g1 = np.mean(sq * dev, axis=1) / np.mean(sq, axis=1) ** 1.5
    return np.where(constant | (np.abs(g1) < 1e-12), 0.0, np.sign(g1))
