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
matrix.  When no column holds two equal values, a point's count below is its
rank in sorted order and its count at most is one more.  Otherwise the
weak-inequality counts at a point are the ends of its tie run in sorted
order, found by :func:`tie_runs` (which evaluation also uses).  The counts
are exact integers, so the scores do not depend on which way they are found,
and both tails read their logarithms from one table of -ln(k / n) for
k = 1..n.
The skewness signs, from the standardised third moment and so scale-free,
are reductions along the same transposed block.

Scoring is rank-based apart from the skewness sign, so the scores are
invariant under negation and under positive-affine per-column maps, which
keep the ranks and the sign of the skewness.  They are not invariant under
every strictly increasing map: a nonlinear one keeps the ranks but can flip
a column's skewness sign.  Both ECDFs use weak inequalities, so every value
is at least 1/n and the logarithms stay finite; a zero-variance column
contributes nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError


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
    below, at_most = _ecdf_counts(block)
    neg_log = _neg_log_table(n)
    left = neg_log[at_most - 1]
    right = neg_log[n - 1 - below]
    sign = _skewness_signs(block)[:, None]
    tail = np.where(sign < 0, left, np.where(sign > 0, right, left + right))
    # summing along axis 0 adds the columns in order, as a running sum would
    return np.maximum(tail, (left + right) / 2.0).sum(axis=0)


def tie_runs(ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For arrays sorted along the last axis, each position's tie-run start
    and one past the run's end.

    Equal neighbours share a run; NaN equals nothing, so each NaN is a run of
    its own.  In an ascending array the start counts the values below the
    position's value and the end the values at most it.  The end is the
    start read in the reversed array.
    """
    def starts(r: np.ndarray) -> np.ndarray:
        new = np.ones(r.shape, dtype=bool)
        new[..., 1:] = r[..., 1:] != r[..., :-1]
        return np.maximum.accumulate(np.where(new, np.arange(r.shape[-1]), 0), axis=-1)

    return starts(ranked), ranked.shape[-1] - starts(ranked[..., ::-1])[..., ::-1]


def _ecdf_counts(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row x of a (d, n) block, |{k : x_k < x_i}| and |{k : x_k <= x_i}|
    at every i, in input order.

    A block with no two equal values in any row is tie-free: each value's
    count below is its rank, the inverse of the sort order, and its count at
    most is one more.  Any tie in the block sends the whole block through
    :func:`tie_runs`.  Each temporary is made late and dies on return: at
    200 x 200, holding the sort order through the scoring more than doubles a
    call's minor page faults (437 -> 950) and adds ~0.8 ms."""
    order = np.argsort(block, axis=1)  # the order within a tie run does not matter
    ranked = np.take_along_axis(block, order, axis=1)
    if not (ranked[:, 1:] == ranked[:, :-1]).any():
        below = np.empty_like(order)
        np.put_along_axis(below, order, np.arange(block.shape[1]), axis=1)
        return below, below + 1
    counts = (np.empty_like(order), np.empty_like(order))
    for out, run in zip(counts, tie_runs(ranked)):
        np.put_along_axis(out, order, run, axis=1)
    return counts


def _neg_log_table(n: int) -> np.ndarray:
    """-ln(k / n) at index k - 1, for k = 1..n: both tails' logarithms, read
    by their integer counts.  Entry k - 1 is bitwise the elementwise
    -np.log(k / n), which a test pins for every n up to 3000."""
    return -np.log(np.arange(1, n + 1) / n)


def _skewness_signs(block: np.ndarray) -> np.ndarray:
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
