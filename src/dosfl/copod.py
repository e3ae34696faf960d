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
matrix, and each column's terms are built in sorted order.  When no column
holds two equal values, sorted position p has p values below it and p + 1
at most it, so with L the table of -ln(k / n) for k = 1..n and R its
reverse, a column's terms are one of three length-n vectors picked by its
skewness sign: max(L, (L + R) / 2), max(L + R, (L + R) / 2) or
max(R, (L + R) / 2).  Otherwise the weak-inequality counts at a position are
the ends of its tie run, found by :func:`tie_runs` (which evaluation also
uses), and both tails read the same table at those integer counts.  One
``np.bincount`` over the sort order then adds each sample's terms in column
order, starting from 0.0 as a sum over the columns in input order does, so
the scores are bitwise the same on either path.  The skewness signs, from
the standardised third moment and so scale-free, are reductions along the
same transposed block.

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
    sign = _skewness_signs(block)
    order = np.argsort(block, axis=1)  # the order within a tie run does not matter
    ranked = np.take_along_axis(block, order, axis=1)
    del block  # a (d, n) array kept past its use adds to the peak of every call
    counts = _tied_counts(ranked)
    del ranked
    neg_log = _neg_log_table(n)
    if counts is None:  # sorted position p has the counts p and p + 1
        terms = _fused_tails(neg_log, neg_log[::-1], np.arange(-1, 2)[:, None])[sign + 1]
    else:
        below, at_most = counts
        terms = _fused_tails(neg_log[at_most - 1], neg_log[n - 1 - below], sign[:, None])
    # bincount adds each sample's terms in column order, starting from 0.0 as
    # .sum(axis=0) does, so the scores are bitwise that sum in input order
    return np.bincount(order.ravel(), weights=terms.ravel(), minlength=n)


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


def _tied_counts(ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """For a (d, n) block sorted along its rows, |{k : x_k < x}| and
    |{k : x_k <= x}| at every sorted position, or None when no row holds two
    equal values: then position p has the counts p and p + 1.

    Any tie in the block sends the whole block through :func:`tie_runs`."""
    if not (ranked[:, 1:] == ranked[:, :-1]).any():
        return None
    return tie_runs(ranked)


def _fused_tails(left: np.ndarray, right: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """max(S, (L + R) / 2) elementwise, where the skewed tail S is L, L + R or
    R for the broadcast skew sign -1, 0 or +1."""
    tail = np.where(sign < 0, left, np.where(sign > 0, right, left + right))
    return np.maximum(tail, (left + right) / 2.0)


def _neg_log_table(n: int) -> np.ndarray:
    """-ln(k / n) at index k - 1, for k = 1..n: both tails' logarithms, read
    by their integer counts.  Entry k - 1 is bitwise the elementwise
    -np.log(k / n), which a test pins for every n up to 3000."""
    return -np.log(np.arange(1, n + 1) / n)


def _skewness_signs(block: np.ndarray) -> np.ndarray:
    """Skewness sign (-1, 0 or +1) of each row of a (d, n) block, reduced along the rows.

    Constant rows map to 0.  Each row's deviations are divided by their
    largest magnitude, which keeps the powers from under- or overflowing.
    """
    constant = block.min(axis=1) == block.max(axis=1)
    dev = block - block.mean(axis=1, keepdims=True)
    dev[constant] = 0.0  # the mean of equal values can be off by rounding
    dev /= np.where(constant, 1.0, np.maximum(dev.max(axis=1), -dev.min(axis=1)))[:, None]
    sq = dev * dev
    # sq * dev, not dev**3: numpy's pow is ~50x slower on negative bases;
    # the cubes overwrite dev, so sq is the one other (d, n) temporary
    cube = np.multiply(sq, dev, out=dev)
    with np.errstate(invalid="ignore"):  # 0 / 0 on constant rows
        g1 = np.mean(cube, axis=1) / np.mean(sq, axis=1) ** 1.5
    # |g1| < 1e-12 has sign 0, and so has the NaN of a constant row
    return (g1 >= 1e-12).astype(np.intp) - (g1 <= -1e-12)
