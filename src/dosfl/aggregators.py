"""Server-side aggregation rules: DOS, FedAvg, median, trimmed mean, Krum.

Every rule takes one round's (n, d) update matrix, row i from client i, as
built and checked by ``params.stack_updates``, and returns an
AggregationResult whose weight vector (when one exists) follows the rows.
As :mod:`dosfl.params` states, a rule returns no view of that matrix: Krum
copies its selected row.
Median and trimmed mean have no faithful per-client attribution, so their
result carries ``weights=None`` rather than a fabricated vector.  They order
the matrix one column block at a time: where the matrix is wide beside its
rows, by a merge-exchange sorting network whose kept rows are summed into
the result, so beside the matrix they hold one (n + 1)-row block; elsewhere
by ``np.sort`` into the kept rows, so they hold those and one sorted block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .copod import copod_scores
from .errors import ConfigError
from .params import pairwise_distances, softmax_weights, squared_distances, weighted_average

AGGREGATOR_KINDS = ("dos", "fedavg", "median", "trimmed_mean", "krum")


@dataclass(frozen=True)
class AggregatorSpec:
    """Rule choice plus the rule-specific knobs.

    ``krum_f`` defaults to ceil(0.4 * n) at aggregation time when left None.
    """

    kind: str = "dos"
    trim_fraction: float = 0.4
    krum_f: int | None = None

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise ConfigError(
                f"unknown aggregator {self.kind!r}; valid: {', '.join(AGGREGATOR_KINDS)}"
            )
        check_trim_fraction(self.trim_fraction)
        if self.krum_f is not None and self.krum_f < 0:
            raise ConfigError(f"krum_f must be >= 0, got {self.krum_f}")

    def resolve_krum_f(self, n: int) -> int:
        return self.krum_f if self.krum_f is not None else math.ceil(0.4 * n)


def check_trim_fraction(trim_fraction: float) -> None:
    if not 0.0 <= trim_fraction < 0.5:
        raise ConfigError(f"trim_fraction must be in [0, 0.5), got {trim_fraction}")


def trim_count(trim_fraction: float, n: int) -> int:
    """Values the trimmed mean drops from each end of n; at least one must remain."""
    check_trim_fraction(trim_fraction)
    k = math.floor(trim_fraction * n)
    if n - 2 * k < 1:
        raise ConfigError(f"trimming {k} per end leaves no values out of {n}")
    return k


def krum_neighbors(n: int, f: int) -> int:
    """Neighbours Krum sums over for each of n updates with byzantine bound f."""
    if f < 0 or n - f - 2 < 1:
        raise ConfigError(f"krum needs f >= 0 and n - f - 2 >= 1, got n={n}, f={f}")
    return n - f - 2


@dataclass(frozen=True)
class AggregationResult:
    new_global: np.ndarray
    weights: np.ndarray | None  # None for order-statistic rules (no attribution)
    scores: np.ndarray | None = None  # DOS outlier scores, absent otherwise


def aggregate_dos(mat: np.ndarray) -> AggregationResult:
    """Distance matrices -> COPOD outlier scores -> softmax weights -> average.

    The score is the mean of the Euclidean and the cosine matrix's COPOD
    scores, each over the full (n, n) matrix: the ECDFs absorb the tied zeros
    of the diagonal.  COPOD reads ranks and skewness signs, so rows scaled by a
    power of two, as ``pairwise_distances`` scales huge ones, score the same."""
    euclidean, cosine = pairwise_distances(mat)
    scores = (copod_scores(euclidean) + copod_scores(cosine)) / 2.0
    weights = softmax_weights(scores)
    new_global = weighted_average(mat, weights)
    return AggregationResult(new_global=new_global, weights=weights, scores=scores)


def aggregate_fedavg(mat: np.ndarray) -> AggregationResult:
    """Uniform 1/n average."""
    w = np.full(mat.shape[0], 1.0 / mat.shape[0])
    return AggregationResult(new_global=weighted_average(mat, w), weights=w)


# Bytes of one column block of the update matrix: median and trimmed mean
# order the matrix one column block at a time and keep only what they average,
# so no sorted copy of the whole matrix exists.  At n = 10, d = 105004 the
# network below took 3.2, 3.0 and 3.5 ms with blocks of 512 KiB, 1 MiB and
# 2 MiB (p50 of 40 interleaved calls, 2 cores); np.sort takes the time of one
# full sort with blocks of 128 KiB to 1 MiB.
SORT_BYTES = 1 << 20
# The network makes two ufunc calls per comparator per block, np.sort one call
# per block, so the network pays only where its calls are few beside the
# columns.  Network time over np.sort time, by columns per network call
# (medians of 8-41 calls, 2 cores):
#   >= 32: 0.13-0.63 (n = 2-16, d = 84-105004; 10 x 105004: 2.9 against 8.5 ms)
#    8-32: 0.56-1.14 (n = 3-32)
#     < 8: 1.3-57 (10 x 84: 0.058 against 0.017 ms; 40 x 105004: 34 against
#          19 ms; 200 x 84: 4.5 against 0.078 ms)
NETWORK_COLUMNS_PER_CALL = 32


@functools.cache
def _merge_exchange(n: int) -> tuple[tuple[int, int], ...]:
    """The comparators (i, j), i < j, of Batcher's merge exchange on n keys,
    in the order they run (Knuth, TAOCP vol. 3, 5.2.2, Algorithm M, 0-based)."""
    pairs: list[tuple[int, int]] = []
    t = (n - 1).bit_length()  # the least t with 2**t >= n
    p = 1 << (t - 1) if n > 1 else 0
    while p:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q // 2, p
        p //= 2
    return tuple(pairs)


def _sorted_slice_mean(mat: np.ndarray, k: int) -> np.ndarray:
    """Per column, the mean left after dropping the k smallest and k largest values.

    Bitwise ``np.sort(mat, axis=0)[k:n-k].mean(axis=0)`` for the finite
    entries ``params.stack_updates`` admits.  Column blocks of about
    ``SORT_BYTES`` are ordered one at a time: by :func:`_network_slice_mean`
    where each of its ufunc calls covers at least ``NETWORK_COLUMNS_PER_CALL``
    columns, and otherwise by ``np.sort`` into one C-contiguous (n - 2k, d)
    array of the kept rows, averaged by one ``mean(axis=0)``.  A mean per
    block would not be bitwise, since a one-column block's mean takes numpy's
    pairwise summation.
    """
    n, d = mat.shape
    width = max(1, SORT_BYTES // ((n + 1) * mat.itemsize))
    calls = 2 * len(_merge_exchange(n)) * -(-d // width)
    if calls * NETWORK_COLUMNS_PER_CALL <= d:
        return _network_slice_mean(mat, k)
    kept = np.empty((n - 2 * k, d))
    for at in range(0, d, width):
        kept[:, at:at + width] = np.sort(mat[:, at:at + width], axis=0)[k:n - k]
    return kept.mean(axis=0)


def _network_slice_mean(mat: np.ndarray, k: int) -> np.ndarray:
    """:func:`_sorted_slice_mean` by the merge-exchange network.

    Each column block is copied into one (n + 1, w) buffer whose last row is
    spare.  A comparator (a, b) writes the minimum of rows a and b into the
    spare row and their maximum over row b, then the spare row becomes row a
    and row a's memory the spare: two ufunc calls, no copy.  The kept rows
    are summed in order from +0.0, as numpy's mean sums a C-contiguous
    matrix down its rows, and divided once, so the result is bitwise the
    sort's; a tie of -0.0 and 0.0 may keep either zero, but a sum from +0.0
    does not see the sign of a zero.
    """
    n, d = mat.shape
    width = max(1, SORT_BYTES // ((n + 1) * mat.itemsize))
    buf = np.empty((n + 1, min(width, d)))
    out = np.empty(d)
    for at in range(0, d, width):
        block = buf[:, :min(width, d - at)]
        block[:n] = mat[:, at:at + width]
        *rows, spare = block
        for a, b in _merge_exchange(n):
            np.minimum(rows[a], rows[b], out=spare)
            np.maximum(rows[a], rows[b], out=rows[b])
            rows[a], spare = spare, rows[a]
        total = out[at:at + width]
        np.add(rows[k], 0.0, out=total)
        for row in rows[k + 1:n - k]:
            total += row
    out /= n - 2 * k
    return out


def aggregate_median(mat: np.ndarray) -> AggregationResult:
    """Coordinate-wise median as the widest trimmed mean, k = (n - 1) // 2 per
    end; even n averages the central pair.  Bit for bit ``np.median``."""
    k = (mat.shape[0] - 1) // 2
    return AggregationResult(new_global=_sorted_slice_mean(mat, k), weights=None)


def aggregate_trimmed_mean(mat: np.ndarray, trim_fraction: float) -> AggregationResult:
    """Per coordinate, drop the floor(trim_fraction * n) smallest and largest
    values and average the rest."""
    k = trim_count(trim_fraction, mat.shape[0])
    return AggregationResult(new_global=_sorted_slice_mean(mat, k), weights=None)


def krum_select(sq: np.ndarray, f: int) -> int:
    """Row of an (n, n) squared-distance matrix with the smallest sum over its
    n - f - 2 nearest other rows; ties break to the lowest row.  The diagonal
    is ignored and ``sq`` is not modified."""
    neighbors = krum_neighbors(sq.shape[0], f)
    sq = np.array(sq, dtype=np.float64)
    np.fill_diagonal(sq, np.inf)  # a row is not its own neighbour
    scores = np.sort(sq, axis=1)[:, :neighbors].sum(axis=1)
    return int(np.argmin(scores))  # argmin takes the first minimum: lowest row


def aggregate_krum(mat: np.ndarray, f: int) -> AggregationResult:
    """Select one row with :func:`krum_select`, in row order, over the
    squared distances of :func:`params.squared_distances`: O(n^2 + n*d)
    memory, no (n, n, d) tensor."""
    pick = krum_select(squared_distances(mat), f)
    weights = np.zeros(mat.shape[0])
    weights[pick] = 1.0
    return AggregationResult(new_global=mat[pick].copy(), weights=weights)


def run_rule(spec: AggregatorSpec, mat: np.ndarray) -> AggregationResult:
    """Dispatch an AggregatorSpec against one round's update matrix."""
    if spec.kind == "dos":
        return aggregate_dos(mat)
    if spec.kind == "fedavg":
        return aggregate_fedavg(mat)
    if spec.kind == "median":
        return aggregate_median(mat)
    if spec.kind == "trimmed_mean":
        return aggregate_trimmed_mean(mat, spec.trim_fraction)
    return aggregate_krum(mat, spec.resolve_krum_f(mat.shape[0]))  # the spec admits no other kind
