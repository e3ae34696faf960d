"""Server-side aggregation rules: DOS, FedAvg, median, trimmed mean, Krum.

Every rule takes one round's (n, d) update matrix, row i from client i, as
built and checked by ``params.stack_updates``, and returns an
AggregationResult whose weight vector (when one exists) follows the rows.
Median and trimmed mean have no faithful per-client attribution, so their
result carries ``weights=None`` rather than a fabricated vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .copod import copod_scores
from .errors import ConfigError
from .params import pairwise_distances, softmax_weights, weighted_average

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
    of the diagonal."""
    dp = pairwise_distances(mat)
    scores = (copod_scores(dp.euclidean) + copod_scores(dp.cosine)) / 2.0
    weights = softmax_weights(scores)
    new_global = weighted_average(mat, weights)
    return AggregationResult(new_global=new_global, weights=weights, scores=scores)


def aggregate_fedavg(mat: np.ndarray) -> AggregationResult:
    """Uniform 1/n average."""
    w = np.full(mat.shape[0], 1.0 / mat.shape[0])
    return AggregationResult(new_global=weighted_average(mat, w), weights=w)


def _sorted_slice_mean(mat: np.ndarray, k: int) -> np.ndarray:
    """Per column, the mean left after dropping the k smallest and k largest values."""
    return np.sort(mat, axis=0)[k : mat.shape[0] - k].mean(axis=0)


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
    """Select one row with :func:`krum_select`, in row order, over
    ``pdist``'s squared distances: O(n^2 + n*d) memory, no (n, n, d) tensor."""
    pick = krum_select(squareform(pdist(mat, "sqeuclidean")), f)
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
