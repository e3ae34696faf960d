"""Server-side aggregation rules: DOS, FedAvg, median, trimmed mean, Krum.

All rules consume a sequence of ClientUpdate and return an AggregationResult
whose weight vector (when one exists) is aligned to ascending client id.
Each rule stacks and validates its updates once, with ``stack_updates``, and
works on that (n, d) matrix from then on.
Median and trimmed mean have no faithful per-client attribution, so their
result carries ``weights=None`` rather than a fabricated vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .copod import dos_outlier_scores
from .errors import ConfigError
from .params import (
    check_weights,
    pairwise_distances,
    softmax_weights,
    stack_updates,
    weighted_average,
)

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


def aggregate_dos(updates) -> AggregationResult:
    """Distance matrices -> COPOD outlier scores -> softmax weights -> average."""
    _, mat = stack_updates(updates)
    scores = dos_outlier_scores(pairwise_distances(mat))
    weights = softmax_weights(scores)
    new_global = weighted_average(mat, weights)
    return AggregationResult(new_global=new_global, weights=weights, scores=scores)


def aggregate_fedavg(updates, alphas=None) -> AggregationResult:
    """Fixed-weight average; defaults to uniform 1/n."""
    _, mat = stack_updates(updates)
    n = mat.shape[0]
    if alphas is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(alphas, dtype=np.float64)
        if w.size != n:
            raise ConfigError(f"{n} updates but {w.size} alphas")
        try:
            check_weights(w)
        except ValueError as exc:
            raise ConfigError(f"invalid fedavg alphas: {exc}") from exc
    return AggregationResult(new_global=weighted_average(mat, w), weights=w)


def aggregate_median(updates) -> AggregationResult:
    """Coordinate-wise median; even n uses the midpoint of the central pair."""
    _, mat = stack_updates(updates)
    return AggregationResult(new_global=np.median(mat, axis=0), weights=None)


def aggregate_trimmed_mean(updates, trim_fraction: float) -> AggregationResult:
    """Per coordinate, drop the floor(trim_fraction * n) smallest and largest
    values and average the rest."""
    _, mat = stack_updates(updates)
    n = mat.shape[0]
    k = trim_count(trim_fraction, n)
    ordered = np.sort(mat, axis=0)
    kept = ordered[k : n - k] if k > 0 else ordered
    return AggregationResult(new_global=kept.mean(axis=0), weights=None)


def krum_select(mat: np.ndarray, f: int) -> int:
    """Row of an (n, d) matrix with the smallest sum of squared distances to
    its n - f - 2 nearest other rows; ties break to the lowest row.

    The squared distances come from ``pdist``, so memory is O(n^2 + n*d):
    no (n, n, d) difference tensor is built.
    """
    neighbors = krum_neighbors(mat.shape[0], f)
    sq = squareform(pdist(mat, "sqeuclidean"))
    np.fill_diagonal(sq, np.inf)  # a row is not its own neighbour
    scores = np.sort(sq, axis=1)[:, :neighbors].sum(axis=1)
    return int(np.argmin(scores))  # argmin takes the first minimum: lowest row


def aggregate_krum(updates, f: int) -> AggregationResult:
    """Select one update with :func:`krum_select`, in client-id order."""
    _, mat = stack_updates(updates)
    pick = krum_select(mat, f)
    weights = np.zeros(mat.shape[0])
    weights[pick] = 1.0
    return AggregationResult(new_global=mat[pick].copy(), weights=weights)


def run_rule(spec: AggregatorSpec, updates) -> AggregationResult:
    """Dispatch an AggregatorSpec against one round's updates."""
    updates = list(updates)
    if spec.kind == "dos":
        return aggregate_dos(updates)
    if spec.kind == "fedavg":
        return aggregate_fedavg(updates)
    if spec.kind == "median":
        return aggregate_median(updates)
    if spec.kind == "trimmed_mean":
        return aggregate_trimmed_mean(updates, spec.trim_fraction)
    return aggregate_krum(updates, spec.resolve_krum_f(len(updates)))  # the spec admits no other kind
