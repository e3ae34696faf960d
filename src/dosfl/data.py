"""Synthetic labeled datasets and client partitioning.

The arguments are checked once, where the run description is built
(``ExperimentConfig``, ``ModelSpec``).  A :class:`LabeledDataset` checks
itself, so an empty shard still raises ``ConfigError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

# Dirichlet draws partition_label_skew makes before it gives up on a split
# that leaves every client at least one sample.
LABEL_SKEW_RETRIES = 100


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix (m, q), integer labels in [0, class_count)."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ConfigError(f"features must be a non-empty 2-D matrix, got {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ConfigError(f"labels shape {labs.shape} does not match {feats.shape[0]} samples")
        if not np.all(np.isfinite(feats)):
            raise NumericError("features contain NaN or Inf")
        if self.class_count < 2 or labs.min() < 0 or labs.max() >= self.class_count:
            raise ConfigError(f"labels must lie in [0, {self.class_count})")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return self.features.shape[0]


def make_train_test(class_count: int, input_dim: int, train_per_class: int,
                    test_per_class: int, class_separation: float,
                    rng: np.random.Generator) -> tuple[LabeledDataset, LabeledDataset]:
    """Class means drawn uniformly on the sphere of radius ``class_separation``,
    then unit-covariance Gaussian clusters of ``train_per_class`` and of
    ``test_per_class`` samples around each: the train and test sets."""
    dirs = rng.standard_normal((class_count, input_dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    means = class_separation * dirs / norms
    train, test = (LabeledDataset(
        features=np.concatenate([means[c] + rng.standard_normal((per_class, input_dim))
                                 for c in range(class_count)]),
        labels=np.repeat(np.arange(class_count), per_class), class_count=class_count)
        for per_class in (train_per_class, test_per_class))
    return train, test


def _take(ds: LabeledDataset, idx: np.ndarray) -> LabeledDataset:
    return LabeledDataset(features=ds.features[idx], labels=ds.labels[idx],
                          class_count=ds.class_count)


def partition_iid(ds: LabeledDataset, n: int, rng: np.random.Generator) -> list[LabeledDataset]:
    """Shuffle, then split into n contiguous shards with ``np.array_split``:
    the first ``len(ds) % n`` shards hold one sample more."""
    return [_take(ds, idx) for idx in np.array_split(rng.permutation(len(ds)), n)]


def partition_label_skew(ds: LabeledDataset, n: int, alpha: float,
                         rng: np.random.Generator) -> list[LabeledDataset]:
    """Dirichlet label-skew split: each class is spread over clients according
    to a Dirichlet(alpha, ..., alpha) draw.  Smaller alpha means stronger skew.

    Each class's shuffled members are split at the rounded cumulative shares
    of its draw; client i takes the piece before cut i.  Redraws (up to
    ``LABEL_SKEW_RETRIES`` times) until every client holds at least one sample.
    """
    for _ in range(LABEL_SKEW_RETRIES):
        per_class = []
        for c in range(ds.class_count):
            members = rng.permutation(np.flatnonzero(ds.labels == c))
            cuts = np.floor(np.cumsum(rng.dirichlet(np.full(n, alpha))) * len(members) + 0.5)
            # the piece after the last cut, empty unless rounding cut short, is dropped
            per_class.append(np.split(members, cuts.astype(int))[:n])
        shards = [np.sort(np.concatenate(pieces)) for pieces in zip(*per_class)]
        if all(len(s) >= 1 for s in shards):
            return [_take(ds, s) for s in shards]
    raise ConfigError(f"label-skew split left a client empty after {LABEL_SKEW_RETRIES} retries")
