"""Byzantine behavior injectors.

:func:`apply_attack_plan` takes a round's honest local-training matrix, row i
from client i, and returns the transmitted (n, d) update matrix.  Each
attacked client's row is a transformation of (or a replacement for) its
honest row.  Label flipping is the one exception: it poisons the client's
training data before any round runs, so those rows pass through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .aggregators import krum_select
from .data import LabeledDataset
from .errors import ConfigError
from .params import stack_updates


@dataclass(frozen=True)
class GaussianNoise:
    """Replace the update with i.i.d. Normal(0, sigma^2) noise."""

    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigError(f"noise sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class Scale:
    """Transmit factor * honest parameters (e.g. 100 or -0.5)."""

    factor: float

    def __post_init__(self):
        if self.factor == 0:
            raise ConfigError("scale factor must be nonzero")


@dataclass(frozen=True)
class LabelFlip:
    """Relabel a share of one class as another before local training."""

    source: int = 0
    target: int = 1
    fraction: float = 1.0

    def __post_init__(self):
        if self.source == self.target:
            raise ConfigError("label flip needs source != target")
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"flip fraction must be in (0, 1], got {self.fraction}")


@dataclass(frozen=True)
class Crafted:
    """Colluding directed-deviation attack tuned against a local Krum oracle."""

    lambda_init: float = 10.0
    halving_steps: int = 10

    def __post_init__(self):
        if self.lambda_init <= 0:
            raise ConfigError(f"lambda_init must be > 0, got {self.lambda_init}")
        if self.halving_steps < 0:
            raise ConfigError(f"halving_steps must be >= 0, got {self.halving_steps}")


AttackKind = Union[GaussianNoise, Scale, LabelFlip, Crafted]

ATTACK_KINDS = {"noise": GaussianNoise, "scale": Scale, "label_flip": LabelFlip, "crafted": Crafted}
_KIND_NAMES = {cls: name for name, cls in ATTACK_KINDS.items()}


def kind_name(kind: AttackKind | None) -> str:
    return "none" if kind is None else _KIND_NAMES[type(kind)]


@dataclass(frozen=True)
class AttackPlan:
    """Static per-client attack assignment; unlisted clients are honest."""

    assignments: dict[int, AttackKind] = field(default_factory=dict)

    def kind_name_for(self, client_id: int) -> str:
        return kind_name(self.assignments.get(client_id))

    def malicious_ids(self) -> list[int]:
        return sorted(self.assignments)

    def stream_ids(self) -> list[int]:
        """Clients whose attack draws from their attack stream: noise and crafted."""
        return [i for i, k in sorted(self.assignments.items())
                if isinstance(k, (GaussianNoise, Crafted))]

    def label_flip_items(self) -> list[tuple[int, LabelFlip]]:
        return [(i, k) for i, k in sorted(self.assignments.items()) if isinstance(k, LabelFlip)]


def attack_gaussian_noise(honest: np.ndarray, kind: GaussianNoise,
                          rng: np.random.Generator) -> np.ndarray:
    """Pure-noise replacement: the honest parameters only set the dimension."""
    return kind.sigma * rng.standard_normal(honest.size)


def attack_scale(honest: np.ndarray, kind: Scale) -> np.ndarray:
    return kind.factor * honest


def attack_label_flip(dataset: LabeledDataset, kind: LabelFlip,
                      rng: np.random.Generator) -> LabeledDataset:
    """Relabel a rounded ``kind.fraction`` share of source-class samples.

    Features are untouched; the flipped subset is chosen by ``rng``.
    """
    for cls in (kind.source, kind.target):
        if not 0 <= cls < dataset.class_count:
            raise ConfigError(f"class {cls} outside label alphabet [0, {dataset.class_count})")
    members = np.flatnonzero(dataset.labels == kind.source)
    if members.size == 0:
        raise ConfigError(f"source class {kind.source} absent from dataset")
    count = int(np.floor(kind.fraction * members.size + 0.5))
    chosen = rng.choice(members, size=count, replace=False)
    labels = dataset.labels.copy()
    labels[chosen] = kind.target
    return LabeledDataset(features=dataset.features, labels=labels,
                          class_count=dataset.class_count)


def local_krum_oracle(sq: np.ndarray) -> int:
    """Krum over the attacker's local view, an (m+1, m+1) squared-distance
    matrix with the crafted point first, with the largest valid byzantine
    count (m + 1 - 3).  0 means the crafted point won, ties included."""
    return krum_select(sq, len(sq) - 3)


def attack_crafted(global_prev: np.ndarray, honest: np.ndarray, kind: Crafted,
                   krum_oracle: Callable[[np.ndarray], int] | None,
                   rngs) -> list[np.ndarray]:
    """Directed-deviation attack shared by all colluding clients.

    Estimates the benign direction from the colluders' own honest training
    results, the rows of ``honest``, then walks the previous global model
    against it: c(lam) = g - lam * s with g = global_prev and
    s = sign(mean(honest) - g).
    The largest lam from {kind.lambda_init * 2^-k} whose crafted point wins the
    local Krum vote, ties included, is kept (smallest candidate if none wins,
    or if no oracle is available).  The vote's squared distances are closed
    form: ||c(lam) - h_j||^2 = ||g - h_j||^2 - 2 lam s.(g - h_j) + lam^2 ||s||^2,
    clamped at 0, so each candidate costs O(m^2), not O(m^2 d).  Each colluder
    transmits c(lam) plus Normal(0, (0.01*lam)^2) jitter so the copies are not
    exact duplicates.
    """
    if len(honest) == 0:
        raise ConfigError("crafted attack needs at least one colluder's honest update")
    if len(rngs) != len(honest):
        raise ConfigError(f"{len(honest)} colluders but {len(rngs)} rng streams")
    direction = np.sign(np.mean(honest, axis=0) - global_prev)
    candidates = [kind.lambda_init * 2.0 ** -k for k in range(kind.halving_steps + 1)]
    lam = candidates[-1]
    if krum_oracle is not None:
        offsets = global_prev - honest
        # einsum, not BLAS: small threaded products can stall
        base = np.einsum("ij,ij->i", offsets, offsets)
        proj = np.einsum("ij,j->i", offsets, direction)
        s_sq = float(np.count_nonzero(direction))
        honest_sq = np.pad(squareform(pdist(honest, "sqeuclidean")), (1, 0))
        for cand in candidates:
            sq = honest_sq.copy()
            sq[0, 1:] = sq[1:, 0] = np.maximum(base - 2.0 * cand * proj + cand * cand * s_sq, 0.0)
            if krum_oracle(sq) == 0:
                lam = cand
                break
    crafted = global_prev - lam * direction
    return [crafted + 0.01 * lam * rng.standard_normal(crafted.size) for rng in rngs]


def apply_attack_plan(plan: AttackPlan, honest: np.ndarray, global_prev: np.ndarray,
                      rng_for: Callable[[int], np.random.Generator]) -> np.ndarray:
    """Turn the round's honest training matrix into its transmitted update matrix.

    Honest and label-flip rows pass through bitwise unchanged (the flip
    already poisoned their data).  Crafted clients sharing the same parameters
    collude as one group that reads its members' honest rows.  Client i's
    attack draws from ``rng_for(i)``.  ``honest`` is not modified.
    """
    rows = list(honest)
    crafted_groups: dict[Crafted, list[int]] = {}
    for cid, kind in sorted(plan.assignments.items()):
        if isinstance(kind, GaussianNoise):
            rows[cid] = attack_gaussian_noise(honest[cid], kind, rng_for(cid))
        elif isinstance(kind, Scale):
            rows[cid] = attack_scale(honest[cid], kind)
        elif isinstance(kind, Crafted):
            crafted_groups.setdefault(kind, []).append(cid)

    for kind, members in crafted_groups.items():
        oracle = local_krum_oracle if len(members) >= 2 else None
        vectors = attack_crafted(global_prev, honest[members], kind, oracle,
                                 [rng_for(cid) for cid in members])
        for cid, vec in zip(members, vectors):
            rows[cid] = vec

    return stack_updates(rows)
