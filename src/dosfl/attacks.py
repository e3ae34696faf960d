"""Byzantine behavior injectors.

:func:`apply_attack_plan` takes a round's honest local-training matrix, row i
from client i, and turns it into the transmitted (n, d) update matrix in
place, under the ownership contract in :mod:`dosfl.params`: each attacked
client's row is overwritten with a transformation of (or a replacement for)
its honest row.  Noise is drawn straight into its row, which the harness does
not train.  A crafted group gathers its members' rows into one (m, d) array,
which serves in turn as their honest rows, the offsets of its local Krum vote
and their jittered vectors, and is written back.  Label flipping is the one
exception: it poisons the client's training data before any round runs, so
those rows pass through untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .aggregators import krum_select
from .data import LabeledDataset
from .errors import ConfigError
from .params import squared_distances, stack_updates


@dataclass(frozen=True)
class GaussianNoise:
    """Replace the update with i.i.d. Normal(0, sigma^2) noise."""

    sigma: float = 1.0

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ConfigError(f"noise sigma must be finite and > 0, got {self.sigma}")


@dataclass(frozen=True)
class Scale:
    """Transmit factor * honest parameters (e.g. 100 or -0.5)."""

    factor: float

    def __post_init__(self):
        if not 0 < abs(self.factor) < math.inf:
            raise ConfigError(f"scale factor must be finite and nonzero, got {self.factor}")


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
        if not 0 < self.lambda_init < math.inf:
            raise ConfigError(f"lambda_init must be finite and > 0, got {self.lambda_init}")
        if self.halving_steps < 0:
            raise ConfigError(f"halving_steps must be >= 0, got {self.halving_steps}")
        # the last candidate, lambda_init * 2.0 ** -k as attack_crafted computes it,
        # must not be 0.0; it is for every k >= 1075, and min() keeps a huge k finite
        if self.lambda_init * 2.0 ** -min(self.halving_steps, 1075) == 0.0:
            raise ConfigError(f"halving_steps={self.halving_steps} halves lambda_init to 0")


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

    def trained_ids(self, clients: int) -> list[int]:
        """Clients whose transmitted row reads their training result: all but noise."""
        return [i for i in range(clients)
                if not isinstance(self.assignments.get(i), GaussianNoise)]

    def stream_ids(self) -> list[int]:
        """Clients whose attack draws from their attack stream: noise and crafted."""
        return [i for i, k in sorted(self.assignments.items())
                if isinstance(k, (GaussianNoise, Crafted))]

    def label_flip_items(self) -> list[tuple[int, LabelFlip]]:
        return [(i, k) for i, k in sorted(self.assignments.items()) if isinstance(k, LabelFlip)]


def attack_gaussian_noise(row: np.ndarray, kind: GaussianNoise,
                          rng: np.random.Generator) -> np.ndarray:
    """Pure-noise replacement, drawn into the float64 ``row`` in place and
    returned: its values are never read.  Bitwise ``sigma * z`` for the
    draws z, as IEEE products commute."""
    rng.standard_normal(out=row)
    row *= kind.sigma
    return row


def attack_scale(row: np.ndarray, kind: Scale) -> np.ndarray:
    """Scale the float64 ``row`` in place, bitwise ``factor * row``, and return it."""
    row *= kind.factor
    return row


def attack_label_flip(dataset: LabeledDataset, kind: LabelFlip,
                      rng: np.random.Generator) -> LabeledDataset:
    """Relabel a rounded ``kind.fraction`` share of source-class samples.

    Features are untouched; the flipped subset is chosen by ``rng``.
    """
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
    count (m + 1 - 3).  0 means the crafted point won, ties included.  That
    count leaves each row one neighbour, so the vote is a nearest-neighbour
    test: the crafted point wins exactly when its nearest honest row is no
    farther than the closest honest pair."""
    return krum_select(sq, len(sq) - 3)


def attack_crafted(global_prev: np.ndarray, rows: np.ndarray, kind: Crafted,
                   krum_oracle: Callable[[np.ndarray], int] | None, rngs) -> np.ndarray:
    """Directed-deviation attack shared by all colluding clients.

    Estimates the benign direction from the colluders' own honest training
    results, which ``rows`` holds on entry, then walks the previous global model
    against it: c(lam) = g - lam * s with g = global_prev and
    s = sign(mean(rows) - g).
    The largest lam from {kind.lambda_init * 2^-k} whose crafted point wins the
    local Krum vote, ties included, is kept (smallest candidate if none wins,
    or if no oracle is available).  The vote's squared distances are closed
    form: ||c(lam) - h_j||^2 = ||g - h_j||^2 - 2 lam s.(g - h_j) + lam^2 ||s||^2,
    clamped at 0, so each candidate costs O(m^2), not O(m^2 d).  Each colluder
    transmits c(lam) plus Normal(0, (0.01*lam)^2) jitter so the copies are not
    exact duplicates.

    ``rows`` is a C-contiguous (m, d) float64 array, as
    :func:`params.squared_distances` needs for the honest rows' distances,
    overwritten in place and returned:
    row i ends as colluder i's vector, drawn from ``rngs[i]``.  Beside it the
    call holds O(d) vectors.  :func:`apply_attack_plan` passes one stream per
    member of a non-empty group; a length mismatch raises ValueError.
    """
    direction = np.mean(rows, axis=0)
    direction -= global_prev
    np.sign(direction, out=direction)
    candidates = [kind.lambda_init * 2.0 ** -k for k in range(kind.halving_steps + 1)]
    lam = (candidates[-1] if krum_oracle is None else
           _crafted_lambda(global_prev, rows, direction, candidates, krum_oracle))
    # bitwise g - lam * s: the direction becomes the crafted point
    direction *= lam
    crafted = np.subtract(global_prev, direction, out=direction)
    for row, rng in zip(rows, rngs, strict=True):
        # bitwise crafted + (0.01 * lam) * z: IEEE sums and products commute
        rng.standard_normal(out=row)
        row *= 0.01 * lam
        row += crafted
    return rows


def _crafted_lambda(global_prev: np.ndarray, rows: np.ndarray, direction: np.ndarray,
                    candidates: list[float], krum_oracle: Callable[[np.ndarray], int]) -> float:
    """The first candidate whose crafted point wins the local vote, else the last.

    Reads the colluders' distances from ``rows``, then overwrites it with the
    offsets g - h_j, one 2-D array: a per-row einsum differs from the 2-D one
    in the last bits at d = 105004.
    """
    honest_sq = np.pad(squared_distances(rows), (1, 0))
    offsets = np.subtract(global_prev, rows, out=rows)
    # einsum, not BLAS: small threaded products can stall
    base = np.einsum("ij,ij->i", offsets, offsets)
    proj = np.einsum("ij,j->i", offsets, direction)
    s_sq = float(np.count_nonzero(direction))
    for cand in candidates:
        sq = honest_sq.copy()
        sq[0, 1:] = sq[1:, 0] = np.maximum(base - 2.0 * cand * proj + cand * cand * s_sq, 0.0)
        if krum_oracle(sq) == 0:
            return cand
    return candidates[-1]


def apply_attack_plan(plan: AttackPlan, mat: np.ndarray, global_prev: np.ndarray,
                      rng_for: Callable[[int], np.random.Generator]) -> np.ndarray:
    """Turn the round's honest training matrix into its transmitted update matrix.

    The call takes ownership of a C-contiguous float64 ``mat``: each attacked
    row is overwritten in place, and the checked matrix returned is ``mat``
    itself (any other dtype or layout is converted to such a copy first).
    Honest and label-flip rows keep their bits (the flip already poisoned
    their data).  Crafted clients sharing the same parameters collude as one
    group, which gathers its members' honest rows into one array, attacks it
    and writes it back.  Client i's attack draws from ``rng_for(i)``.
    """
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    crafted_groups: dict[Crafted, list[int]] = {}
    for cid, kind in sorted(plan.assignments.items()):
        if isinstance(kind, GaussianNoise):
            attack_gaussian_noise(mat[cid], kind, rng_for(cid))
        elif isinstance(kind, Scale):
            attack_scale(mat[cid], kind)
        elif isinstance(kind, Crafted):
            crafted_groups.setdefault(kind, []).append(cid)

    for kind, members in crafted_groups.items():
        oracle = local_krum_oracle if len(members) >= 2 else None
        rows = mat[members]
        attack_crafted(global_prev, rows, kind, oracle, [rng_for(cid) for cid in members])
        mat[members] = rows

    return stack_updates(mat)
