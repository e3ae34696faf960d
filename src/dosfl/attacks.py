"""Byzantine behavior injectors.

Each attacked client's transmitted update is a transformation of (or a
replacement for) its honest local-training output.  Label flipping is the one
exception: it poisons the client's training data before any round runs, so
:func:`apply_attack_plan` passes those clients through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .aggregators import krum_select
from .data import LabeledDataset
from .errors import ConfigError
from .params import ClientUpdate, as_parameter_vector


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

    def kind_for(self, client_id: int) -> AttackKind | None:
        return self.assignments.get(client_id)

    def kind_name_for(self, client_id: int) -> str:
        return kind_name(self.assignments.get(client_id))

    def malicious_ids(self) -> list[int]:
        return sorted(self.assignments)

    def malicious_fraction(self, n: int) -> float:
        return len(self.assignments) / n

    def label_flip_items(self) -> list[tuple[int, LabelFlip]]:
        return [(i, k) for i, k in sorted(self.assignments.items()) if isinstance(k, LabelFlip)]


def attack_gaussian_noise(honest: np.ndarray, kind: GaussianNoise,
                          rng: np.random.Generator) -> np.ndarray:
    """Pure-noise replacement: the honest parameters only set the dimension."""
    honest = as_parameter_vector(honest)
    return kind.sigma * rng.standard_normal(honest.size)


def attack_scale(honest: np.ndarray, kind: Scale) -> np.ndarray:
    return kind.factor * as_parameter_vector(honest)


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


def local_krum_oracle(vectors: list[np.ndarray]) -> int:
    """Krum over the attacker's local view, assuming the largest valid
    byzantine count (len - 3); the vectors are already validated."""
    return krum_select(np.stack(vectors), len(vectors) - 3)


def attack_crafted(global_prev: np.ndarray, honest_updates_of_malicious, kind: Crafted,
                   krum_oracle: Callable[[list[np.ndarray]], int] | None,
                   rngs) -> list[np.ndarray]:
    """Directed-deviation attack shared by all colluding clients.

    Estimates the benign direction from the colluders' own honest training
    results, then walks the previous global model against it:
    c(lam) = global_prev - lam * sign(mean(honest) - global_prev).  The largest
    lam from {kind.lambda_init * 2^-k} whose crafted point wins the local Krum
    simulation is kept (smallest candidate if none wins, or if no oracle is
    available).  Each colluder transmits c(lam) plus Normal(0, (0.01*lam)^2)
    jitter so the copies are not exact duplicates.
    """
    honest = [as_parameter_vector(h) for h in honest_updates_of_malicious]
    if not honest:
        raise ConfigError("crafted attack needs at least one colluder's honest update")
    if len(rngs) != len(honest):
        raise ConfigError(f"{len(honest)} colluders but {len(rngs)} rng streams")
    global_prev = as_parameter_vector(global_prev)

    direction = np.sign(np.mean(honest, axis=0) - global_prev)
    candidates = [kind.lambda_init * 2.0 ** -k for k in range(kind.halving_steps + 1)]
    lam = candidates[-1]
    if krum_oracle is not None:
        for cand in candidates:
            if krum_oracle([global_prev - cand * direction] + honest) == 0:
                lam = cand
                break
    crafted = global_prev - lam * direction
    return [crafted + 0.01 * lam * rng.standard_normal(crafted.size) for rng in rngs]


@dataclass(frozen=True)
class AttackContext:
    """Round-scoped inputs the injectors need beyond the honest outputs."""

    rng_for: Callable[[int], np.random.Generator]
    global_prev: np.ndarray | None = None
    krum_oracle: Callable[[list[np.ndarray]], int] | None = None


def apply_attack_plan(plan: AttackPlan, round_outputs: dict[int, np.ndarray],
                      context: AttackContext) -> list[ClientUpdate]:
    """Turn honest per-client training outputs into the transmitted updates.

    Honest and label-flip clients pass through bitwise unchanged (the flip
    already poisoned their data).  Crafted clients sharing the same parameters
    collude as one group.
    """
    unknown = set(plan.assignments) - set(round_outputs)
    if unknown:
        raise ConfigError(f"attack plan names unknown clients: {sorted(unknown)}")

    transmitted: dict[int, np.ndarray] = {}
    crafted_groups: dict[Crafted, list[int]] = {}
    for cid in sorted(round_outputs):
        kind = plan.kind_for(cid)
        if isinstance(kind, GaussianNoise):
            transmitted[cid] = attack_gaussian_noise(round_outputs[cid], kind,
                                                     context.rng_for(cid))
        elif isinstance(kind, Scale):
            transmitted[cid] = attack_scale(round_outputs[cid], kind)
        elif isinstance(kind, Crafted):
            crafted_groups.setdefault(kind, []).append(cid)
        else:  # honest or label-flip
            transmitted[cid] = round_outputs[cid]

    for kind, members in crafted_groups.items():
        if context.global_prev is None:
            raise ConfigError("crafted attack needs the previous global model in the context")
        oracle = context.krum_oracle
        if oracle is None and len(members) >= 2:
            oracle = local_krum_oracle
        vectors = attack_crafted(
            context.global_prev,
            [round_outputs[cid] for cid in members],
            kind,
            oracle,
            [context.rng_for(cid) for cid in members],
        )
        for cid, vec in zip(members, vectors):
            transmitted[cid] = vec

    return [ClientUpdate(cid, transmitted[cid]) for cid in sorted(transmitted)]
