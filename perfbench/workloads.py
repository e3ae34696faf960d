"""The benchmark's workloads: which experiments each runs, and why.

A workload is a list of experiment kinds (aggregation rule, attack scenario,
partition) on one base configuration.  A run goes through replicas 0, 1, 2,
... and runs every kind once per replica; replica r of a run with seed s uses
master seed ``s * 1000 + r``, so the inputs follow from the seed alone.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, replace

from dosfl import ExperimentConfig
from dosfl.aggregators import AggregatorSpec
from dosfl.harness import SimulationSetup, TrainConfig
from dosfl.models import ModelSpec

# Spans every experiment fires, whatever its rule and attack.
COMMON_SPANS = frozenset({
    "data.prepare", "harness.local_train", "models.loss_and_grad", "harness.evaluate",
    "attacks.apply_plan", "params.stack_updates",
})
# Spans a rule fires below its own ``aggregators.<kind>`` span.
RULE_SPANS = {
    "dos": frozenset({"params.pairwise_distances", "copod.copod_scores",
                      "params.softmax_weights", "params.weighted_average"}),
    "fedavg": frozenset({"params.weighted_average"}),
}


@dataclass(frozen=True)
class Kind:
    aggregator: str
    attack: str
    partition: str = "iid"


@dataclass(frozen=True)
class Workload:
    name: str
    base: ExperimentConfig
    kinds: tuple[Kind, ...]
    # Replicas the quality metrics average over; each has its own data seed.
    quality_replicas: int = 1

    def schedule(self, seed: int) -> Iterator[tuple[int, SimulationSetup]]:
        """Endless (kind index, setup) stream: every kind of replica 0, then of 1, ..."""
        for r in itertools.count():
            for index, k in enumerate(self.kinds):
                yield index, replace(
                    self.base, seed=seed * 1000 + r, attack=k.attack, partition=k.partition,
                    aggregator=replace(self.base.aggregator, kind=k.aggregator)).to_setup()

    def expected_spans(self) -> frozenset[str]:
        """Spans the traced run must see; one that never fires is reported absent."""
        spans = set(COMMON_SPANS)
        for k in self.kinds:
            spans.add(f"aggregators.{k.aggregator}")
            spans |= RULE_SPANS.get(k.aggregator, frozenset())
            if k.attack.startswith("crafted"):
                spans.add("attacks.krum_oracle")
        return frozenset(spans)


WORKLOADS = {w.name: w for w in (
    Workload(
        # Reference setting over the acceptance grid's pairs: small arrays, Python
        # overhead in training and evaluation.
        name="desk",
        # trimmed_mean runs at 0.2 as in the acceptance grid; no other kind reads it
        base=ExperimentConfig(skew_alpha=2.0, aggregator=AggregatorSpec(trim_fraction=0.2)),
        kinds=(
            Kind("dos", "no_attack"),
            Kind("dos", "noise_40"),
            Kind("dos", "crafted_40", "label_skew"),
            Kind("krum", "crafted_40", "label_skew"),
            Kind("trimmed_mean", "noise_scaled_40"),
            Kind("fedavg", "noise_40"),
        ),
        quality_replicas=3,
    ),
    Workload(
        # Pair-count-bound distances and COPOD dominate; training and evaluation
        # are a few percent.
        name="many_clients",
        # 12 rounds of one 4-sample step per client; lr 0.3 lets the model converge in
        # that many rounds, so the quality metrics do not sit on a steep learning curve
        base=ExperimentConfig(clients=200, train=TrainConfig(learning_rate=0.3, rounds=12)),
        kinds=(Kind("dos", "noise_40"),),
        quality_replicas=1,
    ),
    Workload(
        # Few long bandwidth-bound vectors (d=105004), the Krum (n, n, d) temporary
        # and the crafted attack's local Krum oracle.
        name="wide_model",
        base=ExperimentConfig(model=ModelSpec(kind="mlp1", input_dim=100, hidden_dim=1000),
                              train=TrainConfig(rounds=12),
                              aggregator=AggregatorSpec(trim_fraction=0.2)),
        kinds=(
            Kind("dos", "crafted_40"),
            Kind("krum", "crafted_40"),
            Kind("median", "noise_scaled_40"),
            Kind("trimmed_mean", "noise_scaled_40"),
        ),
        quality_replicas=2,
    ),
)}
