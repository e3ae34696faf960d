"""Deterministic federated simulation loop and evaluation metrics.

One experiment: generate synthetic data, partition it across clients, poison
the shards named by the attack plan, then run T rounds of broadcast, local
SGD, attack injection, aggregation, and test-set evaluation.  Every random
draw comes from a stream keyed by (master seed, purpose, client, round), so
client i's honest training never depends on what other clients do.

Local SGD is one batched call per round: the clients' parameters are rows of
an (n, P) matrix, and the clients whose current batch has the same size take
their step together, with bitwise the arithmetic of a per-client loop.
Evaluation reads every one-vs-rest and pairwise Mann-Whitney U from one
stable argsort per probability column, exactly, as integer counts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .aggregators import AggregatorSpec, krum_neighbors, run_rule, trim_count
from .attacks import AttackPlan, apply_attack_plan, attack_label_flip
from .data import LabeledDataset, make_train_test, partition_iid, partition_label_skew
from .errors import ConfigError, ExperimentError
from .models import ModelSpec, init_params, loss_and_grad, predict_proba
from .params import check_weights

# Parameter bytes one batched training step works on at a time, sized to a
# 2 MiB per-core L2 cache.  On the 105004-parameter mlp1, chunks of 2 rows
# (1.7 MB) trained 10 clients in 44 ms, against 51 ms with all 10 rows
# stacked and 53 ms with chunks of 4.  Chunking changes no arithmetic.
TRAIN_CHUNK_BYTES = 2 * 2 ** 20


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    local_steps: int = 1  # epochs over the client's shard per round
    batch_size: int = 12
    rounds: int = 100

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.local_steps < 1 or self.batch_size < 1 or self.rounds < 0:
            raise ConfigError("need local_steps >= 1, batch_size >= 1, rounds >= 0")


@dataclass(frozen=True)
class Metrics:
    macro_auc: float
    pairwise_auc: float
    accuracy: float
    skipped_classes: tuple[int, ...] = ()

    def as_dict(self) -> dict[str, float]:
        return {"macro_auc": self.macro_auc, "pairwise_auc": self.pairwise_auc,
                "accuracy": self.accuracy}


@dataclass(frozen=True)
class RoundRecord:
    round: int
    aggregator: str
    weights: np.ndarray | None  # ascending client id; None for order-statistic rules
    attack_kinds: tuple[str, ...]
    metrics: Metrics
    scores: np.ndarray | None = None


def seed_stream(master_seed: int, purpose: str, client: int = 0,
                round_index: int = 0) -> np.random.Generator:
    """Independent generator keyed by (master seed, purpose, client, round)."""
    tag = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([master_seed, tag, client, round_index]))


def local_train(model: ModelSpec, params: np.ndarray, shards: list[LabeledDataset],
                cfg: TrainConfig, rngs: list[np.random.Generator]) -> np.ndarray:
    """Run ``local_steps`` epochs of seeded mini-batch SGD for every client at once.

    Client i starts from ``params``, trains on ``shards[i]`` and draws one
    permutation per epoch from ``rngs[i]``; row i of the returned (n, P)
    matrix is its new parameter vector.  All clients advance one batch per
    step.  Those whose batch at that step has the same size share one
    ``loss_and_grad`` call, in chunks of at most ``TRAIN_CHUNK_BYTES`` of
    parameter rows, and each row gets bitwise the update a per-client loop
    would give it.
    """
    if params.size != model.param_count:
        raise ConfigError(f"params have {params.size} entries, model needs {model.param_count}")
    features = np.concatenate([shard.features for shard in shards])
    labels = np.concatenate([shard.labels for shard in shards])
    # each client's batches in step order, as indices into the concatenation
    batches = []
    offset = 0
    for shard, rng in zip(shards, rngs, strict=True):
        m = len(shard)
        orders = [offset + rng.permutation(m) for _ in range(cfg.local_steps)]
        batches.append([order[at:at + cfg.batch_size]
                        for order in orders for at in range(0, m, cfg.batch_size)])
        offset += m
    thetas = np.tile(params, (len(shards), 1))
    chunk = max(1, TRAIN_CHUNK_BYTES // thetas[0].nbytes)
    for step in range(max(len(b) for b in batches)):
        by_size: dict[int, list[int]] = {}
        for cid, b in enumerate(batches):
            if step < len(b):
                by_size.setdefault(len(b[step]), []).append(cid)
        for cids in by_size.values():
            for at in range(0, len(cids), chunk):
                group = cids[at:at + chunk]
                idx = np.stack([batches[cid][step] for cid in group])
                # consecutive ids index a view of the rows instead of a copy
                rows = (slice(group[0], group[-1] + 1)
                        if group[-1] - group[0] == len(group) - 1 else group)
                _, grad = loss_and_grad(model, thetas[rows], features[idx], labels[idx])
                thetas[rows] -= cfg.learning_rate * grad
    return thetas


def evaluate(model: ModelSpec, params: np.ndarray, test: LabeledDataset) -> Metrics:
    """Macro one-vs-rest AUC, mean pairwise-class AUC, and argmax accuracy.

    Every AUC is a Mann-Whitney U with ties counted one half, divided by its
    pair count; classes (or class pairs) absent from the test set are
    excluded from the means and flagged via ``skipped_classes``.  A NaN score
    makes every AUC that would rank it NaN.
    """
    proba = predict_proba(model, params, test.features)
    labels = test.labels
    c = test.class_count
    n = labels.size
    twice_u, nan_hits = _twice_pair_u(proba, labels, c)
    twice, bad = twice_u.tolist(), nan_hits.tolist()
    counts = np.bincount(labels, minlength=c).tolist()

    skipped = tuple(k for k in range(c) if counts[k] == 0)
    per_class = [np.nan if any(bad[k]) else
                 (sum(twice[k]) - twice[k][k]) / (2 * counts[k] * (n - counts[k]))
                 for k in range(c) if 0 < counts[k] < n]
    macro = float(np.mean(per_class)) if per_class else 0.5

    def pair_auc(i: int, j: int) -> float:
        """AUC of class i against class j on score column i."""
        if bad[i][i] or bad[i][j]:
            return np.nan
        return twice[i][j] / (2 * counts[i] * counts[j])

    per_pair = [(pair_auc(i, j) + pair_auc(j, i)) / 2.0
                for i in range(c) for j in range(i + 1, c) if counts[i] and counts[j]]
    pairwise = float(np.mean(per_pair)) if per_pair else 0.5

    accuracy = float(np.mean(proba.argmax(axis=1) == labels))
    return Metrics(macro_auc=macro, pairwise_auc=pairwise, accuracy=accuracy,
                   skipped_classes=skipped)


def _twice_pair_u(proba: np.ndarray, labels: np.ndarray,
                  c: int) -> tuple[np.ndarray, np.ndarray]:
    """Twice the Mann-Whitney U of every class against every class, per column.

    Entry [k, l] of the first (c, c) integer matrix sums, over x in class k and
    y in class l, 2 if p_k(x) > p_k(y) and 1 if they tie.  It is read from one
    stable argsort of column k: each sample adds the per-class counts below
    its tie run and those up to the run's end.  Entry [k, l] of the second
    counts the class-l samples with a NaN in column k.
    """
    n = labels.size
    order = np.argsort(proba, axis=0, kind="stable")
    ranked = np.take_along_axis(proba, order, axis=0)  # each column ascending, NaNs last
    column = np.arange(c)
    onehot = labels[order][:, :, None] == column  # (sorted position, column, class)
    cum = np.zeros((n + 1, c, c), dtype=np.int64)  # class counts of the first s positions
    np.cumsum(onehot, axis=0, out=cum[1:])
    below = _run_starts(ranked)
    upto = n - _run_starts(ranked[::-1])[::-1]  # one past the end of the tie run
    twice_each = cum[below, column] + cum[upto, column]
    own = onehot[:, column, column]  # the sample belongs to the column's class
    twice_u = (twice_each * own[:, :, None]).sum(axis=0)
    finite = n - np.isnan(proba).sum(axis=0)
    return twice_u, cum[n] - cum[finite, column]


def _run_starts(ranked: np.ndarray) -> np.ndarray:
    """Per position of each sorted column, the first position of its tie run."""
    new = np.ones(ranked.shape, dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    return np.maximum.accumulate(np.where(new, np.arange(len(ranked))[:, None], 0), axis=0)


@dataclass(frozen=True)
class SimulationSetup:
    """Everything run_experiment needs, already validated."""

    seed: int
    clients: int
    model: ModelSpec
    train: TrainConfig
    aggregator: AggregatorSpec
    samples_per_class: int
    test_per_class: int
    class_separation: float
    partition: str  # "iid" or "label_skew"
    skew_alpha: float
    plan: AttackPlan = field(default_factory=AttackPlan)

    def __post_init__(self):
        if self.clients < 2:
            raise ConfigError(f"need at least 2 clients, got {self.clients}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.partition not in ("iid", "label_skew"):
            raise ConfigError(f"unknown partition {self.partition!r}")
        if self.samples_per_class < 1 or self.test_per_class < 1:
            raise ConfigError("need samples_per_class >= 1 and test_per_class >= 1")
        bad = [i for i in self.plan.assignments if not 0 <= i < self.clients]
        if bad:
            raise ConfigError(f"attack plan names unknown clients: {bad}")
        if len(self.plan.assignments) >= self.clients:
            raise ConfigError("attack plan must leave at least one honest client")
        if self.aggregator.kind == "krum":
            krum_neighbors(self.clients, self.aggregator.resolve_krum_f(self.clients))
        if self.aggregator.kind == "trimmed_mean":
            trim_count(self.aggregator.trim_fraction, self.clients)


def prepare_shards(setup: SimulationSetup) -> tuple[list[LabeledDataset], LabeledDataset]:
    """Generate data, split train/test, partition, and poison label-flip shards."""
    rng_data = seed_stream(setup.seed, "data")
    train, test = make_train_test(setup.model.class_count, setup.model.input_dim,
                                  setup.samples_per_class, setup.test_per_class,
                                  setup.class_separation, rng_data)
    rng_part = seed_stream(setup.seed, "partition")
    if setup.partition == "iid":
        shards = partition_iid(train, setup.clients, rng_part)
    else:
        shards = partition_label_skew(train, setup.clients, setup.skew_alpha, rng_part)
    for cid, flip in setup.plan.label_flip_items():
        shards[cid] = attack_label_flip(shards[cid], flip, seed_stream(setup.seed, "labelflip", cid))
    return shards, test


def run_experiment(setup: SimulationSetup) -> list[RoundRecord]:
    """Algorithm loop: broadcast, local training, attack injection, aggregate,
    evaluate.  Fully deterministic under the master seed."""
    shards, test = prepare_shards(setup)
    theta = init_params(setup.model, seed_stream(setup.seed, "init"))
    attack_names = tuple(setup.plan.kind_name_for(i) for i in range(setup.clients))

    records: list[RoundRecord] = []
    for t in range(setup.train.rounds):
        try:
            honest = local_train(setup.model, theta, shards, setup.train,
                                 [seed_stream(setup.seed, "train", cid, t)
                                  for cid in range(setup.clients)])
            updates = apply_attack_plan(setup.plan, honest, theta,
                                        lambda cid: seed_stream(setup.seed, "attack", cid, t))
            result = run_rule(setup.aggregator, updates)
            if result.weights is not None:
                check_weights(result.weights)
            theta = result.new_global
            metrics = evaluate(setup.model, theta, test)
        except Exception as exc:
            raise ExperimentError(f"round {t} failed: {exc}") from exc
        records.append(RoundRecord(round=t, aggregator=setup.aggregator.kind,
                                   weights=result.weights, attack_kinds=attack_names,
                                   metrics=metrics, scores=result.scores))
    return records
