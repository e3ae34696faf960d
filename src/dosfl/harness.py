"""Deterministic federated simulation loop and evaluation metrics.

One experiment runs one :class:`config.ExperimentConfig`, the frozen run
description, as given: generate synthetic data, partition it across clients,
poison the shards named by the config's attack plan, then run T rounds of
broadcast, local SGD, attack injection, aggregation, and test-set evaluation.
Every random draw comes from a stream keyed by (master seed, purpose, client,
round), so client i's honest training never depends on what other clients do.
The streams come from a vectorised ``SeedSequence`` table over blocks of
rounds, bitwise equal to ``default_rng(SeedSequence([seed, tag, client,
round]))``, with the oracle in ``tests/oracles.py``.

Local SGD is one :func:`local_train` call per round: the clients' parameters
are rows of an (n, P) matrix, and the clients whose current batch has the
same size take their step together, with bitwise the arithmetic of a
per-client loop.  Each such group is one ``loss_and_grad`` call, the SGD step,
which computes no loss and steps the clients' rows in place, one layer at a
time, from a gradient block it sizes itself (see :mod:`dosfl.models`), so
training holds the (n, P) matrix plus one layer block and the forward
activations.  A client whose row the attack plan replaces with noise
is not trained: its row holds the global model until the noise overwrites
it.  The returned matrix is the round's one update matrix, owned as
:mod:`dosfl.params` states, and the loop deletes it before the next round
trains.
Evaluation reads every one-vs-rest and pairwise Mann-Whitney U from one
stable argsort per probability column, exactly, as integer counts.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .aggregators import run_rule
from .attacks import apply_attack_plan, attack_label_flip
from .config import ExperimentConfig, TrainConfig
from .copod import tie_runs
from .data import LabeledDataset, make_train_test, partition_iid, partition_label_skew
from .errors import ConfigError, ExperimentError
from .models import ModelSpec, init_params, loss_and_grad, predict_proba


# The Metrics fields the outputs report, in their column order.
METRIC_NAMES = ("macro_auc", "pairwise_auc", "accuracy")


@dataclass(frozen=True)
class Metrics:
    macro_auc: float
    pairwise_auc: float
    accuracy: float
    skipped_classes: tuple[int, ...] = ()


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
    """Independent generator keyed by (master seed, purpose, client, round).

    It is the one-key case of the vectorised ``SeedSequence`` table that
    :func:`run_experiment` derives over blocks of rounds, bitwise equal to
    ``default_rng(SeedSequence([master_seed, tag, client, round_index]))``,
    with the oracle in ``tests/oracles.py``.
    """
    return _generator(_stream_states(master_seed, _purpose_tag(purpose),
                                     [client], [round_index])[0, 0])


@functools.cache
def _purpose_tag(purpose: str) -> int:
    """First 8 bytes of the purpose's sha256, big-endian: the stream key's tag."""
    return int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:8], "big")


_MASK32 = 0xFFFFFFFF
# rounds whose stream states one _stream_states call derives
_BLOCK_ROUNDS = 8


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants: row k is (xor constant, multiplier) of step k."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)  # Python ints: no uint32 overflow warning
    return np.array(list(zip(consts, consts[1:])), dtype=np.uint32)[:, :, None, None]


# numpy's SeedSequence with its pool of 4 words: INIT_A and MULT_A hash the
# entropy into the pool, INIT_B and MULT_B hash the pool into the state
_MIX_CONSTS = _hash_constants(0x43B0D7E5, 0x931E8875, 24)
_STATE_CONSTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``values`` with each step's constants; uint32 wraps."""
    mixed = (values ^ consts[:, 0]) * consts[:, 1]
    return mixed ^ mixed >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ mixed >> 16


def _key_words(value: int, name: str, words: int) -> list[int]:
    """numpy's little-endian uint32 words of an int key; 0 is one word."""
    if not 0 <= value < 2 ** (32 * words):
        raise ConfigError(f"{name} {value} is not a {32 * words}-bit stream key")
    return [value & _MASK32] if value <= _MASK32 else [value & _MASK32, value >> 32]


def _stream_states(seed: int, tag: int, clients: Sequence[int],
                   rounds: Sequence[int]) -> np.ndarray:
    """PCG64 seed states of every (client, round) key under (seed, tag).

    Entry [i, j] of the (len(clients), len(rounds), 4) uint64 result is
    ``SeedSequence([seed, tag, clients[i], rounds[j]]).generate_state(4,
    np.uint64)``.  numpy's entropy mixing and state generation run once,
    over a (pool word, client, round) uint32 array; a pool word's hashes
    into the other three words are one step.  The seed and the tag may each
    be one or two words.  A client or round of 2**32 or more would be two
    words and raises :class:`ConfigError`.
    """
    for name, keys in (("client id", clients), ("round index", rounds)):
        if len(keys):
            _key_words(min(keys), name, 1)
            _key_words(max(keys), name, 1)
    prefix = _key_words(seed, "seed", 2) + _key_words(tag, "purpose tag", 2)
    entropy = np.empty((len(prefix) + 2, len(clients), len(rounds)), dtype=np.uint32)
    entropy[:-2] = np.array(prefix, dtype=np.uint32)[:, None, None]
    entropy[-2] = np.asarray(clients, dtype=np.uint32)[:, None]
    entropy[-1] = np.asarray(rounds, dtype=np.uint32)
    pool = _hash(entropy[:4], _MIX_CONSTS[:4])
    step = 4
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        pool[others] = _mix(pool[others], _hash(pool[src], _MIX_CONSTS[step:step + 3]))
        step += 3
    for word in entropy[4:]:  # entropy beyond the pool mixes into every pool word
        pool = _mix(pool, _hash(word, _MIX_CONSTS[step:step + 4]))
        step += 4
    state = _hash(np.concatenate([pool, pool]), _STATE_CONSTS)  # 8 words cycle the pool
    return state.transpose(1, 2, 0).astype("<u4", order="C").view("<u8").astype(np.uint64,
                                                                                copy=False)


class _SeedState(ISeedSequence):
    """A key's precomputed ``generate_state(4, np.uint64)``, all PCG64 asks for."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only the 4 uint64 words of a PCG64 seed are precomputed")
        return self.state


def _generator(state: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedState(state)))


def _round_streams(cfg: ExperimentConfig, purpose: str,
                   clients: Sequence[int]) -> Iterator[Callable[[int], np.random.Generator]]:
    """For each round in turn, the map from a client id to its ``purpose`` stream.

    States are derived ``_BLOCK_ROUNDS`` rounds at a time, when the loop
    first reaches the block, and not at all when ``clients`` is empty;
    generators are built only when asked for.  Each map keeps its own
    block's states, so a map held past later blocks still gives its round.
    """
    row = {cid: i for i, cid in enumerate(clients)}
    tag = _purpose_tag(purpose)
    for start in range(0, cfg.train.rounds, _BLOCK_ROUNDS):
        block = range(start, min(start + _BLOCK_ROUNDS, cfg.train.rounds))
        states = _stream_states(cfg.seed, tag, clients, block) if clients else None
        for j in range(len(block)):
            yield lambda cid, j=j, states=states: _generator(states[row[cid], j])


def local_train(model: ModelSpec, params: np.ndarray, shards: list[LabeledDataset],
                cfg: TrainConfig, rngs: list[np.random.Generator | None]) -> np.ndarray:
    """Run ``local_steps`` epochs of seeded mini-batch SGD for every client at once.

    Client i starts from ``params``, trains on ``shards[i]`` and draws one
    permutation per epoch from ``rngs[i]``; row i of the returned (n, P)
    matrix is its new parameter vector.  A client whose stream is None is not
    trained, and its row is ``params``.  All clients advance one batch per
    step.  Those whose batch at that step has the same size take one
    ``loss_and_grad`` call, which steps their rows in place: a view of the
    rows when their ids are consecutive, else a gathered copy written back
    once.  Each row gets bitwise the update a per-client loop would give it.
    A ``params`` of the wrong size fails in the first ``loss_and_grad`` call,
    which every round makes, as its config leaves an honest client to train.
    """
    features = np.concatenate([shard.features for shard in shards])
    labels = np.concatenate([shard.labels for shard in shards])
    # each client's batches in step order, as indices into the concatenation
    batches = []
    offset = 0
    for shard, rng in zip(shards, rngs, strict=True):
        m = len(shard)
        orders = [] if rng is None else [offset + rng.permutation(m)
                                         for _ in range(cfg.local_steps)]
        batches.append([order[at:at + cfg.batch_size]
                        for order in orders for at in range(0, m, cfg.batch_size)])
        offset += m
    thetas = np.tile(params, (len(shards), 1))
    for step in range(max(map(len, batches))):
        by_size: dict[int, list[int]] = {}
        for cid, b in enumerate(batches):
            if step < len(b):
                by_size.setdefault(len(b[step]), []).append(cid)
        for group in by_size.values():
            idx = np.stack([batches[cid][step] for cid in group])
            # consecutive ids step a view of the rows; others a copy, written back once
            consecutive = group[-1] - group[0] == len(group) - 1
            rows = thetas[group[0]:group[-1] + 1] if consecutive else thetas[group]
            loss_and_grad(model, rows, features[idx], labels[idx], cfg.learning_rate)
            if not consecutive:
                thetas[group] = rows
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
    its tie run and those up to the run's end, from :func:`copod.tie_runs`
    over the transposed columns, where each NaN is a run of its own.  Entry
    [k, l] of the second counts the class-l samples with a NaN in column k.
    """
    n = labels.size
    order = np.argsort(proba, axis=0, kind="stable")
    ranked = np.take_along_axis(proba, order, axis=0)  # each column ascending, NaNs last
    column = np.arange(c)
    onehot = labels[order][:, :, None] == column  # (sorted position, column, class)
    cum = np.zeros((n + 1, c, c), dtype=np.int64)  # class counts of the first s positions
    np.cumsum(onehot, axis=0, out=cum[1:])
    below, upto = (run.T for run in tie_runs(ranked.T))
    twice_each = cum[below, column] + cum[upto, column]
    own = onehot[:, column, column]  # the sample belongs to the column's class
    twice_u = (twice_each * own[:, :, None]).sum(axis=0)
    finite = n - np.isnan(proba).sum(axis=0)
    return twice_u, cum[n] - cum[finite, column]


SimulationSetup = ExperimentConfig  # perfbench/ still imports this name


def prepare_shards(cfg: ExperimentConfig) -> tuple[list[LabeledDataset], LabeledDataset]:
    """Generate data, split train/test, partition, and poison label-flip shards."""
    rng_data = seed_stream(cfg.seed, "data")
    train, test = make_train_test(cfg.model.class_count, cfg.model.input_dim,
                                  cfg.samples_per_class, cfg.test_per_class,
                                  cfg.class_separation, rng_data)
    rng_part = seed_stream(cfg.seed, "partition")
    if cfg.partition == "iid":
        shards = partition_iid(train, cfg.clients, rng_part)
    else:
        shards = partition_label_skew(train, cfg.clients, cfg.skew_alpha, rng_part)
    for cid, flip in cfg.plan.label_flip_items():
        try:
            shards[cid] = attack_label_flip(shards[cid], flip, seed_stream(cfg.seed, "labelflip", cid))
        except ConfigError as exc:  # a label-skewed shard may hold no source sample
            raise ConfigError(f"client {cid}: {exc}") from None
    return shards, test


def run_experiment(cfg: ExperimentConfig) -> list[RoundRecord]:
    """Algorithm loop: broadcast, local training, attack injection, aggregate,
    evaluate.  Fully deterministic under the master seed."""
    shards, test = prepare_shards(cfg)
    theta = init_params(cfg.model, seed_stream(cfg.seed, "init"))
    attack_names = tuple(cfg.plan.kind_name_for(i) for i in range(cfg.clients))

    # a noise row never reads its training result, so only the others train
    trained = cfg.plan.trained_ids(cfg.clients)
    train_streams = _round_streams(cfg, "train", trained)
    attack_streams = _round_streams(cfg, "attack", cfg.plan.stream_ids())
    records: list[RoundRecord] = []
    for t, (train_rng, attack_rng) in enumerate(zip(train_streams, attack_streams,
                                                    strict=True)):
        try:
            rngs: list[np.random.Generator | None] = [None] * cfg.clients
            for cid in trained:
                rngs[cid] = train_rng(cid)
            mat = local_train(cfg.model, theta, shards, cfg.train, rngs)
            mat = apply_attack_plan(cfg.plan, mat, theta, attack_rng)
            result = run_rule(cfg.aggregator, mat)
            del mat  # the round's one matrix must be gone before the next round trains
            theta = result.new_global
            metrics = evaluate(cfg.model, theta, test)
        except Exception as exc:
            raise ExperimentError(f"round {t} failed: {exc}") from exc
        records.append(RoundRecord(round=t, aggregator=cfg.aggregator.kind,
                                   weights=result.weights, attack_kinds=attack_names,
                                   metrics=metrics, scores=result.scores))
    return records

