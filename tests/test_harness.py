import math
import tracemalloc
import weakref

import numpy as np
import pytest

from dosfl import harness, models
from dosfl.aggregators import AGGREGATOR_KINDS, AggregatorSpec
from dosfl.config import ExperimentConfig, TrainConfig
from dosfl.data import (
    LABEL_SKEW_RETRIES,
    LabeledDataset,
    make_train_test,
    partition_iid,
    partition_label_skew,
)
from dosfl.errors import ConfigError, DimensionError, ExperimentError, NumericError
from dosfl.harness import (
    Metrics,
    evaluate,
    local_train,
    prepare_shards,
    run_experiment,
    seed_stream,
)
from dosfl.models import ModelSpec, init_params, loss_and_grad, predict_proba

from .oracles import mann_whitney_auc_oracle, reference_cross_entropy, reference_local_train, \
    reference_partition_iid, reference_partition_label_skew, reference_predict_proba, \
    reference_seed_stream


def rng_of(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# synthetic data


def test_make_train_test_deterministic():
    a = make_train_test(3, 5, 10, 4, 4.0, rng_of(11))
    b = make_train_test(3, 5, 10, 4, 4.0, rng_of(11))
    for x, y in zip(a, b, strict=True):
        np.testing.assert_array_equal(x.features, y.features)
        np.testing.assert_array_equal(x.labels, y.labels)
    # the test draws come last, so the train set does not depend on their count
    alone = make_train_test(3, 5, 10, 1, 4.0, rng_of(11))[0]
    np.testing.assert_array_equal(alone.features, a[0].features)
    assert [len(s) for s in a] == [30, 12]


def _train_logistic(train, test, epochs=20, lr=0.1):
    spec = ModelSpec(kind="logistic", input_dim=train.features.shape[1],
                     class_count=train.class_count)
    params = init_params(spec, rng_of(0))
    cfg = TrainConfig(learning_rate=lr, local_steps=epochs, batch_size=len(train), rounds=1)
    params = local_train(spec, params, [train], cfg, [rng_of(1)])[0]
    return evaluate(spec, params, test).accuracy


def test_separated_classes_are_learnable():
    train, test = make_train_test(2, 8, 150, 100, 10.0, rng_of(3))
    assert _train_logistic(train, test) > 0.99


def test_zero_separation_is_chance():
    train, test = make_train_test(2, 8, 200, 200, 0.0, rng_of(4))
    assert _train_logistic(train, test) < 0.65


def test_partition_iid_sizes():
    ds = make_train_test(2, 3, 50, 1, 2.0, rng_of(5))[0]  # 100 samples
    sizes = [len(s) for s in partition_iid(ds, 10, rng_of(6))]
    assert sizes == [10] * 10

    ds101 = LabeledDataset(features=np.random.default_rng(1).standard_normal((101, 3)),
                           labels=np.zeros(101, dtype=int) + 1, class_count=2)
    sizes = [len(s) for s in partition_iid(ds101, 10, rng_of(7))]
    assert sizes == [11] + [10] * 9


def _as_multiset(ds):
    rows = np.column_stack([ds.features, ds.labels])
    return rows[np.lexsort(rows.T)]


def test_partition_conservation():
    ds = make_train_test(3, 4, 40, 1, 3.0, rng_of(8))[0]
    for shards in (partition_iid(ds, 7, rng_of(9)),
                   partition_label_skew(ds, 7, 0.5, rng_of(10))):
        merged = LabeledDataset(
            features=np.concatenate([s.features for s in shards]),
            labels=np.concatenate([s.labels for s in shards]),
            class_count=ds.class_count)
        np.testing.assert_allclose(_as_multiset(merged), _as_multiset(ds))


def _shard_bytes(shards):
    return [(s.features.tobytes(), s.labels.tobytes()) for s in shards]


def _taken_bytes(ds, index_arrays):
    return [(ds.features[idx].tobytes(), ds.labels[idx].tobytes()) for idx in index_arrays]


def test_partitions_match_the_loop_references():
    # the split functions give the loops' shards bit for bit and leave the
    # generator where the loops leave it, label-skew retry failures included
    meta = rng_of(41)
    for _ in range(100):
        n, m, classes = (int(meta.integers(lo, hi)) for lo, hi in ((2, 30), (2, 196), (2, 7)))
        alpha = float(10 ** meta.uniform(-2, 3))
        ds = LabeledDataset(features=meta.standard_normal((m, 2)),
                            labels=meta.integers(0, classes, m), class_count=classes)
        seed = int(meta.integers(2 ** 32))
        ref_rng, rng = rng_of(seed), rng_of(seed)
        expected = reference_partition_label_skew(ds.labels, classes, n, alpha, ref_rng,
                                                  LABEL_SKEW_RETRIES)
        if expected is None:
            with pytest.raises(ConfigError, match="left a client empty"):
                partition_label_skew(ds, n, alpha, rng)
        else:
            got = partition_label_skew(ds, n, alpha, rng)
            assert _shard_bytes(got) == _taken_bytes(ds, expected)
        assert rng.bytes(8) == ref_rng.bytes(8)
        if m >= n:
            ref_rng, rng = rng_of(seed), rng_of(seed)
            expected = reference_partition_iid(m, n, ref_rng)
            got = partition_iid(ds, n, rng)
            assert _shard_bytes(got) == _taken_bytes(ds, expected)
            assert rng.bytes(8) == ref_rng.bytes(8)


def test_partition_iid_needs_enough_samples():
    ds = make_train_test(2, 3, 2, 1, 1.0, rng_of(11))[0]  # 4 samples
    with pytest.raises(ConfigError):
        partition_iid(ds, 5, rng_of(12))


@pytest.mark.parametrize("features,labels,error", [
    (np.zeros(3), [0, 1, 0], ConfigError),
    (np.zeros((0, 2)), np.zeros(0, dtype=int), ConfigError),
    (np.zeros((3, 2)), [0, 1], ConfigError),
    (np.array([[0.0, np.inf], [1.0, 1.0], [2.0, 2.0]]), [0, 1, 0], NumericError),
    (np.zeros((3, 2)), [0, 1, 2], ConfigError),
], ids=["features_1d", "no_samples", "labels_shape", "features_inf", "label_range"])
def test_labeled_dataset_rejects_bad_input(features, labels, error):
    with pytest.raises(error):
        LabeledDataset(features=features, labels=np.asarray(labels), class_count=2)


def test_label_skew_concentration_limit():
    ds = make_train_test(4, 3, 100, 1, 3.0, rng_of(13))[0]
    shards = partition_label_skew(ds, 5, 1e6, rng_of(14))
    global_props = np.bincount(ds.labels, minlength=4) / len(ds)
    for s in shards:
        props = np.bincount(s.labels, minlength=4) / len(s)
        assert np.abs(props - global_props).max() < 0.05


def test_label_skew_produces_skew():
    hit = 0
    for seed in range(20):
        ds = make_train_test(7, 3, 60, 1, 3.0, rng_of(100 + seed))[0]
        shards = partition_label_skew(ds, 10, 0.1, rng_of(200 + seed))
        if any(np.bincount(s.labels, minlength=7).max() / len(s) > 0.5 for s in shards):
            hit += 1
    assert hit >= 15  # strong skew in the vast majority of draws


# ---------------------------------------------------------------------------
# models and local training


def test_local_train_zero_lr_is_identity():
    spec = ModelSpec()
    params = init_params(spec, rng_of(15))
    ds = make_train_test(4, 20, 10, 1, 6.0, rng_of(16))[0]
    shards = partition_label_skew(ds, 3, 0.5, rng_of(18))
    cfg = TrainConfig(learning_rate=0.0, local_steps=3, batch_size=8, rounds=1)
    out = local_train(spec, params, shards, cfg, [rng_of(17 + i) for i in range(3)])
    np.testing.assert_array_equal(out, np.tile(params, (3, 1)))


def test_local_train_reduces_loss():
    spec = ModelSpec(kind="logistic", input_dim=6, class_count=2)
    ds = make_train_test(2, 6, 40, 1, 6.0, rng_of(18))[0]
    params = init_params(spec, rng_of(19))
    before = reference_cross_entropy(spec, params, ds.features, ds.labels)
    cfg = TrainConfig(learning_rate=0.01, local_steps=1, batch_size=16, rounds=1)
    after_params = local_train(spec, params, [ds], cfg, [rng_of(20)])[0]
    after = reference_cross_entropy(spec, after_params, ds.features, ds.labels)
    assert after <= before


def _training_case(kind, partition, clients):
    spec = ModelSpec(kind=kind, input_dim=5, class_count=3, hidden_dim=6)
    ds = make_train_test(3, 5, 30, 1, 3.0, rng_of(30))[0]
    if partition == "iid":
        shards = partition_iid(ds, clients, rng_of(31))
    else:
        shards = partition_label_skew(ds, clients, 0.5, rng_of(31))
    return spec, init_params(spec, rng_of(32)), shards


def _assert_matches_reference(spec, params, shards, cfg):
    out = local_train(spec, params, shards, cfg, [rng_of(40 + i) for i in range(len(shards))])
    assert out.shape == (len(shards), spec.param_count)
    for i, shard in enumerate(shards):
        ref = reference_local_train(spec, params, shard, cfg, rng_of(40 + i))
        np.testing.assert_array_equal(out[i], ref)


@pytest.mark.parametrize("kind", ["logistic", "mlp1"])
@pytest.mark.parametrize("partition", ["iid", "label_skew"])
@pytest.mark.parametrize("local_steps,batch_size", [(1, 8), (2, 7), (1, 1000)])
def test_batched_training_matches_per_client_loop(kind, partition, local_steps, batch_size):
    # 90 samples over 6 clients: 8 and 7 do not divide the iid shards of 15,
    # 1000 exceeds every shard; label skew makes the shards ragged.
    spec, params, shards = _training_case(kind, partition, 6)
    if partition == "label_skew":
        assert len({len(s) for s in shards}) > 1
    cfg = TrainConfig(learning_rate=0.3, local_steps=local_steps, batch_size=batch_size,
                      rounds=1)
    _assert_matches_reference(spec, params, shards, cfg)


@pytest.mark.parametrize("kind", ["logistic", "mlp1"])
def test_batched_training_single_client(kind):
    spec, params, shards = _training_case(kind, "iid", 1)
    cfg = TrainConfig(learning_rate=0.3, local_steps=2, batch_size=7, rounds=1)
    _assert_matches_reference(spec, params, shards, cfg)


@pytest.mark.parametrize("kind", ["logistic", "mlp1"])
def test_loss_and_grad_steps_the_stack_in_place(monkeypatch, kind):
    # a stepped stack is bitwise each row stepped alone, whether the gradient
    # block holds one model's largest layer or all three; the step writes
    # only the stack, and returns nothing
    spec = ModelSpec(kind=kind, input_dim=5, class_count=3, hidden_dim=6)
    largest = max(math.prod(shape) for shape in spec.layer_shapes())
    rng = rng_of(33)
    flat = rng.standard_normal((3, spec.param_count))
    features = rng.standard_normal((3, 7, 5))  # a different batch per model
    labels = rng.integers(0, 3, size=(3, 7))
    inputs = features.tobytes(), labels.tobytes()
    for block in (1, 3):
        monkeypatch.setattr(models, "GRAD_BYTES", block * largest * 8)
        stack = flat.copy()
        assert loss_and_grad(spec, stack, features, labels, 0.3) is None
        assert (features.tobytes(), labels.tobytes()) == inputs
        assert not np.array_equal(stack, flat)
        for i in range(3):
            one = flat[i:i + 1].copy()
            loss_and_grad(spec, one, features[i:i + 1], labels[i:i + 1], 0.3)
            assert one.tobytes() == stack[i].tobytes()


def test_loss_and_grad_rejects_a_stack_it_cannot_step_in_place():
    spec = ModelSpec(kind="logistic", input_dim=2, class_count=2)
    features, labels = np.zeros((2, 3, 2)), np.zeros((2, 3), dtype=int)
    read_only = np.zeros((2, spec.param_count))
    read_only.flags.writeable = False
    for flat in (np.zeros((2, spec.param_count), np.float32),
                 np.zeros((spec.param_count, 2)).T, read_only):
        with pytest.raises(DimensionError, match="flat"):
            loss_and_grad(spec, flat, features, labels, 0.1)
    with pytest.raises(DimensionError, match=r"\(k, P\)"):  # one model is a stack of one
        loss_and_grad(spec, np.zeros(spec.param_count), features[0], labels[0], 0.1)


def test_local_train_peak_memory_is_three_parameter_matrices_plus_shards():
    # P = 32131 is far above batch x hidden = 128, so per-step (n, P)
    # temporaries would dominate the peak; the bound leaves room for the
    # parameter matrix, the step's gradient block and the concatenated shards.
    spec = ModelSpec(kind="mlp1", input_dim=1000, class_count=3, hidden_dim=32)
    ds = make_train_test(3, 1000, 24, 1, 3.0, rng_of(34))[0]
    shards = partition_iid(ds, 4, rng_of(35))
    params = init_params(spec, rng_of(36))
    cfg = TrainConfig(learning_rate=0.1, local_steps=2, batch_size=4, rounds=1)
    shard_bytes = sum(s.features.nbytes + s.labels.nbytes for s in shards)
    tracemalloc.start()
    try:
        local_train(spec, params, shards, cfg, [rng_of(37 + i) for i in range(4)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 4 * params.nbytes + shard_bytes


@pytest.mark.parametrize("kind", ["logistic", "mlp1"])
@pytest.mark.parametrize("block", [1, 2, 3])
def test_training_in_gradient_blocks_matches_per_client_loop(monkeypatch, kind, block):
    # Shards of 4, 32, 17, 14, 5 and 18 samples in batches of 4: client 3 is
    # not trained, so the same-size groups are the five trained ids at step
    # 0, then ids 1, 2, 5 and 1, 2, 4, 5, one loss_and_grad call each; with
    # the budget binding, the largest layer's gradient is formed ``block``
    # clients at a time.
    spec, params, shards = _training_case(kind, "label_skew", 6)
    largest = max(math.prod(shape) for shape in spec.layer_shapes())
    monkeypatch.setattr(models, "GRAD_BYTES", block * largest * 8)
    calls = []
    loss_and_grad_ = harness.loss_and_grad

    def recording(model, flat, features, labels, lr):
        calls.append(len(flat))
        return loss_and_grad_(model, flat, features, labels, lr)

    monkeypatch.setattr(harness, "loss_and_grad", recording)
    cfg = TrainConfig(learning_rate=0.3, local_steps=2, batch_size=4, rounds=1)
    rngs = [None if i == 3 else rng_of(40 + i) for i in range(len(shards))]
    out = local_train(spec, params, shards, cfg, rngs)
    assert max(calls) == 5 > block
    assert out[3].tobytes() == params.tobytes()
    for i, shard in enumerate(shards):
        if i != 3:
            ref = reference_local_train(spec, params, shard, cfg, rng_of(40 + i))
            np.testing.assert_array_equal(out[i], ref)


def test_local_train_peak_memory_is_one_matrix_and_the_gradient_budget():
    # The wide_model shape: GRAD_BYTES binds at one client's 100 x 1000 layer,
    # so the gradient block is one client's layer.  Beside it the bound counts the
    # (n, P) matrix, the concatenated shards and the forward activations:
    # three (k, b, q + h + c) arrays cover the layer inputs and the deltas
    # of a step.  A (block, P) gradient buffer, or any second (n, P) array,
    # would exceed it.
    spec = ModelSpec(kind="mlp1", input_dim=100, class_count=4, hidden_dim=1000)
    ds = make_train_test(4, 100, 20, 1, 3.0, rng_of(38))[0]
    shards = partition_iid(ds, 10, rng_of(39))
    params = init_params(spec, rng_of(40))
    layer_bytes = 100 * 1000 * 8
    assert models.GRAD_BYTES // layer_bytes == 1
    cfg = TrainConfig(learning_rate=0.1, local_steps=1, batch_size=4, rounds=1)
    shard_bytes = sum(s.features.nbytes + s.labels.nbytes for s in shards)
    activation_bytes = 3 * 10 * cfg.batch_size * (100 + 1000 + 4) * 8
    tracemalloc.start()
    try:
        local_train(spec, params, shards, cfg, [rng_of(41 + i) for i in range(10)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * params.nbytes + layer_bytes + activation_bytes + shard_bytes


def test_loss_and_grad_holds_one_gradient_block():
    # The wide_model shape again, one step of 10 models on batches of 4.  At
    # its peak the step holds the hidden activations and the delta below the
    # top layer, two (k, b, h) arrays, beside the first layer's 800 KB block;
    # the bound adds two (k, h) arrays for the bias gradient and the step's
    # small arrays.  The top layer's (k, c, h) block still alive then would
    # add 320 KB and exceed it.
    spec = ModelSpec(kind="mlp1", input_dim=100, class_count=4, hidden_dim=1000)
    rng = rng_of(42)
    k, b, h = 10, 4, 1000
    stack = rng.standard_normal((k, spec.param_count)) * 0.05
    features = rng.standard_normal((k, b, 100))
    labels = rng.integers(0, 4, size=(k, b))
    tracemalloc.start()
    try:
        loss_and_grad(spec, stack, features, labels, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * k * b * h * 8 + 100 * h * 8 + 2 * k * h * 8


def test_local_train_rejects_wrong_param_count():
    spec, params, shards = _training_case("logistic", "iid", 2)
    cfg = TrainConfig(batch_size=8, rounds=1)
    with pytest.raises(DimensionError, match="parameters"):
        local_train(spec, params[:-1], shards, cfg, [rng_of(0), rng_of(1)])


def _fd_max_rel_err(spec, params, feats, labels, step=1e-5):
    # the step's gradient is theta - theta' after one step at lr = 1 of a
    # stack of one; the differenced objective is the reference's
    stepped = params[None].copy()
    loss_and_grad(spec, stepped, feats[None], labels[None], 1.0)
    grad = params - stepped[0]
    worst = 0.0
    for j in range(params.size):
        up = params.copy()
        up[j] += step
        down = params.copy()
        down[j] -= step
        lu = reference_cross_entropy(spec, up, feats, labels)
        ld = reference_cross_entropy(spec, down, feats, labels)
        fd = (lu - ld) / (2 * step)
        rel = abs(fd - grad[j]) / max(abs(fd), abs(grad[j]), 1e-3)
        worst = max(worst, rel)
    return worst


@pytest.mark.parametrize("kind", ["logistic", "mlp1"])
def test_gradient_matches_finite_differences(kind):
    rng = rng_of(21)
    for trial in range(3):
        spec = ModelSpec(kind=kind, input_dim=4, class_count=3, hidden_dim=5)
        feats = rng.standard_normal((20, 4))
        labels = rng.integers(0, 3, size=20)
        while True:
            params = rng.standard_normal(spec.param_count) * 0.5
            if kind == "logistic":
                break
            w1, b1 = spec.hidden_dim * 4, spec.hidden_dim
            pre = feats @ params[:w1].reshape(spec.hidden_dim, 4).T + params[w1:w1 + b1]
            if np.abs(pre).min() > 1e-3:  # keep ReLU kinks away from the fd step
                break
        assert _fd_max_rel_err(spec, params, feats, labels) < 1e-4


def test_param_count_and_unpack_roundtrip():
    spec = ModelSpec(kind="mlp1", input_dim=7, class_count=3, hidden_dim=4)
    assert spec.param_count == 4 * 7 + 4 + 3 * 4 + 3
    params = init_params(spec, rng_of(22))
    assert params.size == spec.param_count


@pytest.mark.parametrize("kind,input_dim,hidden_dim",
                         [("logistic", 20, 32), ("mlp1", 20, 32), ("mlp1", 100, 1000)])
def test_predict_proba_matches_reference_bytes(kind, input_dim, hidden_dim):
    # the golden digests see probabilities only through ranks and accuracy;
    # the last shape is the wide_model workload's
    spec = ModelSpec(kind=kind, input_dim=input_dim, class_count=4, hidden_dim=hidden_dim)
    params = init_params(spec, rng_of(23))
    feats = rng_of(24).standard_normal((50, input_dim)) * 3.0
    got = predict_proba(spec, params, feats)
    assert got.tobytes() == reference_predict_proba(spec, params, feats).tobytes()


# ---------------------------------------------------------------------------
# metrics


def test_perfect_ranking_gives_auc_one():
    spec = ModelSpec(kind="logistic", input_dim=2, class_count=2)
    # weights aligned with the true separating direction
    params = np.array([10.0, 0.0, -10.0, 0.0, 0.0, 0.0])
    feats = np.array([[1.0, 0.0]] * 5 + [[-1.0, 0.0]] * 5)
    ds = LabeledDataset(features=feats, labels=np.array([0] * 5 + [1] * 5), class_count=2)
    m = evaluate(spec, params, ds)
    assert m.macro_auc == pytest.approx(1.0)
    assert m.accuracy == pytest.approx(1.0)


def test_constant_scores_give_half_auc():
    spec = ModelSpec(kind="logistic", input_dim=3, class_count=4)
    params = np.zeros(spec.param_count)  # all logits equal -> tied scores
    ds = make_train_test(4, 3, 25, 1, 5.0, rng_of(23))[0]
    m = evaluate(spec, params, ds)
    assert m.macro_auc == pytest.approx(0.5)
    assert m.pairwise_auc == pytest.approx(0.5)


def test_binary_pairwise_equals_macro():
    spec = ModelSpec(kind="logistic", input_dim=4, class_count=2)
    params = init_params(spec, rng_of(24))
    ds = make_train_test(2, 4, 30, 1, 2.0, rng_of(25))[0]
    m = evaluate(spec, params, ds)
    assert m.pairwise_auc == pytest.approx(m.macro_auc)


def test_absent_class_is_flagged_and_excluded():
    spec = ModelSpec(kind="logistic", input_dim=3, class_count=4)
    params = init_params(spec, rng_of(26))
    ds = make_train_test(4, 3, 20, 1, 4.0, rng_of(27))[0]
    keep = ds.labels != 3
    test = LabeledDataset(features=ds.features[keep], labels=ds.labels[keep], class_count=4)
    m = evaluate(spec, params, test)
    assert m.skipped_classes == (3,)
    assert 0.0 <= m.macro_auc <= 1.0 and 0.0 <= m.pairwise_auc <= 1.0


def _oracle_metrics(proba, labels, c):
    """Macro and pairwise AUC averaged as ``evaluate`` averages them, from
    pair-counting AUCs."""
    per_class = [mann_whitney_auc_oracle(proba[:, k], labels == k) for k in range(c)]
    per_pair = []
    for i in range(c):
        for j in range(i + 1, c):
            mask = (labels == i) | (labels == j)
            a_ij = mann_whitney_auc_oracle(proba[mask, i], labels[mask] == i)
            a_ji = mann_whitney_auc_oracle(proba[mask, j], labels[mask] == j)
            if a_ij is not None and a_ji is not None:
                per_pair.append((a_ij + a_ji) / 2.0)
    return (float(np.mean([a for a in per_class if a is not None])),
            float(np.mean(per_pair)))


@pytest.mark.parametrize("case", ["ties", "constant", "absent_class"])
def test_evaluate_auc_equals_pair_counting_oracle(case):
    rng = rng_of(60)
    c = 4
    for _ in range(20):
        spec = ModelSpec(kind="logistic", input_dim=2, class_count=c)
        params = init_params(spec, rng) * 3.0
        # features on a 3 x 3 grid: many samples share a score, so ties abound
        feats = rng.integers(0, 3, size=(40, 2)).astype(float)
        labels = rng.integers(0, c, size=40)
        if case == "constant":
            params = np.zeros(spec.param_count)
        elif case == "absent_class":
            labels = np.where(labels == 2, 0, labels)
        labels[:2] = [0, 1]  # at least two classes present
        test = LabeledDataset(features=feats, labels=labels, class_count=c)
        m = evaluate(spec, params, test)
        macro, pairwise = _oracle_metrics(predict_proba(spec, params, feats), labels, c)
        assert m.macro_auc == macro
        assert m.pairwise_auc == pairwise
        if case == "constant":
            assert macro == pairwise == 0.5


@pytest.mark.parametrize("column,row_class,ranked", [(0, 0, True), (0, 2, True),
                                                     (3, 0, False)],
                         ids=["own_class", "other_class", "absent_class"])
def test_nan_score_makes_the_aucs_that_rank_it_nan(monkeypatch, column, row_class, ranked):
    # classes 0-2 of 4 are present: a NaN in column k is ranked by class k's
    # one-vs-rest AUC and its pairs, so by both means, unless k is absent
    labels = np.repeat([0, 1, 2], 5)
    proba = rng_of(61).uniform(size=(15, 4))
    test = LabeledDataset(features=np.zeros((15, 2)), labels=labels, class_count=4)
    monkeypatch.setattr(harness, "predict_proba", lambda model, params, features: proba)
    clean = evaluate(ModelSpec(), None, test)
    proba[np.flatnonzero(labels == row_class)[0], column] = np.nan
    m = evaluate(ModelSpec(), None, test)
    assert m.skipped_classes == (3,)
    assert np.isnan(m.macro_auc) == np.isnan(m.pairwise_auc) == ranked
    if not ranked:
        assert (m.macro_auc, m.pairwise_auc) == (clean.macro_auc, clean.pairwise_auc)


def test_random_scores_near_half_auc():
    spec = ModelSpec(kind="logistic", input_dim=5, class_count=2)
    rng = rng_of(28)
    feats = rng.standard_normal((1000, 5))
    labels = rng.integers(0, 2, 1000)
    ds = LabeledDataset(features=feats, labels=labels, class_count=2)
    m = evaluate(spec, init_params(spec, rng_of(29)), ds)
    assert abs(m.macro_auc - 0.5) < 0.05


# ---------------------------------------------------------------------------
# experiment loop


def small_setup(**kw):
    """A 4-client, 3-round config; ``custom_plan`` entries make it an ``attack = custom`` run."""
    defaults = dict(seed=5, clients=4, model=ModelSpec(input_dim=6, class_count=3),
                    train=TrainConfig(batch_size=8, rounds=3),
                    aggregator=AggregatorSpec(kind="dos"),
                    samples_per_class=40, test_per_class=20, class_separation=5.0,
                    partition="iid", skew_alpha=0.5,
                    attack="custom" if "custom_plan" in kw else "no_attack")
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_run_experiment_deterministic():
    setup = small_setup(custom_plan=((3, "noise(sigma=1.0)"),))
    a = run_experiment(setup)
    b = run_experiment(setup)
    assert len(a) == len(b) == 3
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.weights, rb.weights)
        assert ra.metrics == rb.metrics


def test_run_experiment_zero_rounds():
    setup = small_setup(train=TrainConfig(rounds=0))
    assert run_experiment(setup) == []


def test_round_record_contents():
    plan = ((2, "label_flip(source=0,target=1)"), (3, "scale(factor=100.0)"))
    recs = run_experiment(small_setup(custom_plan=plan))
    for t, rec in enumerate(recs):
        assert rec.round == t
        assert rec.aggregator == "dos"
        assert rec.attack_kinds == ("none", "none", "label_flip", "scale")
        assert rec.weights is not None and rec.scores is not None
        assert abs(rec.weights.sum() - 1.0) < 1e-9
        assert isinstance(rec.metrics, Metrics)


def test_median_records_no_weights():
    recs = run_experiment(small_setup(aggregator=AggregatorSpec(kind="median")))
    assert all(r.weights is None for r in recs)


def test_seed_isolation_of_honest_training():
    # Ragged label-skew shards, so clients fall into different batch-size
    # groups in the full batch and train alone in a group of one.
    base = small_setup(partition="label_skew")
    flipped = small_setup(partition="label_skew",
                          custom_plan=((3, "label_flip(source=2,target=0)"),))
    shards_a, _ = prepare_shards(base)
    shards_b, _ = prepare_shards(flipped)
    assert len({len(s) for s in shards_a}) > 1
    assert not np.array_equal(shards_a[3].labels, shards_b[3].labels)
    theta = init_params(base.model, seed_stream(base.seed, "init"))

    def streams(cids):
        return [seed_stream(base.seed, "train", cid, 0) for cid in cids]

    full_a = local_train(base.model, theta, shards_a, base.train, streams(range(4)))
    full_b = local_train(base.model, theta, shards_b, base.train, streams(range(4)))
    for cid in range(3):
        alone = local_train(base.model, theta, [shards_a[cid]], base.train, streams([cid]))
        np.testing.assert_array_equal(full_a[cid], alone[0])
        np.testing.assert_array_equal(full_b[cid], alone[0])
    assert not np.array_equal(full_a[3], full_b[3])


def test_label_flip_poisons_training_data():
    setup = small_setup(custom_plan=((0, "label_flip(source=0,target=1,fraction=1.0)"),))
    shards, _ = prepare_shards(setup)
    assert np.sum(shards[0].labels == 0) == 0
    clean, _ = prepare_shards(small_setup())
    assert np.sum(clean[0].labels == 0) > 0
    # features identical either way
    np.testing.assert_array_equal(shards[0].features, clean[0].features)


def test_label_flip_of_a_class_its_shard_lacks_names_the_client():
    # label_skew at the default alpha leaves client 6 of mix_40 at seed 0 no
    # sample of class 0, the class that its label flip relabels
    cfg = ExperimentConfig(attack="mix_40", partition="label_skew", seed=0)
    with pytest.raises(ConfigError, match=r"^client 6: source class 0 absent"):
        prepare_shards(cfg)


def test_failing_round_is_named():
    # a huge scale factor overflows to inf in round 1 when applied to the
    # already-scaled global model
    with pytest.raises(ExperimentError, match="round"):
        run_experiment(small_setup(custom_plan=((3, "scale(factor=1e300)"),)))


def test_overflowing_update_names_its_client():
    # fedavg passes round 0's huge but finite average on; in round 1 client 3's
    # scaled row overflows to inf, and the error says whose row it is
    setup = small_setup(custom_plan=((3, "scale(factor=1e300)"),),
                        aggregator=AggregatorSpec(kind="fedavg"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ExperimentError, match=r"round 1 .*clients \[3\]"):
            run_experiment(setup)


def test_scaled_clients_near_overflow_do_not_end_the_run():
    # DOS leaves four 10^4-scalers about 2% of the weight, so the global model
    # grows ~240x a round; by round 76 their squared distances overflow
    cfg = ExperimentConfig(attack="custom", train=TrainConfig(rounds=80),
                           custom_plan=tuple((cid, "scale(factor=10000)") for cid in range(6, 10)))
    records = run_experiment(cfg)
    assert len(records) == 80
    assert all(np.all(np.isfinite(r.weights)) for r in records)


def test_setup_validation():
    with pytest.raises(ConfigError):
        small_setup(clients=1)
    with pytest.raises(ConfigError):
        small_setup(seed=-1)
    with pytest.raises(ConfigError):
        small_setup(custom_plan=((9, "noise(sigma=1.0)"),))
    with pytest.raises(ConfigError):
        small_setup(aggregator=AggregatorSpec(kind="krum", krum_f=3))  # 4 - 3 - 2 < 1
    with pytest.raises(ConfigError):
        small_setup(partition="fancy")


def test_seed_stream_independence():
    a = seed_stream(7, "train", 1, 2).standard_normal(5)
    b = seed_stream(7, "train", 1, 2).standard_normal(5)
    c = seed_stream(7, "train", 1, 3).standard_normal(5)
    d = seed_stream(7, "attack", 1, 2).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_run_experiment_hands_out_seed_sequence_streams(monkeypatch):
    # The golden digests hash rank statistics only, so they cannot show that
    # the streams are unchanged; this compares every generator at hand-over,
    # within the first block of rounds and across its boundary.
    handed = []  # (purpose, client, round, bit generator state)
    rounds = []  # one entry per local_train call
    train, apply_plan = harness.local_train, harness.apply_attack_plan

    def recording_train(model, params, shards, cfg, rngs):
        rounds.append(len(rounds))
        handed.extend(("train", cid, rounds[-1], rng.bit_generator.state)
                      for cid, rng in enumerate(rngs) if rng is not None)
        return train(model, params, shards, cfg, rngs)

    def recording_apply(plan, honest, global_prev, rng_for):
        t = rounds[-1]

        def recording_rng_for(cid):
            rng = rng_for(cid)
            handed.append(("attack", cid, t, rng.bit_generator.state))
            return rng
        return apply_plan(plan, honest, global_prev, recording_rng_for)

    monkeypatch.setattr(harness, "local_train", recording_train)
    monkeypatch.setattr(harness, "apply_attack_plan", recording_apply)
    for n_rounds in (3, harness._BLOCK_ROUNDS + 2):
        handed.clear()
        rounds.clear()
        setup = small_setup(clients=6, partition="label_skew",
                            train=TrainConfig(batch_size=8, rounds=n_rounds),
                            custom_plan=((1, "noise(sigma=1.0)"), (3, "crafted"),
                                         (4, "crafted")))
        run_experiment(setup)
        # the noise client 1 is not trained, so it gets no train stream
        assert sorted(key for *key, _ in handed) == sorted(
            [["train", cid, t] for cid in (0, 2, 3, 4, 5) for t in range(n_rounds)]
            + [["attack", cid, t] for cid in (1, 3, 4) for t in range(n_rounds)])
        for purpose, cid, t, state in handed:
            ref = reference_seed_stream(setup.seed, harness._purpose_tag(purpose), cid, t)
            assert state == ref.bit_generator.state, (purpose, cid, t)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_round_matrices_are_freed_before_the_next_round_trains(monkeypatch, kind):
    # A round holds one (n, P) matrix; a rule that returned a view of it would
    # keep it alive through the next global model.
    matrices = []  # a weak reference to the memory of each returned matrix
    alive = []  # matrices still reachable when each local_train call starts
    train = harness.local_train

    def recording_train(*args):
        alive.append(sum(ref() is not None for ref in matrices))
        mat = train(*args)
        # a view's base is the array that owns its memory, which every
        # further view keeps alive (np.tile itself returns a view)
        matrices.append(weakref.ref(mat if mat.base is None else mat.base))
        return mat

    monkeypatch.setattr(harness, "local_train", recording_train)
    plan = ((1, "noise(sigma=1.0)"), (2, "scale(factor=-0.5)"), (4, "crafted"), (5, "crafted"))
    run_experiment(small_setup(clients=6, custom_plan=plan,
                               aggregator=AggregatorSpec(kind=kind, krum_f=1)))
    assert alive == [0, 0, 0]


def test_attack_states_are_derived_only_for_clients_that_draw(monkeypatch):
    derived = []  # (tag, clients) of each _stream_states call
    stream_states = harness._stream_states

    def recording(seed, tag, clients, rounds):
        derived.append((tag, list(clients)))
        return stream_states(seed, tag, clients, rounds)

    monkeypatch.setattr(harness, "_stream_states", recording)
    attack = harness._purpose_tag("attack")
    for plan, expected in (((), []),
                           (((2, "label_flip"), (3, "label_flip")), []),
                           (((1, "scale(factor=-2.0)"), (2, "noise(sigma=1.0)"), (3, "crafted")),
                            [[2, 3]])):
        derived.clear()
        run_experiment(small_setup(custom_plan=plan))  # 3 rounds: one block
        assert [clients for tag, clients in derived if tag == attack] == expected


def test_stream_keys_beyond_32_bits_are_refused():
    with pytest.raises(ConfigError, match="round index 4294967296"):
        seed_stream(0, "train", 0, 2 ** 32)
    with pytest.raises(ConfigError, match="client id 4294967296"):
        seed_stream(0, "train", 2 ** 32, 0)
    with pytest.raises(ConfigError, match="round index -1"):
        seed_stream(0, "train", 0, -1)
    last = seed_stream(0, "train", 2 ** 32 - 1, 2 ** 32 - 1)
    ref = reference_seed_stream(0, harness._purpose_tag("train"), 2 ** 32 - 1, 2 ** 32 - 1)
    assert last.bit_generator.state == ref.bit_generator.state


def test_round_streams_held_past_their_block_keep_their_round():
    # every map is taken before any is used, so the generator has moved on
    # to the last block by the time the first map is called
    setup = small_setup(train=TrainConfig(rounds=harness._BLOCK_ROUNDS + 2))
    clients = [0, 2, 3]
    maps = list(harness._round_streams(setup, "train", clients))
    assert len(maps) == setup.train.rounds
    tag = harness._purpose_tag("train")
    for t, rng_for in enumerate(maps):
        for cid in clients:
            ref = reference_seed_stream(setup.seed, tag, cid, t)
            assert rng_for(cid).bit_generator.state == ref.bit_generator.state, (cid, t)


def test_stream_states_are_built_a_block_of_rounds_at_a_time(monkeypatch):
    built = []
    stream_states = harness._stream_states

    def recording(*args):
        built.append(stream_states(*args))
        return built[-1]

    monkeypatch.setattr(harness, "_stream_states", recording)
    for rounds in (10 ** 9, 12):
        setup = small_setup(train=TrainConfig(rounds=rounds))
        next(harness._round_streams(setup, "train", range(setup.clients)))
    huge, twelve = built
    assert huge.nbytes <= twelve.nbytes
