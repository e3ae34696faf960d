"""Property checks of the whole-matrix aggregation kernels against the
loop-based oracles, on the inputs where a vectorised kernel can part from a
per-pair or per-column loop: ties, constant columns, extreme scales, zero and
underflowing rows, exact or near duplicates, and NaNs in sorted runs.  The
batched local trainer is checked the same way against a per-client loop, on
ragged shards."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from dosfl.aggregators import aggregate_krum, aggregate_median, krum_select
from dosfl.attacks import Crafted, attack_crafted, local_krum_oracle
from dosfl.config import TrainConfig
from dosfl.copod import _tied_counts, copod_scores, tie_runs
from dosfl.data import LabeledDataset
from dosfl.harness import _generator, _stream_states, local_train
from dosfl.models import ModelSpec
from dosfl.params import pairwise_distances

from . import oracles

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

# Entries are kept clear of the subnormal range, where a dot product's value
# depends on its summation order; underflow is introduced on purpose below.
entries = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-10.0, 10.0, allow_subnormal=False).filter(lambda x: x == 0.0 or abs(x) > 1e-100),
)


@st.composite
def copod_matrices(draw):
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 5))
    m = np.array(draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    for j in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        m[:, j] = m[0, j]  # constant column
    return m * draw(st.sampled_from([1e-200, 1e-6, 1.0, 1e6, 1e200]))


@PROPERTY
@given(copod_matrices())
def test_copod_matches_oracle_on_ties_constants_and_scales(m):
    np.testing.assert_allclose(copod_scores(m), oracles.copod_scores_oracle(m), atol=1e-9)


# Few distinct values, signed zeros and NaNs, so most columns hold tie runs.
tie_entries = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 2.0, np.nan]),
                        st.floats(-3.0, 3.0, allow_nan=False))


@PROPERTY
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.lists(tie_entries, min_size=n, max_size=n), min_size=1, max_size=4)))
def test_tie_runs_match_counts_with_ties_and_nans(columns):
    # sorted along axis 0 and passed transposed, as evaluation ranks its
    # probability columns; np.sort puts NaNs last
    ranked = np.sort(np.array(columns).T, axis=0)
    for runs in (tie_runs(ranked.T), tie_runs(np.ascontiguousarray(ranked.T))):
        for col, start, end in zip(ranked.T, *runs, strict=True):
            assert (start.tolist(), end.tolist()) == oracles.tie_runs_oracle(col)


@st.composite
def ecdf_blocks(draw):
    """A (d, n) block with distinct values in every row, then, by kind, one
    value repeated in every row or in one row only."""
    kind = draw(st.sampled_from(["tie_free", "ties_every_row", "one_tie"]))
    n = draw(st.integers(1 if kind == "tie_free" else 2, 12))
    d = draw(st.integers(1, 5))
    # 0.0 == -0.0, so unique rows hold at most one zero
    block = np.array([draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=n, max_size=n, unique=True))
                      for _ in range(d)])
    tied = range(d) if kind == "ties_every_row" else []
    if kind == "one_tie":
        tied = [draw(st.integers(0, d - 1))]
    for r in tied:
        i, j = draw(st.permutations(range(n)))[:2]
        block[r, j] = block[r, i]
    return kind, block


@PROPERTY
@given(ecdf_blocks())
@example(("one_tie", np.array([[1.0, 0.0, -0.0]])))  # signed zeros are equal
def test_ecdf_counts_match_oracle_exactly_on_both_paths(case):
    kind, block = case
    order = np.argsort(block, axis=1)
    with mock.patch("dosfl.copod.tie_runs", wraps=tie_runs) as slow_path:
        counts = _tied_counts(np.take_along_axis(block, order, axis=1))
    assert slow_path.called == (kind != "tie_free")  # one tie sends the whole block
    if counts is None:  # sorted position p has the counts p and p + 1
        ranks = np.broadcast_to(np.arange(block.shape[1]), block.shape)
        counts = (ranks, ranks + 1)
    below, at_most = (np.empty_like(order), np.empty_like(order))
    for out, run in zip((below, at_most), counts):
        np.put_along_axis(out, order, run, axis=1)  # back to input order
    assert (below.tolist(), at_most.tolist()) == oracles.ecdf_counts_oracle(block)


@st.composite
def copod_blocks(draw):
    """An (n, d) matrix of one kind: distinct values in every column, one
    tie, every value equal, 0.0 and -0.0 in one column, or constant columns,
    at a scale that leaves the skew signs scale-free."""
    kind = draw(st.sampled_from(["tie_free", "one_tie", "all_tied", "signed_zero", "constant"]))
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 5))
    # 0.0 == -0.0, so unique columns hold at most one zero
    m = np.array([draw(st.lists(entries, min_size=n, max_size=n, unique=True))
                  for _ in range(d)]).T
    if kind == "one_tie":
        i, j = draw(st.permutations(range(n)))[:2]
        col = draw(st.integers(0, d - 1))
        m[j, col] = m[i, col]
    elif kind == "all_tied":
        m[:] = m[0, 0]
    elif kind == "signed_zero":
        i, j = draw(st.permutations(range(n)))[:2]
        m[i, 0], m[j, 0] = 0.0, -0.0
    elif kind == "constant":
        for j in draw(st.sets(st.integers(0, d - 1), min_size=1)):
            m[:, j] = m[0, j]
    return m * draw(st.sampled_from([1e-200, 1e-6, 1.0, 1e6, 1e200]))


@PROPERTY
@given(copod_blocks())
@example(np.array([[1.0, 0.0], [-0.0, 0.0], [0.0, 0.0]]))
def test_copod_scores_equal_the_input_order_reference_bitwise(m):
    assert copod_scores(m).tobytes() == oracles.copod_scores_reference(m).tobytes()


@PROPERTY
@given(copod_matrices())
def test_median_matches_np_median_and_oracle(m):
    # n runs from 2 to 12, so both parities; integer entries and constant
    # columns repeat values within a column
    got = aggregate_median(m).new_global
    np.testing.assert_array_equal(got, np.median(m, axis=0))
    np.testing.assert_array_equal(got, oracles.median_oracle(m))


@st.composite
def distance_matrices(draw):
    """Rows drawn at random, then some replaced by a zero row, an underflowing
    copy (every square is below the smallest subnormal), an exact duplicate
    or a near duplicate of an earlier row."""
    n = draw(st.integers(2, 8))
    d = draw(st.integers(1, 5))
    m = np.array(draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    for i in range(1, n):
        src = m[draw(st.integers(0, i - 1))]
        mode = draw(st.sampled_from(["keep", "zero", "underflow", "duplicate", "near"]))
        if mode == "zero":
            m[i] = 0.0
        elif mode == "underflow":
            m[i] = 1e-200 * src
        elif mode == "duplicate":
            m[i] = src
        elif mode == "near":
            # a relative step on non-zero entries, an underflowing one on zeros
            k = draw(st.integers(0, d - 1))
            m[i] = src
            m[i, k] = src[k] * (1.0 + 2.0**-40) + 1e-200
    return m


@PROPERTY
@given(distance_matrices())
def test_pairwise_distances_match_per_pair_oracle(m):
    euclidean, cosine = pairwise_distances(m)
    n = m.shape[0]
    assert np.all(np.diag(euclidean) == 0.0) and np.all(np.diag(cosine) == 0.0)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            euc = oracles.euclidean_distance(m[i], m[j])
            cos = oracles.cosine_distance(m[i], m[j])
            assert abs(euclidean[i, j] - euc) <= 1e-12
            if np.array_equal(m[i], m[j]):
                assert euclidean[i, j] == 0.0
            zero_norm = not np.any(m[i] * m[i]) or not np.any(m[j] * m[j])
            if zero_norm or np.array_equal(m[i], m[j]):
                assert cosine[i, j] == cos  # zero-norm row or equal rows: exact
            else:
                assert abs(cosine[i, j] - cos) <= 1e-12
            if euclidean[i, j] == 0.0:
                assert cosine[i, j] == (1.0 if zero_norm else 0.0)


@PROPERTY
@given(distance_matrices())
def test_copod_scores_of_distances_equal_the_input_order_reference_bitwise(m):
    for dist in pairwise_distances(m):
        assert copod_scores(dist).tobytes() == oracles.copod_scores_reference(dist).tobytes()


# Dyadic entries keep every squared distance and score exact in both the
# library and the oracle, so a tie is a real tie and must break to the lowest row.
dyadic = st.integers(-16, 16).map(lambda k: k / 8.0)


@st.composite
def krum_cases(draw):
    n = draw(st.integers(3, 9))
    d = draw(st.integers(1, 4))
    m = np.array(draw(st.lists(st.lists(dyadic, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    for i in draw(st.sets(st.integers(1, n - 1))):
        m[i] = m[draw(st.integers(0, i - 1))]  # an exact duplicate of an earlier row
    return m, draw(st.integers(0, n - 3))


@PROPERTY
@given(krum_cases())
def test_krum_matches_oracle(case):
    m, f = case
    result = aggregate_krum(m, f)
    expected = oracles.krum_select_oracle(m.tolist(), f)
    assert int(np.argmax(result.weights)) == expected
    np.testing.assert_array_equal(result.new_global, m[expected])


@PROPERTY
@given(krum_cases())
def test_krum_kernel_on_squared_distances_matches_oracle(case):
    m, f = case
    sq = squareform(pdist(m, "sqeuclidean"))
    before = sq.copy()
    assert krum_select(sq, f) == oracles.krum_select_oracle(m.tolist(), f)
    np.testing.assert_array_equal(sq, before)  # the kernel does not write to its input


class _NoJitter:
    """Stands in for a colluder's rng so the transmitted point is c(lam) exactly."""

    def standard_normal(self, out):
        out[...] = 0.0
        return out


@st.composite
def crafted_groups(draw):
    """Colluders' honest rows: free rows, and rows placed at a candidate's
    crafted point g - lam_k * s (an exact tie with that candidate), some moved
    one small grid step off it (a near tie)."""
    m = draw(st.integers(2, 5))
    d = draw(st.integers(1, 4))
    kind = Crafted(draw(st.sampled_from([1.0, 2.0, 4.0, 8.0])), draw(st.integers(0, 4)))
    g = np.array(draw(st.lists(dyadic, min_size=d, max_size=d)))
    tied = draw(st.integers(0, m - 1))
    free = np.array(draw(st.lists(st.lists(dyadic, min_size=d, max_size=d),
                                  min_size=m - tied, max_size=m - tied)))
    s = np.sign(free.mean(axis=0) - g)
    lams = [kind.lambda_init * 2.0 ** -draw(st.integers(0, kind.halving_steps))
            for _ in range(tied)]
    free += sum(lams) * s  # the tied rows then leave sign(mean - g) at s
    rows = np.vstack([free] + [g - lam * s for lam in lams])
    for j in range(m - tied, m):
        if draw(st.booleans()):
            rows[j, draw(st.integers(0, d - 1))] += draw(st.sampled_from([-1.0, 1.0])) / 64
    return g, rows[draw(st.permutations(range(m)))], kind


@PROPERTY
@given(crafted_groups())
@example((np.zeros(2), np.array([[-1.0, -1.0], [3.0, 3.0], [4.0, 4.0]]), Crafted(4.0, 3)))
@example((np.zeros(1), np.array([[-2.0], [5.0], [-2.0 - 1 / 64], [6.0]]), Crafted(8.0, 4)))
def test_crafted_lambda_matches_per_candidate_search(case):
    g, rows, kind = case
    s = np.sign(np.mean(rows, axis=0) - g)
    candidates = [kind.lambda_init * 2.0 ** -k for k in range(kind.halving_steps + 1)]
    expected = next((i for i, lam in enumerate(candidates)
                     if oracles.krum_select_oracle([g - lam * s, *rows], len(rows) - 2) == 0),
                    len(candidates) - 1)
    votes = []

    def recording_oracle(sq):
        votes.append(local_krum_oracle(sq))
        return votes[-1]

    out = attack_crafted(g, rows, kind, recording_oracle, [_NoJitter()] * len(rows))
    picked = len(votes) - 1 if votes[-1] == 0 else len(candidates) - 1
    assert picked == expected
    for vec in out:
        np.testing.assert_array_equal(vec, g - candidates[expected] * s)


@st.composite
def training_cases(draw):
    """A small model, 1-8 clients with shards of 1-12 samples each, and a
    batch size and epoch count that leave ragged last batches."""
    spec = ModelSpec(kind=draw(st.sampled_from(["logistic", "mlp1"])), input_dim=3,
                     class_count=3, hidden_dim=4)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shards = [LabeledDataset(features=rng.standard_normal((m, 3)),
                             labels=rng.integers(0, 3, size=m), class_count=3)
              for m in draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))]
    cfg = TrainConfig(learning_rate=0.3, local_steps=draw(st.integers(1, 3)),
                      batch_size=draw(st.integers(1, 13)), rounds=1)
    return spec, rng.uniform(-1.0, 1.0, spec.param_count), shards, cfg


@settings(max_examples=60, deadline=None, derandomize=True)
@given(training_cases())
def test_local_train_matches_per_client_reference(case):
    spec, params, shards, cfg = case
    out = local_train(spec, params, shards, cfg,
                      [np.random.default_rng(i) for i in range(len(shards))])
    for i, shard in enumerate(shards):
        ref = oracles.reference_local_train(spec, params, shard, cfg, np.random.default_rng(i))
        np.testing.assert_array_equal(out[i], ref)


@st.composite
def stream_keys(draw):
    """A seed and a tag anywhere in 64 bits, 1-50 distinct 32-bit client ids
    and 1-5 consecutive round indices."""
    clients = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=50, unique=True))
    start = draw(st.integers(0, 2 ** 32 - 5))
    rounds = range(start, start + draw(st.integers(1, 5)))
    return draw(st.integers(0, 2 ** 64 - 1)), draw(st.integers(0, 2 ** 64 - 1)), clients, rounds


@PROPERTY
@given(stream_keys())
@example((0, 0, [0], range(0, 1)))
@example((2 ** 32 - 1, 2 ** 32, [2 ** 32 - 1, 0, 1], range(2 ** 32 - 5, 2 ** 32)))
@example((2 ** 32, 2 ** 32 - 1, [1, 2 ** 31], range(0, 3)))
@example((2 ** 64 - 1, 2 ** 64 - 1, [0, 2 ** 32 - 1], range(2 ** 32 - 2, 2 ** 32)))
@example((1, 2 ** 64 - 1, [7], range(1, 2)))
def test_stream_states_match_seed_sequence(case):
    seed, tag, clients, rounds = case
    states = _stream_states(seed, tag, clients, rounds)
    assert states.shape == (len(clients), len(rounds), 4)
    for i, cid in enumerate(clients):
        for j, t in enumerate(rounds):
            ours = _generator(states[i, j]).bit_generator
            ref = oracles.reference_seed_stream(seed, tag, cid, t).bit_generator
            assert ours.state == ref.state
            np.testing.assert_array_equal(ours.random_raw(4), ref.random_raw(4))
