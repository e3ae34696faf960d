"""Property checks of the whole-matrix aggregation kernels against the
loop-based oracles, on the inputs where a vectorised kernel can part from a
per-pair or per-column loop: ties, constant columns, extreme scales, zero and
underflowing rows, and exact or near duplicates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dosfl.aggregators import aggregate_krum
from dosfl.copod import copod_scores
from dosfl.params import ClientUpdate, pairwise_distances

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
    dp = pairwise_distances(m)
    n = m.shape[0]
    assert np.all(np.diag(dp.euclidean) == 0.0) and np.all(np.diag(dp.cosine) == 0.0)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            euc = oracles.euclidean_distance(m[i], m[j])
            cos = oracles.cosine_distance(m[i], m[j])
            assert abs(dp.euclidean[i, j] - euc) <= 1e-12
            if np.array_equal(m[i], m[j]):
                assert dp.euclidean[i, j] == 0.0
            if not np.any(m[i] * m[i]) or not np.any(m[j] * m[j]) or np.array_equal(m[i], m[j]):
                assert dp.cosine[i, j] == cos  # zero-norm row or equal rows: exact
            else:
                assert abs(dp.cosine[i, j] - cos) <= 1e-12


@st.composite
def krum_cases(draw):
    # dyadic entries keep every squared distance and score exact, so ties
    # between rows are real ties and must break to the lowest index
    n = draw(st.integers(3, 9))
    d = draw(st.integers(1, 4))
    m = np.array(draw(st.lists(st.lists(st.integers(-16, 16).map(lambda k: k / 8.0),
                                        min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    return m, draw(st.integers(0, n - 3))


@PROPERTY
@given(krum_cases())
def test_krum_matches_oracle(case):
    m, f = case
    result = aggregate_krum([ClientUpdate(i, v) for i, v in enumerate(m)], f)
    expected = oracles.krum_select_oracle(m.tolist(), f)
    assert int(np.argmax(result.weights)) == expected
    np.testing.assert_array_equal(result.new_global, m[expected])
