"""Independent brute-force oracles, kept deliberately loop-based and
numpy-free in their arithmetic so they share nothing with the library path.

The exceptions are the references that the library must match bit for bit.
The local-training reference runs one client at a time in plain 2-D numpy,
with its own layer slicing and products and no call into the library; the
mean cross-entropy that the finite-difference checks difference is written
the same way, so the objective is independent of the step under test.  The
COPOD reference computes every float in input order, as the sorted-order
kernel must reproduce it.  The attack-plan reference builds the transmitted
matrix out of place with its own arithmetic and no call into the library's
attack functions, as the in-place assembly must reproduce it.  The partition
references cut their shards in explicit loops from the same draws, as
numpy's split functions must reproduce them."""

import math

import numpy as np


def euclidean_distance(a, b):
    """L2 norm of a - b."""
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b, strict=True)))


def cosine_distance(a, b):
    """1 - cos(a, b), clipped to [0, 2].

    A zero-norm vector, including one whose squared entries underflow, is
    orthogonal to everything (distance 1.0); identical non-zero vectors are
    at distance exactly 0."""
    a = [float(x) for x in a]
    b = [float(y) for y in b]
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 1.0
    if a == b:
        return 0.0
    cos = sum(x * y for x, y in zip(a, b, strict=True)) / (na * nb)
    return min(2.0, max(0.0, 1.0 - cos))


def copod_scores_oracle(matrix):
    """Explicit U/V tables, per-dimension tail fusion, per-row sums.

    L = -ln U and R = -ln V; a column's skewed tail S is L (left-skewed), R
    (right-skewed) or L + R (sign 0), and each cell contributes
    max(S, (L + R) / 2).  The skewness sign comes from the standardised third
    moment, with constant columns mapped to 0."""
    m = [[float(x) for x in row] for row in matrix]
    n = len(m)
    d = len(m[0])
    u = [[sum(1 for k in range(n) if m[k][j] <= m[i][j]) / n for j in range(d)]
         for i in range(n)]
    v = [[sum(1 for k in range(n) if m[k][j] >= m[i][j]) / n for j in range(d)]
         for i in range(n)]
    skew = []
    for j in range(d):
        col = [m[k][j] for k in range(n)]
        if min(col) == max(col):
            skew.append(0)
            continue
        mean = sum(col) / n
        span = max(abs(x - mean) for x in col)
        dev = [(x - mean) / span for x in col]
        g1 = sum(z ** 3 for z in dev) / n / (sum(z ** 2 for z in dev) / n) ** 1.5
        skew.append(0 if abs(g1) < 1e-12 else (1 if g1 > 0 else -1))
    scores = []
    for i in range(n):
        total = 0.0
        for j in range(d):
            left = -math.log(u[i][j])
            right = -math.log(v[i][j])
            if skew[j] < 0:
                tail = left
            elif skew[j] > 0:
                tail = right
            else:
                tail = left + right
            total += max(tail, (left + right) / 2.0)
        scores.append(total)
    return scores


def copod_scores_reference(matrix):
    """COPOD's vectorised formula in input order, the arithmetic of every
    fused term and of the column sum written out, for bitwise comparison.

    Each value's ECDF counts come from direct comparison, both tails are
    -ln(count / n), the skew sign is the scale-free standardised third
    moment of each contiguous column, and the terms max(S, (L + R) / 2) of
    the (d, n) block are summed over its rows."""
    block = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64).T)
    n = block.shape[1]
    below = (block[:, None, :] < block[:, :, None]).sum(axis=2)
    at_most = (block[:, None, :] <= block[:, :, None]).sum(axis=2)
    left = -np.log(at_most / n)
    right = -np.log((n - below) / n)
    constant = block.min(axis=1) == block.max(axis=1)
    dev = block - block.mean(axis=1, keepdims=True)
    dev[constant] = 0.0
    dev /= np.where(constant, 1.0, np.abs(dev).max(axis=1))[:, None]
    sq = dev * dev
    with np.errstate(invalid="ignore"):
        g1 = np.mean(sq * dev, axis=1) / np.mean(sq, axis=1) ** 1.5
    sign = np.where(constant | (np.abs(g1) < 1e-12), 0.0, np.sign(g1))[:, None]
    tail = np.where(sign < 0, left, np.where(sign > 0, right, left + right))
    return np.maximum(tail, (left + right) / 2.0).sum(axis=0)


def median_oracle(rows):
    """Per-coordinate median, even count averaged."""
    n = len(rows)
    d = len(rows[0])
    out = []
    for j in range(d):
        col = sorted(float(r[j]) for r in rows)
        if n % 2 == 1:
            out.append(col[n // 2])
        else:
            out.append((col[n // 2 - 1] + col[n // 2]) / 2.0)
    return out


def trimmed_mean_oracle(rows, trim_fraction):
    n = len(rows)
    d = len(rows[0])
    k = math.floor(trim_fraction * n)
    out = []
    for j in range(d):
        col = sorted(float(r[j]) for r in rows)[k:n - k]
        out.append(sum(col) / len(col))
    return out


def krum_select_oracle(rows, f):
    """Index of the update with the smallest sum of squared distances to its
    n - f - 2 nearest peers; first index on ties."""
    n = len(rows)
    neighbors = n - f - 2
    best, best_score = None, None
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            dists.append(sum((float(a) - float(b)) ** 2 for a, b in zip(rows[i], rows[j])))
        score = sum(sorted(dists)[:neighbors])
        if best_score is None or score < best_score:
            best, best_score = i, score
    return best


def tie_runs_oracle(ranked):
    """Per position of an ascending sequence with NaNs last, the count of
    values below its value and the count of values at most it; a NaN is a
    run of its own, from its position to the next."""
    values = [float(x) for x in ranked]
    starts, ends = [], []
    for p, x in enumerate(values):
        if math.isnan(x):
            starts.append(p)
            ends.append(p + 1)
        else:
            starts.append(sum(1 for y in values if y < x))
            ends.append(sum(1 for y in values if y <= x))
    return starts, ends


def ecdf_counts_oracle(block):
    """Per row of a (d, n) block, the count of values below each value and the
    count of values at most it, in input order."""
    below, at_most = [], []
    for row in block:
        values = [float(x) for x in row]
        below.append([sum(1 for y in values if y < x) for x in values])
        at_most.append([sum(1 for y in values if y <= x) for x in values])
    return below, at_most


def mann_whitney_auc_oracle(scores, positive):
    """Share of (positive, negative) pairs the positive outscores, ties
    counting 0.5; None if either side is empty."""
    pos = [float(s) for s, p in zip(scores, positive, strict=True) if p]
    neg = [float(s) for s, p in zip(scores, positive, strict=True) if not p]
    if not pos or not neg:
        return None
    wins = 0.0
    for x in pos:
        for y in neg:
            if x > y:
                wins += 1.0
            elif x == y:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def reference_local_train(spec, params, data, cfg, rng):
    """One client's seeded mini-batch SGD as a plain loop over its batches,
    with the single-model products written out in 2-D numpy; the batched
    trainer must give this bit for bit."""
    theta = params.copy()
    m = len(data)
    for _ in range(cfg.local_steps):
        order = rng.permutation(m)
        for start in range(0, m, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            theta -= cfg.learning_rate * _reference_grad(spec, theta, data.features[batch],
                                                         data.labels[batch])
    return theta


def reference_predict_proba(spec, flat, features):
    """Class probabilities of one (P,) model on (b, q) features, with the
    layer products written out in 2-D numpy and a max-shifted softmax."""
    logits = _reference_logits(spec, flat, features)
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def reference_cross_entropy(spec, flat, features, labels):
    """Mean softmax cross-entropy of one (P,) model on (b, q) features and (b,)
    labels, via a max-shifted log-softmax: the objective of the SGD step."""
    logits = _reference_logits(spec, flat, features)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -log_probs[np.arange(len(labels)), labels].mean()


def _reference_logits(spec, flat, features):
    layers = _reference_layers(spec, flat)
    if spec.kind == "logistic":
        w, b = layers
        return features @ w.T + b
    w1, b1, w2, b2 = layers
    return np.maximum(features @ w1.T + b1, 0.0) @ w2.T + b2


def _reference_layers(spec, flat):
    layers, at = [], 0
    for shape in spec.layer_shapes():
        size = int(np.prod(shape))
        layers.append(flat[at:at + size].reshape(shape))
        at += size
    return layers


def _reference_grad(spec, flat, features, labels):
    layers = _reference_layers(spec, flat)
    m = features.shape[0]

    def output_delta(logits):
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        delta = np.exp(log_probs)
        delta[np.arange(m), labels] -= 1.0
        delta /= m
        return delta

    if spec.kind == "logistic":
        w, b = layers
        delta = output_delta(features @ w.T + b)
        return np.concatenate([(delta.T @ features).ravel(), delta.sum(axis=0)])
    w1, b1, w2, b2 = layers
    pre = features @ w1.T + b1
    hidden = np.maximum(pre, 0.0)
    delta = output_delta(hidden @ w2.T + b2)
    d_hidden = (delta @ w2) * (pre > 0.0)
    return np.concatenate([(d_hidden.T @ features).ravel(), d_hidden.sum(axis=0),
                           (delta.T @ hidden).ravel(), delta.sum(axis=0)])


def reference_crafted_point(global_prev, own, kind, oracle):
    """The crafted point c(lam) = g - lam * s and lam, found out of place.

    The offsets g - h_j are one (m, d) array; ``oracle`` gets each halving
    candidate's (m+1, m+1) vote matrix in turn, and the first whose vote
    returns 0 is lam.  Without an oracle, or when no vote is won, lam is the
    last candidate."""
    from scipy.spatial.distance import pdist, squareform

    direction = np.sign(np.mean(own, axis=0) - global_prev)
    candidates = [kind.lambda_init * 2.0 ** -k for k in range(kind.halving_steps + 1)]
    lam = candidates[-1]
    if oracle is not None:
        offsets = global_prev - own
        base = np.einsum("ij,ij->i", offsets, offsets)
        proj = np.einsum("ij,j->i", offsets, direction)
        s_sq = float(np.count_nonzero(direction))
        honest_sq = np.pad(squareform(pdist(own, "sqeuclidean")), (1, 0))
        for cand in candidates:
            sq = honest_sq.copy()
            sq[0, 1:] = sq[1:, 0] = np.maximum(base - 2.0 * cand * proj
                                               + cand * cand * s_sq, 0.0)
            if oracle(sq) == 0:
                lam = cand
                break
    return global_prev - lam * direction, lam


def reference_apply_attack_plan(plan, honest, global_prev, rng_for):
    """The transmitted update matrix built out of place: a list of the honest
    rows, each attacked row replaced by a new vector computed from the
    untouched honest matrix, crafted groups in first-member order, then
    ``np.stack``.  Noise is ``sigma * z`` and each colluder's vector is
    ``c + 0.01 * lam * z`` for fresh draws z, with c and lam from
    :func:`reference_crafted_point` under the local Krum vote."""
    from dosfl.attacks import Crafted, GaussianNoise, Scale, local_krum_oracle

    rows = list(honest)
    groups = {}
    for cid, kind in sorted(plan.assignments.items()):
        if isinstance(kind, GaussianNoise):
            rows[cid] = kind.sigma * rng_for(cid).standard_normal(honest.shape[1])
        elif isinstance(kind, Scale):
            rows[cid] = kind.factor * honest[cid]
        elif isinstance(kind, Crafted):
            groups.setdefault(kind, []).append(cid)
    for kind, members in groups.items():
        oracle = local_krum_oracle if len(members) >= 2 else None
        crafted, lam = reference_crafted_point(global_prev, honest[members], kind, oracle)
        for cid in members:
            rows[cid] = crafted + 0.01 * lam * rng_for(cid).standard_normal(crafted.size)
    return np.stack(rows)


def reference_partition_iid(m, n, rng):
    """Index arrays of one shuffle cut into n contiguous runs, the first
    m % n of them one sample longer."""
    perm = rng.permutation(m)
    shards, start = [], 0
    for i in range(n):
        size = m // n + (1 if i < m % n else 0)
        shards.append(perm[start:start + size])
        start += size
    return shards


def reference_partition_label_skew(labels, class_count, n, alpha, rng, retries):
    """Index arrays of the Dirichlet label-skew split: client i takes each
    class's shuffled members from cut i - 1 to cut i.  None when every one of
    ``retries`` draws left a client empty."""
    for _ in range(retries):
        shards = [[] for _ in range(n)]
        for c in range(class_count):
            members = rng.permutation(np.flatnonzero(labels == c))
            props = rng.dirichlet(np.full(n, alpha))
            cuts = np.floor(np.cumsum(props) * len(members) + 0.5).astype(int)
            start = 0
            for i in range(n):
                shards[i].extend(members[start:cuts[i]])
                start = cuts[i]
        if all(shards):
            return [np.array(sorted(s), dtype=int) for s in shards]
    return None


def reference_seed_stream(seed, tag, client, round_index):
    """numpy's own generator for one stream key, built by ``SeedSequence``."""
    return np.random.default_rng(np.random.SeedSequence([seed, tag, client, round_index]))
