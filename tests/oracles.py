"""Independent brute-force oracles, kept deliberately loop-based and
numpy-free in their arithmetic so they share nothing with the library path."""

import math


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
