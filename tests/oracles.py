"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's counting backends: plain double
loops over ordered pairs, dict accumulation, no numpy.  Tests compare the
library against these on small instances and on instances sized to force
each production backend.
"""

from fractions import Fraction
from itertools import combinations, product


def diff_counts(elements):
    """Ordered-pair difference counts of an integer set."""
    out = {}
    for a in elements:
        for b in elements:
            d = a - b
            out[d] = out.get(d, 0) + 1
    return out


def sum_counts(elements):
    """Ordered-pair sum counts of an integer set."""
    out = {}
    for a in elements:
        for b in elements:
            s = a + b
            out[s] = out.get(s, 0) + 1
    return out


def convolution(x, y):
    """z[k] = sum_i x[i] * y[k - i], one product at a time."""
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


def group_diff_counts(factors, vectors):
    """Difference counts over a product of cyclic groups, all elements."""
    out = {v: 0 for v in product(*(range(n) for n in factors))}
    for a in vectors:
        for b in vectors:
            d = tuple((x - y) % n for x, y, n in zip(a, b, factors))
            out[d] += 1
    return out


def group_sum_counts(factors, vectors):
    """Sum counts over a product of cyclic groups, all elements."""
    out = {v: 0 for v in product(*(range(n) for n in factors))}
    for a in vectors:
        for b in vectors:
            s = tuple((x + y) % n for x, y, n in zip(a, b, factors))
            out[s] += 1
    return out


def is_g_difference_interval(elements, g, N):
    """Every shift 1..N has difference count >= g."""
    counts = diff_counts(elements)
    return all(counts.get(m, 0) >= g for m in range(1, N + 1))


def is_g_sidon_interval(elements, g, N):
    """Support within [1,N] and every sum count <= g."""
    if not elements or min(elements) < 1 or max(elements) > N:
        return False
    counts = sum_counts(elements)
    return all(c <= g for c in counts.values())


def is_g_difference_group(factors, vectors, g):
    counts = group_diff_counts(factors, vectors)
    return all(c >= g for c in counts.values())


def is_g_sidon_group(factors, vectors, g):
    counts = group_sum_counts(factors, vectors)
    return all(c <= g for c in counts.values())


def naive_eta(g, N):
    """Smallest g-difference set for [N], lex-first, full enumeration.

    Candidates start at 0 and have every consecutive gap in [1, N], which
    loses nothing: a gap wider than N can be shrunk to N without lowering any
    count in [1, N] (a pair across it differed by more than N before), and
    the shrunk set is lexicographically smaller.  Gap tuples are listed in
    lex order, which is the lex order of the sets they build.
    """
    size = 1
    while True:
        for gaps in product(range(1, N + 1), repeat=size - 1):
            cand = [0]
            for gap in gaps:
                cand.append(cand[-1] + gap)
            if is_g_difference_interval(cand, g, N):
                return size, tuple(cand)
        size += 1


def naive_gamma(factors, g):
    """Smallest g-difference subset of the group, full enumeration."""
    cells = list(product(*(range(n) for n in factors)))
    for size in range(1, len(cells) + 1):
        for cand in combinations(cells, size):
            if is_g_difference_group(factors, cand, g):
                return size, cand
    return None


def naive_beta(g, N):
    """Largest g-Sidon subset of [1, N], full enumeration, lex-first."""
    best = (0, ())
    for size in range(N, 0, -1):
        for cand in combinations(range(1, N + 1), size):
            if is_g_sidon_interval(cand, g, N):
                return size, cand
    return best


def naive_alpha(factors, g):
    """Largest g-Sidon subset of the group, full enumeration, lex-first."""
    cells = list(product(*(range(n) for n in factors)))
    for size in range(len(cells), 0, -1):
        for cand in combinations(cells, size):
            if is_g_sidon_group(factors, cand, g):
                return size, cand
    return 0, ()


def _overlap(a1, a2, b1, b2):
    lo = max(a1, b1)
    hi = min(a2, b2)
    return hi - lo if hi > lo else 0


def _pair_overlaps(f, x, reflect):
    """Sum over piece pairs of v * w * |piece_i meets (shifted) piece_j|."""
    x = Fraction(x)
    pieces = list(zip(f.breakpoints, f.breakpoints[1:], f.values))
    total = Fraction(0)
    for b1, b2, v in pieces:
        for c1, c2, w in pieces:
            other = (x - c2, x - c1) if reflect else (c1 - x, c2 - x)
            total += v * w * _overlap(b1, b2, *other)
    return total * (1 if f.scale_sqrt is None else f.scale_sqrt)


def naive_autocorrelation(f, x):
    """(f*f)(x) = integral of f(t) f(t+x) dt, piece pair by piece pair."""
    return _pair_overlaps(f, x, reflect=False)


def naive_autoconvolution(f, x):
    """(f.f)(x) = integral of f(t) f(x-t) dt, piece pair by piece pair."""
    return _pair_overlaps(f, x, reflect=True)


def naive_window_averages(f, N, L, stretch):
    """{i: a_i} for every i whose window can meet the stretched support.

    a_i = (N / 2L) * integral of f(x / stretch) over [(i-L)/N, (i+L)/N],
    summed piece by piece from the overlap of each stretched piece with the
    window.  Zero averages are included.  The sqrt scale is left out.
    """
    pieces = [
        (b1 * stretch, b2 * stretch, v)
        for b1, b2, v in zip(f.breakpoints, f.breakpoints[1:], f.values)
    ]
    lo, hi = pieces[0][0] * N, pieces[-1][1] * N
    out = {}
    for i in range(int(lo) - L - 2, int(hi) + L + 3):
        w1, w2 = Fraction(i - L, N), Fraction(i + L, N)
        total = sum(v * _overlap(b1, b2, w1, w2) for b1, b2, v in pieces)
        out[i] = Fraction(N, 2 * L) * total
    return out


def correlations(x, lo, hi):
    """[sum_i x[i] * x[i + m] for m = lo..hi], 0 once m passes the length."""
    return [sum(a * b for a, b in zip(x, x[m:])) for m in range(lo, hi + 1)]
