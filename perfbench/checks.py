"""Recounts made apart from diffsets, used to check the program's outputs.

Nothing here imports `diffsets`.  Pair counts come from numpy FFTs rounded
to integers (the largest rounding error is kept, so a recount that was too
close to call shows), or from sorted pairwise differences where the span is
too wide for an FFT.  Random draws are regenerated from the documented
stream, `Generator(Philox(key=seed))`, with inclusion decided in integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.random import Generator, Philox

_FFT_SPAN_LIMIT = 1 << 22
_PAIR_BLOCK = 1 << 21


class Recounter:
    """Pair counts by FFT; remembers the largest rounding error it saw."""

    def __init__(self):
        self.max_round_error = 0.0

    def rounded(self, x: np.ndarray) -> np.ndarray:
        r = np.rint(x)
        err = float(np.max(np.abs(x - r))) if x.size else 0.0
        self.max_round_error = max(self.max_round_error, err)
        if err > 0.25:
            raise ArithmeticError(f"FFT recount rounding error {err} too large")
        return r.astype(np.int64)

    def diff_counts(self, elements, N: int) -> np.ndarray:
        """c[m] = #{(a, b) in A x A : a - b = m} for m = 0..N."""
        a = np.asarray(sorted(elements), dtype=np.int64)
        span = int(a[-1] - a[0])
        out = np.zeros(N + 1, dtype=np.int64)
        if span <= _FFT_SPAN_LIMIT:
            ind = np.zeros(span + 1)
            ind[a - a[0]] = 1.0
            n = _fft_len(2 * span + 1)
            f = np.fft.rfft(ind, n)
            corr = self.rounded(np.fft.irfft(f * np.conj(f), n)[: span + 1])
            top = min(N, span)
            out[: top + 1] = corr[: top + 1]
            return out
        rows = max(1, _PAIR_BLOCK // len(a))
        for i in range(0, len(a), rows):
            d = (a[i : i + rows, None] - a[None, :]).ravel()
            d = d[(d >= 0) & (d <= N)]
            out += np.bincount(d, minlength=N + 1)
        return out

    def sum_counts(self, elements) -> tuple[int, np.ndarray]:
        """(lo, c) with c[j] = #{(a, b) in A x A : a + b = lo + j}."""
        a = np.asarray(sorted(elements), dtype=np.int64)
        span = int(a[-1] - a[0])
        ind = np.zeros(span + 1)
        ind[a - a[0]] = 1.0
        n = _fft_len(2 * span + 1)
        f = np.fft.rfft(ind, n)
        return 2 * int(a[0]), self.rounded(np.fft.irfft(f * f, n)[: 2 * span + 1])

    def group_counts(self, factors, vectors, mode: str = "difference") -> np.ndarray:
        """Counts at every group element, flattened row-major over the factors."""
        ind = np.zeros(tuple(factors))
        ind[tuple(np.asarray(vectors, dtype=np.int64).T)] = 1.0
        f = np.fft.fftn(ind)
        prod = f * np.conj(f) if mode == "difference" else f * f
        return self.rounded(np.fft.ifftn(prod).real).ravel()


def _fft_len(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


def unflatten(factors, flat: int) -> list[int]:
    out = []
    for n in reversed(factors):
        out.append(flat % n)
        flat //= n
    return out[::-1]


def first_index(mask: np.ndarray):
    hits = np.nonzero(mask)[0]
    return int(hits[0]) if hits.size else None


def small_diff_counts(elements, N: int) -> list[int]:
    """Plain double loop for small sets: c[m], m = 0..N."""
    c = [0] * (N + 1)
    for a in elements:
        for b in elements:
            if 0 <= a - b <= N:
                c[a - b] += 1
    return c


def cyclic_diff_counts(elements, q: int) -> list[int]:
    """Plain double loop: c[d] = #{(a, b) : a - b = d mod q}, d = 0..q-1."""
    c = [0] * q
    for a in elements:
        for b in elements:
            c[(a - b) % q] += 1
    return c


def frac(text) -> Fraction:
    return Fraction(str(text))


def ceil_cbrt_scale(tau_hat: Fraction, N: int) -> int:
    """Smallest L with L >= (tau_hat / 2) N^(2/3), i.e. 8 L^3 q^3 >= p^3 N^2."""
    p, q = tau_hat.numerator, tau_hat.denominator
    L = 0
    step = 1 << 20
    while step:
        while 8 * (L + step) ** 3 * q**3 < p**3 * N * N:
            L += step
        step >>= 1
    return L + 1


def philox_units(seed: int, count: int) -> list[int]:
    """The stream's uniforms as integers m, u = m / 2^53 exactly."""
    u = Generator(Philox(key=int(seed) & ((1 << 128) - 1))).random(count)
    return [int(x) for x in (u * float(1 << 53)).astype(np.int64)]


def regen_group_draw(order: int, g: int, seed: int) -> list[int]:
    """Flat indices i with u_i^2 < g/|G|, decided in integers."""
    rhs = g << 106
    return [i for i, m in enumerate(philox_units(seed, order)) if m * m * order < rhs]


def regen_sequence_draw(support, coeffs, cbrt_n, seed: int) -> list[int]:
    """Indices with u < p_i; p_i = q_i n^(2/3) compared through cubes."""
    units = philox_units(seed, len(support))
    out = []
    for i, q, m in zip(support, coeffs, units):
        a, b = q.numerator, q.denominator
        if cbrt_n is None:
            take = m * b < a << 53
        else:
            take = a > 0 and m**3 * b**3 < a**3 * cbrt_n**2 << 159
        if take:
            out.append(i)
    return out


def window_integral(pieces, lam: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    """Integral over [lo, hi] of x -> f(x / lam), f given by (b1, b2, v) pieces."""
    total = Fraction(0)
    for b1, b2, v in pieces:
        x1, x2 = max(b1 * lam, lo), min(b2 * lam, hi)
        if x2 > x1:
            total += v * (x2 - x1)
    return total


def int_correlation(ints: list[int], m: int) -> int:
    return sum(x * y for x, y in zip(ints, ints[m:]))


def common_denominator(values) -> int:
    den = 1
    for v in values:
        den = math.lcm(den, v.denominator)
    return den
