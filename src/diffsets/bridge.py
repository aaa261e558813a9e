"""Exact bridge between finite sets and nonnegative step functions.

A verified g-difference set A for [N] maps to the step function taking the
value sqrt(N/g) on the union of blocks [a/N, (a+1)/N); its autocorrelation at
grid points reproduces the difference counts exactly: (f*f)(j/N) = r_A(j)/g.
Scales like sqrt(N/g) and N^(2/3) are carried symbolically next to rational
coefficients so every comparison here is exact (rationals and integers only).

Family F holds functions with autocorrelation >= 1 on [0,1]; family E holds
functions supported in [0,1] with autoconvolution <= 1 everywhere.

Both checks run one integer kernel, _kink_sweep.  With jumps d_i at the
breakpoints b_i, (f*f)(x) = -sum_{i,j} d_i d_j (b_j - b_i - x)_+ and
(f.f)(x) = sum_{i,j} d_i d_j (x - b_i - b_j)_+: piecewise linear, with kinks
only at breakpoint differences or sums.  A minimum over [lo, hi] is first
attained at lo or a kink, a maximum over R at a kink; one sort and one sweep
of running integer totals evaluate every candidate exactly.  More than
_PAIR_LIMIT breakpoint pairs are refused with a ValueError before any pair
work.

Window averages and inclusion probabilities are stored as (start, nums,
den): integer numerators over one denominator on a contiguous index range.
The integral sweep, the averages conditions, the probabilities and the Monte
Carlo decisions run on these integers; rationals appear only at the edges
(coeffs, JSON, dicts).  Over _SPAN_LIMIT indices are refused up front.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import compress, repeat
from types import MappingProxyType

import numpy as np

from .core_sets import (
    CertificateError,
    GroupSpec,
    GroupSubset,
    IntSet,
    _CELL_PAIRS,
    _convolve,
    _flat,
    _group_counts,
    _pair_sums,
    _require_certificate,
    _total,
    format_fraction,
    parse_fraction,
)

__all__ = [
    "SqrtScaled",
    "StepFunction",
    "TorusStepFunction",
    "AveragesSeq",
    "ProbSeq",
    "set_to_step",
    "autocorrelation",
    "autocorrelation_min",
    "autoconvolution",
    "autoconvolution_max",
    "local_averages",
    "averages_to_probs",
    "prob_correlation_minimum",
    "group_set_to_torus",
    "torus_autocorrelation",
    "torus_autocorrelation_min",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The square root of q >= 0 when it is rational, else None."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(num, den) if num * num == q.numerator and den * den == q.denominator else None


class _SqrtScale:
    """The optional scale_sqrt of a step function: its values carry a
    factor sqrt(scale_sqrt), None meaning 1."""

    @staticmethod
    def _fold(scale) -> tuple[Fraction, Fraction | None]:
        """(root, scale_sqrt) for a scale of None or a positive rational,
        a rational square root moved into root for the values to take."""
        if scale is None:
            return _ONE, None
        scale = Fraction(scale)
        if scale <= 0:
            raise ValueError("scale radicand must be positive")
        root = _rational_sqrt(scale)
        return (_ONE, scale) if root is None else (root, None)

    def _scale_fraction(self) -> Fraction:
        return _ONE if self.scale_sqrt is None else self.scale_sqrt

    def _scale_json(self) -> dict | None:
        scale = self.scale_sqrt
        return None if scale is None else {"num": scale.numerator, "den": scale.denominator}


@total_ordering
@dataclass(frozen=True)
class SqrtScaled:
    """Exact nonnegative value coeff * sqrt(radicand), both rational."""

    coeff: Fraction
    radicand: Fraction = _ONE

    def __post_init__(self):
        c, r = Fraction(self.coeff), Fraction(self.radicand)
        if c < 0 or r <= 0:
            raise ValueError("needs coeff >= 0 and radicand > 0")
        root = _rational_sqrt(r)  # fold a rational square into the coefficient
        if root is not None:
            c, r = c * root, _ONE
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "radicand", r)

    def squared(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __float__(self) -> float:
        return float(self.coeff) * math.sqrt(float(self.radicand))

    @staticmethod
    def _signed_square(other) -> Fraction:
        """other * |other|: increasing, so it orders like other itself."""
        if isinstance(other, SqrtScaled):
            return other.squared()
        q = Fraction(other)
        return q * abs(q)

    def __eq__(self, other) -> bool:
        return self.squared() == self._signed_square(other)

    def __lt__(self, other) -> bool:
        return self.squared() < self._signed_square(other)

    def __hash__(self):  # a rational value hashes as the rational it equals
        rational = self.radicand == 1 or self.coeff == 0
        return hash(self.coeff if rational else ("SqrtScaled", self.squared()))

    def to_json(self) -> dict:
        return {
            "coeff": format_fraction(self.coeff),
            "radicand": format_fraction(self.radicand),
            "float": round(float(self), 6),
        }


def _canonical_pieces(breakpoints, values):
    """Merge equal-value neighbors, strip boundary zero pieces."""
    bps = [Fraction(b) for b in breakpoints]
    vals = [Fraction(v) for v in values]
    if len(bps) != len(vals) + 1:
        raise ValueError("need one more breakpoint than values")
    if any(b >= c for b, c in zip(bps, bps[1:])):
        raise ValueError("breakpoints must strictly increase")
    if any(v < 0 for v in vals):
        raise ValueError("values must be nonnegative")
    while vals and vals[0] == 0:
        bps.pop(0)
        vals.pop(0)
    while vals and vals[-1] == 0:
        bps.pop()
        vals.pop()
    if not vals:
        return (), ()
    out_b = [bps[0]]
    out_v = [vals[0]]
    for b, v in zip(bps[1:-1], vals[1:]):
        if v == out_v[-1]:
            continue
        out_b.append(b)
        out_v.append(v)
    out_b.append(bps[-1])
    return tuple(out_b), tuple(out_v)


@dataclass(frozen=True)
class StepFunction(_SqrtScale):
    """Nonnegative rational step function, zero outside its breakpoints.

    Piece i takes the value values[i] * sqrt(scale_sqrt) on
    [breakpoints[i], breakpoints[i+1]); scale_sqrt None means 1.  Stored in
    canonical form (adjacent equal values merged, boundary zeros stripped,
    perfect-square scales folded into the values).
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    scale_sqrt: Fraction | None = None

    def __post_init__(self):
        bps, vals = _canonical_pieces(self.breakpoints, self.values)
        root, scale = self._fold(self.scale_sqrt)
        if root != 1:
            vals = tuple(v * root for v in vals)
        if scale is not None and not vals:
            scale = None
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "scale_sqrt", scale)

    @property
    def is_zero(self) -> bool:
        return not self.values

    def support(self) -> tuple[Fraction, Fraction] | None:
        if self.is_zero:
            return None
        return self.breakpoints[0], self.breakpoints[-1]

    def integral(self) -> SqrtScaled:
        total = sum(
            v * (b2 - b1)
            for v, b1, b2 in zip(self.values, self.breakpoints, self.breakpoints[1:])
        )
        return SqrtScaled(Fraction(total), self._scale_fraction())

    def pieces(self):
        return list(zip(self.breakpoints, self.breakpoints[1:], self.values))

    def to_json(self) -> dict:
        return {
            "breakpoints": [format_fraction(b) for b in self.breakpoints],
            "values": [format_fraction(v) for v in self.values],
            "scale_sqrt": self._scale_json(),
        }

    @classmethod
    def from_json(cls, data) -> "StepFunction":
        breakpoints, values = _fields(data, "breakpoints", "values")
        scale = data.get("scale_sqrt")
        radicand = None
        if scale is not None:
            # integers only: not 1, [1], {"num": 1}, nor a float, string or bool at a key
            if not isinstance(scale, dict) or {type(scale.get("num")), type(scale.get("den"))} != {int}:
                raise ValueError('scale_sqrt must be null or {"num": p, "den": q}')
            num, den = scale["num"], scale["den"]
            if den == 0:
                raise ValueError("zero denominator in scale_sqrt")
            radicand = Fraction(num, den)
        return cls(
            tuple(parse_fraction(b) for b in breakpoints),
            tuple(parse_fraction(v) for v in values),
            radicand,
        )


def set_to_step(A: IntSet, g: int, N: int) -> StepFunction:
    """Blocks [a/N, (a+1)/N) at height sqrt(N/g) for a verified certificate."""
    _require_certificate(A, g, N, name="A")
    # blocks with explicit zero gaps; canonicalization merges runs
    bps: list[Fraction] = []
    vals: list[Fraction] = []
    prev_end = None
    for a in A.elements:
        lo, hi = Fraction(a, N), Fraction(a + 1, N)
        if prev_end is None:
            bps.append(lo)
        elif lo > prev_end:
            vals.append(_ZERO)
            bps.append(lo)
        bps.append(hi)
        vals.append(_ONE)
        prev_end = hi
    return StepFunction(tuple(bps), tuple(vals), Fraction(N, g))


# 447 breakpoints at most: larger inputs are refused before any pair work.
_PAIR_LIMIT = 200_000


def _kink_sweep(f: StepFunction, sums: bool, lo: Fraction, hi: Fraction):
    """Min of (f*f), or max of (f.f) if sums, over [lo, hi], and its first point.

    Scaled by the breakpoints' common denominator P and the jumps' D, the
    module identity is (f o f)(x) = unit * G(xP), unit < 0 for (f.f), with
    G(X) = sum_k w_k (X - k)_+ over integer kinks k and weights w_k (ramps
    (k - X)_+ give the same sum: the jumps and their first moments sum to
    zero).  The weights are the jumps' sorted _pair_sums, in int64 when
    |kinks| and (sum |jump|)^2 stay below 2^63.  G's first minimiser is lo
    or a kink; one ascending sweep of s0 = sum w_k and s1 = sum k w_k gives
    G = k s0 - s1 at each kink.
    """
    bps = f.breakpoints
    if len(bps) ** 2 > _PAIR_LIMIT:
        raise ValueError(f"{len(bps)} breakpoints: over {_PAIR_LIMIT} pairs for the kink scan")
    jumps = [f.values[0], *(v - u for u, v in zip(f.values, f.values[1:])), -f.values[-1]]
    pitch = math.lcm(*(b.denominator for b in bps))
    den = math.lcm(*(d.denominator for d in jumps))
    B = [int(b * pitch) for b in bps]
    J = [int(d * den) for d in jumps]
    narrow = max(map(abs, B)) < 2**62 and sum(map(abs, J)) ** 2 < 2**63
    B, J = (np.array(x, dtype=np.int64 if narrow else object) for x in (B, J))
    kinks, weight = _pair_sums(B if sums else -B, B, J, runs=True)
    kinks, weight = kinks.tolist(), (-weight).tolist()
    start = bisect_right(kinks, math.floor(lo * pitch))
    stop = bisect_left(kinks, math.ceil(hi * pitch))
    s0 = sum(weight[:start])
    s1 = sum(map(operator.mul, kinks[:start], weight[:start]))
    best, arg = lo * pitch * s0 - s1, lo
    low = low_k = None
    for k, w in zip(kinks[start:stop], weight[start:stop]):
        g = k * s0 - s1
        if low is None or g < low:
            low, low_k = g, k
        s0 += w
        s1 += k * w
    if low is not None and low < best:
        best, arg = low, Fraction(low_k, pitch)
    at_hi = hi * pitch * s0 - s1
    if at_hi < best:
        best, arg = at_hi, hi
    unit = f._scale_fraction() / (den * den * pitch)
    return best * (-unit if sums else unit), arg


def autocorrelation(f: StepFunction, x) -> Fraction:
    """Exact (f*f)(x) = integral of f(t) f(t+x) dt, a rational number."""
    x = Fraction(x)
    return _ZERO if f.is_zero else _kink_sweep(f, False, x, x)[0]


def autoconvolution(f: StepFunction, x) -> Fraction:
    """Exact (f.f)(x) = integral of f(t) f(x-t) dt, a rational number."""
    x = Fraction(x)
    return _ZERO if f.is_zero else _kink_sweep(f, True, x, x)[0]


def autocorrelation_min(f: StepFunction, lo=0, hi=1) -> tuple[Fraction, Fraction]:
    """Exact minimum of (f*f) over [lo, hi] and its smallest attaining point.

    (f*f)(x) = -sum_{i,j} d_i d_j (b_j - b_i - x)_+ over the jumps d_i at the
    breakpoints b_i, so the candidates are lo, hi and the breakpoint
    differences between them, all evaluated by one integer sweep.  More than
    _PAIR_LIMIT breakpoint pairs raise a ValueError before any pair work.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if f.is_zero:
        return _ZERO, lo
    return _kink_sweep(f, False, lo, hi)


def autoconvolution_max(f: StepFunction, in_E: bool = False) -> tuple[Fraction, Fraction]:
    """Exact maximum of (f.f) over R and its smallest attaining point.

    (f.f)(x) = sum_{i,j} d_i d_j (x - b_i - b_j)_+ over the jumps d_i at the
    breakpoints b_i, so the candidates are the breakpoint sums, all
    evaluated by one integer sweep.  More than _PAIR_LIMIT breakpoint pairs
    raise a ValueError before any pair work.  With in_E=True the support
    must lie inside [0,1] (the family-E side condition) or a ValueError is
    raised.
    """
    if f.is_zero:
        return _ZERO, _ZERO
    sup = f.support()
    if in_E and (sup[0] < 0 or sup[1] > 1):
        raise ValueError("support outside [0,1]")
    return _kink_sweep(f, True, 2 * sup[0], 2 * sup[1])


# ---------------------------------------------------------------------------
# Window averages and probability sequences


# 2^22 indices (N about 2.1e6 for a support of length 2) take about 21 s and
# 0.95 GB in local_averages; longer sequences are refused before allocation.
_SPAN_LIMIT = 1 << 22


def _ceil_cbrt_ratio(num: int, den: int) -> int:
    """Smallest integer L with L^3 * den >= num, exactly."""
    if num <= 0:
        return 0
    guess = max(0, int(round((num / den) ** (1.0 / 3.0))) - 2)
    while guess**3 * den < num:
        guess += 1
    return guess


def window_radius(N: int, tau_hat: Fraction) -> int:
    """L = ceil((tau_hat/2) * N^(2/3)), exactly."""
    p, q = tau_hat.numerator, tau_hat.denominator
    return _ceil_cbrt_ratio(p**3 * N * N, 8 * q**3)


def _correlations(nums, m_lo: int, m_hi: int) -> list[int]:
    """c(m) = sum_i n_i n_{i+m} for m = m_lo..m_hi >= 0 over nonnegative
    integers, exactly (0 past the length n).

    The autocorrelation of n's second difference d is the fourth central
    difference of c, and c vanishes from n on, so four cumulative sums from
    the top recover c from the lag sums of d's S nonzeros in O(S^2 + n) when
    S^2 <= n * _CELL_PAIRS, as for window averages of a step function.  The
    lag sums are at most sum d^2 and the k-th differences of c at most
    2^k sum n^2: int64 while both stay below 2^63 (k <= 3), else Python ints.
    Dense sequences take one _convolve of n with its reverse; no FFT.
    """
    n = len(nums)
    try:
        a = np.array(nums, dtype=np.int64)
    except OverflowError:
        a = np.array(nums, dtype=object)
    if a.min() < 0:
        raise ValueError("correlation operands must be nonnegative")
    wide = a.dtype == object or a.max() >= 2**31  # else 4a and a*a fit int64
    d = np.diff(np.concatenate(([0, 0], a.astype(object) if wide else a, [0, 0])), 2)
    at = np.flatnonzero(d)
    if len(at) ** 2 > n * _CELL_PAIRS:
        z = _convolve(a, reverse=True, lo=n - 1 + m_lo, hi=n + m_hi)
        z = z.tolist() if isinstance(z, np.ndarray) else z
    else:
        v = d[at]
        if not wide and max(8 * _total(a * a), sum(x * x for x in v.tolist())) >= 2**63:
            v = v.astype(object)
        # lag sums of d at lags m_lo+2..n+1 are the fourth differences of c at m_lo..n-1
        c = _pair_sums(-(at + m_lo + 2), at, v, max(n - m_lo, 0))
        for _ in range(4):
            c = np.cumsum(c[::-1])[::-1]
        z = c[: m_hi - m_lo + 1].tolist()
    return z + [0] * (m_hi - m_lo + 1 - len(z))


def _check_span(span: int) -> None:
    if span > _SPAN_LIMIT:
        raise ValueError(f"{span} sequence entries: over the {_SPAN_LIMIT} limit")


def _lowest_terms(nums, den: int) -> tuple[tuple[int, ...], int]:
    """Divide out the common factor: den becomes the least common denominator."""
    g = math.gcd(den, *nums)
    if g > 1:
        nums = [n // g for n in nums]
    return tuple(nums), den // g


class _Numerators:
    """Entries nums[j] / den at the indices start + j; cached read-only views."""

    @cached_property
    def coeffs(self) -> MappingProxyType:
        """Read-only {i: rational entry} over the support."""
        s, den = self.start, self.den
        return MappingProxyType({s + j: Fraction(n, den) for j, n in enumerate(self.nums) if n})

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Indices of the nonzero entries, ascending."""
        s = self.start
        return tuple(compress(range(s, s + len(self.nums)), self.nums))

    def _json_coeffs(self) -> list[str]:
        """format_fraction of each nonzero entry, reduced by one gcd.  Each
        reduced denominator den // gcd divides den, so it is formatted once."""
        den = self.den
        nums = list(filter(None, self.nums))
        gcds = list(map(math.gcd, nums, repeat(den)))
        tails = {g: "" if g == den else f"/{den // g}" for g in set(gcds)}
        return [f"{n // g}{tails[g]}" for n, g in zip(nums, gcds)]


@dataclass(frozen=True)
class ConditionsReport:
    """Exact outcomes of the three window-average sanity conditions."""

    sum_identity_ok: bool  # sum a_i == N * integral(f)
    cond2_ok: bool  # max a_i <= (sum a_j) / (tau_hat N^(2/3))
    cond3_ok: bool  # min_m correlation >= ((2L-1)/2L) N
    cond3_min: Fraction
    cond3_argmin: int
    cond3_threshold: Fraction
    cond3_m_range: tuple[int, int]
    realized_epsilon: Fraction

    def to_json(self) -> dict:
        return {
            "sum_identity_ok": self.sum_identity_ok,
            "cond2_ok": self.cond2_ok,
            "cond3_ok": self.cond3_ok,
            "cond3_min": format_fraction(self.cond3_min),
            "cond3_argmin": self.cond3_argmin,
            "cond3_threshold": format_fraction(self.cond3_threshold),
            "cond3_m_range": list(self.cond3_m_range),
            "realized_epsilon": format_fraction(self.realized_epsilon),
        }


@dataclass(frozen=True)
class AveragesSeq(_Numerators):
    """Window averages a_i = (N/2L) * integral of f over [(i-L)/N, (i+L)/N].

    Stored as (start, nums, den): a_i = nums[i - start] / den * sqrt(radicand)
    over one contiguous index range, den the least common denominator; zero
    entries stay in nums but not in support, coeffs or the JSON.  The sqrt
    radicand comes from the source step function.  stretch is the dilation
    factor applied to f before averaging (1 when unstretched).
    """

    N: int
    L: int
    tau_hat: Fraction
    stretch: Fraction
    radicand: Fraction
    start: int
    nums: tuple[int, ...]
    den: int
    conditions: ConditionsReport | None = field(default=None, compare=False)

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "L": self.L,
            "tau_hat": format_fraction(self.tau_hat),
            "stretch": format_fraction(self.stretch),
            "radicand": format_fraction(self.radicand),
            "support": list(self.support),
            "coeffs": self._json_coeffs(),
            "conditions": None if self.conditions is None else self.conditions.to_json(),
        }


def _cumulative_at(f: StepFunction, stretch: Fraction, N: int, lo: int, hi: int):
    """(scale * F(j/N) for j = lo..hi, scale), F(x) the integral of the stretched f
    up to x.  The stretched breakpoints and N are scaled by their lcm P, the
    values by theirs, Dv, and scale = P * Dv; on each piece scale * F(j/N) is
    base + slope * j, emitted as one integer range."""
    bps = [b * stretch for b in f.breakpoints]
    P = math.lcm(N, *(b.denominator for b in bps))
    Dv = math.lcm(*(v.denominator for v in f.values))
    B = [b.numerator * (P // b.denominator) for b in bps]
    V = [v.numerator * (Dv // v.denominator) for v in f.values]
    step = P // N  # the query point j/N is j * step
    # (last j, base, slope): 0 up to the support, then one run per piece
    # (j step in (B_k, B_k+1]), then the whole integral
    runs = [(B[0] // step, 0, 0)]
    acc = 0
    for b1, b2, v in zip(B, B[1:], V):
        runs.append((b2 // step, acc - v * b1, v * step))
        acc += v * (b2 - b1)
    runs.append((hi, acc, 0))
    out: list[int] = []
    j = lo
    for end, base, slope in runs:
        stop = min(end, hi) + 1
        if stop > j:
            count, first = stop - j, base + slope * j
            out.extend(range(first, first + slope * count, slope) if slope else [first] * count)
            j = stop
    return out, P * Dv


def local_averages(
    f: StepFunction, N: int, tau_hat, stretch: bool = False
) -> AveragesSeq:
    """Sliding window averages of a verified family-F member.

    The window half-width is L = ceil((tau_hat/2) N^(2/3)).  With
    stretch=True f is dilated by N/(N-2L+1) first, which extends the
    correlation condition (3) from m <= N-2L+1 to all m in [N].  All three
    conditions are computed exactly and attached to the result; condition
    (3) takes _correlations' sparse second-difference path, since the
    averages are linear between the kinks of f's integral.  More than
    _SPAN_LIMIT window endpoints raise a ValueError before any allocation.
    """
    seq = _window_averages(f, N, tau_hat, stretch)
    return replace(seq, conditions=_check_conditions(seq, f))


def _window_averages(f: StepFunction, N: int, tau_hat, stretch: bool) -> AveragesSeq:
    """local_averages without the conditions report; f is still checked to
    be in family F."""
    N = int(N)
    tau_hat = Fraction(tau_hat)
    if N < 1 or tau_hat <= 0:
        raise ValueError("need N >= 1 and tau_hat > 0")
    if f.is_zero:
        raise ValueError("zero function has no averages")
    fmin, fargmin = autocorrelation_min(f, 0, 1)
    if fmin < 1:
        raise CertificateError(
            f"not in family F: autocorrelation at {fargmin} is {fmin} < 1"
        )
    L = window_radius(N, tau_hat)
    if 2 * L - 1 >= N:
        raise ValueError("N too small for L")
    lam = Fraction(N, N - 2 * L + 1) if stretch else _ONE
    sup = f.support()
    # a_i nonzero only if (i+L)/N > sup[0] lam and (i-L)/N < sup[1] lam
    i_min = math.floor(N * sup[0] * lam - L) + 1
    i_max = math.ceil(N * sup[1] * lam + L) - 1
    _check_span(i_max - i_min + 1 + 2 * L)
    cum, scale = _cumulative_at(f, lam, N, i_min - L, i_max + L)
    # a_i = (N/2L) (F((i+L)/N) - F((i-L)/N))
    nums = list(map(operator.sub, cum[2 * L :], cum[: len(cum) - 2 * L]))
    nums, den = _lowest_terms(nums, 2 * L * scale // N)
    return AveragesSeq(
        N=N, L=L, tau_hat=tau_hat, stretch=lam, radicand=f._scale_fraction(),
        start=i_min, nums=nums, den=den,
    )


def _check_conditions(seq: AveragesSeq, f: StepFunction) -> ConditionsReport:
    """The sum identity and conditions (2) and (3) of f's window averages,
    exactly; (3) is the least of _correlations(seq.nums, 1, m_hi)."""
    N, L, tau, lam = seq.N, seq.L, seq.tau_hat, seq.stretch
    nums, den = seq.nums, seq.den
    total = sum(nums)
    # windows tile R exactly 2L-fold, so sum a_i = N * integral(f_stretched)
    integral = N * f.integral().coeff * lam
    sum_identity_ok = total * integral.denominator == integral.numerator * den
    # condition (2): max a_i * tau_hat * N^(2/3) <= sum a_i, cubed exactly
    cond2_ok = (max(nums) * tau.numerator) ** 3 * N * N <= (total * tau.denominator) ** 3
    # condition (3): exact integer correlations over the contiguous support
    m_hi = max(N if lam != 1 else N - (2 * L - 1), 1)
    corr = _correlations(nums, 1, m_hi)
    best = min(range(m_hi), key=corr.__getitem__)
    cond3_min = Fraction(corr[best], den * den) * seq.radicand
    threshold = Fraction((2 * L - 1) * N, 2 * L)
    return ConditionsReport(
        sum_identity_ok=sum_identity_ok,
        cond2_ok=cond2_ok,
        cond3_ok=cond3_min >= threshold,
        cond3_min=cond3_min,
        cond3_argmin=best + 1,
        cond3_threshold=threshold,
        cond3_m_range=(1, m_hi),
        realized_epsilon=lam - 1,
    )


def _parse_ratio(text) -> tuple[int, int]:
    """(p, q) in lowest terms with p/q = parse_fraction(text)."""
    return parse_fraction(text).as_integer_ratio()


_RATIO_CHARS = re.compile(r"[0-9/,]+")


def _parse_ratios(texts) -> list[tuple[int, int]]:
    """[_parse_ratio(t) for t in texts], not always in lowest terms.  A list
    of ASCII "p/q" and "p" strings, checked once joined, is split and read
    with int; any other list, or one with a zero q, goes entry by entry
    through parse_fraction, so accepted inputs and errors stay its own."""
    try:
        joined = ",".join(texts)
    except TypeError:  # an entry that is not a string
        joined = ""
    if _RATIO_CHARS.fullmatch(joined):
        try:  # "", "1/", "/2", "1/2/3" and "1,2" fail int
            split = map(str.partition, texts, repeat("/"))
            pairs = [(int(p), int(q) if slash else 1) for p, slash, q in split]
        except ValueError:
            pairs = []
        if pairs and all(q for _, q in pairs):
            return pairs
    return list(map(_parse_ratio, texts))


def _fields(data, *keys) -> list:
    """data[k] for each key, refusing anything but a JSON object with a list at each."""
    if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in keys):
        raise ValueError(f"expected a JSON object with lists at the keys {', '.join(keys)}")
    return [data[k] for k in keys]


def _numerators(indices, ratios) -> tuple[int, list[int], int]:
    """(start, nums, den) of the entries p/q at indices, one (p, q) of ratios
    each, over the index hull of the nonzero ones."""
    nonzero = [i for i, (p, _) in zip(indices, ratios) if p]
    start, stop = min(nonzero, default=0), max(nonzero, default=-1) + 1
    _check_span(stop - start)
    den = math.lcm(*{q for p, q in ratios if p})  # over the distinct denominators
    nums = [0] * (stop - start)
    for i, (p, q) in zip(indices, ratios):
        if p:
            nums[i - start] = p * (den // q)
    return start, nums, den


@dataclass(frozen=True, init=False)
class ProbSeq(_Numerators):
    """Inclusion probabilities p_i, exact.

    Stored as (start, nums, den) like AveragesSeq: q_i = nums[i - start] / den
    and p_i = q_i * cbrt_n^(2/3), or q_i when cbrt_n is None.  The first
    argument is a mapping {i: rational} or the triple (start, nums, den).
    Comparisons against rationals cube both sides in integers, so every
    decision stays exact even when N is not a perfect cube.
    """

    start: int
    nums: tuple[int, ...]
    den: int
    cbrt_n: int | None

    def __init__(self, coeffs, cbrt_n: int | None = None):
        if isinstance(coeffs, Mapping):
            ratios = [Fraction(c).as_integer_ratio() for c in coeffs.values()]
            coeffs = _numerators(list(map(int, coeffs)), ratios)
        start, nums, den = coeffs
        if cbrt_n is not None:
            cbrt_n = int(cbrt_n)
            c = _ceil_cbrt_ratio(cbrt_n, 1)
            if c**3 == cbrt_n:  # fold n^(2/3) = c^2 into the coefficients
                nums, cbrt_n = [n * c * c for n in nums], None
        nums, den = _lowest_terms(nums, den)
        for name, value in zip(("start", "nums", "den", "cbrt_n"), (start, nums, den, cbrt_n)):
            object.__setattr__(self, name, value)

    def sum_coeff(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)

    @cached_property
    def _in_range(self) -> bool:
        mx, n = max(self.nums, default=0), self.cbrt_n
        in_unit = mx <= self.den if n is None else mx**3 * n * n <= self.den**3
        return in_unit and min(self.nums, default=0) >= 0

    def in_unit_range(self) -> bool:
        """Exact check that every p_i lies in [0, 1]."""
        return self._in_range

    @cached_property
    def screen(self) -> np.ndarray:
        """float(q_i) * float(cbrt_n) ** (2/3) over the support; n / den is
        correctly rounded, so it is the same float as float(q_i)."""
        den = self.den
        pf = np.array([n / den for n in self.nums if n], dtype=float)
        if self.cbrt_n is not None:
            pf *= float(self.cbrt_n) ** (2.0 / 3.0)
        return pf

    def less_than_p(self, i: int, u: Fraction) -> bool:
        """Exact decision u < p_i for a nonnegative rational u."""
        u = Fraction(u)
        if u < 0:
            return True
        j = i - self.start
        n = self.nums[j] if 0 <= j < len(self.nums) else 0
        lhs, rhs = u.numerator * self.den, n * u.denominator
        if self.cbrt_n is None:
            return lhs < rhs
        return lhs**3 < rhs**3 * self.cbrt_n**2

    def to_json(self) -> dict:
        return {
            "support": list(self.support),
            "coeffs": self._json_coeffs(),
            "cbrt_scale_n": self.cbrt_n,
        }

    @classmethod
    def from_json(cls, data) -> "ProbSeq":
        """Inverse of to_json.  support and coeffs must pair up one to one,
        with no index repeated; the coefficients are read by _parse_ratios."""
        support, coeffs = _fields(data, "support", "coeffs")
        if len(support) != len(coeffs):
            raise ValueError(f"{len(support)} support indices for {len(coeffs)} coeffs")
        if set(map(type, support)) - {int}:  # [1], null, 1.9, "2" or true
            raise ValueError("support indices must be integers")
        ratios = _parse_ratios(coeffs)
        if len(set(support)) != len(support):
            raise ValueError("support repeats an index")
        cbrt_n = data.get("cbrt_scale_n")
        if cbrt_n is not None and type(cbrt_n) is not int:  # [1], 8.7, "8" or true
            raise ValueError("cbrt_scale_n must be null or an integer")
        return cls(_numerators(support, ratios), cbrt_n)


def averages_to_probs(a: AveragesSeq) -> ProbSeq:
    """p_i = tau_hat N^(2/3) a_i / sum(a); exact, with N^(2/3) symbolic.

    The sqrt radicand and den cancel in the ratio, so the coefficients are
    nums * tau_hat.numerator over tau_hat.denominator * sum(nums).  Sum of
    p_i equals tau_hat N^(2/3) identically; the p_i <= 1 requirement is
    exactly condition (2) and is re-checked here.
    """
    total = sum(a.nums)
    if total <= 0:
        raise ValueError("averages sum to zero")
    tau = a.tau_hat
    p, q = tau.numerator, tau.denominator  # Fraction properties: read once, not per entry
    probs = ProbSeq((a.start, [n * p for n in a.nums], q * total), a.N)
    if not probs.in_unit_range():
        raise ValueError("condition (2) violated; averages not admissible")
    # normalization is algebraic; keep a defensive exact check (a cube N
    # had its scale folded into the coefficients)
    fold = 1 if probs.cbrt_n else _ceil_cbrt_ratio(a.N, 1) ** 2
    assert probs.sum_coeff() == tau * fold, "normalization lost"
    return probs


def prob_correlation_minimum(probs: ProbSeq, m_lo: int, m_hi: int) -> tuple[Fraction, int]:
    """Exact min over m in [m_lo, m_hi] of sum_i q_i q_{i+m} (coefficients).

    For a cube-root-scaled sequence the actual correlation of probabilities
    is the returned coefficient times n^(4/3); lower-bound checks against
    rho * n^(1/3) therefore reduce to coefficient * n >= rho.
    """
    if m_lo < 1 or m_lo > m_hi:
        raise ValueError("need 1 <= m_lo <= m_hi")
    if not probs.nums:
        return _ZERO, m_lo
    corr = _correlations(probs.nums, m_lo, m_hi)
    best = min(range(len(corr)), key=corr.__getitem__)
    return Fraction(corr[best], probs.den**2), m_lo + best


# ---------------------------------------------------------------------------
# Torus step functions


@dataclass(frozen=True)
class TorusStepFunction(_SqrtScale):
    """Constant on each grid cell of (R/Z)^d with pitch 1/n_j per axis.

    Cell at residue vector v has value values[v] * sqrt(scale_sqrt); missing
    cells are zero.  Cells have volume 1/|G|.
    """

    group: GroupSpec
    values: dict
    scale_sqrt: Fraction | None = None

    def __post_init__(self):
        vals = {}
        for vec, val in self.values.items():
            val = Fraction(val)
            if val < 0:
                raise ValueError("values must be nonnegative")
            if val != 0:
                vals[self.group.reduce(vec)] = val
        root, scale = self._fold(self.scale_sqrt)
        if root != 1:
            vals = {k: v * root for k, v in vals.items()}
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "scale_sqrt", scale)

    def l1_norm(self) -> SqrtScaled:
        total = Fraction(sum(self.values.values()))
        return SqrtScaled(total / self.group.order, self._scale_fraction())

    def to_json(self) -> dict:
        keys = sorted(self.values)
        return {
            "invariant_factors": list(self.group.factors),
            "elements": [list(k) for k in keys],
            "cell_values": [format_fraction(self.values[k]) for k in keys],
            "scale_sqrt": self._scale_json(),
        }


def group_set_to_torus(A: GroupSubset, g: int) -> TorusStepFunction:
    """Indicator cells at height sqrt(|G|/g) for a verified group certificate."""
    _require_certificate(A, g, name="A")
    vals = {vec: _ONE for vec in A.elements}
    return TorusStepFunction(A.group, vals, Fraction(A.group.order, g))


def torus_autocorrelation(h: TorusStepFunction, x) -> Fraction:
    """Exact grid-offset autocorrelation: cells translate onto cells."""
    vec = h.group.reduce(x)
    total = _ZERO
    for cell, val in h.values.items():
        shifted = tuple((a + b) % n for a, b, n in zip(cell, vec, h.group.factors))
        other = h.values.get(shifted)
        if other is not None:
            total += val * other
    return total * h._scale_fraction() / h.group.order


def torus_autocorrelation_min(h: TorusStepFunction) -> tuple[Fraction, tuple[int, ...]]:
    """Exact global minimum over the torus, at its first grid offset.

    On each cell of offsets the autocorrelation is multilinear in the offset
    coordinates, so the global extremes are attained at grid offsets.  With
    the values as integer numerators over one denominator D, the value at
    every grid offset is the weighted difference count of the cells, over
    D^2 and scaled, so one _group_counts call gives all |G| of them.
    """
    spec = h.group
    if not h.values:
        return _ZERO, spec.unflatten(0)
    den = math.lcm(*(v.denominator for v in h.values.values()))
    nums = [v.numerator * (den // v.denominator) for v in h.values.values()]
    counts = _group_counts(_flat(spec, list(h.values)), spec, "difference", nums)
    idx = int(counts.argmin())
    best = Fraction(int(counts[idx]), den * den) * h._scale_fraction() / spec.order
    best_vec = spec.unflatten(idx)
    if best >= 1 and h.l1_norm() < 1:
        raise AssertionError("autocorrelation >= 1 forces L1 >= 1")
    return best, best_vec
