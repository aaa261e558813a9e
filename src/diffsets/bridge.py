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
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .core_sets import (
    CertificateError,
    GroupSpec,
    GroupSubset,
    IntSet,
    _convolve,
    _group_counts,
    format_fraction,
    parse_fraction,
    verify_certificate,
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


def _is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class SqrtScaled:
    """Exact nonnegative value coeff * sqrt(radicand), both rational."""

    coeff: Fraction
    radicand: Fraction = _ONE

    def __post_init__(self):
        c, r = Fraction(self.coeff), Fraction(self.radicand)
        if c < 0 or r <= 0:
            raise ValueError("needs coeff >= 0 and radicand > 0")
        # fold perfect squares into the coefficient
        if _is_square(r.numerator) and _is_square(r.denominator):
            c *= Fraction(math.isqrt(r.numerator), math.isqrt(r.denominator))
            r = _ONE
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "radicand", r)

    def squared(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __float__(self) -> float:
        return float(self.coeff) * math.sqrt(float(self.radicand))

    def _square_of(self, other) -> Fraction:
        if isinstance(other, SqrtScaled):
            return other.squared()
        q = Fraction(other)
        if q < 0:
            raise ValueError("comparison against negative value")
        return q * q

    def __eq__(self, other) -> bool:
        try:
            return self.squared() == self._square_of(other)
        except ValueError:
            return False  # negative rational can never equal a nonneg value

    def __lt__(self, other) -> bool:
        return self.squared() < self._square_of(other)

    def __le__(self, other) -> bool:
        return self.squared() <= self._square_of(other)

    def __ge__(self, other) -> bool:
        if isinstance(other, SqrtScaled):
            return self.squared() >= other.squared()
        if Fraction(other) < 0:
            return True
        return self.squared() >= self._square_of(other)

    def __gt__(self, other) -> bool:
        if isinstance(other, SqrtScaled):
            return self.squared() > other.squared()
        if Fraction(other) < 0:
            return True
        return self.squared() > self._square_of(other)

    def __hash__(self):
        return hash(("SqrtScaled", self.squared()))

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
class StepFunction:
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
        scale = self.scale_sqrt
        if scale is not None:
            scale = Fraction(scale)
            if scale <= 0:
                raise ValueError("scale radicand must be positive")
            if _is_square(scale.numerator) and _is_square(scale.denominator):
                root = Fraction(math.isqrt(scale.numerator), math.isqrt(scale.denominator))
                vals = tuple(v * root for v in vals)
                scale = None
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

    def _scale_fraction(self) -> Fraction:
        return _ONE if self.scale_sqrt is None else self.scale_sqrt

    def integral(self) -> SqrtScaled:
        total = sum(
            v * (b2 - b1)
            for v, b1, b2 in zip(self.values, self.breakpoints, self.breakpoints[1:])
        )
        return SqrtScaled(Fraction(total), self._scale_fraction())

    def pieces(self):
        return list(zip(self.breakpoints, self.breakpoints[1:], self.values))

    def to_json(self) -> dict:
        scale = None
        if self.scale_sqrt is not None:
            scale = {
                "num": self.scale_sqrt.numerator,
                "den": self.scale_sqrt.denominator,
            }
        return {
            "breakpoints": [format_fraction(b) for b in self.breakpoints],
            "values": [format_fraction(v) for v in self.values],
            "scale_sqrt": scale,
        }

    @classmethod
    def from_json(cls, data) -> "StepFunction":
        scale = data.get("scale_sqrt")
        radicand = None
        if scale is not None:
            radicand = Fraction(int(scale["num"]), int(scale["den"]))
        return cls(
            tuple(parse_fraction(b) for b in data["breakpoints"]),
            tuple(parse_fraction(v) for v in data["values"]),
            radicand,
        )


def set_to_step(A: IntSet, g: int, N: int) -> StepFunction:
    """Blocks [a/N, (a+1)/N) at height sqrt(N/g) for a verified certificate."""
    v = verify_certificate(A, g=g, N=N, mode="difference")
    if not v.passed:
        raise CertificateError(
            f"not a {g}-difference set for [{N}]: shift {v.witness} has count "
            f"{v.achieved_g}",
            v,
        )
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
    zero).  G's first minimiser is lo or a kink; one ascending sweep of
    s0 = sum w_k and s1 = sum k w_k gives G = k s0 - s1 at each kink.
    """
    bps = f.breakpoints
    if len(bps) ** 2 > _PAIR_LIMIT:
        raise ValueError(f"{len(bps)} breakpoints: over {_PAIR_LIMIT} pairs for the kink scan")
    jumps = [f.values[0], *(v - u for u, v in zip(f.values, f.values[1:])), -f.values[-1]]
    pitch = math.lcm(*(b.denominator for b in bps))
    den = math.lcm(*(d.denominator for d in jumps))
    B = [int(b * pitch) for b in bps]
    J = [int(d * den) for d in jumps]
    weight: dict[int, int] = {}
    for bi, ji in zip(B if sums else [-b for b in B], J):
        for bj, jj in zip(B, J):
            k = bi + bj
            weight[k] = weight.get(k, 0) - ji * jj
    kinks = sorted(weight)
    start = bisect_right(kinks, math.floor(lo * pitch))
    stop = bisect_left(kinks, math.ceil(hi * pitch))
    s0 = sum(weight[k] for k in kinks[:start])
    s1 = sum(k * weight[k] for k in kinks[:start])
    best, arg = lo * pitch * s0 - s1, lo
    low = low_k = None
    for k in kinks[start:stop]:
        g = k * s0 - s1
        if low is None or g < low:
            low, low_k = g, k
        s0 += weight[k]
        s1 += k * weight[k]
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


def _correlations(coeffs: dict, m_lo: int, m_hi: int) -> tuple[list[int], int]:
    """den^2 * sum_i c_i c_{i+m} for m = m_lo..m_hi, and den, exactly.

    den is the least common denominator of the nonnegative rationals c; the
    integers c * den over the support's hull are convolved with their own
    reverse by core_sets._convolve.  Shifts past the hull correlate to 0.
    """
    support = sorted(coeffs)
    dense = [coeffs.get(i, _ZERO) for i in range(support[0], support[-1] + 1)]
    den = math.lcm(*(c.denominator for c in dense))
    ints = [c.numerator * (den // c.denominator) for c in dense]
    n = len(ints)
    z = _convolve(ints, ints[::-1])
    return [int(z[n - 1 + m]) if m < n else 0 for m in range(m_lo, m_hi + 1)], den


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
class AveragesSeq:
    """Window averages a_i = (N/2L) * integral of f over [(i-L)/N, (i+L)/N].

    Coefficients are rational; a common sqrt radicand (from the source step
    function) is carried separately.  stretch is the dilation factor applied
    to f before averaging (1 when unstretched).
    """

    N: int
    L: int
    tau_hat: Fraction
    stretch: Fraction
    radicand: Fraction
    coeffs: dict = field(compare=False)
    conditions: ConditionsReport | None = field(default=None, compare=False)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def sum_value(self) -> SqrtScaled:
        return SqrtScaled(Fraction(sum(self.coeffs.values())), self.radicand)

    def to_json(self) -> dict:
        keys = sorted(self.coeffs)
        return {
            "N": self.N,
            "L": self.L,
            "tau_hat": format_fraction(self.tau_hat),
            "stretch": format_fraction(self.stretch),
            "radicand": format_fraction(self.radicand),
            "support": keys,
            "coeffs": [format_fraction(self.coeffs[k]) for k in keys],
            "conditions": None if self.conditions is None else self.conditions.to_json(),
        }


def _cumulative_at(f: StepFunction, stretch: Fraction, xs: list[Fraction]) -> list[Fraction]:
    """F(x) = integral of the stretched f up to x, at sorted query points."""
    pieces = [(b1 * stretch, b2 * stretch, v) for b1, b2, v in f.pieces()]
    out = []
    acc = _ZERO
    pi = 0
    consumed = _ZERO  # integral of pieces fully before current x
    for x in xs:
        while pi < len(pieces) and pieces[pi][1] <= x:
            b1, b2, v = pieces[pi]
            consumed += v * (b2 - b1)
            pi += 1
        acc = consumed
        if pi < len(pieces):
            b1, b2, v = pieces[pi]
            if x > b1:
                acc += v * (x - b1)
        out.append(acc)
    return out


def local_averages(
    f: StepFunction, N: int, tau_hat, stretch: bool = False
) -> AveragesSeq:
    """Sliding window averages of a verified family-F member.

    The window half-width is L = ceil((tau_hat/2) N^(2/3)).  With
    stretch=True f is dilated by N/(N-2L+1) first, which extends the
    correlation condition (3) from m <= N-2L+1 to all m in [N].  All three
    conditions are computed exactly and attached to the result.
    """
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
    lo_x, hi_x = sup[0] * lam, sup[1] * lam
    # a_i nonzero iff (i+L)/N > lo_x and (i-L)/N < hi_x
    i_min = math.floor(N * lo_x - L) + 1
    i_max = math.ceil(N * hi_x + L) - 1
    xs = [Fraction(j, N) for j in range(i_min - L, i_max + L + 1)]
    cum = _cumulative_at(f, lam, xs)
    half = Fraction(N, 2 * L)
    coeffs = {}
    offset = -(i_min - L)
    for i in range(i_min, i_max + 1):
        hi_idx = i + L + offset
        lo_idx = i - L + offset
        c = half * (cum[hi_idx] - cum[lo_idx])
        if c != 0:
            coeffs[i] = c
    radicand = f._scale_fraction()
    seq = AveragesSeq(
        N=N, L=L, tau_hat=tau_hat, stretch=lam, radicand=radicand, coeffs=coeffs
    )
    conditions = _check_conditions(seq, f, lam)
    return AveragesSeq(
        N=N,
        L=L,
        tau_hat=tau_hat,
        stretch=lam,
        radicand=radicand,
        coeffs=coeffs,
        conditions=conditions,
    )


def _check_conditions(seq: AveragesSeq, f: StepFunction, lam: Fraction) -> ConditionsReport:
    N, L = seq.N, seq.L
    total = Fraction(sum(seq.coeffs.values()))
    # windows tile R exactly 2L-fold, so sum a_i = N * integral(f_stretched)
    integral_coeff = f.integral().coeff * lam
    sum_identity_ok = total == N * integral_coeff
    # condition (2): max a_i * tau_hat * N^(2/3) <= sum a_i, cubed exactly
    max_c = max(seq.coeffs.values())
    cond2_ok = (max_c * seq.tau_hat) ** 3 * N * N <= total**3
    # condition (3): exact integer correlations over the contiguous support
    m_hi = N if seq.stretch != 1 else N - (2 * L - 1)
    m_hi = max(m_hi, 1)
    corr, den = _correlations(seq.coeffs, 1, m_hi)
    rad = seq.radicand
    best = min(range(m_hi), key=corr.__getitem__)
    best_m = best + 1
    cond3_min = Fraction(corr[best], den * den) * rad
    threshold = Fraction((2 * L - 1) * N, 2 * L)
    # compare corr[m]*rad/den^2 >= threshold without per-m Fractions
    lhs_scale = rad.numerator
    rhs = threshold * den * den * rad.denominator
    cond3_ok = all(c * lhs_scale >= rhs for c in corr)
    return ConditionsReport(
        sum_identity_ok=sum_identity_ok,
        cond2_ok=cond2_ok,
        cond3_ok=cond3_ok,
        cond3_min=cond3_min,
        cond3_argmin=best_m,
        cond3_threshold=threshold,
        cond3_m_range=(1, m_hi),
        realized_epsilon=lam - 1,
    )


@dataclass(frozen=True)
class ProbSeq:
    """Inclusion probabilities p_i, exact.

    Entries are p_i = coeffs[i] when cbrt_n is None, otherwise
    coeffs[i] * cbrt_n^(2/3) (the scale the averages pipeline produces).
    Comparisons against rationals cube both sides, so membership, bounds and
    sampling decisions stay exact even when N is not a perfect cube.
    """

    coeffs: dict = field(compare=False)
    cbrt_n: int | None = None

    def __post_init__(self):
        if self.cbrt_n is not None:
            n = int(self.cbrt_n)
            r = round(n ** (1.0 / 3.0))
            for c in (r - 1, r, r + 1):
                if c >= 0 and c**3 == n:
                    # perfect cube: fold n^(2/3) = c^2 into the coefficients
                    folded = {i: q * c * c for i, q in self.coeffs.items()}
                    object.__setattr__(self, "coeffs", folded)
                    object.__setattr__(self, "cbrt_n", None)
                    return
            object.__setattr__(self, "cbrt_n", n)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def sum_coeff(self) -> Fraction:
        return Fraction(sum(self.coeffs.values()))

    def p_float(self, i: int) -> float:
        q = self.coeffs.get(i, _ZERO)
        if self.cbrt_n is None:
            return float(q)
        return float(q) * float(self.cbrt_n) ** (2.0 / 3.0)

    def in_unit_range(self) -> bool:
        """Exact check that every p_i lies in [0, 1]."""
        if not self.coeffs:
            return True
        qs = self.coeffs.values()
        if min(qs) < 0:
            return False
        mx = max(qs)
        if self.cbrt_n is None:
            return mx <= 1
        return mx**3 * self.cbrt_n**2 <= 1

    def less_than_p(self, i: int, u: Fraction) -> bool:
        """Exact decision u < p_i for a nonnegative rational u."""
        q = self.coeffs.get(i, _ZERO)
        if u < 0:
            return True
        if self.cbrt_n is None:
            return u < q
        if q <= 0:
            return False
        return u**3 < q**3 * self.cbrt_n**2

    def expected_size_float(self) -> float:
        s = float(self.sum_coeff())
        if self.cbrt_n is not None:
            s *= float(self.cbrt_n) ** (2.0 / 3.0)
        return s

    def to_json(self) -> dict:
        keys = sorted(self.coeffs)
        return {
            "support": keys,
            "coeffs": [format_fraction(self.coeffs[k]) for k in keys],
            "cbrt_scale_n": self.cbrt_n,
        }

    @classmethod
    def from_json(cls, data) -> "ProbSeq":
        coeffs = {
            int(i): parse_fraction(c)
            for i, c in zip(data["support"], data["coeffs"])
        }
        return cls(coeffs, data.get("cbrt_scale_n"))


def averages_to_probs(a: AveragesSeq) -> ProbSeq:
    """p_i = tau_hat N^(2/3) a_i / sum(a); exact, with N^(2/3) symbolic.

    The sqrt radicand cancels in the ratio, so coefficients are rational.
    Sum of p_i equals tau_hat N^(2/3) identically; the p_i <= 1 requirement
    is exactly condition (2) and is re-checked here.
    """
    total = Fraction(sum(a.coeffs.values()))
    if total <= 0:
        raise ValueError("averages sum to zero")
    coeffs = {i: a.tau_hat * c / total for i, c in a.coeffs.items()}
    probs = ProbSeq(coeffs, cbrt_n=a.N)
    if not probs.in_unit_range():
        raise ValueError("condition (2) violated; averages not admissible")
    # normalization is algebraic; keep a defensive exact check
    if probs.cbrt_n is not None:
        assert probs.sum_coeff() == a.tau_hat, "normalization lost"
    else:
        c = round(a.N ** (1.0 / 3.0))  # N was a perfect cube, scale folded
        assert probs.sum_coeff() == a.tau_hat * c * c, "normalization lost"
    return probs


def prob_correlation_minimum(probs: ProbSeq, m_lo: int, m_hi: int) -> tuple[Fraction, int]:
    """Exact min over m in [m_lo, m_hi] of sum_i q_i q_{i+m} (coefficients).

    For a cube-root-scaled sequence the actual correlation of probabilities
    is the returned coefficient times n^(4/3); lower-bound checks against
    rho * n^(1/3) therefore reduce to coefficient * n >= rho.
    """
    if m_lo < 1 or m_lo > m_hi:
        raise ValueError("need 1 <= m_lo <= m_hi")
    if not probs.coeffs:
        return _ZERO, m_lo
    corr, den = _correlations(probs.coeffs, m_lo, m_hi)
    best = min(range(len(corr)), key=corr.__getitem__)
    return Fraction(corr[best], den * den), m_lo + best


# ---------------------------------------------------------------------------
# Torus step functions


@dataclass(frozen=True)
class TorusStepFunction:
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
        scale = self.scale_sqrt
        if scale is not None:
            scale = Fraction(scale)
            if scale <= 0:
                raise ValueError("scale radicand must be positive")
            if _is_square(scale.numerator) and _is_square(scale.denominator):
                root = Fraction(math.isqrt(scale.numerator), math.isqrt(scale.denominator))
                vals = {k: v * root for k, v in vals.items()}
                scale = None
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "scale_sqrt", scale)

    def _scale_fraction(self) -> Fraction:
        return _ONE if self.scale_sqrt is None else self.scale_sqrt

    def l1_norm(self) -> SqrtScaled:
        total = Fraction(sum(self.values.values()))
        return SqrtScaled(total / self.group.order, self._scale_fraction())

    def to_json(self) -> dict:
        keys = sorted(self.values)
        scale = None
        if self.scale_sqrt is not None:
            scale = {
                "num": self.scale_sqrt.numerator,
                "den": self.scale_sqrt.denominator,
            }
        return {
            "invariant_factors": list(self.group.factors),
            "elements": [list(k) for k in keys],
            "cell_values": [format_fraction(self.values[k]) for k in keys],
            "scale_sqrt": scale,
        }


def group_set_to_torus(A: GroupSubset, g: int) -> TorusStepFunction:
    """Indicator cells at height sqrt(|G|/g) for a verified group certificate."""
    v = verify_certificate(A, g=g, mode="difference")
    if not v.passed:
        raise CertificateError(
            f"not a {g}-difference set for the group: shift {v.witness} has "
            f"count {v.achieved_g}",
            v,
        )
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
    """Exact global minimum over the torus.

    On each cell of offsets the autocorrelation is multilinear in the offset
    coordinates, so the global extremes are attained at grid offsets; the
    scan over all |G| grid points is exact.
    """
    spec = h.group
    distinct = set(h.values.values())
    if len(distinct) == 1:
        # indicator-type: counts of the support do the work
        val = next(iter(distinct))
        sub = GroupSubset.of(spec, h.values.keys())
        counts = _group_counts(sub, "difference")
        idx = min(range(spec.order), key=lambda i: counts[i])
        best = Fraction(int(counts[idx])) * val * val * h._scale_fraction() / spec.order
        best_vec = spec.unflatten(idx)
    else:
        best, best_vec = None, None
        for vec in spec.elements():
            c = torus_autocorrelation(h, vec)
            if best is None or c < best:
                best, best_vec = c, vec
    if best >= 1 and h.l1_norm() < 1:
        raise AssertionError("autocorrelation >= 1 forces L1 >= 1")
    return best, best_vec
