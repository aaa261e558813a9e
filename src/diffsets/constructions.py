"""Explicit and randomized constructions of g-difference sets.

Explicit side: unions of parabolas over (Z/pZ)^2 with a character-sum score
that converts into a per-instance lower bound on every difference count, a
lift from (Z/pZ)^2 into a cyclic group, and an interval blow-up that
multiplies certified parameters.  A union is verified exhaustively when
(Z/pZ)^2 has order at most _EXHAUSTIVE_ORDER (10^6), and on a seeded sample
of targets above it.  A lift up to the same order is recounted from the
plane's unfolded difference box (_lift_counts), with no product of its own,
and judged by core_sets._require_certificate, the one check that turns a
failed difference claim into a CertificateError; blow_up checks both of its
inputs the same way.

Randomized side: uniform inclusion in a finite abelian group and weighted
inclusion along an integer sequence, with Monte Carlo validation that checks
concentration of difference counts against explicit Chernoff tail bounds.
The group probe count is split into parts of independent terms by its
coordinate along the probe axis, mod 2 or mod 3, with the part sizes in
closed form, so no set-up work grows with |G|.
All inclusion decisions compare a sampled uniform against an exact rational
threshold, and trials run one after another, each from its own seed, so a
run is reproducible bit for bit from its master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np
from numpy.random import Generator, Philox

from .core_sets import (
    CertificateError,
    GroupSpec,
    GroupSubset,
    IntSet,
    _bound,
    _count_at,
    _difference_box,
    _difference_window,
    _enumerable,
    _flat,
    _fold,
    _group_counts,
    _require_certificate,
    _residues,
    _total,
    format_fraction,
    is_prime,
)

if TYPE_CHECKING:  # ProbSeq is named only in annotations
    from .bridge import ProbSeq

__all__ = [
    "is_prime",
    "legendre_symbol",
    "parabola_set",
    "PairRepCount",
    "pair_rep_count",
    "shift_score",
    "ParabolaUnion",
    "best_shift_union",
    "lift_to_cyclic",
    "CyclicPipelineReport",
    "cyclic_pipeline",
    "blow_up",
    "RandomModel",
    "random_group_subset",
    "sequence_random_set",
    "chernoff_bound",
    "MonteCarloReport",
    "monte_carlo_validate",
]

# Groups of at most this order are verified exhaustively, by one count over
# every element; a larger plane is verified on a seeded sample of targets,
# and a larger lift is not recounted.
_EXHAUSTIVE_ORDER = 10**6


def legendre_symbol(a: int, p: int) -> int:
    """(a/p) in {-1, 0, 1} for an odd prime p, via Euler's criterion."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _require_odd_prime(p: int) -> int:
    p = int(p)
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    return p


def parabola_set(p: int, u: int) -> GroupSubset:
    """{(x, x^2 / u) : x in Z/pZ} inside (Z/pZ)^2, for u nonzero mod p."""
    p = _require_odd_prime(p)
    u %= p
    if u == 0:
        raise ValueError("u must be nonzero mod p")
    return _union_of_parabolas(p, u - 1, 1)


@dataclass(frozen=True)
class PairRepCount:
    """Closed-form count of solutions to P_u - Q_v = target in (Z/pZ)^2."""

    p: int
    u: int
    v: int
    target: tuple[int, int]
    count: int
    discriminant: int | None  # None on the diagonal u == v
    legendre: int | None
    method: str  # "discriminant" | "diagonal"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "u": self.u,
            "v": self.v,
            "target": list(self.target),
            "count": self.count,
            "discriminant": self.discriminant,
            "legendre": self.legendre,
            "method": self.method,
        }


def pair_rep_count(p: int, u: int, v: int, target) -> PairRepCount:
    """Count pairs (s, t) with s on parabola u, t on parabola v, s - t = target.

    Off the diagonal the count is 1 + ((4uv(a^2 - b(u-v)))/p); on the
    diagonal it collapses to a linear equation: p or 0 when a = 0, else 1.
    """
    p = _require_odd_prime(p)
    u %= p
    v %= p
    if u == 0 or v == 0:
        raise ValueError("u, v must be nonzero mod p")
    a, b = (int(x) % p for x in target)
    if u != v:
        disc = 4 * u * v * (a * a - b * (u - v)) % p
        leg = legendre_symbol(disc, p) if disc else 0
        return PairRepCount(
            p, u, v, (a, b), 1 + leg, disc, leg if disc else 0, "discriminant"
        )
    if a == 0:
        count = p if b % p == 0 else 0
    else:
        count = 1
    return PairRepCount(p, u, v, (a, b), count, None, None, "diagonal")


def shift_score(p: int, k: int, t: int) -> int:
    """S_t = sum over offsets l of |sum_{i-j=l} ((t+i)(t+j)/p)|, 1<=i,j<=k.

    Multiplicativity of the Legendre symbol reduces the double sum to
    products of the k values ((t+i)/p), which are all nonzero because the
    admissible range keeps t+i in [1, p-1].
    """
    p = _require_odd_prime(p)
    if not 1 <= k <= p - 1:
        raise ValueError("need 1 <= k <= p-1")
    if not 0 <= t <= p - 1 - k:
        raise ValueError("shift t out of admissible range")
    chi = [legendre_symbol(t + i, p) for i in range(1, k + 1)]
    total = 0
    for ell in range(-(k - 1), k):
        s = sum(chi[i] * chi[i - ell] for i in range(max(0, ell), min(k, k + ell)))
        total += abs(s)
    return total


@dataclass(frozen=True)
class ParabolaUnion:
    """Union of k shifted parabolas with its score and certified counts."""

    p: int
    k: int
    t: int
    subset: GroupSubset
    score: int
    guaranteed_g: int  # k^2 - 2(k-1) - ceil(2 k^(3/2)); may be vacuous
    vacuous: bool
    verified_g: int
    verified_mode: str  # "exhaustive" | "sampled"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "t": self.t,
            "S_t": self.score,
            "guaranteed_g": self.guaranteed_g,
            "verified_g": self.verified_g,
            "elements": self.subset.to_json()["elements"],
        }


def best_shift_union(p: int, k: int, seed: int = 0) -> ParabolaUnion:
    """Union of parabolas u = t+1, ..., t+k at the best-scoring shift t.

    Scans every admissible shift, keeps the smallest t among minimal scores,
    then verifies difference counts: exhaustively when p^2 <=
    _EXHAUSTIVE_ORDER, else on a seeded sample of nonzero targets.  The
    per-instance lower bound min r >= k^2 - 2(k-1) - S_t always holds and is
    asserted on whatever was enumerated.
    """
    return _union_and_box(p, k, seed)[0]


def _union_and_box(p: int, k: int, seed: int) -> tuple[ParabolaUnion, np.ndarray | None]:
    """best_shift_union, and the union's unfolded difference box
    (core_sets._difference_box) when it was verified exhaustively, else None."""
    p = _require_odd_prime(p)
    if not 1 <= k <= p - 1:
        raise ValueError("need 1 <= k <= p-1")
    best_t, best_score = _best_shift(p, k)
    subset = _union_of_parabolas(p, best_t, k)
    assert subset.size == k * (p - 1) + 1, "parabolas must meet only at the origin"
    guaranteed = k * k - 2 * (k - 1) - math.isqrt(4 * k**3)
    vacuous = guaranteed < 1 or best_score * best_score >= 4 * k**3
    instance_floor = k * k - 2 * (k - 1) - best_score
    spec = subset.group
    box = None
    if spec.order <= _EXHAUSTIVE_ORDER:
        # r(0) = |A| is the largest count: the minimum is that of a nonzero shift
        counts, box = _plane_counts(subset)
        verified_g = int(counts.min())
        mode = "exhaustive"
    else:
        rng = Generator(Philox(key=seed & ((1 << 128) - 1)))
        n_targets = min(spec.order - 1, max(128, _EXHAUSTIVE_ORDER // max(1, subset.size)))
        idx = rng.choice(spec.order - 1, size=n_targets, replace=False) + 1
        x = _residues(spec, subset.flat)
        # the count at t: elements whose shift by -t lies in the union
        verified_g = min(_count_at(subset.flat, _flat(spec, x - t)) for t in _residues(spec, idx))
        mode = "sampled"
    assert verified_g >= instance_floor, "per-instance character bound violated"
    union = ParabolaUnion(
        p=p,
        k=k,
        t=best_t,
        subset=subset,
        score=best_score,
        guaranteed_g=guaranteed,
        vacuous=vacuous,
        verified_g=verified_g,
        verified_mode=mode,
    )
    return union, box


def _best_shift(p: int, k: int) -> tuple[int, int]:
    """(t, S_t) for the least t in [0, p - k) of least shift_score(p, k, t).

    With chi the Legendre symbols, S_t = |s_0| + 2 sum_{l >= 1} |s_l| where
    s_l = sum_{i=t+1}^{t+k-l} chi(i) chi(i + l): one prefix sum per offset l
    gives s_l at every shift at once.
    """
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[x * x % p] = 1
    chi[0] = 0
    shifts = p - k
    scores = np.zeros(shifts, dtype=np.int64)
    for ell in range(k):
        pre = np.concatenate(([0], np.cumsum(chi[1 : p - ell] * chi[1 + ell :])))
        scores += (1 if ell == 0 else 2) * np.abs(pre[k - ell : k - ell + shifts] - pre[:shifts])
    t = int(scores.argmin())
    return t, int(scores[t])


def _union_of_parabolas(p: int, t: int, k: int) -> GroupSubset:
    """The parabolas {(x, x^2 / u)} of (Z/pZ)^2 for u = t+1, ..., t+k."""
    x = np.arange(p, dtype=np.int64)
    uinv = np.array([pow(u, -1, p) for u in range(t + 1, t + k + 1)], dtype=np.int64)
    y = x * x % p * uinv[:, None] % p
    return GroupSubset(GroupSpec((p, p)), np.stack(np.broadcast_arrays(x, y), axis=-1).reshape(-1, 2))


def lift_to_cyclic(A: GroupSubset, s: int) -> GroupSubset:
    """Lift a g-difference subset of (Z/pZ)^2 to Z/(p^2 s)Z.

    The image {a + c p + b s p : (a,b) in A, 0 <= c < s} is a g(s-1)-difference
    set whenever A is a g-difference set; its size is |A| s exactly.  Its
    flat indices are the row-major indices of the digits (b, c, a) in
    _lift_layout(p, s).  A lift's difference counts (_lift_counts) are read
    from its own elements in that layout: a set holding every copy c of
    each of its (a, b) is counted from its plane's unfolded difference box,
    and any other set by the generic group count.
    """
    s = int(s)
    if s < 1:
        raise ValueError("s must be >= 1")
    factors = A.group.factors
    if len(factors) != 2 or factors[0] != factors[1]:
        raise ValueError("domain must be (Z/pZ)^2")
    p = factors[0]
    if not is_prime(p):
        raise ValueError("domain modulus must be prime")
    n = p * p * s
    if n >= 2**63:
        raise ValueError("modulus p^2 s must fit in int64")
    # a + c p + b s p <= (s p - 1) + (p - 1) s p = n - 1: already reduced
    a, b = _residues(A.group, A.flat).T
    sb, sc = _lift_layout(p, s)
    image = (a + b * sb)[:, None] + sc * np.arange(s, dtype=np.int64)
    out = GroupSubset(GroupSpec((n,)), image.reshape(-1, 1))
    assert out.size == A.size * s, "lift must be injective"
    return out


def _lift_layout(p: int, s: int) -> tuple[int, int]:
    """The strides (s p, p) of b and c in a lift's flat index a + c p + b s p
    of Z/(p^2 s), for the plane point (a, b) and its copy c: the row-major
    index of the digits (b, c, a), of radices (p, s, p)."""
    return s * p, p


def _plane_counts(A: GroupSubset) -> tuple[np.ndarray, np.ndarray | None]:
    """A's difference counts over its group, by flat index, and the unfolded
    box they were folded from (None where that box is over the limit and
    the counts are core_sets._group_counts')."""
    box = _difference_box(A.flat, A.group)
    if box is None:
        return _group_counts(A.flat, A.group, "difference"), None
    return _fold(box, A.group, "difference"), box


def _lift_counts(C: GroupSubset, A: GroupSubset, s: int, box=None) -> np.ndarray:
    """The difference counts of C, a subset of Z/(p^2 s) for A's plane
    (Z/p)^2, by flat index; box is A's unfolded difference box, if formed.

    C's flat indices are read as digits (b, c, a) (_lift_layout).  When each
    point of its projection P = {(a, b)} occurs with all s copies c, C is
    P's lift, and as (a, b, c) -> a + c p + b s p is injective,
    r_C(t) = sum L(da, db) (s - |dc|) over da + dc p + db s p = t mod p^2 s,
    with L P's unfolded difference box: box when P is A, else formed here
    (_scatter_lift).  Any other set of Z/(p^2 s), or a plane whose box is
    over the limit, takes core_sets._group_counts.
    """
    p = A.group.factors[0]
    if C.group.factors == (p * p * s,):
        _enumerable(C.group)
        sb, sc = _lift_layout(p, s)
        v = np.sort(C.flat % sc * p + C.flat // sb)  # each element's (a, b) as A's flat index a p + b
        # each (a, b) has at most s copies, so it has all s where v comes in runs of s
        if np.array_equal(v[::s], v[s - 1 :: s]):
            plane = v[::s]
            if box is None or not np.array_equal(plane, A.flat):
                box = _difference_box(plane, A.group)
            if box is not None:
                return _scatter_lift(box, p, s)
    return _group_counts(C.flat, C.group, "difference")


def _scatter_lift(box: np.ndarray, p: int, s: int) -> np.ndarray:
    """The counts over Z/(p^2 s), by residue, of the lift of a plane set
    whose unfolded difference box is box: L(da, db) = box[da + p - 1,
    db + p - 1] lands at da + dc p + db s p with weight s - |dc|.

    db matters only mod p (s p p = p^2 s), so the rows db and db + p are
    summed first, and row i holds db = i + 1 mod p.  With f = da + dc p + s p
    in [1, 2 s p - 1], the residue is f + s p i: slot (i, f) of a (p + 1) x
    s p table, or (i + 1, f - s p) past the row's end; row p wraps to row 0.
    """
    sp, width = s * p, 2 * p - 1
    rows = box[:, :p].T.copy()  # rows db + p - 1, columns da + p - 1
    rows[: p - 1] += box[:, p:].T
    out = np.zeros((p + 1, sp), dtype=np.int64)
    for dc in range(1 - s, s):
        f = p * (dc + s - 1) + 1  # f at da = 1 - p
        weighted = rows if abs(dc) == s - 1 else (s - abs(dc)) * rows
        cut = min(width, max(0, sp - f))  # the columns that stay in row i
        out[:p, f : f + cut] += weighted[:, :cut]
        if cut < width:
            at = max(0, f - sp)
            out[1:, at : at + width - cut] += weighted[:, cut:]
    out[0] += out[p]
    return out[:p].reshape(-1)


@dataclass(frozen=True)
class CyclicPipelineReport:
    """End-to-end parabola-union lift with verified certificates."""

    p: int
    k: int
    s: int
    union: ParabolaUnion
    lifted: GroupSubset
    plane_g: int
    cyclic_g: int  # plane_g * (s - 1)
    verified_cyclic_g: int
    recommended_k: int

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "s": self.s,
            "modulus": self.p * self.p * self.s,
            "size": self.lifted.size,
            "plane_g": self.plane_g,
            "cyclic_g": self.cyclic_g,
            "verified_cyclic_g": self.verified_cyclic_g,
            "recommended_k": self.recommended_k,
            "union": self.union.to_json(),
        }


def cyclic_pipeline(k: int, s: int, p: int, seed: int = 0) -> CyclicPipelineReport:
    """Best-shift parabola union in (Z/pZ)^2 lifted to Z/(p^2 s)Z.

    The plane certificate uses the verified count (the character-sum
    guarantee is vacuous at desk scales); the lift multiplies it by s-1.
    When the lift's order is at most _EXHAUSTIVE_ORDER, its claim goes
    through core_sets._require_certificate, whose recount is
    verified_cyclic_g; above it, verified_cyclic_g is 0.  The plane's
    unfolded difference box is formed once, by one product or its pairs,
    and gives both counts: the plane's folded, and the lift's as
    _lift_counts reads the lift from its own elements (a set that is no
    lift of the plane gets the generic recount).
    The asymptotic recipe suggests k = 4 s^2 parabolas.
    """
    s = int(s)
    if s < 2:
        raise ValueError("s must be >= 2 for a nonvacuous lifted certificate")
    union, box = _union_and_box(p, k, seed)
    plane_g = union.verified_g if union.verified_mode == "exhaustive" else max(
        union.guaranteed_g, 0
    )
    if plane_g < 1:
        raise CertificateError("no positive certified g for the plane union")
    lifted = lift_to_cyclic(union.subset, s)
    cyclic_g = plane_g * (s - 1)
    verified = 0
    if lifted.group.order <= _EXHAUSTIVE_ORDER:
        counts = _lift_counts(lifted, union.subset, s, box)
        verified = _require_certificate(lifted, cyclic_g, name="lift", counts=counts).achieved_g
    return CyclicPipelineReport(
        p=p,
        k=k,
        s=s,
        union=union,
        lifted=lifted,
        plane_g=plane_g,
        cyclic_g=cyclic_g,
        verified_cyclic_g=verified,
        recommended_k=4 * s * s,
    )


def blow_up(
    A: IntSet, g1: int | None, N: int, C: GroupSubset, g2: int | None
) -> tuple[IntSet, int, int]:
    """{q a + c : a in A, c in preimage of C in [1, q]} for cyclic C of order q.

    If A is a g1-difference set for [N] and C a g2-difference set for Z/qZ,
    the result is a g1 g2-difference set for [qN] of size |A| |C|.  Both
    input certificates are verified, once each, before composing; a g1 or
    g2 of None claims the achieved count, which must be at least 1.
    Returns (the blow-up, g1, g2).
    """
    if C.group.rank != 1:
        raise ValueError("C must live in a cyclic group")
    q = C.group.factors[0]
    v1, v2 = _require_certificate(A, g1, N, name="A"), _require_certificate(C, g2, name="C")
    if max(-q * int(A.array[0]), q * int(A.array[-1]) + q) >= 2**63:
        raise ValueError("blow-up entries must fit in int64")
    # the preimages in [1, q], ascending, so the outer sum comes out sorted
    lifts = np.sort(np.where(C.flat == 0, q, C.flat))
    out = IntSet((q * A.array[:, None] + lifts).ravel())
    assert out.size == A.size * C.size, "blow-up must be injective"
    return out, g1 or v1.achieved_g, g2 or v2.achieved_g


# ---------------------------------------------------------------------------
# Randomized constructions


def _uniforms(seed: int, count: int) -> np.ndarray:
    """Counter-based uniforms; same seed, same stream, any platform."""
    return Generator(Philox(key=int(seed) & ((1 << 128) - 1))).random(count)


@dataclass(frozen=True)
class RandomModel:
    """Specification of a random-set distribution plus a master seed."""

    kind: str  # "group-uniform" | "sequence-weighted"
    master_seed: int
    group: GroupSpec | None = None
    g: int | None = None
    probs: ProbSeq | None = None
    target_N: int | None = None  # shift range [1, N] checked per trial

    def __post_init__(self):
        if self.kind == "group-uniform":
            if self.group is None or self.g is None:
                raise ValueError("group-uniform model needs group and g")
            if not 1 <= self.g <= _enumerable(self.group):
                raise ValueError("need 1 <= g <= |G|")
        elif self.kind == "sequence-weighted":
            if self.probs is None or self.target_N is None or self.target_N < 1:
                raise ValueError("sequence-weighted model needs probs and a positive target_N")
            if not self.probs.in_unit_range():
                raise ValueError("probabilities must lie in [0, 1]")
        else:
            raise ValueError(f"unknown model kind: {self.kind}")

    def to_json(self) -> dict:
        out = {"kind": self.kind, "master_seed": self.master_seed}
        if self.kind == "group-uniform":
            out["group"] = list(self.group.factors)
            out["g"] = self.g
        else:
            out["probs"] = self.probs.to_json()
            out["target_N"] = self.target_N
        return out


def _group_draw(group: GroupSpec, g: int, seed: int) -> np.ndarray:
    """Ascending flat indices of an independent inclusion at rate sqrt(g/|G|).

    Uniform u is accepted iff u^2 < g/|G|; floats decide except within a
    tiny band around the threshold where exact rationals take over.
    """
    if not 1 <= g <= _enumerable(group):
        raise ValueError("need 1 <= g <= |G|")
    ratio = Fraction(g, group.order)
    u = _uniforms(seed, group.order)
    sq = u * u
    rf = float(ratio)
    take = sq < rf
    border = np.abs(sq - rf) < 1e-12
    for i in np.nonzero(border)[0]:
        take[i] = Fraction(float(u[i])) ** 2 < ratio
    return np.flatnonzero(take)


def random_group_subset(group: GroupSpec, g: int, seed: int) -> GroupSubset:
    """Independent inclusion with probability sqrt(g/|G|), decided exactly.

    The draw of _group_draw, the one the Monte Carlo trial with this seed
    makes, turned into residue vectors.
    """
    return GroupSubset(group, _residues(group, _group_draw(group, g, seed)))


def sequence_random_set(probs: ProbSeq, seed: int) -> IntSet:
    """Independent inclusion of index i with probability p_i, decided exactly.

    One uniform is drawn per index of probs.support, in ascending order, so
    a zero p_i draws none.  The float screen ProbSeq.screen decides every
    index whose uniform lies 1e-12 or more from p_i; the rest are decided by
    ProbSeq.less_than_p.
    """
    if not probs.in_unit_range():
        raise ValueError("probabilities must lie in [0, 1]")
    support = probs.support
    u = _uniforms(seed, len(support))
    pf = probs.screen
    take = u < pf
    border = np.abs(u - pf) < 1e-12
    for j in np.nonzero(border)[0]:
        take[j] = probs.less_than_p(support[j], Fraction(float(u[j])))
    return IntSet([support[j] for j in np.flatnonzero(take).tolist()])


def chernoff_bound(delta, mu) -> float:
    """Two-sided tail bound 2 exp(-min(delta^2/4, delta/2) mu).

    Valid for sums of independent Boolean variables with mean mu; approaches
    2 as delta -> 0, so report paths cap it at 1.
    """
    d = float(delta)
    m = float(mu)
    if d < 0 or m < 0:
        raise ValueError("delta and mu must be nonnegative")
    return 2.0 * math.exp(-min(d * d / 4.0, d / 2.0) * m)


def _probe_label(c: int, n: int) -> int:
    """Part of an element whose probe coordinate is c, in a factor n > 1.

    Parity when n = 2; else c mod 3, with c = 0 moved to part 2 when
    n = 1 mod 3, since an odd cycle has no 2-colouring.
    """
    if n == 2:
        return c
    return 2 if c == 0 and n % 3 == 1 else c % 3


def _probe_part_sizes(n: int) -> list[int]:
    """How many of the coordinates 0..n-1 _probe_label puts in each part."""
    if n == 2:
        return [1, 1]
    q, r = divmod(n, 3)
    if r == 1:
        return [q, q, q + 1]
    return [q + (r > 0), q + (r > 1), q]


@dataclass(frozen=True)
class MonteCarloReport:
    """Aggregate of seeded trials against exact thresholds and tail bounds."""

    model: RandomModel
    trials: int
    delta: Fraction
    epsilon: Fraction
    success_count: int
    per_trial: tuple = field(compare=False)
    tail_checks: tuple = field(compare=False)
    notes: tuple = ()

    @property
    def success_rate(self) -> float:
        return self.success_count / self.trials if self.trials else 0.0

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "trials": self.trials,
            "delta": format_fraction(self.delta),
            "epsilon": format_fraction(self.epsilon),
            "success_count": self.success_count,
            "success_rate": round(self.success_rate, 6),
            "per_trial": list(self.per_trial),
            "tail_checks": list(self.tail_checks),
            "notes": list(self.notes),
        }


def monte_carlo_validate(
    model: RandomModel,
    trials: int,
    delta,
    epsilon,
) -> MonteCarloReport:
    """Run seeded trials and compare outcomes against exact thresholds.

    Group-uniform success: min difference count >= (1-delta) g and size
    <= (1+epsilon) sqrt(g |G|).  Sequence-weighted success: min count over
    shifts [1, N] >= ((1-epsilon)/(1+epsilon))^2 N^(1/3) and size <=
    (1+epsilon) sum p_i.  Thresholds are compared via squares or cubes so no
    irrational value is ever rounded.

    Tail checks pick a probe shift and split its count into parts that are
    sums of independent Booleans: in a group, by the coordinate along the
    unit probe shift (see _make_group_trial); along a sequence, by parity.
    The empirical frequency of each relative deviation is compared against
    the summed Chernoff bounds of the parts.
    Trials run one after another; trial t uses seed master_seed XOR t, so
    each trial's outcome depends on its seed alone.  A delta whose largest
    tail multiple overflows a float is refused before the first trial.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("need at least one trial")
    delta = Fraction(delta)
    epsilon = Fraction(epsilon)
    top = max(_TAIL_MULTIPLIERS)
    try:  # the tail checks compare delta times each multiplier as a float
        float(top * delta)
    except OverflowError:
        raise ValueError(f"delta too large: {top} * delta overflows a float") from None
    if model.kind == "group-uniform":
        runner, probe = _make_group_trial(model, delta, epsilon)
    else:
        runner, probe = _make_sequence_trial(model, delta, epsilon)
    rows = []
    for trial in range(trials):
        seed = model.master_seed ^ trial
        size, achieved, probe_count, ok = runner(seed)
        rows.append(
            {
                "trial": trial,
                "seed": seed,
                "size": size,
                "achieved_g": achieved,
                "probe_count": probe_count,
                "success": bool(ok),
            }
        )
    success_count = sum(1 for r in rows if r["success"])
    tail_checks = _summarize_tails(rows, probe, delta, trials)
    return MonteCarloReport(
        model=model,
        trials=trials,
        delta=delta,
        epsilon=epsilon,
        success_count=success_count,
        per_trial=tuple(rows),
        tail_checks=tuple(tail_checks),
        notes=tuple(probe.get("notes", ())),
    )


_TAIL_MULTIPLIERS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))


def _make_group_trial(model: RandomModel, delta: Fraction, epsilon: Fraction):
    """(run, probe) for the group-uniform model, in flat indices throughout.

    The probe count r(m) sums the terms 1[x in A] 1[x + m in A].  The parts
    colour x by _probe_label of its probe coordinate, so x and x + m never
    share a part and no two terms of one part share an element: each part's
    terms are independent.  A part holding s of the n coordinates has mean
    g s / n, in closed form.  run(seed) counts the flat indices that
    _group_draw returns for seed, so no trial builds a residue tuple or a
    GroupSubset.
    """
    group, g = model.group, model.g
    order = group.order
    size_sq_cap = (1 + epsilon) ** 2 * g * order  # size <= (1+eps) sqrt(g|G|)
    min_floor = (1 - delta) * g
    probe_flat = _pick_probe_shift(group)
    m_vec = group.unflatten(probe_flat)
    n = group.factors[m_vec.index(1)]
    # x + m moves only the probe coordinate, c -> c + 1 mod n, so each coset
    # of <m> is one n-cycle.  For 0 < c < n - 1 with n > 2 the labels c mod 3
    # and c + 1 mod 3 differ, and n = 2 has only the pairs below: the wrap
    # n - 1 -> 0 -> 1 is the one place a neighbour pair can share a part.
    assert all(_probe_label(c, n) != _probe_label((c + 1) % n, n) for c in (n - 1, 0))
    mu_parts = [Fraction(g * size, n) for size in _probe_part_sizes(n)]
    mu_total = Fraction(g)  # E r(m) = |G| p^2 exactly, m != 0
    probe = {
        "shift": list(m_vec),
        "mu": mu_total,
        "mu_exact": (mu_total, 1),
        "mu_parts": mu_parts,
        "partition": "bipartite" if n == 2 else "tripartite",
        "notes": (
            f"probe shift {list(m_vec)} with {len(mu_parts)}-part cycle partition",
        ),
    }

    def run(seed: int) -> tuple:
        flat = _group_draw(group, g, seed)
        size = len(flat)
        if size == 0:
            return 0, 0, 0, False
        counts = _group_counts(flat, group, "difference")
        achieved = int(counts.min())
        ok = achieved >= min_floor and size * size <= size_sq_cap
        return size, achieved, int(counts[probe_flat]), ok

    return run, probe


def _pick_probe_shift(group: GroupSpec) -> int:
    """Flat index of a canonical nonzero shift: the last unit vector whose
    factor is above 1.  The trivial group has none."""
    for n, stride in zip(group.factors[::-1], group.strides()[::-1]):
        if n > 1:
            return stride
    raise ValueError("the trivial group has no nonzero shift")


def _make_sequence_trial(model: RandomModel, delta: Fraction, epsilon: Fraction):
    probs, N = model.probs, model.target_N
    scale_n = probs.cbrt_n
    # size <= (1+eps) sum p_i, cubed since the scale may be symbolic
    size_cap_cubed = ((1 + epsilon) * probs.sum_coeff()) ** 3 * (scale_n or 1) ** 2
    # min_m r(m) >= ((1-eps)/(1+eps))^2 N^(1/3): cube both sides
    rho = ((1 - epsilon) / (1 + epsilon)) ** 2
    count_floor_cubed = rho**3 * N
    probe_m = 1
    # sum_i q_i q_{i+1} in integers over den^2, split by the parity of i:
    # the two parts keep i and i+1 apart; int64 while every product fits
    nums, den = probs.nums, probs.den
    if _bound(nums) ** 2 >= 2**63:
        nums = nums.astype(object)
    pair_sums = [_total(nums[j::2][: len(nums[j + 1 :: 2])] * nums[j + 1 :: 2]) for j in (0, 1)]
    mu_parts = pair_sums if probs.start % 2 == 0 else pair_sums[::-1]
    scale = 1.0 if scale_n is None else float(scale_n) ** (4.0 / 3.0)
    mu_probe_float = sum(mu_parts) / den**2 * scale
    mu_parts_float = [q / den**2 * scale for q in mu_parts]
    probe = {
        "shift": probe_m,
        "mu": mu_probe_float,
        # mu = M n^(4/3) = (M n) n^(1/3), M = sum(mu_parts) / den^2
        "mu_exact": (Fraction(sum(mu_parts), den**2) * (scale_n or 1), scale_n or 1),
        "mu_parts": mu_parts_float,
        "partition": "bipartite",
        "notes": (f"probe shift {probe_m} with parity partition",),
    }

    def run(seed: int) -> tuple:
        A = sequence_random_set(probs, seed)
        if A.size < 2:
            return A.size, 0, 0, False
        counts, r_min = _difference_window(A.array, N)
        probe_count = int(counts[probe_m - 1])
        ok = r_min**3 >= count_floor_cubed and A.size**3 <= size_cap_cubed
        return A.size, r_min, probe_count, ok

    return run, probe


def _summarize_tails(rows, probe, delta: Fraction, trials: int):
    """Empirical frequency of |r(m*) - mu| >= d mu vs summed Chernoff bounds.

    Each hit is decided exactly from probe["mu_exact"] = (c, n), mu = c
    n^(1/3) (n = 1 in a group, where mu = g, and along a sequence without
    a symbolic scale): |r - mu| >= d mu when r >= (1 + d) mu or
    r <= (1 - d) mu, and r - x n^(1/3) has the sign of r^3 - x^3 n, so both
    are integer comparisons of cubes.  The bounds are floats, from
    probe["mu"] and probe["mu_parts"]."""
    mu_f = float(probe["mu"])
    c, n = probe["mu_exact"]
    cubes = [r["probe_count"] ** 3 for r in rows]
    mu_parts = probe["mu_parts"]
    n_parts = len(mu_parts)
    checks = []
    for mult in _TAIL_MULTIPLIERS:
        d = delta * mult
        d_f = float(d)
        above, below = ((1 + d) * c) ** 3 * n, ((1 - d) * c) ** 3 * n
        hits = sum(1 for r3 in cubes if r3 >= above or r3 <= below)
        bound = 0.0
        for mp in mu_parts:
            mp_f = float(mp)
            if mp_f <= 0:
                continue
            d_part = d_f * mu_f / (n_parts * mp_f)
            bound += chernoff_bound(d_part, mp_f)
        if mu_f == 0:  # every part is skipped: the total's own bound, 2 at mean 0
            bound = chernoff_bound(d_f, 0)
        checks.append(
            {
                "shift": probe["shift"],
                "partition": probe["partition"],
                "delta": format_fraction(d),
                "empirical": round(hits / trials, 6),
                "hits": hits,
                "bound": round(min(1.0, bound), 6),
                "bound_raw": bound,
            }
        )
    return checks
