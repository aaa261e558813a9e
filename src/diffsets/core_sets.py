"""Finite sets, groups, and exact representation-count certificates.

Counts are over ordered pairs: the difference count of A at shift m is
|{(a, b) in A x A : a - b = m}| and the sum count at m is
|{(a, b) in A x A : a + b = m}|.  A is a "g-difference set" for a domain of
shifts when every difference count there is >= g, and a "g-Sidon set" when
every sum count is <= g.  Everything here is exact integer arithmetic.

A set's one stored form is a read-only int64 array, built and checked with
numpy: an IntSet holds its sorted, distinct elements, a GroupSubset the
sorted, distinct flat indices of its elements (vectors reduced mod the
factors, then weighted by the row-major strides).  The counting kernels take
that array as it is; tuples are built only for .elements and JSON output.
Entries that are not integers (bools included) or do not fit in int64 are
refused with a ValueError.

All counts come from one kernel, _convolve: the indicator of the set's hull
(or of its group, each axis padded to 2n-1) convolved with its reverse or
itself, as one product of packed decimal integers.  libmpdec, the C library
behind the decimal module, multiplies large operands by a number-theoretic
transform.  Each slot is as wide as the largest count; a difference
product's largest is its centre, sum x^2, so it first tries slots one
digit narrower with the centre subtracted out, and is redone at the full
width if the carry check fails.  Only the slots of the caller's shift
window are decoded, but the carry check sums every digit column of the
product.  Only where the k^2
ordered pairs cost less are they counted directly instead, by one chunked
numpy pair loop, _pair_sums, and one cost rule: multiply when
R * cells + F <= k^2.  On the line R = 128 pairs per hull cell and F = 0;
in a group R = 3 pairs per padded cell and F = 4096 pairs, the product's
fixed cost of about 50 us (measured constants at _CELL_PAIRS).  On the line
the pairs take O(min(n, k^2)) memory for a window of n shifts, however wide
the hull, and each chunk of rows meets only the columns whose shifts can
reach the window.  A window is handed over whole, a check of the shifts
1..N counts at most k(k-1)/2+1 of them, and a line kernel over
_ORDER_LIMIT slots is refused; a group's padded box over it bins its pairs.
Importing this module fails without the C decimal module: the pure-Python
fallback would make the same products orders of magnitude slower.
"""

from __future__ import annotations

import decimal
import math
import operator
import sys
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import chain, product

import numpy as np

__all__ = [
    "IntSet",
    "GroupSpec",
    "GroupSubset",
    "RepProfile",
    "Verdict",
    "TrivialBounds",
    "BoundsLedger",
    "CertificateError",
    "rep_diff_profile",
    "rep_sum_profile",
    "group_rep_profile",
    "verify_certificate",
    "trivial_bounds",
    "ceil_sqrt",
    "is_prime",
    "floor_sqrt",
    "format_fraction",
    "parse_fraction",
]

try:
    import _decimal
except ImportError:
    _decimal = None
if _decimal is None or decimal.Decimal is not _decimal.Decimal:
    raise ImportError("diffsets needs the C decimal module (libmpdec), not _pydecimal")

# Packed products are exact integers: any rounding raises instead.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
)
# Pairs per numpy chunk on the pair paths (residue cells in a group): 2 MB
# of int64 keys.
_CHUNK_CELLS = 1 << 18
# A banded chunk grows past the rows whose bands meet its first row's while
# it forms fewer pairs than this: a chunk's fixed cost, about 20 us, is worth
# some thousands of pairs.
_FEW_PAIRS = 1 << 13
# Neighbours per nonzero entry whose lags bound a difference product's
# largest off-centre slot from below (_near_slot): enough for a lift's
# repeats at 4-8 elements apart, at 1-3% of the product's time.
_NEAR = 8
# One cost rule picks each kernel's path: multiply when R * cells + F <= k^2,
# the product's cost counted in ordered pairs, else bin the pairs.  Minima of
# 20-300 calls, numpy 2.4 on a 2-core x86 host:
# - the line: R = _CELL_PAIRS, F = 0.  The crossover lies at 60-130 pairs per
#   hull cell for 300 to 3e5 cells (60-270 up to 1e6), so R covers the fixed
#   cost; an F of 4096 sent hulls at 128 pairs per cell to pairs 1.6-2.8
#   times as slow.
# - a group: R = _GROUP_CELL_PAIRS per padded cell, F = _PRODUCT_PAIRS.  The
#   product costs about 50 us plus 0.1-0.2 us per cell, a pair 10-17 ns in
#   Z/n and 30-45 ns at rank 2-3.  R = 3 keeps (Z/101)^2, k = 404 (4.04 pairs
#   per cell) on the product, 5.5 ms against 6.9 ms; Z/n crosses nearer 20
#   (Z/401, k = 140: 138 us against 191; Z/1000, k = 120: 383 against 145).
_CELL_PAIRS = 128
_GROUP_CELL_PAIRS = 3
_PRODUCT_PAIRS = 4096
# Most slots held at once: int64 counts, draws, shift maps, windows or pairs,
# or the 2n-1 slots of a product over n cells (a line's hull or a group's
# padded box), which peaks at about 20-24 bytes per slot on the line (hulls
# of 2e6-1e7 cells with 5-digit slots), 1.2 GB at the limit.
_ORDER_LIMIT = 50_000_000
_PROFILE_LIMIT = 5_000_000  # most counts a profile lists: shifts, or group elements


class CertificateError(ValueError):
    """A required certificate failed; carries the failing verdict."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all 64-bit inputs."""
    n = int(n)
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ceil_sqrt(n: int) -> int:
    """Smallest integer >= sqrt(n), exactly."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    return math.isqrt(n - 1) + 1


def floor_sqrt(n: int) -> int:
    """Largest integer <= sqrt(n), exactly."""
    if n < 0:
        raise ValueError("negative radicand")
    return math.isqrt(n)


def format_fraction(q: Fraction) -> str:
    """Render a rational as 'p/q' (or 'p' when integral)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q', an integer string, or a decimal string, exactly."""
    s = str(text).strip()
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


class IntSet:
    """A finite set of integers, stored as one read-only int64 array of its
    elements, sorted and strictly increasing.  Equal and hashed by elements."""

    __slots__ = ("array",)

    def __init__(self, elements):
        object.__setattr__(self, "array", _distinct(_int64(elements)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def of(cls, iterable) -> "IntSet":
        return cls(iterable)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @property
    def size(self) -> int:
        return len(self.array)

    def __contains__(self, x) -> bool:
        try:
            v = operator.index(x)
        except TypeError:  # not an integer (3.0, say): compared with each element
            return x in self.elements
        return _holds(self.array, v)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        if not isinstance(other, IntSet):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash(self.array.tobytes())

    def __repr__(self):
        return f"IntSet({self.elements})"

    def __reduce__(self):
        return IntSet, (self.array,)

    def translate(self, t: int) -> "IntSet":
        return IntSet([a + t for a in self.array.tolist()])

    def to_json(self) -> list[int]:
        return self.array.tolist()

    @classmethod
    def from_json(cls, data) -> "IntSet":
        if not isinstance(data, list):
            raise ValueError("integer-set JSON must be an array")
        return cls(data)


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group Z/n1 x ... x Z/nd given by its factor list."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in self.factors):
            raise ValueError("factors must be integers")
        fs = tuple(int(n) for n in self.factors)
        if not fs:
            raise ValueError("group needs at least one factor")
        if any(n < 1 for n in fs):
            raise ValueError("factors must be positive")
        object.__setattr__(self, "factors", fs)

    @cached_property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def reduce(self, vector) -> tuple[int, ...]:
        v = tuple(int(x) for x in vector)
        if len(v) != self.rank:
            raise ValueError("vector length does not match group rank")
        return tuple(x % n for x, n in zip(v, self.factors))

    def elements(self):
        """All residue vectors in lexicographic (row-major) order."""
        return product(*(range(n) for n in self.factors))

    def strides(self) -> tuple[int, ...]:
        return tuple(math.prod(self.factors[i + 1 :]) for i in range(self.rank))

    @cached_property
    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The factors and the strides as int64 arrays, for _flat and _residues."""
        return np.array(self.factors, dtype=np.int64), np.array(self.strides(), dtype=np.int64)

    def flatten(self, vector) -> int:
        return int(_flat(self, self.reduce(vector))[0])

    def unflatten(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise ValueError("index out of range")
        return tuple(_residues(self, np.array([index], dtype=np.int64))[0].tolist())

    def label(self) -> str:
        return "x".join(str(n) for n in self.factors)


class GroupSubset:
    """A subset of a finite abelian group, stored as one read-only int64
    array of the flat indices (GroupSpec.flatten) of its elements, sorted
    and strictly increasing.  Equal and hashed by group and elements."""

    __slots__ = ("group", "flat")

    def __init__(self, group: GroupSpec, elements):
        if group.order >= 2**63:
            raise ValueError("group order must fit in int64")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "flat", _distinct(_flat(group, _int64(elements, group.rank))))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def of(cls, group: GroupSpec, iterable) -> "GroupSubset":
        return cls(group, iterable)

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """The reduced residue vectors, in lexicographic order."""
        return tuple(map(tuple, _residues(self.group, self.flat).tolist()))

    @property
    def size(self) -> int:
        return len(self.flat)

    def __contains__(self, v) -> bool:
        return _holds(self.flat, self.group.flatten(v))

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        if not isinstance(other, GroupSubset):
            return NotImplemented
        return self.group == other.group and np.array_equal(self.flat, other.flat)

    def __hash__(self):
        return hash((self.group, self.flat.tobytes()))

    def __repr__(self):
        return f"GroupSubset({self.group!r}, {self.elements})"

    def __reduce__(self):
        return GroupSubset, (self.group, _residues(self.group, self.flat))

    def to_json(self) -> dict:
        return {
            "invariant_factors": list(self.group.factors),
            "elements": _residues(self.group, self.flat).tolist(),
        }

    @classmethod
    def from_json(cls, data) -> "GroupSubset":
        if not isinstance(data, dict) or "invariant_factors" not in data:
            raise ValueError("group-subset JSON needs invariant_factors")
        factors, elements = data["invariant_factors"], data.get("elements", [])
        if not isinstance(factors, list) or not isinstance(elements, list):
            raise ValueError("invariant_factors and elements must be arrays")
        return cls(GroupSpec(tuple(factors)), elements)


def _holds(have: np.ndarray, v: int) -> bool:
    """Whether the integer v is an entry of have (sorted, distinct int64)."""
    i = int(np.searchsorted(have, v)) if -(2**63) <= v < 2**63 else len(have)
    return i < len(have) and int(have[i]) == v


def _int64(values, rank: int | None = None) -> np.ndarray:
    """values as an int64 array: integers, shape (k,), or with a rank, vectors
    (lists or tuples) of rank integers, shape (k, rank).  The integers may be
    Python or numpy ones but not bools, and must fit in int64; anything else
    is refused with a ValueError.  An integer array is taken as it is, if its
    shape fits."""
    shape = "integers" if rank is None else f"integer vectors of length {rank}"
    if isinstance(values, np.ndarray):
        dims = (1,) if rank is None else (2, rank)
        if values.dtype.kind not in "iu" or (values.ndim, *values.shape[1:]) != dims:
            raise ValueError(f"set entries must be {shape}")
        if values.dtype.kind == "u" and values.size and values.max() >= 2**63:
            raise ValueError("set entries must fit in int64")
        return values.astype(np.int64)
    values = values if isinstance(values, (list, tuple)) else list(values)
    if rank is not None:
        if not set(map(type, values)) <= {list, tuple} or set(map(len, values)) - {rank}:
            raise ValueError(f"set entries must be {shape}")
        values = list(chain.from_iterable(values))
    types = set(map(type, values))
    if not types <= {int} and any(t is bool or not issubclass(t, (int, np.integer)) for t in types):
        raise ValueError(f"set entries must be {shape}")
    try:
        a = np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("set entries must fit in int64") from None
    return a if rank is None else a.reshape(-1, rank)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d int64 array, ascending, read-only."""
    if not (a[1:] > a[:-1]).all():  # sorted, not np.unique, which imports numpy.ma
        a = np.sort(a)
        a = a[np.r_[True, a[1:] != a[:-1]]]
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class RepProfile:
    """Representation counts over a queried domain of shifts: a range, or a
    group's (|G|, d) residue vectors in flat order, and their count array."""

    kind: str  # "difference" | "sum"
    domain: str  # human-readable description of the queried shifts
    shifts: range | np.ndarray
    array: np.ndarray

    @property
    def counts(self) -> dict:  # keyed by int, or by residue tuple
        keys = self.shifts if isinstance(self.shifts, range) else map(tuple, self.shifts.tolist())
        return dict(zip(keys, self.array.tolist()))

    @property
    def min_count(self) -> int:
        return int(self.array.min())

    @property
    def max_count(self) -> int:
        return int(self.array.max())

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "domain": self.domain,
            "shifts": list(self.shifts) if isinstance(self.shifts, range) else self.shifts.tolist(),
            "counts": self.array.tolist(),
            "min_count": self.min_count,
            "max_count": self.max_count,
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of a certificate check."""

    passed: bool
    achieved_g: int
    witness: object = None  # failing shift (int or vector) or None

    def to_json(self) -> dict:
        w = self.witness
        if isinstance(w, tuple):
            w = list(w)
        return {"passed": self.passed, "achieved_g": self.achieved_g, "witness": w}


# ---------------------------------------------------------------------------
# Counting: one exact convolution kernel, and a pair fallback for sparse input


def _convolve(x, *, reverse=False, lo=0, hi=None):
    """Slots lo..hi-1 (clipped as a slice is) of the exact linear
    convolution z[k] = sum_i x[i] y[k-i] of a nonnegative integer sequence x
    (an int64 array or a list of ints) with y = x itself, or with y = x
    reversed when reverse is set, as one decimal product.  Every count
    multiplies an indicator by itself (sums) or by its reverse (differences
    and correlations).

    Entry i of x fills the w-digit slot at 10^(w i) of one Decimal integer,
    where w is the digit count of sum x * max x, the largest value any z[k]
    can take; no slot can carry, so the product's slots are z.  With the
    reverse, that largest slot is the centre z[n-1] = sum x^2, which no
    other slot exceeds (Cauchy-Schwarz), and the others often fit in
    w' = w - 1 digits.  So when w <= 18 the product is first formed at w',
    unless either of two cheap bounds already needs w digits: twice the
    off-centre total (sum x)^2 - sum x^2 over the hull of x's nonzero
    entries (about four times the mean off-centre slot), or _near_slot's
    lower bound on the largest off-centre slot.  The centre
    sum x^2 10^(w'(n-1)) is subtracted in _EXACT, the check (_product)
    proves every other slot, and sum x^2 goes back into the decoded centre.
    If the check fails, the product is redone at w, and a carry there
    raises ArithmeticError.

    x is packed once per width tried: its one Decimal is passed twice, so
    libmpdec squares it, or its digit rows are read backwards for the
    reverse.  The product runs in _EXACT, where rounding traps.  Only the
    slots asked for are decoded, but the carry check reads all 2n-1.
    Returns an int64 array when w <= 18, else a list of Python ints.
    """
    x = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
    if x.min() < 0:
        raise ValueError("convolution operands must be nonnegative")
    sx = _total(x)
    w = _digits(sx * int(x.max()))
    window = range(2 * len(x) - 1)[lo:hi]
    if reverse and w <= 18:
        at = np.flatnonzero(x)
        v = x[at].astype(np.int64)  # below 10^18, as sum x * max x is
        sq = _total(v * v)
        spread = 2 * (sx * sx - sq) // (int(at[-1] - at[0]) + 1 if len(at) else 1)
        if _digits(spread) < w and _digits(_near_slot(at, v)) < w:
            z = _product(x, w - 1, reverse, window, sx, sq)
            if z is not None:
                return z
    z = _product(x, w, reverse, window, sx)
    if z is None:
        raise ArithmeticError("convolution slot overflow")
    return z


def _product(x, w, reverse, window, sx, centre=0):
    """The window's slots of _convolve's product at slot width w, or None
    if a slot carried.  A centre (sum x^2, with the reverse) is subtracted
    at slot n-1 before the check and added back to the decoded slot.

    With c_j the sum of digit column j over the whole product text,
    sum_j 10^(w-1-j) c_j is the sum of every slot as the text reads it.
    Each unit carried out of a slot lowers it by 10^w - 1, and a carry cut
    off the top lowers it too, so it equals (sum x)^2 - centre, the true
    total of the slots, only if no slot carried."""
    n = len(x)
    slots = 2 * n - 1
    rows = _pack(x, w)
    px = _decimal(rows)
    product = _EXACT.multiply(px, _decimal(rows[::-1]) if reverse else px)
    if centre:
        product = _EXACT.subtract(product, _EXACT.scaleb(Decimal(centre), w * (n - 1)))
    text = str(product).encode("ascii")
    # the top slots' leading zeros are not printed; a carry out of the top
    # slot is cut off here, and the sum check catches it
    text = (b"0" * (slots * w - len(text)) + text)[-slots * w :]
    d = np.frombuffer(text, dtype=np.uint8).reshape(slots, w)  # slot s is row slots-1-s
    total = 0
    for j in range(w):
        total = 10 * total + int(d[:, j].sum()) - 48 * slots
    if total != sx * sx - centre:
        return None
    d = d[slots - window.stop : slots - window.start][::-1]  # the window's rows, slot lo first
    if w > 18:
        to_int = int if _str_safe(w) else lambda s: int(Decimal(s.decode("ascii")))
        return [to_int(r.tobytes()) for r in d]
    z = np.zeros(len(d), dtype=np.int64)
    for j in range(w):
        z *= 10
        z += d[:, j]
    z -= 48 * (10**w - 1) // 9  # the ASCII '0' of every digit; z < 57 (10^w - 1) / 9 < 2^63 before
    if centre and n - 1 in window:
        z[n - 1 - window.start] += centre
    return z


def _near_slot(at: np.ndarray, v: np.ndarray) -> int:
    """A lower bound on the largest off-centre slot of x with its reverse,
    for x's nonzero entries v at the ascending positions at: the largest
    lag total over the pairs of each entry with its next _NEAR entries.  A
    run, or a lift's repeats of one lag among near neighbours, shows here.
    Weighted totals are float sums, exact below 2^53: the bound decides
    only whether a narrow product is tried, never a count."""
    k, r = len(at), min(_NEAR, len(at) - 1)
    lags = np.empty(r * k - r * (r + 1) // 2, dtype=np.int64)  # one buffer: no temporaries
    weights = None if v.max() == 1 else np.empty(len(lags))
    o = 0
    for j in range(1, r + 1):
        np.subtract(at[j:], at[:-j], out=lags[o : o + k - j])
        if weights is not None:
            np.multiply(v[j:], v[:-j], out=weights[o : o + k - j], casting="unsafe")
        o += k - j
    return int(np.bincount(lags, weights, minlength=1).max())


def _digits(n: int) -> int:
    """Decimal digit count of n >= 0 (1 for 0), from its bit length."""
    # 0.30103 > log10(2), so w is the digit count or one more
    w = 1 + n.bit_length() * 30103 // 100000
    return w - (w > 1 and 10 ** (w - 1) > n)


def _str_safe(w: int) -> bool:
    """Whether str(int) and int(str) accept w digits; Decimal has no limit."""
    limit = sys.get_int_max_str_digits()
    return limit == 0 or w <= limit


def _total(a: np.ndarray) -> int:
    """Exact sum of an int64 or object array of ints, free of int64 overflow."""
    if a.dtype == object:
        return int(a.sum())
    return (int((a >> 32).sum()) << 32) + int((a & 0xFFFFFFFF).sum())


def _pack(a: np.ndarray, w: int):
    """The w-digit slots of a, last entry first: n items of w ASCII digit
    bytes each (numpy void, so a reversed copy moves items, not bytes), or a
    list of w-character strings when w > 18.  Only the digits of a's largest
    entry take a pass; the slots are '0' above them, and the top digit needs
    no % or //, so an indicator costs one pass."""
    if w > 18:
        to_str = str if _str_safe(w) else lambda v: str(Decimal(v))
        return [to_str(v).zfill(w) for v in a[::-1]]
    a = a[::-1].astype(np.int64, copy=False)
    d = np.full((len(a), w), 48, dtype=np.uint8)
    top = w - _digits(int(a.max()))  # the column of the largest entry's top digit
    for j in range(w - 1, top, -1):
        d[:, j] = a % 10 + 48
        a = a // 10
    np.add(a, 48, out=d[:, top], casting="unsafe")  # every entry is below 10 now
    return d.view(f"V{w}").ravel()


def _decimal(rows) -> Decimal:
    """sum_i a[i] 10^(w i) as a Decimal, from the rows _pack(a, w) built."""
    return Decimal("".join(rows) if isinstance(rows, list) else rows.tobytes().decode("ascii"))


def _pair_sums(left, right, val=None, size=None, runs=False, key=None):
    """Totals of val[i] * val[j] (1 if val is None) over the pairs (i, j) by
    key left[i] + right[j], for numpy arrays (val int64 or object): the one
    chunked pair loop, at most _CHUNK_CELLS pairs per chunk of left's rows
    (or one row).  With size, sums outside 0..size-1 are dropped; right
    must be ascending and left sorted either way.  When the pairs fill
    more than one chunk, each row's band is the slice of right, found by
    np.searchsorted, that brings its sums into 0..size-1; a chunk runs from
    its first row through the rows whose bands meet that row's
    (_chunk_end) and meets only the union of their bands, so the pairs
    formed follow the band, not k^2.  A key function given instead of the
    sum, key(left rows, right), must land in 0..size-1.

    Returns the totals of keys 0..size-1, one np.add.at per chunk, or with
    runs, (keys, totals) over the keys kept, ascending: unweighted, the run
    lengths of the keys sorted in place; weighted, an argsort and
    np.add.reduceat (not np.unique, which imports numpy.ma).
    """
    clip = size is not None and key is None
    band = clip and len(left) * len(right) > _CHUNK_CELLS  # one chunk meets all of right
    out = [] if runs else np.zeros(size, dtype=np.int64 if val is None else val.dtype)
    rows, lval = max(1, _CHUNK_CELLS // max(1, right.size)), val
    if band:
        if len(left) > 1 and left[0] > left[-1]:  # taken ascending, each row with its weight
            left, lval = left[::-1], None if val is None else val[::-1]
        j0 = np.searchsorted(right, -left)
        j1 = np.searchsorted(right, size - left)
        meets = np.searchsorted(-j1, -j0).tolist()  # rows before it have j1 > j0[i]
        j0, j1 = j0.tolist(), j1.tolist()
    i = 0
    while i < len(left):
        stop, a, b = i + rows, 0, len(right)
        if band:
            stop = _chunk_end(i, j0, j1, meets)
            a, b = j0[stop - 1], j1[i]  # the union of the chunk's bands
        keys = (key or np.add.outer)(left[i:stop], right[a:b]).ravel()
        add = 1 if val is None else np.multiply.outer(lval[i:stop], val[a:b]).ravel()
        if clip:
            keep = (keys >= 0) & (keys < size)
            keys, add = keys[keep], add if val is None else add[keep]
        if runs:
            out.append((keys, add))
        else:
            np.add.at(out, keys, add)
        del keys, add  # so the next chunk is built with none of this one's pairs alive
        i = stop
    if not runs:
        return out
    keys = np.concatenate([k for k, _ in out])
    if val is None:
        del out  # so the in-place sort holds one copy of the keys
        keys.sort()
    else:
        order = np.argsort(keys)  # any order: the totals are sums
        keys, add = keys[order], np.concatenate([a for _, a in out])[order]
    first = np.flatnonzero(np.r_[keys.size > 0, keys[1:] != keys[:-1]])  # run starts
    totals = np.diff(np.r_[first, len(keys)]) if val is None else np.add.reduceat(add, first)
    return keys[first], totals


def _chunk_end(i: int, j0: list, j1: list, meets: list) -> int:
    """Where _pair_sums' chunk from row i ends, for ascending rows whose
    bands are right[j0[r]:j1[r]] (so j0 and j1 do not increase) and meets[i]
    the end of the rows whose bands meet row i's, which span at most two
    bands: there, or further while the chunk forms at most _FEW_PAIRS
    pairs, but never past _CHUNK_CELLS (row i alone may)."""
    formed = lambda e: (e - i) * (j1[i] - j0[e - 1])  # grows with e
    limit = min(max(formed(max(meets[i], i + 1)), _FEW_PAIRS), _CHUNK_CELLS)
    return i + max(1, bisect_right(range(i + 1, len(j0) + 1), limit, key=formed))


def _pair_counts(elements, mode: str, lo: int, hi: int):
    """Exact ordered-pair difference or sum counts at the shifts lo..hi, for
    distinct ascending elements (IntSet.array, or a sequence of ints).

    Returns (shifts, counts), each shift with its count; every other shift
    counts 0.  The window is first clipped to the reachable shifts wlo..whi.
    The counts are the hull's indicator convolved with its reverse
    (differences) or itself (sums), of which only the window's slots are
    decoded, or, for a hull of more than k^2/_CELL_PAIRS cells, the pairs
    binned into the n-shift window when n <= k^2: either way the window is
    handed over whole, with shifts = range(wlo, whi + 1).  For a wider
    window the pairs that land in it are sorted (_pair_sums' runs), and
    shifts is an array of those they reach: memory is O(min(n, k^2)).  On
    both pair paths each chunk of elements meets only the elements whose
    shifts with it can reach the window (sorted, so one slice).  A path
    that would hold more than _ORDER_LIMIT slots (2 span + 1 for the
    product, n or k^2 for the pairs) is refused with a ValueError.  A check
    of the shifts 1..N asks for no more than 1..k(k-1)/2+1
    (_difference_window).
    """
    a = np.asarray(elements, dtype=np.int64)
    k = len(a)
    if k == 0:
        raise ValueError("empty set")
    first = int(a[0])
    span = int(a[-1]) - first
    if span >= 2**62:
        raise ValueError("set spans more than 2^62")
    # the set reaches shifts base..base+2*span
    base = -span if mode == "difference" else 2 * first
    wlo, whi = max(lo, base), min(hi, base + 2 * span)
    if wlo > whi:
        return range(0), np.zeros(0, dtype=np.int64)
    n = whi - wlo + 1
    product = (span + 1) * _CELL_PAIRS <= k * k
    slots = 2 * span + 1 if product else min(n, k * k)
    if slots > _ORDER_LIMIT:
        raise ValueError(f"{k} elements need {slots} counts or pairs at once (limit {_ORDER_LIMIT})")
    e = a - first
    shifts = range(wlo, whi + 1)
    if product:
        ind = np.zeros(span + 1, dtype=np.int64)
        ind[e] = 1
        return shifts, _convolve(ind, reverse=mode == "difference", lo=wlo - base, hi=whi - base + 1)
    # with e the offsets from the first element, pair (a, b) lands at
    # offset e[a] + other[b] of the window
    other = (span - e[::-1] if mode == "difference" else e) - (wlo - base)  # ascending
    if n <= k * k:
        return shifts, _pair_sums(e, other, size=n)
    reached, counts = _pair_sums(e, other, size=n, runs=True)
    return wlo + reached, counts


def _difference_window(a: np.ndarray, N: int):
    """Difference counts of the elements a at the shifts 1, 2, ..., and their
    minimum over 1..N.  The k(k-1)/2 pairs a > b reach at most that many
    positive shifts, so only 1..min(N, k(k-1)/2+1) are counted, on a dense
    path; a window shorter than N holds a 0 or is followed by one."""
    k = len(a)
    counts = _pair_counts(a, "difference", 1, min(N, k * (k - 1) // 2 + 1))[1]
    return counts, int(counts.min()) if len(counts) == N else 0


def _flat(spec: GroupSpec, vectors) -> np.ndarray:
    """Flat indices of integer vectors, reduced mod the factors, as an int64
    array."""
    factors, strides = spec._axes
    return np.asarray(vectors, dtype=np.int64).reshape(-1, spec.rank) % factors @ strides


def _residues(spec: GroupSpec, flat: np.ndarray) -> np.ndarray:
    """The (k, d) residue vectors of k flat indices: flat // strides % factors."""
    factors, strides = spec._axes
    return flat[:, None] // strides % factors


def _enumerable(spec: GroupSpec, limit: int = _ORDER_LIMIT) -> int:
    """spec's order, refused with a ValueError above limit."""
    if spec.order > limit:
        raise ValueError(f"group of order {spec.order} too large to enumerate (limit {limit})")
    return spec.order


def _group_counts(flat: np.ndarray, spec: GroupSpec, mode: str, weights=None) -> np.ndarray:
    """Exact counts over every element of spec, indexed by flattened residue,
    for the subset given by its distinct flat indices.  With weights, one
    nonnegative integer per index, a pair adds the product of its two
    weights instead of 1: int64 while sum(w) * max(w) fits in 18 digits,
    else Python ints in an object array.

    Each axis is padded to 2n-1 so the linear convolution of the indicators
    (or weights) cannot wrap, then folded mod n.  Where the k^2 pairs cost
    less than the product, _GROUP_CELL_PAIRS * cells + _PRODUCT_PAIRS > k^2,
    or the padded box has more than _ORDER_LIMIT cells, _pair_sums bins them
    directly instead, keyed by the flat index of a + b or a - b.
    """
    if len(flat) == 0:
        raise ValueError("empty set")
    order = _enumerable(spec)
    x = _residues(spec, flat)
    k = len(x)
    factors = spec._axes[0]
    padded = tuple(2 * n - 1 for n in spec.factors)
    w = None if weights is None else np.array(weights, dtype=object)
    if w is not None and _digits(_total(w) * int(w.max())) <= 18:
        w = w.astype(np.int64)
    dtype = np.int64 if w is None else w.dtype
    cells = math.prod(padded)
    if cells <= _ORDER_LIMIT and cells * _GROUP_CELL_PAIRS + _PRODUCT_PAIRS <= k * k:
        # reversing the flat indicator maps b to (n-1-b) on every axis, so
        # a - b lands at a - b + n - 1 before the fold: residue t + 1 mod n
        pstrides = np.asarray(GroupSpec(padded).strides(), dtype=np.int64)
        ind = np.zeros(int((factors - 1) @ pstrides) + 1, dtype=dtype)
        ind[x @ pstrides] = 1 if w is None else w
        box = np.asarray(_convolve(ind, reverse=mode == "difference"), dtype=dtype).reshape(padded)
        for axis, n in enumerate(spec.factors):
            box = np.moveaxis(box, axis, 0)
            folded = box[:n].copy()
            folded[: n - 1] += box[n:]
            if mode == "difference":
                folded = np.roll(folded, 1, axis=0)
            box = np.moveaxis(folded, 0, axis)
        return box.reshape(order)
    y = -x if mode == "difference" else x
    return _pair_sums(x, y, w, order, key=lambda a, b: _flat(spec, a[:, None] + b[None]))


# ---------------------------------------------------------------------------
# Profiles


def _profile(A: IntSet, kind: str, shifts: tuple[int, int]) -> RepProfile:
    lo, hi = int(shifts[0]), int(shifts[1])
    if lo > hi:
        raise ValueError("empty shift interval")
    if hi - lo + 1 > _PROFILE_LIMIT:
        raise ValueError(f"shift interval too large to materialize (limit {_PROFILE_LIMIT})")
    shifts, counts = _pair_counts(A.array, kind, lo, hi)
    if not isinstance(shifts, range) or len(shifts) <= hi - lo:  # sorted, or clipped to the reach
        full = np.zeros(hi - lo + 1, dtype=np.int64)
        full[np.asarray(shifts, dtype=np.int64) - lo] = counts
        counts = full
    return RepProfile(kind, f"[{lo},{hi}]", range(lo, hi + 1), counts)


def rep_diff_profile(A: IntSet, shifts: tuple[int, int]) -> RepProfile:
    """Difference counts of A at every shift in the inclusive interval."""
    return _profile(A, "difference", shifts)


def rep_sum_profile(A: IntSet, shifts: tuple[int, int]) -> RepProfile:
    """Sum counts of A at every shift in the inclusive interval."""
    return _profile(A, "sum", shifts)


def group_rep_profile(A: GroupSubset, mode: str = "difference") -> RepProfile:
    """Counts at every element of the ambient group."""
    if mode not in ("difference", "sum"):
        raise ValueError("mode must be 'difference' or 'sum'")
    spec = A.group
    shifts = _residues(spec, np.arange(_enumerable(spec, _PROFILE_LIMIT)))
    return RepProfile(mode, f"group {spec.label()}", shifts, _group_counts(A.flat, spec, mode))


# ---------------------------------------------------------------------------
# Certificates


def verify_certificate(A, g: int, N: int | None = None, mode: str = "difference") -> Verdict:
    """Check a g-difference or g-Sidon certificate exactly.

    For an IntSet, N is required: difference mode checks shifts 1..N, Sidon
    mode requires A within [1, N] and checks sums 2..2N (sums outside are 0).
    For a GroupSubset the whole group is checked and N must be omitted.

    achieved_g is the minimum difference count (the largest g that would
    pass) or the maximum sum count (the smallest g that would pass); the
    witness is the smallest failing shift, or None when the check passes.
    """
    g = int(g)
    if g < 1:
        raise ValueError("g must be a positive integer")
    if mode not in ("difference", "sidon"):
        raise ValueError("mode must be 'difference' or 'sidon'")
    if isinstance(A, GroupSubset):
        if N is not None:
            raise ValueError("N applies only to integer sets")
        arr = _group_counts(A.flat, A.group, "difference" if mode == "difference" else "sum")
        achieved, bad = (int(arr.min()), arr < g) if mode == "difference" else (int(arr.max()), arr > g)
        i = int(bad.argmax())
        witness = A.group.unflatten(i) if bad[i] else None
        return Verdict(witness is None, achieved, witness)
    if not isinstance(A, IntSet):
        raise TypeError("expected IntSet or GroupSubset")
    if N is None:
        raise ValueError("N required for integer sets")
    N = int(N)
    if N < 1:
        raise ValueError("N must be positive")
    if A.size == 0:
        raise ValueError("empty set")
    if mode == "difference":
        counts, achieved = _difference_window(A.array, N)
        # the sentinel at len(counts): a 0 past a window shorter than N, else a pass
        i = int(np.append(counts < g, True).argmax())
        return Verdict(i == N, achieved, i + 1 if i < N else None)
    # Sidon over [N]: support must lie in [1, N], so every sum is in [2, 2N]
    if A.array[0] < 1 or int(A.array[-1]) > N:
        raise ValueError("support outside [1,N]")
    shifts, counts = _pair_counts(A.array, "sum", 2, 2 * N)
    bad = counts > g
    i = int(bad.argmax())
    witness = int(shifts[i]) if bad[i] else None
    return Verdict(witness is None, int(counts.max()), witness)


def _count_at(have: np.ndarray, shifted: np.ndarray) -> int:
    """How many entries of shifted lie in have (sorted, distinct): for a
    set's elements moved by w or -w, its difference count at w."""
    at = np.minimum(np.searchsorted(have, shifted), len(have) - 1)
    return int((have[at] == shifted).sum())


def _require_certificate(A, g: int | None, N: int | None = None, *, name: str) -> Verdict:
    """A's passing verdict as a g-difference set: for [N] when A is an
    IntSet, for its whole group when A is a GroupSubset.  g None claims 1,
    so the achieved count is at least 1.

    The one place a failed claim becomes a CertificateError, which names the
    set, the domain, the least failing shift w and the count at w, and
    carries the verdict.
    """
    claim = 1 if g is None else g
    v = verify_certificate(A, claim, N, "difference")
    if v.passed:
        return v
    if isinstance(A, IntSet):
        domain, have, shifted = f"[{N}]", A.array, A.array + v.witness
    else:
        domain = " x ".join(f"Z/{n}" for n in A.group.factors)
        have, shifted = A.flat, _flat(A.group, _residues(A.group, A.flat) + v.witness)
    count = _count_at(have, shifted)
    w = v.to_json()["witness"]  # a vector as a list, as the verdict prints it
    raise CertificateError(
        f"{name} is not a {claim}-difference set for {domain}: shift {w} has count {count}", v
    )


# ---------------------------------------------------------------------------
# Bounds


@dataclass(frozen=True)
class TrivialBounds:
    """Square-root bounds with exact integer roundings."""

    g: int
    mode: str  # "interval" | "group"
    parameter: int  # N or |G|
    sqrt_value: float  # sqrt(2gN) or sqrt(g|G|)
    min_cover_lower: int  # ceil of the root: least size forced on covering side
    max_packing_upper: int  # floor of the root: largest size allowed packing side
    sharper_cover_lower: int | None = None  # groups only: strict 1/2+sqrt bound
    warning: str | None = None

    def to_json(self) -> dict:
        out = {
            "g": self.g,
            "mode": self.mode,
            "parameter": self.parameter,
            "sqrt_value": round(self.sqrt_value, 6),
            "min_cover_lower": self.min_cover_lower,
            "max_packing_upper": self.max_packing_upper,
        }
        if self.sharper_cover_lower is not None:
            out["sharper_cover_lower"] = self.sharper_cover_lower
        if self.warning is not None:
            out["warning"] = self.warning
        return out


def trivial_bounds(g: int, N: int | None = None, group: GroupSpec | None = None) -> TrivialBounds:
    """Counting bounds: interval mode uses sqrt(2gN), group mode sqrt(g|G|).

    Covering-side quantities (minimum g-difference sets) are bounded below by
    the ceiling; packing-side quantities (maximum g-Sidon sets) above by the
    floor.  Group mode also reports the strictly-larger covering bound
    1/2 + sqrt(g(|G|-1)), rounded up strictly.
    """
    g = int(g)
    if g < 1:
        raise ValueError("g must be a positive integer")
    if (N is None) == (group is None):
        raise ValueError("give exactly one of N or group")
    if N is not None:
        N = int(N)
        if N < 1:
            raise ValueError("N must be positive")
        m = 2 * g * N
        return TrivialBounds(
            g=g,
            mode="interval",
            parameter=N,
            sqrt_value=math.sqrt(m),
            min_cover_lower=ceil_sqrt(m),
            max_packing_upper=floor_sqrt(m),
        )
    order = group.order
    m = g * order
    # strict rounding of 1/2 + sqrt(g(order-1)): floor via isqrt, then +1
    s = math.isqrt(4 * g * (order - 1))
    sharper = (1 + s) // 2 + 1
    warning = None
    if g > order:
        warning = "g exceeds |G|; no subset attains g everywhere"
    return TrivialBounds(
        g=g,
        mode="group",
        parameter=order,
        sqrt_value=math.sqrt(m),
        min_cover_lower=ceil_sqrt(m),
        max_packing_upper=floor_sqrt(m),
        sharper_cover_lower=sharper,
        warning=warning,
    )


@dataclass(frozen=True)
class BoundsLedger:
    """Published constants used when flagging computed ratios.

    sigma bounds the interval Sidon ratio beta_g(N)/sqrt(gN) as g -> oo,
    tau the interval covering ratio eta_g(N)/sqrt(gN) (tau is also a lower
    bound for every finite g, N); the g=2 radicands bound eta_2(N)^2/N.
    Stored as the exact published decimals.
    """

    sigma_lower: Fraction = Fraction(1147, 1000)
    sigma_upper: Fraction = Fraction(1252, 1000)
    tau_lower: Fraction = Fraction(1560, 1000)
    tau_upper: Fraction = Fraction(1643, 1000)
    g2_lower_radicand: Fraction = Fraction(2435, 1000)
    g2_upper_radicand: Fraction = Fraction(2645, 1000)

    def eta_ratio_ok(self, value: int, g: int, N: int) -> bool:
        """Exact check of value/sqrt(gN) >= tau_lower (no floats)."""
        return Fraction(value) ** 2 >= self.tau_lower**2 * g * N

    def to_json(self) -> dict:
        return {
            "sigma_lower": format_fraction(self.sigma_lower),
            "sigma_upper": format_fraction(self.sigma_upper),
            "tau_lower": format_fraction(self.tau_lower),
            "tau_upper": format_fraction(self.tau_upper),
            "g2_lower_radicand": format_fraction(self.g2_lower_radicand),
            "g2_upper_radicand": format_fraction(self.g2_upper_radicand),
        }
