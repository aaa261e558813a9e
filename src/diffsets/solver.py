"""Exact desk-scale search for extremal difference and Sidon set sizes.

eta(g, N): smallest g-difference set for the interval [N].
gamma(g, G): smallest g-difference subset of a finite abelian group.
beta(g, N): largest g-Sidon subset of [1, N].
alpha(g, G): largest g-Sidon subset of a group.

eta and gamma share one covering search (iterative deepening on the target
size with admissible deficit pruning); beta and alpha share one packing
search (branch and bound).  Each search is handed a shift rule: where the
next element may go, which counters placing it raises, and which elements
are pinned before the search starts.  Translation symmetry pins min(A) = 0
(interval) or 0 in A (group).

The cover search holds its counters as g level masks in one Python int, bit
d of level i set when counter d is at least g - i, and takes each new
element's hits as masks from the rule: for eta the live elements (those
within N of the last) shifted once, for gamma {0} | {a - x} and {x - a}.
The deficit, the counts still missing below g, drops by one popcount; a node
is cut when it exceeds t*reach + step*t*(t - 1)/2, the most t more elements
add (reach: the live count for eta, 2|A| + 1 for gamma), or when a counter
is below g - step*t.

Group searches need no operation table: `_padded` lays G = Z/m_1 x ... x
Z/m_n out in slots, 2m on each inner axis of order m and m_1 rows, so the
slot of a + x is offsets[a] + offsets[x], with no carry, and alpha's pack
reads counts[reduce[offsets[a] + offsets[x]]].  gamma keeps A and -A as copy
masks, each element at every copy (coordinates c and c + m, 2m_1 rows).
Shifted down by offsets[x], A's mask holds each a - x at one live slot, all
coordinates below m_i; -A's, shifted down by wrap - offsets[x] (wrap: the
slot of (m_1, ..., m_n)), holds each x - a.  So its hits are two shifts, and
the padding slots are dead counters, held full from the start.

eta tests that bound for all N children of a node at once.  A child's drop
and its live count are correlations of the live mask with the missing
counters and with a run of ones, so one Python int product of the masks
spread into w-bit slots (Kronecker substitution) holds all N of them, and
one add and one mask compare every slot with the bound (SWAR).  Only the
survivors are grown.  A screened-out child still costs one node, so values,
witnesses and node counts are those of the per-child test.  Both searches
charge the node budget through `_charged`, which holds the charging rules.

The group cover search pins more.  Fix a size k that has a cover and let L
be the lex-first k-cover through 0.  If |G| > 1, L contains the element h of
flat index 1: L - L = G, so a - b = h for some a, b in L, and L - b, a
k-cover through 0 and h, would be lex-smaller unless h is in L.  In (Z/p)^n,
L also contains e_n, ..., e_1, of flat indices 1, p, ..., p^(n-1): if L
contains 0 and e_n, ..., e_(i+1), which span S = [0, p^(n-i)) in flat order,
L still generates G (L - L = G), so it has a least element y outside S; an
automorphism fixing S pointwise and moving y to e_i keeps L's elements in S
and adds p^(n-i), the least flat index outside S, so it would make L
lex-smaller unless y = e_i.  So the pinned search at size k meets L, and its
first cover is L: for equal-size sets through the same pins, lex order is
decided by the least element of their symmetric difference, a free element.
A size it fails at has no cover.

The eta hull comes from gap compression: shrinking a gap larger than N
between consecutive elements to exactly N can only raise the counts in
[1, N] and makes the set lexicographically smaller, so the lex-min optimal
witness has every gap at most N and each next element lies in
(last, last + N].  Witnesses are canonical, the lexicographically smallest at
the optimal size, so identical inputs always reproduce identical tables, and
exhaustive=True means proven optimal for all four quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core_sets import (
    BoundsLedger,
    GroupSpec,
    GroupSubset,
    IntSet,
    _enumerable,
    _residues,
    ceil_sqrt,
    is_prime,
    trivial_bounds,
    verify_certificate,
)

__all__ = [
    "SearchConfig",
    "BudgetExceeded",
    "ExtremalResult",
    "eta_exact",
    "gamma_exact",
    "beta_exact",
    "alpha_exact",
    "ratio_rows",
    "ratio_report",
]


class BudgetExceeded(Exception):
    """Internal signal: node budget ran out mid-search."""


@dataclass(frozen=True)
class SearchConfig:
    """Node budget and symmetry switch.

    node_budget: search nodes before giving up with a non-exhaustive result,
    at least 0; every candidate counts as one node, screened out or tested
    (`_charged`).  A group's slot layout is built once, in numpy, before the
    search, and the slot limit bounds it.
    translation_fix: pin min(A) = 0 for eta, 0 in A for gamma/alpha, and
    for gamma also the element of flat index 1, or e_1, ..., e_n in (Z/p)^n
    (see the module docstring for the lemmas).  False drops every pin (eta's
    first element then ranges over [0, N]): slower, same value and witness,
    useful as a check of the pins.  beta has no translation symmetry and
    ignores the flag.
    """

    node_budget: int = 20_000_000
    translation_fix: bool = True

    def __post_init__(self):
        if self.node_budget < 0:
            raise ValueError(f"node budget must be at least 0, not {self.node_budget}")


@dataclass(frozen=True)
class ExtremalResult:
    """One solved extremal value with its certified witness."""

    quantity: str  # "eta" | "gamma" | "beta" | "alpha"
    g: int
    N: int | None
    group: GroupSpec | None
    value: int
    witness: IntSet | GroupSubset | None
    exhaustive: bool
    nodes: int

    @property
    def size_param(self) -> int:
        return self.N if self.N is not None else self.group.order

    def ratio(self) -> float:
        return self.value / math.sqrt(self.g * self.size_param)

    def to_json(self) -> dict:
        out = {
            "quantity": self.quantity,
            "g": self.g,
            "value": self.value,
            "exhaustive": self.exhaustive,
            "nodes": self.nodes,
        }
        if self.N is not None:
            out["N"] = self.N
        if self.group is not None:
            out["group"] = list(self.group.factors)
        if self.witness is None:
            out["witness"] = None
        elif isinstance(self.witness, IntSet):
            out["witness"] = self.witness.to_json()
        else:
            out["witness"] = self.witness.to_json()["elements"]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ExtremalResult":
        """Inverse of to_json; witness and nodes may be absent.  Anything
        else malformed is refused with a ValueError."""
        if (
            not isinstance(data, dict)
            or not {"quantity", "g", "value"} <= data.keys()
            or ("N" in data) == ("group" in data)
        ):
            raise ValueError("a solve result needs quantity, g, value and one of N or group")
        quantity, witness = data["quantity"], data.get("witness")
        if {"eta": "N", "beta": "N", "gamma": "group", "alpha": "group"}.get(str(quantity)) not in data:
            raise ValueError(
                f"quantity {quantity!r} is not eta or beta with N, nor gamma or alpha with group"
            )
        for key in ("g", "value", "N"):
            if type(data.get(key, 1)) is not int or data.get(key, 1) < 1:  # bools are refused too
                raise ValueError(f"{key} must be a positive integer, not {data[key]!r}")
        if not isinstance(data.get("group", []), list) or not isinstance(witness, (list, type(None))):
            raise ValueError("group must be a list of factors, and witness a list or null")
        group = GroupSpec(tuple(data["group"])) if "group" in data else None
        if witness is not None:
            witness = IntSet.of(witness) if group is None else GroupSubset.of(group, witness)
        return cls(
            quantity,
            data["g"],
            data.get("N"),
            group,
            data["value"],
            witness,
            bool(data.get("exhaustive")),
            data.get("nodes", 0),
        )


class _Budget:
    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def charge(self, nodes: int):
        """Spend nodes at once; past the limit, spent stops at limit + 1."""
        self.spent += nodes
        if self.spent > self.limit:
            self.spent = self.limit + 1
            raise BudgetExceeded


# ---------------------------------------------------------------------------
# shift rules and the two searches


@dataclass(frozen=True)
class _Rule:
    """How difference sets of one kind grow; the cover search reads nothing else.

    size: number of counters (shifts 1..N or group slots).
    pinned: elements placed before the search starts; the others skip them.
    candidates(last, left): range for the next element after the previous
    unpinned one (None before the first) when `left` elements, this one
    included, remain to be placed.
    start: the state of the empty set.
    grow(state, x): (state, hits) after placing x.  Block r of hits, its
    bits r*size + d over the counters d, holds the counters that x raises
    more than r times; it has at most `step` blocks.
    reach(state): the most counts one more element adds by pairing with the
    elements placed so far; t more elements add at most
    t*reach + step*t*(t - 1)/2.
    step: the most one new element raises any one counter.
    screen(state, missing, c, t): None, or the candidates, ascending, whose
    child may pass the deficit bound: with `missing` the counters below g,
    those whose drop plus t*(reach(child) - 1) is at least c > 0.  Only a
    rule whose candidates hold no pinned element has one.
    dead: the counters that stand for nothing (a group's padding slots);
    they are held full from the start and never hit.
    """

    size: int
    pinned: tuple[int, ...]
    candidates: Callable[[int | None, int], range]
    start: object
    grow: Callable[[object, int], tuple[object, int]]
    reach: Callable[[object], int]
    step: int
    screen: Callable[[object, int, int, int], Iterable[int]] | None = None
    dead: int = 0


@dataclass(frozen=True)
class _Sums:
    """How Sidon sets of one kind grow; the pack search reads nothing else.

    Elements of `universe` are placed in ascending order, `pinned` first.
    Counters count sums of ordered pairs: placing x adds 1 to the counter of
    x + x and 2 to that of a + x for each a placed before; these are
    distinct.  The counter of a + x is reduce[offsets[a] + offsets[x]].
    """

    size: int
    universe: range
    pinned: tuple[int, ...]
    offsets: Sequence[int]
    reduce: Sequence[int]


_BITS = bytes.maketrans(b"01", b"\0\1")  # bin() digits to byte values
# Largest group solved, and 4x it the most slots of its layout: every group of
# rank <= 2 within the limit fits.  Z/500 x Z/500 has 10^6 slots, held in
# numpy arrays, lists and copy masks of that many bits.
_SOLVE_LIMIT = 250_000


def _ascending(lo: int, hi: int):
    """Next element above the last one in [lo, hi), leaving room for the rest."""
    return lambda last, left: range(lo if last is None else last + 1, hi - left + 1)


def _padded(group: GroupSpec):
    """group's slot layout (module docstring): offsets, neg and reduce as
    int64 arrays, offsets[x] and neg[x] the slots of x and -x and reduce[s]
    the flat index of the sum slot s; the masks zero, of 0 at its 2^rank
    copies, and live, of every element's slot; and wrap.  Refused with a
    ValueError above _SOLVE_LIMIT elements or 4*_SOLVE_LIMIT slots (2^rank*|G|,
    the span of a copy mask), before anything is built.
    """
    order = _enumerable(group, _SOLVE_LIMIT)
    slots = 2**group.rank * order
    if slots > 4 * _SOLVE_LIMIT:
        raise ValueError(f"group of order {order} needs {slots} slots to solve (limit {4 * _SOLVE_LIMIT})")
    factors, strides, steps = group.factors, group.strides(), [1]
    for m in factors[:0:-1]:  # each inner axis 2m slots wide
        steps.insert(0, 2 * m * steps[0])
    offsets = neg = reduce = np.zeros(1, dtype=np.int64)
    zero = live = 1
    for m, stride, step in zip(factors, strides, steps):  # grids in flat order
        c = np.arange(m)
        offsets = np.add.outer(offsets, c * step).ravel()
        neg = np.add.outer(neg, -c % m * step).ravel()
        reduce = np.add.outer(reduce, np.arange(2 * m) % m * stride).ravel()
        zero *= 1 + (1 << m * step)  # coordinates 0 and m on this axis
        live *= ((1 << m * step) - 1) // ((1 << step) - 1)  # 0, ..., m - 1
    return offsets, neg, reduce, zero, live, sum(m * step for m, step in zip(factors, steps))


def _charged(budget: _Budget, cands: range, picks=None, skip=frozenset(), end=None):
    """Yield the picks (default: all of cands) in ascending order, charging
    one node per candidate through each one before it is yielded, those
    screened out included, so a budget stops the search at the first
    candidate past its limit.  A pin in skip is no child and is not charged.
    The scan stops at the first candidate at or past end(), read again after
    each yield, and charges it nothing.  When the picks run out the rest of
    cands is charged; a caller that stops early charges nothing more.
    """
    mark = cands.start - 1  # x - mark: the candidates through x not yet charged
    stop = cands.stop if end is None else end()
    for x in cands if picks is None else picks:
        if x >= stop:
            return
        if x in skip:
            mark += 1
            continue
        budget.charge(x - mark)
        mark = x
        yield x
        if end is not None:
            stop = end()
    budget.charge(cands.stop - 1 - mark)


def _cover_at_size(rule: _Rule, g: int, k: int, budget: _Budget):
    """Lexicographically first k-set through the pins with every counter at
    least g, or None.

    levels has g + step blocks laid out like those of hits, block i holding
    the counters at least g - i (so blocks g and up are full).  A child is
    checked in its parent's loop, its levels raised only when it passes the
    deficit check; it keeps them, so backtracking undoes nothing.  The rule's
    screen, if any, drops children that fail the deficit bound before they
    are grown; `_charged` still counts each as one node.
    """
    if len(rule.pinned) > k:
        return None
    candidates, grow, reach, step, size, screen = (
        rule.candidates, rule.grow, rule.reach, rule.step, rule.size, rule.screen
    )
    skip = frozenset(rule.pinned)
    full = (1 << size) - 1
    copies = sum(1 << (i * size) for i in range(g))  # h * copies: h in blocks 0..g-1
    path: list[int] = []  # the cover, from its last element back

    def lift(levels, hits):
        """Levels after the hits: r hits lift a counter from block i + r into block i."""
        old = levels
        for r in range(1, step + 1):
            levels |= ((hits >> ((r - 1) * size)) & full) * copies & (old >> (r * size))
        return levels

    def too_low(levels, t) -> bool:
        """The least counter is below g - step*t: too low to reach g."""
        low = step * t
        return low < g and (levels >> (low * size)) & full != full

    def extend(last, state, levels, deficit, t) -> bool:
        t -= 1  # left to place below a child
        pairs = step * t * (t - 1) // 2
        cands = candidates(last, t + 1)
        c = deficit - t - pairs  # at most 0: every child passes the bound
        picks = None if screen is None or c <= 0 else screen(state, full & ~levels, c, t)
        for x in _charged(budget, cands, picks, skip):
            child, hits = grow(state, x)
            d = deficit - (hits & ~levels).bit_count()
            if t == 0:
                if d:
                    continue
            elif d > t * reach(child) + pairs:
                continue
            else:
                child_levels = lift(levels, hits)
                if too_low(child_levels, t) or not extend(x, child, child_levels, d, t):
                    continue
            path.append(x)
            return True
        return False

    state, deficit = rule.start, g * (size - rule.dead.bit_count())
    levels = sum(full << (i * size) for i in range(g, g + step)) | rule.dead * copies
    for x in rule.pinned:
        state, hits = grow(state, x)
        deficit -= (hits & ~levels).bit_count()
        levels = lift(levels, hits)
    t = k - len(rule.pinned)
    budget.charge(1)
    if (
        deficit > t * reach(state) + step * t * (t - 1) // 2
        or too_low(levels, t)
        or t and not extend(None, state, levels, deficit, t)
    ):
        return None
    return list(rule.pinned) + path[::-1]


def _cover(rule: _Rule, g: int, lo: int, fallback: list[int], budget: _Budget):
    """(elements, exhaustive): the lex-first least cover, deepening from lo.

    `fallback` is a known cover.  The search at its size always succeeds, so
    deepening stops there; on budget exhaustion the fallback is returned.
    """
    try:
        for k in range(lo, len(fallback) + 1):
            found = _cover_at_size(rule, g, k, budget)
            if found is not None:
                return found, True
    except BudgetExceeded:
        return fallback, False
    raise AssertionError("no cover found at the size of a known one")


def _pack(rule: _Sums, g: int, budget: _Budget):
    """(elements, exhaustive): the lex-first largest set, counters at most g.

    DFS meets sets of equal size in lex order and the bound only cuts
    branches that cannot beat the best so far, so the first optimum found is
    the lex-first one.  A candidate is dropped at the first counter without
    room, before any counter is raised.  Each candidate tested is one node
    (`_charged`).  On budget exhaustion the best set so far is returned.
    """
    offsets, reduce, top = rule.offsets, rule.reduce, rule.universe.stop
    counts = [0] * rule.size
    # an n-set adds n^2 counts in all; under g = 1 no pair fits, since a + x
    # with a != x is counted twice
    cap = 1 if g == 1 else math.isqrt(g * rule.size)
    chosen: list[int] = []
    slots: list[int] = []  # offsets[a] for each chosen a
    best: list[int] = []

    def place(x, at):
        counts[reduce[at + at]] += 1
        for a in slots:
            counts[reduce[a + at]] += 2
        chosen.append(x)
        slots.append(at)

    def extend():
        s = len(chosen)
        if s > len(best):
            best[:] = chosen
        if s >= cap:
            return
        first = chosen[-1] + 1 if chosen else rule.universe.start
        # from x on, at most min(cap, s + top - x) elements: none beats best
        end = lambda: s + top - len(best) if cap > len(best) else first
        for x in _charged(budget, range(first, top), end=end):
            at = offsets[x]
            if counts[reduce[at + at]] == g:
                continue
            for a in slots:
                if counts[reduce[a + at]] > g - 2:
                    break
            else:
                place(x, at)
                extend()
                chosen.pop()
                slots.pop()
                counts[reduce[at + at]] -= 1
                for a in slots:
                    counts[reduce[a + at]] -= 2

    for x in rule.pinned:
        place(x, offsets[x])
    try:
        budget.charge(1)
        extend()
    except BudgetExceeded:
        return best, False
    return best, True


# ---------------------------------------------------------------------------
# eta and gamma: minimum g-difference sets


def _greedy_difference_cover(g: int, N: int) -> list[int]:
    """Blocks plus a ladder: [0, gc) with rungs at multiples of c; always valid."""
    c = max(1, ceil_sqrt((N + g - 1) // g))
    top = (N + c - 1) // c + g
    return sorted(set(range(g * c)) | {j * c for j in range(1, top + 1)})


def eta_exact(g: int, N: int, cfg: SearchConfig = SearchConfig()) -> ExtremalResult:
    """Minimum size of a g-difference set for [N], with lex-min witness.

    Iterative deepening from the covering bound ceil(sqrt(2gN)) up to the
    size of an explicit cover, with every gap at most N (gap compression).
    """
    g, N = int(g), int(N)
    if g < 1 or N < 1:
        raise ValueError("need g >= 1 and N >= 1")

    first = 1 if cfg.translation_fix else 0  # past the pinned 0

    def candidates(last, left):
        return range(first, N + 1) if last is None else range(last + 1, last + N + 1)

    full = (1 << N) - 1

    def grow(state, x):
        # state: the last element placed and `live`, bit i set for each
        # placed last - i with i < N; x hits counter x - a - 1 =
        # (last - a) + (x - last - 1) for each live a: one shift of live
        live, last = state
        hit = (live << (x - last - 1)) & full
        return (((hit << 1) | 1) & full, x), hit

    # The screen's product, shifted down live.bit_length() slots, holds in
    # slot s the drop of child x = last + 1 + s plus t*R(s), R(s) the live
    # bits still live after x (reach(child) = 1 + R(s)); adding half - c sets
    # a slot's top bit when it reaches c.  A node with p elements placed and
    # k = p + 1 + t in the end fills a slot to at most p*(t + 1) <= k*k/4,
    # and its own bound keeps c at most that: q bytes hold it below the top bit.
    fallback = _greedy_difference_cover(g, N)
    q = (len(fallback) ** 2 // 4).bit_length() // 8 + 1
    w = 8 * q
    low = ((1 << (w * N)) - 1) // ((1 << w) - 1)  # 1 in each of N slots
    stays = low >> w  # 1 in slots 0..N - 2: the live bits a shift keeps below N - 1
    high, half = low << (w - 1), 1 << (w - 1)

    def spread(m: int, order: str) -> int:
        """m's bits in w-bit slots, read in `order`: bit i in slot i for
        "big", in slot m.bit_length() - i for "little" (slot 0 empty)."""
        digits = bin(m).encode().translate(_BITS, b"b")
        if q > 1:
            slots = bytearray(q * len(digits))
            slots[q - 1 if order == "big" else 0 :: q] = digits
            digits = slots
        return int.from_bytes(digits, order)

    def screen(state, missing, c, t):
        live, last = state
        product = spread(live, "little") * (spread(missing, "big") + t * stays)
        passing = ((product >> (w * live.bit_length())) + low * (half - c)) & high
        while passing:
            bit = passing & -passing
            yield last + bit.bit_length() // w  # x = last + 1 + s
            passing ^= bit

    rule = _Rule(
        size=N,  # counter m - 1 holds shift m
        pinned=(0,) if cfg.translation_fix else (),
        candidates=candidates,
        start=(0, -1),  # nothing live; any first x shifts by x >= 0
        grow=grow,
        # a later x pairs only with the live elements, those in (last - N, last]
        reach=lambda state: state[0].bit_count(),
        step=1,
        screen=screen,
    )
    budget = _Budget(cfg.node_budget)
    elems, exhaustive = _cover(rule, g, max(2, ceil_sqrt(2 * g * N)), fallback, budget)
    witness = IntSet.of(elems)
    assert verify_certificate(witness, g=g, N=N, mode="difference").passed
    return ExtremalResult("eta", g, N, None, witness.size, witness, exhaustive, budget.spent)


def _basis_pins(group: GroupSpec) -> tuple[int, ...]:
    """gamma's pins beside 0 (module docstring): the flat indices of e_1,
    ..., e_n in (Z/p)^n, else flat index 1."""
    p = group.factors[0]
    if is_prime(p) and all(m == p for m in group.factors):
        return group.strides()
    return (1,) if group.order > 1 else ()


def _cyclic_cover(g: int, group: GroupSpec) -> list[int] | None:
    """`_greedy_difference_cover(g, n // 2)` when the group is Z/n, its
    elements lie below n and it is smaller than the group; else None.

    It is then a g-difference subset of Z/n: its elements are distinct mod
    n, so each ordered pair with difference d in [1, n/2] counts once at the
    residue d and its reverse once at -d, and every nonzero residue is d or
    -d for such a d; the residue 0 counts |A| >= g.
    """
    n = group.order
    if group.rank != 1:
        return None
    cover = _greedy_difference_cover(g, n // 2)
    return cover if cover[-1] < n and len(cover) < n else None


def gamma_exact(g: int, group: GroupSpec, cfg: SearchConfig = SearchConfig()) -> ExtremalResult:
    """Minimum size of a g-difference subset of a finite abelian group.

    0 and `_basis_pins(group)` are pinned into A (module docstring: the
    lex-first witness contains them).  Deepening starts at the strict
    half-plus-root covering bound and stops at the size of the fallback, the
    answer on budget exhaustion: `_cyclic_cover` in Z/n, else the whole
    group.
    """
    g = int(g)
    if g < 1 or g > group.order:
        raise ValueError("need 1 <= g <= |G|")
    offsets, neg, _, zero, live, wrap = _padded(group)
    size = live.bit_length()
    offsets, neg = offsets.tolist(), neg.tolist()

    def grow(state, x):
        # state: the copy masks of A and -A, and |A|
        mine, theirs, n = state
        at = offsets[x]
        up = (mine >> at) & live | 1  # {0} | (A - x)
        down = (theirs >> (wrap - at)) & live  # x - A
        state = mine | zero << at, theirs | zero << neg[x], n + 1
        return state, (up | down) | (up & down) << size

    rule = _Rule(
        size=size,
        pinned=(0,) + _basis_pins(group) if cfg.translation_fix else (),
        candidates=_ascending(0, group.order),
        start=(0, 0, 0),
        grow=grow,
        reach=lambda state: 2 * state[2] + 1,  # x - a, a - x and x - x
        step=2,  # x raises d through a = x + d and a = x - d
        dead=((1 << size) - 1) ^ live,
    )
    lo = max(trivial_bounds(g, group=group).sharper_cover_lower, g, 1)
    budget = _Budget(cfg.node_budget)
    fallback = _cyclic_cover(g, group) or list(range(group.order))
    flats, exhaustive = _cover(rule, g, lo, fallback, budget)
    witness = GroupSubset(group, _residues(group, np.asarray(flats, dtype=np.int64)))
    assert verify_certificate(witness, g=g, mode="difference").passed
    return ExtremalResult(
        "gamma", g, None, group, witness.size, witness, exhaustive, budget.spent
    )


# ---------------------------------------------------------------------------
# beta and alpha: maximum g-Sidon sets


def beta_exact(g: int, N: int, cfg: SearchConfig = SearchConfig()) -> ExtremalResult:
    """Maximum size of a g-Sidon subset of [1, N], with lex-min witness.

    On budget exhaustion the best packing found so far is returned (the
    singleton {1} at worst) with exhaustive=False; the value is then only a
    lower bound.
    """
    g, N = int(g), int(N)
    if g < 1 or N < 1:
        raise ValueError("need g >= 1 and N >= 1")

    rule = _Sums(
        size=2 * N - 1,  # counter s - 2 holds the sum s
        universe=range(1, N + 1),
        pinned=(),
        offsets=list(range(-1, N)),  # a + x has slot a + x - 2
        reduce=list(range(2 * N - 1)),
    )
    budget = _Budget(cfg.node_budget)
    elems, exhaustive = _pack(rule, g, budget)
    witness = IntSet.of(elems or [1])
    assert verify_certificate(witness, g=g, N=N, mode="sidon").passed
    return ExtremalResult(
        "beta", g, N, None, witness.size, witness, exhaustive, budget.spent
    )


def alpha_exact(g: int, group: GroupSpec, cfg: SearchConfig = SearchConfig()) -> ExtremalResult:
    """Maximum size of a g-Sidon subset of a finite abelian group.

    The canonical witness contains 0 (sum profiles of translates are shifts
    of each other, so the optimum is attained through 0).  On budget
    exhaustion the best packing found so far is returned (a singleton at
    worst) with exhaustive=False.
    """
    g = int(g)
    if g < 1:
        raise ValueError("need g >= 1")
    offsets, _, reduce, _, _, _ = _padded(group)
    rule = _Sums(
        size=group.order,
        universe=range(group.order),
        pinned=(0,) if cfg.translation_fix else (),
        offsets=offsets.tolist(),
        reduce=reduce.tolist(),
    )
    budget = _Budget(cfg.node_budget)
    flats, exhaustive = _pack(rule, g, budget)
    witness = GroupSubset(group, _residues(group, np.asarray(flats or [0], dtype=np.int64)))
    assert verify_certificate(witness, g=g, mode="sidon").passed
    return ExtremalResult(
        "alpha", g, None, group, witness.size, witness, exhaustive, budget.spent
    )


# ---------------------------------------------------------------------------
# ratio table


def ratio_rows(results, ledger: BoundsLedger = BoundsLedger()) -> list[dict]:
    """One row per result: value/sqrt(g * param) to 6 places and a flag.

    param is N for interval rows and |G| for group rows.  An exhaustive eta
    row below the published tau lower bound is flagged FATAL (it would
    contradict the covering theorem); that check squares both sides,
    rationals only.
    """
    rows = []
    for r in results:
        fatal = r.quantity == "eta" and r.exhaustive and not ledger.eta_ratio_ok(r.value, r.g, r.N)
        rows.append(
            {
                "quantity": r.quantity,
                "g": r.g,
                "param": r.size_param,
                "value": r.value,
                "ratio": round(r.ratio(), 6),
                "flag": "FATAL" if fatal else "ok",
            }
        )
    return rows


def ratio_report(rows: list[dict]) -> str:
    """CSV of the ratio_rows given, under the header
    quantity,g,param,value,ratio,flag."""
    lines = ["quantity,g,param,value,ratio,flag"]
    for row in rows:
        lines.append(
            f"{row['quantity']},{row['g']},{row['param']},{row['value']},"
            f"{row['ratio']:.6f},{row['flag']}"
        )
    return "\n".join(lines) + "\n"
