"""Profiles, certificates, and bounds against independent oracles."""

import copy
import decimal
import math
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

import oracles
from diffsets import core_sets
from diffsets.core_sets import (
    BoundsLedger,
    GroupSpec,
    GroupSubset,
    IntSet,
    ceil_sqrt,
    floor_sqrt,
    format_fraction,
    group_rep_profile,
    parse_fraction,
    rep_diff_profile,
    rep_sum_profile,
    trivial_bounds,
    verify_certificate,
)


# --- frozen examples (values computed by tests/oracles.py) -----------------


def test_diff_profile_small():
    prof = rep_diff_profile(IntSet.of([0, 1, 3]), (1, 3))
    assert prof.counts == {1: 1, 2: 1, 3: 1}
    assert prof.min_count == 1 and prof.max_count == 1


def test_diff_profile_zero_shift_is_size():
    prof = rep_diff_profile(IntSet.of([2, 5, 9, 11]), (0, 0))
    assert prof.counts == {0: 4}


def test_diff_profile_covers_unrealized_shifts():
    prof = rep_diff_profile(IntSet.of([0, 5]), (-1, 1))
    assert prof.counts == {-1: 0, 0: 2, 1: 0}


def test_sum_profile_small():
    prof = rep_sum_profile(IntSet.of([0, 1]), (0, 2))
    assert prof.counts == {0: 1, 1: 2, 2: 1}
    prof = rep_sum_profile(IntSet.of([1, 2, 4]), (2, 8))
    assert prof.counts == {2: 1, 3: 2, 4: 1, 5: 2, 6: 2, 7: 0, 8: 1}


def test_group_profile_perfect_difference_set():
    A = GroupSubset.of(GroupSpec((7,)), [(1,), (2,), (4,)])
    prof = group_rep_profile(A, "difference")
    assert prof.counts[(0,)] == 3
    assert all(prof.counts[(m,)] == 1 for m in range(1, 7))


def test_verify_difference_pass_and_fail():
    v = verify_certificate(IntSet.of([0, 1, 3]), g=1, N=3, mode="difference")
    assert v.passed and v.achieved_g == 1 and v.witness is None
    v = verify_certificate(IntSet.of([0, 1]), g=1, N=2, mode="difference")
    assert not v.passed and v.witness == 2 and v.achieved_g == 0
    A = GroupSubset.of(GroupSpec((7,)), [(1,), (2,), (4,)])
    v = verify_certificate(A, g=1, mode="difference")
    assert v.passed and v.achieved_g == 1


def test_verify_sidon_pass_and_fail():
    v = verify_certificate(IntSet.of([1, 2, 4]), g=2, N=4, mode="sidon")
    assert v.passed and v.achieved_g == 2
    v = verify_certificate(IntSet.of([1, 2, 3]), g=1, N=3, mode="sidon")
    assert not v.passed and v.achieved_g == 3 and v.witness == 3


def test_verify_sidon_requires_support_in_range():
    with pytest.raises(ValueError, match="support"):
        verify_certificate(IntSet.of([0, 1]), g=1, N=3, mode="sidon")
    with pytest.raises(ValueError, match="support"):
        verify_certificate(IntSet.of([1, 5]), g=1, N=3, mode="sidon")


def test_verify_argument_errors():
    with pytest.raises(ValueError):
        verify_certificate(IntSet.of([0, 1]), g=0, N=2)
    with pytest.raises(ValueError):
        verify_certificate(IntSet.of([0, 1]), g=1)  # N missing
    with pytest.raises(ValueError):
        verify_certificate(GroupSubset.of(GroupSpec((5,)), [(0,)]), g=1, N=5)
    with pytest.raises(ValueError, match="empty"):
        rep_diff_profile(IntSet.of([]), (0, 1))
    with pytest.raises(ValueError, match="2\\^62"):
        verify_certificate(IntSet.of([0, 2**62]), g=1, N=5)


def test_trivial_bounds_interval():
    tb = trivial_bounds(1, N=3)
    assert tb.min_cover_lower == 3  # ceil sqrt 6
    assert tb.max_packing_upper == 2
    tb = trivial_bounds(1, N=1)
    assert tb.min_cover_lower == 2  # ceil sqrt 2
    tb = trivial_bounds(2, N=5)
    assert tb.max_packing_upper == 4  # floor sqrt 20


def test_trivial_bounds_group():
    tb = trivial_bounds(1, group=GroupSpec((7,)))
    assert tb.min_cover_lower == 3  # ceil sqrt 7
    assert tb.sharper_cover_lower == 3  # strictly above 1/2 + sqrt 6 = 2.949
    assert tb.warning is None
    tb = trivial_bounds(9, group=GroupSpec((7,)))
    assert tb.warning is not None


def test_trivial_bounds_sharper_is_strict_on_exact_root():
    # g(|G|-1) = 9: 1/2 + 3 = 3.5 -> 4 either way; g(|G|-1)=4: 1/2+2=2.5 -> 3
    tb = trivial_bounds(1, group=GroupSpec((5,)))
    assert tb.sharper_cover_lower == 3
    tb = trivial_bounds(1, group=GroupSpec((10,)))
    assert tb.sharper_cover_lower == 4


def test_exact_integer_roots():
    for n in list(range(0, 400)) + [10**12, 10**12 + 1, 10**14 - 1]:
        assert floor_sqrt(n) ** 2 <= n < (floor_sqrt(n) + 1) ** 2
        if n:
            assert ceil_sqrt(n - 1 + 1) ** 2 >= n > (ceil_sqrt(n) - 1) ** 2


# --- randomized agreement with oracles --------------------------------------


def test_interval_profiles_match_oracle_randomized():
    rng = random.Random(20260815)
    for _ in range(40):
        k = rng.randint(1, 12)
        elems = sorted(rng.sample(range(-30, 31), k))
        A = IntSet.of(elems)
        lo = rng.randint(-70, 0)
        hi = lo + rng.randint(0, 140)
        want = oracles.diff_counts(elems)
        prof = rep_diff_profile(A, (lo, hi))
        assert prof.counts == {m: want.get(m, 0) for m in range(lo, hi + 1)}
        want = oracles.sum_counts(elems)
        prof = rep_sum_profile(A, (lo, hi))
        assert prof.counts == {m: want.get(m, 0) for m in range(lo, hi + 1)}


@pytest.fixture
def convolutions(monkeypatch):
    """Operand length of every kernel call; none means the pair path."""
    calls = []
    real = core_sets._convolve

    def spy(x, **kw):
        calls.append(len(x))
        return real(x, **kw)

    monkeypatch.setattr(core_sets, "_convolve", spy)
    return calls


def test_dense_set_takes_decimal_path_and_agrees(convolutions):
    # a hull of 1800 cells against 1.44M pairs: one packed decimal product
    elems = list(range(0, 1200, 2)) + list(range(1200, 1800))
    A = IntSet.of(elems)
    want = oracles.diff_counts(elems)
    prof = rep_diff_profile(A, (-40, 40))
    assert prof.counts == {m: want.get(m, 0) for m in range(-40, 41)}
    v = verify_certificate(A, g=min(want.get(m, 0) for m in range(1, 101)), N=100)
    assert v.passed
    assert convolutions == [1800, 1800]


def test_sparse_wide_set_takes_pair_path(convolutions):
    elems = [0, 10_000_000, 30_000_001]
    prof = rep_diff_profile(IntSet.of(elems), (9_999_999, 10_000_001))
    assert prof.counts == {9_999_999: 0, 10_000_000: 1, 10_000_001: 0}
    assert convolutions == []


def _record_np_add(monkeypatch, method, size):
    """Give core_sets a numpy whose np.add.<method> records size(args,
    result) of every call; returns the list of sizes."""
    sizes, real = [], getattr(np.add, method)

    def recorded(*args):
        result = real(*args)
        sizes.append(size(args, result))
        return result

    class Add:  # np.add, with one method recording
        def __call__(self, *args, **kwargs):
            return np.add(*args, **kwargs)

        def __getattr__(self, name):
            return recorded if name == method else getattr(np.add, name)

    class Numpy:  # numpy, with that np.add
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(core_sets, "np", Numpy())
    return sizes


@pytest.fixture
def add_at(monkeypatch):
    """Index count of every np.add.at call in core_sets: one per binned chunk."""
    return _record_np_add(monkeypatch, "at", lambda args, _: np.size(args[1]))


@pytest.fixture
def pair_chunks(monkeypatch):
    """Pair count of every np.add.outer call in core_sets: one per line chunk."""
    return _record_np_add(monkeypatch, "outer", lambda _, keys: keys.size)


@pytest.mark.parametrize("path", ["decimal", "pairs-dense", "pairs-sorted"])
def test_pair_counts_windows_against_oracle(convolutions, add_at, path):
    # negative elements, windows across and past the hull.  Each set takes
    # the path under test by its size alone: a hull of at most k^2/128 cells
    # multiplies; a sparser set bins its pairs into a window of at most k^2
    # shifts (k >= 11 against at most 101 shifts) or sorts them for a wider
    # one (k <= 9 against more than k^2 shifts).
    rng = random.Random(2024)
    for _ in range(30):
        if path == "decimal":
            elems = sorted(rng.sample(range(-150, 150), rng.randint(200, 260)))
        else:
            k = rng.randint(11, 40) if path == "pairs-dense" else rng.randint(2, 9)
            elems = sorted(rng.sample(range(-2000, 2000), k))
        k, span = len(elems), elems[-1] - elems[0]
        for mode, oracle in (("difference", oracles.diff_counts), ("sum", oracles.sum_counts)):
            want = oracle(elems)
            reach = [min(want), max(want)]
            if path == "pairs-sorted":
                width = rng.randint(k * k + 1, reach[1] - reach[0] + 1)
                lo = rng.randint(reach[0], reach[1] - width + 1)
                hi = lo + width - 1 + rng.choice([0, 50])
            else:
                centre = rng.choice(reach + [rng.randint(*reach)])
                lo = centre - rng.randint(0, 50)
                hi = centre + rng.randint(0, 50)
            shifts, counts = core_sets._pair_counts(tuple(elems), mode, lo, hi)
            # the dense paths hand over their whole window, zeros included
            assert isinstance(shifts, range) == (path != "pairs-sorted")
            got = dict(zip(map(int, shifts), counts.tolist()))
            assert list(got) == sorted(got) and len(got) == len(counts)
            assert {m: c for m, c in got.items() if c} == {m: c for m, c in want.items() if lo <= m <= hi}
            assert all(lo <= m <= hi and c == want.get(m, 0) for m, c in got.items())
            assert counts.dtype == np.asarray(shifts).dtype == np.int64
            assert len(counts) <= 2 * span + 1
    assert bool(convolutions) == (path == "decimal")
    assert bool(add_at) == (path == "pairs-dense")


@pytest.mark.parametrize("chunk", [None, 7, 64])
def test_pair_counts_edge_windows_against_oracle(monkeypatch, convolutions, pair_chunks, chunk):
    # windows at, across and past each end of the reach, one shift wide or
    # the whole reach, for one-element sets, dense sets (the product) and
    # sparse ones (the banded pairs); small chunks put chunk boundaries
    # inside the band, and no chunk holds more than the chunk's pairs
    if chunk is not None:
        monkeypatch.setattr(core_sets, "_CHUNK_CELLS", chunk)
    rng = random.Random(chunk)
    sets = [[5], [-3], [0, 1], [-7, 7]]
    for _ in range(6):
        sets.append(sorted(rng.sample(range(-2000, 2000), rng.randint(2, 40))))
        sets.append(sorted(rng.sample(range(-150, 150), rng.randint(200, 260))))
        cluster = rng.sample(range(60), 12)
        sets.append(sorted(c + o for o in (0, 500, 5000) for c in cluster))
    for elems in sets:
        k = len(elems)
        for mode, oracle in (("difference", oracles.diff_counts), ("sum", oracles.sum_counts)):
            want = oracle(elems)
            first, last = min(want), max(want)
            windows = [(first, last), (first, first), (last, last), (first - 3, last + 3), (1, 60)]
            windows += [(first - 9, first - 1), (last + 1, last + 9)]  # past the reach
            windows += [sorted(rng.randint(first - 5, last + 5) for _ in range(2)) for _ in range(4)]
            for lo, hi in windows:
                pair_chunks.clear()
                shifts, counts = core_sets._pair_counts(tuple(elems), mode, lo, hi)
                got = dict(zip(map(int, shifts), counts.tolist()))
                assert all(lo <= m <= hi for m in got) and counts.dtype == np.int64
                assert {m: c for m, c in got.items() if c} == {m: c for m, c in want.items() if lo <= m <= hi}
                assert max(pair_chunks, default=0) <= max(core_sets._CHUNK_CELLS, k)
    assert convolutions  # the dense sets multiplied


def test_banded_pairs_skip_what_cannot_reach_the_window(pair_chunks):
    # the benchmark's sparse shape: four copies of one 250-element cluster
    # spread over 10^7.  Only pairs within a cluster can land in [1, 1000],
    # and a chunk of rows meets its own cluster's columns and at most the
    # next one's, so far fewer than the 10^6 pairs are formed
    rng = random.Random(3)
    cluster = rng.sample(range(3000), 250)
    elems = sorted(c + o for o in (0, 2_000_000, 6_000_000, 9_990_000) for c in cluster)
    shifts, counts = core_sets._pair_counts(tuple(elems), "difference", 1, 1000)
    want = [0] * 1001
    for a in elems:
        for b in elems[bisect_right(elems, a) : bisect_right(elems, a + 1000)]:
            want[b - a] += 1
    assert (shifts, counts.tolist()) == (range(1, 1001), want[1:])
    # a chunk ends where the rows' bands stop meeting, so it forms at most
    # a few times the pairs that land (68,720 of them), not a cluster's
    # share of all the columns
    landed = sum(want)
    assert 0 < 2 * sum(pair_chunks) < 5 * landed, (sum(pair_chunks), landed)


@pytest.mark.parametrize(
    "factors, k, decimal_path",
    [((60, 90), 300, True), ((2,) * 12, 60, False)],
    ids=["plane-decimal", "cube-pairs"],
)
def test_group_counts_paths_against_oracle(convolutions, factors, k, decimal_path):
    # Z/60 x Z/90 pads to 119 x 179 = 21,301 cells: 3 per cell plus 4096 is
    # under the 90,000 pairs of k = 300; (Z/2)^12 pads to 3^12
    spec = GroupSpec(factors)
    rng = random.Random(sum(factors))
    A = GroupSubset.of(spec, rng.sample(list(spec.elements()), k))
    for mode in ("difference", "sum"):
        oracle = oracles.group_diff_counts if mode == "difference" else oracles.group_sum_counts
        arr = core_sets._group_counts(core_sets._flat(spec, A.elements), spec, mode).tolist()
        assert dict(zip(spec.elements(), arr)) == oracle(factors, A.elements)
    assert bool(convolutions) == decimal_path


@pytest.mark.parametrize(
    "factors, k, decimal_path",
    [
        ((5,), 4, False),
        ((8,), 4, False),
        ((12,), 5, False),
        ((2, 4), 5, False),
        ((2, 2, 3), 7, False),
        ((600,), 36, False),
        ((2000,), 100, False),
        ((401,), 140, True),
        ((101, 101), 404, True),
        ((5000,), 1000, True),
    ],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_group_count_path_follows_the_cost_rule(convolutions, factors, k, decimal_path):
    # the product's fixed cost is about 4096 pairs, and each padded cell costs
    # about 3: the witnesses of the small solves, with k^2 at least their
    # padded cells, and Z/600 or Z/2000 bin their pairs, while Z/401, the
    # plane (Z/101)^2 of the pipeline and the Monte Carlo's Z/5000 multiply
    spec = GroupSpec(factors)
    rng = random.Random(k)
    flat = np.array(sorted(rng.sample(range(spec.order), k)), dtype=np.int64)
    A = GroupSubset.of(spec, core_sets._residues(spec, flat))
    assert math.prod(2 * n - 1 for n in factors) <= k * k
    modes = ("difference", "sum") if k <= 150 else ("difference",)
    for mode in modes:
        oracle = oracles.group_diff_counts if mode == "difference" else oracles.group_sum_counts
        arr = core_sets._group_counts(A.flat, spec, mode).tolist()
        assert dict(zip(spec.elements(), arr)) == oracle(factors, A.elements)
    assert len(convolutions) == (len(modes) if decimal_path else 0)


def test_group_product_is_bounded_by_the_order_limit(monkeypatch, convolutions):
    # Z/300 pads to 599 cells, and 3 * 599 + 4096 is under the 6,400 pairs of
    # k = 80: the cost rule alone would multiply, but the box is over the limit
    monkeypatch.setattr(core_sets, "_ORDER_LIMIT", 400)
    spec = GroupSpec((300,))
    A = GroupSubset.of(spec, random.Random(300).sample(list(spec.elements()), 80))
    for mode in ("difference", "sum"):
        oracle = oracles.group_diff_counts if mode == "difference" else oracles.group_sum_counts
        arr = core_sets._group_counts(A.flat, spec, mode).tolist()
        assert dict(zip(spec.elements(), arr)) == oracle(spec.factors, A.elements)
    assert convolutions == []


def test_pair_paths_across_chunks(monkeypatch, add_at):
    # chunks of 64 pairs: many per count on the line and in a group, each
    # np.add.at call bounded by the chunk however wide the window
    monkeypatch.setattr(core_sets, "_CHUNK_CELLS", 64)
    rng = random.Random(64)
    elems = sorted(rng.sample(range(100_000), 50))
    want = oracles.diff_counts(elems)
    for lo, hi in ((-100, 100), (-100_000, 100_000)):  # 201 <= 50^2 shifts bin, 200,001 sort
        shifts, counts = core_sets._pair_counts(tuple(elems), "difference", lo, hi)
        got = dict(zip(map(int, shifts), counts.tolist()))
        assert {m: c for m, c in got.items() if c} == {m: c for m, c in want.items() if lo <= m <= hi}
        assert bool(add_at) == (hi == 100)
        add_at.clear()
    # a sorted window that no pair reaches
    shifts, counts = core_sets._pair_counts((0, 10**6), "difference", 100, 200)
    assert (shifts.tolist(), counts.tolist(), counts.dtype) == ([], [], np.int64) and add_at == []
    core_sets._pair_counts(tuple(sorted(rng.sample(range(300), 50))), "sum", 0, 600)
    assert len(add_at) == 50 and max(add_at) <= 64  # every sum lands in the window
    spec = GroupSpec((2,) * 8)
    A = GroupSubset.of(spec, rng.sample(list(spec.elements()), 40))
    for mode in ("difference", "sum"):
        oracle = oracles.group_diff_counts if mode == "difference" else oracles.group_sum_counts
        arr = core_sets._group_counts(core_sets._flat(spec, A.elements), spec, mode).tolist()
        assert dict(zip(spec.elements(), arr)) == oracle(spec.factors, A.elements)
    add_at.clear()
    spec = GroupSpec((16, 16))
    core_sets._group_counts(core_sets._flat(spec, rng.sample(list(spec.elements()), 25)), spec, "sum")
    assert len(add_at) > 1 and max(add_at) * spec.rank <= 64  # rank cells per pair


@pytest.mark.parametrize(
    "elems, N",
    [([0, 5 * 10**6, 10**7], 10**7), (sorted(random.Random(100).sample(range(10**6), 100)), 10**6)],
    ids=["three-far-apart", "hundred-sparse"],
)
def test_pair_memory_follows_the_pairs_not_the_window(convolutions, elems, N):
    # windows of 10^6 and 10^7 shifts against 9 and 10^4 pairs: the pairs
    # are sorted, so no allocation grows with the window
    A = IntSet.of(elems)
    tracemalloc.start()
    try:
        v = verify_certificate(A, 1, N=N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert convolutions == []
    want = oracles.diff_counts(elems)
    witness = next(m for m in range(1, N + 1) if m not in want)
    assert (v.passed, v.achieved_g, v.witness) == (False, 0, witness)


@pytest.mark.parametrize("shape", ["group", "line"])
def test_verify_adds_no_window_long_index_list(convolutions, shape):
    # failing certificates on the pair paths, scaled down from 3,000 elements
    # of Z/(2*10^7) and 12,000 of [0, 1.59*10^7): past its count kernel,
    # verify_certificate may hold at most one byte per cell of the window
    rng = np.random.default_rng(1)
    if shape == "group":
        window = 2 * 10**6
        A = GroupSubset(GroupSpec((window,)), rng.choice(window, 950, replace=False)[:, None])
        kernel, kwargs = lambda: core_sets._group_counts(A.flat, A.group, "difference"), {}
    else:
        window = 1_590_000
        A = IntSet(rng.choice(window, 3800, replace=False))
        kernel, kwargs = lambda: core_sets._pair_counts(A.array, "difference", 1, window), {"N": window}
    peaks = []
    for run in (kernel, lambda: verify_certificate(A, 1, **kwargs)):
        tracemalloc.start()
        try:
            v = run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert convolutions == []
    assert peaks[1] <= peaks[0] + window, peaks
    # the least shift of count 0: every shift below it is some difference
    elems = A.array.tolist() if shape == "line" else A.flat.tolist()
    S, w = set(elems), v.witness if shape == "line" else v.witness[0]
    assert (v.passed, v.achieved_g) == (False, 0)
    assert not any((a + w) % window in S for a in elems)
    assert all(any((a + m) % window in S for a in elems) for m in range(1, w))


def test_verify_peak_is_about_one_window(convolutions):
    # 3,800 elements of [0, 1.59*10^6), scaled down from 12,000 of
    # [0, 1.59*10^7): the kernel's window of N int64 counts is verify's one
    # large array, with no index list or gathered copy beside it
    N = 1_590_000
    A = IntSet(np.random.default_rng(1).choice(N, 3800, replace=False))
    tracemalloc.start()
    try:
        v = verify_certificate(A, 1, N=N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert convolutions == []
    assert peak <= 1.5 * 8 * N, peak
    # the least shift of count 0: every shift below it is some difference
    S, w = set(A.array.tolist()), v.witness
    assert (v.passed, v.achieved_g) == (False, 0)
    assert not any(a + w in S for a in S)
    assert all(any(a + m in S for a in S) for m in range(1, w))


@pytest.mark.parametrize("elems", [(0, 1, 3), (0, 1, 4, 6), (0, 1, 4, 9, 11)])
def test_verify_counts_at_most_k_choose_2_plus_1_shifts(monkeypatch, elems):
    # the k(k-1)/2 pairs a > b leave a shift of count 0 in 1..k(k-1)/2+1,
    # so verify over [1, 10^12] asks the kernel for no shift past it
    asked, real = [], core_sets._pair_counts

    def spy(a, mode, lo, hi):
        asked.append(hi - lo + 1)
        return real(a, mode, lo, hi)

    monkeypatch.setattr(core_sets, "_pair_counts", spy)
    v = verify_certificate(IntSet.of(elems), 1, N=10**12)
    want = oracles.diff_counts(elems)
    witness = next(m for m in range(1, 10**12) if m not in want)
    assert (v.passed, v.achieved_g, v.witness) == (False, 0, witness)
    k = len(elems)
    assert len(asked) == 1 and asked[0] <= k * (k - 1) // 2 + 1


def test_pair_counts_refuses_more_slots_than_the_order_limit(monkeypatch, convolutions):
    # the product holds 2 span + 1 slots, the binned window n, the sorted
    # pairs k^2; one slot over the limit is refused
    monkeypatch.setattr(core_sets, "_ORDER_LIMIT", 400)
    sparse = tuple(range(0, 2 * 10**6, 10**5))  # 20 far-apart elements: 400 pairs
    for elems, hi, ok in (
        (tuple(range(200)), 10, True),  # the product of 399 slots
        (tuple(range(201)), 10, False),  # 401
        (sparse, 400, True),  # a window of 400 shifts
        (sparse, 401, True),  # 401 shifts, so the 400 pairs are sorted
        (sparse + (2 * 10**6,), 401, False),  # a window of 401 shifts
        (sparse + (2 * 10**6,), 10**6, False),  # 441 pairs
    ):
        if ok:
            core_sets._pair_counts(elems, "difference", 1, hi)
        else:
            with pytest.raises(ValueError, match="limit 400"):
                core_sets._pair_counts(elems, "difference", 1, hi)
    assert convolutions == [200]


def test_convolve_matches_oracle():
    # self and reverse products, of lists and of int64 arrays
    rng = random.Random(808)
    for _ in range(200):
        top = rng.choice([1, 9, 10**6, 10**17, 10**30])
        x = [rng.randint(0, top) for _ in range(rng.randint(1, 25))]
        operands = [x] + ([np.asarray(x, dtype=np.int64)] if top < 2**63 else [])
        for y, reverse in ((x, False), (x[::-1], True)):
            want = oracles.convolution(x, y)
            for a in operands:
                assert [int(v) for v in core_sets._convolve(a, reverse=reverse)] == want
    assert core_sets._convolve([0, 0]).tolist() == [0, 0, 0]


def test_convolve_windows_against_oracle():
    # any slice of the 2n-1 slots, clipped as a slice is, on the int64 path
    # and on the Python-int path (slots of 19 digits or more)
    rng = random.Random(2611)
    operands = [[0], [1], [5, 0, 3], [999_999_999, 0, 0], [10**9, 0, 0]]  # slots of 18, then 19 digits
    for _ in range(150):
        top = rng.choice([1, 1, 9, 10**6, 10**12, 10**30])
        operands.append([rng.randint(0, top) for _ in range(rng.randint(1, 30))])
    for x in operands:
        slots = 2 * len(x) - 1
        wide = core_sets._digits(sum(x) * max(x)) > 18
        for y, reverse in ((x, False), (x[::-1], True)):
            want = oracles.convolution(x, y)
            windows = [(0, None), (0, slots), (slots - 1, slots), (0, 1), (slots, slots + 5), (3, 2)]
            windows += [(rng.randint(0, slots), rng.randint(0, slots + 3)) for _ in range(3)]
            for lo, hi in windows:
                got = core_sets._convolve(x, reverse=reverse, lo=lo, hi=hi)
                assert isinstance(got, list) == wide
                assert [int(v) for v in got] == want[lo:hi]


# a Golomb ruler of 12 marks: each of its differences occurs once
_RULER = [0, 2, 6, 24, 29, 40, 43, 55, 68, 75, 76, 85]


def _copied(marks, lag, weight=1):
    """weight at the marks and at the marks + lag, 0 elsewhere.  With its
    reverse, the slot at the lag holds len(marks) * weight^2, from pairs
    len(marks) nonzero entries apart: farther than _near_slot looks."""
    x = [0] * (marks[-1] + lag + 1)
    for m in marks:
        x[m] = x[m + lag] = weight
    return x


@pytest.fixture
def packed(monkeypatch):
    """Slot width of every _pack call: one per product width tried."""
    widths, real = [], core_sets._pack
    monkeypatch.setattr(core_sets, "_pack", lambda a, w: widths.append(w) or real(a, w))
    return widths


def test_narrow_products_against_oracle(packed):
    # difference products (x with its reverse) of random indicators and
    # weighted operands, as lists and int64 arrays, over windows that hold
    # the centre slot n-1 or miss it.  Every path is taken: one digit
    # fewer, one digit fewer and then the full width, and the full width
    rng = random.Random(2706)
    operands = [_copied(_RULER[:10], lag) for lag in (86, 200)]  # lag slot 10: carries at 1 digit
    operands += [_copied(_RULER[:9], lag) for lag in (86, 200)]  # 9: fits
    run = [1] * 11 + [0] * 49 + [1]  # lag 1 holds 10: _near_slot rules one digit out
    operands += [run, [0, 0, 7, 0], [3, 0, 0, 0, 0, 0, 0, 3]]
    for _ in range(150):
        top = rng.choice([1, 1, 1, 3, 40, 10**4, 10**9])
        density = rng.random()
        operands.append([rng.randint(1, top) * (rng.random() < density) for _ in range(rng.randint(1, 90))])
    paths = {}
    for i, x in enumerate(operands):
        n, want = len(x), oracles.convolution(x, x[::-1])
        w = core_sets._digits(sum(x) * max(x))
        windows = [(0, None), (n - 1, n), (0, n - 1), (n, None), (n - 2, n + 1), (2 * n - 1, 2 * n + 3)]
        windows += [(rng.randint(0, 2 * n), rng.randint(0, 2 * n)) for _ in range(3)]
        for lo, hi in windows:
            packed.clear()
            a = x if i % 2 or w > 18 else np.array(x, dtype=np.int64)
            got = core_sets._convolve(a, reverse=True, lo=lo, hi=hi)
            assert [int(v) for v in got] == want[lo:hi]
            assert packed in ([w - 1], [w - 1, w], [w])
            paths[len(packed), packed[0] - w] = paths.get((len(packed), packed[0] - w), 0) + 1
        if x == _copied(_RULER[:10], 200):
            assert packed == [1, 2]  # a slot of exactly 10^(w-1)
        if x == _copied(_RULER[:9], 200):
            assert packed == [1]
        if x == run:
            assert packed == [2]  # 10^(w-1) again, seen before the product
    assert min(paths.get(p, 0) for p in ((1, -1), (2, -1), (1, 0))) >= 9, paths


@pytest.mark.parametrize("factors, k", [((2000,), 300), ((37, 41), 300), ((9, 10, 11), 200)])
def test_narrow_group_products_against_oracle(packed, factors, k):
    # random subsets of groups of rank 1-3 on the product path, at every
    # element: the padded box's difference product fits one digit fewer
    spec = GroupSpec(factors)
    A = GroupSubset.of(spec, random.Random(k).sample(list(spec.elements()), k))
    got = group_rep_profile(A, "difference").counts
    assert got == oracles.group_diff_counts(factors, A.elements)
    assert packed == [core_sets._digits(k) - 1]


def test_structured_sets_take_the_full_width(packed):
    # an interval in Z/5000: its lag-1 slot, 1499, needs all four digits,
    # and the spread over its hull says so: no narrow product is tried
    spec = GroupSpec((5000,))
    A = GroupSubset.of(spec, [[v] for v in range(1500)])
    want = [0] * 5000
    for d, c in oracles.diff_counts(range(1500)).items():
        want[d % 5000] += c
    assert core_sets._group_counts(A.flat, spec, "difference").tolist() == want
    assert packed == [4]
    # a pipeline's lift repeats each of its 145 plane elements s = 8 times,
    # p = 19 apart: 1,160 elements, and the slot at lag 19 holds at least
    # 7 * 145 = 1,015, which needs four digits.  The repeats lie farther
    # apart than _near_slot looks, so the narrow product is tried, carries
    # and is redone
    from diffsets.constructions import cyclic_pipeline

    lifted = cyclic_pipeline(8, 8, 19).lifted
    packed.clear()
    n, elems = lifted.group.order, [e for (e,) in lifted.elements]
    want = [0] * n
    for d, c in oracles.diff_counts(elems).items():
        want[d % n] += c
    assert core_sets._group_counts(lifted.flat, lifted.group, "difference").tolist() == want
    assert (lifted.size, want[19] >= 1000, packed) == (1160, True, [3, 4])


def test_pack_fills_unused_high_digits_with_zeros():
    # digit passes run only up to the largest entry's digit count
    rng = random.Random(5)
    for w in range(1, 19):
        for top in {1, w // 2 + 1, w}:
            a = np.array([rng.randrange(10**top) for _ in range(20)] + [0], dtype=np.int64)
            rows = core_sets._pack(a, w)
            assert rows.tobytes().decode() == "".join(str(v).zfill(w) for v in a[::-1].tolist())


def test_self_products_pack_once(monkeypatch):
    # every count multiplies an indicator by itself or its reverse: one
    # packing per width tried, and a square for itself.  A difference
    # product tries one digit fewer first, unless an estimate rules it out,
    # and is packed again at the full width if that carries
    packs, squares = [], []
    real, exact = core_sets._pack, core_sets._EXACT

    class Context:
        def multiply(self, a, b):
            squares.append(a is b)
            return exact.multiply(a, b)

        def __getattr__(self, name):
            return getattr(exact, name)

    monkeypatch.setattr(core_sets, "_pack", lambda a, w: packs.append((len(a), w)) or real(a, w))
    monkeypatch.setattr(core_sets, "_EXACT", Context())
    plain = ([0, 3 * w_top, 1, 0, w_top, 2] for w_top in (1, 10**17, 10**30))
    operands = [(x, [core_sets._digits(sum(x) * max(x))]) for x in plain]  # no narrow try
    operands.append((_copied(_RULER[:9], 200), [1]))  # narrow: the copy's lag slot is 9
    operands.append((_copied(_RULER[:10], 200), [1, 2]))  # 10 carries: redone at 2 digits
    for x, widths in operands:
        for y, reverse in ((x, False), (x[::-1], True)):
            packs.clear()
            squares.clear()
            got = core_sets._convolve(x, reverse=reverse)
            assert [int(v) for v in got] == oracles.convolution(x, y)
            tried = widths if reverse else [core_sets._digits(sum(x) * max(x))]
            assert packs == [(len(x), w) for w in tried] and squares == [not reverse] * len(tried)
    elems = list(range(0, 300)) + list(range(310, 400, 2))  # dense: the decimal path
    for mode in ("difference", "sum"):
        packs.clear()
        core_sets._pair_counts(tuple(elems), mode, 1, 10)
        assert len(packs) == 1


def test_convolve_refuses_negative_and_traps_rounding():
    with pytest.raises(ValueError, match="nonnegative"):
        core_sets._convolve([1, -1])
    with pytest.raises(decimal.Inexact):
        core_sets._EXACT.to_integral_exact(decimal.Decimal("1.5"))


def test_digits_is_the_decimal_digit_count():
    for n in [0, 1, 9, 10, 99, 100, 2**63 - 1, 2**63, 10**40 - 1, 10**40]:
        assert core_sets._digits(n) == len(str(n))
    assert core_sets._digits(10**4400) == 4401
    assert core_sets._digits(10**4400 - 1) == 4400


@pytest.mark.parametrize(
    "x, y, narrow",
    [
        pytest.param([9, 9], [9, 9], False, id="x0-y0"),
        pytest.param([5, 7, 3] * 20, [3, 7, 5] * 20, False, id="x1-y1"),
        pytest.param([10**20, 1], [1, 10**20], False, id="x2-y2"),
        pytest.param(_copied(_RULER, 500, 21), _copied(_RULER, 500, 21)[::-1], True, id="x3-y3"),
    ],
)
def test_convolve_detects_a_slot_one_digit_short(monkeypatch, packed, x, y, narrow):
    # y is x (a square) or x reversed; slots one digit narrower than the
    # largest value carry into their neighbours, and the sum check, not
    # rounding, must catch it.  Only the slot width, the digit count of
    # sum x * max x, is cut: the packing still writes every digit of x.
    # The last x's difference product first tries one digit fewer again
    # (its lag-500 slot, 5,292, carries there), then the cut width, whose
    # centre, 10,584, carries.
    reverse = y != x
    want = oracles.convolution(x, y)
    assert [int(v) for v in core_sets._convolve(x, reverse=reverse)] == want
    real, bound = core_sets._digits, sum(x) * max(x)
    assert bound != max(x) and max(want) >= 10 ** (real(bound) - 1)  # a slot must carry
    monkeypatch.setattr(core_sets, "_digits", lambda n: real(n) - (n == bound))
    cut = real(bound) - 1
    # the check reads every slot, whichever the caller asks for
    slots = len(want)
    for lo, hi in ((0, None), (0, 0), (slots - 1, slots), (slots // 2, slots // 2 + 1)):
        packed.clear()
        with pytest.raises(ArithmeticError, match="slot overflow"):
            core_sets._convolve(x, reverse=reverse, lo=lo, hi=hi)
        assert packed == ([cut - 1, cut] if narrow else [cut])


def test_convolve_slots_wider_than_int_str_limit():
    # 10^4-digit slots: str(int) and int(str) refuse them, Decimal does not
    x = [10**4999 + 3, 0, 7, 2, 10**4998]
    for y, reverse in ((x, False), (x[::-1], True)):
        assert core_sets._convolve(x, reverse=reverse) == oracles.convolution(x, y)
        assert core_sets._convolve(x, reverse=reverse, lo=3, hi=6) == oracles.convolution(x, y)[3:6]


def test_verify_huge_N_without_an_O_N_array():
    t0 = time.perf_counter()
    v = verify_certificate(IntSet.of([0, 1, 3]), 1, N=10**12)
    assert (v.passed, v.achieved_g, v.witness) == (False, 0, 4)
    shifts, counts = core_sets._pair_counts((0, 1, 3), "difference", 1, 10**12)
    assert (shifts, counts.tolist()) == (range(1, 4), [1, 1, 1])
    assert time.perf_counter() - t0 < 1.0


def test_verify_far_apart_elements_in_O_k2_memory():
    # hulls of 10^12 cells: neither the product nor a dense window is built
    t0 = time.perf_counter()
    v = verify_certificate(IntSet.of([0, 10**12]), 1, N=10**12)
    assert (v.passed, v.achieved_g, v.witness) == (False, 0, 1)
    v = verify_certificate(IntSet.of([1, 10**12]), 1, N=10**12, mode="sidon")
    assert (v.passed, v.achieved_g, v.witness) == (False, 2, 10**12 + 1)
    v = verify_certificate(IntSet.of([1, 10**12]), 2, N=10**12, mode="sidon")
    assert (v.passed, v.achieved_g, v.witness) == (True, 2, None)
    elems = [0, 10**11, 10**11 + 1, 3 * 10**11]
    shifts, counts = core_sets._pair_counts(tuple(elems), "difference", 1, 10**12)
    want = oracles.diff_counts(elems)
    assert shifts.tolist() == sorted(m for m in want if m >= 1)
    assert counts.tolist() == [want[m] for m in sorted(m for m in want if m >= 1)]
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("k, span", [(1000, 10**7), (2000, 4 * 10**6)])
def test_verify_sparse_set_over_wide_span_is_fast(convolutions, k, span):
    # k^2 pairs binned within [1, 1000] cost far less than a product over
    # the hull, which took 3.8 s for 2000 elements over 4e6
    rng = random.Random(17)
    elems = sorted(rng.sample(range(span), k))
    t0 = time.perf_counter()
    v = verify_certificate(IntSet.of(elems), 1, N=1000)
    assert time.perf_counter() - t0 < 1.0
    assert convolutions == []
    counts = [0] * 1001
    for a in elems:
        for b in elems[bisect_right(elems, a) : bisect_right(elems, a + 1000)]:
            counts[b - a] += 1
    assert v.achieved_g == min(counts[1:])
    assert v.witness == counts.index(0, 1)


def test_import_refuses_pure_python_decimal():
    code = (
        "import sys; sys.modules['_decimal'] = None\n"
        "try:\n    import diffsets.core_sets\n"
        "except ImportError as exc:\n    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert "C decimal module" in out.stdout


def test_dedupe_and_sorted_pair_counts_load_no_numpy_ma():
    # np.unique imports numpy.ma on its first call; unsorted input and the
    # sorted pair window must deduplicate without it
    code = (
        "import sys\n"
        "from diffsets import core_sets as cs\n"
        "cs.IntSet([9, -4, 2, 9, 0])\n"
        "cs.GroupSubset(cs.GroupSpec((5, 4)), [(3, 1), (0, 2), (3, 1)])\n"
        "shifts, counts = cs._pair_counts((0, 3, 10**6), 'difference', -5, 5)\n"
        "print(shifts.tolist(), counts.tolist(), 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout) == (0, "[-3, 0, 3] [1, 3, 1] False\n"), out.stderr


def test_group_profiles_match_oracle_randomized():
    rng = random.Random(7)
    for _ in range(30):
        factors = tuple(rng.choice([2, 3, 4, 5, 6, 7]) for _ in range(rng.randint(1, 3)))
        spec = GroupSpec(factors)
        pool = list(spec.elements())
        k = rng.randint(1, min(len(pool), 9))
        vectors = rng.sample(pool, k)
        A = GroupSubset.of(spec, vectors)
        assert group_rep_profile(A, "difference").counts == oracles.group_diff_counts(
            factors, A.elements
        )
        assert group_rep_profile(A, "sum").counts == oracles.group_sum_counts(
            factors, A.elements
        )


def test_profile_invariants_randomized():
    rng = random.Random(99)
    for _ in range(25):
        k = rng.randint(1, 10)
        elems = sorted(rng.sample(range(-50, 51), k))
        A = IntSet.of(elems)
        span = elems[-1] - elems[0]
        prof = rep_diff_profile(A, (-span, span))
        # symmetry, center count, total ordered pairs
        assert all(prof.counts[m] == prof.counts[-m] for m in range(span + 1))
        assert prof.counts[0] == k
        assert sum(prof.counts.values()) == k * k
        # translation invariance
        t = rng.randint(-20, 20)
        prof_t = rep_diff_profile(A.translate(t), (-span, span))
        assert prof_t.counts == prof.counts


def test_group_profile_invariants_randomized():
    rng = random.Random(123)
    for _ in range(20):
        spec = GroupSpec((rng.randint(2, 9), rng.randint(2, 6)))
        pool = list(spec.elements())
        A = GroupSubset.of(spec, rng.sample(pool, rng.randint(1, len(pool))))
        prof = group_rep_profile(A, "difference")
        assert prof.counts[(0, 0)] == A.size
        assert sum(prof.counts.values()) == A.size**2
        t = rng.choice(pool)
        shifted = GroupSubset.of(
            spec, [spec.reduce([x + u for x, u in zip(v, t)]) for v in A]
        )
        assert group_rep_profile(shifted, "difference").counts == prof.counts


def test_verify_matches_oracle_randomized():
    rng = random.Random(5)
    for _ in range(60):
        N = rng.randint(1, 12)
        k = rng.randint(1, 8)
        elems = sorted(set(rng.choices(range(0, 2 * N + 1), k=k)))
        A = IntSet.of(elems)
        g = rng.randint(1, 3)
        v = verify_certificate(A, g=g, N=N, mode="difference")
        assert v.passed == oracles.is_g_difference_interval(elems, g, N)
        counts = oracles.diff_counts(elems)
        failing = [m for m in range(1, N + 1) if counts.get(m, 0) < g]
        assert v.witness == (failing[0] if failing else None)
        assert v.achieved_g == min(counts.get(m, 0) for m in range(1, N + 1))
        sidon_elems = sorted(set(rng.choices(range(1, N + 1), k=k)))
        v = verify_certificate(IntSet.of(sidon_elems), g=g, N=N, mode="sidon")
        assert v.passed == oracles.is_g_sidon_interval(sidon_elems, g, N)
        counts = oracles.sum_counts(sidon_elems)
        failing = [m for m in sorted(counts) if counts[m] > g]
        assert v.witness == (failing[0] if failing else None)
        assert v.achieved_g == max(counts.values())


# --- serialization and ledger ----------------------------------------------


def test_json_round_trips():
    A = IntSet.of([3, 1, 1, 2])
    assert A.to_json() == [1, 2, 3]
    assert IntSet.from_json(A.to_json()) == A
    S = GroupSubset.of(GroupSpec((2, 4)), [(1, 3), (0, 0), (1, 7)])
    data = S.to_json()
    assert data == {"invariant_factors": [2, 4], "elements": [[0, 0], [1, 3]]}
    assert GroupSubset.from_json(data) == S
    v = verify_certificate(IntSet.of([0, 1]), g=1, N=2)
    assert v.to_json() == {"passed": False, "achieved_g": 0, "witness": 2}


def test_int_set_constructor_matches_reference():
    # unsorted, repeated and negative entries, as lists, tuples, iterators,
    # int64 arrays and numpy integers
    rng = random.Random(17)
    for _ in range(200):
        elems = [rng.randint(-50, 50) for _ in range(rng.randint(0, 30))]
        want = tuple(sorted(set(elems)))
        for given in (
            elems, tuple(elems), iter(elems), np.array(elems, dtype=np.int64),
            np.array(elems, dtype=np.int16), [np.int32(x) for x in elems],
        ):
            A = IntSet.of(given)
            assert A.elements == want and A.size == len(want)
            assert A.array.dtype == np.int64 and not A.array.flags.writeable


def test_group_subset_constructor_matches_reference():
    # unreduced and negative vectors on one to four axes, reduced by hand
    rng = random.Random(23)
    for factors in ((7,), (2, 4), (3, 1, 5), (4, 3, 2, 2)):
        spec = GroupSpec(factors)
        for _ in range(50):
            vecs = [
                tuple(rng.randint(-2 * n, 2 * n) for n in factors)
                for _ in range(rng.randint(0, 25))
            ]
            want = tuple(sorted({tuple(x % n for x, n in zip(v, factors)) for v in vecs}))
            for given in (
                vecs, [list(v) for v in vecs],
                np.array(vecs, dtype=np.int64).reshape(-1, len(factors)),
                [tuple(np.int16(x) for x in v) for v in vecs],
            ):
                S = GroupSubset.of(spec, given)
                assert S.elements == want and S.size == len(want)
                assert S.flat.tolist() == [spec.flatten(v) for v in want]
                assert S.to_json()["elements"] == [list(v) for v in want]


def test_membership_by_search_matches_the_elements(monkeypatch):
    # the same answers as membership in .elements, found in the stored
    # sorted array without building the elements
    A = IntSet.of([-(2**62), -7, 0, 3, 10**12, 2**63 - 1])
    S = GroupSubset.of(GroupSpec((5, 7)), [(1, 2), (4, 6), (0, 0)])
    tests = [
        (A, [3, -7, 4, -8, 2**63 - 1, 2**63, -(2**63), -(2**70), 10**12 + 1, np.int64(3), np.int8(-7)]),
        (A, [np.uint64(2**64 - 1), np.int32(0), True, False]),
        (S, [(1, 2), (6, 9), (-4, -5), (1, 3), [4, 6], (5, 7), (np.int64(4), np.int16(-1)), (0, 14)]),
    ]
    expected = [[x in X.elements if X is A else X.group.reduce(x) in X.elements for x in xs] for X, xs in tests]
    monkeypatch.setattr(IntSet, "elements", property(lambda self: pytest.fail("elements built")))
    monkeypatch.setattr(GroupSubset, "elements", property(lambda self: pytest.fail("elements built")))
    assert [[x in X for x in xs] for X, xs in tests] == expected
    assert expected[0] == [True, True, False, False, True, False, False, False, False, True, True]
    assert 0 not in IntSet.of([]) and (0, 0) not in GroupSubset.of(GroupSpec((2, 2)), [])
    for v, error in (((1,), ValueError), ((1, 2, 3), ValueError), (("a", 1), ValueError), (5, TypeError)):
        with pytest.raises(error):
            v in S
    monkeypatch.undo()
    # a value that is not an integer is compared with each element, as before
    assert [x in A for x in (3.0, 3.5, Fraction(-7), "3", None)] == [True, False, True, False, False]


def test_equal_sets_built_both_ways_hash_alike():
    A, B = IntSet.of([5, -1, 5, 3]), IntSet(np.array([3, 5, -1]))
    assert A == B and hash(A) == hash(B) and len({A, B}) == 1
    assert A != IntSet.of([3, 5]) and A != A.elements
    spec = GroupSpec((3, 4))
    S = GroupSubset.of(spec, [(4, -1), (0, 0), (1, 3)])
    T = GroupSubset(spec, np.array([[0, 0], [1, 3]]))
    assert S == T and hash(S) == hash(T) and len({S, T}) == 1
    # the same flat indices in another group are another set
    assert S != GroupSubset.of(GroupSpec((12,)), [(0,), (7,)])
    with pytest.raises(AttributeError):
        S.flat = T.flat
    assert copy.deepcopy(S) == S and pickle.loads(pickle.dumps(A)) == A


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntSet.of([1, 2.0]),
        lambda: IntSet.of([0, True]),
        lambda: IntSet.of("12"),
        lambda: IntSet.of([2**63]),
        lambda: IntSet(np.array([2**64 - 1], dtype=np.uint64)),
        lambda: IntSet(np.array([1.0])),
        lambda: GroupSubset.of(GroupSpec((5, 5)), [(1,)]),
        lambda: GroupSubset.of(GroupSpec((5,)), [1, 2]),
        lambda: GroupSubset.of(GroupSpec((5,)), [(1.5,)]),
        lambda: GroupSubset(GroupSpec((5, 5)), np.zeros((2, 3), dtype=np.int64)),
        lambda: GroupSubset.of(GroupSpec((2**62, 4)), [(0, 0)]),
        lambda: GroupSpec((5.0,)),
    ],
)
def test_constructors_refuse_what_int64_cannot_hold(build):
    with pytest.raises(ValueError):
        build()


def test_fraction_strings():
    assert format_fraction(Fraction(3, 10)) == "3/10"
    assert format_fraction(Fraction(4, 2)) == "2"
    assert parse_fraction("3/10") == Fraction(3, 10)
    assert parse_fraction("0.3") == Fraction(3, 10)
    assert parse_fraction("7") == 7
    with pytest.raises(ValueError, match="zero denominator"):
        parse_fraction("1/0")


def test_ledger_exact_tau_check():
    ledger = BoundsLedger()
    # 39/sqrt(625) = 1.56 exactly: passes as >=; 38 fails
    assert ledger.eta_ratio_ok(39, 1, 625)
    assert not ledger.eta_ratio_ok(38, 1, 625)
    assert ledger.tau_lower == Fraction(39, 25)
