"""Exactness tests for step functions, averages, and the torus bridge."""

import dataclasses
import operator
import random
import re
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

import oracles
from diffsets import bridge
from diffsets.bridge import (
    AveragesSeq,
    ProbSeq,
    SqrtScaled,
    StepFunction,
    _correlations,
    _parse_ratio,
    _parse_ratios,
    autocorrelation,
    autocorrelation_min,
    autoconvolution,
    autoconvolution_max,
    averages_to_probs,
    group_set_to_torus,
    local_averages,
    prob_correlation_minimum,
    set_to_step,
    torus_autocorrelation,
    torus_autocorrelation_min,
    window_radius,
)
from diffsets.core_sets import (
    CertificateError,
    GroupSpec,
    GroupSubset,
    IntSet,
    _CHUNK_CELLS,
    _convolve,
    format_fraction,
    group_rep_profile,
    parse_fraction,
    rep_diff_profile,
    verify_certificate,
)
from diffsets.constructions import RandomModel, _make_sequence_trial, monte_carlo_validate

F = Fraction


def riemann_autocorrelation(f: StepFunction, x: float, grid: int = 20000) -> float:
    """Independent float oracle: midpoint Riemann sum of f(t) f(t+x)."""
    sup = f.support()
    if sup is None:
        return 0.0
    lo, hi = float(sup[0]), float(sup[1])
    scale = 1.0 if f.scale_sqrt is None else float(f.scale_sqrt)
    bps = [float(b) for b in f.breakpoints]
    vals = [float(v) for v in f.values]

    def at(t):
        i = bisect_right(bps, t) - 1  # the piece [bps[i], bps[i+1]) holding t
        return vals[i] if 0 <= i < len(vals) else 0.0

    h = (hi - lo) / grid
    return scale * h * sum(at(lo + (i + 0.5) * h) * at(lo + (i + 0.5) * h + x) for i in range(grid))


class TestSqrtScaled:
    def test_folds_perfect_squares(self):
        assert SqrtScaled(F(3), F(4)) == F(6)
        assert SqrtScaled(F(3), F(4)).radicand == 1
        assert SqrtScaled(F(1, 2), F(9, 4)).coeff == F(3, 4)

    def test_exact_ordering(self):
        root2 = SqrtScaled(F(1), F(2))
        assert root2 > F(141421356, 100000000)
        assert root2 < F(141421357, 100000000)
        assert root2 != F(3, 2)
        assert SqrtScaled(F(2), F(2)) == SqrtScaled(F(1), F(8))

    @pytest.mark.parametrize(
        "other",
        [F(-2), F(-1, 3), F(0), F(1, 3), F(7, 5), F(3, 2), F(2), SqrtScaled(F(0)),
         SqrtScaled(F(1), F(3)), SqrtScaled(F(1), F(2)), SqrtScaled(F(2))],
        ids=str,
    )
    @pytest.mark.parametrize("op", ["lt", "le", "eq", "ne", "ge", "gt"])
    def test_comparisons_agree_with_floats(self, other, op):
        # every operator, either way round, against negative, zero and
        # positive rationals and against SqrtScaled values; every float tie
        # among these operands is an exact tie
        compare = getattr(operator, op)
        for s in (SqrtScaled(F(0)), SqrtScaled(F(1), F(2)), SqrtScaled(F(3), F(4))):
            assert compare(s, other) == compare(float(s), float(other)), (s, other)
            assert compare(other, s) == compare(float(other), float(s)), (other, s)

    def test_equal_values_hash_alike(self):
        # rational values (radicand 1, or a zero coefficient) hash as the
        # rational they equal, so they meet it in sets and dicts
        for s, q in ((SqrtScaled(F(3), F(4)), F(6)), (SqrtScaled(F(0), F(2)), F(0))):
            assert s == q and hash(s) == hash(q)
            assert len({s, q}) == 1
            assert {q: 1}.get(s) == 1 and {s: 1}.get(q) == 1
        assert hash(SqrtScaled(F(0), F(2))) == hash(0)
        root2, also_root2 = SqrtScaled(F(1), F(2)), SqrtScaled(F(1, 2), F(8))
        assert root2 == also_root2 and hash(root2) == hash(also_root2)
        assert len({root2, also_root2, F(1)}) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SqrtScaled(F(-1), F(2))
        with pytest.raises(ValueError):
            SqrtScaled(F(1), F(0))


class TestStepFunction:
    def test_canonicalization_merges_and_strips(self):
        f = StepFunction((F(0), F(1), F(2), F(3)), (F(0), F(2), F(0)))
        assert f.breakpoints == (F(1), F(2))
        assert f.values == (F(2),)

    def test_square_scale_folds_into_values(self):
        f = StepFunction((F(0), F(1)), (F(1),), F(4))
        assert f.scale_sqrt is None
        assert f.values == (F(2),)

    def test_internal_zero_survives(self):
        f = StepFunction((F(0), F(1), F(2), F(3)), (F(1), F(0), F(1)))
        assert f.values == (F(1), F(0), F(1))

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            StepFunction((F(0), F(0)), (F(1),))
        with pytest.raises(ValueError):
            StepFunction((F(0), F(1)), (F(-1),))

    def test_json_round_trip(self):
        f = StepFunction((F(0), F(1, 3), F(2)), (F(1, 2), F(3)), F(5, 7))
        assert StepFunction.from_json(f.to_json()) == f
        assert f.to_json()["scale_sqrt"] == {"num": 5, "den": 7}

    def test_zero_function(self):
        z = StepFunction((F(0), F(1)), (F(0),))
        assert z.is_zero and z.support() is None
        assert z.integral() == F(0)
        assert autocorrelation(z, F(0)) == 0


class TestSetToStep:
    def test_known_bridge_values(self):
        # r_{0,1,3} = {0: 3, 1: 1, 2: 1, 3: 1}; heights sqrt(3)
        f = set_to_step(IntSet.of([0, 1, 3]), 1, 3)
        assert f.to_json() == {
            "breakpoints": ["0", "2/3", "1", "4/3"],
            "values": ["1", "0", "1"],
            "scale_sqrt": {"num": 3, "den": 1},
        }
        assert autocorrelation(f, F(0)) == 3
        assert [autocorrelation(f, F(j, 3)) for j in (1, 2, 3)] == [1, 1, 1]
        assert f.integral() == SqrtScaled(F(3), F(1, 3))  # |A| / sqrt(gN)

    def test_rejects_non_certificate(self):
        with pytest.raises(CertificateError) as err:
            set_to_step(IntSet.of([0, 1, 2]), 1, 5)
        assert err.value.verdict is not None and not err.value.verdict.passed

    def test_random_sets_bridge_exactly(self):
        rng = random.Random(90210)
        bridged = 0
        for _ in range(100):
            N = rng.randrange(2, 28)
            # covering shift N needs elements N apart: draw from [0, N]
            A = IntSet.of(x for x in range(N + 1) if rng.random() < 0.72)
            if A.size < 2:
                continue
            prof = rep_diff_profile(A, (1, N))
            g = prof.min_count
            if g < 1:
                continue
            f = set_to_step(A, g, N)
            # endpoint identity at every grid point
            assert autocorrelation(f, F(0)) == F(A.size, g)
            for j in range(1, N + 1):
                assert autocorrelation(f, F(j, N)) == F(prof.counts[j], g)
            # L1 norm identity and family-F membership
            assert f.integral() == SqrtScaled(F(A.size), F(1, g * N))
            mn, arg = autocorrelation_min(f, 0, 1)
            assert mn == F(prof.min_count, g) and mn >= 1
            assert arg.denominator in (1, N) or arg <= 1
            bridged += 1
        assert bridged >= 20  # the draw must exercise the identity often

    def test_runs_match_the_block_oracle(self):
        """One piece per run, as the block-by-block oracle builds it, on
        runs of 1-5 elements (the first at least 2) 2-6 apart."""
        rng = random.Random(2029)
        cases = [([2**63 - 2, 2**63 - 1], 1, 1), ([-(2**63), 1 - 2**63], 1, 1)]
        while len(cases) < 240:
            x = rng.choice([0, rng.randrange(-60, 60), rng.randrange(-(2**61), 2**61)])
            els = []
            for i in range(rng.randrange(1, 9)):
                length = rng.randrange(1 + (i == 0), 6)
                els += range(x, x + length)
                x += length + rng.randrange(1, 6)
            counts = oracles.diff_counts(els)
            top = next(m for m in range(1, len(els) ** 2) if not counts.get(m + 1))
            N = rng.randrange(1, top + 1)
            g = rng.randrange(1, min(counts[m] for m in range(1, N + 1)) + 1)
            cases.append((els, g, N))
        runs = []
        for els, g, N in cases:
            f = set_to_step(IntSet.of(els), g, N)
            bps, vals = oracles.set_step_pieces(els, N)
            assert f == StepFunction(tuple(bps), tuple(vals), F(N, g))
            assert f.breakpoints == tuple(bps)  # the oracle's pieces need no merging
            runs.append(len(bps) // 2)
        assert runs.count(1) >= 20 and max(runs) >= 8
        assert sum(min(els) < 0 for els, _, _ in cases) >= 50
        with pytest.raises(CertificateError):  # one element has no difference to count
            set_to_step(IntSet.of([5]), 1, 1)


class TestAutocorrelation:
    def test_symmetry_and_oracle(self):
        rng = random.Random(777)
        for _ in range(25):
            n = rng.randrange(2, 6)
            bps = sorted(rng.sample(range(-4, 9), n + 1))
            vals = [F(rng.randrange(0, 4)) for _ in range(n)]
            try:
                f = StepFunction(tuple(F(b, 2) for b in bps), tuple(vals))
            except ValueError:
                continue
            if f.is_zero:
                continue
            for _ in range(4):
                x = F(rng.randrange(-10, 10), 4)
                exact = autocorrelation(f, x)
                assert exact == autocorrelation(f, -x)
                assert abs(float(exact) - riemann_autocorrelation(f, float(x))) < 2e-2

    def test_min_scans_candidate_grid(self):
        f = StepFunction((F(0), F(1, 2), F(1)), (F(2), F(1)))
        mn, arg = autocorrelation_min(f, 0, 1)
        # global min over [0,1] is at the far end: only tail overlap remains
        assert (mn, arg) == (autocorrelation(f, F(1)), F(1))
        # min is a true lower bound at random points
        rng = random.Random(5)
        for _ in range(50):
            x = F(rng.randrange(0, 1000), 1000)
            assert autocorrelation(f, x) >= mn

    def test_min_with_off_grid_breakpoints(self):
        # breakpoints over the prime 8191: no kink lies on a coarse grid
        p = 8191
        f = StepFunction((F(0), F(3, p), F(5, p), F(8, p)), (F(1), F(0), F(2)))
        mn, arg = autocorrelation_min(f, 0, F(8, p))
        rng = random.Random(6)
        for _ in range(200):
            x = F(rng.randrange(0, 8 * 50), p * 50)
            assert autocorrelation(f, x) >= mn
        assert autocorrelation(f, arg) == mn

    def test_flat_minimum_takes_smallest_point(self):
        # blocks [0,1) and [2,4): (f*f) = 1 on all of [1,3]
        f = StepFunction((F(0), F(1), F(2), F(4)), (F(1), F(0), F(1)))
        assert autocorrelation_min(f, F(1, 2), 3) == (1, 1)
        assert autocorrelation_min(f, F(3, 2), 3) == (1, F(3, 2))
        assert autocorrelation_min(f, F(5, 2), F(5, 2)) == (1, F(5, 2))


def _random_step(rng, den, lo_num):
    n = rng.randrange(1, 6)
    bps = sorted(rng.sample(range(lo_num, lo_num + 3 * den), n + 1))
    vals = [F(rng.randrange(0, 5), rng.choice((1, 2, 3))) for _ in range(n)]
    scale = rng.choice((None, None, F(2), F(3, 5)))
    return StepFunction(tuple(F(b, den) for b in bps), tuple(vals), scale)


def _oracle_extreme(evaluate, candidates, better):
    """First of the sorted candidates with the best oracle value."""
    best_val, best_x = None, None
    for x in sorted(set(candidates)):
        val = evaluate(x)
        if best_val is None or better(val, best_val):
            best_val, best_x = val, x
    return best_val, best_x


class TestKinkSweepAgainstOracle:
    """The integer kink sweep equals a scan of the pairwise-overlap oracle
    over every breakpoint difference or sum (plus lo and hi)."""

    @pytest.mark.parametrize("den", [12, 8191])
    def test_min_and_max(self, den):
        self._check(den, 1)

    def test_min_and_max_past_int64(self):
        # kinks over 2^62 in the integer scale: the pair sums take Python ints
        self._check(12, 2**62 + 3)

    def _check(self, den, shrink):
        rng = random.Random(den)
        for _ in range(60):
            f = _random_step(rng, den, rng.choice((0, -2 * den)))
            if f.is_zero:
                continue
            f = StepFunction(tuple(b / shrink for b in f.breakpoints), f.values, f.scale_sqrt)
            bps = f.breakpoints
            lo = F(rng.randrange(-2 * den, 2 * den), rng.choice((den, 7 * den))) / shrink
            hi = lo if rng.random() < 0.2 else lo + F(rng.randrange(0, 3 * den), den) / shrink
            diffs = [b - c for b in bps for c in bps if lo <= b - c <= hi]
            want = _oracle_extreme(
                lambda x: oracles.naive_autocorrelation(f, x), [lo, hi, *diffs], operator.lt
            )
            assert autocorrelation_min(f, lo, hi) == want
            sums = [b + c for b in bps for c in bps]
            want = _oracle_extreme(
                lambda x: oracles.naive_autoconvolution(f, x), sums, operator.gt
            )
            assert autoconvolution_max(f) == want
            x = F(rng.randrange(-4 * den, 4 * den), rng.choice((den, 5 * den))) / shrink
            assert autocorrelation(f, x) == oracles.naive_autocorrelation(f, x)
            assert autoconvolution(f, x) == oracles.naive_autoconvolution(f, x)

    def test_refuses_too_many_breakpoints(self):
        # 500 breakpoints on the 1/4096 grid: 250,000 pairs
        bps = tuple(F(k, 4096) for k in range(500))
        f = StepFunction(bps, tuple(F(k % 2 + 1) for k in range(499)))
        with pytest.raises(ValueError):
            autoconvolution_max(f)
        with pytest.raises(ValueError):
            autocorrelation_min(f, 0, 1)


class TestAutoconvolution:
    def test_unit_block(self):
        f = StepFunction((F(0), F(1)), (F(1),))
        assert autoconvolution(f, F(1, 2)) == F(1, 2)
        assert autoconvolution(f, F(1)) == 1
        assert autoconvolution(f, F(2)) == 0
        assert autoconvolution_max(f, in_E=True) == (F(1), F(1))

    def test_in_e_requires_unit_support(self):
        f = StepFunction((F(0), F(3, 2)), (F(1),))
        with pytest.raises(ValueError):
            autoconvolution_max(f, in_E=True)
        assert autoconvolution_max(f)[0] == F(3, 2)

    def test_max_dominates_random_points(self):
        rng = random.Random(404)
        for _ in range(25):
            n = rng.randrange(2, 5)
            bps = sorted(rng.sample(range(0, 13), n + 1))
            vals = [F(rng.randrange(0, 4), 2) for _ in range(n)]
            try:
                f = StepFunction(tuple(F(b, 12) for b in bps), tuple(vals))
            except ValueError:
                continue
            if f.is_zero:
                continue
            mx, arg = autoconvolution_max(f)
            assert autoconvolution(f, arg) == mx
            for _ in range(20):
                x = F(rng.randrange(0, 240), 120)
                assert autoconvolution(f, x) <= mx


def _family_f(rng, den):
    """A random step function on [0, 2], all pieces positive, scaled so its
    autocorrelation minimum on [0, 1] is exactly 1."""
    n = rng.randrange(1, 8)
    inner = sorted(rng.sample(range(1, 2 * den), n - 1))
    bps = (F(0), *(F(b, den) for b in inner), F(2))
    f = StepFunction(bps, tuple(F(rng.randrange(1, 6), rng.choice((1, 2, 3))) for _ in range(n)))
    return StepFunction(f.breakpoints, f.values, 1 / autocorrelation_min(f, 0, 1)[0])


@pytest.fixture
def spy_convolve(monkeypatch):
    """The operand lengths of every _convolve call made by the bridge."""
    calls = []
    real = bridge._convolve

    def spy(x, **kw):
        calls.append(len(x))
        return real(x, **kw)

    monkeypatch.setattr(bridge, "_convolve", spy)
    return calls


class TestIntCorrelations:
    """sum_i v[i] v[i+m]: from the lag sums of v's second difference when it
    is sparse, else slot n-1+m of v convolved with its reverse."""

    def test_against_direct_sums(self):
        rng = random.Random(31337)
        for _ in range(40):
            n = rng.randrange(1, 40)
            vals = [rng.randrange(0, 1000) for _ in range(n)]
            z = _convolve(vals, reverse=True)
            want = oracles.convolution(vals, vals[::-1])
            assert [int(v) for v in z] == want
            for m in range(n):
                assert z[n - 1 + m] == sum(vals[i] * vals[i + m] for i in range(n - m))

    def test_correlations_window(self):
        # lags past the last index are 0; int64 and Python-int inputs agree
        for vals in ([3, 0, 5, 1], [2**40, 7, 2**40], [10**20, 1, 10**20]):
            n = len(vals)
            want = [sum(vals[i] * vals[i + m] for i in range(n - m)) for m in range(n)] + [0] * 3
            for lo, hi in ((1, n + 2), (0, 0), (n - 1, n + 2), (n, n + 2)):
                assert _correlations(vals, lo, hi) == want[lo : hi + 1]
                assert _correlations(tuple(vals), lo, hi) == want[lo : hi + 1]

    def test_wide_values(self):
        # slots of 19 digits or more unpack by string slices into Python ints
        vals = [10**9, 2, 10**9]
        z = _convolve(vals, reverse=True)
        assert isinstance(z, list)
        assert z[2:] == [2 * 10**18 + 4, 4 * 10**9, 10**18]

    @pytest.mark.parametrize("stretch", [False, True])
    @pytest.mark.parametrize("grid", [True, False])
    def test_step_functions_take_the_sparse_path(self, spy_convolve, grid, stretch):
        # window averages of a step function are linear between kinks
        rng = random.Random(f"{grid}{stretch}")
        for _ in range(6):
            N = rng.randrange(60, 200)
            f = _family_f(rng, N if grid else rng.choice((7, 11, 13)))
            seq = local_averages(f, N, F(rng.randrange(1, 4), 2), stretch=stretch)
            c = seq.conditions
            m_hi = c.cond3_m_range[1]
            want = oracles.correlations(seq.nums.tolist(), 1, m_hi)
            assert _correlations(seq.nums, 1, m_hi) == want
            low = min(want)
            assert c.cond3_min == F(low, seq.den**2) * seq.radicand
            assert c.cond3_argmin == want.index(low) + 1
        assert spy_convolve == []

    def test_dense_sequences_take_the_product(self, spy_convolve):
        rng = random.Random(99)
        for _ in range(8):
            vals = [rng.randrange(0, 1000) for _ in range(rng.randrange(150, 300))]
            n = len(vals)
            assert _correlations(vals, 1, n + 3) == oracles.correlations(vals, 1, n + 3)
        assert len(spy_convolve) == 8

    @pytest.mark.parametrize("top", [2**30, 2**40, 10**20])
    def test_wide_entries_take_python_ints(self, monkeypatch, spy_convolve, top):
        # 8 * sum n^2 reaches 2^63 (or the entries leave int64): object arrays
        dtypes = []
        real = bridge._pair_sums
        monkeypatch.setattr(bridge, "_pair_sums", lambda *a: dtypes.append(a[2].dtype) or real(*a))
        ramp = [top - 3 * k for k in range(40)]
        vals = [*ramp, *[top] * 25, *ramp[::-1], 0, 0, *ramp]
        n = len(vals)
        assert _correlations(vals, 0, n + 2) == oracles.correlations(vals, 0, n + 2)
        assert dtypes == [object] and spy_convolve == []

    @pytest.mark.parametrize("low, high", [(1, 100), (2**31, 2**40)])
    def test_many_nonzeros_take_the_banded_pair_loop(self, monkeypatch, spy_convolve, low, high):
        # 200-300 isolated entries, 3 second-difference nonzeros each: S^2
        # is over _CHUNK_CELLS yet sparse enough for the lag sums, so
        # _pair_sums bands its rows and reverses the descending left first
        rng = random.Random(high)
        lefts = []
        real = bridge._pair_sums
        monkeypatch.setattr(bridge, "_pair_sums", lambda *a: lefts.append(a[0]) or real(*a))
        for _ in range(3):
            n = rng.randrange(10_000, 30_000)
            spots = sorted(rng.sample(range(1, n - 1, 3), rng.randrange(200, 300)))
            vals = [0] * n
            for i in spots:
                vals[i] = rng.randrange(low, high)
            lo = rng.randrange(n - 100)
            for lo, hi in ((0, n - 1), (lo, lo + rng.randrange(200)), (n - 5, n + 5)):
                want = [0] * (hi - lo + 1)
                for i in spots:
                    for j in spots:
                        if lo <= j - i <= hi:
                            want[j - i - lo] += vals[i] * vals[j]
                assert _correlations(vals, lo, hi) == want
        assert len(lefts) == 9 and spy_convolve == []
        assert all(left.size**2 > _CHUNK_CELLS and left[0] > left[-1] for left in lefts)

    def test_windows_past_the_support(self, spy_convolve):
        rng = random.Random(5)
        for dense in (False, True):
            vals = [rng.randrange(0, 9) for _ in range(200)] if dense else [7] * 60 + [3] * 40
            n = len(vals)
            for lo, hi in ((0, n - 1), (n - 2, n + 5), (n - 1, n - 1), (n, n), (n + 3, 2 * n)):
                assert _correlations(vals, lo, hi) == oracles.correlations(vals, lo, hi)
        assert spy_convolve == [200] * 5

    def test_bench_shaped_input_never_multiplies(self, spy_convolve):
        # 24 unit blocks on the 1/100 grid averaged at N = 10^4, as in the
        # benchmark's bridge commands: O(S^2 + n) with S in the hundreds
        rng = random.Random(24)
        low = 0
        while not low:  # a set whose difference counts on [1, 100] are positive
            cuts = sorted(rng.sample(range(1, 101), 46))
            bps = [F(b, 100) for b in (0, *cuts, 101)]
            f = StepFunction(tuple(bps), tuple(F(k % 2 == 0) for k in range(47)))
            low = autocorrelation_min(f, 0, 1)[0]
        f = StepFunction(f.breakpoints, f.values, 1 / low)
        seq = local_averages(f, 10_000, F(1, 2), stretch=True)
        assert len(f.values) == 47 and len(seq.nums) > 10_000
        assert spy_convolve == []
        _correlations([rng.randrange(0, 10**6) for _ in range(1_000)], 1, 1_000)
        assert spy_convolve == [1_000]

    def test_prob_correlation_minimum_over_window(self):
        # q = (1/2, 1/3, 1/6): correlations 1/6+1/18, 1/12, 0 beyond the hull
        probs = ProbSeq({0: F(1, 2), 1: F(1, 3), 2: F(1, 6)})
        assert prob_correlation_minimum(probs, 1, 2) == (F(1, 12), 2)
        assert prob_correlation_minimum(probs, 1, 1) == (F(1, 6) + F(1, 18), 1)
        assert prob_correlation_minimum(probs, 2, 5) == (0, 3)


class TestLocalAverages:
    def test_window_radius_is_exact_ceiling(self):
        rng = random.Random(2718)
        for _ in range(200):
            N = rng.randrange(1, 10**6)
            tau = F(rng.randrange(1, 40), rng.randrange(1, 12))
            L = window_radius(N, tau)
            assert (2 * L) ** 3 * tau.denominator**3 >= tau.numerator**3 * N * N
            if L > 0:
                assert (2 * (L - 1)) ** 3 * tau.denominator**3 < tau.numerator**3 * N * N

    def test_double_block_unstretched(self):
        f = StepFunction((F(0), F(2)), (F(1),))
        seq = local_averages(f, 64, 2, stretch=False)
        assert seq.L == 16 and seq.stretch == 1
        assert sum(seq.coeffs.values()) == 128  # N * integral(f)
        c = seq.conditions
        assert c.sum_identity_ok and c.cond2_ok and c.cond3_ok
        assert c.cond3_m_range == (1, 33)  # N - (2L - 1)
        assert (c.cond3_min, c.cond3_argmin) == (F(95), 33)
        assert c.cond3_threshold == F(62)  # (2L-1) N / 2L
        assert c.realized_epsilon == 0

    def test_double_block_stretched_covers_all_shifts(self):
        f = StepFunction((F(0), F(2)), (F(1),))
        seq = local_averages(f, 216, 2, stretch=True)
        assert seq.L == 36 and seq.stretch == F(216, 145)
        c = seq.conditions
        assert c.cond3_m_range == (1, 216)
        assert c.cond3_ok and c.cond3_min == F(61992, 145)
        assert c.realized_epsilon == F(71, 145)

    def test_flat_averages_from_flat_function(self):
        # away from the boundary every window is full: a_i = N/g exactly
        f = StepFunction((F(0), F(2)), (F(1),))
        seq = local_averages(f, 64, 2, stretch=False)
        interior = [seq.coeffs[i] for i in range(16, 113)]
        assert set(interior) == {F(1)}

    def test_rejects_non_family_f(self):
        f = StepFunction((F(0), F(1, 2)), (F(1),))  # acf(1) = 0 < 1
        with pytest.raises(CertificateError):
            local_averages(f, 64, 2)

    @pytest.mark.parametrize("stretch", [False, True])
    @pytest.mark.parametrize(
        "f, N, tau, gap",
        [
            # off-grid breakpoints under a non-square radicand
            (StepFunction((F(-1, 7), F(3, 5), F(16, 7)), (F(3, 2), F(4, 3)), F(5, 3)), 81, F(3, 4), False),
            # a zero gap of width 1/2, wider than the window 2L/N = 1/4
            (StepFunction((F(0), F(1), F(3, 2), F(5, 2)), (F(2), F(0), F(2))), 64, F(1), True),
            # a spike of width 2/p around the grid point 1/2: its slope per
            # grid step passes 2^63 while every integral stays below it
            (StepFunction((F(0), F(1, 2) - F(1, 10**12 + 39), F(1, 2) + F(1, 10**12 + 39), F(2)),
                          (F(1), F(10**7), F(1))), 100, F(1, 2), False),
        ],
    )
    def test_against_naive_window_averages(self, f, N, tau, gap, stretch):
        seq = local_averages(f, N, tau, stretch=stretch)
        L, lam = seq.L, seq.stretch
        assert lam == (F(N, N - 2 * L + 1) if stretch else 1)
        want = oracles.naive_window_averages(f, N, L, lam)
        nonzero = {i: a for i, a in want.items() if a}
        keys = sorted(nonzero)
        interior_zeros = [i for i in range(keys[0], keys[-1]) if not want[i]]
        assert bool(interior_zeros) == gap
        assert dict(seq.coeffs) == nonzero and seq.support == tuple(keys)
        payload = seq.to_json()
        assert payload["support"] == keys
        assert payload["coeffs"] == [str(nonzero[i]) for i in keys]
        # conditions recomputed from the oracle's averages with plain rationals
        rad = f.scale_sqrt or 1
        assert seq.radicand == rad
        total = sum(nonzero.values())
        integral = sum(v * (b2 - b1) for b1, b2, v in f.pieces())
        m_hi = N if stretch else N - (2 * L - 1)
        corr = [
            rad * sum(a * want.get(i + m, 0) for i, a in nonzero.items())
            for m in range(1, m_hi + 1)
        ]
        low = min(corr)
        threshold = F((2 * L - 1) * N, 2 * L)
        c = seq.conditions
        assert c.sum_identity_ok and total == N * lam * integral
        assert c.cond2_ok == ((max(nonzero.values()) * tau) ** 3 * N * N <= total**3)
        assert (c.cond3_min, c.cond3_argmin) == (low, corr.index(low) + 1)
        assert c.cond3_ok == (low >= threshold)
        assert c.cond3_threshold == threshold and c.cond3_m_range == (1, m_hi)
        assert c.realized_epsilon == lam - 1

    def test_sqrt_scale_carries_through(self):
        A = IntSet.of([0, 1, 3])
        f = set_to_step(A, 1, 3)  # heights sqrt(3)
        seq = local_averages(f, 60, F(3, 2), stretch=False)
        assert seq.radicand == 3
        assert F(sum(seq.nums), seq.den) == F(60) * f.integral().coeff
        assert seq.conditions.sum_identity_ok


class TestProbSeq:
    def test_folding_perfect_cube(self):
        p = ProbSeq({0: F(1, 100)}, cbrt_n=216)  # 216^(2/3) = 36
        assert p.cbrt_n is None and p.coeffs[0] == F(36, 100)

    def test_exact_threshold_decisions(self):
        p = ProbSeq({0: F(1, 100)}, cbrt_n=100)  # p_0 = 100^(2/3)/100
        # u < p_0 iff u^3 < 100^2 / 100^3 = 1/100
        u_in = F(21, 100)
        u_out = F(22, 100)
        assert u_in**3 < F(1, 100) < u_out**3
        assert p.less_than_p(0, u_in) and not p.less_than_p(0, u_out)

    def test_unit_range_cubed(self):
        assert ProbSeq({0: F(1, 22)}, cbrt_n=100).in_unit_range()  # (100^2)/22^3 < 1
        assert not ProbSeq({0: F(1, 21)}, cbrt_n=100).in_unit_range()

    def test_json_round_trip(self):
        p = ProbSeq({3: F(1, 7), -2: F(2, 5)}, cbrt_n=100)
        q = ProbSeq.from_json(p.to_json())
        assert q.coeffs == p.coeffs and q.cbrt_n == 100

    def test_parse_ratio_matches_parse_fraction(self):
        # the reference for _parse_ratios, whose split path is checked below
        rng = random.Random(701)
        texts = ["2/4", "0", "007/10", " 1/2", "1_0/3", "0.25", "+1/2", "\u0663/4", "1/\u0663"]
        for _ in range(3000):
            p, q = rng.randrange(10**rng.randrange(1, 25)), rng.randrange(1, 10**12)
            texts.append(str(p) if rng.random() < 0.2 else f"{p}/{q}")
        for text in texts:
            p, q = _parse_ratio(text)
            assert Fraction(p, q).as_integer_ratio() == parse_fraction(text).as_integer_ratio()

    def test_parse_ratio_refuses_what_parse_fraction_refuses(self):
        for text in ("1/0", "00/000", "", "1/", "/2", "1/2/3", "\u00b2/3", "abc"):
            with pytest.raises(ValueError) as fast:
                _parse_ratio(text)
            with pytest.raises(ValueError) as slow:
                parse_fraction(text)
            assert str(fast.value) == str(slow.value)

    def test_from_json_refuses_malformed(self):
        for support, coeffs in (([0], ["1/2", "1/3"]), ([0, 1], ["1/2"]), ([0, 0], ["1/2", "1/3"])):
            with pytest.raises(ValueError):
                ProbSeq.from_json({"support": support, "coeffs": coeffs, "cbrt_scale_n": None})

    def test_from_json_refuses_non_integers(self):
        # int() would read 1.9 and "2" as indices 1 and 2, and n = 8.7 as
        # the cube 8, multiplying every probability by 4
        data = {"support": [1, 2], "coeffs": ["1/2", "1/3"], "cbrt_scale_n": None}
        for bad in ({"support": [1.9, "2"]}, {"support": [True, 2]}, {"cbrt_scale_n": 8.7},
                    {"cbrt_scale_n": "8"}, {"cbrt_scale_n": False}):
            with pytest.raises(ValueError, match="support|cbrt_scale_n"):
                ProbSeq.from_json({**data, **bad})
        fn = {"breakpoints": ["0", "1"], "values": ["1"]}
        for scale in ({"num": 2.5, "den": "3"}, {"num": 2, "den": "3"}, {"num": 2, "den": 3.0},
                      {"num": True, "den": 3}):
            with pytest.raises(ValueError, match="scale_sqrt"):
                StepFunction.from_json(dict(fn, scale_sqrt=scale))
        assert StepFunction.from_json(dict(fn, scale_sqrt={"num": 2, "den": 3})).scale_sqrt == F(2, 3)

    def test_from_json_unreduced_terms(self):
        data = {"support": [0, 2], "coeffs": ["2/4", "3/9"], "cbrt_scale_n": None}
        assert ProbSeq.from_json(data) == ProbSeq({0: F(1, 2), 2: F(1, 3)})

    def test_from_json_refuses_missing_keys(self):
        for data in ({"coeffs": ["1/2"]}, {"support": [0]}, [1, 2], "1/2", None,
                     {"support": 0, "coeffs": 0}, {"support": [None], "coeffs": ["1"]}):
            with pytest.raises(ValueError, match="support"):
                ProbSeq.from_json(data)
        for data in ({"values": ["1"]}, {"breakpoints": 1, "values": 1}, [0, 1]):
            with pytest.raises(ValueError, match="breakpoints"):
                StepFunction.from_json(data)

    def test_json_coeffs_int64_and_big_int_paths(self):
        # each entry must print as format_fraction of nums[j] / den, for den
        # and nums inside int64 and past it
        rng = random.Random(907)
        for den in (1, 6, 2**62 + 2**40 * 3**5, 2**63 - 25, 2**63 + 3 * 5 * 7, 10**40 * 6):
            for _ in range(20):
                top = min(den, 2**63 - 1) if rng.random() < 0.8 else 10**30
                size = rng.randrange(1, 40)
                nums = [rng.choice([0, den, 2 * den, rng.randrange(top)]) for _ in range(size)]
                want = [format_fraction(F(n, den)) for n in nums if n]
                got = ProbSeq((5, nums, den))._json_coeffs()
                assert got == want, (den, nums)
        # small numerators over a denominator past int64
        den = 2**63 + 5
        assert ProbSeq((0, [1, 0, 2], den))._json_coeffs() == [f"1/{den}", f"2/{den}"]

    def test_to_json_coeffs_are_format_fraction(self):
        # one sequence within int64, one whose denominator exceeds 2^63
        for p, within in ((ProbSeq((3, [0, 2, 5, 0, 12], 18)), True),
                          (ProbSeq((-2, [1, 0, 2**64, 3 * 2**40], 2**64 + 9)), False)):
            assert (p.den < 2**63) == within
            want = [format_fraction(F(n, p.den)) for n in p.nums if n]
            assert p.to_json()["coeffs"] == want

    def test_parse_ratios_matches_parse_ratio(self):
        rng = random.Random(702)
        edge = ["2/4", "0", "007/10", " 1/2", "1_0/3", "0.25", "+1/2", "\u0663/4", "1/\u0663"]
        canonical = []
        for _ in range(3000):
            p, q = rng.randrange(10**rng.randrange(1, 25)), rng.randrange(1, 10**12)
            canonical.append(str(p) if rng.random() < 0.2 else f"{p}/{q}")
        lists = [canonical, canonical[:1], edge, [canonical[0], *edge[:3]]]
        lists += [rng.sample(canonical, 50) + [rng.choice(edge)] for _ in range(20)]
        for texts in lists:
            got = [F(int(p), int(q)) for p, q in zip(*_parse_ratios(texts))]
            assert got == [F(*_parse_ratio(t)) for t in texts], texts

    def test_parse_ratios_refuses_as_parse_ratio(self):
        bad_texts = ("1/0", "00/000", "", "1/", "/2", "1/2/3", "1,2", "\u00b2/3", "abc")
        for bad in bad_texts + ("1/ 2", "1/-2", "1 /2"):
            with pytest.raises(ValueError) as single:
                _parse_ratio(bad)
            for texts in (["1/2", "3", bad], ["1/2", bad, "5/0"]):
                with pytest.raises(ValueError) as bulk:
                    _parse_ratios(texts)
                assert str(bulk.value) == str(single.value), texts

    def test_rebuild_from_coeffs(self):
        for p in (ProbSeq({3: F(1, 7), -2: F(2, 5)}, 100), ProbSeq({0: F(1, 100)}, 216)):
            assert ProbSeq(p.coeffs, p.cbrt_n) == p


def _leaves(tree):
    """The scalars of a payload tree of dicts, lists and tuples; a Fraction
    yields its numerator and denominator."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield key
            yield from _leaves(value)
    elif isinstance(tree, (list, tuple)):
        for item in tree:
            yield from _leaves(item)
    elif isinstance(tree, Fraction):
        yield tree.numerator
        yield tree.denominator
    else:
        yield tree


def _plain(tree) -> bool:
    """No numpy scalar anywhere in tree: every leaf is a Python scalar."""
    return all(type(x) in (int, float, str, bool, type(None)) for x in _leaves(tree))


class TestNumeratorArrays:
    """nums held as int64 below 2^53 and as Python ints past it, checked
    against rationals and Python-int sums."""

    @staticmethod
    def _ratio(rng, digits):
        width = rng.choice(digits)
        text = str(rng.randrange(10 ** (width - 1), 10**width))
        return "0" * rng.randrange(0, 19 - width) + text if width < 18 else text

    @staticmethod
    def _oracle(support, texts):
        """{i: parse_fraction(t)} over the nonzero entries, or the error
        the first refused entry raises."""
        want = {}
        for i, text in zip(support, texts):
            value = parse_fraction(text)
            if value:
                want[i] = value
        return want

    def test_from_json_matches_parse_fraction(self):
        rng = random.Random(3101)
        cases = []
        for k in range(60):
            size = rng.randrange(1, 40)
            digits = (1, 5, 17, 18) if k % 3 else (1, 18, 19)
            texts = [f"{self._ratio(rng, digits)}/{self._ratio(rng, digits)}" for _ in range(size)]
            texts[rng.randrange(size)] = rng.choice(["0/7", "000/000001", texts[0]])
            if k % 5 == 1:
                texts[rng.randrange(size)] = self._ratio(rng, (1, 18))  # a bare "p"
            if k % 7 == 2:
                texts[rng.randrange(size)] = f"{rng.randrange(10**18)}/0"
            base = rng.choice([0, -50, 2**64])  # indices past int64 too
            support = rng.sample(range(base, base + 3 * size), size)
            cases.append((support, texts))
        cases += [([], []), ([0, 1], ["1/2", "3/4,5/6"])]  # a comma inside an entry
        fast = 0
        for support, texts in cases:
            data = {"support": support, "coeffs": texts, "cbrt_scale_n": None}
            try:
                want = self._oracle(support, texts)
            except ValueError as refused:
                with pytest.raises(ValueError) as err:
                    ProbSeq.from_json(data)
                assert str(err.value) == str(refused), texts
                continue
            got = ProbSeq.from_json(data)
            assert dict(got.coeffs) == want and got.support == tuple(sorted(want)), texts
            assert got == ProbSeq(want)
            assert got.to_json()["coeffs"] == [format_fraction(want[i]) for i in sorted(want)]
            # the one-pass read: every entry "p/q" with 18 digits a side at most
            one_pass = texts and all(
                re.fullmatch(r"[0-9]{1,18}(/[0-9]{1,18})?", t) and int(t.partition("/")[2] or 1)
                for t in texts
            )
            assert (_parse_ratios(texts)[0].dtype == np.int64) == bool(one_pass), texts
            fast += bool(one_pass)
        assert 10 < fast < len(cases) - 10

    @pytest.mark.parametrize("cbrt_n", [None, 100])
    @pytest.mark.parametrize("den", [2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1])
    def test_dtype_boundaries_match_python_ints(self, den, cbrt_n):
        edges = [1, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1]
        nums = [0, 3, *(n for n in edges if n <= den), den, 0, den // 3]
        for start in (-3, 4, 2**64):
            p = ProbSeq((start, nums, den), cbrt_n)
            wide = max(nums) >= 2**53 or p.den >= 2**53
            assert p.nums.dtype == (object if wide else np.int64)
            want = {start + j: F(n, den) for j, n in enumerate(nums) if n}
            keys = sorted(want)
            assert p.to_json() == {"support": keys, "cbrt_scale_n": cbrt_n,
                                   "coeffs": [format_fraction(want[i]) for i in keys]}
            scale = 1.0 if cbrt_n is None else float(cbrt_n) ** (2.0 / 3.0)
            assert p.screen.tolist() == [float(want[i]) * scale for i in keys]
            n = cbrt_n or 1
            assert p.in_unit_range() is all(c**3 * n * n <= 1 for c in want.values())
            assert p.sum_coeff() == sum(want.values()) and _plain([p.sum_coeff(), dict(p.coeffs)])
            for i in keys[:3]:
                for u in (want[i], want[i] - F(1, 2 * den), F(1, 3)):
                    got = p.less_than_p(i, u)
                    assert type(got) is bool and got == (u**3 < want[i] ** 3 * n * n)
            if not p.in_unit_range():
                continue
            model = RandomModel("sequence-weighted", 5, probs=p, target_N=6)
            _, probe = _make_sequence_trial(model, F(1, 2), F(1, 5))
            parts = [F(0), F(0)]
            for i, c in want.items():
                parts[i % 2] += c * want.get(i + 1, 0)
            assert probe["mu_exact"] == (sum(parts) * n, n)
            assert probe["mu_parts"] == [float(part) * float(n) ** (4.0 / 3.0) for part in parts]
            assert _plain([probe, model.to_json()])
            if start < 2**63:  # a drawn set must fit int64
                assert _plain(monte_carlo_validate(model, 2, F(1, 2), F(1, 5)).to_json())

    def test_conditions_report_holds_python_values(self):
        # den of 58 bits with breakpoints over 999999937 and 10^9
        big = StepFunction((F(0), F(1, 999999937), F(10**9 + 3, 10**9), F(2)), (F(1), F(7, 5), F(1)))
        for f, N in ((StepFunction((F(0), F(2)), (F(1),)), 64), (big, 500)):
            seq = local_averages(f, N, F(1, 2), stretch=True)
            c = seq.conditions
            values = [getattr(c, field.name) for field in dataclasses.fields(c)]
            assert _plain(values) and _plain(seq.to_json()), N
            assert seq.nums.dtype == (object if N == 500 else np.int64)
            assert all(type(getattr(c, k)) is bool for k in ("sum_identity_ok", "cond2_ok", "cond3_ok"))

    def test_equal_by_value_whatever_the_dtype(self):
        seq = local_averages(StepFunction((F(0), F(2)), (F(1),)), 64, 2, stretch=False)
        wide = dataclasses.replace(seq, nums=seq.nums.astype(object))
        assert seq.nums.dtype == np.int64 and wide == seq and hash(wide) == hash(seq)
        assert dataclasses.replace(seq, start=seq.start + 1) != seq
        p = averages_to_probs(seq)
        q = ProbSeq((p.start, p.nums, p.den), p.cbrt_n)
        object.__setattr__(q, "nums", p.nums.astype(object))
        assert q == p and hash(q) == hash(p) and len({p, q}) == 1
        assert p != seq and p != ProbSeq((p.start + 1, p.nums, p.den))
        # the dtype follows the values: a factor past 2^53 divides out to int64
        reduced = ProbSeq((0, [2**70, 0, 2**71], 2**72))
        assert reduced == ProbSeq({0: F(1, 4), 2: F(1, 2)}) and reduced.nums.dtype == np.int64
        assert not reduced.nums.flags.writeable


class TestAveragesToProbs:
    def test_normalization_and_range(self):
        f = StepFunction((F(0), F(2)), (F(1),))
        seq = local_averages(f, 64, 2, stretch=False)
        probs = averages_to_probs(seq)
        assert probs.cbrt_n is None  # 64 is a perfect cube
        assert probs.sum_coeff() == 32  # tau_hat * N^(2/3)
        assert probs.in_unit_range()
        assert max(probs.coeffs.values()) == F(1, 4)

    def test_correlation_minimum_matches_brute_force(self):
        f = StepFunction((F(0), F(2)), (F(1),))
        probs = averages_to_probs(local_averages(f, 64, 2, stretch=False))
        mn, arg = prob_correlation_minimum(probs, 1, 33)
        assert (mn, arg) == (F(95, 16), 33)
        support = probs.support
        for m in (1, 17, 33):
            brute = sum(
                probs.coeffs[i] * probs.coeffs.get(i + m, F(0)) for i in support
            )
            assert brute >= mn

    def test_pipeline_lower_bound_exact(self):
        # full chain at a perfect cube: sum p_i p_{i+m} >= rho N^(1/3) exactly
        f = StepFunction((F(0), F(2)), (F(1),))
        seq = local_averages(f, 216, F(5, 2), stretch=True)
        probs = averages_to_probs(seq)
        assert probs.sum_coeff() == F(5, 2) * 36
        eps = seq.conditions.realized_epsilon
        rho = (1 - eps) / (1 + eps) ** 2
        mn, _ = prob_correlation_minimum(probs, 1, 216)
        assert mn >= rho * 6  # N^(1/3) = 6


class TestTorus:
    def test_perfect_difference_set(self):
        spec = GroupSpec((7,))
        C = GroupSubset.of(spec, [(1,), (2,), (4,)])
        h = group_set_to_torus(C, 1)
        assert h.to_json() == {
            "invariant_factors": [7],
            "elements": [[1], [2], [4]],
            "cell_values": ["1", "1", "1"],
            "scale_sqrt": {"num": 7, "den": 1},
        }
        assert torus_autocorrelation(h, (0,)) == 3
        assert all(torus_autocorrelation(h, (x,)) == 1 for x in range(1, 7))
        assert torus_autocorrelation_min(h) == (F(1), (1,))
        assert h.l1_norm() == SqrtScaled(F(3, 7), F(7))

    def test_whole_group_is_constant_one(self):
        spec = GroupSpec((4, 3))
        full = GroupSubset.of(spec, spec.elements())
        h = group_set_to_torus(full, 12)
        assert h.scale_sqrt is None
        assert set(h.values.values()) == {F(1)}
        assert h.l1_norm() == F(1)
        mn, arg = torus_autocorrelation_min(h)
        assert mn == 1 and arg == (0, 0)

    def test_min_matches_profile_on_random_sets(self):
        rng = random.Random(1234)
        for _ in range(30):
            factors = tuple(rng.randrange(2, 7) for _ in range(rng.randrange(1, 3)))
            spec = GroupSpec(factors)
            elems = [v for v in spec.elements() if rng.random() < 0.7]
            if not elems:
                continue
            sub = GroupSubset.of(spec, elems)
            prof = group_rep_profile(sub, "difference")
            g = prof.min_count
            if g < 1:
                continue
            h = group_set_to_torus(sub, g)
            mn, _ = torus_autocorrelation_min(h)
            assert mn == F(prof.min_count, g)
            assert mn >= 1
            # grid values reproduce counts / g
            for vec, count in list(prof.counts.items())[:6]:
                assert torus_autocorrelation(h, vec) == F(count, g)

    def test_mixed_values_take_weighted_counts(self):
        from diffsets.bridge import TorusStepFunction

        spec = GroupSpec((5,))
        h = TorusStepFunction(spec, {(0,): F(1), (1,): F(2), (3,): F(1)})
        vals = {0: F(1), 1: F(2), 3: F(1)}
        brute = {}
        for x in range(5):
            brute[x] = (
                sum(vals.get(z, F(0)) * vals.get((z + x) % 5, F(0)) for z in range(5))
                / 5
            )
        for x in range(5):
            assert torus_autocorrelation(h, (x,)) == brute[x]
        mn, arg = torus_autocorrelation_min(h)
        want = min(brute.values())
        assert mn == want and brute[arg[0]] == want

    @pytest.mark.parametrize(
        "factors, cells, top",
        [
            ((13,), [(0,), (1,), (3,), (9,)], 9),
            ((13,), [(0,), (1,), (3,), (9,)], 10**12),
            ((60, 90), 289, 9),
            ((60, 90), 289, 10**12),
        ],
        ids=["pair-path", "pair-path-wide", "product-path", "product-path-wide"],
    )
    def test_weighted_min_matches_brute_pairs(self, factors, cells, top):
        from diffsets.bridge import TorusStepFunction

        # the min and its first grid offset from a pair loop over the cells,
        # for values that are not all equal, on small and wide numerators;
        # 289 cells on Z/60 x Z/90 took 1.75 s in a scan of every offset
        rng = random.Random(top)
        spec = GroupSpec(factors)
        if isinstance(cells, int):
            cells = rng.sample(list(spec.elements()), cells)
        nums = {v: rng.randrange(1, top) * rng.choice((1, 2, 3, 5)) for v in cells}
        h = TorusStepFunction(spec, {v: F(n, 30) for v, n in nums.items()}, F(2))
        brute = dict.fromkeys(spec.elements(), 0)
        for a, na in nums.items():
            for b, nb in nums.items():
                brute[tuple((y - x) % n for x, y, n in zip(a, b, factors))] += na * nb
        low = min(brute.values())
        first = next(v for v in spec.elements() if brute[v] == low)
        assert low > 0
        assert torus_autocorrelation_min(h) == (F(low * 2, 900 * spec.order), first)

    def test_rejects_non_certificate(self):
        spec = GroupSpec((6,))
        sub = GroupSubset.of(spec, [(0,), (1,)])
        with pytest.raises(CertificateError):
            group_set_to_torus(sub, 1)
