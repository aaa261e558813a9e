"""Tests for parabola unions, lifts, blow-ups, and randomized constructions."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from diffsets import constructions
from diffsets.bridge import ProbSeq, StepFunction, averages_to_probs, local_averages
from diffsets.constructions import (
    CyclicPipelineReport,
    PairRepCount,
    ParabolaUnion,
    RandomModel,
    _make_group_trial,
    _probe_label,
    _probe_part_sizes,
    _uniforms,
    best_shift_union,
    blow_up,
    chernoff_bound,
    cyclic_pipeline,
    is_prime,
    legendre_symbol,
    lift_to_cyclic,
    monte_carlo_validate,
    pair_rep_count,
    parabola_set,
    random_group_subset,
    sequence_random_set,
    shift_score,
)
from diffsets.core_sets import (
    CertificateError,
    GroupSpec,
    GroupSubset,
    IntSet,
    group_rep_profile,
    verify_certificate,
)

F = Fraction


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestPrimality:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(200) if is_prime(n)] == [
            n for n in range(200) if trial_division_prime(n)
        ]
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(2, 10**6)
            assert is_prime(n) == trial_division_prime(n)

    def test_carmichael_and_large(self):
        assert not is_prime(561) and not is_prime(1105) and not is_prime(6601)
        assert is_prime(2**31 - 1)
        assert is_prime(10**12 + 39)
        assert not is_prime((10**6 + 3) ** 2)


class TestLegendre:
    def test_against_squares_set(self):
        for p in (3, 5, 7, 11, 13, 31):
            squares = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                want = 1 if a in squares else -1
                assert legendre_symbol(a, p) == want
            assert legendre_symbol(0, p) == 0
            assert legendre_symbol(p + 1, p) == legendre_symbol(1, p)

    def test_known_values_and_multiplicativity(self):
        assert legendre_symbol(3, 7) == -1
        assert legendre_symbol(2, 7) == 1
        rng = random.Random(23)
        for _ in range(200):
            p = rng.choice((7, 11, 13, 17))
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            legendre_symbol(1, 8)
        with pytest.raises(ValueError):
            legendre_symbol(1, 2)


class TestParabola:
    def test_known_points(self):
        assert parabola_set(5, 1).elements == ((0, 0), (1, 1), (2, 4), (3, 4), (4, 1))
        assert parabola_set(5, 2).elements == ((0, 0), (1, 3), (2, 2), (3, 2), (4, 3))

    def test_size_and_membership(self):
        for p in (3, 7, 11):
            for u in range(1, p):
                A = parabola_set(p, u)
                assert A.size == p
                for (x, y) in A.elements:
                    assert (y * u - x * x) % p == 0

    def test_distinct_parabolas_meet_at_origin_only(self):
        p = 7
        sets = [set(parabola_set(p, u).elements) for u in range(1, p)]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert sets[i] & sets[j] == {(0, 0)}

    def test_rejects_zero_u(self):
        with pytest.raises(ValueError):
            parabola_set(5, 5)


def brute_pair_count(p, u, v, target):
    Pu = parabola_set(p, u).elements
    Pv = parabola_set(p, v).elements
    a, b = target[0] % p, target[1] % p
    return sum(
        1
        for s in Pu
        for t in Pv
        if ((s[0] - t[0]) % p, (s[1] - t[1]) % p) == (a, b)
    )


class TestPairRepCount:
    def test_full_enumeration_p5(self):
        for u in range(1, 5):
            for v in range(1, 5):
                for a in range(5):
                    for b in range(5):
                        got = pair_rep_count(5, u, v, (a, b))
                        assert got.count == brute_pair_count(5, u, v, (a, b))

    def test_sampled_p7_p11(self):
        rng = random.Random(47)
        for _ in range(150):
            p = rng.choice((7, 11))
            u, v = rng.randrange(1, p), rng.randrange(1, p)
            t = (rng.randrange(p), rng.randrange(p))
            assert pair_rep_count(p, u, v, t).count == brute_pair_count(p, u, v, t)

    def test_diagonal_closed_form(self):
        rec = pair_rep_count(7, 1, 1, (0, 0))
        assert rec.count == 7 and rec.method == "diagonal"
        assert pair_rep_count(7, 1, 1, (0, 3)).count == 0
        assert pair_rep_count(7, 2, 2, (3, 1)).count == 1

    def test_discriminant_fields(self):
        rec = pair_rep_count(7, 1, 2, (0, 0))
        assert rec.method == "discriminant"
        assert rec.count == 1 + (rec.legendre or 0)
        assert rec.discriminant == 4 * 1 * 2 * (0 - 0 * (1 - 2)) % 7 == 0

    def test_off_diagonal_counts_average_to_one(self):
        # sum over all targets of (1 + chi(disc)) = p^2: chi sums to zero
        p = 11
        for (u, v) in ((1, 2), (3, 7)):
            total = sum(
                pair_rep_count(p, u, v, (a, b)).count for a in range(p) for b in range(p)
            )
            assert total == p * p


def brute_shift_score(p, k, t):
    total = 0
    for ell in range(-(k - 1), k):
        s = sum(
            legendre_symbol((t + i) * (t + j), p)
            for i in range(1, k + 1)
            for j in range(1, k + 1)
            if i - j == ell
        )
        total += abs(s)
    return total


class TestShiftScore:
    def test_known_values(self):
        assert [shift_score(11, 3, t) for t in range(8)] == [9, 5, 9, 5, 5, 9, 5, 9]

    def test_matches_brute_force(self):
        rng = random.Random(59)
        for _ in range(60):
            p = rng.choice((7, 11, 13, 17))
            k = rng.randrange(1, min(6, p - 1))
            t = rng.randrange(0, p - k)
            assert shift_score(p, k, t) == brute_shift_score(p, k, t)

    def test_diagonal_term_forces_k_floor(self):
        for p, k in ((11, 3), (13, 4), (17, 5)):
            for t in range(0, p - k):
                assert shift_score(p, k, t) >= k

    def test_range_validation(self):
        with pytest.raises(ValueError):
            shift_score(11, 3, 8)
        with pytest.raises(ValueError):
            shift_score(11, 11, 0)


class TestBestShiftUnion:
    def test_small_frozen_instance(self):
        u = best_shift_union(5, 2)
        assert (u.t, u.score, u.subset.size) == (0, 4, 9)
        assert u.guaranteed_g == 2 * 2 - 2 * 1 - math.isqrt(4 * 8) == -3
        assert u.vacuous and u.verified_mode == "exhaustive"

    def test_p11_k3_tie_break_and_floor(self):
        u = best_shift_union(11, 3)
        # scores 5 at t in {1,3,4,6}: smallest t wins
        assert (u.t, u.score) == (1, 5)
        assert u.subset.size == 3 * 10 + 1
        assert u.verified_g == 5
        assert u.verified_g >= 3 * 3 - 2 * 2 - u.score  # instance floor

    def test_wire_format_keys(self):
        u = best_shift_union(5, 2)
        assert set(u.to_json()) == {
            "p", "k", "t", "S_t", "guaranteed_g", "verified_g", "elements",
        }

    def test_sampled_mode_is_deterministic_and_sound(self, monkeypatch):
        full = best_shift_union(11, 3)
        monkeypatch.setattr(constructions, "_EXHAUSTIVE_ORDER", 50)
        a = best_shift_union(11, 3, seed=3)
        b = best_shift_union(11, 3, seed=3)
        assert a.verified_mode == "sampled"
        assert a.verified_g == b.verified_g
        # sample minimum can only sit above the exhaustive minimum
        assert a.verified_g >= full.verified_g
        assert (a.t, a.score) == (full.t, full.score)

    def test_scan_union_and_lift_match_references(self):
        # the prefix-sum scan against shift_score at every shift, the numpy
        # union against its points, the lift against its formula
        for p in (3, 5, 7, 11, 13):
            for k in range(1, p):
                scores = [shift_score(p, k, t) for t in range(p - k)]
                u = best_shift_union(p, k)
                assert (u.t, u.score) == (scores.index(min(scores)), min(scores))
                pts = {
                    (x, x * x * pow(v, -1, p) % p)
                    for v in range(u.t + 1, u.t + k + 1)
                    for x in range(p)
                }
                assert u.subset.elements == tuple(sorted(pts))
                s = k % 3 + 1
                lifted = lift_to_cyclic(u.subset, s)
                image = {(a + c * p + b * s * p,) for a, b in pts for c in range(s)}
                assert lifted.elements == tuple(sorted(image))

    def test_instance_floor_across_primes(self):
        for p, k in ((7, 2), (11, 2), (13, 3), (17, 3)):
            u = best_shift_union(p, k)
            assert u.verified_g >= k * k - 2 * (k - 1) - u.score


class TestLift:
    def test_frozen_small_lift(self):
        A = parabola_set(3, 1)
        L = lift_to_cyclic(A, 2)
        assert L.group.factors == (18,)
        assert L.elements == ((0,), (3,), (7,), (8,), (10,), (11,))
        assert L.size == A.size * 2

    def test_preserves_certificates_randomly(self):
        rng = random.Random(61)
        done = 0
        while done < 25:
            p = rng.choice((3, 5))
            spec = GroupSpec((p, p))
            sub = GroupSubset.of(
                spec, (v for v in spec.elements() if rng.random() < 0.75)
            )
            if sub.size == 0:
                continue
            g = group_rep_profile(sub, "difference").min_count
            if g < 1:
                continue
            s = rng.choice((2, 3, 4))
            lifted = lift_to_cyclic(sub, s)
            assert lifted.size == sub.size * s
            target = g * (s - 1)
            got = group_rep_profile(lifted, "difference").min_count
            assert got >= target
            assert verify_certificate(lifted, g=target, mode="difference").passed
            done += 1

    def test_rejects_wrong_domain(self):
        with pytest.raises(ValueError):
            lift_to_cyclic(GroupSubset.of(GroupSpec((4, 4)), [(0, 0)]), 2)
        with pytest.raises(ValueError):
            lift_to_cyclic(GroupSubset.of(GroupSpec((3, 5)), [(0, 0)]), 2)


class TestPipeline:
    def test_frozen_p11_k3_s2(self):
        rep = cyclic_pipeline(3, 2, 11)
        assert rep.to_json() | {"union": None} == {
            "p": 11,
            "k": 3,
            "s": 2,
            "modulus": 242,
            "size": 62,
            "plane_g": 5,
            "cyclic_g": 5,
            "verified_cyclic_g": 9,
            "recommended_k": 16,
            "union": None,
        }
        v = verify_certificate(rep.lifted, g=rep.cyclic_g, mode="difference")
        assert v.passed

    def test_recommended_k_rule(self):
        assert cyclic_pipeline(3, 2, 11).recommended_k == 16
        assert cyclic_pipeline(3, 3, 11).recommended_k == 36

    def test_rejects_vacuous_plane(self):
        with pytest.raises(CertificateError):
            cyclic_pipeline(2, 2, 5)  # verified plane minimum is 0


class TestBlowUp:
    def test_frozen_example(self):
        A = IntSet.of([0, 1, 3])
        C = GroupSubset.of(GroupSpec((7,)), [(1,), (2,), (4,)])
        B, g1, g2 = blow_up(A, 1, 3, C, 1)
        assert B.elements == (1, 2, 4, 8, 9, 11, 22, 23, 25)
        assert verify_certificate(B, g=1, N=21, mode="difference").passed
        # None claims the achieved count
        assert blow_up(A, None, 3, C, None) == (B, 1, 1)

    def test_zero_residue_maps_to_q(self):
        A = IntSet.of([0, 1])
        C = GroupSubset.of(GroupSpec((2,)), [(0,), (1,)])
        B, _, g2 = blow_up(A, 1, 1, C, None)
        assert B.elements == (1, 2, 3, 4) and g2 == 2

    def test_random_products_certify(self):
        rng = random.Random(73)
        done = 0
        while done < 20:
            N = rng.randrange(2, 9)
            # covering shift N needs elements N apart: draw from [0, N]
            A = IntSet.of(x for x in range(N + 1) if rng.random() < 0.8)
            if A.size < 1:
                continue
            v1 = verify_certificate(A, g=1, N=N, mode="difference")
            if not v1.passed:
                continue
            g1 = v1.achieved_g
            q = rng.randrange(2, 8)
            spec = GroupSpec((q,))
            C = GroupSubset.of(spec, ((r,) for r in range(q) if rng.random() < 0.8))
            if C.size == 0:
                continue
            g2 = group_rep_profile(C, "difference").min_count
            if g2 < 1:
                continue
            B, _, _ = blow_up(A, g1, N, C, g2)
            assert B.size == A.size * C.size
            assert verify_certificate(B, g=g1 * g2, N=q * N, mode="difference").passed
            done += 1

    def test_rejects_failed_inputs(self):
        C = GroupSubset.of(GroupSpec((7,)), [(1,), (2,), (4,)])
        with pytest.raises(CertificateError) as err:
            blow_up(IntSet.of([0, 1, 2]), 1, 5, C, 1)
        assert err.value.verdict is not None
        with pytest.raises(CertificateError):
            blow_up(IntSet.of([0, 1, 3]), 1, 3, C, 2)
        # an achieved count of 0 is no certificate either
        with pytest.raises(CertificateError, match="A is not a 1-difference set") as err:
            blow_up(IntSet.of([0, 2]), None, 3, C, None)
        assert err.value.verdict.achieved_g == 0
        with pytest.raises(CertificateError, match="C is not a 1-difference set"):
            blow_up(IntSet.of([0, 1, 3]), None, 3, GroupSubset.of(GroupSpec((7,)), [(0,)]), None)
        with pytest.raises(ValueError):
            blow_up(IntSet.of([0]), 1, 1, GroupSubset.of(GroupSpec((2, 2)), [(0, 0)]), 1)


class TestChernoff:
    def test_known_values(self):
        assert chernoff_bound(2, 10) == pytest.approx(2 * math.exp(-10))
        assert chernoff_bound(4, 1) == pytest.approx(2 * math.exp(-2))
        assert chernoff_bound(0, 5) == 2.0

    def test_small_delta_uses_quadratic_arm(self):
        assert chernoff_bound(1, 8) == pytest.approx(2 * math.exp(-2))
        assert chernoff_bound(F(1, 2), 8) == pytest.approx(2 * math.exp(-0.5))

    def test_monotone(self):
        xs = [chernoff_bound(d / 10, 50) for d in range(0, 40)]
        assert all(a >= b for a, b in zip(xs, xs[1:]))
        ys = [chernoff_bound(1, mu) for mu in range(0, 30)]
        assert all(a >= b for a, b in zip(ys, ys[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chernoff_bound(-1, 5)


class TestProbePartition:
    def test_closed_form_against_brute_force_colouring(self):
        # every probe factor n in 2..60, with factors of 1 (and others
        # before it) on either side of the probe axis
        rng = random.Random(83)
        for n in range(2, 61):
            before = [rng.choice([1, 1, 2, 3, 4]) for _ in range(rng.randrange(3))]
            after = [1] * rng.randrange(3 - len(before))
            spec = GroupSpec((*before, n, *after))
            unit = tuple(int(i == len(before)) for i in range(spec.rank))
            sizes = [0, 0, 0]
            for x in spec.elements():
                label = _probe_label(x[len(before)], n)
                shifted = spec.reduce(a + b for a, b in zip(x, unit))
                assert label != _probe_label(shifted[len(before)], n), (spec, x)
                sizes[label] += 1
            sizes = sizes[: 2 if n == 2 else 3]
            assert sizes == [spec.order // n * q for q in _probe_part_sizes(n)], spec
            model = RandomModel(kind="group-uniform", master_seed=0, group=spec, g=1)
            _, probe = _make_group_trial(model, Fraction(1, 2), Fraction(1, 2))
            assert probe["shift"] == list(unit)
            assert probe["mu_parts"] == [Fraction(q, spec.order) for q in sizes]

    def test_set_up_allocates_nothing_of_group_order(self):
        model = RandomModel(kind="group-uniform", master_seed=0, group=GroupSpec((2_000_000,)), g=1)
        tracemalloc.start()
        try:
            _make_group_trial(model, Fraction(1, 2), Fraction(1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRandomGroupSubset:
    def test_deterministic_frozen_draw(self):
        s = random_group_subset(GroupSpec((10000,)), 100, seed=123)
        assert s.size == 994
        assert s.elements[:5] == ((9,), (16,), (19,), (30,), (31,))

    def test_multirank_draw(self):
        s = random_group_subset(GroupSpec((6, 10)), 8, seed=7)
        assert s.size == 19
        assert s.elements[0] == (0, 1) and s.elements[-1] == (5, 5)

    def test_inclusion_matches_exact_threshold(self):
        spec = GroupSpec((500,))
        g = 20
        s = random_group_subset(spec, g, seed=9)
        u = _uniforms(9, 500)
        want = {i for i in range(500) if F(float(u[i])) ** 2 < F(g, 500)}
        assert {e[0] for e in s.elements} == want

    @pytest.mark.parametrize("factors", [(9,), (3, 3)])
    def test_border_uniforms_are_decided_exactly(self, monkeypatch, factors):
        # at g/|G| = 1/9 the float threshold t = sqrt(1/9) has t*t == 1/9 in
        # floats but Fraction(t)^2 < 1/9: only the exact test takes it
        t = math.sqrt(1 / 9)
        u = np.array([t, t - 1e-13, t + 1e-13, 0.0, 0.9, t, t + 1e-13, t - 1e-13, 0.5])
        assert not t * t < 1 / 9 and F(t) ** 2 < F(1, 9)
        monkeypatch.setattr(constructions, "_uniforms", lambda seed, count: u[:count])
        want = [i for i in range(9) if F(float(u[i])) ** 2 < F(1, 9)]
        assert want == [0, 1, 3, 5, 7]
        group = GroupSpec(factors)
        drawn = GroupSubset(group, [group.unflatten(i) for i in want])
        assert random_group_subset(group, 1, seed=0) == drawn
        model = RandomModel(kind="group-uniform", master_seed=0, group=group, g=1)
        rep = monte_carlo_validate(model, 2, F(1, 2), F(1, 2))
        assert [row["size"] for row in rep.per_trial] == [len(want)] * 2

    def test_rejects_bad_g(self):
        with pytest.raises(ValueError):
            random_group_subset(GroupSpec((10,)), 11, seed=0)
        with pytest.raises(ValueError):
            random_group_subset(GroupSpec((10,)), 0, seed=0)


class TestSequenceRandomSet:
    def test_deterministic_frozen_draw(self):
        probs = ProbSeq({i: F(1, 2) for i in range(10)})
        assert sequence_random_set(probs, seed=11).elements == (0, 5, 7, 8, 9)

    def test_exact_and_screened_paths_agree(self):
        # support above 1024 exercises the float screen; check every decision
        probs = ProbSeq({i: F((i * 37) % 100 + 1, 200) for i in range(1500)})
        A = sequence_random_set(probs, seed=21)
        u = _uniforms(21, 1500)
        want = {
            i for i in range(1500) if probs.less_than_p(i, F(float(u[i])))
        }
        assert set(A.elements) == want

    def test_scaled_screen_matches_exact_decisions(self):
        # 1500 entries at the non-cube scale 100^(2/3), denominators of 19 or
        # 20 digits, and every 100th p_i placed within 1e-12 of its uniform
        n, size, seed = 100, 1500, 33
        u = _uniforms(seed, size)
        scale = n ** (2 / 3)
        rng = random.Random(5)
        dens = (10**19 + 7, 10**18 + 9, 3 * 10**19 + 1)
        coeffs = {}
        for i in range(size):
            if i % 100 == 0:
                coeffs[i] = F(float(u[i]) / scale)
            else:
                d = dens[i % 3]
                coeffs[i] = F(rng.randrange(1, d // 22), d)
        probs = ProbSeq(coeffs, cbrt_n=n)
        assert probs.cbrt_n == n and probs.in_unit_range()
        assert len(probs.support) == size and len(str(probs.den)) > 17
        assert list(probs.screen) == [float(probs.coeffs[i]) * scale for i in range(size)]
        assert (abs(u - probs.screen) < 1e-12).sum() >= size // 100
        A = sequence_random_set(probs, seed=seed)
        want = {i for i in range(size) if probs.less_than_p(i, F(float(u[i])))}
        assert set(A.elements) == want

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sequence_random_set(ProbSeq({0: F(3, 2)}), seed=0)

    def test_scaled_sequence_draws(self):
        f = StepFunction((F(0), F(2)), (F(1),))
        probs = averages_to_probs(local_averages(f, 64, 2, stretch=False))
        A = sequence_random_set(probs, seed=5)
        B = sequence_random_set(probs, seed=5)
        assert A == B and A.size > 0
        assert set(A.elements) <= set(probs.support)


class TestMonteCarlo:
    def test_group_model_runs_and_caps(self):
        model = RandomModel(
            kind="group-uniform", master_seed=42, group=GroupSpec((500,)), g=50
        )
        rep = monte_carlo_validate(model, 12, F(3, 10), F(1, 10))
        assert rep.trials == 12 and len(rep.per_trial) == 12
        assert 0 <= rep.success_count <= 12
        assert rep.per_trial[0]["seed"] == 42 and rep.per_trial[3]["seed"] == 42 ^ 3
        for tc in rep.tail_checks:
            assert tc["partition"] == "tripartite"
            assert 0.0 <= tc["bound"] <= 1.0
            assert tc["empirical"] <= 1.0

    def test_group_success_threshold_is_exact(self):
        model = RandomModel(
            kind="group-uniform", master_seed=7, group=GroupSpec((2000,)), g=200
        )
        rep = monte_carlo_validate(model, 8, F(3, 10), F(1, 10))
        floor = (1 - F(3, 10)) * 200
        cap_sq = (1 + F(1, 10)) ** 2 * 200 * 2000
        for row in rep.per_trial:
            want = row["achieved_g"] >= floor and row["size"] ** 2 <= cap_sq
            assert row["success"] == want

    def test_sequence_model_checks_shift_window(self):
        f = StepFunction((F(0), F(2)), (F(1),))
        probs = averages_to_probs(local_averages(f, 216, F(5, 2), stretch=True))
        model = RandomModel(
            kind="sequence-weighted", master_seed=17, probs=probs, target_N=216
        )
        rep = monte_carlo_validate(model, 10, F(3, 10), F(1, 5))
        assert len(rep.tail_checks) == 5
        assert rep.tail_checks[0]["partition"] == "bipartite"
        rho = ((1 - F(1, 5)) / (1 + F(1, 5))) ** 2
        for row in rep.per_trial:
            if row["size"] < 2:
                continue
            size_ok = F(row["size"]) ** 3 <= ((1 + F(1, 5)) * probs.sum_coeff()) ** 3 * 216**2
            count_ok = F(row["achieved_g"]) ** 3 >= rho**3 * 216
            assert row["success"] == (size_ok and count_ok)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            RandomModel(kind="group-uniform", master_seed=0)
        with pytest.raises(ValueError):
            RandomModel(kind="nope", master_seed=0)
        with pytest.raises(ValueError):
            RandomModel(
                kind="group-uniform", master_seed=0, group=GroupSpec((5,)), g=9
            )
