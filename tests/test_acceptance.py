"""Acceptance gate: twelve end-to-end criteria, one printed verdict each.

Run `pytest tests/test_acceptance.py -v -s` to see the ACCEPTANCE lines as
they complete.  Every comparison is exact (integers and rationals) except
where a line says otherwise; the two Monte Carlo criteria dominate the
runtime at roughly a minute combined.
"""

import math
import random
from fractions import Fraction

import numpy as np

import oracles
from diffsets import constructions
from diffsets.bridge import (
    StepFunction,
    autocorrelation,
    autocorrelation_min,
    averages_to_probs,
    group_set_to_torus,
    local_averages,
    set_to_step,
    torus_autocorrelation_min,
)
from diffsets.constructions import (
    RandomModel,
    best_shift_union,
    blow_up,
    legendre_symbol,
    lift_to_cyclic,
    monte_carlo_validate,
    pair_rep_count,
    parabola_set,
    random_group_subset,
    sequence_random_set,
)
from diffsets.core_sets import (
    BoundsLedger,
    GroupSpec,
    GroupSubset,
    IntSet,
    group_rep_profile,
    rep_diff_profile,
    trivial_bounds,
    verify_certificate,
)
from diffsets.solver import (
    alpha_exact,
    beta_exact,
    eta_exact,
    gamma_exact,
    ratio_report,
    ratio_rows,
)


def _verdict(n: int, problems: list) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if not problems else 'FAIL'}")
    assert not problems, f"criterion {n}: " + "; ".join(str(p) for p in problems[:10])


# Shared solver sweep; later criteria reuse earlier runs through this cache.
_ETA_CASES = (
    tuple((1, N) for N in range(1, 11))
    + tuple((2, N) for N in range(1, 7))
    + tuple((3, N) for N in range(1, 5))
)
_BETA_CASES = (
    tuple((1, N) for N in range(1, 9))
    + tuple((2, N) for N in range(1, 9))
    + tuple((3, N) for N in range(1, 7))
)
_GROUP_FACTORS = ((2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 4), (12,), (2, 2, 3))
_GROUP_CASES = tuple(
    (g, f) for f in _GROUP_FACTORS for g in (1, 2, 3) if g <= math.prod(f)
)

_CACHE = {}


def _solved(quantity: str, g: int, param):
    key = (quantity, g, param)
    if key not in _CACHE:
        if quantity == "eta":
            _CACHE[key] = eta_exact(g, param)
        elif quantity == "beta":
            _CACHE[key] = beta_exact(g, param)
        elif quantity == "gamma":
            _CACHE[key] = gamma_exact(g, GroupSpec(param))
        else:
            _CACHE[key] = alpha_exact(g, GroupSpec(param))
    return _CACHE[key]


def test_acceptance_01_exact_small_eta():
    problems = []
    for N, want in ((1, 2), (2, 3), (3, 3)):
        got = _solved("eta", 1, N).value
        if got != want:
            problems.append(f"eta_1({N}) = {got}, want {want}")
    cases = (
        [(g, N) for g in (1, 2) for N in range(1, 7)]
        + [(3, N) for N in range(1, 5)]
        + [(4, 1), (4, 2)]
    )
    for g, N in cases:
        r = _solved("eta", g, N)
        size, _ = oracles.naive_eta(g, N)
        if r.value != size or not r.exhaustive:
            problems.append(f"eta_{g}({N}): solver {r.value}, oracle {size}")
    _verdict(1, problems)


def test_acceptance_02_eta_ratio_floor():
    # every exhaustive eta must clear 1.560 sqrt(gN); 1.560 = 39/25, squared
    ledger = BoundsLedger()
    problems = []
    for g, N in _ETA_CASES:
        r = _solved("eta", g, N)
        if not r.exhaustive:
            problems.append(f"eta_{g}({N}) not exhaustive")
            continue
        if 625 * r.value * r.value < 1521 * g * N:
            problems.append(f"eta_{g}({N}) = {r.value} below 1.560 sqrt(gN)")
        if not ledger.eta_ratio_ok(r.value, g, N):
            problems.append(f"ledger disagrees at eta_{g}({N})")
    _verdict(2, problems)


def test_acceptance_03_trivial_bounds():
    problems = []
    for g, N in _ETA_CASES:
        tb = trivial_bounds(g, N=N)
        r = _solved("eta", g, N)
        if r.value < tb.min_cover_lower:
            problems.append(f"eta_{g}({N}) = {r.value} under cover bound")
    for g, N in _BETA_CASES:
        tb = trivial_bounds(g, N=N)
        r = _solved("beta", g, N)
        if r.value > tb.max_packing_upper:
            problems.append(f"beta_{g}({N}) = {r.value} over packing bound")
    for g, factors in _GROUP_CASES:
        tb = trivial_bounds(g, group=GroupSpec(factors))
        ga = _solved("gamma", g, factors)
        if ga.value < tb.min_cover_lower or ga.value < tb.sharper_cover_lower:
            problems.append(f"gamma_{g}{factors} = {ga.value} under cover bound")
        al = _solved("alpha", g, factors)
        if al.value > tb.max_packing_upper:
            problems.append(f"alpha_{g}{factors} = {al.value} over packing bound")
    _verdict(3, problems)


def test_acceptance_04_pair_counts_and_quadruples():
    problems = []
    for p in (3, 5, 7, 11, 13):
        points = {u: set(parabola_set(p, u).elements) for u in range(1, p)}
        tables = {}
        for u in range(1, p):
            for v in range(1, p):
                brute = {}
                for sa, sb in points[u]:
                    for ta, tb in points[v]:
                        key = ((sa - ta) % p, (sb - tb) % p)
                        brute[key] = brute.get(key, 0) + 1
                table = {}
                for a in range(p):
                    for b in range(p):
                        c = pair_rep_count(p, u, v, (a, b)).count
                        table[(a, b)] = c
                        if c != brute.get((a, b), 0):
                            problems.append(f"p={p} u={u} v={v} target ({a},{b})")
                tables[(u, v)] = table
        # whenever u-v = u'-v' and chi(u v u' v') = -1, counts sum to 2
        by_diff = {}
        for u, v in tables:
            by_diff.setdefault((u - v) % p, []).append((u, v))
        checked = 0
        for pairs in by_diff.values():
            for u, v in pairs:
                for u2, v2 in pairs:
                    if legendre_symbol(u * v * u2 * v2, p) != -1:
                        continue
                    checked += 1
                    t1, t2 = tables[(u, v)], tables[(u2, v2)]
                    for key, c in t1.items():
                        if c + t2[key] != 2:
                            problems.append(
                                f"quadruple p={p} ({u},{v},{u2},{v2}) at {key}"
                            )
                            break
        if p > 3 and checked == 0:
            problems.append(f"p={p}: no quadruple met the hypotheses")
    _verdict(4, problems)


def test_acceptance_05_shifted_union_floor(monkeypatch):
    problems = []
    for k in (2, 3):
        r = best_shift_union(11, k)
        floor = k * k - 2 * (k - 1) - r.score
        if r.verified_mode != "exhaustive":
            problems.append(f"p=11 k={k} not exhaustive")
        pts = list(r.subset.elements)
        counts = {}
        for s in pts:
            for t in pts:
                key = ((s[0] - t[0]) % 11, (s[1] - t[1]) % 11)
                counts[key] = counts.get(key, 0) + 1
        true_min = min(
            counts.get((a, b), 0)
            for a in range(11)
            for b in range(11)
            if (a, b) != (0, 0)
        )
        if true_min != r.verified_g:
            problems.append(f"p=11 k={k}: recount {true_min} vs {r.verified_g}")
        if true_min < floor:
            problems.append(f"p=11 k={k}: min {true_min} under floor {floor}")
    monkeypatch.setattr(constructions, "_EXHAUSTIVE_ORDER", 5000)
    for k in (2, 3):
        r = best_shift_union(101, k, seed=7)
        floor = k * k - 2 * (k - 1) - r.score
        if r.verified_mode != "sampled":
            problems.append(f"p=101 k={k} did not sample")
        if r.verified_g < floor:
            problems.append(f"p=101 k={k}: sampled min under floor {floor}")
        member = set(r.subset.elements)
        rng = random.Random(20260815 + k)
        for _ in range(200):
            a, b = rng.randrange(101), rng.randrange(101)
            if (a, b) == (0, 0):
                continue
            cnt = sum(
                1 for x, y in member if ((x - a) % 101, (y - b) % 101) in member
            )
            if cnt < floor:
                problems.append(f"p=101 k={k} target ({a},{b}) count {cnt}")
                break
    _verdict(5, problems)


def test_acceptance_06_lift_and_blowup_compose():
    problems = []
    rng = random.Random(20260815)
    made = 0
    while made < 200:
        p = rng.choice((3, 5, 7))
        s = rng.randrange(2, 5)
        pts = [(a, b) for a in range(p) for b in range(p) if rng.random() < 0.7]
        if not pts:
            continue
        A = GroupSubset.of(GroupSpec((p, p)), pts)
        g = group_rep_profile(A, "difference").min_count
        if g < 1:
            continue
        C = lift_to_cyclic(A, s)
        if C.size != A.size * s:
            problems.append(f"lift p={p} s={s}: size {C.size} != {A.size * s}")
        v = verify_certificate(C, g=g * (s - 1), mode="difference")
        if not v.passed:
            problems.append(f"lift p={p} s={s} g={g} fails at shift {v.witness}")
        made += 1
    made = 0
    while made < 200:
        N = rng.randrange(2, 11)
        elems = [x for x in range(N + 1) if rng.random() < 0.7]
        if not elems:
            continue
        A = IntSet.of(elems)
        g1 = rep_diff_profile(A, (1, N)).min_count
        if g1 < 1:
            continue
        q = rng.randrange(2, 9)
        cpts = [(c,) for c in range(q) if rng.random() < 0.7]
        if not cpts:
            continue
        C = GroupSubset.of(GroupSpec((q,)), cpts)
        g2 = group_rep_profile(C, "difference").min_count
        if g2 < 1:
            continue
        B, _, _ = blow_up(A, g1, N, C, g2)
        if B.size != A.size * C.size:
            problems.append(f"blow-up N={N} q={q}: size {B.size}")
        v = verify_certificate(B, g=g1 * g2, N=q * N, mode="difference")
        if not v.passed:
            problems.append(f"blow-up N={N} q={q} fails at shift {v.witness}")
        made += 1
    _verdict(6, problems)


def test_acceptance_07_bridge_exactness():
    problems = []
    rng = random.Random(777)
    made = 0
    while made < 100 and len(problems) < 10:
        N = rng.randrange(2, 31)
        elems = [x for x in range(N + 1) if rng.random() < 0.6]
        if not elems:
            continue
        A = IntSet.of(elems)
        g = rep_diff_profile(A, (1, N)).min_count
        if g < 1:
            continue
        if not verify_certificate(A, g=g, N=N, mode="difference").passed:
            problems.append(f"draw N={N} failed its own certificate")
            continue
        made += 1
        f = set_to_step(A, g, N)
        if f.integral().squared() != Fraction(A.size * A.size, g * N):
            problems.append(f"L1 norm drifted for N={N}")
        diffs = {}
        for x in elems:
            for y in elems:
                if x >= y:
                    diffs[x - y] = diffs.get(x - y, 0) + 1
        for j in range(N + 1):
            want = Fraction(diffs.get(j, 0), g)
            if autocorrelation(f, Fraction(j, N)) != want:
                problems.append(f"endpoint identity broke at N={N} j={j}")
                break
        mn, arg = autocorrelation_min(f, 0, 1)
        if mn < 1:
            problems.append(f"autocorrelation min {mn} at {arg} for N={N}")
    _verdict(7, problems)


def test_acceptance_08_window_average_conditions():
    problems = []
    f = StepFunction((Fraction(0), Fraction(2)), (Fraction(1),))
    seq = local_averages(f, 64, Fraction(2))
    if seq.L != 16:
        problems.append(f"window radius {seq.L}, want 16")
    total = Fraction(sum(seq.coeffs.values()))
    if seq.radicand != 1 or total != 128:
        problems.append(f"sum of averages is {total}, want 128")
    rep = seq.conditions
    if not (rep.sum_identity_ok and rep.cond2_ok and rep.cond3_ok):
        problems.append("a window-average condition flag is down")
    threshold = Fraction((2 * seq.L - 1) * 64, 2 * seq.L)
    if rep.cond3_threshold != threshold:
        problems.append(f"threshold {rep.cond3_threshold}, want {threshold}")
    if rep.cond3_m_range != (1, 33):
        problems.append(f"shift range {rep.cond3_m_range}, want (1, 33)")
    # independent correlation recount with plain rationals
    for m in range(1, 34):
        corr = sum(c * seq.coeffs.get(i + m, Fraction(0)) for i, c in seq.coeffs.items())
        if corr < threshold:
            problems.append(f"correlation at m={m} is {corr} < {threshold}")
            break
    _verdict(8, problems)


def test_acceptance_09_sequence_rounding_at_scale():
    problems = []
    N = 100_000
    f = StepFunction((Fraction(0), Fraction(2)), (Fraction(1),))
    seq = local_averages(f, N, Fraction(5, 2), stretch=True)
    probs = averages_to_probs(seq)
    if probs.sum_coeff() != Fraction(5, 2) or probs.cbrt_n != N:
        problems.append("probability normalization drifted")
    model = RandomModel(
        "sequence-weighted", master_seed=20260815, probs=probs, target_N=N
    )
    report = monte_carlo_validate(model, 50, delta=Fraction(1, 2), epsilon=Fraction(1, 5))
    # both conclusions, cubed: |A|^3 <= ((6/5)(5/2))^3 N^2 and r^3 >= (4/9)^3 N
    wins = 0
    for row in report.per_trial:
        ok = (
            row["size"] ** 3 <= 27 * N * N
            and 729 * row["achieved_g"] ** 3 >= 64 * N
        )
        if ok != row["success"]:
            problems.append(f"trial {row['trial']} bookkeeping mismatch")
        wins += ok
    if wins < 45:
        problems.append(f"only {wins}/50 trials met both conclusions")
    # trial 0 recounted from scratch with a chunked bincount
    A0 = sequence_random_set(probs, model.master_seed ^ 0)
    row0 = report.per_trial[0]
    if A0.size != row0["size"]:
        problems.append("trial 0 size drifted")
    a = np.array(A0.elements, dtype=np.int64)
    span = int(a.max() - a.min())
    counts = np.zeros(span + 1, dtype=np.int64)
    for i0 in range(0, len(a), 256):
        d = (a[i0 : i0 + 256, None] - a[None, :]).ravel()
        counts += np.bincount(d[d > 0], minlength=span + 1)
    r_min = int(counts[1 : N + 1].min()) if span >= N else 0
    if r_min != row0["achieved_g"]:
        problems.append(f"trial 0 min count {r_min} vs {row0['achieved_g']}")
    _verdict(9, problems)


def test_acceptance_10_group_rounding_at_scale():
    problems = []
    grp = GroupSpec((20000,))
    model = RandomModel("group-uniform", master_seed=20260815, group=grp, g=500)
    report = monte_carlo_validate(
        model, 100, delta=Fraction(3, 10), epsilon=Fraction(1, 10)
    )
    wins = 0
    for row in report.per_trial:
        # min count >= (1 - 3/10) 500 and size^2 <= (11/10)^2 500 * 20000
        ok = row["achieved_g"] >= 350 and 100 * row["size"] ** 2 <= 121 * 10**7
        if ok != row["success"]:
            problems.append(f"trial {row['trial']} bookkeeping mismatch")
        wins += ok
    if wins < 95:
        problems.append(f"only {wins}/100 trials succeeded")
    for row in report.tail_checks:
        emp, bound = row["empirical"], row["bound"]
        se = math.sqrt(emp * (1 - emp) / report.trials)
        if emp > bound + 5 * se:
            problems.append(f"tail at delta={row['delta']}: {emp} > {bound} + 5 SE")
    sub = random_group_subset(grp, 500, model.master_seed ^ 0)
    row0 = report.per_trial[0]
    if sub.size != row0["size"]:
        problems.append("trial 0 size drifted")
    vals = np.array([v[0] for v in sub.elements], dtype=np.int64)
    counts = np.zeros(20000, dtype=np.int64)
    for i0 in range(0, len(vals), 512):
        d = np.mod(vals[i0 : i0 + 512, None] - vals[None, :], 20000).ravel()
        counts += np.bincount(d, minlength=20000)
    if int(counts.min()) != row0["achieved_g"]:
        problems.append("trial 0 min count drifted")
    _verdict(10, problems)


def test_acceptance_11_constant_torus_function():
    problems = []
    for factors in ((12,), (2, 3)):
        grp = GroupSpec(factors)
        full = GroupSubset.of(grp, grp.elements())
        if not verify_certificate(full, g=grp.order, mode="difference").passed:
            problems.append(f"full group {factors} fails as |G|-difference set")
        h = group_set_to_torus(full, grp.order)
        if h.l1_norm().squared() != 1:
            problems.append(f"L1 norm is not 1 for {factors}")
        mn, arg = torus_autocorrelation_min(h)
        if mn != 1:
            problems.append(f"autocorrelation min {mn} at {arg} for {factors}")
    _verdict(11, problems)


def test_acceptance_12_ratio_tables_clean():
    problems = []
    results = (
        [_solved("eta", g, N) for g, N in _ETA_CASES]
        + [_solved("beta", g, N) for g, N in _BETA_CASES]
        + [_solved("gamma", g, f) for g, f in _GROUP_CASES]
        + [_solved("alpha", g, f) for g, f in _GROUP_CASES]
    )
    table = ratio_report(ratio_rows(results))
    lines = table.strip().splitlines()
    if lines[0] != "quantity,g,param,value,ratio,flag":
        problems.append("unexpected header")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(results):
        problems.append("row count drifted")
    for row, r in zip(rows, results):
        if row[5] != "ok":
            problems.append(f"flagged row: {','.join(row)}")
        want = r.value / math.sqrt(r.g * r.size_param)
        if abs(float(row[4]) - want) > 5.1e-7:
            problems.append(f"ratio drifted: {','.join(row)}")

    def value(quantity, g, N):
        return _solved(quantity, g, N).value

    # minima grow with N and with g; maxima grow with N and with g
    for quantity, cases in (("eta", _ETA_CASES), ("beta", _BETA_CASES)):
        have = set(cases)
        for g, N in cases:
            if (g, N - 1) in have and value(quantity, g, N) < value(quantity, g, N - 1):
                problems.append(f"{quantity}_{g} drops at N={N}")
            if (g - 1, N) in have and value(quantity, g, N) < value(quantity, g - 1, N):
                problems.append(f"{quantity}({N}) drops from g={g - 1} to g={g}")
    _verdict(12, problems)
