"""Extremal searches against full-enumeration oracles and counting bounds."""

import csv
import dataclasses
import io
import math
import random
import time
import tracemalloc

import pytest

import oracles
from diffsets import solver
from diffsets.core_sets import (
    BoundsLedger,
    GroupSpec,
    trivial_bounds,
    verify_certificate,
)
from diffsets.solver import (
    ExtremalResult,
    SearchConfig,
    alpha_exact,
    beta_exact,
    eta_exact,
    gamma_exact,
    ratio_report,
    ratio_rows,
)


# --- eta: minimum g-difference sets for [N] ---------------------------------


def test_eta_frozen_values():
    # values and lex-min witnesses frozen from oracles.naive_eta
    expected_g1 = {
        1: (2, (0, 1)),
        2: (3, (0, 1, 2)),
        3: (3, (0, 1, 3)),
        4: (4, (0, 1, 2, 4)),
        5: (4, (0, 1, 2, 5)),
        6: (4, (0, 1, 4, 6)),
    }
    for N, (value, witness) in expected_g1.items():
        r = eta_exact(1, N)
        assert r.value == value
        assert r.witness.elements == witness
        assert r.exhaustive
    expected_g2 = {
        1: (3, (0, 1, 2)),
        2: (4, (0, 1, 2, 3)),
        3: (5, (0, 1, 2, 3, 4)),
        4: (5, (0, 1, 2, 4, 5)),
        5: (6, (0, 1, 2, 3, 5, 6)),
    }
    for N, (value, witness) in expected_g2.items():
        r = eta_exact(2, N)
        assert (r.value, r.witness.elements) == (value, witness)


def test_eta_oracle_agreement():
    # g = 4 and 5 raise counters through four and five level masks
    cases = (
        [(g, N) for g in (1, 2) for N in range(1, 7)]
        + [(3, N) for N in range(1, 5)]
        + [(4, N) for N in range(1, 6)]
        + [(5, N) for N in range(1, 5)]
    )
    for g, N in cases:
        size, cand = oracles.naive_eta(g, N)
        r = eta_exact(g, N)
        assert r.value == size
        assert r.witness.elements == cand
        assert r.exhaustive


def test_eta_witnesses_verify():
    for g, N in ((1, 6), (2, 5), (3, 4)):
        r = eta_exact(g, N)
        v = verify_certificate(r.witness, g=g, N=N, mode="difference")
        assert v.passed


def test_eta_known_ratios():
    assert eta_exact(1, 1).ratio() == pytest.approx(2.0)
    assert eta_exact(1, 3).ratio() == pytest.approx(math.sqrt(3))


def test_eta_monotone_in_N_and_g():
    vals = [eta_exact(1, N).value for N in range(1, 9)]
    assert vals == sorted(vals)
    at4 = [eta_exact(g, 4).value for g in (1, 2, 3)]
    assert at4 == sorted(at4)


def test_eta_budget_partial_is_valid_cover():
    exact = eta_exact(1, 12)
    assert exact.value == 6
    partial = eta_exact(1, 12, SearchConfig(node_budget=10))
    assert not partial.exhaustive
    assert partial.value >= exact.value
    assert verify_certificate(partial.witness, g=1, N=12, mode="difference").passed
    starved = eta_exact(1, 6, SearchConfig(node_budget=0))
    assert not starved.exhaustive
    assert verify_certificate(starved.witness, g=1, N=6, mode="difference").passed


def test_eta_unpinned_search_matches():
    pinned = eta_exact(2, 5)
    free = eta_exact(2, 5, SearchConfig(translation_fix=False))
    assert (free.value, free.witness.elements) == (pinned.value, pinned.witness.elements)
    assert free.nodes >= pinned.nodes


def test_eta_live_window_bound_keeps_witness():
    r = eta_exact(1, 18)
    assert r.witness.elements == (0, 2, 7, 13, 16, 17, 25)
    assert r.exhaustive
    assert r.nodes == 45_927


def test_eta_budget_edge():
    # every child costs one node, checked or not: one node short of the
    # full search falls back, the full count proves
    short = eta_exact(1, 18, SearchConfig(node_budget=45_926))
    assert not short.exhaustive and short.nodes == 45_927
    assert short.value > 7
    assert verify_certificate(short.witness, g=1, N=18, mode="difference").passed
    exact = eta_exact(1, 18, SearchConfig(node_budget=45_927))
    assert exact.exhaustive and exact.value == 7 and exact.nodes == 45_927


def _change_rule(monkeypatch, change):
    """Run every cover search on change(rule) in place of its rule."""
    cover = solver._cover_at_size
    monkeypatch.setattr(solver, "_cover_at_size", lambda rule, *args: cover(change(rule), *args))


def _grown(monkeypatch):
    """The children the cover search grows, pins left out, in order."""
    grown = []

    def counted(rule):
        def grow(state, x):
            if x not in rule.pinned:
                grown.append(x)
            return rule.grow(state, x)

        return dataclasses.replace(rule, grow=grow)

    _change_rule(monkeypatch, counted)
    return grown


def test_eta_screen_grows_only_passing_children(monkeypatch):
    # 45,925 children are counted, but only those that pass the deficit
    # bound (2,556 of them) are grown
    grown = _grown(monkeypatch)
    r = eta_exact(1, 18)
    assert r.nodes == 45_927
    assert len(grown) < r.nodes // 10


@pytest.mark.parametrize("N", [18, 130], ids=["one-byte-slots", "two-byte-slots"])
def test_eta_screen_keeps_exactly_the_children_the_bound_keeps(monkeypatch, N):
    # random nodes within the screen's slot bound (p placed, t left after
    # the child, p + 1 + t <= k, c <= (t + 1)*|live|), checked against the
    # per-child test: drop + t*(reach(child) - 1) >= c
    rules = []

    def capture(rule, g, lo, fallback, budget):
        rules.append((rule, len(fallback)))
        return fallback, False

    monkeypatch.setattr(solver, "_cover", capture)
    eta_exact(1, N)
    (rule, kmax), = rules
    rng = random.Random(N)
    for _ in range(400):
        k = rng.randint(2, kmax)
        p = rng.randint(1, k - 1)
        t = k - p - 1
        live = sum(1 << i for i in rng.sample(range(1, N), min(p - 1, N - 1))) | 1
        state, missing = (live, rng.randint(0, 3 * N)), rng.getrandbits(N)
        c = rng.randint(1, (t + 1) * live.bit_count())
        kept = []
        for x in range(state[1] + 1, state[1] + N + 1):
            child, hits = rule.grow(state, x)
            if (hits & missing).bit_count() + t * (rule.reach(child) - 1) >= c:
                kept.append(x)
        assert list(rule.screen(state, missing, c, t)) == kept


SCREEN_CASES = [(g, N) for g in range(1, 5) for N in range(1, 13)] + [(1, 18)]


@pytest.mark.parametrize("pin", [True, False], ids=["pinned", "free"])
@pytest.mark.parametrize("budget", [0, 37, 500, None], ids=["0", "37", "500", "default"])
def test_eta_screen_changes_no_result(monkeypatch, pin, budget):
    # the screen only skips children the deficit bound would cut, and
    # charges them as it would: the same loop without it gives the same
    # values, witnesses, node counts and exhaustive flags
    kwargs = {"translation_fix": pin} if budget is None else {"translation_fix": pin, "node_budget": budget}
    cfg = SearchConfig(**kwargs)
    screened = [eta_exact(g, N, cfg) for g, N in SCREEN_CASES]
    _change_rule(monkeypatch, lambda rule: dataclasses.replace(rule, screen=None))
    for (g, N), r in zip(SCREEN_CASES, screened):
        plain = eta_exact(g, N, cfg)
        assert (r.value, r.witness, r.nodes, r.exhaustive) == (
            plain.value, plain.witness, plain.nodes, plain.exhaustive
        ), (g, N)


def test_eta_screen_memory_does_not_grow_with_N():
    # slot constants and operands are O(N) words; no table per N
    tracemalloc.start()
    try:
        r = eta_exact(1, 300, SearchConfig(node_budget=20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.value, r.nodes, r.exhaustive) == (36, 20_001, False)
    assert peak < 1_000_000


def test_budget_stops_a_loop_within_one_child(monkeypatch):
    # the first loop in Z/100 x Z/100 has 9,914 children; a budget of 100 is
    # spent among them, and the loop stops there instead of at its end
    grown = _grown(monkeypatch)
    r = gamma_exact(1, GroupSpec((100, 100)), SearchConfig(node_budget=100))
    assert (r.value, r.exhaustive, r.nodes) == (10_000, False, 101)
    assert len(grown) <= 101


BUDGET_SWEEP_CASES = [
    (eta_exact, 2, 6),
    (eta_exact, 1, 9),
    (gamma_exact, 2, GroupSpec((2, 4))),
    (gamma_exact, 1, GroupSpec((7,))),
    (beta_exact, 2, 8),
    (alpha_exact, 2, GroupSpec((4, 4))),
]


@pytest.mark.parametrize("pin", [True, False], ids=["pinned", "free"])
@pytest.mark.parametrize(
    "solve, g, domain",
    BUDGET_SWEEP_CASES,
    ids=["eta-2-6", "eta-1-9", "gamma-2-Z2xZ4", "gamma-1-Z7", "beta-2-8", "alpha-2-Z4xZ4"],
)
def test_every_budget_stops_one_node_past_it(solve, g, domain, pin):
    # a budget b short of the full search spends b + 1 nodes and stops; from
    # the full count on, the run is the unbudgeted one
    full = solve(g, domain, SearchConfig(translation_fix=pin))
    for b in range(full.nodes + 2):
        r = solve(g, domain, SearchConfig(node_budget=b, translation_fix=pin))
        assert (r.nodes, r.exhaustive) == (min(b + 1, full.nodes), b >= full.nodes), b
        if b >= full.nodes:
            assert (r.value, r.witness) == (full.value, full.witness), b


def _scan(limit, cands, **kwargs):
    """The picks of one charged scan, the nodes it spent, and whether it
    ran out of budget."""
    budget, seen = solver._Budget(limit), []
    try:
        for x in solver._charged(budget, cands, **kwargs):
            seen.append(x)
    except solver.BudgetExceeded:
        return seen, budget.spent, True
    return seen, budget.spent, False


def test_charged_scan_counts_each_candidate_once():
    # pins are passed over and not charged
    assert _scan(100, range(0, 6), skip={0, 2}) == ([1, 3, 4, 5], 4, False)
    # screened-out candidates count too, the tail once the picks run out
    assert _scan(100, range(10, 20), picks=[12, 15]) == ([12, 15], 10, False)
    # a stop at end() charges nothing past the last pick; end is re-read
    # after each yield
    ends = iter([16, 16, 12])
    assert _scan(100, range(10, 20), end=lambda: next(ends)) == ([10, 11], 2, False)
    # the limit raises at the first candidate past it, spent stopping at
    # limit + 1, even before a screened pick
    assert _scan(3, range(0, 10)) == ([0, 1, 2], 4, True)
    assert _scan(3, range(0, 10), picks=[7]) == ([], 4, True)
    assert _scan(3, range(0, 10), picks=[2]) == ([2], 4, True)  # in the tail


def test_charged_scan_charges_nothing_after_an_early_return():
    budget = solver._Budget(100)
    scan = solver._charged(budget, range(0, 10), picks=[2, 5])
    assert next(scan) == 2 and budget.spent == 3
    scan.close()
    assert budget.spent == 3


def test_negative_budget_is_refused():
    with pytest.raises(ValueError, match="node budget"):
        SearchConfig(node_budget=-1)
    r = eta_exact(1, 5, SearchConfig(node_budget=0))
    assert (r.exhaustive, r.nodes) == (False, 1)


# (g, N): (value, lex-min witness, nodes), frozen from the search with
# counters in Python lists, for every eta case of the benchmark
ETA_FROZEN = {
    (1, 1): (2, (0, 1), 2),
    (1, 2): (3, (0, 1, 2), 4),
    (1, 3): (3, (0, 1, 3), 4),
    (1, 4): (4, (0, 1, 2, 4), 6),
    (1, 5): (4, (0, 1, 2, 5), 6),
    (1, 6): (4, (0, 1, 4, 6), 13),
    (1, 7): (5, (0, 1, 2, 3, 7), 9),
    (1, 8): (5, (0, 1, 2, 5, 8), 18),
    (1, 9): (5, (0, 1, 2, 6, 9), 19),
    (1, 10): (6, (0, 1, 2, 3, 6, 10), 782),
    (2, 1): (3, (0, 1, 2), 4),
    (2, 2): (4, (0, 1, 2, 3), 5),
    (2, 3): (5, (0, 1, 2, 3, 4), 15),
    (2, 4): (5, (0, 1, 2, 4, 5), 7),
    (2, 5): (6, (0, 1, 2, 3, 5, 6), 63),
    (2, 6): (6, (0, 1, 2, 3, 6, 7), 9),
    (3, 1): (4, (0, 1, 2, 3), 5),
    (3, 2): (5, (0, 1, 2, 3, 4), 8),
    (3, 3): (6, (0, 1, 2, 3, 4, 5), 16),
    (3, 4): (6, (0, 1, 3, 4, 5, 7), 21),
    (4, 1): (5, (0, 1, 2, 3, 4), 7),
    (4, 2): (6, (0, 1, 2, 3, 4, 5), 10),
    (1, 18): (7, (0, 2, 7, 13, 16, 17, 25), 45_927),
}


def test_eta_frozen_search():
    for (g, N), expected in ETA_FROZEN.items():
        r = eta_exact(g, N)
        assert (r.value, r.witness.elements, r.nodes) == expected, (g, N)
        assert r.exhaustive


def test_eta_rejects_bad_parameters():
    with pytest.raises(ValueError):
        eta_exact(0, 3)
    with pytest.raises(ValueError):
        eta_exact(1, 0)


# --- gamma: minimum g-difference subsets of a group -------------------------


def test_gamma_frozen_values():
    r = gamma_exact(1, GroupSpec((7,)))
    assert r.value == 3 and r.witness.elements == ((0,), (1,), (3,))
    assert r.exhaustive
    assert gamma_exact(1, GroupSpec((2,))).value == 2
    assert gamma_exact(2, GroupSpec((5,))).value == 4
    r = gamma_exact(1, GroupSpec((2, 4)))
    assert r.value == 4
    assert r.witness.elements == ((0, 0), (0, 1), (0, 2), (1, 0))
    # g = |G| forces the whole group
    assert gamma_exact(3, GroupSpec((3,))).value == 3


def test_gamma_oracle_agreement():
    # every group pins flat index 1 beside 0, and (Z/p)^n a basis
    for factors in ((2,), (3,), (4,), (5,), (2, 2), (6,), (7,), (2, 4),
                    (8,), (9,), (2, 2, 2), (3, 3), (2, 2, 2, 2)):
        order = math.prod(factors)
        for g in range(1, min(3, order) + 1):
            size, cand = oracles.naive_gamma(factors, g)
            r = gamma_exact(g, GroupSpec(factors))
            assert r.value == size
            assert r.witness.elements == cand
            assert r.exhaustive


def test_gamma_respects_cover_bounds():
    for factors, g in (((7,), 1), ((5,), 2), ((2, 4), 1), ((13,), 2)):
        spec = GroupSpec(factors)
        r = gamma_exact(g, spec)
        tb = trivial_bounds(g, group=spec)
        assert r.value >= tb.min_cover_lower
        assert r.value >= tb.sharper_cover_lower


def test_gamma_budget_partial_is_valid():
    r = gamma_exact(1, GroupSpec((7,)), SearchConfig(node_budget=1))
    assert not r.exhaustive
    # falls back to the ladder {0, 1} | {2, 4, 6}, a 1-difference set for [3]
    assert r.witness.elements == ((0,), (1,), (2,), (4,), (6,))
    assert verify_certificate(r.witness, g=1, mode="difference").passed
    # Z/3: the ladder for [1] is the whole group, which is the fallback
    r = gamma_exact(1, GroupSpec((3,)), SearchConfig(node_budget=0))
    assert not r.exhaustive and r.value == 3


def test_gamma_budget_cyclic_fallback_bounds():
    # the counting bound is 25 (g=1) and 35 (g=2); the whole group was 600
    for g, value in ((1, 36), (2, 51)):
        r = gamma_exact(g, GroupSpec((600,)), SearchConfig(node_budget=1000))
        assert (r.value, r.exhaustive, r.nodes) == (value, False, 1001)
        assert verify_certificate(r.witness, g=g, mode="difference").passed


def test_gamma_cyclic_fallback_keeps_exhaustive_results(monkeypatch):
    # deepening stops at the fallback's size, which is at least the optimum,
    # so proven values, witnesses and node counts match the whole-group limit
    cases = [(g, n) for n in range(3, 16) for g in (1, 2, 3) if g <= n]
    with_cover = [gamma_exact(g, GroupSpec((n,))) for g, n in cases]
    monkeypatch.setattr(solver, "_cyclic_cover", lambda g, group: None)
    for (g, n), r in zip(cases, with_cover):
        plain = gamma_exact(g, GroupSpec((n,)))
        assert r.exhaustive and plain.exhaustive
        assert (r.value, r.witness, r.nodes) == (plain.value, plain.witness, plain.nodes), (g, n)


def test_gamma_budget_bounds_setup():
    # the slot layout is built once, in time linear in its slots, so ten
    # nodes on a group of order 2000 build no |G|^2 table
    start = time.perf_counter()
    r = gamma_exact(1, GroupSpec((2000,)), SearchConfig(node_budget=10))
    assert time.perf_counter() - start < 2.0
    assert not r.exhaustive
    assert verify_certificate(r.witness, g=1, mode="difference").passed


def test_gamma_unpinned_search_matches():
    pinned = gamma_exact(2, GroupSpec((5,)))
    free = gamma_exact(2, GroupSpec((5,)), SearchConfig(translation_fix=False))
    assert (free.value, free.witness.elements) == (pinned.value, pinned.witness.elements)


Z3_CUBED_G2_WITNESS = (
    (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2),
    (1, 0, 0), (1, 1, 0), (1, 2, 0),
)


def test_gamma_basis_pins_prove_sizes_infeasible():
    # with e_1, e_2, e_3 pinned the proof that 8 is infeasible takes
    # thousands of nodes, not the 487,928 of the translation pin alone
    r = gamma_exact(2, GroupSpec((3, 3, 3)))
    assert r.value == 9 and r.exhaustive
    assert r.witness.elements == Z3_CUBED_G2_WITNESS
    assert r.nodes < 10_000
    r = gamma_exact(1, GroupSpec((2, 2, 2, 2, 2)))
    assert r.value == 10 and r.exhaustive
    assert verify_certificate(r.witness, g=1, mode="difference").passed


def test_gamma_without_basis_pins_matches(monkeypatch):
    pinned = gamma_exact(2, GroupSpec((3, 3, 3)))
    monkeypatch.setattr(solver, "_basis_pins", lambda group: ())
    free = gamma_exact(2, GroupSpec((3, 3, 3)))
    assert (free.value, free.witness.elements) == (pinned.value, pinned.witness.elements)
    assert free.exhaustive
    assert free.nodes > pinned.nodes


def test_gamma_budget_out_falls_back():
    spec = GroupSpec((3, 3, 3))
    full = gamma_exact(2, spec).nodes
    # 1,000 nodes stop inside the proof that size 8 is infeasible; one node
    # short of the full run stops inside the search at size 9, the last
    for budget in (1_000, full - 1):
        r = gamma_exact(2, spec, SearchConfig(node_budget=budget))
        assert not r.exhaustive
        assert r.value == spec.order
        assert verify_certificate(r.witness, g=2, mode="difference").passed


# (g, factors): (value, lex-min witness, nodes), frozen like ETA_FROZEN, for
# every gamma case of the benchmark
GAMMA_FROZEN = {
    (1, (2,)): (2, ((0,), (1,)), 1),
    (2, (2,)): (2, ((0,), (1,)), 1),
    (1, (3,)): (2, ((0,), (1,)), 1),
    (2, (3,)): (3, ((0,), (1,), (2,)), 2),
    (3, (3,)): (3, ((0,), (1,), (2,)), 2),
    (1, (4,)): (3, ((0,), (1,), (2,)), 2),
    (2, (4,)): (3, ((0,), (1,), (2,)), 2),
    (3, (4,)): (4, ((0,), (1,), (2,), (3,)), 3),
    (1, (5,)): (3, ((0,), (1,), (2,)), 2),
    (2, (5,)): (4, ((0,), (1,), (2,), (3,)), 3),
    (3, (5,)): (4, ((0,), (1,), (2,), (3,)), 3),
    (1, (6,)): (3, ((0,), (1,), (3,)), 3),
    (2, (6,)): (4, ((0,), (1,), (2,), (3,)), 3),
    (3, (6,)): (5, ((0,), (1,), (2,), (3,), (4,)), 4),
    (1, (7,)): (3, ((0,), (1,), (3,)), 3),
    (2, (7,)): (4, ((0,), (1,), (2,), (4,)), 4),
    (3, (7,)): (5, ((0,), (1,), (2,), (3,), (4,)), 4),
    (1, (8,)): (4, ((0,), (1,), (2,), (4,)), 4),
    (2, (8,)): (5, ((0,), (1,), (2,), (3,), (4,)), 4),
    (3, (8,)): (6, ((0,), (1,), (2,), (3,), (4,), (5,)), 5),
    (1, (2, 4)): (4, ((0, 0), (0, 1), (0, 2), (1, 0)), 4),
    (2, (2, 4)): (5, ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0)), 4),
    (3, (2, 4)): (6, ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)), 5),
    (1, (12,)): (4, ((0,), (1,), (3,), (7,)), 16),
    (2, (12,)): (6, ((0,), (1,), (2,), (3,), (4,), (7,)), 7),
    (3, (12,)): (7, ((0,), (1,), (2,), (3,), (4,), (6,), (7,)), 7),
    (1, (2, 2, 3)): (
        5, ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)), 96,
    ),
    (2, (2, 2, 3)): (
        6, ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (1, 0, 0), (1, 1, 0)), 9,
    ),
    (3, (2, 2, 3)): (
        7,
        ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)),
        9,
    ),
    (2, (3, 3, 3)): (9, Z3_CUBED_G2_WITNESS, 4_842),
}


def test_gamma_frozen_search():
    for (g, factors), expected in GAMMA_FROZEN.items():
        r = gamma_exact(g, GroupSpec(factors))
        assert (r.value, r.witness.elements, r.nodes) == expected, (g, factors)
        assert r.exhaustive


def test_one_certificate_check_per_cover_solve(monkeypatch):
    # the returned witness is checked once, fallback included, and nothing else
    checked = []

    def spy(A, **kwargs):
        checked.append(A)
        return verify_certificate(A, **kwargs)

    monkeypatch.setattr(solver, "verify_certificate", spy)
    for solve in (
        lambda: eta_exact(1, 6),
        lambda: eta_exact(1, 12, SearchConfig(node_budget=10)),
        lambda: gamma_exact(1, GroupSpec((7,))),
        lambda: gamma_exact(1, GroupSpec((7,)), SearchConfig(node_budget=1)),
    ):
        checked.clear()
        r = solve()
        assert checked == [r.witness]


@pytest.mark.parametrize("factors", [(7,), (2, 4), (3, 1, 5), (2, 2, 3)])
def test_slot_layout_matches_group_arithmetic(factors):
    # sums reduce to a + x, and the copy masks of A and -A, shifted as gamma
    # shifts them, hold exactly A - x and x - A at the live slots
    group = GroupSpec(factors)
    offsets, neg, reduce, zero, live, wrap = solver._padded(group)
    offsets, neg, reduce = offsets.tolist(), neg.tolist(), reduce.tolist()
    elems = [group.unflatten(x) for x in range(group.order)]
    flat = group.flatten
    assert live == sum(1 << o for o in offsets)
    rng = random.Random(5)
    for a, ea in enumerate(elems):
        assert neg[a] == offsets[flat(tuple(-c for c in ea))]
        for x, ex in enumerate(elems):
            assert reduce[offsets[a] + offsets[x]] == flat(tuple(i + j for i, j in zip(ea, ex)))
    for _ in range(20):
        A = rng.sample(range(group.order), rng.randint(1, group.order))
        mine = sum(zero << offsets[a] for a in A)
        theirs = sum(zero << neg[a] for a in A)
        for x, ex in enumerate(elems):
            minus = {flat(tuple(i - j for i, j in zip(elems[a], ex))) for a in A}
            plus = {flat(tuple(j - i for i, j in zip(elems[a], ex))) for a in A}
            assert (mine >> offsets[x]) & live == sum(1 << offsets[d] for d in minus)
            assert (theirs >> (wrap - offsets[x])) & live == sum(1 << offsets[d] for d in plus)


def test_gamma_rejects_bad_g():
    with pytest.raises(ValueError):
        gamma_exact(0, GroupSpec((5,)))
    with pytest.raises(ValueError):
        gamma_exact(6, GroupSpec((5,)))


# --- beta: maximum g-Sidon subsets of [1, N] --------------------------------


def test_beta_frozen_values():
    r = beta_exact(2, 5)
    assert r.value == 3 and r.witness.elements == (1, 2, 4)
    assert r.exhaustive
    # any two distinct elements already collide at g = 1
    assert beta_exact(1, 6).value == 1
    assert beta_exact(1, 6).witness.elements == (1,)
    assert beta_exact(2, 1).value == 1
    # g >= 2N admits the whole interval
    assert beta_exact(4, 2).value == 2


def test_beta_oracle_agreement():
    for g in (1, 2, 3):
        for N in range(1, 9):
            size, cand = oracles.naive_beta(g, N)
            r = beta_exact(g, N)
            assert r.value == size
            assert r.witness.elements == cand
            assert r.exhaustive


def test_beta_respects_packing_bound():
    for g, N in ((1, 10), (2, 24), (3, 15), (4, 8)):
        r = beta_exact(g, N)
        tb = trivial_bounds(g, N=N)
        assert r.value <= tb.max_packing_upper
        assert r.value <= math.isqrt(g * (2 * N - 1))
        assert verify_certificate(r.witness, g=g, N=N, mode="sidon").passed


def test_beta_budget_partial_is_valid_packing():
    exact = beta_exact(2, 24)
    assert exact.value == 6
    partial = beta_exact(2, 24, SearchConfig(node_budget=5))
    assert not partial.exhaustive
    assert 1 <= partial.value <= exact.value
    assert verify_certificate(partial.witness, g=2, N=24, mode="sidon").passed
    starved = beta_exact(2, 24, SearchConfig(node_budget=0))
    assert starved.value == 1 and starved.witness.elements == (1,)


def test_beta_rejects_bad_parameters():
    with pytest.raises(ValueError):
        beta_exact(0, 3)
    with pytest.raises(ValueError):
        beta_exact(1, 0)


# (g, N): (value, lex-min witness, nodes), frozen like GAMMA_FROZEN, for
# every beta case of the benchmark; each candidate tested is one node
BETA_FROZEN = {
    (1, 1): (1, (1,), 2),
    (1, 2): (1, (1,), 2),
    (1, 3): (1, (1,), 2),
    (1, 4): (1, (1,), 2),
    (1, 5): (1, (1,), 2),
    (1, 6): (1, (1,), 2),
    (1, 7): (1, (1,), 2),
    (1, 8): (1, (1,), 2),
    (2, 1): (1, (1,), 2),
    (2, 2): (2, (1, 2), 3),
    (2, 3): (2, (1, 2), 4),
    (2, 4): (3, (1, 2, 4), 5),
    (2, 5): (3, (1, 2, 4), 12),
    (2, 6): (3, (1, 2, 4), 28),
    (2, 7): (4, (1, 2, 5, 7), 30),
    (2, 8): (4, (1, 2, 4, 8), 60),
    (3, 1): (1, (1,), 2),
    (3, 2): (2, (1, 2), 3),
    (3, 3): (3, (1, 2, 3), 4),
    (3, 4): (3, (1, 2, 3), 5),
    (3, 5): (4, (1, 2, 3, 5), 6),
    (3, 6): (4, (1, 2, 3, 5), 17),
}


def test_beta_frozen_search():
    for (g, N), expected in BETA_FROZEN.items():
        r = beta_exact(g, N)
        assert (r.value, r.witness.elements, r.nodes) == expected, (g, N)
        assert r.exhaustive


# --- alpha: maximum g-Sidon subsets of a group ------------------------------


def test_alpha_frozen_values():
    assert alpha_exact(1, GroupSpec((7,))).value == 1
    r = alpha_exact(2, GroupSpec((6,)))
    assert r.value == 3 and r.witness.elements == ((0,), (1,), (3,))
    assert r.exhaustive
    assert alpha_exact(1, GroupSpec((2, 2))).value == 1
    # q is |G| everywhere on the full group, so g = |G| admits all of it
    assert alpha_exact(6, GroupSpec((6,))).value == 6


def test_alpha_oracle_agreement():
    for factors in ((2,), (3,), (4,), (2, 2), (5,), (6,)):
        for g in (1, 2, 3):
            size, cand = oracles.naive_alpha(factors, g)
            r = alpha_exact(g, GroupSpec(factors))
            assert r.value == size
            assert r.witness.elements == cand
            assert r.exhaustive


def test_alpha_respects_packing_bound():
    for factors, g in (((7,), 2), ((4, 4), 2), ((6,), 3)):
        spec = GroupSpec(factors)
        r = alpha_exact(g, spec)
        tb = trivial_bounds(g, group=spec)
        assert r.value <= tb.max_packing_upper
        assert verify_certificate(r.witness, g=g, mode="sidon").passed


def test_alpha_budget_partial_is_valid():
    partial = alpha_exact(2, GroupSpec((4, 4)), SearchConfig(node_budget=3))
    assert not partial.exhaustive
    assert partial.value >= 1
    assert verify_certificate(partial.witness, g=2, mode="sidon").passed
    starved = alpha_exact(2, GroupSpec((4, 4)), SearchConfig(node_budget=0))
    assert starved.value == 1 and starved.witness.elements == ((0, 0),)


def test_alpha_unpinned_search_matches():
    pinned = alpha_exact(2, GroupSpec((6,)))
    free = alpha_exact(2, GroupSpec((6,)), SearchConfig(translation_fix=False))
    assert (free.value, free.witness.elements) == (pinned.value, pinned.witness.elements)


def test_alpha_rejects_bad_g():
    with pytest.raises(ValueError):
        alpha_exact(0, GroupSpec((5,)))


# (g, factors): (value, lex-min witness, nodes), frozen like GAMMA_FROZEN, for
# every alpha case of the benchmark; each candidate tested is one node
ALPHA_FROZEN = {
    (1, (2,)): (1, ((0,),), 1),
    (2, (2,)): (2, ((0,), (1,)), 2),
    (1, (3,)): (1, ((0,),), 1),
    (2, (3,)): (2, ((0,), (1,)), 2),
    (3, (3,)): (3, ((0,), (1,), (2,)), 3),
    (1, (4,)): (1, ((0,),), 1),
    (2, (4,)): (2, ((0,), (1,)), 2),
    (3, (4,)): (3, ((0,), (1,), (2,)), 3),
    (1, (5,)): (1, ((0,),), 1),
    (2, (5,)): (2, ((0,), (1,)), 10),
    (3, (5,)): (3, ((0,), (1,), (2,)), 3),
    (1, (6,)): (1, ((0,),), 1),
    (2, (6,)): (3, ((0,), (1,), (3,)), 4),
    (3, (6,)): (3, ((0,), (1,), (2,)), 20),
    (1, (7,)): (1, ((0,),), 1),
    (2, (7,)): (3, ((0,), (1,), (3,)), 4),
    (3, (7,)): (4, ((0,), (1,), (2,), (4,)), 5),
    (1, (8,)): (1, ((0,),), 1),
    (2, (8,)): (3, ((0,), (1,), (3,)), 41),
    (3, (8,)): (4, ((0,), (1,), (2,), (4,)), 5),
    (1, (2, 4)): (1, ((0, 0),), 1),
    (2, (2, 4)): (3, ((0, 0), (0, 1), (1, 0)), 36),
    (3, (2, 4)): (4, ((0, 0), (0, 1), (0, 2), (1, 0)), 5),
    (1, (12,)): (1, ((0,),), 1),
    (2, (12,)): (4, ((0,), (1,), (3,), (7,)), 8),
    (3, (12,)): (4, ((0,), (1,), (2,), (4,)), 389),
    (1, (2, 2, 3)): (1, ((0, 0, 0),), 1),
    (2, (2, 2, 3)): (4, ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 1)), 8),
    (3, (2, 2, 3)): (4, ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)), 353),
}


def test_alpha_frozen_search():
    for (g, factors), expected in ALPHA_FROZEN.items():
        r = alpha_exact(g, GroupSpec(factors))
        assert (r.value, r.witness.elements, r.nodes) == expected, (g, factors)
        assert r.exhaustive


def test_pack_budget_bounds_the_candidate_scan():
    # in (Z/2)^9 every x + x is 0, so under g = 2 no third element fits after
    # the pinned 0 and the first one placed, and the loop tests every other
    # element; each test is one node, and the budget stops it
    r = alpha_exact(2, GroupSpec((2,) * 9), SearchConfig(node_budget=100))
    assert (r.value, r.exhaustive, r.nodes) == (2, False, 101)


def test_g1_pack_stops_at_one_element():
    # a + x with a != x is counted twice, so under g = 1 no pair fits and the
    # pinned 0 is proven optimal without scanning the group
    r = alpha_exact(1, GroupSpec((250_000,)), SearchConfig(node_budget=1000))
    assert (r.value, r.exhaustive, r.nodes) == (1, True, 1)


def test_alpha_memory_follows_the_group_not_the_budget():
    # nothing is tabulated per placed element, so a 16x budget peaks no higher
    peaks = []
    for budget in (50, 800):
        tracemalloc.start()
        try:
            r = alpha_exact(2, GroupSpec((3000,)), SearchConfig(node_budget=budget))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert not r.exhaustive
    assert peaks[1] <= peaks[0] + 64 * 1024, peaks


# --- result records and the ratio table -------------------------------------


def test_results_deterministic():
    for make in (
        lambda: eta_exact(2, 5),
        lambda: gamma_exact(1, GroupSpec((7,))),
        lambda: beta_exact(2, 5),
        lambda: alpha_exact(2, GroupSpec((6,))),
    ):
        a, b = make(), make()
        assert a == b
        assert a.to_json() == b.to_json()


def test_result_json_shapes():
    r = eta_exact(1, 3)
    j = r.to_json()
    assert j == {
        "quantity": "eta",
        "g": 1,
        "value": 3,
        "exhaustive": True,
        "nodes": j["nodes"],
        "N": 3,
        "witness": [0, 1, 3],
    }
    j = gamma_exact(1, GroupSpec((7,))).to_json()
    assert j["group"] == [7]
    assert j["witness"] == [[0], [1], [3]]
    assert "N" not in j


def test_ratio_report_known_rows():
    results = [
        eta_exact(1, 1),
        eta_exact(1, 3),
        gamma_exact(1, GroupSpec((7,))),
        beta_exact(2, 5),
        alpha_exact(2, GroupSpec((6,))),
    ]
    table = ratio_report(ratio_rows(results))
    assert table.endswith("\n")
    rows = list(csv.reader(io.StringIO(table)))
    assert rows[0] == ["quantity", "g", "param", "value", "ratio", "flag"]
    assert rows[1] == ["eta", "1", "1", "2", "2.000000", "ok"]
    assert rows[2] == ["eta", "1", "3", "3", "1.732051", "ok"]
    assert rows[3] == ["gamma", "1", "7", "3", "1.133893", "ok"]
    assert all(len(row) == 6 for row in rows)
    assert all(row[5] == "ok" for row in rows[1:])
    # the printed ratio is the record's own ratio
    for row, r in zip(rows[1:], results):
        assert row[4] == f"{r.ratio():.6f}"


def test_ratio_report_fatal_flag():
    # an exhaustive eta below the published covering ratio is impossible;
    # fabricate one to check the tripwire
    fake = ExtremalResult("eta", 1, 100, None, 10, None, True, 0)
    table = ratio_report(ratio_rows([fake]))
    assert "eta,1,100,10,1.000000,FATAL" in table
    unconfirmed = ExtremalResult("eta", 1, 100, None, 10, None, False, 0)
    assert "FATAL" not in ratio_report(ratio_rows([unconfirmed]))
    fine = ExtremalResult("eta", 1, 100, None, 16, None, True, 0)
    assert "FATAL" not in ratio_report(ratio_rows([fine]))
    assert BoundsLedger().eta_ratio_ok(16, 1, 100)
    assert not BoundsLedger().eta_ratio_ok(10, 1, 100)


def test_solved_values_respect_trivial_bounds():
    for g, N in ((1, 6), (2, 8), (3, 5)):
        assert eta_exact(g, N).value >= trivial_bounds(g, N=N).min_cover_lower
        assert beta_exact(g, N).value <= trivial_bounds(g, N=N).max_packing_upper
    for factors, g in (((7,), 1), ((6,), 2), ((2, 4), 1)):
        spec = GroupSpec(factors)
        tb = trivial_bounds(g, group=spec)
        assert gamma_exact(g, spec).value >= tb.sharper_cover_lower
        assert alpha_exact(g, spec).value <= tb.max_packing_upper
