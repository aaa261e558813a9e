"""The benchmark's workloads: inputs made from a seed, CLI operations, checks.

A workload is a fixed list of `Op`s, one `diffsets` CLI command each, run in
order as one round.  Every op writes its payload with `--out`; later ops read
earlier payloads (a step function feeds the averages, the probabilities feed
the Monte Carlo run).  Each op carries a check that compares its payload and
exit code with a computation made in `checks.py` or `expected.py`, apart
from the program.  A check returns None when the output is right, or a
one-line description of what is wrong.

Beside its main commands each workload runs a few tiny commands in the
layers it does not stress, so every per-layer time is measured everywhere;
they cost well under a percent of a round.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks as C
import expected as E

# eta_exact searches the hull [0, 2N] and confirms on [0, 4N]; both are too
# narrow here, so it returns 5, 6, 7 (non-exhaustive) instead of 4, 5, 6.
# Only that documented wrong answer, with a valid witness of its size, counts
# as the known fault; anything else these commands do wrong is a wrong output.
ETA_HULL_FAULT = "eta_exact default hull [0, 2N] misses the optimum"
ETA_FAULT_VALUES = {(3, 1): 5, (4, 1): 6, (4, 2): 7}


@dataclass
class Op:
    name: str
    argv: list
    out: Path
    # check(payload, exit code, {op name: (payload, exit code)}, recounter)
    # returns None, a problem, or `fault` for the known fault's documented output
    check: Callable
    fault: str | None = None


class _Inputs:
    """Writes input files into the run's work directory."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        (workdir / "out").mkdir(parents=True, exist_ok=True)

    def write(self, name: str, obj) -> str:
        path = self.dir / name
        path.write_text(json.dumps(obj))
        return str(path)

    def op(self, name: str, argv: list, check, fault=None, as_json=True) -> Op:
        slug = "".join(c if c.isalnum() else "_" for c in name)
        out = self.dir / "out" / f"{slug}.out"
        fmt = ["--json"] if as_json else []
        return Op(name, [*argv, *fmt, "--out", str(out)], out, check, fault)


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's inputs for this seed and return its ops."""
    io = _Inputs(workdir)
    if workload == "exact-small":
        return _exact_small(io, seed)
    if workload == "certify-large":
        return _certify_large(io, seed)
    if workload == "bridge-montecarlo":
        return _bridge_montecarlo(io, seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Workloads


def _exact_small(io: _Inputs, seed: int) -> list[Op]:
    table = E.load()
    rng = random.Random(f"exact-small:{seed}")
    solves = (
        [_solve(io, table, "eta", g, n) for g, n in E.ETA_CASES]
        + [_solve(io, table, "beta", g, n) for g, n in E.BETA_CASES]
        + [_solve(io, table, "gamma", g, f) for g, f in E.GAMMA_CASES]
        + [_solve(io, table, "alpha", g, f) for g, f in E.ALPHA_CASES]
    )
    ops = solves + [_ratios(io, solves)]
    for N, runs in ((12, 3), (18, 4), (24, 6), (30, 7)):
        ops += _set_to_fn(io, rng, N, runs)
    # tiny commands in the bridge-averages, Monte Carlo and build layers
    averages, probs = _averages_probs(io, ops[-2], 400, Fraction(1, 2))
    ops += [
        averages,
        probs,
        _sequence_mc(io, probs, 400, 2, 7000 + seed),
        _group_mc(io, (60,), 4, 2, 7000 + seed),
        _blowup(io, rng, 10, 2, 7),
    ]
    return ops


def _certify_large(io: _Inputs, seed: int) -> list[Op]:
    gen = np.random.default_rng([seed, 2])
    rng = random.Random(f"certify-large:{seed}")

    def pick(count, lo, hi):
        return (np.sort(gen.choice(hi - lo + 1, size=count, replace=False)) + lo).tolist()

    # dense set, array backend: 12000 of [0, 60000] for shifts [1, 30000]
    dense = pick(12_000, 0, 60_000)
    # Sidon check of 8000 of [1, 30000]; g near the expected peak sum count
    sidon = pick(8_000, 1, 30_000)
    # sparse set, dict backend: four copies of one 250-element cluster,
    # spread over a span of 1e7, past the array backend's 8e6 limit
    cluster = np.asarray(pick(250, 0, 3_000))
    offsets = np.asarray([0, *pick(2, 1, 3_330), 3_331]) * 3_001
    sparse = sorted((cluster[None, :] + offsets[:, None]).ravel().tolist())
    # a certificate that fails part-way: g is the expected count at shift N/2
    failing = pick(5_000, 0, 20_000)
    g_fail = 5_000**2 * (20_001 - 5_000) // 20_001**2
    factors = (60, 90)
    plane = [[int(a), int(b)] for a, b in zip(*np.nonzero(gen.random(factors) < 0.4))]
    ops = [
        _verify_int(io, "dense", dense, 30_000, 1, "difference"),
        _verify_int(io, "sidon", sidon, 30_000, 2 * 8_000**2 // 30_000, "sidon"),
        _verify_int(io, "sparse", sparse, 1_000, 1, "difference"),
        _verify_int(io, "failing", failing, 10_000, g_fail, "difference"),
        _verify_group(io, "plane", factors, plane, 1),
        _pipeline(io, 4, 3, 101),
        _blowup(io, rng, 60, 14, 401),
        _gamma_budget(io, 1, 600, 1_000),
    ]
    # tiny commands in the bridge and Monte Carlo layers
    fn_ops = _set_to_fn(io, rng, 12, 3)
    averages, probs = _averages_probs(io, fn_ops[0], 400, Fraction(1, 2))
    ops += fn_ops + [
        averages,
        probs,
        _sequence_mc(io, probs, 400, 2, 7000 + seed),
        _group_mc(io, (60,), 4, 2, 7000 + seed),
    ]
    return ops


def _bridge_montecarlo(io: _Inputs, seed: int) -> list[Op]:
    rng = random.Random(f"bridge-montecarlo:{seed}")
    table = E.load()
    fn_ops = _set_to_fn(io, rng, 100, 24)
    averages, probs = _averages_probs(io, fn_ops[0], 10_000, Fraction(1, 2))
    return fn_ops + [
        averages,
        probs,
        _sequence_mc(io, probs, 10_000, 4, 20_260_815 + seed),
        _group_mc(io, (5_000,), 200, 10, 20_260_815 + seed),
        # tiny commands in the solver and build layers
        _solve(io, table, "eta", 2, 4),
        _pipeline(io, 2, 2, 7),
    ]


# ---------------------------------------------------------------------------
# Inputs


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """A uniformly random way to write total as an ordered sum of positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def certified_set(rng: random.Random, N: int, runs: int) -> tuple[list[int], int]:
    """A subset of [0, N] holding 0 and N, 60% dense, in exactly `runs` runs,
    with its exact minimum difference count g >= 1 over [1, N].

    Fixing the number of runs fixes the number of step-function pieces, and
    so the cost of the bridge commands, whatever the seed.
    """
    k = round(0.6 * (N + 1))
    while True:
        lengths = _composition(rng, k, runs)
        gaps = _composition(rng, N + 1 - k, runs - 1) + [0]
        elems, x = [], 0
        for run, gap in zip(lengths, gaps):
            elems.extend(range(x, x + run))
            x += run + gap
        g = min(C.small_diff_counts(elems, N)[1:])
        if g >= 1:
            return elems, g


# ---------------------------------------------------------------------------
# Op factories and their checks


def _expect_code(code: int, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def _solve(io: _Inputs, table: dict, quantity: str, g: int, param) -> Op:
    if quantity in ("eta", "beta"):
        where = ["--N", str(param)]
    else:
        where = ["--factors", *map(str, param)]
    want = table[E.case_key(quantity, g, param)]
    fault_value = ETA_FAULT_VALUES.get((g, param)) if quantity == "eta" else None
    fault = ETA_HULL_FAULT if fault_value else None

    def check(payload, code, outs, rc):
        if code != 0:
            return _expect_code(code, 0)
        d = json.loads(payload)
        w = d["witness"]
        if len(w) != d["value"]:
            return f"witness has {len(w)} elements, value is {d['value']}"
        if quantity == "eta":
            if min(C.small_diff_counts(w, param)[1:]) < g:
                return "witness is not a g-difference set"
        elif quantity == "beta":
            sums = {}
            for a in w:
                for b in w:
                    sums[a + b] = sums.get(a + b, 0) + 1
            if min(w) < 1 or max(w) > param or max(sums.values()) > g:
                return "witness is not a g-Sidon subset of [1, N]"
        elif quantity == "gamma":
            if rc.group_counts(param, w).min() < g:
                return "witness is not a g-difference subset of the group"
        elif rc.group_counts(param, w, "sum").max() > g:
            return "witness is not a g-Sidon subset of the group"
        if d["value"] == want:
            return None
        if d["value"] == fault_value and d["exhaustive"] is False:
            return fault
        return f"value {d['value']} (exhaustive={d['exhaustive']}), expected {want}"

    label = f"N={param}" if quantity in ("eta", "beta") else "G=" + "x".join(map(str, param))
    name = f"solve {quantity} g={g} {label}"
    return io.op(name, ["solve", quantity, "--g", str(g), *where], check, fault)


def _ratios(io: _Inputs, solves: list[Op]) -> Op:
    names = [op.name for op in solves]

    def check(payload, code, outs, rc):
        lines = payload.decode().splitlines()
        if lines[0] != "quantity,g,param,value,ratio,flag":
            return f"header {lines[0]!r}"
        if len(lines) != len(names) + 1:
            return f"{len(lines) - 1} rows for {len(names)} results"
        fatal = False
        for line, name in zip(lines[1:], names):
            d = json.loads(outs[name][0])
            param = d["N"] if "N" in d else math.prod(d["group"])
            q, g, value = d["quantity"], d["g"], d["value"]
            f = line.split(",")
            if f[:4] != [q, str(g), str(param), str(value)]:
                return f"row {line!r} does not match {name}"
            if abs(float(f[4]) - value / math.sqrt(g * param)) > 5e-7:
                return f"ratio in row {line!r}"
            # below 1.560 sqrt(gN), squared: 625 v^2 < 1521 g N
            row_fatal = q == "eta" and d["exhaustive"] and 625 * value**2 < 1521 * g * param
            if f[5] != ("FATAL" if row_fatal else "ok"):
                return f"flag in row {line!r}"
            fatal |= row_fatal
        return _expect_code(code, 1 if fatal else 0)

    argv = ["report", "ratios", "--results", *(str(s.out) for s in solves)]
    return io.op("report ratios", argv, check, as_json=False)


def _fn_pieces(d: dict):
    pieces = [
        (C.frac(b1), C.frac(b2), C.frac(v))
        for b1, b2, v in zip(d["breakpoints"], d["breakpoints"][1:], d["values"])
    ]
    scale = d["scale_sqrt"]
    return pieces, Fraction(1) if scale is None else Fraction(scale["num"], scale["den"])


def _set_to_fn(io: _Inputs, rng: random.Random, N: int, runs: int) -> list[Op]:
    """`bridge set-to-fn` on a certified set, then `bridge fn-check` on the result."""
    A, g = certified_set(rng, N, runs)
    path = io.write(f"set_N{N}.json", A)

    def check_fn(payload, code, outs, rc):
        pieces, scale = _fn_pieces(json.loads(payload))
        cells, heights = set(), set()
        for b1, b2, v in pieces:
            if v:
                lo, hi = b1 * N, b2 * N
                if lo.denominator != 1 or hi.denominator != 1:
                    return "breakpoint off the 1/N grid"
                cells.update(range(int(lo), int(hi)))
                heights.add(v)
        if cells != set(A):
            return "blocks do not reproduce the set"
        if len(heights) != 1 or heights.pop() ** 2 * scale != Fraction(N, g):
            return "block height is not sqrt(N/g)"
        return _expect_code(code, 0)

    # (f*f)(j/N) = r_A(j)/g, linear in between, so the minimum over [0, 1]
    # is the smallest r_A(j)/g over j = 0..N
    counts = C.small_diff_counts(A, N)
    low = min(counts)
    want_min = Fraction(low, g)
    want_arg = Fraction(counts.index(low), N)

    def check_min(payload, code, outs, rc):
        d = json.loads(payload)
        if d["window"] != ["0", "1"]:
            return f"window {d['window']}"
        if C.frac(d["min"]) != want_min or C.frac(d["argmin"]) != want_arg:
            return f"min {d['min']} at {d['argmin']}, expected {want_min} at {want_arg}"
        if d["passes"] != (want_min >= 1):
            return "pass flag"
        return _expect_code(code, 0 if want_min >= 1 else 1)

    fn = io.op(f"bridge set-to-fn N={N}", ["bridge", "set-to-fn", "--set", path, "--g", str(g), "--N", str(N)], check_fn)
    fn_check = io.op(f"bridge fn-check N={N}", ["bridge", "fn-check", "--fn", str(fn.out)], check_min)
    return [fn, fn_check]


def _averages_probs(io: _Inputs, fn: Op, N: int, tau: Fraction) -> tuple[Op, Op]:
    """`bridge averages --stretch` and `bridge probs --stretch` of fn's step function."""
    args = ["--fn", str(fn.out), "--N", str(N), "--tau-hat", f"{tau.numerator}/{tau.denominator}", "--stretch"]
    assert round(N ** (1 / 3)) ** 3 != N, "a cube N folds the N^(2/3) scale away"

    def check_averages(payload, code, outs, rc):
        d = json.loads(payload)
        pieces, scale = _fn_pieces(json.loads(outs[fn.name][0]))
        L = C.ceil_cbrt_scale(tau, N)
        lam = Fraction(N, N - 2 * L + 1)
        head = (d["N"], d["L"], C.frac(d["tau_hat"]), C.frac(d["stretch"]), C.frac(d["radicand"]))
        if head != (N, L, tau, lam, scale):
            return f"N, L, tau_hat, stretch, radicand = {head}"
        support, coeffs = d["support"], [C.frac(c) for c in d["coeffs"]]
        total = sum(coeffs)
        # the windows tile the line 2L-fold: sum a_i = N * lam * integral(f)
        if total != N * lam * sum(v * (b2 - b1) for b1, b2, v in pieces):
            return "window averages do not sum to N * stretch * integral"
        # a_i = (N / 2L) * integral of f(x / lam) over [(i-L)/N, (i+L)/N]
        pick = random.Random(len(support))
        probe = {support[0] - 1, support[0], support[-1], support[-1] + 1}
        probe.update(pick.sample(support, min(16, len(support))))
        index = dict(zip(support, coeffs))
        for i in sorted(probe):
            a_i = Fraction(N, 2 * L) * C.window_integral(pieces, lam, Fraction(i - L, N), Fraction(i + L, N))
            if a_i != index.get(i, 0):
                return f"average a_{i} = {index.get(i, 0)}, expected {a_i}"
        c = d["conditions"]
        cond2 = (max(coeffs) * tau) ** 3 * N * N <= total**3
        # condition (3): correlations of the averages over the shifts [1, N]
        den = C.common_denominator(coeffs)
        ints = [0] * (support[-1] - support[0] + 1)
        for i, q in zip(support, coeffs):
            ints[i - support[0]] = int(q * den)
        cond3_min = C.frac(c["cond3_min"])
        m = c["cond3_argmin"]
        if not 1 <= m <= N or Fraction(C.int_correlation(ints, m), den * den) * scale != cond3_min:
            return f"cond3_min {cond3_min} is not the correlation at its argmin {m}"
        for s in {1, N, *pick.sample(range(1, N + 1), 16)}:
            if Fraction(C.int_correlation(ints, s), den * den) * scale < cond3_min:
                return f"correlation at shift {s} is below cond3_min"
        threshold = Fraction((2 * L - 1) * N, 2 * L)
        want = {
            "sum_identity_ok": True,
            "cond2_ok": cond2,
            "cond3_ok": cond3_min >= threshold,
            "cond3_threshold": threshold,
            "cond3_m_range": [1, N],
            "realized_epsilon": lam - 1,
        }
        for key, value in want.items():
            got = C.frac(c[key]) if isinstance(value, Fraction) else c[key]
            if got != value:
                return f"{key} = {c[key]}, expected {value}"
        return _expect_code(code, 0 if cond2 and cond3_min >= threshold else 1)

    def check_probs(payload, code, outs, rc):
        d = json.loads(payload)
        a = json.loads(outs[averages.name][0])
        if d["support"] != a["support"] or d["cbrt_scale_n"] != N:
            return "support or scale differs from the averages"
        a_coeffs = [C.frac(c) for c in a["coeffs"]]
        total = sum(a_coeffs)
        q = [C.frac(c) for c in d["coeffs"]]
        if any(qi != tau * ai / total for qi, ai in zip(q, a_coeffs)):
            return "p_i is not tau_hat * a_i / sum(a)"
        if sum(q) != tau:
            return f"coefficients sum to {sum(q)}, not tau_hat"
        # p_i = q_i N^(2/3) <= 1, cubed
        if max(q) ** 3 * N * N > 1:
            return "a probability exceeds 1"
        return _expect_code(code, 0)

    averages = io.op(f"bridge averages N={N}", ["bridge", "averages", *args], check_averages)
    probs = io.op(f"bridge probs N={N}", ["bridge", "probs", *args], check_probs)
    return averages, probs


def _mc_rows(d: dict, seed: int, trials: int, success) -> str | None:
    """Per-trial bookkeeping shared by both Monte Carlo models."""
    rows = d["per_trial"]
    if d["trials"] != trials or len(rows) != trials:
        return f"{len(rows)} trial rows, expected {trials}"
    for t, row in enumerate(rows):
        if row["trial"] != t or row["seed"] != seed ^ t:
            return f"trial {t} seed {row['seed']}, expected {seed ^ t}"
        if row["success"] != success(row):
            return f"trial {t} success flag"
    if d["success_count"] != sum(1 for r in rows if r["success"]):
        return "success count"
    return None


def _tail_code(d: dict) -> int:
    return 1 if any(t["empirical"] > t["bound"] for t in d["tail_checks"]) else 0


def _sequence_mc(io: _Inputs, probs: Op, N: int, trials: int, seed: int) -> Op:
    delta, eps = Fraction(1, 2), Fraction(1, 5)

    def check(payload, code, outs, rc):
        d = json.loads(payload)
        p = json.loads(outs[probs.name][0])
        model = d["model"]
        if (model["kind"], model["master_seed"], model["target_N"]) != ("sequence-weighted", seed, N):
            return f"model {model['kind']} seed {model['master_seed']}"
        if model["probs"] != p:
            return "model probabilities differ from the probabilities file"
        q = [C.frac(c) for c in p["coeffs"]]
        n = p["cbrt_scale_n"]
        rho = ((1 - eps) / (1 + eps)) ** 2
        size_cap = (1 + eps) * sum(q)

        def success(row):
            # r_min >= rho N^(1/3) and |A| <= (1+eps) sum p_i, both cubed
            if row["size"] < 2 or Fraction(row["achieved_g"]) ** 3 < rho**3 * N:
                return False
            if n is None:
                return row["size"] <= size_cap
            return row["size"] ** 3 <= size_cap**3 * n * n

        problem = _mc_rows(d, seed, trials, success)
        if problem:
            return problem
        A0 = C.regen_sequence_draw(p["support"], q, n, seed)
        row = d["per_trial"][0]
        if len(A0) != row["size"]:
            return f"trial 0 size {row['size']}, regenerated {len(A0)}"
        if len(A0) >= 2:
            counts = rc.diff_counts(A0, N)
            if (int(counts[1:].min()), int(counts[1])) != (row["achieved_g"], row["probe_count"]):
                return "trial 0 counts differ from the regenerated draw"
        return _expect_code(code, _tail_code(d))

    argv = ["random", "sequence", "--probs", str(probs.out), "--N", str(N), "--trials", str(trials),
            "--delta", "1/2", "--epsilon", "1/5", "--seed", str(seed)]
    return io.op(f"random sequence N={N} trials={trials}", argv, check)


def _group_mc(io: _Inputs, factors: tuple, g: int, trials: int, seed: int) -> Op:
    delta, eps = Fraction(3, 10), Fraction(1, 10)
    order = math.prod(factors)

    def success(row):
        # min count >= (1-delta) g and size <= (1+eps) sqrt(g|G|), squared
        return row["size"] > 0 and row["achieved_g"] >= (1 - delta) * g and (
            row["size"] ** 2 <= (1 + eps) ** 2 * g * order
        )

    def check(payload, code, outs, rc):
        d = json.loads(payload)
        model = d["model"]
        if (model["kind"], model["master_seed"], model["group"], model["g"]) != (
            "group-uniform", seed, list(factors), g,
        ):
            return "model description"
        problem = _mc_rows(d, seed, trials, success)
        if problem:
            return problem
        flat = C.regen_group_draw(order, g, seed)
        row = d["per_trial"][0]
        if len(flat) != row["size"]:
            return f"trial 0 size {row['size']}, regenerated {len(flat)}"
        if flat:
            counts = rc.group_counts(factors, [C.unflatten(factors, i) for i in flat])
            probe = 1  # flat index of the last unit vector
            if (int(counts.min()), int(counts[probe])) != (row["achieved_g"], row["probe_count"]):
                return "trial 0 counts differ from the regenerated draw"
        return _expect_code(code, _tail_code(d))

    argv = ["random", "group", "--factors", *map(str, factors), "--g", str(g), "--trials", str(trials),
            "--delta", "3/10", "--epsilon", "1/10", "--seed", str(seed)]
    return io.op(f"random group G={order} trials={trials}", argv, check)


def _verify_int(io: _Inputs, tag: str, A: list, N: int, g: int, mode: str) -> Op:
    path = io.write(f"verify_{tag}.json", A)

    def check(payload, code, outs, rc):
        d = json.loads(payload)
        if mode == "difference":
            counts = rc.diff_counts(A, N)[1:]
            achieved = int(counts.min())
            bad = C.first_index(counts < g)
            witness = None if bad is None else bad + 1
        else:
            lo, counts = rc.sum_counts(A)
            achieved = int(counts.max())
            bad = C.first_index(counts > g)
            witness = None if bad is None else lo + bad
        want = {"passed": witness is None, "achieved_g": achieved, "witness": witness}
        if d["verdict"] != want:
            return f"verdict {d['verdict']}, recount {want}"
        if (d["size"], d["domain"], d["g"], d["mode"]) != (len(A), f"[{N}]", g, mode):
            return "size, domain, g or mode"
        return _expect_code(code, 0 if witness is None else 1)

    argv = ["verify", "--set", path, "--g", str(g), "--N", str(N), "--mode", mode]
    return io.op(f"verify {tag} k={len(A)} N={N}", argv, check)


def _verify_group(io: _Inputs, tag: str, factors: tuple, elems: list, g: int) -> Op:
    path = io.write(f"verify_{tag}.json", {"invariant_factors": list(factors), "elements": elems})

    def check(payload, code, outs, rc):
        counts = rc.group_counts(factors, elems)
        bad = C.first_index(counts < g)
        witness = None if bad is None else C.unflatten(factors, bad)
        want = {"passed": witness is None, "achieved_g": int(counts.min()), "witness": witness}
        d = json.loads(payload)
        if d["verdict"] != want:
            return f"verdict {d['verdict']}, recount {want}"
        return _expect_code(code, 0 if witness is None else 1)

    label = "x".join(map(str, factors))
    return io.op(f"verify {tag} G={label}", ["verify", "--set", path, "--g", str(g)], check)


def _legendre(x: int, p: int) -> int:
    r = pow(x % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def _pipeline(io: _Inputs, k: int, s: int, p: int) -> Op:
    def score(t):
        chi = [_legendre(t + i, p) for i in range(1, k + 1)]
        return sum(
            abs(sum(chi[i] * chi[j] for i in range(k) for j in range(k) if i - j == ell))
            for ell in range(-(k - 1), k)
        )

    def check(payload, code, outs, rc):
        d = json.loads(payload)
        u = d["union"]
        t = min(range(p - k), key=lambda t: (score(t), t))
        if (u["t"], u["S_t"]) != (t, score(t)):
            return f"shift t={u['t']} S_t={u['S_t']}, expected t={t} S_t={score(t)}"
        plane = sorted({(x, x * x * pow(v, -1, p) % p) for v in range(t + 1, t + k + 1) for x in range(p)})
        if [tuple(e) for e in u["elements"]] != plane:
            return "union is not the parabolas y = x^2 / u, u = t+1..t+k"
        plane_g = int(rc.group_counts((p, p), plane).min())
        if (u["verified_g"], d["plane_g"]) != (plane_g, plane_g):
            return f"plane g {d['plane_g']}, recount {plane_g}"
        if u["guaranteed_g"] != k * k - 2 * (k - 1) - math.isqrt(4 * k**3):
            return "guaranteed_g"
        n = p * p * s
        lifted = sorted({(a + c * p + b * s * p) % n for a, b in plane for c in range(s)})
        cyclic_g = int(rc.group_counts((n,), [[x] for x in lifted]).min())
        want = (n, len(lifted), plane_g * (s - 1), cyclic_g, 4 * s * s)
        got = (d["modulus"], d["size"], d["cyclic_g"], d["verified_cyclic_g"], d["recommended_k"])
        if got != want or cyclic_g < plane_g * (s - 1):
            return f"modulus, size, cyclic_g, verified, recommended_k = {got}, expected {want}"
        return _expect_code(code, 0)

    argv = ["construct", "pipeline", "--k", str(k), "--s", str(s), "--p", str(p)]
    return io.op(f"construct pipeline k={k} s={s} p={p}", argv, check)


def _blowup(io: _Inputs, rng: random.Random, N: int, runs: int, q: int) -> Op:
    A, g1 = certified_set(rng, N, runs)
    while True:
        Cset = [0] + [c for c in range(1, q) if rng.random() < 0.35]
        if min(C.cyclic_diff_counts(Cset, q)) >= 1:
            break
    path_a = io.write(f"blowup_A_N{N}.json", A)
    path_c = io.write(f"blowup_C_q{q}.json", {"invariant_factors": [q], "elements": [[c] for c in Cset]})

    def check(payload, code, outs, rc):
        d = json.loads(payload)
        g2 = int(rc.group_counts((q,), [[c] for c in Cset]).min())
        B = sorted({q * a + (c if c else q) for a in A for c in Cset})
        head = (d["size"], d["g"], d["g1"], d["g2"], d["q"], d["N"])
        if head != (len(B), g1 * g2, g1, g2, q, q * N):
            return f"size, g, g1, g2, q, N = {head}"
        if d["set"] != B:
            return "set is not {q a + c}"
        # the blow-up theorem: a g1 g2-difference set for [qN]
        if rc.diff_counts(B, q * N)[1:].min() < g1 * g2:
            return "blow-up is not a g1*g2-difference set"
        return _expect_code(code, 0)

    argv = ["construct", "blowup", "--A", path_a, "--N", str(N), "--C", path_c]
    return io.op(f"construct blowup N={N} q={q}", argv, check)


def _gamma_budget(io: _Inputs, g: int, n: int, budget: int) -> Op:
    """A budgeted solve: its value is checked as a sound upper bound only,
    whether or not the search proved it optimal within the budget."""

    def check(payload, code, outs, rc):
        d = json.loads(payload)
        w = d["witness"]
        if d["value"] != len(w):
            return f"value {d['value']}, witness size {len(w)}"
        if d["value"] * (d["value"] - 1) < g * (n - 1):
            return "value below the counting bound k(k-1) >= g(|G|-1)"
        if rc.group_counts((n,), w).min() < g:
            return "witness is not a g-difference set"
        return _expect_code(code, 0)

    argv = ["solve", "gamma", "--g", str(g), "--factors", str(n), "--budget", str(budget)]
    return io.op(f"solve gamma g={g} G={n} budget={budget}", argv, check)
