"""Command-line front end with reproducible, machine-readable output.

Each subcommand prints one report: JSON with sorted keys and rationals as
"p/q" strings, or a fixed-header CSV for ratio tables.  Identical inputs
and seed reproduce identical bytes.  Exit codes: 0 success or passing
check, 1 certificate violation found, 2 usage or input error, or a command
that ran out of memory.

Each command line is parsed once, by its command's own parser; the full
parser serves only help, usage errors and unusual forms.  Handlers import
the solver, bridge and constructions modules on first use, so a command
loads only what it runs.  --out and --manifest files are written over in
place and cut to length, with os.write: a report of up to 1 MiB in one
write, a larger one in 1 MiB batches, so at most about 1 MiB of its text is
held at once.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time
from fractions import Fraction

from . import __version__
from .core_sets import (
    BoundsLedger,
    CertificateError,
    GroupSpec,
    GroupSubset,
    IntSet,
    _require_certificate,
    format_fraction,
    group_rep_profile,
    parse_fraction,
    rep_diff_profile,
    rep_sum_profile,
    trivial_bounds,
    verify_certificate,
)

__all__ = ["dispatch", "main"]


class _Run:
    """Per-invocation state: the sha256 of each input file, taken only when
    a manifest will record them (digests is then a dict, else None)."""

    def __init__(self, manifest: bool):
        self.digests = {} if manifest else None

    def load_json(self, path: str):
        with open(path, "rb") as fh:
            raw = fh.read()
        if self.digests is not None:
            import hashlib
            self.digests[path] = hashlib.sha256(raw).hexdigest()
        return json.loads(raw)

    def load_set(self, path: str, kind=None, flag: str = ""):
        """An array is an integer set; an object is a group subset.  With a
        kind (IntSet or GroupSubset), a set of the other kind is refused
        with a ValueError naming flag."""
        data = self.load_json(path)
        A = IntSet.from_json(data) if isinstance(data, list) else GroupSubset.from_json(data)
        if kind is not None and not isinstance(A, kind):
            what = "an integer-set JSON array" if kind is IntSet else "a group-subset JSON file"
            raise ValueError(f"{flag} must be {what}")
        return A


_NUMBERS = frozenset((int, float, bool, type(None)))
_SCALARS = _NUMBERS | {str}
_ENCODER = json.JSONEncoder()
# Items per piece of a flat list: pieces of tens of KB keep the peak memory
# of a 10^4-entry payload near that of its objects.
_FLAT_ITEMS = 1024


@functools.cache
def _flat_encoder(inner: str):
    """The C encoder, separating items and sorted keys by "," plus inner."""
    return json.JSONEncoder(sort_keys=True, separators=("," + inner, ": ")).encode


def _write_json(obj, write, nl: str = "\n") -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) through write, piece
    by piece, for an obj on a line that starts with nl.  A list or dict of
    plain scalars goes to the C encoder, with "," plus the next line's
    indent as its separator, and so does a list of non-empty lists of
    numbers, whose only brackets are then the rows' own, placed by two
    replaces; the rest is laid out as json's pure-Python encoder does."""
    inner = nl + "  "
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))) or not obj:
        write(_ENCODER.encode(obj))  # a scalar, [] or {}
        return
    sep, closing = "{}" if is_dict else "[]"
    types = set(map(type, obj.values() if is_dict else obj))
    if types <= _SCALARS:
        n = _FLAT_ITEMS
        for part in [obj] if is_dict else [obj[i : i + n] for i in range(0, len(obj), n)]:
            write(sep + inner + _flat_encoder(inner)(part)[1:-1])
            sep = ","
    elif is_dict:
        for key, value in sorted(obj.items()):
            # a non-string key is quoted as it would be written: 1 -> "1"
            key = key if isinstance(key, str) else _ENCODER.encode(key)
            write(f"{sep}{inner}{_ENCODER.encode(key)}: ")
            _write_json(value, write, inner)
            sep = ","
    elif types <= {list, tuple} and all(x and set(map(type, x)) <= _NUMBERS for x in obj):
        deeper = inner + "  "
        for i in range(0, len(obj), _FLAT_ITEMS):
            rows = _flat_encoder(deeper)(obj[i : i + _FLAT_ITEMS])[1:-1]
            rows = rows.replace("]," + deeper, inner + "]," + inner).replace("[", "[" + deeper)
            write(sep + inner + rows[:-1] + inner + "]")
            sep = ","
    else:
        for item in obj:
            write(sep + inner)
            _write_json(item, write, inner)
            sep = ","
    write(nl + closing)


def _emit(body, fh) -> None:
    """Write body to fh: a str as it is, anything else as
    json.dumps(body, sort_keys=True, indent=2) + "\n", byte for byte, piece
    by piece so that the whole text is never held at once."""
    if isinstance(body, str):
        fh.write(body)
    else:
        _write_json(body, fh.write)
        fh.write("\n")


_BATCH = 1 << 20  # characters a _Sink holds before it writes them


class _Sink:
    """Text bound for the file descriptor fd: the pieces written are held
    and passed to os.write, UTF-8 encoded, each time they exceed _BATCH
    characters and once more at flush.  written counts the bytes written."""

    def __init__(self, fd: int):
        self.fd, self.pieces, self.held, self.written = fd, [], 0, 0

    def write(self, text: str) -> None:
        self.pieces.append(text)
        self.held += len(text)
        if self.held > _BATCH:
            self.flush()

    def flush(self) -> None:
        data = memoryview("".join(self.pieces).encode())
        self.pieces, self.held = [], 0
        self.written += len(data)
        while data:  # os.write may take less than it is given
            data = data[os.write(self.fd, data) :]


# ---------------------------------------------------------------------------
# Independent recounts for --oracle.  Plain dict loops, no shared backend.

_ORACLE_PAIR_LIMIT = 250_000
_ORACLE_DOMAIN_LIMIT = 5_000


def _brute_pair_counts(elements, factors, kind):
    counts = {}
    for a in elements:
        for b in elements:
            if factors is None:
                key = a - b if kind == "difference" else a + b
            elif kind == "difference":
                key = tuple((x - y) % n for x, y, n in zip(a, b, factors))
            else:
                key = tuple((x + y) % n for x, y, n in zip(a, b, factors))
            counts[key] = counts.get(key, 0) + 1
    return counts


def _oracle_achieved(A, N, mode) -> int:
    """min difference count over the domain, or max sum count."""
    if isinstance(A, IntSet):
        counts = _brute_pair_counts(A.elements, None, mode)
        if mode == "difference":
            return min(counts.get(m, 0) for m in range(1, N + 1))
        return max((c for s, c in counts.items() if 2 <= s <= 2 * N), default=0)
    group = A.group
    counts = _brute_pair_counts(A.elements, group.factors, mode)
    if mode == "difference":
        return min(counts.get(v, 0) for v in group.elements())
    return max(counts.values(), default=0)


def _oracle(result, A, N, mode, accept):
    """A handler's (code, payload, summary), checked by the exact recount of
    _oracle_achieved: a match when accept(recount) holds; skipped when the
    instance is too large."""
    domain = N if isinstance(A, IntSet) else A.group.order
    if A.size * A.size > _ORACLE_PAIR_LIMIT or domain > _ORACLE_DOMAIN_LIMIT:
        return _checked(result, {"checked": False, "reason": "instance too large"})
    achieved = _oracle_achieved(A, N, mode)
    return _checked(result, {"checked": True, "achieved_g": achieved, "match": accept(achieved)})


def _checked(result, oracle: dict):
    """result with payload["oracle"] = oracle; a mismatch exits 2 with one
    stderr line."""
    code, payload, summary = result
    payload["oracle"] = oracle
    if oracle.get("match", True):
        return result
    print("oracle mismatch: independent recount disagrees", file=sys.stderr)
    return 2, payload, summary


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (exit code, payload, one-line summary);
# a string payload is emitted verbatim (CSV), a dict as canonical JSON.


def _cmd_verify(args, run):
    A = run.load_set(args.set)
    verdict = verify_certificate(A, args.g, args.N, args.mode)
    payload = {
        "mode": args.mode,
        "g": args.g,
        "domain": f"[{args.N}]" if isinstance(A, IntSet) else A.group.label(),
        "size": A.size,
        "verdict": verdict.to_json(),
    }
    if verdict.passed:
        summary = f"PASS achieved_g={verdict.achieved_g}"
    else:
        summary = f"FAIL witness={verdict.witness} achieved_g={verdict.achieved_g}"
    result = (0 if verdict.passed else 1), payload, summary
    if args.oracle:
        return _oracle(result, A, args.N, args.mode, lambda a: a == verdict.achieved_g)
    return result


def _cmd_profile(args, run):
    A = run.load_set(args.set)
    if A.size == 0:
        raise ValueError("empty set")
    if isinstance(A, GroupSubset) and (args.lo, args.hi) != (None, None):
        raise ValueError("lo and hi apply only to integer sets")
    if isinstance(A, IntSet):
        lo, hi = args.lo, args.hi
        if args.kind == "difference":
            lo = 1 if lo is None else lo
            hi = int(A.array[-1]) - int(A.array[0]) if hi is None else hi
            prof = rep_diff_profile(A, (lo, hi))
        else:
            lo = 2 * int(A.array[0]) if lo is None else lo
            hi = 2 * int(A.array[-1]) if hi is None else hi
            prof = rep_sum_profile(A, (lo, hi))
    else:
        prof = group_rep_profile(A, args.kind)
    summary = f"{args.kind} counts: min={prof.min_count} max={prof.max_count}"
    return 0, prof.to_json(), summary


def _cmd_construct_parabola(args, run):
    from .constructions import best_shift_union, parabola_set
    if args.u is not None:
        A = parabola_set(args.p, args.u)
        payload = {"p": args.p, "u": args.u, "size": A.size, "set": A.to_json()}
        summary = f"parabola u={args.u} in (Z/{args.p})^2: {A.size} points"
        if args.oracle:
            on_curve = all(
                (x * x - args.u * y) % args.p == 0 for x, y in A.elements
            )
            ok = on_curve and A.size == args.p
            return _checked((0, payload, summary), {"checked": True, "match": ok})
        return 0, payload, summary
    union = best_shift_union(args.p, args.k, seed=args.seed)
    summary = (
        f"union of {args.k} parabolas at t={union.t}: size {union.subset.size}, "
        f"verified_g={union.verified_g} ({union.verified_mode})"
    )
    result = 0, union.to_json(), summary
    if args.oracle:
        g, exact = union.verified_g, union.verified_mode == "exhaustive"
        # sampled verification only upper-bounds the true minimum
        accept = (lambda a: a == g) if exact else (lambda a: a <= g)
        return _oracle(result, union.subset, None, "difference", accept)
    return result


def _cmd_construct_lift(args, run):
    from .constructions import _lift_counts, _plane_counts, lift_to_cyclic
    A = run.load_set(args.A, GroupSubset, "--A")
    box = None  # the input's difference box, formed once for both claims
    if args.g is not None:
        counts, box = _plane_counts(A)
        _require_certificate(A, args.g, name="input", counts=counts)
    claim = 0 if args.g is None else args.g * (args.s - 1)
    C = lift_to_cyclic(A, args.s)
    modulus = C.group.factors[0]
    payload = {"modulus": modulus, "s": args.s, "size": C.size, "set": C.to_json()}
    summary = f"lifted to Z/{modulus}: {C.size} elements"
    if claim >= 1:
        _require_certificate(C, claim, name="lift", counts=_lift_counts(C, A, args.s, box))
        payload["certified_g"] = claim
        summary += f", {claim}-difference set"
    result = 0, payload, summary
    if not args.oracle:
        return result
    if claim < 1:
        return _checked(result, {"checked": False, "reason": "no claim to check"})
    return _oracle(result, C, None, "difference", lambda a: a >= claim)


def _cmd_construct_pipeline(args, run):
    from .constructions import cyclic_pipeline
    report = cyclic_pipeline(args.k, args.s, args.p, seed=args.seed)
    payload = report.to_json()
    summary = (
        f"Z/{payload['modulus']}: size {payload['size']}, "
        f"certified {report.cyclic_g}-difference set"
    )
    if args.oracle:
        g = report.cyclic_g
        return _oracle((0, payload, summary), report.lifted, None, "difference", lambda a: a >= g)
    return 0, payload, summary


def _cmd_construct_blowup(args, run):
    from .constructions import blow_up
    A = run.load_set(args.A, IntSet, "--A")
    C = run.load_set(args.C, GroupSubset, "--C")
    B, g1, g2 = blow_up(A, args.g1, args.N, C, args.g2)
    q = C.group.factors[0]
    payload = {
        "set": B.to_json(),
        "size": B.size,
        "g": g1 * g2,
        "g1": g1,
        "g2": g2,
        "q": q,
        "N": q * args.N,
    }
    summary = f"blow-up: {B.size} elements, {g1 * g2}-difference set for [{q * args.N}]"
    if args.oracle:
        return _oracle((0, payload, summary), B, q * args.N, "difference", lambda a: a >= g1 * g2)
    return 0, payload, summary


def _trials(args) -> bool:
    """Whether --trials was given; without it, an option only trials read is refused."""
    if args.trials is None:
        given = [f"--{k}" for k in ("delta", "epsilon", "N") if getattr(args, k, None) is not None]
        if given:
            raise ValueError(f"{', '.join(given)}: only read with --trials")
    return args.trials is not None


def _validate(args, kind: str, **model):
    """Seeded Monte Carlo trials; exit 1 when an empirical tail beats its bound."""
    from .constructions import RandomModel, monte_carlo_validate
    if args.delta is None or args.epsilon is None:
        raise ValueError("--trials needs --delta and --epsilon")
    if model.get("target_N", 1) is None:  # sequence trials check the shifts [1, N]
        raise ValueError("--trials needs --N (shift range for the check)")
    model = RandomModel(kind, master_seed=args.seed, **model)
    report = monte_carlo_validate(model, args.trials, args.delta, args.epsilon)
    summary = f"{report.success_count}/{report.trials} trials within thresholds"
    violated = any(row["empirical"] > row["bound"] for row in report.tail_checks)
    return int(violated), report.to_json(), summary


def _cmd_random_group(args, run):
    from .constructions import random_group_subset
    group = GroupSpec(tuple(args.factors))
    if _trials(args):
        return _validate(args, "group-uniform", group=group, g=args.g)
    A = random_group_subset(group, args.g, args.seed)
    payload = {"g": args.g, "seed": args.seed, "size": A.size, "set": A.to_json()}
    return 0, payload, f"sampled {A.size} of {group.order} elements"


def _cmd_random_sequence(args, run):
    from .bridge import ProbSeq
    from .constructions import sequence_random_set
    trials = _trials(args)  # refused before the file is read
    probs = ProbSeq.from_json(run.load_json(args.probs))
    if trials:
        return _validate(args, "sequence-weighted", probs=probs, target_N=args.N)
    A = sequence_random_set(probs, args.seed)
    payload = {"seed": args.seed, "size": A.size, "set": A.to_json()}
    return 0, payload, f"sampled {A.size} indices"


def _cmd_bridge_set_to_fn(args, run):
    from .bridge import set_to_step
    A = run.load_set(args.set, IntSet, "--set")
    f = set_to_step(A, args.g, args.N)
    summary = f"step function with {len(f.values)} pieces"
    return 0, f.to_json(), summary


def _cmd_bridge_fn_check(args, run):
    from .bridge import StepFunction, autocorrelation_min
    f = StepFunction.from_json(run.load_json(args.fn))
    low, argmin = autocorrelation_min(f, args.lo, args.hi)
    passes = low >= 1
    payload = {
        "window": [format_fraction(Fraction(args.lo)), format_fraction(Fraction(args.hi))],
        "min": format_fraction(low),
        "argmin": format_fraction(argmin),
        "passes": passes,
    }
    state = "PASS" if passes else "FAIL"
    return (0 if passes else 1), payload, f"{state} min {low} at {argmin}"


def _cmd_bridge_averages(args, run):
    from .bridge import StepFunction, local_averages
    f = StepFunction.from_json(run.load_json(args.fn))
    seq = local_averages(f, args.N, args.tau_hat, stretch=args.stretch)
    c = seq.conditions
    passes = c.sum_identity_ok and c.cond2_ok and c.cond3_ok
    state = "PASS" if passes else "FAIL"
    summary = f"L={seq.L} support={len(seq.support)} conditions {state}"
    return (0 if passes else 1), seq.to_json(), summary


def _cmd_bridge_probs(args, run):
    from .bridge import StepFunction, _window_averages, averages_to_probs
    f = StepFunction.from_json(run.load_json(args.fn))
    # averages_to_probs re-checks condition (2); condition (3) is not needed
    probs = averages_to_probs(_window_averages(f, args.N, args.tau_hat, args.stretch))
    size = float(probs.sum_coeff()) * (probs.cbrt_n or 1) ** (2 / 3)
    summary = f"{len(probs.support)} inclusion probabilities, expected size {size:.3f}"
    return 0, probs.to_json(), summary


def _cmd_bridge_torus(args, run):
    from .bridge import group_set_to_torus, torus_autocorrelation_min
    A = run.load_set(args.set, GroupSubset, "--set")
    h = group_set_to_torus(A, args.g)
    low, cell = torus_autocorrelation_min(h)
    payload = {
        "torus": h.to_json(),
        "l1_norm": h.l1_norm().to_json(),
        "min": format_fraction(low),
        "argmin_cell": list(cell),
    }
    summary = f"L1 {float(h.l1_norm()):.6f}, autocorrelation min {low}"
    return 0, payload, summary


def _cmd_solve(args, run):
    from .solver import SearchConfig, alpha_exact, beta_exact, eta_exact, gamma_exact
    kwargs = {"translation_fix": not getattr(args, "no_pin", False)}  # beta has no pin
    if args.budget is not None:
        kwargs["node_budget"] = args.budget
    cfg = SearchConfig(**kwargs)
    fn = {"eta": eta_exact, "gamma": gamma_exact, "beta": beta_exact, "alpha": alpha_exact}[args.quantity]
    domain = args.N if args.quantity in ("eta", "beta") else GroupSpec(tuple(args.factors))
    result = fn(args.g, domain, cfg)
    summary = (
        f"{result.quantity} g={result.g} param={result.size_param}: "
        f"value {result.value} (exhaustive={result.exhaustive})"
    )
    return 0, result.to_json(), summary


def _cmd_report_ratios(args, run):
    from .solver import ExtremalResult, ratio_report, ratio_rows
    results = [ExtremalResult.from_json(run.load_json(path)) for path in args.results]
    for path, r in zip(args.results, results):  # a witness must certify its value
        kind = "difference" if r.quantity in ("eta", "gamma") else "sidon"
        if r.witness is not None and (
            r.witness.size != r.value or not verify_certificate(r.witness, r.g, r.N, kind).passed
        ):
            raise ValueError(f"{path}: the witness is not a {r.g}-{kind} set of {r.value} elements")
    rows = ratio_rows(results)
    code = 1 if any(r["flag"] == "FATAL" for r in rows) else 0
    summary = f"{len(rows)} rows, {'all ok' if code == 0 else 'FATAL flags present'}"
    if args.json:
        return code, {"rows": rows}, summary
    return code, ratio_report(rows), summary


def _cmd_bounds(args, run):
    payload = {"ledger": BoundsLedger().to_json()}
    domain = args.N is not None or args.factors is not None
    if args.g is None:
        if domain:
            raise ValueError("--N/--factors need --g")
        return 0, payload, "published ratio constants"
    if not domain:
        raise ValueError("--g needs --N or --factors")
    group = None if args.factors is None else GroupSpec(tuple(args.factors))
    tb = trivial_bounds(args.g, N=args.N, group=group)
    payload["trivial"] = tb.to_json()
    return 0, payload, f"cover lower {tb.min_cover_lower}, packing upper {tb.max_packing_upper}"


# ---------------------------------------------------------------------------
# Parser plumbing


@functools.cache
def _commands() -> tuple[argparse.ArgumentParser, dict]:
    """The CLI parser, built on the first dispatch and reused after, and its
    leaf table {command words: (the leaf's own parser, the dests the full
    descent sets)}, e.g. ("solve", "eta") -> (the eta parser, {"command":
    "solve", "quantity": "eta"}), recorded as each leaf is added."""
    common = argparse.ArgumentParser(add_help=False)
    common.set_defaults(seed=0)  # the manifest's seed where no randomness runs
    common.add_argument("--json", action="store_true", help="emit the full JSON report")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument("--manifest", help="write a run manifest (inputs, digests, timing) to this path")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="master seed for the random draws")

    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument(
        "--oracle",
        action="store_true",
        help="re-check the result by brute-force recount when small enough",
    )

    p = argparse.ArgumentParser(
        prog="diffsets",
        description="Generalized difference sets and autocorrelation integrals.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    leaves = {}

    def leaf(subs, words, handler, parents=(common,), **kwargs):
        sp = subs.add_parser(words[-1], parents=list(parents), **kwargs)
        sp.set_defaults(handler=handler)
        leaves[words] = sp, dict(zip(("command", subs.dest), words))
        return sp

    sp = leaf(sub, ("verify",), _cmd_verify, [common, oracle], help="check a certificate")
    sp.add_argument("--set", required=True, help="JSON file: array (integer set) or group subset")
    sp.add_argument("--mode", choices=("difference", "sidon"), default="difference")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--N", type=int, help="shift range for integer sets")

    sp = leaf(sub, ("profile",), _cmd_profile, help="representation-count profile")
    sp.add_argument("--set", required=True)
    sp.add_argument("--kind", choices=("difference", "sum"), default="difference")
    sp.add_argument("--lo", type=int, help="first shift (integer sets)")
    sp.add_argument("--hi", type=int, help="last shift (integer sets)")

    construct = sub.add_parser("construct", help="explicit constructions")
    csub = construct.add_subparsers(dest="what", required=True)

    sp = leaf(csub, ("construct", "parabola"), _cmd_construct_parabola, [common, seeded, oracle],
              help="parabola or best-shift union")
    sp.add_argument("--p", type=int, required=True, help="odd prime modulus")
    shape = sp.add_mutually_exclusive_group(required=True)
    shape.add_argument("--u", type=int, help="single parabola parameter")
    shape.add_argument("--k", type=int, help="number of parabolas in the union")

    sp = leaf(csub, ("construct", "lift"), _cmd_construct_lift, [common, oracle],
              help="lift a plane set to a cyclic group")
    sp.add_argument("--A", required=True, help="group-subset JSON over (Z/p)^2")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--g", type=int, help="certified difference count of A, verified first")

    sp = leaf(csub, ("construct", "pipeline"), _cmd_construct_pipeline, [common, seeded, oracle],
              help="union then lift, certified end to end")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = leaf(csub, ("construct", "blowup"), _cmd_construct_blowup, [common, oracle],
              help="compose interval and cyclic certificates")
    sp.add_argument("--A", required=True, help="integer-set JSON")
    sp.add_argument("--N", type=int, required=True, help="shift range certified by A")
    sp.add_argument("--C", required=True, help="cyclic group-subset JSON")
    sp.add_argument("--g1", type=int, help="difference count claimed for A (default: achieved)")
    sp.add_argument("--g2", type=int, help="difference count claimed for C (default: achieved)")

    random_p = sub.add_parser("random", help="random models and Monte Carlo validation")
    rsub = random_p.add_subparsers(dest="what", required=True)

    sp = leaf(rsub, ("random", "group"), _cmd_random_group, [common, seeded],
              help="uniform sqrt(g/|G|) inclusion")
    sp.add_argument("--factors", type=int, nargs="+", required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--trials", type=int, help="run Monte Carlo validation instead of one draw")
    sp.add_argument("--delta", type=parse_fraction, help="difference-count slack, e.g. 3/10")
    sp.add_argument("--epsilon", type=parse_fraction, help="size slack, e.g. 1/10")

    sp = leaf(rsub, ("random", "sequence"), _cmd_random_sequence, [common, seeded],
              help="weighted inclusion from a probability file")
    sp.add_argument("--probs", required=True, help="ProbSeq JSON (see bridge probs)")
    sp.add_argument("--N", type=int, help="shift range checked per trial")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--delta", type=parse_fraction)
    sp.add_argument("--epsilon", type=parse_fraction)

    bridge = sub.add_parser("bridge", help="sets to step functions and back")
    bsub = bridge.add_subparsers(dest="what", required=True)

    sp = leaf(bsub, ("bridge", "set-to-fn"), _cmd_bridge_set_to_fn,
              help="indicator step function of a certified set")
    sp.add_argument("--set", required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)

    sp = leaf(bsub, ("bridge", "fn-check"), _cmd_bridge_fn_check,
              help="autocorrelation minimum over a window")
    sp.add_argument("--fn", required=True, help="StepFunction JSON")
    sp.add_argument("--lo", type=parse_fraction, default=Fraction(0))
    sp.add_argument("--hi", type=parse_fraction, default=Fraction(1))

    for what, handler, text in (
        ("averages", _cmd_bridge_averages, "sliding-window averages with conditions"),
        ("probs", _cmd_bridge_probs, "inclusion probabilities from averages"),
    ):
        sp = leaf(bsub, ("bridge", what), handler, help=text)
        sp.add_argument("--fn", required=True)
        sp.add_argument("--N", type=int, required=True)
        sp.add_argument("--tau-hat", type=parse_fraction, required=True, dest="tau_hat")
        sp.add_argument("--stretch", action="store_true")

    sp = leaf(bsub, ("bridge", "torus"), _cmd_bridge_torus, help="normalized indicator on the torus")
    sp.add_argument("--set", required=True, help="group-subset JSON")
    sp.add_argument("--g", type=int, required=True)

    solve = sub.add_parser(
        "solve", help="exact extremal search; exhaustive=true means proven optimal"
    )
    ssub = solve.add_subparsers(dest="quantity", required=True)
    for quantity in ("eta", "gamma", "beta", "alpha"):
        sp = leaf(ssub, ("solve", quantity), _cmd_solve)
        sp.add_argument("--g", type=int, required=True)
        if quantity in ("eta", "beta"):
            sp.add_argument("--N", type=int, required=True, help="interval parameter")
        else:
            sp.add_argument("--factors", type=int, nargs="+", required=True, help="group factors")
        sp.add_argument("--budget", type=int, help="search nodes, set-up included, before a partial result")
        if quantity != "beta":  # beta has no translation symmetry to pin
            sp.add_argument(
                "--no-pin",
                action="store_true",
                help="drop every pin (translation, and gamma's flat index 1 or basis) as their check",
            )

    report = sub.add_parser("report", help="tables over solved results")
    repsub = report.add_subparsers(dest="what", required=True)
    sp = leaf(repsub, ("report", "ratios"), _cmd_report_ratios,
              help="value/sqrt(g*param) table with bound flags")
    sp.add_argument("--results", nargs="+", required=True, help="result JSON files from solve --json")

    sp = leaf(sub, ("bounds",), _cmd_bounds, help="published constants and trivial bounds")
    sp.add_argument("--g", type=int)
    domain = sp.add_mutually_exclusive_group()
    domain.add_argument("--N", type=int)
    domain.add_argument("--factors", type=int, nargs="+")

    return p, leaves


def _build_parser() -> argparse.ArgumentParser:
    """The full parser, for help, usage errors and unusual forms."""
    return _commands()[0]


def _write(body, out: str | None):
    """_emit body to the file out, or to stdout when out is None.

    The file is written through a _Sink, so a report under _BATCH leaves in
    one write(2) and a larger one in batches of about _BATCH, never held
    whole.  It is written over in place and then, if it was longer, cut to
    the bytes written, not opened with O_TRUNC: on ext4 (auto_da_alloc)
    truncating a file and writing it again starts writeback at close, which
    costs about ten times the write.  A device, FIFO or tty is not cut,
    since ftruncate refuses it."""
    if out is None:
        _emit(body, sys.stdout)
        return
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        sink = _Sink(fd)
        _emit(body, sink)
        sink.flush()
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > sink.written:
            os.ftruncate(fd, sink.written)
    finally:
        os.close(fd)


def _parse(argv) -> argparse.Namespace:
    """Parse argv once, with its command's own parser, which is the object the
    full descent would hand the rest of argv to.  A line naming no command, or
    leaving arguments over, goes to the full parser, for its help, its usage
    error or an unusual form."""
    leaves = _commands()[1]
    for words in (tuple(argv[:2]), tuple(argv[:1])):
        if words in leaves:
            parser, dests = leaves[words]
            args, extras = parser.parse_known_args(argv[len(words) :], argparse.Namespace(**dests))
            if not extras:
                return args
            break
    return _build_parser().parse_args(argv)


def dispatch(argv) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    run = _Run(bool(args.manifest))
    start = time.monotonic()
    try:
        code, payload, summary = args.handler(args, run)
    except CertificateError as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        if exc.verdict is not None:
            _emit(exc.verdict.to_json(), sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation that failed; a bare one is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    body = payload if isinstance(payload, str) or args.json else summary + "\n"
    try:
        _write(body, args.out)
        if args.manifest:
            manifest = {
                "cmdline": list(argv),
                "seed": args.seed,
                "version": __version__,
                "input_digests": run.digests,
                "wall_clock_seconds": round(time.monotonic() - start, 3),
                "outputs": [args.out or "stdout"],
            }
            _write(manifest, args.manifest)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
