"""One workload run in one fresh process: set-up, timed rounds, checks.

Started by `run.py`; not meant to be run by hand.  The process imports
`diffsets` from `<root>/src`, writes the workload's inputs, notes the time
it became ready, then runs whole rounds of the workload's CLI commands
through `diffsets.cli.dispatch`, one after another, until `--seconds` have
passed.  A calibration loop runs between commands about once a second, and
times are reported at a reference speed (see REFERENCE_CAL_S).
In an untraced run a probe after each round times the set-up of one more
fresh process.  With `--trace 1` untraced and traced rounds alternate, so
the tracing overhead is measured in the same process.  Outputs of the first
round are checked; every later round must reproduce them byte for byte.
The last line of standard output is one JSON record for `run.py`.
"""

from __future__ import annotations

import argparse
import decimal
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path


# The host's speed drifts by 20-40% within a minute, for every process alike.
# Times are reported at one reference speed: each is scaled by how long a
# fixed calibration loop took next to it, against the time it takes at that
# speed.  The raw times are kept in the details record.
REFERENCE_CAL_S = 0.0075
CALIBRATE_EVERY_S = 1.0


def _import_program(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import diffsets.cli as cli

    if Path(cli.__file__).resolve().parents[1] != src:
        raise ImportError(f"diffsets was imported from {cli.__file__}, not from {src}")
    return cli


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "libmpdec": decimal.__libmpdec_version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _setup_probe(args, n: int) -> float:
    """Seconds from starting a fresh worker to the moment its inputs are written."""
    workdir = Path(args.workdir) / f"setup-{n}"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--root", args.root, "--workdir", str(workdir),
           "--workload", args.workload, "--seed", str(args.seed), "--probe"]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - started


def _calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes now: the median of 11 tries."""

    def once():
        t0 = time.perf_counter()
        acc, d = 0, {}
        for i in range(40_000):
            acc += i * i % 7
            d[i & 1023] = acc
        return time.perf_counter() - t0

    return statistics.median(once() for _ in range(11))


def at_reference(seconds: float, calibration: float) -> float:
    """A time scaled to the speed at which `_calibrate` reads REFERENCE_CAL_S."""
    return seconds * REFERENCE_CAL_S / calibration


def _layer_metrics(tracer, self_t, spans_of_round, ops, payloads) -> dict:
    """Per-layer metrics of one traced round, from its spans' self times."""
    busy = defaultdict(float)
    pairs = calls = trials = 0
    mc_span = 0.0
    for i in spans_of_round:
        name, start, end, _parent, _op, extra = tracer.spans[i]
        busy[name] += self_t[i]
        if name == "core_sets.count":
            pairs += extra
            calls += 1
        elif name == "constructions.mc":
            trials += extra
            mc_span += end - start
    nodes = sum(
        json.loads(payloads[op.name])["nodes"] for op in ops if op.argv[0] == "solve"
    )

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    return {
        "core_sets.count_s": busy["core_sets.count"],
        "core_sets.pairs_per_s": rate(pairs, busy["core_sets.count"]),
        "core_sets.verify_s": busy["core_sets.verify"],
        "core_sets.pairs": pairs,
        "core_sets.count_calls": calls,
        "solver.search_s": busy["solver.search"],
        "solver.nodes": nodes,
        "solver.nodes_per_s": rate(nodes, busy["solver.search"]),
        "bridge.autocorr_min_s": busy["bridge.autocorr_min"],
        "bridge.averages_s": busy["bridge.averages"],
        "bridge.probs_s": busy["bridge.probs"],
        "bridge.set_to_step_s": busy["bridge.set_to_step"],
        "constructions.mc_s": busy["constructions.mc"],
        "constructions.trial_s": mc_span / trials if trials else 0.0,
        "constructions.trials": trials,
        "constructions.sample_s": busy["constructions.sample"],
        "constructions.build_s": busy["constructions.build"],
        "cli.self_s": busy["cli.dispatch"],
        "cli.ops": len(ops),
        "cli.payload_bytes": sum(len(payloads[op.name]) for op in ops),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="checkout holding src/diffsets")
    ap.add_argument("--workdir", required=True, help="directory for inputs and outputs")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", help="where a traced run writes its spans")
    ap.add_argument("--probe", action="store_true", help="stop once set up; report the time")
    args = ap.parse_args(argv)

    cli = _import_program(Path(args.root))
    import checks
    import workloads
    from spans import Tracer

    ops = workloads.build(args.workload, args.seed, Path(args.workdir))
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}  # raw round times
    scaled = {False: [], True: []}  # the same at the reference speed
    # calibrations: one before the first command, then one after every
    # CALIBRATE_EVERY_S of command time and at the end of each round; each
    # stretch of commands is scaled by the mean of the two around it
    cals = [_calibrate()]
    peak_rss_mb = None
    op_walls = {op.name: [] for op in ops}
    first: dict[str, tuple[bytes, int]] = {}
    digests: dict[str, str] = {}
    drifted: set[str] = set()
    traced_rounds = []
    setup_probes = []
    rounds = 0
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        if traced:
            span_lo = len(tracer.spans)
            tracer.install()
        wall = at_ref = segment = 0.0
        for i, op in enumerate(ops):
            if traced:
                tracer.op = rounds * len(ops) + i
            t0 = time.perf_counter()
            try:
                code = cli.dispatch(op.argv)
            except Exception as exc:  # a crash is a wrong output, not a benchmark failure
                code = f"raised {exc!r}"
            took = time.perf_counter() - t0
            wall += took
            if not traced:
                op_walls[op.name].append(took)
            payload = op.out.read_bytes() if op.out.exists() else b""
            digest = hashlib.sha256(payload).hexdigest()
            if op.name not in first:
                first[op.name] = (payload, code)
                digests[op.name] = digest
            elif digests[op.name] != digest or first[op.name][1] != code:
                drifted.add(op.name)
            segment += took
            if segment >= CALIBRATE_EVERY_S or i == len(ops) - 1:
                cals.append(_calibrate())
                at_ref += at_reference(segment, (cals[-2] + cals[-1]) / 2)
                segment = 0.0
        if traced:
            tracer.uninstall()
            traced_rounds.append(range(span_lo, len(tracer.spans)))
        if peak_rss_mb is None:  # later rounds add only allocator fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls[traced].append(wall)
        scaled[traced].append(at_ref)
        rounds += 1
        if not args.trace:
            setup_probes.append(at_reference(_setup_probe(args, rounds), cals[-1]))
        if time.monotonic() - start >= args.seconds and (not args.trace or rounds % 2 == 0):
            break

    rc = checks.Recounter()
    problems, faults = [], []
    for op in ops:
        payload, code = first[op.name]
        try:
            problem = f"dispatch {code}" if isinstance(code, str) else op.check(payload, code, first, rc)
        except Exception as exc:  # a check that cannot read the output fails it
            problem = f"check raised {exc!r}"
        if problem is not None and problem == op.fault:
            faults.append(f"{op.name}: {problem}")
        elif problem is not None:
            problems.append(f"{op.name}: {problem}")
    problems += [f"{name}: payload differs between rounds" for name in sorted(drifted)]

    record = {
        "ready": ready,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": rounds * len(ops),
        "failed": rounds * len(faults),
        "correct": not problems,
        "problems": problems,
        "faults": faults,
        "round_walls": walls[False],
        "round_walls_at_reference": scaled[False],
        "calibrations_s": cals,
        "cals": cals,
        "setup_probes_s": setup_probes,
        "op_walls": op_walls,
        # one round is the workload's commands end to end; over the run that
        # is the total command time divided by the rounds
        "wall_s": statistics.mean(scaled[False]),
        "peak_rss_mb": peak_rss_mb,
        "payload_sha256": digests,
        "fft_max_round_error": rc.max_round_error,
        "environment": environment(),
    }
    if args.trace:
        self_t = tracer.self_times()
        payloads = {name: pc[0] for name, pc in first.items()}
        per_round = [_layer_metrics(tracer, self_t, r, ops, payloads) for r in traced_rounds]
        layers = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
        layers["trace.overhead_s"] = statistics.mean(scaled[True]) - statistics.mean(scaled[False])
        record["traced_round_walls"] = walls[True]
        record["per_layer"] = layers
        if args.trace_file:
            Path(args.trace_file).write_text(json.dumps(tracer.to_json()))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
