"""Benchmark of the diffsets command line: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout; `diffsets` is imported from `./src`.  Each
workload runs in a fresh process with DIFFSET_THREADS removed from its
environment: one client, closed loop, one CLI command at a time through
`diffsets.cli.dispatch`, whole rounds of the workload's commands until
`--seconds` have passed.  The last line printed is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.  The line
before it holds the run's details (payload digests, versions, rounds).
Files go to `.perfbench/` in the checkout; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import at_reference

HERE = Path(__file__).resolve().parent
# the workloads and the metrics' names and units are the ones BENCHMARK.json declares
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _child(root: Path, workdir: Path, workload: str, seed: int, extra: list) -> tuple[dict, float]:
    """Run the worker in a fresh process; returns its record and its start time."""
    env = dict(os.environ)
    env.pop("DIFFSET_THREADS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), "--workdir", str(workdir),
           "--workload", workload, "--seed", str(seed), *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run of one workload: the details record plus the result line."""
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    trace_file = base / f"trace-{workload}-seed{seed}.json"
    extra = ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        extra += ["--trace-file", str(trace_file)]
    try:
        rec, started = _child(root, workdir, workload, seed, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # the run's own set-up and one probe process after each untraced round, so
    # the samples span the same stretch of time as the rounds do
    setups = [at_reference(rec["ready"] - started, rec["calibrations_s"][0]), *rec["setup_probes_s"]]
    if trace:
        metrics = {m["name"]: {"value": rec["per_layer"][m["name"]], "unit": m["unit"]} for m in BENCH["per_layer"]}
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": rec["wall_s"], "peak_rss_mb": rec["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in BENCH["end_to_end"]}
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_samples_s": setups,
        **{k: v for k, v in rec.items() if k not in ("ready", "setup_probes_s", "per_layer")},
    }
    (base / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(details, indent=1) + "\n")
    result = {"correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"], "metrics": metrics}
    return {"details": details, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30, help="how long each run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "diffsets" / "__init__.py").is_file():
        print(f"no src/diffsets under {root}; run from the root of a diffsets checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_workload(root, w, args.seed, args.seconds, args.trace) for w in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for run in runs:
        d = run["details"]
        for problem in d["problems"]:
            print(f"WRONG {d['workload']}: {problem}", file=sys.stderr)
    if len(runs) == 1:
        print(json.dumps(runs[0]["details"]))
        print(json.dumps(runs[0]["result"]))
        return 0
    for run in runs:
        r = run["result"]
        cells = "  ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in r["metrics"].items())
        print(f"{run['details']['workload']}: attempted {r['attempted']} failed {r['failed']} "
              f"correct {r['correct']}  {cells}")
    print(json.dumps({
        "correct": all(r["result"]["correct"] for r in runs),
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": {f"{r['details']['workload']}/{k}": m for r in runs for k, m in r["result"]["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
