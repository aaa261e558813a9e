"""Run the benchmark repeatedly and judge whether its figures are steady.

    python3 perfbench/stability.py --runs 10

For every workload in BENCHMARK.json, `--runs` runs with seeds 1, 2, ...
make one set; a second set repeats the same seeds.  For each end-to-end
metric the spread is the distance between the first and third quartile of a
set's values (`statistics.quantiles(values, n=4)`) as a share of its median.
The verdict, against the bounds in BENCHMARK.json:

- every spread, setup_s's too, is within the metric's bound (steady means
  below a third of it);
- the second set's median is not worse than the first's by more than the
  bound, setup_s included;
- the share of failed operations is the same in every run of a workload;
- each seed's payload digests are identical in both sets.

Run from the root of a checkout.  Writes .perfbench/stability.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"seed": seed, "result": result, "digests": details["payload_sha256"]}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.runs + 1)
    sets = []
    for _ in range(2):  # the second set repeats the first's seeds
        runs = {w: [] for w in workloads}
        for w in workloads:
            for seed in seeds:
                runs[w].append(one_run(w, seed, bench["run_seconds"]))
                r = runs[w][-1]["result"]
                print(f"{w} seed {seed}: " + " ".join(
                    f"{k}={m['value']:.4g}" for k, m in r["metrics"].items()), flush=True)
        sets.append(runs)

    problems, report = [], {}
    for w in workloads:
        for s, runs in enumerate(sets):
            shares = {Fraction(r["result"]["failed"], r["result"]["attempted"]) for r in runs[w]}
            if len(shares) != 1 or not all(r["result"]["correct"] for r in runs[w]):
                problems.append(f"{w} set {s + 1}: failed shares {sorted(shares)} or a wrong output")
        for name, spec in bounds.items():
            per_set = [[r["result"]["metrics"][name]["value"] for r in runs[w]] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            report[f"{w}/{name}"] = {"medians": medians, "spreads": spreads, "bound": spec["bound"]}
            tag = "ok" if max(spreads) < spec["bound"] / 3 else "WIDE"
            if max(spreads) > spec["bound"]:
                problems.append(f"{w}/{name}: spread {max(spreads):.3f} over bound {spec['bound']}")
            worse = (medians[1] - medians[0]) / medians[0]
            if spec["better"] == "higher":
                worse = -worse
            if worse > spec["bound"]:
                problems.append(f"{w}/{name}: second median worse by {worse:.3f}")
            print(f"{w:18s} {name:12s} medians {' '.join(f'{m:.4g}' for m in medians)}  "
                  f"spreads {' '.join(f'{x:.3f}' for x in spreads)}  bound {spec['bound']}  {tag}  "
                  f"shift {worse:+.3f}")
        for a, b in zip(sets[0][w], sets[1][w]):
            if a["digests"] != b["digests"]:
                problems.append(f"{w} seed {a['seed']}: payload digests differ between sets")
    Path(".perfbench").mkdir(exist_ok=True)
    Path(".perfbench/stability.json").write_text(json.dumps({"report": report, "problems": problems}, indent=1))
    for p in problems:
        print("PROBLEM", p)
    print("steady" if not problems else "not steady")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
