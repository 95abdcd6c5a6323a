"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads tri-dense,path-skew --seeds 1-10 --out a.json
    python3 perfbench/spread.py --compare a.json b.json

Runs one `run.py` process at a time (the benchmark is single-threaded and
timing-sensitive) and prints, per workload and metric, the median and the
quartile spread (Q3 - Q1) / median over the seeds, with Python's
`statistics.quantiles(values, n=4)`. Every metric in a run's report line is
included, not only those in BENCHMARK.json. `--out` also writes all values.
`--compare` reads two such files, made by the same code on the same seeds,
and prints for each bounded metric both medians, by how much the second is
worse than the first, both spreads, and whether all of these stay within
the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = RUN.parent.parent / "BENCHMARK.json"


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=RUN.parent.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    values = {name: m["value"] for name, m in report["metrics"].items()}
    return result, values


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(first, second):
    """Print the two-set check for every bounded metric; return 0 if all hold."""
    sets = [json.loads(Path(f).read_text()) for f in (first, second)]
    failed = 0
    for metric in json.loads(SPEC.read_text())["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in sets[0]:
            vals = [[r["values"][name] for r in t[workload]] for t in sets]
            m1, m2 = (statistics.median(v) for v in vals)
            worse = (m2 / m1 - 1) if metric["better"] == "lower" else (m1 / m2 - 1)
            s1, s2 = (spread(v) for v in vals)
            ok = worse <= bound and (name == "setup_s" or max(s1, s2) <= bound)
            failed += not ok
            print(f"{name:20s} {workload:14s} median {m1:11.5g} {m2:11.5g}  "
                  f"worse {100 * worse:6.1f} %  spread {100 * s1:5.1f} {100 * s2:5.1f} %  "
                  f"bound {100 * bound:4.0f} %  {'ok' if ok else 'OUT'}")
    return int(failed > 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="tri-dense,cycle4-sparse,path-skew")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="36")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    table = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            result, values = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "values": values})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        table[workload] = runs
        for name in runs[0]["values"]:
            vals = [r["values"][name] for r in runs]
            print(f"  {name:24s} median {statistics.median(vals):12.6g}  "
                  f"spread {100 * spread(vals):6.2f} %", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
