"""The joinsample benchmark.

    python3 perfbench/run.py --workload tri-dense --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --sweep --seed 1

Run from the root of a checkout: the package is imported from its `src/`,
inputs are written under `.bench_out/` and removed afterwards. The last line
of standard output is the result object; the line before it is the full
report. `--trace 1` times nothing end to end: it runs every operation's
batches untraced and then traced and reports the per-layer metrics, and,
in the report, each operation's untraced time (the only measurement of
`ghd_s` on cycle4-sparse). `--sweep` prints
DRS ops per sample next to AGM/OUT over four triangle densities (counts
only, exact under a seed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tri-dense", "cycle4-sparse", "path-skew")

# the end-to-end metrics every workload reports, in BENCHMARK.json order
E2E = (("setup_s", "s"), ("trials_per_s.wander", "1/s"),
       ("trials_per_s.gj", "1/s"), ("trials_per_s.drs", "1/s"),
       ("trials_per_s.sste", "1/s"), ("peak_rss_mb", "MB"))
SWEEP_ROWS = (1000, 2000, 4000, 8000)
SWEEP_SAMPLES = 200


def _import_package():
    src = ROOT / "src"
    if not (src / "joinsample" / "__init__.py").is_file():
        sys.exit(f"perfbench: no joinsample package under {src}; "
                 "run from the root of a joinsample checkout")
    sys.path.insert(0, str(src))
    import joinsample
    if Path(joinsample.__file__).resolve().parent != src / "joinsample":
        sys.exit(f"perfbench: imported joinsample from {joinsample.__file__}, not {src}")


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _inputs_dir(tag):
    return ROOT / ".bench_out" / f"inputs-{tag}-{os.getpid()}"


def _workload_facts(bench, workload):
    facts = {"seed": bench.seed, "sizes": workload.sizes, "agm": bench.state.plan.agm,
             "out": bench.oracle.out, "relations": {}}
    for name, (schema, rows) in workload.relations.items():
        facts["relations"][name] = {
            "rows": len(rows),
            "distinct": {a: len({r[i] for r in rows}) for i, a in enumerate(schema)}}
    if bench.oracle.path is not None:
        facts["bag_size"] = bench.oracle.bag_size
        facts["projection_out"] = bench.oracle.projection_count
    facts["agm_over_out"] = facts["agm"] / facts["out"]
    return facts


def run_untraced(bench, seconds):
    import harness
    ops = harness.OPS[bench.workload.name]
    values, batches = harness.run_ops(bench, ops, seconds)
    units = {op.metric: op.unit for op in ops}
    bench.check_samplers()
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units["peak_rss_mb"] = "MB"
    batches["peak_rss_mb"] = 1
    for name in values:
        print(f"{name:24s} {_fmt(values[name]):>12s} {units[name]:5s} "
              f"({batches[name]} batches)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
    extra = {name: {"value": values[name], "unit": units[name], "batches": batches[name]}
             for name in values}
    return metrics, extra


def run_traced(bench):
    """Set-up and every fixed op once, every other op one pass over its units
    and at least ten batches. Each op runs untraced and then traced, back to
    back, so that the overhead compares the two under the same host speed."""
    import harness
    import tracing
    ops = harness.OPS[bench.workload.name]
    setup_op = next(op for op in ops if op.metric == "setup_s")
    ops = [setup_op] + [op for op in ops if op is not setup_op]

    def run(op):
        n = max(op.units, 10) if op.share and op is not setup_op else 1
        return sum(op.batch(bench, i % op.units).seconds for i in range(n))

    tracer = tracing.Tracer()
    traced = 0.0
    untraced_op_s = {}
    for op in ops:
        untraced_op_s[op.metric] = run(op)
        tracer.install(extra_modules=[harness])
        try:
            traced += run(op)
        finally:
            tracer.uninstall()
        if op is setup_op:
            setup_end = tracer.span_count()
    bench.check_samplers()
    plain = sum(untraced_op_s.values())
    overhead = 100.0 * (traced / plain - 1.0)
    agm_over_out = bench.state.plan.agm / bench.oracle.out
    values = tracing.per_layer_metrics(tracer, setup_end, agm_over_out, overhead)
    spans = ROOT / ".bench_out" / f"spans-{bench.workload.name}-seed{bench.seed}.csv"
    tracer.write_spans(spans)
    for name, value in values.items():
        print(f"{name:40s} {_fmt(value):>12s} {tracing.unit_of(name)}")
    print(f"untraced {plain:.3f} s, traced {traced:.3f} s, "
          f"{tracer.span_count()} spans in {spans.relative_to(ROOT)}")
    metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
               for name, value in values.items()}
    return metrics, {"untraced_s": plain, "traced_s": traced, "untraced_op_s": untraced_op_s}


def run_workload(name, seed, seconds, trace):
    import harness
    import workloads
    workload = workloads.GENERATORS[name](seed)
    directory = _inputs_dir(f"{name}-{seed}")
    try:
        rel_paths, query_path = workloads.write_inputs(workload, directory)
        bench = harness.Bench(workload, seed, rel_paths, query_path)
        if trace:
            metrics, extra = run_traced(bench)
        else:
            metrics, extra = run_untraced(bench, seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    facts = _workload_facts(bench, workload)
    notes = {k: statistics.median(v) for k, v in bench.notes.items()}
    print(json.dumps({"report": {"workload": name, "facts": facts, "metrics": extra,
                                 "notes": notes, "errors": bench.errors}}))
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    return {"correct": bench.failed == 0 and not bad, "attempted": bench.attempted,
            "failed": bench.failed + len(bad), "metrics": metrics}


def run_sweep(seed):
    """DRS ops per successful sample against AGM/OUT, untimed."""
    import harness
    import workloads
    rows_out = []
    for rows in SWEEP_ROWS:
        workload = workloads.tri_dense(seed, rows=rows)
        directory = _inputs_dir(f"sweep-{rows}-{seed}")
        try:
            rel_paths, query_path = workloads.write_inputs(workload, directory)
            bench = harness.Bench(workload, seed, rel_paths, query_path)
            bench.op_setup(0)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        plan, db = bench.state.plan, bench.state.db
        strategy = harness.js.DRS()
        ops0, attempts, successes = db.ops.n, 0, 0
        while successes < SWEEP_SAMPLES:
            got = harness.js.uniform_sample(
                plan, strategy, harness.js.derive_rng(seed, "sweep", attempts))
            attempts += 1
            if got is not None:
                successes += 1
                bench.record(1, int(not bench.is_answer(got)), "sweep samples")
        row = {"rows": len(workload.relations["E"][1]), "out": bench.oracle.out,
               "agm": plan.agm, "agm_over_out": plan.agm / bench.oracle.out,
               "attempts": attempts, "samples": successes,
               "ops_per_sample": (db.ops.n - ops0) / successes}
        ratio = row["ops_per_sample"] / row["agm_over_out"]
        row["ops_per_sample_over_agm_over_out"] = ratio
        rows_out.append(row)
        print(f"rows {row['rows']:5d}  OUT {row['out']:7d}  "
              f"AGM/OUT {row['agm_over_out']:8.3f}  ops/sample {row['ops_per_sample']:9.2f}  "
              f"ratio {ratio:.3f}  failed {bench.failed}")
    print(json.dumps({"sweep": rows_out, "seed": seed}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true")
    args = parser.parse_args(argv)
    if not args.sweep and args.workload is None:
        parser.error("--workload is required unless --sweep is given")
    _import_package()
    if args.sweep:
        run_sweep(args.seed)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
