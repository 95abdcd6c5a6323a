"""Batch command line front end.

Subcommands: join, estimate, sample, ghd, bench. A database is a directory
of `*.rel` files (header `name:A,B`, then comma-separated rows); the query is
a JSON file. The directory can be given positionally or through the
JOINSAMPLE_DB environment variable. Every command is deterministic under
--seed, and reports carry the seed, the configuration, and a sha256 hash of
the input files. Exit codes: 0 ok, 2 usage, 3 load error, 4 validation
error, 5 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from .components import ComponentPlan, sste_trial, sust_sample, variance_bound_sste
from .conjunctive import ProjectionPlan, estimate_projection_count, sample_projection
from .estimators import (
    Plan, estimate_with_guarantee, generic_card_est, make_strategy, seeded_trials,
    uniform_sample, variance_bound,
)
from .exactweight import WeightIndex, WeightOverflowError, exact_uniform_sample
from .ghd import GHD, check_ghd, choose_ghd, ghd_card_est, rho_star
from .queries import QueryError, load_query_file, validate
from .relations import Database, EmptySemijoinError, SchemaError, load_relation_file
from .wcoj import brute_force_join, generic_join

EXIT_LOAD = 3
EXIT_VALIDATE = 4
EXIT_RUNTIME = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_inputs(args):
    db_dir = args.db if args.db is not None else os.environ.get("JOINSAMPLE_DB")
    if not db_dir:
        raise CliError(EXIT_LOAD, "no database directory (argument or JOINSAMPLE_DB)")
    if not os.path.isdir(db_dir):
        raise CliError(EXIT_LOAD, f"database directory not found: {db_dir}")
    db = Database()
    hasher = hashlib.sha256()
    rel_files = sorted(f for f in os.listdir(db_dir) if f.endswith(".rel"))
    if not rel_files:
        raise CliError(EXIT_LOAD, f"no .rel files in {db_dir}")
    for fname in rel_files:
        path = os.path.join(db_dir, fname)
        try:
            load_relation_file(db, path)
        except (OSError, SchemaError) as exc:
            raise CliError(EXIT_LOAD, f"{path}: {exc}")
        with open(path, "rb") as fh:
            hasher.update(fname.encode())
            hasher.update(b"\x00")
            hasher.update(fh.read())
            hasher.update(b"\x00")
    try:
        query = load_query_file(args.query)
        with open(args.query, "rb") as fh:
            hasher.update(fh.read())
    except OSError as exc:
        raise CliError(EXIT_LOAD, f"{args.query}: {exc}")
    except QueryError as exc:
        raise CliError(EXIT_LOAD, f"{args.query}: {exc}")
    try:
        validate(query.hypergraph, db)
    except QueryError as exc:
        raise CliError(EXIT_VALIDATE, str(exc))
    return db, query, hasher.hexdigest()


def _render(report: dict) -> str:
    lines = []
    for key, value in report.items():
        if key == "rows":
            header, rows = value
            lines.append(f"{header}")
            lines.extend(f"  {r}" for r in rows)
        elif key == "table":
            headers, rows = value
            cells = [headers] + [[str(c) for c in r] for r in rows]
            widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
            for r in cells:
                lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args):
    text = json.dumps(report, indent=2, default=str) + "\n" \
        if getattr(args, "json", False) else _render(report)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _base_report(args, command, digest) -> dict:
    return {
        "command": command,
        "query": args.query,
        "input_sha256": digest,
        "seed": getattr(args, "seed", None),
    }


def _decode_binding(db, attrs, binding) -> str:
    return ",".join(str(v) for v in db.decode_tuple(binding[a] for a in attrs))


def cmd_join(args) -> int:
    db, query, digest = _load_inputs(args)
    hq = query.hypergraph
    answers = generic_join(db, hq)
    attrs = tuple(sorted(hq.attributes))
    if args.oracle:
        oracle_attrs, bag = brute_force_join(db, hq)
        pos = [oracle_attrs.index(a) for a in attrs]
        expect = {tuple(r[p] for p in pos) for r in bag}
        if expect != answers:
            raise CliError(EXIT_RUNTIME, "generic join disagrees with the oracle")
    if query.projection:
        pos = [attrs.index(a) for a in sorted(query.projection)]
        answers = {tuple(r[p] for p in pos) for r in answers}
        attrs = tuple(sorted(query.projection))
    listing = sorted(",".join(str(v) for v in db.decode_tuple(r)) for r in answers)
    report = _base_report(args, "join", digest)
    del report["seed"]
    report["oracle_checked"] = bool(args.oracle)
    report["out"] = len(answers)
    report["ops"] = db.ops.n
    report["rows"] = (f"answers ({','.join(attrs)}):", listing)
    _emit(report, args)
    return 0


def cmd_estimate(args) -> int:
    db, query, digest = _load_inputs(args)
    report = _base_report(args, "estimate", digest)
    report["strategy"] = args.strategy
    if args.boost != "none" and (args.strategy != "drs" or query.projection):
        raise CliError(EXIT_VALIDATE, "--boost needs --strategy drs on a join query")
    if query.projection:
        if args.strategy not in ("drs", "gj"):
            raise CliError(EXIT_VALIDATE,
                           "projection estimates need a uniform strategy (drs or gj)")
        rep = estimate_projection_count(db, query, c=args.c, seed=args.seed,
                                        strategy=args.strategy)
        report["projection"] = ",".join(sorted(query.projection))
    else:
        plan = Plan(db, query.hypergraph, skip_nonjoin=args.skip_nonjoin)
        strategy = make_strategy(args.strategy, b=args.b, boost=args.boost)
        rep = estimate_with_guarantee(plan, strategy, args.epsilon, args.delta,
                                      seed=args.seed, mode=args.mode, c=args.c,
                                      median=args.median)
    report.update(
        estimate=rep.estimate, trials=rep.trials, mode=rep.mode, ops=db.ops.n)
    for key in ("epsilon", "delta", "successes", "c", "stages", "assumed_out"):
        value = getattr(rep, key)
        if value is not None and value != 0:
            report[key] = value
    if args.strategy == "alley":
        report["b"] = args.b
    if args.boost != "none":
        report["boost"] = args.boost
    _emit(report, args)
    return 0


def _sample_attempts(db, query, args):
    hq = query.hypergraph
    name = args.strategy
    if query.projection and name in ("drs", "gj"):
        pplan = ProjectionPlan(db, query, strategy=name)
        attrs = pplan.out
        draw = lambda rng: sample_projection(pplan, rng)
    elif query.projection:
        raise CliError(EXIT_VALIDATE,
                       f"{name} cannot sample projection queries")
    elif name in ("drs", "gj"):
        plan = Plan(db, hq)
        strategy = make_strategy(name)
        attrs = tuple(sorted(hq.attributes))
        draw = lambda rng: uniform_sample(plan, strategy, rng)
    elif name == "exact":
        try:
            widx = WeightIndex(db, hq)
        except QueryError as exc:
            raise CliError(EXIT_VALIDATE, str(exc))
        except WeightOverflowError as exc:
            raise CliError(EXIT_RUNTIME, str(exc))
        attrs = tuple(sorted(hq.attributes))

        def draw(rng):
            try:
                return exact_uniform_sample(widx, rng)
            except EmptySemijoinError:
                return None
    elif name == "sust":
        try:
            cplan = ComponentPlan(db, hq)
        except QueryError as exc:
            raise CliError(EXIT_VALIDATE, str(exc))
        attrs = tuple(sorted(hq.attributes))

        def draw(rng):
            try:
                return sust_sample(cplan, rng)
            except QueryError as exc:
                raise CliError(EXIT_VALIDATE, str(exc))
    else:
        raise CliError(EXIT_VALIDATE, f"unknown sampling strategy {name}")
    return attrs, draw


def cmd_sample(args) -> int:
    db, query, digest = _load_inputs(args)
    attrs, draw = _sample_attempts(db, query, args)
    lines = []
    successes = 0
    attempts = seeded_trials(draw, args.seed, "cli-sample", 0, args.n)
    for i, binding in enumerate(attempts):
        if binding is None:
            lines.append(f"{i}\tfail\t-")
        else:
            successes += 1
            lines.append(f"{i}\tok\t{_decode_binding(db, attrs, binding)}")
    report = _base_report(args, "sample", digest)
    report["strategy"] = args.strategy
    report["attempts"] = args.n
    report["successes"] = successes
    report["ops"] = db.ops.n
    report["rows"] = (f"attempts (i, status, {','.join(attrs)}):", lines)
    _emit(report, args)
    return 0


def _user_ghd(query) -> GHD:
    doc = query.user_ghd
    try:
        bags = [frozenset(b) for b in doc["bags"]]
        edges = [tuple(e) for e in doc.get("edges", [])]
        return GHD(bags, edges, root=doc.get("root", 0))
    except (KeyError, TypeError, IndexError) as exc:
        raise CliError(EXIT_VALIDATE, f"malformed ghd entry: {exc}")


def cmd_ghd(args) -> int:
    db, query, digest = _load_inputs(args)
    hq = query.hypergraph
    report = _base_report(args, "ghd", digest)
    if query.user_ghd is not None:
        chosen = _user_ghd(query)
        try:
            check_ghd(hq, chosen)
        except QueryError as exc:
            raise CliError(EXIT_VALIDATE, f"supplied ghd rejected: {exc}")
        report["source"] = "query file"
    else:
        chosen = choose_ghd(db, hq)
        report["source"] = "search"
    rho = [rho_star(b, hq) for b in chosen.bags]
    rows = []
    for t in chosen.topdown:
        bag = ",".join(sorted(chosen.bags[t]))
        parent = chosen.parent[t]
        rows.append([t, bag, str(rho[t]), "-" if parent is None else parent])
    report["width"] = str(max(rho))
    if report["source"] == "search":
        # choose_ghd minimises width first, so the chosen width is fhtw
        report["fhtw"] = report["width"]
    report["table"] = (["node", "bag", "rho*", "parent"], rows)
    if args.estimate:
        report["estimate"] = ghd_card_est(db, hq, ghd=chosen,
                                          budget=args.budget, seed=args.seed)
        report["budget"] = args.budget
    _emit(report, args)
    return 0


def _bench_one(db, hq, name, trials, seed, out):
    if name == "sste":
        cplan = ComponentPlan(db, hq)
        trial = lambda rng: sste_trial(cplan, rng)
        bound = variance_bound_sste(cplan, out)
    else:
        plan = Plan(db, hq)
        strategy = make_strategy(name)
        trial = lambda rng: generic_card_est(plan, strategy, rng=rng)
        bound = variance_bound(plan, strategy, out)
    before = db.ops.n
    values = list(seeded_trials(trial, seed, f"bench-{name}", 0, trials))
    spent = db.ops.n - before
    mean = sum(values) / trials
    var = (sum((v - mean) ** 2 for v in values) / (trials - 1)) if trials > 1 else 0.0
    return [name, f"{mean:.4f}", f"{var:.4f}", f"{spent / trials:.1f}", f"{bound:.4f}"]


def cmd_bench(args) -> int:
    db, query, digest = _load_inputs(args)
    hq = query.hypergraph
    names = [s.strip() for s in args.strategies.split(",") if s.strip()]
    known = {"wander", "alley", "gj", "drs", "sste"}
    bad = [n for n in names if n not in known]
    if bad or not names:
        raise CliError(EXIT_VALIDATE, f"unknown bench strategies: {bad or 'none'}")
    out = len(generic_join(db, hq))
    rows = []
    for name in names:
        try:
            rows.append(_bench_one(db, hq, name, args.trials, args.seed, out))
        except QueryError as exc:
            raise CliError(EXIT_VALIDATE, f"{name}: {exc}")
    report = _base_report(args, "bench", digest)
    report["trials"] = args.trials
    report["out"] = out
    report["table"] = (["strategy", "mean", "variance", "ops/trial", "var_bound"],
                       rows)
    _emit(report, args)
    return 0


def _ranged(convert, ok, want):
    """argparse type: convert(text), which must satisfy ok; anything else,
    nan included, is a usage error (exit 2)."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse: "invalid int value: 'x'"
    return parse


def _int_at_least(lo):
    return _ranged(int, lambda v: v >= lo, f"at least {lo}")


def _unit_fraction(closed):
    return _ranged(float, lambda v: 0 < v < 1 or (closed and v == 1),
                   "in (0, 1]" if closed else "in (0, 1)")


def _add_common(sub):
    sub.add_argument("db", nargs="?", default=None,
                     help="directory of .rel files (default: $JOINSAMPLE_DB)")
    sub.add_argument("query", help="query JSON file")
    sub.add_argument("-o", "--out", default=None, help="also write the report here")
    sub.add_argument("--json", action="store_true", help="machine-readable report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="joinsample",
        description="joins, join-size estimates, and uniform join samples")
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("join", help="exact join answers")
    _add_common(p)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the nested-loop oracle")
    p.set_defaults(fn=cmd_join)

    p = subs.add_parser("estimate", help="join size estimate with guarantees")
    _add_common(p)
    p.add_argument("--strategy", default="drs",
                   choices=["wander", "alley", "gj", "drs"])
    p.add_argument("--epsilon", type=_unit_fraction(False), default=0.5)
    p.add_argument("--delta", type=_unit_fraction(False), default=0.1)
    p.add_argument("--mode", default="geometric",
                   choices=["geometric", "success-count"])
    p.add_argument("--seed", default="0")
    p.add_argument("--b", type=_unit_fraction(True), default=0.5,
                   help="Alley sampling ratio")
    p.add_argument("--c", type=_int_at_least(1), default=64,
                   help="success-count target")
    p.add_argument("--boost", default="none", choices=["none", "tie", "any-edge"])
    p.add_argument("--skip-nonjoin", action="store_true",
                   help="never sample attributes private to one relation")
    p.add_argument("--median", action="store_true",
                   help="median of five group means per stage")
    p.set_defaults(fn=cmd_estimate)

    p = subs.add_parser("sample", help="uniform samples from the answers")
    _add_common(p)
    p.add_argument("--strategy", default="drs",
                   choices=["drs", "gj", "exact", "sust"])
    p.add_argument("-n", type=_int_at_least(0), default=10,
                   help="number of attempts")
    p.add_argument("--seed", default="0")
    p.set_defaults(fn=cmd_sample)

    p = subs.add_parser("ghd", help="decomposition analysis")
    _add_common(p)
    p.add_argument("--estimate", action="store_true",
                   help="also run the decomposition-based count estimate")
    p.add_argument("--budget", type=_int_at_least(1), default=64)
    p.add_argument("--seed", default="0")
    p.set_defaults(fn=cmd_ghd)

    p = subs.add_parser("bench", help="compare estimators on one query")
    _add_common(p)
    p.add_argument("--strategies", default="wander,alley,gj,drs")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--seed", default="0")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATE
    except (EmptySemijoinError, WeightOverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
