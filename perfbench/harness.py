"""Measured operations, their checks, and the measuring loop.

Each operation is the library call that one `joinsample` subcommand makes.
A batch is one such command: set-up state is shared, plan-level caches
(`Plan._deg_cache`, `ComponentPlan._inc`) are emptied before it, and its
outputs are checked against the oracles in `workloads` after the clock
stops. Load is one single-threaded, closed-loop caller.
"""

from __future__ import annotations

import gc
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import joinsample as js
from joinsample.ghd import project_relation
from joinsample.queries import edge_index

import workloads as wl

EPSILON, DELTA = 0.5, 0.1


@dataclass
class State:
    db: object
    query: object
    plan: object
    cplan: object

    @property
    def hq(self):
        return self.query.hypergraph


def warm_caches(db, query):
    """Fill the database-level caches every operation below reads: tries
    over every order of every query edge (creating the self-join aliases),
    the projected relations a decomposition or projection can ask for, and
    tries over the projected relations a projection plan samples from."""
    out = set(query.projection or ())
    for e in query.hypergraph.edges:
        for order in itertools.permutations(e.attrs):
            edge_index(db, e, order)
        for r in range(1, len(e.attrs) + 1):
            for sub in itertools.combinations(e.attrs, r):
                name = project_relation(db, e, sub)
                if set(sub) == e.attr_set & out:
                    for order in itertools.permutations(sorted(sub)):
                        db.index(name, order)


def setup(rel_paths, query_path) -> State:
    """What `setup_s` times: load, parse, validate, plan, warm caches."""
    db = js.Database()
    for path in rel_paths:
        js.load_relation_file(db, path)
    query = js.load_query_file(query_path)
    js.validate(query.hypergraph, db)
    plan = js.Plan(db, query.hypergraph)
    cplan = js.ComponentPlan(db, query.hypergraph)
    warm_caches(db, query)
    return State(db, query, plan, cplan)


def fresh_plan_caches(state: State):
    state.plan._deg_cache.clear()
    state.cplan._inc.clear()
    state.cplan.plan._deg_cache.clear()


@dataclass
class Outcome:
    seconds: float
    successes: int = 1    # trials run, or draws that returned an answer


@dataclass
class Op:
    metric: str
    unit: str
    batch: object          # (bench, unit index) -> Outcome
    min_batches: int
    share: float           # weight in the time-shared part of the run; 0: fixed
    units: int = 1         # distinct units of work; batch i repeats unit i % units

    @property
    def is_rate(self):
        return self.unit == "1/s"


class Bench:
    """One workload instance: inputs, oracles, set-up state, failure ledger."""

    def __init__(self, workload: wl.Workload, seed, rel_paths, query_path):
        self.workload = workload
        self.seed = seed
        self.rel_paths = rel_paths
        self.query_path = query_path
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.notes = {}
        self.state = None
        self._widx = None
        self.oracle = build_oracle(workload)

    def record(self, ops, bad, what):
        self.attempted += ops
        self.failed += bad
        if bad and len(self.errors) < 20:
            self.errors.append(f"{what}: {bad} of {ops} wrong")

    def note(self, key, value):
        self.notes.setdefault(key, []).append(value)

    def op_setup(self, i):
        """Fresh database and plans; later operations use the last one. The
        old state is dropped and collected first, so that two never coexist
        and every set-up starts, like a fresh process, with no garbage and
        the collector's counts at zero."""
        self.state = self._widx = None
        gc.collect()
        t0 = perf_counter()
        self.state = setup(self.rel_paths, self.query_path)
        return Outcome(perf_counter() - t0)

    def raw(self, binding):
        decode = self.state.db.interner.decode
        return {a: decode(v) for a, v in binding.items()}

    def is_answer(self, binding) -> bool:
        return self.oracle.is_answer(self.raw(binding))

    # ------------------------------------------------------ operations

    def op_join(self, i):
        st = self.state
        t0 = perf_counter()
        answers = js.generic_join(st.db, st.hq)
        dt = perf_counter() - t0
        # a set of OUT true answers is the oracle's answer set; checked one
        # tuple at a time so that no second answer set is built
        attrs, decode = self.oracle.cycle.attrs, st.db.decode_tuple
        ok = (isinstance(answers, (set, frozenset)) and len(answers) == self.oracle.out
              and all(self.oracle.is_answer(dict(zip(attrs, decode(t)))) for t in answers))
        self.record(1, int(not ok), "generic_join answers")
        return Outcome(dt)

    def op_estimate(self, i):
        st = self.state
        fresh_plan_caches(st)
        t0 = perf_counter()
        rep = js.estimate_with_guarantee(st.plan, js.DRS(), EPSILON, DELTA,
                                         seed=self.seed, mode="geometric")
        dt = perf_counter() - t0
        self.record(1, int(not _finite_nonneg(rep.estimate)), "estimate_with_guarantee")
        self.note("estimate_rel_err", abs(rep.estimate - self.oracle.out) / self.oracle.out)
        self.note("estimate_trials", rep.trials)
        return Outcome(dt)

    def _draws(self, i, n, stream, draw):
        fresh_plan_caches(self.state)
        got = []
        t0 = perf_counter()
        for j in range(n):
            b = draw(js.derive_rng(self.seed, f"{stream}/{i}", j))
            if b is not None:
                got.append(b)
        dt = perf_counter() - t0
        self.record(n, sum(not self.is_answer(b) for b in got), f"{stream} samples")
        return Outcome(dt, len(got))

    def op_sample(self, i, n):
        st, strategy = self.state, js.DRS()
        return self._draws(i, n, "cli-sample",
                           lambda rng: js.uniform_sample(st.plan, strategy, rng))

    def op_exact(self, i, n):
        if self._widx is None:
            self._widx = js.preprocess_weights(self.state.db, self.state.hq)
        widx = self._widx
        return self._draws(i, n, "exact", lambda rng: js.exact_uniform_sample(widx, rng))

    def op_weights(self, i):
        st = self.state
        t0 = perf_counter()
        widx = js.preprocess_weights(st.db, st.hq)
        dt = perf_counter() - t0
        self.record(1, int(widx.total != self.oracle.bag_size), "WeightIndex.total")
        return Outcome(dt)

    def op_proj_estimate(self, i):
        st = self.state
        t0 = perf_counter()
        rep = js.estimate_projection_count(st.db, st.query, c=64, seed=self.seed,
                                           strategy="drs")
        dt = perf_counter() - t0
        self.record(1, int(not _finite_nonneg(rep.estimate)), "estimate_projection_count")
        truth = self.oracle.projection_count
        self.note("proj_rel_err", abs(rep.estimate - truth) / truth)
        return Outcome(dt)

    def op_ghd(self, i):
        st = self.state
        estimate = self.oracle.path is not None   # `ghd --estimate` on path-skew only
        t0 = perf_counter()
        width, _ = js.fhtw(st.hq)
        chosen = js.choose_ghd(st.db, st.hq)
        if estimate:
            value = js.ghd_card_est(st.db, st.hq, ghd=chosen, budget=64, seed=self.seed)
        dt = perf_counter() - t0
        self.record(1, int(width != self.oracle.fhtw), "fhtw")
        if estimate:
            self.record(1, int(value != self.oracle.out), "ghd_card_est")
        return Outcome(dt)

    def op_trials(self, i, n, name):
        st = self.state
        if name == "sste":
            def trial(rng):
                return js.sste_trial(st.cplan, rng)
        elif name == "sust":
            def trial(rng):
                return js.sust_trial(st.cplan, rng)
        else:
            strategy = js.make_strategy(name)

            def trial(rng):
                return js.generic_card_est(st.plan, strategy, rng=rng)
        fresh_plan_caches(st)
        values = []
        t0 = perf_counter()
        for j in range(n):
            values.append(trial(js.derive_rng(self.seed, f"bench-{name}/{i}", j)))
        dt = perf_counter() - t0
        self.record(n, sum(not _finite_nonneg(v) for v in values), f"{name} trials")
        return Outcome(dt, n)

    # ------------------------------------------------------ untimed checks

    def check_samplers(self, attempts=300):
        """Outputs that the timed calls do not return: SUST draws behind
        `sust_trial` and projection draws behind `estimate_projection_count`."""
        st = self.state
        names = {op.metric for op in OPS[self.workload.name]}

        def draws(sample, stream):
            got = (sample(js.derive_rng(self.seed, stream, j)) for j in range(attempts))
            return [self.raw(b) for b in got if b is not None]

        if "trials_per_s.sust" in names:
            got = draws(lambda rng: js.sust_sample(st.cplan, rng), "sust-check")
            bad = sum(not self.oracle.is_answer(r) for r in got)
            self.record(attempts, bad, "sust samples")
        if "proj_estimate_s" in names:
            pplan = js.ProjectionPlan(st.db, st.query, strategy="drs")
            got = draws(lambda rng: js.sample_projection(pplan, rng), "proj-check")
            bad = sum(not self.oracle.path.reachable(r["A"], r["D"]) for r in got)
            self.record(attempts, bad, "projection samples")


def _finite_nonneg(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0


# ---------------------------------------------------------------- oracles


@dataclass
class Oracle:
    out: int                       # distinct full answers
    fhtw: Fraction
    cycle: wl.CycleOracle = None   # tri-dense, cycle4-sparse
    path: wl.PathOracle = None     # path-skew
    bag_size: int = 0
    projection_count: int = 0

    def is_answer(self, binding) -> bool:
        if self.path is not None:
            return self.path.is_answer(*(binding[a] for a in "ABCD"))
        return self.cycle.is_answer(binding)


def build_oracle(workload: wl.Workload) -> Oracle:
    if workload.name == "path-skew":
        rows = {n: rows for n, (_, rows) in workload.relations.items()}
        path = wl.PathOracle(rows["R"], rows["S"], rows["T"])
        return Oracle(path.distinct, Fraction(1), path=path, bag_size=path.bag_size,
                      projection_count=path.projection_count)
    cycle = wl.CycleOracle(workload.relations["E"][1], workload.query)
    width = Fraction(3, 2) if workload.name == "tri-dense" else Fraction(2)
    return Oracle(cycle.out, width, cycle=cycle)


# ---------------------------------------------------------------- workloads


def _op(metric, unit, fn, min_batches, share, units=1, **kw):
    def batch(bench, i):
        return getattr(bench, fn)(i, **kw)
    return Op(metric, unit, batch, min_batches, share, units)


def _trials(name, n, share, min_batches, units=1):
    return _op(f"trials_per_s.{name}", "1/s", "op_trials", min_batches, share, units,
               n=n, name=name)


# A batch stands for one CLI command. Trial loops take about 20 ms a batch
# and repeat one unit of work (the same streams) many times: the fastest of
# many short repeats is the steadiest figure on a noisy host, and the cost
# per trial of one unit already varies by under 4 % (in db.ops) between
# seeds. A sampler's successes vary more, so samplers cycle through 16 units.
# Operations with share 0 take seconds each and run exactly `min_batches`
# times. The 4-cycle decomposition search is one call of 20-45 s that moves
# by up to 1.7x with the host's speed, too long to repeat within a run, so
# it runs in the traced run only (min_batches 0). Per-batch costs noted are
# from a 2-CPU x86 VM.
OPS = {
    "tri-dense": [
        _op("setup_s", "s", "op_setup", 9, 1.0),                       # 35 ms
        _op("join_s", "s", "op_join", 5, 0.5),                         # 0.1 s
        _op("estimate_s", "s", "op_estimate", 2, 0.0),                 # 2 s
        _op("sample_per_s", "1/s", "op_sample", 48, 1.0, units=16, n=500),
        _op("ghd_s", "s", "op_ghd", 9, 1.0),                           # 0.13 s
        _trials("wander", 200, 1.0, 30),
        _trials("alley", 1, 0.5, 24, units=4),
        _trials("gj", 15, 1.0, 30),
        _trials("drs", 300, 1.0, 30),
        _trials("sste", 300, 1.0, 30),
        _trials("sust", 50, 0.5, 30),
    ],
    "cycle4-sparse": [
        _op("ghd_s", "s", "op_ghd", 0, 0.0),                           # 20-45 s
        _op("join_s", "s", "op_join", 1, 0.0),                         # 2-4 s
        _op("setup_s", "s", "op_setup", 9, 1.0),                       # 0.3 s
        _trials("wander", 120, 1.0, 30),
        _trials("gj", 2, 1.0, 30),
        _trials("drs", 300, 1.0, 30),
        _trials("sste", 200, 1.0, 30),
    ],
    "path-skew": [
        _op("setup_s", "s", "op_setup", 9, 1.0),                       # 0.15 s
        _op("weights_s", "s", "op_weights", 9, 0.5),                   # 55 ms
        _op("exact_sample_per_s", "1/s", "op_exact", 30, 0.5, n=1000),
        _op("sample_per_s", "1/s", "op_sample", 48, 1.0, units=16, n=300),
        _op("proj_estimate_s", "s", "op_proj_estimate", 9, 0.5),       # 25 ms
        _op("ghd_s", "s", "op_ghd", 5, 1.0),                           # 0.55 s
        _trials("wander", 200, 1.0, 30),
        _trials("gj", 1, 1.0, 30),
        _trials("drs", 200, 1.0, 30),
        _trials("sste", 200, 1.0, 30),
    ],
}


def run_ops(bench: Bench, ops, seconds: float):
    """Run every op for about `seconds` of wall time in all; return
    {metric: value} and {metric: batch count}.

    Ops with a share take turns one batch at a time, the op that has had the
    least time per unit of share going next, until `seconds` have passed and
    each has run `min_batches` times, cycling through its units; so each
    op's batches are spread over the whole run. Fixed ops (share 0) run
    `min_batches` times each once every shared op has run half its minimum,
    so that the shared ops' repeats fall on both sides of them.

    Every unit of work keeps its fastest repeat: the host this runs on is
    shared and alternates between spells about 1.5x apart in speed that last
    seconds, and over 10-s windows of a fixed 30-ms loop the fastest repeat
    moved 3 % where the median moved 29 %. A time is the fastest repeat of
    the op's one unit; a rate is the successes (answers drawn, or trials) of
    all units over the sum of their fastest times. An op that ran no batch
    has no value."""
    outcomes = {op.metric: [] for op in ops}
    spent = dict.fromkeys(outcomes, 0.0)

    def run(op):
        got = op.batch(bench, len(outcomes[op.metric]) % op.units)
        outcomes[op.metric].append(got)
        spent[op.metric] += got.seconds

    fixed = [op for op in ops if not op.share]
    shared = [op for op in ops if op.share]
    start = perf_counter()
    bench.op_setup(0)   # state for the ops that run before the first timed set-up
    while True:
        if fixed and all(2 * len(outcomes[op.metric]) >= op.min_batches for op in shared):
            for op in fixed:
                for _ in range(op.min_batches):
                    run(op)
            fixed = []
        pool = shared if perf_counter() - start < seconds else \
            [op for op in shared if len(outcomes[op.metric]) < op.min_batches]
        if not pool:
            break
        run(min(pool, key=lambda op: spent[op.metric] / op.share))
    values = {}
    for op in ops:
        got = outcomes[op.metric]
        if not got:
            continue
        best = [min(got[u::op.units], key=lambda o: o.seconds) for u in range(op.units)]
        if op.is_rate:
            values[op.metric] = (sum(o.successes for o in best)
                                 / sum(o.seconds for o in best))
        else:
            values[op.metric] = best[0].seconds
    return values, {metric: len(got) for metric, got in outcomes.items() if got}
