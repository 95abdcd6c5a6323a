"""Span tracing for the traced run, installed from outside the package.

`Tracer.install` replaces each public call listed in `_targets` with a
wrapper that records a span (name, start, end, parent). Module-level
functions are replaced under every name that any `joinsample` module (or an
extra module the caller names) bound them to, so `ghd`'s imported
`fractional_edge_cover` is traced as well as the one in `queries`. Methods
are replaced on their class. `uninstall` puts every original back.

Every span is kept in memory, 32 bytes each, and written out by
`write_spans` at the end of a run. `stats` reads calls, total and self
time, per-layer self time and every per-call duration from the spans. A
span's self time is its duration minus the durations of its direct child
spans.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("relations", "queries", "wcoj", "estimators", "components",
          "conjunctive", "exactweight", "ghd")
STRATEGIES = ("wander", "alley", "gj", "drs")


class Stats:
    """Per-name figures over a prefix of the spans."""

    def __init__(self, names, spans, end):
        n = len(names)
        self.ids = {name: i for i, name in enumerate(names)}
        self.durations = [array("q") for _ in range(n)]
        self.self_durations = [array("q") for _ in range(n)]
        self.layer_self_ns = dict.fromkeys(LAYERS, 0)
        child_ns = array("q", bytes(8 * end))
        for i in range(end - 1, -1, -1):    # children come after their parent
            nid, start, stop, parent = spans[4 * i:4 * i + 4]
            dur = stop - start
            own = dur - child_ns[i]
            if parent >= 0:
                child_ns[parent] += dur
            self.durations[nid].append(dur)
            self.self_durations[nid].append(own)
            self.layer_self_ns[names[nid].partition(".")[0]] += own

    def stat(self, name):
        """(calls, total seconds, self seconds) for one span name."""
        nid = self.ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return (len(self.durations[nid]), sum(self.durations[nid]) / 1e9,
                sum(self.self_durations[nid]) / 1e9)

    def percentiles_us(self, name, own=False):
        """(p50, p99) of per-call duration (or self time) in microseconds."""
        nid = self.ids.get(name)
        if nid is None or not self.durations[nid]:
            return 0.0, 0.0
        ordered = sorted((self.self_durations if own else self.durations)[nid])
        return (_quantile(ordered, 0.50) / 1e3, _quantile(ordered, 0.99) / 1e3)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = array("q")          # flat (name id, start, end, parent index)
        self.counts = {}
        self._stack = []                 # indices of the open spans
        self._patches = []

    # ---------------------------------------------------------- recording

    def name_id(self, name):
        """Id of a span name; its layer is the part before the first dot."""
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
        return nid

    def parent_name(self):
        return self.names[self.spans[4 * self._stack[-1]]] if self._stack else None

    def _enter(self, nid):
        index = len(self.spans) // 4
        self.spans.extend((nid, 0, 0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        self.spans[4 * index + 1] = perf_counter_ns()
        return index

    def _exit(self, index):
        self.spans[4 * index + 2] = perf_counter_ns()
        self._stack.pop()

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    # ---------------------------------------------------------- patching

    def wrap(self, fn, name, before=None, after=None):
        """Traced version of fn. `name` may be a callable of the call's args.

        before(args) -> state and after(state, args, result, parent) run
        outside the span, so hook work is not charged to the layer.
        """
        static = None if callable(name) else self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = static if static is not None else tracer.name_id(name(args))
            parent = tracer.parent_name() if after is not None else None
            state = before(args) if before is not None else None
            index = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if after is not None:
                after(state, args, result, parent)
            return result

        return traced

    def install(self, extra_modules=()):
        for owner, attr, name, before, after in _targets(self):
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, before, after)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in _modules(extra_modules):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- reading

    def stats(self, end=None):
        """Figures over the first `end` spans (default: all of them)."""
        return Stats(self.names, self.spans, len(self.spans) // 4 if end is None else end)

    def span_count(self):
        return len(self.spans) // 4

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns", "parent"]}))
            fh.write("\n")
            s = self.spans
            for i in range(0, len(s), 4):
                fh.write(f"{s[i]},{s[i + 1]},{s[i + 2]},{s[i + 3]}\n")


def _quantile(ordered, q):
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _modules(extra):
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "joinsample" or n.startswith("joinsample."))]
    return mods + [m for m in extra if m not in mods]


def _targets(tracer):
    """(owner, attribute, span name, before, after) for each traced call."""
    from joinsample import (components, conjunctive, estimators, exactweight, ghd,
                            queries, relations, wcoj)

    def ops_before(args):
        return args[0].db.ops.n

    def trial_after(ops0, args, result, parent):
        name = args[1].name
        tracer.count(f"trials.{name}")
        tracer.count(f"trial_ops.{name}", args[0].db.ops.n - ops0)

    def deg_before(args):
        return len(args[0]._deg_cache)

    def deg_after(size0, args, result, parent):
        if len(args[0]._deg_cache) == size0:
            tracer.count("deg_cache_hits")

    def sample_after(ops0, args, result, parent):
        if parent == "conjunctive.attempt" or args[1].name != "drs":
            return
        tracer.count("sample_attempts")
        tracer.count("sample_ops", args[0].db.ops.n - ops0)
        if result is not None:
            tracer.count("samples")

    def driver_after(_, args, report, parent):
        tracer.count("driver_trials", report.trials)
        tracer.count("driver_stages", report.stages)

    def accept_counter(key):
        def after(_, args, result, parent):
            tracer.count(f"{key}_attempts")
            if result is not None:
                tracer.count(f"{key}_accepts")
        return after

    def answers_after(_, args, result, parent):
        tracer.count("answers", len(result))

    def enumerated_after(_, args, result, parent):
        tracer.count("enumerated", len(result))

    steps = {estimators.WanderJoin: "wander", estimators.AlleyPlus: "alley",
             estimators.GJSample: "gj", estimators.DRS: "drs"}
    return [
        (relations, "load_relation_file", "relations.load", None, None),
        (relations.TrieIndex, "__init__", "relations.trie_build", None, None),
        (relations.TrieIndex, "sample_row", "relations.sample_row", None, None),
        (relations.TrieIndex, "project", "relations.project", None, None),
        (relations.View, "count_of", "relations.count_of", None, None),
        (queries, "fractional_edge_cover", "queries.cover", None, None),
        (queries, "edge_index", "queries.edge_index", None, None),
        (wcoj, "generic_join", "wcoj.join", None, answers_after),
        (wcoj, "generic_join_exists", "wcoj.exists", None, None),
        (estimators.Plan, "__init__", "estimators.plan", None, None),
        (estimators.Plan, "edge_degree", "estimators.edge_degree", deg_before, deg_after),
        (estimators, "derive_rng", "estimators.derive_rng", None, None),
        (estimators, "generic_card_est", lambda a: f"estimators.trial.{a[1].name}",
         ops_before, trial_after),
        *[(cls, "step", f"estimators.step.{s}", None, None)
          for cls, s in steps.items()],
        (estimators, "uniform_sample", "estimators.uniform_sample",
         ops_before, sample_after),
        (estimators, "estimate_with_guarantee", "estimators.driver", None, driver_after),
        (components.ComponentPlan, "__init__", "components.decompose", None, None),
        (components.ComponentPlan, "incidence", "components.incidence", None, None),
        (components, "sste_trial", "components.trial.sste", None, None),
        (components, "sust_trial", "components.trial.sust", None, None),
        (components, "sust_sample", "components.sust_sample",
         None, accept_counter("sust")),
        (conjunctive.ProjectionPlan, "__init__", "conjunctive.plan", None, None),
        (conjunctive, "sample_projection", "conjunctive.attempt",
         None, accept_counter("projection")),
        (conjunctive, "estimate_projection_count", "conjunctive.estimate", None, None),
        (exactweight.WeightIndex, "__init__", "exactweight.build", None, None),
        (exactweight, "exact_uniform_sample", "exactweight.sample", None, None),
        (ghd, "enumerate_ghds", "ghd.enumerate", None, enumerated_after),
        (ghd, "rho_star", "ghd.rho_star", None, None),
        (ghd, "fhtw", "ghd.fhtw", None, None),
        (ghd, "choose_ghd", "ghd.choose", None, None),
        (ghd, "node_query", "ghd.node_query", None, None),
        (ghd, "ghd_card_est", "ghd.card_est", None, None),
    ]


def unit_of(name):
    if name.endswith((".p50", ".p99")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if "ops_per_" in name:
        return "ops"
    if name.endswith(("_rate", "agm_over_out")):
        return "ratio"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, setup_end, agm_over_out, overhead_pct):
    """Every per-layer metric, in BENCHMARK.json order; `setup_end` is the
    span count after the traced set-up, for the set-up-only figures."""
    c = tracer.counts
    stats, setup = tracer.stats(), tracer.stats(setup_end)
    m = {}

    def calls(name):
        return stats.stat(name)[0]

    def total_s(name):
        return stats.stat(name)[1]

    def setup_s(name):
        return setup.stat(name)[1]

    def per_call(prefix, name, own=False):
        p50, p99 = stats.percentiles_us(name, own)
        m[f"{prefix}.p50"] = p50
        m[f"{prefix}.p99"] = p99

    m["relations.load_s"] = setup_s("relations.load")
    m["relations.trie_builds"] = calls("relations.trie_build")
    m["relations.trie_build_s"] = total_s("relations.trie_build")
    for op in ("sample_row", "project", "count_of"):
        m[f"relations.{op}_calls"] = calls(f"relations.{op}")
        per_call(f"relations.{op}_us", f"relations.{op}")
    m["queries.cover_calls"] = calls("queries.cover")
    m["queries.cover_s"] = total_s("queries.cover")
    m["queries.edge_index_calls"] = calls("queries.edge_index")
    per_call("queries.edge_index_us", "queries.edge_index")
    m["wcoj.join_self_s"] = stats.stat("wcoj.join")[2]
    m["wcoj.answers"] = c.get("answers", 0)
    m["wcoj.exists_calls"] = calls("wcoj.exists")
    per_call("wcoj.exists_us", "wcoj.exists")
    m["estimators.plan_s"] = setup_s("estimators.plan")
    for s in STRATEGIES:
        trials = c.get(f"trials.{s}", 0)
        m[f"estimators.trials.{s}"] = trials
        per_call(f"estimators.trial_us.{s}", f"estimators.trial.{s}")
        m[f"estimators.steps.{s}"] = calls(f"estimators.step.{s}")
        per_call(f"estimators.step_self_us.{s}", f"estimators.step.{s}", own=True)
        m[f"estimators.ops_per_trial.{s}"] = _ratio(c.get(f"trial_ops.{s}", 0), trials)
    deg_calls = calls("estimators.edge_degree")
    m["estimators.edge_degree_calls"] = deg_calls
    per_call("estimators.edge_degree_us", "estimators.edge_degree")
    m["estimators.deg_cache_hit_rate"] = _ratio(c.get("deg_cache_hits", 0), deg_calls)
    m["estimators.derive_rng_calls"] = calls("estimators.derive_rng")
    per_call("estimators.derive_rng_us", "estimators.derive_rng")
    attempts, samples = c.get("sample_attempts", 0), c.get("samples", 0)
    m["estimators.sample_attempts"] = attempts
    m["estimators.samples"] = samples
    m["estimators.accept_rate"] = _ratio(samples, attempts)
    m["estimators.ops_per_sample"] = _ratio(c.get("sample_ops", 0), samples)
    m["estimators.agm_over_out"] = agm_over_out
    m["estimators.driver_trials"] = c.get("driver_trials", 0)
    m["estimators.driver_stages"] = c.get("driver_stages", 0)
    m["components.decompose_s"] = setup_s("components.decompose")
    m["components.sste_trials"] = calls("components.trial.sste")
    per_call("components.trial_us.sste", "components.trial.sste")
    m["components.sust_attempts"] = c.get("sust_attempts", 0)
    per_call("components.trial_us.sust", "components.trial.sust")
    m["components.sust_accept_rate"] = _ratio(c.get("sust_accepts", 0),
                                              c.get("sust_attempts", 0))
    m["components.incidence_calls"] = calls("components.incidence")
    m["conjunctive.plan_s"] = total_s("conjunctive.plan")
    m["conjunctive.attempts"] = c.get("projection_attempts", 0)
    m["conjunctive.accept_rate"] = _ratio(c.get("projection_accepts", 0),
                                          c.get("projection_attempts", 0))
    per_call("conjunctive.attempt_us", "conjunctive.attempt")
    m["exactweight.build_s"] = total_s("exactweight.build")
    m["exactweight.samples"] = calls("exactweight.sample")
    per_call("exactweight.sample_us", "exactweight.sample")
    m["ghd.enumerated"] = c.get("enumerated", 0)
    m["ghd.enumerate_s"] = total_s("ghd.enumerate")
    m["ghd.rho_star_calls"] = calls("ghd.rho_star")
    m["ghd.rho_star_s"] = total_s("ghd.rho_star")
    m["ghd.fhtw_s"] = total_s("ghd.fhtw")
    m["ghd.choose_s"] = total_s("ghd.choose")
    m["ghd.node_query_calls"] = calls("ghd.node_query")
    m["ghd.node_query_s"] = total_s("ghd.node_query")
    m["ghd.card_est_s"] = total_s("ghd.card_est")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = stats.layer_self_ns[layer] / 1e9
    m["trace.overhead_pct"] = overhead_pct
    return m
