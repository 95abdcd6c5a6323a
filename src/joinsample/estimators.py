"""Sampling-based join-size estimation and uniform sampling.

One recursive framework with pluggable per-step strategies. A step picks an
attribute set I, draws candidate bindings s_I with known probabilities
P(s_I), and reports a membership flag for each draw; the recursion weights
surviving draws by 1/P and averages over the k draws of the step. Every
strategy below is an unbiased estimator of the number of distinct answers
extending the current partial binding.

Strategies:
  WanderJoin  - walks the query's edges in order, sampling one row per edge.
  AlleyPlus   - materializes the candidate intersection and keeps a b-fraction
                without replacement (b=1 degenerates to exact enumeration).
  GJSample    - explicit probability table proportional to the residual AGM
                bound of each candidate, with a failure symbol for the
                leftover mass. The table is built in one pass over the
                smallest projection's trie node, then drawn from; ops are
                charged per candidate per edge.
  DRS         - picks an edge uniformly, samples a row from it, and keeps the
                value only if that edge maximizes the value's relative degree,
                thinned so the kept probability is the AGM-bound ratio. No
                per-candidate table is ever materialized.

The driver turns trials into an (epsilon, delta) guarantee by Chebyshev with
a geometric search on the assumed output size, or counts successes of the
uniform sampler.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

from .queries import (
    Cover,
    Hypergraph,
    QueryError,
    agm,
    bound_first_index,
    edge_index,
    fractional_edge_cover,
    relation_sizes,
    validate,
)


@dataclass
class StepOutcome:
    attrs: tuple
    samples: list  # (fragment dict, probability, membership flag)
    k: int = 1


class Plan:
    """Per-query precomputation shared by every trial.

    Holds the fixed cover (computed once on the original sizes and reused for
    all residual AGM ratios), the attribute elimination order, per-attribute
    edge lists, and canonical per-edge index orders. With skip_nonjoin=True,
    attributes that appear in exactly one edge are never sampled; the leaf
    returns the product of their per-edge distinct-extension counts instead
    of 1.
    """

    def __init__(self, db, query: Hypergraph, elim_order=None, skip_nonjoin=False,
                 cover: Cover | None = None):
        validate(query, db)
        self.db = db
        self.query = query
        self.sizes = relation_sizes(db, query)
        self.empty = any(n == 0 for n in self.sizes.values())
        if self.empty:
            self.cover = None
            self.agm = 0.0
        else:
            self.cover = cover or fractional_edge_cover(query, self.sizes)
            self.agm = agm(self.cover, self.sizes).value
        self.skipped = frozenset(
            a for a in query.attributes if len(query.edges_containing(a)) == 1
        ) if skip_nonjoin else frozenset()
        order = tuple(elim_order) if elim_order else min_degree_order(query)
        self.elim = tuple(a for a in order if a not in self.skipped)
        if set(self.elim) != set(query.attributes) - self.skipped:
            raise QueryError("elimination order must cover every sampled attribute")
        pos = {a: i for i, a in enumerate(self.elim)}
        # DRS, GJ and alley sample rows along these orders: any other order
        # changes which row a seeded rng picks.
        self.edge_order = {}
        for e in query.edges:
            self.edge_order[e.eid] = tuple(
                sorted(e.attrs, key=lambda a: (a in self.skipped, pos.get(a, 0), a))
            )
        self.e_I = {a: query.edges_containing(a) for a in query.attributes}
        self._deg_cache = {}

    def next_attr(self, remaining):
        for a in self.elim:
            if a in remaining:
                return a
        raise LookupError(f"no sampled attribute left in {sorted(remaining)}")

    def index_for(self, edge):
        return edge_index(self.db, edge, self.edge_order[edge.eid])

    def edge_degree(self, edge, s) -> int:
        """|R_F ⋉ s| restricted to the attrs of F bound in s, memoized.

        The op meter is charged whether or not the cache hits: the cache is a
        shortcut of this implementation, not of the cost model.
        """
        pairs = tuple(sorted((a, s[a]) for a in edge.attrs if a in s))
        key = (edge.eid, pairs)
        self.db.ops.add(1)
        hit = self._deg_cache.get(key)
        if hit is not None:
            return hit
        idx = bound_first_index(self.db, edge, s)
        _, deg = idx._descend({a: v for a, v in pairs})
        self._deg_cache[key] = deg
        return deg

    def leaf_value(self, s) -> float:
        if not self.skipped:
            return 1.0
        prod = 1.0
        for e in self.query.edges:
            rest = tuple(a for a in self.edge_order[e.eid] if a in self.skipped)
            if not rest:
                continue
            bound = {a: s[a] for a in e.attrs if a in s}
            view = self.index_for(e).project(rest, bound, dedup=True)
            n = view.size()
            if n == 0:
                return 0.0
            prod *= n
        return prod

    def membership(self, edges, s) -> bool:
        return all(self.edge_degree(e, s) > 0 for e in edges)

    def agm_ratio(self, remaining, s, attr, value, deg1, deg2) -> float:
        """AGM(ℋ_{s ⊎ {attr:value}}) / AGM(ℋ_s) under the fixed cover.

        Only edges containing attr contribute; the rest cancel. deg1/deg2 are
        precomputed degree maps (eid -> count) before/after the binding.
        Edges whose remaining-attribute set is exactly {attr} leave the
        denominator only, contributing 1/deg1^x.
        """
        after = set(remaining) | self.skipped
        after.discard(attr)
        log = 0.0
        for e in self.e_I[attr]:
            x = self.cover.weights[e.eid]
            if not x:
                continue
            d2 = deg2[e.eid]
            if d2 == 0:
                return 0.0
            if e.attr_set & after:
                log += float(x) * (math.log(d2) - math.log(deg1[e.eid]))
            else:
                log -= float(x) * math.log(deg1[e.eid])
        return math.exp(log)


def min_degree_order(query: Hypergraph):
    """Greedy: repeatedly take the attribute with fewest remaining primal
    neighbors; ties break by name. Correctness never depends on this order."""
    nb = {a: set(v) for a, v in query.primal_neighbors().items()}
    remaining = set(query.attributes)
    order = []
    while remaining:
        a = min(remaining, key=lambda x: (len(nb[x] & remaining), x))
        order.append(a)
        remaining.discard(a)
    return tuple(order)


class WanderJoin:
    """Row-at-a-time walk over the query's edges, in eid order.

    Each step takes the first edge that still has unbound
    attributes, samples one of its matching rows, and binds the projection.
    The reported probability is the true value-draw probability (a degree
    ratio), so duplicate rows do not bias the estimate. Edges that become
    fully bound before their turn were already membership-checked at the step
    that bound their last attribute.
    """

    name = "wander"
    uniform = False

    def step(self, plan, remaining, s, rng) -> StepOutcome:
        edge = next(e for e in plan.query.edges if e.attr_set & remaining)
        I = tuple(a for a in sorted(edge.attrs) if a in remaining)
        bound = {a: s[a] for a in edge.attrs if a in s}
        idx = bound_first_index(plan.db, edge, s)
        base = plan.edge_degree(edge, s)
        if base == 0:
            return StepOutcome(I, [])
        row = idx.sample_row(bound, rng)
        frag = {a: v for a, v in zip(idx.order, row) if a in I}
        s2 = {**s, **frag}
        p = plan.edge_degree(edge, s2) / base
        member = plan.membership(
            [e for e in plan.query.edges_touching(I) if e.eid != edge.eid], s2
        )
        return StepOutcome(I, [(frag, p, member)])


class AlleyPlus:
    """Intersection sampling without replacement at branching fraction b."""

    name = "alley"
    uniform = False

    def __init__(self, b: float = 0.5):
        if not 0 < b <= 1:
            raise ValueError(f"branch fraction must be in (0, 1], got {b}")
        self.b = b

    def step(self, plan, remaining, s, rng) -> StepOutcome:
        a = plan.next_attr(remaining)
        edges = plan.e_I[a]
        views = []
        for e in edges:
            bound = {x: s[x] for x in e.attrs if x in s}
            views.append(plan.index_for(e).project((a,), bound, dedup=True))
        views.sort(key=lambda v: v.size())
        smallest, rest = views[0], views[1:]
        plan.db.ops.add(max(1, smallest.size()))
        omega = [c for (c,) in smallest if all(v.count_of((c,)) for v in rest)]
        n = len(omega)
        if n == 0:
            return StepOutcome((a,), [])
        k = math.ceil(self.b * n)
        chosen = omega if k == n else rng.sample(omega, k)
        p = 1.0 / n
        samples = [({a: c}, p, True) for c in chosen]
        return StepOutcome((a,), samples, k=k)


class GJSample:
    """Explicit residual-AGM probability table over the smallest projection.

    One step projects every edge containing the next attribute a onto a
    under the current binding s. The smallest projection is Ω. Each view
    gives deg1 (its row count) and, per candidate c, deg2 (c's supporting
    rows: the smallest view's own count while walking it, one count_of
    lookup on the others). The per-edge cover weight, log deg1 and whether
    the edge keeps attributes after a are resolved once per step. The
    whole table is summed in Ω order before the draw u picks the first
    candidate whose running sum exceeds u. Probabilities are the same floats
    agm_ratio computes (same edge order, same expressions).

    The op meter is charged for the full table: one degree probe per edge
    for deg1, one per projection, max(1, |Ω|) for the scan, and one per edge
    per candidate for deg2. The table is not cut short at the drawn
    candidate, so a step's time follows its ops and does not depend on
    where u falls.
    """

    name = "gj"
    uniform = True

    def step(self, plan, remaining, s, rng) -> StepOutcome:
        a = plan.next_attr(remaining)
        edges = plan.e_I[a]
        views = []
        best = None
        for e in edges:
            bound = {x: s[x] for x in e.attrs if x in s}
            view = plan.index_for(e).project((a,), bound, dedup=True)
            views.append(view)
            key = (view.size(), e.eid)
            if best is None or key < best[0]:
                best = (key, view)
        smallest = best[1]
        n = smallest.size()
        plan.db.ops.add(len(edges) + max(1, n) + len(edges) * n)
        u = rng.random()
        if n == 0:
            return StepOutcome((a,), [])
        after = set(remaining) | plan.skipped
        after.discard(a)
        # deg2 per edge: None reads the walked view's own count
        lookups = [None if view is smallest else view.count_of for view in views]
        # per weighted edge, in agm_ratio's order: lookup, float(x), log deg1,
        # and whether the edge keeps attributes after a
        weights = plan.cover.weights
        terms = [(lookup, float(weights[e.eid]), math.log(view.rows()),
                  bool(e.attr_set & after))
                 for e, view, lookup in zip(edges, views, lookups) if weights[e.eid]]
        # the whole table, then the draw: a step costs the same whatever u
        # is, as its ops say
        cands, probs, cum = [], [], []
        acc = 0.0
        for c, own in smallest.items():
            probe = (c,)
            log = 0.0
            for lookup, fx, log1, keeps in terms:
                d2 = own if lookup is None else lookup(probe)
                if d2 == 0:
                    p = 0.0
                    break
                if keeps:
                    log += fx * (math.log(d2) - log1)
                else:
                    log -= fx * log1
            else:
                p = math.exp(log)
            acc += p
            cands.append(c)
            probs.append(p)
            cum.append(acc)
        i = bisect.bisect_right(cum, u)   # the first candidate with u < acc
        if i < n:
            c = cands[i]
            member = all(lookup is None or lookup((c,)) > 0 for lookup in lookups)
            return StepOutcome((a,), [({a: c}, probs[i], member)])
        return StepOutcome((a,), [])  # failure symbol: leftover mass


class DRS:
    """Degree-keyed rejection sampling; table-free.

    Draw an edge F* uniformly among those containing the attribute, sample a
    row of R_{F*} ⋉ s, and keep its value c only when F* attains the maximum
    relative degree rdeg_F(c) = |R_F ⋉ (s ⊎ c)| / |R_F ⋉ s|, thinned by
    keep = AGM-ratio / rdeg_max (≤ 1), split across the m tied edges. The
    kept probability is then exactly AGM-ratio / #edges.

    boost="tie" skips the division by m (kept probability grows m-fold);
    boost="any-edge" accepts regardless of the argmax, with the correspondingly
    larger kept probability. Both only ever raise P, so 1/P contributions
    shrink.
    """

    name = "drs"
    uniform = True

    def __init__(self, boost: str = "none"):
        if boost not in ("none", "tie", "any-edge"):
            raise ValueError(f"unknown boost mode {boost!r}")
        self.boost = boost

    def step(self, plan, remaining, s, rng) -> StepOutcome:
        a = plan.next_attr(remaining)
        edges = plan.e_I[a]
        ne = len(edges)
        fstar = edges[rng.randrange(ne)]
        deg1 = {e.eid: plan.edge_degree(e, s) for e in edges}
        bound = {x: s[x] for x in fstar.attrs if x in s}
        row = plan.index_for(fstar).sample_row(bound, rng)
        c = dict(zip(plan.index_for(fstar).order, row))[a]
        s2 = {**s, a: c}
        deg2 = {e.eid: plan.edge_degree(e, s2) for e in edges}
        # argmax of deg2/deg1 by exact cross-multiplication
        tied = []
        for e in edges:
            if not tied:
                tied = [e]
                continue
            lead = tied[0]
            left = deg2[e.eid] * deg1[lead.eid]
            right = deg2[lead.eid] * deg1[e.eid]
            if left > right:
                tied = [e]
            elif left == right:
                tied.append(e)
        is_max = any(e.eid == fstar.eid for e in tied)
        if self.boost != "any-edge" and not is_max:
            return StepOutcome((a,), [])
        ratio = plan.agm_ratio(remaining, s, a, c, deg1, deg2)
        lead = tied[0]
        rdeg_max = deg2[lead.eid] / deg1[lead.eid]
        keep = 0.0 if rdeg_max == 0 else ratio / rdeg_max
        if keep > 1 + 1e-9:
            raise RuntimeError(
                f"keep probability {keep} exceeds 1; is the cover feasible?")
        keep = min(keep, 1.0)
        m = len(tied)
        if self.boost == "none":
            accept_p, p = keep / m, ratio / ne
        elif self.boost == "tie":
            accept_p, p = keep, m * ratio / ne
        else:  # any-edge
            rdeg_sum = sum(deg2[e.eid] / deg1[e.eid] for e in edges)
            accept_p, p = keep, rdeg_sum * keep / ne
        if rng.random() >= accept_p:
            return StepOutcome((a,), [])
        if p <= 0.0:
            return StepOutcome((a,), [])
        member = all(d > 0 for d in deg2.values())
        return StepOutcome((a,), [({a: c}, p, member)])


def generic_card_est(plan: Plan, strategy, remaining=None, s=None, rng=None) -> float:
    """Unbiased estimate of the distinct-answer count extending s."""
    if plan.empty:
        return 0.0
    if remaining is None:
        remaining = frozenset(plan.elim)
    rng = rng if rng is not None else random.Random()
    return _estimate(plan, strategy, frozenset(remaining), dict(s or {}), rng)


def _estimate(plan, strategy, remaining, s, rng):
    if not remaining:
        return plan.leaf_value(s)
    out = strategy.step(plan, remaining, s, rng)
    sub = remaining - set(out.attrs)
    total = 0.0
    for frag, p, member in out.samples:
        if not member:
            continue
        total += (1.0 / p) * _estimate(plan, strategy, sub, {**s, **frag}, rng)
    return total / out.k


def uniform_sample(plan: Plan, strategy, rng):
    """One attempt; returns a full binding or None.

    Conditional on success the answer is uniform: every answer is reached
    with the same probability (1/AGM for the table strategy, times the
    edge-choice factor for the rejection strategy).
    """
    if not getattr(strategy, "uniform", False):
        raise QueryError(f"{strategy.name} does not support uniform sampling")
    if getattr(strategy, "boost", "none") != "none":
        raise QueryError("boosted kept-probabilities are not answer-uniform")
    if plan.skipped:
        raise QueryError("uniform sampling needs the unskipped plan")
    if plan.empty:
        return None
    remaining = set(plan.elim)
    s = {}
    while remaining:
        out = strategy.step(plan, frozenset(remaining), s, rng)
        if not out.samples:
            return None
        frag, _, member = out.samples[0]
        if not member:
            return None
        s.update(frag)
        remaining -= set(out.attrs)
    return s


def per_answer_probability(plan: Plan, strategy) -> float:
    """Success probability of uniform_sample for any single fixed answer."""
    if isinstance(strategy, GJSample):
        return 1.0 / plan.agm
    if isinstance(strategy, DRS):
        factor = 1.0
        for a in plan.elim:
            factor /= len(plan.e_I[a])
        return factor / plan.agm
    raise QueryError(f"no closed-form success probability for {strategy.name}")


def variance_bound(plan: Plan, strategy, out: float) -> float:
    """Worst-case single-trial variance at the given (assumed) output size."""
    v = len(plan.query.attributes)
    if isinstance(strategy, AlleyPlus):
        t = 2 * (1 - strategy.b) / strategy.b
        if t == 0:
            return 0.0
        if abs(t - 1) < 1e-12:
            return (v - 1) * out * out
        return (t ** v - t) / (t - 1) * out * out
    if isinstance(strategy, DRS):
        prod = 1.0
        for a in plan.query.attributes:
            prod *= len(plan.e_I[a])
        return v * prod * plan.agm * out
    # table strategy bound; also the fallback schedule constant for the
    # walk strategy, which has no stated bound of its own
    return v * plan.agm * out


def derive_rng(seed, stream, i) -> random.Random:
    """The per-trial seeding rule: stable across platforms."""
    return random.Random(f"{seed}/{stream}/{i}")


def seeded_trials(trial, seed, stream, lo, hi):
    """Yield trial(rng) for trial indices lo <= i < hi, each on its own
    derived stream, so any range of trials reproduces alone."""
    for i in range(lo, hi):
        yield trial(derive_rng(seed, stream, i))


def seeded_mean(trial, seed, stream, lo, hi) -> float:
    """Mean of seeded_trials, summed left to right: sum() is compensated on
    Python 3.12+ and would move the last bits of seeded estimates."""
    acc = 0.0
    for x in seeded_trials(trial, seed, stream, lo, hi):
        acc += x
    return acc / (hi - lo)


def check_success_target(c) -> None:
    """Raise unless the success-count target c is at least 1. Both
    success-count entry points call it before their empty-plan return."""
    if c < 1:
        raise ValueError(f"success target c must be at least 1, got {c}")


def count_successes(attempt, p0, c, seed, stream):
    """Repeat attempt(rng), trial indices from 1, until c attempts return
    something other than None or the cap max(1000, ceil(8c/p0)) is spent;
    the cap makes empty outputs terminate. Returns (successes, trials, cap).
    The caller has checked c with check_success_target.
    """
    cap = max(1000, math.ceil(8 * c / p0))
    attempts = seeded_trials(attempt, seed, stream, 1, cap + 1)
    successes = trials = 0
    while successes < c and trials < cap:
        trials += 1
        if next(attempts) is not None:
            successes += 1
    return successes, trials, cap


@dataclass
class EstimateReport:
    estimate: float
    trials: int
    mode: str
    strategy: str
    epsilon: float | None = None
    delta: float | None = None
    successes: int | None = None
    c: int | None = None
    assumed_out: float | None = None
    stages: int = 0
    ops: int = 0
    seed: object = None
    budget_cap: float | None = None


def estimate_with_guarantee(plan: Plan, strategy, epsilon, delta, seed=0,
                            mode="geometric", c=64, median=False) -> EstimateReport:
    """(1±epsilon)-with-probability-(1-delta) driver.

    geometric: Chebyshev trial counts against a halving assumed output size,
    starting at the AGM bound; stops when the running estimate is at least
    the assumption, or declares 0 when the assumption drops below 1.
    success-count: repeats the uniform sampler until c successes and inverts
    the known per-answer probability (capped so empty outputs terminate).
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    ops0 = plan.db.ops.n
    if mode == "success-count":
        return _success_count(plan, strategy, seed, c, ops0, epsilon, delta)
    if mode != "geometric":
        raise ValueError(f"unknown mode {mode!r}")
    if plan.empty:
        return EstimateReport(0.0, 1, mode, strategy.name, epsilon, delta,
                              assumed_out=0.0, ops=plan.db.ops.n - ops0, seed=seed)
    assumed = plan.agm
    total = 0
    stage = 0
    while True:
        n = max(1, math.ceil(variance_bound(plan, strategy, assumed)
                             / (epsilon * epsilon * delta * assumed * assumed)))
        z = _mean_of_trials(plan, strategy, seed, f"geo{stage}", n, median)
        total += n
        if z >= assumed:
            return EstimateReport(z, total, mode, strategy.name, epsilon, delta,
                                  assumed_out=assumed, stages=stage + 1,
                                  ops=plan.db.ops.n - ops0, seed=seed)
        assumed /= 2
        stage += 1
        if assumed < 1:
            return EstimateReport(0.0, total, mode, strategy.name, epsilon, delta,
                                  assumed_out=0.0, stages=stage,
                                  ops=plan.db.ops.n - ops0, seed=seed)


def _mean_of_trials(plan, strategy, seed, stream, n, median):
    def trial(rng):
        return generic_card_est(plan, strategy, rng=rng)

    if not median:
        return seeded_mean(trial, seed, stream, 0, n)
    # median of 5 group means over the same trial budget
    groups = 5
    size = math.ceil(n / groups)
    means = []
    for g in range(groups):
        lo, hi = g * size, min((g + 1) * size, n)
        if lo >= hi:
            break
        means.append(seeded_mean(trial, seed, stream, lo, hi))
    means.sort()
    return means[len(means) // 2]


def _success_count(plan, strategy, seed, c, ops0, epsilon, delta):
    check_success_target(c)
    if plan.empty:
        return EstimateReport(0.0, 1, "success-count", strategy.name,
                              epsilon, delta, successes=0, c=c, seed=seed,
                              ops=plan.db.ops.n - ops0)
    p0 = per_answer_probability(plan, strategy)
    successes, trials, cap = count_successes(
        lambda rng: uniform_sample(plan, strategy, rng), p0, c, seed, "sc")
    est = successes / trials / p0
    return EstimateReport(est, trials, "success-count", strategy.name,
                          epsilon, delta, successes=successes, c=c, seed=seed,
                          ops=plan.db.ops.n - ops0, budget_cap=cap)


def make_strategy(name: str, b: float = 0.5, boost="none"):
    name = name.lower()
    if name == "wander":
        return WanderJoin()
    if name == "alley":
        return AlleyPlus(b)
    if name == "gj":
        return GJSample()
    if name == "drs":
        return DRS(boost=boost)
    raise ValueError(f"unknown strategy {name!r}")
