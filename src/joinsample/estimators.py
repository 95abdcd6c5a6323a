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
                smallest projection's trie node, kept in the plan's probe
                memo, then drawn from; ops are charged per candidate per
                edge on every step, memo hit or not.
  DRS         - picks an edge uniformly, samples a row from it, and keeps the
                value only if that edge maximizes the value's relative degree,
                thinned so the kept probability is the AGM-bound ratio. No
                per-candidate table is ever materialized.

A step's structure depends only on the query and the attributes still
unbound: the next attribute and its edges, the AGM terms, wander's edge and
the probes it makes. Plan.step_record builds it once per remaining set, so
a step does only the data-dependent work (probes, draws, arithmetic). The
bound-first indexes it probes are kept by the database, for every plan.

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
    fractional_edge_cover,
    relation_sizes,
    validate,
)
from .relations import View


@dataclass
class StepOutcome:
    attrs: tuple
    samples: list  # (fragment dict, probability, membership flag)
    k: int = 1


class Plan:
    """Per-query precomputation shared by every trial.

    Holds the fixed cover (computed once on the original sizes and reused for
    all residual AGM ratios), the attribute elimination order and the
    per-attribute edge lists. With skip_nonjoin=True, attributes that appear
    in exactly one edge are never sampled; the leaf returns the product of
    their per-edge distinct-extension counts instead of 1.

    Every probe, projection and row draw reads the bound-first index of its
    edge (queries.bound_first_index, the one order rule), which the database
    keeps for every plan. The step records and _leaf (leaf_value's) hold
    the ones a trial reads, resolved once per plan.

    step_record(remaining) is the step at one depth of a trial: a _Step
    memoised per remaining set, holding what a step reads that depends
    only on the query and remaining. Records hold indexes but no degree,
    value or table, so emptying _deg_cache leaves the plan cold.

    _deg_cache is the plan's one probe memo. It holds edge degrees, keyed
    by (eid, column values), and step tables, keyed by a strategy tag
    ("gj" or "alley"), the attribute a and the values bound on the
    attributes of the edges containing a (the record's near). The tag is a
    string and an eid an int, so the two kinds of key never meet.
    Emptying the memo forgets both; no probe's op charge depends on it.
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
        self.sampled = frozenset(self.elim)
        if self.sampled != set(query.attributes) - self.skipped:
            raise QueryError("elimination order must cover every sampled attribute")
        self.e_I = {a: query.edges_containing(a) for a in query.attributes}
        # leaf_value's index and skipped columns, sorted, per edge that has any
        self._leaf = [(bound_first_index(db, e, self.sampled), rest)
                      for e in query.edges
                      if (rest := tuple(sorted(e.attr_set & self.skipped)))]
        self._deg_cache = {}
        self._steps = {}     # remaining -> _Step

    def next_attr(self, remaining):
        for a in self.elim:
            if a in remaining:
                return a
        raise LookupError(f"no sampled attribute left in {sorted(remaining)}")

    def step_record(self, remaining) -> _Step:
        """The step record for the frozenset remaining, built once."""
        rec = self._steps.get(remaining)
        if rec is None:
            rec = self._steps[remaining] = _Step(self, remaining)
        return rec

    def edge_degree(self, edge, s) -> int:
        """|R_F ⋉ s| restricted to the attrs of F bound in s, memoized.

        Keyed by the edge's column values, None where unbound (values are
        interned ints); a miss walks the edge's bound-first index for s. The
        op meter is charged whether or not the cache hits: the cache is a
        shortcut of this implementation, not of the cost model. WanderJoin's
        resolved probes (_degree) read and fill the same entries.
        """
        key = (edge.eid, *map(s.get, edge.attrs))
        self.db.ops.n += 1
        hit = self._deg_cache.get(key)
        if hit is not None:
            return hit
        idx = bound_first_index(self.db, edge, s)
        deg = self._deg_cache[key] = idx._walk([s[a] for a in idx.order if a in s])[1]
        return deg

    def step_table(self, key, a, build):
        """The step table for attribute a under key, from the probe memo.

        A miss stores build(), which projects every edge containing a (one
        op each); a hit charges those projections' ops itself, so the meter
        reads the same either way.
        """
        table = self._deg_cache.get(key)
        if table is None:
            table = self._deg_cache[key] = build()
        else:
            self.db.ops.n += len(self.e_I[a])
        return table

    def leaf_value(self, s) -> float:
        prod = 1.0
        for idx, rest in self._leaf:
            n = idx.project(rest, s).size()
            if n == 0:
                return 0.0
            prod *= n
        return prod

    def agm_ratio(self, remaining, s, attr, value, deg1, deg2) -> float:
        """AGM(ℋ_{s ⊎ {attr:value}}) / AGM(ℋ_s) under the fixed cover.

        Only edges containing attr contribute; the rest cancel. deg1/deg2 are
        precomputed degree maps (eid -> count) before/after the binding.
        Edges whose remaining-attribute set is exactly {attr} leave the
        denominator only, contributing 1/deg1^x.
        """
        return _ratio(self.agm_terms(remaining, attr), deg1, deg2)

    def agm_terms(self, remaining, attr):
        """agm_ratio's (position in e_I[attr], eid, float weight, keeps) per
        weighted edge containing attr, in e_I order; keeps is whether the
        edge has attributes left, remaining or skipped, once attr is bound."""
        if self.empty:
            return ()
        after = set(remaining) | self.skipped
        after.discard(attr)
        weights = self.cover.weights
        return tuple((i, e.eid, float(weights[e.eid]), bool(e.attr_set & after))
                     for i, e in enumerate(self.e_I[attr]) if weights[e.eid])


def _ratio(terms, deg1, deg2) -> float:
    """agm_ratio over resolved terms; deg1 and deg2 map eid -> degree."""
    log = 0.0
    for _, eid, x, keeps in terms:
        d2 = deg2[eid]
        if d2 == 0:
            return 0.0
        if keeps:
            log += x * (math.log(d2) - math.log(deg1[eid]))
        else:
            log -= x * math.log(deg1[eid])
    return math.exp(log)


class _Step:
    """One depth of a trial: what a step on `remaining` reads that depends
    only on the query and remaining, never on data.

    A step reads only its record and its binding s, which binds exactly the
    sampled attributes outside remaining: generic_card_est checks this
    split, and _estimate and uniform_sample keep it through left.

    attr, edges, near: the next attribute in the elimination order, the
    edges containing it (e_I order) and every attribute of those edges,
    all a step on attr reads of the binding (DRS, GJ, alley).
    terms: plan.agm_terms(remaining, attr).
    draws: per edge of edges, the bound-first index with the sampled
    attributes outside remaining first, then attr: DRS draws its row from
    it, and GJ and alley project attr off it (projections).
    left: remaining once a step bound a tuple of attributes, by that tuple:
    (attr,), and wander's I once its record is built.
    walk: WanderJoin's record, built on first use.
    """

    __slots__ = ("attr", "edges", "near", "terms", "draws", "left", "walk")

    def __init__(self, plan, remaining):
        self.attr = a = plan.next_attr(remaining)
        self.edges = plan.e_I[a]
        self.near = tuple(dict.fromkeys(x for e in self.edges for x in e.attrs))
        self.terms = plan.agm_terms(remaining, a)
        bound = plan.sampled - remaining
        self.draws = tuple(bound_first_index(plan.db, e, bound, a) for e in self.edges)
        self.left = {(a,): remaining - {a}}
        self.walk = None

    def projections(self, s):
        """π_attr(R_F ⋉ s) per edge F of edges, as Views off draws; one op each."""
        return [idx.project((self.attr,), s) for idx in self.draws]


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

    The step reads its edge, its probes and their indexes off the step
    record's _Walk (see _Step for the binding every record assumes).
    """

    name = "wander"
    uniform = False

    def step(self, plan, remaining, s, rng) -> StepOutcome:
        rec = plan.step_record(remaining)
        w = rec.walk
        if w is None:
            w = rec.walk = _Walk(plan, remaining)
            rec.left[w.I] = remaining - set(w.I)
        base = _degree(plan, w.base, s)
        if base == 0:
            return StepOutcome(w.I, [])
        row = w.index._descend([s[a] for a in w.prefix], rng)
        frag = {a: row[i] for a, i in w.take}
        s2 = {**s, **frag}
        p = _degree(plan, w.own, s2) / base
        member = all(_degree(plan, probe, s2) > 0 for probe in w.touching)
        return StepOutcome(w.I, [(frag, p, member)])


class _Walk:
    """WanderJoin's step on `remaining`.

    I: the attributes of the first edge with any in remaining, sorted.
    base: that edge's degree probe before the step. A probe is (eid, edge
    attrs, bound-first index, bound prefix of the index order).
    index, prefix: base's index, which the row is drawn from, and prefix.
    take: (attribute, position in the drawn row) for each of I.
    own: the edge's probe once I is bound; touching: the probes of the
    other edges meeting I, in eid order, once I is bound.
    """

    __slots__ = ("I", "base", "index", "prefix", "take", "own", "touching")

    def __init__(self, plan, remaining):
        edge = next(e for e in plan.query.edges if e.attr_set & remaining)
        self.I = tuple(a for a in sorted(edge.attrs) if a in remaining)
        bound = plan.sampled - remaining
        self.base = _probe(plan, edge, bound)
        _, _, self.index, self.prefix = self.base
        self.take = tuple((a, i) for i, a in enumerate(self.index.order) if a in self.I)
        bound = bound | set(self.I)
        self.own = _probe(plan, edge, bound)
        others = [e for e in plan.query.edges_touching(self.I) if e.eid != edge.eid]
        self.touching = tuple(_probe(plan, e, bound) for e in others)


def _probe(plan, edge, bound):
    """A degree probe of edge under a binding of the attributes `bound`."""
    idx = bound_first_index(plan.db, edge, bound)
    return edge.eid, edge.attrs, idx, tuple(a for a in idx.order if a in bound)


def _degree(plan, probe, s) -> int:
    """Plan.edge_degree through a resolved probe: the same memo key, value
    and op charge, with no index lookup."""
    eid, attrs, idx, prefix = probe
    key = (eid, *map(s.get, attrs))
    plan.db.ops.n += 1
    deg = plan._deg_cache.get(key)
    if deg is None:
        deg = plan._deg_cache[key] = idx._walk([s[a] for a in prefix])[1]
    return deg


class AlleyPlus:
    """Intersection sampling without replacement at branching fraction b.

    A step's candidate set Ω is the intersection of the projections of the
    edges containing the next attribute a, scanned from the smallest. Ω
    depends only on a and the values bound on the step record's near, so
    it is kept in the plan's probe memo and shared by every b. Each step
    charges one op per projection and max(1, |smallest|) for the scan, memo
    hit or not, then keeps ceil(b·|Ω|) of Ω.
    """

    name = "alley"
    uniform = False

    def __init__(self, b: float = 0.5):
        if not 0 < b <= 1:
            raise ValueError(f"branch fraction must be in (0, 1], got {b}")
        self.b = b

    def step(self, plan, remaining, s, rng) -> StepOutcome:
        rec = plan.step_record(remaining)
        a = rec.attr
        omega, scan = plan.step_table(("alley", a, *map(s.get, rec.near)), a,
                                      lambda: _intersection(rec, s))
        plan.db.ops.n += scan
        n = len(omega)
        if n == 0:
            return StepOutcome((a,), [])
        k = math.ceil(self.b * n)
        chosen = omega if k == n else rng.sample(omega, k)
        p = 1.0 / n
        samples = [({a: c}, p, True) for c in chosen]
        return StepOutcome((a,), samples, k=k)


def _intersection(rec, s):
    """(Ω as a tuple, the scan's op charge) for AlleyPlus.step."""
    views = rec.projections(s)
    smallest = min(views, key=View.size)
    rest = [v for v in views if v is not smallest]
    omega = tuple(c for (c,) in smallest if all(v.count_of((c,)) for v in rest))
    return omega, max(1, smallest.size())


class GJSample:
    """Explicit residual-AGM probability table over the smallest projection.

    One step projects every edge containing the next attribute a onto a
    under the current binding s. The smallest projection is Ω. Each view
    gives deg1 (its row count) and, per candidate c, deg2 (c's supporting
    rows: the smallest view's own count while walking it, one count_of
    lookup on the others). The per-edge cover weight, log deg1 and whether
    the edge keeps attributes after a are resolved once per table. The
    whole table is summed in Ω order before the draw u picks the first
    candidate whose running sum exceeds u. Probabilities are the same floats
    agm_ratio computes (same edge order, same expressions).

    A table reads only a and the values s binds on the record's near (None
    where unbound), so the plan's probe memo keeps it under those, built
    once per plan; a later step with the same key only draws from it.

    The op meter is charged for the full table on every step, memo hit or
    not: one op per projection, one degree probe per edge for deg1,
    max(1, |Ω|) for the scan, and one per edge per candidate for deg2. One
    u is drawn per step, also when Ω is empty. So seeded draws and op
    counts do not depend on what the memo holds. On a miss the whole table
    is built before the draw, so the step's time follows its ops and does
    not depend on where u falls; a hit costs the key, a bisection and the
    drawn candidate's membership lookups.
    """

    name = "gj"
    uniform = True

    def step(self, plan, remaining, s, rng) -> StepOutcome:
        rec = plan.step_record(remaining)
        a = rec.attr
        key = ("gj", a, *map(s.get, rec.near))
        cands, probs, cum, lookups, cost = plan.step_table(
            key, a, lambda: _gj_table(rec, s))
        plan.db.ops.n += cost
        u = rng.random()
        i = bisect.bisect_right(cum, u)   # the first candidate with u < acc
        if i < len(cum):
            c = cands[i]
            member = all(lookup is None or lookup((c,)) > 0 for lookup in lookups)
            return StepOutcome((a,), [({a: c}, probs[i], member)])
        return StepOutcome((a,), [])  # failure symbol: leftover mass, or Ω empty


def _gj_table(rec, s):
    """GJSample's table on the record's attribute: (candidates,
    probabilities, running sums, deg2 lookup per edge with None for Ω's own
    view, the step's op charge beyond the projections)."""
    views = rec.projections(s)
    smallest = min(views, key=View.size)
    n = smallest.size()
    cost = len(views) + max(1, n) + len(views) * n
    # deg2 per edge: None reads the walked view's own count
    lookups = [None if view is smallest else view.count_of for view in views]
    if n == 0:
        return (), (), (), lookups, cost
    # per weighted edge, in agm_ratio's order: lookup, float(x), log deg1,
    # and whether the edge keeps attributes after a
    terms = [(lookups[i], x, math.log(views[i].rows()), keeps)
             for i, _, x, keeps in rec.terms]
    probs, cum = [], []
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
        probs.append(p)
        cum.append(acc)
    # Ω's candidates are the smallest view's trie keys, in items() order
    return smallest.node.keys, probs, cum, lookups, cost


class DRS:
    """Degree-keyed rejection sampling; table-free.

    Draw an edge F* uniformly among those containing the attribute, sample a
    row of R_{F*} ⋉ s off the step record's draws, and keep its value c only
    when F* attains the maximum relative degree
    rdeg_F(c) = |R_F ⋉ (s ⊎ c)| / |R_F ⋉ s|, thinned by
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
        rec = plan.step_record(remaining)
        a, edges = rec.attr, rec.edges
        ne = len(edges)
        i = rng.randrange(ne)
        deg1 = {e.eid: plan.edge_degree(e, s) for e in edges}
        idx = rec.draws[i]
        c = idx.sample_row(s, rng)[idx.order.index(a)]
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
        is_max = edges[i] in tied
        if self.boost != "any-edge" and not is_max:
            return StepOutcome((a,), [])
        ratio = _ratio(rec.terms, deg1, deg2)
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
    """Unbiased estimate of the distinct-answer count extending s.

    remaining (default: every sampled attribute) and the attributes s binds
    must split the plan's sampled attributes; QueryError otherwise.
    """
    if plan.empty:
        return 0.0
    remaining = plan.sampled if remaining is None else frozenset(remaining)
    s = dict(s or {})
    # every step record assumes this split; a wander step would otherwise
    # probe with the wrong bound prefix
    if not remaining <= plan.sampled or s.keys() != plan.sampled - remaining:
        raise QueryError(
            f"remaining {sorted(remaining)} and binding {sorted(s)} must "
            f"split the sampled attributes {sorted(plan.sampled)}")
    rng = rng if rng is not None else random.Random()
    return _estimate(plan, strategy, remaining, s, rng)


def _estimate(plan, strategy, remaining, s, rng):
    if not remaining:
        return plan.leaf_value(s)
    out = strategy.step(plan, remaining, s, rng)
    sub = plan.step_record(remaining).left[out.attrs]
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
    _check_uniform(plan, strategy)
    if plan.empty:
        return None
    remaining = plan.sampled
    s = {}
    while remaining:
        out = strategy.step(plan, remaining, s, rng)
        if not out.samples:
            return None
        frag, _, member = out.samples[0]
        if not member:
            return None
        s.update(frag)
        remaining = plan.step_record(remaining).left[out.attrs]
    return s


def _check_uniform(plan: Plan, strategy) -> None:
    """Raise QueryError unless uniform_sample can draw with strategy on plan."""
    if not getattr(strategy, "uniform", False):
        raise QueryError(f"{strategy.name} does not support uniform sampling")
    if getattr(strategy, "boost", "none") != "none":
        raise QueryError("boosted kept-probabilities are not answer-uniform")
    if plan.skipped:
        raise QueryError("uniform sampling needs the unskipped plan")


def per_answer_probability(plan: Plan, strategy) -> float:
    """Success probability of uniform_sample for any single fixed answer;
    0.0 on an empty plan, which has none. Checks the strategy and plan as
    uniform_sample does, empty or not."""
    _check_uniform(plan, strategy)
    if not isinstance(strategy, (GJSample, DRS)):
        raise QueryError(f"no closed-form success probability for {strategy.name}")
    factor = 1.0
    if isinstance(strategy, DRS):
        for a in plan.elim:
            factor /= len(plan.e_I[a])
    return 0.0 if plan.empty else factor / plan.agm


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
    median (geometric only) takes the median of five group means per stage.
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    ops0 = plan.db.ops.n
    if mode == "success-count":
        if median:
            raise ValueError("median applies to the geometric mode only")
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
    p0 = per_answer_probability(plan, strategy)
    if plan.empty:
        return EstimateReport(0.0, 1, "success-count", strategy.name,
                              epsilon, delta, successes=0, c=c, seed=seed,
                              ops=plan.db.ops.n - ops0)
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
