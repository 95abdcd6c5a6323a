"""Component-at-a-time sampling for queries with half-integral covers.

When the optimal fractional edge cover can be chosen half-integral, its
support splits into vertex-disjoint odd cycles (weight 1/2 edges) and stars
(weight 1 edges). Each component admits a cheap one-shot sampler, and the
per-trial estimates multiply.

Cycles are handled with a canonicalization trick: an assignment is counted
only when its kappa-sequence (kappa(x) = (incidence of x, x)) is the lex-min
among the 2L rotations/reflections, and the count is weighted by the number
of distinct images, so every dihedral class contributes exactly its size.
This requires every cycle image of an answer to be an answer too, hence the
symmetric-relation precondition checked by ComponentPlan.

Both samplers walk an odd cycle the same way (_cycle_start, after Assadi,
Kapralov and Khanna for SSTE and Fichtenberger, Gao and Peng for SUST):
draw rows of (L-1)/2 alternate edges, prune by kappa, check the stitching
edges, then close the cycle through the start vertex's neighbourhood. They
differ only in that last draw: SSTE batch-samples it and scores by orbit
size; SUST draws each candidate with probability 1/(2 sqrt|R|).

sste_trial returns an unbiased estimate of the distinct answer count;
sust_sample emits canonical class representatives, each with the same
probability (needs duplicate-free relations), and sust_trial scores the
same attempt by 1/P times the orbit size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from .estimators import Plan, seeded_mean
from .queries import (
    Hypergraph, QueryError, bound_first_index, half_integral_cover, relation_sizes,
)


@dataclass
class Component:
    kind: str            # "cycle" or "star"
    attrs: list          # cycle: vertex sequence; star: [center, *leaves]
    edges: list          # cycle: edges[i] joins attrs[i], attrs[i+1 mod L]


class ComponentPlan:
    """Half-integral component plan; raises QueryError when the optimal
    cover is not half-integral or a cycle precondition fails."""

    def __init__(self, db, query: Hypergraph):
        self.db = db
        self.query = query
        sizes = relation_sizes(db, query)
        self.empty = any(n == 0 for n in sizes.values())
        if self.empty:
            self.components = []
            self.fallback = False
            self.plan = None
            return
        cover, comps = half_integral_cover(query, sizes)
        self.plan = Plan(db, query, cover=cover)
        support = {e for e, w in cover.weights.items() if w}
        self.cross_edges = [e for e in query.edges if e.eid not in support]
        self.fallback = bool(self.cross_edges)
        by_id = {e.eid: e for e in query.edges}
        self.components = []
        self._first_column = {}   # cycle relation -> index incidence walks
        for kind, attrs, eids in comps:
            edges = [by_id[i] for i in eids]
            if kind == "cycle":
                rels = {e.relation for e in edges}
                if len(rels) != 1:
                    raise QueryError(
                        f"cycle component {attrs} spans relations {sorted(rels)}; "
                        "need a single one"
                    )
                rel = db.relation(edges[0].relation)
                if not _symmetric(rel):
                    raise QueryError(
                        f"relation {rel.name!r} is not symmetric; cycle "
                        "canonicalization would bias the estimate"
                    )
                self.components.append(Component("cycle", list(attrs), edges))
                self._first_column[rel.name] = bound_first_index(
                    db, edges[0], edges[0].attrs[:1])
            else:
                center, leaves = attrs, []
                for e in edges:
                    leaves.extend(a for a in e.attrs if a != center)
                self.components.append(Component("star", [center] + leaves, edges))
        self._inc = {}

    def incidence(self, relname, value) -> int:
        """Rows of the relation carrying the value in either column."""
        key = (relname, value)
        hit = self._inc.get(key)
        self.db.ops.add(1)
        if hit is not None:
            return hit
        # symmetric precondition makes both columns agree
        n = 2 * self._first_column[relname]._walk((value,))[1]
        self._inc[key] = n
        return n

    def kappa(self, relname, value):
        return (self.incidence(relname, value), value)

    @cached_property
    def duplicated_relation(self):
        """Name of the first component relation with duplicate rows, or None."""
        for comp in self.components:
            for e in comp.edges:
                rel = self.db.relation(e.relation)
                if len(set(rel.tuples)) != len(rel.tuples):
                    return rel.name
        return None

    @cached_property
    def sust_inverse_probability(self) -> float:
        """1 / P(an attempt returns one fixed class representative)."""
        inv_p = 1.0
        for comp in self.components:
            if comp.kind == "cycle":
                nrel = len(self.db.relation(comp.edges[0].relation))
                half = (len(comp.attrs) - 1) // 2
                inv_p *= (float(nrel) ** half) * 2.0 * math.sqrt(nrel)
            else:
                for e in comp.edges:
                    inv_p *= len(self.db.relation(e.relation))
        return inv_p


def _symmetric(rel) -> bool:
    if rel.arity != 2:
        return False
    from collections import Counter
    c = Counter(rel.tuples)
    return all(c[(y, x)] == n for (x, y), n in c.items())


def _dihedral_images(vals):
    """The 2L rotations and reflections of a cycle's value sequence; the
    distinct ones make up its orbit."""
    vals = tuple(vals)
    rots = [vals[r:] + vals[:r] for r in range(len(vals))]
    return rots + [rot[::-1] for rot in rots]


def _canonical_weight(cplan, relname, vals):
    """(is canonical, orbit size) for the value sequence of a cycle: is its
    kappa sequence the least among its images?"""
    def kseq(seq):
        return tuple(cplan.kappa(relname, v) for v in seq)

    images = _dihedral_images(vals)
    return kseq(tuple(vals)) == min(map(kseq, images)), len(set(images))


def _row_for(cplan, edge, rng):
    """Uniform row of the edge's relation; (assignment fragment, multiplicity)."""
    idx = bound_first_index(cplan.db, edge, {})
    row = idx.sample_row({}, rng)
    frag = dict(zip(idx.order, row))
    mult = cplan.plan.edge_degree(edge, frag)
    return frag, mult


def _cycle_start(cplan, comp, rng, canonical):
    """The cycle walk up to its last vertex, shared by SSTE and SUST.

    Draw rows of the (L-1)/2 alternate edges (edges[2j] joins seq[2j],
    seq[2j+1]), drop the draw when canonical and seq[0]'s kappa is not the
    least of the drawn vertices, then check the stitching edges
    edges[2j-1]. Returns (assignment of seq[:L-1], 1/P of the rows) or None.
    """
    seq, edges = comp.attrs, comp.edges
    relname = edges[0].relation
    nrel = len(cplan.db.relation(relname))
    n = (len(seq) - 1) // 2
    a = {}
    inv_p = 1.0
    for j in range(n):
        frag, mult = _row_for(cplan, edges[2 * j], rng)
        a.update(frag)
        inv_p *= nrel / mult
    if canonical:
        k0 = cplan.kappa(relname, a[seq[0]])
        if any(cplan.kappa(relname, a[v]) < k0 for v in seq[1: 2 * n]):
            return None
    for j in range(1, n):
        if cplan.plan.edge_degree(edges[2 * j - 1], a) == 0:
            return None
    return a, inv_p


def _back_view(cplan, comp, a):
    """(view, size) of the last vertex's candidates: pi_w of the back edge
    (joining w = seq[L-1] to seq[0]) under a's start vertex; charges
    max(1, size) ops."""
    start = comp.attrs[0]
    bound = {start: a[start]}
    idx = bound_first_index(cplan.db, comp.edges[-1], bound)
    view = idx.project((comp.attrs[-1],), bound)
    no = view.size()
    cplan.db.ops.add(max(1, no))
    return view, no


def _cycle_trial_sste(cplan, comp, rng, canonical=True):
    """One estimate of the cycle component's distinct-answer count.

    After _cycle_start, batch-sample the last vertex from the back view and
    score each closed canonical cycle by its orbit size. canonical=False
    (fallback regime) draws a single last vertex and skips the kappa
    machinery; the caller checks cross edges on the assignment.
    Returns (weight, [assignments]) with weight already including 1/P.
    """
    start = _cycle_start(cplan, comp, rng, canonical)
    if start is None:
        return 0.0, []
    a, inv_p = start
    view, no = _back_view(cplan, comp, a)
    if no == 0:
        return 0.0, []
    seq, relname = comp.attrs, comp.edges[0].relation
    k = 1
    if canonical:
        k = max(1, math.ceil(no / math.sqrt(len(cplan.db.relation(relname)))))
    total = 0.0
    kept = []
    for _ in range(k):
        (a[seq[-1]],) = view.sample(rng)
        if cplan.plan.edge_degree(comp.edges[-2], a) == 0:   # joins seq[L-2], w
            continue
        orbit = 1.0
        if canonical:
            is_c, orbit = _canonical_weight(cplan, relname, [a[v] for v in seq])
            if not is_c:
                continue
        total += orbit
        kept.append(dict(a))
    return inv_p * no * total / k, kept


def _star_trial_sste(cplan, comp, rng):
    """Center by a degree-weighted row draw, then one joint spoke per edge."""
    center = comp.attrs[0]
    edges = comp.edges
    e1 = edges[0]
    frag, _ = _row_for(cplan, e1, rng)
    a = frag[center]
    nrel = len(cplan.db.relation(e1.relation))
    deg1 = cplan.plan.edge_degree(e1, {center: a})
    inv_p = nrel / deg1
    full = {center: a}
    for e in edges:
        bound = {center: a}
        deg = cplan.plan.edge_degree(e, bound)
        if deg == 0:
            return 0.0, []
        idx = bound_first_index(cplan.db, e, bound)
        row = idx.sample_row(bound, rng)
        got = dict(zip(idx.order, row))
        mult = cplan.plan.edge_degree(e, got)
        inv_p *= deg / mult
        full.update(got)
    return inv_p, [full]


def sste_trial(cplan: ComponentPlan, rng) -> float:
    """One unbiased estimate of the distinct answer count."""
    if cplan.empty:
        return 0.0
    z = 1.0
    assignment = {}
    for comp in cplan.components:
        if comp.kind == "cycle":
            w, kept = _cycle_trial_sste(cplan, comp, rng,
                                        canonical=not cplan.fallback)
        else:
            w, kept = _star_trial_sste(cplan, comp, rng)
        if w == 0.0:
            return 0.0
        z *= w
        if cplan.fallback:
            assignment.update(kept[0])
    if cplan.fallback:
        for e in cplan.cross_edges:
            bound = {x: assignment[x] for x in e.attrs}
            if cplan.plan.edge_degree(e, bound) == 0:
                return 0.0
    return z


def sste_estimate(cplan: ComponentPlan, n: int, seed=0) -> float:
    """Mean of n independent trials under the stable seeding rule."""
    return seeded_mean(lambda rng: sste_trial(cplan, rng), seed, "sste", 0, n)


def variance_bound_sste(cplan: ComponentPlan, out: float) -> float:
    """Stated worst-case single-trial variance: 2^|attrs| * AGM * OUT."""
    if cplan.empty:
        return 0.0
    return (2 ** len(cplan.query.attributes)) * cplan.plan.agm * out


def _cycle_trial_sust(cplan, comp, rng):
    """One attempt at a canonical representative of the cycle component:
    after _cycle_start, draw the last vertex w with probability 1/(2 sqrt|R|)
    for each candidate. The assignment, or None on rejection."""
    start = _cycle_start(cplan, comp, rng, canonical=True)
    if start is None:
        return None
    a, _ = start
    seq, edges = comp.attrs, comp.edges
    relname = edges[0].relation
    nrel = len(cplan.db.relation(relname))
    w = seq[-1]
    thresh = 2.0 * math.sqrt(nrel)
    inc0 = cplan.incidence(relname, a[seq[0]])
    if inc0 < thresh:
        view, no = _back_view(cplan, comp, a)
        if no == 0 or rng.random() >= no / thresh:
            return None
        (a[w],) = view.sample(rng)
    else:
        # heavy start: random row, random endpoint, thin to flatten P(c); the
        # relation is symmetric, so the back edge's column order is immaterial
        row = bound_first_index(cplan.db, edges[-1], {}).sample_row({}, rng)
        c = a[w] = row[rng.randrange(2)]
        inc_c = cplan.incidence(relname, c)
        if inc_c < inc0 or rng.random() >= math.sqrt(nrel) / inc_c:
            return None
        if cplan.plan.edge_degree(edges[-1], a) == 0:
            return None
    if cplan.plan.edge_degree(edges[-2], a) == 0:
        return None
    return a if _canonical_weight(cplan, relname, [a[v] for v in seq])[0] else None


def _star_trial_sust(cplan, comp, rng):
    # one independent row per edge; succeed when the centers agree
    center = comp.attrs[0]
    full = {}
    got_center = None
    for e in comp.edges:
        frag, _ = _row_for(cplan, e, rng)
        if got_center is None:
            got_center = frag[center]
        elif frag[center] != got_center:
            return None
        full.update(frag)
    return full


def sust_sample(cplan: ComponentPlan, rng):
    """One attempt at a uniform draw; None on rejection.

    Star components are uniform over their answers; cycle components are
    uniform over canonical class representatives (every representative has
    probability |R|^{-(L-1)/2} / (2 sqrt(|R|)) exactly). Requires the
    support-only regime and duplicate-free relations.
    """
    if cplan.empty:
        return None
    if cplan.fallback:
        raise QueryError("uniform component sampling needs a support-only query")
    if cplan.duplicated_relation is not None:
        raise QueryError(f"relation {cplan.duplicated_relation!r} has duplicate rows")
    out = {}
    for comp in cplan.components:
        if comp.kind == "cycle":
            got = _cycle_trial_sust(cplan, comp, rng)
        else:
            got = _star_trial_sust(cplan, comp, rng)
        if got is None:
            return None
        out.update(got)
    return out


def sust_trial(cplan: ComponentPlan, rng) -> float:
    """One attempt scored by inverse class probability; unbiased for the
    distinct answer count. It makes the draws and charges the ops of
    sust_sample on the same rng: sust_sample has checked that the cycles
    are canonical, and an orbit's size needs no probe."""
    got = sust_sample(cplan, rng)
    if got is None:
        return 0.0
    payoff = cplan.sust_inverse_probability
    for comp in cplan.components:
        # a class representative stands for its whole dihedral orbit
        if comp.kind == "cycle":
            payoff *= len(set(_dihedral_images([got[v] for v in comp.attrs])))
    return payoff


def sust_estimate(cplan: ComponentPlan, n: int, seed=0) -> float:
    return seeded_mean(lambda rng: sust_trial(cplan, rng), seed, "sust", 0, n)
