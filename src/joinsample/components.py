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

sste_trial returns an unbiased estimate of the distinct answer count;
sust_trial emits canonical class representatives, each with the same
probability (needs duplicate-free relations).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

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
        rel = self.db.relation(relname)
        a, b = rel.schema
        # symmetric precondition makes both columns agree
        n = 2 * self.db.index(relname, (a, b))._descend({a: value})[1]
        self._inc[key] = n
        return n

    def kappa(self, relname, value):
        return (self.incidence(relname, value), value)


def _symmetric(rel) -> bool:
    if rel.arity != 2:
        return False
    from collections import Counter
    c = Counter(rel.tuples)
    return all(c[(y, x)] == n for (x, y), n in c.items())


def _simple(rel) -> bool:
    return len(set(rel.tuples)) == len(rel.tuples)


def _dihedral_images(vals):
    L = len(vals)
    out = []
    for r in range(L):
        rot = tuple(vals[r:]) + tuple(vals[:r])
        out.append(rot)
        out.append(tuple(reversed(rot)))
    return out


def _canonical_weight(cplan, relname, vals):
    """(is canonical, orbit size) for the value sequence of a cycle."""
    def kseq(seq):
        return tuple(cplan.kappa(relname, v) for v in seq)

    images = _dihedral_images(vals)
    own = kseq(tuple(vals))
    best = min(kseq(im) for im in images)
    return own == best, len(set(images))


def _edge_pair_deg(cplan, edge, u, a, w, b) -> int:
    return cplan.plan.edge_degree(edge, {u: a, w: b})


def _row_for(cplan, edge, rng):
    """Uniform row of the edge's relation; (assignment fragment, multiplicity)."""
    idx = bound_first_index(cplan.db, edge, {})
    row = idx.sample_row({}, rng)
    frag = dict(zip(idx.order, row))
    mult = cplan.plan.edge_degree(edge, frag)
    return frag, mult


def _cycle_trial_sste(cplan, comp, rng, canonical=True):
    """One estimate of the cycle component's distinct-answer count.

    Draw (L-1)/2 non-adjacent edge rows, check the stitching edges, then
    batch-sample the last vertex from the neighborhood of the start vertex.
    canonical=False (fallback regime) draws a single last vertex and skips
    the kappa machinery; the caller checks cross edges on the assignment.
    Returns (weight, [assignments]) with weight already including 1/P.
    """
    seq, edges = comp.attrs, comp.edges
    L = len(seq)
    relname = edges[0].relation
    nrel = len(cplan.db.relation(relname))
    n = (L - 1) // 2
    a = {}
    inv_p = 1.0
    for j in range(n):
        e = edges[2 * j]                      # joins seq[2j], seq[2j+1]
        frag, mult = _row_for(cplan, e, rng)
        a.update(frag)
        inv_p *= nrel / mult
    if canonical:
        k0 = cplan.kappa(relname, a[seq[0]])
        if any(cplan.kappa(relname, a[v]) < k0 for v in seq[1: 2 * n]):
            return 0.0, []
    for j in range(1, n):
        e = edges[2 * j - 1]                  # joins seq[2j-1], seq[2j]
        if _edge_pair_deg(cplan, e, seq[2 * j - 1], a[seq[2 * j - 1]],
                          seq[2 * j], a[seq[2 * j]]) == 0:
            return 0.0, []
    # last vertex w = seq[L-1]; candidates from the edge back to seq[0]
    w = seq[L - 1]
    e_back = edges[L - 1]                     # joins w, seq[0]
    e_fwd = edges[L - 2]                      # joins seq[L-2], w
    bound = {seq[0]: a[seq[0]]}
    idx = bound_first_index(cplan.db, e_back, bound)
    view = idx.project((w,), bound, dedup=True)
    no = view.size()
    cplan.db.ops.add(max(1, no))
    if no == 0:
        return 0.0, []
    k = max(1, math.ceil(no / math.sqrt(nrel))) if canonical else 1
    total = 0.0
    kept = []
    for _ in range(k):
        (c,) = view.sample(rng)
        if _edge_pair_deg(cplan, e_fwd, seq[L - 2], a[seq[L - 2]], w, c) == 0:
            continue
        full = dict(a)
        full[w] = c
        if canonical:
            vals = [full[v] for v in seq]
            is_c, orbit = _canonical_weight(cplan, relname, vals)
            if not is_c:
                continue
            total += orbit
        else:
            total += 1.0
        kept.append(full)
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
    seq, edges = comp.attrs, comp.edges
    L = len(seq)
    relname = edges[0].relation
    nrel = len(cplan.db.relation(relname))
    n = (L - 1) // 2
    a = {}
    for j in range(n):
        frag, _ = _row_for(cplan, edges[2 * j], rng)
        a.update(frag)
    k0 = cplan.kappa(relname, a[seq[0]])
    if any(cplan.kappa(relname, a[v]) < k0 for v in seq[1: 2 * n]):
        return None
    for j in range(1, n):
        e = edges[2 * j - 1]
        if _edge_pair_deg(cplan, e, seq[2 * j - 1], a[seq[2 * j - 1]],
                          seq[2 * j], a[seq[2 * j]]) == 0:
            return None
    w = seq[L - 1]
    e_back = edges[L - 1]
    e_fwd = edges[L - 2]
    thresh = 2.0 * math.sqrt(nrel)
    inc0 = cplan.incidence(relname, a[seq[0]])
    if inc0 < thresh:
        bound = {seq[0]: a[seq[0]]}
        idx = bound_first_index(cplan.db, e_back, bound)
        view = idx.project((w,), bound, dedup=True)
        no = view.size()
        cplan.db.ops.add(max(1, no))
        if no == 0 or rng.random() >= no / thresh:
            return None
        (c,) = view.sample(rng)
    else:
        # heavy start: random row, random endpoint, thin to flatten P(c)
        idx = cplan.db.index(relname, tuple(cplan.db.relation(relname).schema))
        row = idx.sample_row({}, rng)
        c = row[rng.randrange(2)]
        inc_c = cplan.incidence(relname, c)
        if inc_c < inc0:
            return None
        if rng.random() >= math.sqrt(nrel) / inc_c:
            return None
        bound = {seq[0]: a[seq[0]], w: c}
        if cplan.plan.edge_degree(e_back, bound) == 0:
            return None
    if _edge_pair_deg(cplan, e_fwd, seq[L - 2], a[seq[L - 2]], w, c) == 0:
        return None
    full = dict(a)
    full[w] = c
    vals = [full[v] for v in seq]
    is_c, _ = _canonical_weight(cplan, relname, vals)
    return full if is_c else None


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
    for comp in cplan.components:
        for e in comp.edges:
            rel = cplan.db.relation(e.relation)
            if not _simple(rel):
                raise QueryError(f"relation {rel.name!r} has duplicate rows")
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


def _sust_inverse_probability(cplan: ComponentPlan) -> float:
    inv_p = getattr(cplan, "_sust_inv_p", None)
    if inv_p is not None:
        return inv_p
    inv_p = 1.0
    for comp in cplan.components:
        if comp.kind == "cycle":
            nrel = len(cplan.db.relation(comp.edges[0].relation))
            half = (len(comp.attrs) - 1) // 2
            inv_p *= (float(nrel) ** half) * 2.0 * math.sqrt(nrel)
        else:
            for e in comp.edges:
                inv_p *= len(cplan.db.relation(e.relation))
    cplan._sust_inv_p = inv_p
    return inv_p


def sust_trial(cplan: ComponentPlan, rng) -> float:
    """One attempt scored by inverse class probability; unbiased for the
    distinct answer count."""
    if cplan.empty:
        return 0.0
    got = sust_sample(cplan, rng)
    if got is None:
        return 0.0
    payoff = _sust_inverse_probability(cplan)
    for comp in cplan.components:
        # a class representative stands for its whole dihedral orbit
        if comp.kind == "cycle":
            vals = [got[v] for v in comp.attrs]
            payoff *= _canonical_weight(cplan, comp.edges[0].relation, vals)[1]
    return payoff


def sust_estimate(cplan: ComponentPlan, n: int, seed=0) -> float:
    return seeded_mean(lambda rng: sust_trial(cplan, rng), seed, "sust", 0, n)
