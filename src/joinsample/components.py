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

ComponentPlan resolves once what the trials look up: each component's
record (_Star, _Cycle) and the cross edges' probes hold indexes and degree
probes (estimators._probe) only, never a degree or a value, so emptying
_inc leaves it cold. A drawn row's multiplicity is counted by the descent
that drew it (TrieIndex._descend with a depth).

A trial is one pass over the components' records, each binding its draws
into the trial's one assignment, on which SSTE then probes the cross
edges; SUST's attempt returns that assignment. A star's center draw is a
row of its first edge. When the center leads that row's index, the descent
holds the node under the center (TrieIndex._descend's hold): its row count
is the first spoke's degree, and the first spoke's row is drawn from it
(_descend's start), so the center is walked to once. Every other spoke
walks once for its degree and draws from the node it reached.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from .estimators import Plan, _degree, _probe, seeded_mean
from .queries import (
    Hypergraph, QueryError, bound_first_index, half_integral_cover, relation_sizes,
)
from .relations import View


@dataclass
class Component:
    kind: str            # "cycle" or "star"
    attrs: list          # cycle: vertex sequence; star: [center, *leaves]
    edges: list          # cycle: edges[i] joins attrs[i], attrs[i+1 mod L]
    rec: object = field(default=None, repr=False, compare=False)  # _Star or _Cycle


class _Star:
    """A star's resolved draws; every edge is binary (half_integral_cover).
    attr: the center. roots: per edge, the index with nothing bound, which
    draws a row of the whole relation; center: the center's place in
    roots[0]'s order. spokes: per edge, (its index bound on the center,
    whose order is (center, leaf), which draws the spoke's row; the leaf).
    shared: the center leads roots[0]'s order and spokes[0] reads the same
    trie, so SSTE's center draw passes the node under the center, whose row
    count is the first spoke's degree and from which the first spoke's row
    is drawn, with no walk."""

    __slots__ = ("attr", "roots", "center", "spokes", "shared")

    def __init__(self, plan, comp):
        self.attr = center = comp.attrs[0]
        self.roots = tuple(bound_first_index(plan.db, e, ()) for e in comp.edges)
        self.center = self.roots[0].order.index(center)
        spokes = [bound_first_index(plan.db, e, (center,)) for e in comp.edges]
        self.spokes = tuple((idx, idx.order[1]) for idx in spokes)
        self.shared = self.center == 0 and spokes[0].root is self.roots[0].root


class _Cycle:
    """An odd cycle's resolved draws (seq = attrs, L = len(seq)). roots: the
    unbound index of each alternate edge edges[2j], j < (L-1)/2, which draws
    its row. stitches: the probes of edges[2j-1], 0 < j < (L-1)/2, with both
    ends bound. back: the back edge's index bound on seq[0], which w =
    seq[L-1] follows. close: edges[-2]'s probe, both ends bound. heavy_root,
    heavy: the back edge's unbound index and its probe with both ends bound
    (SUST's heavy start)."""

    __slots__ = ("roots", "stitches", "back", "close", "heavy_root", "heavy")

    def __init__(self, plan, comp):
        seq, edges, db = comp.attrs, comp.edges, plan.db
        n = (len(seq) - 1) // 2
        self.roots = tuple(bound_first_index(db, edges[2 * j], ()) for j in range(n))
        self.stitches = tuple(_probe(plan, edges[2 * j - 1], edges[2 * j - 1].attrs)
                              for j in range(1, n))
        self.back = bound_first_index(db, edges[-1], (seq[0],))
        self.close = _probe(plan, edges[-2], edges[-2].attrs)
        self.heavy_root = bound_first_index(db, edges[-1], ())
        self.heavy = _probe(plan, edges[-1], edges[-1].attrs)


class ComponentPlan:
    """Half-integral component plan; raises QueryError when the optimal
    cover is not half-integral or a cycle precondition fails."""

    def __init__(self, db, query: Hypergraph):
        self.db = db
        self.query = query
        sizes = relation_sizes(db, query)
        self.empty = any(n == 0 for n in sizes.values())
        self.plan = None
        self.components = []
        self.cross_edges = []
        self.fallback = False
        self._cross = ()
        self._first_column = {}   # cycle relation -> index incidence walks
        self._inc = {}
        if self.empty:
            return
        cover, comps = half_integral_cover(query, sizes, db)
        self.plan = Plan(db, query, cover=cover)
        support = {e for e, w in cover.weights.items() if w}
        self.cross_edges = [e for e in query.edges if e.eid not in support]
        self.fallback = bool(self.cross_edges)
        by_id = {e.eid: e for e in query.edges}
        self._cross = tuple(_probe(self.plan, e, e.attrs) for e in self.cross_edges)
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
                comp = Component("cycle", list(attrs), edges)
                comp.rec = _Cycle(self.plan, comp)
                self.components.append(comp)
                self._first_column[rel.name] = bound_first_index(
                    db, edges[0], edges[0].attrs[:1])
            else:
                center, leaves = attrs, []
                for e in edges:
                    leaves.extend(a for a in e.attrs if a != center)
                comp = Component("star", [center] + leaves, edges)
                comp.rec = _Star(self.plan, comp)
                self.components.append(comp)

    def incidence(self, relname, value) -> int:
        """Rows of the relation carrying the value in either column."""
        key = (relname, value)
        hit = self._inc.get(key)
        self.db.ops.n += 1
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
    kappa sequence the least among its images? Each value's kappa is read
    once; the meter is charged for all (2L+1)·L reads, the sequence's and
    each image's, as a lookup per image value would. kappa is one-to-one,
    so the images of the kappa sequence are those of the values."""
    kseq = [cplan.kappa(relname, v) for v in vals]
    cplan.db.ops.n += 2 * len(kseq) * len(kseq)
    images = _dihedral_images(kseq)
    return images[0] == min(images), len(set(images))


def _draw_row(idx, rng, a):
    """Bind a uniform row of idx's relation into the assignment a; returns
    the row's multiplicity, which the descent counts: two ops, the draw's
    and the multiplicity probe's."""
    row, mult = idx._descend([], rng, len(idx.order))
    a.update(zip(idx.order, row))
    return mult


def _cycle_start(cplan, comp, rng, canonical, a=None):
    """The cycle walk up to its last vertex, shared by SSTE and SUST.

    Draw rows of the (L-1)/2 alternate edges (edges[2j] joins seq[2j],
    seq[2j+1]), drop the draw when canonical and seq[0]'s kappa is not the
    least of the drawn vertices, then check the stitching edges
    edges[2j-1]. Binds seq[:L-1] into a (a fresh dict when None) and
    returns (a, 1/P of the rows), or None.
    """
    seq, rec = comp.attrs, comp.rec
    relname = comp.edges[0].relation
    nrel = len(cplan.db.relation(relname))
    a = {} if a is None else a
    inv_p = 1.0
    for idx in rec.roots:
        inv_p *= nrel / _draw_row(idx, rng, a)
    if canonical:
        k0 = cplan.kappa(relname, a[seq[0]])
        if any(cplan.kappa(relname, a[v]) < k0 for v in seq[1: 2 * len(rec.roots)]):
            return None
    for probe in rec.stitches:
        if _degree(cplan.plan, probe, a) == 0:
            return None
    return a, inv_p


def _back_view(cplan, comp, a):
    """(view, size) of the last vertex's candidates: pi_w of the back edge
    (joining w = seq[L-1] to seq[0]) under a's start vertex; charges
    max(1, size) ops besides the projection's one."""
    idx = comp.rec.back
    idx._charge()
    view = View(idx, idx._walk((a[comp.attrs[0]],))[0], (comp.attrs[-1],))
    no = view.size()
    cplan.db.ops.n += max(1, no)
    return view, no


def _cycle_sste(cplan, comp, a, rng, canonical, kept=None):
    """One estimate of the cycle component's distinct-answer count, its
    draws bound into a; 0.0 when the walk finds no closed cycle.

    After _cycle_start, batch-sample the last vertex from the back view and
    score each closed canonical cycle by its orbit size. canonical=False
    (fallback regime) draws a single last vertex and skips the kappa
    machinery; the caller checks cross edges on a. kept, when given,
    collects a copy of a for each cycle scored.
    """
    start = _cycle_start(cplan, comp, rng, canonical, a)
    if start is None:
        return 0.0
    inv_p = start[1]
    view, no = _back_view(cplan, comp, a)
    if no == 0:
        return 0.0
    seq, relname = comp.attrs, comp.edges[0].relation
    k = 1
    if canonical:
        k = max(1, math.ceil(no / math.sqrt(len(cplan.db.relation(relname)))))
    total = 0.0
    for _ in range(k):
        (a[seq[-1]],) = view.sample(rng)
        if _degree(cplan.plan, comp.rec.close, a) == 0:   # joins seq[L-2], w
            continue
        orbit = 1.0
        if canonical:
            is_c, orbit = _canonical_weight(cplan, relname, [a[v] for v in seq])
            if not is_c:
                continue
        total += orbit
        if kept is not None:
            kept.append(dict(a))
    return inv_p * no * total / k


def _cycle_trial_sste(cplan, comp, rng, canonical=True):
    """_cycle_sste on an assignment of its own: (weight, [assignments
    scored]), the weight already including 1/P."""
    kept = []
    return _cycle_sste(cplan, comp, {}, rng, canonical, kept), kept


def _star_sste(ops, rec, a, rng):
    """Bind a star's center and one row per spoke into a; returns 1/P of
    the draws, or 0.0 when a spoke has no row under the center.

    The center is a degree-weighted draw: a row of roots[0], of which the
    center is kept. When rec.shared, that descent holds the node under the
    center, whose row count is the first spoke's degree, and the first
    spoke's row is drawn from it; otherwise the first spoke walks to the
    center once. Every other spoke walks once, for its degree and its draw.
    The meter reads as if each probe walked on its own: 2 + 1 ops for the
    center, then 1 + 2 per spoke."""
    root = rec.roots[0]
    if rec.shared:
        row, deg, node = root._descend([], rng, 1, root.root, True)
        c = row[0]
    else:
        row, _ = root._descend([], rng, 2)
        c = row[rec.center]
        node, deg = rec.spokes[0][0]._walk([c])
    ops.n += 2   # the center's degree probe, and the first spoke's
    inv_p = len(root.relation) / deg
    a[rec.attr] = c
    for idx, leaf in rec.spokes:
        if node is None:   # every spoke after the first
            ops.n += 1
            node, deg = idx._walk([c])
            if deg == 0:
                return 0.0
        row, mult = idx._descend([c], rng, 2, node)
        inv_p *= deg / mult
        a[leaf] = row[1]
        node = None
    return inv_p


def _star_trial_sste(cplan, comp, rng):
    """_star_sste on an assignment of its own: (1/P, [assignment]), or
    (0.0, []) when a spoke has no row."""
    a = {}
    w = _star_sste(cplan.db.ops, comp.rec, a, rng)
    return (w, [a]) if w else (0.0, [])


def sste_trial(cplan: ComponentPlan, rng) -> float:
    """One unbiased estimate of the distinct answer count: one pass over
    the components' records, each binding its draws into one assignment,
    on which the cross edges are probed (fallback regime)."""
    if cplan.empty:
        return 0.0
    ops = cplan.db.ops
    canonical = not cplan.fallback
    a = {}
    z = 1.0
    for comp in cplan.components:
        if comp.kind == "cycle":
            w = _cycle_sste(cplan, comp, a, rng, canonical)
        else:
            w = _star_sste(ops, comp.rec, a, rng)
        if w == 0.0:
            return 0.0
        z *= w
    for idx, prefix in cplan._cross:
        ops.n += 1
        if idx._walk([a[x] for x in prefix])[1] == 0:
            return 0.0
    return z


def _check_trials(n) -> None:
    """Raise unless the trial count n of an estimate is at least 1."""
    if n < 1:
        raise ValueError(f"trial count n must be at least 1, got {n}")


def sste_estimate(cplan: ComponentPlan, n: int, seed=0) -> float:
    """Mean of n independent trials under the stable seeding rule."""
    _check_trials(n)
    return seeded_mean(lambda rng: sste_trial(cplan, rng), seed, "sste", 0, n)


def variance_bound_sste(cplan: ComponentPlan, out: float) -> float:
    """Stated worst-case single-trial variance: 2^|attrs| * AGM * OUT."""
    if cplan.empty:
        return 0.0
    return (2 ** len(cplan.query.attributes)) * cplan.plan.agm * out


def _cycle_trial_sust(cplan, comp, rng, a):
    """One attempt at a canonical representative of the cycle component,
    bound into a: after _cycle_start, draw the last vertex w with
    probability 1/(2 sqrt|R|) for each candidate. False on rejection."""
    if _cycle_start(cplan, comp, rng, True, a) is None:
        return False
    seq, rec = comp.attrs, comp.rec
    relname = comp.edges[0].relation
    nrel = len(cplan.db.relation(relname))
    w = seq[-1]
    thresh = 2.0 * math.sqrt(nrel)
    inc0 = cplan.incidence(relname, a[seq[0]])
    if inc0 < thresh:
        view, no = _back_view(cplan, comp, a)
        if no == 0 or rng.random() >= no / thresh:
            return False
        (a[w],) = view.sample(rng)
    else:
        # heavy start: random row, random endpoint, thin to flatten P(c); the
        # relation is symmetric, so the back edge's column order is immaterial
        row, _ = rec.heavy_root._descend([], rng)
        c = a[w] = row[rng.randrange(2)]
        inc_c = cplan.incidence(relname, c)
        if inc_c < inc0 or rng.random() >= math.sqrt(nrel) / inc_c:
            return False
        if _degree(cplan.plan, rec.heavy, a) == 0:
            return False
    if _degree(cplan.plan, rec.close, a) == 0:
        return False
    return _canonical_weight(cplan, relname, [a[v] for v in seq])[0]


def _star_trial_sust(comp, rng, a):
    """One independent row per edge bound into a; True when the centers
    agree."""
    center = comp.attrs[0]
    got = None
    for idx in comp.rec.roots:
        _draw_row(idx, rng, a)
        if got is None:
            got = a[center]
        elif a[center] != got:
            return False
    return True


def sust_sample(cplan: ComponentPlan, rng):
    """One attempt at a uniform draw; None on rejection.

    Star components are uniform over their answers; cycle components are
    uniform over canonical class representatives (every representative has
    probability |R|^{-(L-1)/2} / (2 sqrt(|R|)) exactly). Requires the
    support-only regime and duplicate-free relations. Every component binds
    its draws into the one assignment returned.
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
            got = _cycle_trial_sust(cplan, comp, rng, out)
        else:
            got = _star_trial_sust(comp, rng, out)
        if not got:
            return None
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
    """Mean of n independent sust_trial scores under the stable seeding rule."""
    _check_trials(n)
    return seeded_mean(lambda rng: sust_trial(cplan, rng), seed, "sust", 0, n)
