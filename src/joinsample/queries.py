"""Join queries as hypergraphs, with exact fractional edge covers.

The cover LP (minimize Σ x_F·log|R_F| subject to Σ_{F∋v} x_F ≥ 1 and
x_F ≥ 0) is solved exactly over rationals by enumerating basic feasible
solutions; queries are tiny, so the polyhedron has few vertices. Each
candidate vertex is the solution of m tight rows with 0/1 coefficients,
found by fraction-free (Bareiss) elimination in integers; only its m
weights become Fractions. Objectives are compared without floats by
raising the integer sizes to L·x_F powers (L = lcm of the exponent
denominators) and comparing the resulting big integers, so tie-breaking is
deterministic: among optima, the lexicographically smallest weight vector
wins.

No x_F ≤ 1 rows are needed: costs log|R_F| are ≥ 0, so lowering a weight
above 1 to 1 keeps a cover feasible at no higher cost. The lexicographically
smallest optimum is a vertex with every weight ≤ 1, hence also the
lexicographically smallest optimum of the boxed LP.

For binary edges that vertex is half-integral with cycle/star support: its
½-weights form vertex-disjoint odd cycles of tight nodes, which no other
positive edge touches, and every weight-1 edge has an endpoint it alone
covers (else lowering it gives a lexicographically smaller optimum), so the
weight-1 edges form stars.

AGM values are kept as a float in the log domain. Residual AGM products plug
semijoin degrees into the same fixed cover.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


class QueryError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    eid: int
    attrs: tuple  # attribute names, in relation schema order
    relation: str

    @cached_property
    def attr_set(self):
        return frozenset(self.attrs)


class Hypergraph:
    def __init__(self, attributes, edges):
        self.attributes = tuple(attributes)
        self.edges = [
            Edge(i, tuple(attrs), rel) for i, (attrs, rel) in enumerate(edges)
        ]
        if not self.edges:
            raise QueryError("query has no edges")
        if len(set(self.attributes)) != len(self.attributes):
            raise QueryError(f"attributes repeat a name: {list(self.attributes)}")
        covered = set()
        for e in self.edges:
            if not e.attrs:
                raise QueryError(f"edge {e.eid} is empty")
            if len(set(e.attrs)) != len(e.attrs):
                raise QueryError(f"edge {e.eid} repeats an attribute: {e.attrs}")
            unknown = set(e.attrs) - set(self.attributes)
            if unknown:
                raise QueryError(f"edge {e.eid} uses undeclared attributes {sorted(unknown)}")
            covered |= set(e.attrs)
        missing = set(self.attributes) - covered
        if missing:
            raise QueryError(f"attributes {sorted(missing)} appear in no edge")

    def edges_touching(self, attrs):
        """ℰ_I: edges intersecting the attribute set."""
        attrs = set(attrs)
        return [e for e in self.edges if attrs & e.attr_set]

    def edges_containing(self, attr):
        return [e for e in self.edges if attr in e.attr_set]

    def primal_neighbors(self):
        nb = {a: set() for a in self.attributes}
        for e in self.edges:
            for a in e.attrs:
                nb[a] |= e.attr_set - {a}
        return nb


def connected_parts(nodes, neighbours) -> list:
    """The connected parts of the graph on `nodes` whose edges join each
    node to its `neighbours[node]`, ignoring neighbours outside `nodes`,
    as frozensets in order of their least node."""
    left = set(nodes)
    parts = []
    for start in sorted(left):
        if start in left:
            left.remove(start)
            part, todo = [start], [start]
            while todo:
                near = left.intersection(neighbours.get(todo.pop(), ()))
                left -= near
                part += near
                todo += near
            parts.append(frozenset(part))
    return parts


def validate(query: Hypergraph, db) -> None:
    """Check every edge binds a known relation of matching arity."""
    for e in query.edges:
        try:
            rel = db.relation(e.relation)
        except KeyError:
            raise QueryError(f"edge {e.eid} binds unknown relation {e.relation!r}") from None
        if rel.arity != len(e.attrs):
            raise QueryError(
                f"edge {e.eid}: relation {e.relation!r} has arity {rel.arity}, "
                f"edge has {len(e.attrs)}"
            )


def edge_index(db, edge: Edge, order):
    """TrieIndex over edge's relation along `order`, in QUERY attribute
    names: the relation's columns are named by the edge's attrs,
    positionally. Edges over one relation that read the same column order
    get relabellings of one shared trie (see `Database.index`)."""
    return db.index(edge.relation, order, edge.attrs)


def bound_first_index(db, edge: Edge, bound, nxt=None):
    """Index of edge's relation whose order puts the attributes bound in
    `bound` first (sorted), then `nxt` when given, then the rest (sorted).

    Any set of bound attributes is then a prefix of the order, and `nxt`
    directly follows it, ready for a projection. The one rule for a probe's
    index: the database keeps its answer per (relation, edge attributes,
    bound attributes, nxt), so every plan, join and check on that database
    finds each index once.
    """
    key = (edge.relation, edge.attrs, tuple([a for a in edge.attrs if a in bound]), nxt)
    idx = db.bound_first.get(key)
    if idx is None:
        order = sorted(edge.attrs, key=lambda a: (a not in bound, a != nxt, a))
        idx = db.bound_first[key] = edge_index(db, edge, tuple(order))
    return idx


def edge_projections(db, edges, a, s):
    """π_a(R_F ⋉ s) for each edge F of `edges`, which all contain a, in that
    order: one View per edge, read off bound_first_index(db, F, s, a), whose
    keys are a's values and whose counts are their supporting rows. Only
    generic_join, which picks a from the data, projects here; one op each."""
    return [bound_first_index(db, e, s, a).project((a,), s) for e in edges]


@dataclass
class Cover:
    """Exact-rational fractional edge cover."""

    weights: dict  # eid -> Fraction in [0, 1]

    def rho(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def feasible(self, query: Hypergraph) -> bool:
        for a in query.attributes:
            if sum(self.weights[e.eid] for e in query.edges_containing(a)) < 1:
                return False
        return all(0 <= x <= 1 for x in self.weights.values())


@dataclass
class AgmValue:
    log: float

    @property
    def value(self) -> float:
        return math.exp(self.log)


def _objective_key(sizes_by_eid, weights):
    """Exact comparison key for Π size^x: integer Π size^(L·x)."""
    denom_lcm = 1
    for x in weights.values():
        denom_lcm = denom_lcm * x.denominator // math.gcd(denom_lcm, x.denominator)
    prod = 1
    for eid, x in weights.items():
        e = x * denom_lcm
        prod *= sizes_by_eid[eid] ** int(e)
    return denom_lcm, prod


def _compare_objectives(sizes_by_eid, wa, wb):
    """-1/0/1 for Π s^wa vs Π s^wb: float screen, exact big-int settle."""
    la = sum(float(x) * math.log(sizes_by_eid[eid]) for eid, x in wa.items())
    lb = sum(float(x) * math.log(sizes_by_eid[eid]) for eid, x in wb.items())
    if abs(la - lb) > 1e-9:
        return -1 if la < lb else 1
    ka, pa = _objective_key(sizes_by_eid, wa)
    kb, pb = _objective_key(sizes_by_eid, wb)
    left = pa ** kb
    right = pb ** ka
    return (left > right) - (left < right)


def fractional_edge_cover(query: Hypergraph, sizes) -> Cover:
    """Exact optimal cover minimizing Π |R_F|^{x_F} (sizes keyed by eid).

    Enumerates basic feasible solutions: every vertex is the unique solution
    of m tight rows drawn from the cover rows and the rows x_F = 0 (no
    x_F = 1 rows; see the module docstring), solved in integers by
    `_solve_exact`. Deterministic tie-break: lexicographically smallest
    weight vector (by eid) among optima.
    """
    m = len(query.edges)
    sizes_by_eid = {e.eid: int(sizes[e.eid]) for e in query.edges}
    for eid, n in sizes_by_eid.items():
        if n < 1:
            raise QueryError(f"edge {eid} has size {n} < 1")
    rows = []
    for a in query.attributes:
        coeffs = [1 if a in e.attr_set else 0 for e in query.edges]
        rows.append((coeffs, 1))
    for j in range(m):
        coeffs = [0] * m
        coeffs[j] = 1
        rows.append((coeffs, 0))

    best = None
    for combo in itertools.combinations(range(len(rows)), m):
        sol = _solve_exact([rows[i] for i in combo], m)
        if sol is None:
            continue
        cand = Cover({e.eid: sol[j] for j, e in enumerate(query.edges)})
        if not cand.feasible(query):
            continue
        if best is None:
            best = cand
            continue
        cmp = _compare_objectives(sizes_by_eid, cand.weights, best.weights)
        if cmp < 0 or (cmp == 0 and _lex_key(cand) < _lex_key(best)):
            best = cand
    if best is None:
        raise QueryError("cover LP has no feasible vertex (unreachable for valid queries)")
    return best


def _lex_key(cover: Cover):
    return tuple(cover.weights[eid] for eid in sorted(cover.weights))


def _solve_exact(tight_rows, m):
    """Solve the m×m system of integer rows (coeffs, rhs) exactly; None
    when singular.

    Fraction-free Gauss–Jordan (Bareiss): eliminating column k replaces
    every other row by (p·row − row[k]·pivot row) / prev, where p is this
    pivot and prev the one before. Each entry is then a minor of the
    augmented matrix, so every division is exact and the entries stay
    integers; at the end each diagonal entry is the last pivot, ±det, and
    x_i = row_i[m] / det is the only Fraction built per value. Pivots are
    the ones elimination over rationals takes (the first nonzero entry at
    or below the diagonal), so a system is reported singular exactly when
    that elimination finds it so, and otherwise gets the same solution.
    """
    a = [[*coeffs, rhs] for coeffs, rhs in tight_rows]
    prev = 1
    for k in range(m):
        piv = next((r for r in range(k, m) if a[r][k]), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(m):
            f = a[i][k]
            if i != k and (f or p != prev):  # else the row is unchanged
                a[i] = [(p * v - f * w) // prev for v, w in zip(a[i], pivot_row)]
        prev = p
    return [Fraction(a[i][m], prev) for i in range(m)]


def agm(cover: Cover, sizes) -> AgmValue:
    log = 0.0
    for eid, x in sorted(cover.weights.items()):
        if x:
            log += float(x) * math.log(int(sizes[eid]))
    return AgmValue(log)


def residual_agm(db, query: Hypergraph, cover: Cover, remaining, s) -> float:
    """Π_{F ∈ ℰ_𝒪} |R_F ⋉ s|^{x_F} under the original cover; 0.0 if any
    semijoin with positive weight is empty."""
    log = 0.0
    for e in query.edges_touching(remaining):
        x = cover.weights[e.eid]
        bound = {a: s[a] for a in e.attrs if a in s}
        deg = bound_first_index(db, e, bound).degree(bound)
        if deg == 0:
            return 0.0
        if x:
            log += float(x) * math.log(deg)
    return math.exp(log)


def half_integral_cover(query: Hypergraph, sizes=None):
    """Optimal cover with x_F ∈ {0, 1/2, 1} whose support splits into
    vertex-disjoint odd cycles (all halves) and stars (all ones).

    Only defined for binary edges. Returns (Cover, components) where each
    component is ("cycle", [attr cycle sequence], [eids in cycle order]) or
    ("star", center attr, [eids]). The cover is fractional_edge_cover's,
    which for binary edges already has this shape (see the module docstring).
    """
    for e in query.edges:
        if len(e.attrs) != 2:
            raise QueryError(f"edge {e.eid} is not binary")
    if sizes is None:
        sizes = {e.eid: 2 for e in query.edges}
    cover = fractional_edge_cover(query, sizes)
    comps = _support_components(query, cover)
    if comps is None:
        raise QueryError("no half-integral optimum with cycle/star support (unexpected)")
    return cover, comps


def _support_components(query: Hypergraph, cover: Cover):
    """Split supp(x) into odd cycles (weight 1/2) and stars (weight 1);
    None when the support has any other shape."""
    support = [e for e in query.edges if cover.weights[e.eid] > 0]
    adj = {}
    for e in support:
        a, b = e.attrs
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    comps = []
    nbrs = {v: [w for w, _ in adj[v]] for v in adj}
    for attrs in connected_parts(adj, nbrs):
        edges = {e for e in support if e.attrs[0] in attrs}
        ws = {cover.weights[e.eid] for e in edges}
        if ws == {Fraction(1, 2)}:
            cyc = _as_odd_cycle(attrs, edges, adj)
            if cyc is None:
                return None
            comps.append(("cycle",) + cyc)
        elif ws == {Fraction(1)}:
            star = _as_star(attrs, edges)
            if star is None:
                return None
            comps.append(("star",) + star)
        else:
            return None
    comps.sort(key=lambda c: min(c[1]) if c[0] == "cycle" else c[1])
    return comps


def _as_odd_cycle(attrs, edges, adj):
    if len(edges) != len(attrs) or len(edges) % 2 == 0 or len(edges) < 3:
        return None
    deg = {a: 0 for a in attrs}
    for e in edges:
        for a in e.attrs:
            deg[a] += 1
    if set(deg.values()) != {2}:
        return None
    start = min(attrs)
    seq = [start]
    used = set()
    cur = start
    nexts = sorted(((w, e) for w, e in adj[cur] if e in edges),
                   key=lambda t: (t[0], t[1].eid))
    cur_edge = nexts[0][1]
    eids = []
    while True:
        used.add(cur_edge)
        eids.append(cur_edge.eid)
        nxt = next(a for a in cur_edge.attrs if a != cur)
        if nxt == start:
            break
        seq.append(nxt)
        cur = nxt
        cur_edge = next(e for _, e in sorted(adj[cur], key=lambda t: (t[0], t[1].eid))
                        if e in edges and e not in used)
    if len(seq) != len(attrs):
        return None
    return seq, eids


def _as_star(attrs, edges):
    if len(edges) == 1:
        e = next(iter(edges))
        center = min(e.attrs)
        return center, [e.eid]
    common = None
    for e in edges:
        common = e.attr_set if common is None else common & e.attr_set
    if not common:
        return None
    center = min(common)
    return center, sorted(e.eid for e in edges)


@dataclass
class Query:
    """Parsed query file: hypergraph plus optional projection and GHD hint."""

    hypergraph: Hypergraph
    projection: tuple | None = None
    user_ghd: dict | None = None


def _names(value, field) -> tuple:
    """value, a JSON array of strings, as a tuple; QueryError otherwise."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise QueryError(f"{field} must be a JSON array of strings, got {value!r}")
    return tuple(value)


def parse_query_text(text: str) -> Query:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QueryError(f"query file is not valid JSON: {exc}") from exc
    try:
        attrs = _names(doc["attributes"], "attributes")
        edges = [(_names(e["vars"], f"edge {i} vars"), e["relation"])
                 for i, e in enumerate(doc["edges"])]
    except (KeyError, TypeError) as exc:
        raise QueryError(f"query file missing field: {exc}") from exc
    for i, (_, relation) in enumerate(edges):
        if not isinstance(relation, str):
            raise QueryError(f"edge {i} relation must be a JSON string: {relation!r}")
    hg = Hypergraph(attrs, edges)
    projection = _names(doc.get("projection") or [], "projection") or None
    if projection and len(set(projection)) != len(projection):
        raise QueryError(f"projection repeats a name: {list(projection)}")
    if projection and not set(projection) <= set(hg.attributes):
        raise QueryError("projection uses undeclared attributes")
    return Query(hg, projection, doc.get("ghd"))


def load_query_file(path) -> Query:
    with open(path, encoding="utf-8") as fh:
        return parse_query_text(fh.read())


def relation_sizes(db, query: Hypergraph) -> dict:
    return {e.eid: len(db.relation(e.relation)) for e in query.edges}
