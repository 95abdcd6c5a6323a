"""Generalized hypertree decompositions and decomposition-based estimation.

A decomposition assigns each tree node a bag of attributes such that every
query edge fits inside some bag and, for every attribute, the nodes whose
bags contain it form a connected subtree. Each node then carries the join of
the edge projections onto its bag, and the full answer count is the
annotated join over the tree: per node, a table keyed by the attributes
shared with other bags whose annotations count the node answers extending
the key. Tables combine bottom-up by marginalize-then-join.

Annotations come from three sources:
  - exact group counts when one edge covers the whole bag (no sampling),
  - sampled estimates (any strategy from estimators) otherwise,
  - plain enumeration for the width computation, which never touches data:
    node width is the unweighted fractional edge cover number of the bag.

Widths are exact rationals. The search takes the decomposition of each of
the n! vertex elimination orderings of the attributes. Every tree
decomposition is refined by one of these and rho* never grows on a subset of
a bag, so the least width found is the fractional hypertree width (fhtw).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .estimators import GJSample, Plan, generic_card_est, seeded_mean
from .queries import (
    Hypergraph,
    QueryError,
    connected_parts,
    fractional_edge_cover,
    residual_agm,
    validate,
)
from .wcoj import generic_join


@dataclass
class GHD:
    bags: list          # frozensets of attributes
    tree_edges: list    # (i, j) index pairs
    root: int = 0

    def __post_init__(self):
        n = len(self.bags)
        if len(self.tree_edges) != n - 1:
            raise QueryError(f"decomposition tree on {n} bags needs {n - 1} "
                             f"edges, got {len(self.tree_edges)}")
        self.adj = {i: set() for i in range(n)}
        for i, j in self.tree_edges:
            self.adj[i].add(j)
            self.adj[j].add(i)
        self.parent = {self.root: None}
        order = [self.root]
        seen = {self.root}
        for node in order:
            for nb in sorted(self.adj[node]):
                if nb not in seen:
                    seen.add(nb)
                    self.parent[nb] = node
                    order.append(nb)
        if len(order) != n:
            raise QueryError("decomposition tree is not connected")
        self.topdown = order
        self.bottomup = list(reversed(order))

    def signature(self):
        bags = [tuple(sorted(b)) for b in self.bags]
        edges = tuple(sorted(tuple(sorted((bags[i], bags[j]))) for i, j in self.tree_edges))
        return (tuple(sorted(bags)), edges)

    def shared_attrs(self, t) -> frozenset:
        """G(t): attributes of bag t that occur in some other bag."""
        others = set()
        for i, b in enumerate(self.bags):
            if i != t:
                others |= b
        return frozenset(self.bags[t] & others)

    def top_node(self, attr) -> int:
        for node in self.topdown:
            if attr in self.bags[node]:
                return node
        raise KeyError(attr)


def check_ghd(query: Hypergraph, ghd: GHD) -> None:
    """Raise unless every edge fits in a bag and subtrees are connected."""
    for e in query.edges:
        if not any(e.attr_set <= b for b in ghd.bags):
            raise QueryError(f"edge {e.eid} {tuple(e.attrs)} fits in no bag")
    for a in query.attributes:
        holding = {i for i, b in enumerate(ghd.bags) if a in b}
        if len(connected_parts(holding, ghd.adj)) > 1:
            raise QueryError(f"attribute {a} spans a disconnected set of bags")
    covered = set().union(*ghd.bags) if ghd.bags else set()
    if set(query.attributes) - covered:
        raise QueryError("bags do not cover every attribute")


def _elimination_ghd(nbrs, order) -> GHD:
    """The decomposition one elimination ordering produces.

    Eliminating v gives the bag {v} plus v's neighbours in the fill graph,
    which then become a clique; the bag's parent is the bag of the earliest
    eliminated of those neighbours, which holds them all. A bag contained in
    its parent or child is merged into it; children come before parents in
    the ordering, so one pass in that order leaves no such pair.
    """
    pos = {v: i for i, v in enumerate(order)}
    fill = {v: set(nb) for v, nb in nbrs.items()}
    bags, parent = {}, {}
    for v in order:
        nb = fill.pop(v)
        for u in nb:
            fill[u] |= nb
            fill[u] -= {u, v}
        bags[v] = frozenset(nb | {v})
        parent[v] = min(nb, key=pos.__getitem__, default=None)
    for v in order:
        p = parent[v]
        if p is not None and (bags[v] <= bags[p] or bags[p] <= bags[v]):
            bags[p] |= bags.pop(v)
            for c in bags:
                if parent[c] == v:
                    parent[c] = p
    keys = sorted(bags, key=lambda v: (len(bags[v]), sorted(bags[v])))
    index = {v: i for i, v in enumerate(keys)}
    roots = [v for v in keys if parent[v] is None]
    tree = [(index[v], index[parent[v]]) for v in keys if parent[v] is not None]
    tree += [(index[roots[0]], index[r]) for r in roots[1:]]
    return GHD([bags[v] for v in keys], tree)


def enumerate_ghds(query: Hypergraph) -> list:
    """Distinct decompositions, one per elimination ordering of the
    attributes; duplicates by signature are dropped. Bags are sorted by
    (size, sorted attributes) and node 0 is the root."""
    nbrs = query.primal_neighbors()
    seen = set()
    out = []
    for order in itertools.permutations(sorted(query.attributes)):
        ghd = _elimination_ghd(nbrs, order)
        sig = ghd.signature()
        if sig not in seen:
            seen.add(sig)
            out.append(ghd)
    return out


def rho_star(attrs, query: Hypergraph) -> Fraction:
    """Unweighted fractional edge cover number of the bag.

    Only the maximal edge projections onto the bag enter the cover LP: with
    unit sizes, weight on a projection contained in another covers no more
    than the same weight moved to the larger one.
    """
    attrs = frozenset(attrs)
    inters = {e.attr_set & attrs: e.relation for e in query.edges if e.attr_set & attrs}
    edges = [(tuple(sorted(i)), rel) for i, rel in inters.items()
             if not any(i < j for j in inters)]
    sub = Hypergraph(sorted(attrs), edges)
    sizes = {e.eid: 2 for e in sub.edges}  # constant sizes: objective = sum of x
    cover = fractional_edge_cover(sub, sizes)
    return cover.rho()


def width(ghd: GHD, query: Hypergraph) -> Fraction:
    return max(rho_star(b, query) for b in ghd.bags)


def _widths(query: Hypergraph):
    """(width, ghd) for every enumerated decomposition, each distinct bag's
    rho* computed once."""
    rho = {}
    for ghd in enumerate_ghds(query):
        for b in ghd.bags:
            if b not in rho:
                rho[b] = rho_star(b, query)
        yield max(rho[b] for b in ghd.bags), ghd


def fhtw(query: Hypergraph):
    """(fractional hypertree width, a witness GHD of that width)."""
    w, _, _, ghd = min((w, len(g.bags), g.signature(), g) for w, g in _widths(query))
    return w, ghd


def join_tree(query: Hypergraph):
    """Single-edge-bag join tree via ear removal; None when cyclic."""
    alive = {e.eid: e.attr_set for e in query.edges}
    parent = {}
    while len(alive) > 1:
        found = None
        for eid in sorted(alive):
            rest = [w for w in alive if w != eid]
            shared = alive[eid] & set().union(*(alive[w] for w in rest))
            witness = next((w for w in sorted(rest) if shared <= alive[w]), None)
            if witness is not None:
                found = (eid, witness)
                break
        if found is None:
            return None
        eid, witness = found
        parent[eid] = witness
        del alive[eid]
    root = next(iter(alive))
    index = {e.eid: i for i, e in enumerate(query.edges)}
    bags = [e.attr_set for e in query.edges]
    tree = [(index[c], index[p]) for c, p in parent.items()]
    return GHD(bags, tree, root=index[root])


def project_relation(db, edge, attrs):
    """Key of the deduplicated projection of an edge onto bag attrs, a
    derived relation of db (built once)."""
    return db.projection(edge.relation, edge.attrs, attrs)


def node_query(db, query: Hypergraph, bag) -> Hypergraph:
    """Join of the edge projections onto one bag, over derived relations."""
    bag = frozenset(bag)
    edges = []
    seen = set()
    for e in query.edges_touching(bag):
        inter = tuple(sorted(e.attr_set & bag))
        name = project_relation(db, e, bag)
        if (inter, name) in seen:
            continue
        seen.add((inter, name))
        edges.append((inter, name))
    return Hypergraph(sorted(bag), edges)


def choose_ghd(db, query: Hypergraph) -> GHD:
    """Minimal width first; data sizes only break ties (smallest maximal
    node AGM over projected relations, then fewer nodes, then signature)."""
    best = None
    agm = {}
    for w, ghd in _widths(query):
        if best is not None and w > best[0][0]:
            continue
        for b in ghd.bags:
            if b not in agm:
                agm[b] = Plan(db, node_query(db, query, b)).agm
        key = (w, max(agm[b] for b in ghd.bags), len(ghd.bags), ghd.signature())
        if best is None or key < best[0]:
            best = (key, ghd)
    return best[1]


def group_by_card_est(db, nq: Hypergraph, group_attrs, strategy, budget,
                      seed=0, stream="g") -> dict:
    """Annotated table for one node: exact keys over the shared attributes,
    sampled per-group counts of the node answers extending each key.

    budget: runs averaged per group, or "auto" for ceil(|bag| * residual
    AGM of the ungrouped part), the schedule behind the stated variance
    bound. Each group consumes its own derived random stream.
    """
    if budget != "auto" and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    G = tuple(sorted(group_attrs))
    keys = sorted(generic_join(db, nq, remaining=G))
    # group attrs lead the elimination order: they arrive bound, and every
    # per-edge index order must keep bound attrs as a prefix
    rest = tuple(a for a in nq.attributes if a not in set(G))
    plan = Plan(db, nq, elim_order=G + rest)
    remaining = frozenset(nq.attributes) - set(G)
    table = {}
    for key in keys:
        g = dict(zip(G, key))
        if not remaining:
            table[key] = 1.0
            continue
        if budget == "auto":
            ragm = residual_agm(db, nq, plan.cover, remaining, g)
            runs = max(1, math.ceil(len(nq.attributes) * ragm))
        else:
            runs = budget
        table[key] = seeded_mean(
            lambda rng: generic_card_est(plan, strategy, remaining, g, rng),
            seed, f"{stream}/{'/'.join(map(str, key))}", 0, runs)
    return table


def _marginalize(schema, table, keep):
    idxs = [schema.index(a) for a in keep]
    out = {}
    for key, z in table.items():
        k2 = tuple(key[i] for i in idxs)
        out[k2] = out.get(k2, 0.0) + z
    return tuple(keep), out


def _join_into(schema_p, table_p, schema_c, table_c):
    idxs = [schema_p.index(a) for a in schema_c]
    out = {}
    for key, z in table_p.items():
        sub = tuple(key[i] for i in idxs)
        zc = table_c.get(sub)
        if zc is not None:
            out[key] = z * zc
    return out


def simple_aggro_yannakakis(ghd: GHD, tables) -> float:
    """Fold annotated node tables bottom-up; returns the scalar total.

    tables[t] = (schema tuple, {key: annotation}). Annotations multiply on
    join and sum on marginalization; the root marginalizes to a scalar.
    """
    tables = {t: (tuple(s), dict(d)) for t, (s, d) in tables.items()}
    for t in ghd.bottomup:
        schema, table = tables[t]
        shared = ghd.shared_attrs(t)
        beta = {a for a in shared if ghd.top_node(a) == t}
        keep = [a for a in schema if a not in beta and a in shared]
        schema2, table2 = _marginalize(schema, table, keep)
        parent = ghd.parent[t]
        if parent is None:
            total = 0.0
            for _, z in _marginalize(schema2, table2, [])[1].items():
                total += z
            return total
        ps, pt = tables[parent]
        tables[parent] = (ps, _join_into(ps, pt, schema2, table2))
    raise AssertionError("tree had no root")


def _shortcut_nodes(query: Hypergraph, ghd: GHD) -> dict:
    """Nodes where one edge covers the bag, with the chosen edge: one whose
    attributes equal the bag if any does, else the least eid.

    Dropping the other projections there is sound only if every edge fully
    inside the bag is still enforced at another node: one that samples, or
    one that chose that very edge. Offenders lose the shortcut iteratively.
    """
    chosen = {}
    for t, bag in enumerate(ghd.bags):
        covering = [e for e in query.edges if bag <= e.attr_set]
        if covering:
            chosen[t] = min(covering, key=lambda e: (e.attr_set != bag, e.eid))
    while True:
        demote = None
        for t in sorted(chosen):
            bag = ghd.bags[t]
            for e in query.edges:
                if not (e.attr_set <= bag) or e.eid == chosen[t].eid:
                    continue
                enforced = False
                for t2, bag2 in enumerate(ghd.bags):
                    if t2 == t or not (e.attr_set <= bag2):
                        continue
                    if t2 not in chosen or chosen[t2].eid == e.eid:
                        enforced = True
                        break
                if not enforced:
                    demote = t
                    break
            if demote is not None:
                break
        if demote is None:
            return chosen
        del chosen[demote]


def _shortcut_table(db, query, ghd, t, edge) -> tuple:
    """Exact annotations from the single covering edge: group the dedup'd
    bag projection by the shared attributes and count."""
    bag = ghd.bags[t]
    name = project_relation(db, edge, bag)
    rel = db.relation(name)
    G = tuple(sorted(ghd.shared_attrs(t)))
    idxs = [rel.schema.index(a) for a in G]
    table = {}
    for row in set(rel.tuples):
        key = tuple(row[i] for i in idxs)
        table[key] = table.get(key, 0.0) + 1.0
    db.ops.add(len(rel))
    return G, table


def ghd_card_est(db, query: Hypergraph, ghd: GHD = None, strategy=None,
                 budget=64, seed=0) -> float:
    """Unbiased count estimate through a decomposition.

    Per node: exact keys over the shared attributes; annotations are exact
    when a single edge covers the bag (where sound), sampled otherwise.
    With a join tree (all bags single-edge) the result is the exact count.
    """
    validate(query, db)
    if ghd is None:
        ghd = choose_ghd(db, query)
    else:
        check_ghd(query, ghd)
    strategy = strategy or GJSample()
    shortcuts = _shortcut_nodes(query, ghd)
    tables = {}
    for t, bag in enumerate(ghd.bags):
        if t in shortcuts:
            tables[t] = _shortcut_table(db, query, ghd, t, shortcuts[t])
            continue
        nq = node_query(db, query, bag)
        G = tuple(sorted(ghd.shared_attrs(t)))
        table = group_by_card_est(db, nq, G, strategy, budget,
                                  seed=seed, stream=f"node{t}")
        tables[t] = (G, table)
    return simple_aggro_yannakakis(ghd, tables)
