"""Worst-case-optimal join by recursive attribute elimination.

generic_join binds one attribute at a time: candidates come from the smallest
projection view among the covering edges, and every other covering edge
filters by a degree probe. The result is the set of answers (assignments to
the requested attributes) of ⋈_F π_𝒪(R_F ⋉ s).

brute_force_join is the deliberately naive reference: backtracking over the
edge list, keeping bag multiplicity (every combination of base rows counts
once). It exists so everything else can be checked against it.
"""

from __future__ import annotations

from .queries import Hypergraph, edge_projections
from .relations import View


def _pick_attr(db, query, remaining, s):
    """The remaining attribute whose smallest projection among its covering
    edges is smallest, with those projections sorted by size (a stable sort,
    so ties stay in eid order)."""
    best = None
    for a in sorted(remaining):
        views = sorted(edge_projections(db, query.edges_containing(a), a, s), key=View.size)
        if best is None or views[0].size() < best[0]:
            best = (views[0].size(), a, views)
    return best[1:]


def generic_join(db, query: Hypergraph, remaining=None, s=None):
    """Set of answer tuples over sorted(remaining).

    s must already satisfy every edge it fully binds; edges disjoint from
    `remaining` are taken as satisfied.
    """
    remaining = frozenset(query.attributes if remaining is None else remaining)
    s = dict(s or {})
    out_attrs = tuple(sorted(remaining))
    results = set()
    for binding in _enumerate(db, query, remaining, s):
        results.add(tuple(binding[a] for a in out_attrs))
    return results


def generic_join_exists(db, query: Hypergraph, remaining, s) -> bool:
    """Whether s extends to an answer over remaining."""
    for _ in _enumerate(db, query, frozenset(remaining), dict(s)):
        return True
    return False


def _enumerate(db, query, remaining, s):
    if not remaining:
        yield s
        return
    attr, views = _pick_attr(db, query, remaining, s)
    smallest = views[0]
    rest = [view.count_of for view in views[1:]]
    sub_remaining = remaining - {attr}
    for (val,) in smallest:
        if all(count((val,)) for count in rest):
            s[attr] = val
            yield from _enumerate(db, query, sub_remaining, s)
    s.pop(attr, None)


def brute_force_join(db, query: Hypergraph):
    """Bag of full answers by backtracking over edges; returns (attrs, rows).

    Each consistent combination of base rows contributes one entry, so
    len(rows) is the bag join size and len(set(rows)) the distinct count.
    """
    attrs = tuple(sorted(query.attributes))
    rows = []
    edges = list(query.edges)

    def recurse(i, binding):
        if i == len(edges):
            rows.append(tuple(binding[a] for a in attrs))
            return
        e = edges[i]
        rel = db.relation(e.relation)
        for t in rel.tuples:
            ok = True
            added = []
            for a, v in zip(e.attrs, t):
                if a in binding:
                    if binding[a] != v:
                        ok = False
                        break
                else:
                    binding[a] = v
                    added.append(a)
            if ok:
                recurse(i + 1, binding)
            for a in added:
                del binding[a]

    recurse(0, {})
    return attrs, rows
