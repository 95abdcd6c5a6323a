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

from .queries import Hypergraph, bound_first_index


def _pick_attr(db, query, remaining, s, memo):
    """The remaining attribute whose smallest projection among its covering
    edges is smallest, with those projections as (size, eid, view), sorted.
    memo: the call's bound_first_index memo."""
    best = None
    for a in sorted(remaining):
        views = []
        for e in query.edges_containing(a):
            bound = {x: s[x] for x in e.attrs if x in s}
            view = bound_first_index(db, e, bound, a, memo).project((a,), bound, dedup=True)
            views.append((view.size(), e.eid, view))
        views.sort(key=lambda t: t[:2])
        if best is None or views[0][0] < best[0]:
            best = (views[0][0], a, views)
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
    for binding in _enumerate(db, query, remaining, s, {}):
        results.add(tuple(binding[a] for a in out_attrs))
    return results


def generic_join_exists(db, query: Hypergraph, remaining, s, memo=None) -> bool:
    """Whether s extends to an answer over remaining. memo: a
    bound_first_index memo to keep across calls on the same query (default:
    one for this call)."""
    for _ in _enumerate(db, query, frozenset(remaining), dict(s),
                        {} if memo is None else memo):
        return True
    return False


def _enumerate(db, query, remaining, s, memo):
    if not remaining:
        yield s
        return
    attr, views = _pick_attr(db, query, remaining, s, memo)
    smallest = views[0][2]
    rest = [view.count_of for _, _, view in views[1:]]
    sub_remaining = remaining - {attr}
    for (val,) in smallest:
        if all(count((val,)) for count in rest):
            s[attr] = val
            yield from _enumerate(db, query, sub_remaining, s, memo)
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
