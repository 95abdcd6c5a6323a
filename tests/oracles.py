"""Reference implementations the tests trust.

Everything here is written from scratch against plain Python data (raw
values, no interning, no tries) so package results can be checked against
genuinely independent code paths.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import optimize, stats


def nested_loop_join(raw, edges):
    """Bag-semantics join by nested loops.

    raw: {relation name: (schema tuple, list of raw-value rows)}
    edges: [(relation name, attr tuple)]; row columns bind attrs by position.
    Returns (sorted attr tuple, list of answer tuples, one per combination
    of base rows).
    """
    attrs = tuple(sorted({a for _, ats in edges for a in ats}))
    out = []

    def rec(i, bound):
        if i == len(edges):
            out.append(tuple(bound[a] for a in attrs))
            return
        name, ats = edges[i]
        for row in raw[name][1]:
            new = dict(bound)
            ok = True
            for a, v in zip(ats, row):
                if a in new and new[a] != v:
                    ok = False
                    break
                new[a] = v
            if ok:
                rec(i + 1, new)

    rec(0, {})
    return attrs, out


def distinct_count(raw, edges) -> int:
    _, rows = nested_loop_join(raw, edges)
    return len(set(rows))


def projection_answers(raw, edges, out_attrs):
    attrs, rows = nested_loop_join(raw, edges)
    pos = [attrs.index(a) for a in sorted(out_attrs)]
    return {tuple(r[p] for p in pos) for r in rows}


def reachability_classes(nodes, pairs):
    """The classes of `nodes` under reachability along the undirected
    `pairs` (either end may lie outside `nodes`; such pairs join nothing),
    by Warshall's transitive closure: a set of frozensets."""
    nodes = set(nodes)
    reach = {(a, a) for a in nodes}
    reach |= {(a, b) for a, b in pairs if a in nodes and b in nodes}
    reach |= {(b, a) for a, b in reach}
    for k in nodes:
        for i in nodes:
            for j in nodes:
                if (i, k) in reach and (k, j) in reach:
                    reach.add((i, j))
    return {frozenset(b for b in nodes if (a, b) in reach) for a in nodes}


def lp_rho_log(edge_attrs, sizes):
    """log(AGM) by floating-point LP; None when some covering size is 0."""
    if any(s == 0 for s in sizes):
        return None
    m = len(edge_attrs)
    attrs = sorted({a for ats in edge_attrs for a in ats})
    c = np.array([math.log(s) for s in sizes])
    a_ub = np.zeros((len(attrs), m))
    for i, a in enumerate(attrs):
        for j, ats in enumerate(edge_attrs):
            if a in ats:
                a_ub[i, j] = -1.0
    res = optimize.linprog(c, A_ub=a_ub, b_ub=-np.ones(len(attrs)),
                           bounds=[(0.0, 1.0)] * m, method="highs")
    assert res.success, res.message
    return float(res.fun)


def _solve_fraction(rows, rhs):
    """Gaussian elimination over Fractions; None if singular."""
    n = len(rhs)
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = Fraction(1, 1) / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [v - f * p for v, p in zip(mat[r], mat[col])]
    return [mat[r][n] for r in range(n)]


def fraction_solve(tight_rows, m):
    """Gauss–Jordan over Fractions on m rows (coeffs, rhs): the cover LP's
    vertex solver before it eliminated in integers. None when singular."""
    a = [list(map(Fraction, coeffs)) + [Fraction(rhs)] for coeffs, rhs in tight_rows]
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][m] for r in range(m)]


def _agm_cmp(x1, x2, sizes):
    """Compare prod(sizes**x) exactly: -1, 0, or 1."""
    exps = [a - b for a, b in zip(x1, x2)]
    d = 1
    for e in exps:
        d = d * e.denominator // math.gcd(d, e.denominator)
    left = right = 1
    for e, s in zip(exps, sizes):
        k = int(e * d)
        if k > 0:
            left *= s ** k
        elif k < 0:
            right *= s ** (-k)
    return (left > right) - (left < right)


def exact_cover_vertex(edge_attrs, sizes):
    """Minimal fractional edge cover by rational vertex enumeration.

    Returns the optimal weight list (Fractions, one per edge) minimizing
    prod(sizes**x) over 0 <= x <= 1; among optima, the lexicographically
    smallest list. None when an edge with size 0 makes the bound collapse
    to zero (caller handles separately).
    """
    if any(s == 0 for s in sizes):
        return None
    m = len(edge_attrs)
    attrs = sorted({a for ats in edge_attrs for a in ats})
    constraints = []
    for a in attrs:
        row = [Fraction(1 if a in ats else 0) for ats in edge_attrs]
        constraints.append((row, Fraction(1)))
    for j in range(m):
        row = [Fraction(1 if i == j else 0) for i in range(m)]
        constraints.append((row, Fraction(0)))
        constraints.append((row, Fraction(1)))

    def feasible(x):
        for a in attrs:
            if sum(v for v, ats in zip(x, edge_attrs) if a in ats) < 1:
                return False
        return all(0 <= v <= 1 for v in x)

    best = None
    for combo in itertools.combinations(range(len(constraints)), m):
        rows = [constraints[i][0] for i in combo]
        rhs = [constraints[i][1] for i in combo]
        x = _solve_fraction(rows, rhs)
        if x is None or not feasible(x):
            continue
        if best is None:
            best = x
            continue
        cmp = _agm_cmp(x, best, sizes)
        if cmp < 0 or (cmp == 0 and x < best):
            best = x
    assert best is not None
    return best


def half_integral_reference(edge_attrs, sizes):
    """Optimal cover in {0, 1/2, 1}^m whose support splits into odd cycles
    of 1/2-edges and stars of 1-edges, by trying all 3^m weight lists.

    edge_attrs: one attribute pair per edge. Returns (weights, components)
    for the lexicographically smallest such optimum, or None. A component
    is ("cycle", attrs walked from the smallest one, edge indexes in walk
    order) or ("star", centre, sorted edge indexes); at each step the walk
    takes the unused edge with the smallest (next attribute, index). The
    components are ordered by smallest attribute (cycles) or centre (stars).
    """
    m = len(edge_attrs)
    attrs = sorted({a for ats in edge_attrs for a in ats})
    opt = exact_cover_vertex([set(ats) for ats in edge_attrs], sizes)
    levels = (Fraction(0), Fraction(1, 2), Fraction(1))
    # product() yields the weight lists in lexicographic order
    for x in itertools.product(levels, repeat=m):
        x = list(x)
        if any(sum(v for v, ats in zip(x, edge_attrs) if a in ats) < 1
               for a in attrs):
            continue
        if _agm_cmp(x, opt, sizes) != 0:
            continue
        comps = _cycles_and_stars(edge_attrs, x)
        if comps is not None:
            return x, comps
    return None


def _cycles_and_stars(edge_attrs, x):
    left = {j for j, v in enumerate(x) if v}
    comps = []
    while left:
        group = {min(left)}
        seen = set(edge_attrs[min(left)])
        while True:
            more = {k for k in left - group if seen & set(edge_attrs[k])}
            if not more:
                break
            group |= more
            for k in more:
                seen |= set(edge_attrs[k])
        left -= group
        ws = {x[k] for k in group}
        if ws == {Fraction(1, 2)}:
            odd = len(group) % 2 == 1 and len(group) == len(seen)
            if not odd or any(sum(a in edge_attrs[k] for k in group) != 2
                              for a in seen):
                return None
            start = cur = min(seen)
            walk, used = [start], []
            while True:
                k = min((k for k in group - set(used) if cur in edge_attrs[k]),
                        key=lambda k: (_other(edge_attrs[k], cur), k))
                used.append(k)
                cur = _other(edge_attrs[k], cur)
                if cur == start:
                    break
                walk.append(cur)
            comps.append(("cycle", walk, used))
        elif ws == {Fraction(1)}:
            common = set.intersection(*(set(edge_attrs[k]) for k in group))
            if not common:
                return None
            comps.append(("star", min(common), sorted(group)))
        else:
            return None
    comps.sort(key=lambda c: c[1][0] if c[0] == "cycle" else c[1])
    return comps


def _other(pair, a):
    return pair[1] if pair[0] == a else pair[0]


def agm_float(x, sizes) -> float:
    return float(np.prod([float(s) ** float(v) for v, s in zip(x, sizes)]))


def agm_equal(x1, x2, sizes) -> bool:
    return _agm_cmp([Fraction(v) for v in x1], [Fraction(v) for v in x2],
                    sizes) == 0


def chi2_crit(dof: int, q: float = 0.999) -> float:
    return float(stats.chi2.ppf(q, dof))
