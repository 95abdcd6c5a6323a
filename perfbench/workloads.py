"""Seeded workload generators and the harness's own answer oracles.

Every workload is a function of (name, seed) alone: the same seed gives the
same relations and query. The program under test only ever sees the `.rel`
files and the query JSON written by `write_inputs`; the oracles below read
the raw rows directly and share no code with the package.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Workload:
    name: str
    why: str
    relations: dict          # name -> (schema tuple, list of raw rows)
    query: dict              # query JSON document
    sizes: dict = field(default_factory=dict)


WHY = {
    "tri-dense": "small hot self-join triangle: probes, strategy steps, derive_rng "
                 "and the driver dominate; the degree cache mostly hits",
    "cycle4-sparse": "large sparse 4-cycle: enumeration and decomposition search "
                     "dominate; cold working set, DRS nearly always rejects",
    "path-skew": "acyclic Zipf path-3 projected on (A,D): exact weighting, "
                 "projection counting as many small existence joins, most trie orders",
}


def _rng(name, seed):
    return random.Random(f"perfbench/{name}/{seed}")


def symmetric_edges(rng, vertices, rows):
    """`rows` directed pairs of a random simple undirected graph, both ways."""
    pairs = set()
    while len(pairs) < rows:
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        if u != v:
            pairs.add((u, v))
            pairs.add((v, u))
    return sorted(pairs)


def zipf_draws(rng, values, exponent, n):
    """n draws from Zipf(exponent) over 0..values-1 (0 the most frequent)."""
    cum = list(itertools.accumulate(1.0 / (k + 1) ** exponent for k in range(values)))
    return [bisect.bisect_left(cum, rng.random() * cum[-1]) for _ in range(n)]


def _edge(rel, *attrs):
    return {"relation": rel, "vars": list(attrs)}


def tri_dense(seed, vertices=100, rows=2000):
    rng = _rng("tri-dense", seed)
    edges = symmetric_edges(rng, vertices, rows)
    query = {"attributes": ["X", "Y", "Z"],
             "edges": [_edge("E", "X", "Y"), _edge("E", "Y", "Z"), _edge("E", "X", "Z")]}
    return Workload("tri-dense", WHY["tri-dense"], {"E": (("X", "Y"), edges)}, query,
                    {"vertices": vertices, "rows": len(edges)})


def cycle4_sparse(seed, vertices=2000, rows=8000):
    rng = _rng("cycle4-sparse", seed)
    edges = symmetric_edges(rng, vertices, rows)
    query = {"attributes": ["X", "Y", "Z", "W"],
             "edges": [_edge("E", "X", "Y"), _edge("E", "Y", "Z"),
                       _edge("E", "Z", "W"), _edge("E", "W", "X")]}
    return Workload("cycle4-sparse", WHY["cycle4-sparse"], {"E": (("X", "Y"), edges)},
                    query, {"vertices": vertices, "rows": len(edges)})


def path_skew(seed, rows=6000, ad_values=3000, bc_values=1000, exponent=0.8):
    rng = _rng("path-skew", seed)
    a = [rng.randrange(ad_values) for _ in range(rows)]
    b = zipf_draws(rng, bc_values, exponent, rows)
    s_b = zipf_draws(rng, bc_values, exponent, rows)
    s_c = zipf_draws(rng, bc_values, exponent, rows)
    c = zipf_draws(rng, bc_values, exponent, rows)
    d = [rng.randrange(ad_values) for _ in range(rows)]
    rels = {"R": (("A", "B"), list(zip(a, b))),
            "S": (("B", "C"), list(zip(s_b, s_c))),
            "T": (("C", "D"), list(zip(c, d)))}
    query = {"attributes": ["A", "B", "C", "D"],
             "edges": [_edge("R", "A", "B"), _edge("S", "B", "C"), _edge("T", "C", "D")],
             "projection": ["A", "D"]}
    return Workload("path-skew", WHY["path-skew"], rels, query,
                    {"rows_per_relation": rows, "ad_values": ad_values,
                     "bc_values": bc_values, "zipf_exponent": exponent})


GENERATORS = {"tri-dense": tri_dense, "cycle4-sparse": cycle4_sparse,
              "path-skew": path_skew}


def write_inputs(workload: Workload, directory: Path):
    """Write one `.rel` file per relation and `query.json`; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    rel_paths = []
    for name, (schema, rows) in sorted(workload.relations.items()):
        path = directory / f"{name}.rel"
        lines = [f"{name}:{','.join(schema)}"]
        lines.extend(",".join(map(str, row)) for row in rows)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rel_paths.append(path)
    query_path = directory / "query.json"
    query_path.write_text(json.dumps(workload.query), encoding="utf-8")
    return rel_paths, query_path


# ---------------------------------------------------------------- oracles


def adjacency(rows):
    adj = {}
    for u, v in rows:
        adj.setdefault(u, set()).add(v)
    return adj


class CycleOracle:
    """Answers of the self-join triangle or 4-cycle over E(X,Y), by adjacency
    sets. Nothing is materialized: `out` is counted, and a binding is an
    answer when every query edge (u, v) has v among u's neighbours."""

    def __init__(self, rows, query):
        self.adj = adjacency(rows)
        self.edges = [tuple(e["vars"]) for e in query["edges"]]
        self.attrs = tuple(sorted(query["attributes"]))
        self.out = count_triangles(self.adj) if len(self.attrs) == 3 else \
            count_four_cycles(self.adj)

    def is_answer(self, binding) -> bool:
        adj = self.adj
        return all(binding[v] in adj.get(binding[u], ()) for u, v in self.edges)


def count_triangles(adj):
    """Distinct (X, Y, Z) with E(X,Y), E(Y,Z), E(X,Z); each binding is met once."""
    return sum(1 for x, nx in adj.items() for y in nx for z in adj.get(y, ()) if z in nx)


def count_four_cycles(adj):
    """Distinct (X, Y, Z, W) with E(X,Y), E(Y,Z), E(Z,W), E(W,X)."""
    return sum(1 for x, nx in adj.items() for y in nx for z in adj.get(y, ())
               for w in adj.get(z, ()) if x in adj.get(w, ()))


class PathOracle:
    """Group-by counts and (A, D) reachability for R(A,B) ⋈ S(B,C) ⋈ T(C,D).

    Only the input's own sets and adjacency maps are kept; the bag size, the
    distinct count and the number of (A, D) pairs are counted up front."""

    def __init__(self, r_rows, s_rows, t_rows):
        self.r, self.s, self.t = set(r_rows), set(s_rows), set(t_rows)
        mult_b, mult_c = {}, {}
        for _, b in r_rows:
            mult_b[b] = mult_b.get(b, 0) + 1
        for c, _ in t_rows:
            mult_c[c] = mult_c.get(c, 0) + 1
        self.bag_size = sum(mult_b.get(b, 0) * mult_c.get(c, 0) for b, c in s_rows)
        self._b_of_a = _group(self.r)
        self._c_of_b = _group(self.s)
        self._d_of_c = _group(self.t)
        a_of_b = _group((b, a) for a, b in self.r)
        self.distinct = sum(len(a_of_b.get(b, ())) * len(self._d_of_c.get(c, ()))
                            for b, c in self.s)
        self.projection_count = sum(len(self._reach(bs)) for bs in self._b_of_a.values())

    def _reach(self, bs):
        d_of_c, c_of_b = self._d_of_c, self._c_of_b
        return set().union(*(d_of_c.get(c, ()) for b in bs for c in c_of_b.get(b, ())))

    def is_answer(self, a, b, c, d) -> bool:
        return (a, b) in self.r and (b, c) in self.s and (c, d) in self.t

    def reachable(self, a, d) -> bool:
        t = self.t
        return any((c, d) in t for b in self._b_of_a.get(a, ())
                   for c in self._c_of_b.get(b, ()))


def _group(pairs):
    out = {}
    for u, v in pairs:
        out.setdefault(u, set()).add(v)
    return out
