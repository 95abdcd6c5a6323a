"""Exact uniform sampling over acyclic joins.

Preprocessing runs over a single-edge-bag join tree. Every distinct row of
every relation gets an exact integer weight: its multiplicity times, for each
child edge, the summed weights of the child rows matching it on the shared
attributes. The root total is then the bag join size (every combination of
base rows counted once), all in exact integer arithmetic.

Sampling descends the tree once, drawing a row at each node with probability
weight/slot-total via randrange + bisect on cumulative integer tables, so a
full answer comes out with probability exactly (product of row
multiplicities)/total. On duplicate-free relations that is uniform over the
answers. The algorithm-level row replacement between draws never changes the
assignment being built, so it has no runtime counterpart here.

Weights are checked against the 64-bit unsigned range; join trees whose
counts exceed it raise WeightOverflowError rather than silently degrade.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter

from .ghd import join_tree
from .queries import Hypergraph, QueryError, validate
from .relations import EmptySemijoinError

U64_MAX = 2 ** 64 - 1


class WeightOverflowError(OverflowError):
    pass


def _check(n: int) -> int:
    if n > U64_MAX:
        raise WeightOverflowError(f"weight {n} exceeds the unsigned 64-bit range")
    return n


class WeightIndex:
    """Per-query weight tables; build once, sample many times."""

    def __init__(self, db, query: Hypergraph):
        validate(query, db)
        tree = join_tree(query)
        if tree is None:
            raise QueryError("query is cyclic; exact weighting needs a join tree")
        self.db = db
        self.query = query
        self.tree = tree
        edges = query.edges
        self.rows = {}     # node -> [distinct row tuples]
        self.mult = {}     # node -> {row: multiplicity}
        for t, e in enumerate(edges):
            counts = Counter(db.relation(e.relation).tuples)
            self.rows[t] = sorted(counts)
            self.mult[t] = dict(counts)
        self.weight = {}   # node -> {row: int}
        self.links = {}    # child -> see _link
        children = {t: [] for t in range(len(edges))}
        for c in tree.bottomup:
            p = tree.parent[c]
            if p is not None:
                children[p].append(c)
        self.children = children
        for t in tree.bottomup:   # children before their parent
            links = [self.links[c] for c in children[t]]
            w = {}
            for row in self.rows[t]:
                acc = self.mult[t][row]
                for pos, table in links:
                    got = table.get(tuple(row[i] for i in pos))
                    acc *= got[1][-1] if got else 0
                    if acc == 0:
                        break
                w[row] = _check(acc)
            self.weight[t] = w
            if tree.parent[t] is not None:
                self.links[t] = self._link(tree.parent[t], t)
        root = tree.root
        self.root_rows = [r for r in self.rows[root] if self.weight[root][r]]
        cum = [0]
        for r in self.root_rows:
            cum.append(cum[-1] + self.weight[root][r])
        self.root_cum = cum
        self.total = _check(cum[-1])

    def _link(self, p, c):
        """Child c's link to its parent p: the positions of their shared
        attributes in p's rows, and c's weighted rows grouped by those
        attributes' values, each group with its cumulative weights."""
        ep, ec = self.query.edges[p], self.query.edges[c]
        shared = [a for a in ec.attrs if a in ep.attr_set]
        cpos = [ec.attrs.index(a) for a in shared]
        weight = self.weight[c]
        table = {}
        for row in self.rows[c]:
            if weight[row]:
                rows, cum = table.setdefault(tuple(row[i] for i in cpos), ([], [0]))
                rows.append(row)
                cum.append(_check(cum[-1] + weight[row]))
        return tuple(ep.attrs.index(a) for a in shared), table


def preprocess_weights(db, query: Hypergraph) -> WeightIndex:
    return WeightIndex(db, query)


def exact_uniform_sample(widx: WeightIndex, rng: random.Random) -> dict:
    """One answer, uniform over base-row combinations.

    Probability of the returned assignment is exactly (product of the chosen
    rows' multiplicities) / widx.total, verified per draw by an integer
    telescoping identity.
    """
    if widx.total == 0:
        raise EmptySemijoinError("join is empty")
    tree, query = widx.tree, widx.query
    x = rng.randrange(widx.total)
    widx.db.ops.add(1)
    i = bisect.bisect_right(widx.root_cum, x) - 1
    chosen = {tree.root: widx.root_rows[i]}
    assignment = dict(zip(query.edges[tree.root].attrs, chosen[tree.root]))
    w_product = widx.weight[tree.root][chosen[tree.root]]
    m_product = widx.mult[tree.root][chosen[tree.root]]
    s_product = 1
    for p in tree.topdown:
        for c in widx.children[p]:
            pos, table = widx.links[c]
            rows, cum = table[tuple(chosen[p][i] for i in pos)]
            x = rng.randrange(cum[-1])
            widx.db.ops.add(1)
            j = bisect.bisect_right(cum, x) - 1
            row = rows[j]
            chosen[c] = row
            assignment.update(zip(query.edges[c].attrs, row))
            w_product *= widx.weight[c][row]
            m_product *= widx.mult[c][row]
            s_product *= cum[-1]
    # telescoping: prod(W) == prod(mult) * prod(slot totals), exactly
    if w_product != m_product * s_product:
        raise RuntimeError("weight telescoping identity failed")
    return assignment
