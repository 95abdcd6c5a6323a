"""GJSample's table and alley's candidate set on graphs of a few hundred
vertices, far past the 4-value domain of tests/test_gj_table.py.

GJ builds its table from degree columns: Ω's own counts, a dict over
another view not much larger than Ω, or one count_of per candidate on a
larger one, and one probability per distinct tuple of deg2. Here every GJ
step of seeded walks down a symmetric triangle and 4-cycle (300 vertices;
at the root Ω holds hundreds of candidates sharing a few deg2 tuples) must
equal test_gj_table's per-candidate reference_step: the outcome by ==,
the ops charged and the rng state. The walks are checked to have read
every kind of column, a zero deg2 and an edge of zero cover weight.

The third shape is the path R(A,B) ⋈ S(B,C) ⋈ T(C,D) over skewed rows with
duplicates (300 values) under its optimal cover (R and T weigh 1, S 0), so
every step's table is over one weighted edge and maps a probability per
int deg2 over that edge's column. Its walks are checked to have read every
kind of column, a zero deg2 and a weighted edge that keeps no attribute
after the step, from a root table of over 100 distinct deg2. Alley's
Ω at each step, on those queries and on a 4-clique, must be the plain
intersection of the edges' value sets under the binding, read off the
rows.
"""

import random
from fractions import Fraction

import pytest

from conftest import _sym_graph
from joinsample import AlleyPlus, Cover, Database, GJSample, Hypergraph, Plan
from joinsample.estimators import _DICT_FACTOR
from joinsample.relations import View
from test_gj_table import reference_step

VERTICES, ROWS = 300, 1200
TRIANGLE = (("A", "B", "C"), [(("A", "B"), "E"), (("B", "C"), "E"), (("A", "C"), "E")])
CYCLE4 = (("A", "B", "C", "D"),
          [(("A", "B"), "E"), (("B", "C"), "E"), (("C", "D"), "E"), (("D", "A"), "E")])
# every attribute in three edges, so Ω meets two other columns at each step
K4 = (("A", "B", "C", "D"),
      [((x, y), "E") for x, y in (("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"),
                                   ("B", "D"), ("C", "D"))])
PATH = (("A", "B", "C", "D"), [(("A", "B"), "R"), (("B", "C"), "S"), (("C", "D"), "T")])
SHAPES = {"triangle": TRIANGLE, "4-cycle": CYCLE4, "k4": K4, "path": PATH}
# feasible covers that weigh some of the edges 0
ZERO_WEIGHT = {"triangle": {0: Fraction(1), 1: Fraction(1), 2: Fraction(0)},
               "4-cycle": {0: Fraction(1), 1: Fraction(0), 2: Fraction(1), 3: Fraction(0)}}


def _path_rows():
    """Skewed rows with duplicates for the path's R, S and T. Each A value
    has its own number of R rows (1 to 200, more often few), so A's degrees
    take well over 100 distinct values. Low B and C values are drawn most
    often, so a heavy B value meets most C values in S and a light one few;
    T misses some of S's C values."""
    rng = random.Random(17)

    def low(e):
        return int(VERTICES * rng.random() ** e)

    r = [(a, low(2)) for a in range(VERTICES)
         for _ in range(1 + int(200 * rng.random() ** 1.5))]
    s = [(low(3), rng.randrange(VERTICES)) for _ in range(3000)]
    t = [(low(2), low(2)) for _ in range(2000)]
    return {"R": r, "S": s, "T": t}


def _plan(name, zero_weight=False):
    attrs, edges = SHAPES[name]
    db = Database()
    if name == "path":
        for rel, rows in _path_rows().items():
            db.load(rel, ("X", "Y"), rows)
        return Plan(db, Hypergraph(attrs, edges))
    db.load("E", ("X", "Y"), _sym_graph(11, ROWS, VERTICES))
    cover = Cover(ZERO_WEIGHT[name]) if zero_weight else None
    return Plan(db, Hypergraph(attrs, edges), cover=cover)


def _columns(plan, remaining, s, seen):
    """Note in `seen` what the table on this step reads: each weighted
    edge's column kind, whether a deg2 is 0, whether an edge of the step
    weighs 0, whether its one weighted edge keeps no attribute after the
    step, and Ω's size and distinct deg2 tuples at the root."""
    rec = plan.step_record(remaining)
    views = rec.projections(s)
    smallest = min(views, key=View.size)
    n = smallest.size()
    if n == 0:
        return
    keys = smallest.node.keys
    weighted = {i for i, *_ in rec.terms}
    seen["zero weight"] |= len(weighted) < len(views)
    seen["keeps none"] |= len(weighted) == 1 and not rec.terms[0][3]
    tuples = []
    for i in sorted(weighted):
        view = views[i]
        if view.node.keys == keys:
            seen["kinds"].add("own counts")
        elif view.size() <= _DICT_FACTOR * n:
            seen["kinds"].add("dict")
        else:
            seen["kinds"].add("count_of")
        tuples.append([view.count_of((c,)) for c in keys])
    seen["zero deg2"] |= any(0 in col for col in tuples)
    if not s:
        seen["root"].append((n, len(set(zip(*tuples)))))


def _walk(plan, seed, seen):
    """One trial's GJ steps from the root, each against reference_step on
    equal rngs; a member draw is bound and the walk goes on."""
    s, remaining = {}, frozenset(plan.elim)
    ops = plan.db.ops
    for depth in range(len(plan.elim)):
        rng_new = random.Random(f"{seed}/{depth}")
        rng_ref = random.Random(f"{seed}/{depth}")
        before = ops.n
        got = GJSample().step(plan, remaining, dict(s), rng_new)
        spent = ops.n - before
        before = ops.n
        want = reference_step(plan, remaining, dict(s), rng_ref)
        assert got == want
        assert spent == ops.n - before
        assert rng_new.getstate() == rng_ref.getstate()
        _columns(plan, remaining, s, seen)
        if not got.samples or not got.samples[0][2]:
            return
        s.update(got.samples[0][0])
        remaining = plan.step_record(remaining).left[got.attrs]


@pytest.mark.parametrize("name", ["triangle", "4-cycle", "path"])
def test_table_at_scale_matches_per_candidate_table(name):
    seen = {"kinds": set(), "zero deg2": False, "zero weight": False,
            "keeps none": False, "root": []}
    # the path runs under its optimal cover only
    for zero_weight in (False,) if name == "path" else (False, True):
        plan = _plan(name, zero_weight)
        for seed in range(100):
            _walk(plan, seed, seen)
    if name == "path":
        # every step weighs one edge (R and T weigh 1, S 0); the root
        # table maps over a column of many distinct deg2
        assert plan.cover.weights == {0: 1, 1: 0, 2: 1}
        assert seen["kinds"] == {"own counts", "dict", "count_of"}
        assert seen["zero deg2"] and seen["keeps none"]
        assert seen["root"] and all(distinct >= 100 for _, distinct in seen["root"])
        return
    assert seen["kinds"] == {"own counts", "dict", "count_of"}
    assert seen["zero deg2"] and seen["zero weight"]
    # hundreds of root candidates, few distinct deg2 tuples among them
    for n, distinct in seen["root"]:
        assert n >= 250 and distinct <= n // 10


def _matching_values(plan, edge, a, s):
    rows = plan.db.relation(edge.relation).tuples
    return {dict(zip(edge.attrs, t))[a] for t in rows
            if all(s.get(x, v) == v for x, v in zip(edge.attrs, t))}


@pytest.mark.parametrize("name", ["triangle", "4-cycle", "k4"])
def test_alley_candidates_are_the_plain_intersection(name):
    plan = _plan(name)
    rng = random.Random(5)
    for _ in range(30):
        s, remaining = {}, frozenset(plan.elim)
        while remaining:
            rec = plan.step_record(remaining)
            a = rec.attr
            want = set.intersection(*(_matching_values(plan, e, a, s) for e in rec.edges))
            out = AlleyPlus(1.0).step(plan, remaining, dict(s), rng)
            got = [frag[a] for frag, _, _ in out.samples]
            assert got == sorted(want)
            if not got:
                break
            s[a] = rng.choice(got)
            remaining = rec.left[(a,)]
