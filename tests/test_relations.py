import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from joinsample import (
    Database, EmptySemijoinError, Hypergraph, Plan, SchemaError,
    UnsupportedOrderError, TrieIndex, load_relation, parse_relation_file,
)


def small_db():
    db = Database()
    db.load("R", ("A", "B"), [(0, 1), (0, 2), (1, 1), (0, 1)])
    return db


def test_interner_roundtrip():
    db = small_db()
    rel = db.relation("R")
    raw = [tuple(db.decode_tuple(t)) for t in rel.tuples]
    assert sorted(raw) == [(0, 1), (0, 1), (0, 2), (1, 1)]


def test_load_rejects_arity_mismatch():
    db = Database()
    with pytest.raises(SchemaError):
        db.load("R", ("A", "B"), [(1, 2, 3)])


def test_load_rejects_a_name_loaded_twice():
    db = small_db()
    with pytest.raises(SchemaError, match="already loaded"):
        db.load("R", ("C", "D"), [(7, 8)])
    assert db.relation("R").schema == ("A", "B")
    assert len(db.relation("R")) == 4


def test_degree_counts_multiplicity():
    db = small_db()
    idx = db.index("R", ("A", "B"))
    a0 = db.interner.intern(0)
    b1 = db.interner.intern(1)
    assert idx.degree({}) == 4
    assert idx.degree({"A": a0}) == 3
    assert idx.degree({"A": a0, "B": b1}) == 2


def test_index_requires_prefix_binding():
    db = small_db()
    idx = db.index("R", ("A", "B"))
    b1 = db.interner.intern(1)
    with pytest.raises(UnsupportedOrderError):
        idx.degree({"B": b1})


def test_exist_and_access():
    db = small_db()
    idx = db.index("R", ("A", "B"))
    a0, b2 = db.interner.intern(0), db.interner.intern(2)
    assert idx.exist({"A": a0, "B": b2})
    assert not idx.exist({"A": b2, "B": b2})


def test_sample_row_weighted_by_multiplicity():
    db = small_db()
    idx = db.index("R", ("A", "B"))
    counts = {}
    for i in range(4000):
        row = idx.sample_row({}, random.Random(f"sr/{i}"))
        counts[row] = counts.get(row, 0) + 1
    dup = tuple(db.interner.intern(v) for v in (0, 1))
    # the duplicated row should carry twice the mass of the others
    assert counts[dup] > 1500
    assert abs(counts[dup] - 2000) < 250


def test_project_dedup_and_counts():
    db = small_db()
    idx = db.index("R", ("A", "B"))
    view = idx.project(("A",), {}, dedup=True)
    assert view.size() == 2
    bag = idx.project(("A",), {}, dedup=False)
    assert bag.size() == 4
    a0 = db.interner.intern(0)
    assert view.count_of((a0,)) > 0


def test_view_rows_and_items():
    db = small_db()
    idx = db.index("R", ("A", "B"))
    a0, b1, b2 = (db.interner.intern(v) for v in (0, 1, 2))
    top = idx.project(("A",), {}, dedup=True)
    assert top.rows() == 4
    assert list(top.items()) == [(a0, 3), (db.interner.intern(1), 1)]
    under = idx.project(("B",), {"A": a0}, dedup=True)
    assert under.rows() == 3
    assert list(under.items()) == [(b1, 2), (b2, 1)]
    assert all(under.count_of((v,)) == n for v, n in under.items())
    absent = idx.project(("B",), {"A": db.interner.intern(7)}, dedup=True)
    assert absent.rows() == 0 and list(absent.items()) == []
    with pytest.raises(ValueError):
        idx.project(("A", "B"), {}, dedup=True).items()


def test_view_sample_empty_raises():
    db = Database()
    db.load("R", ("A",), [])
    view = db.index("R", ("A",)).project(("A",), {}, dedup=True)
    with pytest.raises(EmptySemijoinError):
        view.sample(random.Random(0))


def test_op_meter_charges_degree_lookups():
    db = small_db()
    idx = db.index("R", ("A", "B"))
    before = db.ops.n
    idx.degree({})
    idx.degree({})
    assert db.ops.n >= before + 2


def test_parse_relation_file():
    name, schema, rows = parse_relation_file("R:A,B\n1,2\n\n3,x\n")
    assert name == "R" and schema == ("A", "B")
    assert rows == [(1, 2), (3, "x")]


def test_parse_relation_file_strips_and_reads_integers():
    # the README's data-format contract: names and values are stripped, and
    # a value int() accepts is that integer; anything else stays a string
    text = " R : A , B \n01, 1\n 1 ,+1\n1_0,-0\nx , y z\n"
    name, schema, rows = parse_relation_file(text)
    assert name == "R" and schema == ("A", "B")
    assert rows == [(1, 1), (1, 1), (10, 0), ("x", "y z")]
    db = Database()
    db.load(name, schema, rows)
    assert db.relation("R").tuples[0] == db.relation("R").tuples[1]


def test_parse_relation_file_errors():
    with pytest.raises(SchemaError):
        parse_relation_file("")
    with pytest.raises(SchemaError):
        parse_relation_file("no header here\n1,2\n")


def test_build_index_standalone():
    rel = load_relation("S", ("X", "Y"), [(1, 2), (1, 3)])
    idx = TrieIndex(rel, ("Y", "X"))
    y2 = rel.interner.intern(2)
    assert idx.degree({"Y": y2}) == 1


def test_derived_relations_stay_out_of_db_relations():
    # every layer that indexes a self-join edge or projects one onto a bag
    # runs on one database; only the loaded relation is listed afterwards
    from conftest import build
    from joinsample import (
        DRS, ComponentPlan, GJSample, Plan, WanderJoin, choose_ghd,
        estimate_projection_count, generic_card_est, generic_join, ghd_card_est,
        sste_trial,
    )
    from joinsample.estimators import derive_rng

    db, query, raw = build("sym-tri")
    hq = query.hypergraph
    assert generic_join(db, hq)
    plan = Plan(db, hq)
    for strategy in (WanderJoin(), GJSample(), DRS()):
        for i in range(20):
            generic_card_est(plan, strategy, rng=derive_rng(1, strategy.name, i))
    cplan = ComponentPlan(db, hq)
    for i in range(20):
        sste_trial(cplan, derive_rng(1, "sste", i))
    rep = estimate_projection_count(db, hq, projection=("A", "B"), c=8, seed=1)
    assert rep.trials > 0
    choose_ghd(db, hq)
    assert ghd_card_est(db, hq, budget=2, seed=1) > 0
    assert set(db.relations) == set(raw) == {"E"}


def test_derived_relation_keys_and_column_names():
    db = small_db()
    key = db.projection("R", ("C", "D"), {"D"})
    assert db.ops.n == len(db.relation("R"))
    assert key not in db.relations and set(db.relations) == {"R"}
    proj = db.relation(key)
    assert proj.schema == ("D",)
    assert sorted(db.decode_tuple(t) for t in proj.tuples) == [(1,), (2,)]
    ops = db.ops.n
    assert db.projection("R", ("C", "D"), ("D",)) == key
    assert db.ops.n == ops and db.relation(key) is proj
    assert db.index(key, ("D",)).degree({}) == 2
    idx = db.index("R", ("D", "C"), ("C", "D"))
    assert idx.order == ("D", "C") and idx.degree({}) == 4
    with pytest.raises(SchemaError):
        db.index("R", ("A", "B"), ("C", "D"))


@st.composite
def _bags(draw):
    """(schema, rows, probes): a bag of arity 1 to 3 with duplicate rows, and
    value tuples to bind, some matching no row."""
    arity = draw(st.integers(1, 3))
    schema = draw(st.permutations("ABC"))[:arity]
    value = st.integers(0, 3)
    rows = draw(st.lists(st.tuples(*[value] * arity), min_size=1, max_size=10))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    probes = rows[:3] + draw(st.lists(st.tuples(*[st.integers(0, 4)] * arity),
                                      min_size=1, max_size=3))
    return tuple(schema), rows, probes


def _reference_row(rows, order, bound, rng):
    """A walk over plain tuples: fix the bound prefix, then one draw per level,
    the value whose run of sorted rows holds the drawn position."""
    rows = sorted(rows)
    out = [bound[a] for a in order if a in bound]
    rows = [r for r in rows if list(r[:len(out)]) == out]
    for depth in range(len(out), len(order)):
        x = rng.randrange(len(rows))
        out.append(rows[x][depth])
        rows = [r for r in rows if r[depth] == out[-1]]
    return tuple(out)


@settings(max_examples=150, deadline=None, database=None)
@given(_bags(), st.integers(0, 2**32))
@example(((("B", "A"), [(1, 2)], [(1, 2), (3, 3)])), 0)   # one row
def test_probes_match_brute_force(bag, seed):
    # Plan.edge_degree and TrieIndex.sample_row against the rows themselves,
    # under every set of bound attributes: empty, edge-order prefixes, the
    # non-prefixes wander binds, and full
    schema, raw, probes = bag
    db = Database()
    db.load("R", schema, raw)
    rows = db.relation("R").tuples
    plan = Plan(db, Hypergraph(schema, [(schema, "R")]))
    (edge,) = plan.query.edges
    ops = db.ops
    for probe in probes:
        ids = [db.interner.intern(v) for v in probe]
        for k in range(len(schema) + 1):
            for attrs in itertools.combinations(range(len(schema)), k):
                s = {schema[i]: ids[i] for i in attrs}
                want = sum(all(r[i] == ids[i] for i in attrs) for r in rows)
                before = ops.n
                assert plan.edge_degree(edge, s) == want
                assert ops.n == before + 1
                size = len(plan._deg_cache)
                assert plan.edge_degree(edge, s) == want     # a cache hit
                assert ops.n == before + 2 and len(plan._deg_cache) == size

                # the bound-first index (wander, components) always takes s;
                # the edge-order index (DRS, GJ, alley) only as a prefix
                for idx in (plan.bound_index(edge, s), plan.index_for(edge)):
                    if tuple(a for a in idx.order if a in s) != idx.order[:k]:
                        with pytest.raises(UnsupportedOrderError):
                            idx.sample_row(s, random.Random(seed))
                        continue
                    perm = [schema.index(a) for a in idx.order]
                    ordered = [tuple(r[p] for p in perm) for r in rows]
                    before = ops.n
                    if want == 0:
                        with pytest.raises(EmptySemijoinError):
                            idx.sample_row(s, random.Random(seed))
                    else:
                        row = idx.sample_row(s, random.Random(seed))
                        assert row in ordered
                        assert all(dict(zip(idx.order, row))[a] == v
                                   for a, v in s.items())
                        assert row == _reference_row(ordered, idx.order, s,
                                                     random.Random(seed))
                    assert ops.n == before + 1
