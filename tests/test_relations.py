import random

import pytest

from joinsample import (
    Database, EmptySemijoinError, SchemaError, UnsupportedOrderError,
    TrieIndex, load_relation, parse_relation_file,
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
