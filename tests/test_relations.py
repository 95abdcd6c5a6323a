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
