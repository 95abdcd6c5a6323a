import random

import pytest

import oracles
from conftest import build, decoded_answers, raw_edges
from joinsample import (
    Database, SchemaError, brute_force_join, generic_join, generic_join_exists,
)
from joinsample.queries import Hypergraph


def test_generic_join_matches_oracle_on_corpus():
    for name in ("tri-skew", "path3", "ternary", "cycle4", "skew-pair",
                 "selfjoin-tri", "sym-tri", "star3", "k4"):
        db, query, raw = build(name)
        got = generic_join(db, query.hypergraph)
        attrs, bag = oracles.nested_loop_join(raw, raw_edges(query))
        assert decoded_answers(db, got) == set(bag), name


def test_generic_join_empty_input():
    db, query, _ = build("empty-tri")
    assert generic_join(db, query.hypergraph) == set()


def test_generic_join_partial_binding():
    db, query, _ = build("skew-pair")
    hq = query.hypergraph
    s = {"A": db.interner.intern(1)}
    got = generic_join(db, hq, remaining={"B", "C"}, s=s)
    assert decoded_answers(db, got) == {(b, c) for b in (1, 2, 3) for c in (1, 2, 3)}
    s2 = {"A": db.interner.intern(3)}
    got2 = generic_join(db, hq, remaining={"B", "C"}, s=s2)
    assert decoded_answers(db, got2) == {(1, 1)}


def test_generic_join_exists():
    db, query, _ = build("skew-pair")
    hq = query.hypergraph
    assert generic_join_exists(db, hq, set(hq.attributes), {})
    assert generic_join_exists(db, hq, {"B", "C"}, {"A": db.interner.intern(2)})
    assert not generic_join_exists(db, hq, {"B", "C"}, {"A": db.interner.intern(77)})
    db2, q2, _ = build("empty-tri")
    assert not generic_join_exists(db2, q2.hypergraph, set(q2.hypergraph.attributes), {})


def test_brute_force_join_keeps_bag_semantics():
    db, query, _ = build("tri-skew")
    attrs, rows = brute_force_join(db, query.hypergraph)
    assert len(rows) == 9
    assert len(set(rows)) == 7
    got = generic_join(db, query.hypergraph)
    assert set(rows) == got


def test_order_hint_does_not_change_answers():
    db, query, _ = build("ternary")
    hq = query.hypergraph
    base = generic_join(db, hq)
    for hint in (("A", "B", "C", "D"), ("D", "C", "B", "A"), ("B", "D", "A", "C")):
        assert generic_join(db, hq, order_hint=hint) == base


def _random_instance(rng, shape):
    if shape == "path":
        raw = {
            "R": (("A", "B"), [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(1, 13))]),
            "S": (("B", "C"), [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(1, 13))]),
            "T": (("C", "D"), [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(1, 13))]),
        }
        edges = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))]
        attrs = ("A", "B", "C", "D")
    elif shape == "triangle":
        raw = {
            "R": (("A", "B"), [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(1, 13))]),
            "S": (("B", "C"), [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(1, 13))]),
            "T": (("A", "C"), [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(1, 13))]),
        }
        edges = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))]
        attrs = ("A", "B", "C")
    else:
        raw = {
            "R": (("A", "B", "C"), [tuple(rng.randrange(3) for _ in range(3)) for _ in range(rng.randrange(1, 16))]),
            "S": (("B", "D"), [(rng.randrange(3), rng.randrange(3)) for _ in range(rng.randrange(1, 13))]),
        }
        edges = [("R", ("A", "B", "C")), ("S", ("B", "D"))]
        attrs = ("A", "B", "C", "D")
    return raw, attrs, edges


def test_generic_join_randomized():
    rng = random.Random(417)
    for i in range(30):
        shape = ("path", "triangle", "ternary")[i % 3]
        raw, attrs, edges = _random_instance(rng, shape)
        db = Database()
        for rel, (schema, rows) in raw.items():
            db.load(rel, schema, rows)
        hq = Hypergraph(attrs, [(a, r) for r, a in edges])
        got = generic_join(db, hq)
        _, bag = oracles.nested_loop_join(raw, edges)
        assert decoded_answers(db, got) == set(bag), (shape, i)


def test_user_relation_cannot_take_a_self_join_alias():
    # binding R to (X, Y) indexes it under the derived name "R@X,Y";
    # projections of R are named "R[...]"
    db = Database()
    db.load("R", ("A", "B"), [(1, 2), (2, 3)])
    for name in ("R@X,Y", "R[A,B|A]"):
        with pytest.raises(SchemaError):
            db.load(name, ("X", "Y"), [(9, 9)])
    hq = Hypergraph(("X", "Y"), [(("X", "Y"), "R")])
    _, bag = brute_force_join(db, hq)
    assert generic_join(db, hq) == set(bag)
