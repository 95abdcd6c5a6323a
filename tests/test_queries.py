from fractions import Fraction

import pytest

import oracles
from conftest import build, raw_edges
from joinsample import (
    Plan, QueryError, agm, fractional_edge_cover, half_integral_cover,
    parse_query_text, residual_agm, validate,
)
from joinsample.queries import Hypergraph, edge_index, relation_sizes


def test_parse_rejects_bad_documents():
    with pytest.raises(QueryError):
        parse_query_text("not json")
    with pytest.raises(QueryError):
        parse_query_text('{"edges": []}')
    with pytest.raises(QueryError):
        parse_query_text('{"attributes": ["A"], "edges": ['
                         '{"relation": "R", "vars": ["A", "A"]}]}')
    with pytest.raises(QueryError):
        # B is covered by no edge
        parse_query_text('{"attributes": ["A", "B"], "edges": ['
                         '{"relation": "R", "vars": ["A"]}]}')
    with pytest.raises(QueryError):
        parse_query_text('{"attributes": ["A"], "edges": ['
                         '{"relation": "R", "vars": ["A", "B"]}]}')
    with pytest.raises(QueryError):
        parse_query_text('{"attributes": ["A"], "edges": ['
                         '{"relation": "R", "vars": ["A"]}], "projection": ["Z"]}')
    for doc in ('{"attributes": [], "edges": []}', '{"attributes": ["A"], "edges": []}'):
        with pytest.raises(QueryError, match="no edges"):
            parse_query_text(doc)
    with pytest.raises(QueryError, match="no edges"):
        Hypergraph((), [])


def test_validate_checks_schema_against_db():
    db, query, _ = build("tri-skew")
    validate(query.hypergraph, db)
    q2 = parse_query_text('{"attributes": ["A", "B"], "edges": ['
                          '{"relation": "NOPE", "vars": ["A", "B"]}]}')
    with pytest.raises(QueryError):
        validate(q2.hypergraph, db)
    q3 = parse_query_text('{"attributes": ["A"], "edges": ['
                          '{"relation": "R", "vars": ["A"]}]}')
    with pytest.raises(QueryError):
        validate(q3.hypergraph, db)  # R has arity 2


def test_triangle_cover_is_half_half_half():
    db, query, _ = build("tri-skew")
    hq = query.hypergraph
    cover = fractional_edge_cover(hq, relation_sizes(db, hq))
    assert sorted(cover.weights.values()) == [Fraction(1, 2)] * 3
    assert cover.rho() == Fraction(3, 2)
    assert cover.feasible(hq)


def test_agm_log_matches_scipy_lp():
    for name in ("tri-skew", "path3", "ternary", "cycle4", "skew-pair"):
        db, query, _ = build(name)
        hq = query.hypergraph
        sizes = relation_sizes(db, hq)
        cover = fractional_edge_cover(hq, sizes)
        got = agm(cover, sizes)
        ref = oracles.lp_rho_log(
            [set(e.attrs) for e in hq.edges], [sizes[e.eid] for e in hq.edges]
        )
        assert got.log == pytest.approx(ref, abs=1e-7)


def test_agm_exact_vertex_equality():
    for name in ("tri-skew", "path3", "ternary", "cycle4", "selfjoin-tri"):
        db, query, _ = build(name)
        hq = query.hypergraph
        sizes = relation_sizes(db, hq)
        cover = fractional_edge_cover(hq, sizes)
        size_list = [sizes[e.eid] for e in hq.edges]
        ref = oracles.exact_cover_vertex([set(e.attrs) for e in hq.edges], size_list)
        mine = [cover.weights[e.eid] for e in hq.edges]
        assert oracles.agm_equal(mine, ref, size_list)


def test_empty_relation_rejected_by_cover_but_plans_short_circuit():
    db, query, _ = build("empty-tri")
    hq = query.hypergraph
    with pytest.raises(QueryError):
        fractional_edge_cover(hq, relation_sizes(db, hq))
    plan = Plan(db, hq)
    assert plan.empty
    assert plan.agm == 0.0


def test_residual_agm_shrinks_under_binding():
    db, query, _ = build("skew-pair")
    hq = query.hypergraph
    sizes = relation_sizes(db, hq)
    cover = fractional_edge_cover(hq, sizes)
    whole = residual_agm(db, hq, cover, set(hq.attributes), {})
    assert whole == pytest.approx(25.0)
    a1 = db.interner.intern(1)
    bound = residual_agm(db, hq, cover, {"B", "C"}, {"A": a1})
    assert bound == pytest.approx(9.0)  # both semijoin degrees drop to 3
    a9 = db.interner.intern(9)
    dead = residual_agm(db, hq, cover, {"B", "C"}, {"A": a9})
    assert dead == 0.0


def test_half_integral_cover_shapes():
    db, query, _ = build("sym-tri")
    hq = query.hypergraph
    cover, comps = half_integral_cover(hq, relation_sizes(db, hq))
    assert [c[0] for c in comps] == ["cycle"]
    kind, seq, eids = comps[0]
    assert len(seq) == 3 and len(eids) == 3
    assert all(w == Fraction(1, 2) for w in cover.weights.values())

    db2, q2, _ = build("star3")
    hq2 = q2.hypergraph
    cover2, comps2 = half_integral_cover(hq2, relation_sizes(db2, hq2))
    assert [c[0] for c in comps2] == ["star"]
    assert comps2[0][1] == "H"
    assert set(cover2.weights.values()) <= {Fraction(0), Fraction(1)}

    db3, q3, _ = build("sym-mixed")
    hq3 = q3.hypergraph
    _, comps3 = half_integral_cover(hq3, relation_sizes(db3, hq3))
    assert sorted(c[0] for c in comps3) == ["cycle", "star"]


def test_half_integral_cover_requires_binary_edges():
    db, query, _ = build("ternary")
    with pytest.raises(QueryError):
        half_integral_cover(query.hypergraph)


def test_edge_index_shares_backing_storage():
    db, query, _ = build("selfjoin-tri")
    hq = query.hypergraph
    edge_bc = next(e for e in hq.edges if e.attrs == ("B", "C"))
    idx = edge_index(db, edge_bc, ("B", "C"))
    assert idx.degree({}) == len(db.relation("G"))
    # G's own rows, indexed under the edge's names; nothing added to db
    assert idx.relation is db.relation("G")
    assert idx.order == ("B", "C")
    assert set(db.relations) == {"G"}
    # the schema spelled out and left out share one index
    assert db.index("G", ("X", "Y")) is db.index("G", ("X", "Y"), ("X", "Y"))


def test_agm_upper_bounds_output_everywhere():
    for name in ("tri-skew", "path3", "ternary", "cycle4", "skew-pair",
                 "selfjoin-tri", "sym-tri", "star3", "k4", "sym-5cyc"):
        db, query, raw = build(name)
        hq = query.hypergraph
        sizes = relation_sizes(db, hq)
        cover = fractional_edge_cover(hq, sizes)
        out = oracles.distinct_count(raw, raw_edges(query))
        assert agm(cover, sizes).value >= out - 1e-9, name
