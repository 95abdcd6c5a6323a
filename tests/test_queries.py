from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example
from hypothesis import given, settings, strategies as st

import oracles
from conftest import build, raw_edges
from joinsample import (
    Database, Plan, QueryError, agm, fractional_edge_cover, generic_join,
    half_integral_cover, parse_query_text, residual_agm, validate,
)
from joinsample import queries
from joinsample.queries import (
    Hypergraph, bound_first_index, edge_index, edge_projections, relation_sizes,
)


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


def test_an_attribute_listed_twice_is_rejected():
    doc = ('{"attributes": ["A", "A", "B", "C"], "edges": ['
           '{"relation": "R", "vars": ["A", "B"]}, '
           '{"relation": "S", "vars": ["B", "C"]}]}')
    with pytest.raises(QueryError, match="repeat"):
        parse_query_text(doc)
    with pytest.raises(QueryError, match="repeat"):
        Hypergraph(("A", "B", "A"), [(("A", "B"), "R")])


def test_a_projection_listed_twice_is_rejected():
    doc = ('{"attributes": ["A", "B", "C"], "edges": ['
           '{"relation": "R", "vars": ["A", "B"]}, '
           '{"relation": "S", "vars": ["B", "C"]}], "projection": ["A", "A", "C"]}')
    with pytest.raises(QueryError, match="projection repeats"):
        parse_query_text(doc)


@pytest.mark.parametrize("attributes,vars_,projection", [
    ('"ABC"', '["A", "B"]', '["A"]'),
    ('["A", "B", "C"]', '"AB"', '["A"]'),
    ('["A", "B", "C"]', '["A", "B"]', '"AC"'),
    ('["A", "B", "C"]', '["A", "B"]', '{"A": 1}'),
    ('["A", 1, "C"]', '["A", 1]', '["A"]'),
    ('["A", "B", "C"]', '["A", "B"]', '[["A"]]'),
])
def test_name_lists_must_be_arrays_of_strings(attributes, vars_, projection):
    # a string where a list belongs would otherwise split into characters
    doc = (f'{{"attributes": {attributes}, "edges": ['
           f'{{"relation": "R", "vars": {vars_}}}, '
           f'{{"relation": "S", "vars": ["B", "C"]}}], "projection": {projection}}}')
    with pytest.raises(QueryError, match="array of strings"):
        parse_query_text(doc)


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


@st.composite
def _queries_with_sizes(draw, min_arity, max_arity):
    attrs = "ABCDEF"[:draw(st.integers(max(2, min_arity), 6))]
    edges = draw(st.lists(
        st.lists(st.sampled_from(attrs), min_size=min_arity,
                 max_size=max_arity, unique=True),
        min_size=1, max_size=6))
    size = st.sampled_from([1, 2, 3, 4, 8, 9, 16, 27])
    if draw(st.booleans()):
        sizes = [draw(size)] * len(edges)
    else:
        sizes = [draw(size) for _ in edges]
    used = sorted(set().union(*map(set, edges)))
    hq = Hypergraph(used, [(tuple(e), f"R{i}") for i, e in enumerate(edges)])
    return hq, sizes


@settings(max_examples=60, deadline=None)
@given(_queries_with_sizes(1, 3))
def test_cover_equals_the_boxed_vertex_oracle(case):
    hq, sizes = case
    cover = fractional_edge_cover(hq, dict(enumerate(sizes)))
    ref = oracles.exact_cover_vertex([set(e.attrs) for e in hq.edges], sizes)
    assert [cover.weights[e.eid] for e in hq.edges] == ref


@settings(max_examples=60, deadline=None)
@given(_queries_with_sizes(2, 2))
def test_half_integral_cover_equals_the_3m_reference(case):
    hq, sizes = case
    cover, comps = half_integral_cover(hq, dict(enumerate(sizes)))
    weights, ref_comps = oracles.half_integral_reference(
        [e.attrs for e in hq.edges], sizes)
    assert [cover.weights[e.eid] for e in hq.edges] == weights
    assert comps == ref_comps


@st.composite
def _square_systems(draw):
    """(rows, m): m rows (coeffs, rhs) over m unknowns, coefficients and
    right-hand sides 0 or 1, as the cover LP's tight rows are; most are
    singular."""
    m = draw(st.integers(1, 7))
    bit = st.integers(0, 1)
    rows = draw(st.lists(st.tuples(st.lists(bit, min_size=m, max_size=m), bit),
                         min_size=m, max_size=m))
    return rows, m


@settings(max_examples=400, deadline=None, database=None)
@given(_square_systems())
@example(([([1, 1, 0], 1), ([0, 1, 1], 1), ([1, 0, 1], 1)], 3))   # det 2
@example(([([1, 1], 1), ([1, 1], 0)], 2))                          # singular
def test_integer_solver_equals_the_fraction_oracle(case):
    rows, m = case
    want = oracles.fraction_solve(rows, m)
    got = queries._solve_exact(rows, m)
    if want is None:
        assert got is None
    else:
        assert got == want and all(type(x) is Fraction for x in got)


@st.composite
def _graphs(draw):
    """(nodes, pairs): undirected pairs over up to 10 string names, and the
    names a caller asks about, which need not include every pair's ends."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 10)))]
    name = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(name, name), max_size=15))
    nodes = draw(st.lists(name, unique=True))
    return nodes, pairs


@settings(max_examples=200, deadline=None, database=None)
@given(_graphs())
def test_connected_parts_equal_the_reachability_oracle(case):
    nodes, pairs = case
    neighbours = {}   # nodes on no pair have no entry
    for a, b in pairs:
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    parts = queries.connected_parts(nodes, neighbours)
    # a partition of nodes, in order of least node
    assert sorted(x for p in parts for x in p) == sorted(nodes)
    assert [min(p) for p in parts] == sorted(min(p) for p in parts)
    assert len({min(p) for p in parts}) == len(parts)
    # each part is connected and no pair inside nodes spans two parts
    assert set(parts) == oracles.reachability_classes(nodes, pairs)
    part_of = {x: p for p in parts for x in p}
    assert all(part_of[a] is part_of[b] for a, b in pairs
               if a in part_of and b in part_of)


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
    # the schema spelled out and left out share one trie
    assert db.index("G", ("X", "Y")).root is db.index("G", ("X", "Y"), ("X", "Y")).root


def _count_edge_index_calls(monkeypatch):
    calls = []
    real = queries.edge_index
    monkeypatch.setattr(queries, "edge_index",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_second_generic_join_looks_up_no_index(monkeypatch):
    # the database keeps every bound-first index a join found
    db, query, _ = build("cycle4")
    hq = query.hypergraph
    first = generic_join(db, hq)
    assert db.bound_first
    calls = _count_edge_index_calls(monkeypatch)
    assert generic_join(db, hq) == first
    assert calls == []


def test_residual_agm_finds_its_indexes_on_the_database(monkeypatch):
    db, query, _ = build("tri-skew")
    hq = query.hypergraph
    cover = fractional_edge_cover(hq, relation_sizes(db, hq))
    bindings = [{"A": db.interner.intern(v)} for v in range(6)]
    first = [residual_agm(db, hq, cover, {"B", "C"}, s) for s in bindings]
    calls = _count_edge_index_calls(monkeypatch)
    again = [residual_agm(db, hq, cover, {"B", "C"}, s) for s in bindings]
    assert again == first
    assert calls == []
    # a plan's step records hold the database's own entries
    plan = Plan(db, hq)
    for k in range(len(plan.elim)):
        rec = plan.step_record(frozenset(plan.elim[k:]))
        built = len(calls)
        for e, idx in zip(rec.edges, rec.draws):
            assert idx is bound_first_index(db, e, plan.elim[:k], rec.attr)
        assert len(calls) == built


def test_bound_first_indexes_are_kept_per_column_names():
    # two queries name R's columns in opposite orders: A is R's first column
    # in one and its second in the other, so A-first indexes differ
    db = Database()
    db.load("R", ("X", "Y"), [(1, 2), (1, 3), (2, 3)])
    fwd = Hypergraph(("A", "B"), [(("A", "B"), "R")]).edges[0]
    back = Hypergraph(("A", "B"), [(("B", "A"), "R")]).edges[0]
    i_fwd = bound_first_index(db, fwd, {"A"})
    i_back = bound_first_index(db, back, {"A"})
    assert i_fwd is not i_back
    assert i_fwd.order == i_back.order == ("A", "B")
    one, three = db.interner.intern(1), db.interner.intern(3)
    assert i_fwd.degree({"A": one}) == 2 and i_fwd.degree({"A": three}) == 0
    assert i_back.degree({"A": one}) == 0 and i_back.degree({"A": three}) == 2
    assert bound_first_index(db, fwd, {"A": one}) is i_fwd
    assert bound_first_index(db, back, ("A",)) is i_back


@st.composite
def _projection_cases(draw):
    """(db, plan, ids, depth): a query of one to four edges of arity 1 to 3
    over A-D, edges of one arity sometimes sharing a relation, with
    duplicate rows; a permuted elimination order, skip_nonjoin on or off;
    an interned value per attribute (4 is in no row) and a depth of the
    elimination order to bind."""
    edges = []
    for i in range(draw(st.integers(1, 4))):
        attrs = tuple(draw(st.permutations("ABCD"))[:draw(st.integers(1, 3))])
        edges.append((attrs, f"R{len(attrs)}" if draw(st.booleans()) else f"E{i}"))
    db = Database()
    for attrs, rel in edges:
        if rel not in db.relations:
            row = st.tuples(*[st.integers(0, 3)] * len(attrs))
            db.load(rel, tuple("XYZ"[:len(attrs)]), draw(st.lists(row, min_size=1,
                                                                   max_size=10)))
    names = sorted({a for attrs, _ in edges for a in attrs})
    plan = Plan(db, Hypergraph(names, edges), elim_order=draw(st.permutations(names)),
                skip_nonjoin=draw(st.booleans()))
    ids = {a: db.interner.intern(draw(st.integers(0, 4))) for a in names}
    return db, plan, ids, draw(st.integers(0, len(plan.elim)))


def _matching_rows(db, edge, s):
    """R_F ⋉ s off the relation's rows, each as a dict over F's attributes."""
    rows = (dict(zip(edge.attrs, t)) for t in db.relation(edge.relation).tuples)
    return [r for r in rows if all(r[x] == v for x, v in s.items() if x in r)]


@settings(max_examples=200, deadline=None, database=None)
@given(_projection_cases())
def test_projections_and_leaf_counts_match_brute_force(case):
    # edge_projections (generic_join), the step records' projections (GJ,
    # alley) and leaf_value read the bound-first indexes; here they meet
    # π_a(R_F ⋉ s) off the rows
    db, plan, ids, depth = case
    s = {a: ids[a] for a in plan.elim[:depth]}
    for a in plan.query.attributes:
        if a in s:
            continue
        edges = plan.query.edges_containing(a)
        for e, view in zip(edges, edge_projections(db, edges, a, s)):
            want = Counter(r[a] for r in _matching_rows(db, e, s))
            assert dict(view.items()) == want
            assert view.size() == len(want) and view.rows() == sum(want.values())
    if depth < len(plan.elim):
        # DRS draws from the index whose order is s's columns, then a
        rec = plan.step_record(frozenset(plan.elim[depth:]))
        for e, idx in zip(rec.edges, rec.draws):
            bound = sorted(x for x in e.attrs if x in s)
            assert idx.order[:len(bound) + 1] == (*bound, rec.attr)
        # GJ and alley project the record's attribute off those indexes
        for e, view in zip(rec.edges, rec.projections(s)):
            want = Counter(r[rec.attr] for r in _matching_rows(db, e, s))
            assert dict(view.items()) == want
            assert view.size() == len(want) and view.rows() == sum(want.values())
    s = {a: ids[a] for a in plan.elim}
    want = 1.0
    for e in plan.query.edges:
        rest = sorted(e.attr_set & plan.skipped)
        if rest:
            want *= len({tuple(r[x] for x in rest) for r in _matching_rows(db, e, s)})
    assert plan.leaf_value(s) == want


def test_agm_upper_bounds_output_everywhere():
    for name in ("tri-skew", "path3", "ternary", "cycle4", "skew-pair",
                 "selfjoin-tri", "sym-tri", "star3", "k4", "sym-5cyc"):
        db, query, raw = build(name)
        hq = query.hypergraph
        sizes = relation_sizes(db, hq)
        cover = fractional_edge_cover(hq, sizes)
        out = oracles.distinct_count(raw, raw_edges(query))
        assert agm(cover, sizes).value >= out - 1e-9, name
