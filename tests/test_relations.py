import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from joinsample import (
    Database, EmptySemijoinError, Hypergraph, Plan, SchemaError,
    UnsupportedOrderError, TrieIndex, load_relation, parse_relation_file,
)
from joinsample.queries import bound_first_index
from joinsample.relations import Interner


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
    assert idx.degree({"A": a0, "B": b2}) > 0
    assert idx.degree({"A": b2, "B": b2}) == 0


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
    view = idx.project(("A",), {})
    assert view.size() == 2
    assert view.rows() == 4
    a0 = db.interner.intern(0)
    assert view.count_of((a0,)) > 0


def test_view_rows_and_items():
    db = small_db()
    idx = db.index("R", ("A", "B"))
    a0, b1, b2 = (db.interner.intern(v) for v in (0, 1, 2))
    top = idx.project(("A",), {})
    assert top.rows() == 4
    assert list(top.items()) == [(a0, 3), (db.interner.intern(1), 1)]
    under = idx.project(("B",), {"A": a0})
    assert under.rows() == 3
    assert list(under.items()) == [(b1, 2), (b2, 1)]
    assert all(under.count_of((v,)) == n for v, n in under.items())
    absent = idx.project(("B",), {"A": db.interner.intern(7)})
    assert absent.rows() == 0 and list(absent.items()) == []
    with pytest.raises(ValueError):
        idx.project(("A", "B"), {}).items()


def test_a_wide_view_refuses_iteration_and_sampling():
    # only size() and count_of read a view over more than one attribute
    db = small_db()
    wide = db.index("R", ("A", "B")).project(("A", "B"), {})
    assert wide.size() == 3
    with pytest.raises(ValueError):
        list(wide)
    before = db.ops.n
    with pytest.raises(ValueError):
        wide.sample(random.Random(0))
    assert db.ops.n == before


def test_view_sample_empty_raises():
    db = Database()
    db.load("R", ("A",), [])
    view = db.index("R", ("A",)).project(("A",), {})
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


def test_an_index_over_no_column_is_a_schema_error():
    # a projection keeping no column has the one row (); an index over it
    # has no level to build, so asking for one is a SchemaError, not an
    # IndexError from the trie builder
    db = small_db()
    key = db.projection("R", ("A", "B"), ())
    assert db.relation(key).tuples == [()]
    with pytest.raises(SchemaError, match="at least one column"):
        db.index(key, ())
    with pytest.raises(SchemaError, match="at least one column"):
        TrieIndex(db.relation(key), ())


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
    # under every set of bound attributes: empty, partial and full
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
                assert plan.edge_degree(edge, s) == want     # charges its op again
                assert ops.n == before + 2 and len(plan._deg_cache) == size

                # every index a probe or a row draw reads takes s as a
                # prefix: the bound-first index (wander, components) and
                # DRS's, with each attribute s leaves unbound next
                nexts = [a for a in schema if a not in s]
                for idx in (bound_first_index(plan.db, edge, s),
                            *(bound_first_index(db, edge, s, a) for a in nexts)):
                    assert tuple(a for a in idx.order if a in s) == idx.order[:k]
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


@st.composite
def _renamed_edges(draw):
    """(schema, rows, edges): a bag of arity 1 to 3 with duplicate rows, and
    edges over it, each naming its columns by a permutation of query
    attributes and reading them in a permuted order."""
    arity = draw(st.integers(1, 3))
    schema = tuple("XYZ"[:arity])
    value = st.integers(0, 3)
    rows = draw(st.lists(st.tuples(*[value] * arity), min_size=1, max_size=10))
    rows += draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4))
    names = st.permutations("ABCD").map(lambda p: tuple(p[:arity]))
    edges = draw(st.lists(st.tuples(names, st.permutations(range(arity))),
                          min_size=2, max_size=5))
    return schema, rows, [(attrs, tuple(attrs[p] for p in perm)) for attrs, perm in edges]


@settings(max_examples=150, deadline=None, database=None)
@given(_renamed_edges(), st.integers(0, 2**32))
def test_shared_tries_answer_as_tries_built_alone(case, seed):
    # every edge's index comes out of the database (built once per column
    # permutation, relabelled otherwise) and must answer every probe as a
    # TrieIndex built from scratch for the same relation, names and order
    schema, raw, edges = case
    db = Database()
    rel = db.load("E", schema, raw)
    values = sorted({v for t in rel.tuples for v in t}) + [len(db.interner)]
    perms = set()
    for attrs, order in edges:
        shared = db.index("E", order, attrs)
        alone = TrieIndex(rel, order, attrs=attrs)
        assert shared.order == alone.order == order and shared.relation is rel
        perms.add(tuple(attrs.index(a) for a in order))
        for k in range(len(order) + 1):
            for prefix in itertools.product(values, repeat=k):
                s = dict(zip(order, prefix))
                before = db.ops.n
                deg = shared.degree(s)
                assert deg == alone.degree(s) and db.ops.n == before + 1
                if k == len(order):
                    continue
                if deg:
                    ra, rb = random.Random(seed), random.Random(seed)
                    assert shared.sample_row(s, ra) == alone.sample_row(s, rb)
                    assert ra.getstate() == rb.getstate()
                va = shared.project(order[k:k + 1], s)
                vb = alone.project(order[k:k + 1], s)
                assert list(va.items()) == list(vb.items())
                assert va.size() == vb.size() and va.rows() == vb.rows()
                assert all(va.count_of((v,)) == vb.count_of((v,)) for v in values)
    # one trie per column permutation, whatever the names
    roots = {id(db.index("E", order, attrs).root) for attrs, order in edges}
    assert len(roots) == len(perms) == len(db._tries)


def test_self_join_cycle_builds_one_trie_per_column_order(monkeypatch):
    from joinsample.queries import edge_index

    builds = []
    init = TrieIndex.__init__
    monkeypatch.setattr(TrieIndex, "__init__",
                        lambda self, *a, **kw: builds.append(a) or init(self, *a, **kw))
    db = Database()
    rel = db.load("E", ("X", "Y"), [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1), (1, 2)])
    cycle = Hypergraph("ABCD", [(("A", "B"), "E"), (("B", "C"), "E"),
                                (("C", "D"), "E"), (("D", "A"), "E")])
    idxs = [edge_index(db, e, order) for e in cycle.edges
            for order in itertools.permutations(e.attrs)]
    # 4 edges x 2 orders resolve to 2 roots, and only those 2 went through
    # TrieIndex.__init__; the other 6 are relabellings
    assert len(idxs) == 8 and len({id(i.root) for i in idxs}) == 2
    assert len(builds) == 2
    assert [i.order for i in idxs[:2]] == [("A", "B"), ("B", "A")]
    assert all(i.relation is rel for i in idxs)

    # two edges of E projected onto the same column (Y): two keys, each
    # charging len(E) on first use, over one row list
    ops = db.ops.n
    k1 = db.projection("E", ("A", "B"), {"B"})
    k2 = db.projection("E", ("B", "C"), {"C", "D"})
    assert k1 != k2 and db.ops.n == ops + 2 * len(rel)
    p1, p2 = db.relation(k1), db.relation(k2)
    assert p1 is not p2 and (p1.schema, p2.schema) == (("B",), ("C",))
    assert p1.tuples is p2.tuples
    assert sorted(db.decode_tuple(t) for t in p1.tuples) == [(1,), (2,), (3,)]
    assert db.projection("E", ("A", "B"), ("B",)) == k1 and db.ops.n == ops + 2 * len(rel)
    # the other column is another row list; tries over the shared one, one build
    k3 = db.projection("E", ("A", "B"), {"A"})
    assert db.relation(k3).tuples is not p1.tuples
    assert db.index(k1, ("B",)).root is db.index(k2, ("C",)).root
    assert len(builds) == 3
    assert db.index(k2, ("C",)).relation is p2


@pytest.mark.parametrize("token,value", [
    (" 7 ", 7), ("-3", -3), ("+4", 4), ("1_000", 1000), ("x y", "x y"), ("", ""),
])
def test_parse_reads_each_token_as_int_or_stripped_string(token, value):
    # a token int() accepts is that integer (int() strips it itself); any
    # other token is kept as its stripped string, the empty one included
    _, _, rows = parse_relation_file(f"R:A,B\n{token},0\n")
    assert rows == [(value, 0)]
    assert type(rows[0][0]) is type(value)


def test_parse_keeps_the_integers_of_a_row_that_fails_mid_row():
    _, _, rows = parse_relation_file("R:A,B,C\n1,x,3\n")
    assert rows == [(1, "x", 3)]


def test_parse_and_load_a_file_mixing_integer_and_string_rows():
    name, schema, rows = parse_relation_file("R:A,B\n3,2\nb,3\n 1 ,a\n3,2\n")
    assert rows == [(3, 2), ("b", 3), (1, "a"), (3, 2)]
    rel = load_relation(name, schema, rows)
    # one sorted batch per load: ints ascending, then strings ascending
    assert [rel.interner.decode(i) for i in range(len(rel.interner))] == [1, 2, 3, "a", "b"]
    assert rel.tuples == [(2, 1), (4, 2), (0, 3), (2, 1)]


def test_arity_error_names_the_first_bad_row():
    with pytest.raises(SchemaError, match=r"row \(3,\) has arity 1, schema has 2"):
        load_relation("R", ("A", "B"), [(1, 2), (3,), (4, 5, 6), (7,)])
    with pytest.raises(SchemaError, match=r"row \(4, 5, 6\) has arity 3"):
        load_relation("R", ("A", "B"), [(1, 2), (4, 5, 6), (3,)])


@st.composite
def _relation_texts(draw):
    """A relation file's text: a padded header, then up to 12 data lines of
    one field count or, at times, ragged, with blank lines among them.
    Tokens are signed, padded or underscored ints, strings and empty ones."""
    arity = draw(st.integers(1, 3))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    digits = st.integers(0, 30).map(str)
    token = st.one_of(
        st.tuples(st.sampled_from(["", "-", "+"]), digits).map("".join),
        st.sampled_from(["1_0", "0_1", "007", "a", "b c", "x", "", "_", "1 2", "-"]),
        digits)
    fields = st.lists(st.tuples(pad, token, pad).map("".join),
                      min_size=arity, max_size=arity)
    if draw(st.integers(0, 3)) == 0:   # ragged: any field count per line
        fields = st.lists(st.tuples(pad, token, pad).map("".join), min_size=1, max_size=4)
    lines = draw(st.lists(st.one_of(fields.map(",".join), st.sampled_from(["", "  "])),
                          max_size=12))
    head = f" R : {','.join('ABC'[:arity])}"
    return "\n".join([head] + lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None, database=None)
@given(_relation_texts(), st.lists(st.one_of(st.integers(0, 5), st.just("a")), max_size=4))
@example("R:A\n", [])                                # no rows
@example("R:A,B\n1,2\n3\n", [1])                    # ragged
def test_parse_and_intern_equal_the_line_by_line_reading(text, earlier):
    name, schema, rows = parse_relation_file(text)
    assert (name, schema, rows) == oracles.parse_relation_by_line(text)
    # ids as a per-row interner hands them out, after earlier values
    interner = Interner()
    for v in earlier:
        interner.intern(v)
    ids = dict(interner._ids)
    if len(set(map(len, rows))) <= 1:
        assert interner.intern_rows(rows) == oracles.intern_by_row(ids, rows)
        assert interner._ids == ids
    else:   # a ragged file's load names its first row of another arity
        bad = next(r for r in rows if len(r) != len(schema))
        with pytest.raises(SchemaError, match=re.escape(f"row {bad!r} has arity")):
            load_relation(name, schema, rows, interner)


def test_rows_of_arity_zero_load():
    rel = load_relation("R", (), [(), ()])
    assert rel.tuples == [(), ()] and len(rel.interner) == 0


def test_loads_of_the_same_rows_give_the_same_ids_and_tuples():
    rows = [(3, "b"), (1, "a"), (3, "a"), (1, "a")]
    dbs = [Database(), Database()]
    for db in dbs:
        db.load("R", ("A", "B"), rows)
        db.load("S", ("B", "C"), [("a", 9), ("c", 1)])
    first, second = dbs
    assert first.interner._values == second.interner._values == [1, 3, "a", "b", 9, "c"]
    for name in ("R", "S"):
        assert first.relation(name).tuples == second.relation(name).tuples
    # a later load keeps the ids already handed out and numbers only its
    # fresh values, in one sorted batch of their own
    assert first.relation("R").tuples == [(1, 3), (0, 2), (1, 2), (0, 2)]
    assert first.relation("S").tuples == [(2, 4), (5, 0)]


def _trie_by_hand(rows):
    """(keys, cum, children) of the trie over `rows`, tuples of one length,
    grouped level by level with plain comparisons."""
    keys = sorted({r[0] for r in rows})
    cum, children = [0], []
    for k in keys:
        under = [r[1:] for r in rows if r[0] == k]
        cum.append(cum[-1] + len(under))
        children.append(_trie_by_hand(under) if under[0] else None)
    return keys, cum, children


def _trie_nodes(node):
    if node is None:
        return None
    return list(node.keys), list(node.cum), [_trie_nodes(c) for c in node.children]


@settings(max_examples=150, deadline=None, database=None)
@given(_bags())
def test_projection_rows_and_tries_match_brute_force(bag):
    # every naming of the columns, every subset of them kept (none, one,
    # all), and every order of every trie over the relation and over each
    # projection, against the rows themselves
    schema, raw, _ = bag
    db = Database()
    rows = db.load("R", schema, raw).tuples
    for order in itertools.permutations(schema):
        assert _trie_nodes(db.index("R", order).root) == _trie_by_hand(
            [tuple(t[schema.index(a)] for a in order) for t in rows])
    for attrs in itertools.permutations(schema):
        for k in range(len(schema) + 1):
            for keep in itertools.combinations(schema, k):
                key = db.projection("R", attrs, keep)
                inter = tuple(sorted(keep))
                positions = [attrs.index(a) for a in inter]
                want = sorted({tuple(t[p] for p in positions) for t in rows})
                proj = db.relation(key)
                assert proj.schema == inter and proj.tuples == want
                if not keep:
                    assert want == [()]
                    continue
                for order in itertools.permutations(inter):
                    assert _trie_nodes(db.index(key, order).root) == _trie_by_hand(
                        [tuple(t[inter.index(a)] for a in order) for t in want])
