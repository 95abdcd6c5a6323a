from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import CORPUS, build, oracle
from joinsample import (
    GHD, Database, GJSample, Hypergraph, QueryError, check_ghd, choose_ghd,
    enumerate_ghds, fhtw, ghd_card_est, join_tree, rho_star, width,
)
from joinsample.ghd import group_by_card_est, node_query
from joinsample.queries import fractional_edge_cover

# fhtw and the choose_ghd signature ("bags | tree edges") on every fixture.
# The edge-union search the elimination search replaced gave the same pairs
# on every fixture it finished; it did not finish sym-5cyc, sym-mixed or k4.
SEARCH_PINS = {
    "tri-skew": ("3/2", "ABC |"),
    "path3": ("1", "AB BC CD | AB-BC BC-CD"),
    "ternary": ("1", "ABC BCD | ABC-BCD"),
    "cycle4": ("2", "ABC ACD | ABC-ACD"),
    "skew-pair": ("1", "AB AC | AB-AC"),
    "selfjoin-tri": ("3/2", "ABC |"),
    "empty-tri": ("3/2", "ABC |"),
    "sym-tri": ("3/2", "ABC |"),
    "sym-5cyc": ("2", "ABC ACD ADF | ABC-ACD ACD-ADF"),
    "star3": ("1", "HU HV HW | HU-HV HU-HW"),
    "star2": ("1", "HU HV | HU-HV"),
    "sym-mixed": ("3/2", "ABC HU HV | ABC-HU HU-HV"),
    "k4": ("2", "ABCD |"),
    "proj-threecomp": ("1", "AB BC DE | AB-BC AB-DE"),
    "proj-path": ("1", "AB BC CD | AB-BC BC-CD"),
    "proj-fulltri": ("3/2", "ABC |"),
    "proj-inside": ("1", "AB BC | AB-BC"),
    "proj-star": ("1", "HU HV HW | HU-HV HU-HW"),
}


def _sig_text(ghd):
    bags, edges = ghd.signature()
    return (" ".join("".join(b) for b in bags) + " | "
            + " ".join("-".join("".join(b) for b in e) for e in edges)).rstrip()


def test_check_ghd_rejections():
    db, query, _ = build("tri-skew")
    hq = query.hypergraph
    with pytest.raises(QueryError):
        check_ghd(hq, GHD([frozenset("AB"), frozenset("BC")], [(0, 1)]))
    db2, q2, _ = build("path3")
    hq2 = q2.hypergraph
    # B appears in bags 0 and 2, which do not touch
    bad = GHD([frozenset("AB"), frozenset("CD"), frozenset("BC")],
              [(0, 1), (1, 2)])
    with pytest.raises(QueryError):
        check_ghd(hq2, bad)
    with pytest.raises(QueryError):
        check_ghd(hq2, GHD([frozenset("ABC")], []))
    # a cycle is not a tree: it would otherwise pass the checks above
    with pytest.raises(QueryError, match="needs 2 edges, got 3"):
        GHD([frozenset("AB"), frozenset("BC"), frozenset("AC")],
            [(0, 1), (1, 2), (2, 0)])
    good = GHD([frozenset("AB"), frozenset("BC"), frozenset("CD")],
               [(0, 1), (1, 2)])
    check_ghd(hq2, good)


def test_enumerate_contains_edge_per_node_tree():
    db, query, _ = build("path3")
    hq = query.hypergraph
    sigs = {g.signature() for g in enumerate_ghds(hq)}
    want = GHD([frozenset("AB"), frozenset("BC"), frozenset("CD")],
               [(0, 1), (1, 2)]).signature()
    assert want in sigs


def test_fhtw_pins():
    for name, expect in (("path3", Fraction(1)), ("star3", Fraction(1)),
                         ("ternary", Fraction(1)), ("tri-skew", Fraction(3, 2)),
                         ("cycle4", Fraction(2)), ("sym-5cyc", Fraction(2)),
                         ("k4", Fraction(2)), ("sym-mixed", Fraction(3, 2))):
        db, query, _ = build(name)
        w, witness = fhtw(query.hypergraph)
        assert w == expect, name
        assert width(witness, query.hypergraph) == w


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_search_pins(name):
    db, query, _ = build(name)
    hq = query.hypergraph
    w, _ = fhtw(hq)
    chosen = choose_ghd(db, hq)
    check_ghd(hq, chosen)
    assert (str(w), _sig_text(chosen)) == SEARCH_PINS[name]
    assert width(chosen, hq) == w


@pytest.mark.parametrize("name", ["cycle4", "sym-5cyc", "k4", "sym-mixed"])
def test_fhtw_and_choose_ghd_solve_each_distinct_bag_once(name, monkeypatch):
    # rho* of a bag is solved once per query, whoever asks: fhtw, then
    # choose_ghd, then the CLI's bag table all read the query's memo
    import joinsample.ghd as ghd_module

    solved = []

    def spy(query, sizes):
        solved.append(frozenset(query.attributes))
        return fractional_edge_cover(query, sizes)

    monkeypatch.setattr(ghd_module, "fractional_edge_cover", spy)
    db, query, _ = build(name)
    hq = query.hypergraph
    w, _ = fhtw(hq)
    chosen = choose_ghd(db, hq)
    bags = {b for g in enumerate_ghds(hq) for b in g.bags}
    assert len(solved) == len(set(solved)) == len(bags)
    assert set(solved) == bags
    assert max(rho_star(b, hq) for b in chosen.bags) == w
    assert len(solved) == len(bags)   # the bag table solved nothing new
    # a new query object holds no solves
    rho_star(chosen.bags[0], build(name)[1].hypergraph)
    assert len(solved) == len(bags) + 1


def test_searched_ghd_estimate_pins():
    for name, want in (("cycle4", "24.666666666666668"),
                       ("sym-tri", "181.01933598375618")):
        db, query, _ = build(name)
        got = ghd_card_est(db, query.hypergraph, ghd=None, budget=3, seed=7)
        assert repr(got) == want, name


@st.composite
def _hypergraphs(draw):
    attrs = "ABCDEF"[:draw(st.integers(1, 6))]
    edges = draw(st.lists(st.sets(st.sampled_from(attrs), min_size=1),
                          min_size=1, max_size=5))
    used = sorted(set().union(*edges))
    return Hypergraph(used, [(tuple(sorted(e)), f"R{i}")
                             for i, e in enumerate(edges)])


@settings(max_examples=100, deadline=None)
@given(_hypergraphs())
def test_elimination_search_properties(hq):
    for ghd in enumerate_ghds(hq):
        check_ghd(hq, ghd)
    w, witness = fhtw(hq)
    check_ghd(hq, witness)
    assert width(witness, hq) == w
    # width 1 means every bag lies inside one edge: exactly the acyclic case
    assert (w == 1) == (join_tree(hq) is not None)
    assert w <= rho_star(hq.attributes, hq)


@settings(max_examples=100, deadline=None)
@given(_hypergraphs(), st.data())
def test_rho_star_matches_the_unfiltered_cover_lp(hq, data):
    # rho_star leaves out projections contained in another; the LP over
    # every distinct projection must give the same optimum
    bag = data.draw(st.sets(st.sampled_from(hq.attributes), min_size=1))
    inters = []
    for e in hq.edges:
        inter = tuple(sorted(e.attr_set & bag))
        if inter and inter not in inters:
            inters.append(inter)
    full = Hypergraph(sorted(bag), [(i, "R") for i in inters])
    cover = fractional_edge_cover(full, {e.eid: 2 for e in full.edges})
    assert rho_star(bag, hq) == cover.rho()


def test_join_tree_only_for_acyclic_queries():
    db, query, _ = build("path3")
    hq = query.hypergraph
    jt = join_tree(hq)
    assert jt is not None
    assert sorted(map(tuple, map(sorted, jt.bags))) == sorted(
        tuple(sorted(e.attrs)) for e in hq.edges)
    db2, q2, _ = build("tri-skew")
    assert join_tree(q2.hypergraph) is None
    db3, q3, _ = build("star3")
    assert join_tree(q3.hypergraph) is not None


def test_acyclic_estimate_is_exact_at_any_seed():
    for name in ("path3", "star3", "ternary"):
        db, query, _ = build(name)
        hq = query.hypergraph
        out = float(oracle(name).out)
        for seed in (0, 1, 2):
            assert ghd_card_est(db, hq, budget=1, seed=seed) == out, name


def _loaded(raw, edges):
    """Database over raw plus the hypergraph of edges [(relation, attrs)]."""
    db = Database()
    for rel, (schema, rows) in raw.items():
        db.load(rel, schema, rows)
    attrs = sorted({a for _, e in edges for a in e})
    return db, Hypergraph(attrs, [(e, rel) for rel, e in edges])


def test_shortcut_nodes_enforce_every_edge():
    # F covers both AB bags, but only E, whose attributes equal them, is
    # enforced there: one answer, where shortcuts through F counted F's three
    raw = {"F": (("A", "B", "C"), [(1, 1, 1), (1, 2, 1), (2, 2, 2)]),
           "E": (("A", "B"), [(1, 1)])}
    edges = [("F", ("A", "B", "C")), ("E", ("A", "B"))]
    db, hq = _loaded(raw, edges)
    g = GHD([frozenset("ABC"), frozenset("AB"), frozenset("AB")], [(0, 1), (0, 2)])
    assert ghd_card_est(db, hq, ghd=g, budget=4) == 1.0
    # two edges over one attribute set: a bag equal to both enforces only
    # the one it chose, so the other must be checked elsewhere
    raw = {"E1": (("A", "B"), [(1, 1), (1, 2), (2, 2)]),
           "E2": (("A", "B"), [(1, 2), (3, 3)])}
    edges = [("E1", ("A", "B")), ("E2", ("A", "B"))]
    db, hq = _loaded(raw, edges)
    g = GHD([frozenset("AB"), frozenset("AB")], [(0, 1)])
    assert ghd_card_est(db, hq, ghd=g, budget=1) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["AB", "BC", "AC", "A", "C"]),
       st.booleans())
def test_join_trees_with_nested_edges_count_exactly(rnd, sub, repeat):
    # every bag of a join tree is one edge's, so every node is a shortcut
    # and the estimate is the exact count, also where E lies inside R and
    # where E's bag appears twice
    def rows(arity, values):
        return [tuple(rnd.randrange(values) for _ in range(arity))
                for _ in range(rnd.randrange(1, 10))]

    raw = {"R": (("A", "B", "C"), rows(3, 3)), "E": (tuple(sub), rows(len(sub), 3)),
           "S": (("B", "D"), rows(2, 3))}
    edges = [("R", ("A", "B", "C")), ("E", tuple(sub)), ("S", ("B", "D"))]
    db, hq = _loaded(raw, edges)
    g = join_tree(hq)
    if repeat:
        g = GHD(g.bags + [frozenset(sub)], g.tree_edges + [(1, len(g.bags))], root=g.root)
    want = float(oracles.distinct_count(raw, edges))
    assert ghd_card_est(db, hq, ghd=g, budget=1, seed=rnd.randrange(9)) == want


def test_two_node_ghd_unbiased_smoke():
    db, query, _ = build("cycle4")
    hq = query.hypergraph
    g = GHD([frozenset("ABC"), frozenset("ACD")], [(0, 1)])
    check_ghd(hq, g)
    n = 200
    vals = [ghd_card_est(db, hq, ghd=g, strategy=GJSample(), budget=2, seed=i)
            for i in range(n)]
    mean = sum(vals) / n
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    se = (var / n) ** 0.5
    assert abs(mean - oracle("cycle4").out) < 4 * se + 1e-9


def test_choose_ghd_prefers_join_tree_on_acyclic():
    db, query, _ = build("path3")
    hq = query.hypergraph
    g = choose_ghd(db, hq)
    assert width(g, hq) == Fraction(1)


def test_budget_auto_schedule_runs():
    db, query, _ = build("cycle4")
    hq = query.hypergraph
    nq = node_query(db, hq, frozenset("ABC"))
    table = group_by_card_est(db, nq, ("A", "C"), GJSample(), "auto", seed=0)
    assert table
    assert all(v >= 0.0 for v in table.values())


def test_budget_below_one_is_rejected():
    db, query, _ = build("cycle4")
    nq = node_query(db, query.hypergraph, frozenset("ABC"))
    for budget in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            group_by_card_est(db, nq, ("A", "C"), GJSample(), budget)


def test_ghd_estimate_deterministic_per_seed():
    db, query, _ = build("cycle4")
    hq = query.hypergraph
    g = GHD([frozenset("ABC"), frozenset("ACD")], [(0, 1)])
    a = ghd_card_est(db, hq, ghd=g, budget=3, seed=42)
    assert a == ghd_card_est(db, hq, ghd=g, budget=3, seed=42)
