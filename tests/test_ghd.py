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


# repr of ghd_card_est(seed=7) and the ops it charged on a fresh database,
# at budgets 1 and 3, for every decomposition enumerate_ghds yields
ESTIMATE_PINS = {
    ('tri-skew', 'ABC |'): (('0.0', 74), ('0.0', 161)),
    ('path3', 'AB BC CD | AB-BC BC-CD'): (('62.0', 76), ('62.0', 76)),
    ('path3', 'AB BCD | AB-BCD'): (('60.0', 144), ('88.0', 310)),
    ('path3', 'ABC CD | ABC-CD'): (('96.0', 177), ('72.0', 397)),
    ('path3', 'ABC ACD | ABC-ACD'): (('71.0', 513), ('75.0', 1335)),
    ('path3', 'ABD BCD | ABD-BCD'): (('68.0', 524), ('62.66666666666667', 1388)),
    ('ternary', 'ABC BCD | ABC-BCD'): (('16.0', 68), ('16.0', 68)),
    ('ternary', 'ABCD |'): (('0.0', 60), ('0.0', 109)),
    ('cycle4', 'ABD BCD | ABD-BCD'): (('34.0', 640), ('27.777777777777775', 1676)),
    ('cycle4', 'ABC ACD | ABC-ACD'): (('20.0', 592), ('24.666666666666668', 1532)),
    ('skew-pair', 'ABC |'): (('0.0', 23), ('8.33333333333333', 65)),
    ('skew-pair', 'AB AC | AB-AC'): (('11.0', 20), ('11.0', 20)),
    ('selfjoin-tri', 'ABC |'): (('41.569219381653056', 81), ('41.569219381653056', 168)),
    ('empty-tri', 'ABC |'): (('0.0', 3), ('0.0', 3)),
    ('sym-tri', 'ABC |'): (('181.01933598375618', 156), ('181.01933598375618', 276)),
    ('sym-5cyc', 'ABF BCF CDF | ABF-BCF BCF-CDF'): (('1994.0', 2078), ('2431.555555555556', 5262)),
    ('sym-5cyc', 'ABF BCD BDF | ABF-BDF BCD-BDF'): (('2388.0', 2112), ('2346.444444444445', 5296)),
    ('sym-5cyc', 'ABC ACF CDF | ABC-ACF ACF-CDF'): (('1970.0', 2078), ('2424.0000000000005', 5262)),
    ('sym-5cyc', 'ABC ACD ADF | ABC-ACD ACD-ADF'): (('1652.0', 2112), ('2232.111111111111', 5296)),
    ('sym-5cyc', 'ABD ADF BCD | ABD-ADF ABD-BCD'): (('1986.0', 2078), ('2284.444444444444', 5262)),
    ('star3', 'HUVW |'): (('0.0', 37), ('83.99999999999999', 89)),
    ('star3', 'HU HVW | HU-HVW'): (('15.0', 68), ('15.0', 132)),
    ('star3', 'HU HV HW | HU-HW HV-HW'): (('15.0', 38), ('15.0', 38)),
    ('star3', 'HU HV HW | HU-HV HU-HW'): (('15.0', 38), ('15.0', 38)),
    ('star3', 'HU HV HW | HU-HV HV-HW'): (('15.0', 38), ('15.0', 38)),
    ('star3', 'HUW HV | HUW-HV'): (('15.0', 72), ('15.0', 148)),
    ('star3', 'HUV HW | HUV-HW'): (('15.0', 68), ('15.0', 136)),
    ('star2', 'HUV |'): (('0.0', 29), ('14.0', 71)),
    ('star2', 'HU HV | HU-HV'): (('10.0', 26), ('10.0', 26)),
    ('sym-mixed', 'ABC HUV | ABC-HUV'): (('0.0', 185), ('0.0', 337)),
    ('sym-mixed', 'ABC HU HV | ABC-HV HU-HV'): (('1810.1933598375615', 185), ('1206.795573225041', 299)),
    ('sym-mixed', 'ABC HU HV | ABC-HU HU-HV'): (('1810.1933598375615', 185), ('1206.795573225041', 299)),
    ('k4', 'ABCD |'): (('1024.0', 308), ('682.6666666666666', 520)),
    ('proj-threecomp', 'AB BC DE | AB-BC BC-DE'): (('192.0', 56), ('192.0', 56)),
    ('proj-threecomp', 'AB BC DE | AB-BC AB-DE'): (('192.0', 56), ('192.0', 56)),
    ('proj-threecomp', 'ABC DE | ABC-DE'): (('0.0', 51), ('240.0', 105)),
    ('proj-path', 'AB BC CD | AB-BC BC-CD'): (('62.0', 76), ('62.0', 76)),
    ('proj-path', 'AB BCD | AB-BCD'): (('60.0', 144), ('88.0', 310)),
    ('proj-path', 'ABC CD | ABC-CD'): (('96.0', 177), ('72.0', 397)),
    ('proj-path', 'ABC ACD | ABC-ACD'): (('71.0', 513), ('75.0', 1335)),
    ('proj-path', 'ABD BCD | ABD-BCD'): (('68.0', 524), ('62.66666666666667', 1388)),
    ('proj-fulltri', 'ABC |'): (('0.0', 74), ('0.0', 161)),
    ('proj-inside', 'AB BC | AB-BC'): (('21.0', 36), ('21.0', 36)),
    ('proj-inside', 'ABC |'): (('0.0', 41), ('0.0', 84)),
    ('proj-star', 'HUVW |'): (('0.0', 37), ('83.99999999999999', 89)),
    ('proj-star', 'HU HVW | HU-HVW'): (('15.0', 68), ('15.0', 132)),
    ('proj-star', 'HU HV HW | HU-HW HV-HW'): (('15.0', 38), ('15.0', 38)),
    ('proj-star', 'HU HV HW | HU-HV HU-HW'): (('15.0', 38), ('15.0', 38)),
    ('proj-star', 'HU HV HW | HU-HV HV-HW'): (('15.0', 38), ('15.0', 38)),
    ('proj-star', 'HUW HV | HUW-HV'): (('15.0', 72), ('15.0', 148)),
    ('proj-star', 'HUV HW | HUV-HW'): (('15.0', 68), ('15.0', 136)),
}


def test_ghd_estimate_pins_on_every_decomposition():
    seen = set()
    for name in CORPUS:
        for g in enumerate_ghds(build(name)[1].hypergraph):
            key = (name, _sig_text(g))
            seen.add(key)
            got = []
            for budget in (1, 3):
                db, query, _ = build(name)
                ops0 = db.ops.n
                value = ghd_card_est(db, query.hypergraph, ghd=g, budget=budget, seed=7)
                got.append((repr(value), db.ops.n - ops0))
            assert tuple(got) == ESTIMATE_PINS[key], key
    assert seen == set(ESTIMATE_PINS)


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


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from(["AB", "BC", "AC", "A", "B", "C"]), st.sampled_from("ABC"),
       st.integers(0, 99))
def test_covered_bags_count_exactly_in_every_decomposition(rnd, sub, hook, seed):
    # E lies inside R, and S and T hang off R as a path. In every
    # decomposition where some edge covers each bag, every node counts
    # exactly, also where the only bag holding E is R's
    def rows(arity):
        return [tuple(rnd.randrange(3) for _ in range(arity))
                for _ in range(rnd.randrange(1, 12))]

    raw = {"R": (("A", "B", "C"), rows(3)), "E": (tuple(sub), rows(len(sub))),
           "S": ((hook, "D"), rows(2)), "T": (("D", "F"), rows(2))}
    edges = [(name, schema) for name, (schema, _) in raw.items()]
    db, hq = _loaded(raw, edges)
    want = float(oracles.distinct_count(raw, edges))
    covered = [g for g in enumerate_ghds(hq)
               if all(any(b <= e.attr_set for e in hq.edges) for b in g.bags)]
    assert covered
    for g in covered:
        assert ghd_card_est(db, hq, ghd=g, budget=1, seed=seed) == want, _sig_text(g)


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
