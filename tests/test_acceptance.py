"""End-to-end checks, one test per advertised guarantee.

Each test is numbered; the session summary prints one PASS/FAIL line per
criterion. Statistical assertions use 4 standard errors unless the guarantee
itself states another margin, with trial counts chosen so the whole file
stays well under the suite's time budget.
"""

import math
import random
import statistics

import pytest

import conftest
import oracles
from conftest import build, decoded_answers, oracle, raw_edges
from joinsample import (
    AlleyPlus, DRS, Database, GHD, GJSample, Plan, check_ghd,
    estimate_projection_count, estimate_with_guarantee, fhtw,
    fractional_edge_cover, generic_card_est, generic_join, ghd_card_est,
    per_answer_probability, preprocess_weights, exact_uniform_sample,
    sample_projection, uniform_sample,
)
from joinsample.conjunctive import ProjectionPlan
from joinsample.estimators import derive_rng
from joinsample.queries import Hypergraph, bound_first_index, relation_sizes

conftest.ACCEPTANCE.update({
    1: "worst-case-optimal join matches the nested-loop oracle on 52 randomized queries",
    2: "cover optimum equals rational vertex enumeration exactly; AGM dominates OUT",
    3: "all seven sampling estimators unbiased within 4 SE at 100k+ trials",
    4: "rejection sampler is answer-uniform (1/50 per answer) on the shared-key pair",
    5: "table sampler hits every answer with probability 1/AGM",
    6: "empirical variances stay within 1.2x of the stated per-strategy bounds",
    7: "step probability mass, relative-degree and decomposition inequalities hold",
    8: "(0.3, 0.1) guarantee driver: accuracy rate, sample budget, zero declaration",
    9: "decomposition widths pinned; decomposition estimator unbiased and monotone",
    10: "exact weighting counts acyclic joins exactly and draws uniformly",
    11: "projection counts match the distinct projected answers; uniform conditionals",
    12: "attribute skipping, single-edge shortcut nodes, and boosting behave as stated",
})


def _db_from(raw):
    db = Database()
    for rel, (schema, rows) in raw.items():
        db.load(rel, schema, rows)
    return db


def _random_query(rng, shape):
    def pairs(n, lo=1, hi=26):
        return [(rng.randrange(5), rng.randrange(5))
                for _ in range(rng.randrange(lo, hi))]

    if shape == "path":
        raw = {"R": (("A", "B"), pairs(3)), "S": (("B", "C"), pairs(3)),
               "T": (("C", "D"), pairs(3))}
        edges = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))]
        attrs = ("A", "B", "C", "D")
    elif shape == "triangle":
        raw = {"R": (("A", "B"), pairs(3)), "S": (("B", "C"), pairs(3)),
               "T": (("A", "C"), pairs(3))}
        edges = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))]
        attrs = ("A", "B", "C")
    elif shape == "cycle":
        raw = {"R1": (("A", "B"), pairs(3)), "R2": (("B", "C"), pairs(3)),
               "R3": (("C", "D"), pairs(3)), "R4": (("D", "A"), pairs(3))}
        edges = [("R1", ("A", "B")), ("R2", ("B", "C")),
                 ("R3", ("C", "D")), ("R4", ("D", "A"))]
        attrs = ("A", "B", "C", "D")
    else:
        raw = {"R": (("A", "B", "C"),
                     [tuple(rng.randrange(4) for _ in range(3))
                      for _ in range(rng.randrange(1, 31))]),
               "S": (("B", "D"), pairs(3))}
        edges = [("R", ("A", "B", "C")), ("S", ("B", "D"))]
        attrs = ("A", "B", "C", "D")
    hq = Hypergraph(attrs, [(a, r) for r, a in edges])
    return raw, hq, edges


def test_criterion_01_generic_join_randomized():
    rng = random.Random(811)
    checked = 0
    for shape in ("path", "triangle", "cycle", "ternary"):
        for _ in range(13):
            raw, hq, edges = _random_query(rng, shape)
            db = _db_from(raw)
            got = generic_join(db, hq)
            _, bag = oracles.nested_loop_join(raw, edges)
            assert decoded_answers(db, got) == set(bag), (shape, checked)
            checked += 1
    assert checked == 52


def test_criterion_02_cover_optimum_and_agm_bound():
    names = ("tri-skew", "path3", "ternary", "cycle4", "skew-pair",
             "selfjoin-tri", "sym-tri", "sym-5cyc", "star3", "star2",
             "sym-mixed", "k4")
    cases = []
    for name in names:
        db, query, raw = build(name)
        cases.append((db, query.hypergraph, raw, raw_edges(query)))
    rng = random.Random(812)
    for shape in ("path", "triangle", "cycle", "ternary"):
        for _ in range(3):
            raw, hq, edges = _random_query(rng, shape)
            cases.append((_db_from(raw), hq, raw, edges))
    assert len(cases) >= 20
    for db, hq, raw, edges in cases:
        sizes = relation_sizes(db, hq)
        cover = fractional_edge_cover(hq, sizes)
        size_list = [sizes[e.eid] for e in hq.edges]
        ref = oracles.exact_cover_vertex(
            [set(e.attrs) for e in hq.edges], size_list)
        mine = [cover.weights[e.eid] for e in hq.edges]
        assert oracles.agm_equal(mine, ref, size_list)
        out = oracles.distinct_count(raw, edges)
        from joinsample import agm as _agm
        assert _agm(cover, sizes).value >= out - 1e-9

    # triangle over one symmetric relation: rho = 3/2 and AGM = IN^(3/2)
    db, query, _ = build("sym-tri")
    hq = query.hypergraph
    sizes = relation_sizes(db, hq)
    cover = fractional_edge_cover(hq, sizes)
    from fractions import Fraction
    from joinsample import agm as _agm
    assert cover.rho() == Fraction(3, 2)
    assert _agm(cover, sizes).log == pytest.approx(1.5 * math.log(32), abs=1e-9)


_BATCH3 = {
    "wander": ("tri-skew", "path3", "ternary", "cycle4", "skew-pair"),
    "alley-0.25": ("tri-skew", "path3", "ternary", "cycle4", "skew-pair"),
    "alley-0.5": ("tri-skew", "path3", "ternary", "cycle4", "skew-pair"),
    "gj": ("tri-skew", "path3", "ternary", "cycle4", "skew-pair"),
    "drs": ("tri-skew", "path3", "ternary", "cycle4", "skew-pair"),
    "sste": ("sym-tri", "sym-5cyc", "star3", "star2", "sym-mixed", "k4"),
    "sust": ("sym-tri", "sym-5cyc", "star3", "star2", "sym-mixed"),
}
_SHARED_200K = {("tri-skew", "alley-0.5"), ("tri-skew", "gj"),
                ("tri-skew", "drs"), ("sym-tri", "sste")}


def test_criterion_03_unbiasedness(mc):
    for key, fixtures in _BATCH3.items():
        for fix in fixtures:
            n = 200_000 if (fix, key) in _SHARED_200K else 100_000
            st = mc(fix, key, n)
            out = oracle(fix).out
            assert abs(st.mean - out) < 4 * st.se + 1e-12, (fix, key, st.mean)


def test_criterion_04_rejection_sampler_uniform():
    db, query, _ = build("skew-pair")
    plan = Plan(db, query.hypergraph, elim_order=("A", "B", "C"))
    strategy = DRS()
    n = 500_000
    counts = {}
    hits = 0
    for i in range(n):
        got = uniform_sample(plan, strategy, derive_rng("c4", "u", i))
        if got is None:
            continue
        hits += 1
        key = tuple(db.interner.decode(got[a]) for a in ("A", "B", "C"))
        counts[key] = counts.get(key, 0) + 1
    answers = oracle("skew-pair").distinct
    assert set(counts) == answers
    p = 1 / 50  # 1/|edges_A| * residual fraction, the per-answer constant
    se = math.sqrt(p * (1 - p) / n)
    for a in answers:
        assert abs(counts[a] / n - p) < 4 * se, a
    expect = hits / len(answers)
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 < oracles.chi2_crit(len(answers) - 1)


def test_criterion_05_table_sampler_uniform():
    for name, n in (("skew-pair", 100_000), ("tri-skew", 150_000)):
        db, query, _ = build(name)
        hq = query.hypergraph
        plan = Plan(db, hq)
        strategy = GJSample()
        p = 1.0 / plan.agm
        counts = {}
        for i in range(n):
            got = uniform_sample(plan, strategy, derive_rng("c5", name, i))
            if got is None:
                continue
            key = tuple(got[a] for a in sorted(hq.attributes))
            counts[key] = counts.get(key, 0) + 1
        answers = {tuple(r) for r in oracle(name).distinct}
        assert decoded_answers(db, counts) == answers
        se = math.sqrt(p * (1 - p) / n)
        for key, c in counts.items():
            assert abs(c / n - p) < 4 * se, (name, key)


def test_criterion_06_variance_bounds(mc):
    # AGM values recomputed through the independent LP oracle
    def agm_of(name):
        db, query, _ = build(name)
        hq = query.hypergraph
        sizes = [len(db.relations[e.relation]) for e in hq.edges]
        return math.exp(oracles.lp_rho_log([set(e.attrs) for e in hq.edges], sizes))

    out_tri, agm_tri = oracle("tri-skew").out, agm_of("tri-skew")
    out_sym, agm_sym = oracle("sym-tri").out, agm_of("sym-tri")

    st = mc("sym-tri", "sste", 200_000)
    assert st.var <= 1.2 * (2 ** 3) * agm_sym * out_sym

    st = mc("tri-skew", "alley-0.5", 200_000)
    # t = 2(1-b)/b = 2: (t^3 - t)/(t - 1) = 6
    assert st.var <= 1.2 * 6 * out_tri ** 2

    st = mc("tri-skew", "gj", 200_000)
    assert st.var <= 1.2 * 3 * agm_tri * out_tri

    st = mc("tri-skew", "drs", 200_000)
    assert st.var <= 1.2 * 3 * 8 * agm_tri * out_tri

    # full branching leaves no randomness: every trial is the exact count
    db, query, _ = build("tri-skew")
    plan = Plan(db, query.hypergraph)
    vals = [generic_card_est(plan, AlleyPlus(b=1.0),
                             rng=derive_rng("c6", "a1", i))
            for i in range(50)]
    assert set(vals) == {float(out_tri)}
    assert statistics.pvariance(vals) == 0.0


def _walk_inequalities(db, hq):
    plan = Plan(db, hq)
    tol = 1e-9

    def rec(remaining, s):
        if not remaining:
            return
        a = plan.next_attr(remaining)
        edges = plan.e_I[a]
        deg1 = {e.eid: plan.edge_degree(e, s) for e in edges}
        cand = set()
        for e in edges:
            bound = {x: s[x] for x in e.attrs if x in s}
            for (v,) in bound_first_index(plan.db, e, bound, a).project((a,), bound):
                cand.add(v)
        sum_ratio = 0.0
        sum_rmax = 0.0
        alive = []
        for c in sorted(cand):
            s2 = {**s, a: c}
            deg2 = {e.eid: plan.edge_degree(e, s2) for e in edges}
            ratio = plan.agm_ratio(remaining, s, a, c, deg1, deg2)
            sum_ratio += ratio
            rdegs = [deg2[e.eid] / deg1[e.eid] for e in edges]
            rmax = max(rdegs)
            sum_rmax += rmax
            pure = 1.0
            for e, rd in zip(edges, rdegs):
                x = float(plan.cover.weights[e.eid])
                if x:
                    pure *= rd ** x
            # the weighted geometric mean never beats the best factor
            assert pure <= rmax + tol
            if all(deg2[e.eid] > 0 for e in edges):
                alive.append(c)
        # kept-probability mass: the table strategy sums the ratios directly,
        # the rejection strategy divides that by the edge count
        assert sum_ratio <= 1 + tol
        assert sum_ratio / len(edges) <= 1 + tol
        # the best relative degree per value sums to at least one
        assert sum_rmax >= 1 - tol
        for c in alive:
            rec(remaining - {a}, {**s, a: c})

    rec(frozenset(plan.elim), {})
    return plan


def test_criterion_07_probability_inequalities():
    for name in ("skew-pair", "tri-skew", "cycle4", "star2"):
        db, query, _ = build(name)
        plan = _walk_inequalities(db, query.hypergraph)
        out = oracle(name).out
        # whole-answer mass: OUT/AGM and OUT * per-answer probability
        assert out / plan.agm <= 1 + 1e-9
        assert out * per_answer_probability(plan, DRS()) <= 1 + 1e-9
        assert out * per_answer_probability(plan, GJSample()) <= 1 + 1e-9


def test_criterion_08_guarantee_driver():
    db, query, _ = build("skew-pair")
    plan = Plan(db, query.hypergraph)
    strategy = DRS()
    out = float(oracle("skew-pair").out)
    eps, delta = 0.3, 0.1
    # U_var at the true output: |attrs| * prod |edges per attr| * AGM * OUT
    u_var = 3 * 2 * 25 * out
    budget = 4 * u_var / (eps * eps * delta * out * out)
    runs = 200
    within = 0
    for i in range(runs):
        rep = estimate_with_guarantee(plan, strategy, eps, delta, seed=i)
        assert rep.trials <= budget + 1e-9, i
        if abs(rep.estimate - out) <= eps * out + 1e-9:
            within += 1
    assert within >= 0.85 * runs

    # an output-free instance must terminate by declaring zero
    db0, q0, _ = build("empty-tri")
    rep0 = estimate_with_guarantee(Plan(db0, q0.hypergraph), DRS(), eps, delta)
    assert rep0.estimate == 0.0
    db1 = Database()
    db1.load("R", ("A", "B"), [(0, 1)])
    db1.load("S", ("B", "C"), [(1, 2)])
    db1.load("T", ("A", "C"), [(5, 5)])
    hq1 = Hypergraph(("A", "B", "C"),
                     [(("A", "B"), "R"), (("B", "C"), "S"), (("A", "C"), "T")])
    rep1 = estimate_with_guarantee(Plan(db1, hq1), DRS(), eps, delta, seed=4)
    assert rep1.estimate == 0.0
    assert rep1.assumed_out == 0.0


def _variance_with_se(vals, groups=15):
    n = len(vals)
    mean = sum(vals) / n
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    gsize = n // groups
    gvars = []
    for g in range(groups):
        chunk = vals[g * gsize:(g + 1) * gsize]
        gm = sum(chunk) / len(chunk)
        gvars.append(sum((v - gm) ** 2 for v in chunk) / (len(chunk) - 1))
    return var, statistics.stdev(gvars) / math.sqrt(groups)


def test_criterion_09_decomposition_engine():
    from fractions import Fraction
    for name, expect in (("path3", Fraction(1)), ("star3", Fraction(1)),
                         ("ternary", Fraction(1)), ("tri-skew", Fraction(3, 2)),
                         ("sym-tri", Fraction(3, 2))):
        db, query, _ = build(name)
        w, _ = fhtw(query.hypergraph)
        assert w == expect, name

    db, query, _ = build("cycle4")
    hq = query.hypergraph
    out = oracle("cycle4").out
    g = GHD([frozenset("ABC"), frozenset("ACD")], [(0, 1)])
    check_ghd(hq, g)
    n = 400
    vals = [ghd_card_est(db, hq, ghd=g, strategy=GJSample(), budget=2, seed=i)
            for i in range(n)]
    mean = sum(vals) / n
    se = math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1) / n)
    assert abs(mean - out) < 4 * se + 1e-9

    # full-branching per-node strategy collapses to the exact count
    for seed in (0, 1, 2):
        got = ghd_card_est(db, hq, ghd=g, strategy=AlleyPlus(b=1.0),
                           budget=1, seed=seed)
        assert got == float(out)

    # doubling the per-group budget never increases the variance
    v2, se2 = _variance_with_se(
        [ghd_card_est(db, hq, ghd=g, strategy=GJSample(), budget=2,
                      seed=f"lo{i}") for i in range(150)])
    v4, se4 = _variance_with_se(
        [ghd_card_est(db, hq, ghd=g, strategy=GJSample(), budget=4,
                      seed=f"hi{i}") for i in range(150)])
    assert v4 <= v2 + 3 * (se2 + se4)


def test_criterion_10_exact_weighting():
    rng = random.Random(813)
    for trial in range(20):
        kind = trial % 3
        if kind == 0:
            raw = {"R": (("A", "B"), [(rng.randrange(4), rng.randrange(4))
                                      for _ in range(rng.randrange(1, 26))]),
                   "S": (("B", "C"), [(rng.randrange(4), rng.randrange(4))
                                      for _ in range(rng.randrange(1, 26))]),
                   "T": (("C", "D"), [(rng.randrange(4), rng.randrange(4))
                                      for _ in range(rng.randrange(1, 26))])}
            edges = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))]
            attrs = ("A", "B", "C", "D")
        elif kind == 1:
            raw = {"F1": (("H", "U"), [(rng.randrange(3), rng.randrange(4))
                                       for _ in range(rng.randrange(1, 26))]),
                   "F2": (("H", "V"), [(rng.randrange(3), rng.randrange(4))
                                       for _ in range(rng.randrange(1, 26))]),
                   "F3": (("H", "W"), [(rng.randrange(3), rng.randrange(4))
                                       for _ in range(rng.randrange(1, 26))])}
            edges = [("F1", ("H", "U")), ("F2", ("H", "V")), ("F3", ("H", "W"))]
            attrs = ("H", "U", "V", "W")
        else:
            raw = {"R": (("A", "B", "C"),
                         [tuple(rng.randrange(3) for _ in range(3))
                          for _ in range(rng.randrange(1, 31))]),
                   "S": (("C", "D"), [(rng.randrange(3), rng.randrange(3))
                                      for _ in range(rng.randrange(1, 26))])}
            edges = [("R", ("A", "B", "C")), ("S", ("C", "D"))]
            attrs = ("A", "B", "C", "D")
        db = _db_from(raw)
        hq = Hypergraph(attrs, [(a, r) for r, a in edges])
        widx = preprocess_weights(db, hq)
        _, bag = oracles.nested_loop_join(raw, edges)
        assert widx.total == len(bag), trial

    # duplicate-free relations: every answer equally often
    db, query, _ = build("star2")
    widx = preprocess_weights(db, query.hypergraph)
    out = oracle("star2").bag_out
    assert widx.total == out
    n = 200_000
    counts = {}
    for i in range(n):
        got = exact_uniform_sample(widx, derive_rng("c10", "d", i))
        key = tuple(got[a] for a in sorted(got))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == out
    expect = n / out
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 < oracles.chi2_crit(out - 1)


def test_criterion_11_projection_counts():
    for name in ("proj-threecomp", "proj-path", "proj-fulltri",
                 "proj-inside", "proj-star"):
        db, query, raw = build(name)
        answers = oracles.projection_answers(raw, raw_edges(query),
                                             query.projection)
        rep = estimate_projection_count(db, query, c=192, seed=17)
        pp = ProjectionPlan(db, query)
        p_hat = rep.successes / rep.trials
        se = math.sqrt(max(p_hat, 1e-12) * (1 - p_hat) / rep.trials) / pp.p0
        assert abs(rep.estimate - len(answers)) < 4 * se + 1e-9, name

    # conditional on success, the landed candidates are uniform
    name = "proj-threecomp"
    db, query, raw = build(name)
    answers = oracles.projection_answers(raw, raw_edges(query), query.projection)
    pp = ProjectionPlan(db, query)
    counts = dict.fromkeys(answers, 0)
    hits = 0
    n = 60_000
    for i in range(n):
        got = sample_projection(pp, derive_rng("c11", name, i))
        if got is None:
            continue
        key = tuple(db.interner.decode(got[a]) for a in sorted(pp.out))
        counts[key] += 1
        hits += 1
    expect = hits / len(answers)
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 < oracles.chi2_crit(len(answers) - 1)


def test_criterion_12_variance_hygiene(mc):
    # skipping non-join attributes leaves the mean unchanged
    a = mc("path3", "drs", 100_000)
    b = mc("path3", "drs-skip", 100_000)
    assert abs(a.mean - b.mean) < 3 * math.hypot(a.se, b.se) + 1e-12
    out = oracle("path3").out
    assert abs(b.mean - out) < 4 * b.se + 1e-12

    # single-edge bags are folded exactly: zero variance across seeds
    db, query, _ = build("path3")
    vals = {ghd_card_est(db, query.hypergraph, budget=1, seed=s)
            for s in range(5)}
    assert vals == {float(out)}

    # raising kept-probabilities can only shrink the trial variance
    base = mc("skew-pair", "drs", 100_000)
    for key in ("drs-tie", "drs-any"):
        boosted = mc("skew-pair", key, 100_000)
        assert abs(boosted.mean - oracle("skew-pair").out) < 4 * boosted.se + 1e-12
        assert boosted.var <= base.var + 3 * (base.se_var + boosted.se_var), key
