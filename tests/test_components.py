import itertools
import math

import pytest

from conftest import build, oracle
from joinsample import (
    ComponentPlan, Database, QueryError, generic_join, sste_estimate, sste_trial,
    sust_estimate, sust_sample, sust_trial, variance_bound_sste,
)
from joinsample.components import _canonical_weight
from joinsample.estimators import derive_rng
from joinsample.queries import Hypergraph


def _tri_selfjoin(rows):
    db = Database()
    db.load("G", ("X", "Y"), rows)
    hq = Hypergraph(("A", "B", "C"),
                    [(("A", "B"), "G"), (("B", "C"), "G"), (("A", "C"), "G")])
    return db, hq


def test_decompose_shapes():
    db, query, _ = build("sym-tri")
    cp = ComponentPlan(db, query.hypergraph)
    assert [c.kind for c in cp.components] == ["cycle"]
    assert len(cp.components[0].attrs) == 3
    assert not cp.fallback

    db2, q2, _ = build("star3")
    cp2 = ComponentPlan(db2, q2.hypergraph)
    assert [c.kind for c in cp2.components] == ["star"]
    assert cp2.components[0].attrs[0] == "H"
    assert len(cp2.components[0].edges) == 3

    db3, q3, _ = build("sym-mixed")
    cp3 = ComponentPlan(db3, q3.hypergraph)
    assert sorted(c.kind for c in cp3.components) == ["cycle", "star"]
    assert not cp3.fallback

    db4, q4, _ = build("sym-5cyc")
    cp4 = ComponentPlan(db4, q4.hypergraph)
    assert [c.kind for c in cp4.components] == ["cycle"]
    assert len(cp4.components[0].attrs) == 5


def test_decompose_k4_uses_cross_edge_fallback():
    db, query, _ = build("k4")
    cp = ComponentPlan(db, query.hypergraph)
    assert cp.fallback
    assert len(cp.cross_edges) == 4
    assert [c.kind for c in cp.components] == ["star", "star"]


def test_cycle_preconditions():
    # triangle over three distinct relations: no single-relation cycle
    db, query, _ = build("tri-skew")
    with pytest.raises(QueryError):
        ComponentPlan(db, query.hypergraph)
    # directed (asymmetric) self-join
    db2, hq2 = _tri_selfjoin([(1, 2), (2, 3), (3, 1)])
    with pytest.raises(QueryError):
        ComponentPlan(db2, hq2)


def test_sust_sample_guards():
    db, query, _ = build("k4")
    cp = ComponentPlan(db, query.hypergraph)
    with pytest.raises(QueryError):
        sust_sample(cp, derive_rng(0, "k4", 0))
    rows = [(1, 2), (2, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
    db2, hq2 = _tri_selfjoin(rows)
    cp2 = ComponentPlan(db2, hq2)  # symmetric with duplicates: the plan is fine
    with pytest.raises(QueryError):
        sust_sample(cp2, derive_rng(0, "dup", 0))
    assert sste_trial(cp2, derive_rng(0, "dup", 1)) >= 0.0


def test_sust_duplicate_check_runs_once_at_first_sample():
    rows = [(1, 2), (2, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
    db, hq = _tri_selfjoin(rows)
    cp = ComponentPlan(db, hq)
    assert "duplicated_relation" not in vars(cp)  # not part of plan set-up
    for i in range(2):
        with pytest.raises(QueryError, match="duplicate rows"):
            sust_sample(cp, derive_rng(0, "dup", i))
    assert vars(cp)["duplicated_relation"] == hq.edges[0].relation
    db2, query2, _ = build("sym-tri")
    cp2 = ComponentPlan(db2, query2.hypergraph)
    sust_trial(cp2, derive_rng(0, "sym", 0))
    assert vars(cp2)["duplicated_relation"] is None


def test_canonical_classes_partition_the_answers():
    db, query, _ = build("sym-tri")
    hq = query.hypergraph
    cp = ComponentPlan(db, hq)
    seq = cp.components[0].attrs
    out_attrs = tuple(sorted(hq.attributes))
    covered = 0
    reps = 0
    for row in generic_join(db, hq):
        s = dict(zip(out_attrs, row))
        vals = [s[v] for v in seq]
        is_canon, orbit = _canonical_weight(cp, "E", vals)
        if is_canon:
            covered += orbit
            reps += 1
    assert covered == oracle("sym-tri").out
    assert reps < oracle("sym-tri").out


def test_empty_component_plan():
    db, query, _ = build("empty-tri")
    cp = ComponentPlan(db, query.hypergraph)
    assert cp.empty
    rng = derive_rng(0, "empty", 0)
    assert sste_trial(cp, rng) == 0.0
    assert sust_trial(cp, rng) == 0.0
    assert sust_sample(cp, rng) is None
    assert variance_bound_sste(cp, 5.0) == 0.0


def test_an_empty_component_plan_sets_what_a_full_one_sets():
    # one empty relation returns early from ComponentPlan, after setting the
    # same attributes as a plan that decomposes
    db, query, _ = build("empty-tri")
    cp = ComponentPlan(db, query.hypergraph)
    full_db, full_query, _ = build("sym-tri")
    assert vars(cp).keys() == vars(ComponentPlan(full_db, full_query.hypergraph)).keys()
    assert (cp.plan, cp.components, cp.cross_edges, cp.fallback) == (None, [], [], False)
    assert (cp._cross, cp._first_column, cp._inc) == ((), {}, {})


def test_variance_bound_formula():
    db, query, _ = build("sym-tri")
    cp = ComponentPlan(db, query.hypergraph)
    out = float(oracle("sym-tri").out)
    assert variance_bound_sste(cp, out) == pytest.approx(8 * cp.plan.agm * out)


def test_estimates_are_seed_stable():
    db, query, _ = build("sym-tri")
    cp = ComponentPlan(db, query.hypergraph)
    a = sste_estimate(cp, 60, seed=9)
    assert a == sste_estimate(cp, 60, seed=9)
    assert a != sste_estimate(cp, 60, seed=10)
    b = sust_estimate(cp, 60, seed=9)
    assert b == sust_estimate(cp, 60, seed=9)


def test_component_trials_unbiased_smoke(mc):
    for fix, key in (("sym-tri", "sste"), ("sym-tri", "sust"), ("star3", "sste")):
        st = mc(fix, key, 4000)
        assert abs(st.mean - oracle(fix).out) < 4 * st.se + 1e-9, (fix, key)


def _chord_5cyc():
    """sym-5cyc's relation under edges AB, BC, CD, DF, AF and the chord AC:
    cycle ABC, star DF, cross edges CD and AF (SSTE's fallback regime)."""
    db, _, _ = build("sym-5cyc")
    hq = Hypergraph(("A", "B", "C", "D", "F"),
                    [(("A", "B"), "E"), (("B", "C"), "E"), (("C", "D"), "E"),
                     (("D", "F"), "E"), (("A", "F"), "E"), (("A", "C"), "E")])
    return db, hq


def _hub_triangle():
    """Triangle self-join on a symmetric graph of four mutually joined hubs
    and, for each pair of hubs, two leaves joined to both: every hub's
    incidence (18) is at least 2 sqrt(|E|) = 15.5, so SUST starts heavy
    whenever the start vertex is a hub."""
    pairs = {(u, v) for u in range(4) for v in range(4) if u != v}
    for x, (h1, h2) in enumerate(2 * list(itertools.combinations(range(4), 2)), 4):
        pairs |= {(x, h1), (h1, x), (x, h2), (h2, x)}
    return _tri_selfjoin(sorted(pairs))


def _score(cp, rng):
    """A sust_sample attempt as a number that tells its samples apart."""
    got = sust_sample(cp, rng)
    if got is None:
        return 0
    return 1 + sum(i * got[a] for i, a in enumerate(sorted(got), 1))


def _pin(cp, attempt, stream, n=300):
    """(sum of attempt's results, db.ops spent, sum of each trial rng's next
    random()) over n seeded trials."""
    total = nxt = 0.0
    ops0 = cp.db.ops.n
    for i in range(n):
        rng = derive_rng(0, stream, i)
        total += attempt(cp, rng)
        nxt += rng.random()
    return total, cp.db.ops.n - ops0, nxt


def test_pins_for_branches_the_golden_fixtures_miss():
    db, hq = _chord_5cyc()
    cp = ComponentPlan(db, hq)
    assert cp.fallback
    assert [(c.kind, c.attrs) for c in cp.components] == [
        ("cycle", ["A", "B", "C"]), ("star", ["D", "F"])]
    assert sorted(e.attrs for e in cp.cross_edges) == [("A", "F"), ("C", "D")]
    assert _pin(cp, sste_trial, "pin/chord") == PIN_CHORD_SSTE

    db, query, _ = build("sym-5cyc")
    cp = ComponentPlan(db, query.hypergraph)
    assert _pin(cp, _score, "pin/5cyc") == PIN_5CYC_SAMPLE
    assert _pin(cp, sust_trial, "pin/5cyc")[::2] == PIN_5CYC_TRIAL

    db, hq = _hub_triangle()
    cp = ComponentPlan(db, hq)
    heavy = 2 * math.sqrt(len(db.relation("G")))
    starts = [got["A"] for got in (sust_sample(cp, derive_rng(0, "pin/hub", i))
                                   for i in range(3000)) if got is not None]
    assert any(cp.incidence("G", v) >= heavy for v in starts)
    assert _pin(cp, _score, "pin/hub") == PIN_HUB_SAMPLE
    assert _pin(cp, sust_trial, "pin/hub")[::2] == PIN_HUB_TRIAL


# (sum, db.ops, sum of next random()) over 300 seeded trials; the sust_trial
# pins leave out db.ops, which test_sust_trial_charges_the_ops_of_sust_sample
# ties to sust_sample's
PIN_CHORD_SSTE = (461824.0, 4274, 141.02654107876418)
PIN_5CYC_SAMPLE = (409.0, 3514, 154.51788344074214)
PIN_5CYC_TRIAL = (1042671.3752664356, 154.51788344074214)
PIN_HUB_SAMPLE = (71.0, 2151, 150.44085648562182)
PIN_HUB_TRIAL = (22308.38407415472, 150.44085648562182)


def test_sust_trial_charges_the_ops_of_sust_sample():
    for fix in ("sym-tri", "sym-5cyc", "sym-mixed"):
        db, query, _ = build(fix)
        cp = ComponentPlan(db, query.hypergraph)
        for i in range(300):
            ops = []
            for attempt in (sust_sample, sust_trial):
                ops0 = db.ops.n
                attempt(cp, derive_rng(0, "ops", i))
                ops.append(db.ops.n - ops0)
            assert ops[0] == ops[1], (fix, i)
