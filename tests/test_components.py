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
