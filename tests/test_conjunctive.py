import math

import pytest

import oracles
from conftest import build, raw_edges
from joinsample import (
    ProjectionPlan, QueryError, estimate_projection_count, sample_projection,
)
from joinsample.estimators import derive_rng


def _proj_oracle(name):
    db, query, raw = build(name)
    return oracles.projection_answers(raw, raw_edges(query), query.projection)


def test_plan_splits_into_components():
    db, query, _ = build("proj-threecomp")
    pp = ProjectionPlan(db, query)
    assert pp.out == ("A", "C", "D")
    # B is projected away, so A, C and D are all isolated candidates; the
    # A-C linkage survives only in the residual existence check
    assert len(pp.parts) == 3
    assert pp.residual is not None
    assert pp.free == frozenset({"B", "E"})


def test_plan_p0_closed_form():
    db, query, _ = build("proj-path")
    pp = ProjectionPlan(db, query)
    # components {A} and {C}: p0 = (1/|pi_A R|) * (1/(#edges * |pi_C .|...))
    assert len(pp.parts) == 2
    expect = 1.0
    for plan, strat in pp.parts:
        parts_p = 1.0 / plan.agm
        for a in plan.elim:
            parts_p /= len(plan.e_I[a])
        expect *= parts_p
    assert pp.p0 == pytest.approx(expect, rel=1e-12)
    assert 0 < pp.p0 < 1


def test_plan_rejects_bad_inputs():
    db, query, _ = build("proj-path")
    with pytest.raises(QueryError):
        ProjectionPlan(db, query.hypergraph)  # no projection anywhere
    with pytest.raises(QueryError):
        ProjectionPlan(db, query, projection=("A", "Z"))
    with pytest.raises(QueryError):
        ProjectionPlan(db, query, strategy="wander")
    with pytest.raises(QueryError):
        ProjectionPlan(db, query, strategy="alley")


def test_sample_lands_on_projection_answers():
    for name in ("proj-path", "proj-threecomp", "proj-inside", "proj-star"):
        db, query, _ = build(name)
        pp = ProjectionPlan(db, query)
        answers = _proj_oracle(name)
        hits = 0
        for i in range(600):
            got = sample_projection(pp, derive_rng("pj", name, i))
            if got is None:
                continue
            hits += 1
            assert set(got) == set(pp.out)
            decoded = tuple(db.interner.decode(got[a]) for a in sorted(pp.out))
            assert decoded in answers, name
        assert hits > 0, name


def test_sample_distribution_is_uniform():
    name = "proj-path"
    db, query, _ = build(name)
    pp = ProjectionPlan(db, query)
    answers = _proj_oracle(name)
    counts = dict.fromkeys(answers, 0)
    hits = 0
    n = 40_000
    for i in range(n):
        got = sample_projection(pp, derive_rng("pju", name, i))
        if got is None:
            continue
        decoded = tuple(db.interner.decode(got[a]) for a in sorted(pp.out))
        counts[decoded] += 1
        hits += 1
    expect = hits / len(answers)
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 < oracles.chi2_crit(len(answers) - 1)
    # success rate estimates |answers| * p0
    rate = hits / n
    se = (rate * (1 - rate) / n) ** 0.5
    assert abs(rate - len(answers) * pp.p0) < 4 * se + 1e-9


def test_estimate_on_fixtures():
    for name, c in (("proj-path", 96), ("proj-inside", 96), ("proj-star", 64)):
        db, query, _ = build(name)
        out = len(_proj_oracle(name))
        rep = estimate_projection_count(db, query, c=c, seed=3)
        assert rep.mode == "success-count"
        assert rep.successes <= c
        # binomial-style check on the success indicator behind the estimate
        p_hat = rep.successes / rep.trials
        se = (max(p_hat, 1e-12) * (1 - p_hat) / rep.trials) ** 0.5 / \
            ProjectionPlan(db, query).p0
        assert abs(rep.estimate - out) < 4.5 * se + 1e-9, name


def test_estimate_reports_ops_spent_and_budget_cap():
    db, query, _ = build("proj-path")
    p0 = ProjectionPlan(db, query).p0
    for _ in range(2):  # the second call finds the projections already built
        ops0 = db.ops.n
        rep = estimate_projection_count(db, query, c=8, seed=4)
        assert rep.ops == db.ops.n - ops0
        assert rep.budget_cap == max(1000, math.ceil(8 * 8 / p0))


def test_estimate_rejects_a_target_below_one():
    db, query, _ = build("proj-path")
    for c in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            estimate_projection_count(db, query, c=c, seed=4)
    # an empty projection plan returns early; the target is checked first
    db, query, _ = build("empty-tri")
    assert ProjectionPlan(db, query, projection=("B", "C")).empty
    with pytest.raises(ValueError, match="at least 1"):
        estimate_projection_count(db, query, projection=("B", "C"), c=-2)


def test_estimate_empty_projection_join():
    db, query, _ = build("empty-tri")
    rep = estimate_projection_count(db, query, projection=("A", "B"), seed=1)
    assert rep.estimate == 0.0
    assert rep.successes == 0


def test_full_projection_counts_distinct_answers():
    db, query, _ = build("proj-fulltri")
    out = len(_proj_oracle("proj-fulltri"))
    rep = estimate_projection_count(db, query, c=128, seed=5)
    p_hat = rep.successes / rep.trials
    se = (p_hat * (1 - p_hat) / rep.trials) ** 0.5 / ProjectionPlan(db, query).p0
    assert abs(rep.estimate - out) < 4.5 * se + 1e-9


def test_gj_strategy_variant():
    db, query, _ = build("proj-path")
    out = len(_proj_oracle("proj-path"))
    rep = estimate_projection_count(db, query, c=96, seed=2, strategy="gj")
    pp = ProjectionPlan(db, query, strategy="gj")
    p_hat = rep.successes / rep.trials
    se = (p_hat * (1 - p_hat) / rep.trials) ** 0.5 / pp.p0
    assert abs(rep.estimate - out) < 4.5 * se + 1e-9


def test_attempts_share_one_residual_index_memo(monkeypatch):
    # the residual check finds each bound-first index once per plan, not
    # once per attempt: once a first batch has filled the plan's memos, a
    # second batch of attempts looks up no index
    from joinsample import queries
    db, query, _ = build("proj-path")
    pp = ProjectionPlan(db, query)
    assert pp.residual is not None

    def attempts(stream):
        got = [sample_projection(pp, derive_rng(0, stream, i)) for i in range(300)]
        assert sum(g is not None for g in got) > 1

    attempts("warm")
    assert {e.relation for e in pp.residual.edges} <= {key[0] for key in db.bound_first}
    calls = []
    real = queries.edge_index
    monkeypatch.setattr(queries, "edge_index",
                        lambda *args: calls.append(args) or real(*args))
    attempts("counted")
    assert calls == []


def test_a_fresh_plan_finds_the_residual_indexes_on_the_database(monkeypatch):
    # bound-first indexes are kept by the database, not by one plan: a
    # second plan over the same query looks none up again
    from joinsample import queries
    db, query, _ = build("proj-path")

    def attempts(pp, stream):
        got = [sample_projection(pp, derive_rng(0, stream, i)) for i in range(300)]
        assert sum(g is not None for g in got) > 1

    attempts(ProjectionPlan(db, query), "warm")
    fresh = ProjectionPlan(db, query)
    calls = []
    real = queries.edge_index
    monkeypatch.setattr(queries, "edge_index",
                        lambda *args: calls.append(args) or real(*args))
    attempts(fresh, "counted")
    assert calls == []
