import math

import pytest

from conftest import build, oracle
from joinsample import (
    AlleyPlus, DRS, GJSample, Plan, QueryError, WanderJoin,
    derive_rng, estimate_with_guarantee, generic_card_est,
    make_strategy, per_answer_probability, uniform_sample, variance_bound,
)


def _pair_plan():
    db, query, _ = build("skew-pair")
    return db, Plan(db, query.hypergraph, elim_order=("A", "B", "C"))


def test_alley_full_branching_is_exact():
    for name in ("tri-skew", "skew-pair", "path3"):
        db, query, _ = build(name)
        plan = Plan(db, query.hypergraph)
        got = generic_card_est(plan, AlleyPlus(b=1.0), rng=derive_rng(0, "a1", 0))
        assert got == float(oracle(name).out), name


def test_per_answer_probability_closed_forms():
    db, plan = _pair_plan()
    assert per_answer_probability(plan, DRS()) == pytest.approx(1 / 50, rel=1e-12)
    assert per_answer_probability(plan, GJSample()) == pytest.approx(1 / 25, rel=1e-12)
    with pytest.raises(ValueError):
        per_answer_probability(plan, WanderJoin())
    with pytest.raises(ValueError):
        per_answer_probability(plan, AlleyPlus(b=0.5))


def test_rejection_step_records_hand_checked_probabilities():
    # R(A,B) ⋈ T(A,C), five rows each, shared column A with degrees 3/1/1.
    # Binding A=a leaves residual bound deg_R(a)*deg_T(a) out of 5*5 = 25,
    # and the kept probability divides by the two candidate edges.
    db, plan = _pair_plan()
    remaining = frozenset(plan.elim)
    seen = {}
    strategy = DRS()
    for i in range(400):
        out = strategy.step(plan, remaining, {}, derive_rng("stepA", "drs", i))
        assert out.attrs == ("A",)
        for frag, p, member in out.samples:
            assert member
            val = db.interner.decode(frag["A"])
            seen.setdefault(val, p)
        if len(seen) == 3:
            break
    assert seen[1] == pytest.approx(9 / 50, rel=1e-12)
    assert seen[2] == pytest.approx(1 / 50, rel=1e-12)
    assert seen[3] == pytest.approx(1 / 50, rel=1e-12)


def test_table_step_records_agm_ratio():
    db, plan = _pair_plan()
    remaining = frozenset(plan.elim)
    seen = {}
    strategy = GJSample()
    for i in range(200):
        out = strategy.step(plan, remaining, {}, derive_rng("stepG", "gj", i))
        for frag, p, member in out.samples:
            seen.setdefault(db.interner.decode(frag["A"]), p)
        if len(seen) == 3:
            break
    assert seen[1] == pytest.approx(9 / 25, rel=1e-12)
    assert seen[2] == pytest.approx(1 / 25, rel=1e-12)


def test_variance_bound_formulas():
    db, plan = _pair_plan()
    out = 11.0
    assert variance_bound(plan, DRS(), out) == pytest.approx(3 * 2 * 25 * out)
    assert variance_bound(plan, GJSample(), out) == pytest.approx(3 * 25 * out)
    # t = 2(1-b)/b = 2 at b=0.5: (t^3 - t)/(t - 1) = 6
    assert variance_bound(plan, AlleyPlus(b=0.5), out) == pytest.approx(6 * out * out)
    assert variance_bound(plan, AlleyPlus(b=1.0), out) == 0.0


def test_uniform_sample_guards():
    db, plan = _pair_plan()
    rng = derive_rng(0, "g", 0)
    with pytest.raises(ValueError):
        uniform_sample(plan, WanderJoin(), rng)
    with pytest.raises(ValueError):
        uniform_sample(plan, AlleyPlus(b=0.5), rng)
    with pytest.raises(ValueError):
        uniform_sample(plan, DRS(boost="tie"), rng)
    db2, query2, _ = build("path3")
    skip = Plan(db2, query2.hypergraph, skip_nonjoin=True)
    with pytest.raises(ValueError):
        uniform_sample(skip, DRS(), rng)


def test_uniform_sample_success_rate():
    db, plan = _pair_plan()
    strategy = DRS()
    n = 20_000
    hits = sum(
        uniform_sample(plan, strategy, derive_rng("us", "t", i)) is not None
        for i in range(n)
    )
    # P(success) = OUT * 1/50 = 0.22, binomial se ~ 0.0029
    assert abs(hits / n - 0.22) < 0.012


def test_empty_plan_short_circuits():
    db, query, _ = build("empty-tri")
    plan = Plan(db, query.hypergraph)
    rng = derive_rng(0, "e", 0)
    assert generic_card_est(plan, DRS(), rng=rng) == 0.0
    assert uniform_sample(plan, DRS(), rng) is None
    rep = estimate_with_guarantee(plan, DRS(), 0.5, 0.25, seed=3)
    assert rep.estimate == 0.0
    rep2 = estimate_with_guarantee(plan, DRS(), 0.5, 0.25, seed=3,
                                   mode="success-count", c=8)
    assert rep2.estimate == 0.0 and rep2.successes == 0


def test_success_count_report():
    db, plan = _pair_plan()
    ops0 = db.ops.n
    rep = estimate_with_guarantee(plan, DRS(), 0.3, 0.1, seed=7,
                                  mode="success-count", c=64)
    assert rep.ops == db.ops.n - ops0
    p0 = per_answer_probability(plan, DRS())
    assert rep.budget_cap == max(1000, math.ceil(8 * 64 / p0))
    assert rep.mode == "success-count"
    assert rep.successes == 64
    assert rep.c == 64
    assert rep.trials <= max(1000, 8 * 64 * 50)
    assert 6.0 < rep.estimate < 18.0
    assert rep.ops > 0


def test_geometric_driver_reports_stages():
    db, plan = _pair_plan()
    rep = estimate_with_guarantee(plan, DRS(), 0.5, 0.25, seed=11)
    assert rep.mode == "geometric"
    assert rep.stages >= 1
    assert rep.trials >= rep.stages
    assert rep.estimate >= rep.assumed_out
    assert 4.0 < rep.estimate < 25.0
    with pytest.raises(ValueError):
        estimate_with_guarantee(plan, DRS(), 1.5, 0.1)
    with pytest.raises(ValueError):
        estimate_with_guarantee(plan, DRS(), 0.3, 0.1, mode="nope")


def test_median_agrees_with_serial():
    db, query, _ = build("path3")
    plan = Plan(db, query.hypergraph)
    serial = estimate_with_guarantee(plan, AlleyPlus(b=1.0), 0.5, 0.25, seed=5)
    med = estimate_with_guarantee(plan, AlleyPlus(b=1.0), 0.5, 0.25, seed=5,
                                  median=True)
    # b=1 trials are deterministic, so every group mean is the exact count
    assert med.estimate == serial.estimate


def test_elim_order_must_cover_sampled_attrs():
    db, query, _ = build("skew-pair")
    with pytest.raises(QueryError):
        Plan(db, query.hypergraph, elim_order=("A",))


def test_strategy_factory():
    assert isinstance(make_strategy("wander"), WanderJoin)
    assert isinstance(make_strategy("alley", b=0.25), AlleyPlus)
    assert isinstance(make_strategy("gj"), GJSample)
    drs = make_strategy("drs", boost="tie")
    assert isinstance(drs, DRS) and drs.boost == "tie"
    with pytest.raises(ValueError):
        make_strategy("nope")
    with pytest.raises(ValueError):
        AlleyPlus(b=0.0)
    with pytest.raises(ValueError):
        DRS(boost="max")


def test_derive_rng_is_stable():
    a = derive_rng(0, "s", 3).random()
    assert a == derive_rng(0, "s", 3).random()
    assert a != derive_rng(0, "s", 4).random()
    assert a != derive_rng(1, "s", 3).random()


def test_quick_unbiasedness_smoke(mc):
    for fix, key in (("path3", "wander"), ("cycle4", "drs")):
        st = mc(fix, key, 4000)
        assert abs(st.mean - oracle(fix).out) < 4 * st.se + 1e-9, (fix, key)
