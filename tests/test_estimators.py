import math

import pytest

from conftest import build, oracle
from joinsample import (
    AlleyPlus, DRS, GJSample, Plan, QueryError, TrieIndex, UnsupportedOrderError,
    WanderJoin, derive_rng, estimate_with_guarantee, generic_card_est, generic_join,
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


def test_drs_draws_rows_that_agree_with_the_drawn_edges_bound_column(monkeypatch):
    # B and C are bound and A remains. B=1 leaves R(A,B) the A-values
    # {1, 2, 3} and C=2 leaves T(A,C) only {1}, so every drawn row must hold
    # its own edge's bound value, and each edge's A-values show which
    # binding the draw read.
    db, plan = _pair_plan()
    s = {"B": db.interner.intern(1), "C": db.interner.intern(2)}
    drawn = []
    real = TrieIndex.sample_row

    def spy(idx, binding, rng):
        row = real(idx, binding, rng)
        drawn.append(dict(zip(idx.order, row)))
        return row

    monkeypatch.setattr(TrieIndex, "sample_row", spy)
    for i in range(40):
        DRS().step(plan, frozenset({"A"}), s, derive_rng("bound", "drs", i))
    values = {"B": set(), "C": set()}
    for row in drawn:
        (col,) = set(row) - {"A"}
        assert row[col] == s[col]
        values[col].add(db.interner.decode(row["A"]))
    assert values == {"B": {1, 2, 3}, "C": {1}}
    # the draw is still checked: a binding that is not a prefix fails loudly
    draw = plan.step_record(frozenset({"A"})).draws[0]
    with pytest.raises(UnsupportedOrderError):
        draw.sample_row({"A": s["B"]}, derive_rng("bound", "drs", 0))


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


def test_success_count_rejects_a_target_below_one():
    db, plan = _pair_plan()
    db2, query2, _ = build("empty-tri")
    empty = Plan(db2, query2.hypergraph)
    assert empty.empty
    for p in (plan, empty):
        for c in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                estimate_with_guarantee(p, DRS(), 0.3, 0.1, mode="success-count", c=c)


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


def test_median_is_rejected_in_success_count_mode():
    # success-count mode runs no stages; the flag must not pass unread,
    # also on an empty join
    for name in ("skew-pair", "empty-tri"):
        db, query, _ = build(name)
        plan = Plan(db, query.hypergraph)
        with pytest.raises(ValueError, match="median"):
            estimate_with_guarantee(plan, DRS(), 0.5, 0.25, mode="success-count",
                                    c=8, median=True)


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


def _memo_runs(fix, skip, group, cold, n=60):
    """Values and total ops of n seeded rounds on one plan. Each round runs
    one trial of each strategy in turn, so degree entries and both kinds of
    step table share the plan's probe memo. With group, the plan leads its
    elimination order with those attributes and every trial extends one
    of their join keys, as ghd.group_by_card_est runs it. With cold, the
    memo is emptied before every trial."""
    db, query, _ = build(fix)
    hq = query.hypergraph
    strategies = [GJSample(), AlleyPlus(b=0.5), AlleyPlus(b=1.0), DRS(), WanderJoin()]
    if group:
        rest = tuple(a for a in hq.attributes if a not in group)
        plan = Plan(db, hq, elim_order=group + rest)
        remaining = frozenset(rest)
        keys = sorted(generic_join(db, hq, remaining=group))
        bindings = [dict(zip(group, key)) for key in keys]
    else:
        plan = Plan(db, hq, skip_nonjoin=skip)
        remaining, bindings = None, [None]
    ops0 = db.ops.n
    values = []
    for i in range(n):
        s = bindings[i % len(bindings)]
        for st in strategies:
            if cold:
                plan._deg_cache.clear()
            rng = derive_rng("memo", f"{fix}/{st.name}", i)
            values.append(generic_card_est(plan, st, remaining, s, rng))
    return values, db.ops.n - ops0


@pytest.mark.parametrize("fix, skip, group", [
    ("tri-skew", False, None),
    ("cycle4", False, None),
    ("ternary", False, None),
    ("sym-5cyc", False, None),
    ("path3", True, None),
    ("star3", True, None),
    ("tri-skew", False, ("A",)),
    ("cycle4", False, ("A", "C")),
    ("sym-5cyc", False, ("B",)),
], ids=lambda v: "".join(v) if isinstance(v, tuple) else str(v))
def test_a_warm_plan_matches_a_cleared_one(fix, skip, group):
    # a table kept in the probe memo must give the trial the cleared plan
    # gives: same values, same ops, whatever entries earlier trials left
    warm = _memo_runs(fix, skip, group, cold=False)
    assert warm == _memo_runs(fix, skip, group, cold=True)
    assert any(warm[0])
