"""Differential tests of the per-depth step records.

`reference_step` and `reference_estimate` are WanderJoin.step and _estimate
as they were before Plan.step_record: every wander step re-derives its edge,
I and the touching edges from the query, probes through Plan.edge_degree and
draws with TrieIndex.sample_row, and the recursion takes remaining minus the
step's attributes. On conftest's fixtures, with and without skip_nonjoin,
and on grouped plans as ghd.group_by_card_est builds them, the
record-driven steps and trials must return equal StepOutcomes and values
(compared with ==), charge equal ops and leave the rng in the same state.

Records hold no degree, value or table, so a long-used plan whose probe
memo was emptied is as cold as a fresh plan.
"""

import random

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import CORPUS, build
from joinsample import (
    DRS, AlleyPlus, GJSample, Plan, QueryError, WanderJoin, generic_card_est,
    generic_join, uniform_sample,
)
from joinsample.estimators import StepOutcome

FIXTURES = sorted(CORPUS)
STRATEGIES = {
    "wander": WanderJoin,
    "alley": lambda: AlleyPlus(b=0.5),
    "gj": GJSample,
    "drs": DRS,
    "drs-tie": lambda: DRS(boost="tie"),
    "drs-any": lambda: DRS(boost="any-edge"),
}


def reference_step(plan, remaining, s, rng) -> StepOutcome:
    edge = next(e for e in plan.query.edges if e.attr_set & remaining)
    I = tuple(a for a in sorted(edge.attrs) if a in remaining)
    base = plan.edge_degree(edge, s)
    if base == 0:
        return StepOutcome(I, [])
    idx = plan.bound_index(edge, s)
    row = idx.sample_row(s, rng)
    frag = {a: v for a, v in zip(idx.order, row) if a in I}
    s2 = {**s, **frag}
    p = plan.edge_degree(edge, s2) / base
    touching = [e for e in plan.query.edges_touching(I) if e.eid != edge.eid]
    member = all(plan.edge_degree(e, s2) > 0 for e in touching)
    return StepOutcome(I, [(frag, p, member)])


def reference_estimate(plan, step, remaining, s, rng):
    if not remaining:
        return plan.leaf_value(s)
    out = step(plan, remaining, s, rng)
    sub = remaining - set(out.attrs)
    total = 0.0
    for frag, p, member in out.samples:
        if not member:
            continue
        total += (1.0 / p) * reference_estimate(plan, step, sub, {**s, **frag}, rng)
    return total / out.k


@st.composite
def plans(draw):
    """(plan, remaining, bindings): a plain, skip_nonjoin or grouped plan on
    a conftest fixture, with the bindings its trials start from."""
    fix = draw(st.sampled_from(FIXTURES))
    db, query, _ = build(fix)
    hq = query.hypergraph
    order = draw(st.permutations(hq.attributes))
    mode = draw(st.sampled_from(("plain", "skip", "group")))
    event(mode)
    if mode != "group":
        plan = Plan(db, hq, elim_order=order, skip_nonjoin=mode == "skip")
        return plan, None, [None]
    # as ghd.group_by_card_est: the group leads the elimination order, and
    # each trial extends one of the group's join keys
    size = draw(st.integers(1, len(order) - 1))
    group = tuple(sorted(order[:size]))
    rest = tuple(a for a in order if a not in group)
    plan = Plan(db, hq, elim_order=group + rest)
    keys = sorted(generic_join(db, hq, remaining=group))
    return plan, frozenset(rest), [dict(zip(group, key)) for key in keys]


def _charged(plan, fn, *args):
    """(fn(*args), ops it charged)."""
    before = plan.db.ops.n
    got = fn(*args)
    return got, plan.db.ops.n - before


@settings(max_examples=150, deadline=None, database=None)
@given(plans(), st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=4))
def test_record_trials_match_the_reference_recursion(case, seeds):
    plan, remaining, bindings = case
    if not bindings:
        event("group without keys")
        return
    start = plan.sampled if remaining is None else remaining
    for i, seed in enumerate(seeds):
        s = bindings[i % len(bindings)]
        for name, make in STRATEGIES.items():
            strategy = make()
            step = reference_step if name == "wander" else strategy.step
            rng_new, rng_ref = random.Random(seed), random.Random(seed)

            def new():
                return generic_card_est(plan, strategy, remaining, s, rng_new)

            def ref():
                if plan.empty:
                    return 0.0
                return reference_estimate(plan, step, start, dict(s or {}), rng_ref)

            # either side may find the probe memo filled by the other
            runs = (new, ref) if i % 2 else (ref, new)
            first, second = (_charged(plan, run) for run in runs)
            assert first == second, name
            assert rng_new.getstate() == rng_ref.getstate(), name


@settings(max_examples=150, deadline=None, database=None)
@given(plans(), st.integers(0, 2 ** 32), st.integers(0, 4),
       st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=6))
def test_record_wander_steps_match_the_reference_step(case, walk_seed, depth, seeds):
    plan, remaining, bindings = case
    if plan.empty or not bindings:
        event("nothing to step")
        return
    remaining = plan.sampled if remaining is None else remaining
    s = dict(bindings[walk_seed % len(bindings)] or {})
    # walk the reference for up to `depth` steps, while they draw a member
    # and leave an attribute to step on
    rng = random.Random(walk_seed)
    for _ in range(depth):
        out = reference_step(plan, remaining, s, rng)
        left = remaining - set(out.attrs)
        if not left or not out.samples or not out.samples[0][2]:
            break
        s.update(out.samples[0][0])
        remaining = left
    event(f"{len(plan.sampled) - len(remaining)} of {len(plan.sampled)} bound")
    for seed in seeds:
        rng_new, rng_ref = random.Random(seed), random.Random(seed)
        got = _charged(plan, WanderJoin().step, plan, remaining, dict(s), rng_new)
        want = _charged(plan, reference_step, plan, remaining, dict(s), rng_ref)
        assert got == want
        assert rng_new.getstate() == rng_ref.getstate()
        attrs = got[0].attrs
        assert plan.step_record(remaining).left[attrs] == remaining - set(attrs)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("fix, skip", [("tri-skew", False), ("cycle4", False),
                                       ("ternary", False), ("path3", True)])
def test_a_long_used_plan_emptied_is_as_cold_as_a_fresh_one(fix, skip, name):
    # a record that kept a degree or a table would skip a probe on the
    # long-used plan: its memo would then miss keys the fresh plan filled
    db, query, _ = build(fix)
    strategy = STRATEGIES[name]()
    used = Plan(db, query.hypergraph, skip_nonjoin=skip)
    for i in range(200):
        generic_card_est(used, strategy, rng=random.Random(f"long/{i}"))
    assert used._steps
    used._deg_cache.clear()
    fresh = Plan(db, query.hypergraph, skip_nonjoin=skip)
    draws = name in ("gj", "drs") and not skip   # what uniform_sample accepts

    def batch(plan):
        values = [generic_card_est(plan, strategy, rng=random.Random(f"batch/{i}"))
                  for i in range(50)]
        if draws:
            values += [uniform_sample(plan, strategy, random.Random(f"draw/{i}"))
                       for i in range(50)]
        return values

    assert _charged(used, batch, used) == _charged(fresh, batch, fresh)
    assert set(used._deg_cache) == set(fresh._deg_cache)


def test_a_binding_that_does_not_split_the_sampled_attributes_is_rejected():
    db, query, _ = build("path3")
    hq = query.hypergraph
    plan = Plan(db, hq)
    one = db.interner.intern(1)
    with pytest.raises(QueryError, match="split the sampled attributes"):
        generic_card_est(plan, WanderJoin(), None, {"A": one}, random.Random(0))
    with pytest.raises(QueryError, match="split the sampled attributes"):
        generic_card_est(plan, DRS(), {"B", "C", "D"}, {}, random.Random(0))
    # a skipped attribute is never sampled, so never remaining
    skip = Plan(db, hq, skip_nonjoin=True)
    assert "A" not in skip.sampled
    with pytest.raises(QueryError, match="split the sampled attributes"):
        generic_card_est(skip, WanderJoin(), hq.attributes, {}, random.Random(0))
    generic_card_est(plan, WanderJoin(), {"B", "C", "D"}, {"A": one}, random.Random(0))
