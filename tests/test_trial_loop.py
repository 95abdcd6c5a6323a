"""The single-draw trial loop: uniform_sample and generic_card_est extend
one binding in place and build no StepOutcome.

uniform_sample is checked against oracles.step_sampler, the StepOutcome
loop it replaced, driven by the reference GJ and DRS steps of
test_gj_table.py and test_resolved_probes.py, on conftest's fixtures under
any elimination order: equal bindings, equal ops charged and the same rng
state after. Neither a trial nor strategy.step may change the caller's
binding.
"""

import random
from functools import partial

import pytest
from hypothesis import event, given, settings, strategies as st

import oracles
from conftest import CORPUS, build
from joinsample import (
    DRS, AlleyPlus, GJSample, Plan, WanderJoin, generic_card_est, generic_join,
    uniform_sample,
)
from joinsample import estimators
from test_gj_table import reference_step as reference_gj_step
from test_resolved_probes import reference_drs_step

STRATEGIES = {
    "wander": WanderJoin,
    "alley": lambda: AlleyPlus(b=0.5),
    "gj": GJSample,
    "drs": DRS,
    "drs-tie": lambda: DRS(boost="tie"),
    "drs-any": lambda: DRS(boost="any-edge"),
}
REFERENCE_STEPS = {"gj": reference_gj_step, "drs": partial(reference_drs_step, "none")}


def _charged(plan, fn, *args):
    """(fn(*args), ops it charged)."""
    before = plan.db.ops.n
    got = fn(*args)
    return got, plan.db.ops.n - before


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(sorted(CORPUS)), st.sampled_from(sorted(REFERENCE_STEPS)), st.data(),
       st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=8))
def test_uniform_sample_matches_the_step_outcome_sampler(fix, name, data, seeds):
    db, query, _ = build(fix)
    hq = query.hypergraph
    plan = Plan(db, hq, elim_order=data.draw(st.permutations(hq.attributes)))
    strategy, reference = STRATEGIES[name](), REFERENCE_STEPS[name]
    for seed in seeds:
        rng_new, rng_ref = random.Random(seed), random.Random(seed)
        got = _charged(plan, uniform_sample, plan, strategy, rng_new)
        want = _charged(plan, oracles.step_sampler, plan, reference, rng_ref)
        assert got == want
        assert rng_new.getstate() == rng_ref.getstate()
        event("drawn" if got[0] is not None else "none")


def _grouped(fix):
    """A plan whose first sampled attribute arrives bound, and one binding
    of it that extends to an answer."""
    db, query, _ = build(fix)
    hq = query.hypergraph
    plan = Plan(db, hq)
    first = plan.elim[0]
    (value,) = sorted(generic_join(db, hq, remaining=(first,)))[0]
    return plan, plan.sampled - {first}, {first: value}


@pytest.mark.parametrize("fix", ["tri-skew", "path3", "cycle4", "sym-5cyc"])
@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_the_callers_binding_is_never_changed(fix, name):
    plan, remaining, s = _grouped(fix)
    want = dict(s)
    strategy = STRATEGIES[name]()
    for i in range(40):
        strategy.step(plan, remaining, s, random.Random(i))
        assert s == want
        generic_card_est(plan, strategy, remaining, s, random.Random(i))
        assert s == want


def test_trials_build_no_step_outcome(monkeypatch):
    built = []

    class Counted(estimators.StepOutcome):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(estimators, "StepOutcome", Counted)
    db, query, _ = build("tri-skew")
    plan = Plan(db, query.hypergraph)
    for name, make in STRATEGIES.items():
        strategy = make()
        for i in range(200):
            generic_card_est(plan, strategy, rng=random.Random(i))
            if name in ("gj", "drs"):
                uniform_sample(plan, strategy, random.Random(i))
        assert built == [], name
    # the spy sees the adapters' outcomes
    DRS().step(plan, plan.sampled, {}, random.Random(0))
    assert len(built) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 2 ** 31 + 5])
def test_the_descents_draw_consumes_the_rng_as_randrange_does(n):
    # TrieIndex._descend draws each level with rng._randbelow(n), which is
    # what rng.randrange(n) calls for n > 0; seeded draws rest on this
    for seed in range(50):
        a, b = random.Random(seed), random.Random(seed)
        assert [a._randbelow(n) for _ in range(5)] == [b.randrange(n) for _ in range(5)]
        assert a.getstate() == b.getstate()
