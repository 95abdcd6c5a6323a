"""Differential tests of the resolved probes and the counted row descent.

The references below are the DRS step and the component trials as they were
before their records resolved probes: every degree goes through
Plan.edge_degree, every index through bound_first_index, every row draw
through TrieIndex.sample_row with its prefix check, a drawn row's
multiplicity is a second walk of the same path, and a cycle's kappa
sequence is read once per dihedral image. On conftest's fixtures (and two
variants with duplicate rows) the record-driven code must return equal
values, charge equal ops and leave the rng in the same state, so the next
rng.random() agrees.

TrieIndex._descend with a depth must draw the row sample_row draws and
count what TrieIndex.degree counts under the row's first `depth` values.
"""

import math
import random

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import _SYM, CORPUS, build
from joinsample import DRS, ComponentPlan, Database, Plan, generic_card_est, sste_trial
from joinsample.components import (
    _back_view, _canonical_weight, _cycle_start, _cycle_trial_sste, _dihedral_images,
    _star_trial_sste,
)
from joinsample.estimators import StepOutcome
from joinsample.queries import Hypergraph, bound_first_index
from joinsample.relations import EmptySemijoinError

BOOSTS = ("none", "tie", "any-edge")


def _charged(db, fn, *args):
    """(fn(*args), ops it charged)."""
    before = db.ops.n
    got = fn(*args)
    return got, db.ops.n - before


def _same_run(db, new, ref, seed, flip=False):
    """Run new and ref on one seed each; assert equal results and ops, and
    that both rngs go on alike. Either may find the memos filled by the
    other, so flip picks which runs first."""
    rng_new, rng_ref = random.Random(seed), random.Random(seed)
    if flip:
        want = _charged(db, ref, rng_ref)
        got = _charged(db, new, rng_new)
    else:
        got = _charged(db, new, rng_new)
        want = _charged(db, ref, rng_ref)
    assert got == want
    assert rng_new.getstate() == rng_ref.getstate()
    assert rng_new.random() == rng_ref.random()
    return got[0]


# ---------------------------------------------------------------- DRS


def reference_drs_step(boost, plan, remaining, s, rng) -> StepOutcome:
    a = plan.next_attr(remaining)
    edges = plan.e_I[a]
    ne = len(edges)
    i = rng.randrange(ne)
    deg1 = {e.eid: plan.edge_degree(e, s) for e in edges}
    idx = bound_first_index(plan.db, edges[i], s, a)
    c = idx.sample_row(s, rng)[idx.order.index(a)]
    s2 = {**s, a: c}
    deg2 = {e.eid: plan.edge_degree(e, s2) for e in edges}
    tied = []
    for e in edges:
        if not tied:
            tied = [e]
            continue
        lead = tied[0]
        left = deg2[e.eid] * deg1[lead.eid]
        right = deg2[lead.eid] * deg1[e.eid]
        if left > right:
            tied = [e]
        elif left == right:
            tied.append(e)
    if boost != "any-edge" and edges[i] not in tied:
        return StepOutcome((a,), [])
    ratio = plan.agm_ratio(remaining, s, a, c, deg1, deg2)
    lead = tied[0]
    rdeg_max = deg2[lead.eid] / deg1[lead.eid]
    keep = min(0.0 if rdeg_max == 0 else ratio / rdeg_max, 1.0)
    m = len(tied)
    if boost == "none":
        accept_p, p = keep / m, ratio / ne
    elif boost == "tie":
        accept_p, p = keep, m * ratio / ne
    else:
        rdeg_sum = sum(deg2[e.eid] / deg1[e.eid] for e in edges)
        accept_p, p = keep, rdeg_sum * keep / ne
    if rng.random() >= accept_p or p <= 0.0:
        return StepOutcome((a,), [])
    member = all(d > 0 for d in deg2.values())
    return StepOutcome((a,), [({a: c}, p, member)])


def reference_drs_trial(boost, plan, remaining, s, rng):
    if not remaining:
        return plan.leaf_value(s)
    out = reference_drs_step(boost, plan, remaining, s, rng)
    total = 0.0
    for frag, p, member in out.samples:
        if member:
            total += (1.0 / p) * reference_drs_trial(
                boost, plan, remaining - set(frag), {**s, **frag}, rng)
    return total / out.k


@st.composite
def drs_states(draw):
    """(plan, remaining, s, boost): a plain or skip_nonjoin plan on a
    conftest fixture, and a binding that reference DRS steps reached."""
    fix = draw(st.sampled_from(sorted(CORPUS)))
    db, query, _ = build(fix)
    hq = query.hypergraph
    skip = draw(st.booleans())
    plan = Plan(db, hq, elim_order=draw(st.permutations(hq.attributes)),
                skip_nonjoin=skip)
    boost = draw(st.sampled_from(BOOSTS))
    event("skip" if skip else "plain")
    remaining, s = plan.sampled, {}
    if plan.empty:
        return plan, remaining, s, boost
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    for _ in range(draw(st.integers(0, 3))):
        out = reference_drs_step("any-edge", plan, remaining, s, rng)
        left = remaining - set(out.attrs)
        if not left or not out.samples or not out.samples[0][2]:
            break
        s.update(out.samples[0][0])
        remaining = left
    return plan, remaining, s, boost


@settings(max_examples=200, deadline=None, database=None)
@given(drs_states(), st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=5))
def test_drs_steps_and_trials_match_the_reference(state, seeds):
    plan, remaining, s, boost = state
    if plan.empty:
        event("empty plan")
        return
    event(f"{len(plan.sampled) - len(remaining)} of {len(plan.sampled)} bound")
    strategy = DRS(boost=boost)
    for k, seed in enumerate(seeds):
        _same_run(plan.db, lambda rng: strategy.step(plan, remaining, dict(s), rng),
                  lambda rng: reference_drs_step(boost, plan, remaining, dict(s), rng),
                  seed, flip=k % 2)
        if not s:
            _same_run(plan.db, lambda rng: generic_card_est(plan, strategy, rng=rng),
                      lambda rng: reference_drs_trial(boost, plan, plan.sampled, {}, rng),
                      seed, flip=not k % 2)


# ---------------------------------------------------------- components


def reference_row_for(cplan, edge, rng):
    idx = bound_first_index(cplan.db, edge, {})
    row = idx.sample_row({}, rng)
    frag = dict(zip(idx.order, row))
    return frag, cplan.plan.edge_degree(edge, frag)


def reference_star_trial_sste(cplan, comp, rng):
    center = comp.attrs[0]
    e1 = comp.edges[0]
    frag, _ = reference_row_for(cplan, e1, rng)
    a = frag[center]
    nrel = len(cplan.db.relation(e1.relation))
    inv_p = nrel / cplan.plan.edge_degree(e1, {center: a})
    full = {center: a}
    for e in comp.edges:
        bound = {center: a}
        deg = cplan.plan.edge_degree(e, bound)
        if deg == 0:
            return 0.0, []
        idx = bound_first_index(cplan.db, e, bound)
        got = dict(zip(idx.order, idx.sample_row(bound, rng)))
        inv_p *= deg / cplan.plan.edge_degree(e, got)
        full.update(got)
    return inv_p, [full]


def reference_cycle_start(cplan, comp, rng, canonical):
    seq, edges = comp.attrs, comp.edges
    relname = edges[0].relation
    nrel = len(cplan.db.relation(relname))
    n = (len(seq) - 1) // 2
    a = {}
    inv_p = 1.0
    for j in range(n):
        frag, mult = reference_row_for(cplan, edges[2 * j], rng)
        a.update(frag)
        inv_p *= nrel / mult
    if canonical:
        k0 = cplan.kappa(relname, a[seq[0]])
        if any(cplan.kappa(relname, a[v]) < k0 for v in seq[1: 2 * n]):
            return None
    for j in range(1, n):
        if cplan.plan.edge_degree(edges[2 * j - 1], a) == 0:
            return None
    return a, inv_p


def reference_back_view(cplan, comp, a):
    start = comp.attrs[0]
    bound = {start: a[start]}
    idx = bound_first_index(cplan.db, comp.edges[-1], bound)
    view = idx.project((comp.attrs[-1],), bound)
    no = view.size()
    cplan.db.ops.add(max(1, no))
    return view, no


def reference_canonical_weight(cplan, relname, vals):
    def kseq(seq):
        return tuple(cplan.kappa(relname, v) for v in seq)

    images = _dihedral_images(vals)
    return kseq(tuple(vals)) == min(map(kseq, images)), len(set(images))


def reference_cycle_trial_sste(cplan, comp, rng, canonical):
    start = reference_cycle_start(cplan, comp, rng, canonical)
    if start is None:
        return 0.0, []
    a, inv_p = start
    view, no = reference_back_view(cplan, comp, a)
    if no == 0:
        return 0.0, []
    seq, relname = comp.attrs, comp.edges[0].relation
    k = max(1, math.ceil(no / math.sqrt(len(cplan.db.relation(relname))))) \
        if canonical else 1
    total = 0.0
    kept = []
    for _ in range(k):
        (a[seq[-1]],) = view.sample(rng)
        if cplan.plan.edge_degree(comp.edges[-2], a) == 0:
            continue
        orbit = 1.0
        if canonical:
            is_c, orbit = reference_canonical_weight(cplan, relname, [a[v] for v in seq])
            if not is_c:
                continue
        total += orbit
        kept.append(dict(a))
    return inv_p * no * total / k, kept


def reference_sste_trial(cplan, rng):
    if cplan.empty:
        return 0.0
    z = 1.0
    assignment = {}
    for comp in cplan.components:
        if comp.kind == "cycle":
            w, kept = reference_cycle_trial_sste(cplan, comp, rng, not cplan.fallback)
        else:
            w, kept = reference_star_trial_sste(cplan, comp, rng)
        if w == 0.0:
            return 0.0
        z *= w
        if cplan.fallback:
            assignment.update(kept[0])
    if cplan.fallback:
        for e in cplan.cross_edges:
            if cplan.plan.edge_degree(e, {x: assignment[x] for x in e.attrs}) == 0:
                return 0.0
    return z


def _tri_skew_star():
    """tri-skew's database, R (two duplicate rows) and T as a star on A."""
    db, _, _ = build("tri-skew")
    return db, Hypergraph(("A", "B", "C"), [(("A", "B"), "R"), (("A", "C"), "T")])


def _dup_5cyc():
    """sym-5cyc's query over its symmetric relation with six pairs, both
    ways, doubled: duplicate rows on a cycle."""
    extra = [p for u, v in _SYM[:6] for p in ((u, v), (v, u))]
    db = Database()
    db.load("E", ("X", "Y"), _SYM + extra)
    _, query, _ = build("sym-5cyc")
    return db, query.hypergraph


def _conftest_case(name):
    def make():
        db, query, _ = build(name)
        return db, query.hypergraph
    return make


COMPONENT_CASES = {
    **{name: _conftest_case(name)
       for name in ("sym-tri", "sym-5cyc", "sym-mixed", "selfjoin-tri", "star3",
                    "star2", "skew-pair", "k4", "cycle4", "path3", "proj-threecomp")},
    "tri-skew-star": _tri_skew_star,
    "dup-5cyc": _dup_5cyc,
}


@st.composite
def component_plans(draw):
    name = draw(st.sampled_from(sorted(COMPONENT_CASES)))
    event(name)
    db, hq = COMPONENT_CASES[name]()
    return ComponentPlan(db, hq)


@settings(max_examples=120, deadline=None, database=None)
@given(component_plans(), st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=6))
def test_component_trials_match_the_reference(cp, seeds):
    db = cp.db
    for k, seed in enumerate(seeds):
        _same_run(db, lambda rng: sste_trial(cp, rng),
                  lambda rng: reference_sste_trial(cp, rng), seed, flip=k % 2)
        for comp in cp.components:
            if comp.kind == "star":
                _same_run(db, lambda rng: _star_trial_sste(cp, comp, rng),
                          lambda rng: reference_star_trial_sste(cp, comp, rng),
                          seed, flip=k % 2)
                continue
            for canonical in (True, False):
                start = _same_run(
                    db, lambda rng: _cycle_start(cp, comp, rng, canonical),
                    lambda rng: reference_cycle_start(cp, comp, rng, canonical),
                    seed, flip=k % 2)
                _same_run(db, lambda rng: _cycle_trial_sste(cp, comp, rng, canonical),
                          lambda rng: reference_cycle_trial_sste(cp, comp, rng, canonical),
                          seed, flip=not k % 2)
                if start is None:
                    continue
                a = start[0]
                (view, no), ops = _charged(db, _back_view, cp, comp, a)
                (ref, ref_no), ref_ops = _charged(db, reference_back_view, cp, comp, a)
                assert (view.index, view.node, view.attrs, no, ops) == \
                    (ref.index, ref.node, ref.attrs, ref_no, ref_ops)


@pytest.mark.parametrize("name", ["sym-tri", "sym-5cyc", "dup-5cyc"])
def test_canonical_weight_reads_each_kappa_once_and_charges_every_image(name):
    db, hq = COMPONENT_CASES[name]()
    cp = ComponentPlan(db, hq)
    comp = cp.components[0]
    relname = comp.edges[0].relation
    L = len(comp.attrs)
    rng = random.Random(name)
    values = sorted({v for row in db.relation(relname).tuples for v in row})
    calls = []
    real = cp.incidence
    cp.incidence = lambda rel, v: calls.append(v) or real(rel, v)
    for _ in range(200):
        vals = [rng.choice(values) for _ in range(L)]
        calls.clear()
        got, ops = _charged(db, _canonical_weight, cp, relname, vals)
        assert calls == vals
        assert _charged(db, reference_canonical_weight, cp, relname, vals) == (got, ops)
        assert ops == (2 * L + 1) * L


@pytest.mark.parametrize("name", ["k4", "sym-mixed", "dup-5cyc", "tri-skew-star"])
def test_a_long_used_component_plan_emptied_is_as_cold_as_a_fresh_one(name):
    db, hq = COMPONENT_CASES[name]()
    used = ComponentPlan(db, hq)
    for i in range(200):
        sste_trial(used, random.Random(f"long/{i}"))
    used._inc.clear()
    used.plan._deg_cache.clear()
    fresh = ComponentPlan(db, hq)

    def batch(cp):
        return [sste_trial(cp, random.Random(f"batch/{i}")) for i in range(100)]

    assert _charged(db, batch, used) == _charged(db, batch, fresh)
    assert set(used.plan._deg_cache) == set(fresh.plan._deg_cache)
    assert set(used._inc) == set(fresh._inc)


# ---------------------------------------------------- counted descent


@st.composite
def tries(draw):
    """(index, bound prefix values, depth): a trie of arity 1 to 3 over rows
    with duplicates, in a drawn column order, a prefix of one of its rows
    and a depth from the prefix's length to the arity."""
    arity = draw(st.integers(1, 3))
    schema = ("A", "B", "C")[:arity]
    value = st.integers(0, 3)
    rows = draw(st.lists(st.tuples(*[value] * arity), min_size=1, max_size=25))
    rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    db = Database()
    db.load("R", schema, rows)
    idx = db.index("R", draw(st.permutations(schema)))
    perm = [schema.index(a) for a in idx.order]
    row = draw(st.sampled_from(db.relation("R").tuples))
    bound = draw(st.integers(0, arity))
    prefix = [row[p] for p in perm[:bound]]
    event(f"arity {arity}, {bound} bound, {len(rows) - len(set(rows))} duplicates")
    return db, idx, prefix, draw(st.integers(bound, arity))


@settings(max_examples=300, deadline=None, database=None)
@given(tries(), st.integers(0, 2 ** 32))
def test_the_counted_descent_draws_sample_rows_row_and_counts_its_degree(case, seed):
    db, idx, prefix, depth = case
    s = dict(zip(idx.order, prefix))
    rng_new, rng_ref = random.Random(seed), random.Random(seed)
    (row, count), ops = _charged(db, idx._descend, list(prefix), rng_new, depth)
    want, ref_ops = _charged(db, idx.sample_row, s, rng_ref)
    assert row == want
    assert rng_new.getstate() == rng_ref.getstate()
    degree, probe_ops = _charged(db, idx.degree, dict(zip(idx.order[:depth], row)))
    assert count == degree > 0
    assert ops == ref_ops + probe_ops == 2
    # without a depth: the count is |R ⋉ prefix| and the draw's op alone
    (again, total), ops = _charged(db, idx._descend, list(prefix), random.Random(seed))
    assert (again, total, ops) == (row, idx.degree(s), 1)


def test_the_counted_descent_refuses_an_absent_prefix_as_sample_row_does():
    db = Database()
    db.load("R", ("A", "B"), [(0, 1), (0, 1), (1, 2)])
    idx = db.index("R", ("A", "B"))
    absent = db.interner.intern(7)
    for depth in (None, 1, 2):
        before = db.ops.n
        with pytest.raises(EmptySemijoinError):
            idx._descend([absent], random.Random(0), depth)
        assert db.ops.n - before == 1
    before = db.ops.n
    with pytest.raises(EmptySemijoinError):
        idx.sample_row({"A": absent}, random.Random(0))
    assert db.ops.n - before == 1
