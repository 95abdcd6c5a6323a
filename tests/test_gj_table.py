"""Differential test of GJSample's one-pass probability table.

`reference_step` is the per-candidate table GJSample.step used to build: two
Plan.edge_degree probes per candidate and one agm_ratio call each, the whole
table before the draw. On small random databases (self-joins, duplicate
rows, a ternary edge), with and without skip_nonjoin, under optimal covers
and under feasible covers with zero-weight or non-dyadic edges, both steps must return
equal StepOutcomes (probabilities compared with ==), charge equal ops and
leave the rng in the same state.

GJSample keeps each table in the plan's probe memo, and the reference does
not. Every step of one example runs on the same plan, alternating two
splits of the sampled attributes with the same next attribute: the full
remaining set, and a drawn subset of it (the next attribute kept) with the
attributes left out bound to drawn values. So a memo key that missed
anything the table reads would hand one step the other's table and fail
the comparison.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import event, example, given, settings, strategies as st

from joinsample import Cover, Database, GJSample, Hypergraph, Plan
from joinsample.estimators import StepOutcome
from joinsample.queries import bound_first_index

# R(A,B) is bound directly and, under other names, through a self-join
# alias; S(X,Y) is always aliased; T(A,B,C) is the ternary relation.
SCHEMAS = {"R": ("A", "B"), "S": ("X", "Y"), "T": ("A", "B", "C")}
SHAPES = {
    "self-join triangle": (
        ("A", "B", "C"), [(("A", "B"), "R"), (("B", "C"), "R"), (("A", "C"), "S")]),
    "ternary 4-cycle": (
        ("A", "B", "C", "D"),
        [(("A", "B", "C"), "T"), (("C", "D"), "R"), (("D", "A"), "R")]),
    "path with private ends": (
        ("A", "B", "C", "D"), [(("A", "B"), "R"), (("B", "C"), "S"), (("C", "D"), "R")]),
    "ternary star": (
        ("A", "B", "C", "D", "E"),
        [(("A", "B", "C"), "T"), (("A", "D"), "S"), (("B", "E"), "R"),
         (("C", "D"), "R")]),
}
DOMAIN = 4
WEIGHTS = tuple(Fraction(n, d) for n, d in ((0, 1), (1, 3), (1, 2), (2, 3), (1, 1)))


def reference_step(plan, remaining, s, rng) -> StepOutcome:
    a = plan.next_attr(remaining)
    edges = plan.e_I[a]
    deg1 = {e.eid: plan.edge_degree(e, s) for e in edges}
    best = None
    for e in edges:
        bound = {x: s[x] for x in e.attrs if x in s}
        view = bound_first_index(plan.db, e, bound, a).project((a,), bound)
        key = (view.size(), e.eid)
        if best is None or key < best[0]:
            best = (key, view)
    omega = [c for (c,) in best[1]]
    plan.db.ops.add(max(1, len(omega)))
    probs = []
    for c in omega:
        s2 = {**s, a: c}
        deg2 = {e.eid: plan.edge_degree(e, s2) for e in edges}
        probs.append((c, plan.agm_ratio(remaining, s, a, c, deg1, deg2), deg2))
    u = rng.random()
    acc = 0.0
    for c, p, deg2 in probs:
        acc += p
        if u < acc:
            member = all(d > 0 for d in deg2.values())
            return StepOutcome((a,), [({a: c}, p, member)])
    return StepOutcome((a,), [])


def _rows(arity):
    row = st.tuples(*[st.integers(0, DOMAIN - 1)] * arity)
    return st.lists(row, min_size=1, max_size=14)


@st.composite
def cases(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    attrs, edges = SHAPES[shape]
    used = {rel for _, rel in edges}
    rows = {rel: draw(_rows(len(SCHEMAS[rel]))) for rel in sorted(used)}
    order = draw(st.permutations(attrs))
    skip = draw(st.booleans())
    weights = None
    if draw(st.integers(0, 3)):
        # a feasible cover that is usually not optimal and may weigh an
        # edge 0: draw each weight, then lift the first edge of each
        # uncovered attribute to 1. Thirds are not exact in binary, so a
        # reordered float expression shows in the last bits.
        w = [draw(st.sampled_from(WEIGHTS)) for _ in edges]
        for x in attrs:
            containing = [i for i, (ea, _) in enumerate(edges) if x in ea]
            if sum(w[i] for i in containing) < 1:
                w[containing[0]] = Fraction(1)
        weights = dict(enumerate(w))
    walk_seed = draw(st.integers(0, 2 ** 32))
    depth = draw(st.integers(0, len(attrs)))
    stray = draw(st.none() | st.integers(0, DOMAIN - 1))
    step_seeds = draw(st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=8))
    keep = draw(st.lists(st.booleans(), min_size=len(attrs), max_size=len(attrs)))
    fill = draw(st.lists(st.integers(0, DOMAIN - 1), min_size=len(attrs),
                         max_size=len(attrs)))
    return (shape, rows, order, skip, weights, walk_seed, depth, stray, step_seeds,
            keep, fill)


def _plan(shape, rows, order, skip, weights):
    attrs, edges = SHAPES[shape]
    db = Database()
    for rel in sorted(rows):
        db.load(rel, SCHEMAS[rel], rows[rel])
    cover = Cover(weights) if weights is not None else None
    return Plan(db, Hypergraph(attrs, edges), elim_order=order,
                skip_nonjoin=skip, cover=cover)


def _prefix(plan, walk_seed, depth, stray):
    """Walk the reference sampler from the empty binding for up to `depth`
    steps (fewer when a step fails), keeping a prefix of the elimination
    order. With `stray`, the last bound value is replaced by that value of
    the domain, which may leave an edge with no rows under the binding."""
    rng = random.Random(walk_seed)
    s = {}
    for a in plan.elim[:min(depth, len(plan.elim) - 1)]:
        out = reference_step(plan, frozenset(plan.elim) - set(s), s, rng)
        if not out.samples or not out.samples[0][2]:
            break
        s.update(out.samples[0][0])
    if stray is not None and s:
        last = [a for a in plan.elim if a in s][-1]
        s[last] = plan.db.interner.intern(stray)
    return s


@settings(max_examples=300, deadline=None, database=None)
@given(cases())
# a weight of 1/3 on an edge that keeps attributes: x·(log d2 − log d1) and
# x·log d2 − x·log d1 differ in the last bit here
@example(("ternary 4-cycle",
          {"R": [(0, 0)] + [(0, 1)] * 5 + [(1, 1)], "T": [(0, 0, 0)]},
          ("D", "B", "C", "A"), False,
          {0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 3)}, 0, 0, None, [1],
          [True] * 4, [0] * 4))
def test_one_pass_table_matches_per_candidate_table(case):
    (shape, rows, order, skip, weights, walk_seed, depth, stray, step_seeds,
     keep, fill) = case
    plan = _plan(shape, rows, order, skip, weights)
    s = _prefix(plan, walk_seed, depth, stray)
    unbound = [a for a in plan.elim if a not in s]
    # the next attribute and any subset of the later ones, the rest bound:
    # the table reads which of its edges' attributes are unbound, so a step
    # on the same plan must not reuse the other split's table
    bind = {a: plan.db.interner.intern(v)
            for a, k, v in zip(unbound[1:], keep, fill) if not k}
    splits = ((frozenset(unbound), s), (frozenset(unbound) - set(bind), {**s, **bind}))
    ops = plan.db.ops
    for seed, (remaining, b) in itertools.product(step_seeds, splits):
        rng_new, rng_ref = random.Random(seed), random.Random(seed)
        before = ops.n
        got = GJSample().step(plan, remaining, dict(b), rng_new)
        spent = ops.n - before
        before = ops.n
        want = reference_step(plan, remaining, dict(b), rng_ref)
        assert got == want
        assert spent == ops.n - before
        assert rng_new.getstate() == rng_ref.getstate()
        if not got.samples:
            event("no draw")
        else:
            event("drawn, member" if got.samples[0][2] else "drawn, not a member")


def test_zero_weight_edge_keeps_the_membership_flag():
    # Under the cover (R: 1, R: 1, S: 0) the triangle's S edge adds nothing
    # to the probability. With A=B=0, Ω = {0, 1} comes from R(B,C); S has
    # no row (0, 1), so C=1 still gets p > 0 but a False membership flag,
    # exactly as in the reference table.
    rows = {"R": [(0, 0), (0, 1)], "S": [(0, 0), (0, 2), (0, 3)]}
    weights = {0: Fraction(1), 1: Fraction(1), 2: Fraction(0)}
    plan = _plan("self-join triangle", rows, ("A", "B", "C"), False, weights)
    s = {"A": plan.db.interner.intern(0), "B": plan.db.interner.intern(0)}
    flags = set()
    for seed in range(20):
        got = GJSample().step(plan, frozenset({"C"}), s, random.Random(seed))
        want = reference_step(plan, frozenset({"C"}), s, random.Random(seed))
        assert got == want
        flags.update(member for _, p, member in got.samples if p > 0)
    assert flags == {True, False}
