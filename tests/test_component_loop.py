"""Seeded pins of the component trials on every shape their loop takes.

Over 300 seeded trials each pin holds the repr of the summed trial values,
the db.ops spent and the repr of the summed next rng.random() of each
trial's rng, so a trial that returns the same values while drawing more or
fewer random numbers, or charging other ops, moves its pin.

The plans cover single-edge stars beside cross edges (cycle4, path3), a
three-edge star whose center leads every index order (star3), a cycle next
to a star (sym-mixed) and a two-edge star whose center sorts after its
leaves, so that its root index puts a leaf first (center_last). SUST is
pinned where the plan allows it: no cross edges, no duplicate rows.
"""

import random

import pytest

from conftest import build
from joinsample import (
    ComponentPlan, Database, sste_trial, sust_sample, sust_trial,
)
from joinsample.estimators import derive_rng
from joinsample.queries import Hypergraph


def _center_last():
    """F1(U, Z) and F2(V, Z): a star on Z, which sorts after U and V, with
    Z values that F2 lacks, so some spokes find no row."""
    rng = random.Random(79)
    f1 = sorted({(rng.randrange(6), rng.randrange(5)) for _ in range(14)})
    f2 = sorted({(rng.randrange(6), rng.randrange(3)) for _ in range(9)})
    db = Database()
    db.load("F1", ("U", "Z"), f1)
    db.load("F2", ("V", "Z"), f2)
    return db, Hypergraph(("U", "V", "Z"), [(("U", "Z"), "F1"), (("V", "Z"), "F2")])


def _conftest(name):
    db, query, _ = build(name)
    return db, query.hypergraph


PLANS = {
    "cycle4": lambda: _conftest("cycle4"),
    "path3": lambda: _conftest("path3"),
    "star3": lambda: _conftest("star3"),
    "sym-mixed": lambda: _conftest("sym-mixed"),
    "center-last": _center_last,
}


def _score(cp, rng):
    """A sust_sample attempt as a number that tells its samples apart."""
    got = sust_sample(cp, rng)
    if got is None:
        return 0
    return 1 + sum(i * got[a] for i, a in enumerate(sorted(got), 1))


def _pin(cp, attempt, stream, n=300):
    """(repr of the summed results, db.ops spent, repr of the summed next
    random() of each trial's rng) over n seeded trials."""
    total = nxt = 0.0
    ops0 = cp.db.ops.n
    for i in range(n):
        rng = derive_rng(0, stream, i)
        total += attempt(cp, rng)
        nxt += rng.random()
    return repr(total), cp.db.ops.n - ops0, repr(nxt)


def test_the_plans_have_the_shapes_the_pins_are_for():
    shapes = {}
    for name, make in PLANS.items():
        cp = ComponentPlan(*make())
        shapes[name] = ([(c.kind, c.attrs) for c in cp.components],
                        sorted(e.attrs for e in cp.cross_edges))
    assert shapes == {
        "cycle4": ([("star", ["A", "D"]), ("star", ["B", "C"])],
                   [("A", "B"), ("C", "D")]),
        "path3": ([("star", ["A", "B"]), ("star", ["C", "D"])], [("B", "C")]),
        "star3": ([("star", ["H", "U", "V", "W"])], []),
        "sym-mixed": ([("cycle", ["A", "B", "C"]), ("star", ["H", "U", "V"])], []),
        "center-last": ([("star", ["Z", "U", "V"])], []),
    }
    cp = ComponentPlan(*_center_last())
    rec = cp.components[0].rec
    assert rec.roots[0].order == ("U", "Z")


@pytest.mark.parametrize("name", sorted(PLANS))
def test_sste_trial_pins(name):
    cp = ComponentPlan(*PLANS[name]())
    assert _pin(cp, sste_trial, f"loop/{name}") == SSTE_PINS[name]


@pytest.mark.parametrize("name", ["center-last", "star3", "sym-mixed"])
def test_sust_pins(name):
    cp = ComponentPlan(*PLANS[name]())
    assert _pin(cp, _score, f"loop/{name}") == SUST_SAMPLE_PINS[name]
    assert _pin(cp, sust_trial, f"loop/{name}") == SUST_TRIAL_PINS[name]


SSTE_PINS = {
    "center-last": ("7073.0", 2474, "152.8212909691233"),
    "cycle4": ("9504.0", 4040, "155.25619454263563"),
    "path3": ("18144.0", 3900, "143.39134259464987"),
    "star3": ("4494.0", 3600, "156.92850022425293"),
    "sym-mixed": ("306432.0", 4781, "151.84921079208502"),
}
SUST_SAMPLE_PINS = {
    "center-last": ("741.0", 1200, "151.5334739171827"),
    "star3": ("228.0", 1324, "153.34788761034667"),
    "sym-mixed": ("134.0", 2934, "152.2191005060777"),
}
SUST_TRIAL_PINS = {
    "center-last": ("6633.0", 1200, "151.5334739171827"),
    "star3": ("5292.0", 1324, "153.34788761034667"),
    "sym-mixed": ("364934.9813432524", 2934, "152.2191005060777"),
}
