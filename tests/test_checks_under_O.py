"""Exactness guards must hold under `python -O`, which strips assert."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

_SKEW_PAIR = """
    from joinsample import Database, Hypergraph
    db = Database()
    rows = [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3)]
    db.load("R", ("A", "B"), rows)
    db.load("T", ("A", "C"), rows)
    hq = Hypergraph(("A", "B", "C"), [(("A", "B"), "R"), (("A", "C"), "T")])
"""


def _run_optimized(body):
    """Run the fixture plus body under -O; return the last stdout line."""
    code = textwrap.dedent(_SKEW_PAIR) + textwrap.dedent(body)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC)}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_drs_rejects_keep_probability_above_one():
    # an all-zero cover is infeasible: the AGM ratio then exceeds the degree ratio
    out = _run_optimized("""
        from fractions import Fraction
        from joinsample import DRS, Cover, Plan, derive_rng, generic_card_est
        plan = Plan(db, hq, cover=Cover({0: Fraction(0), 1: Fraction(0)}))
        try:
            generic_card_est(plan, DRS(), rng=derive_rng(0, "o", 0))
            print("no error")
        except RuntimeError as exc:
            print("raised", exc)
    """)
    assert out.startswith("raised keep probability")


def test_exact_sampler_checks_telescoping_identity():
    out = _run_optimized("""
        import random
        from joinsample import WeightIndex, exact_uniform_sample
        widx = WeightIndex(db, hq)
        root = widx.weight[widx.tree.root]
        for row in root:
            root[row] += 1
        try:
            exact_uniform_sample(widx, random.Random(0))
            print("no error")
        except RuntimeError as exc:
            print("raised", exc)
    """)
    assert out == "raised weight telescoping identity failed"


def test_trial_rejects_a_binding_that_does_not_split_the_attributes():
    # s binds A, but remaining still holds every attribute: a wander step
    # would probe as if A were unbound and return a wrong estimate
    out = _run_optimized("""
        from joinsample import (
            Plan, QueryError, WanderJoin, derive_rng, generic_card_est)
        plan = Plan(db, hq)
        try:
            generic_card_est(plan, WanderJoin(), None, {"A": db.interner.intern(1)},
                             derive_rng(0, "o", 0))
            print("no error")
        except QueryError as exc:
            print("raised", exc)
    """)
    assert out.startswith("raised remaining") and "split the sampled attributes" in out
