"""Sampling and counting for join-project queries.

A projection answer is a binding of the output attributes O that extends to
at least one full join answer. Two-step scheme: draw a candidate uniformly
from the join of the deduplicated edge projections onto O (component by
component; disjoint components multiply), then keep it only when the
remaining attributes can still be completed, decided by a residual existence
check. Conditional on acceptance the candidate is uniform over the distinct
projection answers, and the acceptance rate divided by the constant
per-candidate probability estimates their number.
"""

from __future__ import annotations

import random

from .estimators import (
    EstimateReport, Plan, check_success_target, count_successes, make_strategy,
    per_answer_probability, uniform_sample,
)
from .ghd import node_query
from .queries import Hypergraph, QueryError, connected_parts, validate
from .wcoj import generic_join_exists


class ProjectionPlan:
    def __init__(self, db, query, projection=None, strategy: str = "drs"):
        hq = getattr(query, "hypergraph", query)
        if projection is None:
            projection = getattr(query, "projection", None)
        if not projection:
            raise QueryError("projection attributes are required")
        out = tuple(sorted(set(projection)))
        unknown = set(out) - set(hq.attributes)
        if unknown:
            raise QueryError(f"projection outside the query: {sorted(unknown)}")
        validate(hq, db)
        self.db = db
        self.hypergraph = hq
        self.out = out
        oset = frozenset(out)

        projected = node_query(db, hq, oset)
        proj_edges = [(e.attrs, e.relation) for e in projected.edges]

        self.parts = []
        self.p0 = 1.0
        self.empty = False
        for comp in connected_parts(out, projected.primal_neighbors()):
            edges_c = [pe for pe in proj_edges if set(pe[0]) <= comp]
            sub = Hypergraph(sorted(comp), edges_c)
            plan = Plan(db, sub)
            strat = make_strategy(strategy)
            if not getattr(strat, "uniform", False):
                raise QueryError(f"{strategy} cannot drive projection sampling")
            self.parts.append((plan, strat))
            if plan.empty:
                self.empty = True
        if not self.empty:
            for plan, strat in self.parts:
                self.p0 *= per_answer_probability(plan, strat)

        rest = [(e.attrs, e.relation) for e in hq.edges if e.attr_set - oset]
        if rest:
            covered = set()
            for attrs, _ in rest:
                covered.update(attrs)
            # declare only the touched attributes: edges fully inside the
            # output set were already enforced at the candidate stage
            self.residual = Hypergraph(sorted(covered), rest)
            self.free = frozenset(covered - oset)
        else:
            self.residual = None
            self.free = frozenset()


def sample_projection(pplan: ProjectionPlan, rng: random.Random):
    """One attempt; a binding of the output attributes or None.

    Conditional on success the binding is uniform over the distinct
    projection answers, each attempt landing on any fixed one with
    probability exactly pplan.p0.
    """
    if pplan.empty:
        return None
    s = {}
    for plan, strat in pplan.parts:
        got = uniform_sample(plan, strat, rng)
        if got is None:
            return None
        s.update(got)
    if pplan.residual is not None:
        if not generic_join_exists(pplan.db, pplan.residual, pplan.free, s):
            return None
    return s


def estimate_projection_count(db, query, projection=None, c: int = 64,
                              seed=0, strategy: str = "drs") -> EstimateReport:
    """Unbiased estimate of the number of distinct projection answers.

    The report's ops are those this call spent, plan building included.
    """
    check_success_target(c)
    ops0 = db.ops.n
    pplan = ProjectionPlan(db, query, projection, strategy)
    if pplan.empty or pplan.p0 <= 0.0:
        return EstimateReport(0.0, trials=1, mode="success-count",
                              strategy=strategy, successes=0, c=c, seed=seed,
                              ops=db.ops.n - ops0)
    successes, trials, cap = count_successes(
        lambda rng: sample_projection(pplan, rng), pplan.p0, c, seed, "proj")
    return EstimateReport(successes / (trials * pplan.p0), trials=trials,
                          mode="success-count", strategy=strategy,
                          successes=successes, c=c, seed=seed,
                          budget_cap=cap, ops=db.ops.n - ops0)
