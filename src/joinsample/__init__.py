"""Worst-case-optimal joins, join-size estimators, and uniform join samplers."""

from .components import (
    ComponentPlan, sste_estimate, sste_trial, sust_estimate,
    sust_sample, sust_trial, variance_bound_sste,
)
from .conjunctive import (
    ProjectionPlan, estimate_projection_count, sample_projection,
)
from .estimators import (
    DRS, AlleyPlus, EstimateReport, GJSample, Plan, WanderJoin, derive_rng,
    estimate_with_guarantee, generic_card_est, make_strategy, min_degree_order,
    per_answer_probability, uniform_sample, variance_bound,
)
from .exactweight import (
    WeightIndex, WeightOverflowError, exact_uniform_sample, preprocess_weights,
)
from .ghd import (
    GHD, check_ghd, choose_ghd, enumerate_ghds, fhtw, ghd_card_est, join_tree,
    rho_star, width,
)
from .queries import (
    AgmValue, Cover, Edge, Hypergraph, Query, QueryError, agm,
    fractional_edge_cover, half_integral_cover, load_query_file,
    parse_query_text, residual_agm, validate,
)
from .relations import (
    Database, EmptySemijoinError, Interner, OpCounter, Relation, SchemaError,
    TrieIndex, UnsupportedOrderError, View, load_relation,
    load_relation_file, parse_relation_file,
)
from .wcoj import brute_force_join, generic_join, generic_join_exists

__version__ = "0.1.0"

__all__ = [
    "AgmValue", "AlleyPlus", "ComponentPlan", "Cover", "DRS", "Database",
    "Edge", "EmptySemijoinError", "EstimateReport", "GHD", "GJSample",
    "Hypergraph", "Interner", "OpCounter", "Plan", "ProjectionPlan", "Query",
    "QueryError", "Relation", "SchemaError", "TrieIndex",
    "UnsupportedOrderError", "View", "WanderJoin", "WeightIndex",
    "WeightOverflowError", "agm", "brute_force_join", "check_ghd",
    "choose_ghd", "derive_rng",
    "enumerate_ghds", "estimate_projection_count", "estimate_with_guarantee",
    "exact_uniform_sample", "fhtw", "fractional_edge_cover",
    "generic_card_est", "generic_join", "generic_join_exists", "ghd_card_est",
    "half_integral_cover", "join_tree", "load_query_file", "load_relation",
    "load_relation_file", "make_strategy", "min_degree_order",
    "parse_query_text", "parse_relation_file", "per_answer_probability",
    "preprocess_weights", "residual_agm", "rho_star", "sample_projection",
    "sste_estimate", "sste_trial", "sust_estimate", "sust_sample", "sust_trial",
    "uniform_sample", "validate", "variance_bound", "variance_bound_sste",
    "width",
]
