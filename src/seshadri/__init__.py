"""Certified lower bounds for multi-point Seshadri constants of the plane.

Exact-arithmetic computation of f(n) in the bound
eps(n) >= (1/sqrt(n)) * sqrt(1 - 1/f(n)) for n >= 10 general points,
by enumerating prospective abnormal classes, excluding them through a
specialization/unloading criterion and a provenance-tagged database of
imported non-effectivity facts, and cross-checking every closed-form bound.
"""
from .bounds import (
    BestKnown,
    BoundReport,
    FormulaBound,
    all_formula_bounds,
    best_known,
    bounds_for_ns,
    compute_bound,
    lemcc_hypothesis,
    mu_n,
)
from .candidates import (
    CandidateTriple,
    e_value,
    enumerate_szcor,
)
from .effectivity import (
    SpecializationConfig,
    UnloadingTrace,
    alpha_lb_closed,
    alpha_lower_bound,
    d_sequence,
    semiuniformize,
)
from .exclusions import ExclusionDb, ExclusionResult, default_db, is_excluded
from .lattice import (
    DomainError,
    InvalidInput,
    QuadraticExpr,
    sign_of,
)

__version__ = "0.1.0"

__all__ = [
    "BestKnown",
    "BoundReport",
    "CandidateTriple",
    "DomainError",
    "ExclusionDb",
    "ExclusionResult",
    "FormulaBound",
    "InvalidInput",
    "QuadraticExpr",
    "SpecializationConfig",
    "UnloadingTrace",
    "all_formula_bounds",
    "alpha_lb_closed",
    "alpha_lower_bound",
    "best_known",
    "bounds_for_ns",
    "compute_bound",
    "d_sequence",
    "default_db",
    "e_value",
    "enumerate_szcor",
    "is_excluded",
    "lemcc_hypothesis",
    "mu_n",
    "semiuniformize",
    "sign_of",
]
