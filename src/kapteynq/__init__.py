"""Kapteyn-series numerics for the queueing constants C(D), C1(D,a), C2(D,a).

The package evaluates the Kapteyn series F, F1, F2 and their trigonometric
forms, solves the defining transcendental equations numerically, implements
the closed-form solutions, and cross-verifies the two against each other,
against the bracketing bound and asymptotics, and against the classical
Kepler-equation identities.
"""

from . import errors
from .bessel import (
    bessel_j,
    bessel_j_prime,
    kapteyn_coeff,
    kapteyn_coeff_prime,
)
from .closedform import (
    AsymptoticApproximants,
    ClosedForms,
    ProofTrace,
    asymptotics,
    bound_interval,
    closed_C,
    closed_C1,
    closed_C2_paper,
    closed_forms,
    exact_series_values,
    proof_trace,
)
from .kapteyn import (
    DEFAULT_TRUNCATION,
    Eccentricity,
    SeriesValue,
    TruncationConfig,
    convergence_boundary,
    eval_F,
    eval_F1,
    eval_F2,
    eval_trig_sums,
)
from .kepler import OrbitState, identity_rhs, orbit_state, solve_kepler
from .solver import (
    Problem,
    SolveReport,
    residuals,
    solve_C1_numeric,
    solve_C2_numeric,
    solve_C_numeric,
    solve_problem,
)

__version__ = "0.1.0"

__all__ = [
    "bessel_j",
    "bessel_j_prime",
    "kapteyn_coeff",
    "kapteyn_coeff_prime",
    "Eccentricity",
    "SeriesValue",
    "TruncationConfig",
    "DEFAULT_TRUNCATION",
    "convergence_boundary",
    "eval_F",
    "eval_F1",
    "eval_F2",
    "eval_trig_sums",
    "OrbitState",
    "solve_kepler",
    "orbit_state",
    "identity_rhs",
    "Problem",
    "SolveReport",
    "solve_C_numeric",
    "solve_C1_numeric",
    "solve_C2_numeric",
    "residuals",
    "solve_problem",
    "ClosedForms",
    "ProofTrace",
    "AsymptoticApproximants",
    "closed_C",
    "closed_C1",
    "closed_C2_paper",
    "closed_forms",
    "exact_series_values",
    "bound_interval",
    "asymptotics",
    "proof_trace",
    "errors",
    "__version__",
]
