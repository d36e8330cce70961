"""Validated equilibria of the Ohta-Kawasaki equation on the unit cube.

Rigorous pipeline: interval arithmetic -> cosine-series algebra -> embedding
constants -> certified inverse bounds -> Lipschitz constants -> existence and
uniqueness certificates.  A floating Newton solver produces the approximate
equilibria that seed the validation.
"""

from .cift import (
    Certificate,
    RadiiResult,
    SolutionBounds,
    TOOL_VERSION,
    feasible_dx_range,
    solution_bounds,
    solve_radii,
    validate,
    verify_certificate,
)
from .embeddings import EmbeddingConstants, equiv_factor, recompute_cmbar, table_constants
from .intervals import BallMatrix, Interval, IntervalDomainError
from .lipschitz import (
    ContinuationChoice,
    LipschitzBounds,
    bounds_lambda,
    bounds_mu,
    bounds_sigma,
    lipschitz_bounds,
    poly_range_max,
)
from .newton import NewtonError, NewtonResult, SolveOptions, newton_solve, parameter_walk, parse_seed
from .operator import (
    CertificationError,
    GalerkinMatrix,
    InverseBound,
    KnResult,
    Linearization,
    ModelParams,
    PARAMETERS,
    apply_linearization,
    auto_inverse_bound,
    derivative_inverse_bound,
    galerkin_inverse_bound,
    galerkin_matrix,
    linearization_coefficient,
    residual_norm,
    residual_series,
    tau_formula,
)
from .series import CosineSeries, evaluate_grid, laplacian, multiply, norm, sup_bound, tail

__version__ = TOOL_VERSION

__all__ = [name for name in dir() if not name.startswith("_")]
