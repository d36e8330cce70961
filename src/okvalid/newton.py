"""Floating-point Galerkin Newton iteration producing approximate equilibria.

Non-rigorous machinery: it calls the float convolution fold and Galerkin
kernel that the rigorous path encloses, without their error bounds, and
solves the projected system
P_N F(u) = 0.  Convergence is judged on the projected residual; the full
residual over every populated mode is reported alongside (it is floored by
the truncation and is what the rigorous certificate will see).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator import (
    PARAMETERS,
    ModelParams,
    galerkin_matrix_point,
    memory_shortfall,
    poly_eval_series_point,
    truncation_modes,
    _with_mean,
)
from .series import CosineSeries, k2_grid


class NewtonError(RuntimeError):
    """Divergence, singular Jacobian, or iteration budget exhausted."""


@dataclass
class SolveOptions:
    n: int
    max_iter: int = 60
    tol_residual: float = 1e-10
    damping: float = 1.0

    def __post_init__(self):
        if not self.max_iter >= 0:
            raise ValueError("max_iter must be >= 0")
        if not self.tol_residual > 0:
            raise ValueError("tol_residual must be positive")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must be in (0, 1]")
        if self.n < 2:
            raise ValueError("truncation must be >= 2")


def parse_seed(description: str, dim: int, n: int) -> np.ndarray:
    """Initial-guess coefficients from a seed description.

    "zero"                     -- the trivial state
    "mode:k1[,k2[,k3]][,amp]"  -- amp * phi_(k1..kd), amp defaults to 0.2
    """
    extent = (n,) * dim
    coeffs = np.zeros(extent)
    description = description.strip()
    if description == "zero":
        return coeffs
    if description.startswith("mode:"):
        parts = [s.strip() for s in description[5:].split(",") if s.strip()]
        if len(parts) == dim:
            idx = tuple(int(s) for s in parts)
            amp = 0.2
        elif len(parts) == dim + 1:
            idx = tuple(int(s) for s in parts[:dim])
            amp = float(parts[dim])
        else:
            raise ValueError(
                f"seed {description!r} needs {dim} indices and an optional amplitude"
            )
        if any(not 0 <= k < n for k in idx) or all(k == 0 for k in idx):
            raise ValueError(f"seed mode {idx} out of range for truncation {n}")
        coeffs[idx] = amp
        return coeffs
    raise ValueError(f"unknown seed description {description!r}")


def residual_point(p: ModelParams, coeffs: np.ndarray):
    """Float residual coefficients and norms.

    Returns (F, proj_norm, full_norm): F over the full populated extent, and
    the (-2)-weighted norms of its projection below the coefficient extent
    and of everything.
    """
    n = coeffs.shape[0]
    w0 = poly_eval_series_point(p.f_coeffs, _with_mean(coeffs, p.mu))
    ext = tuple(max(a, b) for a, b in zip(w0.shape, coeffs.shape))
    w = np.zeros(ext)
    w[tuple(slice(0, s) for s in w0.shape)] = w0
    a = np.zeros(ext)
    a[tuple(slice(0, s) for s in coeffs.shape)] = coeffs
    kap = math.pi**2 * k2_grid(ext)
    f_coeffs = -(kap**2) * a + p.lam * kap * w - p.lam * p.sigma * a
    weighted = np.zeros_like(f_coeffs)
    nonzero = kap > 0
    weighted[nonzero] = f_coeffs[nonzero] ** 2 / kap[nonzero] ** 2
    full = math.sqrt(float(np.sum(weighted)))
    proj = math.sqrt(float(np.sum(weighted[tuple(slice(0, min(n, s)) for s in w.shape)])))
    return f_coeffs, proj, full


# Peak number of live m x m double arrays in a Newton step on m = n^d - 1
# unknowns: the Jacobian, its assembly's temporaries and np.linalg.solve's
# copy.  Measured (tracemalloc peak, rise of the peak RSS) in 2-d at m = 783
# to 4095 and in 3-d at m = 1727: 3.0 to 3.3, rounded up.
NEWTON_WORK_ARRAYS = 4


@dataclass
class NewtonResult:
    solution: CosineSeries
    residual_proj: float
    residual_full: float
    iterations: int


# Overflow is not an error here: a non-finite residual ends the iteration.
@np.errstate(over="ignore", invalid="ignore")
def newton_solve(p: ModelParams, u0: CosineSeries | np.ndarray, opts: SolveOptions) -> NewtonResult:
    """Newton iteration on the projected system; the mean mode stays exactly
    zero.  A step too large for the available memory raises NewtonError first."""
    coeffs = u0.mid() if isinstance(u0, CosineSeries) else np.asarray(u0, dtype=np.float64)
    dim = coeffs.ndim
    n = opts.n
    short = memory_shortfall(8.0 * NEWTON_WORK_ARRAYS * (n**dim - 1) ** 2, dim, n, "Newton Jacobian")
    if short:
        raise NewtonError(short)
    a = np.zeros((n,) * dim)
    src = tuple(slice(0, min(n, s)) for s in coeffs.shape)
    a[src] = coeffs[src]
    a[(0,) * dim] = 0.0

    modes = truncation_modes(dim, n)
    flat_idx = np.ravel_multi_index(tuple(modes[:, i] for i in range(dim)), (n,) * dim)
    start_norm = None
    for it in range(opts.max_iter + 1):
        f_all, proj, full = residual_point(p, a)
        if not math.isfinite(proj):
            raise NewtonError(f"residual became non-finite at iteration {it}")
        if start_norm is None:
            start_norm = proj
        if proj <= opts.tol_residual:
            return NewtonResult(
                solution=CosineSeries.from_point(a),
                residual_proj=proj,
                residual_full=full,
                iterations=it,
            )
        if proj > 1e8 * max(start_norm, 1.0):
            raise NewtonError(f"Newton iteration diverged (residual {proj:.3g})")
        if it == opts.max_iter:
            break
        jac = galerkin_matrix_point(p, a, n)
        rhs = -f_all[tuple(slice(0, n) for _ in range(dim))].ravel()[flat_idx]
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular Jacobian at iteration {it}: {exc}") from exc
        flat = a.ravel()
        flat[flat_idx] += opts.damping * step
        a = flat.reshape(a.shape)
        a[(0,) * dim] = 0.0
    raise NewtonError(
        f"no convergence in {opts.max_iter} iterations (residual {proj:.3g}, tol {opts.tol_residual:.3g})"
    )


def check_walk(which: str, step: float) -> None:
    """Raise ValueError unless which names a parameter and step is finite and nonzero."""
    if not (math.isfinite(step) and step != 0):
        raise ValueError("step must be finite and nonzero")
    if which not in PARAMETERS:
        raise ValueError(f"unknown walk parameter {which!r}")


def parameter_walk(
    p0: ModelParams,
    u0: CosineSeries | np.ndarray,
    which: str,
    step: float,
    count: int,
    opts: SolveOptions,
):
    """Natural-parameter stepping; each converged solution seeds the next solve.

    Returns the list of (params, NewtonResult) pairs obtained before the
    first Newton failure; count is the number of steps beyond the initial
    solve.  A failure of the initial solve raises its NewtonError.
    """
    check_walk(which, step)
    out = []
    p = p0
    guess = u0
    for _ in range(count + 1):
        try:
            res = newton_solve(p, guess, opts)
        except NewtonError:
            if not out:
                raise
            break
        out.append((p, res))
        guess = res.solution
        try:
            p = p.step(which, step)
        except ValueError:
            break
    return out
