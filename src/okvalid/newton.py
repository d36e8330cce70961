"""Floating-point Galerkin Newton iteration producing approximate equilibria.

Non-rigorous machinery: it solves the projected system P_N F(u) = 0 with
float products (series.multiply_point, on matrix products) and the float
Galerkin kernel that the rigorous path encloses, without their error
bounds.  Each iterate forms the powers of u + mu once, and the residual and
the Jacobian read f and f' off them.  Convergence is judged on the projected
residual; the full residual over every populated mode is reported alongside
(it is floored by the truncation and is what the rigorous certificate will
see).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import operator
from .operator import (
    PARAMETERS,
    ModelParams,
    count_text,
    galerkin_matrix_point,
    memory_shortfall,
    parity_blocks,
    point_linearization,
    point_powers,
    poly_point,
)
from .series import CosineSeries, k2_grid


class NewtonError(RuntimeError):
    """Divergence, singular Jacobian, or iteration budget exhausted."""


@dataclass
class SolveOptions:
    n: int
    max_iter: int = 60
    tol_residual: float = 1e-10

    def __post_init__(self):
        if not self.max_iter >= 0:
            raise ValueError("max_iter must be >= 0")
        if not self.tol_residual > 0:
            raise ValueError("tol_residual must be positive")
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


@functools.lru_cache(maxsize=32)
def _kappa_grids(ext: tuple) -> tuple:
    """kappa_k = pi^2 |k|^2 over the coefficient grid ext, -(kappa_k^2), and
    kappa_k^2 with 1 at the origin (a divisor), read-only and shared per
    extent, as series.c_grid."""
    kap = math.pi**2 * k2_grid(ext)
    neg_kap2 = -(kap**2)
    div = kap**2
    div[(0,) * len(ext)] = 1.0
    for x in (kap, neg_kap2, div):
        x.flags.writeable = False
    return kap, neg_kap2, div


def residual_point(p: ModelParams, coeffs: np.ndarray, powers: list):
    """Float residual coefficients and norms at coeffs, whose point_powers
    are powers.

    Returns (F, proj_norm, full_norm): F over the full populated extent, and
    the (-2)-weighted norms of its projection below the coefficient extent
    and of everything.  F = -(kappa^2) a + (lam kappa) w - (lam sigma) a
    and its weighted squares F^2 / kappa^2 (zero at the origin) are formed
    in place, each operation on the same operands as elementwise.
    """
    n = coeffs.shape[0]
    w = poly_point(p.f_coeffs, powers)
    ext = tuple(max(a, b) for a, b in zip(w.shape, coeffs.shape))
    if w.shape != ext:
        w0, w = w, np.zeros(ext)
        w[tuple(slice(0, s) for s in w0.shape)] = w0
    a = np.zeros(ext)
    a[tuple(slice(0, s) for s in coeffs.shape)] = coeffs
    kap, neg_kap2, div = _kappa_grids(ext)
    f_coeffs = np.multiply(neg_kap2, a)
    term = np.multiply(kap, p.lam)
    term *= w
    f_coeffs += term
    f_coeffs -= np.multiply(a, p.lam * p.sigma, out=term)
    weighted = np.square(f_coeffs, out=term)
    weighted /= div
    weighted[(0,) * weighted.ndim] = 0.0
    full = math.sqrt(float(np.sum(weighted)))
    proj = math.sqrt(float(np.sum(weighted[tuple(slice(0, min(n, s)) for s in ext)])))
    return f_coeffs, proj, full


# Peak number of live m x m double arrays in a Newton step that solves a
# parity block of m unknowns: the block, its assembly's temporaries and
# np.linalg.solve's copy.  Measured (tracemalloc peak of two steps, rise of
# the peak RSS) on the full matrix in 2-d at m = 783, 2303 and 4095 and in
# 3-d at m = 1727: 2.07 to 2.26 traced, 2.18 to 4.09 in RSS (OpenBLAS, 1
# thread; the most at m = 783, where fixed costs count), rounded up.
NEWTON_WORK_ARRAYS = 4


def _check_block_memory(rows: int, dim: int, n: int, avail: float | None) -> None:
    """Raise NewtonError unless a Jacobian block of rows modes fits in avail bytes."""
    short = memory_shortfall(8 * NEWTON_WORK_ARRAYS * rows**2,
                             f"truncation n={n} ({count_text(n**dim - 1)} modes)",
                             f"Newton Jacobian block of {count_text(rows)} modes", avail)
    if short:
        raise NewtonError(short)


def check_truncation_memory(dim: int, n: int, avail: float | None = None) -> None:
    """Raise NewtonError unless the smallest block that any step at
    truncation n can assemble, one class of a split along every axis, fits
    in avail bytes (default: a reading of the available memory): a
    truncation that fails it fits no step."""
    _check_block_memory(min(block.size for block in parity_blocks((True,) * dim, n)), dim, n, avail)


@dataclass
class NewtonResult:
    solution: CosineSeries
    residual_proj: float
    residual_full: float
    iterations: int


def newton_solve(p: ModelParams, u0: CosineSeries | np.ndarray, opts: SolveOptions) -> NewtonResult:
    """Newton iteration on the projected system; the mean mode stays exactly
    zero.

    The Jacobian at the iterate is block-diagonal by the parity classes of
    the axes along which its linearization coefficient q has only
    even-index coefficients (operator.split_axes).  Each step assembles and
    solves only the blocks on which the residual has a nonzero entry; every
    other block has a zero right-hand side, so its step is the exact zero.
    An iterate that lives on one parity class (the canonical equilibria
    fill only the all-odd modes) therefore never leaves it.  A block too
    large for the available memory raises NewtonError before it is
    assembled, and so does a singular block, naming its class.  Before the
    first residual, the smallest block that any step can assemble (one
    class of a split along every axis) is charged, so a truncation that no
    step fits is refused before anything of its size is allocated.  Every
    charge is checked against one reading of the available memory per solve.
    """
    return _newton(p, u0, opts)[0]


# Overflow is not an error here: a non-finite residual ends the iteration.
@np.errstate(over="ignore", invalid="ignore")
def _newton(p: ModelParams, u0: CosineSeries | np.ndarray, opts: SolveOptions,
            start: tuple | None = None) -> tuple:
    """newton_solve, and its last iterate a with that iterate's point_powers
    at p: (NewtonResult, (mu, f_coeffs, a, powers)).  start, where given, is
    such a tuple from an earlier solve; where it has p's mu and f and the
    first iterate has its bits, its powers are read instead of formed
    again."""
    coeffs = u0.mid() if isinstance(u0, CosineSeries) else np.asarray(u0, dtype=np.float64)
    dim = coeffs.ndim
    n = opts.n
    avail = operator.available_memory_bytes()
    check_truncation_memory(dim, n, avail)
    a = np.zeros((n,) * dim)
    src = tuple(slice(0, min(n, s)) for s in coeffs.shape)
    a[src] = coeffs[src]
    a[(0,) * dim] = 0.0

    start_norm = None
    for it in range(opts.max_iter + 1):
        if it == 0 and start is not None and _same_point(start, p, a):
            powers = start[3]
        else:
            powers = point_powers(p, a)
        f_all, proj, full = residual_point(p, a, powers)
        if not math.isfinite(proj):
            raise NewtonError(f"residual became non-finite at iteration {it}")
        if start_norm is None:
            start_norm = proj
        if proj <= opts.tol_residual:
            result = NewtonResult(
                solution=CosineSeries.from_point(a),
                residual_proj=proj,
                residual_full=full,
                iterations=it,
            )
            return result, (p.mu, p.f_coeffs, a, powers)
        if proj > 1e8 * max(start_norm, 1.0):
            raise NewtonError(f"Newton iteration diverged (residual {proj:.3g})")
        if it == opts.max_iter:
            break
        f = f_all[(slice(0, n),) * dim].ravel()
        q_raw, split = point_linearization(p, powers)
        blocks = [(block, block.cells()) for block in parity_blocks(split, n)]
        blocks = [(block, cells) for block, cells in blocks if f[cells].any()]
        _check_block_memory(max(block.size for block, _ in blocks), dim, n, avail)
        flat = a.ravel()
        for block, cells in blocks:
            # the block is dropped once solved, so blocks are live one at a time
            try:
                step = np.linalg.solve(galerkin_matrix_point(p, q_raw, block), -f[cells])
            except np.linalg.LinAlgError as exc:
                raise NewtonError(
                    f"singular Jacobian at iteration {it} on parity class "
                    f"{block.label} ({block.size} modes): {exc}"
                ) from exc
            flat[cells] += step
    raise NewtonError(
        f"no convergence in {opts.max_iter} iterations (residual {proj:.3g}, tol {opts.tol_residual:.3g})"
    )


def _same_point(start: tuple, p: ModelParams, a: np.ndarray) -> bool:
    """Whether start, from _newton, is at p's mu and f and has a's bits."""
    mu, f_coeffs, b, _ = start
    return (mu, f_coeffs) == (p.mu, p.f_coeffs) and b.shape == a.shape and b.tobytes() == a.tobytes()


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
    solve.  A failure of the initial solve raises its NewtonError.  A
    lambda or sigma step leaves mu and f, so the powers of u + mu, as it
    does: each solve's first iteration reads the last solution's powers.
    """
    check_walk(which, step)
    out = []
    p = p0
    guess, start = u0, None
    for _ in range(count + 1):
        try:
            res, last = _newton(p, guess, opts, start)
        except NewtonError:
            if not out:
                raise
            break
        out.append((p, res))
        guess, start = res.solution, last
        try:
            p = p.step(which, step)
        except ValueError:
            break
    return out
