"""The Ohta-Kawasaki equilibrium operator and certified bounds for its linearization.

The equilibrium residual F(u) = -Delta(Delta u + lam*f(u+mu)) - lam*sigma*u is
evaluated exactly as a finite interval series (the nonlinearity is polynomial,
so convolution powers are exact up to outward rounding).  The linearization is
reduced to a scaled Galerkin matrix whose certified inverse norm, combined
with a tail contraction constant, yields an upper bound for the norm of the
inverse of the full derivative.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .embeddings import table_constants
from .intervals import (
    PI2,
    PI4,
    Interval,
    IntervalDomainError,
    IntervalMatrix,
    _ndown,
    _nup,
    mat_inverse_norm2_upper,
    mid_rad,
    sum_enclosure,
    vadd,
    vmul,
    vscale,
)
from .series import (
    CosineSeries,
    laplacian,
    multiply,
    multiply_point,
    norm,
    nz_grid,
    sup_bound,
    to_raw,
    _c_factor,
)


class CertificationError(RuntimeError):
    """A rigorous bound could not be certified at the requested size.

    suggested_n is a larger truncation that may succeed; None means that no
    larger truncation can help.
    """

    def __init__(self, stage: str, message: str, suggested_n: int | None = None):
        super().__init__(message)
        self.stage = stage
        self.suggested_n = suggested_n


# ---------------------------------------------------------------------------
# model parameters and polynomial helpers
# ---------------------------------------------------------------------------

def poly_deriv(coeffs) -> tuple:
    return tuple(float(j * c) for j, c in enumerate(coeffs) if j >= 1)


@dataclass(frozen=True)
class ModelParams:
    """Equation parameters: -Delta(Delta u + lam f(u+mu)) - lam sigma u = 0."""

    lam: float
    sigma: float = 0.0
    mu: float = 0.0
    f_coeffs: tuple = (0.0, 1.0, 0.0, -1.0)  # f(v) = v - v^3

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.f_coeffs)
        object.__setattr__(self, "f_coeffs", coeffs)
        if not all(math.isfinite(v) for v in (self.lam, self.sigma, self.mu, *coeffs)):
            raise ValueError(f"non-finite parameter: {self}")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if len(coeffs) < 2:
            raise ValueError("nonlinearity must have formal degree >= 1")

    @property
    def fp_coeffs(self) -> tuple:
        return poly_deriv(self.f_coeffs)

    @property
    def fpp_coeffs(self) -> tuple:
        return poly_deriv(self.fp_coeffs)


def _trim(coeffs) -> tuple:
    coeffs = tuple(float(c) for c in coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    return coeffs


def poly_eval_series(coeffs, v: CosineSeries) -> CosineSeries:
    """Horner evaluation of a polynomial on a series (exact convolutions)."""
    coeffs = _trim(coeffs)
    const = np.zeros(tuple(1 for _ in range(v.dim)))
    acc = CosineSeries.from_point(const)
    acc = acc.add_constant(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = multiply(acc, v).add_constant(c)
    return acc


def poly_eval_series_point(coeffs, v: np.ndarray) -> np.ndarray:
    coeffs = _trim(coeffs)
    acc = np.zeros(tuple(1 for _ in range(v.ndim)))
    acc[(0,) * v.ndim] = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = multiply_point(acc, v)
        acc[(0,) * v.ndim] += c
    return acc


# ---------------------------------------------------------------------------
# residual and linearization (rigorous path)
# ---------------------------------------------------------------------------

def residual_series(p: ModelParams, u: CosineSeries) -> CosineSeries:
    """Exact interval series of F(p, u); the k=0 mode vanishes identically."""
    if not u.zero_mean:
        raise IntervalDomainError("residual requires a zero-mean series")
    w = poly_eval_series(p.f_coeffs, u.add_constant(p.mu))
    inner = laplacian(u, 1) + w.scale(p.lam)
    lam_sigma = Interval(p.lam) * Interval(p.sigma)
    return (-laplacian(inner, 1)) + u.scale(-lam_sigma)


def residual_norm(p: ModelParams, u: CosineSeries) -> Interval:
    """Enclosure of ||F(p,u)|| in the (-2)-weighted zero-mean norm; .hi is rho."""
    return norm(residual_series(p, u), "Hbar", -2)


def fprime_series(p: ModelParams, u: CosineSeries) -> CosineSeries:
    """Exact interval series of f'(u + mu)."""
    return poly_eval_series(p.fp_coeffs, u.add_constant(p.mu))


def linearization_coefficient(
    p: ModelParams, u: CosineSeries, fprime: CosineSeries | None = None
):
    """The series lam * f'(u + mu) with bounds on its sup and H2 norms.

    fprime, when given, is fprime_series(p, u).  Returns (q, q_sup, q_h2)
    where the two floats are rigorous upper bounds.
    """
    if fprime is None:
        fprime = fprime_series(p, u)
    q = fprime.scale(p.lam)
    return q, sup_bound(q).hi, norm(q, "H", 2).hi


def apply_linearization(
    p: ModelParams, u: CosineSeries, v: CosineSeries, q: CosineSeries | None = None
) -> CosineSeries:
    """Exact series of the derivative of F at u applied to v."""
    if q is None:
        q = linearization_coefficient(p, u)[0]
    inner = laplacian(v, 1) + multiply(q, v)
    lam_sigma = Interval(p.lam) * Interval(p.sigma)
    return (-laplacian(inner, 1)) + v.scale(-lam_sigma)


# ---------------------------------------------------------------------------
# Galerkin matrix of the scaled linearization
# ---------------------------------------------------------------------------

def truncation_modes(dim: int, n: int) -> np.ndarray:
    """Multi-indices with 0 < |k|_inf < n in lexicographic order, shape (n^d-1, d)."""
    if n < 2:
        raise ValueError("truncation must be >= 2")
    grids = np.indices((n,) * dim).reshape(dim, -1).T
    return np.ascontiguousarray(grids[1:])


@dataclass
class GalerkinMatrix:
    """Scaled matrix of the projected linearization on modes 0 < |k|_inf < n."""

    n: int
    dim: int
    modes: np.ndarray
    mat: IntervalMatrix
    ordering: str = "lex"

    @property
    def size(self) -> int:
        return self.mat.rows


def _mode_kappa_bounds(modes: np.ndarray):
    k2 = np.sum(modes.astype(np.float64) ** 2, axis=1)
    return np.maximum(_ndown(PI2.lo * k2), 0.0), _nup(PI2.hi * k2)


def _galerkin_sums(n: int, arrays) -> list:
    """(a phi_ell, phi_k) before the factor c_k c_ell / 2^d, for each raw
    coefficient array a (all of one extent) and every pair of
    truncation_modes(d, n): the sum over sign patterns s of
    2^-nz(k + s ell) a[|k + s ell|], zero outside a's extent.

    The modes are the lexicographic n^d grid without the origin, so each
    pattern is one gather from the weighted arrays a 2^-nz, zero-padded to
    2n - 1 per axis, through the per-axis n x n tables |k +- ell|; no m x m
    index, mask or weight array is built.
    """
    d = arrays[0].ndim
    crop = tuple(slice(0, min(e, 2 * n - 1)) for e in arrays[0].shape)
    weighted = np.stack([a[crop] for a in arrays])
    weighted *= 0.5 ** nz_grid(weighted.shape[1:])
    aw = np.zeros((len(arrays),) + (2 * n - 1,) * d)
    aw[(slice(None),) + crop] = weighted
    k = np.arange(n)
    tables = {1: k[:, None] + k[None, :], -1: np.abs(k[:, None] - k[None, :])}
    m = n**d - 1
    sums = [np.zeros((m, m)) for _ in arrays]
    for signs in itertools.product((1, -1), repeat=d):
        # axis j's table spans result axes j (k_j) and d + j (ell_j)
        idx = tuple(
            tables[s].reshape((1,) * j + (n,) + (1,) * (d - 1) + (n,) + (1,) * (d - 1 - j))
            for j, s in enumerate(signs)
        )
        terms = aw[(slice(None),) + idx].reshape(-1, m + 1, m + 1)
        for acc, t in zip(sums, terms[:, 1:, 1:]):
            acc += t
        del terms, t  # free this pattern's gather before the next one
    return sums


def galerkin_matrix(
    p: ModelParams, u: CosineSeries, n: int, q: CosineSeries | None = None
) -> GalerkinMatrix:
    """Interval matrix with entries -(1 + lam sigma / kappa_k^2) delta_{k,ell}
    + (q phi_ell, phi_k) / kappa_ell: the float sums of galerkin_matrix_point
    at mid(q), with a radius from the same sums at |mid(q)| and rad(q)."""
    if q is None:
        q = linearization_coefficient(p, u)[0]
    d = u.dim
    modes = truncation_modes(d, n)
    q_raw = IntervalMatrix(*(c.reshape(1, -1) for c in to_raw(q)))
    qm, qr = mid_rad(q_raw)
    # an entry that gathers only point-zero coefficients is an exact zero; it
    # keeps a zero radius, so later products see no subnormal radii
    support = ((q_raw.lo != 0.0) | (q_raw.hi != 0.0)).astype(np.float64)
    arrays = [qm, np.abs(qm), support] + ([] if qr is None else [qr])
    arrays = [a.reshape(q.extent) for a in arrays]
    s_mid, s_abs, s_support, *s_rad = _galerkin_sums(n, arrays)
    blo, bhi = sum_enclosure(s_mid, s_abs, *s_rad, terms=2**d)
    blo[s_support == 0.0] = 0.0
    bhi[s_support == 0.0] = 0.0
    del s_mid, s_abs, s_support, s_rad
    # multiply by c_k c_ell / 2^d
    flo, fhi = _c_factor(np.count_nonzero(modes, axis=1))
    plo, phi = vmul(flo[:, None], fhi[:, None], flo[None, :], fhi[None, :])
    blo, bhi = vscale(*vmul(blo, bhi, plo, phi), Interval(0.5**d))
    klo, khi = _mode_kappa_bounds(modes)
    # column scaling by 1/kappa_ell
    inv_lo = np.maximum(_ndown(1.0 / khi), 0.0)
    inv_hi = _nup(1.0 / klo)
    blo, bhi = vmul(blo, bhi, inv_lo[None, :], inv_hi[None, :])
    # diagonal term
    lam_sigma = Interval(p.lam) * Interval(p.sigma)
    k2lo, k2hi = np.maximum(_ndown(klo * klo), 0.0), _nup(khi * khi)
    if lam_sigma.lo == 0.0 and lam_sigma.hi == 0.0:
        rat_lo = np.zeros_like(k2lo)
        rat_hi = np.zeros_like(k2hi)
    else:
        rat_lo = np.maximum(_ndown(lam_sigma.lo / k2hi), 0.0)
        rat_hi = _nup(lam_sigma.hi / k2lo)
    dlo, dhi = vadd(np.ones_like(rat_lo), np.ones_like(rat_hi), rat_lo, rat_hi)
    idx = np.arange(modes.shape[0])
    new_lo, new_hi = vadd(blo[idx, idx], bhi[idx, idx], -dhi, -dlo)
    blo[idx, idx] = new_lo
    bhi[idx, idx] = new_hi
    return GalerkinMatrix(n=n, dim=u.dim, modes=modes, mat=IntervalMatrix(blo, bhi))


def galerkin_matrix_point(p: ModelParams, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Float matrix of the unscaled projected linearization (Newton Jacobian).

    Entries -(kappa_k^2 + lam sigma) delta_{k,ell} + kappa_k (q phi_ell, phi_k).
    """
    d = coeffs.ndim
    q = poly_eval_series_point(poly_deriv(p.f_coeffs), _with_mean(coeffs, p.mu)) * p.lam
    q_raw = q * math.sqrt(2.0) ** nz_grid(q.shape)
    modes = truncation_modes(d, n)
    m = modes.shape[0]
    (acc,) = _galerkin_sums(n, [q_raw])
    nz = np.count_nonzero(modes, axis=1)
    cf = math.sqrt(2.0) ** nz
    acc *= cf[:, None] * cf[None, :] * 0.5**d
    kap = math.pi**2 * np.sum(modes.astype(np.float64) ** 2, axis=1)
    b = kap[:, None] * acc
    b[np.arange(m), np.arange(m)] -= kap**2 + p.lam * p.sigma
    return b


def _with_mean(coeffs: np.ndarray, mu: float) -> np.ndarray:
    out = coeffs.copy()
    out[(0,) * coeffs.ndim] += mu
    return out


# ---------------------------------------------------------------------------
# certified inverse bounds
# ---------------------------------------------------------------------------

@dataclass
class KnResult:
    """Certified bound for the 2-norm of the inverse of the scaled matrix."""

    value: float
    defect: float  # certified bound e on ||C B - I||
    c_norm: float  # certified bound on ||C||


def galerkin_inverse_bound(g: GalerkinMatrix) -> KnResult:
    try:
        bound, defect, c_norm = mat_inverse_norm2_upper(g.mat)
    except IntervalDomainError as exc:
        raise CertificationError(
            "kn_bound",
            f"finite inverse not certified at n={g.n}: {exc}",
            suggested_n=2 * g.n,
        ) from exc
    return KnResult(value=bound, defect=defect, c_norm=c_norm)


def tau_formula(kn: float, q_sup: float, q_h2: float, cb: float, n: int) -> Interval:
    """Tail contraction constant for the approximate-inverse argument."""
    a = Interval(kn) * Interval(q_sup)
    b_sq = Interval(cb).square() * ((Interval(1.0) + PI4) / PI4) * Interval(q_h2).square()
    num = (a.square() + b_sq).sqrt()
    return num / (PI2 * Interval(float(n)).square())


@dataclass
class InverseBound:
    """Certified bound K for the inverse of the full linearization."""

    kn: float
    tau: float
    k: float
    n: int
    q_sup: float
    q_h2: float
    defect: float


# Peak number of live m x m double arrays in the K_N stage (Galerkin assembly
# and certified inverse norm), measured from the peak RSS at m = 783..1763:
# about 15 in 2-d and 3-d, well inside this ceiling.
KN_LIVE_ARRAYS = 24


def available_memory_bytes() -> float:
    """Memory the process may still allocate: MemAvailable, else free pages."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return float(line.split()[1]) * 1024.0
    except OSError:
        pass
    try:
        return float(os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (ValueError, OSError, AttributeError):
        return math.inf


def _check_kn_memory(dim: int, n: int) -> None:
    m = n**dim - 1
    need = KN_LIVE_ARRAYS * 8.0 * m * m
    avail = available_memory_bytes()
    if need > avail:
        raise CertificationError(
            "kn_bound",
            f"truncation n={n} ({m} modes) needs about {need / 1e6:.0f} MB "
            f"for the K_N stage, {avail / 1e6:.0f} MB available",
        )


def derivative_inverse_bound(
    p: ModelParams,
    u: CosineSeries,
    n: int,
    q_info=None,
) -> InverseBound:
    """Assemble q bounds, the finite inverse bound, and the full bound K at cut n.

    Raises CertificationError at stage kn_bound, without a suggested
    truncation, when the K_N stage would not fit in the available memory.
    """
    q, q_sup, q_h2 = q_info if q_info is not None else linearization_coefficient(p, u)
    _check_kn_memory(u.dim, n)
    g = galerkin_matrix(p, u, n, q=q)
    kn = galerkin_inverse_bound(g)
    cb = table_constants(u.dim).cb
    tau = tau_formula(kn.value, q_sup, q_h2, cb, n).hi
    if not tau < 1.0:
        raise CertificationError(
            "inverse_bound",
            f"tail contraction {tau:.4g} >= 1 at n={n}; increase the truncation "
            f"(rule of thumb: n ~ {rule_of_thumb_n(q_h2)})",
            suggested_n=max(2 * n, rule_of_thumb_n(q_h2)),
        )
    k = (Interval(max(kn.value, 1.0)) / (Interval(1.0) - Interval(tau))).hi
    return InverseBound(
        kn=kn.value, tau=tau, k=k, n=n, q_sup=q_sup, q_h2=q_h2, defect=kn.defect
    )


TRUNCATION_CEILING = {1: 256, 2: 96, 3: 32}
RULE_OF_THUMB_C = 0.7


def rule_of_thumb_n(q_h2: float) -> int:
    return max(4, math.ceil(RULE_OF_THUMB_C * math.sqrt(q_h2)))


def auto_inverse_bound(
    p: ModelParams,
    u: CosineSeries,
    n0: int | None = None,
    ceiling: int | None = None,
    tau_target: float = 0.5,
    q_info=None,
) -> InverseBound:
    """Double the truncation from a rule-of-thumb start until tau is comfortable.

    Escalation stops at the ceiling, or at a failure for which no larger
    truncation can help (one without a suggested truncation).  q_info, when
    given, is linearization_coefficient(p, u).
    """
    if q_info is None:
        q_info = linearization_coefficient(p, u)
    ceiling = ceiling if ceiling is not None else TRUNCATION_CEILING[u.dim]
    n = n0 if n0 is not None else min(rule_of_thumb_n(q_info[2]), ceiling)
    n = max(4, min(n, ceiling))
    best: InverseBound | None = None
    last_error: CertificationError | None = None
    while True:
        try:
            cand = derivative_inverse_bound(p, u, n, q_info=q_info)
            best = cand if best is None or cand.tau < best.tau else best
            if cand.tau <= tau_target:
                return cand
        except CertificationError as exc:
            last_error = exc
            if exc.suggested_n is None:
                break
        if n >= ceiling:
            break
        n = min(2 * n, ceiling)
    if best is not None:
        return best
    raise last_error if last_error is not None else CertificationError(
        "inverse_bound", "no certifiable truncation found"
    )
