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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .embeddings import table_constants
from .intervals import (
    PI2,
    PI2_BALL,
    PI4,
    PI4_BALL,
    BallMatrix,
    Interval,
    IntervalDomainError,
    mat_inverse_norm2_upper,
    sum_enclosure,
)
from .series import (
    C_FLOAT,
    CosineSeries,
    c_grid,
    laplacian,
    multiply,
    multiply_point,
    norm,
    nz_grid,
    sup_bound,
    _raw_mid_rad,
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


# the continuation parameters, by name, and the ModelParams field of each
PARAMETERS = ("lambda", "sigma", "mu")
_FIELDS = dict(zip(PARAMETERS, ("lam", "sigma", "mu")))


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

    def get(self, which: str) -> float:
        """The value of the parameter named which (one of PARAMETERS)."""
        return getattr(self, _FIELDS[which])

    def step(self, which: str, delta: float) -> "ModelParams":
        """These parameters with which moved by delta, validated again."""
        return replace(self, **{_FIELDS[which]: self.get(which) + delta})

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
    acc = CosineSeries.zeros((1,) * v.dim).add_constant(coeffs[-1])
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


class Linearization(NamedTuple):
    """The coefficient q = lam f'(u + mu) of the derivative of F at u, with
    rigorous upper bounds on its sup and H2 norms."""

    q: CosineSeries
    q_sup: float
    q_h2: float


def linearization_coefficient(p: ModelParams, fprime: CosineSeries) -> Linearization:
    """The linearization of F at u from fprime = fprime_series(p, u)."""
    q = fprime.scale(p.lam)
    return Linearization(q, sup_bound(q).hi, norm(q, "H", 2).hi)


def apply_linearization(p: ModelParams, q: CosineSeries, v: CosineSeries) -> CosineSeries:
    """Exact series of the derivative of F applied to v, q being the
    linearization coefficient at the point of differentiation."""
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


def split_axes(q: CosineSeries) -> tuple:
    """Per axis, whether every nonzero coefficient of q has an even index along it.

    A raw coefficient of q has a nonzero midpoint or radius exactly where
    q's ball is not the point zero.  Along such an axis every term of
    (q phi_ell, phi_k) with k_j - ell_j odd meets |k_j +- ell_j| odd, a point
    zero, so the Galerkin matrix splits by the parity of k_j.
    """
    support = q.support()
    return tuple(
        not np.moveaxis(support, j, 0)[1::2].any() for j in range(support.ndim)
    )


def parity_classes(split, n: int) -> list:
    """Per-axis index sets of the mode classes k_j mod 2 on the split axes.

    Each class is a lexicographic tensor sub-grid of truncation_modes; the
    classes run in lexicographic order of their parities, and a class that
    is only the origin is left out.  No split axis gives one class, the
    full grid.
    """
    out = []
    for cls in itertools.product(*[(0, 1) if s else (None,) for s in split]):
        axes = tuple(np.arange(n) if c is None else np.arange(c, n, 2) for c in cls)
        if _class_size(axes) > 0:
            out.append(axes)
    return out


def _class_size(axes) -> int:
    return math.prod(a.size for a in axes) - all(a[0] == 0 for a in axes)


def _class_positions(axes, n: int) -> np.ndarray:
    """Row indices in truncation_modes of the class's modes, in its order."""
    flat = np.ravel_multi_index(np.ix_(*axes), (n,) * len(axes)).ravel()
    return flat[flat > 0] - 1


@dataclass
class GalerkinMatrix:
    """Scaled matrix of the projected linearization on modes 0 < |k|_inf < n.

    The matrix is block-diagonal by the parity classes of split: blocks
    holds, per class, the row indices of its modes in modes and the ball
    matrix on them.  Every entry outside the blocks is an exact zero.
    """

    n: int
    dim: int
    modes: np.ndarray
    split: tuple
    blocks: list

    @property
    def size(self) -> int:
        return self.modes.shape[0]

    @property
    def mat(self) -> BallMatrix:
        """The full block-diagonal ball matrix, scattered from the blocks."""
        mid = np.zeros((self.size, self.size))
        rad = np.zeros((self.size, self.size))
        for idx, b in self.blocks:
            mid[np.ix_(idx, idx)] = b.mid
            rad[np.ix_(idx, idx)] = b.rad
        return BallMatrix(mid, rad)

    def parity_label(self, idx) -> str:
        """The block's class: k_j mod 2 per split axis, * on the others."""
        k = self.modes[idx[0]]
        return "(" + ", ".join(str(v % 2) if s else "*" for v, s in zip(k, self.split)) + ")"


def _galerkin_sums(axes, arrays) -> list:
    """(a phi_ell, phi_k) before the factor c_k c_ell / 2^d, for each raw
    coefficient array a (all of one extent) and every pair of modes of the
    lexicographic grid axes[0] x ... x axes[d-1] of per-axis indices, less
    the origin where the grid holds it: the sum over sign patterns s of
    2^-nz(k + s ell) a[|k + s ell|], zero outside a's extent.

    Each pattern is one gather per array from a 2^-nz, zero-padded to
    2 max(axes[j]) + 1 along axis j, through the grid's per-axis tables
    |k_j +- ell_j|; no m x m index, mask or weight array is built, and one
    gather is live at a time.  Full ranges give the truncation_modes grid.
    """
    d = arrays[0].ndim
    ext = tuple(2 * int(a[-1]) + 1 for a in axes)
    crop = tuple(slice(0, min(e, x)) for e, x in zip(arrays[0].shape, ext))
    half = 0.5 ** nz_grid(tuple(c.stop for c in crop))
    padded = [np.zeros(ext) for _ in arrays]
    for aw, a in zip(padded, arrays):
        aw[crop] = a[crop] * half
    tables = [{1: a[:, None] + a[None, :], -1: np.abs(a[:, None] - a[None, :])} for a in axes]
    size = math.prod(a.size for a in axes)
    m = _class_size(axes)
    drop = size - m  # the origin, first where the grid holds it
    sums = [np.zeros((m, m)) for _ in arrays]
    for signs in itertools.product((1, -1), repeat=d):
        # axis j's table spans result axes j (k_j) and d + j (ell_j)
        idx = tuple(
            tables[j][s].reshape(
                (1,) * j + (axes[j].size,) + (1,) * (d - 1) + (axes[j].size,) + (1,) * (d - 1 - j)
            )
            for j, s in enumerate(signs)
        )
        for acc, aw in zip(sums, padded):
            acc += aw[idx].reshape(size, size)[drop:, drop:]
    return sums


def galerkin_matrix(p: ModelParams, q: CosineSeries, n: int) -> GalerkinMatrix:
    """Ball matrix with entries -(1 + lam sigma / kappa_k^2) delta_{k,ell}
    + (q phi_ell, phi_k) / kappa_ell, one block per parity class of
    split_axes(q).

    The float sums of galerkin_matrix_point at the raw midpoint of q, at its
    absolute value and at the raw radius are scaled in place by the weights
    fl(c_k) and fl(c_ell 2^-d / fl(pi^2 |ell|^2)); the diagonal fl(1 +
    fl(lam sigma) / fl(pi^4 |k|^4)) joins the midpoint and the absolute sum.
    With c_k, pi^2 and pi^4 each within one rounding, sum_enclosure counts
    for a coefficient of q 2^d - 1 factors in its sum, 2 for the row weight,
    5 for the column weight (c_ell, pi^2 and its product by |ell|^2, the
    quotient, the product) and 1 for the diagonal; for lam sigma / kappa_k^2
    4 in the quotient, 1 for adding 1 and 1 for the diagonal: terms = 2^d + 7.
    Every nonzero raw coefficient has a midpoint or radius of at least
    _FOLD_MIN, so each gathered term is a normal double, and an off-diagonal
    entry with zero sums gathers only point zeros: it becomes an exact zero,
    which keeps later products free of subnormal radii.  Every entry is
    computed elementwise, so a block holds the same bits as the one-block
    assembly does on its rows and columns.
    """
    d = q.dim
    modes = truncation_modes(d, n)
    split = split_axes(q)
    qm, qr, _ = _raw_mid_rad(q)
    arrays = [qm, np.abs(qm)] + ([qr] if qr.any() else [])
    blocks = []
    for axes in parity_classes(split, n):
        idx = _class_positions(axes, n)
        blocks.append((idx, _galerkin_block(p, modes[idx], axes, arrays)))
    return GalerkinMatrix(n=n, dim=d, modes=modes, split=split, blocks=blocks)


def _galerkin_block(p: ModelParams, modes: np.ndarray, axes, arrays) -> BallMatrix:
    """galerkin_matrix's ball matrix on one parity class: axes are its
    per-axis indices, modes its rows of truncation_modes in that order."""
    d = modes.shape[1]
    m = modes.shape[0]
    s_mid, s_abs, *s_rad = _galerkin_sums(axes, arrays)
    diag = np.arange(m)
    free = s_abs == 0.0
    for s in s_rad:
        free &= s == 0.0
    free[diag, diag] = False
    k2 = np.sum(modes.astype(np.float64) ** 2, axis=1)
    row = C_FLOAT[np.count_nonzero(modes, axis=1)]
    col = row * 0.5**d / (PI2_BALL[0] * k2)
    for s in (s_mid, s_abs, *s_rad):
        s *= row[:, None]
        s *= col
    dm = 1.0 + (p.lam * p.sigma) / (PI4_BALL[0] * (k2 * k2))
    s_mid[diag, diag] -= dm
    s_abs[diag, diag] += dm
    mid, rad = sum_enclosure(s_mid, s_abs, *s_rad, terms=2**d + 7)
    mid[free] = 0.0
    rad[free] = 0.0
    return BallMatrix(mid, rad)


def galerkin_matrix_point(p: ModelParams, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Float matrix of the unscaled projected linearization (Newton Jacobian).

    Entries -(kappa_k^2 + lam sigma) delta_{k,ell} + kappa_k (q phi_ell, phi_k).
    """
    d = coeffs.ndim
    q = poly_eval_series_point(poly_deriv(p.f_coeffs), _with_mean(coeffs, p.mu)) * p.lam
    q_raw = q * c_grid(q.shape)
    modes = truncation_modes(d, n)
    m = modes.shape[0]
    (acc,) = _galerkin_sums([np.arange(n)] * d, [q_raw])
    cf = C_FLOAT[np.count_nonzero(modes, axis=1)]
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


def galerkin_inverse_bound(g: GalerkinMatrix) -> KnResult:
    """K_N as the largest of mat_inverse_norm2_upper's bounds over the blocks.

    Every member of the ball matrix is block-diagonal, its blocks members of
    the block balls, so the 2-norm of its inverse is the largest of theirs;
    defect is the largest e over the blocks.
    """
    per_block = []
    for idx, b in g.blocks:
        try:
            per_block.append(mat_inverse_norm2_upper(b))
        except IntervalDomainError as exc:
            raise CertificationError(
                "kn_bound",
                f"finite inverse not certified at n={g.n} on parity class "
                f"{g.parity_label(idx)} ({idx.size} modes): {exc}",
                suggested_n=2 * g.n,
            ) from exc
    bounds, defects, _ = zip(*per_block)
    return KnResult(value=max(bounds), defect=max(defects))


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


# Peak number of live m_b x m_b double arrays in the K_N stage besides the
# blocks themselves (midpoint and radius, two per block), m_b being the
# largest block: the Galerkin assembly of a block and its certified inverse
# norm.  Measured in 2-d at m = 783 and 2303, split into 4 and into 2 blocks
# (OpenBLAS, 1 thread): the tracemalloc peak of galerkin_matrix and
# galerkin_inverse_bound less the blocks is 5.14 to 5.24, and at m = 4095
# the rise of the peak RSS less the blocks at most 4.8; this is the larger,
# rounded up.  With one block the charge is 8 m x m.
KN_WORK_ARRAYS = 6


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


def kn_stage_bytes(q: CosineSeries, n: int) -> float:
    """Bytes the K_N stage needs at truncation n: every block of the Galerkin
    matrix of q, and the working set of the largest."""
    sizes = [_class_size(axes) for axes in parity_classes(split_axes(q), n)]
    return 8.0 * (2 * sum(s * s for s in sizes) + KN_WORK_ARRAYS * max(sizes) ** 2)


def memory_shortfall(need: float, dim: int, n: int, stage: str) -> str | None:
    """Why need bytes for stage at truncation n do not fit in the available
    memory, or None when they do."""
    avail = available_memory_bytes()
    if need <= avail:
        return None
    return (f"truncation n={n} ({n**dim - 1} modes) needs about {need / 1e6:.0f} MB "
            f"for the {stage}, {avail / 1e6:.0f} MB available")


def derivative_inverse_bound(p: ModelParams, lin: Linearization, n: int) -> InverseBound:
    """The finite inverse bound K_N at cut n and the full bound K.

    Raises CertificationError at stage kn_bound, without a suggested
    truncation, when the K_N stage would not fit in the available memory.
    """
    q, q_sup, q_h2 = lin
    short = memory_shortfall(kn_stage_bytes(q, n), q.dim, n, "K_N stage")
    if short:
        raise CertificationError("kn_bound", short)
    kn = galerkin_inverse_bound(galerkin_matrix(p, q, n))
    cb = table_constants(q.dim).cb
    tau = tau_formula(kn.value, q_sup, q_h2, cb, n).hi
    if not tau < 1.0:
        raise CertificationError(
            "inverse_bound",
            f"tail contraction {tau:.4g} >= 1 at n={n}; increase the truncation "
            f"(rule of thumb: n ~ {rule_of_thumb_n(q_h2)})",
            suggested_n=max(2 * n, rule_of_thumb_n(q_h2)),
        )
    k = (Interval(max(kn.value, 1.0)) / (Interval(1.0) - Interval(tau))).hi
    return InverseBound(kn=kn.value, tau=tau, k=k, n=n)


TRUNCATION_CEILING = {1: 256, 2: 96, 3: 32}
RULE_OF_THUMB_C = 0.7


def rule_of_thumb_n(q_h2: float) -> int:
    return max(4, math.ceil(RULE_OF_THUMB_C * math.sqrt(q_h2)))


def auto_inverse_bound(
    p: ModelParams, lin: Linearization, tau_target: float = 0.5
) -> InverseBound:
    """Double the truncation from a rule-of-thumb start until tau is comfortable.

    Escalation stops at TRUNCATION_CEILING, or at a failure for which no
    larger truncation can help (one without a suggested truncation).
    """
    ceiling = TRUNCATION_CEILING[lin.q.dim]
    n = min(rule_of_thumb_n(lin.q_h2), ceiling)
    best: InverseBound | None = None
    last_error: CertificationError | None = None
    while True:
        try:
            cand = derivative_inverse_bound(p, lin, n)
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
