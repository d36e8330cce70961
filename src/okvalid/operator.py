"""The Ohta-Kawasaki equilibrium operator, its linearization and its parity blocks.

The equilibrium residual F(u) = -Delta(Delta u + lam*f(u+mu)) - lam*sigma*u is
evaluated exactly as a finite interval series (the nonlinearity is polynomial,
so convolution powers are exact up to outward rounding).  The Galerkin matrix
of the linearization splits into parity blocks, whose sums the K_N stage
(okvalid.inverse) and Newton's float Jacobian share.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .intervals import Interval, IntervalDomainError
from .pointconv import _parity, _parity_count, _parity_range, _projections
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
    _lattice,
    _relattice,
)


class CertificationError(RuntimeError):
    """A rigorous bound could not be certified at the requested size.

    suggested_n is a larger truncation that may succeed; None means that no
    larger truncation that fits in memory can help.
    """

    def __init__(self, stage: str, message: str, suggested_n: int | None = None):
        super().__init__(message)
        self.stage = stage
        self.suggested_n = suggested_n


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


def memory_shortfall(need: int, what: str, stage: str, avail: float | None = None) -> str | None:
    """Why need bytes for stage at what (a truncation or a size) do not fit
    in avail bytes (default: a reading of the available memory), or None
    when they do; need is an exact integer, compared exactly."""
    avail = available_memory_bytes() if avail is None else avail
    if need <= avail:
        return None
    mb = count_text((need + 500_000) // 10**6)
    return f"{what} needs about {mb} MB for the {stage}, {avail / 1e6:.0f} MB available"


def count_text(m: int) -> str:
    """m for a message, as a power of ten past 10^15: a count past the
    double range, or past int's string limit, is written too."""
    return str(m) if m < 10**15 else f"10^{math.log10(m):.0f}"


# ---------------------------------------------------------------------------
# model parameters and polynomial helpers
# ---------------------------------------------------------------------------

def poly_deriv(coeffs) -> tuple:
    """The derivative's coefficients j c_j, c_j a float or an Interval, as
    Intervals: points where j and c_j are small integers or c_j is zero."""
    return tuple(Interval(j) * c for j, c in enumerate(coeffs) if j >= 1)


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

    @functools.cached_property
    def fp_coeffs(self) -> tuple:
        return poly_deriv(self.f_coeffs)

    @functools.cached_property
    def fpp_coeffs(self) -> tuple:
        return poly_deriv(self.fp_coeffs)


def _is_zero(c) -> bool:
    """Whether a coefficient, a float or an Interval, is the point zero."""
    return (c if isinstance(c, Interval) else Interval(c)).mag == 0.0


def _trim(coeffs) -> tuple:
    coeffs = tuple(coeffs)
    while len(coeffs) > 1 and _is_zero(coeffs[-1]):
        coeffs = coeffs[:-1]
    return coeffs


def poly_eval_series(coeffs, v: CosineSeries) -> CosineSeries:
    """Horner evaluation of a polynomial on a series (exact convolutions):
    deg products, the first by a constant.  The rigorous path reads f and
    f' off ball_powers instead; this is an evaluation independent of it."""
    coeffs = _trim(coeffs)
    acc = CosineSeries.zeros((1,) * v.dim).add_constant(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = multiply(acc, v).add_constant(c)
    return acc


def ball_powers(p: ModelParams, u: CosineSeries) -> list:
    """The ball powers [v, v^2, ..., v^deg] of v = u + mu, deg >= 1 the
    degree of f: deg - 1 products, from which poly_series reads both f(v)
    and f'(v), as point_powers does for Newton."""
    v = u.add_constant(p.mu)
    powers = [v]
    for _ in range(len(_trim(p.f_coeffs)) - 2):
        powers.append(multiply(v, powers[-1]))
    return powers


def poly_series(coeffs, powers: list) -> CosineSeries:
    """sum_j coeffs[j] v^j, coeffs[j] a float or an Interval, from
    ball_powers' [v, v^2, ...] by scale and +, in the order of j; a zero
    term is left out, so the sum keeps the lattice of its terms."""
    coeffs = _trim(coeffs)
    zero = CosineSeries.zeros((1,) * powers[0].dim)
    acc = None if _is_zero(coeffs[0]) else zero.add_constant(coeffs[0])
    for c, vj in zip(coeffs[1:], powers):
        if not _is_zero(c):
            acc = vj.scale(c) if acc is None else acc + vj.scale(c)
    return zero if acc is None else acc


# ---------------------------------------------------------------------------
# residual and linearization (rigorous path)
# ---------------------------------------------------------------------------

def residual_series(p: ModelParams, u: CosineSeries, powers: list | None = None) -> CosineSeries:
    """Exact interval series of F(p, u); the k=0 mode vanishes identically.
    powers is ball_powers(p, u), formed here when None."""
    if not u.zero_mean:
        raise IntervalDomainError("residual requires a zero-mean series")
    w = poly_series(p.f_coeffs, ball_powers(p, u) if powers is None else powers)
    inner = laplacian(u, 1) + w.scale(p.lam)
    lam_sigma = Interval(p.lam) * Interval(p.sigma)
    return (-laplacian(inner, 1)) + u.scale(-lam_sigma)


def residual_norm(p: ModelParams, u: CosineSeries, powers: list | None = None) -> Interval:
    """Enclosure of ||F(p,u)|| in the (-2)-weighted zero-mean norm; .hi is rho."""
    return norm(residual_series(p, u, powers), "Hbar", -2)


def fprime_series(p: ModelParams, u: CosineSeries, powers: list | None = None) -> CosineSeries:
    """Exact interval series of f'(u + mu); powers is ball_powers(p, u),
    formed here when None."""
    return poly_series(p.fp_coeffs, ball_powers(p, u) if powers is None else powers)


@dataclass(frozen=True)
class Linearization:
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

def split_axes(q: CosineSeries) -> tuple:
    """Per axis, whether every nonzero coefficient of q has an even index along it.

    A raw coefficient of q has a nonzero midpoint or radius exactly where
    q's ball is not the point zero.  Along such an axis every term of
    (q phi_ell, phi_k) with k_j - ell_j odd meets |k_j +- ell_j| odd, a point
    zero, so the Galerkin matrix splits by the parity of k_j.
    """
    return tuple(_parity(_parity_range(*key)[idx]) == 0
                 for key, idx in zip(q.axes, _projections(q.support())))


class ParityBlock(NamedTuple):
    """One parity class of the modes 0 < |k|_inf < n.

    The class is the lexicographic tensor grid of the per-axis indices axes,
    less the origin where the grid holds it; parity holds k_j mod 2 on each
    split axis and None on the others, and size counts its modes.
    """

    n: int
    parity: tuple
    size: int

    @property
    def axes(self) -> tuple:
        """The per-axis indices of the class's grid."""
        return tuple(_parity_range(self.n, c) for c in self.parity)

    @property
    def label(self) -> str:
        """The class's parities, * on an axis that does not split."""
        return "(" + ", ".join("*" if c is None else str(c) for c in self.parity) + ")"

    def cells(self) -> np.ndarray:
        """The flat indices of the class's modes in the n^d grid, in its order."""
        flat = np.ravel_multi_index(np.ix_(*self.axes), (self.n,) * len(self.parity)).ravel()
        return flat[flat > 0]

    def weights(self) -> tuple:
        """|k|^2, exact, and the float c_k of the class's modes, in its order."""
        grid = np.ix_(*self.axes)
        k2 = sum(a.astype(np.float64) ** 2 for a in grid).ravel()
        nz = sum((a != 0).astype(np.intp) for a in grid).ravel()
        return k2[k2 > 0], C_FLOAT[nz[k2 > 0]]


def parity_blocks(split, n: int) -> list:
    """The parity classes k_j mod 2 on the split axes, in lexicographic order
    of their parities, as ParityBlocks; a class that is only the origin is
    left out, and no split axis gives one class, the full grid.

    This is the one walk over the blocks of a matrix that splits by parity:
    the K_N stage, its memory charge and Newton's steps all follow it.  The
    sizes are counted, so no array is built until a class's axes, cells or
    weights are asked for: a charge refuses a truncation too large for
    memory before anything of its size exists.
    """
    out = []
    for cls in itertools.product(*[(0, 1) if s else (None,) for s in split]):
        # the grid holds the origin where no axis is odd
        size = math.prod(_parity_count(n, c) for c in cls) - (1 not in cls)
        if size > 0:
            out.append(ParityBlock(n, cls, size))
    return out


def _galerkin_sums(axes, arrays, lattice: tuple | None = None) -> list:
    """(a phi_ell, phi_k) before the factor c_k c_ell / 2^d, for each raw
    coefficient array a (all held on one lattice, default every index of
    the arrays, as a series is) and every pair of modes of the
    lexicographic grid axes[0] x ... x axes[d-1] of per-axis indices, less
    the origin where the grid holds it: the sum over sign patterns s of
    2^-nz(k + s ell) a[|k + s ell|], zero where a holds no mode.

    One array at a time, a 2^-nz on the modes 0 .. 2 max(axes[j]) along
    axis j (only the even ones where axes[j] has one parity, the only ones
    that |k_j +- ell_j| reaches there), placed from a's lattice into zeros
    (series._relattice), is taken along axes 0, ..., d-2 through the
    grid's per-axis n_j x n_j tables |k_j + ell_j| and |k_j - ell_j|
    (_sign_partials), and each partial's two takes along axis d-1 are
    added, in the order of the patterns (itertools.product((1, -1),
    repeat=d)), into a zeroed accumulator: every entry is the same sum in
    the same order as term by term, and a -0.0 term gives +0.0.  Every take
    copies whole rows, and one transposed copy makes the C-contiguous (k;
    ell) matrix.  In 1-d the origin is cut from the tables; elsewhere its
    row and column are cut by one more copy.
    """
    d = arrays[0].ndim
    ext = tuple(2 * int(a[-1]) + 1 for a in axes)
    drop = all(a[0] == 0 for a in axes)  # the origin, first where the grid holds it
    if d == 1:
        axes, drop = [axes[0][int(drop):]], False
    # along an axis whose indices share a parity every k_j +- ell_j is even:
    # only a's even entries there are read, and the tables count in twos
    steps = [2 if np.all(a % 2 == a[0] % 2) else 1 for a in axes]
    halves = [(a // s, a[0] % s) for a, s in zip(axes, steps)]
    tables = [(h[:, None] + (h + p)[None, :], np.abs(h[:, None] - h[None, :])) for h, p in halves]
    # the work lattice: the modes below ext, only the even ones in twos
    work = tuple((e, 0 if s == 2 else None) for e, s in zip(ext, steps))
    half = 0.5 ** nz_grid(*zip(*work))
    lattice = lattice or _lattice(arrays[0].shape)
    size = math.prod(a.size for a in axes)
    # the accumulator's axes: (k_{d-1}, ell_{d-1}, k_0, ell_0, ..., k_{d-2}, ell_{d-2})
    pairs = tuple(x for a in axes[-1:] + axes[:-1] for x in (a.size, a.size))
    to_rows = (*range(2, 2 * d, 2), 0, *range(3, 2 * d, 2), 1)
    last_first = (d - 1, *range(d - 1))
    sums = []
    for a in arrays:  # each array's work arrays are dropped before the next's are made
        aw = _relattice(a, lattice, work, copy=True)
        aw *= half
        acc = np.zeros(pairs)
        term = np.empty(pairs)
        for part in _sign_partials(aw.transpose(last_first).copy(), tables[:-1]):
            for tab in tables[-1]:
                acc += part.take(tab, axis=0, out=term, mode="clip")
            del part  # before the next partial is taken
        del term
        full = acc.transpose(to_rows).reshape(size, size)
        del acc
        sums.append(np.ascontiguousarray(full[1:, 1:]) if drop else full)
        del full
    return sums


def _sign_partials(part: np.ndarray, tables, t: int = 0):
    """The takes of part along the axes of tables, one sign of each in
    pattern order; part's axis 2t + 1 is the next axis to take, and one
    partial per axis is live."""
    if t == len(tables):
        yield part
        return
    for tab in tables[t]:
        yield from _sign_partials(part.take(tab, axis=2 * t + 1), tables, t + 1)


def point_powers(p: ModelParams, coeffs: np.ndarray) -> list:
    """Newton's float powers [v, v^2, ..., v^deg] of v = u + mu at the point
    coeffs, deg >= 1 the degree of f: deg - 1 products, from which
    poly_point reads both f(v) and f'(v)."""
    v = coeffs.copy()
    v[(0,) * v.ndim] += p.mu
    powers = [v]
    for _ in range(len(_trim(p.f_coeffs)) - 2):
        powers.append(multiply_point(v, powers[-1]))
    return powers


def poly_point(coeffs, powers: list) -> np.ndarray:
    """sum_j coeffs[j] v^j in float from point_powers' [v, v^2, ...], in
    the extent of the highest power with a nonzero coefficient; a term with
    a zero coefficient is left out."""
    coeffs = _trim(coeffs)
    top = len(coeffs) - 1
    out = np.zeros(powers[top - 1].shape if top else (1,) * powers[0].ndim)
    for c, vj in zip(coeffs[1:], powers):
        if c != 0.0:
            out[tuple(slice(0, s) for s in vj.shape)] += c * vj
    out[(0,) * out.ndim] += coeffs[0]
    return out


def point_linearization(p: ModelParams, powers: list) -> tuple:
    """Newton's float linearization at the point of point_powers: the raw
    coefficients q c_k of q = lam f'(u + mu), and the axes along which its
    Jacobian splits by parity (split_axes, read off the float q), f' with
    the coefficients fl(j c_j)."""
    q_raw = poly_point([j * c for j, c in enumerate(p.f_coeffs)][1:], powers)
    q_raw *= p.lam
    q_raw *= c_grid(q_raw.shape)
    return q_raw, tuple(_parity(idx) == 0 for idx in _projections(q_raw != 0.0))


def galerkin_matrix_point(p: ModelParams, q_raw: np.ndarray, block: ParityBlock) -> np.ndarray:
    """Float block of the unscaled projected linearization (Newton Jacobian)
    on one parity class, q_raw from point_linearization.

    Entries -(kappa_k^2 + lam sigma) delta_{k,ell} + kappa_k (q phi_ell, phi_k).
    """
    (acc,) = _galerkin_sums(block.axes, [q_raw])
    k2, cf = block.weights()
    acc *= cf[:, None] * cf[None, :] * 0.5 ** len(block.parity)
    kap = math.pi**2 * k2
    b = kap[:, None] * acc
    diag = np.arange(block.size)
    b[diag, diag] -= kap**2 + p.lam * p.sigma
    return b
