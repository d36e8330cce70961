"""The Ohta-Kawasaki equilibrium operator and certified bounds for its linearization.

The equilibrium residual F(u) = -Delta(Delta u + lam*f(u+mu)) - lam*sigma*u is
evaluated exactly as a finite interval series (the nonlinearity is polynomial,
so convolution powers are exact up to outward rounding).  The linearization is
reduced to a scaled Galerkin matrix whose certified inverse norm, combined
with a tail contraction constant, yields an upper bound for the norm of the
inverse of the full derivative.  One pass bounds it at every truncation of
a sweep: each parity block is assembled once, at the largest truncation,
and cut down to the principal sub-block of each smaller one in turn.
"""

from __future__ import annotations

import functools
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
    _ball_up,
    _gamma,
    _up,
    inverse_norm2_at_most,
    mat_inverse_norm2_upper,
)
from .pointconv import _parity, _parity_count, _parity_range, _projections
from .series import (
    C_FLOAT,
    CosineSeries,
    axis_symmetries,
    c_grid,
    laplacian,
    multiply,
    multiply_point,
    norm,
    nz_grid,
    sup_bound,
    _rump_radius,
    _lattice,
    _raw_mid_rad,
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


@np.errstate(over="ignore", invalid="ignore")  # overflowed entries become (0, inf)
def _galerkin_block(p: ModelParams, block: ParityBlock, raw: tuple) -> BallMatrix:
    """The ball matrix with entries -(1 + lam sigma / kappa_k^2)
    delta_{k,ell} + (q phi_ell, phi_k) / kappa_ell on the modes of one
    parity class of split_axes(q), from raw = (qm, qr, q.axes), q's raw
    midpoint and radius (series._raw_mid_rad) and their lattice; every
    entry between two classes is an exact zero.

    The block is Rump's midpoint-radius form, as in series.multiply: the
    float sums of galerkin_matrix_point at the raw midpoint qm of q and at
    the raw radius _rump_radius(qm, qr, t), which carries the midpoint sum's
    rounding (Higham, lemma 3.1), are scaled in place by the weights fl(c_k)
    and fl(c_ell 2^-d / fl(pi^2 |ell|^2)); the diagonal dm = fl(1 + fl(lam
    sigma) / fl(pi^4 |k|^4)) joins the midpoint, and gamma_t dm the radius.
    With c_k, pi^2 and pi^4 each within one rounding, t counts for a
    coefficient of q 2^d - 1 factors in its sum, 2 for the row weight, 5
    for the column weight (c_ell, pi^2 and its product by |ell|^2, the
    quotient, the product) and 1 for the diagonal; for lam sigma /
    kappa_k^2 4 in the quotient, 1 for adding 1 and 1 for the diagonal: t =
    2^d + 7.  Gathered terms are zero or normal doubles, and an
    off-diagonal entry whose radius sum is zero gathers only point zeros:
    its midpoint is +0.0 and its radius is set to zero, so later products
    meet no subnormal radii.  Entries are computed elementwise, so a block
    holds the one-block assembly's bits on its rows and columns.
    """
    qm, qr, lattice = raw
    d = len(block.parity)
    t = 2**d + 7
    mid, rad = _galerkin_sums(block.axes, [qm, _rump_radius(qm, qr, t)], lattice)
    diag = np.arange(block.size)
    free = rad == 0.0
    free[diag, diag] = False
    k2, row = block.weights()
    col = row * 0.5**d / (PI2_BALL[0] * k2)
    for s in (mid, rad):
        s *= row[:, None]
        s *= col
    dm = 1.0 + (p.lam * p.sigma) / (PI4_BALL[0] * (k2 * k2))
    mid[diag, diag] -= dm
    rad[diag, diag] = _rump_radius(dm, rad[diag, diag], t)
    mid, rad = _ball_up(mid, rad, t, _gamma(t))
    rad[free] = 0.0
    return BallMatrix(mid, rad)


def _sub_block(ball: BallMatrix, big: ParityBlock, block: ParityBlock) -> BallMatrix:
    """The principal sub-ball of ball, the block of class big, on the modes
    of block, the same class at a smaller truncation: block's per-axis
    indices are a prefix of big's, and a grid that holds the origin drops
    it, first in its order."""
    rows = np.ravel_multi_index(np.ix_(*(np.arange(a.size) for a in block.axes)),
                                tuple(a.size for a in big.axes)).ravel()
    if block.size < rows.size:
        rows = rows[1:] - 1
    cut = np.ix_(rows, rows)
    return BallMatrix(ball.mid[cut], ball.rad[cut])


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


# ---------------------------------------------------------------------------
# certified inverse bounds
# ---------------------------------------------------------------------------

def tau_formula(kn: float, q_sup: float, q_h2: float, cb: float, n: int) -> Interval:
    """Tail contraction constant for the approximate-inverse argument."""
    a = Interval(kn) * Interval(q_sup)
    b_sq = Interval(cb).square() * ((Interval(1.0) + PI4) / PI4) * Interval(q_h2).square()
    num = (a.square() + b_sq).sqrt()
    return num / (PI2 * Interval(float(n)).square())


def k_formula(kn: float, tau: float) -> Interval:
    """The inverse bound K = max(K_N, 1) / (1 - tau) of the full
    linearization, tau < 1 the tail contraction constant."""
    return Interval(max(kn, 1.0)) / (Interval(1.0) - Interval(tau))


@dataclass
class InverseBound:
    """Certified bound K for the inverse of the full linearization."""

    kn: float
    tau: float
    k: float
    n: int


# Peak number of live m_b x m_b double arrays in the K_N stage, m_b being
# the largest block; one block is live at a time.  The peak falls in the
# certified inverse norm: the block's midpoint and radius, the approximate
# inverse or its Gram matrix, and |C|, C A or the LAPACK copies; the
# Cholesky test holds the block, its Gram matrix and the two LAPACK
# copies, and the assembly peaks lower, at 3.2-3.6 m_b^2 (two sums, an
# accumulator, one take and the partials).  Measured on the canonical 2-d
# and 3-d equilibria (OpenBLAS, 1 thread): the tracemalloc peak of
# derivative_inverse_bound is 5.20 and 5.03 m_b^2 at 2-d N=28 and 48 (m_b =
# 196, 576), 5.56 and 5.10 at 3-d N=12 and 16 (m_b = 216, 512), and the
# rise of the peak RSS 6.31 and 6.17 at 2-d N=64 and 3-d N=20.  Where
# several truncations share the stage, a smaller one's block is cut from
# the larger one's just certified, which is dropped after the cut: the two
# hold 2 m^2 + 2 m_b^2 <= 4 m^2 doubles, m the larger block's size, inside
# the 7 m^2 of the larger truncation's own charge, so every truncation is
# charged alone.
KN_WORK_ARRAYS = 7
# Peak number of live double arrays of q's size on top of them: the raw
# midpoint and radius that every block reads, the radius that a block sums,
# and the temporaries that form them.  They set the peak where q is large
# against the truncation.  The traced peak of a first pass less the block
# charge is 9.2 times q's size at 1-d N=16 (q of 128 coefficients on its
# lattice), where fixed costs count too, 6.9 at 2-d N=6 (784), 4.1 at 3-d
# N=6 (1728), and 5.3, 0.6 and below zero for the 3-d N=16 equilibrium
# (4096) at N=6, 8 and 10 (OpenBLAS, 1 and 2 threads).
KN_Q_ARRAYS = 10


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


def kn_stage_bytes(q: CosineSeries, n: int, split: tuple) -> int:
    """Bytes the K_N stage needs at truncation n: the working set of the
    largest block of the Galerkin matrix of q, since one block is live at a
    time, and the raw coefficient arrays of q that every block reads; split
    is split_axes(q).  An exact integer, so any truncation is charged."""
    m_b = max(block.size for block in parity_blocks(split, n))
    return 8 * (KN_WORK_ARRAYS * m_b**2 + KN_Q_ARRAYS * q.center.size)


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


def next_truncation(q: CosineSeries, split: tuple, n: int, tau: float, target: float,
                    avail: float) -> int | None:
    """The smallest N > n with N >= n sqrt(tau / target): at n's K_N, flat in
    N, tau_formula is tau (n/N)^2 there.  Cut down to the largest N whose
    kn_stage_bytes fit in avail; None where tau (n/N)^2 is still >= 1 there."""
    lo, hi = n, max(n + 1, math.ceil(n * math.sqrt(tau / target))) + 1
    while hi - lo > 1:  # the charge grows with N: bisect for the largest that fits
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if kn_stage_bytes(q, mid, split) <= avail else (lo, mid)
    return lo if lo > n and tau * (n / lo) ** 2 < 1.0 else None


def parity_orbits(blocks: list, perms: list) -> dict:
    """The orbits of the parity classes blocks under the axis permutations
    perms, as {first: members}, by index into blocks.

    Walking the classes in order, each class that no earlier orbit holds
    starts one: its members are the other classes, not yet held, onto which
    a permutation maps it (class j of pi c reads c's parity on axis
    perm[j]; a permutation that breaks the split pattern maps no class onto
    a class).  An orbit without members is left out.
    """
    where = {block.parity: i for i, block in enumerate(blocks)}
    held = set()
    orbits = {}
    for i, block in enumerate(blocks):
        if i in held:
            continue
        held.add(i)
        members = {where.get(tuple(block.parity[t] for t in perm)) for perm in perms}
        members -= held | {None}
        if members:
            orbits[i] = members
            held |= members
    return orbits


def inverse_bounds(p: ModelParams, lin: Linearization, ns, avail: float | None = None) -> list:
    """The finite inverse bound K_N and the full bound K at each truncation
    of ns, in one pass: per entry an InverseBound, or the
    CertificationError that stopped it there.

    Every member of the Galerkin ball matrix is block-diagonal by the
    parity classes, its blocks members of the block balls
    (_galerkin_block), so the 2-norm of its inverse is the largest of
    theirs.  The blocks are walked in order, each assembled, bounded and
    dropped before the next, with K_N so far as its floor: one Cholesky
    (inverse_norm2_at_most) proves most blocks' inverses no larger than the
    floor, and only a block it cannot is certified in full by
    mat_inverse_norm2_upper.  A block kept at or below the floor cannot
    raise K_N, so K_N is the largest of every block's full certificate;
    the first block, with the floor 0, is always certified.  A block that
    fails stops its truncation there.  K is k_formula(K_N, tau) rounded up.

    Blocks that an axis permutation maps onto one another are certified
    once (parity_orbits of series.axis_symmetries).  For q' in q's ball the
    block of class pi c is P Y' P^T, P a permutation matrix and Y' the block
    of class c of q' o pi (or of q' o pi^-1), and Y' = Y + E with Y the
    block of class c of q', so a member of the first class's ball, and E
    the block of (q' o pi - q') phi_l / kappa_l: ||E||_2 <= ||q' o pi -
    q'||_inf / pi^2 <= eps, since kappa_l >= pi^2; eps is the symmetries'
    defect over the lower end of pi^2, rounded up.  So where the first
    class passes the Cholesky test at the tightened floor 1/(1/K_N + eps)
    (inverse_norm2_at_most with eps), every member's inverse is at most K_N
    and no member is assembled.  Where it does not, the first class takes
    the plain test, and its members are assembled and bounded one by one,
    as any other block.  K_N is then the same bits as with every block
    walked, wherever the skipped members would have passed the plain test.

    The truncations share one walk, class by class, from the largest
    truncation that needs a class down.  The class is assembled once, at
    the largest, and each smaller truncation takes the principal sub-block
    (_sub_block) of the block just certified, which is then dropped: the
    same bits, as every entry is formed elementwise from weights and a
    rounding budget that do not depend on the truncation.  Each truncation
    keeps its own floor, cleared classes and failure, so it decides as it
    would alone.  Every truncation is charged alone (kn_stage_bytes), as a
    cut fits in the charge of the truncation it is cut from; the charges
    are checked first, against avail bytes (default: one memory reading),
    and one that does not fit fails at stage kn_bound, with no suggestion.
    q's raw arrays and symmetries are read once, after the charges pass.  A
    tau >= 1 suggests next_truncation at 1/2, else names it and its charge.
    """
    avail = available_memory_bytes() if avail is None else avail
    q = lin.q
    split = split_axes(q)
    result = {}
    for n in set(ns):
        short = memory_shortfall(kn_stage_bytes(q, n, split),
                                 f"truncation n={n} ({count_text(n**q.dim - 1)} modes)",
                                 "K_N stage", avail)
        if short:
            result[n] = CertificationError("kn_bound", short)
    live = sorted(set(ns) - set(result))  # the truncations still running
    classes, orbits, kn = {}, {}, dict.fromkeys(live, 0.0)
    if live:
        qm, qr = _raw_mid_rad(q)[:2]
        perms, defect = axis_symmetries(qm, qr, q.parity)
        eps = _up(defect / PI2.lo)
    for n in live:
        blocks = parity_blocks(split, n)
        classes[n] = {block.parity: block for block in blocks}
        orbits[n] = {blocks[i].parity: {blocks[j].parity for j in members}
                     for i, members in parity_orbits(blocks, perms).items()}
    for cls in list(classes[live[-1]]) if live else ():  # a cleared class leaves classes[n]
        ball = above = None  # the last block certified in this class, and its ParityBlock
        for n in [n for n in reversed(live) if cls in classes[n]]:
            block = classes[n][cls]
            # the cut replaces the block it is cut from
            ball = (_galerkin_block(p, block, (qm, qr, q.axes)) if ball is None
                    else _sub_block(ball, above, block))
            above = block
            if orbits[n].get(cls) and inverse_norm2_at_most(ball, kn[n], eps):
                for member in orbits[n][cls]:
                    del classes[n][member]
            elif not inverse_norm2_at_most(ball, kn[n]):
                try:
                    kn[n] = max(kn[n], mat_inverse_norm2_upper(ball)[0])
                except IntervalDomainError as exc:
                    result[n] = CertificationError(
                        "kn_bound",
                        f"finite inverse not certified at n={n} on parity class "
                        f"{block.label} ({block.size} modes): {exc}",
                        suggested_n=2 * n,
                    )
                    result[n].__cause__ = exc
                    live.remove(n)
        del ball  # before the next class's block is formed
    cb = table_constants(q.dim).cb
    for n in live:
        tau = tau_formula(kn[n], lin.q_sup, lin.q_h2, cb, n).hi
        if not tau < 1.0:
            why = f"tail contraction {tau:.4g} >= 1 at n={n}"
            if (suggested := next_truncation(q, split, n, tau, 0.5, avail)) is None:
                want = next_truncation(q, split, n, tau, 0.5, math.inf)
                why += "; " + memory_shortfall(kn_stage_bytes(q, want, split),
                                               f"the predicted truncation n={want}", "K_N stage", avail)
            result[n] = CertificationError("inverse_bound", why, suggested)
        else:
            result[n] = InverseBound(kn=kn[n], tau=tau, k=k_formula(kn[n], tau).hi, n=n)
    return [result[n] for n in ns]


def derivative_inverse_bound(p: ModelParams, lin: Linearization, n: int,
                             avail: float | None = None) -> InverseBound:
    """inverse_bounds at the one truncation n; raises its
    CertificationError."""
    (ib,) = inverse_bounds(p, lin, [n], avail)
    if isinstance(ib, CertificationError):
        raise ib
    return ib


def rule_of_thumb_n(q_h2: float) -> int:
    return max(4, math.ceil(0.7 * math.sqrt(q_h2)))


def auto_inverse_bound(
    p: ModelParams, lin: Linearization, tau_target: float = 0.5, avail: float | None = None
) -> InverseBound:
    """The inverse bound at the rule-of-thumb rung, then at most twice at the
    truncation the last pass predicts, until tau <= tau_target; charges are
    checked against avail, by default one memory reading.  Returns the last
    bound certified, else raises the last failure."""
    avail = available_memory_bytes() if avail is None else avail
    n, best = rule_of_thumb_n(lin.q_h2), None
    for _ in range(3):  # the rung and at most two predicted passes
        try:
            best = derivative_inverse_bound(p, lin, n, avail)
        except CertificationError as exc:
            error, n = exc, exc.suggested_n
        else:
            if best.tau <= tau_target:
                return best
            n = next_truncation(lin.q, split_axes(lin.q), n, best.tau, tau_target, avail)
        if n is None:
            break
    if best is None:
        raise error
    return best
