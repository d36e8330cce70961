"""Cosine-series algebra on the unit cube in dimensions 1-3.

Functions are represented by dense multi-index coefficient arrays in the
orthonormal basis phi_k(x) = c_k * prod_i cos(k_i pi x_i), c_0 = 1 and
c_m = sqrt(2) for m >= 1.  Coefficients are intervals, so every norm and
product below is a rigorous enclosure.  Products share one float
convolution fold: Newton calls it on point coefficients, and the interval
product runs it on midpoints with Wilkinson's running error bound and adds
the radii's spread.  It folds raw coefficients alpha_k c_k, formed with
the float c_k (exact where c_k is 1 or 2), and scales back by the float
1/c_k inside its one outward rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .intervals import (
    PI2,
    Interval,
    IntervalDomainError,
    _gamma,
    _ndown,
    _nup,
    _outward,
    mid_rad,
    vadd,
    vmul,
    vsquare,
    vsum,
)

# c_k and 1/c_k rounded to nearest by number of nonzero index components nz
# (sqrt is correctly rounded): exact where nz is even, within 0.62 u of
# exact, relatively, where it is odd
C_FLOAT = np.array([1.0, math.sqrt(2.0), 2.0, 2.0 * math.sqrt(2.0)])
_C_INV_FLOAT = np.array([1.0, math.sqrt(0.5), 0.5, 0.5 * math.sqrt(0.5)])
# the least magnitude whose product by 2^-d, d <= 3, is a normal double
_FOLD_MIN = 2.0**-1019


# ---------------------------------------------------------------------------
# multi-index helpers
# ---------------------------------------------------------------------------

def kappa(k) -> float:
    """Laplacian eigenvalue pi^2 |k|^2 of the cosine mode k (point value)."""
    return math.pi ** 2 * sum(int(ki) ** 2 for ki in k)

def kappa_iv(k) -> Interval:
    """Interval enclosure of pi^2 |k|^2."""
    return PI2 * Interval(float(sum(int(ki) ** 2 for ki in k)))

def mode_sup(k) -> float:
    """Sup norm c_k of the basis mode phi_k (the float c_k)."""
    return float(C_FLOAT[sum(1 for ki in k if int(ki) != 0)])

def k2_grid(extent) -> np.ndarray:
    """|k|^2 over the coefficient grid (exact integers as floats)."""
    grids = np.indices(extent, dtype=np.int64)
    return np.sum(grids.astype(np.float64) ** 2, axis=0)

def nz_grid(extent) -> np.ndarray:
    """Number of nonzero index components over the coefficient grid."""
    grids = np.indices(extent, dtype=np.int64)
    return np.sum(grids != 0, axis=0)

def c_grid(extent) -> np.ndarray:
    """The float c_k over the coefficient grid."""
    return C_FLOAT[nz_grid(extent)]


def _vpow_pos(lo: np.ndarray, hi: np.ndarray, n: int):
    """Entrywise n-th power of nonnegative intervals (n >= 1)."""
    rlo = lo.copy()
    rhi = hi.copy()
    for _ in range(n - 1):
        rlo = np.maximum(_ndown(rlo * lo), 0.0)
        rhi = _nup(rhi * hi)
    return rlo, rhi


def _kappa_pow_grid(extent, power: int, mask_origin: bool):
    """Interval arrays of kappa_k^power over the grid.

    For negative powers the origin entry is set to zero and must be masked
    out by the caller (it is only used where the k=0 coefficient vanishes).
    """
    k2 = k2_grid(extent)
    klo = np.maximum(_ndown(PI2.lo * k2), 0.0)
    khi = _nup(PI2.hi * k2)
    origin = tuple(0 for _ in extent)
    if power == 0:
        lo = np.ones(extent)
        hi = np.ones(extent)
    elif power > 0:
        lo, hi = _vpow_pos(klo, khi, power)
        lo[origin] = 0.0
        hi[origin] = 0.0
    else:
        plo, phi = _vpow_pos(klo, khi, -power)
        plo[origin] = 1.0  # placeholder, masked below
        phi[origin] = 1.0
        lo = np.maximum(_ndown(1.0 / phi), 0.0)
        hi = _nup(1.0 / plo)
        lo[origin] = 0.0
        hi[origin] = 0.0
    if mask_origin and power >= 0:
        lo[origin] = 0.0
        hi[origin] = 0.0
    return lo, hi


# ---------------------------------------------------------------------------
# the series container
# ---------------------------------------------------------------------------

@dataclass
class CosineSeries:
    """Truncated cosine expansion with interval coefficients."""

    lo: np.ndarray
    hi: np.ndarray
    zero_mean: bool = False

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape:
            raise ValueError("coefficient bound arrays must have equal shape")
        if not 1 <= self.lo.ndim <= 3:
            raise ValueError("only dimensions 1-3 are supported")
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise IntervalDomainError("series with NaN coefficient")
        if np.any(self.lo > self.hi):
            raise IntervalDomainError("series with lo > hi coefficient")
        if self.zero_mean:
            origin = tuple(0 for _ in range(self.lo.ndim))
            if self.lo[origin] != 0.0 or self.hi[origin] != 0.0:
                raise IntervalDomainError("zero_mean series with nonzero k=0 mode")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, extent, zero_mean: bool = True) -> "CosineSeries":
        extent = tuple(int(n) for n in extent)
        return cls(np.zeros(extent), np.zeros(extent), zero_mean)

    @classmethod
    def from_point(cls, coeffs, zero_mean: bool = False) -> "CosineSeries":
        a = np.asarray(coeffs, dtype=np.float64)
        return cls(a.copy(), a.copy(), zero_mean)

    @classmethod
    def single_mode(cls, extent, k, amplitude: float = 1.0) -> "CosineSeries":
        extent = tuple(int(n) for n in extent)
        a = np.zeros(extent)
        a[tuple(int(ki) for ki in k)] = amplitude
        zm = a[tuple(0 for _ in extent)] == 0.0
        return cls(a, a.copy(), zm)

    # -- basics --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.lo.ndim

    @property
    def extent(self):
        return self.lo.shape

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def width(self) -> float:
        return float(np.max(self.hi - self.lo)) if self.lo.size else 0.0

    def coefficient(self, k) -> Interval:
        idx = tuple(int(ki) for ki in k)
        return Interval(self.lo[idx], self.hi[idx])

    def contains_coeffs(self, coeffs: np.ndarray) -> bool:
        c = _pad_to(np.asarray(coeffs, dtype=np.float64), self.extent)
        return bool(np.all(self.lo <= c) and np.all(c <= self.hi))

    def pad_to(self, extent) -> "CosineSeries":
        extent = tuple(int(n) for n in extent)
        return CosineSeries(
            _pad_to(self.lo, extent), _pad_to(self.hi, extent), self.zero_mean
        )

    def __neg__(self) -> "CosineSeries":
        return CosineSeries(-self.hi, -self.lo, self.zero_mean)

    def __add__(self, other: "CosineSeries") -> "CosineSeries":
        ext = tuple(
            max(a, b) for a, b in zip(self.extent, other.extent)
        )
        a = self.pad_to(ext)
        b = other.pad_to(ext)
        lo, hi = vadd(a.lo, a.hi, b.lo, b.hi)
        return CosineSeries(lo, hi, self.zero_mean and other.zero_mean)

    def __sub__(self, other: "CosineSeries") -> "CosineSeries":
        return self + (-other)

    def scale(self, c) -> "CosineSeries":
        c = c if isinstance(c, Interval) else Interval(float(c))
        lo, hi = vmul(self.lo, self.hi, np.float64(c.lo), np.float64(c.hi))
        return CosineSeries(lo, hi, self.zero_mean)

    def add_constant(self, c) -> "CosineSeries":
        """Add a constant (shifts only the mean mode)."""
        c = c if isinstance(c, Interval) else Interval(float(c))
        lo = self.lo.copy()
        hi = self.hi.copy()
        origin = tuple(0 for _ in range(self.dim))
        mean = Interval(lo[origin], hi[origin]) + c
        lo[origin] = mean.lo
        hi[origin] = mean.hi
        return CosineSeries(lo, hi, zero_mean=(mean.lo == 0.0 == mean.hi))


def _pad_to(a: np.ndarray, extent) -> np.ndarray:
    if a.shape == tuple(extent):
        return a
    if any(n < s for n, s in zip(extent, a.shape)):
        raise ValueError(f"cannot pad {a.shape} down to {extent}")
    out = np.zeros(extent, dtype=a.dtype)
    out[tuple(slice(0, s) for s in a.shape)] = a
    return out


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def norm(u: CosineSeries, space: str, ell: int = 0) -> Interval:
    """Enclosure of a Sobolev-type norm of the series.

    space is one of:
      "L2"    -- (sum alpha_k^2)^(1/2)
      "Hbar"  -- (sum_{|k|>0} kappa_k^ell alpha_k^2)^(1/2), zero-mean functions
      "H"     -- (sum (1 + kappa_k^ell) alpha_k^2)^(1/2), ell >= 0
      "sup"   -- the l1 bound sum |alpha_k| c_k, an upper bound for the sup norm
    """
    if space == "L2":
        sq = vsquare(u.lo, u.hi)
        return vsum(*sq).sqrt()
    if space == "Hbar":
        if not u.zero_mean:
            raise IntervalDomainError("Hbar norm requires a zero-mean series")
        sq = vsquare(u.lo, u.hi)
        wlo, whi = _kappa_pow_grid(u.extent, ell, mask_origin=True)
        tlo, thi = vmul(sq[0], sq[1], wlo, whi)
        return vsum(tlo, thi).sqrt()
    if space == "H":
        if ell < 0:
            raise IntervalDomainError("H norm needs ell >= 0")
        if ell == 0:
            return norm(u, "L2")
        sq = vsquare(u.lo, u.hi)
        klo, khi = _kappa_pow_grid(u.extent, ell, mask_origin=False)
        wlo, whi = vadd(np.ones(u.extent), np.ones(u.extent), klo, khi)
        tlo, thi = vmul(sq[0], sq[1], wlo, whi)
        return vsum(tlo, thi).sqrt()
    if space == "sup":
        return sup_bound(u)
    raise ValueError(f"unknown norm space {space!r}")


def sup_bound(u: CosineSeries) -> Interval:
    """Enclosure of sum_k |alpha_k| c_k; its upper end bounds the sup norm."""
    alo = np.where(u.lo > 0.0, u.lo, np.where(u.hi < 0.0, -u.hi, 0.0))
    ahi = np.maximum(np.abs(u.lo), np.abs(u.hi))
    nz = nz_grid(u.extent)
    c = C_FLOAT[nz]
    odd = nz % 2 == 1
    return vsum(*vmul(alo, ahi, np.where(odd, _ndown(c), c), np.where(odd, _nup(c), c)))


# ---------------------------------------------------------------------------
# Laplacian and projections
# ---------------------------------------------------------------------------

def laplacian(u: CosineSeries, power: int = 1) -> CosineSeries:
    """Coefficientwise (-Delta)^power ... applied as alpha_k -> (-kappa_k)^power alpha_k.

    Positive powers annihilate the mean mode; negative powers require a
    zero-mean series.
    """
    if power == 0:
        return u
    if power < 0 and not u.zero_mean:
        raise IntervalDomainError("inverse Laplacian requires a zero-mean series")
    wlo, whi = _kappa_pow_grid(u.extent, power, mask_origin=True)
    if power % 2:  # odd power of (-kappa)
        wlo, whi = -whi, -wlo
    lo, hi = vmul(u.lo, u.hi, wlo, whi)
    return CosineSeries(lo, hi, zero_mean=True)


def project(u: CosineSeries, n: int) -> CosineSeries:
    """Keep the modes with |k|_inf < n."""
    if n < 1:
        raise ValueError("projection cut must be >= 1")
    sl = tuple(slice(0, min(n, s)) for s in u.extent)
    return CosineSeries(u.lo[sl].copy(), u.hi[sl].copy(), u.zero_mean)


def tail(u: CosineSeries, n: int) -> CosineSeries:
    """The complementary part u - P_n u."""
    lo = u.lo.copy()
    hi = u.hi.copy()
    sl = tuple(slice(0, min(n, s)) for s in u.extent)
    lo[sl] = 0.0
    hi[sl] = 0.0
    return CosineSeries(lo, hi, u.zero_mean)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def _axis_segments(ai: int, nb: int) -> list:
    """(target, source) slice pairs of one axis for the shift by index ai.

    cos(a t) cos(b t) = (cos((a+b)t) + cos(|a-b|t)) / 2, applied per axis;
    the |a-b| branch splits into a reversed and a forward slice.
    """
    segs = [(slice(ai, ai + nb), slice(0, nb, 1))]
    m = min(ai, nb - 1)
    segs.append((slice(ai - m, ai + 1), slice(m, None, -1)))
    if nb - 1 > ai:
        segs.append((slice(1, nb - ai), slice(ai + 1, nb, 1)))
    return segs


def _raw_conv(a: np.ndarray, b: np.ndarray, err: np.ndarray | None = None) -> np.ndarray:
    """Cosine-product convolutions of raw coefficient arrays in float.

    a and b stack the operands of several folds on their leading axis, and
    out[f] is the fold of a[f] with b[f].  One loop runs over the union of
    the supports of a, and one pass per segment (the product of the per-axis
    slice pairs) serves every fold; where a[f] is zero, fold f adds exact
    zeros (or NaN against an infinite b[f]).

    Given err (zeros of one output's shape), fold 0 also accumulates
    Wilkinson's running error bound: each term t = fl(w b) added to a partial
    sum s adds |t| + |s|, and the rounding error of every output entry is at
    most u err plus 2^-1075 per underflowing product (Higham, Accuracy and
    Stability, sec. 3.3), provided every w = a 2^-d is exact.
    """
    d = a.ndim - 1
    every = (slice(None),)
    out = np.zeros(a.shape[:1] + tuple(na + nb - 1 for na, nb in zip(a.shape[1:], b.shape[1:])))
    segments = [
        [_axis_segments(ai, nb) for ai in range(na)] for na, nb in zip(a.shape[1:], b.shape[1:])
    ]
    half = 0.5 ** d
    for idx in np.argwhere((a != 0.0).any(axis=0)).tolist():
        w = a[every + tuple(idx)].reshape((-1,) + (1,) * d) * half
        track = err is not None and a[(0, *idx)] != 0.0
        for combo in itertools.product(*(axis[i] for axis, i in zip(segments, idx))):
            out_sl, b_sl = zip(*combo)
            t = w * b[every + b_sl]
            s = out[every + out_sl]
            s += t
            if track:
                err[out_sl] += np.abs(t[0]) + np.abs(s[0])
    return out


def _raw_mid_rad(u: CosineSeries):
    """Midpoint, radius and 0/1 support of u's raw coefficients alpha_k c_k.

    The midpoint M = fl(mid(alpha_k) c_k) is exact where nz is even, so a
    point coefficient keeps a zero radius there.  Where nz is odd and M is
    normal, M is within (0.62 u (1 + u) + u) |M| < 2^-52 |M| of mid(alpha_k)
    c_k; the radius, rounded up, gains 2^-52 |M| and one more upward step.
    Below _FOLD_MIN the fold's scaling by 2^-d would round, so smaller
    midpoints move into the radius (the upward step also covers their
    underflow) and smaller radii round up to _FOLD_MIN.
    """
    nz = nz_grid(u.extent)
    m, r = mid_rad(u.lo, u.hi)
    odd = (nz % 2 == 1) & ((m != 0.0) | (r != 0.0))
    m *= C_FLOAT[nz]
    r[~odd] *= C_FLOAT[nz[~odd]]
    r[odd] = _nup(_nup(r[odd] * _nup(C_FLOAT[nz[odd]])) + np.abs(m[odd]) * 2.0**-52)
    tiny = np.abs(m) < _FOLD_MIN
    r = np.where(tiny & (m != 0.0), _nup(r + _FOLD_MIN), r)
    r[(r > 0.0) & (r < _FOLD_MIN)] = _FOLD_MIN
    m[tiny] = 0.0
    return m, r, ((u.lo != 0.0) | (u.hi != 0.0)).astype(np.float64)


@np.errstate(over="ignore", invalid="ignore")  # overflowed entries become [-inf, inf]
def multiply(u: CosineSeries, v: CosineSeries) -> CosineSeries:
    """Exact product of two series (no truncation), in midpoint-radius form.

    With raw coefficients A in <Am, Ar> and B in <Bm, Br>, every product of
    members lies within |Am|*Br + Ar*(|Bm| + Br) of Am*Bm, * being the fold.
    The float fold of Am*Bm is off by at most u times its running error
    bound plus 2^-1075 per underflowing product (Higham, sec. 3.3).  A fold
    adds at most p = 3^d nnz(A) terms into one entry, so _outward's a-priori
    gamma_p factor covers the rounding of the radius folds and of the error
    sum, and its constant the underflow of all three folds (Higham, ch. 3).
    The raw C +- rho becomes fl(C w) +- fl(rho w), w the float 1/c_m, exact
    where nz is even.  Where it is odd, w's error is one factor more for
    rho, hence gamma_{p+1}, and fl(C w) is within (0.62 u (1 + u) + u)
    |fl(C w)| < 2^-52 |fl(C w)| of C / c_m, which the radius gains.  Entries
    that no pair of nonzero coefficients reaches stay exact zeros.
    """
    if u.dim != v.dim:
        raise ValueError("product of series with different dimensions")
    # iterate over the factor with fewer populated modes
    nu = int(np.count_nonzero((u.lo != 0.0) | (u.hi != 0.0)))
    nv = int(np.count_nonzero((v.lo != 0.0) | (v.hi != 0.0)))
    if nv < nu:
        u, v = v, u
        nu = nv
    am, ar, asup = _raw_mid_rad(u)
    bm, br, bsup = _raw_mid_rad(v)
    err = np.zeros(tuple(na + nb - 1 for na, nb in zip(am.shape, bm.shape)))
    c, r1, r2, reach = _raw_conv(
        np.stack([am, np.abs(am), ar, asup]),
        np.stack([bm, br, np.abs(bm) + br, bsup]),
        err,
    )
    rad = err * 2.0**-53 + r1 + r2
    nz = nz_grid(c.shape)
    c *= _C_INV_FLOAT[nz]
    rad *= _C_INV_FLOAT[nz]
    rad += np.abs(c) * (nz % 2 * 2.0**-52)
    p = 3**u.dim * nu
    lo, hi = _outward(c, rad, p, _gamma(p + 1))
    unreached = reach == 0.0
    lo[unreached] = 0.0
    hi[unreached] = 0.0
    return CosineSeries(lo, hi)


def multiply_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float product in normalized coefficients (Newton path)."""
    if np.count_nonzero(b) < np.count_nonzero(a):
        a, b = b, a
    (raw,) = _raw_conv((a * c_grid(a.shape))[None], (b * c_grid(b.shape))[None])
    return raw / c_grid(raw.shape)


# ---------------------------------------------------------------------------
# evaluation (non-rigorous; plotting and diagnostics)
# ---------------------------------------------------------------------------

def evaluate(u: CosineSeries, x) -> float:
    """Pointwise value of the midpoint series at x in [0,1]^d."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.size != u.dim:
        raise ValueError("point dimension mismatch")
    raw = u.mid() * c_grid(u.extent)
    val = raw
    for axis in range(u.dim):
        kcos = np.cos(np.arange(u.extent[axis]) * math.pi * x[axis])
        val = np.tensordot(kcos, val, axes=(0, 0))
    return float(val)


def evaluate_grid(u: CosineSeries, axes) -> np.ndarray:
    """Values of the midpoint series on a tensor grid (one 1-d array per axis)."""
    raw = u.mid() * c_grid(u.extent)
    val = raw
    for axis, pts in enumerate(axes):
        pts = np.asarray(pts, dtype=np.float64)
        mat = np.cos(np.outer(np.arange(u.extent[axis]), math.pi * pts))
        # contract the leading remaining coefficient axis against this axis' modes
        val = np.tensordot(val, mat, axes=(0, 0))
    return val
