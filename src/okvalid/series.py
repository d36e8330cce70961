"""Cosine-series algebra on the unit cube in dimensions 1-3.

Functions are represented by dense multi-index coefficient arrays in the
orthonormal basis phi_k(x) = c_k * prod_i cos(k_i pi x_i), c_0 = 1 and
c_m = sqrt(2) for m >= 1.  Coefficients are the balls (center, rad) of
okvalid.intervals, so every norm and product below is a rigorous
enclosure.  Negation and tails are exact; a sum carries its midpoint's
rounding error exactly (TwoSum); a scaling, and the Laplacian's weights
(-kappa_k)^p, balls built from PI2_BALL and PI4_BALL, add u |mid| for the
midpoint's rounding; norm and sup_bound round each term outward and bound
each sum of n nonnegative terms by (n + 4) 2u a priori; a product ends in
the gamma budget of intervals._ball_up (see multiply).  Every other radius
operation rounds up one step unless it is exact, so a point zero stays
exact, and so does the k=0 coefficient of a zero-mean series.

Products share one float convolution fold: Newton calls it on point
coefficients, and the ball product runs it on midpoints with Wilkinson's
running error bound and adds the radii's spread.  It folds raw coefficients
alpha_k c_k, formed with the float c_k (exact where c_k is 1 or 2), and
scales back by the float 1/c_k inside its rounding budget.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .intervals import (
    _INF,
    PI2_BALL,
    PI4_BALL,
    Interval,
    IntervalDomainError,
    _ball_up,
    _down,
    _gamma,
    _nup,
    _sum_slack,
    _up,
    add_toward,
    ball_add,
    ball_inv,
    ball_mul,
    mid_rad,
    mul_toward,
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


@functools.lru_cache(maxsize=64)
def _kappa_power(extent: tuple, power: int):
    """Read-only balls of kappa_k^power = (pi^2 |k|^2)^power, 0 < |power| <= 2,
    and (0, 0) at the origin, where kappa_0 = 0: exact for positive powers,
    and the negative ones only weight zero-mean series."""
    if not 0 < abs(power) <= 2:
        raise ValueError(f"kappa powers of magnitude 1 or 2 only, not {power}")
    k2 = k2_grid(extent)
    k = (k2, 0.0) if abs(power) == 1 else ball_mul(k2, 0.0, k2, 0.0)
    w = ball_mul(*(PI2_BALL if abs(power) == 1 else PI4_BALL), *k)
    w = ball_inv(*w) if power < 0 else w
    w[0].flags.writeable = w[1].flags.writeable = False
    return w


# ---------------------------------------------------------------------------
# the series container
# ---------------------------------------------------------------------------

def _as_ball(c, dim: int):
    """A number or Interval as a ball (mid, rad) of arrays of extent 1."""
    ends = (c.lo, c.hi) if isinstance(c, Interval) else (c, c)
    return mid_rad(*(np.full((1,) * dim, e, dtype=np.float64) for e in ends))


@dataclass
class CosineSeries:
    """Truncated cosine expansion with ball coefficients: the coefficient
    of mode k lies within rad[k] of center[k].  center is finite and rad >= 0;
    an entry that overflowed is (0, inf)."""

    center: np.ndarray
    rad: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.rad = np.asarray(self.rad, dtype=np.float64)
        if self.center.shape != self.rad.shape:
            raise ValueError("center and radius arrays must have equal shape")
        if not 1 <= self.center.ndim <= 3:
            raise ValueError("only dimensions 1-3 are supported")
        if not np.isfinite(self.center).all():
            raise IntervalDomainError("series with NaN or infinite coefficient")
        if not (self.rad >= 0.0).all():  # also false on NaN
            raise IntervalDomainError("series with NaN or negative radius")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, extent) -> "CosineSeries":
        extent = tuple(int(n) for n in extent)
        return cls(np.zeros(extent), np.zeros(extent))

    @classmethod
    def from_point(cls, coeffs, zero_mean: bool = False) -> "CosineSeries":
        """The point series coeffs; zero_mean=True checks that it is zero-mean."""
        a = np.array(coeffs, dtype=np.float64)
        u = cls(a, np.zeros(a.shape))
        if zero_mean and not u.zero_mean:
            raise IntervalDomainError("zero-mean series with nonzero k=0 mode")
        return u

    @classmethod
    def hull(cls, lo, hi) -> "CosineSeries":
        """Balls enclosing the interval coefficients [lo, hi]."""
        return cls(*mid_rad(lo, hi))

    @classmethod
    def single_mode(cls, extent, k, amplitude: float = 1.0) -> "CosineSeries":
        u = cls.zeros(extent)
        u.center[tuple(int(ki) for ki in k)] = amplitude
        return u

    # -- basics --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.center.ndim

    @property
    def extent(self):
        return self.center.shape

    @property
    def zero_mean(self) -> bool:
        """Whether the series lies in the zero-mean space: its k=0
        coefficient is the point zero."""
        origin = (0,) * self.dim
        return bool(self.center[origin] == 0.0 == self.rad[origin])

    def _end(self, toward: float) -> np.ndarray:
        end = add_toward(self.center, math.copysign(1.0, toward) * self.rad, toward)
        end.flags.writeable = False
        return end

    @property
    def lo(self) -> np.ndarray:
        """Lower ends center - rad, rounded down (read-only)."""
        return self._end(-_INF)

    @property
    def hi(self) -> np.ndarray:
        """Upper ends center + rad, rounded up (read-only)."""
        return self._end(_INF)

    def mid(self) -> np.ndarray:
        return self.center.copy()

    def support(self) -> np.ndarray:
        """Where the coefficient is not the point zero."""
        return (self.center != 0.0) | (self.rad != 0.0)

    def coefficient(self, k) -> Interval:
        idx = tuple(int(ki) for ki in k)
        return Interval(self.lo[idx], self.hi[idx])

    def __neg__(self) -> "CosineSeries":
        return CosineSeries(-self.center, self.rad)

    def __add__(self, other: "CosineSeries") -> "CosineSeries":
        ext = tuple(map(max, self.extent, other.extent))
        balls = (self.center, self.rad, other.center, other.rad)
        return CosineSeries(*ball_add(*(_pad_to(x, ext) for x in balls)))

    def __sub__(self, other: "CosineSeries") -> "CosineSeries":
        return self + (-other)

    def scale(self, c) -> "CosineSeries":
        """The series times a number or Interval c."""
        return CosineSeries(*ball_mul(self.center, self.rad, *_as_ball(c, self.dim)))

    def add_constant(self, c) -> "CosineSeries":
        """Add a number or Interval c (shifts only the mean mode)."""
        return self + CosineSeries(*_as_ball(c, self.dim))


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

@np.errstate(over="ignore")
def _weighted_sum(u: CosineSeries, power: int, wm, wr) -> Interval:
    """Enclosure of sum_k w_k |alpha_k|^power, power 1 or 2, for the
    coefficient balls alpha_k and nonnegative weight balls <wm, wr>: the
    lower and the upper end, stacked, each rounded toward its side."""
    sign = np.array([-1.0, 1.0]).reshape((2,) + (1,) * u.dim)
    toward = sign * _INF
    x = np.maximum(add_toward(np.abs(u.center), sign * u.rad, toward), 0.0)
    x = mul_toward(x, x, toward) if power == 2 else x
    w = np.maximum(add_toward(wm, sign * wr, toward), 0.0)
    lo, hi = np.sum(mul_toward(x, w, toward).reshape(2, -1), axis=1).tolist()
    n = u.center.size
    # a product, not lo - slack: inf - inf would be NaN
    lower = max(_down(lo * (1.0 - _sum_slack(1.0, n))), 0.0)
    return Interval(lower, hi if hi == 0.0 else _up(hi + _sum_slack(hi, n)))


def norm(u: CosineSeries, space: str, ell: int = 0) -> Interval:
    """Enclosure of a Sobolev-type norm of the series, |ell| <= 2.

    space is one of:
      "L2"    -- (sum alpha_k^2)^(1/2)
      "Hbar"  -- (sum_{|k|>0} kappa_k^ell alpha_k^2)^(1/2), zero-mean functions
      "H"     -- (sum (1 + kappa_k^ell) alpha_k^2)^(1/2), ell >= 0
    """
    if space not in ("L2", "Hbar", "H") or (space == "H" and ell < 0):
        raise ValueError(f"no norm {space!r} with ell = {ell}")
    if space == "Hbar" and not u.zero_mean:
        raise IntervalDomainError("Hbar norm requires a zero-mean series")
    if space == "L2" or ell == 0:
        w = (1.0, 0.0)
    else:
        w = _kappa_power(u.extent, ell)
        w = w if space == "Hbar" else ball_add(1.0, 0.0, *w)
    return _weighted_sum(u, 2, *w).sqrt()


def sup_bound(u: CosineSeries) -> Interval:
    """Enclosure of sum_k |alpha_k| c_k; its upper end bounds the sup norm.

    Where nz is odd the float c_k is within 0.62 u of c_k, relatively, so
    within the radius u fl(c_k)."""
    nz = nz_grid(u.extent)
    c = C_FLOAT[nz]
    return _weighted_sum(u, 1, c, c * (nz % 2 * 2.0**-53))


# ---------------------------------------------------------------------------
# Laplacian and tails
# ---------------------------------------------------------------------------

def laplacian(u: CosineSeries, power: int = 1) -> CosineSeries:
    """Coefficientwise (-Delta)^power, applied as alpha_k -> (-kappa_k)^power
    alpha_k for |power| <= 2.

    Positive powers annihilate the mean mode; negative powers require a
    zero-mean series.
    """
    if power == 0:
        return u
    if power < 0 and not u.zero_mean:
        raise IntervalDomainError("inverse Laplacian requires a zero-mean series")
    wm, wr = _kappa_power(u.extent, power)
    wm = -wm if power % 2 else wm  # an odd power of -kappa
    return CosineSeries(*ball_mul(u.center, u.rad, wm, wr))


def tail(u: CosineSeries, n: int) -> CosineSeries:
    """u less its modes with |k|_inf < n."""
    v = CosineSeries(u.center.copy(), u.rad.copy())
    sl = tuple(slice(0, min(n, s)) for s in u.extent)
    v.center[sl] = 0.0
    v.rad[sl] = 0.0
    return v


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

    The midpoint M = fl(center_k c_k) is exact where nz is even, so a
    point coefficient keeps a zero radius there.  Where nz is odd and M is
    normal, M is within (0.62 u (1 + u) + u) |M| < 2^-52 |M| of center_k
    c_k; the radius, rounded up, gains 2^-52 |M| and one more upward step.
    Below _FOLD_MIN the fold's scaling by 2^-d would round, so smaller
    midpoints move into the radius (the upward step also covers their
    underflow) and smaller radii round up to _FOLD_MIN.
    """
    nz = nz_grid(u.extent)
    m, r = u.center.copy(), u.rad.copy()
    odd = (nz % 2 == 1) & ((m != 0.0) | (r != 0.0))
    m *= C_FLOAT[nz]
    r[~odd] *= C_FLOAT[nz[~odd]]
    r[odd] = _nup(_nup(r[odd] * _nup(C_FLOAT[nz[odd]])) + np.abs(m[odd]) * 2.0**-52)
    tiny = np.abs(m) < _FOLD_MIN
    r = np.where(tiny & (m != 0.0), _nup(r + _FOLD_MIN), r)
    r[(r > 0.0) & (r < _FOLD_MIN)] = _FOLD_MIN
    m[tiny] = 0.0
    return m, r, u.support().astype(np.float64)


@np.errstate(over="ignore", invalid="ignore")  # overflowed entries become (0, inf)
def multiply(u: CosineSeries, v: CosineSeries) -> CosineSeries:
    """Exact product of two series (no truncation), in midpoint-radius form.

    With raw coefficients A in <Am, Ar> and B in <Bm, Br>, every product of
    members lies within |Am|*Br + Ar*(|Bm| + Br) of Am*Bm, * being the fold.
    The float fold of Am*Bm is off by at most u times its running error
    bound plus 2^-1075 per underflowing product (Higham, sec. 3.3).  A fold
    adds at most p = 3^d nnz(A) terms into one entry, so _ball_up's a-priori
    gamma_p factor covers the rounding of the radius folds and of the error
    sum, and its constant the underflow of all three folds (Higham, ch. 3).
    The raw C +- rho becomes fl(C w) +- fl(rho w), w the float 1/c_m, exact
    where nz is even.  Where it is odd, w's error is one factor more for
    rho, hence gamma_{p+1}, and fl(C w) is within (0.62 u (1 + u) + u)
    |fl(C w)| < 2^-52 |fl(C w)| of C / c_m, which the radius gains.  Entries
    that no pair of nonzero coefficients reaches are the exact zero (0, 0).
    """
    if u.dim != v.dim:
        raise ValueError("product of series with different dimensions")
    # iterate over the factor with fewer populated modes
    nu = int(np.count_nonzero(u.support()))
    nv = int(np.count_nonzero(v.support()))
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
    c, rad = _ball_up(c, rad, p, _gamma(p + 1))
    unreached = reach == 0.0
    c[unreached] = 0.0
    rad[unreached] = 0.0
    return CosineSeries(c, rad)


def multiply_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float product in normalized coefficients (Newton path)."""
    if np.count_nonzero(b) < np.count_nonzero(a):
        a, b = b, a
    (raw,) = _raw_conv((a * c_grid(a.shape))[None], (b * c_grid(b.shape))[None])
    return raw / c_grid(raw.shape)


# ---------------------------------------------------------------------------
# evaluation (non-rigorous; plotting and diagnostics)
# ---------------------------------------------------------------------------

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
