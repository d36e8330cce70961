"""Cosine-series algebra on the unit cube in dimensions 1-3.

Functions are represented by multi-index coefficient arrays in the
orthonormal basis phi_k(x) = c_k * prod_i cos(k_i pi x_i), c_0 = 1 and
c_m = sqrt(2) for m >= 1.  A series holds its modes on a lattice: along
each axis every index below its extent, or only those of one parity, the
other parity's coefficients being point zeros.  The canonical equilibria
populate one parity per axis (the cube's reflections x_j -> 1 - x_j map
them to +-themselves), and so do their powers, residuals and
linearizations: every operation below works on the held modes alone, and
a series with no parity on any axis is the dense one.  Coefficients are
the balls (center, rad) of
okvalid.intervals, so every norm and product below is a rigorous
enclosure.  Negation and tails are exact; a sum carries its midpoint's
rounding error exactly (TwoSum); a scaling, and the Laplacian's weights
(-kappa_k)^p, balls built from PI2_BALL and PI4_BALL, add u |mid| for the
midpoint's rounding; norm and sup_bound round each term outward and bound
each sum of n nonnegative terms by (n + 4) 2u a priori; a product ends in
the gamma budget of intervals._ball_up (see multiply).  Every other radius
operation rounds up one step unless it is exact, so a point zero stays
exact, and so does the k=0 coefficient of a zero-mean series.

Products fold raw coefficients alpha_k c_k, formed with the float c_k
(exact where c_k is 1 or 2), on the one convolution kernel of
okvalid.pointconv: a gather of Toeplitz-plus-Hankel matrices and a few gemms,
skipping along each axis the parity whose terms are exact zeros.  The
kernel bounds the roundings on a product term's path a priori (gamma_n), so
the ball product is Rump's midpoint-radius product: the float fold of the
midpoints, two folds of magnitudes for the radius, which carry gamma_n
|Am| * |Bm| beside the radii's spread, and the scaling back by the float
1/c_k inside the rounding budget.  Newton's float product is the midpoint
fold alone.
"""

from __future__ import annotations

import functools
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
from .pointconv import (
    _lattice_slices,
    _parity,
    _parity_count,
    _parity_range,
    _projections,
    point_conv,
    product_lattice,
)

# c_k and 1/c_k rounded to nearest by number of nonzero index components nz
# (sqrt is correctly rounded): exact where nz is even, within 0.62 u of
# exact, relatively, where it is odd
C_FLOAT = np.array([1.0, math.sqrt(2.0), 2.0, 2.0 * math.sqrt(2.0)])
_C_INV_FLOAT = np.array([1.0, math.sqrt(0.5), 0.5, 0.5 * math.sqrt(0.5)])
# the fold operands are zero or at least this in magnitude, so point_conv's
# halving of b and its gathers' sums are exact (2^-d times it, d <= 3, is a
# normal double)
_FOLD_MIN = 2.0**-1019


# ---------------------------------------------------------------------------
# multi-index helpers
# ---------------------------------------------------------------------------

def _lattice(extent, parity=None) -> tuple:
    """The lattice key, (extent, parity) per axis, of the given extent and
    parities (default None, every index, on each axis)."""
    return tuple(zip(extent, (None,) * len(extent) if parity is None else parity))


def _axis_sum(axes, per_index) -> np.ndarray:
    """sum_t per_index(k_t) over the lattice axes, by broadcasting."""
    d = len(axes)
    return sum(per_index(_parity_range(*key)).reshape((1,) * t + (-1,) + (1,) * (d - 1 - t))
               for t, key in enumerate(axes))

def k2_grid(extent) -> np.ndarray:
    """|k|^2 over the coefficient grid (exact integers as floats)."""
    return _axis_sum(_lattice(extent), lambda k: k.astype(np.float64) ** 2)

def nz_grid(extent, parity=None) -> np.ndarray:
    """Number of nonzero index components over the coefficient grid, or
    over its lattice of the given parities."""
    return _axis_sum(_lattice(extent, parity), lambda k: (k != 0).astype(np.int64))

@functools.lru_cache(maxsize=32)
def c_grid(extent: tuple) -> np.ndarray:
    """The float c_k over the coefficient grid, read-only and shared per
    extent; its nz grid is built in int8, an eighth of c's bytes."""
    c = C_FLOAT[_axis_sum(_lattice(extent), lambda k: (k != 0).astype(np.int8))]
    c.flags.writeable = False
    return c


@functools.lru_cache(maxsize=64)
def _kappa_power(axes: tuple, power: int):
    """Read-only balls of kappa_k^power = (pi^2 |k|^2)^power, 0 < |power| <= 2,
    on the lattice axes, and (0, 0) at the origin, where kappa_0 = 0: exact
    for positive powers, and the negative ones only weight zero-mean series."""
    if not 0 < abs(power) <= 2:
        raise ValueError(f"kappa powers of magnitude 1 or 2 only, not {power}")
    k2 = _axis_sum(axes, lambda k: k.astype(np.float64) ** 2)
    k = (k2, 0.0) if abs(power) == 1 else ball_mul(k2, 0.0, k2, 0.0)
    w = ball_mul(*(PI2_BALL if abs(power) == 1 else PI4_BALL), *k)
    w = ball_inv(*w) if power < 0 else w
    w[0].flags.writeable = w[1].flags.writeable = False
    return w


# ---------------------------------------------------------------------------
# the series container
# ---------------------------------------------------------------------------

def _scalar_ball(c):
    """A number or Interval as one ball (mid, rad) of floats, with
    mid_rad's bits."""
    lo, hi = (c.lo, c.hi) if isinstance(c, Interval) else (c, c)
    m, r = mid_rad(np.array([lo], dtype=np.float64), np.array([hi], dtype=np.float64))
    return float(m[0]), float(r[0])


def _relattice(x: np.ndarray, axes: tuple, to: tuple, copy: bool = False) -> np.ndarray:
    """x, held on the lattice axes, on the lattice to: the modes that both
    hold, and zeros on the others; x itself, or a copy, where the two
    lattices agree."""
    if axes == to:
        return x.copy() if copy else x
    out = np.zeros(tuple(_parity_count(*key) for key in to))
    put, take = _lattice_slices(axes, to)
    out[put] = x[take]
    return out


@dataclass
class CosineSeries:
    """Truncated cosine expansion with ball coefficients on a lattice.

    Along axis t the series holds the modes _parity_range(extent[t],
    parity[t]): every index below extent[t] where the parity is None, else
    those of that parity, and every other mode is the point zero.  The
    coefficient of the held mode at array index i lies within rad[i] of
    center[i]; center is finite and rad >= 0, and an entry that overflowed
    is (0, inf).  parity defaults to None on every axis, the dense series,
    and extent to the smallest that holds the lattice; an axis of extent 1
    holds the one index 0, so its parity is 0.
    """

    center: np.ndarray
    rad: np.ndarray
    parity: tuple | None = None
    extent: tuple | None = None

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.rad = np.asarray(self.rad, dtype=np.float64)
        shape = self.center.shape
        if shape != self.rad.shape:
            raise ValueError("center and radius arrays must have equal shape")
        if not 1 <= len(shape) <= 3:
            raise ValueError("only dimensions 1-3 are supported")
        parity = (None,) * len(shape) if self.parity is None else tuple(self.parity)
        if self.extent is None:
            self.extent = tuple(m if c is None else 2 * m - 1 + c for m, c in zip(shape, parity))
        self.extent = extent = tuple(map(int, self.extent))
        self.parity = parity = tuple(0 if n == 1 else c for n, c in zip(extent, parity))
        if not len(parity) == len(extent) == len(shape) or any(
                c not in (None, 0, 1) or _parity_count(n, c) != m
                for n, c, m in zip(extent, parity, shape)):
            raise ValueError(f"arrays of shape {shape} do not hold the lattice {self.axes}")
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
        """The point series coeffs, held on the parity that its nonzero
        coefficients populate along each axis, where they share one;
        zero_mean=True checks that it is zero-mean."""
        a = np.array(coeffs, dtype=np.float64)
        parity = tuple(map(_parity, _projections(a != 0.0)))
        held = _relattice(a, _lattice(a.shape), _lattice(a.shape, parity))
        u = cls(held, np.zeros(held.shape), parity, a.shape)
        if zero_mean and not u.zero_mean:
            raise IntervalDomainError("zero-mean series with nonzero k=0 mode")
        return u

    # -- basics --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.center.ndim

    @property
    def axes(self) -> tuple:
        """The lattice: (extent, parity) per axis."""
        return tuple(zip(self.extent, self.parity))

    @property
    def zero_mean(self) -> bool:
        """Whether the series lies in the zero-mean space: its k=0
        coefficient is the point zero."""
        if 1 in self.parity:  # the lattice leaves out the origin
            return True
        origin = (0,) * self.dim
        return bool(self.center[origin] == 0.0 == self.rad[origin])

    def _end(self, toward: float) -> np.ndarray:
        end = add_toward(self.center, math.copysign(1.0, toward) * self.rad, toward)
        end.flags.writeable = False
        return end

    @property
    def lo(self) -> np.ndarray:
        """Lower ends center - rad of the held modes, rounded down (read-only)."""
        return self._end(-_INF)

    @property
    def hi(self) -> np.ndarray:
        """Upper ends center + rad of the held modes, rounded up (read-only)."""
        return self._end(_INF)

    def mid(self) -> np.ndarray:
        """The midpoints over the full extent (a new array)."""
        return _relattice(self.center, self.axes, _lattice(self.extent), copy=True)

    def dense(self) -> "CosineSeries":
        """The same series held on every mode below its extent (on the
        same arrays where it has no parity on any axis)."""
        to = _lattice(self.extent)
        return CosineSeries(*(_relattice(x, self.axes, to) for x in (self.center, self.rad)))

    def support(self) -> np.ndarray:
        """Where a held coefficient is not the point zero."""
        return (self.center != 0.0) | (self.rad != 0.0)

    def coefficient(self, k) -> Interval:
        """The coefficient of mode k, from its one entry: the point zero
        where the lattice leaves k out."""
        idx = tuple(int(ki) for ki in k)
        if len(idx) != self.dim or not all(0 <= i < n for i, n in zip(idx, self.extent)):
            raise IndexError(f"mode {idx} outside the extent {self.extent}")
        if any(c is not None and (i - c) % 2 for i, c in zip(idx, self.parity)):
            return Interval(0.0)
        at = tuple(i if c is None else i // 2 for i, c in zip(idx, self.parity))
        m, r = self.center[at], self.rad[at]
        return Interval(float(add_toward(m, -r, -_INF)), float(add_toward(m, r, _INF)))

    def __neg__(self) -> "CosineSeries":
        return CosineSeries(-self.center, self.rad, self.parity, self.extent)

    def __add__(self, other: "CosineSeries", negate: bool = False) -> "CosineSeries":
        axes = tuple((max(n, m), p if p == q else None)
                     for (n, p), (m, q) in zip(self.axes, other.axes))
        um, ur, vm, vr = [_relattice(x, u.axes, axes)
                          for u in (self, other) for x in (u.center, u.rad)]
        return _on(axes, *ball_add(um, ur, -vm if negate else vm, vr))

    def __sub__(self, other: "CosineSeries") -> "CosineSeries":
        # other is negated on the common lattice, so a mode it does not hold
        # is -0.0 there, as in the dense difference
        return self.__add__(other, negate=True)

    def scale(self, c) -> "CosineSeries":
        """The series times a number or Interval c."""
        ball = ball_mul(self.center, self.rad, *_scalar_ball(c))
        return CosineSeries(*ball, self.parity, self.extent)

    def add_constant(self, c) -> "CosineSeries":
        """Add a number or Interval c: a ball sum on the mean mode alone,
        on the lattice that holds the origin; every other coefficient, and
        the lattice where c is the point zero, stays as it is (a ball sum
        with (0, 0) returns its input)."""
        cm, cr = _scalar_ball(c)
        if cm == 0.0 == cr:
            return CosineSeries(self.center.copy(), self.rad.copy(), self.parity, self.extent)
        axes = tuple((n, None if p == 1 else p) for n, p in self.axes)
        center, rad = (_relattice(x, self.axes, axes, copy=True) for x in (self.center, self.rad))
        origin = (slice(0, 1),) * self.dim
        center[origin], rad[origin] = ball_add(center[origin], rad[origin], cm, cr)
        return _on(axes, center, rad)


def _on(axes: tuple, center: np.ndarray, rad: np.ndarray) -> CosineSeries:
    """The series of the balls (center, rad) held on the lattice axes."""
    return CosineSeries(center, rad, tuple(p for _, p in axes), tuple(n for n, _ in axes))


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
        w = _kappa_power(u.axes, ell)
        w = w if space == "Hbar" else ball_add(1.0, 0.0, *w)
    return _weighted_sum(u, 2, *w).sqrt()


def sup_bound(u: CosineSeries) -> Interval:
    """Enclosure of sum_k |alpha_k| c_k; its upper end bounds the sup norm."""
    return _weighted_sum(u, 1, *_c_ball(nz_grid(u.extent, u.parity)))


def _c_ball(nz: np.ndarray):
    """c_k = sqrt(2)^nz as balls around the float C_FLOAT[nz]: exact where nz
    is even; where it is odd the float is within 0.62 u of c_k, relatively,
    so within one ulp, and both ends C_FLOAT[nz] -+ ulp are doubles."""
    c = C_FLOAT[nz]
    return c, np.spacing(c) * (nz % 2)


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
    wm, wr = _kappa_power(u.axes, power)
    wm = -wm if power % 2 else wm  # an odd power of -kappa
    return CosineSeries(*ball_mul(u.center, u.rad, wm, wr), u.parity, u.extent)


def tail(u: CosineSeries, n: int) -> CosineSeries:
    """u less its modes with |k|_inf < n."""
    v = CosineSeries(u.center.copy(), u.rad.copy(), u.parity, u.extent)
    sl = tuple(slice(0, _parity_count(min(n, s), c)) for s, c in u.axes)
    v.center[sl] = 0.0
    v.rad[sl] = 0.0
    return v


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

@np.errstate(over="ignore")  # an overflowed entry is inf, which the callers' enclosures make unbounded
def _raw_mid_rad(u: CosineSeries):
    """Midpoint, radius and 0/1 support of u's raw coefficients alpha_k c_k
    on its lattice.

    The midpoint M = fl(center_k c_k) is exact where nz is even, so a
    point coefficient keeps a zero radius there.  Where nz is odd and M is
    normal, M is within (0.62 u (1 + u) + u) |M| < 2^-52 |M| of center_k
    c_k; the radius, rounded up, gains 2^-52 |M| and one more upward step.
    Below _FOLD_MIN the fold's halving could round, so smaller
    midpoints move into the radius (the upward step also covers their
    underflow) and smaller radii round up to _FOLD_MIN.
    """
    nz = nz_grid(u.extent, u.parity)
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


def _rump_radius(m, r, n: int) -> np.ndarray:
    """gamma_n |m| + r rounded up, each nonzero entry raised to _FOLD_MIN:
    the radius of Rump's midpoint-radius form, which carries the rounding
    of a float sum of n-term paths over m, as a fold operand."""
    out = add_toward(mul_toward(_up(float(_gamma(n))), np.abs(m), _INF), r, _INF)
    out[(out > 0.0) & (out < _FOLD_MIN)] = _FOLD_MIN
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflowed entries become (0, inf)
def multiply(u: CosineSeries, v: CosineSeries) -> CosineSeries:
    """Exact product of two series (no truncation), in midpoint-radius form
    (Rump, "Fast and parallel interval arithmetic", BIT 39, 1999).

    With raw coefficients A in <Am, Ar> (the factor with fewer populated
    modes) and B in <Bm, Br>, every product of members lies within
    |Am|*Br + Ar*(|Bm| + Br) of Am*Bm, * being the fold.  Every fold runs on
    pointconv.point_conv, which also returns n, its bound on the roundings
    along a product term's path: c = fl(Am*Bm) is within gamma_n |Am|*|Bm|
    of Am*Bm, plus the underflow below.  So the raw radius is
    fl(|Am|*B1) + fl(Ar*(|Bm| + Br)), with B1 = _rump_radius(Bm, Br, n):
    gamma_n |Am|*|Bm| rides on the |Am|*Br fold.  A radius fold whose
    factor B1, or Ar, is zero everywhere adds only exact zeros, so it is
    left out: it cannot meet an infinite radius of the other factor.  Each
    radius fold sums nonnegative terms, so it is at least (1 - gamma_m)
    times its exact value, m its own bound, less underflow; _ball_up's
    gamma_{m+1} factor covers the larger m, and 1 - u covers |Bm| + Br.

    Every operand is zero or at least _FOLD_MIN in magnitude (B1 is raised
    to it), so only products underflow.  A term's path holds one product on
    the last axis and one per earlier axis, and at most 2^d nnz(A) of each
    reach an entry (along an axis, a row i and a target k pair with at most
    two j), so an entry of each fold gathers at most d 2^d nnz(A) <= p =
    3^d nnz(A) products below the normal range, the count that _ball_up's
    constant covers.

    The raw C +- rho becomes fl(C w) +- fl(rho w), w the float 1/c_m, exact
    where nz is even.  Where it is odd, w's error is one factor more for
    rho, hence gamma_{m+1}, and fl(C w) is within (0.62 u (1 + u) + u)
    |fl(C w)| < 2^-52 |fl(C w)| of C / c_m, which the radius gains.  Entries
    that no pair of nonzero coefficients reaches, where the fold of the
    supports is zero, are the exact zero (0, 0).

    The product is held on product_lattice of the factors' lattices.  Where
    both factors fill their lattices and reach every mode of the product's
    (_product_reaches_all), no entry is out of reach, and the fold of the
    supports is left out.
    """
    if u.dim != v.dim:
        raise ValueError("product of series with different dimensions")
    nu = int(np.count_nonzero(u.support()))
    nv = int(np.count_nonzero(v.support()))
    if nv < nu:
        u, v = v, u
        nu, nv = nv, nu
    lattices = u.axes, v.axes
    am, ar, asup = _raw_mid_rad(u)
    bm, br, bsup = _raw_mid_rad(v)
    c, n = point_conv(am, bm, *lattices)
    b1 = _rump_radius(bm, br, n)
    rad, m = point_conv(np.abs(am), b1, *lattices) if b1.any() else (np.zeros(c.shape), 0)
    if ar.any():
        r2, m2 = point_conv(ar, np.abs(bm) + br, *lattices)
        rad += r2
        m = max(m, m2)
    axes = product_lattice(*lattices)
    nz = nz_grid(*zip(*axes))
    c *= _C_INV_FLOAT[nz]
    rad *= _C_INV_FLOAT[nz]
    rad += np.abs(c) * (nz % 2 * 2.0**-52)
    c, rad = _ball_up(c, rad, 3**u.dim * nu, _gamma(m + 1))
    if not (nu == asup.size and nv == bsup.size and _product_reaches_all(*lattices)):
        unreached = point_conv(asup, bsup, *lattices)[0] == 0.0
        c[unreached] = 0.0
        rad[unreached] = 0.0
    return _on(axes, c, rad)


def _top(n: int, parity) -> int:
    """The largest index of the lattice axis (n, parity)."""
    return n - 1 if parity is None or (n - 1 - parity) % 2 == 0 else n - 2


def _product_reaches_all(a_axes: tuple, b_axes: tuple) -> bool:
    """Whether the modes of the lattices a_axes and b_axes, all of them
    held, reach every mode of their product's lattice.

    Along an axis, a factor's indices run from its parity (0 where it has
    none) to its top, in steps of 2, or of 1 where it has no parity (an
    axis of extent 1 has parity 0).  The sums i + j run from the sum of the
    first indices to the sum of the tops, in steps of 2 where both have a
    parity and of 1 otherwise, and |i - j| reaches what lies below: 0,
    where both axes hold a common index (both parities 1, or one axis
    without parity, of extent 2 or more).  The modes reached are the
    product of these per-axis sets, so all are reached iff, on each axis,
    the product's top is at most the sum of the tops."""
    return all(_top(*a) + _top(*b) >= _top(*k)
               for a, b, k in zip(a_axes, b_axes, product_lattice(a_axes, b_axes)))


def multiply_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float product in normalized coefficients (Newton path), without an
    error bound: the fold of the raw coefficients on pointconv.point_conv,
    as in multiply, scaled back by the float c_k.  Entries that no pair of nonzero coefficients reaches
    are exact zeros."""
    if np.count_nonzero(b) < np.count_nonzero(a):
        a, b = b, a
    raw, _ = point_conv(a * c_grid(a.shape), b * c_grid(b.shape))
    raw /= c_grid(raw.shape)
    return raw


# ---------------------------------------------------------------------------
# evaluation (non-rigorous; plotting and diagnostics)
# ---------------------------------------------------------------------------

def grid_bytes(extent, points: int) -> int:
    """Bytes that evaluate_grid needs on points^d points, coefficients of
    the given extent: twice the coefficients, every partial contraction
    (each copies its input) and every cosine table (and its outer product),
    as an exact integer."""
    sizes = [math.prod(extent)]
    for e in extent:
        sizes.append(sizes[-1] // e * points)
    return 16 * (sizes[0] + sum(sizes) + points * sum(extent))


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
