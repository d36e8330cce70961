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

Products fold raw coefficients alpha_k c_k, formed with the float c_k
(exact where c_k is 1 or 2).  The cosine product factorizes per axis, so
both products contract one axis at a time, and along an axis where the
denser factor's support has a single parity they skip the other parity,
whose terms are exact zeros.  The ball product runs its float fold on
midpoints with Wilkinson's running error bound, adds the radii's spread and
scales back by the float 1/c_k inside its rounding budget: a first pass
forms every product term along the last axis, each later pass adds the
partial folds along one more axis, and the running error bound follows that
summation tree; in 1-d the first pass is the whole fold.  Newton's float
product has no error bound to carry, so it runs on matrix products: one
gather of Toeplitz-plus-Hankel matrices and a few gemms per product.
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
from .pointconv import _single_parity, point_conv

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

def _axis_sum(extent, per_index) -> np.ndarray:
    """sum_t per_index(k_t) over the coefficient grid, by broadcasting."""
    d = len(extent)
    return sum(per_index(np.arange(n)).reshape((1,) * t + (n,) + (1,) * (d - 1 - t))
               for t, n in enumerate(extent))

def k2_grid(extent) -> np.ndarray:
    """|k|^2 over the coefficient grid (exact integers as floats)."""
    return _axis_sum(extent, lambda k: k.astype(np.float64) ** 2)

def nz_grid(extent) -> np.ndarray:
    """Number of nonzero index components over the coefficient grid."""
    return _axis_sum(extent, lambda k: (k != 0).astype(np.int64))

@functools.lru_cache(maxsize=32)
def c_grid(extent: tuple) -> np.ndarray:
    """The float c_k over the coefficient grid, read-only and shared per
    extent; its nz grid is built in int8, an eighth of c's bytes."""
    c = C_FLOAT[_axis_sum(extent, lambda k: (k != 0).astype(np.int8))]
    c.flags.writeable = False
    return c


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
    """Enclosure of sum_k |alpha_k| c_k; its upper end bounds the sup norm."""
    return _weighted_sum(u, 1, *_c_ball(nz_grid(u.extent)))


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

# the partial arrays of one chunk of rows (the ball product's partial folds
# with their error bound, or those of pointconv.point_conv) hold at most
# this many times the output stack's entries or, where more, the floor's
# (1 MiB of doubles; at least one row)
_PARTIAL_BUDGET = 1.0
_PARTIAL_FLOOR = 2**17


def _axis_segments(ai: int, nb: int, parity: int | None, compact: bool = False) -> list:
    """(target, source) slice pairs of one axis for the shift by index ai.

    cos(a t) cos(b t) = (cos((a+b)t) + cos(|a-b|t)) / 2, applied per axis;
    the |a-b| branch splits into a reversed and a forward slice.  Given a
    parity, the pairs keep only the sources of that parity, every other one,
    as slices of the compacted axis [parity::2], and the targets stride by
    2; compact, the targets are slices of the output's compacted axis too.
    """
    m = min(ai, nb - 1)
    step = 1 if parity is None else 2
    segs = []
    # (first target, first source, length, source direction)
    for t0, s0, length, sgn in ((ai, 0, nb, 1), (ai - m, m, m + 1, -1), (1, ai + 1, nb - 1 - ai, 1)):
        i0 = 0 if parity is None else (s0 - parity) % 2
        count = -(-(length - i0) // step)
        if count <= 0:
            continue
        src = (s0 + sgn * i0) // step
        stop = src + sgn * count
        tgt = (t0 + i0) // 2
        # a reversed segment always ends at source 0
        segs.append((
            slice(tgt, tgt + count) if compact else slice(t0 + i0, t0 + length, step),
            slice(src, stop if stop >= 0 else None, sgn),
        ))
    return segs


def _fold_last_axis(a, b, segments, out, err) -> None:
    """Pass 1 of the separable fold: every product term, along the last axis.

    a holds the folds' rows (compacted) on the leading axes and the last
    axis' populated indices; out[f, i, j, k] += a[f, i, p] 2^-d b[f, j, l]
    for each segment pair (k, l) of index p, i and j running over every row
    of a and b at once.  fold 0 accumulates the running error bound in err:
    each product t adds |t| + |s|, s the partial sum, unless the row of a is
    zero there, where the sum is exact.
    """
    lead = a.ndim - 2
    w_shape = a.shape[:-1] + (1,) * (lead + 1)
    bv = b.reshape(b.shape[:1] + (1,) * lead + b.shape[1:])
    half = 0.5 ** (lead + 1)
    for p, segs in enumerate(segments):
        w = a[..., p].reshape(w_shape) * half
        keep = w[0] != 0.0
        for out_sl, b_sl in segs:
            t = w * bv[..., b_sl]
            s = out[..., out_sl]
            s += t
            err[..., out_sl] += np.abs(t[0]) + np.abs(s[0]) * keep


def _fold_axis(part, perr, t: int, segments, out, err) -> None:
    """A later pass: add the partial folds along axis t.

    part holds the rows of a on axes 0..t, the rows of b on axes 0..t and
    the outputs on the later axes; out[f, i, j, k, ...] += part[f, i, p, j,
    l, ...] for each segment pair (k, l) of row p.  Each partial fold's
    error bound travels with it, and each addition adds |s|.
    """
    at = (slice(None),) * (2 * t)
    every = (slice(None),)
    for p, segs in enumerate(segments):
        slab = part[every + at[:t] + (p,)]
        eslab = perr[at[:t] + (p,)]
        for out_sl, b_sl in segs:
            s = out[every + at + (out_sl,)]
            s += slab[every + at + (b_sl,)]
            err[at + (out_sl,)] += eslab[at + (b_sl,)] + np.abs(s[0])


def _raw_conv(a: np.ndarray, b: np.ndarray, err: np.ndarray) -> np.ndarray:
    """The ball product's cosine-product convolutions of raw coefficient
    arrays in float, the first with its running error bound.

    a and b stack the operands of several folds on their leading axis, and
    out[f] is the fold of a[f] with b[f].  The product factorizes per axis,
    out[k] = sum_{i,j} a_i 2^-d b_j prod_t S(k_t; i_t, j_t) with
    S(k; i, j) = [k = i + j] + [k = |i - j|], so the fold contracts one
    axis at a time: pass 1 forms every product term along the last axis,
    for all rows of a and b on the other axes at once, and each later pass
    adds the partial folds along one more axis.  One slice pass per segment
    of each row index serves every fold and every row.

    a is compacted, per axis, to the indices where some fold is nonzero;
    where a[f] is zero inside that grid, fold f adds exact zeros (or NaN
    against an infinite b[f]).  On every axis where the support of b (every
    fold) has a single parity, b is compacted to it: a dropped term
    multiplies a point zero, so it is an exact zero (or NaN against an
    infinite a[f], where the product of the point zero is the exact zero
    too), and s + 0 = s.  Where a's indices have a single parity too, so do
    the targets, and the partial folds hold only those.  The first axis of a
    is taken in chunks of rows whose partial folds hold at most
    _PARTIAL_BUDGET times the output stack's entries, or _PARTIAL_FLOOR;
    every row reaches the last pass in order, so chunks change no bit.  In
    1-d pass 1 is the whole fold, the loop over a's populated modes.

    Fold 0 accumulates Wilkinson's running error bound in err (zeros of
    one output's shape) through the summation tree: each
    product t adds |t| + |s|, s the sum it enters, and each later addition
    adds the partial's own bound + |s|; a product of a zero a[0] adds
    nothing, since its sum is exact.  The rounding error of every output
    entry is at most u err plus 2^-1075 per underflowing product (Higham,
    Accuracy and Stability, sec. 3.3), for this tree as for any other,
    provided every w = a 2^-d is exact.
    """
    d = a.ndim - 1
    fold = a.shape[0]
    full = np.zeros(a.shape[:1] + tuple(na + nb - 1 for na, nb in zip(a.shape[1:], b.shape[1:])))
    populated = (a != 0.0).any(axis=0)
    rows = [np.flatnonzero(populated.any(axis=tuple(s for s in range(d) if s != t))) for t in range(d)]
    if rows[0].size == 0:
        return full
    parity = _single_parity((b != 0.0).any(axis=0))
    # where a's rows and b both have a single parity, so do the targets
    target = [None if pb is None or pa is None else (pa + pb) % 2
              for pa, pb in zip(_single_parity(populated), parity)]
    segments = [
        [_axis_segments(int(i), nb, pb, pt is not None) for i in idx]
        for idx, nb, pb, pt in zip(rows, b.shape[1:], parity, target)
    ]
    a = a[np.ix_(range(fold), *rows)]
    b = b[_classes(parity)]
    out = full[_classes(target)]
    err = err[_classes(target)[1:]]
    if d == 1:
        _fold_last_axis(a, b, segments[0], out, err)
        return full
    r, m, n = a.shape[1:], b.shape[1:], out.shape[1:]

    def partial(t, c):
        """Shape of one partial fold of c rows after the passes t..d-1."""
        return (c,) + r[1:t] + m[:t] + n[t:]

    # entries of the partial folds, and of their error bound, per row
    per_row = (fold + 1) * sum(math.prod(partial(t, 1)) for t in range(1, d))
    chunk = max(1, int(max(_PARTIAL_BUDGET * full.size, _PARTIAL_FLOOR) // per_row))
    for lo in range(0, r[0], chunk):
        c = min(chunk, r[0] - lo)
        part = np.zeros((fold,) + partial(d - 1, c))
        perr = np.zeros(part.shape[1:])
        _fold_last_axis(a[:, lo:lo + c], b, segments[-1], part, perr)
        for t in range(d - 2, 0, -1):
            nxt = np.zeros((fold,) + partial(t, c))
            nerr = np.zeros(nxt.shape[1:])
            _fold_axis(part, perr, t, segments[t], nxt, nerr)
            part, perr = nxt, nerr
        _fold_axis(part, perr, 0, segments[0][lo:lo + c], out, err)
    return full


def _classes(parity) -> tuple:
    """Index of a fold stack's parity class: [p::2] on every axis with a
    single parity p."""
    return (slice(None),) + tuple(slice(None) if par is None else slice(par, None, 2) for par in parity)


@np.errstate(over="ignore")  # an overflowed entry is inf, which the callers' enclosures make unbounded
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
    bound plus 2^-1075 per underflowing product (Higham, sec. 3.3), for its
    summation tree as for any other.  A fold adds at most p = 3^d nnz(A)
    product terms into one entry; in any tree each of them passes through
    at most p - 1 additions, so _ball_up's a-priori gamma_p factor covers
    the rounding of the radius folds (Higham, ch. 3 and 4).  The error sum
    follows the same tree: the pass along axis t adds into an entry at most
    n_t <= 3 nnz(A) increments, each a product's |t| + |s| or a partial's
    bound + |s|, so every |t| and |s| passes through at most
    n_1 + ... + n_d <= 3 d nnz(A) <= p roundings, and gamma_p covers it too.
    The products are the same terms in every tree, at most p per entry, so
    _ball_up's constant covers the underflow of all three folds.
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
    # the radius terms |Am|*Br and Ar*(|Bm| + Br) are exactly zero where Br,
    # or Ar, is zero everywhere (centers are finite): their folds are left
    # out, so they add nothing, not even 0 * inf = NaN against an infinite
    # radius of the other factor
    pairs = [(am, bm)]
    pairs += [(np.abs(am), br)] if br.any() else []
    pairs += [(ar, np.abs(bm) + br)] if ar.any() else []
    pairs.append((asup, bsup))
    c, *radii, reach = _raw_conv(
        np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs]), err
    )
    rad = err * 2.0**-53
    for r in radii:
        rad += r
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
    """Float product in normalized coefficients (Newton path), without an
    error bound: pointconv.point_conv of the raw coefficients, scaled back
    by the float c_k.  Entries that no pair of nonzero coefficients reaches
    are exact zeros."""
    if np.count_nonzero(b) < np.count_nonzero(a):
        a, b = b, a
    raw = point_conv(a * c_grid(a.shape), b * c_grid(b.shape), _PARTIAL_BUDGET, _PARTIAL_FLOOR)
    raw /= c_grid(raw.shape)
    return raw


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
