"""Interval arithmetic for scalars, ball arithmetic for series and matrices.

A scalar Interval has IEEE double endpoints, rounded outward by nextafter
unless the result is provably exact (by error-free transforms or exact
rational comparison), so integer arithmetic stays sharp and zero stays zero.
Everything else is a ball (mid, rad): the reals X with |X - mid| <= rad
entrywise, rad rounded up, the midpoint any float, and an entry that
overflowed (0, inf); mid_rad is the one place where endpoints become balls.
Entrywise ball sums and products round each radius operation up one step
unless it is exact (add_toward, mul_toward), so a point zero stays exact.
Matrix products run through BLAS: the midpoint is one floating gemm, and
the radius adds the a-priori rounding bound gamma_p |mid A| |mid B|
(gamma_k = k u / (1 - k u), u = 2^-53) plus an underflow term, valid for
any summation order, blocking and FMA (Rump, BIT 39, 1999; Ozaki, Ogita,
Oishi and Rump, JCAM 236, 2012).  Float sums scaled by float weights raise
that count by the scaling's roundings and the weights' errors, and one
rounding budget (_ball_up) ends each radius.  Spectral-norm bounds take the
smaller of sqrt(||A||_1 ||A||_inf) and one shifted-Cholesky certificate
(Rump, BIT 46, 2006).  The contract is containment: every result encloses
all pointwise results of its operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_INF = math.inf
# generous unit roundoff (2x the true 2^-53) used in aggregate error bounds
_EPS = 2.0 ** -52
# unit roundoff of round-to-nearest doubles, and the smallest subnormal
_U = Fraction(1, 2**53)
_ETA = 2.0 ** -1074


class IntervalDomainError(ValueError):
    """Raised when no rigorous enclosure exists (e.g. division through zero)."""


# ---------------------------------------------------------------------------
# scalar rounding helpers
# ---------------------------------------------------------------------------

def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _sum_is_exact(a: float, b: float, s: float) -> bool:
    # Fast2Sum error recovery: both orderings agree iff fl(a+b) == a+b.
    return (s - a) == b and (s - b) == a


def _small_int(x: float) -> bool:
    # cheap filter before the exact rational tests; a miss only widens
    return -67108864.0 <= x <= 67108864.0 and x == int(x)


def _prod_is_exact(a: float, b: float, p: float) -> bool:
    if a == 0.0 or b == 0.0:
        return True
    if not (_small_int(a) and _small_int(b)):
        return False
    return math.isfinite(p) and Fraction(a) * Fraction(b) == Fraction(p)


def _quot_is_exact(a: float, b: float, q: float) -> bool:
    if b == 0.0:
        return False
    if a == 0.0:
        return True
    if not (_small_int(a) and _small_int(b)):
        return False
    return math.isfinite(q) and Fraction(a) / Fraction(b) == Fraction(q)


def _add_down(a: float, b: float) -> float:
    s = a + b
    return s if _sum_is_exact(a, b, s) else _down(s)


def _add_up(a: float, b: float) -> float:
    s = a + b
    return s if _sum_is_exact(a, b, s) else _up(s)


class Interval:
    """Closed interval [lo, hi] of reals with containment-preserving arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise IntervalDomainError(f"invalid interval endpoints [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- queries -----------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mag(self) -> float:
        """max |x| over the interval"""
        return max(abs(self.lo), abs(self.hi))

    def contains(self, x) -> bool:
        if isinstance(x, Interval):
            return self.lo <= x.lo and x.hi <= self.hi
        return self.lo <= x <= self.hi

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Interval):
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Interval":
        if isinstance(x, Interval):
            return x
        return Interval(float(x), float(x))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __abs__(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def __add__(self, other) -> "Interval":
        o = self._coerce(other)
        return Interval(_add_down(self.lo, o.lo), _add_up(self.hi, o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = self._coerce(other)
        return Interval(_add_down(self.lo, -o.hi), _add_up(self.hi, -o.lo))

    def __rsub__(self, other) -> "Interval":
        return self._coerce(other) - self

    @staticmethod
    def _extremum(cands, prods, pick_min: bool) -> float:
        m = min(prods) if pick_min else max(prods)
        exact = all(
            _prod_is_exact(x, y, p)
            for (x, y), p in zip(cands, prods)
            if p == m
        )
        if exact:
            return m
        return _down(m) if pick_min else _up(m)

    def __mul__(self, other) -> "Interval":
        o = self._coerce(other)
        cands = (
            (self.lo, o.lo), (self.lo, o.hi), (self.hi, o.lo), (self.hi, o.hi),
        )
        prods = tuple(x * y for x, y in cands)
        return Interval(
            self._extremum(cands, prods, True),
            self._extremum(cands, prods, False),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = self._coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise IntervalDomainError(f"division by interval containing zero: {o}")
        cands = (
            (self.lo, o.lo), (self.lo, o.hi), (self.hi, o.lo), (self.hi, o.hi),
        )
        quots = tuple(x / y for x, y in cands)
        lo = min(quots)
        hi = max(quots)
        lo_exact = all(
            _quot_is_exact(x, y, q) for (x, y), q in zip(cands, quots) if q == lo
        )
        hi_exact = all(
            _quot_is_exact(x, y, q) for (x, y), q in zip(cands, quots) if q == hi
        )
        return Interval(lo if lo_exact else _down(lo), hi if hi_exact else _up(hi))

    def __rtruediv__(self, other) -> "Interval":
        return self._coerce(other) / self

    def square(self) -> "Interval":
        a, b = abs(self).lo, abs(self).hi
        plo = a * a
        phi = b * b
        lo = plo if _prod_is_exact(a, a, plo) else max(_down(plo), 0.0)
        hi = phi if _prod_is_exact(b, b, phi) else _up(phi)
        return Interval(lo, hi)

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int):
            raise TypeError("interval powers are integer only")
        if n < 0:
            return Interval(1.0) / self ** (-n)
        if n == 0:
            return Interval(1.0)
        if n == 1:
            return self
        half = self ** (n // 2)
        out = half.square()
        return out * self if n % 2 else out

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise IntervalDomainError(f"sqrt of interval with negative part: {self}")
        slo = math.sqrt(self.lo)
        shi = math.sqrt(self.hi)
        lo = slo if _small_int(slo) and slo * slo == self.lo else max(_down(slo), 0.0)
        hi = shi if _small_int(shi) and shi * shi == self.hi else _up(shi)
        return Interval(lo, hi)


# enclosures of the constants every rigorous formula needs; the float seeds are
# correctly rounded, so one ulp on each side is enough
PI = Interval(_down(math.pi), _up(math.pi))
PI2 = PI.square()
PI4 = PI2.square()


# pi^2 and pi^4 as balls: each the nearest double, within half its ulp
PI2_BALL = (9.869604401089358, 2.0**-50)
PI4_BALL = (97.40909103400244, 2.0**-47)


# ---------------------------------------------------------------------------
# entrywise balls
# ---------------------------------------------------------------------------

def _nup(x: np.ndarray) -> np.ndarray:
    return np.nextafter(x, _INF)


# The entrywise kernels run without numpy's overflow and invalid warnings: a
# NaN from inf - inf or 0 * inf becomes an exact zero or (0, inf).

@np.errstate(over="ignore", invalid="ignore")
def add_toward(a, b, toward: float) -> np.ndarray:
    """fl(a + b), one step toward +-inf where it is inexact (Fast2Sum test,
    valid in both orderings)."""
    s = np.asarray(a + b, dtype=np.float64)
    return np.where(((s - a) == b) & ((s - b) == a), s, np.nextafter(s, toward))


@np.errstate(over="ignore", invalid="ignore")
def mul_toward(a, b, toward: float) -> np.ndarray:
    """fl(a b) of nonnegative a and b one step toward +-inf, which covers
    round-to-nearest's error, underflow included; never below zero, and the
    exact zero where a factor is zero."""
    p = np.maximum(np.nextafter(a * b, toward), 0.0)
    return np.where((a == 0.0) | (b == 0.0), 0.0, p)


def _unbounded_where_overflow(m: np.ndarray, r: np.ndarray):
    """(m, r) with every entry where either is not finite set to (0, inf)."""
    bad = ~(np.isfinite(m) & np.isfinite(r))
    m[bad] = 0.0
    r[bad] = _INF
    return m, r


@np.errstate(over="ignore", invalid="ignore")
def ball_add(am, ar, bm, br):
    """Balls (m, r) enclosing a + b for a in <am, ar> and b in <bm, br>:
    m = fl(am + bm), its error recovered exactly by TwoSum (Knuth), and r =
    ar + br + |error|, each sum rounded up unless exact, so an exact sum of
    points stays a point."""
    m = np.asarray(am + bm, dtype=np.float64)
    t = m - am
    err = np.abs((am - (m - t)) + (bm - t))
    return _unbounded_where_overflow(m, add_toward(add_toward(ar, br, _INF), err, _INF))


@np.errstate(over="ignore", invalid="ignore")
def ball_mul(am, ar, bm, br):
    """Balls (m, r) enclosing a b for a in <am, ar> and b in <bm, br>.

    Every product lies within |am| br + ar (|bm| + br) of am bm (Rump, BIT
    39, 1999), and m = fl(am bm) within u |m| of am bm, or eta / 2 where it
    underflows, which the step up of fl(u |m|) covers; a zero factor makes
    m exact.  Each radius operation rounds up, so a point zero stays exact.
    """
    m = np.asarray(am * bm, dtype=np.float64)
    err = np.where((am == 0.0) | (bm == 0.0), 0.0, _nup(np.abs(m) * 2.0**-53))
    spread = mul_toward(ar, add_toward(np.abs(bm), br, _INF), _INF)
    spread = add_toward(mul_toward(np.abs(am), br, _INF), spread, _INF)
    return _unbounded_where_overflow(m, add_toward(spread, err, _INF))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def ball_inv(m, r):
    """Balls enclosing 1/x for x in <m, r> with m > r, and (0, 0) where m
    is zero: |1/x - 1/m| <= r / (m (m - r)), and fl(1/m) is within u of
    1/m relatively, rounded up as in ball_mul."""
    zero = m == 0.0
    inv = np.where(zero, 0.0, 1.0 / m)
    low = mul_toward(m, add_toward(m, -r, -_INF), -_INF)
    spread = np.where(r == 0.0, 0.0, _nup(r / low))
    rad = add_toward(spread, _nup(np.abs(inv) * 2.0**-53), _INF)
    return _unbounded_where_overflow(inv, np.where(zero, 0.0, rad))


def _sum_slack(abssum: float, n: int) -> float:
    # valid for any summation order of n doubles under round-to-nearest
    return (n + 4) * _EPS * abssum


# ---------------------------------------------------------------------------
# dense ball matrices
# ---------------------------------------------------------------------------

def _gamma(k: int) -> Fraction:
    """gamma_k = k u / (1 - k u), exactly (Higham, ch. 3)."""
    return k * _U / (1 - k * _U)


@np.errstate(over="ignore", invalid="ignore")  # infinite endpoints give (0, inf)
def mid_rad(lo, hi):
    """(mid, rad) of balls enclosing the intervals [lo, hi] entrywise.

    mid - rad <= lo and hi <= mid + rad hold exactly: rad is the larger
    distance from mid to an endpoint, rounded up unless it is exact, so a
    point entry gets an exact zero radius.  mid halves lo + hi, or each
    endpoint first where that sum overflows.  An entry with an infinite
    endpoint becomes (0, inf).
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if not (lo <= hi).all():  # also false on NaN
        raise IntervalDomainError("interval with NaN or lo > hi endpoints")
    m = 0.5 * (lo + hi)
    bad = ~np.isfinite(m)
    m[bad] = 0.5 * lo[bad] + 0.5 * hi[bad]
    r = np.maximum(add_toward(m, -lo, _INF), add_toward(hi, -m, _INF))
    return _unbounded_where_overflow(m, r)


def _ball_up(c, rad, p: int, g: Fraction):
    """(c, rad) with rad raised by the rounding budget below, overwriting
    both; entries where anything overflowed become (0, inf).

    The budget: rad combines, by at most four roundings, nonnegative float
    quantities, each at least (1 - g)(1 - u) times the exact one it bounds,
    less underflow.  g >= gamma_k covers k factors (1 + delta)^(+-1): a sum
    of at most p terms, plus, where the caller scales by float weights
    (1/c_k, or c_k and c_ell 2^-d / kappa_ell), their errors and products.
    1 - u covers |Bm| + Br, and 1 - gamma_6 the four roundings and the two
    here.  The constant covers the underflow of three sums of at most p
    products and of a few more products.
    """
    rad += (4 * p + 16) * _ETA
    rad *= _up(float(1 / ((1 - g) * (1 - _U) * (1 - _gamma(6)))))
    return _unbounded_where_overflow(c, rad)


def _max_sum_upper(x: np.ndarray, axis: int) -> float:
    """Upper bound on the largest exact sum along axis of nonnegative
    quantities, each at most one rounding above its float entry of x."""
    worst = float(np.max(np.sum(x, axis=axis)))
    return _up(_up(worst) + _sum_slack(worst, x.shape[axis] + 1))


@dataclass
class BallMatrix:
    """Dense matrix of real balls: the X with |X - mid| <= rad entrywise.

    mid is finite and rad >= 0; an entry that overflowed is (0, inf).
    Balls may share arrays with one another and are not changed once built.
    """

    mid: np.ndarray
    rad: np.ndarray

    def __post_init__(self):
        self.mid = np.asarray(self.mid, dtype=np.float64)
        self.rad = np.asarray(self.rad, dtype=np.float64)
        if self.mid.shape != self.rad.shape or self.mid.ndim != 2:
            raise ValueError("BallMatrix needs two 2-d arrays of equal shape")
        if not np.isfinite(self.mid).all():
            raise IntervalDomainError("matrix with NaN or infinite midpoint")
        if not (self.rad >= 0.0).all():  # also false on NaN
            raise IntervalDomainError("matrix with NaN or negative radius")

    @classmethod
    def hull(cls, lo, hi) -> "BallMatrix":
        """Balls enclosing the interval matrix [lo, hi]."""
        return cls(*mid_rad(lo, hi))

    @classmethod
    def point(cls, a) -> "BallMatrix":
        """The point matrix a itself, not a copy, with a zero radius."""
        a = np.asarray(a, dtype=np.float64)
        return cls(a, np.broadcast_to(0.0, a.shape))

    @property
    def shape(self):
        return self.mid.shape

    @property
    def rows(self) -> int:
        return self.mid.shape[0]

    @property
    def cols(self) -> int:
        return self.mid.shape[1]

    @property
    def T(self) -> "BallMatrix":
        return BallMatrix(self.mid.T, self.rad.T)

    def mag(self) -> np.ndarray:
        """fl(|mid| + rad): each entry within one rounding of its largest |X|."""
        m = np.abs(self.mid)
        m += self.rad
        return m


@np.errstate(over="ignore", invalid="ignore")  # overflowed entries become (0, inf)
def mat_mul(a: BallMatrix, b: BallMatrix) -> BallMatrix:
    """Ball matrix product with entrywise containment.

    With A in <Am, Ar> and B in <Bm, Br> and inner dimension p, every product
    of members lies within |Am| Br + Ar (|Bm| + Br) of Am Bm.  The midpoint
    C = fl(Am Bm) is one gemm, whose error is at most gamma_p |Am||Bm| plus
    p 2^-1074 for underflow, for any summation order, blocking and FMA
    (Higham, ch. 3; Rump, BIT 39, 1999; Ozaki, Ogita, Oishi and Rump, JCAM 236,
    2012).  The radius gemms are nonnegative, so the same a-priori bounds
    turn their rounded values, and the rounded elementwise sums that combine
    them, into an upper bound by one scalar factor.  A point operand has a
    zero radius, and its radius gemm is skipped.  A zero row of A or column
    of B gives exact zeros.  Entries where anything overflows become
    (0, inf).
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    p = a.cols
    ar = a.rad if a.rad.any() else None
    br = b.rad if b.rad.any() else None
    c = a.mid @ b.mid
    am = np.abs(a.mid)
    bm = np.abs(b.mid)
    # rad = g |Am||Bm| + |Am| Br + Ar (|Bm| + Br), rounded to nearest, with
    # g >= gamma_p.  Every term is nonnegative.  Exact gemms are at most
    # (rounded gemm + p eta) / (1 - gamma_p), and |Bm| + Br at most its
    # rounded sum / (1 - u); _ball_up covers both.
    g = _gamma(p)
    rad = am @ bm
    rad *= _up(float(g))
    if ar is None:
        bm = None  # |Bm| + Br is needed only against Ar
    elif br is not None:
        bm += br
    if br is not None:
        rad += am @ br
    del am
    if ar is not None:
        rad += ar @ bm
    del bm
    c, rad = _ball_up(c, rad, p, g)
    # every term of an entry in a zero row of A or column of B is an exact zero
    zero_rows = ~(a.mid.any(axis=1) | a.rad.any(axis=1))
    zero_cols = ~(b.mid.any(axis=0) | b.rad.any(axis=0))
    for sel in (zero_rows, (slice(None), zero_cols)):
        c[sel] = 0.0
        rad[sel] = 0.0
    return BallMatrix(c, rad)


@np.errstate(over="ignore", invalid="ignore")  # overflowed entries become (0, inf)
def sum_enclosure(mid_sum, abs_sum, rad_sum=None, *, terms: int):
    """Balls (mid, rad) enclosing each exact sum of interval terms t_i +- r_i,
    from float evaluations S of sum t_i, A of sum |t_i| and R of sum r_i
    (None when every r_i is zero).  The arguments are overwritten, and mid
    is S.

    terms bounds the factors (1 + delta)^(+-1), |delta| <= u, that a term
    meets on its way into S, A or R: n - 1 for a sum of n terms in any
    order, plus one per rounded product and one per float weight within
    one rounding of exact.  By Higham's lemma 3.1 the radius gamma_terms A
    + R, which _ball_up rounds up, then holds up to underflow.
    """
    g = _gamma(terms)
    rad = abs_sum
    rad *= _up(float(g))
    if rad_sum is not None:
        rad += rad_sum
    return _ball_up(mid_sum, rad, terms, g)


def mat_sub_identity(a: BallMatrix) -> BallMatrix:
    """a - I, its diagonal by ball_add; inside [0.5, 2] the subtraction is
    exact (Sterbenz)."""
    mid = a.mid.copy()
    rad = a.rad.copy()
    d = np.arange(min(a.shape))
    mid[d, d], rad[d, d] = ball_add(mid[d, d], rad[d, d], -1.0, 0.0)
    return BallMatrix(mid, rad)


def _cholesky_shift(n: int, norm_bound: float) -> float:
    # covers the backward error of (blocked) floating Cholesky on n x n input
    # whose diagonal is at most norm_bound
    g = (n + 1) * _EPS / (1.0 - (n + 1) * _EPS)
    return (2.0 * n * g + 8.0 * _EPS) * norm_bound


def _cheap_norm2_upper(a: BallMatrix) -> float:
    """sqrt(||A||_1 ||A||_inf), an upper bound on ||A||_2 for every member."""
    mag = a.mag()
    return _up(math.sqrt(_up(_max_sum_upper(mag, 0) * _max_sum_upper(mag, 1))))


def _mirror_lower(x: np.ndarray) -> np.ndarray:
    """x, its upper triangle overwritten by its lower one (exact)."""
    for k in range(1, x.shape[0]):
        x[k - 1, k:] = x[k:, k - 1]
    return x


def mat_norm2_upper(a: BallMatrix) -> float:
    """Rigorous upper bound on the spectral norm of every member of a.

    The smaller of the cheap bound sqrt(||A||_1 ||A||_inf) and one
    shifted-Cholesky certificate for lambda_max(A^T A) (Rump, "Verification
    of positive definiteness", BIT 46, 2006).  With the lower triangles of
    the ball enclosure of A^T A mirrored, its midpoint Gm is within
    ||Gr||_inf of every (symmetric) member in the 2-norm, Gr being the
    radius.  If floating Cholesky succeeds on X = c I - Gm, with c the
    eigvalsh estimate of lambda_max(Gm) plus the backward-error term, then
    X + beta I is positive semidefinite for the backward-error term beta of
    X, and lambda_max(A^T A) <= max_i (X_ii + Gm_ii) + beta + ||Gr||_inf.
    If it fails, the cheap bound stands.
    """
    cheap = _cheap_norm2_upper(a)
    if cheap == _INF:
        return cheap
    n = a.cols
    g = mat_mul(a.T, a)  # a fresh product, mirrored in place
    gm = _mirror_lower(g.mid)
    spread = _max_sum_upper(_mirror_lower(g.rad), 1)
    del g
    d = np.arange(n)
    gd = gm[d, d]
    try:
        lam = float(np.linalg.eigvalsh(gm)[-1])
        x = np.negative(gm, out=gm)
        x[d, d] += lam + _cholesky_shift(n, abs(lam) + float(np.max(np.abs(gd))))
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return cheap
    beta = _cholesky_shift(n, float(np.max(x[d, d])))
    top = float(np.max(_nup(x[d, d] + gd)))
    bound = _up(math.sqrt(_up(_up(top + beta) + spread)))
    # also the fallback when anything was not finite (a NaN compares false)
    return bound if bound < cheap else cheap


def mat_inverse_norm2_upper(a: BallMatrix):
    """Certified upper bound for ||A^{-1}||_2 via an approximate inverse.

    Computes a floating inverse C of mid(A), encloses E = C*A - I, and if
    ||E|| = e < 1 returns (||C|| / (1 - e), e, ||C||).  Raises
    IntervalDomainError when the defect cannot be certified below one.
    """
    try:
        c = np.linalg.inv(a.mid)
    except np.linalg.LinAlgError as exc:
        raise IntervalDomainError(f"approximate inverse failed: {exc}") from exc
    cm = BallMatrix.point(c)
    e = _cheap_norm2_upper(mat_sub_identity(mat_mul(cm, a)))
    if e >= 1.0:
        raise IntervalDomainError(
            f"finite inverse not certified: ||C*A - I|| bound {e:.3g} >= 1"
        )
    c_norm = mat_norm2_upper(cm)
    bound = _up(_up(c_norm) / _down(1.0 - e))
    return bound, e, c_norm
