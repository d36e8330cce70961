"""Interval arithmetic for scalars and vectors, ball arithmetic for matrices.

Scalar and vector endpoints are IEEE doubles.  Outward rounding is
implemented by nextafter adjustment of round-to-nearest results; an operation
whose result is provably exact (detected via error-free transforms or exact
rational comparison) is not widened, so integer-endpoint arithmetic stays
sharp and zero stays zero.  A BallMatrix (mid, rad) is the set of real X
with |X - mid| <= rad entrywise: rad is rounded up, the midpoint is any
float, and an entry that overflowed is (0, inf); mid_rad is the one place
where endpoints become balls.  Products run through BLAS: the midpoint is
one floating gemm, and the radius adds the a-priori rounding bound
gamma_p |mid A| |mid B| (gamma_k = k u / (1 - k u), u = 2^-53) plus an
underflow term, valid for any summation order, blocking and FMA (Rump, BIT
39, 1999; Ozaki, Ogita, Oishi and Rump, JCAM 236, 2012).  Float sums scaled
by float weights raise that count by the scaling's roundings and the
weights' errors, and one rounding budget ends each radius.  Spectral-norm
bounds take the smaller of sqrt(||A||_1 ||A||_inf) and one shifted-Cholesky
certificate (Rump, BIT 46, 2006).  The contract is containment: every
result encloses all pointwise results of its operands, a ball X with
mid - rad <= X <= mid + rad in exact arithmetic.
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
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return m

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


# ---------------------------------------------------------------------------
# vectorized kernels on (lo, hi) ndarray pairs
# ---------------------------------------------------------------------------

def _ndown(x: np.ndarray) -> np.ndarray:
    return np.nextafter(x, -_INF)


def _nup(x: np.ndarray) -> np.ndarray:
    return np.nextafter(x, _INF)


# The vector kernels run without numpy's overflow and invalid warnings: an
# overflowed endpoint is infinite, and a NaN from inf - inf or 0 * inf fails
# the exactness tests or is rejected where a series or interval is built.

@np.errstate(over="ignore", invalid="ignore")
def vadd(alo, ahi, blo, bhi):
    slo = alo + blo
    shi = ahi + bhi
    lo_exact = ((slo - alo) == blo) & ((slo - blo) == alo)
    hi_exact = ((shi - ahi) == bhi) & ((shi - bhi) == ahi)
    return np.where(lo_exact, slo, _ndown(slo)), np.where(hi_exact, shi, _nup(shi))


@np.errstate(over="ignore", invalid="ignore")
def vmul(alo, ahi, blo, bhi):
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    # a point-zero factor gives an exact zero product; everything else rounds out
    pzero = ((alo == 0.0) & (ahi == 0.0)) | ((blo == 0.0) & (bhi == 0.0))
    lo = np.where(pzero, 0.0, _ndown(lo))
    hi = np.where(pzero, 0.0, _nup(hi))
    return lo, hi


@np.errstate(over="ignore", invalid="ignore")
def vsquare(lo, hi):
    a = np.where(lo > 0.0, lo, np.where(hi < 0.0, -hi, 0.0))  # mignitude
    b = np.maximum(np.abs(lo), np.abs(hi))
    plo = a * a
    phi = b * b
    exact = (lo == hi) & ((lo == np.rint(lo)) & (np.abs(lo) < 2**26))
    out_lo = np.where(exact, plo, np.maximum(_ndown(plo), 0.0))
    out_hi = np.where(exact, phi, _nup(phi))
    return out_lo, out_hi


def _sum_slack(abssum: float, n: int) -> float:
    # valid for any summation order of n doubles under round-to-nearest
    return (n + 4) * _EPS * abssum


@np.errstate(over="ignore", invalid="ignore")
def vsum(lo, hi) -> Interval:
    """Rigorous enclosure of the sum of a vector of intervals."""
    lo = np.asarray(lo, dtype=np.float64).ravel()
    hi = np.asarray(hi, dtype=np.float64).ravel()
    n = lo.size
    if n == 0:
        return Interval(0.0)
    slo = float(np.sum(lo))
    shi = float(np.sum(hi))
    err_lo = _sum_slack(float(np.sum(np.abs(lo))), n)
    err_hi = _sum_slack(float(np.sum(np.abs(hi))), n)
    lower = slo if err_lo == 0.0 else _down(_down(slo) - err_lo)
    upper = shi if err_hi == 0.0 else _up(_up(shi) + err_hi)
    return Interval(lower, upper)


# ---------------------------------------------------------------------------
# dense ball matrices
# ---------------------------------------------------------------------------

def _gamma(k: int) -> Fraction:
    """gamma_k = k u / (1 - k u), exactly (Higham, ch. 3)."""
    return k * _U / (1 - k * _U)


def _unbounded_where_overflow(m: np.ndarray, r: np.ndarray):
    """(m, r) with every entry where either is not finite set to (0, inf)."""
    bad = ~(np.isfinite(m) & np.isfinite(r))
    m[bad] = 0.0
    r[bad] = _INF
    return m, r


@np.errstate(over="ignore", invalid="ignore")  # infinite endpoints give (0, inf)
def mid_rad(lo, hi):
    """(mid, rad) of balls enclosing the intervals [lo, hi] entrywise.

    mid - rad <= lo and hi <= mid + rad hold exactly: rad is the larger
    rounded distance from mid to an endpoint, one step up unless it is
    zero, so a point entry gets an exact zero radius.  mid halves lo + hi,
    or each endpoint first where that sum overflows.  An entry with an
    infinite endpoint becomes (0, inf).
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if not (lo <= hi).all():  # also false on NaN
        raise IntervalDomainError("interval with NaN or lo > hi endpoints")
    m = 0.5 * (lo + hi)
    bad = ~np.isfinite(m)
    m[bad] = 0.5 * lo[bad] + 0.5 * hi[bad]
    r = np.maximum(m - lo, hi - m)
    # a rounded difference is zero only when it is exactly zero
    r = np.where(r == 0.0, 0.0, _nup(r))
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


def _outward(c, rad, p: int, g: Fraction):
    """Endpoints [c - r, c + r] rounded outward, r being rad raised by
    _ball_up's budget; c and rad are overwritten."""
    c, rad = _ball_up(c, rad, p, g)
    lo = c - rad
    np.add(c, rad, out=c)
    np.nextafter(lo, -_INF, out=lo)
    np.nextafter(c, _INF, out=c)
    return lo, c


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
    """a - I.  Where a diagonal midpoint minus one rounds, its rounding
    error, recovered exactly by TwoSum (Knuth), joins the radius, rounded
    up; inside [0.5, 2] the subtraction is exact (Sterbenz)."""
    mid = a.mid.copy()
    rad = a.rad.copy()
    d = np.arange(min(a.shape))
    x = mid[d, d]
    s = x - 1.0
    t = s - x
    err = np.abs((x - (s - t)) + (-1.0 - t))
    mid[d, d] = s
    r = rad[d, d]
    rad[d, d] = np.where(err == 0.0, r, _nup(r + err))
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
