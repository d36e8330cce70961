"""Interval arithmetic for scalars, ball arithmetic for series and matrices.

A scalar Interval has IEEE double endpoints, rounded outward by nextafter
unless the result is provably exact (by error-free transforms or exact
rational comparison), so integer arithmetic stays sharp and zero stays zero.
Its +, *, / and square are written out, with no helper call on the way to
an exact result, since the certificate replay makes thousands of them; -
adds the negation.
Everything else is a ball (mid, rad): the reals X with |X - mid| <= rad
entrywise, rad rounded up, the midpoint any float, and an entry that
overflowed (0, inf); mid_rad is the one place where endpoints become balls.
Entrywise ball sums and products round each radius operation up one step
unless it is exact (add_toward, mul_toward), so a point zero stays exact.
A matrix product's midpoint is one BLAS gemm, within gamma_p |mid A||mid B|
(gamma_k = k u / (1 - k u), u = 2^-53) plus underflow of the exact product
for any summation order, blocking and FMA (Rump, BIT 39, 1999; Ozaki, Ogita,
Oishi and Rump, JCAM 236, 2012).  A Galerkin block is two float sums, of
the midpoints and of a radius carrying gamma_t times their magnitudes
(Rump's midpoint-radius form), t raised by the roundings of its float
weights.  One rounding budget (_ball_up) ends each radius.  The one
certified inverse norm bounds ||C A - I|| through row and column sums,
which read radii only through matrix-vector products, and ||C||, C the
point inverse, by the smaller of sqrt(||C||_1 ||C||_inf) and a
shifted-Cholesky certificate (Rump, BIT 46, 2006); it takes no threshold.
The certificate's shift needs only an estimate of lambda_max(C^T C): a
Lanczos one of at most KRYLOV_STEPS steps, and eigvalsh's only where the
matrix is at most EIGVALSH_WIDTH wide or that Cholesky fails.  A
threshold, ||X^-1|| <= floor over a ball, also under a perturbation of norm
eps, is decided apart from it, by one shifted Cholesky of fl(mid^T mid)
with no inverse formed.  Both
Cholesky uses read only a lower triangle, through one guarded helper.  The
contract is containment: every result encloses all pointwise results of
its operands.
"""

from __future__ import annotations

import functools
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


# integers of magnitude at most 2^26: the product, square and square-root
# exactness tests below only look at these, and a miss only widens
_SMALL = 67108864.0


def _small_int(x: float) -> bool:
    return -_SMALL <= x <= _SMALL and x.is_integer()


# Veltkamp's splitter: c = (2^27 + 1) x gives x = (c - (c - x)) + the rest,
# two halves of at most 26 bits whose products are exact
_SPLITTER = 134217729.0


def _quot_is_exact(a: float, b: float, q: float) -> bool:
    # q = fl(a / b) is a / b only where fl(q b) = a, which rejects some
    # inexact quotients cheaply; then q b = a where Dekker's TwoProduct
    # error q b - fl(q b), from Veltkamp's splits, is zero.  That error is
    # exact where no split or product overflows (|q|, |b| < 2^995, |a| <
    # 2^1020) and no partial product underflows, which e_q + e_b >= e_min +
    # 52 = -970 ensures (|a| >= 2^-960 gives e_q + e_b >= -962); elsewhere
    # q b = a is decided in integers, from the exact ratios n / d
    if b == 0.0:
        return False
    if a == 0.0:
        return True
    if not (math.isfinite(a) and q * b == a):
        return False
    if 2.0**-960 <= abs(a) < 2.0**1020 and abs(q) < 2.0**995 and abs(b) < 2.0**995:
        c, d = _SPLITTER * q, _SPLITTER * b
        qh, bh = c - (c - q), d - (d - b)
        ql, bl = q - qh, b - bh
        return ((qh * bh - a) + qh * bl + ql * bh) + ql * bl == 0.0
    (an, ad), (bn, bd), (qn, qd) = (x.as_integer_ratio() for x in (a, b, q))
    return qn * bn * ad == an * qd * bd


def _add_up(a: float, b: float) -> float:
    s = a + b
    # Fast2Sum error recovery: both orderings agree iff fl(a+b) == a+b
    return s if (s - a) == b and (s - b) == a else _up(s)


class Interval:
    """Closed interval [lo, hi] of reals with containment-preserving arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if not lo <= hi:  # also true where an end is NaN
            raise IntervalDomainError(f"invalid interval endpoints [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- queries -----------------------------------------------------------

    @property
    def mag(self) -> float:
        """max |x| over the interval"""
        return max(abs(self.lo), abs(self.hi))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Interval):
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __abs__(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    # A sum is exact where Fast2Sum's error recovery agrees in both
    # orderings; a product where a factor is zero or both are small integers
    # (their product is an integer of magnitude at most 2^52, a double).

    def __add__(self, other) -> "Interval":
        c, d = (other.lo, other.hi) if isinstance(other, Interval) else (Interval(other).lo,) * 2
        a, b = self.lo, self.hi
        lo, hi = a + c, b + d
        if lo - a != c or lo - c != a:
            lo = math.nextafter(lo, -_INF)
        if hi - b != d or hi - d != b:
            hi = math.nextafter(hi, _INF)
        return Interval(lo, hi)  # inf - inf is refused here

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return self + -(other if isinstance(other, Interval) else Interval(other))

    def __rsub__(self, other) -> "Interval":
        return Interval(other) - self

    def __mul__(self, other) -> "Interval":
        c, d = (other.lo, other.hi) if isinstance(other, Interval) else (Interval(other).lo,) * 2
        a, b = self.lo, self.hi
        ac, ad, bc, bd = a * c, a * d, b * c, b * d
        if not (a.is_integer() or b.is_integer() or c.is_integer() or d.is_integer()):
            # no zero or integer end: no product is exact, nor NaN
            return _unchecked(math.nextafter(min(ac, ad, bc, bd), -_INF),
                              math.nextafter(max(ac, ad, bc, bd), _INF))
        if ac != ac or ad != ad or bc != bc or bd != bd:
            # 0 times an infinite endpoint is NaN in float; the members are
            # finite, so their products with 0 are 0
            ac, ad, bc, bd = [0.0 if x != x else x for x in (ac, ad, bc, bd)]
        lo, hi = min(ac, ad, bc, bd), max(ac, ad, bc, bd)
        sa = -_SMALL <= a <= _SMALL and a.is_integer()
        sb = -_SMALL <= b <= _SMALL and b.is_integer()
        sc = -_SMALL <= c <= _SMALL and c.is_integer()
        sd = -_SMALL <= d <= _SMALL and d.is_integer()
        # whether each product is inexact, so an extremum it attains is rounded
        iac = not (a == 0.0 or c == 0.0 or sa and sc)
        iad = not (a == 0.0 or d == 0.0 or sa and sd)
        ibc = not (b == 0.0 or c == 0.0 or sb and sc)
        ibd = not (b == 0.0 or d == 0.0 or sb and sd)
        if iac and ac == lo or iad and ad == lo or ibc and bc == lo or ibd and bd == lo:
            lo = math.nextafter(lo, -_INF)
        if iac and ac == hi or iad and ad == hi or ibc and bc == hi or ibd and bd == hi:
            hi = math.nextafter(hi, _INF)
        return _unchecked(lo, hi)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        c, d = (other.lo, other.hi) if isinstance(other, Interval) else (Interval(other).lo,) * 2
        if c <= 0.0 <= d:
            raise IntervalDomainError(f"division by interval containing zero: {Interval(c, d)}")
        a, b = self.lo, self.hi
        ac, ad, bc, bd = a / c, a / d, b / c, b / d
        lo, hi = min(ac, ad, bc, bd), max(ac, ad, bc, bd)
        # an end is rounded unless every quotient that attains it is exact
        if (ac == lo and not _quot_is_exact(a, c, ac) or ad == lo and not _quot_is_exact(a, d, ad)
                or bc == lo and not _quot_is_exact(b, c, bc)
                or bd == lo and not _quot_is_exact(b, d, bd)):
            lo = math.nextafter(lo, -_INF)
        if (ac == hi and not _quot_is_exact(a, c, ac) or ad == hi and not _quot_is_exact(a, d, ad)
                or bc == hi and not _quot_is_exact(b, c, bc)
                or bd == hi and not _quot_is_exact(b, d, bd)):
            hi = math.nextafter(hi, _INF)
        return Interval(lo, hi)

    def __rtruediv__(self, other) -> "Interval":
        return Interval(other) / self

    def square(self) -> "Interval":
        a, b = self.lo, self.hi
        if a < 0.0:  # [a, b] becomes abs(self)
            a, b = (-b, -a) if b <= 0.0 else (0.0, b if b > -a else -a)
        lo, hi = a * a, b * b
        if not (-_SMALL <= a <= _SMALL and a.is_integer()):
            lo = math.nextafter(lo, -_INF)
            if lo < 0.0:
                lo = 0.0
        if not (-_SMALL <= b <= _SMALL and b.is_integer()):
            hi = math.nextafter(hi, _INF)
        return _unchecked(lo, hi)

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


def _unchecked(lo: float, hi: float) -> Interval:
    """The Interval [lo, hi] of ends known to be ordered floats, not NaN."""
    out = object.__new__(Interval)
    out.lo = lo
    out.hi = hi
    return out


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

@functools.lru_cache(maxsize=256)
def _gamma(k: int) -> Fraction:
    """gamma_k = k u / (1 - k u), exactly (Higham, ch. 3); a Fraction is
    immutable, so each k's is formed once."""
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
    here.  The constant covers the underflow of at most three sums of at
    most p products (a ball product's three folds, a Galerkin block's two
    sums) and of a few more products.
    """
    rad += (4 * p + 16) * _ETA
    rad *= _budget_factor(g)
    return _unbounded_where_overflow(c, rad)


@functools.lru_cache(maxsize=64)
def _budget_factor(g: Fraction) -> float:
    """1 / ((1 - g)(1 - u)(1 - gamma_6)) rounded up, _ball_up's factor: a
    few exact rational operations, formed once per g."""
    return _up(float(1 / ((1 - g) * (1 - _U) * (1 - _gamma(6)))))


def _max_sum_upper(sums: np.ndarray, depth: int, entries: int = 0, p: int = 0) -> float:
    """Upper bound on the largest exact sum of nonnegative terms, from float
    sums that reach each term by at most depth roundings and combine such
    sums by at most four more: _ball_up's budget, its underflow constant
    once per entry of p-term products that a sum covers.  inf (also for
    NaN) where a sum is not finite."""
    worst = float(np.max(sums))
    if not worst < _INF:
        return _INF
    return (worst + entries * (4 * p + 16) * _ETA) * _budget_factor(_gamma(depth))


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


def _cholesky_shift(n: int, norm_bound: float) -> float:
    # covers the backward error of (blocked) floating Cholesky on n x n input
    # whose diagonal is at most norm_bound
    g = (n + 1) * _EPS / (1.0 - (n + 1) * _EPS)
    return (2.0 * n * g + 8.0 * _EPS) * norm_bound


def _norm2_from_sums(rows, cols, depth: int, entries: int = 0, p: int = 0) -> float:
    """sqrt(||A||_1 ||A||_inf) rounded up, an upper bound on ||A||_2, from
    float row and column sums of |A| as _max_sum_upper takes them."""
    inf_norm, one_norm = (_max_sum_upper(x, depth, entries, p) for x in (rows, cols))
    return _up(math.sqrt(_up(one_norm * inf_norm)))


@np.errstate(over="ignore", invalid="ignore")  # an overflow gives an infinite bound
def _gram_spread(abs_c: np.ndarray, c_rows: np.ndarray) -> float:
    """Upper bound on ||Gr||_2, where C^T C lies within Gr = g |C|^T |C| of
    fl(C^T C), g = gamma_r for r rows, up to underflow (Rump, BIT 39, 1999);
    abs_c = |C| and c_rows its float row sums.  Gr is symmetric and
    nonnegative, so ||Gr||_2 is at most its largest row sum, g |C|^T (|C| 1).
    """
    r, n = abs_c.shape
    s = abs_c.T @ c_rows
    s *= _up(float(_gamma(r)))
    return _max_sum_upper(s, r + n, n, r)


def _cholesky_succeeds(x: np.ndarray) -> bool:
    """Whether every entry of x is finite and floating Cholesky succeeds on
    the symmetric matrix of x's lower triangle, the only one the
    factorization reads; potrf does not reliably flag NaN, so a non-finite
    x is refused first."""
    if not np.isfinite(x).all():
        return False
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return False
    return True


# The Lanczos step cap: the Krylov basis holds at most this many vectors
KRYLOV_STEPS = 32
# A Gram matrix no wider goes to eigvalsh directly: at 1 and 2 OpenBLAS
# threads eigvalsh took less time than the Lanczos estimate (then with a
# mirror pass over the Gram matrix) up to about 64 to 80 rows, and more from
# about 95 rows on
EIGVALSH_WIDTH = 80


def _krylov_start(n: int) -> np.ndarray:
    """The fixed Lanczos start vector: frac(i phi) - 1/2, phi the float
    golden ratio's conjugate, the same bits everywhere: IEEE products, then
    an exact frac and shift; it shares no symmetry of the mode order, such
    as an axis swap, under which a top eigenvector can be odd."""
    return np.arange(1.0, n + 1.0) * 0.6180339887498949 % 1.0 - 0.5


def _lambda_max_estimate(g: np.ndarray, v: np.ndarray) -> float:
    """A Lanczos estimate of lambda_max of the symmetric matrix g (both
    triangles read) from the start vector v: full reorthogonalization
    (classical Gram-Schmidt, twice), the top Ritz value after each step,
    and a stop where it stalls (rises by at most 8 u relatively), where the
    Krylov space is invariant, or at KRYLOV_STEPS steps."""
    steps = min(KRYLOV_STEPS, len(g))
    basis = np.empty((steps, len(g)))
    t = np.zeros((steps, steps))  # the Lanczos tridiagonal, lower triangle
    basis[0] = v / np.linalg.norm(v)
    top = -_INF
    for k in range(steps):
        w = g @ basis[k]
        t[k, k] = basis[k] @ w
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        ritz = float(np.linalg.eigvalsh(t[: k + 1, : k + 1], UPLO="L")[-1])
        b = float(np.linalg.norm(w))
        if ritz - top <= 4 * _EPS * abs(ritz) or not b > 2 * _EPS * abs(ritz) or k + 1 == steps:
            return max(top, ritz)
        top = ritz
        t[k + 1, k] = b
        basis[k + 1] = w / b


def _gram_norm2_upper(gram: np.ndarray, spread: float) -> float:
    """A bound on ||X||_2 over the X with ||X^T X - Gm||_2 <= spread, Gm
    the symmetric matrix of gram's lower triangle (Rump, "Verification of
    positive definiteness", BIT 46, 2006), or inf where it fails; only that
    triangle is read, and gram is overwritten.  If floating Cholesky
    succeeds on Y = c I - Gm, c an estimate of lambda_max(Gm) plus the
    backward-error term, then Y + beta I is positive semidefinite for Y's
    backward-error term beta, and lambda_max(X^T X) <= max_i (Y_ii + Gm_ii)
    + beta + spread, whatever the estimate.  It is the Lanczos one
    (_lambda_max_estimate, on gram whole: numpy forms a product C^T C
    bitwise symmetric, and any matrix gives an estimate) where Gm is wider
    than EIGVALSH_WIDTH, and eigvalsh's where it is not or where that
    Cholesky fails, for one more Cholesky.
    """
    if not (spread < _INF and np.isfinite(gram).all()):
        return _INF
    n = gram.shape[0]
    d = np.arange(n)
    gd = gram[d, d]
    if n > EIGVALSH_WIDTH:
        bound = _shifted_cholesky_bound(gram, gd, _lambda_max_estimate(gram, _krylov_start(n)), spread)
        if bound < _INF:
            return bound
        np.negative(gram, out=gram)  # exact off the diagonal
        gram[d, d] = gd
    try:
        lam = float(np.linalg.eigvalsh(gram, UPLO="L")[-1])
    except np.linalg.LinAlgError:
        return _INF
    return _shifted_cholesky_bound(gram, gd, lam, spread)


def _shifted_cholesky_bound(gram: np.ndarray, gd: np.ndarray, lam: float, spread: float) -> float:
    """_gram_norm2_upper's certificate at the estimate lam, gd being
    gram's diagonal; gram becomes Y, read only on its lower triangle."""
    n = len(gram)
    d = np.arange(n)
    x = np.negative(gram, out=gram)
    x[d, d] += lam + _cholesky_shift(n, abs(lam) + float(np.max(np.abs(gd))))
    if not _cholesky_succeeds(x):
        return _INF
    beta = _cholesky_shift(n, float(np.max(x[d, d])))
    top = float(np.max(_nup(x[d, d] + gd)))
    return _up(math.sqrt(_up(_up(top + beta) + spread)))


def _gram(x: np.ndarray) -> np.ndarray:
    """fl(x^T x), which numpy forms bitwise symmetric."""
    return x.T @ x


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails a test
def inverse_norm2_at_most(a: BallMatrix, floor: float, eps: float = 0.0) -> float | None:
    """The tolerance for which ||(X + E)^-1||_2 <= floor is proved for every
    member X of the square ball a and every E with ||E||_2 <= it by one
    floating Cholesky, with no inverse formed (Rump, BIT 46, 2006): eps,
    else (where eps is not 0) 0.0 from one more Cholesky on the same G,
    else None, never an error.  A proof reads as `is not None`: 0.0 is
    false.

    Every X lies within r of Am in the 2-norm, r = sqrt(||Ar||_1
    ||Ar||_inf) rounded up (0 for a point ball), and Am^T Am within spread
    of G = fl(Am^T Am) (_gram_spread).  With t >= 1/floor + r + eps and c >=
    t^2 + spread + beta, each step rounded up, beta the backward-error term
    of Cholesky on G's diagonal: if floating Cholesky succeeds on Y, G with
    each diagonal entry G_ii - c rounded down, then Y + beta I is positive
    semidefinite, so lambda_min(Am^T Am) >= c - beta - spread >= t^2, and by
    Weyl sigma_min(X + E) >= t - r - eps >= 1/floor: the test at the
    tightened floor 1/(1/floor + eps).  The a-priori shift costs about 1e-9
    relative on the K_N blocks, too much for a sharp bound but nothing
    against a floor with a margin.  r, the spread and G are formed once,
    for both tests.  None also where floor is not positive and finite; a
    test fails where anything else is not finite.  A Y with a diagonal
    entry <= 0 is not factored: its Cholesky fails at that pivot or before.
    """
    if not 0.0 < floor < _INF:
        return None
    m = len(a.mid)
    r = _norm2_from_sums(a.rad.sum(axis=1), a.rad.sum(axis=0), m) if a.rad.any() else 0.0
    abs_m = np.abs(a.mid)
    spread = _gram_spread(abs_m, abs_m.sum(axis=1))
    del abs_m
    g = None
    for tol in (eps, 0.0) if eps != 0.0 else (0.0,):
        t = _add_up(_add_up(_up(1.0 / floor), r), tol)
        s = _add_up(_up(t * t), spread)
        if not s < _INF:  # also where r, eps or spread is not finite
            continue
        if g is None:
            g = _gram(a.mid)
            d = np.arange(m)
            gd = g[d, d]
        c = _add_up(s, _cholesky_shift(m, float(np.max(gd))))
        g[d, d] = add_toward(gd, -c, -_INF)
        if (g[d, d] > 0.0).all() and _cholesky_succeeds(g):
            return tol
    return None


@np.errstate(over="ignore", invalid="ignore")  # an overflow gives e = inf
def _defect_norm_upper(c: np.ndarray, abs_c: np.ndarray, c_cols: np.ndarray,
                       a: BallMatrix) -> float:
    """An upper bound e on ||C X - I||_2 over the members X of the m x m
    ball a, given |C| and its float column sums; inf on overflow.

    C X - I lies within R = g |C||Am| + |C| Ar of M = fl(C Am) - I, g =
    gamma_m (Rump, BIT 39, 1999), up to underflow, and the TwoSum error of
    each diagonal -1.  e = sqrt(||E||_1 ||E||_inf), E = |M| + R, reads R
    only through matrix-vector products: row sums |C| (g |Am| 1 + Ar 1) and
    column sums (1^T |C|)(g |Am| + Ar).  Each sum reaches a term by at most
    2m roundings and covers m entries of m-term gemms.
    """
    m = len(c)
    am = np.abs(a.mid)
    rows = abs_c @ am.sum(axis=1)
    cols = c_cols @ am
    del am
    rows *= _up(float(_gamma(m)))
    cols *= _up(float(_gamma(m)))
    if a.rad.any():
        rows += abs_c @ a.rad.sum(axis=1)
        cols += c_cols @ a.rad
    d = np.arange(m)
    mag = c @ a.mid
    mag[d, d], slip = ball_add(mag[d, d], 0.0, -1.0, 0.0)
    mag = np.abs(mag, out=mag)
    mag[d, d] += slip
    rows += mag.sum(axis=1)
    cols += mag.sum(axis=0)
    return _norm2_from_sums(rows, cols, 2 * m, m, m)


@np.errstate(over="ignore", invalid="ignore")  # an overflow gives an infinite bound
def mat_inverse_norm2_upper(a: BallMatrix):
    """Certified upper bound for ||A^{-1}||_2 via an approximate inverse.

    Computes a floating inverse C of mid(A), bounds ||C*A - I|| by e, and
    if e < 1 returns (||C|| / (1 - e), e, ||C||), rounded up.  ||C|| is
    the smaller of sqrt(||C||_1 ||C||_inf) and the Gram certificate
    (_gram_norm2_upper).  Raises IntervalDomainError when the defect cannot
    be certified below one.
    """
    try:
        c = np.linalg.inv(a.mid)
    except np.linalg.LinAlgError as exc:
        raise IntervalDomainError(f"approximate inverse failed: {exc}") from exc
    abs_c = np.abs(c)
    c_rows, c_cols = abs_c.sum(axis=1), abs_c.sum(axis=0)
    e = _defect_norm_upper(c, abs_c, c_cols, a)
    if not e < 1.0:
        raise IntervalDomainError(f"finite inverse not certified: ||C*A - I|| bound {e:.3g} >= 1")
    spread = _gram_spread(abs_c, c_rows)
    gram = _gram(c)
    del c, abs_c  # only the Gram matrix is live in the certificate
    c_norm = min(_norm2_from_sums(c_rows, c_cols, len(gram)), _gram_norm2_upper(gram, spread))
    return _up(_up(c_norm) / _down(1.0 - e)), e, c_norm
