"""Directed-rounding interval arithmetic for scalars, vectors, and dense matrices.

Endpoints are IEEE doubles.  Outward rounding is implemented by nextafter
adjustment of round-to-nearest results; an operation whose result is provably
exact (detected via error-free transforms or exact rational comparison) is not
widened, so integer-endpoint arithmetic stays sharp and zero stays zero.
Matrix products are computed in midpoint-radius form through BLAS: the
midpoint is one floating gemm, and the radius adds the a-priori rounding
bound gamma_p |mid A| |mid B| (gamma_k = k u / (1 - k u), u = 2^-53) plus an
underflow term, valid for any summation order, blocking and FMA (Rump, BIT 39,
1999; Ozaki, Ogita, Oishi and Rump, JCAM 236, 2012).  Float sums scaled by
float weights raise that count by the scaling's roundings and the weights'
errors, and one outward rounding ends each enclosure.  Spectral-norm bounds
take the smaller of sqrt(||A||_1 ||A||_inf) and one shifted-Cholesky
certificate (Rump, BIT 46, 2006).
The contract is containment: every arithmetic result encloses all pointwise
results of its operands.
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

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


def vadd(alo, ahi, blo, bhi):
    slo = alo + blo
    shi = ahi + bhi
    lo_exact = ((slo - alo) == blo) & ((slo - blo) == alo)
    hi_exact = ((shi - ahi) == bhi) & ((shi - bhi) == ahi)
    return np.where(lo_exact, slo, _ndown(slo)), np.where(hi_exact, shi, _nup(shi))


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
# dense interval matrices
# ---------------------------------------------------------------------------

@dataclass
class IntervalMatrix:
    """Dense matrix of intervals stored as a pair of float arrays."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.ascontiguousarray(self.lo, dtype=np.float64)
        self.hi = np.ascontiguousarray(self.hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 2:
            raise ValueError("IntervalMatrix needs two 2-d arrays of equal shape")
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise IntervalDomainError("matrix with NaN entry")
        if np.any(self.lo > self.hi):
            raise IntervalDomainError("matrix with lo > hi entry")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_point(cls, a: np.ndarray) -> "IntervalMatrix":
        a = np.ascontiguousarray(a, dtype=np.float64)
        return cls(a, a.copy())

    @classmethod
    def identity(cls, n: int) -> "IntervalMatrix":
        return cls.from_point(np.eye(n))

    # -- basics ------------------------------------------------------------

    @property
    def shape(self):
        return self.lo.shape

    @property
    def rows(self) -> int:
        return self.lo.shape[0]

    @property
    def cols(self) -> int:
        return self.lo.shape[1]

    def mid(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            m = 0.5 * (self.lo + self.hi)
        bad = ~np.isfinite(m)
        if bad.any():
            # lo + hi overflowed; halving first cannot
            m[bad] = 0.5 * self.lo[bad] + 0.5 * self.hi[bad]
        return m

    def rad(self, mid: np.ndarray | None = None) -> np.ndarray:
        """Outward radius about mid(): mid - rad <= lo and mid + rad >= hi.

        A point entry (mid == lo == hi) gets an exact zero radius.
        """
        m = self.mid() if mid is None else mid
        r = np.maximum(m - self.lo, self.hi - m)
        # a rounded difference is zero only when it is exactly zero
        return np.where(r == 0.0, 0.0, _nup(r))

    def mag(self) -> np.ndarray:
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    @property
    def T(self) -> "IntervalMatrix":
        return IntervalMatrix(self.lo.T, self.hi.T)

    def entry(self, i: int, j: int) -> Interval:
        return Interval(self.lo[i, j], self.hi[i, j])

    def contains_point(self, a: np.ndarray) -> bool:
        return bool(np.all(self.lo <= a) and np.all(a <= self.hi))

    def __matmul__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        return mat_mul(self, other)

    def __sub__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        lo = _ndown(self.lo - other.hi)
        hi = _nup(self.hi - other.lo)
        return IntervalMatrix(lo, hi)

    # -- norms -------------------------------------------------------------

    def norm1_upper(self) -> float:
        m = self.mag()
        sums = np.sum(m, axis=0)
        worst = float(np.max(sums))
        return _up(_up(worst) + _sum_slack(worst, self.rows))

    def norminf_upper(self) -> float:
        m = self.mag()
        sums = np.sum(m, axis=1)
        worst = float(np.max(sums))
        return _up(_up(worst) + _sum_slack(worst, self.cols))

    def norm2_upper(self) -> float:
        return mat_norm2_upper(self)


def _gamma(k: int) -> Fraction:
    """gamma_k = k u / (1 - k u), exactly (Higham, ch. 3)."""
    return k * _U / (1 - k * _U)


def mid_rad(a: IntervalMatrix):
    """(mid, rad) of a; rad is None for a point matrix, whose radius is zero."""
    if np.array_equal(a.lo, a.hi):
        return a.lo, None
    m = a.mid()
    return m, a.rad(m)


@np.errstate(over="ignore", invalid="ignore")  # overflowed entries become [-inf, inf]
def mat_mul(a: IntervalMatrix, b: IntervalMatrix) -> IntervalMatrix:
    """Interval matrix product with entrywise containment, in midpoint-radius form.

    With A in <Am, Ar> and B in <Bm, Br> and inner dimension p, every product
    of members lies within |Am| Br + Ar (|Bm| + Br) of Am Bm.  The midpoint
    C = fl(Am Bm) is one gemm, whose error is at most gamma_p |Am||Bm| plus
    p 2^-1074 for underflow, for any summation order, blocking and FMA
    (Higham, ch. 3; Rump, BIT 39, 1999; Ozaki, Ogita, Oishi and Rump, JCAM 236,
    2012).  The radius gemms are nonnegative, so the same a-priori bounds
    turn their rounded values, and the rounded elementwise sums that combine
    them, into an upper bound by one scalar factor.  A point operand has a
    zero radius, and its radius gemm is skipped.  Entries where anything
    overflows become [-inf, inf].
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    p = a.cols
    am, ar = mid_rad(a)
    bm, br = mid_rad(b)
    c = am @ bm
    am = np.abs(am)
    bm = np.abs(bm)
    # rad = g |Am||Bm| + |Am| Br + Ar (|Bm| + Br), rounded to nearest, with
    # g >= gamma_p.  Every term is nonnegative.  Exact gemms are at most
    # (rounded gemm + p eta) / (1 - gamma_p), and |Bm| + Br at most its
    # rounded sum / (1 - u); _outward covers both.
    g = _gamma(p)
    rad = am @ bm
    rad *= _up(float(g))
    tmp = np.empty_like(rad)
    if br is not None:
        np.matmul(am, br, out=tmp)
        rad += tmp
        bm += br
    del am, br
    if ar is not None:
        np.matmul(ar, bm, out=tmp)
        rad += tmp
    del tmp, ar, bm
    return IntervalMatrix(*_outward(c, rad, p, g))


@np.errstate(over="ignore", invalid="ignore")  # overflowed entries become [-inf, inf]
def sum_enclosure(mid_sum, abs_sum, rad_sum=None, *, terms: int):
    """(lo, hi) enclosing each exact sum of interval terms t_i +- r_i, from
    float evaluations S of sum t_i, A of sum |t_i| and R of sum r_i (None
    when every r_i is zero).  The arguments are overwritten.

    terms bounds the factors (1 + delta)^(+-1), |delta| <= u, that a term
    meets on its way into S, A or R: n - 1 for a sum of n terms in any
    order, plus one per rounded product and one per float weight within
    one rounding of exact.  By Higham's lemma 3.1 the radius gamma_terms A
    + R, which _outward rounds up, then holds up to underflow.
    """
    g = _gamma(terms)
    rad = abs_sum
    rad *= _up(float(g))
    if rad_sum is not None:
        rad += rad_sum
    return _outward(mid_sum, rad, terms, g)


def _outward(c, rad, p: int, g: Fraction):
    """[c - r, c + r] rounded outward, overwriting c and rad; entries where
    anything overflows become [-inf, inf].

    The rounding budget: rad combines, by at most four roundings,
    nonnegative float quantities, each at least (1 - g)(1 - u) times the
    exact one it bounds, less underflow.  g >= gamma_k covers k factors
    (1 + delta)^(+-1): a sum of at most p terms, plus, where the caller
    scales by float weights (1/c_k, or c_k and c_ell 2^-d / kappa_ell),
    their errors and products.  1 - u covers |Bm| + Br, and 1 - gamma_6 the
    four roundings and the two below.  The constant covers the underflow
    of three sums of at most p products and of a few more products.
    """
    rad += (4 * p + 16) * _ETA
    rad *= _up(float(1 / ((1 - g) * (1 - _U) * (1 - _gamma(6)))))
    lo = c - rad
    np.add(c, rad, out=c)
    del rad
    np.nextafter(lo, -_INF, out=lo)
    np.nextafter(c, _INF, out=c)
    bad = ~(np.isfinite(lo) & np.isfinite(c))
    if bad.any():
        lo[bad] = -_INF
        c[bad] = _INF
    return lo, c


def mat_sub_identity(a: IntervalMatrix) -> IntervalMatrix:
    n = min(a.shape)
    lo = a.lo.copy()
    hi = a.hi.copy()
    idx = np.arange(n)
    alo = lo[idx, idx]
    ahi = hi[idx, idx]
    slo = alo - 1.0
    shi = ahi - 1.0
    lo_exact = ((slo - alo) == -1.0) & ((slo + 1.0) == alo)
    hi_exact = ((shi - ahi) == -1.0) & ((shi + 1.0) == ahi)
    lo[idx, idx] = np.where(lo_exact, slo, _ndown(slo))
    hi[idx, idx] = np.where(hi_exact, shi, _nup(shi))
    return IntervalMatrix(lo, hi)


def _sqrt_up(x: float) -> float:
    return _up(math.sqrt(x))


def _mul_up(a: float, b: float) -> float:
    return _up(a * b)


def _cholesky_shift(n: int, norm_bound: float) -> float:
    # covers the backward error of (blocked) floating Cholesky on n x n input
    # whose diagonal is at most norm_bound
    g = (n + 1) * _EPS / (1.0 - (n + 1) * _EPS)
    return (2.0 * n * g + 8.0 * _EPS) * norm_bound


def _cheap_norm2_upper(a: IntervalMatrix) -> float:
    """sqrt(||A||_1 ||A||_inf), an upper bound on ||A||_2 for every member."""
    return _sqrt_up(_mul_up(a.norm1_upper(), a.norminf_upper()))


def _mirror_lower(x: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower triangle is that of x (exact)."""
    return np.tril(x) + np.tril(x, -1).T


def mat_norm2_upper(a: IntervalMatrix) -> float:
    """Rigorous upper bound on the spectral norm of every member of a.

    The smaller of the cheap bound sqrt(||A||_1 ||A||_inf) and one
    shifted-Cholesky certificate for lambda_max(A^T A) (Rump, "Verification
    of positive definiteness", BIT 46, 2006).  With the lower triangles of
    the enclosure of A^T A mirrored, its midpoint Gm is within ||Gr||_inf of
    every (symmetric) member in the 2-norm, Gr being the radius.  If floating
    Cholesky succeeds on X = c I - Gm, with c the eigvalsh estimate of
    lambda_max(Gm) plus the backward-error term, then X + beta I is positive
    semidefinite for the backward-error term beta of X, and lambda_max(A^T A)
    <= max_i (X_ii + Gm_ii) + beta + ||Gr||_inf.  If it fails, the cheap
    bound stands.
    """
    cheap = _cheap_norm2_upper(a)
    if cheap == _INF:
        return cheap
    n = a.cols
    g = mat_mul(a.T, a)
    gm = _mirror_lower(g.mid())
    gr = _mirror_lower(g.rad())
    spread = IntervalMatrix(gr, gr).norminf_upper()
    del g, gr
    x = -gm
    d = np.arange(n)
    try:
        lam = float(np.linalg.eigvalsh(gm)[-1])
        x[d, d] += lam + _cholesky_shift(n, abs(lam) + float(np.max(np.abs(gm[d, d]))))
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return cheap
    beta = _cholesky_shift(n, float(np.max(x[d, d])))
    top = float(np.max(_nup(x[d, d] + gm[d, d])))
    bound = _sqrt_up(_up(_up(top + beta) + spread))
    # also the fallback when anything was not finite (a NaN compares false)
    return bound if bound < cheap else cheap


def mat_inverse_norm2_upper(a: IntervalMatrix):
    """Certified upper bound for ||A^{-1}||_2 via an approximate inverse.

    Computes a floating inverse C of mid(A), encloses E = C*A - I, and if
    ||E|| = e < 1 returns (||C|| / (1 - e), e, ||C||).  Raises
    IntervalDomainError when the defect cannot be certified below one.
    """
    mid = a.mid()
    try:
        c = np.linalg.inv(mid)
    except np.linalg.LinAlgError as exc:
        raise IntervalDomainError(f"approximate inverse failed: {exc}") from exc
    cm = IntervalMatrix.from_point(c)
    e = _cheap_norm2_upper(mat_sub_identity(mat_mul(cm, a)))
    if e >= 1.0:
        raise IntervalDomainError(
            f"finite inverse not certified: ||C*A - I|| bound {e:.3g} >= 1"
        )
    c_norm = mat_norm2_upper(cm)
    bound = _up(_up(c_norm) / _down(1.0 - e))
    return bound, e, c_norm
