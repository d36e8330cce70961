"""The scalar Interval arithmetic as it was written before its operations
were inlined: each operation through the helpers _coerce, _small_int,
_prod_is_exact and _extremum.  The program does not need it; it is the
reference that okvalid.intervals.Interval is compared with, bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from okvalid.intervals import IntervalDomainError

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _sum_is_exact(a: float, b: float, s: float) -> bool:
    # Fast2Sum error recovery: both orderings agree iff fl(a+b) == a+b.
    return (s - a) == b and (s - b) == a


def _small_int(x: float) -> bool:
    # an integer of magnitude at most 2^26; the product, square and
    # square-root exactness tests below only look at these, and a miss only
    # widens
    return -67108864.0 <= x <= 67108864.0 and x.is_integer()


def _prod_is_exact(a: float, b: float) -> bool:
    # fl(a b) = a b when a factor is 0, or when both are small integers:
    # their product is an integer of magnitude at most 2^52, a double
    return a == 0.0 or b == 0.0 or (_small_int(a) and _small_int(b))


def _quot_is_exact(a: float, b: float, q: float) -> bool:
    # q = fl(a / b) is a / b only where fl(q b) = a, which rejects some
    # inexact quotients cheaply; the rationals then decide
    if b == 0.0:
        return False
    if a == 0.0:
        return True
    return math.isfinite(a) and q * b == a and Fraction(a) / Fraction(b) == Fraction(q)


def _add_down(a: float, b: float) -> float:
    s = a + b
    return s if _sum_is_exact(a, b, s) else _down(s)


def _add_up(a: float, b: float) -> float:
    s = a + b
    return s if _sum_is_exact(a, b, s) else _up(s)



class RefInterval:
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
        return f"RefInterval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, RefInterval):
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "RefInterval":
        if isinstance(x, RefInterval):
            return x
        return RefInterval(float(x), float(x))

    def __neg__(self) -> "RefInterval":
        return RefInterval(-self.hi, -self.lo)

    def __abs__(self) -> "RefInterval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return RefInterval(0.0, max(-self.lo, self.hi))

    def __add__(self, other) -> "RefInterval":
        o = self._coerce(other)
        return RefInterval(_add_down(self.lo, o.lo), _add_up(self.hi, o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "RefInterval":
        o = self._coerce(other)
        return RefInterval(_add_down(self.lo, -o.hi), _add_up(self.hi, -o.lo))

    def __rsub__(self, other) -> "RefInterval":
        return self._coerce(other) - self

    @staticmethod
    def _extremum(cands, prods, pick_min: bool) -> float:
        m = min(prods) if pick_min else max(prods)
        exact = all(_prod_is_exact(x, y) for (x, y), p in zip(cands, prods) if p == m)
        if exact:
            return m
        return _down(m) if pick_min else _up(m)

    def __mul__(self, other) -> "RefInterval":
        o = self._coerce(other)
        a, b, c, d = self.lo, self.hi, o.lo, o.hi
        if a and b and c and d and not (
            (_small_int(a) or _small_int(b)) and (_small_int(c) or _small_int(d))
        ):
            # no candidate can be exact: no zero endpoint, and no pair of
            # small integers; nor can one be NaN
            ac, ad, bc, bd = a * c, a * d, b * c, b * d
            return _unchecked(_down(min(ac, ad, bc, bd)), _up(max(ac, ad, bc, bd)))
        cands = ((a, c), (a, d), (b, c), (b, d))
        # 0 times an infinite endpoint is NaN in float; the members are
        # finite, so their products with 0 are 0
        prods = tuple(0.0 if math.isnan(p) else p for p in (x * y for x, y in cands))
        return RefInterval(
            self._extremum(cands, prods, True),
            self._extremum(cands, prods, False),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RefInterval":
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
        return RefInterval(lo if lo_exact else _down(lo), hi if hi_exact else _up(hi))

    def __rtruediv__(self, other) -> "RefInterval":
        return self._coerce(other) / self

    def square(self) -> "RefInterval":
        mag = abs(self)
        a, b = mag.lo, mag.hi
        plo = a * a
        phi = b * b
        lo = plo if _prod_is_exact(a, a) else max(_down(plo), 0.0)
        hi = phi if _prod_is_exact(b, b) else _up(phi)
        return RefInterval(lo, hi)

    def __pow__(self, n: int) -> "RefInterval":
        if not isinstance(n, int):
            raise TypeError("interval powers are integer only")
        if n < 0:
            return RefInterval(1.0) / self ** (-n)
        if n == 0:
            return RefInterval(1.0)
        if n == 1:
            return self
        half = self ** (n // 2)
        out = half.square()
        return out * self if n % 2 else out

    def sqrt(self) -> "RefInterval":
        if self.lo < 0.0:
            raise IntervalDomainError(f"sqrt of interval with negative part: {self}")
        slo = math.sqrt(self.lo)
        shi = math.sqrt(self.hi)
        lo = slo if _small_int(slo) and slo * slo == self.lo else max(_down(slo), 0.0)
        hi = shi if _small_int(shi) and shi * shi == self.hi else _up(shi)
        return RefInterval(lo, hi)


def _unchecked(lo: float, hi: float) -> RefInterval:
    """The RefInterval [lo, hi] of ends known to be ordered floats, not NaN."""
    out = object.__new__(RefInterval)
    out.lo = lo
    out.hi = hi
    return out
