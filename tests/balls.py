"""Test-side ball, interval and series helpers that the program itself does
not need.

The entrywise ball matrix product mat_mul and mat_sub_identity form the
defect C A - I as an m x m ball matrix, the form that the certified norm
bounds in okvalid.intervals avoid: they are the oracle that the row and
column sums there are checked against.
"""

from __future__ import annotations

import numpy as np

from okvalid.intervals import (
    BallMatrix,
    Interval,
    _ball_up,
    _gamma,
    _up,
    ball_add,
    mid_rad,
)
from okvalid.series import CosineSeries


def width(iv: Interval) -> float:
    return iv.hi - iv.lo


def contains(iv: Interval, x) -> bool:
    """Whether iv holds the interval or the number x."""
    if isinstance(x, Interval):
        return iv.lo <= x.lo and x.hi <= iv.hi
    return iv.lo <= x <= iv.hi


def ball_hull(lo, hi) -> BallMatrix:
    """Balls enclosing the interval matrix [lo, hi]."""
    return BallMatrix(*mid_rad(lo, hi))


def hull(lo, hi) -> CosineSeries:
    """The series of balls enclosing the interval coefficients [lo, hi]."""
    return CosineSeries(*mid_rad(lo, hi))


def single_mode(extent, k, amplitude: float = 1.0) -> CosineSeries:
    """The point series amplitude phi_k in the given extent."""
    u = CosineSeries.zeros(extent)
    u.center[tuple(int(ki) for ki in k)] = amplitude
    return u


def transpose(a: BallMatrix) -> BallMatrix:
    return BallMatrix(a.mid.T, a.rad.T)


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


def mat_sub_identity(a: BallMatrix) -> BallMatrix:
    """a - I, its diagonal by ball_add; inside [0.5, 2] the subtraction is
    exact (Sterbenz)."""
    mid = a.mid.copy()
    rad = a.rad.copy()
    d = np.arange(min(a.shape))
    mid[d, d], rad[d, d] = ball_add(mid[d, d], rad[d, d], -1.0, 0.0)
    return BallMatrix(mid, rad)
