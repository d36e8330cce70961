"""Test-side ball, interval and series helpers that the program itself does
not need.

The entrywise ball matrix product mat_mul and mat_sub_identity form the
defect C A - I as an m x m ball matrix, the form that the certified norm
bounds in okvalid.intervals avoid: they are the oracle that the row and
column sums there are checked against.  norm2_upper bounds the spectral
norm of every member of a ball matrix, the program's Gram certificate on a
ball spread, and truncation_modes lists the modes of the full Galerkin
matrix, in the order of the blocks' cells.
"""

from __future__ import annotations

import numpy as np

from okvalid.intervals import (
    BallMatrix,
    Interval,
    _ball_up,
    _gamma,
    _gram_norm2_upper,
    _max_sum_upper,
    _norm2_from_sums,
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


def point_matrix(a) -> BallMatrix:
    """The point matrix a itself, not a copy, with a zero radius."""
    a = np.asarray(a, dtype=np.float64)
    return BallMatrix(a, np.broadcast_to(0.0, a.shape))


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
    if a.mid.shape[1] != b.mid.shape[0]:
        raise ValueError(f"dimension mismatch: {a.mid.shape} @ {b.mid.shape}")
    p = a.mid.shape[1]
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
    d = np.arange(min(a.mid.shape))
    mid[d, d], rad[d, d] = ball_add(mid[d, d], rad[d, d], -1.0, 0.0)
    return BallMatrix(mid, rad)


def magnitude(a: BallMatrix) -> np.ndarray:
    """fl(|mid| + rad): each entry within one rounding of its largest |X|."""
    return np.abs(a.mid) + a.rad


def cheap_norm2_upper(a: BallMatrix) -> float:
    """sqrt(||A||_1 ||A||_inf), an upper bound on ||A||_2 for every member."""
    mag = magnitude(a)
    return _norm2_from_sums(mag.sum(axis=1), mag.sum(axis=0), max(a.mid.shape))


@np.errstate(over="ignore", invalid="ignore")  # an overflow gives an infinite bound
def gram_spread(a: BallMatrix) -> float:
    """Upper bound on ||Gr||_2, where every member of A^T A lies within Gr =
    g |Am|^T |Am| + |Am|^T Ar + Ar^T (|Am| + Ar) of fl(Am^T Am), g = gamma_r
    for r rows, up to underflow (Rump, BIT 39, 1999): the largest row sum
    of the symmetric nonnegative Gr, as matrix-vector products."""
    r, n = a.mid.shape
    am = np.abs(a.mid)
    s = am.T @ am.sum(axis=1)
    s *= _up(float(_gamma(r)))
    s += am.T @ a.rad.sum(axis=1)
    s += a.rad.T @ magnitude(a).sum(axis=1)
    return _max_sum_upper(s, r + n, n, r)


def norm2_upper(a: BallMatrix) -> float:
    """Upper bound on the spectral norm of every member of a: the smaller of
    sqrt(||A||_1 ||A||_inf) and the Gram certificate on gram_spread."""
    return min(cheap_norm2_upper(a), _gram_norm2_upper(a.mid.T @ a.mid, gram_spread(a)))


def truncation_modes(dim: int, n: int) -> np.ndarray:
    """Multi-indices with 0 < |k|_inf < n in lexicographic order, shape (n^d-1, d):
    row i is the mode of cell i + 1 of the n^d grid."""
    return np.ascontiguousarray(np.indices((n,) * dim).reshape(dim, -1).T[1:])


def block_modes(block) -> np.ndarray:
    """The multi-indices of a ParityBlock's modes, in its order."""
    shape = (block.n,) * len(block.axes)
    return np.stack(np.unravel_index(block.cells(), shape), axis=1)
