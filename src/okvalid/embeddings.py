"""Rigorous Sobolev embedding and Banach algebra constants.

The sup-norm and product-norm constants for dimensions 1-3 are compiled in
(they are established elsewhere by verified computation); the zero-mean
sup-norm constant has a closed lattice-sum form and is recomputed here from
an interval finite sum plus an integral-comparison tail bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .intervals import _EPS, Interval, PI, PI2, PI4, _down, _up

_SQRT2 = Interval(2.0).sqrt()
_SQRT3 = Interval(3.0).sqrt()


@dataclass(frozen=True)
class EmbeddingConstants:
    """Upper bounds for the embedding inequalities on the unit cube.

    cm      : ||u||_inf     <= cm * ||u||_H2
    cm_bar  : ||u||_inf     <= cm_bar * ||u||_Hbar2   (zero-mean u)
    cb      : ||u v||_H2    <= cb * ||u||_H2 * ||v||_H2
    """

    dim: int
    cm: float
    cm_bar: float
    cb: float


_CM = {1: 1.010947, 2: 1.030255, 3: 1.081202}
_CM_BAR = {1: 0.149072, 2: 0.248740, 3: 0.411972}
_CB = {1: 1.471443, 2: 1.488231, 3: 1.554916}


@lru_cache(maxsize=None)
def table_constants(dim: int) -> EmbeddingConstants:
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    return EmbeddingConstants(
        dim=dim,
        cm=_CM[dim],
        cm_bar=_CM_BAR[dim],
        cb=_CB[dim],
    )


@lru_cache(maxsize=None)
def equiv_factor() -> Interval:
    """Enclosure of sqrt(1 + pi^4) / pi^2: ||u||_H2 <= equiv_factor() *
    ||u||_Hbar2 for zero-mean u."""
    return ((Interval(1.0) + PI4).sqrt()) / PI2


def cmbar_bytes(dim: int, ncut: int) -> int:
    """Bytes that recompute_cmbar(dim, ncut) needs: four arrays of ncut
    doubles in 1-d, ten in 2-d, and in 3-d four of the ncut^2 counts of
    sums of squares (the traced peak is 3.6 of them at ncut 100 to 600)."""
    return 8 * {1: 4 * ncut, 2: 10 * ncut, 3: 4 * ncut**2}[dim]


def _three_square_counts(n: int) -> np.ndarray:
    """r[t] for 0 <= t < n^2: the number of k in Z^3, k != 0, with |k|^2 =
    t, as exact integers.  A k >= 0 counts 2^{#nonzero k_j}, its sign
    changes: one bincount of the pairs (k1, k2) by k1^2 + k2^2 < n^2, and
    one shifted add per k3."""
    limit = n * n
    sq = np.arange(n, dtype=np.int64) ** 2
    w = np.where(sq > 0, 2.0, 1.0)
    s = np.add.outer(sq, sq)
    keep = s < limit
    s = s[keep]
    ww = np.multiply.outer(w, w)[keep]
    del keep
    r2 = np.bincount(s, ww, limit).astype(np.int64)
    del s, ww
    r3 = r2.copy()  # k3 = 0
    r2 *= 2
    for k3 in range(1, n):
        r3[k3 * k3:] += r2[: limit - k3 * k3]
    r3[0] = 0  # the origin
    return r3


def _weighted_quartic_sum(dim: int, ncut: int) -> Interval:
    """Enclosure of sum over 0 < |k| < ncut of 2^{#nonzero} |k|^{-4}.

    Every term is nonnegative, so a plain float accumulation plus a
    summation-order-independent relative slack gives a rigorous enclosure.
    """
    n = int(ncut)
    if dim == 1:
        k = np.arange(1, n, dtype=np.float64)
        total = float(np.sum(2.0 / k**4))
        depth = k.size
    elif dim == 2:
        total = 0.0
        limit = float(n) ** 2
        k2 = np.arange(0, n, dtype=np.float64)
        sq2 = k2**2
        for k1 in range(n):
            s = k1 * k1 + sq2
            mask = (s > 0.0) & (s < limit)
            w = (2.0 if k1 else 1.0) * np.where(k2 > 0, 2.0, 1.0)
            total += float(np.sum(w[mask] / s[mask] ** 2))
        depth = n * n
    elif dim == 3:
        r3 = _three_square_counts(n)
        inv = np.arange(r3.size, dtype=np.float64)
        inv[0] = 1.0
        inv *= inv
        np.divide(1.0, inv, out=inv)
        total = float(np.dot(r3, inv))
        # a dot of n^2 terms, each within three roundings (t^2, exact up to
        # t = 2^26, 1/t^2 and the product with a count)
        depth = r3.size + 3
    else:
        raise ValueError(f"unsupported dimension {dim}")
    rel = (depth + 64) * _EPS
    return Interval(_down(total * (1.0 - rel)), _up(total * (1.0 + rel)))


def _quartic_tail_bound(dim: int, ncut: int) -> Interval:
    """Upper bound for sum over |k| >= ncut of |k|^{-4} by integral comparison.

    Unit cells below each lattice point lie inside the orthant annulus
    |x| >= ncut - sqrt(d); low-dimensional faces are handled recursively.
    """
    n = Interval(float(ncut))
    # axis tail: sum_{k>=n} k^-4 <= n^-4 + n^-3 / 3
    axis = n ** -4 + (n ** -3) / Interval(3.0)
    if dim == 1:
        return axis
    interior2 = PI / ((n - _SQRT2).square() * Interval(4.0))
    if dim == 2:
        return interior2 + axis * Interval(2.0)
    interior3 = PI / ((n - _SQRT3) * Interval(2.0))
    return interior3 + interior2 * Interval(3.0) + axis * Interval(3.0)


@lru_cache(maxsize=None)
def recompute_cmbar(dim: int, ncut: int = 1000) -> Interval:
    """Enclosure of (sum_{|k|>0} c_k^2 kappa_k^{-2})^{1/2}.

    Finite part over 0 < |k| < ncut plus a rigorous tail; c_k^2 <= 2^dim is
    used on the tail.  The interval brackets the true constant; the upper end
    is itself a valid embedding constant.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    if ncut < 2:
        raise ValueError("ncut must be >= 2")
    finite = _weighted_quartic_sum(dim, ncut)
    tail = _quartic_tail_bound(dim, ncut) * Interval(float(2**dim))
    inv_pi4 = Interval(1.0) / PI4
    lower_sq = (finite * inv_pi4).lo
    upper_sq = ((finite + tail) * inv_pi4).hi
    return Interval(max(lower_sq, 0.0), upper_sq).sqrt()
