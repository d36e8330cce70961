"""Lipschitz constants for single-parameter continuation in lam, sigma, or mu.

For a reference pair (p*, u*) and box radii (dp, du) these bounds control how
much the derivative of the equilibrium operator can move inside the box; they
feed directly into the certificate inequalities.  Polynomial range maxima are
bounded rigorously by interval evaluation on subdivisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import table_constants
from .intervals import PI2, PI4, Interval
from .operator import ModelParams, fprime_series
from .series import CosineSeries, sup_bound


@dataclass(frozen=True)
class ContinuationChoice:
    """Which parameter varies, and the box radii the bounds must cover."""

    which: str  # "lambda" | "sigma" | "mu"
    dp: float  # parameter box radius
    du: float  # solution box radius in the H-bar-2 norm

    def __post_init__(self):
        if self.which not in ("lambda", "sigma", "mu"):
            raise ValueError(f"unknown continuation parameter {self.which!r}")
        if not (self.dp > 0 and np.isfinite(self.dp)):
            raise ValueError("dp must be finite and positive")
        if not (self.du > 0 and np.isfinite(self.du)):
            raise ValueError("du must be finite and positive")


@dataclass(frozen=True)
class LipschitzBounds:
    """Constants for the two local Lipschitz hypotheses.

    l1, l2 bound the variation of the u-derivative; l3, l4 bound the
    parameter derivative.  fmax1/fmax2 are the polynomial range maxima that
    entered the formulas (zero when unused by the parameter in question).
    """

    l1: float
    l2: float
    l3: float
    l4: float
    fmax1: float = 0.0
    fmax2: float = 0.0


def poly_range_max(
    coeffs, radius: float, rel_tol: float = 1e-3, max_pieces: int = 4096
) -> float:
    """Rigorous upper bound of max_{|x| <= radius} |g(x)| for a polynomial g.

    Interval Horner evaluation on a uniform subdivision, refined until the
    bound improves by less than rel_tol relative (or the piece cap is hit).
    The returned value is an upper bound at every refinement level.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    cs = [c if isinstance(c, Interval) else Interval(float(c)) for c in coeffs]
    if not cs:
        return 0.0

    def horner(x: Interval) -> Interval:
        acc = Interval(0.0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    if radius == 0.0 or len(cs) == 1:
        return abs(horner(Interval(0.0) if radius == 0.0 else Interval(-radius, radius))).hi

    pieces = 1
    prev = float("inf")
    while True:
        xs = np.linspace(-radius, radius, pieces + 1)
        cur = 0.0
        for i in range(pieces):
            cell = Interval(min(xs[i], xs[i + 1]), max(xs[i], xs[i + 1]))
            cur = max(cur, abs(horner(cell)).hi)
        if pieces >= max_pieces or (prev - cur) <= rel_tol * max(cur, 1e-300):
            return cur
        prev = cur
        pieces *= 2


def poly_shift(coeffs, shift: float):
    """Interval coefficients of g(x) = f(x + shift) (Taylor shift)."""
    out = [c if isinstance(c, Interval) else Interval(float(c)) for c in coeffs]
    s = Interval(float(shift))
    n = len(out)
    for k in range(n - 1):
        for j in range(n - 2, k - 1, -1):
            out[j] = out[j] + s * out[j + 1]
    return out


def _f_range_radius(u: CosineSeries, du: float, include_mean: float | None = None, extra: float = 0.0) -> float:
    """Upper bound for the sup of admissible arguments of the nonlinearity."""
    cm_bar = table_constants(u.dim).cm_bar
    base = u if include_mean is None else u.add_constant(include_mean)
    r = sup_bound(base) + Interval(cm_bar) * Interval(du) + Interval(extra)
    return r.hi


def bounds_lambda(
    p: ModelParams, u: CosineSeries, c: ContinuationChoice, fprime: CosineSeries | None = None
) -> LipschitzBounds:
    """fprime, when given, is fprime_series(p, u)."""
    if c.which != "lambda":
        raise ValueError("continuation choice must vary lambda")
    if fprime is None:
        fprime = fprime_series(p, u)
    consts = table_constants(u.dim)
    radius = _f_range_radius(u, c.du)
    fmax1 = poly_range_max(poly_shift(p.fp_coeffs, p.mu), radius)
    fmax2 = poly_range_max(poly_shift(p.fpp_coeffs, p.mu), radius)
    fprime_sup = sup_bound(fprime).hi
    lam_reach = abs(Interval(p.lam)) + Interval(c.dp)
    l1 = (Interval(consts.cm_bar) * Interval(fmax2) * lam_reach / PI2).hi
    l2 = (Interval(fprime_sup) / PI2 + Interval(p.sigma) / PI4).hi
    l3 = (Interval(fmax1) / PI2 + Interval(p.sigma) / PI4).hi
    return LipschitzBounds(l1=l1, l2=l2, l3=l3, l4=0.0, fmax1=fmax1, fmax2=fmax2)


def bounds_sigma(p: ModelParams, u: CosineSeries, c: ContinuationChoice) -> LipschitzBounds:
    if c.which != "sigma":
        raise ValueError("continuation choice must vary sigma")
    consts = table_constants(u.dim)
    radius = _f_range_radius(u, c.du)
    fmax2 = poly_range_max(poly_shift(p.fpp_coeffs, p.mu), radius)
    l1 = (Interval(p.lam) * Interval(fmax2) * Interval(consts.cm_bar) / PI2).hi
    l23 = (Interval(p.lam) / PI4).hi
    return LipschitzBounds(l1=l1, l2=l23, l3=l23, l4=0.0, fmax2=fmax2)


def bounds_mu(p: ModelParams, u: CosineSeries, c: ContinuationChoice) -> LipschitzBounds:
    if c.which != "mu":
        raise ValueError("continuation choice must vary mu")
    consts = table_constants(u.dim)
    # the range must cover u* + mu* itself, the u-box, and the mu-box
    radius = _f_range_radius(u, c.du, include_mean=p.mu, extra=c.dp)
    fmax2 = poly_range_max(p.fpp_coeffs, radius)
    lam_f = Interval(p.lam) * Interval(fmax2)
    l1 = (lam_f * Interval(consts.cm_bar) / PI2).hi
    l23 = (lam_f / PI2).hi
    return LipschitzBounds(l1=l1, l2=l23, l3=l23, l4=lam_f.hi, fmax2=fmax2)


def lipschitz_bounds(
    p: ModelParams, u: CosineSeries, c: ContinuationChoice, fprime: CosineSeries | None = None
) -> LipschitzBounds:
    """The bounds for c.which; fprime (fprime_series(p, u)) spares the lambda
    bounds recomputing it."""
    if c.which == "lambda":
        return bounds_lambda(p, u, c, fprime)
    return {"sigma": bounds_sigma, "mu": bounds_mu}[c.which](p, u, c)
