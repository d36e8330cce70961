import math

import mpmath
import numpy as np
import pytest

from conftest import galerkin_full, lin_of, make_random_series
from okvalid.lipschitz import (
    ContinuationChoice,
    lipschitz_bounds,
    poly_range_max,
    poly_shift,
    solution_sups,
)
from okvalid.operator import ModelParams, ball_powers, fprime_series
from okvalid.series import CosineSeries, norm, sup_bound


# ---------------------------------------------------------------------------
# polynomial range bounds
# ---------------------------------------------------------------------------

def test_range_linear():
    # |f''| of the cubic: |-6 rho| on [-1/2, 1/2] peaks at 3
    top = poly_range_max((0.0, -6.0), 0.5)
    assert 3.0 <= top <= 3.0 * (1 + 2e-3)


def test_range_constant():
    assert poly_range_max((-2.5,), 7.0) == 2.5
    assert poly_range_max((), 1.0) == 0.0


def test_range_even_poly():
    top = poly_range_max((1.0, 0.0, -3.0), 2.0)
    assert 11.0 <= top <= 11.0 * (1 + 2e-3)


def test_range_interior_maximum():
    # g(x) = 1 - x^2 on [-2, 2]: |g| max is 3 at the ends, but on [-0.5, 0.5]
    # the max 1 sits at the interior point 0
    top = poly_range_max((1.0, 0.0, -1.0), 0.5)
    assert 1.0 <= top <= 1.0 * (1 + 2e-3)


def test_range_zero_radius():
    assert poly_range_max((4.0, 1.0), 0.0) == 4.0


def test_poly_shift():
    shifted = poly_shift((0.0, 1.0, 0.0, -1.0), 0.5)  # f(x + 1/2) for f = x - x^3
    x = 0.3
    direct = (x + 0.5) - (x + 0.5) ** 3
    val = sum(0.5 * (c.lo + c.hi) * x**j for j, c in enumerate(shifted))
    assert abs(val - direct) < 1e-12


# ---------------------------------------------------------------------------
# the three parameter variations
# ---------------------------------------------------------------------------

def _sups(p, u):
    powers = ball_powers(p, u)
    return solution_sups(u, powers, fprime_series(p, u, powers))


def test_choice_validation():
    with pytest.raises(ValueError):
        ContinuationChoice("nu", 0.1, 0.1)
    with pytest.raises(ValueError):
        ContinuationChoice("lambda", -0.1, 0.1)


def test_lambda_trivial_state():
    p = ModelParams(lam=1.0, sigma=0.0, mu=0.0)
    u = CosineSeries.zeros((2,))
    lb = lipschitz_bounds(p, ContinuationChoice("lambda", 0.1, 0.1), _sups(p, u))
    # f'(0) = 1, so l2 = 1/pi^2 up to the range slack
    assert lb.l2 == pytest.approx(1 / math.pi**2, rel=1e-9)
    assert lb.l4 == 0.0
    assert lb.l3 >= lb.l2 * (1 - 1e-12)


def test_lambda_sigma_term():
    p = ModelParams(lam=1.0, sigma=6.0, mu=0.0)
    u = CosineSeries.zeros((2,))
    lb = lipschitz_bounds(p, ContinuationChoice("lambda", 0.1, 0.1), _sups(p, u))
    p0 = ModelParams(lam=1.0, sigma=0.0, mu=0.0)
    base = lipschitz_bounds(p0, ContinuationChoice("lambda", 0.1, 0.1), _sups(p0, u))
    assert lb.l3 - base.l3 == pytest.approx(6 / math.pi**4, rel=1e-9)


def test_sigma_constants():
    p = ModelParams(lam=150.0, sigma=6.0, mu=0.0)
    u = CosineSeries.zeros((2,))
    lb = lipschitz_bounds(p, ContinuationChoice("sigma", 0.1, 0.1), _sups(p, u))
    assert lb.l2 == pytest.approx(150 / math.pi**4, rel=1e-9)
    assert lb.l3 == lb.l2
    assert lb.l4 == 0.0


def test_sigma_linear_f():
    p = ModelParams(lam=150.0, sigma=6.0, mu=0.0, f_coeffs=(0.0, 1.0))
    u = CosineSeries.zeros((2,))
    lb = lipschitz_bounds(p, ContinuationChoice("sigma", 0.1, 0.1), _sups(p, u))
    assert lb.l1 == 0.0


def test_mu_example():
    p = ModelParams(lam=1.0, sigma=0.0, mu=0.0)
    u = CosineSeries.zeros((2,))
    lb = lipschitz_bounds(p, ContinuationChoice("mu", 0.01, 0.1), _sups(p, u))
    radius = 0.149072 * 0.1 + 0.01
    assert lb.fmax2 == pytest.approx(6 * radius, rel=2e-3)
    assert lb.l4 == pytest.approx(1.0 * lb.fmax2, rel=1e-12)
    assert lb.l2 == lb.l3


def test_mu_linear_f():
    p = ModelParams(lam=5.0, sigma=1.0, mu=0.2, f_coeffs=(0.0, 1.0))
    u = CosineSeries.zeros((2,))
    lb = lipschitz_bounds(p, ContinuationChoice("mu", 0.1, 0.1), _sups(p, u))
    assert (lb.l1, lb.l2, lb.l3, lb.l4) == (0.0, 0.0, 0.0, 0.0)


def test_only_mu_has_l4(rng):
    p = ModelParams(lam=12.0, sigma=2.0, mu=0.1)
    u = make_random_series(rng, (5,), scale=0.3)
    sups = _sups(p, u)
    for which in ("lambda", "sigma"):
        assert lipschitz_bounds(p, ContinuationChoice(which, 0.1, 0.1), sups).l4 == 0.0
    assert lipschitz_bounds(p, ContinuationChoice("mu", 0.1, 0.1), _sups(p, u)).l4 > 0.0


def test_formulas_against_mpmath_transcription(rng):
    # independent transcription of the three constant sets for the cubic
    p = ModelParams(lam=37.0, sigma=4.0, mu=0.15)
    u = make_random_series(rng, (6,), scale=0.4)
    du, dp = 0.2, 0.3
    cmb = mpmath.mpf("0.149072")
    pi = mpmath.pi
    sup_u = mpmath.mpf(repr(__import__("okvalid.series", fromlist=["sup_bound"]).sup_bound(u).hi))
    radius = sup_u + cmb * mpmath.mpf(du)
    f1 = max(abs(1 - 3 * (r + p.mu) ** 2) for r in (-radius, radius, mpmath.mpf(0)))
    f2 = 6 * (radius + abs(mpmath.mpf(p.mu)))

    lb = lipschitz_bounds(p, ContinuationChoice("lambda", dp, du), _sups(p, u))
    ref_l1 = cmb * f2 * (p.lam + dp) / pi**2
    assert lb.l1 >= float(ref_l1) * (1 - 1e-12)
    assert lb.l1 <= float(ref_l1) * (1 + 5e-3)
    ref_l3 = f1 / pi**2 + p.sigma / pi**4
    assert lb.l3 >= float(ref_l3) * (1 - 1e-12)

    ls = lipschitz_bounds(p, ContinuationChoice("sigma", dp, du), _sups(p, u))
    assert ls.l2 == pytest.approx(float(p.lam / pi**4), rel=1e-10)
    ref_s_l1 = p.lam * f2 * cmb / pi**2
    assert ls.l1 >= float(ref_s_l1) * (1 - 5e-3) * (1 - 1e-12)

    lm = lipschitz_bounds(p, ContinuationChoice("mu", dp, du), _sups(p, u))
    sup_total = mpmath.mpf(repr(
        __import__("okvalid.series", fromlist=["sup_bound"]).sup_bound(u.add_constant(p.mu)).hi
    ))
    rad_mu = sup_total + cmb * mpmath.mpf(du) + mpmath.mpf(dp)
    ref_m4 = p.lam * 6 * rad_mu
    assert lm.l4 >= float(ref_m4) * (1 - 1e-12)
    assert lm.l4 <= float(ref_m4) * (1 + 5e-3)


def test_monotonicity_in_box(rng):
    p = ModelParams(lam=25.0, sigma=3.0, mu=0.1)
    u = make_random_series(rng, (5,), scale=0.4)
    for which in ("lambda", "sigma", "mu"):
        sups = _sups(p, u)
        small = lipschitz_bounds(p, ContinuationChoice(which, 0.05, 0.05), sups)
        large = lipschitz_bounds(p, ContinuationChoice(which, 0.5, 0.5), sups)
        for attr in ("l1", "l2", "l3", "l4"):
            assert getattr(large, attr) >= getattr(small, attr) - 1e-15


def test_finite_projection_necessary_condition(rng):
    # the Galerkin difference is controlled by l1 ||u-u*|| + l2 |p-p*|
    n = 6
    p_star = ModelParams(lam=18.0, sigma=2.0, mu=0.1)
    u_star = make_random_series(rng, (n,), scale=0.3)
    base = galerkin_full(p_star, lin_of(p_star, u_star).q, n).mid
    for which in ("lambda", "sigma", "mu"):
        du, dp = 0.2, 0.4
        lb = lipschitz_bounds(p_star, ContinuationChoice(which, dp, du), _sups(p_star, u_star))
        for _ in range(34):
            pert = make_random_series(rng, (n,), scale=1.0)
            pert_norm = norm(pert, "Hbar", 2).hi
            scale = rng.uniform(0, du) / max(pert_norm, 1e-12)
            u_new = CosineSeries.from_point(
                u_star.mid() + scale * pert.mid(), zero_mean=True
            )
            du_actual = norm(u_new - u_star, "Hbar", 2).hi
            dp_actual = float(rng.uniform(-dp, dp))
            p_new = p_star.step(which, dp_actual)
            diff = galerkin_full(p_new, lin_of(p_new, u_new).q, n).mid - base
            lhs = float(np.linalg.norm(diff, 2))
            rhs = lb.l1 * du_actual + lb.l2 * abs(dp_actual)
            assert lhs <= rhs + 1e-8


def test_solution_sups_read_u_plus_mu_from_the_powers(rng):
    p = ModelParams(lam=12.0, sigma=2.0, mu=0.1)
    u = make_random_series(rng, (5,), scale=0.3)
    sups = _sups(p, u)
    assert (sups.u, sups.u_mu) == (sup_bound(u), sup_bound(u.add_constant(p.mu)))
