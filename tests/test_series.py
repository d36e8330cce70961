import math

import numpy as np
import pytest

from conftest import eval_series_naive, gauss_rule, make_random_series
from okvalid.intervals import IntervalDomainError
from okvalid.series import (
    CosineSeries,
    evaluate,
    evaluate_grid,
    kappa,
    kappa_iv,
    laplacian,
    mode_sup,
    multiply,
    norm,
    project,
    sup_bound,
    tail,
)


# ---------------------------------------------------------------------------
# multi-index helpers
# ---------------------------------------------------------------------------

def test_kappa_values():
    assert kappa((0, 0)) == 0.0
    assert abs(kappa((1,)) - math.pi**2) < 1e-12
    assert kappa_iv((1,)).contains(math.pi**2)
    five = kappa_iv((1, 2))
    assert five.lo <= 5 * math.pi**2 <= five.hi


def test_mode_sup():
    assert mode_sup((0,)) == 1.0
    assert mode_sup((3,)) == pytest.approx(math.sqrt(2))
    assert mode_sup((1, 1, 1)) == pytest.approx(2 * math.sqrt(2))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_single_mode_norms():
    u = CosineSeries.single_mode((3,), (1,), 1.0)
    l2 = norm(u, "L2")
    assert l2.lo <= 1.0 <= l2.hi and l2.width < 1e-14
    h2 = norm(u, "Hbar", 2)
    assert h2.contains(math.pi**2)
    s = sup_bound(u)
    assert s.lo <= math.sqrt(2) <= s.hi


@pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
def test_series_rejects_nan_coefficient(lo, hi):
    a = np.zeros(4)
    b = np.ones(4)
    a[2], b[2] = lo, hi
    with pytest.raises(IntervalDomainError):
        CosineSeries(a, b)


def test_hbar_requires_zero_mean():
    u = CosineSeries.from_point(np.array([1.0, 0.5]))
    with pytest.raises(IntervalDomainError):
        norm(u, "Hbar", 2)


def test_l2_vs_quadrature(rng):
    x, w = gauss_rule(300)
    for _ in range(5):
        u = make_random_series(rng, (5,))
        vals = np.array([eval_series_naive(u.mid(), xi) for xi in x])
        quad = math.sqrt(np.sum(w * vals**2))
        l2 = norm(u, "L2")
        assert abs(0.5 * (l2.lo + l2.hi) - quad) < 1e-9


def test_parseval(rng):
    for extent in ((7,), (4, 5), (3, 3, 3)):
        for _ in range(10):
            u = make_random_series(rng, extent)
            l2 = norm(u, "L2")
            exact = math.sqrt(float(np.sum(u.mid() ** 2)))
            assert l2.lo - 1e-13 <= exact <= l2.hi + 1e-13


def test_h_norm_formula(rng):
    u = make_random_series(rng, (6,), zero_mean=False)
    h2 = norm(u, "H", 2)
    a = u.mid()
    expect = math.sqrt(sum((1 + kappa((k,)) ** 2) * a[k] ** 2 for k in range(6)))
    assert h2.lo - 1e-10 <= expect <= h2.hi + 1e-10


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------

def test_laplacian_single_mode():
    u = CosineSeries.single_mode((3,), (1,), 1.0)
    du = laplacian(u, 1)
    c = du.coefficient((1,))
    assert c.lo <= -math.pi**2 <= c.hi


def test_laplacian_roundtrip(rng):
    u = make_random_series(rng, (4, 4))
    back = laplacian(laplacian(u, 1), -1)
    assert back.contains_coeffs(u.mid()) or np.max(np.abs(back.mid() - u.mid())) < 1e-12


def test_laplacian_isometry(rng):
    for extent in ((8,), (5, 4), (3, 4, 3)):
        for _ in range(25):
            u = make_random_series(rng, extent)
            lhs = norm(laplacian(u, 1), "Hbar", 0)
            rhs = norm(u, "Hbar", 2)
            assert max(lhs.lo, rhs.lo) <= min(lhs.hi, rhs.hi)


def test_laplacian_inverse_needs_zero_mean():
    u = CosineSeries.from_point(np.array([1.0, 2.0]))
    with pytest.raises(IntervalDomainError):
        laplacian(u, -1)


def test_laplacian_kills_mean():
    u = CosineSeries.from_point(np.array([3.0, 1.0]))
    du = laplacian(u, 1)
    assert du.zero_mean and du.coefficient((0,)).mag == 0.0


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_project_idempotent(rng):
    u = make_random_series(rng, (9,))
    p1 = project(u, 4)
    p2 = project(p1, 4)
    assert np.array_equal(p1.lo, p2.lo) and np.array_equal(p1.hi, p2.hi)


def test_project_contraction(rng):
    for _ in range(20):
        u = make_random_series(rng, (6, 6))
        pn = project(u, 3)
        for space, ell in (("L2", 0), ("Hbar", 2), ("Hbar", -1)):
            np_norm = norm(pn, space, ell)
            full = norm(u, space, ell)
            assert np_norm.lo <= full.hi + 1e-15


def test_tail_bound_lemma(rng):
    # ||(I-P_N)u|| in the weaker norm <= ||u||_m / (pi N)^(m-l)
    for extent in ((9,), (6, 6)):
        for n in (2, 4, 8):
            for ell, m in ((-2, 0), (0, 2), (-2, 2), (1, 2)):
                for _ in range(10):
                    u = make_random_series(rng, extent)
                    t = tail(u, n)
                    lhs = norm(t, "Hbar", ell)
                    rhs = norm(u, "Hbar", m)
                    factor = (math.pi * n) ** (m - ell)
                    assert lhs.lo <= rhs.hi / factor + 1e-13


def test_scale_lemma(rng):
    # || u ||_l <= pi^(l-m) || u ||_m for l <= m
    for _ in range(50):
        u = make_random_series(rng, (7,))
        for ell in range(-2, 3):
            for m in range(ell, 3):
                lhs = norm(u, "Hbar", ell)
                rhs = norm(u, "Hbar", m)
                assert lhs.lo <= rhs.hi / math.pi ** (m - ell) + 1e-13


def test_tail_plus_project_is_identity(rng):
    u = make_random_series(rng, (6, 5))
    s = project(u, 3).pad_to(u.extent) + tail(u, 3)
    assert np.max(np.abs(s.mid() - u.mid())) < 1e-15


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_multiply_by_one(rng):
    one = CosineSeries.from_point(np.ones((1,)))
    u = make_random_series(rng, (6,))
    w = multiply(u, one)
    assert w.contains_coeffs(u.mid())
    assert w.width() < 1e-13


def test_phi1_squared():
    u = CosineSeries.single_mode((2,), (1,), 1.0)
    w = multiply(u, u)
    # cos^2(pi x) = 1/2 + cos(2 pi x)/2, in the normalized basis: phi_0 + phi_2/sqrt(2)
    assert w.coefficient((0,)).contains(1.0) or abs(0.5 * (w.coefficient((0,)).lo + w.coefficient((0,)).hi) - 1.0) < 1e-14
    c2 = w.coefficient((2,))
    assert c2.lo <= 1 / math.sqrt(2) <= c2.hi
    c1 = w.coefficient((1,))
    assert c1.mag < 1e-15


def test_multiply_commutative(rng):
    u = make_random_series(rng, (5,))
    v = make_random_series(rng, (7,), zero_mean=False)
    uv = multiply(u, v)
    vu = multiply(v, u)
    assert np.array_equal(uv.lo, vu.lo) and np.array_equal(uv.hi, vu.hi)


@pytest.mark.parametrize("extent_u,extent_v", [((4,), (5,)), ((3, 3), (2, 4))])
def test_multiply_vs_quadrature(rng, extent_u, extent_v):
    dim = len(extent_u)
    x, w = gauss_rule(80)
    if dim == 1:
        grids = [x]
        weights = w
    else:
        grids = [x, x]
        weights = np.outer(w, w)
    for _ in range(3):
        u = make_random_series(rng, extent_u)
        v = make_random_series(rng, extent_v, zero_mean=False)
        prod = multiply(u, v)
        uv_vals = evaluate_grid(u, grids) * evaluate_grid(v, grids)
        for flat in range(prod.lo.size):
            k = np.unravel_index(flat, prod.extent)
            phi = np.ones(1)
            basis = None
            for ki, pts in zip(k, grids):
                row = (math.sqrt(2.0) if ki else 1.0) * np.cos(ki * math.pi * pts)
                basis = row if basis is None else np.multiply.outer(basis, row)
            quad = float(np.sum(weights * uv_vals * basis))
            iv = prod.coefficient(k)
            assert iv.lo - 1e-9 <= quad <= iv.hi + 1e-9


def test_zero_product_stays_zero():
    z = CosineSeries.zeros((4, 4))
    u = CosineSeries.from_point(np.ones((3, 3)))
    prod = multiply(z, u)
    assert np.all(prod.lo == 0.0) and np.all(prod.hi == 0.0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_constants():
    one = CosineSeries.from_point(np.ones((1,)))
    assert evaluate(one, [0.37]) == 1.0
    u = CosineSeries.single_mode((2,), (1,), 1.0)
    assert evaluate(u, [0.0]) == pytest.approx(math.sqrt(2), abs=1e-14)


def test_evaluate_matches_independent_sum(rng):
    for extent in ((6,), (4, 3)):
        u = make_random_series(rng, extent, zero_mean=False)
        pts = rng.uniform(size=(100, len(extent)))
        for xrow in pts:
            mine = evaluate(u, xrow)
            ref = eval_series_naive(u.mid(), xrow)
            assert abs(mine - ref) < 1e-12


def test_evaluate_grid_matches_pointwise(rng):
    u = make_random_series(rng, (4, 4), zero_mean=False)
    axes = [np.linspace(0, 1, 6), np.linspace(0, 1, 5)]
    grid = evaluate_grid(u, axes)
    assert grid.shape == (6, 5)
    assert grid[2, 3] == pytest.approx(evaluate(u, [axes[0][2], axes[1][3]]), abs=1e-13)
