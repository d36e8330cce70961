import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balls import contains, hull, single_mode, width
from conftest import eval_series_naive, gauss_rule, make_random_series
from okvalid import pointconv, series
from okvalid.intervals import Interval, IntervalDomainError, _gamma, add_toward
from okvalid.series import (
    CosineSeries,
    evaluate_grid,
    laplacian,
    multiply,
    multiply_point,
    norm,
    nz_grid,
    sup_bound,
    tail,
)


# ---------------------------------------------------------------------------
# zero mean, read off the k=0 coefficient
# ---------------------------------------------------------------------------

def test_zero_mean_is_the_k0_coefficient(rng):
    # no flag to set: a series with a point-zero k=0 coefficient is zero-mean
    h2 = norm(CosineSeries.from_point([0.0, 0.5]), "Hbar", 2)
    assert h2.lo <= 0.5 * math.pi**2 <= h2.hi
    for extent in ((5,), (3, 4), (2, 3, 2)):
        u = make_random_series(rng, extent, zero_mean=False)
        assert not u.zero_mean
        assert tail(u, 2).zero_mean
    assert not hull(np.array([-1e-300, 0.0]), np.array([0.0, 1.0])).zero_mean
    with pytest.raises(IntervalDomainError):
        CosineSeries.from_point([1.0, 0.5], zero_mean=True)
    assert CosineSeries.from_point([0.0, 0.5], zero_mean=True).zero_mean


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_single_mode_norms():
    u = single_mode((3,), (1,), 1.0)
    l2 = norm(u, "L2")
    assert l2.lo <= 1.0 <= l2.hi and width(l2) < 1e-14
    h2 = norm(u, "Hbar", 2)
    assert contains(h2, math.pi**2)
    s = sup_bound(u)
    assert s.lo <= math.sqrt(2) <= s.hi


@pytest.mark.parametrize("x,y", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
def test_series_rejects_nan_coefficient(x, y):
    a = np.zeros(4)
    b = np.ones(4)
    a[2], b[2] = x, y
    for make in (CosineSeries, hull):
        with pytest.raises(IntervalDomainError):
            make(a, b)


@pytest.mark.parametrize("center,rad", [(math.inf, 0.0), (-math.inf, 1.0), (0.0, -1.0)])
def test_series_rejects_infinite_center_and_negative_radius(center, rad):
    with pytest.raises(IntervalDomainError):
        CosineSeries(np.array([0.0, center]), np.array([0.0, rad]))


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
    expect = math.sqrt(sum((1 + (math.pi * k) ** 4) * a[k] ** 2 for k in range(6)))
    assert h2.lo - 1e-10 <= expect <= h2.hi + 1e-10


# ---------------------------------------------------------------------------
# ball kernels against exact oracles
# ---------------------------------------------------------------------------

def _ball_series(rng, extent, zero_mean=False):
    """Coefficients over six orders of magnitude, with point zeros and radii
    that are zero, tiny or wide."""
    c = rng.standard_normal(extent) * 10.0 ** rng.uniform(-3, 3, extent)
    c[rng.random(extent) < 0.3] = 0.0
    r = np.abs(c) * rng.choice([0.0, 1e-16, 1e-6, 2.0], extent)
    if zero_mean:
        c[(0,) * len(extent)] = r[(0,) * len(extent)] = 0.0
    return CosineSeries(c, r)


def _ball_ends(u: CosineSeries, k):
    """The exact ends center -+ rad of coefficient k, as Fractions."""
    c, r = Fraction(u.center[k]), Fraction(u.rad[k])
    return c - r, c + r


def _in_ball(u: CosineSeries, k, x) -> bool:
    """x (a Fraction or an mpf) lies in the ball of coefficient k."""
    c, r = u.center[k], u.rad[k]
    if isinstance(x, Fraction):
        return abs(Fraction(c) - x) <= Fraction(r)
    with mpmath.workdps(60):
        return abs(mpmath.mpf(c) - x) <= mpmath.mpf(r)


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


_BALL_EXTENTS = [(9,), (4, 3), (3, 2, 3)]


@pytest.mark.parametrize("extent", _BALL_EXTENTS)
def test_ball_sum_scale_and_constant_contain_exact(rng, extent):
    u, v = _ball_series(rng, extent), _ball_series(rng, extent)
    s_point = 3.7
    s_iv = Interval(-1.25, 0.5)
    total, point, wide = u + v, u.scale(s_point), u.scale(s_iv)
    shifted, shifted_iv = u.add_constant(0.1), u.add_constant(s_iv)
    origin = (0,) * len(extent)
    for k in np.ndindex(*extent):
        for x in _ball_ends(u, k):
            for y in _ball_ends(v, k):
                assert _in_ball(total, k, x + y), k
            assert _in_ball(point, k, x * Fraction(s_point)), k
            for y in (Fraction(s_iv.lo), Fraction(s_iv.hi)):
                assert _in_ball(wide, k, x * y), k
            if k == origin:
                assert _in_ball(shifted, k, x + Fraction(0.1))
                assert _in_ball(shifted_iv, k, x + Fraction(s_iv.lo))
                assert _in_ball(shifted_iv, k, x + Fraction(s_iv.hi))
    # the constant moves only the mean mode, exactly
    rest = np.ones(extent, bool)
    rest[origin] = False
    assert np.array_equal(shifted.center[rest], u.center[rest])
    assert np.array_equal(shifted.rad[rest], u.rad[rest])


@pytest.mark.parametrize("extent", _BALL_EXTENTS)
@pytest.mark.parametrize("power", [-2, -1, 1, 2])
def test_ball_laplacian_contains_exact(rng, extent, power):
    u = _ball_series(rng, extent, zero_mean=True)
    lap = laplacian(u, power)
    assert lap.zero_mean
    with mpmath.workdps(60):
        for k in np.ndindex(*extent):
            if not any(k):
                continue
            w = (-(mpmath.pi**2) * sum(ki * ki for ki in k)) ** power
            for x in _ball_ends(u, k):
                assert _in_ball(lap, k, w * _mpf(x)), (k, power)
    # a point series keeps its point zeros and gains radii of a few ulps
    a = _ball_series(rng, extent, zero_mean=True).mid()
    lap = laplacian(CosineSeries.from_point(a), power)
    assert np.array_equal(lap.support(), a != 0.0)
    assert np.all(lap.rad <= 8 * 2.0**-53 * np.abs(lap.center))


def _norm_oracle(u: CosineSeries, weight):
    """(sqrt(sum w |alpha|^2) at the members of u nearest to and furthest
    from zero, per coefficient), at 60 digits."""
    low = high = mpmath.mpf(0)
    for k in np.ndindex(*u.extent):
        lo, hi = _ball_ends(u, k)
        mig = max(lo, -hi, Fraction(0))
        mag = max(-lo, hi)
        w = weight(k)
        low += w * _mpf(mig) ** 2
        high += w * _mpf(mag) ** 2
    return mpmath.sqrt(low), mpmath.sqrt(high)


@pytest.mark.parametrize("extent", _BALL_EXTENTS)
@pytest.mark.parametrize("space,ell", [("L2", 0), ("H", 2), ("H", 1), ("Hbar", 2),
                                       ("Hbar", 1), ("Hbar", -1), ("Hbar", -2)])
def test_ball_norm_ends_contain_exact(rng, extent, space, ell):
    for point in (False, True):
        u = _ball_series(rng, extent, zero_mean=space == "Hbar")
        if point:
            u = CosineSeries.from_point(u.mid())
        got = norm(u, space, ell)
        with mpmath.workdps(60):
            def weight(k):
                kappa = mpmath.pi**2 * sum(ki * ki for ki in k)
                if space == "L2":
                    return 1
                if space == "H":
                    return 1 + kappa**ell
                return kappa**ell if any(k) else 0
            low, high = _norm_oracle(u, weight)
            assert mpmath.mpf(got.lo) <= low and high <= mpmath.mpf(got.hi), (space, ell)
        if point:
            assert got.hi - got.lo <= 1e-13 * got.hi


@pytest.mark.parametrize("extent", _BALL_EXTENTS)
def test_ball_sup_bound_ends_contain_exact(rng, extent):
    for u in (_ball_series(rng, extent), CosineSeries.from_point(_ball_series(rng, extent).mid())):
        got = sup_bound(u)
        low = high = mpmath.mpf(0)
        with mpmath.workdps(60):
            for k in np.ndindex(*extent):
                lo, hi = _ball_ends(u, k)
                c = mpmath.sqrt(2) ** np.count_nonzero(k)
                low += c * _mpf(max(lo, -hi, Fraction(0)))
                high += c * _mpf(max(-lo, hi))
            assert mpmath.mpf(got.lo) <= low and high <= mpmath.mpf(got.hi)


def test_sup_weight_one_ulp_around_c_mpmath():
    # sup_bound weights mode k by the ball of c_k = sqrt(2)^nz around the
    # float C_FLOAT[nz]: its ends, rounded outward as _weighted_sum does,
    # enclose c_k, and the upper one is at most one ulp above the float
    for nz in range(4):
        wm, wr = series._c_ball(np.array(nz))
        lo = float(add_toward(wm, -wr, -math.inf))
        hi = float(add_toward(wm, wr, math.inf))
        with mpmath.workdps(50):
            assert mpmath.mpf(lo) <= mpmath.sqrt(mpmath.mpf(2) ** nz) <= mpmath.mpf(hi), nz
        assert hi <= np.nextafter(series.C_FLOAT[nz], math.inf), nz
        assert (wr == 0.0) == (nz % 2 == 0), nz


@pytest.mark.parametrize("n", [200, 1000, 5000])
def test_norm_sum_slack_covers_absorbed_terms(n):
    # squares below half an ulp of 1, lost to float partial sums that hold
    # the 1: only the a-priori slack of the sum covers them
    a = np.full(n, 0.7 * 2.0**-26)
    a[0] = 1.0
    got = norm(CosineSeries.from_point(a), "L2")
    with mpmath.workdps(60):
        exact = mpmath.sqrt(1 + (n - 1) * mpmath.mpf(a[1]) ** 2)
        assert mpmath.mpf(got.lo) <= exact <= mpmath.mpf(got.hi)


def test_ball_kernels_keep_exact_zeros_and_points():
    u = CosineSeries.from_point(np.array([0.0, 3.0, 0.0, -0.5]))
    v = CosineSeries.from_point(np.array([0.0, 0.25, 0.0, 2.0]))
    for w in (u + v, u - v, u.scale(3.1), u.scale(Interval(-1.0, 2.0)), laplacian(u, 2),
              laplacian(u, -1), u.add_constant(0.0)):
        w = w.dense()
        assert w.zero_mean and w.center[2] == 0.0 == w.rad[2]
    # exact sums of points stay points
    w = (u + v).dense()
    assert w.center.tolist() == [0.0, 3.25, 0.0, 1.5] and not w.rad.any()
    assert u.add_constant(2.0).coefficient((0,)) == Interval(2.0)
    # norms and sup bounds of the zero series are the point zero
    z = CosineSeries.zeros((3, 2))
    assert [norm(z, s, ell) for s, ell in (("L2", 0), ("H", 2), ("Hbar", -2))] == [Interval(0.0)] * 3
    assert sup_bound(z) == Interval(0.0)


def test_ball_kernels_overflow_to_unbounded():
    big = np.array([0.0, 1e300, -1e300, 1.0])
    u = CosineSeries.from_point(big)
    for w in (u.scale(1e10), u.scale(1e8) + u.scale(1.7e8), laplacian(u.scale(1e8), 2)):
        assert (w.center[0], w.rad[0]) == (0.0, 0.0)
        assert w.center[1:3].tolist() == [0.0, 0.0] and w.rad[1:3].tolist() == [math.inf] * 2
        assert np.isfinite(w.center).all() and not np.isnan(w.rad).any()
        assert norm(w, "L2").hi == math.inf and sup_bound(w).hi == math.inf
    assert hull(big, np.array([0.0, math.inf, 1.0, 1.0])).rad[1] == math.inf


@st.composite
def _ball_operands(draw):
    d = draw(st.integers(1, 3))
    extent = tuple(draw(st.integers(1, 3)) for _ in range(d))
    size = math.prod(extent)
    mids = st.lists(_COEFF, min_size=size, max_size=size)
    rads = st.lists(st.sampled_from([0.0, 1e-300, 1e-12, 1.0]), min_size=size, max_size=size)
    u, v = (CosineSeries(np.reshape(draw(mids), extent), np.reshape(draw(rads), extent) * 1e3)
            for _ in range(2))
    return u, v, draw(_COEFF), draw(st.sampled_from([-2, -1, 1, 2]))


@settings(max_examples=150, deadline=None)
@given(_ball_operands())
def test_ball_kernels_contain_exact_property(operands):
    u, v, s, power = operands
    u0 = tail(u, 1)  # zero-mean, as the negative Laplacian needs
    total, scaled, lap = u + v, u.scale(s), laplacian(u0, power)
    with mpmath.workdps(60):
        for k in np.ndindex(*u.extent):
            w = (-(mpmath.pi**2) * sum(ki * ki for ki in k)) ** power if any(k) else 0
            for x in _ball_ends(u, k):
                assert _in_ball(scaled, k, x * Fraction(s))
                for y in _ball_ends(v, k):
                    assert _in_ball(total, k, x + y)
            for x in _ball_ends(u0, k):
                assert _in_ball(lap, k, w * _mpf(x))


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------

def test_laplacian_single_mode():
    u = single_mode((3,), (1,), 1.0)
    du = laplacian(u, 1)
    c = du.coefficient((1,))
    assert c.lo <= -math.pi**2 <= c.hi


def test_laplacian_roundtrip(rng):
    u = make_random_series(rng, (4, 4))
    back = laplacian(laplacian(u, 1), -1)
    assert np.max(np.abs(back.mid() - u.mid())) < 1e-12


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
# tails
# ---------------------------------------------------------------------------

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
    head = CosineSeries(u.center[:3, :3], u.rad[:3, :3])
    s = head + tail(u, 3)
    assert np.max(np.abs(s.mid() - u.mid())) < 1e-15


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_multiply_by_one(rng):
    one = CosineSeries.from_point(np.ones((1,)))
    u = make_random_series(rng, (6,))
    w = multiply(u, one)
    assert np.all(w.lo <= u.mid()) and np.all(u.mid() <= w.hi)
    assert np.max(w.rad) < 5e-14


def test_phi1_squared():
    u = single_mode((2,), (1,), 1.0)
    w = multiply(u, u)
    # cos^2(pi x) = 1/2 + cos(2 pi x)/2, in the normalized basis: phi_0 + phi_2/sqrt(2)
    assert contains(w.coefficient((0,)), 1.0) or abs(0.5 * (w.coefficient((0,)).lo + w.coefficient((0,)).hi) - 1.0) < 1e-14
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


def _product_oracle(a, b):
    """50-digit coefficients of the product of two normalized coefficient
    arrays: for modes k, l and each sign pattern s, alpha_k beta_l c_k c_l
    2^-d / c_m lands on mode m = |k + s l|.  Returns {m: value}."""
    d = a.ndim
    out = {}
    with mpmath.workdps(50):
        c = [mpmath.sqrt(2) ** j for j in range(d + 1)]
        for k in np.ndindex(*a.shape):
            if a[k] == 0.0:
                continue
            for ell in np.ndindex(*b.shape):
                if b[ell] == 0.0:
                    continue
                w = mpmath.mpf(a[k]) * mpmath.mpf(b[ell]) / 2**d
                w *= c[np.count_nonzero(k)] * c[np.count_nonzero(ell)]
                for s in itertools.product((1, -1), repeat=d):
                    m = tuple(abs(ki + si * li) for ki, si, li in zip(k, s, ell))
                    out[m] = out.get(m, 0) + w / c[np.count_nonzero(m)]
    return out


def _members(rng, u: CosineSeries, count: int = 3):
    """Random vertices and random interior points of u, plus its ends: the
    floats nearest to center -+ rad inside each ball."""
    u = u.dense()
    lo = add_toward(u.center, -u.rad, math.inf)
    hi = add_toward(u.center, u.rad, -math.inf)
    yield lo
    yield hi
    for _ in range(count):
        yield np.where(rng.random(u.extent) < 0.5, lo, hi)
        t = rng.random(u.extent)
        yield np.clip(lo + t * (hi - lo), lo, hi)


def assert_product_contains(prod: CosineSeries, a, b):
    prod = prod.dense()
    exact = _product_oracle(a, b)
    with mpmath.workdps(50):
        for m in np.ndindex(*prod.extent):
            x = exact.get(m, 0)
            assert mpmath.mpf(prod.lo[m]) <= x <= mpmath.mpf(prod.hi[m]), (m, x, prod.lo[m], prod.hi[m])


def _interval_series(rng, a):
    r = 1e-6 * np.abs(a) * rng.random(a.shape)
    return hull(a - r, a + r)


def _cancelling_pair(rng, extent):
    """Point coefficients over six orders of magnitude whose product's mean
    mode (the inner product) cancels to rounding level.  In 2-d and 3-d only
    modes with an even number of nonzero indices are used, so the raw
    coefficients are exact and no input radius hides rounding error."""
    mask = nz_grid(extent) % 2 == 0 if len(extent) > 1 else np.ones(extent, bool)
    a = rng.standard_normal(extent) * 10.0 ** rng.uniform(-3, 3, extent) * mask
    b = rng.standard_normal(extent) * 10.0 ** rng.uniform(-3, 3, extent) * mask
    origin = (0,) * len(extent)
    a[origin] = 1.0
    b[origin] = 0.0
    b[origin] = -float(np.sum(a * b))
    return a, b


_EXTENTS = [(7,), (4, 3), (3, 2, 3)]


@pytest.mark.parametrize("extent", _EXTENTS)
def test_point_raw_coefficients_exact_where_nz_even(rng, extent):
    # c_k = 1 or 2 is exact, so only nonzero modes with an odd number of
    # nonzero indices carry a radius, and only those are rounded
    a = rng.standard_normal(extent)
    a.flat[1::3] = 0.0
    m, r, support = series._raw_mid_rad(CosineSeries.from_point(a).dense())
    nz = nz_grid(extent)
    even = nz % 2 == 0
    assert np.array_equal(m[even], a[even] * 2.0 ** (nz[even] // 2))
    assert np.all(r[even | (a == 0.0)] == 0.0) and np.all(m[a == 0.0] == 0.0)
    assert np.all(r[~even & (a != 0.0)] > 0.0)
    assert np.array_equal(support, (a != 0.0).astype(float))


def test_float_c_factors_mpmath():
    # the float c_k and 1/c_k are within 0.62 u of exact, relatively
    with mpmath.workdps(50):
        for j in range(4):
            c = mpmath.sqrt(2) ** j
            for got, want in ((series.C_FLOAT[j], c), (series._C_INV_FLOAT[j], 1 / c)):
                assert abs(got - want) <= 0.62 * 2.0**-53 * want, j


@pytest.mark.parametrize("extent", _EXTENTS)
def test_multiply_point_cancellation_mpmath(rng, extent):
    for _ in range(3):
        a, b = _cancelling_pair(rng, extent)
        prod = multiply(CosineSeries.from_point(a), CosineSeries.from_point(b))
        assert_product_contains(prod, a, b)


@pytest.mark.parametrize("extent", _EXTENTS)
@pytest.mark.parametrize("both_intervals", [False, True])
def test_multiply_interval_members_mpmath(rng, extent, both_intervals):
    a, b = _cancelling_pair(rng, extent)
    u = _interval_series(rng, a)
    v = _interval_series(rng, b) if both_intervals else CosineSeries.from_point(b)
    prod = multiply(u, v)
    for x in _members(rng, u):
        for y in (_members(rng, v, 1) if both_intervals else [b]):
            assert_product_contains(prod, x, y)


@pytest.mark.parametrize("extent", _EXTENTS)
@pytest.mark.parametrize("point", [True, False])
def test_multiply_underflow_enclosed(rng, extent, point):
    # products near 1e-400 underflow; coefficients near 2^-1019 and subnormal
    # ones are scaled by 2^-d in the fold
    a = rng.standard_normal(extent) * 1e-200
    b = rng.standard_normal(extent) * 1e-200
    b.flat[::2] = rng.integers(-3, 4, b.flat[::2].shape) * 2.0**-1019
    b.flat[1::3] = rng.integers(-3, 4, b.flat[1::3].shape) * 5e-324
    u = CosineSeries.from_point(a) if point else _interval_series(rng, a)
    v = CosineSeries.from_point(b) if point else _interval_series(rng, b)
    prod = multiply(u, v)
    assert_product_contains(prod, a, b)
    assert_product_contains(multiply(v, v), b, b)
    assert_product_contains(multiply(u, CosineSeries.from_point(np.ones(extent))), a, np.ones(extent))


def _along_first_axis(values, d):
    return np.asarray(values, dtype=np.float64).reshape((-1,) + (1,) * (d - 1))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_multiply_absorbed_terms_mpmath(d):
    # the mean mode sums 1, then 38 terms below half an ulp of 1, each lost to
    # rounding, then -1: only the running error bound covers what was lost
    b = np.full(40, 0.8 * 2.0**-53)
    b[0], b[-1] = 1.0, -1.0
    a, b = _along_first_axis(np.ones(40), d), _along_first_axis(b, d)
    prod = multiply(CosineSeries.from_point(a), CosineSeries.from_point(b))
    assert_product_contains(prod, a, b)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_multiply_subnormal_terms_mpmath(rng, d):
    # 24 products of 0.3 * 2^-1074 each round to zero on the mean mode
    a = _along_first_axis(np.full(24, 2.0**-537), d)
    b = _along_first_axis(np.full(24, 0.3 * 2.0**-537), d)
    assert_product_contains(
        multiply(CosineSeries.from_point(a), CosineSeries.from_point(b)), a, b
    )
    # a subnormal coefficient, and a subnormal radius, times huge ones: the
    # fold's 2^-d scaling of the subnormal would round
    huge = _along_first_axis(rng.standard_normal(5) * 1e300, d)
    tiny = np.zeros_like(huge[:1])
    tiny.flat[0] = 3 * 5e-324
    assert_product_contains(
        multiply(CosineSeries.from_point(tiny), CosineSeries.from_point(huge)), tiny, huge
    )
    prod = multiply(hull(-tiny / 3, tiny / 3), CosineSeries.from_point(huge))
    assert_product_contains(prod, tiny / 3, huge)
    assert_product_contains(prod, -tiny / 3, huge)


@pytest.mark.parametrize("extent", _EXTENTS)
def test_multiply_overflow_gives_unbounded_entries(rng, extent):
    a = rng.standard_normal(extent) * 1e200
    prod = multiply(CosineSeries.from_point(a), _interval_series(rng, a))
    populated = (prod.lo != 0.0) | (prod.hi != 0.0)
    assert populated.any()
    assert np.all(prod.lo[populated] == -math.inf) and np.all(prod.hi[populated] == math.inf)


@pytest.mark.parametrize("extent", _EXTENTS)
@pytest.mark.parametrize("point", [True, False])
def test_multiply_keeps_parity_zeros(rng, extent, point):
    # only modes with an even index sum: the product stays in that class
    even = np.indices(extent).sum(axis=0) % 2 == 0
    a = rng.standard_normal(extent) * even
    b = rng.standard_normal(extent) * even
    u = CosineSeries.from_point(a) if point else _interval_series(rng, a)
    v = CosineSeries.from_point(b) if point else _interval_series(rng, b)
    prod = multiply(u, v).dense()
    populated = (prod.lo != 0.0) | (prod.hi != 0.0)
    assert np.array_equal(populated, multiply_point(u.mid(), v.mid()) != 0.0)
    assert not populated[np.indices(prod.extent).sum(axis=0) % 2 == 1].any()


def _exact_folds(asup, bsup, pairs):
    """Exact folds of raw arrays over the index pairs where asup and bsup
    hold: for each (a, b) in pairs, {k: sum of a_i b_j 2^-d over the pairs
    that reach k} in rationals, and per entry the number of its product
    terms (nonzero in some fold)."""
    d = asup.ndim
    ia = [tuple(i) for i in np.argwhere(asup)]
    jb = [tuple(j) for j in np.argwhere(bsup)]
    fa = [[Fraction(a[i]) for i in ia] for a, _ in pairs]
    fb = [[Fraction(b[j]) for j in jb] for _, b in pairs]
    outs, count = [{} for _ in pairs], {}
    for x, i in enumerate(ia):
        for y, j in enumerate(jb):
            terms = [ra[x] * rb[y] for ra, rb in zip(fa, fb)]
            live = any(terms)
            # the entries |i + j| and |i - j| per axis; both where they agree
            for k in itertools.product(*((p + q, abs(p - q)) for p, q in zip(i, j))):
                for out, t in zip(outs, terms):
                    out[k] = out.get(k, 0) + t
                count[k] = count.get(k, 0) + live
    for out in outs:
        for k in out:
            out[k] /= 2**d
    return outs, count


def _exact_fold(a, b):
    """The fold of raw arrays a and b in exact rationals, and per entry the
    number of its product terms."""
    (out,), count = _exact_folds(a != 0.0, b != 0.0, [(a, b)])
    return out, count


def _depth(a, b, chunks=1):
    """The roundings on a product term's path through point_conv, counted
    from the index sets: the gathers' two additions, the halving of b, J
    along the last axis (b's extent there, or its indices of one parity
    where its support has one), 2 I_t along each earlier axis (a's populated
    indices there) and one per chunk after the first."""
    d = a.ndim

    def projection(x, t):
        return np.flatnonzero((x != 0.0).any(axis=tuple(s for s in range(d) if s != t)))

    odd = projection(b, d - 1) % 2
    n = b.shape[-1]
    cols = n if 0 < odd.sum() < odd.size else len(range(int(odd.any()), n, 2))
    return 3 + cols + 2 * sum(projection(a, t).size for t in range(d - 1)) + chunks - 1


def _parities(support):
    return [pointconv._parity(idx) for idx in pointconv._projections(support)]


def assert_ball_product_sharp(u, v, chunks=1):
    """multiply(u, v) against its exact per-fold reference, with the raw
    balls <Am, Ar> of the factor with fewer populated modes and <Bm, Br> of
    the other, w the float 1/c_k and n = _depth(Am, Bm, chunks):

    - an entry that no pair of nonzero coefficients reaches is (0, 0), and
      one that an infinite radius reaches has an infinite radius;
    - a finite radius is at least (gamma_n |Am|*|Bm| + |Am|*Br + Ar*(|Bm| +
      Br)) w, exactly: the a-priori bound on the midpoint fold's rounding
      and the spread of the members;
    - the ball holds Am*Bm +- the spread times every w' within u w of w,
      which holds 1/c_k: so it holds every product of members.

    Returns the product, on every mode of its extent."""
    prod = multiply(u, v).dense()
    if np.count_nonzero(v.support()) < np.count_nonzero(u.support()):
        u, v = v, u
    u, v = u.dense(), v.dense()
    (am, ar, asup), (bm, br, bsup) = series._raw_mid_rad(u), series._raw_mid_rad(v)
    wild_a, wild_b = np.isinf(ar), np.isinf(br)
    ar, br = np.where(wild_a, 0.0, ar), np.where(wild_b, 0.0, br)
    (mid, mag, s1, s2, s3, reach, wild), _ = _exact_folds(asup != 0.0, bsup != 0.0, [
        (am, bm), (np.abs(am), np.abs(bm)), (np.abs(am), br), (ar, np.abs(bm)), (ar, br),
        (asup, bsup), (asup * wild_b.any() + wild_a, bsup * wild_a.any() + wild_b)])
    gamma = _gamma(_depth(am, bm, chunks))
    nz = nz_grid(prod.extent)
    for k in np.ndindex(*prod.extent):
        c, r = Fraction(prod.center[k]), prod.rad[k]
        if not reach.get(k):
            assert c == 0 and r == 0.0, k
            continue
        if wild.get(k) or r == math.inf:
            # 0 inf = NaN in a gemm may reach more entries: looser, still sound
            assert r == math.inf, k
            continue
        r = Fraction(r)
        w = Fraction(series._C_INV_FLOAT[nz[k]])
        spread = s1.get(k, 0) + s2.get(k, 0) + s3.get(k, 0)
        assert r >= (gamma * mag.get(k, 0) + spread) * w, k
        eps = Fraction(int(nz[k] % 2), 2**53)
        ends = [(mid.get(k, 0) + sx * spread) * w * (1 + sw * eps) for sx in (-1, 1) for sw in (-1, 1)]
        assert c - r <= min(ends) and max(ends) <= c + r, k
    return prod


@pytest.mark.parametrize("extent", [(7,), (5,), (4, 3), (3, 5), (3, 2, 3), (2, 3, 2)])
@pytest.mark.parametrize("special", ["none", "zero_mid", "tiny_mid", "inf"])
def test_multiply_matches_per_fold_reference(rng, extent, special):
    # the sparser factor u holds an interval coefficient whose midpoint is
    # zero (or moved into the radius), or an infinite one; v is dense.  Each
    # fold against its exact value: the product holds every product of
    # members, its radius is at least the a-priori bound plus the spread,
    # and entries out of reach stay exact zeros
    a = rng.standard_normal(extent)
    a[rng.uniform(size=extent) < 0.4] = 0.0
    a.flat[0] = 0.0
    r = 1e-6 * np.abs(a) * rng.random(extent)
    r.flat[1::4] = 0.0
    lo, hi = a - r, a + r
    last = (-1,) * len(extent)
    if special == "zero_mid":
        lo[last], hi[last] = -0.25, 0.25
    elif special == "tiny_mid":
        lo[last], hi[last] = 2.0**-1030, 2.0**-1029
    elif special == "inf":
        # with a zero midpoint, so that 0 * inf = NaN arises in the folds
        lo[last], hi[last] = 1.0, math.inf
        lo.flat[1], hi.flat[1] = -0.25, 0.25
    u = hull(lo, hi)
    b = rng.standard_normal(extent) + 0.1
    v = _interval_series(rng, b)
    if special == "inf":
        v.rad.flat[2] = math.inf
        v.center.flat[2] = 0.0
    for x, y in ((u, v), (v, u), (u, u)):
        assert_ball_product_sharp(x, y)
    if special == "inf":
        assert np.isinf(multiply(u, v).hi).any()
    assert_point_product_near_exact(b, a)


def _ball_factors(rng, d, scale):
    """Ball-product operands in d dimensions at a scale: one parity coset
    each, unequal extents, point zeros inside the grid of the populated
    indices, zero-mean factors, a ball around zero and an infinite radius."""
    ea, eb = {1: ((9,), (6,)), 2: ((5, 4), (3, 6)), 3: ((3, 2, 3), (2, 3, 3))}[d]
    origin = (0,) * d

    def spread(extent):
        return rng.standard_normal(extent) * 10.0 ** rng.uniform(-2, 2, extent) * scale

    def coset(x, parity):
        for j, par in enumerate(parity):
            x[(slice(None),) * j + (slice(1 - par, None, 2),)] = 0.0
        return x

    cases = []
    for _ in range(2):
        pa, pb = (tuple(rng.integers(0, 2, d)) for _ in range(2))
        cases.append((CosineSeries.from_point(coset(spread(ea), pa)),
                      CosineSeries.from_point(coset(spread(eb), pb))))
        cases.append((_interval_series(rng, coset(spread(ea), pa)), _interval_series(rng, spread(eb))))
    holes = spread(ea) * (rng.random(ea) < 0.6)
    holes[origin] = 0.0
    zero_mean = spread(eb)
    zero_mean[origin] = 0.0
    cases.append((_interval_series(rng, holes), CosineSeries.from_point(zero_mean)))
    cases.append((CosineSeries.from_point(holes), _interval_series(rng, zero_mean)))
    around_zero = _interval_series(rng, spread(ea))
    around_zero.center.flat[-1], around_zero.rad.flat[-1] = 0.0, scale
    cases.append((around_zero, CosineSeries.from_point(spread(eb))))
    unbounded = _interval_series(rng, spread(eb))
    unbounded.center.flat[1], unbounded.rad.flat[1] = 0.0, math.inf
    cases.append((_interval_series(rng, coset(spread(ea), (1,) * d)), unbounded))
    return cases


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_ball_product_contains_exact_fold(rng, d, scale):
    # the ball product against the exact folds, in either order of the
    # factors, at scales whose products (about scale^2) stay normal
    for u, v in _ball_factors(rng, d, scale):
        assert_ball_product_sharp(u, v)
        assert_ball_product_sharp(v, u)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ball_product_midpoints_near_fold_min(rng, d, monkeypatch):
    # raw midpoints a few _FOLD_MIN in size, and below it (moved into the
    # radius), times coefficients near 1e-10, 1 and _FOLD_MIN: products near
    # 1e-317 keep few bits and smaller ones vanish, which only _ball_up's
    # underflow constant covers.  Every fold operand is zero or at least
    # _FOLD_MIN, so point_conv's halving of b stays exact
    operands = []
    conv = series.point_conv

    def recorded(a, b, *lattices):
        operands.extend((a, b))
        return conv(a, b, *lattices)

    monkeypatch.setattr(series, "point_conv", recorded)
    ea, eb = {1: ((8,), (7,)), 2: ((4, 4), (3, 5)), 3: ((3, 2, 3), (2, 3, 2))}[d]
    tiny = rng.integers(-8, 9, ea) * series._FOLD_MIN
    tiny.flat[::4] = rng.integers(-3, 4, tiny.flat[::4].shape) * 2.0**-1030
    small = rng.standard_normal(eb) * 1e-10
    u = CosineSeries.from_point(tiny)
    for v in (CosineSeries.from_point(small), _interval_series(rng, small), u,
              CosineSeries.from_point(np.ones(eb))):
        assert_ball_product_sharp(u, v)
    # a sparse huge factor against a dense one a few _FOLD_MIN in size:
    # gamma_n |Bm| is subnormal, so B1 is raised to _FOLD_MIN
    huge = np.zeros(ea)
    huge[(0,) * d], huge[(1,) * d] = 1e300, -3e299
    dense = rng.integers(1, 16, eb) * series._FOLD_MIN
    assert_ball_product_sharp(CosineSeries.from_point(huge), CosineSeries.from_point(dense))
    # 120 products of about 0.3 2^-1074 each vanish on the mean mode: the
    # underflow constant grows with the number of products
    a = _along_first_axis(np.full(120, 2.0**-537), d)
    b = _along_first_axis(np.full(120, 0.3 * 2.0**-537), d)
    assert_ball_product_sharp(CosineSeries.from_point(a), CosineSeries.from_point(b))
    for x in operands:
        assert np.all((x == 0.0) | (np.abs(x) >= series._FOLD_MIN))


@pytest.mark.parametrize("extent", [(7,), (5, 6), (3, 4, 4)])
def test_multiply_skips_dead_radius_folds(rng, extent, monkeypatch):
    # a radius fold whose factor, Ar or gamma_n |Bm| + Br, is zero everywhere
    # adds only exact zeros, so it is left out: a product makes the midpoint
    # and |Am| folds, the reach fold where it can find an entry out of
    # reach, and the Ar fold only where the sparser factor's raw radius is
    # live
    calls = []
    conv = series.point_conv

    def counted(a, b, *lattices):
        calls.append(a.shape)
        return conv(a, b, *lattices)

    monkeypatch.setattr(series, "point_conv", counted)
    d = len(extent)
    constant = CosineSeries.from_point(np.full((1,) * d, 0.7))
    point = _on_coset(rng, extent, (1,) * d, True)  # raw radius zero where d is even
    ball = _on_coset(rng, extent, (1,) * d, False)
    dense = _interval_series(rng, rng.standard_normal(extent))
    for u, v in ((constant, dense), (dense, constant), (point, dense), (point, point),
                 (ball, dense), (constant, point)):
        calls.clear()
        assert_ball_product_sharp(u, v)
        populated = [np.count_nonzero(s.support()) for s in (u, v)]
        sparser = v if populated[1] < populated[0] else u
        # the reach fold runs unless both factors fill lattices whose
        # product they reach in full, as the constant does with either
        # the dense factor or the point on one coset
        filled = populated == [u.center.size, v.center.size]
        reach = not (filled and series._product_reaches_all(u.axes, v.axes))
        assert reach != any(x is constant for x in (u, v))
        assert len(calls) == 2 + reach + series._raw_mid_rad(sparser)[1].any(), (u.extent, v.extent)
        if d % 2 == 0 and u is point and v is point:
            assert len(calls) == 3
    # B zero everywhere: only the midpoint and reach folds
    calls.clear()
    zero = multiply(CosineSeries.zeros(extent), CosineSeries.zeros(extent))
    assert len(calls) == 2 and not zero.support().any()


def test_both_products_run_on_point_conv(monkeypatch):
    # multiply and multiply_point fold only through pointconv.point_conv:
    # with it replaced by a sentinel neither has a fold of its own left, and
    # series defines no other convolution
    class Folded(Exception):
        pass

    def sentinel(a, b, *lattices):
        raise Folded

    monkeypatch.setattr(series, "point_conv", sentinel)
    for d in (1, 2, 3):
        a = np.full((2,) * d, 0.5)
        with pytest.raises(Folded):
            multiply_point(a, a)
        with pytest.raises(Folded):
            multiply(CosineSeries.from_point(a), _interval_series(np.random.default_rng(d), a))
    own = [name for name, obj in vars(series).items()
           if callable(obj) and any(w in name.lower() for w in ("conv", "fold"))]
    assert own == ["point_conv"]


def _on_coset(rng, extent, parity, point):
    """A random series whose support lies on the coset k = parity mod 2."""
    a = rng.standard_normal(extent) * 10.0 ** rng.uniform(-2, 2, extent)
    for j, par in enumerate(parity):
        a[(slice(None),) * j + (slice(1 - par, None, 2),)] = 0.0
    return CosineSeries.from_point(a) if point else _interval_series(rng, a)


@pytest.mark.parametrize("extent", [(9,), (8,), (5, 6), (6, 4), (4, 5, 3), (3, 4, 4)])
@pytest.mark.parametrize("point", [True, False])
def test_strided_fold_matches_unstrided(rng, extent, point):
    # factors on one parity coset each, and a sparse factor of mixed
    # parities against a coset: the kernel skips only exact zeros, so
    # multiply_point stays near the exact, unstrided fold
    d = len(extent)
    cases = []
    for _ in range(4):
        pu, pv = (tuple(rng.integers(0, 2, d)) for _ in range(2))
        cases.append((_on_coset(rng, extent, pu, point), _on_coset(rng, extent, pv, point)))
    mixed = np.zeros(extent)
    mixed[(0,) * d], mixed[(1,) * d] = 0.4, -0.3
    cases.append((CosineSeries.from_point(mixed), _on_coset(rng, extent, (1,) * d, point)))
    for u, v in cases:
        assert_point_product_near_exact(u.mid(), v.mid())
    # the stride is taken: the dense factor's support has one parity per axis
    assert _parities(cases[-1][1].dense().support()) == [1] * d


def _fold_factors(rng, d):
    """Raw fold operands in d dimensions: each on one parity coset, both of
    mixed parities, a factor with zero rows (whole ones, and zeros inside
    the grid of its populated indices), and factors below the normal range
    (b's multiples of 2^-1073, so that b / 2 stays exact)."""
    ea, eb = {1: ((9,), (7,)), 2: ((5, 4), (6, 5)), 3: ((3, 4, 3), (4, 3, 4))}[d]

    def spread(extent):
        return rng.standard_normal(extent) * 10.0 ** rng.uniform(-3, 3, extent)

    def coset(x, parity):
        for j, par in enumerate(parity):
            x[(slice(None),) * j + (slice(1 - par, None, 2),)] = 0.0
        return x

    cases = []
    for _ in range(2):
        pa, pb = (tuple(rng.integers(0, 2, d)) for _ in range(2))
        cases.append((coset(spread(ea), pa), coset(spread(eb), pb)))
        cases.append((spread(ea) * (rng.random(ea) < 0.6), spread(eb)))
    rows = spread(ea)
    rows[0] = 0.0
    rows[(slice(None),) * (d - 1) + (1,)] = 0.0
    rows[(2,) + (0,) * (d - 1)] = 0.0
    cases.append((rows, spread(eb) * (rng.random(eb) < 0.7)))
    tiny_a = rng.integers(-64, 65, ea) * 2.0**-1060
    tiny_b = spread(eb) * 2.0**-1000
    tiny_b.flat[::3] = rng.integers(-5, 6, tiny_b.flat[::3].shape) * 2.0**-1073
    cases.append((tiny_a, spread(eb)))
    cases.append((spread(ea) * 2.0**-40, tiny_b))
    return cases


def assert_fold_within_gamma(got, n, a, b):
    """A float fold of raw a and b with rounding bound n against the exact
    fold: within gamma_n times the exact fold of the magnitudes, plus
    2^-1075 (grown by 1 + gamma_n) for each product that can underflow, at
    most d per product term: one along the last axis, one per earlier
    axis."""
    (exact, mag), count = _exact_folds(a != 0.0, b != 0.0, [(a, b), (np.abs(a), np.abs(b))])
    g = _gamma(n)
    for k in np.ndindex(*got.shape):
        off = abs(Fraction(got[k]) - exact.get(k, 0))
        lost = Fraction(a.ndim * count.get(k, 0), 2**1075) * (1 + g)
        assert off <= g * mag.get(k, 0) + lost, (a, b, k)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fold_error_bound_contains_exact(rng, d):
    # point_conv's a-priori bound holds against the exact fold, with n as
    # counted from the index sets
    for a, b in _fold_factors(rng, d):
        got, n = pointconv.point_conv(a, b)
        assert n == _depth(a, b), (a, b)
        assert_fold_within_gamma(got, n, a, b)


@pytest.mark.parametrize("extent", [(6, 5), (5, 4, 6)])
def test_chunked_fold_matches_one_chunk(rng, monkeypatch, extent):
    # one row of a per chunk and a single chunk each stay within their own
    # bound, where every chunk after the first adds a rounding to n; the
    # floor runs a product this small in one chunk, with the same bits.
    # Without the floor one row's arrays hold more than the output's
    # entries, so each chunk is one row.  The ball product on single rows
    # keeps its radius above the bound with the chunks counted
    a = _on_coset(rng, extent, (1,) * len(extent), True).mid()
    a[(rng.random(extent) < 0.2)] = 0.0
    b = rng.standard_normal(tuple(2 * n - 1 for n in extent))
    populated_rows = np.count_nonzero((a != 0.0).any(axis=tuple(range(1, a.ndim))))
    runs = []
    for floor in (2**62, 0, pointconv._PARTIAL_FLOOR):
        monkeypatch.setattr(pointconv, "_PARTIAL_FLOOR", floor)
        runs.append(pointconv.point_conv(a, b))
    (one, n_one), (rows, n_rows), (floor, n_floor) = runs
    assert n_one == n_floor == _depth(a, b) and one.tobytes() == floor.tobytes()
    assert n_rows == _depth(a, b, populated_rows) == n_one + populated_rows - 1
    for got, n in ((one, n_one), (rows, n_rows)):
        assert_fold_within_gamma(got, n, a, b)
    monkeypatch.setattr(pointconv, "_PARTIAL_FLOOR", 0)
    u = CosineSeries.from_point(a / series.c_grid(a.shape))
    assert_ball_product_sharp(u, CosineSeries.from_point(b), chunks=populated_rows)


def assert_point_product_near_exact(a, b):
    """multiply_point(a, b) against the exact fold of its raw factors
    fl(a c_k) and fl(b c_k), scaled back by the float c_k: within gamma_n
    times the exact fold of their magnitudes, and exactly zero where no
    pair of nonzero coefficients reaches.  Any summation order of a term's
    path rounds it at most n = 3 + sum_t na_t nb_t times: the gathers' two
    additions, one product and at most nb_t - 1 additions along the last
    axis, at most na_t nb_t - 1 along each earlier one (the 0.5 and 1
    weights are exact), and the division by c_k."""
    got = multiply_point(a, b)
    ra, rb = (x * series.c_grid(x.shape) for x in (a, b))
    exact, _ = _exact_fold(ra, rb)
    mag, _ = _exact_fold(np.abs(ra), np.abs(rb))
    c = series.c_grid(got.shape)
    g = _gamma(3 + sum(na * nb for na, nb in zip(a.shape, b.shape)))
    for k in np.ndindex(*got.shape):
        if k not in exact:
            assert got[k] == 0.0, (a, b, k)
        else:
            off = abs(Fraction(got[k]) - exact[k] / Fraction(c[k]))
            assert off <= g * mag[k] / Fraction(c[k]), (a, b, k)


def _point_factors(rng, d):
    """multiply_point operands in d dimensions: one parity coset each, both
    of mixed parities, a coset against a mixed factor, sparse rows, unequal
    extents, and a 1 x ... x 1 constant on either side."""
    ea, eb = {1: ((9,), (6,)), 2: ((5, 7), (6, 3)), 3: ((3, 2, 4), (2, 4, 3))}[d]

    def coset(x, parity):
        for j, par in enumerate(parity):
            x[(slice(None),) * j + (slice(1 - par, None, 2),)] = 0.0
        return x

    cases = []
    for _ in range(2):
        pa, pb = (tuple(rng.integers(0, 2, d)) for _ in range(2))
        cases.append((coset(rng.standard_normal(ea), pa), coset(rng.standard_normal(eb), pb)))
        cases.append((rng.standard_normal(ea), rng.standard_normal(eb)))
        cases.append((coset(rng.standard_normal(eb), pa), rng.standard_normal(ea)))
    sparse = rng.standard_normal(ea) * (rng.random(ea) < 0.3)
    sparse[0] = 0.0
    cases.append((sparse, rng.standard_normal(eb)))
    constant = np.full((1,) * d, -0.7)
    cases.append((constant, rng.standard_normal(eb)))
    cases.append((coset(rng.standard_normal(ea), (1,) * d), constant))
    cases.append((constant, constant))
    return cases


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_point_product_matches_exact_fold(rng, d, scale):
    # the gemm kernel against the exact fold, in either order of the
    # factors, at scales whose products (about scale^2) stay normal
    for a, b in _point_factors(rng, d):
        assert_point_product_near_exact(a * scale, b * scale)
        assert_point_product_near_exact(b * scale, a * scale)
    # nothing populated: the exact zero of the output's extent
    zero = np.zeros((3,) * d)
    got = multiply_point(zero, np.ones((2,) * d))
    assert got.shape == (4,) * d and not got.any()


def test_fold_peak_memory_bounded_by_output(rng):
    # each fold of a 3-d product is chunked: the traced peak of multiply
    # stays within a small multiple of its output's bytes (9.6 measured;
    # 12.4 with the stacked running-error fold)
    u = _on_coset(rng, (12, 12, 12), (1, 1, 1), True)
    v = _on_coset(rng, (23, 23, 23), (0, 0, 0), False)
    output = 34**3 * 8
    tracemalloc.start()
    try:
        multiply(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * output, peak / output


def test_point_product_peak_bounded_by_output(rng):
    # multiply_point takes the first axis in chunks: its traced peak stays
    # within a small multiple of the output's bytes, where one chunk would
    # hold 3.9 outputs after the last-axis product alone (6.4 in all).  A
    # cold call also builds the c grids of its extents (3.14 outputs); a
    # warm call reads them and the product plans from their caches (2.74)
    from okvalid import pointconv

    u = _on_coset(rng, (16, 16, 16), (1, 1, 1), True).mid()
    v = _on_coset(rng, (31, 31, 31), (0, 0, 0), True).mid()
    for cache in (series.c_grid, pointconv._axis_product, pointconv._last_axis_gathers):
        cache.cache_clear()
    for bound in (4.0, 2.8):
        tracemalloc.start()
        try:
            out = multiply_point(u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * out.nbytes, (bound, peak / out.nbytes)


@pytest.mark.parametrize("point", [True, False])
def test_mixed_parity_product_contains_exact(rng, point):
    # u + mu with u all-odd mixes the parities of both axes; v is even along
    # axis 0 and mixed along axis 1, so the fold strides along axis 0 only
    extent = (5, 5)
    odd = np.indices(extent).prod(axis=0) % 2 == 1
    a = rng.standard_normal(extent) * odd
    a[0, 0] = 0.3
    b = rng.standard_normal(extent)
    b[1::2, :] = 0.0
    u = CosineSeries.from_point(a) if point else _interval_series(rng, a)
    v = CosineSeries.from_point(b) if point else _interval_series(rng, b)
    assert _parities(v.dense().support()) == [0, None]
    assert _parities(u.dense().support()) == [None, None]
    for x, y in ((u, v), (v, u), (u, u)):
        prod = multiply(x, y)
        for xm, ym in zip(_members(rng, x, 2), _members(rng, y, 2)):
            assert_product_contains(prod, xm, ym)


_COEFF = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _series(draw, extent):
    size = math.prod(extent)
    lo = np.array(draw(st.lists(_COEFF, min_size=size, max_size=size))).reshape(extent)
    if draw(st.booleans()):
        return CosineSeries.from_point(lo)
    other = np.array(draw(st.lists(_COEFF, min_size=size, max_size=size))).reshape(extent)
    return hull(np.minimum(lo, other), np.maximum(lo, other))


@st.composite
def _multiply_operands(draw):
    d = draw(st.integers(1, 3))
    top = 4 if d == 1 else 3 if d == 2 else 2
    ext_u = tuple(draw(st.integers(1, top)) for _ in range(d))
    ext_v = tuple(draw(st.integers(1, top)) for _ in range(d))
    return draw(_series(ext_u)), draw(_series(ext_v)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_multiply_operands())
def test_multiply_contains_exact_property(operands):
    u, v, seed = operands
    prod = multiply(u, v)
    rng = np.random.default_rng(seed)
    for x, y in zip(_members(rng, u, 1), _members(rng, v, 1)):
        assert_product_contains(prod, x, y)


# ---------------------------------------------------------------------------
# series on a parity lattice against the dense computation
# ---------------------------------------------------------------------------

@st.composite
def _lattice_series(draw, d):
    """A ball series on a random lattice of d axes: per axis an extent and a
    parity (None, 0, or 1 where the extent holds an odd index), with point
    zeros inside the lattice."""
    extent = tuple(draw(st.integers(1, 5)) for _ in range(d))
    parity = tuple(draw(st.sampled_from([None, 0, 1] if n > 1 else [None, 0])) for n in extent)
    shape = tuple(pointconv._parity_count(n, c) for n, c in zip(extent, parity))
    size = math.prod(shape)
    mids = draw(st.lists(st.one_of(st.just(0.0), _COEFF), min_size=size, max_size=size))
    rads = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-12, 0.5]), min_size=size, max_size=size))
    return CosineSeries(np.reshape(mids, shape), np.reshape(rads, shape), parity, extent)


@st.composite
def _lattice_operands(draw):
    d = draw(st.integers(1, 3))
    c = draw(_COEFF)
    return (draw(_lattice_series(d)), draw(_lattice_series(d)),
            draw(st.sampled_from([c, Interval(c, c + 0.5)])),
            draw(st.sampled_from([0.0, 0.05, Interval(-0.5, 0.25)])), draw(st.integers(0, 4)))


def _lattice_mask(u: CosineSeries) -> np.ndarray:
    """Where u's lattice holds a mode, over its full extent."""
    return CosineSeries(np.ones(u.center.shape), np.zeros(u.center.shape), u.parity, u.extent).mid() != 0.0


def assert_on_lattice(got: CosineSeries, want: CosineSeries):
    """got holds want's bits on got's lattice, and want is the exact zero
    off it."""
    assert got.extent == want.extent
    held, full, want = _lattice_mask(got), got.dense(), want.dense()
    for x, y in ((full.center, want.center), (full.rad, want.rad)):
        assert x[held].tobytes() == y[held].tobytes()
        assert np.all(y[~held] == 0.0)


@settings(max_examples=150, deadline=None)
@given(_lattice_operands())
# u - v on the common lattice keeps the dense sign of zero where v holds
# no mode: -0.0 - 0.0 is -0.0
@example((CosineSeries(np.array([[[-0.0]]]), np.array([[[0.0]]]), (0, 0, 0), (1, 1, 1)),
          CosineSeries(np.array([[[0.0]]]), np.array([[[0.0]]]), (0, 1, 0), (1, 2, 1)),
          1.0, 0.0, 0))
def test_lattice_ops_match_the_dense_computation(operands):
    # every operation on series held on lattices, one parity or none per
    # axis, against the same operation on their dense copies: the same bits
    # on the result's lattice and exact zeros off it; mu != 0 puts the
    # origin on the lattice, and a factor with zeros inside its lattice
    # leaves modes out of reach.  Norms and sup bounds sum the held terms
    # alone: they enclose what the dense sums enclose, no higher
    u, v, c, mu, n = operands
    du, dv = u.dense(), v.dense()
    w, dw = u.add_constant(mu), du.add_constant(mu)
    u0, du0 = tail(u, 1), tail(du, 1)
    pairs = [(u + v, du + dv), (u - v, du - dv), (u.scale(c), du.scale(c)), (w, dw),
             (tail(u, n), tail(du, n)), (multiply(u, v), multiply(du, dv)),
             (multiply(w, v), multiply(dw, dv)), (multiply(w, w), multiply(dw, dw))]
    pairs += [(laplacian(u0, power), laplacian(du0, power)) for power in (-2, -1, 1, 2)]
    for got, want in pairs:
        assert_on_lattice(got, want)
    for x, dx in ((u, du), (w, dw), (u0, du0)):
        bounds = [(sup_bound(x), sup_bound(dx))]
        bounds += [(norm(x, space, ell), norm(dx, space, ell))
                   for space, ell in (("L2", 0), ("H", 1), ("H", 2), ("Hbar", -2), ("Hbar", 2))
                   if space != "Hbar" or x.zero_mean]
        for got, want in bounds:
            assert want.lo <= got.hi <= want.hi and got.lo <= want.hi


def test_lattice_product_folds_the_supports_where_a_factor_has_holes(monkeypatch):
    # odd modes 1 and 7 of 1, 3, 5, 7: the products miss the even modes 4,
    # 10 and 12 of the product's lattice, which the fold of the supports
    # (0/1 arrays) finds and keeps the exact zero; filled, the product
    # reaches every mode and the supports are not folded, while its dense
    # copy, zero at the even modes, folds them
    supports = []
    conv = series.point_conv

    def recorded(a, b, *lattices):
        supports.append(np.isin(a, (0.0, 1.0)).all() and np.isin(b, (0.0, 1.0)).all())
        return conv(a, b, *lattices)

    monkeypatch.setattr(series, "point_conv", recorded)
    holes = CosineSeries.from_point(np.array([0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, -0.25]))
    prod = multiply(holes, holes)
    assert (holes.parity, prod.parity, sum(supports)) == ((1,), (0,), 1)
    zeros = [k for k in range(prod.extent[0]) if prod.coefficient((k,)) == Interval(0.0)]
    assert zeros == sorted([4, 10, 12, *range(1, 15, 2)])
    assert_on_lattice(prod, multiply(holes.dense(), holes.dense()))
    filled = CosineSeries.from_point(np.array([0.0, 0.5, 0.0, 0.1, 0.0, 0.2, 0.0, -0.25]))
    supports.clear()
    prod = multiply(filled, filled)
    assert not any(supports)
    assert_on_lattice(prod, multiply(filled.dense(), filled.dense()))
    assert sum(supports) == 1


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_matches_independent_sum(rng):
    for extent in ((6,), (4, 3)):
        u = make_random_series(rng, extent, zero_mean=False)
        pts = rng.uniform(size=(100, len(extent)))
        for xrow in pts:
            mine = evaluate_grid(u, [[xi] for xi in xrow]).item()
            ref = eval_series_naive(u.mid(), xrow)
            assert abs(mine - ref) < 1e-12


def test_evaluate_grid_matches_pointwise(rng):
    u = make_random_series(rng, (4, 4), zero_mean=False)
    axes = [np.linspace(0, 1, 6), np.linspace(0, 1, 5)]
    grid = evaluate_grid(u, axes)
    assert grid.shape == (6, 5)
    ref = eval_series_naive(u.mid(), [axes[0][2], axes[1][3]])
    assert grid[2, 3] == pytest.approx(ref, abs=1e-13)
