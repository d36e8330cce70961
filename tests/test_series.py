import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eval_series_naive, gauss_rule, make_random_series
from okvalid import series
from okvalid.intervals import Interval, IntervalDomainError, _ball_up, _gamma, add_toward
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
    assert not CosineSeries.hull(np.array([-1e-300, 0.0]), np.array([0.0, 1.0])).zero_mean
    with pytest.raises(IntervalDomainError):
        CosineSeries.from_point([1.0, 0.5], zero_mean=True)
    assert CosineSeries.from_point([0.0, 0.5], zero_mean=True).zero_mean


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


@pytest.mark.parametrize("x,y", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
def test_series_rejects_nan_coefficient(x, y):
    a = np.zeros(4)
    b = np.ones(4)
    a[2], b[2] = x, y
    for make in (CosineSeries, CosineSeries.hull):
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
        assert w.zero_mean and w.center[2] == 0.0 == w.rad[2]
    # exact sums of points stay points
    w = u + v
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
    assert CosineSeries.hull(big, np.array([0.0, math.inf, 1.0, 1.0])).rad[1] == math.inf


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
    u = CosineSeries.single_mode((3,), (1,), 1.0)
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
    lo = add_toward(u.center, -u.rad, math.inf)
    hi = add_toward(u.center, u.rad, -math.inf)
    yield lo
    yield hi
    for _ in range(count):
        yield np.where(rng.random(u.extent) < 0.5, lo, hi)
        t = rng.random(u.extent)
        yield np.clip(lo + t * (hi - lo), lo, hi)


def assert_product_contains(prod: CosineSeries, a, b):
    exact = _product_oracle(a, b)
    with mpmath.workdps(50):
        for m in np.ndindex(*prod.extent):
            x = exact.get(m, 0)
            assert mpmath.mpf(prod.lo[m]) <= x <= mpmath.mpf(prod.hi[m]), (m, x, prod.lo[m], prod.hi[m])


def _interval_series(rng, a):
    r = 1e-6 * np.abs(a) * rng.random(a.shape)
    return CosineSeries.hull(a - r, a + r)


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
    m, r, support = series._raw_mid_rad(CosineSeries.from_point(a))
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
    prod = multiply(CosineSeries.hull(-tiny / 3, tiny / 3), CosineSeries.from_point(huge))
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
    prod = multiply(u, v)
    populated = (prod.lo != 0.0) | (prod.hi != 0.0)
    assert np.array_equal(populated, multiply_point(u.mid(), v.mid()) != 0.0)
    assert not populated[np.indices(prod.extent).sum(axis=0) % 2 == 1].any()


def _fold_reference(a, b, err=None):
    """One cosine-product fold on its own: each nonzero a[k], in order, adds
    a[k] 2^-d b to the output on |k + l| and |k - l| per axis (the forward
    shift, then the reversed and the forward halves of |k - l|)."""
    d = a.ndim
    out = np.zeros(tuple(na + nb - 1 for na, nb in zip(a.shape, b.shape)))
    for k in map(tuple, np.argwhere(a != 0.0)):
        w = a[k] * 0.5**d
        per_axis = []
        for ki, nb in zip(k, b.shape):
            segs = [(slice(ki, ki + nb), slice(0, nb))]
            top = min(ki, nb - 1)
            segs.append((slice(ki - top, ki + 1), slice(top, None, -1)))
            if nb - 1 > ki:
                segs.append((slice(1, nb - ki), slice(ki + 1, nb)))
            per_axis.append(segs)
        for combo in itertools.product(*per_axis):
            out_sl = tuple(c[0] for c in combo)
            t = w * b[tuple(c[1] for c in combo)]
            out[out_sl] += t
            if err is not None:
                err[out_sl] += np.abs(t) + np.abs(out[out_sl])
    return out


@np.errstate(over="ignore", invalid="ignore")
def _multiply_reference(u, v):
    """multiply with its four folds run one after the other."""
    populated = [int(np.count_nonzero(s.support())) for s in (u, v)]
    if populated[1] < populated[0]:
        u, v = v, u
    am, ar, asup = series._raw_mid_rad(u)
    bm, br, bsup = series._raw_mid_rad(v)
    err = np.zeros(tuple(na + nb - 1 for na, nb in zip(am.shape, bm.shape)))
    c = _fold_reference(am, bm, err)
    rad = err * 2.0**-53 + _fold_reference(np.abs(am), br)
    rad = rad + _fold_reference(ar, np.abs(bm) + br)
    # back to normalized coefficients by the float 1/c_k, whose rounding
    # where nz is odd the radius and gamma_{p+1} cover
    nz = nz_grid(c.shape)
    inv = np.where(nz % 2 == 0, 0.5 ** (nz // 2), math.sqrt(0.5) * 0.5 ** (nz // 2))
    c = c * inv
    rad = rad * inv + np.abs(c) * np.where(nz % 2 == 1, 2.0**-52, 0.0)
    p = 3**u.dim * min(populated)
    c, rad = _ball_up(c, rad, p, _gamma(p + 1))
    unreached = _fold_reference(asup, bsup) == 0.0
    c[unreached] = 0.0
    rad[unreached] = 0.0
    return CosineSeries(c, rad)


@pytest.mark.parametrize("extent", [(7,), (5,), (4, 3), (3, 5), (3, 2, 3), (2, 3, 2)])
@pytest.mark.parametrize("special", ["none", "zero_mid", "tiny_mid", "inf"])
def test_multiply_matches_per_fold_reference(rng, extent, special):
    # the sparser factor u holds an interval coefficient whose midpoint is
    # zero (or moved into the radius), or an infinite one; v is dense
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
        # with a zero midpoint, so that 0 * inf = NaN arises in the fused folds
        lo[last], hi[last] = 1.0, math.inf
        lo.flat[1], hi.flat[1] = -0.25, 0.25
    u = CosineSeries.hull(lo, hi)
    b = rng.standard_normal(extent) + 0.1
    v = _interval_series(rng, b)
    if special == "inf":
        v.rad.flat[2] = math.inf
        v.center.flat[2] = 0.0
    for x, y in ((u, v), (v, u), (u, u)):
        got, want = multiply(x, y), _multiply_reference(x, y)
        assert np.array_equal(got.center, want.center) and np.array_equal(got.rad, want.rad)
    if special == "inf":
        assert np.isinf(multiply(u, v).hi).any()
    # Newton's product is fold 0 alone, over the sparser factor
    c = series.C_FLOAT[nz_grid(extent)]
    raw = _fold_reference(a * c, b * c)
    assert np.array_equal(multiply_point(b, a), raw / series.C_FLOAT[nz_grid(raw.shape)])


_COEFF = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _series(draw, extent):
    size = math.prod(extent)
    lo = np.array(draw(st.lists(_COEFF, min_size=size, max_size=size))).reshape(extent)
    if draw(st.booleans()):
        return CosineSeries.from_point(lo)
    other = np.array(draw(st.lists(_COEFF, min_size=size, max_size=size))).reshape(extent)
    return CosineSeries.hull(np.minimum(lo, other), np.maximum(lo, other))


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
