import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eval_series_naive, gauss_rule, make_random_series
from okvalid import series
from okvalid.intervals import IntervalDomainError, _gamma, _outward
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
    assert not CosineSeries(np.array([-1e-300, 0.0]), np.array([0.0, 1.0])).zero_mean
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
    expect = math.sqrt(sum((1 + (math.pi * k) ** 4) * a[k] ** 2 for k in range(6)))
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
    head = CosineSeries(u.lo[:3, :3], u.hi[:3, :3])
    s = head.pad_to(u.extent) + tail(u, 3)
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
    """Random vertices and random interior points of u, plus its endpoints."""
    yield u.lo
    yield u.hi
    for _ in range(count):
        yield np.where(rng.random(u.extent) < 0.5, u.lo, u.hi)
        t = rng.random(u.extent)
        yield np.clip(u.lo + t * (u.hi - u.lo), u.lo, u.hi)


def assert_product_contains(prod: CosineSeries, a, b):
    exact = _product_oracle(a, b)
    with mpmath.workdps(50):
        for m in np.ndindex(*prod.extent):
            x = exact.get(m, 0)
            assert mpmath.mpf(prod.lo[m]) <= x <= mpmath.mpf(prod.hi[m]), (m, x, prod.lo[m], prod.hi[m])


def _interval_series(rng, a):
    r = 1e-6 * np.abs(a) * rng.random(a.shape)
    return CosineSeries(a - r, a + r)


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
    prod = multiply(CosineSeries(-tiny / 3, tiny / 3), CosineSeries.from_point(huge))
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
    populated = [int(np.count_nonzero((s.lo != 0.0) | (s.hi != 0.0))) for s in (u, v)]
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
    lo, hi = _outward(c, rad, p, _gamma(p + 1))
    unreached = _fold_reference(asup, bsup) == 0.0
    lo[unreached] = 0.0
    hi[unreached] = 0.0
    return CosineSeries(lo, hi)


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
    u = CosineSeries(lo, hi)
    b = rng.standard_normal(extent) + 0.1
    v = _interval_series(rng, b)
    if special == "inf":
        v.hi.flat[2] = math.inf
    for x, y in ((u, v), (v, u), (u, u)):
        got, want = multiply(x, y), _multiply_reference(x, y)
        assert np.array_equal(got.lo, want.lo) and np.array_equal(got.hi, want.hi)
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
    return CosineSeries(np.minimum(lo, other), np.maximum(lo, other))


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
