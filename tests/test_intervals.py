import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okvalid.intervals import (
    BallMatrix,
    _cheap_norm2_upper,
    Interval,
    IntervalDomainError,
    mat_inverse_norm2_upper,
    mat_mul,
    mat_norm2_upper,
    mat_sub_identity,
    add_toward,
    ball_add,
    ball_inv,
    ball_mul,
    mid_rad,
    mul_toward,
)

ULP = 2.0 ** -52


def contains_exact(iv: Interval, value: Fraction) -> bool:
    return Fraction(iv.lo) <= value <= Fraction(iv.hi)


# ---------------------------------------------------------------------------
# scalar examples
# ---------------------------------------------------------------------------

def test_integer_add_exact():
    r = Interval(1, 2) + Interval(3, 4)
    assert (r.lo, r.hi) == (4.0, 6.0)


def test_symmetric_mul_exact():
    r = Interval(-1, 1) * Interval(-1, 1)
    assert (r.lo, r.hi) == (-1.0, 1.0)


def test_div_third():
    r = Interval(1) / Interval(3)
    assert contains_exact(r, Fraction(1, 3))
    assert r.hi - r.lo <= 2 * ULP


def test_div_by_zero_interval():
    with pytest.raises(IntervalDomainError):
        Interval(1) / Interval(-1, 1)
    with pytest.raises(IntervalDomainError):
        Interval(1) / Interval(0)


def test_sqrt_examples():
    assert (Interval(4, 9).sqrt().lo, Interval(4, 9).sqrt().hi) == (2.0, 3.0)
    z = Interval(0).sqrt()
    assert (z.lo, z.hi) == (0.0, 0.0)
    s = Interval(2).sqrt()
    # oracle: high-precision reference via exact squaring
    assert Fraction(s.lo) ** 2 <= 2 <= Fraction(s.hi) ** 2
    assert s.hi - s.lo <= 4 * ULP * math.sqrt(2)


def test_sqrt_negative_error():
    with pytest.raises(IntervalDomainError):
        Interval(-1, 1).sqrt()


def test_pow_and_square():
    r = Interval(-2, 3) ** 2
    assert (r.lo, r.hi) == (0.0, 9.0)
    r3 = Interval(-2, 3) ** 3
    assert r3.lo <= -8 <= r3.hi and r3.lo <= 27 <= r3.hi
    inv = Interval(2) ** -2
    assert contains_exact(inv, Fraction(1, 4))


def test_invalid_endpoints():
    with pytest.raises(IntervalDomainError):
        Interval(2, 1)
    with pytest.raises(IntervalDomainError):
        Interval(float("nan"), 1.0)


# ---------------------------------------------------------------------------
# containment fuzzing (the full 1e5-per-op run lives in the acceptance suite)
# ---------------------------------------------------------------------------

def _two_sum(a, b):
    """s + err == a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


_SPLIT = 134217729.0  # 2^27 + 1


def _two_prod(a, b):
    """p + err == a * b exactly (Dekker; valid away from over/underflow)."""
    p = a * b
    ca = _SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLIT * b
    bh = cb - (cb - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _dd_in(lo, hi, head, tail):
    """Is the exact value head+tail inside [lo, hi]?  (|tail| < ulp(head))"""
    lower = lo < head or (lo == head and tail >= 0.0)
    upper = head < hi or (head == hi and tail <= 0.0)
    return lower and upper


def _random_endpoint_arrays(rng, count):
    kind = rng.integers(0, 4, size=count)
    vals = np.empty((count, 2))
    vals[kind == 0] = rng.integers(-6, 7, size=(int(np.sum(kind == 0)), 2))
    vals[kind == 1] = rng.standard_normal((int(np.sum(kind == 1)), 2))
    n2 = int(np.sum(kind == 2))
    vals[kind == 2] = rng.standard_normal((n2, 2)) * 10.0 ** rng.integers(-6, 7, size=(n2, 1))
    n3 = int(np.sum(kind == 3))
    base = rng.standard_normal((n3, 1))
    vals[kind == 3] = np.hstack([base, base + np.abs(rng.standard_normal((n3, 1))) * 1e-14])
    lo = np.minimum(vals[:, 0], vals[:, 1])
    hi = np.maximum(vals[:, 0], vals[:, 1])
    t = rng.uniform(size=count)
    x = np.clip(lo + t * (hi - lo), lo, hi)
    return lo.tolist(), hi.tolist(), x.tolist()


def run_containment_fuzz(op_name, count, seed=7):
    """Exact containment decisions via error-free float transforms."""
    rng = np.random.default_rng(seed)
    alo, ahi, xs = _random_endpoint_arrays(rng, count)
    blo, bhi, ys = _random_endpoint_arrays(rng, count)
    violations = 0
    for i in range(count):
        a = Interval(alo[i], ahi[i])
        b = Interval(blo[i], bhi[i])
        x = xs[i]
        y = ys[i]
        if op_name == "add":
            r = a + b
            head, tail = _two_sum(x, y)
        elif op_name == "sub":
            r = a - b
            head, tail = _two_sum(x, -y)
        elif op_name == "mul":
            r = a * b
            head, tail = _two_prod(x, y)
        elif op_name == "div":
            if b.lo <= 0.0 <= b.hi:
                continue
            r = a / b
            # x/y in [lo, hi]  <=>  lo*y <= x <= hi*y (flipped for y < 0), exactly
            pl, el = _two_prod(r.lo, y)
            ph, eh = _two_prod(r.hi, y)
            if y > 0.0:
                ok = (pl < x or (pl == x and el <= 0.0)) and (
                    x < ph or (x == ph and eh >= 0.0)
                )
            else:
                ok = (x < pl or (x == pl and el >= 0.0)) and (
                    ph < x or (ph == x and eh <= 0.0)
                )
            if not ok:
                violations += 1
            continue
        else:
            raise ValueError(op_name)
        if not _dd_in(r.lo, r.hi, head, tail):
            violations += 1
    return violations


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_containment_fuzz(op):
    assert run_containment_fuzz(op, 20_000) == 0


def test_monotonicity_fuzz():
    rng = np.random.default_rng(11)
    n = 5000
    alo, ahi, _ = _random_endpoint_arrays(rng, n)
    blo, bhi, _ = _random_endpoint_arrays(rng, n)
    for i in range(n):
        a = Interval(alo[i], ahi[i])
        b = Interval(blo[i], bhi[i])
        a2 = Interval(a.lo - abs(rng.standard_normal()), a.hi + abs(rng.standard_normal()))
        b2 = Interval(b.lo - abs(rng.standard_normal()), b.hi + abs(rng.standard_normal()))
        for op in ("add", "sub", "mul"):
            inner = getattr(a, f"__{op}__")(b)
            outer = getattr(a2, f"__{op}__")(b2)
            assert outer.contains(inner), (op, a, b)
        if not (b2.lo <= 0.0 <= b2.hi):
            assert (a2 / b2).contains(a / b)


# ---------------------------------------------------------------------------
# entrywise balls against exact rationals
# ---------------------------------------------------------------------------

def _ball_values(rng, n):
    """Midpoints over many magnitudes, with zeros, subnormals and radii that
    are zero, tiny or wide."""
    m = rng.standard_normal(n) * 10.0 ** rng.integers(-310, 300, n)
    m[::7] = 0.0
    m[1::11] = rng.integers(-5, 6, m[1::11].shape) * 5e-324
    m[2::13] = rng.integers(-9, 10, m[2::13].shape)
    r = np.abs(m) * rng.choice([0.0, 1e-16, 1e-3, 2.0], n)
    r[3::17] = 5e-324
    return m, r


def _ball_holds(m, r, x: Fraction) -> bool:
    return math.isinf(r) or abs(Fraction(m) - x) <= Fraction(r)


def _vertices(m, r):
    return (Fraction(m) - Fraction(r), Fraction(m), Fraction(m) + Fraction(r))


def test_toward_rounding_brackets_exact(rng):
    a, _ = _ball_values(rng, 2000)
    b, _ = _ball_values(rng, 2000)
    with np.errstate(over="ignore"):
        for toward in (-math.inf, math.inf):
            s = add_toward(a, b, toward)
            p = mul_toward(np.abs(a), np.abs(b), toward)
            for i in range(a.size):
                exact_s = Fraction(a[i]) + Fraction(b[i])
                exact_p = Fraction(abs(a[i])) * Fraction(abs(b[i]))
                for got, exact in ((s[i], exact_s), (p[i], exact_p)):
                    if math.isinf(got):  # overflow only ever moves away from the exact value
                        assert got == toward, i
                    else:
                        assert (Fraction(got) - exact) * (1 if toward > 0 else -1) >= 0, i
                assert p[i] >= 0.0
                if Fraction(a[i] + b[i]) == exact_s:
                    assert s[i] == a[i] + b[i]
    assert mul_toward(np.array([0.0, 3.0]), np.array([math.inf, 0.0]), math.inf).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("op", ["add", "mul"])
def test_ball_kernels_contain_exact(rng, op):
    am, ar = _ball_values(rng, 1500)
    bm, br = _ball_values(rng, 1500)
    kernel = ball_add if op == "add" else ball_mul
    m, r = kernel(am, ar, bm, br)
    assert np.isfinite(m).all() and not np.isnan(r).any()
    for i in range(am.size):
        for x in _vertices(am[i], ar[i]):
            for y in _vertices(bm[i], br[i]):
                z = x + y if op == "add" else x * y
                assert _ball_holds(m[i], r[i], z), (i, am[i], ar[i], bm[i], br[i])


def test_ball_inv_contains_exact(rng):
    m = 10.0 ** rng.uniform(-8, 8, 500)
    r = m * rng.choice([0.0, 1e-16, 1e-3, 0.5], 500)
    im, ir = ball_inv(m, r)
    for i in range(m.size):
        for x in (Fraction(m[i]) - Fraction(r[i]), Fraction(m[i]) + Fraction(r[i])):
            assert _ball_holds(im[i], ir[i], 1 / x)
    assert [v.tolist() for v in ball_inv(np.zeros(2), np.zeros(2))] == [[0.0, 0.0], [0.0, 0.0]]


def test_ball_kernels_keep_exact_points_and_zeros():
    # a zero operand gives the exact zero, an exact sum of points a point
    m, r = ball_mul(np.array([0.0, 2.5]), np.array([0.0, 1.0]), np.array([7.0, 0.0]), np.zeros(2))
    assert m.tolist() == [0.0, 0.0] and r.tolist() == [0.0, 0.0]
    m, r = ball_add(np.array([0.0, 1.5, 1.0]), np.zeros(3), np.array([0.0, 2.0, 2.0**-60]), np.zeros(3))
    assert m.tolist() == [0.0, 3.5, 1.0] and r.tolist() == [0.0, 0.0, 2.0**-60]
    # an infinite radius times the point zero is the exact zero
    m, r = ball_mul(np.array([0.0]), np.array([math.inf]), np.array([0.0]), np.array([0.0]))
    assert (m[0], r[0]) == (0.0, 0.0)


def test_ball_kernels_overflow_to_unbounded():
    big = np.array([1.7e308, -1.7e308])
    for m, r in (
        ball_add(big, np.zeros(2), big, np.zeros(2)),
        ball_mul(big, np.zeros(2), np.array([4.0, 1.0]), np.array([0.0, math.inf])),
    ):
        assert m.tolist() == [0.0, 0.0] and r.tolist() == [math.inf] * 2


_BALL_MID = st.floats(allow_nan=False, allow_infinity=False, width=64)
_BALL_RAD = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e300))


@settings(max_examples=300, deadline=None)
@given(_BALL_MID, _BALL_RAD, _BALL_MID, _BALL_RAD)
def test_ball_kernels_contain_exact_property(am, ar, bm, br):
    for kernel, op in ((ball_add, lambda x, y: x + y), (ball_mul, lambda x, y: x * y)):
        m, r = kernel(np.array([am]), np.array([ar]), np.array([bm]), np.array([br]))
        assert math.isfinite(m[0]) and not math.isnan(r[0])
        for x in _vertices(am, ar):
            for y in _vertices(bm, br):
                assert _ball_holds(m[0], r[0], op(x, y))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _ends(b: BallMatrix, i: int, j: int):
    """Exact endpoints mid - rad and mid + rad of entry (i, j) of b."""
    mid, rad = Fraction(b.mid[i, j]), Fraction(b.rad[i, j])
    return mid - rad, mid + rad


def test_matmul_identity_widening(rng):
    a = rng.standard_normal((6, 6))
    prod = mat_mul(BallMatrix.point(np.eye(6)), BallMatrix.point(a))
    for i in range(6):
        for j in range(6):
            lo, hi = _ends(prod, i, j)
            assert lo <= Fraction(a[i, j]) <= hi
    assert 2.0 * np.max(prod.rad) <= 16 * ULP * np.max(np.abs(a))


def test_matmul_1x1_is_scalar_mul():
    a = BallMatrix.hull(np.array([[1.5]]), np.array([[2.0]]))
    b = BallMatrix.hull(np.array([[-3.0]]), np.array([[0.5]]))
    prod = mat_mul(a, b)
    scalar = Interval(1.5, 2.0) * Interval(-3.0, 0.5)
    lo, hi = _ends(prod, 0, 0)
    assert lo <= Fraction(scalar.lo) and Fraction(scalar.hi) <= hi


def test_matmul_exact_rational_oracle(rng):
    a = rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5))
    prod = mat_mul(BallMatrix.point(a), BallMatrix.point(b))
    for i in range(5):
        for j in range(5):
            exact = sum(Fraction(a[i, k]) * Fraction(b[k, j]) for k in range(5))
            lo, hi = _ends(prod, i, j)
            assert lo <= exact <= hi


def test_matmul_dim_mismatch():
    with pytest.raises(ValueError):
        mat_mul(BallMatrix.point(np.eye(3)), BallMatrix.point(np.eye(4)))


def test_norm2_identity():
    for n in (1, 8, 50):
        bound = mat_norm2_upper(BallMatrix.point(np.eye(n)))
        assert 1.0 <= bound <= 1.0 + 1e-12


def test_norm2_diagonal():
    d = BallMatrix.point(np.diag([1.0, 2.0, 3.0]))
    bound = mat_norm2_upper(d)
    assert 3.0 <= bound <= 3.0 * (1.0 + 1e-12)


def test_norm2_upper_bounds_svd(rng):
    for _ in range(20):
        m = rng.standard_normal((8, 8))
        sigma_max = np.linalg.svd(m, compute_uv=False)[0]
        assert mat_norm2_upper(BallMatrix.point(m)) >= sigma_max


def test_norm2_upper_interval_members(rng):
    lo = rng.standard_normal((7, 7))
    hi = lo + abs(rng.standard_normal((7, 7)))
    m = BallMatrix.hull(lo, hi)
    bound = mat_norm2_upper(m)
    for _ in range(50):
        member = lo + rng.uniform(size=(7, 7)) * (hi - lo)
        assert np.linalg.svd(member, compute_uv=False)[0] <= bound


def _sampled_members(rng, lo, hi, count: int):
    """Uniform members, the midpoint and random vertices of [lo, hi]."""
    yield 0.5 * (lo + hi)
    for _ in range(count):
        yield lo + rng.uniform(size=lo.shape) * (hi - lo)
        yield np.where(rng.uniform(size=lo.shape) < 0.5, lo, hi)


@pytest.mark.parametrize("shape", [(7, 7), (6, 9), (9, 6), (40, 40)])
@pytest.mark.parametrize("width", [1e-12, 1e-3, 0.5])
def test_norm2_upper_bounds_sampled_members(rng, shape, width):
    lo = rng.standard_normal(shape)
    hi = lo + width * np.abs(rng.standard_normal(shape))
    m = BallMatrix.hull(lo, hi)
    bound = mat_norm2_upper(m)
    assert bound <= _cheap_norm2_upper(m)
    for member in _sampled_members(rng, lo, hi, 20):
        assert np.linalg.svd(member, compute_uv=False)[0] <= bound


@pytest.mark.parametrize("n", [1, 5, 40, 200])
def test_norm2_upper_sharp_on_point_matrices(rng, n):
    for m in (rng.standard_normal((n, n)), np.diag(np.logspace(-8, 3, n)),
              np.triu(np.ones((n, n)))):
        sigma_max = np.linalg.svd(m, compute_uv=False)[0]
        bound = mat_norm2_upper(BallMatrix.point(m))
        assert sigma_max <= bound <= sigma_max * (1.0 + 1e-9)


def test_norm2_upper_returns_cheap_bound_when_cholesky_fails(rng, monkeypatch):
    a = BallMatrix.point(rng.standard_normal((12, 12)))
    sharp = mat_norm2_upper(a)

    def fail(x):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    assert mat_norm2_upper(a) == _cheap_norm2_upper(a) > sharp


def _mp_inverse_norm(m: np.ndarray):
    """1 / sigma_min(m) to 50 digits."""
    with mpmath.workdps(50):
        sv = mpmath.svd_r(mpmath.matrix(m.tolist()), compute_uv=False)
        return 1 / min(sv)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_inverse_norm_bound_mpmath_oracle(rng, n):
    for shift in (5.0, 1.0, 0.0):
        m = rng.standard_normal((n, n)) + shift * np.eye(n)
        bound, defect, _ = mat_inverse_norm2_upper(BallMatrix.point(m))
        oracle = _mp_inverse_norm(m)
        assert bound >= oracle
        if shift == 5.0:  # well conditioned
            assert bound <= oracle * (1 + mpmath.mpf("1e-9"))
        assert defect < 1.0


def test_inverse_norm_bound_interval_members_mpmath(rng):
    lo = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
    hi = lo + 1e-3 * np.abs(rng.standard_normal((6, 6)))
    bound, _, _ = mat_inverse_norm2_upper(BallMatrix.hull(lo, hi))
    for member in _sampled_members(rng, lo, hi, 5):
        assert bound >= _mp_inverse_norm(member)


def test_inverse_norm_bound(rng):
    for _ in range(10):
        m = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
        bound, defect, _ = mat_inverse_norm2_upper(BallMatrix.point(m))
        oracle = 1.0 / np.linalg.svd(m, compute_uv=False)[-1]
        assert bound >= oracle  # inequality direction
        assert bound <= 1.5 * oracle
        assert defect < 1.0


def test_inverse_norm_bound_rejects_singular():
    m = np.zeros((4, 4))
    with pytest.raises(IntervalDomainError):
        mat_inverse_norm2_upper(BallMatrix.point(m))


def test_sub_identity_exact():
    a = BallMatrix.point(np.full((3, 3), 2.0))
    e = mat_sub_identity(a)
    assert e.mid[0, 0] == 1.0 and e.rad[0, 0] == 0.0
    assert e.mid[0, 1] == 2.0 and e.rad[0, 1] == 0.0


@pytest.mark.parametrize("point", [True, False])
def test_sub_identity_fraction_oracle(rng, point):
    # diagonal midpoints in [0.5, 2] subtract 1 exactly (Sterbenz); outside,
    # small, negative and huge ones round, and the rounding joins the radius
    n = 12
    mid = rng.standard_normal((n, n))
    diag = np.concatenate([rng.uniform(0.5, 2.0, 4), [0.5, 2.0, 0.1, 1e-20, -0.3, 3.7e16],
                           rng.uniform(-3.0, 0.4, 2)])
    mid[np.arange(n), np.arange(n)] = diag
    rad = np.zeros((n, n)) if point else np.abs(rng.standard_normal((n, n))) * 1e-10
    a = BallMatrix(mid, rad)
    e = mat_sub_identity(a)
    rounded = 0
    for i in range(n):
        for j in range(n):
            lo, hi = _ends(e, i, j)
            shift = Fraction(int(i == j))
            for end in _ends(a, i, j):
                assert lo <= end - shift <= hi, (i, j)
            if i != j:
                assert e.mid[i, j] == mid[i, j] and e.rad[i, j] == rad[i, j]
        exact = Fraction(e.mid[i, i]) == Fraction(mid[i, i]) - 1
        if 0.5 <= mid[i, i] <= 2.0:
            assert exact and e.rad[i, i] == rad[i, i], i
        rounded += not exact
    assert rounded >= 4
    assert np.array_equal(a.mid, mid) and np.array_equal(a.rad, rad)  # a is unchanged


# ---------------------------------------------------------------------------
# mat_mul against exact rational products
# ---------------------------------------------------------------------------

def _random_interval_matrix(rng, shape, point=False, scale=1.0):
    lo = rng.standard_normal(shape) * scale
    if point:
        return BallMatrix.point(lo)
    width = np.abs(rng.standard_normal(shape)) * scale * rng.choice([0.0, 1e-12, 0.5], shape)
    return BallMatrix.hull(lo, lo + width)


def _exact_entry_hull(a: BallMatrix, b: BallMatrix, i: int, j: int):
    """Exact range of entry (i, j) over all member products: a sum of
    independent scalar product ranges, each with rational endpoints."""
    lo = hi = Fraction(0)
    for k in range(a.cols):
        ends = [x * y for x in _ends(a, i, k) for y in _ends(b, k, j)]
        lo += min(ends)
        hi += max(ends)
    return lo, hi


def assert_matmul_contains_exact(a: BallMatrix, b: BallMatrix):
    prod = mat_mul(a, b)
    assert prod.shape == (a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            if prod.rad[i, j] == math.inf:
                assert prod.mid[i, j] == 0.0
                continue
            lo, hi = _exact_entry_hull(a, b, i, j)
            blo, bhi = _ends(prod, i, j)
            assert blo <= lo, (i, j)
            assert hi <= bhi, (i, j)
    return prod


@pytest.mark.parametrize("a_point,b_point", [(False, False), (True, False), (False, True)])
@pytest.mark.parametrize("shape", [(4, 4, 4), (3, 7, 2), (1, 5, 6), (6, 1, 3)])
def test_matmul_exact_hull_oracle(rng, a_point, b_point, shape):
    m, p, n = shape
    a = _random_interval_matrix(rng, (m, p), point=a_point)
    b = _random_interval_matrix(rng, (p, n), point=b_point)
    assert_matmul_contains_exact(a, b)


def test_matmul_zero_rows_and_columns(rng):
    for a_point, b_point in ((False, False), (True, False), (False, True)):
        a = _random_interval_matrix(rng, (4, 5), point=a_point)
        b = _random_interval_matrix(rng, (5, 3), point=b_point)
        a = BallMatrix(a.mid.copy(), a.rad.copy())
        b = BallMatrix(b.mid.copy(), b.rad.copy())
        a.mid[1, :] = 0.0
        a.rad[1, :] = 0.0
        b.mid[:, 2] = 0.0
        b.rad[:, 2] = 0.0
        prod = assert_matmul_contains_exact(a, b)
        # a zero row or column gives exact zeros, without an underflow radius
        for sel in (np.s_[1, :], np.s_[:, 2]):
            assert np.all(prod.mid[sel] == 0.0) and np.all(prod.rad[sel] == 0.0)
        assert np.all(prod.rad[np.arange(4) != 1][:, :2] > 0.0)


@pytest.mark.parametrize("a_point", [False, True])
def test_matmul_near_1e300(rng, a_point):
    a = _random_interval_matrix(rng, (3, 4), point=a_point, scale=1e300)
    b = _random_interval_matrix(rng, (4, 3), scale=0.1)
    prod = assert_matmul_contains_exact(a, b)
    assert np.all(np.isfinite(prod.rad))


def test_matmul_overflow_gives_unbounded_entry():
    a = BallMatrix.point(np.array([[1e300, 1.0]]))
    b = BallMatrix.point(np.array([[1e300], [1.0]]))
    prod = mat_mul(a, b)
    assert prod.mid[0, 0] == 0.0 and prod.rad[0, 0] == math.inf


@pytest.mark.parametrize("a_point,b_point", [(False, False), (True, False), (False, True)])
def test_matmul_subnormal_range(rng, a_point, b_point):
    # products near 1e-320 and 5e-324 * O(1) underflow into the subnormal range
    a = _random_interval_matrix(rng, (3, 5), point=a_point, scale=1e-160)
    b = _random_interval_matrix(rng, (5, 4), point=b_point, scale=1e-160)
    assert_matmul_contains_exact(a, b)
    tiny = BallMatrix.point(rng.integers(-3, 4, (3, 5)) * 5e-324)
    assert_matmul_contains_exact(tiny, _random_interval_matrix(rng, (5, 4), point=b_point))


_ENDPOINT = st.floats(
    min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False
)


@st.composite
def _interval_matrix(draw, rows, cols, point):
    lo = np.array(draw(st.lists(_ENDPOINT, min_size=rows * cols, max_size=rows * cols)))
    lo = lo.reshape(rows, cols)
    if point:
        return BallMatrix.point(lo)
    other = np.array(draw(st.lists(_ENDPOINT, min_size=rows * cols, max_size=rows * cols)))
    other = other.reshape(rows, cols)
    return BallMatrix.hull(np.minimum(lo, other), np.maximum(lo, other))


@st.composite
def _matmul_operands(draw):
    m, p, n = (draw(st.integers(1, 4)) for _ in range(3))
    a_point, b_point = draw(st.sampled_from([(False, False), (True, False), (False, True)]))
    return draw(_interval_matrix(m, p, a_point)), draw(_interval_matrix(p, n, b_point))


@settings(max_examples=300, deadline=None)
@given(_matmul_operands())
def test_matmul_contains_exact_property(operands):
    assert_matmul_contains_exact(*operands)


# ---------------------------------------------------------------------------
# balls from endpoints, and BallMatrix edge cases
# ---------------------------------------------------------------------------

def _assert_ball_holds_endpoints(lo, hi):
    mid, rad = mid_rad(lo, hi)
    for x, y, m, r in zip(np.ravel(lo), np.ravel(hi), np.ravel(mid), np.ravel(rad)):
        if r == math.inf:  # the whole real line
            assert m == 0.0
            continue
        assert Fraction(m) - Fraction(r) <= Fraction(x)
        assert Fraction(y) <= Fraction(m) + Fraction(r)
    return mid, rad


def test_rad_of_point_entries_is_exact_zero():
    lo = np.array([[1.0, 0.0], [1e-300, -2.0], [5e-324, -5e-324]])
    hi = np.array([[1.0, 0.0], [1e-300, 3.0], [5e-324, 1e-323]])
    mid, rad = _assert_ball_holds_endpoints(lo, hi)
    point = lo == hi
    assert np.all(rad[point] == 0.0) and np.all(mid[point] == lo[point])
    assert np.all(rad[~point] > 0.0)


def test_mid_does_not_overflow():
    big = 1.5e308
    lo = np.array([[big, -big, -big]])
    hi = np.array([[big * 1.1, -big, big]])
    mid, rad = _assert_ball_holds_endpoints(lo, hi)
    assert np.all(np.isfinite(mid)) and np.all(np.isfinite(rad))
    assert lo[0, 0] <= mid[0, 0] <= hi[0, 0] and mid[0, 1] == -big and rad[0, 1] == 0.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=6))
def test_mid_rad_holds_endpoints_property(pairs):
    lo = np.array([min(p) for p in pairs])
    hi = np.array([max(p) for p in pairs])
    _assert_ball_holds_endpoints(lo, hi)


def test_mid_rad_unbounded_endpoints():
    mid, rad = mid_rad(np.array([-math.inf, 1.0, -math.inf]), np.array([math.inf, math.inf, 0.0]))
    assert np.all(mid == 0.0) and np.all(rad == math.inf)


def test_matrix_rejects_nan_entries():
    for mid, rad in (([[np.nan]], [[1.0]]), ([[0.0]], [[np.nan]]), ([[math.inf]], [[0.0]])):
        with pytest.raises(IntervalDomainError):
            BallMatrix(np.array(mid), np.array(rad))
    for lo, hi in (([[np.nan]], [[1.0]]), ([[0.0]], [[np.nan]]), ([[1.0]], [[0.0]])):
        with pytest.raises(IntervalDomainError):
            BallMatrix.hull(np.array(lo), np.array(hi))


def test_matrix_rejects_negative_radii():
    for rad in (-1e-300, -5e-324, -math.inf):
        with pytest.raises(IntervalDomainError):
            BallMatrix(np.zeros((2, 2)), np.array([[0.0, 1.0], [rad, 0.0]]))
    assert BallMatrix(np.array([[0.0]]), np.array([[math.inf]])).rad[0, 0] == math.inf
