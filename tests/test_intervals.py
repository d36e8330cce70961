import math
import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balls import (
    ball_hull,
    cheap_norm2_upper,
    contains,
    gram_spread,
    mat_mul,
    mat_sub_identity,
    norm2_upper,
    point_matrix,
    transpose,
)
from scalar_intervals import RefInterval
from okvalid import intervals
from okvalid.intervals import (
    BallMatrix,
    _cholesky_shift,
    _defect_norm_upper,
    _gamma,
    _gram_norm2_upper,
    _gram_spread,
    _max_sum_upper,
    Interval,
    IntervalDomainError,
    inverse_norm2_at_most,
    mat_inverse_norm2_upper,
    add_toward,
    ball_add,
    ball_inv,
    ball_mul,
    mid_rad,
    mul_toward,
)

ULP = 2.0 ** -52


@pytest.mark.parametrize("k", [1, 6, 7, 82, 3**3 * 1727])
def test_gamma_is_exact_and_formed_once(k):
    # gamma_k = k u / (1 - k u) exactly, and a repeated k returns the same
    # (immutable) Fraction without forming it again
    u = Fraction(1, 2**53)
    assert _gamma(k) == k * u / (1 - k * u)
    assert _gamma(k) is _gamma(k)


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


@pytest.mark.parametrize("a, b, hull", [
    ((0.0, 1.0), (-math.inf, 1.0), (-math.inf, 1.0)),
    ((0.0, 2.0), (-math.inf, -1.0), (-math.inf, 0.0)),
    ((-1.0, 0.0), (1.0, math.inf), (-math.inf, 0.0)),
    ((0.0, 0.0), (-math.inf, math.inf), (0.0, 0.0)),
])
def test_mul_zero_times_infinite_endpoint(a, b, hull):
    # 0 * inf is NaN in float; the members are finite, so the candidate is 0,
    # in either operand order
    for x, y in ((a, b), (b, a)):
        r = Interval(*x) * Interval(*y)
        assert (r.lo, r.hi) == hull, (x, y)


def _mul_reference(x: Interval, y: Interval):
    """The product's ends from the exact rational test of every candidate:
    a candidate is exact when a factor is 0, or when both are integers of
    magnitude at most 2^26 and their float product is the rational one;
    an end is kept when every candidate at it is exact, else rounded out."""
    cands = [(a, c) for a in (x.lo, x.hi) for c in (y.lo, y.hi)]
    prods = [0.0 if math.isnan(a * c) else a * c for a, c in cands]

    def exact(a, c, prod):
        if a == 0.0 or c == 0.0:
            return True
        small = all(abs(t) <= 2.0**26 and t == int(t) for t in (a, c))
        return small and math.isfinite(prod) and Fraction(a) * Fraction(c) == Fraction(prod)

    lo, hi = min(prods), max(prods)
    lo_exact = all(exact(a, c, q) for (a, c), q in zip(cands, prods) if q == lo)
    hi_exact = all(exact(a, c, q) for (a, c), q in zip(cands, prods) if q == hi)
    return (lo if lo_exact else math.nextafter(lo, -math.inf),
            hi if hi_exact else math.nextafter(hi, math.inf))


@pytest.mark.parametrize("zero", [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0)])
@pytest.mark.parametrize("other", [(-2.0, 3.5), (-math.inf, -1.0), (0.5, math.inf),
                                   (-0.0, 0.0), (-math.inf, math.inf), (3.0, 3.0)])
def test_mul_point_zero_keeps_the_signed_zero(zero, other):
    for x, y in ((zero, other), (other, zero)):
        r = Interval(*x) * Interval(*y)
        want = _mul_reference(Interval(*x), Interval(*y))
        assert (r.lo.hex(), r.hi.hex()) == (want[0].hex(), want[1].hex()), (x, y)


_MUL_ENDS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.0**-1030,
                     -(2.0**-1030), 2.0**-1022, 0.5, -0.5, 1.5, -1.5, 2.0**26, -(2.0**26),
                     2.0**26 + 1.0, -(2.0**26 + 2.0), 1e308, -1e308]),
    st.integers(-9, 9).map(float),
    st.integers(-400, 400).map(lambda k: k / 2.0),
    st.floats(min_value=1e307, max_value=1.7976931348623157e308).flatmap(
        lambda x: st.sampled_from([x, -x])),
    st.floats(allow_nan=False),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_MUL_ENDS, min_size=4, max_size=4))
def test_mul_matches_exact_rational_path(ends):
    # the fast path for products that no candidate can make exact keeps the
    # bits (signs of zero included) of the exact rational test
    x, y = Interval(*sorted(ends[:2])), Interval(*sorted(ends[2:]))
    r = x * y
    want = _mul_reference(x, y)
    assert (r.lo.hex(), r.hi.hex()) == (want[0].hex(), want[1].hex()), (x, y)


_SCALAR_ENDS = st.one_of(
    _MUL_ENDS,
    st.sampled_from([1e-308, -1e-308, 2.0**-1074 * 3, 2.0**26 - 1.0, -(2.0**26 - 0.5),
                     2.0**27, 1.7976931348623157e308, 3.0, -7.0, 0.1]),
)


def _outcome(f):
    """The float.hex of each end of the interval f() returns, or the type
    of the exception it raises."""
    try:
        r = f()
    except Exception as exc:  # noqa: BLE001 - the exception's type is the outcome
        return type(exc)
    return r.lo.hex(), r.hi.hex()


@settings(max_examples=1500, deadline=None)
@given(st.lists(_SCALAR_ENDS, min_size=4, max_size=4),
       st.one_of(_SCALAR_ENDS, st.just(math.nan), st.integers(-5, 5)),
       st.integers(-3, 5))
def test_scalar_ops_keep_the_helper_reference_bits(ends, other, n):
    # the inlined +, -, *, / and square return the bits of the helper-based
    # reference, and raise where it raises, on interval and float operands
    # in either order; sqrt, abs and ** are compared as well
    x, y = sorted(ends[:2]), sorted(ends[2:])
    new, ref = (Interval(*x), Interval(*y)), (RefInterval(*x), RefInterval(*y))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for i, j in ((0, 1), (1, 0), (0, 0)):
            assert _outcome(lambda: op(new[i], new[j])) == _outcome(lambda: op(ref[i], ref[j])), (op, x, y)
        assert _outcome(lambda: op(new[0], other)) == _outcome(lambda: op(ref[0], other)), (op, x, other)
        assert _outcome(lambda: op(other, new[0])) == _outcome(lambda: op(other, ref[0])), (op, other, x)
    for unary in (lambda v: v.square(), lambda v: v.sqrt(), abs, operator.neg, lambda v: v**n):
        for i in (0, 1):
            assert _outcome(lambda: unary(new[i])) == _outcome(lambda: unary(ref[i])), (n, new[i])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=1000, deadline=None)
@given(_FINITE, _FINITE.filter(lambda b: b != 0.0))
@example(13.333457, 1.0)  # was one ulp wide on each side, a non-integer over 1
@example(2.0**-1074, 3.0)  # subnormal: the error term would underflow
@example(3 * 2.0**-1074, 0.75)  # subnormal, exact as 4 * 2^-1074
@example(3 * 2.0**-960, 3.0)  # at the underflow guard
@example(1.5 * 2.0**1023, 3.0)  # huge: a split would overflow
@example(2.0**1000, 2.0**-994)  # a huge quotient
def test_point_quotient_is_a_point_exactly_where_it_is_a_double(x, b):
    # for a = x and a = fl(x b), the latter often a multiple of b: the
    # quotient encloses a / b, and it is a point exactly when a / b is a
    # double, whatever the size of the operands: inside the ranges of the
    # error-free product and past them, where integers decide
    for a in (x, x * b):
        if not math.isfinite(a):
            continue
        r = Interval(a) / Interval(b)
        exact = Fraction(a) / Fraction(b)
        assert r.lo == -math.inf or Fraction(r.lo) <= exact, (a, b)
        assert r.hi == math.inf or exact <= Fraction(r.hi), (a, b)
        q = a / b
        assert (r.lo == r.hi) == (math.isfinite(q) and Fraction(q) == exact), (a, b)


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
            assert contains(outer, inner), (op, a, b)
        if not (b2.lo <= 0.0 <= b2.hi):
            assert contains(a2 / b2, a / b)


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
    prod = mat_mul(point_matrix(np.eye(6)), point_matrix(a))
    for i in range(6):
        for j in range(6):
            lo, hi = _ends(prod, i, j)
            assert lo <= Fraction(a[i, j]) <= hi
    assert 2.0 * np.max(prod.rad) <= 16 * ULP * np.max(np.abs(a))


def test_matmul_1x1_is_scalar_mul():
    a = ball_hull(np.array([[1.5]]), np.array([[2.0]]))
    b = ball_hull(np.array([[-3.0]]), np.array([[0.5]]))
    prod = mat_mul(a, b)
    scalar = Interval(1.5, 2.0) * Interval(-3.0, 0.5)
    lo, hi = _ends(prod, 0, 0)
    assert lo <= Fraction(scalar.lo) and Fraction(scalar.hi) <= hi


def test_matmul_exact_rational_oracle(rng):
    a = rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5))
    prod = mat_mul(point_matrix(a), point_matrix(b))
    for i in range(5):
        for j in range(5):
            exact = sum(Fraction(a[i, k]) * Fraction(b[k, j]) for k in range(5))
            lo, hi = _ends(prod, i, j)
            assert lo <= exact <= hi


def test_matmul_dim_mismatch():
    with pytest.raises(ValueError):
        mat_mul(point_matrix(np.eye(3)), point_matrix(np.eye(4)))


# ||C||, C the point inverse, that mat_inverse_norm2_upper certifies by the
# smaller of sqrt(||C||_1 ||C||_inf) and the Gram certificate, against the
# singular values of the same float inverse

def _inverse_norm(a: np.ndarray):
    """The ||C|| that mat_inverse_norm2_upper returns for the point matrix a,
    and the float inverse C itself."""
    return mat_inverse_norm2_upper(point_matrix(a))[2], np.linalg.inv(a)


def _cheap_norm(c: np.ndarray) -> float:
    """sqrt(||C||_1 ||C||_inf) of the point matrix c, rounded as
    mat_inverse_norm2_upper rounds it."""
    return cheap_norm2_upper(point_matrix(c))


def _mp_norm(m: np.ndarray):
    """sigma_max(m) to 50 digits."""
    with mpmath.workdps(50):
        return max(mpmath.svd_r(mpmath.matrix(m.tolist()), compute_uv=False))


def test_norm2_identity():
    for n in (1, 8, 50):
        bound, _ = _inverse_norm(np.eye(n))
        assert 1.0 <= bound <= 1.0 + 1e-12


def test_norm2_diagonal():
    # on a diagonal C sqrt(||C||_1 ||C||_inf) is sharp up to its rounding
    # budget, which the Gram certificate's shifts exceed: the cheap bound wins
    bound, c = _inverse_norm(np.diag([1.0, 0.5, 0.25]))
    assert np.array_equal(c, np.diag([1.0, 2.0, 4.0]))
    assert 4.0 <= bound <= 4.0 * (1.0 + 1e-12)
    assert bound == _cheap_norm(c)


def test_norm2_upper_bounds_svd(rng):
    # on a random C the Gram certificate wins
    for _ in range(20):
        bound, c = _inverse_norm(rng.standard_normal((8, 8)))
        assert _mp_norm(c) <= bound < _cheap_norm(c)


# norm2_upper, the test-side bound on every member of a ball matrix, is the
# oracle of the defect checks in test_operator: its own check

def test_norm2_upper_interval_members(rng):
    lo = rng.standard_normal((7, 7))
    hi = lo + abs(rng.standard_normal((7, 7)))
    m = ball_hull(lo, hi)
    bound = norm2_upper(m)
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
    m = ball_hull(lo, hi)
    bound = norm2_upper(m)
    assert bound <= cheap_norm2_upper(m)
    for member in _sampled_members(rng, lo, hi, 20):
        assert np.linalg.svd(member, compute_uv=False)[0] <= bound


@pytest.mark.parametrize("n", [1, 5, 40, 200])
def test_norm2_upper_sharp_on_point_matrices(rng, n):
    # C near a random, a widely scaled diagonal and an all-ones triangular matrix
    for m in (rng.standard_normal((n, n)), np.diag(np.logspace(-8, 3, n)),
              np.triu(np.ones((n, n)))):
        bound, c = _inverse_norm(np.linalg.inv(m))
        sigma_max = np.linalg.svd(c, compute_uv=False)[0]
        assert sigma_max <= bound <= sigma_max * (1.0 + 1e-9)


def test_norm2_upper_returns_cheap_bound_when_cholesky_fails(rng, monkeypatch):
    # the Gram certificate is inf where the Cholesky fails, so ||C|| falls
    # back to sqrt(||C||_1 ||C||_inf)
    a = rng.standard_normal((12, 12)) + 4.0 * np.eye(12)
    sharp, c = _inverse_norm(a)
    cheap = _cheap_norm(c)

    def fail(x):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    assert _gram_norm2_upper(c.T @ c, 0.0) == math.inf
    assert _inverse_norm(a)[0] == cheap > sharp


def test_norm2_upper_returns_cheap_bound_when_gram_overflows(monkeypatch):
    # C about 1e160: C^T C and its spread overflow, so no LAPACK call sees
    # them, and ||C|| is sqrt(||C||_1 ||C||_inf), which overflows too: an
    # infinite bound, not an error
    a = point_matrix(1e-160 * (np.eye(4) + 0.25 * np.triu(np.ones((4, 4)), 1)))
    c = np.linalg.inv(a.mid)
    with np.errstate(over="ignore"):
        assert not np.isfinite(c.T @ c).all()

    def fail(x):
        raise AssertionError("certificate tried on a non-finite Gram matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    bound, e, c_norm = mat_inverse_norm2_upper(a)
    assert e < 1e-12 and bound == c_norm == _cheap_norm(c) == math.inf
    with np.errstate(over="ignore"):
        assert _gram_norm2_upper(c.T @ c, 0.0) == math.inf


def _positive_definite(m) -> bool:
    """Whether the symmetric matrix m of Fractions is positive definite:
    every pivot of Gaussian elimination without pivoting is positive."""
    m = [row[:] for row in m]
    for k in range(len(m)):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= f * m[k][j]
    return True


def test_cholesky_shift_covers_the_backward_error(rng):
    # where floating Cholesky succeeds on Y, Y + beta I is positive definite
    # in exact arithmetic (Rump, BIT 46, 2006), also where Y itself is not:
    # Y = fl(B B^T) for B of rank n - 1 is singular up to its roundings
    n = 6
    indefinite = 0
    for _ in range(100):
        b = rng.standard_normal((n, n - 1))
        y = b @ b.T
        try:
            np.linalg.cholesky(y)
        except np.linalg.LinAlgError:
            continue
        exact = [[Fraction(v) for v in row] for row in y]
        indefinite += not _positive_definite(exact)
        beta = Fraction(_cholesky_shift(n, float(np.max(np.diag(y)))))
        for i in range(n):
            exact[i][i] += beta
        assert _positive_definite(exact)
    assert indefinite > 0


def test_gram_certificate_reads_only_the_lower_triangle(rng):
    # eigvalsh and the Cholesky read only the lower triangle: finite garbage
    # in the upper one gives the same certified bound, bit for bit; n = 120
    # is past EIGVALSH_WIDTH, where the lower triangle is mirrored for the
    # Lanczos estimate
    for n in (1, 7, 60, 120):
        c = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        abs_c = np.abs(c)
        spread = _gram_spread(abs_c, abs_c.sum(axis=1))
        gram = c.T @ c
        clean = _gram_norm2_upper(gram.copy(), spread)
        assert clean < math.inf
        upper = np.triu_indices(n, 1)
        for garbage in (1e3 * rng.standard_normal(upper[0].size), -gram[upper], 0.0):
            dirty = gram.copy()
            dirty[upper] = garbage
            assert _gram_norm2_upper(dirty, spread) == clean


def _eigvalsh_widths(monkeypatch) -> list:
    """The widths of the matrices np.linalg.eigvalsh sees from here on; one
    wider than KRYLOV_STEPS is a block-sized eigendecomposition."""
    widths = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        widths.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return widths


def _ulps(x: float, ref: float) -> float:
    return abs(x - ref) / math.ulp(ref)


@pytest.mark.parametrize("m", [33, 60, 100, 200, 300])
def test_lambda_max_estimate_near_eigvalsh_on_inverse_grams(rng, m):
    # C^T C for C the inverse of a random matrix, shifted or not, as the
    # certificate meets it: a well separated top, reached in a few steps and
    # within 8 ulps of eigvalsh (measured: at most 7); 4 ulps is not
    # attainable, as eigvalsh is itself up to about 5 ulps from a
    # long-double Rayleigh quotient on such matrices
    for shift in (0.0, 3.0):
        c = np.linalg.inv(rng.standard_normal((m, m)) + shift * np.eye(m))
        g = c.T @ c
        est = intervals._lambda_max_estimate(g, intervals._krylov_start(m))
        assert _ulps(est, np.linalg.eigvalsh(g)[-1]) <= 8


def test_krylov_start_is_deterministic_and_unstructured():
    # frac(i phi) - 1/2, phi the float: the IEEE products i phi, then an
    # exact frac and shift, so the same bits on every platform; in
    # [-1/2, 1/2), and no two entries equal, so no permutation of the modes
    # fixes it
    v = intervals._krylov_start(4096)
    i = np.arange(1, 4097)
    want = [float(Fraction(float(k) * 0.6180339887498949) % 1 - Fraction(1, 2)) for k in i]
    assert v.tolist() == want
    assert np.all((-0.5 <= v) & (v < 0.5)) and np.unique(v).size == v.size


@pytest.mark.parametrize("n", [96, 120, 200])
def test_clustered_gram_falls_back_to_eigvalsh(monkeypatch, n):
    # C, the inverse of the all-ones upper triangle, has a clustered top
    # (sigma_2^2 / sigma_1^2 is 0.995 to 0.9998): KRYLOV_STEPS steps leave
    # the estimate too low for the shifted Cholesky, so eigvalsh supplies it
    # for one more, and ||C|| stays sharp
    a = np.triu(np.ones((n, n)))
    widths = _eigvalsh_widths(monkeypatch)
    c_norm = mat_inverse_norm2_upper(point_matrix(a))[2]
    assert widths.count(n) == 1 and len(widths) == intervals.KRYLOV_STEPS + 1
    sigma_max = np.linalg.svd(np.linalg.inv(a), compute_uv=False)[0]
    assert sigma_max <= c_norm <= sigma_max * (1.0 + 1e-9)


def test_failed_estimate_leaves_the_eigvalsh_certificate(rng, monkeypatch):
    # where the Lanczos estimate's Cholesky fails, gram is restored before
    # eigvalsh: the bound is that of the eigvalsh estimate, bit for bit
    n = 100
    c = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    abs_c = np.abs(c)
    spread = _gram_spread(abs_c, abs_c.sum(axis=1))
    gram = c.T @ c
    d = np.arange(n)
    top = float(np.linalg.eigvalsh(gram)[-1])
    direct = intervals._shifted_cholesky_bound(gram.copy(), gram[d, d], top, spread)
    assert direct < math.inf
    monkeypatch.setattr(intervals, "_lambda_max_estimate", lambda g, v: 0.5 * top)
    widths = _eigvalsh_widths(monkeypatch)
    assert _gram_norm2_upper(gram.copy(), spread) == direct
    assert widths == [n]


def _mp_inverse_norm(m: np.ndarray):
    """1 / sigma_min(m) to 50 digits."""
    with mpmath.workdps(50):
        sv = mpmath.svd_r(mpmath.matrix(m.tolist()), compute_uv=False)
        return 1 / min(sv)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_inverse_norm_bound_mpmath_oracle(rng, n):
    for shift in (5.0, 1.0, 0.0):
        m = rng.standard_normal((n, n)) + shift * np.eye(n)
        bound, defect, _ = mat_inverse_norm2_upper(point_matrix(m))
        oracle = _mp_inverse_norm(m)
        assert bound >= oracle
        if shift == 5.0:  # well conditioned
            assert bound <= oracle * (1 + mpmath.mpf("1e-9"))
        assert defect < 1.0


def test_inverse_norm_bound_interval_members_mpmath(rng):
    lo = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
    hi = lo + 1e-3 * np.abs(rng.standard_normal((6, 6)))
    bound, _, _ = mat_inverse_norm2_upper(ball_hull(lo, hi))
    for member in _sampled_members(rng, lo, hi, 5):
        assert bound >= _mp_inverse_norm(member)


# inverse_norm2_at_most: ||X^-1||_2 <= floor for every member X of a ball,
# by one shifted Cholesky of fl(Am^T Am), against mpmath's sigma_min

def _integer_matrix(rng, m: int) -> np.ndarray:
    """A well-conditioned m x m matrix of small integers: every product and
    sum of fl(A^T A) is exact, whatever the BLAS's order."""
    return 20.0 * np.eye(m) + rng.integers(-3, 4, (m, m)).astype(np.float64)


def _threshold_cases(rng):
    """(label, point matrix) pairs: integer, random and widely scaled."""
    yield "integer", _integer_matrix(rng, 6)
    yield "random", rng.standard_normal((8, 8)) + 5.0 * np.eye(8)
    yield "scaled", np.diag(np.logspace(-1, 1, 7)) + 1e-3 * rng.standard_normal((7, 7))


@pytest.mark.parametrize("width", [0.0, 1e-12])
def test_inverse_norm_at_most_mpmath_boundaries(rng, width):
    # True a percent above the exact 1 / sigma_min, False a percent below,
    # on point matrices and on balls whose members all lie within 1e-12
    # relative of the midpoint
    for label, am in _threshold_cases(rng):
        a = ball_hull(am, am + width * np.abs(am)) if width else point_matrix(am)
        kappa = _mp_inverse_norm(am)
        assert inverse_norm2_at_most(a, float(kappa * mpmath.mpf("1.01"))), label
        assert not inverse_norm2_at_most(a, float(kappa * mpmath.mpf("0.99"))), label


def test_inverse_norm_at_most_refuses_a_radius_reaching_below_the_floor(rng):
    # the midpoint clears 1 / floor by a percent, but the radius reaches
    # sampled members whose sigma_min is below it
    am = _integer_matrix(rng, 6)
    floor = float(_mp_inverse_norm(am) * mpmath.mpf("1.01"))
    assert inverse_norm2_at_most(point_matrix(am), floor)
    lo, hi = am - 0.25, am + 0.25
    below = [x for x in _sampled_members(rng, lo, hi, 20) if _mp_inverse_norm(x) > floor]
    assert below
    assert not inverse_norm2_at_most(ball_hull(lo, hi), floor)


def test_inverse_norm_at_most_is_false_where_nothing_is_finite():
    # no finite floor, an unbounded entry, or a Gram matrix past the
    # largest double: False, and no error or warning
    eye = np.eye(4)
    for floor in (0.0, -1.0, math.nan, math.inf):
        assert not inverse_norm2_at_most(point_matrix(eye), floor)
    unbounded = BallMatrix(eye, np.zeros((4, 4)))
    unbounded.rad[0, 3] = math.inf
    assert not inverse_norm2_at_most(unbounded, 2.0)
    assert not inverse_norm2_at_most(point_matrix(1e200 * eye), 1.0)
    assert not inverse_norm2_at_most(point_matrix(1e-200 * eye), 1.0)


def _factored(monkeypatch) -> list:
    """Copies of the matrices _cholesky_succeeds is asked about from here on."""
    seen = []
    decide = intervals._cholesky_succeeds

    def spy(x):
        seen.append(x.copy())
        return decide(x)

    monkeypatch.setattr(intervals, "_cholesky_succeeds", spy)
    return seen


@pytest.mark.parametrize("width", [0.0, 2.0**-20])
def test_inverse_norm_at_most_shift_covers_every_term(rng, monkeypatch, width):
    # the factored matrix is fl(Am^T Am), exact here, with each diagonal
    # entry at most G_ii - (1/floor + r)^2 - spread - beta in exact
    # arithmetic: r bounding ||Ar||_2, spread the Gram product's rounding and
    # beta the Cholesky's backward error, at floors where the test holds and
    # where it fails
    am = _integer_matrix(rng, 6)
    a = BallMatrix(am, np.full(am.shape, width))
    g = am.T @ am
    abs_m = np.abs(am)
    r = Fraction(intervals._norm2_from_sums(a.rad.sum(axis=1), a.rad.sum(axis=0), 6)) if width else 0
    spread = Fraction(_gram_spread(abs_m, abs_m.sum(axis=1)))
    beta = Fraction(_cholesky_shift(6, float(np.max(np.diag(g)))))
    kappa = float(_mp_inverse_norm(am))
    seen = _factored(monkeypatch)
    floors = [kappa * x for x in (1.01, 0.99)] + list(rng.uniform(0.1, 2.0, 30))
    held = [inverse_norm2_at_most(a, floor) for floor in floors]
    assert held[:2] == [True, False] and len(seen) == len(floors)
    lower = np.tril_indices(6, -1)
    for floor, y in zip(floors, seen):
        assert np.array_equal(y[lower], g[lower])
        need = (1 / Fraction(floor) + r) ** 2 + spread + beta
        for i in range(6):
            assert Fraction(y[i, i]) <= Fraction(g[i, i]) - need


def test_inverse_norm_at_most_covers_a_perturbation(rng, monkeypatch):
    # with eps, the test is the one at the tightened floor 1/(1/floor +
    # eps): it holds a percent inside sigma_min - eps and not a percent
    # outside, where the plain test still holds, and the factored diagonal
    # leaves room for (1/floor + eps)^2; a non-finite eps proves nothing
    am = _integer_matrix(rng, 6)
    a = point_matrix(am)
    sigma = 1 / _mp_inverse_norm(am)
    eps = float(sigma / 4)
    inside, outside = (float(1 / ((sigma - eps) * mpmath.mpf(x))) for x in ("0.99", "1.01"))
    g = am.T @ am
    abs_m = np.abs(am)
    spread = Fraction(_gram_spread(abs_m, abs_m.sum(axis=1)))
    beta = Fraction(_cholesky_shift(6, float(np.max(np.diag(g)))))
    seen = _factored(monkeypatch)
    assert inverse_norm2_at_most(a, inside, eps)
    need = (1 / Fraction(inside) + Fraction(eps)) ** 2 + spread + beta
    assert all(Fraction(seen[0][i, i]) <= Fraction(g[i, i]) - need for i in range(6))
    assert not inverse_norm2_at_most(a, outside, eps)
    assert inverse_norm2_at_most(a, outside) and inverse_norm2_at_most(a, outside, 0.0)
    for bad in (math.inf, math.nan):
        assert not inverse_norm2_at_most(a, inside, bad)


def test_inverse_norm_at_most_rounds_the_reciprocal_up(rng, monkeypatch):
    # with spread and beta taken as zero and a point identity, the shift is
    # the square of 1/floor rounded up, and it is recovered exactly: 1 - c
    # is exact for c in [1/2, 2]
    monkeypatch.setattr(intervals, "_gram_spread", lambda abs_c, c_rows: 0.0)
    monkeypatch.setattr(intervals, "_cholesky_shift", lambda n, norm_bound: 0.0)
    seen = _factored(monkeypatch)
    floors = 1.0 / rng.uniform(1.2, 1.41, 200)
    for floor in floors:
        assert not inverse_norm2_at_most(point_matrix(np.eye(2)), floor)
    for floor, y in zip(floors, seen, strict=True):
        assert 1 - Fraction(y[0, 0]) >= (1 / Fraction(floor)) ** 2


def test_inverse_norm_bound(rng):
    for _ in range(10):
        m = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
        bound, defect, _ = mat_inverse_norm2_upper(point_matrix(m))
        oracle = 1.0 / np.linalg.svd(m, compute_uv=False)[-1]
        assert bound >= oracle  # inequality direction
        assert bound <= 1.5 * oracle
        assert defect < 1.0


def test_inverse_norm_bound_rejects_singular():
    m = np.zeros((4, 4))
    with pytest.raises(IntervalDomainError):
        mat_inverse_norm2_upper(point_matrix(m))


def test_sub_identity_exact():
    a = point_matrix(np.full((3, 3), 2.0))
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
        return point_matrix(lo)
    width = np.abs(rng.standard_normal(shape)) * scale * rng.choice([0.0, 1e-12, 0.5], shape)
    return ball_hull(lo, lo + width)


def _exact_entry_hull(a: BallMatrix, b: BallMatrix, i: int, j: int):
    """Exact range of entry (i, j) over all member products: a sum of
    independent scalar product ranges, each with rational endpoints."""
    lo = hi = Fraction(0)
    for k in range(a.mid.shape[1]):
        ends = [x * y for x in _ends(a, i, k) for y in _ends(b, k, j)]
        lo += min(ends)
        hi += max(ends)
    return lo, hi


def assert_matmul_contains_exact(a: BallMatrix, b: BallMatrix):
    prod = mat_mul(a, b)
    assert prod.mid.shape == (a.mid.shape[0], b.mid.shape[1])
    for i in range(a.mid.shape[0]):
        for j in range(b.mid.shape[1]):
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
    a = point_matrix(np.array([[1e300, 1.0]]))
    b = point_matrix(np.array([[1e300], [1.0]]))
    prod = mat_mul(a, b)
    assert prod.mid[0, 0] == 0.0 and prod.rad[0, 0] == math.inf


@pytest.mark.parametrize("a_point,b_point", [(False, False), (True, False), (False, True)])
def test_matmul_subnormal_range(rng, a_point, b_point):
    # products near 1e-320 and 5e-324 * O(1) underflow into the subnormal range
    a = _random_interval_matrix(rng, (3, 5), point=a_point, scale=1e-160)
    b = _random_interval_matrix(rng, (5, 4), point=b_point, scale=1e-160)
    assert_matmul_contains_exact(a, b)
    tiny = point_matrix(rng.integers(-3, 4, (3, 5)) * 5e-324)
    assert_matmul_contains_exact(tiny, _random_interval_matrix(rng, (5, 4), point=b_point))


_ENDPOINT = st.floats(
    min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False
)


@st.composite
def _interval_matrix(draw, rows, cols, point):
    lo = np.array(draw(st.lists(_ENDPOINT, min_size=rows * cols, max_size=rows * cols)))
    lo = lo.reshape(rows, cols)
    if point:
        return point_matrix(lo)
    other = np.array(draw(st.lists(_ENDPOINT, min_size=rows * cols, max_size=rows * cols)))
    other = other.reshape(rows, cols)
    return ball_hull(np.minimum(lo, other), np.maximum(lo, other))


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
# the norm bounds' row and column sums against exact rational hulls
# ---------------------------------------------------------------------------

def _hull_norms(mags):
    """The largest exact row and column sums of a nested list of Fractions."""
    return max(sum(row) for row in mags), max(sum(col) for col in zip(*mags))


def _assert_defect_between(c: np.ndarray, a: BallMatrix) -> float:
    """e of C A - I from the sums is at least sqrt(||.||_1 ||.||_inf) of the
    exact hull's magnitudes and at most the entrywise ball product's."""
    abs_c = np.abs(c)
    e = _defect_norm_upper(c, abs_c, abs_c.sum(axis=0), a)
    entrywise = cheap_norm2_upper(mat_sub_identity(mat_mul(point_matrix(c), a)))
    assert e <= entrywise * (1 + 1e-12), (e, entrywise)
    if e == math.inf:
        return e
    mags = []
    m = len(a.mid)
    for i in range(m):
        mags.append([])
        for j in range(m):
            lo, hi = _exact_entry_hull(point_matrix(c), a, i, j)
            shift = int(i == j)
            mags[-1].append(max(abs(lo - shift), abs(hi - shift)))
    inf_norm, one_norm = _hull_norms(mags)
    assert Fraction(e) ** 2 >= one_norm * inf_norm
    return e


@pytest.mark.parametrize("point", [True, False])
@pytest.mark.parametrize("scale,c_scale", [(1.0, 1.0), (1e-160, 1e-160), (1e300, 1e10)])
def test_defect_norm_exact_hull_oracle(rng, point, scale, c_scale):
    m = 6
    a = _random_interval_matrix(rng, (m, m), point=point, scale=scale)
    # C A's diagonal near these, mostly outside [0.5, 2], so subtracting 1
    # rounds; the zero gives a zero row of C
    f = np.array([0.1, 1e-20, -0.3, 3.7e16, 0.0, 1.0])
    assert _assert_defect_between(f[:, None] * np.linalg.inv(a.mid), a) < math.inf
    # C the inverse: for a point A, C A - I cancels down to the gemm's
    # rounding errors
    e = _assert_defect_between(np.linalg.inv(a.mid), a)
    assert e < 1e-12 or not point
    # a zero row of A; c_scale puts C A in the subnormal range at 1e-160
    # and past the largest double at 1e300
    b = BallMatrix(a.mid.copy(), a.rad.copy())
    b.mid[2], b.rad[2] = 0.0, 0.0
    e = _assert_defect_between(rng.standard_normal((m, m)) * c_scale, b)
    assert (e == math.inf) == (scale == 1e300)


def test_defect_norm_covers_the_gemm_rounding():
    # fl(C A) rounds 1 + 2^-53 to 1, so only the gemm's a-priori bound
    # covers the exact C A - I = [[2^-53, 2^-53], [0, 0]]
    c = np.array([[1.0, 2.0**-53], [-1.0, 1.0]])
    a = point_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert (c @ a.mid).tolist() == [[1.0, 2.0**-53], [0.0, 1.0]]
    assert _assert_defect_between(c, a) < 1e-15


def _lower_symmetric(x: np.ndarray) -> np.ndarray:
    """The symmetric matrix of x's lower triangle, exactly."""
    return np.tril(x) + np.tril(x, -1).T


@pytest.mark.parametrize("point", [True, False])
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e300])
@pytest.mark.parametrize("shape", [(5, 5), (4, 6), (6, 4)])
def test_gram_spread_exact_hull_oracle(rng, point, scale, shape):
    # every member of A^T A lies within the spread of the mirrored fl(Am^T
    # Am) in the 2-norm: the spread is at least the largest exact row sum
    # of the hull's distances from it, and at most the entrywise product's,
    # up to a few subnormal steps per entry where everything underflows
    a = _random_interval_matrix(rng, shape, point=point, scale=scale)
    a = BallMatrix(a.mid.copy(), a.rad.copy())
    a.mid[1], a.rad[1] = 0.0, 0.0  # a zero row
    # a point A is the program's C; balls take the test-side ball spread
    am = np.abs(a.mid)
    spread = _gram_spread(am, am.sum(axis=1)) if point else gram_spread(a)
    n = a.mid.shape[1]
    entrywise = _lower_symmetric(mat_mul(transpose(a), a).rad)
    tiny = 4 * n * 2.0**-1074
    assert spread <= _max_sum_upper(entrywise.sum(axis=1), n) * (1 + 1e-12) + tiny
    assert (spread == math.inf) == (scale == 1e300)
    if spread == math.inf:
        return
    gm = _lower_symmetric(a.mid.T @ a.mid)
    dist = []
    for i in range(n):
        dist.append([])
        for j in range(n):
            lo, hi = _exact_entry_hull(transpose(a), a, i, j)
            dist[-1].append(max(abs(lo - Fraction(gm[i, j])), abs(hi - Fraction(gm[i, j]))))
    assert Fraction(spread) >= _hull_norms(dist)[0]


def test_inverse_norm_overflow_gives_infinite_defect():
    # an entry (0, inf), or a radius sum past the largest double, makes e
    # inf, never NaN, and the bound is refused
    unbounded = BallMatrix(np.eye(3), np.zeros((3, 3)))
    unbounded.rad[0, 2] = math.inf
    huge = point_matrix(np.array([[1.0, 1e308], [0.0, 1.0]]))
    for a in (unbounded, huge):
        with pytest.raises(IntervalDomainError, match=r"bound inf >= 1"):
            mat_inverse_norm2_upper(a)


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
            ball_hull(np.array(lo), np.array(hi))


def test_matrix_rejects_negative_radii():
    for rad in (-1e-300, -5e-324, -math.inf):
        with pytest.raises(IntervalDomainError):
            BallMatrix(np.zeros((2, 2)), np.array([[0.0, 1.0], [rad, 0.0]]))
    assert BallMatrix(np.array([[0.0]]), np.array([[math.inf]])).rad[0, 0] == math.inf
