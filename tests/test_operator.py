import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from balls import (
    block_modes,
    hull,
    mat_mul,
    mat_sub_identity,
    norm2_upper,
    point_matrix,
    single_mode,
    truncation_modes,
    width,
)
from conftest import galerkin_blocks, galerkin_full, gauss_rule, lin_of, make_random_series
from okvalid import intervals, inverse, operator
from okvalid.embeddings import table_constants
from okvalid.intervals import (
    EIGVALSH_WIDTH,
    KRYLOV_STEPS,
    PI2_BALL,
    PI4_BALL,
    Interval,
    IntervalDomainError,
    inverse_norm2_at_most,
    mat_inverse_norm2_upper,
)
from okvalid.inverse import axis_symmetries, derivative_inverse_bound, inverse_bounds, tau_formula
from okvalid.newton import SolveOptions, newton_solve, parse_seed
from okvalid.operator import (
    CertificationError,
    Linearization,
    ModelParams,
    apply_linearization,
    galerkin_matrix_point,
    poly_deriv,
    residual_norm,
    residual_series,
)
from okvalid.series import C_FLOAT, CosineSeries, evaluate_grid, norm, sup_bound


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(lam=-1.0)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, sigma=-0.5)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, f_coeffs=(1.0,))
    p = ModelParams(lam=2.0)
    assert p.fp_coeffs == tuple(map(Interval, (1.0, 0.0, -3.0)))
    assert p.fpp_coeffs == tuple(map(Interval, (0.0, -6.0)))
    assert poly_deriv((5.0,)) == ()


def test_derivatives_formed_once_per_params(monkeypatch):
    # f' and f'' are formed on first use and then read back; a step gets its own
    calls = []
    deriv = operator.poly_deriv
    monkeypatch.setattr(operator, "poly_deriv", lambda c: calls.append(c) or deriv(c))
    p = ModelParams(lam=2.0, f_coeffs=(0.0, 1.0, 0.0, 0.1))
    first = p.fp_coeffs, p.fpp_coeffs
    for _ in range(3):
        assert (p.fp_coeffs, p.fpp_coeffs) == first and p.fp_coeffs is first[0]
    assert len(calls) == 2
    assert p.step("lambda", 1.0).fpp_coeffs == first[1] and len(calls) == 4
    assert first == (deriv(p.f_coeffs), deriv(deriv(p.f_coeffs)))


@pytest.mark.parametrize("f_coeffs", [(0.0, 1.0, 0.0, 0.1), (0.2, 1.0, 0.5, -1.0, 0.0, -0.2)])
def test_derivatives_hold_the_exact_rational_coefficients(f_coeffs):
    # fl(3 * 0.1) and fl(5 * -0.2) round: f' and f'' are Intervals a few
    # ulps wide that hold the exact derivatives of the float coefficients,
    # points where the coefficient is an integer; the ball f'(v) at a
    # constant v holds the exact value too
    p = ModelParams(lam=10.0, mu=0.25, f_coeffs=f_coeffs)
    fp = [j * Fraction(c) for j, c in enumerate(f_coeffs)][1:]
    fpp = [j * c for j, c in enumerate(fp)][1:]
    inexact = 0
    factors = [Interval(c) for c in f_coeffs[1:]], p.fp_coeffs[1:]
    for coeffs, exact, cs in zip((p.fp_coeffs, p.fpp_coeffs), (fp, fpp), factors):
        assert len(coeffs) == len(exact)
        for iv, x, c in zip(coeffs, exact, cs):
            assert Fraction(iv.lo) <= x <= Fraction(iv.hi)
            assert iv.hi - iv.lo <= 2.0**-48 * abs(x)
            assert iv.lo == iv.hi or not (c.lo == c.hi and c.lo.is_integer())
            inexact += Fraction(float(x)) != x
    assert inexact >= 2
    ball = operator.fprime_series(p, CosineSeries.zeros((1,)))
    value = sum(c * Fraction(p.mu) ** j for j, c in enumerate(fp))
    mid, rad = Fraction(ball.center[0]), Fraction(ball.rad[0])
    assert mid - rad <= value <= mid + rad


@pytest.mark.parametrize("kwargs", [
    dict(lam=75.0, sigma=math.nan, mu=math.inf),
    dict(lam=math.inf),
    dict(lam=math.nan),
    dict(lam=1.0, mu=-math.inf),
    dict(lam=1.0, f_coeffs=(0.0, 1.0, math.nan)),
])
def test_model_params_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="non-finite"):
        ModelParams(**kwargs)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_zero_state():
    p = ModelParams(lam=7.0, sigma=2.0, mu=0.0)
    rho = residual_norm(p, CosineSeries.zeros((6,)))
    assert (rho.lo, rho.hi) == (0.0, 0.0)


def test_residual_requires_zero_mean():
    p = ModelParams(lam=1.0)
    with pytest.raises(IntervalDomainError):
        residual_norm(p, CosineSeries.from_point(np.array([1.0, 0.2])))


def test_residual_linear_f_hand_formula():
    # f(v) = v: F(eps phi_1) = eps (lam k1 - k1^2 - lam sigma) phi_1
    eps = 1e-3
    p = ModelParams(lam=1.0, sigma=1.0, mu=0.0, f_coeffs=(0.0, 1.0))
    u = single_mode((4,), (1,), eps)
    f = residual_series(p, u)
    k1 = mpmath.pi**2
    expect = float(eps * (1 * k1 - k1**2 - 1 * 1))
    c = f.coefficient((1,))
    assert c.lo <= expect <= c.hi
    for k in range(f.extent[0]):
        if k != 1:
            assert f.coefficient((k,)).mag == 0.0
    assert f.coefficient((0,)).mag == 0.0


def test_residual_cubic_symbolic_oracle():
    # small-amplitude cubic case against a sympy expansion
    eps = 1e-3
    lam, sig, mu = 1.0, 1.0, 0.0
    p = ModelParams(lam=lam, sigma=sig, mu=mu)
    u = single_mode((2,), (1,), eps)
    f = residual_series(p, u)

    x = sympy.symbols("x")
    ux = eps * sympy.sqrt(2) * sympy.cos(sympy.pi * x)
    fu = (ux + mu) - (ux + mu) ** 3
    expr = -sympy.diff(sympy.diff(ux, x, 2) + lam * fu, x, 2) - lam * sig * ux
    expr = sympy.expand_trig(sympy.expand(expr).rewrite(sympy.cos))
    for k in range(f.extent[0]):
        phi_k = (sympy.sqrt(2) if k else 1) * sympy.cos(k * sympy.pi * x)
        coeff = sympy.integrate(expr * phi_k, (x, 0, 1))
        val = float(sympy.nsimplify(coeff).evalf(30))
        iv = f.coefficient((k,))
        assert iv.lo - 1e-15 <= val <= iv.hi + 1e-15, (k, val, iv)


def test_residual_norm_matches_coefficients(rng):
    p = ModelParams(lam=3.0, sigma=0.5, mu=0.1)
    u = make_random_series(rng, (5,), scale=0.2)
    f = residual_series(p, u)
    rho = residual_norm(p, u)
    a = f.mid()
    expect = math.sqrt(
        sum(a[k] ** 2 / kap**2 for k in range(1, f.extent[0]) for kap in [math.pi**2 * k * k])
    )
    assert rho.lo - 1e-9 <= expect <= rho.hi + 1e-9


# ---------------------------------------------------------------------------
# the linearization coefficient q
# ---------------------------------------------------------------------------

def test_q_constant_case():
    p = ModelParams(lam=5.0, sigma=0.0, mu=0.25)
    lin = lin_of(p, CosineSeries.zeros((4,)))
    q, q_sup = lin.q, lin.q_sup
    expect = 5.0 * (1 - 3 * 0.25**2)
    c0 = q.coefficient((0,))
    assert c0.lo <= expect <= c0.hi
    assert all(q.coefficient((k,)).mag < 1e-14 for k in range(1, q.extent[0]))
    assert q_sup >= abs(expect)


def test_q_series_vs_quadrature(rng):
    p = ModelParams(lam=1.0, sigma=0.0, mu=0.0)
    u = single_mode((2,), (1,), 1.0)
    lin = lin_of(p, u)
    q, q_sup = lin.q, lin.q_sup
    x, w = gauss_rule(200)
    uvals = evaluate_grid(u, [x])
    qvals = 1.0 - 3.0 * uvals**2
    for k in range(q.extent[0]):
        phi = (math.sqrt(2.0) if k else 1.0) * np.cos(k * math.pi * x)
        quad = float(np.sum(w * qvals * phi))
        iv = q.coefficient((k,))
        assert iv.lo - 1e-12 <= quad <= iv.hi + 1e-12
    # sup bound dominates a dense grid sample
    grid = np.linspace(0, 1, 10_000)
    sample = np.max(np.abs(1.0 - 3.0 * (math.sqrt(2.0) * np.cos(math.pi * grid)) ** 2))
    assert q_sup >= sample


# ---------------------------------------------------------------------------
# Galerkin matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f_coeffs", [(0.0, 1.0, 0.0, -1.0), (0.2, 1.0, 0.5, -1.0, 0.0, -0.2)])
def test_poly_series_from_powers_meets_horner(rng, f_coeffs):
    # f(v) and f'(v) read off ball_powers enclose the same series as the
    # Horner evaluation, in the same extent: every pair of coefficient balls
    # intersects (rounding to nearest keeps |c - c'| <= r + r' when it holds
    # exactly)
    p = ModelParams(lam=10.0, mu=0.1, f_coeffs=f_coeffs)
    u = make_random_series(rng, (4, 3))
    powers = operator.ball_powers(p, u)
    assert [w.extent for w in powers] == [(4 * j - j + 1, 3 * j - j + 1) for j in range(1, len(powers) + 1)]
    for coeffs in (p.f_coeffs, p.fp_coeffs):
        got = operator.poly_series(coeffs, powers)
        horner = operator.poly_eval_series(coeffs, u.add_constant(p.mu))
        assert got.extent == horner.extent
        assert np.all(np.abs(got.center - horner.center) <= got.rad + horner.rad)


def test_truncation_modes_lex():
    # the one block of an unsplit grid holds every mode 0 < |k|_inf < n in
    # lexicographic order: its cells are 1, ..., n^d - 1
    (block,) = operator.parity_blocks((False, False), 3)
    assert np.array_equal(block.cells(), np.arange(1, 9))
    m = block_modes(block)
    assert m.shape == (8, 2)
    assert m[0].tolist() == [0, 1]
    assert m[-1].tolist() == [2, 2]


@pytest.mark.parametrize("split", [(False,), (True,), (True, False), (True, True, True)])
def test_parity_block_cells_and_weights(split):
    # a class's cells are the flat indices in the n^d grid of its modes, in
    # their lexicographic order, the origin left out; its weights are |k|^2
    # and the float c_k of the same modes
    n, d = 5, len(split)
    cells = []
    for block in operator.parity_blocks(split, n):
        modes = [k for k in itertools.product(*map(list, block.axes)) if any(k)]
        want = [int(np.ravel_multi_index(k, (n,) * d)) for k in modes]
        assert block.cells().tolist() == want and block.size == len(modes)
        k2, c = block.weights()
        assert k2.tolist() == [sum(x * x for x in k) for k in modes]
        assert c.tolist() == [C_FLOAT[sum(x != 0 for x in k)] for k in modes]
        cells += want
    assert sorted(cells) == list(range(1, n**d))


def test_galerkin_zero_q_is_minus_identity():
    p = ModelParams(lam=5.0, sigma=0.0, mu=0.0, f_coeffs=(1.0, 0.0))
    lin = lin_of(p, CosineSeries.zeros((2,)))
    assert np.allclose(galerkin_full(p, lin.q, 6).mid, -np.eye(5), atol=1e-14)
    kn = derivative_inverse_bound(p, lin, 6).kn
    assert 1.0 <= kn <= 1.0 + 1e-10


def test_galerkin_diagonal_hand_formula():
    lam, sig = 10.0, 1.0
    p = ModelParams(lam=lam, sigma=sig, mu=0.0)
    n = 8
    g = galerkin_full(p, lin_of(p, CosineSeries.zeros((2,))).q, n)
    for i, k in enumerate(range(1, n)):
        kap = math.pi**2 * k * k
        expect = -(1 + lam * sig / kap**2) + lam / kap
        mid, rad = g.mid[i, i], g.rad[i, i]
        assert abs(expect - mid) <= rad + 1e-12
    off = np.max(np.abs(g.mid - np.diag(np.diag(g.mid))))
    assert off < 1e-14


def test_galerkin_vs_quadrature_d1(rng):
    p = ModelParams(lam=2.0, sigma=1.5, mu=0.1)
    u = make_random_series(rng, (5,), scale=0.4)
    n = 6
    g = galerkin_full(p, lin_of(p, u).q, n)
    x, w = gauss_rule(500)
    uvals = evaluate_grid(u, [x])
    qvals = p.lam * (1.0 - 3.0 * (uvals + p.mu) ** 2)
    for i, k in enumerate(range(1, n)):
        for j, ell in enumerate(range(1, n)):
            kapk = math.pi**2 * k * k
            kapl = math.pi**2 * ell * ell
            phik = (math.sqrt(2.0)) * np.cos(k * math.pi * x)
            phil = (math.sqrt(2.0)) * np.cos(ell * math.pi * x)
            val = -(1 + p.lam * p.sigma / kapk**2) * (k == ell)
            val += float(np.sum(w * qvals * phil * phik)) / kapl
            mid, rad = g.mid[i, j], g.rad[i, j]
            assert abs(val - mid) <= rad + 1e-9


def _triple_cos_integral(a: int, b: int, c: int) -> Fraction:
    """int_0^1 cos(a pi x) cos(b pi x) cos(c pi x) dx, exactly."""
    hits = sum(1 for sb in (1, -1) for sc in (1, -1) if a + sb * b + sc * c == 0)
    return Fraction(hits, 4)


def _exact_galerkin_hull(p, q: CosineSeries, modes):
    """Exact range of every Galerkin entry over all members of the interval
    series q, to 50 digits: -(1 + lam sigma / kappa_k^2) delta_{k,ell} plus
    sum_j q_j (phi_j phi_ell, phi_k) / kappa_ell, whose weights are >= 0."""
    mp = mpmath.mp
    coeffs = list(np.ndindex(*q.extent))
    lam_sigma = mpmath.mpf(p.lam) * mpmath.mpf(p.sigma)
    kappa = [mp.pi**2 * int(np.sum(k**2)) for k in modes]
    c = [mpmath.sqrt(2) ** np.count_nonzero(j) for j in coeffs]
    cm = [mpmath.sqrt(2) ** np.count_nonzero(k) for k in modes]
    lo = [[None] * len(modes) for _ in modes]
    hi = [[None] * len(modes) for _ in modes]
    for a, k in enumerate(modes):
        for b, ell in enumerate(modes):
            s_lo = s_hi = mpmath.mpf(0)
            for j, cj in zip(coeffs, c):
                tri = Fraction(1)
                for ji, li, ki in zip(j, ell, k):
                    tri *= _triple_cos_integral(int(ji), int(li), int(ki))
                if tri:
                    w = cj * cm[a] * cm[b] * tri.numerator / tri.denominator
                    s_lo += w * mpmath.mpf(q.lo[j])
                    s_hi += w * mpmath.mpf(q.hi[j])
            diag = -(1 + lam_sigma / kappa[a] ** 2) if a == b else 0
            lo[a][b] = diag + s_lo / kappa[b]
            hi[a][b] = diag + s_hi / kappa[b]
    return lo, hi


_ORACLE_CASES = [((5, 3), 4, False), ((3, 4, 2), 3, False), ((5,), 9, True), ((6, 5), 5, True)]
_ORACLE_IDS = ["extent0-4", "extent1-3", "point-1d", "point-2d"]


@pytest.mark.parametrize("extent,n,point,scale,unbounded", [
    *((*case, 1.0, False) for case in _ORACLE_CASES),
    *((*case, scale, False) for scale in (1e-300, 1e150) for case in _ORACLE_CASES),
    ((5, 3), 4, False, 1.0, True), ((3, 4, 2), 3, False, 1e150, True),
], ids=[*_ORACLE_IDS, *(f"{i}-{s:g}" for s in (1e-300, 1e150) for i in _ORACLE_IDS),
        "unbounded-2d", "unbounded-3d-1e+150"])
def test_galerkin_contains_exact_inner_products(rng, monkeypatch, extent, n, point, scale, unbounded):
    # non-point coefficients exercise the radius term, point zeros the exact
    # zero entries, and the extents differ per axis and from the modes'; an
    # all-point q leaves only the rounding of the sums and their float
    # scaling, over modes with odd and even numbers of nonzero indices.  At
    # 1e-300 gamma_t |qm| is subnormal and is raised to _FOLD_MIN, at 1e150
    # the diagonal is far below the sums' rounding, and a coefficient whose
    # radius overflowed, (0, inf), makes the entries it reaches (0, inf).
    # Every gathered term is a normal double: both arrays that the block
    # sums read are zero or at least _FOLD_MIN
    from okvalid.series import _FOLD_MIN

    read = []
    sums = operator._galerkin_sums
    monkeypatch.setattr(inverse, "_galerkin_sums", lambda axes, arrays, *lattice: read.extend(arrays) or sums(axes, arrays, *lattice))
    mid = rng.standard_normal(extent) * scale
    width = np.abs(rng.standard_normal(extent)) * rng.choice([0.0, 1e-13, 0.3], extent) * scale
    mid[rng.uniform(size=extent) < 0.3] = 0.0
    width[(mid == 0.0) | point] = 0.0
    lo, hi = mid - width, mid + width
    if unbounded:
        lo[(-1,) * len(extent)], hi[(-1,) * len(extent)] = -math.inf, math.inf
    q = hull(lo, hi)
    assert (q.hi > q.lo).any() != point and ((q.lo == 0.0) & (q.hi == 0.0)).any()
    p = ModelParams(lam=7.0, sigma=1.5)
    dim = len(extent)
    g = galerkin_full(p, q, n)
    modes = truncation_modes(dim, n)
    with mpmath.workdps(50):
        lo, hi = _exact_galerkin_hull(p, q, modes)
        for a in range(len(modes)):
            for b in range(len(modes)):
                mid, rad = mpmath.mpf(g.mid[a, b]), mpmath.mpf(g.rad[a, b])
                assert mid - rad <= lo[a][b], (a, b)
                assert hi[a][b] <= mid + rad, (a, b)
    assert ((g.mid == 0.0) & (g.rad == 0.0)).any() and (g.rad > 0.0).any()
    assert np.isinf(g.rad).any() == unbounded and np.isfinite(g.rad).any()
    assert read and all(np.all((x == 0.0) | (np.abs(x) >= _FOLD_MIN)) for x in read)


def test_galerkin_block_reads_two_sums_of_a_ball_q(rng, monkeypatch):
    # the midpoint sum and one radius sum per block, for a q with interval
    # coefficients on every axis's two parities as on one
    calls = []
    sums = operator._galerkin_sums
    monkeypatch.setattr(inverse, "_galerkin_sums", lambda axes, arrays, *lattice: calls.append(len(arrays)) or sums(axes, arrays, *lattice))
    p = ModelParams(lam=7.0, sigma=1.5)
    for extent, stride in (((6, 5), 1), ((7, 7), 2)):
        mid = np.zeros(extent)
        mid[::stride, ::stride] = rng.standard_normal(mid[::stride, ::stride].shape)
        q = hull(mid - 1e-3 * np.abs(mid), mid + 1e-3 * np.abs(mid))
        assert q.rad.any()
        calls.clear()
        blocks = list(galerkin_blocks(p, q, 5))
        assert len(blocks) == {1: 1, 2: 4}[stride] and calls == [2] * len(blocks)


def test_pi_power_balls_hold_pi_powers():
    # the midpoints are pi^2 and pi^4 rounded to nearest, the radii half their ulp
    with mpmath.workdps(50):
        for (mid, rad), want in ((PI2_BALL, mpmath.pi**2), (PI4_BALL, mpmath.pi**4)):
            assert abs(mid - want) <= rad == np.spacing(mid) / 2
            assert float(want) == mid


def test_galerkin_point_scaling_mpmath(rng):
    # a constant point q reaches each diagonal entry through one exact term,
    # so what remains is the rounding of the float weights c_k and c_k 2^-1 /
    # kappa_k, of their products and of the diagonal; with a large q the
    # enclosure's gamma count, not the diagonal's 1, must cover it
    p = ModelParams(lam=7.0, sigma=1.5)
    n = 64
    off = ~np.eye(n - 1, dtype=bool)
    with mpmath.workdps(50):
        for q0 in rng.standard_normal(6) * 1e6:
            q = CosineSeries.from_point(np.array([q0]))
            g = galerkin_full(p, q, n)
            assert np.all(g.mid[off] == 0.0) and np.all(g.rad[off] == 0.0)
            for i in range(n - 1):
                kappa = mpmath.pi**2 * (i + 1) ** 2
                exact = q0 / kappa - (1 + mpmath.mpf(p.lam) * p.sigma / kappa**2)
                mid, rad = mpmath.mpf(g.mid[i, i]), mpmath.mpf(g.rad[i, i])
                assert mid - rad <= exact <= mid + rad, (q0, i)


def _galerkin_sums_reference(axes, a):
    """Per entry, straight from the definition: the sum over sign patterns s,
    in order, of 2^-nz(k + s ell) a[|k + s ell|], where |k + s ell| lies
    in a's extent, over the lexicographic grid of axes less the origin."""
    d = a.ndim
    modes = [k for k in itertools.product(*axes) if any(k)]
    out = np.zeros((len(modes), len(modes)))
    for i, k in enumerate(modes):
        for j, ell in enumerate(modes):
            acc = 0.0
            for s in itertools.product((1, -1), repeat=d):
                idx = tuple(abs(ki + si * li) for ki, si, li in zip(k, s, ell))
                if all(x < e for x, e in zip(idx, a.shape)):
                    acc += a[idx] * 0.5 ** sum(x != 0 for x in idx)
            out[i, j] = acc
    return out


@pytest.mark.parametrize("n,extent", [
    (6, (5,)), (6, (11,)), (6, (14,)),
    (4, (3, 5)), (4, (7, 7)), (4, (9, 8)), (4, (2, 11)),
    (3, (2, 4, 3)), (3, (5, 5, 5)), (3, (6, 7, 5)), (3, (1, 8, 2)),
])
def test_galerkin_sums_match_definition(rng, n, extent):
    # extents below, equal to and above 2n - 1 per axis, with exact zeros of
    # both signs; the full grid, and the parity classes' sub-grids with and
    # without the origin when every axis or a random subset of the axes
    # splits.  Three arrays in one call (the K_N stage passes two, a
    # midpoint and a radius): a midpoint, its absolute value and a sparse
    # radius; every sum is C-contiguous and equal to the definition's, sign
    # bits included
    arrays = [rng.standard_normal(extent) * 10.0 ** rng.integers(-3, 4, extent)
              for _ in range(3)]
    arrays[0][rng.uniform(size=extent) < 0.3] = 0.0
    arrays[0][rng.uniform(size=extent) < 0.1] = -0.0
    arrays[1] = np.abs(arrays[0])
    arrays[2] = np.abs(arrays[2]) * (rng.uniform(size=extent) < 0.5)
    d = len(extent)
    grids = []
    for split in ((False,) * d, (True,) * d, tuple(rng.uniform(size=d) < 0.5)):
        grids += [block.axes for block in operator.parity_blocks(split, n)]
    for axes in grids:
        sums = operator._galerkin_sums(axes, arrays)
        assert len(sums) == 3
        for got, a in zip(sums, arrays):
            want = _galerkin_sums_reference(axes, a)
            assert got.flags.c_contiguous, axes
            assert np.array_equal(got, want), axes
            assert np.array_equal(np.signbit(got), np.signbit(want)), axes


def _same_parity(modes, split):
    """Mask of the mode pairs whose indices agree mod 2 on every split axis."""
    same = np.ones((len(modes), len(modes)), dtype=bool)
    for j in np.flatnonzero(split):
        same &= (modes[:, j, None] % 2) == (modes[None, :, j] % 2)
    return same


def _labels(split):
    """The parity labels of the classes of split, in lexicographic order."""
    return ["(" + ", ".join(map(str, c)) + ")"
            for c in itertools.product(*[(0, 1) if s else ("*",) for s in split])]


def _one_block(p, n, q, monkeypatch):
    """The Galerkin matrix streamed as a single block: no axis splits."""
    with monkeypatch.context() as mp:
        mp.setattr(operator, "split_axes", lambda q: (False,) * q.dim)
        blocks = list(galerkin_blocks(p, q, n))
    ((block, ball),) = blocks
    assert block.size == n**q.dim - 1 and np.array_equal(block.cells(), np.arange(1, n**q.dim))
    return ball


@pytest.mark.parametrize("extent,n", [((9,), 8), ((6, 7), 5), ((5, 4, 5), 4)])
def test_galerkin_blocks_match_one_block_assembly(rng, monkeypatch, extent, n):
    # q with all-even support on a random subset of the axes, interval and
    # point coefficients: the scattered blocks hold the one-block
    # assembly's bits, and every entry off the blocks is a point zero there
    d = len(extent)
    p = ModelParams(lam=7.0, sigma=1.5)
    for even in itertools.product((False, True), repeat=d):
        mid = rng.standard_normal(extent)
        width = np.abs(rng.standard_normal(extent)) * rng.choice([0.0, 1e-13, 0.3], extent)
        for j in np.flatnonzero(even):
            odd = (slice(None),) * j + (slice(1, None, 2),)
            mid[odd] = 0.0
            width[odd] = 0.0
        q = hull(mid - width, mid + width)
        assert operator.split_axes(q) == even
        blocks = list(galerkin_blocks(p, q, n))
        assert [block.label for block, _ in blocks] == _labels(even)
        cells = np.concatenate([block.cells() for block, _ in blocks])
        assert np.array_equal(np.sort(cells), np.arange(1, n**d))
        one = _one_block(p, n, q, monkeypatch)
        full = galerkin_full(p, q, n, blocks)
        assert full.mid.tobytes() == one.mid.tobytes()
        assert full.rad.tobytes() == one.rad.tobytes()
        off = ~_same_parity(truncation_modes(d, n), even)
        assert np.all(one.mid[off] == 0.0) and np.all(one.rad[off] == 0.0)


@pytest.mark.parametrize("kind", ["midpoint", "radius-only"])
def test_odd_coefficient_stops_axis_from_splitting(kind):
    # one coefficient with an odd index along axis j couples the parities of
    # k_j; a radius-only one has a zero raw midpoint but still couples
    from okvalid.series import _raw_mid_rad

    extent, n = (5, 4, 5), 4
    base = np.zeros(extent)
    base[0, 0, 0], base[2, 2, 2], base[4, 0, 2] = 1.0, 0.5, -0.25
    assert operator.split_axes(CosineSeries.from_point(base)) == (True,) * 3
    p = ModelParams(lam=7.0, sigma=1.5)
    for j in range(3):
        k = [2, 2, 2]
        k[j] = 1
        k = tuple(k)
        lo, hi = base.copy(), base.copy()
        if kind == "midpoint":
            lo[k] = hi[k] = 0.3
        else:
            lo[k], hi[k] = -1e-3, 1e-3
        q = hull(lo, hi)
        qm, qr, _ = _raw_mid_rad(q)
        if kind == "radius-only":
            assert qm[k] == 0.0 and qr[k] > 0.0
        else:
            assert qm[k] != 0.0
        want = tuple(i != j for i in range(3))
        assert operator.split_axes(q) == want
        blocks = list(galerkin_blocks(p, q, n))
        assert [block.label for block, _ in blocks] == _labels(want)
        # the coupling is real: entries across the parity of k_j are not point zeros
        modes = truncation_modes(3, n)
        cross = _same_parity(modes, (True,) * 3) != _same_parity(modes, want)
        full = galerkin_full(p, q, n, blocks)
        assert ((full.mid[cross] != 0.0) | (full.rad[cross] != 0.0)).any()


@pytest.mark.parametrize("case,n", [("solved_1d", 112), ("solved_2d", 28), ("solved_3d", 12)])
def test_block_kn_not_looser_than_full_matrix(request, case, n):
    # the stage's K_N is the largest of the blocks' bounds, bit for bit, and
    # neither it nor the largest defect is looser than the full matrix's
    p, result = request.getfixturevalue(case)
    lin = lin_of(p, result.solution)
    blocks = list(galerkin_blocks(p, lin.q, n))
    assert [block.label for block, _ in blocks] == _labels((True,) * lin.q.dim)
    bounds, defects, _ = zip(*(mat_inverse_norm2_upper(ball) for _, ball in blocks))
    assert derivative_inverse_bound(p, lin, n).kn == max(bounds)
    full, e_full, _ = mat_inverse_norm2_upper(galerkin_full(p, lin.q, n, blocks))
    assert max(bounds) <= full and max(defects) <= e_full


@pytest.fixture(scope="module")
def solved_sweep_1d():
    """The 1-d equilibrium at (lam, sigma, mu) = (50, 2, 0), N = 64, seed
    mode:1,0.6, which criterion 09 sweeps."""
    p = ModelParams(lam=50.0, sigma=2.0, mu=0.0)
    return p, newton_solve(p, parse_seed("mode:1,0.6", 1, 64), SolveOptions(n=64))


def _count_inverses(monkeypatch) -> list:
    """The sizes of the matrices np.linalg.inv inverts from here on: one per
    full certificate (mat_inverse_norm2_upper)."""
    calls = []
    invert = np.linalg.inv

    def counted(x):
        calls.append(x.shape[0])
        return invert(x)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def _eigvalsh_widths(monkeypatch) -> list:
    """The widths of the matrices np.linalg.eigvalsh sees from here on: a
    Gram matrix no wider than EIGVALSH_WIDTH, a Lanczos tridiagonal, or a
    fallback where the Lanczos estimate fails its Cholesky."""
    widths = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        widths.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return widths


def _leading_gram(p, q, n) -> np.ndarray:
    """C^T C for C the float inverse of the leading block's midpoint."""
    _, ball = next(galerkin_blocks(p, q, n))
    c = np.linalg.inv(ball.mid)
    return c.T @ c


@pytest.fixture(scope="module")
def solved_3d_16():
    """The 3-d equilibrium at (lam, sigma, mu) = (40, 3, 0), N = 16."""
    p = ModelParams(lam=40.0, sigma=3.0, mu=0.0)
    return p, newton_solve(p, parse_seed("mode:1,1,1,0.5", 3, 16), SolveOptions(n=16))


@pytest.mark.parametrize("case,n", [("solved_1d", 256), ("solved_2d", 28), ("solved_3d_16", 16)])
def test_lambda_max_estimate_near_eigvalsh_on_leading_blocks(request, case, n):
    # the Lanczos estimate of lambda_max(C^T C) on the block that sets K_N
    # is within 8 ulps of eigvalsh's (measured: at most 8, at 1 and 2
    # OpenBLAS threads), in a handful of steps; 4 ulps is not attainable, as
    # each is up to about 5 to 6 ulps from a long-double Rayleigh quotient
    p, result = request.getfixturevalue(case)
    g = _leading_gram(p, lin_of(p, result.solution).q, n)
    est = intervals._lambda_max_estimate(g, intervals._krylov_start(len(g)))
    ref = np.linalg.eigvalsh(g)[-1]
    assert abs(est - ref) <= 8 * math.ulp(ref)


def test_lambda_max_estimate_needs_an_unstructured_start(solved_2d):
    # the top eigenvector of the 2-d (0, 0) Gram matrix is odd under the
    # swap of the two axes, so a constant start, which is even, converges
    # to 62.41, the top of the even part, instead of 177.78; the fixed
    # start shares no such symmetry
    p, result = solved_2d
    g = _leading_gram(p, lin_of(p, result.solution).q, 28)
    top = np.linalg.eigvalsh(g)[-1]
    assert top == pytest.approx(177.78, abs=0.01)
    assert intervals._lambda_max_estimate(g, np.ones(len(g))) == pytest.approx(62.41, abs=0.01)
    est = intervals._lambda_max_estimate(g, intervals._krylov_start(len(g)))
    assert abs(est - top) <= 8 * math.ulp(top)


def _record_assembly(monkeypatch) -> list:
    """The labels of the blocks that _galerkin_block assembles from here on."""
    labels = []
    assemble = inverse._galerkin_block

    def recording(p, block, raw):
        labels.append(block.label)
        return assemble(p, block, raw)

    monkeypatch.setattr(inverse, "_galerkin_block", recording)
    return labels


def _kn_every_block(p, q, n) -> float:
    """K_N by the walk over every block, no class skipped: the floor test,
    and the full certificate where it fails."""
    kn = 0.0
    for _, ball in galerkin_blocks(p, q, n):
        if not inverse_norm2_at_most(ball, kn):
            kn = max(kn, mat_inverse_norm2_upper(ball)[0])
    return kn


@pytest.mark.parametrize("case,n,certified,blocks", [
    ("solved_1d", 112, 1, 2), ("solved_2d", 28, 1, 4), ("solved_3d", 12, 1, 8),
    ("solved_sweep_1d", 24, 1, 2), ("solved_sweep_1d", 256, 1, 2),
])
def test_kn_certifies_only_blocks_that_can_raise_it(request, monkeypatch, case, n, certified, blocks):
    # the leading block, the class of the origin, sets K_N; one Cholesky
    # proves every later block's inverse no larger, so only the leading
    # block is certified in full, and K_N is the same bits as when every
    # block is; one class per axis-permutation orbit is assembled; a leading
    # block no wider than EIGVALSH_WIDTH takes one eigvalsh, and a wider one
    # a Lanczos estimate that does not fall back to eigvalsh
    p, result = request.getfixturevalue(case)
    lin = lin_of(p, result.solution)
    balls = [ball for _, ball in galerkin_blocks(p, lin.q, n)]
    every = [mat_inverse_norm2_upper(ball)[0] for ball in balls]
    assert len(every) == blocks and every[0] == max(every)
    assert all(inverse_norm2_at_most(ball, every[0]) for ball in balls[1:])
    del balls
    calls = _count_inverses(monkeypatch)
    labels = _record_assembly(monkeypatch)
    widths = _eigvalsh_widths(monkeypatch)
    assert derivative_inverse_bound(p, lin, n).kn == max(every)
    assert len(calls) == certified and len(labels) == {1: 2, 2: 3, 3: 4}[lin.q.dim]
    if max(calls) <= EIGVALSH_WIDTH:
        assert widths == calls
    else:
        assert widths and max(widths) <= KRYLOV_STEPS


@pytest.mark.parametrize("n,direct", [(96, True), (128, True), (256, False)])
def test_sweep_blocks_take_eigvalsh_below_the_crossover(monkeypatch, solved_sweep_1d, n, direct):
    # the criterion-09 sweep's leading blocks are 47, 63 and 127 wide; up
    # to about 64 to 80 rows eigvalsh costs less than the Lanczos estimate
    # and its mirror, and from about 95 rows more, so only the widest takes
    # the estimate
    p, result = solved_sweep_1d
    calls = _count_inverses(monkeypatch)
    widths = _eigvalsh_widths(monkeypatch)
    derivative_inverse_bound(p, lin_of(p, result.solution), n)
    assert calls == [n // 2 - 1]
    assert (widths == calls) is direct


def test_kn_canonical_2d_skips_a_class_that_kn_bounds(monkeypatch, solved_2d):
    # (1, 0) is the swap of (0, 1) and is not assembled; on its own it
    # passes the floor test at the stage's K_N, and its full certificate is
    # no larger
    p, result = solved_2d
    lin = lin_of(p, result.solution)
    labels = _record_assembly(monkeypatch)
    kn = derivative_inverse_bound(p, lin, 28).kn
    assert labels == ["(0, 0)", "(0, 1)", "(1, 1)"]
    monkeypatch.undo()
    skipped = {block.label: ball for block, ball in galerkin_blocks(p, lin.q, 28)}["(1, 0)"]
    assert inverse_norm2_at_most(skipped, kn)
    assert mat_inverse_norm2_upper(skipped)[0] <= kn


def test_kn_3d_certifies_one_class_per_orbit(monkeypatch, solved_3d):
    # the classes with one odd index form one orbit of the axis
    # permutations, and those with two another: 4 of 8 blocks are
    # assembled, and K_N is the largest of all 8 full certificates
    p, result = solved_3d
    lin = lin_of(p, result.solution)
    every = [mat_inverse_norm2_upper(ball)[0] for _, ball in galerkin_blocks(p, lin.q, 12)]
    assert len(every) == 8
    labels = _record_assembly(monkeypatch)
    assert derivative_inverse_bound(p, lin, 12).kn == max(every)
    assert labels == ["(0, 0, 0)", "(0, 0, 1)", "(0, 1, 1)", "(1, 1, 1)"]


@pytest.mark.parametrize("extent,n", [((7, 7), 8), ((5, 5, 5), 6)])
def test_kn_asymmetric_q_assembles_every_class(rng, monkeypatch, extent, n):
    # a random q with even indices only: it splits on every axis, and every
    # axis permutation is kept with a defect at least the exact sum, too
    # large for the tightened floor, so every class is assembled and K_N is
    # that of the walk over every block, bit for bit
    a = make_random_series(rng, extent, zero_mean=False, scale=0.3).mid()
    a *= (np.indices(extent) % 2 == 0).all(axis=0)
    q = CosineSeries.from_point(a)
    p = ModelParams(lam=10.0, sigma=1.0)
    qm, qr = inverse._raw_mid_rad(q)[:2]
    assert operator.split_axes(q) == (True,) * len(extent)
    perms, defect = axis_symmetries(qm, qr)
    assert len(perms) == math.factorial(len(extent)) - 1
    assert all(Fraction(defect) >= _exact_defect(qm, qr, perm) for perm in perms)
    want = _kn_every_block(p, q, n)
    labels = _record_assembly(monkeypatch)
    lin = Linearization(q, sup_bound(q).hi, norm(q, "H", 2).hi)
    assert derivative_inverse_bound(p, lin, n).kn == want
    assert len(labels) == 2 ** len(extent)


def test_kn_orbit_failing_the_tightened_floor_walks_its_members(monkeypatch, solved_2d):
    # with eps too large for the tightened floor, (0, 1) takes the plain
    # test and (1, 0) is assembled and tested on its own: K_N keeps its bits
    # and no further inverse is formed
    p, result = solved_2d
    lin = lin_of(p, result.solution)
    want = _kn_every_block(p, lin.q, 28)
    monkeypatch.setattr(inverse, "axis_symmetries", lambda m, r, *parity: (axis_symmetries(m, r, *parity)[0], 1e4))
    labels = _record_assembly(monkeypatch)
    calls = _count_inverses(monkeypatch)
    assert derivative_inverse_bound(p, lin, 28).kn == want
    assert labels == ["(0, 0)", "(0, 1)", "(1, 0)", "(1, 1)"]
    assert len(calls) == 1


def _swap_consistent_q(rng) -> CosineSeries:
    """A 2-d q of even indices whose ball holds a symmetric q but whose
    midpoint is not symmetric, near resonance at |k|^2 = 4 so that the
    class of the origin sets K_N."""
    a = 0.5 * rng.standard_normal((5, 5)) / (1 + np.add.outer(np.arange(5)**2, np.arange(5)**2))
    a = a + a.T
    a[1::2, :] = 0.0
    a[:, 1::2] = 0.0
    a[0, 0] = 4.4 * math.pi**2
    rad = 1e-3 * np.abs(a)
    return CosineSeries(a + 0.5 * rad * rng.uniform(-1.0, 1.0, a.shape), rad)


def _exact_defect(qm, qr, perm) -> Fraction:
    """sum |qm - pi qm| + qr + pi qr over the raw arrays, in exact rationals."""
    return sum(abs(Fraction(x) - Fraction(y)) + Fraction(r) + Fraction(s)
               for x, y, r, s in zip(qm.ravel(), qm.transpose(perm).ravel(),
                                     qr.ravel(), qr.transpose(perm).ravel()))


def test_axis_symmetry_defect_bounds_the_exact_sum(rng):
    # the defect is at least sum |qm - pi qm| + qr + pi qr, in exact
    # rationals, and within a few roundings of it; an extent that the swap
    # does not keep gives no symmetry, and a midpoint asymmetric beyond the
    # radii keeps the swap with a larger defect; a permutation that breaks
    # the split pattern maps no class
    q = _swap_consistent_q(rng)
    qm, qr = inverse._raw_mid_rad(q)[:2]
    assert np.any(qm != qm.T)
    perms, defect = axis_symmetries(qm, qr)
    assert perms == [(1, 0)]
    exact = _exact_defect(qm, qr, (1, 0))
    assert exact <= Fraction(defect) <= exact * (1 + Fraction(1, 10**12))
    assert axis_symmetries(qm[:, :4], qr[:, :4]) == ([], 0.0)
    assert inverse.parity_orbits(operator.parity_blocks((True, False), 6), perms) == {}
    assert inverse.parity_orbits(operator.parity_blocks((True, True), 6), perms) == {(0, 1): {(1, 0)}}
    qm[2, 4] += 1e-3  # the ball no longer holds a symmetric q
    perms, defect = axis_symmetries(qm, qr)
    assert perms == [(1, 0)] and Fraction(defect) >= _exact_defect(qm, qr, (1, 0)) > exact


def test_axis_symmetries_keep_the_lattice():
    # raw arrays symmetric as arrays: held on the lattice (0, 1), the swap
    # maps mode (2i, 2j + 1) to (2j + 1, 2i), off the lattice, so it is no
    # symmetry; on (1, 1) or with no parity it is one
    m = np.array([[1.0, 2.0], [2.0, 3.0]])
    r = np.zeros(m.shape)
    assert axis_symmetries(m, r, (0, 1)) == ([], 0.0)
    for parity in ((1, 1), None):
        assert axis_symmetries(m, r, parity) == ([(1, 0)], 0.0)


def test_kn_skipped_members_within_kn_mpmath(rng, monkeypatch):
    # over q' sampled in a ball that holds a symmetric q but is not one,
    # every member of the skipped class (1, 0) has ||X^-1|| <= K_N
    q = _swap_consistent_q(rng)
    p = ModelParams(lam=1.0)
    lin = Linearization(q, sup_bound(q).hi, norm(q, "H", 2).hi)
    labels = _record_assembly(monkeypatch)
    kn = derivative_inverse_bound(p, lin, 8).kn
    assert labels == ["(0, 0)", "(0, 1)", "(1, 1)"]
    monkeypatch.undo()
    shape = q.extent
    steps = [np.zeros(shape), -np.ones(shape), np.ones(shape), rng.choice([-1.0, 1.0], shape)]
    steps += [rng.uniform(-1.0, 1.0, shape) for _ in range(3)]
    for step in steps:
        member = CosineSeries.from_point(q.center + step * q.rad)
        x = dict((b.label, ball.mid) for b, ball in galerkin_blocks(p, member, 8))["(1, 0)"]
        with mpmath.workdps(30):
            sigma_min = min(mpmath.svd_r(mpmath.matrix(x.tolist()), compute_uv=False))
        assert 1 / sigma_min <= kn


def test_kn_swap_debris_past_the_radius_skips_the_member(rng, monkeypatch):
    # one raw midpoint off the swap by about 1e-14 past its radius, as
    # float debris leaves a Newton solution: the swap is kept, (1, 0) is
    # not assembled, and K_N is that of the walk over every block, bit for
    # bit
    q = _swap_consistent_q(rng)
    center = q.center.copy()
    center[2, 4] = center[4, 2] + (q.rad[2, 4] + q.rad[4, 2]) + 1e-14
    q = CosineSeries(center, q.rad)
    qm, qr = inverse._raw_mid_rad(q)[:2]
    assert abs(qm[2, 4] - qm[4, 2]) > qr[2, 4] + qr[4, 2]
    p = ModelParams(lam=1.0)
    want = _kn_every_block(p, q, 8)
    labels = _record_assembly(monkeypatch)
    lin = Linearization(q, sup_bound(q).hi, norm(q, "H", 2).hi)
    assert derivative_inverse_bound(p, lin, 8).kn == want
    assert labels == ["(0, 0)", "(0, 1)", "(1, 1)"]


def test_kn_certifies_a_later_largest_block(monkeypatch):
    # q constant: two diagonal blocks, and at (lam, sigma) = (10, 1) the
    # largest inverse norm, at k = 1, lies in the second; the Cholesky test
    # cannot keep it below the first block's K_N, so it is certified in
    # full, and K_N is its full certificate, bit for bit
    p = ModelParams(lam=10.0, sigma=1.0, mu=0.0)
    lin = lin_of(p, CosineSeries.zeros((2,)))
    blocks = list(galerkin_blocks(p, lin.q, 32))
    assert [block.label for block, _ in blocks] == ["(0)", "(1)"]
    first, largest = (mat_inverse_norm2_upper(ball)[0] for _, ball in blocks)
    assert first < largest
    assert not inverse_norm2_at_most(blocks[1][1], first)
    calls = _count_inverses(monkeypatch)
    assert derivative_inverse_bound(p, lin, 32).kn == largest
    assert len(calls) == 2


def test_kn_overflowing_entry_fails_at_kn_bound():
    # a coefficient of q whose radius overflowed, (0, inf), makes block
    # entries (0, inf): the defect bound is inf, and the stage fails
    q = CosineSeries(np.array([[5.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, math.inf]]))
    with pytest.raises(CertificationError, match=r"bound inf >= 1") as err:
        derivative_inverse_bound(ModelParams(lam=7.0), Linearization(q, 1.0, 1.0), 6)
    assert err.value.stage == "kn_bound"


def test_kn_overflowing_raw_coefficient_fails_at_kn_bound():
    # 1e308 c_(1,1) = 2e308 overflows the raw coefficient: no overflow
    # warning (an error under pytest) escapes, and the stage fails cleanly
    c = np.zeros((4, 4))
    c[1, 1] = 1e308
    q = CosineSeries.from_point(c)
    with pytest.raises(CertificationError) as err:
        derivative_inverse_bound(ModelParams(lam=7.0), Linearization(q, 1.0, 1.0), 6)
    assert err.value.stage == "kn_bound"


def test_kn_failure_names_parity_class():
    # a constant q whose interval puts zero inside the diagonal entries of
    # the modes with |k|^2 = 1: the first class holding one, (0, 1), fails
    with pytest.raises(CertificationError) as err:
        derivative_inverse_bound(ModelParams(lam=7.0), _unit_kappa_linearization(), 6)
    assert err.value.stage == "kn_bound" and err.value.suggested_n == 12
    assert "on parity class (0, 1) (9 modes): " in str(err.value)
    assert ">= 1" in str(err.value)


def _unit_kappa_linearization() -> Linearization:
    q0 = math.pi**2 * (1.0 + 1e-6)
    q = hull(np.array([[q0 - 1e-3]]), np.array([[q0 + 1e-3]]))
    return Linearization(q, sup_bound(q).hi, norm(q, "H", 2).hi)


def test_kn_stream_stops_at_the_failing_block(monkeypatch):
    # the classes (0, 1) and (1, 0) both fail; the stage assembles (0, 0)
    # and (0, 1), and no block after the first failing class
    assembled = []
    assemble = inverse._galerkin_block

    def recording(p, block, raw):
        assembled.append(tuple(block_modes(block)[-1] % 2))
        return assemble(p, block, raw)

    monkeypatch.setattr(inverse, "_galerkin_block", recording)
    with pytest.raises(CertificationError, match=r"on parity class \(0, 1\) "):
        derivative_inverse_bound(ModelParams(lam=7.0), _unit_kappa_linearization(), 6)
    assert assembled == [(0, 0), (0, 1)]


def test_point_jacobian_memory_peak(rng):
    # the assembly of one block keeps the sums and one pattern's gather
    # live, and no index, mask or weight array of the block's size, let
    # alone of the full matrix: here the (1, 1) block of 24^2 = 576 of 2303
    # modes
    n = 48
    a = make_random_series(rng, (n, n), scale=0.3).mid()
    a *= np.indices((n, n)).prod(axis=0) % 2
    p = ModelParams(lam=30.0, sigma=2.0)
    q_raw, split = operator.point_linearization(p, operator.point_powers(p, a))
    assert split == (True, True)
    block = operator.parity_blocks(split, n)[-1]
    modes = block_modes(block)
    assert modes.shape == (576, 2) and np.all(modes % 2 == 1)
    galerkin_matrix_point(p, q_raw, block)
    tracemalloc.start()
    try:
        galerkin_matrix_point(p, q_raw, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * 576**2


def test_kn_diagonal_oracle():
    for lam, sig in ((10.0, 1.0), (150.0, 6.0)):
        p = ModelParams(lam=lam, sigma=sig, mu=0.0)
        for n in (32, 64):
            kn = derivative_inverse_bound(p, lin_of(p, CosineSeries.zeros((2,))), n).kn
            ks = math.pi**2 * np.arange(1, n, dtype=float) ** 2
            oracle = 1.0 / np.min(np.abs(-(1 + lam * sig / ks**2) + lam / ks))
            assert oracle <= kn <= oracle * 1.01


def test_kn_self_consistency(rng):
    # recertify: the approximate inverse of the stored matrix keeps e < 1,
    # by the entrywise ball product and the test-side ball norm
    p = ModelParams(lam=30.0, sigma=2.0, mu=0.0)
    u = make_random_series(rng, (6,), scale=0.3)
    q = lin_of(p, u).q
    blocks = list(galerkin_blocks(p, q, 12))
    g = galerkin_full(p, q, 12, blocks)
    c = np.linalg.inv(g.mid)
    e = mat_sub_identity(mat_mul(point_matrix(c), g))
    assert norm2_upper(e) < 1.0
    assert max(mat_inverse_norm2_upper(ball)[1] for _, ball in blocks) < 1.0


# ---------------------------------------------------------------------------
# inverse bound
# ---------------------------------------------------------------------------

def test_tau_zero_when_q_zero():
    p = ModelParams(lam=5.0, sigma=0.0, mu=0.0, f_coeffs=(1.0, 0.0))
    ib = derivative_inverse_bound(p, lin_of(p, CosineSeries.zeros((2,))), 8)
    assert ib.tau == 0.0
    assert ib.k == pytest.approx(max(ib.kn, 1.0), rel=1e-12)


def test_inverse_bound_diagonal_case():
    p = ModelParams(lam=150.0, sigma=6.0, mu=0.0)
    ib = derivative_inverse_bound(p, lin_of(p, CosineSeries.zeros((2,))), 64)
    ks = math.pi**2 * np.arange(1, 64, dtype=float) ** 2
    kn_oracle = 1.0 / np.min(np.abs(-(1 + 150.0 * 6.0 / ks**2) + 150.0 / ks))
    k_expected = max(kn_oracle, 1.0) / (1.0 - ib.tau)
    assert ib.k == pytest.approx(k_expected, rel=1e-2)
    assert ib.tau < 1.0


def test_tau_quarters_when_n_doubles():
    p = ModelParams(lam=150.0, sigma=6.0, mu=0.0)
    lin = lin_of(p, CosineSeries.zeros((2,)))
    t1 = derivative_inverse_bound(p, lin, 32).tau
    t2 = derivative_inverse_bound(p, lin, 64).tau
    assert t2 <= t1 / 3.5


def test_tau_formula_against_mpmath(rng):
    for _ in range(50):
        kn = float(10 ** rng.uniform(-1, 2))
        qs = float(10 ** rng.uniform(-1, 3))
        qh = float(10 ** rng.uniform(-1, 4))
        cb = 1.471443
        n = int(rng.integers(2, 200))
        mine = tau_formula(kn, qs, qh, cb, n)
        pi = mpmath.pi
        ref = (
            mpmath.sqrt(kn**2 * qs**2 + cb**2 * (1 + pi**4) / pi**4 * qh**2)
            / (pi**2 * n**2)
        )
        assert mine.lo <= float(ref) <= mine.hi
        assert width(mine) <= 1e-10 * mine.hi


def test_inverse_bound_raises_when_tau_large(solved_1d):
    p, result = solved_1d
    with pytest.raises(CertificationError) as err:
        derivative_inverse_bound(p, lin_of(p, result.solution), 8)
    assert err.value.stage == "inverse_bound"
    assert err.value.suggested_n is not None and err.value.suggested_n > 8


def test_auto_inverse_bound(solved_1d):
    p, result = solved_1d
    (ib,) = inverse_bounds(p, lin_of(p, result.solution), [None])
    assert ib.tau <= 0.5
    assert ib.n <= 160


# ---------------------------------------------------------------------------
# the linearization as an operator
# ---------------------------------------------------------------------------

def test_apply_linearization_vs_finite_difference(rng):
    p = ModelParams(lam=4.0, sigma=1.0, mu=0.1)
    u = make_random_series(rng, (5,), scale=0.3)
    v = make_random_series(rng, (5,), scale=1.0)
    lv = apply_linearization(p, lin_of(p, u).q, v)
    h = 1e-6
    up = CosineSeries.from_point(u.mid() + h * v.mid(), zero_mean=True)
    um = CosineSeries.from_point(u.mid() - h * v.mid(), zero_mean=True)
    diff = (residual_series(p, up).mid() - residual_series(p, um).mid()) / (2 * h)
    lv_mid = lv.mid()[: diff.shape[0]]
    scale = max(1.0, float(np.max(np.abs(lv_mid))))
    assert np.max(np.abs(lv_mid - diff[: lv_mid.shape[0]])) / scale < 1e-7


def test_linearization_zero_mean_output(rng):
    p = ModelParams(lam=4.0, sigma=1.0, mu=0.1)
    u = make_random_series(rng, (5,), scale=0.3)
    v = make_random_series(rng, (6,), scale=1.0)
    lv = apply_linearization(p, lin_of(p, u).q, v)
    assert lv.zero_mean and lv.coefficient((0,)).mag == 0.0
    f = residual_series(p, u)
    assert f.zero_mean and f.coefficient((0,)).mag == 0.0


def test_point_jacobian_matches_interval_matrix():
    # block by block, Newton's Jacobian scaled by 1/kappa_k kappa_l is the
    # midpoint of the streamed Galerkin block on the same rows
    n = 5
    for mu, modes, blocks in [
        (0.1, [(0, 1), (1, 0), (2, 2)], 1),  # mixed parities: one block
        (0.0, [(1, 1), (1, 3), (3, 1)], 4),  # all odd: four blocks
        (0.0, [(0, 1), (2, 1), (2, 2)], 2),  # even along axis 0 only: two blocks
    ]:
        p = ModelParams(lam=20.0, sigma=2.0, mu=mu)
        a = np.zeros((n, n))
        for k, v in zip(modes, (0.2, -0.15, 0.05)):
            a[k] = v
        q_raw, split = operator.point_linearization(p, operator.point_powers(p, a))
        q = lin_of(p, CosineSeries.from_point(a, zero_mean=True)).q
        streamed = list(galerkin_blocks(p, q, n))
        walk = operator.parity_blocks(split, n)
        assert len(walk) == len(streamed) == blocks
        for block, (s_block, ball) in zip(walk, streamed):
            assert block.label == s_block.label and np.array_equal(s_block.cells(), block.cells())
            b = galerkin_matrix_point(p, q_raw, block)
            kap = math.pi**2 * np.sum(block_modes(block).astype(float) ** 2, axis=1)
            scaled = b / kap[:, None] / kap[None, :]
            assert np.max(np.abs(scaled - ball.mid)) < 1e-13


# ---------------------------------------------------------------------------
# memory ceiling of the K_N stage
# ---------------------------------------------------------------------------

def _kn_stage_peak(p, lin, n: int) -> int:
    """The traced peak of derivative_inverse_bound(p, lin, n), which may fail."""
    tracemalloc.start()
    try:
        try:
            derivative_inverse_bound(p, lin, n)
        except CertificationError:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kn_stage_memory_peak_within_live_arrays(solved_1d, solved_2d, solved_3d):
    # the traced peak of a first K_N pass, on a fresh Linearization as in a
    # validate, on the canonical 2-d and 3-d cases, which stream 4 and 8
    # blocks, stays inside the one-block budget that the memory check
    # charges, and below what the blocks hold together
    for (p, result), n in ((solved_2d, 28), (solved_2d, 48), (solved_3d, 12), (solved_3d, 16)):
        lin = lin_of(p, result.solution)
        peak = _kn_stage_peak(p, lin, n)
        assert peak <= inverse.kn_stage_bytes(lin.q, n, operator.split_axes(lin.q)), n
        sizes = [block.size for block in operator.parity_blocks((True,) * lin.q.dim, n)]
        assert len(sizes) == 2**lin.q.dim and peak < 8.0 * 2 * sum(s * s for s in sizes), n
    # where q is large against the truncation, its raw arrays set the peak
    p3 = solved_3d[0]
    res16 = newton_solve(p3, parse_seed("mode:1,1,1,0.5", 3, 16), SolveOptions(n=16))
    cases = [(solved_1d, 16), (solved_2d, 6), (solved_3d, 6)]
    cases += [((p3, res16), n) for n in (6, 8, 10, 12)]
    for (p, result), n in cases:
        lin = lin_of(p, result.solution)
        charge = inverse.kn_stage_bytes(lin.q, n, operator.split_axes(lin.q))
        assert _kn_stage_peak(p, lin, n) <= charge, (lin.q.extent, n)


def test_kn_stage_peak_not_above_the_full_certificates(solved_2d, solved_3d):
    # a block the Cholesky test clears is dropped before the next one is
    # assembled: the traced peak stays at or below that of certifying every
    # block in full, 5.04 m_b^2 at 2-d N=48 and 5.12 m_b^2 at 3-d N=16
    for (p, result), n, ceiling in ((solved_2d, 48, 5.04), (solved_3d, 16, 5.12)):
        lin = lin_of(p, result.solution)
        m_b = max(block.size for block in operator.parity_blocks(operator.split_axes(lin.q), n))
        derivative_inverse_bound(p, lin, n)
        assert _kn_stage_peak(p, lin, n) <= ceiling * 8.0 * m_b**2, n


def test_kn_stage_charge_counts_blocks(solved_1d):
    # the working set of the largest block, since one block is live at a
    # time: of the two 1-d classes, 31 and 32 modes, the odd one; one block
    # is the whole matrix
    p, result = solved_1d
    q = lin_of(p, result.solution).q
    q_arrays = inverse.KN_Q_ARRAYS * q.center.size
    charge = inverse.kn_stage_bytes(q, 64, operator.split_axes(q))
    assert charge == 8.0 * (inverse.KN_WORK_ARRAYS * 32**2 + q_arrays)
    q_odd = CosineSeries.from_point(np.array([1.0, 0.5]))
    q_arrays = inverse.KN_Q_ARRAYS * 2
    charge = inverse.kn_stage_bytes(q_odd, 64, operator.split_axes(q_odd))
    assert charge == 8.0 * (inverse.KN_WORK_ARRAYS * 63**2 + q_arrays)


def _charge_1d(solved_1d, n: int) -> float:
    p, result = solved_1d
    q = lin_of(p, result.solution).q
    return inverse.kn_stage_bytes(q, n, operator.split_axes(q))


def _fail_if_called(*args, **kwargs):
    raise AssertionError("Galerkin matrix assembled past the memory ceiling")


def test_kn_memory_ceiling_raises_before_assembly(solved_1d, monkeypatch):
    p, result = solved_1d
    need = _charge_1d(solved_1d, 64)
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: need - 1)
    monkeypatch.setattr(inverse, "_galerkin_block", _fail_if_called)
    with pytest.raises(CertificationError) as err:
        derivative_inverse_bound(p, lin_of(p, result.solution), 64)
    assert err.value.stage == "kn_bound"
    assert err.value.suggested_n is None
    assert "MB" in str(err.value)


def test_kn_memory_ceiling_builds_nothing_of_the_truncation_size():
    # the charge reads the walk's class sizes, not their rows: a 2-d
    # truncation with four classes of 2.5e9 modes is refused after a traced
    # peak of a few MB, where one class's rows alone would take 20 GB
    q = CosineSeries.from_point(np.array([[1.0, 0.0, 0.5]]))
    lin = Linearization(q, sup_bound(q).hi, norm(q, "H", 2).hi)
    tracemalloc.start()
    try:
        with pytest.raises(CertificationError, match="MB") as err:
            derivative_inverse_bound(ModelParams(lam=7.0), lin, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.stage == "kn_bound" and err.value.suggested_n is None
    assert peak < 1e7


def _shared_pass(p, lin, ns, avail, monkeypatch):
    """inverse_bounds(p, lin, ns, avail), with the (truncation, class) of
    every block assembled, the traced peak, and whether q's raw arrays
    were read (series._raw_mid_rad called)."""
    assembled, reads = [], []
    assemble, raw_mid_rad = inverse._galerkin_block, inverse._raw_mid_rad

    def recording(p, block, raw):
        assembled.append((block.n, block.label))
        return assemble(p, block, raw)

    monkeypatch.setattr(inverse, "_galerkin_block", recording)
    monkeypatch.setattr(inverse, "_raw_mid_rad", lambda q: reads.append(q) or raw_mid_rad(q))
    tracemalloc.start()
    try:
        out = inverse.inverse_bounds(p, lin, ns, avail)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, assembled, peak, bool(reads)


def test_shared_kn_pass_charges_the_held_block(solved_sweep_1d, monkeypatch):
    # no block is held beside a smaller truncation's: each truncation is
    # charged alone, and each class is assembled once, at the largest
    # truncation that fits, and cut from the block just certified.  The
    # largest truncation alone does not fit: it fails at kn_bound, and
    # every smaller one is certified with the bits of its own pass, within
    # its own charge
    p, result = solved_sweep_1d
    lin = lin_of(p, result.solution)
    ns = [24, 32, 48, 64, 96, 128, 256]
    alone = [derivative_inverse_bound(p, lin, n) for n in ns[:-1]]
    split = operator.split_axes(lin.q)
    avail = inverse.kn_stage_bytes(lin.q, 256, split) - 1
    out, assembled, peak, read = _shared_pass(p, lin, ns, avail, monkeypatch)
    assert out[:-1] == alone
    assert out[-1].stage == "kn_bound" and out[-1].suggested_n is None and "n=256" in str(out[-1])
    assert assembled == [(128, "(0)"), (128, "(1)")]
    assert peak <= inverse.kn_stage_bytes(lin.q, 128, split) <= avail
    # where only the largest truncation's charge fits, a smaller one is
    # still cut from its blocks, in the same pass
    avail = inverse.kn_stage_bytes(lin.q, 100, split)
    alone = [derivative_inverse_bound(p, lin, n) for n in (96, 100)]
    out, assembled, peak, read = _shared_pass(p, lin, [96, 100], avail, monkeypatch)
    assert out == alone
    assert assembled == [(100, "(0)"), (100, "(1)")]
    assert peak <= avail
    # nothing is assembled, nor q's raw arrays read, where nothing fits
    avail = inverse.kn_stage_bytes(lin.q, 24, split) - 1
    out, assembled, peak, read = _shared_pass(p, lin, ns, avail, monkeypatch)
    assert [e.stage for e in out] == ["kn_bound"] * len(ns)
    assert assembled == [] and not read and peak < 8.0 * lin.q.center.size * inverse.KN_Q_ARRAYS


def _record_tries(monkeypatch) -> list:
    """The truncations of every K_N pass that inverse_bounds runs, in
    order, from a rung patched to 32."""
    tried = []
    kn_pass = inverse._kn_pass

    def recording(p, lin, ns, avail):
        tried.extend(sorted(ns))
        return kn_pass(p, lin, ns, avail)

    monkeypatch.setattr(inverse, "_kn_pass", recording)
    monkeypatch.setattr(inverse, "rule_of_thumb_n", lambda q_h2: 32)
    return tried


def test_auto_inverse_bound_predicts_the_truncation(solved_1d, monkeypatch):
    # tau >= 1 at the rung, n = 32; K_N there predicts n = 88 for tau = 1/2,
    # and one pass there reaches it (doubling took 32, 64 and 128)
    p, result = solved_1d
    tried = _record_tries(monkeypatch)
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: 1e12)
    (ib,) = inverse_bounds(p, lin_of(p, result.solution), [None])
    assert tried == [32, 88]
    assert ib.n == 88 and ib.tau <= 0.5


def test_auto_inverse_bound_shares_the_pass_of_the_fixed_truncations(solved_1d, monkeypatch):
    # the rung joins the pass of the integer truncations, and a predicted
    # truncation that pass already decided is not run again: one pass in all
    p, result = solved_1d
    tried = _record_tries(monkeypatch)
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: 1e12)
    lin = lin_of(p, result.solution)
    fixed, auto = inverse_bounds(p, lin, [88, None])
    assert tried == [32, 88]
    assert auto == fixed == derivative_inverse_bound(p, lin, 88)


def test_auto_inverse_bound_stops_at_memory_ceiling(solved_1d, monkeypatch):
    p, result = solved_1d
    tried = _record_tries(monkeypatch)
    need = _charge_1d(solved_1d, 64)
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: need)
    (ib,) = inverse_bounds(p, lin_of(p, result.solution), [None])
    # the prediction from n = 32, 88, does not fit: it is cut down to 65,
    # the largest truncation charged as 64 is, where tau misses the target;
    # nothing larger fits, so the escalation stops there
    assert tried == [32, 65]
    assert ib.n == 65 and 0.5 < ib.tau < 1.0


def test_auto_inverse_bound_reads_the_memory_once(solved_1d, monkeypatch):
    # an escalation through several truncations checks every charge
    # against one reading, and so does the validate that runs it
    from okvalid.cift import validate

    p, result = solved_1d
    reads = []
    tried = _record_tries(monkeypatch)
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: reads.append(1) or 1e12)
    inverse_bounds(p, lin_of(p, result.solution), [None])
    assert len(tried) > 1 and len(reads) == 1
    reads.clear()
    assert validate(p, result.solution, "lambda").valid
    assert len(reads) == 1


@pytest.mark.parametrize("target", [0.5, 0.3, 0.1])
def test_next_truncation_is_where_tau_formula_reaches_the_target(solved_1d, solved_2d, target):
    # at the K_N certified at n, tau_formula is at most the target at the
    # predicted truncation and above it one below
    for (p, result), n in ((solved_1d, 65), (solved_2d, 24), (solved_2d, 28)):
        lin = lin_of(p, result.solution)
        ib = derivative_inverse_bound(p, lin, n)
        big = inverse.next_truncation(lin.q, operator.split_axes(lin.q), n, ib.tau, target, math.inf)
        cb = table_constants(lin.q.dim).cb
        assert tau_formula(ib.kn, lin.q_sup, lin.q_h2, cb, big).hi <= target
        assert tau_formula(ib.kn, lin.q_sup, lin.q_h2, cb, big - 1).hi > target


def test_next_truncation_cut_down_to_memory(solved_1d):
    # the prediction from n = 65 for 1/2, 88, is cut down to the largest
    # truncation that fits, and is None where none above n does
    p, result = solved_1d
    lin = lin_of(p, result.solution)
    ib = derivative_inverse_bound(p, lin, 65)
    split = operator.split_axes(lin.q)

    def predict(avail):
        return inverse.next_truncation(lin.q, split, 65, ib.tau, 0.5, avail)

    assert predict(math.inf) == 88
    assert predict(_charge_1d(solved_1d, 88)) == 88
    assert predict(_charge_1d(solved_1d, 80)) == 81  # 80 and 81 have one charge
    assert predict(_charge_1d(solved_1d, 66)) == 67
    assert predict(_charge_1d(solved_1d, 66) - 1) is None


def test_tail_failure_names_the_predicted_truncation_past_memory(solved_1d):
    # tau >= 1 at n = 32, and the truncation that K_N there predicts for
    # 1/2, 88, does not fit, nor does one where tau would fall below 1:
    # no suggestion, and the message names 88 and its charge
    p, result = solved_1d
    lin = lin_of(p, result.solution)
    avail = _charge_1d(solved_1d, 33)
    with pytest.raises(CertificationError) as err:
        derivative_inverse_bound(p, lin, 32, avail)
    assert err.value.stage == "inverse_bound" and err.value.suggested_n is None
    need = _charge_1d(solved_1d, 88)
    assert str(err.value).endswith(f"at n=32; the predicted truncation n=88 needs about "
                                   f"{need / 1e6:.0f} MB for the K_N stage, "
                                   f"{avail / 1e6:.0f} MB available")
    # with memory for n = 88, 88 is the suggestion
    with pytest.raises(CertificationError) as err:
        derivative_inverse_bound(p, lin, 32, need)
    assert err.value.suggested_n == 88 and "predicted" not in str(err.value)


@pytest.mark.parametrize("dim", [2, 3])
def test_auto_rung_past_the_double_range_fails_at_kn_bound(dim):
    # q = 1e150 on the zero solution puts the rung near 7e74, whose K_N
    # charge lies past the double range: an exact integer, refused at
    # kn_bound with no suggestion
    from okvalid.cift import validate

    cert = validate(ModelParams(lam=1e150), CosineSeries.zeros((2,) * dim), "lambda")
    assert not cert.valid and cert.stage == "kn_bound"
    assert "needs about 10^" in cert.reason and "suggested" not in cert.reason


def test_validate_reports_memory_ceiling(solved_1d, monkeypatch):
    from okvalid.cift import validate

    p, result = solved_1d
    # less than the K_N stage needs at the smallest truncation, n = 4
    need = _charge_1d(solved_1d, 4)
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: need - 1)
    cert = validate(p, result.solution, "lambda")
    assert not cert.valid and cert.stage == "kn_bound"
    assert "MB" in cert.reason and "suggested truncation" not in cert.reason


def test_available_memory_is_positive():
    assert operator.available_memory_bytes() > 0
