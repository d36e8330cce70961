import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from conftest import gauss_rule, lin_of, make_random_series
from okvalid import operator
from okvalid.intervals import PI2_BALL, PI4_BALL, IntervalDomainError
from okvalid.newton import SolveOptions, newton_solve, parse_seed
from okvalid.operator import (
    CertificationError,
    ModelParams,
    apply_linearization,
    auto_inverse_bound,
    derivative_inverse_bound,
    galerkin_inverse_bound,
    galerkin_matrix,
    galerkin_matrix_point,
    poly_deriv,
    residual_norm,
    residual_series,
    tau_formula,
    truncation_modes,
)
from okvalid.series import CosineSeries, evaluate_grid


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(lam=-1.0)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, sigma=-0.5)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, f_coeffs=(1.0,))
    p = ModelParams(lam=2.0)
    assert p.fp_coeffs == (1.0, 0.0, -3.0)
    assert p.fpp_coeffs == (0.0, -6.0)
    assert poly_deriv((5.0,)) == ()


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
    u = CosineSeries.single_mode((4,), (1,), eps)
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
    u = CosineSeries.single_mode((2,), (1,), eps)
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
    q, q_sup, _ = lin_of(p, CosineSeries.zeros((4,)))
    expect = 5.0 * (1 - 3 * 0.25**2)
    c0 = q.coefficient((0,))
    assert c0.lo <= expect <= c0.hi
    assert all(q.coefficient((k,)).mag < 1e-14 for k in range(1, q.extent[0]))
    assert q_sup >= abs(expect)


def test_q_series_vs_quadrature(rng):
    p = ModelParams(lam=1.0, sigma=0.0, mu=0.0)
    u = CosineSeries.single_mode((2,), (1,), 1.0)
    q, q_sup, _ = lin_of(p, u)
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

def test_truncation_modes_lex():
    m = truncation_modes(2, 3)
    assert m.shape == (8, 2)
    assert m[0].tolist() == [0, 1]
    assert m[-1].tolist() == [2, 2]


def test_galerkin_zero_q_is_minus_identity():
    p = ModelParams(lam=5.0, sigma=0.0, mu=0.0, f_coeffs=(1.0, 0.0))
    g = galerkin_matrix(p, lin_of(p, CosineSeries.zeros((2,))).q, 6)
    assert np.allclose(g.mat.mid, -np.eye(5), atol=1e-14)
    kn = galerkin_inverse_bound(g)
    assert 1.0 <= kn.value <= 1.0 + 1e-10


def test_galerkin_diagonal_hand_formula():
    lam, sig = 10.0, 1.0
    p = ModelParams(lam=lam, sigma=sig, mu=0.0)
    n = 8
    g = galerkin_matrix(p, lin_of(p, CosineSeries.zeros((2,))).q, n)
    for i, k in enumerate(range(1, n)):
        kap = math.pi**2 * k * k
        expect = -(1 + lam * sig / kap**2) + lam / kap
        mid, rad = g.mat.mid[i, i], g.mat.rad[i, i]
        assert abs(expect - mid) <= rad + 1e-12
    off = np.max(np.abs(g.mat.mid - np.diag(np.diag(g.mat.mid))))
    assert off < 1e-14


def test_galerkin_vs_quadrature_d1(rng):
    p = ModelParams(lam=2.0, sigma=1.5, mu=0.1)
    u = make_random_series(rng, (5,), scale=0.4)
    n = 6
    g = galerkin_matrix(p, lin_of(p, u).q, n)
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
            mid, rad = g.mat.mid[i, j], g.mat.rad[i, j]
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


@pytest.mark.parametrize("extent,n,point", [
    ((5, 3), 4, False), ((3, 4, 2), 3, False), ((5,), 9, True), ((6, 5), 5, True),
], ids=["extent0-4", "extent1-3", "point-1d", "point-2d"])
def test_galerkin_contains_exact_inner_products(rng, extent, n, point):
    # non-point coefficients exercise the radius term, point zeros the exact
    # zero entries, and the extents differ per axis and from the modes'; an
    # all-point q leaves only the rounding of the sums and their float
    # scaling, over modes with odd and even numbers of nonzero indices
    mid = rng.standard_normal(extent)
    width = np.abs(rng.standard_normal(extent)) * rng.choice([0.0, 1e-13, 0.3], extent)
    mid[rng.uniform(size=extent) < 0.3] = 0.0
    width[(mid == 0.0) | point] = 0.0
    q = CosineSeries.hull(mid - width, mid + width)
    assert (q.hi > q.lo).any() != point and ((q.lo == 0.0) & (q.hi == 0.0)).any()
    p = ModelParams(lam=7.0, sigma=1.5)
    dim = len(extent)
    g = galerkin_matrix(p, q, n)
    modes = truncation_modes(dim, n)
    with mpmath.workdps(50):
        lo, hi = _exact_galerkin_hull(p, q, modes)
        for a in range(len(modes)):
            for b in range(len(modes)):
                mid, rad = mpmath.mpf(g.mat.mid[a, b]), mpmath.mpf(g.mat.rad[a, b])
                assert mid - rad <= lo[a][b], (a, b)
                assert hi[a][b] <= mid + rad, (a, b)
    assert ((g.mat.mid == 0.0) & (g.mat.rad == 0.0)).any() and (g.mat.rad > 0.0).any()


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
            g = galerkin_matrix(p, q, n)
            assert np.all(g.mat.mid[off] == 0.0) and np.all(g.mat.rad[off] == 0.0)
            for i in range(n - 1):
                kappa = mpmath.pi**2 * (i + 1) ** 2
                exact = q0 / kappa - (1 + mpmath.mpf(p.lam) * p.sigma / kappa**2)
                mid, rad = mpmath.mpf(g.mat.mid[i, i]), mpmath.mpf(g.mat.rad[i, i])
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
    # extents below, equal to and above 2n - 1 per axis, with exact zeros;
    # the full grid, and the parity classes' sub-grids with and without the
    # origin when every axis or a random subset of the axes splits
    arrays = [rng.standard_normal(extent) * 10.0 ** rng.integers(-3, 4, extent)
              for _ in range(2)]
    arrays[0][rng.uniform(size=extent) < 0.3] = 0.0
    arrays[1] = np.abs(arrays[1])
    d = len(extent)
    grids = []
    for split in ((False,) * d, (True,) * d, tuple(rng.uniform(size=d) < 0.5)):
        grids += operator.parity_classes(split, n)
    for axes in grids:
        sums = operator._galerkin_sums(axes, arrays)
        assert len(sums) == 2
        for got, a in zip(sums, arrays):
            assert np.array_equal(got, _galerkin_sums_reference(axes, a)), axes


def _same_parity(modes, split):
    """Mask of the mode pairs whose indices agree mod 2 on every split axis."""
    same = np.ones((len(modes), len(modes)), dtype=bool)
    for j in np.flatnonzero(split):
        same &= (modes[:, j, None] % 2) == (modes[None, :, j] % 2)
    return same


def _one_block(p, n, q, monkeypatch):
    """galerkin_matrix assembled as a single block: no axis splits."""
    with monkeypatch.context() as mp:
        mp.setattr(operator, "split_axes", lambda q: (False,) * q.dim)
        g = galerkin_matrix(p, q, n)
    assert len(g.blocks) == 1 and np.array_equal(g.blocks[0][0], np.arange(g.size))
    return g.blocks[0][1]


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
        q = CosineSeries.hull(mid - width, mid + width)
        assert operator.split_axes(q) == even
        g = galerkin_matrix(p, q, n)
        assert g.split == even and len(g.blocks) == 2 ** sum(even)
        assert np.array_equal(np.sort(np.concatenate([i for i, _ in g.blocks])), np.arange(g.size))
        one = _one_block(p, n, q, monkeypatch)
        full = g.mat
        assert full.mid.tobytes() == one.mid.tobytes()
        assert full.rad.tobytes() == one.rad.tobytes()
        off = ~_same_parity(g.modes, even)
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
        q = CosineSeries.hull(lo, hi)
        qm, qr, _ = _raw_mid_rad(q)
        if kind == "radius-only":
            assert qm[k] == 0.0 and qr[k] > 0.0
        else:
            assert qm[k] != 0.0
        want = tuple(i != j for i in range(3))
        assert operator.split_axes(q) == want
        g = galerkin_matrix(p, q, n)
        assert g.split == want and len(g.blocks) == 4
        # the coupling is real: entries across the parity of k_j are not point zeros
        cross = _same_parity(g.modes, (True,) * 3) != _same_parity(g.modes, want)
        full = g.mat
        assert ((full.mid[cross] != 0.0) | (full.rad[cross] != 0.0)).any()


@pytest.mark.parametrize("case,n", [("solved_1d", 112), ("solved_2d", 28), ("solved_3d", 12)])
def test_block_kn_not_looser_than_full_matrix(request, case, n):
    from okvalid.intervals import mat_inverse_norm2_upper

    p, result = request.getfixturevalue(case)
    g = galerkin_matrix(p, lin_of(p, result.solution).q, n)
    assert all(g.split) and len(g.blocks) == 2 ** g.dim
    kn = galerkin_inverse_bound(g)
    full, e_full, _ = mat_inverse_norm2_upper(g.mat)
    assert kn.value <= full and kn.defect <= e_full


def test_kn_failure_names_parity_class():
    # a constant q whose interval puts zero inside the diagonal entries of
    # the modes with |k|^2 = 1: the first class holding one, (0, 1), fails
    q0 = math.pi**2 * (1.0 + 1e-6)
    q = CosineSeries.hull(np.array([[q0 - 1e-3]]), np.array([[q0 + 1e-3]]))
    g = galerkin_matrix(ModelParams(lam=7.0), q, 6)
    with pytest.raises(CertificationError) as err:
        galerkin_inverse_bound(g)
    assert err.value.stage == "kn_bound" and err.value.suggested_n == 12
    assert "on parity class (0, 1) (9 modes): " in str(err.value)
    assert ">= 1" in str(err.value)


def test_point_jacobian_memory_peak(rng):
    # the Jacobian's assembly keeps the sums and one pattern's gather live,
    # and no m x m index, mask or weight array
    n = 24
    a = make_random_series(rng, (n, n), scale=0.3).mid()
    p = ModelParams(lam=30.0, sigma=2.0)
    galerkin_matrix_point(p, a, n)
    m = n * n - 1
    tracemalloc.start()
    try:
        galerkin_matrix_point(p, a, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * m * m


def test_kn_diagonal_oracle():
    for lam, sig in ((10.0, 1.0), (150.0, 6.0)):
        p = ModelParams(lam=lam, sigma=sig, mu=0.0)
        for n in (32, 64):
            g = galerkin_matrix(p, lin_of(p, CosineSeries.zeros((2,))).q, n)
            kn = galerkin_inverse_bound(g)
            ks = math.pi**2 * np.arange(1, n, dtype=float) ** 2
            oracle = 1.0 / np.min(np.abs(-(1 + lam * sig / ks**2) + lam / ks))
            assert oracle <= kn.value <= oracle * 1.01


def test_kn_self_consistency(rng):
    # recertify: the approximate inverse of the stored matrix keeps e < 1
    from okvalid.intervals import BallMatrix, mat_mul, mat_norm2_upper, mat_sub_identity

    p = ModelParams(lam=30.0, sigma=2.0, mu=0.0)
    u = make_random_series(rng, (6,), scale=0.3)
    g = galerkin_matrix(p, lin_of(p, u).q, 12)
    kn = galerkin_inverse_bound(g)
    c = np.linalg.inv(g.mat.mid)
    e = mat_sub_identity(mat_mul(BallMatrix.point(c), g.mat))
    assert mat_norm2_upper(e) < 1.0
    assert kn.defect < 1.0


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
        assert mine.width <= 1e-10 * mine.hi


def test_inverse_bound_raises_when_tau_large(solved_1d):
    p, result = solved_1d
    with pytest.raises(CertificationError) as err:
        derivative_inverse_bound(p, lin_of(p, result.solution), 8)
    assert err.value.stage == "inverse_bound"
    assert err.value.suggested_n is not None and err.value.suggested_n > 8


def test_auto_inverse_bound(solved_1d):
    p, result = solved_1d
    ib = auto_inverse_bound(p, lin_of(p, result.solution))
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


def test_point_jacobian_matches_interval_matrix(rng):
    p = ModelParams(lam=20.0, sigma=2.0, mu=0.1)
    a = np.zeros((5, 5))
    a[0, 1], a[1, 0], a[2, 2] = 0.2, -0.15, 0.05
    u = CosineSeries.from_point(a, zero_mean=True)
    b = galerkin_matrix_point(p, a, 5)
    g = galerkin_matrix(p, lin_of(p, u).q, 5)
    modes = truncation_modes(2, 5)
    kap = math.pi**2 * np.sum(modes.astype(float) ** 2, axis=1)
    scaled = b / kap[:, None] / kap[None, :]
    assert np.max(np.abs(scaled - g.mat.mid)) < 1e-13


# ---------------------------------------------------------------------------
# memory ceiling of the K_N stage
# ---------------------------------------------------------------------------

def test_kn_stage_memory_peak_within_live_arrays(solved_2d):
    # the traced peak of the Galerkin assembly and the certified inverse
    # norm on the canonical 2-d case, four blocks of at most 196 modes, stays
    # inside the budget that the memory check charges
    n = 28
    p, result = solved_2d
    u = result.solution
    q = lin_of(p, u).q
    tracemalloc.start()
    try:
        galerkin_inverse_bound(galerkin_matrix(p, q, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= operator.kn_stage_bytes(q, n)


def test_kn_stage_charge_counts_blocks(solved_1d):
    # the blocks' storage plus one block's working set; one block is the
    # whole matrix's 2 + KN_WORK_ARRAYS arrays
    p, result = solved_1d
    q = lin_of(p, result.solution).q
    assert operator.kn_stage_bytes(q, 64) == 8.0 * (2 * (31**2 + 32**2) + operator.KN_WORK_ARRAYS * 32**2)
    q_odd = CosineSeries.from_point(np.array([1.0, 0.5]))
    assert operator.kn_stage_bytes(q_odd, 64) == 8.0 * (2 + operator.KN_WORK_ARRAYS) * 63**2


def _charge_1d(solved_1d, n: int) -> float:
    p, result = solved_1d
    return operator.kn_stage_bytes(lin_of(p, result.solution).q, n)


def _fail_if_called(*args, **kwargs):
    raise AssertionError("Galerkin matrix assembled past the memory ceiling")


def test_kn_memory_ceiling_raises_before_assembly(solved_1d, monkeypatch):
    p, result = solved_1d
    need = _charge_1d(solved_1d, 64)
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: need - 1)
    monkeypatch.setattr(operator, "galerkin_matrix", _fail_if_called)
    with pytest.raises(CertificationError) as err:
        derivative_inverse_bound(p, lin_of(p, result.solution), 64)
    assert err.value.stage == "kn_bound"
    assert err.value.suggested_n is None
    assert "MB" in str(err.value)


def test_auto_inverse_bound_stops_at_memory_ceiling(solved_1d, monkeypatch):
    p, result = solved_1d
    tried = []
    bound = operator.derivative_inverse_bound

    def recording(p, lin, n):
        tried.append(n)
        return bound(p, lin, n)

    monkeypatch.setattr(operator, "derivative_inverse_bound", recording)
    monkeypatch.setattr(operator, "rule_of_thumb_n", lambda q_h2: 32)
    need = _charge_1d(solved_1d, 64)
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: need)
    ib = auto_inverse_bound(p, lin_of(p, result.solution))
    # tau at n = 64 misses the target; n = 128 does not fit, and neither
    # would anything larger, so the escalation stops there
    assert tried == [32, 64, 128]
    assert ib.n == 64 and 0.5 < ib.tau < 1.0


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
