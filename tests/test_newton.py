import math
from dataclasses import replace

import numpy as np
import pytest

from balls import block_modes
from okvalid.newton import (
    NewtonError,
    SolveOptions,
    newton_solve,
    parameter_walk,
    parse_seed,
)
from okvalid.operator import ModelParams, residual_norm
from okvalid.series import sup_bound


def test_parse_seed_variants():
    z = parse_seed("zero", 2, 8)
    assert z.shape == (8, 8) and not z.any()
    m = parse_seed("mode:1", 1, 8)
    assert m[1] == 0.2 and np.count_nonzero(m) == 1
    m2 = parse_seed("mode:1,0.35", 1, 8)
    assert m2[1] == 0.35
    m3 = parse_seed("mode:1,2", 2, 8)
    assert m3[1, 2] == 0.2
    m4 = parse_seed("mode:1,2,0.4", 2, 8)
    assert m4[1, 2] == 0.4
    with pytest.raises(ValueError):
        parse_seed("mode:0", 1, 8)
    with pytest.raises(ValueError):
        parse_seed("mode:9", 1, 8)
    with pytest.raises(ValueError):
        parse_seed("gibberish", 1, 8)


def test_converges_to_trivial_state():
    p = ModelParams(lam=20.0, sigma=1.0, mu=0.0)
    res = newton_solve(p, parse_seed("zero", 1, 16), SolveOptions(n=16))
    assert res.iterations == 0
    assert res.residual_full == 0.0
    assert not res.solution.mid().any()


def test_nontrivial_solution_rigorous_residual(solved_1d):
    p, res = solved_1d
    assert sup_bound(res.solution).hi > 0.3
    rho = residual_norm(p, res.solution).hi
    assert rho <= 1e-8


def test_fixed_point_restart(solved_1d):
    p, res = solved_1d
    again = newton_solve(p, res.solution, SolveOptions(n=128))
    assert again.iterations == 0
    assert np.array_equal(again.solution.mid(), res.solution.mid())


def test_float_vs_rigorous_residual_coupling(solved_1d):
    p, _ = solved_1d
    # stop early so the residual sits above the rounding floor
    res = newton_solve(
        p, parse_seed("mode:1", 1, 96), SolveOptions(n=96, tol_residual=1e-5)
    )
    rho = residual_norm(p, res.solution).hi
    ratio = rho / max(res.residual_full, 1e-300)
    assert 1e-2 <= ratio <= 1e2
    # at full convergence both sit at the floor; agreement is absolute there
    res2 = newton_solve(p, res.solution, SolveOptions(n=96))
    rho2 = residual_norm(p, res2.solution).hi
    assert rho2 / max(res2.residual_full, 1e-300) <= 1e2 or abs(
        rho2 - res2.residual_full
    ) <= 1e-10


def test_mean_mode_exactly_zero(solved_1d):
    _, res = solved_1d
    assert res.solution.mid()[0] == 0.0
    assert res.solution.zero_mean


def test_deterministic(solved_1d):
    p, _ = solved_1d
    a = newton_solve(p, parse_seed("mode:1", 1, 48), SolveOptions(n=48))
    b = newton_solve(p, parse_seed("mode:1", 1, 48), SolveOptions(n=48))
    assert np.array_equal(a.solution.mid(), b.solution.mid())
    assert a.iterations == b.iterations


def test_iteration_budget_error():
    p = ModelParams(lam=150.0, sigma=6.0, mu=0.0)
    with pytest.raises(NewtonError):
        newton_solve(p, parse_seed("mode:1,0.5", 1, 32), SolveOptions(n=32, max_iter=0))


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(n=8, tol_residual=0.0)


def test_walk_zero_steps():
    p = ModelParams(lam=30.0, sigma=2.0, mu=0.0)
    out = parameter_walk(p, parse_seed("zero", 1, 12), "lambda", 5.0, 0, SolveOptions(n=12))
    assert len(out) == 1
    assert out[0][0].lam == 30.0


def test_walk_linear_f_stays_zero():
    p = ModelParams(lam=10.0, sigma=1.0, mu=0.0, f_coeffs=(0.0, 1.0))
    out = parameter_walk(p, parse_seed("zero", 1, 8), "lambda", 3.0, 4, SolveOptions(n=8))
    assert len(out) == 5
    for pi, res in out:
        assert not res.solution.mid().any()


def test_walk_cubic_branch():
    p = ModelParams(lam=140.0, sigma=6.0, mu=0.0)
    start = newton_solve(p, parse_seed("mode:1,0.4", 1, 96), SolveOptions(n=96))
    out = parameter_walk(p, start.solution, "lambda", 4.0, 5, SolveOptions(n=96))
    assert len(out) == 6
    assert out[-1][0].lam == pytest.approx(160.0)
    for pi, res in out:
        assert residual_norm(pi, res.solution).hi <= 1e-6
        assert sup_bound(res.solution).hi > 0.3


def test_walk_requires_nonzero_step():
    p = ModelParams(lam=10.0)
    with pytest.raises(ValueError):
        parameter_walk(p, parse_seed("zero", 1, 8), "lambda", 0.0, 1, SolveOptions(n=8))


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
def test_walk_rejects_non_finite_step(step):
    p = ModelParams(lam=10.0)
    with pytest.raises(ValueError, match="finite"):
        parameter_walk(p, parse_seed("zero", 1, 8), "lambda", step, 1, SolveOptions(n=8))


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_solve_options_reject_small_truncation(n):
    with pytest.raises(ValueError, match="truncation"):
        SolveOptions(n=n)


def test_newton_memory_check_boundary(monkeypatch):
    # the 1-d seed mode:1 puts the residual on the odd modes only, so each
    # step assembles the odd block of 16 rows; the check charges that block
    # before assembling it
    from okvalid import newton, operator

    def no_jacobian(*args, **kwargs):
        raise AssertionError("Jacobian assembled beyond the memory check")

    p = ModelParams(lam=150.0, sigma=6.0, mu=0.0)
    n = 32
    need = 8.0 * newton.NEWTON_WORK_ARRAYS * 16**2
    with monkeypatch.context() as mp:
        mp.setattr(operator, "available_memory_bytes", lambda: need - 1)
        mp.setattr(newton, "galerkin_matrix_point", no_jacobian)
        with pytest.raises(NewtonError, match="for the Newton Jacobian block of 16 modes"):
            newton_solve(p, parse_seed("mode:1", 1, n), SolveOptions(n=n))
        with pytest.raises(NewtonError, match="for the Newton Jacobian block of 16 modes"):
            parameter_walk(p, parse_seed("mode:1", 1, n), "lambda", 1.0, 2, SolveOptions(n=n))
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: need)
    assert newton_solve(p, parse_seed("mode:1", 1, n), SolveOptions(n=n)).iterations > 0


def test_newton_memory_check_before_the_residual(monkeypatch):
    # before the first residual, the smallest block any step can assemble
    # is charged: at 3-d n=100 the all-even class less the origin, 50^3 - 1
    # modes, so nothing of the truncation's size is allocated
    from okvalid import newton, operator

    def no_residual(*args, **kwargs):
        raise AssertionError("residual computed beyond the memory check")

    monkeypatch.setattr(operator, "available_memory_bytes", lambda: 1e9)
    monkeypatch.setattr(newton, "residual_point", no_residual)
    with pytest.raises(NewtonError, match="for the Newton Jacobian block of 124999 modes"):
        newton_solve(ModelParams(lam=40.0, sigma=3.0), parse_seed("mode:1,1,1", 3, 100),
                     SolveOptions(n=100))


def test_newton_memory_peak_within_live_arrays():
    # the traced peak of two Newton steps on the canonical 2-d case, which
    # solve the all-odd block of 196 modes, stays inside the budget that the
    # memory check charges for that block.  One untraced solve first builds
    # the memoised product plans and c grids, which later solves share, so
    # the peak does not depend on which tests ran before
    import tracemalloc

    from okvalid.newton import NEWTON_WORK_ARRAYS

    p = ModelParams(lam=75.0, sigma=6.0, mu=0.0)
    n = 28
    opts = SolveOptions(n=n, max_iter=2, tol_residual=1e-300)

    def two_steps():
        with pytest.raises(NewtonError):
            newton_solve(p, parse_seed("mode:1,1,0.5", 2, n), opts)

    two_steps()
    tracemalloc.start()
    try:
        two_steps()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.0 * NEWTON_WORK_ARRAYS * 196**2


def _record_blocks(monkeypatch):
    """Wrap Newton's block assembly; returns the list of assembled mode sets."""
    from okvalid import newton

    calls = []
    assemble = newton.galerkin_matrix_point

    def recording(p, q_raw, block):
        calls.append(block_modes(block))
        return assemble(p, q_raw, block)

    monkeypatch.setattr(newton, "galerkin_matrix_point", recording)
    return calls


def test_canonical_2d_steps_solve_only_the_odd_block(monkeypatch):
    # the canonical 2-d seed lives on the (1, 1) class, and so does every
    # residual: each step assembles that block of 14^2 = 196 rows alone,
    # and the solution stays bitwise zero off it
    calls = _record_blocks(monkeypatch)
    p = ModelParams(lam=75.0, sigma=6.0, mu=0.0)
    res = newton_solve(p, parse_seed("mode:1,1,0.5", 2, 28), SolveOptions(n=28, tol_residual=1e-9))
    assert res.iterations == len(calls) == 5
    for modes in calls:
        assert modes.shape == (196, 2) and np.all(modes % 2 == 1)
    odd = np.indices((28, 28)).prod(axis=0) % 2 == 1
    c = res.solution.mid()
    assert np.all(c[~odd] == 0.0) and np.all(c[odd] != 0.0)


def test_guess_on_every_class_solves_every_block(monkeypatch):
    # a linear f has a constant q, so the Jacobian splits into the four
    # classes of 2-d; a guess on all of them needs all four blocks, and the
    # one Newton step solves the linear problem, whose solution is zero
    calls = _record_blocks(monkeypatch)
    p = ModelParams(lam=30.0, sigma=2.0, mu=0.0, f_coeffs=(0.0, 1.0))
    guess = np.zeros((8, 8))
    guess[0, 2], guess[0, 1], guess[3, 0], guess[1, 1] = 0.3, -0.2, 0.1, 0.25
    res = newton_solve(p, guess, SolveOptions(n=8))
    assert res.iterations == 1
    assert sorted(len(m) for m in calls) == [15, 16, 16, 16]
    parities = {tuple(m[0] % 2) for m in calls}
    assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert np.max(np.abs(res.solution.mid())) <= 1e-14


def test_singular_block_names_its_parity_class():
    # f linear, sigma = 0 and lam one ulp below kappa_(0,1) = fl(pi^2): the
    # diagonal entry lam c_1^2/2 kappa - kappa^2 of mode (0, 1) rounds to an
    # exact zero, so the block of the class (0, 1), which the guess on mode
    # (0, 3) reaches, is singular
    lam = float(np.nextafter(math.pi**2, 0.0))
    p = ModelParams(lam=lam, sigma=0.0, mu=0.0, f_coeffs=(0.0, 1.0))
    guess = np.zeros((6, 6))
    guess[0, 3] = 0.1
    with pytest.raises(NewtonError, match=r"singular Jacobian at iteration 0 on parity class \(0, 1\) \(9 modes\): "):
        newton_solve(p, guess, SolveOptions(n=6))


def _count_products(monkeypatch) -> dict:
    """Count multiply_point calls and residual evaluations of Newton."""
    from okvalid import newton, operator

    counts = {"products": 0, "residuals": 0}
    product, residual = operator.multiply_point, newton.residual_point

    def counted_product(a, b):
        counts["products"] += 1
        return product(a, b)

    def counted_residual(*args):
        counts["residuals"] += 1
        return residual(*args)

    monkeypatch.setattr(operator, "multiply_point", counted_product)
    monkeypatch.setattr(newton, "residual_point", counted_residual)
    return counts


@pytest.mark.parametrize("f_coeffs, products", [
    ((0.0, 1.0, 0.0, -1.0), 2),
    ((0.0, 1.0, 0.0, -1.0, 0.0, -0.2), 4),
])
def test_newton_forms_the_powers_once_per_iterate(monkeypatch, f_coeffs, products):
    # v^2, ..., v^deg: deg - 1 products per iterate, which the residual and
    # the Jacobian share; mu = 0.1 mixes the parities of v
    counts = _count_products(monkeypatch)
    p = ModelParams(lam=150.0, sigma=6.0, mu=0.1, f_coeffs=f_coeffs)
    res = newton_solve(p, parse_seed("mode:1,0.5", 1, 48), SolveOptions(n=48))
    assert counts["residuals"] == res.iterations + 1 > 1
    assert counts["products"] == products * counts["residuals"]


def test_quintic_f_and_fprime_from_powers():
    # a quintic f converges, and f(v), f'(v) read off the powers of v agree
    # with the ball Horner evaluation: within its radius plus 2^-40 M, M =
    # sum_j |c_j| s^j, s >= sup |v|, which bounds every coefficient of
    # every term and the float sums' rounding with room to spare
    from okvalid.operator import point_powers, poly_eval_series, poly_point

    p = ModelParams(lam=150.0, sigma=6.0, mu=0.1, f_coeffs=(0.0, 1.0, 0.0, -1.0, 0.0, -0.2))
    res = newton_solve(p, parse_seed("mode:1,0.5", 1, 48), SolveOptions(n=48))
    assert res.residual_proj <= 1e-10 and sup_bound(res.solution).hi > 0.3
    powers = point_powers(p, res.solution.mid())
    assert [v.shape for v in powers] == [(48,), (95,), (142,), (189,), (236,)]
    v = res.solution.add_constant(p.mu)
    s = sup_bound(v).hi
    # Newton's f' has the coefficients fl(j c_j), the ball f' their exact Intervals
    fp_point = [j * c for j, c in enumerate(p.f_coeffs)][1:]
    for coeffs, exact in ((p.f_coeffs, p.f_coeffs), (fp_point, p.fp_coeffs)):
        got, ball = poly_point(coeffs, powers), poly_eval_series(exact, v)
        assert got.shape == ball.extent
        m = sum(abs(c) * s**j for j, c in enumerate(coeffs))
        assert np.all(np.abs(got - ball.center) <= ball.rad + 2.0**-40 * m)


def test_newton_reads_the_memory_once_per_solve(monkeypatch):
    # the first residual's charge and every step's block charge are checked
    # against one reading of the available memory
    from okvalid import operator

    reads = []
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: reads.append(1) or 1e12)
    p = ModelParams(lam=150.0, sigma=6.0, mu=0.0)
    res = newton_solve(p, parse_seed("mode:1", 1, 32), SolveOptions(n=32))
    assert res.iterations > 1 and len(reads) == 1


def test_newton_builds_the_product_plans_once_per_index_set(monkeypatch):
    # on the canonical 2-d solve the index-only arrays of the float product
    # (pointconv's S_t / 2 matrices and last-axis gather tables) are built
    # once per distinct index set and looked up for every other product, as
    # is the float c grid per extent; all of them are read-only
    from okvalid import pointconv, series

    caches = (pointconv._axis_product, pointconv._last_axis_gathers, series.c_grid)
    for cache in caches:
        cache.cache_clear()
    counts = _count_products(monkeypatch)
    p = ModelParams(lam=75.0, sigma=6.0, mu=0.0)
    res = newton_solve(p, parse_seed("mode:1,1,0.5", 2, 28), SolveOptions(n=28, tol_residual=1e-9))
    assert res.iterations == 5 and counts["products"] == 2 * (res.iterations + 1)
    products, gathers, grids = (cache.cache_info() for cache in caches)
    # one lookup per product and earlier axis; no index set is built twice
    assert products.hits + products.misses == counts["products"] == gathers.hits + gathers.misses
    for info in (products, gathers, grids):
        assert info.misses == info.currsize < info.maxsize and info.hits > info.misses
    s = pointconv._axis_product((1, 3), (5, None), (9, 1))
    g = pointconv._last_axis_gathers(4, (5, None), (9, 1))
    assert s.shape == (10, 4) and [x.shape for x in g] == [(5, 4)] * 3
    for x in (s, *g, series.c_grid((3, 4))):
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 1


@pytest.mark.parametrize("which", ["lambda", "sigma", "mu"])
def test_walk_reads_the_last_solution_powers(monkeypatch, solved_2d, which):
    # on the canonical 2-d solution the walk's first solve converges at
    # iteration 0, and a lambda or sigma step leaves u + mu, so the next
    # solve's first iteration reads those powers: a lambda step runs 8
    # products, not 10.  After a mu step the last solution's powers are at
    # another mu, and they are formed again.  Either way each solve gives
    # newton_solve's bits from the same guess
    p, start = solved_2d
    opts = SolveOptions(n=28, tol_residual=1e-9)
    counts = _count_products(monkeypatch)
    walk = parameter_walk(p, start.solution, which, 0.5, 1, opts)
    products = counts["products"]
    assert [r.iterations for _, r in walk][0] == 0 and len(walk) == 2
    formed = sum(2 * (r.iterations + 1) for _, r in walk)
    assert products == formed - 2 * (which != "mu")
    if which == "lambda":
        assert products == 8 and walk[1][1].iterations == 3
    for (q, res), guess in zip(walk, (start, walk[0][1])):
        alone = newton_solve(q, guess.solution, opts)
        assert alone.solution.mid().tobytes() == res.solution.mid().tobytes()
        assert (alone.residual_proj, alone.residual_full, alone.iterations) == (
            res.residual_proj, res.residual_full, res.iterations)


def test_newton_reads_a_start_only_at_its_mu_and_f(monkeypatch, solved_2d):
    # a start from a solve at another f has the guess's bits but not its
    # powers: they are formed again, and the solve gives newton_solve's bits
    from okvalid import newton

    p, start = solved_2d
    opts = SolveOptions(n=28, tol_residual=1e-9)
    _, last = newton._newton(p, start.solution, opts)
    counts = _count_products(monkeypatch)
    for q, read in ((p, True), (replace(p, f_coeffs=(0.0, 1.0, 0.0, -1.01)), False)):
        counts["products"] = 0
        res, _ = newton._newton(q, start.solution, opts, last)
        assert counts["products"] == 2 * (res.iterations + 1) - 2 * read
        alone = newton_solve(q, start.solution, opts)
        assert alone.solution.mid().tobytes() == res.solution.mid().tobytes()
        assert (alone.residual_proj, alone.residual_full) == (res.residual_proj, res.residual_full)


def test_walk_builds_each_block_plan_once(solved_2d):
    # the canonical 2-d walk steps on the all-odd class alone: its weights
    # and its Galerkin sums plan are built once for all the walk's steps and
    # every later walk, and each class's cells once; all are read-only
    from okvalid import operator
    from okvalid.operator import ParityBlock

    caches = (operator._point_plan, ParityBlock.cells)
    for cache in caches:
        cache.cache_clear()
    p, start = solved_2d
    opts = SolveOptions(n=28, tol_residual=1e-9)
    for _ in range(2):
        walk = parameter_walk(p, start.solution, "lambda", 0.5, 1, opts)
        assert walk[1][1].iterations == 3
    plans, cells = (cache.cache_info() for cache in caches)
    assert (plans.misses, plans.hits) == (1, 5)
    assert cells.misses == 4 and cells.hits == 4 * 6 - 4
    (block,) = [b for b in operator.parity_blocks((True, True), 28) if b.parity == (1, 1)]
    plan, k2, cf = operator._point_plan(block)
    for x in (k2, cf, block.cells(), plan.half, *plan.tables[0]):
        with pytest.raises(ValueError, match="read-only"):
            x[(0,) * x.ndim] = 1
