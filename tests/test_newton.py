import math

import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        SolveOptions(n=8, damping=0.0)


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
    from okvalid import newton, operator

    p = ModelParams(lam=150.0, sigma=6.0, mu=0.0)
    n = 32
    need = 8.0 * newton.NEWTON_WORK_ARRAYS * (n - 1) ** 2
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: need - 1)
    with pytest.raises(NewtonError, match="for the Newton Jacobian"):
        newton_solve(p, parse_seed("mode:1", 1, n), SolveOptions(n=n))
    with pytest.raises(NewtonError, match="for the Newton Jacobian"):
        parameter_walk(p, parse_seed("mode:1", 1, n), "lambda", 1.0, 2, SolveOptions(n=n))
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: need)
    assert newton_solve(p, parse_seed("mode:1", 1, n), SolveOptions(n=n)).iterations > 0


def test_newton_memory_peak_within_live_arrays():
    # the traced peak of two Newton steps on the canonical 2-d case stays
    # inside the budget that the memory check charges
    import tracemalloc

    from okvalid.newton import NEWTON_WORK_ARRAYS

    p = ModelParams(lam=75.0, sigma=6.0, mu=0.0)
    n = 28
    tracemalloc.start()
    try:
        with pytest.raises(NewtonError):
            newton_solve(p, parse_seed("mode:1,1,0.5", 2, n), SolveOptions(n=n, max_iter=2, tol_residual=1e-300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.0 * NEWTON_WORK_ARRAYS * (n * n - 1) ** 2
