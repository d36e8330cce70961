import math

import numpy as np
import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from okvalid import inverse, operator
from okvalid.intervals import BallMatrix
from okvalid.newton import SolveOptions, newton_solve, parse_seed
from okvalid.operator import ModelParams, fprime_series, linearization_coefficient
from okvalid.series import CosineSeries, k2_grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_random_series(rng, extent, zero_mean=True, scale=1.0, decay=2.0):
    a = scale * rng.standard_normal(extent)
    a = a / (1.0 + k2_grid(extent)) ** (decay / 2.0)
    if zero_mean:
        a[(0,) * len(extent)] = 0.0
    return CosineSeries.from_point(a, zero_mean=zero_mean)


def lin_of(p, u):
    """The linearization of the operator at u: q = lam f'(u + mu) and its bounds."""
    return linearization_coefficient(p, fprime_series(p, u))


def galerkin_blocks(p, q, n):
    """Every (ParityBlock, BallMatrix) pair of the Galerkin matrix of q on
    the modes 0 < |k|_inf < n, one class after another, as the K_N stage
    assembles them when it skips no class: each block is assembled only
    when the previous one has been taken."""
    raw = (*inverse._raw_mid_rad(q)[:2], q.axes)
    for block in operator.parity_blocks(operator.split_axes(q), n):
        yield block, inverse._galerkin_block(p, block, raw)


def galerkin_full(p, q, n, blocks=None) -> BallMatrix:
    """The full Galerkin ball matrix on the modes 0 < |k|_inf < n in
    lexicographic order (balls.truncation_modes), scattered from
    galerkin_blocks, or from blocks, a list taken from it; every entry off
    the blocks is a point zero.  Row i is cell i + 1 of the n^d grid."""
    m = n**q.dim - 1
    mid, rad = np.zeros((m, m)), np.zeros((m, m))
    for block, ball in galerkin_blocks(p, q, n) if blocks is None else blocks:
        rows = block.cells() - 1
        idx = np.ix_(rows, rows)
        mid[idx], rad[idx] = ball.mid, ball.rad
    return BallMatrix(mid, rad)


def gauss_rule(n):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(n)
    return (t + 1.0) / 2.0, w / 2.0


def eval_series_naive(coeffs, x):
    """Independent pointwise evaluation: direct loop, reversed mode order."""
    extent = coeffs.shape
    total = 0.0
    for flat in reversed(range(coeffs.size)):
        idx = np.unravel_index(flat, extent)
        c = coeffs[idx]
        if c == 0.0:
            continue
        term = c
        for ki, xi in zip(idx, np.atleast_1d(x)):
            term *= (math.sqrt(2.0) if ki else 1.0) * math.cos(ki * math.pi * xi)
        total += term
    return total


@pytest.fixture(scope="session")
def solved_1d():
    """The nontrivial 1-d equilibrium at (lam, sigma, mu) = (150, 6, 0), seed mode:1."""
    p = ModelParams(lam=150.0, sigma=6.0, mu=0.0)
    result = newton_solve(p, parse_seed("mode:1", 1, 128), SolveOptions(n=128))
    return p, result


@pytest.fixture(scope="session")
def certificates_1d(solved_1d):
    from okvalid.cift import validate

    p, result = solved_1d
    return {
        which: validate(p, result.solution, which)
        for which in ("lambda", "sigma", "mu")
    }


@pytest.fixture(scope="session")
def solved_2d():
    """The canonical 2-d equilibrium at (lam, sigma, mu) = (75, 6, 0), N = 28."""
    p = ModelParams(lam=75.0, sigma=6.0, mu=0.0)
    result = newton_solve(
        p, parse_seed("mode:1,1,0.5", 2, 28), SolveOptions(n=28, tol_residual=1e-9)
    )
    return p, result


@pytest.fixture(scope="session")
def solved_3d():
    """The canonical 3-d equilibrium at (lam, sigma, mu) = (40, 3, 0), N = 12."""
    p = ModelParams(lam=40.0, sigma=3.0, mu=0.0)
    result = newton_solve(p, parse_seed("mode:1,1,1,0.5", 3, 12), SolveOptions(n=12))
    return p, result
