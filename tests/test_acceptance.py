"""Acceptance checklist: eleven numbered criteria, each enforced at its stated
tolerance and runtime budget, printing one PASS line per criterion.

Run with `pytest -v tests/test_acceptance.py` (each test is one criterion).
"""

import csv
import math
import time

import numpy as np
import pytest

import conftest
from balls import truncation_modes
from conftest import galerkin_blocks, galerkin_full, gauss_rule, lin_of, make_random_series
from okvalid.cift import validate, verify_certificate
from okvalid.cli import main
from okvalid.embeddings import recompute_cmbar
from okvalid.files import read_certificate, read_solution, write_certificate, write_solution
from okvalid.intervals import PI
from okvalid.inverse import inverse_bounds
from okvalid.newton import SolveOptions, newton_solve, parse_seed
from okvalid.operator import (
    ModelParams,
    apply_linearization,
)
from okvalid.series import (
    CosineSeries,
    evaluate_grid,
    laplacian,
    norm,
    sup_bound,
    tail,
)
from test_intervals import run_containment_fuzz

_CERTS = []  # valid certificates emitted by the end-to-end criteria

# Certificate ratchet: the canonical certificates may only get sharper than
# the values recorded when the ball product moved onto the matrix-product
# kernel of Newton's products, with an a-priori rounding bound (OpenBLAS, 2
# threads).  The relative slack absorbs the BLAS summation order, which
# varies with the thread count.
_RATCHET_SLACK = 1e-13
_RATCHET_1D = {"kn": 11.334125006543196, "k": 16.295336329790974, "rho": 6.574915259970989e-13}
_RATCHET_1D_DA = {"lambda": 6.057043247668445e-4, "sigma": 6.407175057628381e-5,
                  "mu": 1.5466674845381223e-6}
_RATCHET_2D = {"kn": 13.333457424543393, "k": 42.384089608758856, "rho": 4.1592232601219555e-9}
_RATCHET_2D_DA = 2.267926860193623e-5
_RATCHET_3D = {"kn": 7.268621795880997, "k": 24.128677421453272, "rho": 6.910683745185135e-7}
_RATCHET_3D_DA = 4.531949947344005e-4


def assert_not_looser(cert, upper: dict, delta_alpha: float):
    """kn, k and rho at most, and delta_alpha at least, the recorded values."""
    for name, ref in upper.items():
        assert getattr(cert, name) <= ref * (1 + _RATCHET_SLACK), (name, getattr(cert, name), ref)
    assert cert.delta_alpha >= delta_alpha * (1 - _RATCHET_SLACK), (cert.delta_alpha, delta_alpha)


def assert_sharp(p, u, cert):
    """K at least, and K_N within 1e-9 relative of, a rigorous lower bound
    on the norm of the inverse of the derivative at u from its worst
    Galerkin vector: x, the right singular vector of the smallest singular
    value of the leading scaled block's midpoint at M = 3N (2N in 3-d),
    goes in as v = x / kappa on that block's modes, in the orthonormal
    coefficients, and ||v||_{Hbar 2} / ||DF v||_{Hbar -2} is the bound."""
    q = lin_of(p, u).q
    m = (2 if u.dim == 3 else 3) * cert.n
    block, ball = next(galerkin_blocks(p, q, m))
    x = np.linalg.svd(ball.mid)[2][-1]
    coeffs = np.zeros((m,) * u.dim)
    coeffs.flat[block.cells()] = x / (math.pi**2 * block.weights()[0])
    v = CosineSeries.from_point(coeffs, zero_mean=True)
    k_lower = norm(v, "Hbar", 2).lo / norm(apply_linearization(p, q, v), "Hbar", -2).hi
    assert cert.k >= k_lower, (cert.k, k_lower)
    assert cert.kn - k_lower <= 1e-9 * cert.kn, (cert.kn, k_lower)


def _stamp(num, name, t0, budget):
    elapsed = time.perf_counter() - t0
    line = f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s, budget {budget}s)"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)  # replayed in the terminal summary
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_embedding_constants():
    t0 = time.perf_counter()
    table = {1: 0.149072, 2: 0.248740, 3: 0.411972}
    for dim, ref in table.items():
        enclosure = recompute_cmbar(dim, 1000)
        assert abs(enclosure.hi - ref) <= 1e-3, (dim, enclosure.hi, ref)
        assert enclosure.lo <= enclosure.hi
    _stamp(1, "embedding-constant reproduction", t0, 60)


def test_criterion_02_interval_containment():
    t0 = time.perf_counter()
    for op in ("add", "sub", "mul", "div"):
        assert run_containment_fuzz(op, 100_000, seed=20240817) == 0, op
    _stamp(2, "interval containment fuzz", t0, 10)


def test_criterion_03_spectral_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    extents = {1: (9,), 2: (5, 5), 3: (3, 3, 3)}
    for dim, extent in extents.items():
        for _ in range(1000):
            u = make_random_series(rng, extent, decay=float(rng.uniform(0.5, 2.5)))
            # Laplacian isometry
            lhs = norm(laplacian(u, 1), "Hbar", 0)
            rhs = norm(u, "Hbar", 2)
            assert max(lhs.lo, rhs.lo) <= min(lhs.hi, rhs.hi)
            # Parseval
            l2sq = norm(u, "L2").square()
            exact = float(np.sum(u.mid() ** 2))
            slack = 1e-12 * (1.0 + exact)
            assert l2sq.lo - slack <= exact <= l2sq.hi + slack
            # norm scale bound
            ell = int(rng.integers(-2, 3))
            m = int(rng.integers(ell, 3))
            assert norm(u, "Hbar", ell).lo <= (norm(u, "Hbar", m) * PI ** (-(m - ell))).hi
            # projection tail bound
            n_cut = int(rng.choice([2, 4, 8]))
            t_norm = norm(tail(u, n_cut), "Hbar", ell)
            bound = norm(u, "Hbar", m) * (PI * n_cut) ** (-(m - ell))
            assert t_norm.lo <= bound.hi
    _stamp(3, "spectral identity suite", t0, 30)


def test_criterion_04_galerkin_quadrature_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    # d = 1, N = 8, 2000-point Gauss rule
    p = ModelParams(lam=2.0, sigma=1.5, mu=0.1)
    u = make_random_series(rng, (6,), scale=0.4)
    n = 8
    g = galerkin_full(p, lin_of(p, u).q, n)
    x, w = gauss_rule(2000)
    uvals = evaluate_grid(u, [x])
    qvals = p.lam * (1.0 - 3.0 * (uvals + p.mu) ** 2)
    phi = np.array([(math.sqrt(2.0)) * np.cos(k * math.pi * x) for k in range(1, n)])
    inner = phi @ np.diag(w * qvals) @ phi.T
    ks = math.pi**2 * np.arange(1, n, dtype=float) ** 2
    oracle = -np.diag(1.0 + p.lam * p.sigma / ks**2) + inner / ks[None, :]
    assert np.all(np.abs(oracle - g.mid) <= g.rad + 1e-9)

    # d = 2, N = 4, tensor Gauss rule
    p2 = ModelParams(lam=5.0, sigma=2.0, mu=0.05)
    u2 = make_random_series(rng, (3, 3), scale=0.4)
    n2 = 4
    g2 = galerkin_full(p2, lin_of(p2, u2).q, n2)
    x2, w2 = gauss_rule(160)
    u2vals = evaluate_grid(u2, [x2, x2])
    q2 = p2.lam * (1.0 - 3.0 * (u2vals + p2.mu) ** 2)
    weights = np.outer(w2, w2) * q2
    modes = truncation_modes(2, n2)
    cos_rows = np.cos(np.outer(np.arange(n2), math.pi * x2))
    phis = []
    for k in modes:
        ck = math.sqrt(2.0) ** int(np.count_nonzero(k))
        phis.append(ck * np.outer(cos_rows[k[0]], cos_rows[k[1]]))
    phis = np.array(phis)
    inner2 = np.einsum("kij,lij->kl", phis, phis * weights[None, :, :])
    ks2 = math.pi**2 * np.sum(modes.astype(float) ** 2, axis=1)
    oracle2 = -np.diag(1.0 + p2.lam * p2.sigma / ks2**2) + inner2 / ks2[None, :]
    assert np.all(np.abs(oracle2 - g2.mid) <= g2.rad + 1e-9)
    _stamp(4, "Galerkin oracle equivalence", t0, 60)


def test_criterion_05_diagonal_analytic_case():
    t0 = time.perf_counter()
    u = CosineSeries.zeros((2,))
    for lam, sig in ((10.0, 1.0), (150.0, 6.0)):
        p = ModelParams(lam=lam, sigma=sig, mu=0.0)
        for n in (32, 128):
            kn = inverse_bounds(p, lin_of(p, u), [n])[0].kn
            ks = math.pi**2 * np.arange(1, n, dtype=float) ** 2
            oracle = 1.0 / np.min(np.abs(-(1.0 + lam * sig / ks**2) + lam / ks))
            assert oracle * 0.99 <= kn <= oracle * 1.01, (lam, sig, n)
    _stamp(5, "diagonal analytic inverse bound", t0, 10)


@pytest.fixture(scope="module")
def pipeline_1d():
    """Fresh end-to-end run: seed mode:1 at (150, 6, 0), then all three params."""
    p = ModelParams(lam=150.0, sigma=6.0, mu=0.0)
    res = newton_solve(p, parse_seed("mode:1", 1, 128), SolveOptions(n=128))
    certs = {w: validate(p, res.solution, w) for w in ("lambda", "sigma", "mu")}
    return p, res, certs


def test_criterion_06_inverse_bound_necessary_condition(pipeline_1d):
    t0 = time.perf_counter()
    p, res, certs = pipeline_1d
    cert = certs["lambda"]
    assert cert.valid
    k_bound = cert.k
    q = lin_of(p, res.solution).q
    rng = np.random.default_rng(31)
    for _ in range(500):
        extent = int(rng.choice([8, 24, 64, 160]))
        v = make_random_series(rng, (extent,), decay=float(rng.uniform(0.5, 2.0)))
        lv = apply_linearization(p, q, v)
        lhs = norm(v, "Hbar", 2).lo
        rhs = k_bound * norm(lv, "Hbar", -2).hi
        assert lhs <= rhs
    assert_sharp(p, res.solution, cert)
    _stamp(6, "inverse-bound necessary condition", t0, 30)


def test_criterion_07_end_to_end_1d(pipeline_1d, tmp_path):
    t0 = time.perf_counter()
    p = ModelParams(lam=150.0, sigma=6.0, mu=0.0)
    res = newton_solve(p, parse_seed("mode:1", 1, 128), SolveOptions(n=128))
    assert sup_bound(res.solution).hi > 0.3  # nontrivial branch
    certs = {w: validate(p, res.solution, w) for w in ("lambda", "sigma", "mu")}
    for which, cert in certs.items():
        assert cert.valid, (which, cert.stage, cert.reason)
        assert cert.n <= 160
        assert cert.tau < 1.0
        assert 1.0 <= cert.k <= 60.0
        assert cert.delta_alpha > 0.0 and cert.delta_x > 0.0
        assert_not_looser(cert, _RATCHET_1D, _RATCHET_1D_DA[which])
    da = {w: certs[w].delta_alpha for w in certs}
    dx = {w: certs[w].delta_x for w in certs}
    # qualitative ordering: mu is worst by an order of magnitude or more
    assert da["mu"] <= 0.1 * da["sigma"]
    assert da["sigma"] < da["lambda"]
    assert max(dx.values()) <= 10.0 * min(dx.values())
    sol_path = tmp_path / "sol1d.json"
    write_solution(sol_path, p, res.solution, res.residual_full)
    for which, cert in certs.items():
        path = tmp_path / f"c1d_{which}.cert.json"
        write_certificate(path, cert, None)
        _CERTS.append((str(path), cert))
    _stamp(7, "end-to-end 1-d validation", t0, 300)


def test_criterion_08_end_to_end_2d(tmp_path):
    t0 = time.perf_counter()
    p = ModelParams(lam=75.0, sigma=6.0, mu=0.0)
    res = newton_solve(p, parse_seed("mode:1,1,0.5", 2, 28), SolveOptions(n=28, tol_residual=1e-9))
    assert sup_bound(res.solution).hi > 0.1  # nontrivial pattern
    cert = validate(p, res.solution, "lambda", n=28)
    assert cert.valid, (cert.stage, cert.reason)
    assert cert.tau < 1.0
    # K recorded for this case in bench/data/reference.json
    assert abs(cert.k - 42.38408991878724) <= 1e-4
    assert_not_looser(cert, _RATCHET_2D, _RATCHET_2D_DA)
    assert_sharp(p, res.solution, cert)
    ok, failures = verify_certificate(cert)
    assert ok, failures
    path = tmp_path / "c2d.cert.json"
    write_certificate(path, cert, None)
    assert main(["check", "--cert", str(path)]) == 0
    _CERTS.append((str(path), cert))
    _stamp(8, "end-to-end 2-d validation", t0, 1800)


def test_criterion_09_sweep_shape(tmp_path):
    t0 = time.perf_counter()
    sol = tmp_path / "sweep_sol.json"
    assert main([
        "solve", "--dim", "1", "--N", "64", "--lambda", "50", "--sigma", "2",
        "--seed", "mode:1,0.6", "--out", str(sol),
    ]) == 0
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--in", str(sol), "--param", "lambda",
        "--Nlist", "24,32,48,64,96,128,256", "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(out.open()))
    ks = [(int(r["N"]), float(r["K"])) for r in rows if r["status"] == "ok"]
    assert len(ks) >= 4
    for (_, k1), (_, k2) in zip(ks, ks[1:]):
        assert k2 <= 1.05 * k1  # non-increasing within 5% noise
    kmap = dict(ks)
    assert 128 in kmap and 256 in kmap
    assert abs(kmap[128] - kmap[256]) / kmap[128] < 0.02  # plateau on last doubling
    _stamp(9, "sweep tradeoff shape", t0, 600)


def test_criterion_10_certificate_replay(tmp_path):
    t0 = time.perf_counter()
    # every valid certificate emitted above, plus fresh small ones
    p = ModelParams(lam=5.0, sigma=1.0, mu=0.0)
    extra = validate(p, CosineSeries.zeros((2,)), "lambda")
    assert extra.valid
    path = tmp_path / "trivial.cert.json"
    write_certificate(path, extra, None)
    _CERTS.append((str(path), extra))
    assert len(_CERTS) >= 4
    for path, cert in _CERTS:
        assert cert.valid
        ok, failures = verify_certificate(cert)
        assert ok, (path, failures)
        assert main(["check", "--cert", path]) == 0, path
    _stamp(10, "certificate re-verification", t0, 120)


def test_criterion_11_end_to_end_3d(tmp_path):
    t0 = time.perf_counter()
    sol = tmp_path / "sol3d.json"
    path = tmp_path / "c3d.cert.json"
    assert main([
        "solve", "--dim", "3", "--N", "12", "--lambda", "40", "--sigma", "3",
        "--seed", "mode:1,1,1,0.5", "--out", str(sol),
    ]) == 0
    assert main([
        "validate", "--in", str(sol), "--param", "lambda", "--N", "12", "--out", str(path),
    ]) == 0
    assert main(["check", "--cert", str(path), "--solution", str(sol)]) == 0
    cert = read_certificate(path)[0]
    assert cert.valid and cert.n == 12 and cert.tau < 1.0
    p, u = read_solution(sol)[:2]
    assert sup_bound(u).hi > 0.1  # nontrivial pattern
    # K_N of the full 1727-mode matrix, before it was certified per block
    assert cert.kn <= 7.268621809915413
    assert_not_looser(cert, _RATCHET_3D, _RATCHET_3D_DA)
    assert_sharp(p, u, cert)
    _stamp(11, "end-to-end 3-d validation", t0, 120)
