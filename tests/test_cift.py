import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okvalid import cift
from okvalid.cift import (
    Certificate,
    RadiiResult,
    derivative_budget,
    feasible_dx_range,
    radii_preconditions,
    radius_requirement,
    solution_bounds,
    solve_radii,
    validate,
    verify_certificate,
)
from okvalid.intervals import Interval
from okvalid.operator import CertificationError, ModelParams
from okvalid.series import CosineSeries


# ---------------------------------------------------------------------------
# solve_radii
# ---------------------------------------------------------------------------

def test_radii_hand_solution():
    r = solve_radii(k=1.0, rho=0.0, l1=1.0, l2=0.0, l3=0.0, l4=0.0,
                    ell_x=1.0, ell_alpha=1.0)
    assert r.delta_alpha == 1.0  # capped by ell_alpha
    assert r.delta_x == 0.0  # accuracy radius collapses when rho = 0
    assert r.delta_x_sup == pytest.approx(0.5, rel=1e-12)  # uniqueness reach
    assert not r.point_only and r.infeasible_witness is None


def test_radii_precondition_residual():
    with pytest.raises(CertificationError):
        solve_radii(k=1.0, rho=0.3, l1=1.0, l2=0.0, l3=0.0, l4=0.0,
                    ell_x=10.0, ell_alpha=1.0)


def test_radii_precondition_box():
    with pytest.raises(CertificationError):
        solve_radii(k=1.0, rho=0.6, l1=0.01, l2=0.0, l3=0.0, l4=0.0,
                    ell_x=1.0, ell_alpha=1.0)


def test_radii_preconditions_shared_by_solver_and_checker():
    both = ["4 K^2 rho l1 >= 1: residual too large", "2 K rho >= ell_x: box too small"]
    assert radii_preconditions(k=1.0, rho=0.6, l1=1.0, ell_x=1.0) == both
    assert radii_preconditions(k=1.0, rho=0.01, l1=1.0, ell_x=1.0) == []
    with pytest.raises(CertificationError, match="residual too large"):
        solve_radii(k=1.0, rho=0.6, l1=1.0, l2=0.0, l3=0.0, l4=0.0,
                    ell_x=1.0, ell_alpha=1.0)
    cert = validate(ModelParams(lam=5.0, sigma=1.0), CosineSeries.zeros((2,)), "lambda")
    rho = 2.0 * max(1.0 / (4.0 * cert.k**2 * cert.l1), cert.ell_x / (2.0 * cert.k))
    ok, failures = verify_certificate(dataclasses.replace(cert, rho=rho))
    assert not ok and all(f in failures for f in both)


def test_radii_closed_form_crossing():
    # g = 0.04 + 2 da, budget = 4(dx + da) <= 1  =>  da* = 0.07, dx* = 0.18
    r = solve_radii(k=2.0, rho=0.01, l1=1.0, l2=1.0, l3=0.5, l4=0.0,
                    ell_x=10.0, ell_alpha=10.0)
    assert r.delta_alpha == pytest.approx(0.07, rel=1e-9)
    assert r.delta_x == pytest.approx(0.18, rel=1e-9)
    assert r.infeasible_witness is not None
    assert r.infeasible_witness <= r.delta_alpha * (1 + 1e-6)


def test_radii_maximality_witness():
    r = solve_radii(k=2.0, rho=0.01, l1=1.0, l2=1.0, l3=0.5, l4=0.1,
                    ell_x=10.0, ell_alpha=10.0)
    # plugging the radii back in satisfies both inequalities
    from okvalid.cift import derivative_budget, radius_requirement

    assert radius_requirement(2.0, 0.01, 0.5, 0.1, r.delta_alpha).hi <= r.delta_x
    assert derivative_budget(2.0, 1.0, 1.0, r.delta_alpha, r.delta_x).hi <= 1.0
    # and the witness is infeasible
    dx_w = radius_requirement(2.0, 0.01, 0.5, 0.1, r.infeasible_witness).hi
    assert (dx_w > 10.0) or derivative_budget(2.0, 1.0, 1.0, r.infeasible_witness, dx_w).hi > 1.0


def test_radii_point_only():
    r = solve_radii(k=1.0, rho=0.0, l1=1.0, l2=1e30, l3=0.0, l4=0.0,
                    ell_x=1.0, ell_alpha=1.0)
    assert r.delta_alpha == 0.0 and r.point_only


def reference_solve_radii(k, rho, l1, l2, l3, l4, ell_x, ell_alpha):
    """The plain bisection: every trial point decided by interval evaluation."""
    two_k = Interval(2.0) * Interval(k)
    if (Interval(4.0) * Interval(k).square() * Interval(rho) * Interval(l1)).hi >= 1.0:
        raise CertificationError("solve_radii", "4 K^2 rho l1 >= 1: residual too large")
    if (two_k * Interval(rho)).hi >= ell_x:
        raise CertificationError("solve_radii", "2 K rho >= ell_x: box too small")

    def feasible(da):
        dx = radius_requirement(k, rho, l3, l4, da).hi
        return dx <= ell_x and derivative_budget(k, l1, l2, da, dx).hi <= 1.0

    if not feasible(0.0):
        raise CertificationError("solve_radii", "radii infeasible even at da = 0")
    lo, hi = 0.0, ell_alpha
    witness = None
    if not feasible(hi):
        for _ in range(50):
            mid_pt = 0.5 * (lo + hi)
            if feasible(mid_pt):
                lo = mid_pt
            else:
                hi = mid_pt
        witness = hi
        da = lo
    else:
        da = hi
    dx = radius_requirement(k, rho, l3, l4, da).hi
    if l1 > 0.0:
        budget = (Interval(1.0) - two_k * Interval(l2) * Interval(da)) / (two_k * Interval(l1))
        dx_sup = min(ell_x, max(dx, budget.lo))
    else:
        dx_sup = ell_x
    return RadiiResult(da, dx, dx_sup, witness, da == 0.0)


def _outcome(solver, *args):
    """The solver's result with every float as its hex string, or its error."""
    try:
        r = solver(*args)
    except CertificationError as exc:
        return "raised", str(exc)
    return tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r)
    )


def _assert_matches_reference(*args):
    got = _outcome(solve_radii, *args)
    assert got == _outcome(reference_solve_radii, *args)
    return got


def _assert_inside_box(got, ell_x, ell_alpha):
    # validate relies on the conclusion lying in the Lipschitz box
    da, dx = float.fromhex(got[0]), float.fromhex(got[1])
    assert 0.0 <= da <= ell_alpha and 0.0 <= dx <= ell_x


_decades = st.floats(min_value=-3.0, max_value=6.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(
    k=st.floats(min_value=1.0, max_value=100.0),
    share=st.floats(min_value=0.0, max_value=1.0),
    l1=_decades, l2=_decades, l3=_decades,
    l4=st.one_of(st.just(0.0), _decades),
    ell_x=st.floats(min_value=-6.0, max_value=1.0).map(lambda e: 10.0 ** e),
    ell_alpha=st.floats(min_value=-6.0, max_value=1.0).map(lambda e: 10.0 ** e),
)
def test_radii_match_plain_bisection(k, share, l1, l2, l3, l4, ell_x, ell_alpha):
    # rho a share of the largest residual the preconditions admit
    rho = share * min(1.0 / (4.0 * k * k * l1), ell_x / (2.0 * k))
    got = _assert_matches_reference(k, rho, l1, l2, l3, l4, ell_x, ell_alpha)
    if got[0] != "raised":
        _assert_inside_box(got, ell_x, ell_alpha)


@pytest.mark.parametrize("args", [
    (2.0, 0.01, 0.0, 1.0, 0.5, 0.1, 10.0, 10.0),  # l1 = 0
    (3.0, 1e-3, 2.0, 1e30, 0.5, 0.1, 1.0, 1.0),  # huge l2
    (3.0, 1e-3, 2.0, 1e300, 1e5, 1e10, 1.0, 1.0),  # huge l2, overflowing estimate
    (2.0, 0.01, 1.0, 1.0, 0.5, 0.1, 10.0, 1e-3),  # feasible at ell_alpha
    (7.0, 1e-4, 3.0, 1e-2, 0.25, 0.0, 0.1, 5.0),  # l4 = 0
    (7.0, 1e-4, 3.0, 1e-2, 0.25, 40.0, 0.1, 5.0),  # l4 > 0
    (2.0, 0.01, 1.0, 1.0, 0.5, 0.0, 10.0, 10.0),  # crossing at da = 0.07
])
def test_radii_edge_cases_match_plain_bisection(args):
    got = _assert_matches_reference(*args)
    assert got[0] != "raised"
    _assert_inside_box(got, ell_x=args[6], ell_alpha=args[7])


def test_radii_infeasible_at_zero_raises_like_plain_bisection():
    # 4 K^2 rho l1 just below 1, with the budget's own rounding above it
    args = (2.209278197011611, 0.006033263235844804, 8.489593995678604,
            1.0, 1.0, 0.0, 10.0, 1.0)
    got = _assert_matches_reference(*args)
    assert got == ("raised", "radii infeasible even at da = 0")


@pytest.mark.parametrize("scale", [0.5, 1.0 + 1e-6, 2.0])
def test_radii_wrong_root_falls_back(monkeypatch, scale):
    args = (2.0, 0.01, 1.0, 1.0, 0.5, 0.1, 10.0, 10.0)
    estimate = cift._root_estimate
    monkeypatch.setattr(
        cift, "_root_estimate", lambda *a: scale * estimate(*a)
    )
    calls = []
    bisect = cift._bisect
    monkeypatch.setattr(
        cift, "_bisect", lambda f, hi, root: calls.append(root) or bisect(f, hi, root)
    )
    _assert_matches_reference(*args)
    assert len(calls) == 2 and np.isnan(calls[1])  # the plain bisection reran


def test_radii_without_finite_estimate_evaluate_every_point(monkeypatch):
    # 2 K overflows when squared, so the estimate is nan
    args = (1e200, 0.0, 1e-199, 1e-195, 1e-190, 0.0, 1.0, 1.0)
    assert math.isnan(cift._root_estimate(*args[:7]))
    assert _assert_matches_reference(*args)[3] is not None  # bisected
    counts = _radii_evaluations(monkeypatch, lambda: cift.solve_radii(*args))
    assert counts == [2 + cift.BISECTION_STEPS + 2]


def _radii_evaluations(monkeypatch, run):
    """Interval evaluations of each solve_radii call that run() makes."""
    counts = []
    requirement, solve = cift.radius_requirement, cift.solve_radii

    def counted_requirement(*args):
        counts[-1] += 1
        return requirement(*args)

    def counted_solve(*args, **kwargs):
        counts.append(0)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cift, "radius_requirement", counted_requirement)
    monkeypatch.setattr(cift, "solve_radii", counted_solve)
    run()
    return counts


def test_radii_evaluations_on_canonical_certificates(monkeypatch, solved_1d, solved_2d):
    p1, r1 = solved_1d
    p2, r2 = solved_2d

    def run():
        for which in ("lambda", "sigma", "mu"):
            assert validate(p1, r1.solution, which).valid
        assert validate(p2, r2.solution, "lambda", n=28).valid

    counts = _radii_evaluations(monkeypatch, run)
    assert counts and max(counts) <= 16, counts  # the plain bisection made 53


def test_feasible_dx_range():
    rng_pair = feasible_dx_range(1.0, 0.0, 1.0, 0.0, 0.0, 0.0, ell_x=1.0, da=0.0)
    assert rng_pair is not None
    lo, hi = rng_pair
    assert lo == 0.0 and hi == pytest.approx(0.5, rel=1e-12)
    assert feasible_dx_range(1.0, 0.4, 1.0, 0.0, 0.0, 0.0, ell_x=1.0, da=0.0) is None


# ---------------------------------------------------------------------------
# validate on the trivial state
# ---------------------------------------------------------------------------

def test_validate_trivial_state_small_lambda():
    p = ModelParams(lam=5.0, sigma=1.0, mu=0.0)
    u = CosineSeries.zeros((2,))
    cert = validate(p, u, "lambda")
    assert cert.valid and cert.stage == "complete"
    assert cert.rho == 0.0
    assert cert.delta_alpha > 0.0
    ok, failures = verify_certificate(cert)
    assert ok, failures


def test_validate_rejects_nonzero_mean():
    p = ModelParams(lam=5.0)
    u = CosineSeries.from_point(np.array([0.1, 0.2]))
    cert = validate(p, u, "lambda")
    assert not cert.valid and cert.stage == "input"


def test_validate_unknown_param():
    p = ModelParams(lam=5.0)
    with pytest.raises(ValueError):
        validate(p, CosineSeries.zeros((2,)), "nu")


def test_validate_pinned_box():
    p = ModelParams(lam=5.0, sigma=1.0, mu=0.0)
    u = CosineSeries.zeros((2,))
    cert = validate(p, u, "sigma", du=0.25, dp=0.125)
    assert cert.valid
    assert cert.ell_x == 0.25 and cert.ell_alpha == 0.125
    assert cert.delta_x <= 0.25 and cert.delta_alpha <= 0.125


@pytest.mark.parametrize("which", ["lambda", "sigma", "mu"])
def test_validate_given_solution_bounds_matches_built(solved_1d, which):
    p, result = solved_1d
    u = result.solution
    given = validate(p, u, which, n=64, bounds=solution_bounds(p, u))
    built = validate(p, u, which, n=64)
    assert given.valid
    for f in dataclasses.fields(Certificate):
        if f.name != "provenance":
            assert getattr(given, f.name) == getattr(built, f.name), f.name


@pytest.mark.parametrize("n", [64, None])
def test_validate_builds_solution_stage_once(solved_1d, monkeypatch, n):
    # rho, f'(u + mu) and q are built once, not per truncation or round
    from okvalid import operator

    calls = {}

    def counting(name, fn):
        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return counted

    for name in ("residual_norm", "fprime_series", "linearization_coefficient"):
        wrapped = counting(name, getattr(operator, name))
        for module in (cift, operator):
            monkeypatch.setattr(module, name, wrapped)
    p, result = solved_1d
    cert = validate(p, result.solution, "lambda", n=n)
    assert cert.valid and cert.rounds >= 2
    assert calls == {"residual_norm": 1, "fprime_series": 1, "linearization_coefficient": 1}


@pytest.mark.parametrize("stage", ["solve_radii", "self_check"])
def test_failed_certificate_carries_the_stage_records(solved_1d, monkeypatch, stage):
    p, result = solved_1d
    good = validate(p, result.solution, "lambda", n=64)
    if stage == "self_check":
        monkeypatch.setattr(cift, "verify_certificate", lambda cert: (False, ["replay"]))
        bad = validate(p, result.solution, "lambda", n=64)
    else:
        bad = validate(p, result.solution, "lambda", n=64, du=1e-30)
    assert not bad.valid and bad.stage == stage
    for name in ("rho", "q_sup", "q_h2", "kn", "tau", "k", "n"):
        assert getattr(bad, name) == getattr(good, name), name


def test_validate_small_truncation_fails_cleanly(solved_1d):
    p, result = solved_1d
    cert = validate(p, result.solution, "lambda", n=8)
    assert not cert.valid
    assert cert.stage == "inverse_bound"
    assert "increase the truncation" in cert.reason


def test_verify_rejects_tampering():
    p = ModelParams(lam=5.0, sigma=1.0, mu=0.0)
    cert = validate(p, CosineSeries.zeros((2,)), "lambda")
    assert verify_certificate(cert)[0]
    tampered = dataclasses.replace(cert, delta_alpha=cert.delta_alpha * 1.1)
    ok, failures = verify_certificate(tampered)
    assert not ok and failures


def test_verify_rejects_invalid_or_incomplete():
    p = ModelParams(lam=5.0)
    bad = Certificate(params=p, which="lambda", valid=False, stage="residual")
    assert not verify_certificate(bad)[0]
    sparse = Certificate(params=p, which="lambda", valid=True, stage="complete")
    ok, failures = verify_certificate(sparse)
    assert not ok and "missing fields" in failures[0]


def test_validate_nontrivial_certificates(certificates_1d):
    for which, cert in certificates_1d.items():
        assert cert.valid, (which, cert.stage, cert.reason)
        assert verify_certificate(cert)[0]
        assert cert.tau < 1.0
        assert cert.delta_alpha > 0.0 and cert.delta_x > 0.0
        assert cert.delta_x <= cert.ell_x and cert.delta_alpha <= cert.ell_alpha
