import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okvalid import cift, inverse, operator
from okvalid.cift import (
    Certificate,
    RadiiInequalities,
    RadiiResult,
    feasible_dx_range,
    radii_preconditions,
    solution_bounds,
    solve_radii,
    validate,
    validations,
    verify_certificate,
)
from okvalid.intervals import KRYLOV_STEPS, Interval
from okvalid.lipschitz import ContinuationChoice, lipschitz_bounds
from okvalid.newton import SolveOptions, newton_solve, parse_seed
from okvalid.operator import PARAMETERS, CertificationError, ModelParams
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
    ineq = RadiiInequalities.of(2.0, 0.01, 1.0, 1.0, 0.5, 0.1)
    assert ineq.requirement(r.delta_alpha).hi <= r.delta_x
    assert ineq.budget(r.delta_alpha, r.delta_x).hi <= 1.0
    # and the witness is infeasible
    dx_w = ineq.requirement(r.infeasible_witness).hi
    assert (dx_w > 10.0) or ineq.budget(r.infeasible_witness, dx_w).hi > 1.0


def test_radii_point_only():
    r = solve_radii(k=1.0, rho=0.0, l1=1.0, l2=1e30, l3=0.0, l4=0.0,
                    ell_x=1.0, ell_alpha=1.0)
    assert r.delta_alpha == 0.0 and r.point_only


def reference_solve_radii(k, rho, l1, l2, l3, l4, ell_x, ell_alpha):
    """The plain bisection: every trial point decided by interval evaluation,
    each product of the inequalities formed afresh."""
    two_k = Interval(2.0) * Interval(k)
    if (Interval(4.0) * Interval(k).square() * Interval(rho) * Interval(l1)).hi >= 1.0:
        raise CertificationError("solve_radii", "4 K^2 rho l1 >= 1: residual too large")
    if (two_k * Interval(rho)).hi >= ell_x:
        raise CertificationError("solve_radii", "2 K rho >= ell_x: box too small")

    def requirement(da):
        d = Interval(da)
        return two_k * Interval(rho) + two_k * Interval(l3) * d + two_k * Interval(l4) * d.square()

    def feasible(da):
        dx = requirement(da).hi
        budget = two_k * Interval(l1) * Interval(dx) + two_k * Interval(l2) * Interval(da)
        return dx <= ell_x and budget.hi <= 1.0

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
    dx = requirement(da).hi
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
    root = RadiiInequalities.root
    monkeypatch.setattr(
        RadiiInequalities, "root", lambda self, ell_x: scale * root(self, ell_x)
    )
    calls = []
    bisect = cift._bisect
    monkeypatch.setattr(
        cift, "_bisect", lambda f, hi, root: calls.append(root) or bisect(f, hi, root)
    )
    _assert_matches_reference(*args)
    assert len(calls) == 2 and np.isnan(calls[1])  # the plain bisection reran


def test_radii_without_finite_estimate_evaluate_every_point(monkeypatch):
    # 2 K l4 overflows to inf, and its product with 2 K l1 = 0 is nan, so
    # the budget's root, and with it the estimate, is nan
    args = (1.0, 0.0, 0.0, 1.0, 1.0, 1e308, 1.0, 1.0)
    assert math.isnan(RadiiInequalities.of(*args[:6]).root(args[6]))
    assert _assert_matches_reference(*args)[3] is not None  # bisected
    counts = _radii_evaluations(monkeypatch, lambda: cift.solve_radii(*args))
    assert counts == [(2 + cift.BISECTION_STEPS + 2, 1)]


def _radii_evaluations(monkeypatch, run):
    """(interval evaluations, bisections) of each solve_radii call that
    run() makes: the radius requirements that it and the later replays
    evaluate, and its _bisect calls."""
    counts = []
    requirement, solve, bisect = RadiiInequalities.requirement, cift.solve_radii, cift._bisect

    def counted_requirement(self, da):
        counts[-1][0] += 1
        return requirement(self, da)

    def counted_solve(*args, **kwargs):
        counts.append([0, 0])
        return solve(*args, **kwargs)

    def counted_bisect(*args):
        counts[-1][1] += 1
        return bisect(*args)

    monkeypatch.setattr(RadiiInequalities, "requirement", counted_requirement)
    monkeypatch.setattr(cift, "solve_radii", counted_solve)
    monkeypatch.setattr(cift, "_bisect", counted_bisect)
    run()
    return [tuple(c) for c in counts]


def test_radii_evaluations_on_canonical_certificates(monkeypatch, solved_1d, solved_2d,
                                                     solved_3d):
    # the evaluations of each Lipschitz round's solve_radii (the final
    # point, its witness, the trial points near the root and the replay),
    # as recorded on criteria 07, 08 and 11 and the sweep of criterion 09:
    # each round bisects once, with no rerun; the plain bisection makes 53
    p1, r1 = solved_1d
    p2, r2 = solved_2d
    p3, r3 = solved_3d
    ps = ModelParams(lam=50.0, sigma=2.0, mu=0.0)
    rs = newton_solve(ps, parse_seed("mode:1,0.6", 1, 64), SolveOptions(n=64))
    runs = [(p1, r1, which, [None]) for which in ("lambda", "sigma", "mu")]
    runs += [(p2, r2, "lambda", [28]), (p3, r3, "lambda", [12])]
    runs += [(ps, rs, "lambda", [24, 32, 48, 64, 96, 128, 256])]
    want = [4, 14, 4, 13, 4, 13, 4, 13, 4, 12,
            7, 12, 8, 12, 9, 12, 8, 12, 9, 12, 8, 11, 8, 12]

    def run():
        for p, r, which, ns in runs:
            for cert in validations(p, r.solution, which, ns):
                assert cert.rounds == 2

    assert _radii_evaluations(monkeypatch, run) == [(count, 1) for count in want]


def test_canonical_2d_validate_certifies_one_block_in_full(monkeypatch, solved_2d):
    # of the four parity blocks at N=28 only the leading one forms an
    # approximate inverse and a Gram certificate; (0, 1) and (1, 1) each
    # take one Cholesky test, and (1, 0), the swap of (0, 1), is not
    # assembled; lambda_max of the Gram matrix is a Lanczos estimate, so
    # eigvalsh sees no matrix wider than the step cap
    p, result = solved_2d
    widths = {"inv": [], "eigvalsh": []}
    labels = []
    assemble = inverse._galerkin_block

    def recording(p, block, raw):
        labels.append(block.label)
        return assemble(p, block, raw)

    monkeypatch.setattr(inverse, "_galerkin_block", recording)
    for name in widths:
        fn = getattr(np.linalg, name)

        def counted(a, *args, _fn=fn, _name=name, **kwargs):
            widths[_name].append(a.shape[0])
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert validate(p, result.solution, "lambda", n=28).valid
    assert widths["inv"] == [195]
    assert widths["eigvalsh"] and max(widths["eigvalsh"]) <= KRYLOV_STEPS
    assert labels == ["(0, 0)", "(0, 1)", "(1, 1)"]


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


def _same_certificate(a, b) -> bool:
    return all(getattr(a, f.name) == getattr(b, f.name)
               for f in dataclasses.fields(Certificate) if f.name != "provenance")


def _record_lipschitz_boxes(monkeypatch) -> list:
    boxes = []
    lipschitz = cift.lipschitz_bounds

    def counted(p, choice, sups):
        boxes.append(choice)
        return lipschitz(p, choice, sups)

    monkeypatch.setattr(cift, "lipschitz_bounds", counted)
    return boxes


@pytest.mark.parametrize("which", ["lambda", "sigma", "mu"])
def test_validations_compute_the_first_lipschitz_round_once(solved_1d, monkeypatch, which):
    # the first round's box depends on neither N nor K: one call serves
    # every truncation of a run, whose certificates equal fresh validates
    p, result = solved_1d
    u = result.solution
    boxes = _record_lipschitz_boxes(monkeypatch)
    certs = list(validations(p, u, which, [64, 96, 128, 64]))
    assert [c.n for c in certs] == [64, 96, 128, 64]
    assert all(c.valid and c.rounds >= 2 for c in certs)
    assert len(boxes) == 1 + sum(c.rounds - 1 for c in certs)
    assert all(c.which == which for c in boxes)
    assert [(c.du, c.dp) for c in boxes].count((boxes[0].du, boxes[0].dp)) == 1
    for cert in certs:
        assert _same_certificate(cert, validate(p, u, which, cert.n)), cert.n


def test_validations_pinned_box_on_every_round(solved_1d, monkeypatch):
    # a pinned box is never tightened: every truncation's one Lipschitz
    # round is taken there, by one shared call, and each certificate equals
    # a fresh validate
    p, result = solved_1d
    u = result.solution
    boxes = _record_lipschitz_boxes(monkeypatch)
    certs = list(validations(p, u, "sigma", [64, 96, 128], du=0.01, dp=0.001))
    assert all(c.valid and c.rounds == 1 for c in certs)
    assert [(c.which, c.du, c.dp) for c in boxes] == [("sigma", 0.01, 0.001)]
    for cert in certs:
        fresh = validate(p, u, "sigma", cert.n, du=0.01, dp=0.001)
        assert _same_certificate(cert, fresh), cert.n


def test_validations_escalate_none_among_fixed_truncations(solved_1d):
    p, result = solved_1d
    u = result.solution
    certs = list(validations(p, u, "mu", [None, 64, None]))
    assert [c.valid for c in certs] == [True] * 3
    for cert, n in zip(certs, [None, 64, None]):
        assert _same_certificate(cert, validate(p, u, "mu", n)), n


def test_validations_fail_every_truncation_on_a_failed_solution_stage():
    p = ModelParams(lam=5.0)
    u = CosineSeries.from_point(np.array([0.1, 0.2]))
    certs = list(validations(p, u, "lambda", [8, None, 8]))
    assert [(c.valid, c.stage, c.n) for c in certs] == [(False, "input", None)] * 3
    assert len({id(c) for c in certs}) == 3


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


@pytest.mark.parametrize("f_coeffs, products", [
    ((0.0, 1.0, 0.0, -1.0), 2),
    ((0.0, 1.0, 0.0, -1.0, 0.0, -0.2), 4),
])
def test_solution_bounds_forms_the_powers_once(monkeypatch, f_coeffs, products):
    # v^2, ..., v^deg: deg - 1 ball products, which the residual and f'
    # share; the terms of f and f' are scalings and sums of those powers.
    # mu = 0.1 mixes the parities of v
    from okvalid import operator

    calls = []
    product = operator.multiply

    def counted(u, v):
        calls.append((u.extent, v.extent))
        return product(u, v)

    monkeypatch.setattr(operator, "multiply", counted)
    p = ModelParams(lam=30.0, sigma=2.0, mu=0.1, f_coeffs=f_coeffs)
    u = CosineSeries.from_point(np.array([[0.0, 0.3, 0.0], [0.3, -0.1, 0.02]]), zero_mean=True)
    bounds = solution_bounds(p, u)
    assert len(calls) == products
    assert calls == [((2, 3), (j + 1, 2 * j + 1)) for j in range(1, products + 1)]
    # f' has degree deg - 1 = products
    assert math.isfinite(bounds.rho) and bounds.lin.q.extent == (products + 1, 2 * products + 1)


def test_canonical_2d_solution_bounds_stay_on_the_lattice(monkeypatch, solved_2d):
    # the canonical 2-d solution fills the odd-odd modes below 28: the
    # residual holds the 41 x 41 odd-odd modes of extent 82, q the 28 x 28
    # even-even ones of extent 55, and neither product folds the supports
    # (0/1 arrays), since both factors fill lattices whose product they
    # reach in full
    from okvalid import series

    p, result = solved_2d
    u = result.solution
    folds = []
    conv = series.point_conv
    monkeypatch.setattr(series, "point_conv",
                        lambda a, b, *lattices: folds.append((a, b)) or conv(a, b, *lattices))
    r = operator.residual_series(p, u)
    assert len(folds) == 4  # v^2 and v^3, each a midpoint and a radius fold of a point v
    q = solution_bounds(p, u).lin.q
    assert (u.parity, u.extent, u.center.shape) == ((1, 1), (28, 28), (14, 14))
    assert (r.parity, r.extent, r.center.shape, r.rad.shape) == ((1, 1), (82, 82), (41, 41), (41, 41))
    assert (q.parity, q.extent, q.center.shape, q.rad.shape) == ((0, 0), (55, 55), (28, 28), (28, 28))
    assert not any(np.isin(a, (0.0, 1.0)).all() and np.isin(b, (0.0, 1.0)).all() for a, b in folds)


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
    assert "(suggested truncation: " in cert.reason


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


_TAU_FAILURE = "tau below its formula at the stored kn, q_sup, q_h2 and n"


def test_verify_replays_tau(certificates_1d):
    # the 1-d lambda certificate with tau = 0 and K = k_formula(kn, 0).hi to
    # match passes every other replay, and so does tau one ulp below its
    # formula: only the tau replay rejects them
    cert = certificates_1d["lambda"]
    assert verify_certificate(cert)[0]
    zero = dataclasses.replace(cert, tau=0.0, k=inverse.k_formula(cert.kn, 0.0).hi)
    assert verify_certificate(zero) == (False, [_TAU_FAILURE])
    ulp = dataclasses.replace(cert, tau=math.nextafter(cert.tau, 0.0))
    assert verify_certificate(ulp) == (False, [_TAU_FAILURE])
    short = dataclasses.replace(cert, n=1)
    assert verify_certificate(short) == (False, ["truncation below 2"])
    # tau = 1 leaves no K to replay: a failure, not a division through zero
    ok, failures = verify_certificate(dataclasses.replace(cert, tau=1.0))
    assert not ok and "tau not in [0, 1)" in failures


def test_verify_replays_k_at_its_formulas_upper_end(solved_2d, tmp_path):
    # the 2-d N=28 certificate stores K = k_formula(kn, tau).hi; its lower
    # end lies below the exact max(kn, 1) / (1 - tau), so a certificate
    # carrying it fails the replay, and okvalid check on its file exits 3
    from fractions import Fraction

    from okvalid.cli import EXIT_CERT, main
    from okvalid.files import write_certificate
    from okvalid.inverse import k_formula

    p, result = solved_2d
    cert = validate(p, result.solution, "lambda", n=28)
    formula = k_formula(cert.kn, cert.tau)
    assert verify_certificate(cert) == (True, []) and cert.k == formula.hi
    low = dataclasses.replace(cert, k=formula.lo)
    assert Fraction(low.k) < Fraction(max(cert.kn, 1.0)) / (1 - Fraction(cert.tau)) < cert.k
    assert verify_certificate(low) == (False, ["K inconsistent with kn and tau"])
    path = tmp_path / "low_k.cert.json"
    write_certificate(path, low, None)
    assert main(["check", "--cert", str(path)]) == EXIT_CERT == 3


def test_tau_replay_is_exact_in_1d_and_a_floor_above(certificates_1d, solved_2d, solved_3d):
    # the canonical certificates verify; the replay's table cb is 1-d's, the
    # smallest, so it meets the stored tau in 1-d and stays below it in 2-d
    # and 3-d
    from okvalid.embeddings import table_constants
    from okvalid.inverse import tau_formula

    (p2, res2), (p3, res3) = solved_2d, solved_3d
    certs = [(1, certificates_1d["lambda"]),
             (2, validate(p2, res2.solution, "lambda", n=28)),
             (3, validate(p3, res3.solution, "lambda", n=12))]
    for dim, cert in certs:
        assert verify_certificate(cert) == (True, []), dim
        args = (cert.kn, cert.q_sup, cert.q_h2)
        floor = tau_formula(*args, table_constants(1).cb, cert.n).hi
        assert cert.tau == tau_formula(*args, table_constants(dim).cb, cert.n).hi
        assert (cert.tau == floor) == (dim == 1), dim


_BOUND_FIELDS = ("rho", "q_sup", "q_h2", "l1", "l2", "l3", "l4")


def test_solution_failures_recompute_the_stored_bounds(certificates_1d, solved_1d, solved_2d,
                                                       solved_3d):
    # the bounds recomputed from the solution and the stored box are the
    # stored ones, bit for bit, in every parameter and dimension; one ulp
    # below its recomputed value, each field is named, and nothing else
    p1, res1 = solved_1d
    cases = [(p1, res1.solution, cert) for cert in certificates_1d.values()]
    cases += [(p, res.solution, validate(p, res.solution, which, n=n))
              for (p, res), n in ((solved_2d, 28), (solved_3d, 12)) for which in PARAMETERS]
    for p, u, cert in cases:
        assert cert.valid and cift.solution_failures(cert, p, u) == [], cert.which
        bounds = solution_bounds(p, u)
        choice = ContinuationChoice(cert.which, cert.ell_alpha, cert.ell_x)
        lb = lipschitz_bounds(p, choice, bounds.sups)
        recomputed = (bounds.rho, bounds.lin.q_sup, bounds.lin.q_h2, lb.l1, lb.l2, lb.l3, lb.l4)
        assert recomputed == tuple(getattr(cert, name) for name in _BOUND_FIELDS)
    p, u, cert = cases[-1]
    for name in _BOUND_FIELDS:
        low = dataclasses.replace(cert, **{name: math.nextafter(getattr(cert, name), -math.inf)})
        (failure,) = cift.solution_failures(low, p, u)
        assert failure.startswith(f"{name} "), failure


def test_solution_failures_replay_tau_in_the_solution_dimension(solved_2d):
    # a 2-d tau lowered to the 1-d formula's value passes the replay of the
    # certificate alone, whose cb is 1-d's, and fails against its solution
    from okvalid.embeddings import table_constants
    from okvalid.inverse import tau_formula

    p, res = solved_2d
    cert = validate(p, res.solution, "lambda", n=28)
    low = dataclasses.replace(
        cert, tau=tau_formula(cert.kn, cert.q_sup, cert.q_h2, table_constants(1).cb, cert.n).hi)
    assert low.tau < cert.tau and verify_certificate(low)[0]
    assert cift.solution_failures(cert, p, res.solution) == []
    (failure,) = cift.solution_failures(low, p, res.solution)
    assert failure.startswith(f"tau {low.tau!r} below its formula {cert.tau!r} in 2-d"), failure


def test_solution_failures_deep_recomputes_kn(certificates_1d, solved_1d, solved_2d, solved_3d):
    # the canonical certificates' kn is K_N recomputed at their n; a halved
    # kn keeps every other check and fails only the deep one, naming both
    p1, res1 = solved_1d
    cases = [(p1, res1.solution, cert) for cert in certificates_1d.values()]
    cases += [(p, res.solution, validate(p, res.solution, "lambda", n=n))
              for (p, res), n in ((solved_2d, 28), (solved_3d, 12))]
    for p, u, cert in cases:
        assert cift.solution_failures(cert, p, u, deep=True) == [], cert.n
        low = dataclasses.replace(cert, kn=cert.kn / 2)
        assert verify_certificate(low)[0] and cift.solution_failures(low, p, u) == []
        (failure,) = cift.solution_failures(low, p, u, deep=True)
        assert failure == (f"kn {low.kn!r} below its value {cert.kn!r} recomputed at n={cert.n}, "
                           "by 4503599627370496 ulps")  # 2^52, halving a normal double


def test_solution_failures_deep_at_a_truncation_too_large(solved_1d, certificates_1d):
    # a stored n whose K_N charge does not fit, or lies past the double
    # range, is a failure, not an exception
    p, res = solved_1d
    cert = certificates_1d["lambda"]
    for n in (10**6, 10**300):
        big = dataclasses.replace(cert, n=n)
        assert verify_certificate(big)[0]
        (failure,) = cift.solution_failures(big, p, res.solution, deep=True)
        assert failure.startswith(f"K_N not recomputed at n={n}: truncation n={n} ") and "MB" in failure


def test_validate_nontrivial_certificates(certificates_1d):
    for which, cert in certificates_1d.items():
        assert cert.valid, (which, cert.stage, cert.reason)
        assert verify_certificate(cert)[0]
        assert cert.tau < 1.0
        assert cert.delta_alpha > 0.0 and cert.delta_x > 0.0
        assert cert.delta_x <= cert.ell_x and cert.delta_alpha <= cert.ell_alpha
