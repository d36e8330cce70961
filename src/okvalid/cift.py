"""Certificate assembly: feasible existence/uniqueness radii from certified bounds.

Given a residual bound rho, an inverse bound K, and Lipschitz constants
l1..l4 valid on a box of radii (ell_alpha, ell_x), the two feasibility
inequalities

    2 K l1 dx + 2 K l2 da <= 1
    2 K rho + 2 K l3 da + 2 K l4 da^2 <= dx

admit a maximal parameter radius da; the tool reports that point, where the
accuracy and uniqueness radii coincide.  It is found by bisection: a trial
point far from the float root of the two inequalities is decided by that
root, the points near it by interval evaluation, and the final point and its
infeasible witness are always evaluated.  Every emitted certificate replays
its own inequalities in interval arithmetic before it is returned.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import asdict, dataclass, field

from .intervals import Interval
from .lipschitz import ContinuationChoice, LipschitzBounds, lipschitz_bounds
from .operator import (
    PARAMETERS,
    CertificationError,
    Linearization,
    ModelParams,
    auto_inverse_bound,
    derivative_inverse_bound,
    fprime_series,
    linearization_coefficient,
    residual_norm,
)
from .series import CosineSeries, norm

TOOL_VERSION = "0.1.0"
BASIS_ORDERING = "lex"


# ---------------------------------------------------------------------------
# the two feasibility inequalities (shared by the solver and the checker)
# ---------------------------------------------------------------------------

def _two_k(k: float) -> Interval:
    return Interval(2.0) * Interval(k)


def radius_requirement(k: float, rho: float, l3: float, l4: float, da: float) -> Interval:
    """Lower requirement on dx: 2 K rho + 2 K l3 da + 2 K l4 da^2."""
    tk = _two_k(k)
    return (
        tk * Interval(rho)
        + tk * Interval(l3) * Interval(da)
        + tk * Interval(l4) * Interval(da).square()
    )


def derivative_budget(k: float, l1: float, l2: float, da: float, dx: float) -> Interval:
    """Contraction budget: 2 K l1 dx + 2 K l2 da (must stay <= 1)."""
    tk = _two_k(k)
    return tk * Interval(l1) * Interval(dx) + tk * Interval(l2) * Interval(da)


def radii_preconditions(k: float, rho: float, l1: float, ell_x: float) -> list:
    """The conditions for any radii that fail: 4 K^2 rho l1 < 1, without
    which the contraction budget is spent at da = 0, and 2 K rho < ell_x,
    without which the radius requirement leaves the box."""
    failures = []
    if (Interval(4.0) * Interval(k).square() * Interval(rho) * Interval(l1)).hi >= 1.0:
        failures.append("4 K^2 rho l1 >= 1: residual too large")
    if (_two_k(k) * Interval(rho)).hi >= ell_x:
        failures.append("2 K rho >= ell_x: box too small")
    return failures


def _dx_ceiling(k: float, l1: float, l2: float, ell_x: float, da: float) -> float:
    """min(ell_x, (1 - 2 K l2 da) / (2 K l1)) rounded down: the largest dx in
    the box that the contraction budget certainly admits at da."""
    if not l1 > 0.0:
        return ell_x
    budget = (Interval(1.0) - _two_k(k) * Interval(l2) * Interval(da)) / (
        _two_k(k) * Interval(l1)
    )
    return min(ell_x, budget.lo)


@dataclass(frozen=True)
class RadiiResult:
    delta_alpha: float
    delta_x: float
    delta_x_sup: float  # upper end of the feasible dx range at delta_alpha
    infeasible_witness: float | None  # a certified-infeasible da (maximality)
    point_only: bool


BISECTION_STEPS = 50
# A trial point further than this (relative) from the float root is decided
# by that root.  The interval evaluation errs by a few ulps and the root by a
# few more, so only the points near the boundary need evaluating: 6 to 10 of
# the 50 on the canonical certificates.
ROOT_MARGIN = 2.0 ** -42


def _positive_root(a: float, b: float, c: float) -> float:
    """Positive root of a x^2 + b x + c with a, b >= 0 > c, in the form free of
    cancellation; inf where neither a nor b bounds x, nan where the float
    evaluation fails."""
    disc = b * b - 4.0 * a * c
    if not disc >= 0.0:
        return math.nan
    den = b + math.sqrt(disc)
    return -2.0 * c / den if den != 0.0 else math.inf


def _root_estimate(
    k: float, rho: float, l1: float, l2: float, l3: float, l4: float, ell_x: float,
) -> float:
    """Float estimate of the largest da at which both inequalities hold, with
    dx at the radius requirement: the smaller of their two roots."""
    tk = 2.0 * k
    # the radius requirement reaches ell_x
    box = _positive_root(tk * l4, tk * l3, tk * rho - ell_x)
    # the contraction budget reaches 1
    budget = _positive_root(
        tk * tk * l1 * l4, tk * tk * l1 * l3 + tk * l2, tk * tk * l1 * rho - 1.0
    )
    if math.isnan(box) or math.isnan(budget):
        return math.nan
    return min(box, budget)


def _bisect(feasible, hi: float, root: float) -> tuple[float, float]:
    """BISECTION_STEPS halvings of [0, hi], feasible points to the left.

    A trial point more than ROOT_MARGIN (relative) from a finite root is
    decided by the side of the root it lies on; every other point is
    evaluated.  Returns the final (lo, hi).
    """
    lo = 0.0
    decided = math.isfinite(root)
    margin = ROOT_MARGIN * root
    for _ in range(BISECTION_STEPS):
        mid_pt = 0.5 * (lo + hi)
        if decided and abs(mid_pt - root) > margin:
            ok = mid_pt < root
        else:
            ok = feasible(mid_pt)[0]
        if ok:
            lo = mid_pt
        else:
            hi = mid_pt
    return lo, hi


def solve_radii(
    k: float,
    rho: float,
    l1: float,
    l2: float,
    l3: float,
    l4: float,
    ell_x: float,
    ell_alpha: float,
) -> RadiiResult:
    """Maximal da <= ell_alpha for which both inequalities hold, by bisection.

    Feasibility of a trial da is decided rigorously: dx is the outward value
    of the radius requirement, and the contraction budget is evaluated at
    that dx.  Trial points far from the float root of the two inequalities
    are decided by the root instead.  The result is certified at the end:
    the final da is evaluated feasible and its witness infeasible, and if
    either check fails the bisection is rerun evaluating every trial point.
    Away from the boundary feasibility only grows towards 0, so a certified
    pair is reached only through the decisions evaluation would have made,
    and the result is the plain bisection's.  Raises CertificationError
    when the preconditions fail.
    """
    failures = radii_preconditions(k, rho, l1, ell_x)
    if failures:
        raise CertificationError("solve_radii", failures[0])

    def feasible(da: float):
        dx = radius_requirement(k, rho, l3, l4, da).hi
        ok = dx <= ell_x and derivative_budget(k, l1, l2, da, dx).hi <= 1.0
        return ok, dx

    ok0, _ = feasible(0.0)
    if not ok0:
        raise CertificationError("solve_radii", "radii infeasible even at da = 0")

    ok, dx = feasible(ell_alpha)
    witness: float | None = None
    if ok:
        da = ell_alpha
    else:
        root = _root_estimate(k, rho, l1, l2, l3, l4, ell_x)
        da, witness = _bisect(feasible, ell_alpha, root)
        ok, dx = feasible(da)
        if not ok or feasible(witness)[0]:
            # the root decided a trial point wrongly
            da, witness = _bisect(feasible, ell_alpha, math.nan)
            dx = feasible(da)[1]
    return RadiiResult(
        delta_alpha=da,
        delta_x=dx,
        # dx <= ell_x, so this is min(ell_x, max(dx, the budget's bound))
        delta_x_sup=max(dx, _dx_ceiling(k, l1, l2, ell_x, da)),
        infeasible_witness=witness,
        point_only=(da == 0.0),
    )


def feasible_dx_range(
    k: float, rho: float, l1: float, l2: float, l3: float, l4: float,
    ell_x: float, da: float,
):
    """The certified [lower, upper] range of dx available at a given da, or None."""
    lo = radius_requirement(k, rho, l3, l4, da).hi
    hi = _dx_ceiling(k, l1, l2, ell_x, da)
    if lo > hi or derivative_budget(k, l1, l2, da, lo).hi > 1.0:
        return None
    return lo, hi


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass
class Certificate:
    """Machine-checkable record of one validation run."""

    params: ModelParams
    which: str
    valid: bool
    stage: str  # "complete" or the failing pipeline stage
    reason: str = ""
    n: int | None = None
    rho: float | None = None
    kn: float | None = None
    tau: float | None = None
    k: float | None = None
    q_sup: float | None = None
    q_h2: float | None = None
    l1: float | None = None
    l2: float | None = None
    l3: float | None = None
    l4: float | None = None
    fmax1: float | None = None
    fmax2: float | None = None
    ell_x: float | None = None
    ell_alpha: float | None = None
    delta_alpha: float | None = None
    delta_x: float | None = None
    delta_x_sup: float | None = None
    infeasible_witness: float | None = None
    point_only: bool = False
    rounds: int = 0
    provenance: dict = field(default_factory=dict)


def _provenance() -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "basis_ordering": BASIS_ORDERING,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def verify_certificate(cert: Certificate):
    """Replay every certificate inequality in interval arithmetic.

    Operates purely on stored fields (no recomputation of K); returns
    (ok, failures).
    """
    if not cert.valid or cert.stage != "complete":
        return False, [f"certificate not valid (stage={cert.stage})"]
    required = (
        "n rho kn tau k l1 l2 l3 l4 ell_x ell_alpha delta_alpha delta_x".split()
    )
    missing = [name for name in required if getattr(cert, name) is None]
    if missing:
        return False, [f"missing fields: {', '.join(missing)}"]
    failures = []
    da, dx = cert.delta_alpha, cert.delta_x
    if not (0.0 <= da <= cert.ell_alpha):
        failures.append("delta_alpha outside [0, ell_alpha]")
    if not (0.0 <= dx <= cert.ell_x):
        failures.append("delta_x outside [0, ell_x]")
    if not cert.rho >= 0.0:
        failures.append("negative residual bound")
    if not (0.0 <= cert.tau < 1.0):
        failures.append("tau not in [0, 1)")
    k_replay = (Interval(max(cert.kn, 1.0)) / (Interval(1.0) - Interval(cert.tau))).lo
    if cert.k < k_replay:
        failures.append("K inconsistent with kn and tau")
    failures += radii_preconditions(cert.k, cert.rho, cert.l1, cert.ell_x)
    if derivative_budget(cert.k, cert.l1, cert.l2, da, dx).hi > 1.0:
        failures.append("contraction budget above 1")
    if radius_requirement(cert.k, cert.rho, cert.l3, cert.l4, da).hi > dx:
        failures.append("radius requirement above delta_x")
    return not failures, failures


# ---------------------------------------------------------------------------
# the full validation pipeline
# ---------------------------------------------------------------------------

def _default_box(p: ModelParams, u: CosineSeries, which: str):
    u_norm = norm(u, "Hbar", 2).hi
    return 0.1 * max(1.0, u_norm), 0.05 * max(1.0, abs(p.get(which)))


def _invalid(p, which, stage, reason, **fields) -> Certificate:
    return Certificate(
        params=p, which=which, valid=False, stage=stage, reason=reason,
        provenance=_provenance(), **fields,
    )


@dataclass(frozen=True)
class SolutionBounds:
    """The per-solution stage of a validation: everything that depends on
    (p, u) alone, not on the truncation or the Lipschitz box."""

    rho: float  # upper bound on the residual norm
    fprime: CosineSeries  # f'(u + mu), read by the lambda Lipschitz bounds
    lin: Linearization  # q = lam f'(u + mu) and its norm bounds


def solution_bounds(p: ModelParams, u: CosineSeries) -> SolutionBounds:
    """rho, f'(u + mu) and the linearization of F at u.

    One SolutionBounds serves every validate of the same solution and
    parameters, whatever the truncation.  Raises CertificationError at
    stage residual, naming each of rho, q_sup and q_h2 that overflowed.
    """
    rho = residual_norm(p, u).hi
    fprime = fprime_series(p, u)
    lin = linearization_coefficient(p, fprime)
    bad = [name for name, v in (("rho", rho), ("q_sup", lin.q_sup), ("q_h2", lin.q_h2))
           if not math.isfinite(v)]
    if bad:
        raise CertificationError("residual", f"{', '.join(bad)} not finite (overflow)")
    return SolutionBounds(rho, fprime, lin)


# Lipschitz tightening rounds at most in one validate
LIPSCHITZ_ROUNDS = 5


def validate(
    p: ModelParams,
    u: CosineSeries,
    which: str,
    n: int | None = None,
    du: float | None = None,
    dp: float | None = None,
    tau_target: float = 0.5,
    bounds: SolutionBounds | None = None,
) -> Certificate:
    """Run solution_bounds -> inverse bound -> Lipschitz rounds -> radii and
    emit a certificate.

    bounds is the per-solution stage, solution_bounds(p, u); it is built
    here when the caller passes None.  The inverse bound is taken at
    truncation n, or escalated towards tau_target when n is None.  The
    Lipschitz box radii default to 0.1 max(1, ||u||) and 0.05 max(1, |p*|)
    and are tightened towards the concluded radii (which strictly improves
    the constants) unless the caller pinned them; solve_radii concludes
    delta_x <= ell_x and delta_alpha <= ell_alpha, so the constants cover
    the concluded region.  Invalid certificates carry the failing stage,
    and from the Lipschitz rounds on the bounds that rho, q and the inverse
    bound gave.
    """
    if which not in PARAMETERS:
        raise ValueError(f"unknown continuation parameter {which!r}")
    if not u.zero_mean:
        return _invalid(p, which, "input", "solution series is not zero-mean")

    du0, dp0 = _default_box(p, u, which)
    pinned = du is not None or dp is not None
    du_cur = du if du is not None else du0
    dp_cur = dp if dp is not None else dp0

    if bounds is None:
        try:
            bounds = solution_bounds(p, u)
        except Exception as exc:  # noqa: BLE001 - failure becomes a tagged certificate
            return _invalid(p, which, "residual", str(exc))
    rho, lin = bounds.rho, bounds.lin
    try:
        if n is not None:
            ib = derivative_inverse_bound(p, lin, n)
        else:
            ib = auto_inverse_bound(p, lin, tau_target=tau_target)
    except CertificationError as exc:
        reason = str(exc)
        if exc.suggested_n is not None:
            reason += f" (suggested truncation: {exc.suggested_n})"
        return _invalid(p, which, exc.stage, reason, rho=rho, n=n)
    record = dict(rho=rho, q_sup=lin.q_sup, q_h2=lin.q_h2, **asdict(ib))

    best: tuple[RadiiResult, LipschitzBounds, float, float] | None = None
    failure: CertificationError | None = None
    for rounds in range(1, LIPSCHITZ_ROUNDS + 1):
        choice = ContinuationChoice(which=which, dp=dp_cur, du=du_cur)
        lb = lipschitz_bounds(p, u, choice, bounds.fprime)
        try:
            radii = solve_radii(
                ib.k, rho, lb.l1, lb.l2, lb.l3, lb.l4,
                ell_x=du_cur, ell_alpha=dp_cur,
            )
        except CertificationError as exc:
            failure = exc
            break
        if best is None or radii.delta_alpha > best[0].delta_alpha:
            best = (radii, lb, du_cur, dp_cur)
        else:
            break  # tightening stopped paying off
        if pinned or radii.delta_alpha == 0.0 or radii.delta_x == 0.0:
            break
        want_du = max(10.0 * radii.delta_x, 1e-12)
        want_dp = max(10.0 * radii.delta_alpha, 1e-12)
        if want_du >= 0.99 * du_cur and want_dp >= 0.99 * dp_cur:
            break
        du_cur = min(want_du, du_cur)
        dp_cur = min(want_dp, dp_cur)

    if best is None:  # the first round's radii failed
        return _invalid(p, which, failure.stage, str(failure), **record)

    radii, lb, ell_x, ell_alpha = best
    cert = Certificate(
        params=p, which=which, valid=True, stage="complete",
        **record, **asdict(lb), **asdict(radii),
        ell_x=ell_x, ell_alpha=ell_alpha, rounds=rounds, provenance=_provenance(),
    )
    ok, failures = verify_certificate(cert)
    if not ok:
        return _invalid(
            p, which, "self_check",
            "emitted certificate failed replay: " + "; ".join(failures), **record,
        )
    return cert
