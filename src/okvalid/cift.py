"""Certificate assembly: feasible existence/uniqueness radii from certified bounds.

Given a residual bound rho, an inverse bound K, and Lipschitz constants
l1..l4 valid on a box of radii (ell_alpha, ell_x), the two feasibility
inequalities

    2 K l1 dx + 2 K l2 da <= 1
    2 K rho + 2 K l3 da + 2 K l4 da^2 <= dx

admit a maximal parameter radius da; the tool reports that point, where the
accuracy and uniqueness radii coincide.  Every emitted certificate replays
its own inequalities in interval arithmetic before it is returned.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from .intervals import Interval
from .lipschitz import ContinuationChoice, LipschitzBounds, lipschitz_bounds
from .operator import (
    CertificationError,
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


@dataclass(frozen=True)
class RadiiResult:
    delta_alpha: float
    delta_x: float
    delta_x_sup: float  # upper end of the feasible dx range at delta_alpha
    infeasible_witness: float | None  # a certified-infeasible da (maximality)
    point_only: bool


def solve_radii(
    k: float,
    rho: float,
    l1: float,
    l2: float,
    l3: float,
    l4: float,
    ell_x: float,
    ell_alpha: float,
    iterations: int = 50,
) -> RadiiResult:
    """Maximal da <= ell_alpha for which both inequalities hold, by bisection.

    Feasibility of a trial da is decided rigorously: dx is the outward value
    of the radius requirement, and the contraction budget is evaluated at
    that dx.  Raises CertificationError when the preconditions fail.
    """
    if (Interval(4.0) * Interval(k).square() * Interval(rho) * Interval(l1)).hi >= 1.0:
        raise CertificationError("solve_radii", "4 K^2 rho l1 >= 1: residual too large")
    if (_two_k(k) * Interval(rho)).hi >= ell_x:
        raise CertificationError("solve_radii", "2 K rho >= ell_x: box too small")

    def feasible(da: float):
        dx = radius_requirement(k, rho, l3, l4, da).hi
        ok = dx <= ell_x and derivative_budget(k, l1, l2, da, dx).hi <= 1.0
        return ok, dx

    ok0, _ = feasible(0.0)
    if not ok0:
        raise CertificationError("solve_radii", "radii infeasible even at da = 0")

    lo = 0.0
    hi = ell_alpha
    witness: float | None = None
    if not feasible(hi)[0]:
        for _ in range(iterations):
            mid_pt = 0.5 * (lo + hi)
            if feasible(mid_pt)[0]:
                lo = mid_pt
            else:
                hi = mid_pt
        witness = hi
        da = lo
    else:
        da = hi
    dx = radius_requirement(k, rho, l3, l4, da).hi
    if l1 > 0.0:
        budget = (Interval(1.0) - _two_k(k) * Interval(l2) * Interval(da)) / (
            _two_k(k) * Interval(l1)
        )
        dx_sup = min(ell_x, max(dx, budget.lo))
    else:
        dx_sup = ell_x
    return RadiiResult(
        delta_alpha=da,
        delta_x=dx,
        delta_x_sup=dx_sup,
        infeasible_witness=witness,
        point_only=(da == 0.0),
    )


def feasible_dx_range(
    k: float, rho: float, l1: float, l2: float, l3: float, l4: float,
    ell_x: float, da: float,
):
    """The certified [lower, upper] range of dx available at a given da, or None."""
    lo = radius_requirement(k, rho, l3, l4, da).hi
    if l1 > 0.0:
        hi = min(
            ell_x,
            ((Interval(1.0) - _two_k(k) * Interval(l2) * Interval(da))
             / (_two_k(k) * Interval(l1))).lo,
        )
    else:
        hi = ell_x
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
    if (Interval(4.0) * Interval(cert.k).square() * Interval(cert.rho) * Interval(cert.l1)).hi >= 1.0:
        failures.append("4 K^2 rho l1 >= 1")
    if (_two_k(cert.k) * Interval(cert.rho)).hi >= cert.ell_x:
        failures.append("2 K rho >= ell_x")
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
    p_star = {"lambda": p.lam, "sigma": p.sigma, "mu": p.mu}[which]
    return 0.1 * max(1.0, u_norm), 0.05 * max(1.0, abs(p_star))


def _invalid(p, which, stage, reason, **fields) -> Certificate:
    return Certificate(
        params=p, which=which, valid=False, stage=stage, reason=reason,
        provenance=_provenance(), **fields,
    )


def validate(
    p: ModelParams,
    u: CosineSeries,
    which: str,
    n: int | None = None,
    du: float | None = None,
    dp: float | None = None,
    max_rounds: int = 5,
    tau_target: float = 0.5,
    ceiling: int | None = None,
) -> Certificate:
    """Run residual -> inverse bound -> Lipschitz -> radii and emit a certificate.

    The Lipschitz box radii default to 0.1 max(1, ||u||) and 0.05 max(1, |p*|)
    and are tightened towards the concluded radii (which strictly improves the
    constants) unless the caller pinned them; the final certificate always has
    delta_x <= ell_x and delta_alpha <= ell_alpha, so the constants cover the
    concluded region.  Invalid certificates carry the failing stage.
    """
    if which not in ("lambda", "sigma", "mu"):
        raise ValueError(f"unknown continuation parameter {which!r}")
    if not u.zero_mean:
        return _invalid(p, which, "input", "solution series is not zero-mean")

    du0, dp0 = _default_box(p, u, which)
    pinned = du is not None or dp is not None
    du_cur = du if du is not None else du0
    dp_cur = dp if dp is not None else dp0

    try:
        rho = residual_norm(p, u).hi
    except Exception as exc:  # noqa: BLE001 - failure becomes a tagged certificate
        return _invalid(p, which, "residual", str(exc))

    # f'(u + mu) enters q and the lambda Lipschitz bounds; it is built once
    fprime = fprime_series(p, u)
    q_info = linearization_coefficient(p, u, fprime)
    try:
        if n is not None:
            ib = derivative_inverse_bound(p, u, n, q_info=q_info)
        else:
            ib = auto_inverse_bound(
                p, u, ceiling=ceiling, tau_target=tau_target, q_info=q_info
            )
    except CertificationError as exc:
        reason = str(exc)
        if exc.suggested_n is not None:
            reason += f" (suggested truncation: {exc.suggested_n})"
        return _invalid(p, which, exc.stage, reason, rho=rho, n=n)

    best: tuple[RadiiResult, LipschitzBounds, float, float] | None = None
    failure: CertificationError | None = None
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        choice = ContinuationChoice(which=which, dp=dp_cur, du=du_cur)
        lb = lipschitz_bounds(p, u, choice, fprime)
        try:
            radii = solve_radii(
                ib.k, rho, lb.l1, lb.l2, lb.l3, lb.l4,
                ell_x=du_cur, ell_alpha=dp_cur,
            )
        except CertificationError as exc:
            failure = exc
            break
        if radii.delta_x > du_cur or radii.delta_alpha > dp_cur:
            # defensive: enlarge so the Lipschitz box covers the conclusion
            du_cur = max(du_cur, 2.0 * radii.delta_x)
            dp_cur = max(dp_cur, 2.0 * radii.delta_alpha)
            continue
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

    if best is None:
        stage = failure.stage if failure is not None else "solve_radii"
        reason = str(failure) if failure is not None else "no feasible radii"
        return _invalid(
            p, which, stage, reason, rho=rho, n=ib.n, kn=ib.kn, tau=ib.tau,
            k=ib.k, q_sup=ib.q_sup, q_h2=ib.q_h2,
        )

    radii, lb, ell_x, ell_alpha = best
    cert = Certificate(
        params=p,
        which=which,
        valid=True,
        stage="complete",
        n=ib.n,
        rho=rho,
        kn=ib.kn,
        tau=ib.tau,
        k=ib.k,
        q_sup=ib.q_sup,
        q_h2=ib.q_h2,
        l1=lb.l1,
        l2=lb.l2,
        l3=lb.l3,
        l4=lb.l4,
        fmax1=lb.fmax1,
        fmax2=lb.fmax2,
        ell_x=ell_x,
        ell_alpha=ell_alpha,
        delta_alpha=radii.delta_alpha,
        delta_x=radii.delta_x,
        delta_x_sup=radii.delta_x_sup,
        infeasible_witness=radii.infeasible_witness,
        point_only=radii.point_only,
        rounds=rounds,
        provenance=_provenance(),
    )
    ok, failures = verify_certificate(cert)
    if not ok:
        return _invalid(
            p, which, "self_check",
            "emitted certificate failed replay: " + "; ".join(failures),
            rho=rho, n=ib.n, kn=ib.kn, tau=ib.tau, k=ib.k,
        )
    return cert
