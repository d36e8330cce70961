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
import functools
import math
import struct
import sys
from dataclasses import dataclass, field

from .embeddings import table_constants
from .intervals import Interval
from .inverse import inverse_bounds, k_formula, tau_formula
from .lipschitz import (
    ContinuationChoice,
    LipschitzBounds,
    SolutionSups,
    lipschitz_bounds,
    solution_sups,
)
from .operator import (
    PARAMETERS,
    CertificationError,
    Linearization,
    ModelParams,
    ball_powers,
    fprime_series,
    linearization_coefficient,
    residual_norm,
)
from .series import CosineSeries, norm

TOOL_VERSION = "0.1.0"
BASIS_ORDERING = "lex"


# ---------------------------------------------------------------------------
# the two feasibility inequalities (the solver's, the replay's and --at-alpha's)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiiInequalities:
    """The theorem's two feasibility inequalities and their hypotheses at
    fixed K, rho, l1..l4 and box radius ell_x, with the da-independent
    products 2 K rho and 2 K l1 .. 2 K l4 formed once: the one place that
    evaluates them, for the solver, the replay and --at-alpha.  Interval
    products associate left to right, so (2 K l3) da is the product
    2 K l3 da written out, bit for bit."""

    k: float
    rho: float
    l1: float
    l2: float
    l3: float
    l4: float
    ell_x: float
    tk_rho: Interval
    tk_l1: Interval
    tk_l2: Interval
    tk_l3: Interval
    tk_l4: Interval

    @classmethod
    def of(cls, k: float, rho: float, l1: float, l2: float, l3: float, l4: float,
           ell_x: float):
        tk = Interval(2.0) * Interval(k)
        return cls(k, rho, l1, l2, l3, l4, ell_x,
                   *(tk * Interval(x) for x in (rho, l1, l2, l3, l4)))

    def failures(self) -> list:
        """The hypotheses for any radii that fail: l1..l4 >= 0; 4 K^2 rho l1
        < 1, without which the contraction budget is spent at da = 0; and
        2 K rho < ell_x, without which the radius requirement leaves the
        box."""
        failures = [f"{name} < 0" for name in ("l1", "l2", "l3", "l4")
                    if not getattr(self, name) >= 0.0]
        k, rho, l1 = (Interval(x) for x in (self.k, self.rho, self.l1))
        if (Interval(4.0) * k.square() * rho * l1).hi >= 1.0:
            failures.append("4 K^2 rho l1 >= 1: residual too large")
        if self.tk_rho.hi >= self.ell_x:
            failures.append("2 K rho >= ell_x: box too small")
        return failures

    def requirement(self, da: float) -> Interval:
        """Lower requirement on dx: 2 K rho + 2 K l3 da + 2 K l4 da^2."""
        d = Interval(da)
        return self.tk_rho + self.tk_l3 * d + self.tk_l4 * d.square()

    def budget(self, da: float, dx: float) -> Interval:
        """Contraction budget: 2 K l1 dx + 2 K l2 da (must stay <= 1)."""
        return self.tk_l1 * Interval(dx) + self.tk_l2 * Interval(da)

    def root(self) -> float:
        """Float estimate of the largest da at which both inequalities hold
        with dx at the radius requirement, from the upper ends of the
        products: the smaller of the positive roots where the requirement
        reaches ell_x and where the budget reaches 1; nan where the float
        evaluation fails."""
        rho, l1, l2, l3, l4 = (x.hi for x in (
            self.tk_rho, self.tk_l1, self.tk_l2, self.tk_l3, self.tk_l4))
        box = _positive_root(l4, l3, rho - self.ell_x)
        budget = _positive_root(l1 * l4, l1 * l3 + l2, l1 * rho - 1.0)
        if math.isnan(box) or math.isnan(budget):
            return math.nan
        return min(box, budget)

    def dx_ceiling(self, da: float) -> float:
        """min(ell_x, (1 - 2 K l2 da) / (2 K l1)) rounded down: the largest dx
        in the box that the contraction budget certainly admits at da."""
        if not self.l1 > 0.0:
            return self.ell_x
        budget = (Interval(1.0) - self.tk_l2 * Interval(da)) / self.tk_l1
        return min(self.ell_x, budget.lo)

    def dx_range(self, da: float):
        """The certified [lower, upper] range of dx available at da, or None."""
        lo = self.requirement(da).hi
        hi = self.dx_ceiling(da)
        if lo > hi or self.budget(da, lo).hi > 1.0:
            return None
        return lo, hi


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
# few more, so only the points near the boundary need evaluating: 0 to 9 of
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


def solve_radii(ineq: RadiiInequalities, ell_alpha: float) -> RadiiResult:
    """Maximal da <= ell_alpha for which both of ineq's inequalities hold,
    by bisection.

    Feasibility of a trial da is decided rigorously: dx is the outward value
    of the radius requirement, and the contraction budget is evaluated at
    that dx.  Trial points far from the float root of the two inequalities
    are decided by the root instead.  The result is certified at the end:
    the final da is evaluated feasible and its witness infeasible, and if
    either check fails the bisection is rerun evaluating every trial point.
    Away from the boundary feasibility only grows towards 0, so a certified
    pair is reached only through the decisions evaluation would have made,
    and the result is the plain bisection's.  Raises CertificationError
    with the first of ineq.failures().
    """
    failures = ineq.failures()
    if failures:
        raise CertificationError("solve_radii", failures[0])

    def feasible(da: float):
        dx = ineq.requirement(da).hi
        ok = dx <= ineq.ell_x and ineq.budget(da, dx).hi <= 1.0
        return ok, dx

    ok0, _ = feasible(0.0)
    if not ok0:
        raise CertificationError("solve_radii", "radii infeasible even at da = 0")

    ok, dx = feasible(ell_alpha)
    witness: float | None = None
    if ok:
        da = ell_alpha
    else:
        root = ineq.root()
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
        delta_x_sup=max(dx, ineq.dx_ceiling(da)),
        infeasible_witness=witness,
        point_only=(da == 0.0),
    )


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


def _utcnow() -> str:
    """The current UTC time in ISO 8601, the creation stamp of every file."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _provenance() -> dict:
    return {"tool_version": TOOL_VERSION, "basis_ordering": BASIS_ORDERING, "created": _utcnow()}


def verify_certificate(cert: Certificate):
    """Replay every certificate inequality in interval arithmetic.

    Operates purely on stored fields (no recomputation of K); returns
    (ok, failures).  tau is replayed with the smallest table cb, 1-d's:
    the certificate does not record its dimension, so that is exact in 1-d
    and a floor in 2-d and 3-d.
    """
    if not cert.valid or cert.stage != "complete":
        return False, [f"certificate not valid (stage={cert.stage})"]
    required = "n rho kn tau k q_sup q_h2 l1 l2 l3 l4 ell_x ell_alpha delta_alpha delta_x".split()
    missing = [name for name in required if getattr(cert, name) is None]
    if missing:
        return False, [f"missing fields: {', '.join(missing)}"]
    # nan, an infinity or an int that no double holds; ints compare exactly
    nonfinite = [name for name in required if not abs(getattr(cert, name)) <= sys.float_info.max]
    if nonfinite:
        return False, [f"non-finite fields: {', '.join(nonfinite)}"]
    failures = [f"{name} < 0" for name in ("rho", "kn", "q_sup", "q_h2")
                if getattr(cert, name) < 0.0]
    da, dx = cert.delta_alpha, cert.delta_x
    if not (0.0 <= da <= cert.ell_alpha):
        failures.append("delta_alpha outside [0, ell_alpha]")
    if not (0.0 <= dx <= cert.ell_x):
        failures.append("delta_x outside [0, ell_x]")
    if not (0.0 <= cert.tau < 1.0):
        failures.append("tau not in [0, 1)")
    elif cert.k < k_formula(cert.kn, cert.tau).hi:
        failures.append("K inconsistent with kn and tau")
    if not cert.n >= 2:
        failures.append("truncation below 2")
    elif cert.tau < tau_formula(cert.kn, cert.q_sup, cert.q_h2, table_constants(1).cb, cert.n).hi:
        failures.append("tau below its formula at the stored kn, q_sup, q_h2 and n")
    ineq = RadiiInequalities.of(cert.k, cert.rho, cert.l1, cert.l2, cert.l3, cert.l4, cert.ell_x)
    failures += ineq.failures()
    if ineq.budget(da, dx).hi > 1.0:
        failures.append("contraction budget above 1")
    if ineq.requirement(da).hi > dx:
        failures.append("radius requirement above delta_x")
    return not failures, failures


# ---------------------------------------------------------------------------
# the full validation pipeline
# ---------------------------------------------------------------------------

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
    lin: Linearization  # q = lam f'(u + mu) and its norm bounds
    sups: SolutionSups  # of u, u + mu and f'(u + mu), read by the Lipschitz rounds
    du0: float  # the default solution box radius, 0.1 max(1, ||u||)


def solution_bounds(p: ModelParams, u: CosineSeries) -> SolutionBounds:
    """rho, the linearization of F at u and the sup bounds that the
    Lipschitz rounds read: the residual, f'(u + mu) and the sup of u + mu
    are all read off one set of ball powers of u + mu
    (operator.ball_powers).

    One SolutionBounds serves every truncation of a validations call.
    Raises CertificationError at stage residual, naming each of rho, q_sup
    and q_h2 that overflowed.
    """
    powers = ball_powers(p, u)
    rho = residual_norm(p, u, powers).hi
    fprime = fprime_series(p, u, powers)
    lin = linearization_coefficient(p, fprime)
    bad = [name for name, v in (("rho", rho), ("q_sup", lin.q_sup), ("q_h2", lin.q_h2))
           if not math.isfinite(v)]
    if bad:
        raise CertificationError("residual", f"{', '.join(bad)} not finite (overflow)")
    du0 = 0.1 * max(1.0, norm(u, "Hbar", 2).hi)
    return SolutionBounds(rho, lin, solution_sups(u, powers, fprime), du0)


def solution_failures(cert: Certificate, p: ModelParams, u: CosineSeries,
                      deep: bool = False) -> list:
    """Why cert, a complete certificate, is not bound to the solution (p,
    u): parameters that differ, a box that is not one, each of rho, q_sup,
    q_h2 and l1..l4 stored below its value recomputed from (p, u)
    (solution_bounds) and the stored box (lipschitz_bounds), or a tau below
    its formula with the cb of u's dimension (verify_certificate takes 1-d's,
    a floor in 2-d and 3-d).  With deep, also a kn below K_N recomputed at
    the stored n (inverse_bounds), with the gap in ulps, or an n where it
    cannot be."""
    if p != cert.params:
        return ["solution parameters differ from the certificate's"]
    try:
        choice = ContinuationChoice(cert.which, dp=cert.ell_alpha, du=cert.ell_x)
        bounds = solution_bounds(p, u)
    except (ValueError, CertificationError) as exc:
        return [f"bounds not recomputed from the solution: {exc}"]
    lb = lipschitz_bounds(p, choice, bounds.sups)
    recomputed = dict(rho=bounds.rho, q_sup=bounds.lin.q_sup, q_h2=bounds.lin.q_h2,
                      l1=lb.l1, l2=lb.l2, l3=lb.l3, l4=lb.l4)
    failures = [f"{name} {getattr(cert, name)!r} below its value {value!r} from the solution"
                for name, value in recomputed.items() if not getattr(cert, name) >= value]
    tau = tau_formula(cert.kn, cert.q_sup, cert.q_h2, table_constants(u.dim).cb, cert.n).hi
    if not cert.tau >= tau:
        failures.append(f"tau {cert.tau!r} below its formula {tau!r} in {u.dim}-d")
    if deep:
        (ib,) = inverse_bounds(p, bounds.lin, [cert.n])
        if isinstance(ib, CertificationError):
            failures.append(f"K_N not recomputed at n={cert.n}: {ib}")
        elif not cert.kn >= ib.kn:
            # a positive double's bit pattern counts the ulps from zero up
            # to it, a negative one's magnitude bits count them down
            top, low = struct.unpack("<2q", struct.pack("<2d", ib.kn, cert.kn))
            gap = top - (low if low >= 0 else -(low & (2**63 - 1)))
            failures.append(f"kn {cert.kn!r} below its value {ib.kn!r} recomputed at n={cert.n}, "
                            f"by {gap} ulp{'s' * (gap != 1)}")
    return failures


# Lipschitz tightening rounds at most per truncation
LIPSCHITZ_ROUNDS = 5


def validations(p: ModelParams, u: CosineSeries, which: str, ns,
                du: float | None = None, dp: float | None = None):
    """Validate u at each truncation of ns: yields one certificate per
    truncation, in order.

    Once per call: solution_bounds(p, u), one K_N stage for every
    truncation (inverse.inverse_bounds, where an n of None escalates) and
    the first Lipschitz round, whose box depends on neither the truncation
    nor K.  Then per truncation: Lipschitz rounds -> radii -> replay.  The
    box radii default to 0.1 max(1, ||u||) and 0.05 max(1, |p*|) and are
    tightened towards the concluded radii (which strictly improves the
    constants) unless the caller pinned them; solve_radii concludes delta_x
    <= ell_x and delta_alpha <= ell_alpha, so the constants cover the
    concluded region.  Invalid certificates carry the failing stage, and
    from the Lipschitz rounds on the bounds that rho, q and the inverse
    bound gave; a failed per-solution stage (input or residual) fails every
    truncation.
    """
    if which not in PARAMETERS:
        raise ValueError(f"unknown continuation parameter {which!r}")
    ns = list(ns)
    try:
        if not u.zero_mean:
            raise CertificationError("input", "solution series is not zero-mean")
        bounds = solution_bounds(p, u)
    except Exception as exc:  # noqa: BLE001 - failure becomes a tagged certificate
        stage = "residual" if u.zero_mean else "input"
        yield from (_invalid(p, which, stage, str(exc)) for _ in ns)
        return
    rho, lin = bounds.rho, bounds.lin
    pinned = du is not None or dp is not None
    du0 = du if du is not None else bounds.du0
    dp0 = dp if dp is not None else 0.05 * max(1.0, abs(p.get(which)))
    first_round = functools.cache(lambda: lipschitz_bounds(
        p, ContinuationChoice(which=which, dp=dp0, du=du0), bounds.sups))
    for n, ib in zip(ns, inverse_bounds(p, lin, ns)):
        if isinstance(ib, CertificationError):
            reason = str(ib)
            if ib.suggested_n is not None:
                reason += f" (suggested truncation: {ib.suggested_n})"
            yield _invalid(p, which, ib.stage, reason, rho=rho, n=ib.n)
            continue
        # vars reads the records' fields without asdict's deep copy
        record = dict(rho=rho, q_sup=lin.q_sup, q_h2=lin.q_h2, **vars(ib))

        du_cur, dp_cur = du0, dp0
        best: tuple[RadiiResult, LipschitzBounds, float, float] | None = None
        failure: CertificationError | None = None
        for rounds in range(1, LIPSCHITZ_ROUNDS + 1):
            if rounds == 1:
                lb = first_round()
            else:
                choice = ContinuationChoice(which=which, dp=dp_cur, du=du_cur)
                lb = lipschitz_bounds(p, choice, bounds.sups)
            try:
                ineq = RadiiInequalities.of(ib.k, rho, lb.l1, lb.l2, lb.l3, lb.l4, du_cur)
                radii = solve_radii(ineq, dp_cur)
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
            yield _invalid(p, which, failure.stage, str(failure), **record)
            continue
        radii, lb, ell_x, ell_alpha = best
        cert = Certificate(
            params=p, which=which, valid=True, stage="complete",
            **record, **vars(lb), **vars(radii),
            ell_x=ell_x, ell_alpha=ell_alpha, rounds=rounds, provenance=_provenance(),
        )
        ok, failures = verify_certificate(cert)
        yield cert if ok else _invalid(
            p, which, "self_check",
            "emitted certificate failed replay: " + "; ".join(failures), **record,
        )


def validate(p: ModelParams, u: CosineSeries, which: str, n: int | None = None,
             du: float | None = None, dp: float | None = None) -> Certificate:
    """validations at the one truncation n."""
    (cert,) = validations(p, u, which, [n], du, dp)
    return cert
