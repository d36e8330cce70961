"""The K_N stage: a certified bound on the inverse of the linearization.

The scaled Galerkin matrix of the linearization, block-diagonal by parity
class, has a certified inverse norm K_N; with a tail contraction constant it
bounds the inverse of the full derivative.  One pass bounds K_N at every
truncation of a sweep, one class at a time, one class per symmetry orbit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import operator
from .embeddings import table_constants
from .intervals import (
    PI2,
    PI2_BALL,
    PI4,
    PI4_BALL,
    BallMatrix,
    Interval,
    IntervalDomainError,
    _ball_up,
    _gamma,
    _max_sum_upper,
    _up,
    inverse_norm2_at_most,
    mat_inverse_norm2_upper,
)
from .operator import (
    CertificationError,
    Linearization,
    ModelParams,
    ParityBlock,
    _galerkin_sums,
    _sums_plan,
    count_text,
    memory_shortfall,
    parity_blocks,
    split_axes,
)
from .series import CosineSeries, _raw_mid_rad, _rump_radius


def tau_formula(kn: float, q_sup: float, q_h2: float, cb: float, n: int) -> Interval:
    """Tail contraction constant for the approximate-inverse argument."""
    a = Interval(kn) * Interval(q_sup)
    b_sq = Interval(cb).square() * ((Interval(1.0) + PI4) / PI4) * Interval(q_h2).square()
    num = (a.square() + b_sq).sqrt()
    return num / (PI2 * Interval(float(n)).square())


def k_formula(kn: float, tau: float) -> Interval:
    """The inverse bound K = max(K_N, 1) / (1 - tau) of the full
    linearization, tau < 1 the tail contraction constant."""
    return Interval(max(kn, 1.0)) / (Interval(1.0) - Interval(tau))


@dataclass
class InverseBound:
    """Certified bound K for the inverse of the full linearization."""

    kn: float
    tau: float
    k: float
    n: int


# Peak number of live m_b x m_b double arrays in the K_N stage, m_b being
# the largest block; one block is live at a time.  The peak falls in the
# certified inverse norm: the block's midpoint and radius, the approximate
# inverse or its Gram matrix, and |C|, C A or the LAPACK copies; the
# Cholesky test holds the block, its Gram matrix and the two LAPACK
# copies, and the assembly peaks lower, at 3.2-3.6 m_b^2 (two sums, an
# accumulator, one take and the partials).  Measured on the canonical 2-d
# and 3-d equilibria (OpenBLAS, 1 thread): the tracemalloc peak of
# inverse_bounds at one truncation is 5.20 and 5.03 m_b^2 at 2-d N=28 and
# 48 (m_b = 196, 576), 5.56 and 5.10 at 3-d N=12 and 16 (m_b = 216, 512),
# and the rise of the peak RSS 6.31 and 6.17 at 2-d N=64 and 3-d N=20.  Where
# several truncations share the stage, a smaller one's block is cut from
# the larger one's just certified, which is dropped after the cut: the two
# hold 2 m^2 + 2 m_b^2 <= 4 m^2 doubles, m the larger block's size, inside
# the 7 m^2 of the larger truncation's own charge, so every truncation is
# charged alone.
KN_WORK_ARRAYS = 7
# Peak number of live double arrays of q's size on top of them: the raw
# midpoint and radius that every block reads, the radius that a block sums,
# and the temporaries that form them.  They set the peak where q is large
# against the truncation.  The traced peak of a first pass less the block
# charge is 9.2 times q's size at 1-d N=16 (q of 128 coefficients on its
# lattice), where fixed costs count too, 6.9 at 2-d N=6 (784), 4.1 at 3-d
# N=6 (1728), and 5.3, 0.6 and below zero for the 3-d N=16 equilibrium
# (4096) at N=6, 8 and 10 (OpenBLAS, 1 and 2 threads).
KN_Q_ARRAYS = 10


def kn_stage_bytes(q: CosineSeries, n: int, split: tuple) -> int:
    """Bytes the K_N stage needs at truncation n: the working set of the
    largest block of the Galerkin matrix of q, since one block is live at a
    time, and the raw coefficient arrays of q that every block reads; split
    is split_axes(q).  An exact integer, so any truncation is charged."""
    m_b = max(block.size for block in parity_blocks(split, n))
    return 8 * (KN_WORK_ARRAYS * m_b**2 + KN_Q_ARRAYS * q.center.size)


def axis_symmetries(m: np.ndarray, r: np.ndarray, parity: tuple | None = None) -> tuple:
    """The axis permutations that map a series' lattice onto itself, from
    its raw midpoint m and radius r (_raw_mid_rad) on the lattice of the
    given parities (default none), and one bound on their defects: (perms,
    defect), defect 0 where perms is empty.

    perm runs over the permutations of the axes, the identity left out,
    that keep the array's shape and the parities: with the identity, the
    lattice's whole stabiliser, a group.  m.transpose(perm) is then the raw
    midpoint of u o pi, pi the permutation of the coordinates, since c_k
    counts only the nonzero k_j.  defect >= ||u' o pi - u'||_inf, and so >=
    ||u' o pi^-1 - u'||_inf, for every perm and every u' in the ball: the
    sup norm is at most the sum of the magnitudes of the raw coefficients,
    each at most |m - pi m| + r + pi r.  That sum is one float sum of M =
    m.size terms, each reached by two roundings, under one a-priori budget
    (_max_sum_upper at depth M + 1, inf where it overflows; a difference or
    sum of doubles underflows exactly).  A series far from symmetric keeps
    its permutations, with a defect too large for any floor to use.
    """
    perms, defect = [], 0.0
    parity = (None,) * m.ndim if parity is None else tuple(parity)
    for perm in itertools.permutations(range(m.ndim)):
        if (perm == tuple(range(m.ndim)) or m.shape != m.transpose(perm).shape
                or parity != tuple(parity[t] for t in perm)):
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives an infinite defect
            dev = np.abs(m - m.transpose(perm)) + (r + r.transpose(perm))
            defect = max(defect, _max_sum_upper(dev.sum(), m.size + 1))
        perms.append(perm)
    return perms, defect


def parity_orbits(blocks: list, perms: list) -> dict:
    """The orbits of the parity classes of blocks under perms, a group of
    axis permutations less the identity (axis_symmetries), as {first:
    members} by parity, first in blocks' order; an orbit of one class is
    left out.  Class j of pi c reads c's parity on axis perm[j], so a
    permutation that breaks the split pattern maps no class onto a class."""
    classes = {block.parity for block in blocks}
    orbits = {}
    for c in (block.parity for block in blocks):
        members = {tuple(c[t] for t in perm) for perm in perms} & classes - {c}
        if members and not any(c in held for held in orbits.values()):
            orbits[c] = members
    return orbits


@np.errstate(over="ignore", invalid="ignore")  # overflowed entries become (0, inf)
def _galerkin_block(p: ModelParams, block: ParityBlock, raw: tuple) -> BallMatrix:
    """The ball matrix with entries -(1 + lam sigma / kappa_k^2)
    delta_{k,ell} + (q phi_ell, phi_k) / kappa_ell on the modes of one
    parity class of split_axes(q), from raw = (qm, qr, q.axes), q's raw
    midpoint and radius (series._raw_mid_rad) and their lattice; every
    entry between two classes is an exact zero.

    The block is Rump's midpoint-radius form, as in series.multiply: the
    float sums of galerkin_matrix_point at the raw midpoint qm of q and at
    the raw radius _rump_radius(qm, qr, t), which carries the midpoint sum's
    rounding (Higham, lemma 3.1), are scaled in place by the weights fl(c_k)
    and fl(c_ell 2^-d / fl(pi^2 |ell|^2)); the diagonal dm = fl(1 + fl(lam
    sigma) / fl(pi^4 |k|^4)) joins the midpoint, and gamma_t dm the radius.
    With c_k, pi^2 and pi^4 each within one rounding, t counts for a
    coefficient of q 2^d - 1 factors in its sum, 2 for the row weight, 5
    for the column weight (c_ell, pi^2 and its product by |ell|^2, the
    quotient, the product) and 1 for the diagonal; for lam sigma /
    kappa_k^2 4 in the quotient, 1 for adding 1 and 1 for the diagonal: t =
    2^d + 7.  Gathered terms are zero or normal doubles, and an
    off-diagonal entry whose radius sum is zero gathers only point zeros:
    its midpoint is +0.0 and its radius is set to zero, so later products
    meet no subnormal radii.  Entries are computed elementwise, so a block
    holds the one-block assembly's bits on its rows and columns.
    """
    qm, qr, lattice = raw
    d = len(block.parity)
    t = 2**d + 7
    mid, rad = _galerkin_sums(_sums_plan(block), [qm, _rump_radius(qm, qr, t)], lattice)
    diag = np.arange(block.size)
    free = rad == 0.0
    free[diag, diag] = False
    k2, row = block.weights()
    col = row * 0.5**d / (PI2_BALL[0] * k2)
    for s in (mid, rad):
        s *= row[:, None]
        s *= col
    dm = 1.0 + (p.lam * p.sigma) / (PI4_BALL[0] * (k2 * k2))
    mid[diag, diag] -= dm
    rad[diag, diag] = _rump_radius(dm, rad[diag, diag], t)
    mid, rad = _ball_up(mid, rad, t, _gamma(t))
    rad[free] = 0.0
    return BallMatrix(mid, rad)


def _sub_block(ball: BallMatrix, big: ParityBlock, block: ParityBlock) -> BallMatrix:
    """The principal sub-ball of ball, the block of class big, on the modes
    of block, the same class at a smaller truncation: block's per-axis
    indices are a prefix of big's, and a grid that holds the origin drops
    it, first in its order."""
    rows = np.ravel_multi_index(np.ix_(*(np.arange(a.size) for a in block.axes)),
                                tuple(a.size for a in big.axes)).ravel()
    if block.size < rows.size:
        rows = rows[1:] - 1
    cut = np.ix_(rows, rows)
    return BallMatrix(ball.mid[cut], ball.rad[cut])


# the tail contraction that an escalation stops at and a tau >= 1 aims for
TAU_TARGET = 0.5


def next_truncation(q: CosineSeries, split: tuple, n: int, tau: float, avail: float) -> int | None:
    """The smallest N > n with N >= n sqrt(tau / TAU_TARGET): at n's K_N,
    flat in N, tau_formula is tau (n/N)^2 there.  Cut down to the largest N
    whose kn_stage_bytes fit in avail; None where tau (n/N)^2 is still >= 1
    there."""
    lo, hi = n, max(n + 1, math.ceil(n * math.sqrt(tau / TAU_TARGET))) + 1
    while hi - lo > 1:  # the charge grows with N: bisect for the largest that fits
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if kn_stage_bytes(q, mid, split) <= avail else (lo, mid)
    return lo if lo > n and tau * (n / lo) ** 2 < 1.0 else None


def rule_of_thumb_n(q_h2: float) -> int:
    return max(4, math.ceil(0.7 * math.sqrt(q_h2)))


def inverse_bounds(p: ModelParams, lin: Linearization, ns) -> list:
    """The finite inverse bound K_N and the full bound K at each truncation
    of ns, per entry an InverseBound or the CertificationError that stopped
    it there, with charges checked against one memory reading.  The integer
    truncations share one pass (_kn_pass).  An entry None escalates: the
    rule-of-thumb rung joins that pass, then at most two passes follow,
    each at the truncation the last predicts, until tau <= TAU_TARGET; it
    gives the last bound certified, else the last failure.
    """
    avail = operator.available_memory_bytes()
    rung = rule_of_thumb_n(lin.q_h2)
    result = _kn_pass(p, lin, {rung if n is None else n for n in ns}, avail)
    if None in ns:
        n, best = rung, None
        for _ in range(3):  # the rung and at most two predicted passes
            if n not in result:
                result.update(_kn_pass(p, lin, [n], avail))
            ib = result[n]
            if isinstance(ib, CertificationError):
                error, n = ib, ib.suggested_n
            else:
                best = ib
                if ib.tau <= TAU_TARGET:
                    break
                n = next_truncation(lin.q, split_axes(lin.q), n, ib.tau, avail)
            if n is None:
                break
        result[None] = error if best is None else best
    return [result[n] for n in ns]


def _kn_pass(p: ModelParams, lin: Linearization, ns, avail: float) -> dict:
    """{n: InverseBound or CertificationError} for each truncation of ns.

    Every member of the Galerkin ball matrix is block-diagonal by the
    parity classes, its blocks members of the block balls
    (_galerkin_block), so the 2-norm of its inverse is the largest of
    theirs.  The blocks are walked in order, each assembled, bounded and
    dropped before the next, with K_N so far as its floor: one Cholesky
    (inverse_norm2_at_most) proves most blocks' inverses no larger than the
    floor, and only a block it cannot is certified in full by
    mat_inverse_norm2_upper.  A block kept at or below the floor cannot
    raise K_N, so K_N is the largest of every block's full certificate;
    the first block, with the floor 0, is always certified.  A block that
    fails stops its truncation there.  K is k_formula(K_N, tau) rounded up.

    Blocks that an axis permutation maps onto one another are certified
    once (parity_orbits of axis_symmetries).  For q' in q's ball the
    block of class pi c is P Y' P^T, P a permutation matrix and Y' the block
    of class c of q' o pi (or of q' o pi^-1), and Y' = Y + E with Y the
    block of class c of q', so a member of the first class's ball, and E
    the block of (q' o pi - q') phi_l / kappa_l: ||E||_2 <= ||q' o pi -
    q'||_inf / pi^2 <= eps, since kappa_l >= pi^2; eps is the symmetries'
    defect over the lower end of pi^2, rounded up.  So where the first
    class passes the Cholesky test at the tightened floor 1/(1/K_N + eps)
    (inverse_norm2_at_most with eps), every member's inverse is at most K_N
    and no member is assembled.  Where it does not, the first class takes
    the plain test (in the same call, on the same G), and its members are
    assembled and bounded one by one, as any other block (so on a q far
    from symmetric).  K_N is then the same bits as with every block walked,
    wherever the skipped members would have passed the plain test.  The
    orbits are formed once, at the largest truncation; a smaller one skips
    a member it lacks.

    The truncations share one walk, class by class, from the largest
    truncation that needs a class down.  The class is assembled once, at
    the largest, and each smaller truncation takes the principal sub-block
    (_sub_block) of the block just certified, which is then dropped: the
    same bits, as every entry is formed elementwise from weights and a
    rounding budget that do not depend on the truncation.  Each truncation
    keeps its own floor, cleared classes and failure, so it decides as it
    would alone.  Every truncation is charged alone (kn_stage_bytes), as a
    cut fits in the charge of the truncation it is cut from; the charges
    are checked first, against avail bytes, and one that does not fit fails
    at stage kn_bound, with no suggestion.  q's raw arrays and symmetries
    are read once, after the charges pass.  A tau >= 1 suggests
    next_truncation, else names it and its charge; a tau that is not
    finite (tau_formula overflows) suggests none.
    """
    q = lin.q
    split = split_axes(q)
    result = {}
    for n in set(ns):
        short = memory_shortfall(kn_stage_bytes(q, n, split),
                                 f"truncation n={n} ({count_text(n**q.dim - 1)} modes)",
                                 "K_N stage", avail)
        if short:
            result[n] = CertificationError("kn_bound", short, n=n)
    live = sorted(set(ns) - set(result))  # the truncations still running
    classes = {n: {block.parity: block for block in parity_blocks(split, n)} for n in live}
    kn = dict.fromkeys(live, 0.0)
    if live:
        qm, qr = _raw_mid_rad(q)[:2]
        perms, defect = axis_symmetries(qm, qr, q.parity)
        eps = _up(defect / PI2.lo)
        orbits = parity_orbits(classes[live[-1]].values(), perms)
    for cls in list(classes[live[-1]]) if live else ():  # a cleared class leaves classes[n]
        ball = above = None  # the last block certified in this class, and its ParityBlock
        for n in [n for n in reversed(live) if cls in classes[n]]:
            block = classes[n][cls]
            # the cut replaces the block it is cut from
            ball = (_galerkin_block(p, block, (qm, qr, q.axes)) if ball is None
                    else _sub_block(ball, above, block))
            above = block
            # a leader tries the tightened floor first, then the plain one on the same G
            proved = inverse_norm2_at_most(ball, kn[n], eps if cls in orbits else 0.0)
            if cls in orbits and proved == eps:
                for member in orbits[cls]:
                    classes[n].pop(member, None)
            elif proved is None:
                try:
                    kn[n] = max(kn[n], mat_inverse_norm2_upper(ball)[0])
                except IntervalDomainError as exc:
                    result[n] = CertificationError(
                        "kn_bound", f"finite inverse not certified at n={n} on parity class "
                        f"{block.label} ({block.size} modes): {exc}", suggested_n=2 * n, n=n)
                    result[n].__cause__ = exc
                    live.remove(n)
        del ball  # before the next class's block is formed
    cb = table_constants(q.dim).cb
    for n in live:
        tau = tau_formula(kn[n], lin.q_sup, lin.q_h2, cb, n).hi
        if not math.isfinite(tau):
            result[n] = CertificationError(
                "inverse_bound", f"tail contraction {tau} not finite at n={n}: no truncation predicted",
                n=n)
        elif not tau < 1.0:
            why = f"tail contraction {tau:.4g} >= 1 at n={n}"
            if (suggested := next_truncation(q, split, n, tau, avail)) is None:
                want = next_truncation(q, split, n, tau, math.inf)
                why += "; " + memory_shortfall(kn_stage_bytes(q, want, split),
                                               f"the predicted truncation n={want}", "K_N stage", avail)
            result[n] = CertificationError("inverse_bound", why, suggested, n)
        else:
            result[n] = InverseBound(kn=kn[n], tau=tau, k=k_formula(kn[n], tau).hi, n=n)
    return result
