import math

import mpmath
import numpy as np
import pytest

from balls import width
from conftest import make_random_series
from okvalid import embeddings
from okvalid.embeddings import equiv_factor, recompute_cmbar, table_constants
from okvalid.series import evaluate_grid, multiply, norm


def test_table_values():
    assert table_constants(1).cm_bar == 0.149072
    assert table_constants(2).cb == 1.488231
    assert table_constants(3).cm == 1.081202
    with pytest.raises(ValueError):
        table_constants(4)


def test_cmbar_table_consistency_small_cut():
    # full-ncut reproduction is acceptance criterion 1; here a cheap cut
    iv = recompute_cmbar(1, 500)
    assert 0.1490 <= iv.hi <= 0.1492
    # the leading term alone: c_1^2 / kappa_1^2 = 2 / pi^4
    assert iv.lo >= math.sqrt(2.0 / math.pi**4) - 1e-12


def test_cmbar_exact_value_d1():
    # d=1 the lattice sum is 2 zeta(4) / pi^4 = 1/45
    exact = float(mpmath.sqrt(mpmath.mpf(1) / 45))
    iv = recompute_cmbar(1, 1000)
    assert iv.lo <= exact <= iv.hi


def test_cmbar_monotone_nesting():
    outer = recompute_cmbar(2, 300)
    inner = recompute_cmbar(2, 600)
    assert outer.lo <= inner.lo and inner.hi <= outer.hi


def test_cmbar_rejects_bad_args():
    with pytest.raises(ValueError):
        recompute_cmbar(1, 1)
    with pytest.raises(ValueError):
        recompute_cmbar(5, 100)


def _quartic_sum_3d_loops(n: int):
    """The 3-d weighted quartic sum by per-k1 and per-k3 loops: the pair
    counts r2 up to 2 (n - 1)^2 by np.add.at, then one dot of r2 with 1 / (s
    + k3^2)^2 per k3."""
    smax = 2 * (n - 1) ** 2
    r2 = np.zeros(smax + 1)
    sq = np.arange(n, dtype=np.int64) ** 2
    w2 = np.where(np.arange(n) > 0, 2.0, 1.0)
    for k1 in range(n):
        np.add.at(r2, k1 * k1 + sq, (2.0 if k1 else 1.0) * w2)
    total = 0.0
    svals = np.arange(smax + 1, dtype=np.float64)
    for k3 in range(n):
        lo_s, hi_s = (1 if k3 == 0 else 0), min(n * n - k3 * k3, smax + 1)
        if hi_s > lo_s:
            t = svals[lo_s:hi_s] + float(k3 * k3)
            total += (2.0 if k3 else 1.0) * float(np.dot(r2[lo_s:hi_s], 1.0 / t**2))
    return total


@pytest.mark.parametrize("n", [2, 3, 7, 24, 60])
def test_three_square_counts_and_sum_match_the_loops(n):
    # the counts are exact: every k in (-n, n)^3 with 0 < |k|^2 < n^2, by
    # brute force, and the classical r_3(t) at its first t
    k = np.indices((2 * n - 1,) * 3).reshape(3, -1) - (n - 1)
    t = (k**2).sum(axis=0)
    want = np.bincount(t[(t > 0) & (t < n * n)], minlength=n * n)
    got = embeddings._three_square_counts(n)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert list(got[:min(n * n, 6)]) == [0, 6, 12, 8, 6, 24][:min(n * n, 6)]
    # the sum agrees with the loops' within the slack, inside the enclosure
    loops = _quartic_sum_3d_loops(n)
    iv = embeddings._weighted_quartic_sum(3, n)
    assert iv.lo <= loops <= iv.hi
    assert abs(0.5 * (iv.lo + iv.hi) - loops) <= (n * n + 67) * 2.0**-52 * loops


def test_equiv_factor_oracle():
    ref = float(mpmath.sqrt(1 + mpmath.pi**4) / mpmath.pi**2)
    iv = equiv_factor()
    assert iv.lo <= ref <= iv.hi
    assert iv.lo > 1.0
    assert width(iv) < 1e-13


def test_equiv_factor_inequality(rng):
    factor = equiv_factor().hi
    for _ in range(50):
        u = make_random_series(rng, (7,))
        h2 = norm(u, "H", 2)
        hbar2 = norm(u, "Hbar", 2)
        assert h2.lo <= factor * hbar2.hi + 1e-12
        assert hbar2.lo <= h2.hi + 1e-12  # first inequality of the equivalence


def test_cmbar_below_equiv_times_cm():
    for d in (1, 2, 3):
        c = table_constants(d)
        assert c.cm_bar <= equiv_factor().hi * c.cm


@pytest.mark.parametrize("dim,extent", [(1, (8,)), (2, (5, 5)), (3, (3, 3, 3))])
def test_sup_embedding_necessary_condition(rng, dim, extent):
    cm_bar = table_constants(dim).cm_bar
    pts = np.linspace(0.0, 1.0, {1: 10_000, 2: 100, 3: 22}[dim])
    count = {1: 400, 2: 300, 3: 300}[dim]
    for _ in range(count):
        u = make_random_series(rng, extent)
        sup_sample = float(np.max(np.abs(evaluate_grid(u, [pts] * dim))))
        assert sup_sample <= cm_bar * norm(u, "Hbar", 2).hi + 1e-10


def test_banach_algebra_necessary_condition(rng):
    cb = table_constants(1).cb
    for _ in range(1000):
        u = make_random_series(rng, (5,), zero_mean=False)
        v = make_random_series(rng, (4,), zero_mean=False)
        lhs = norm(multiply(u, v), "H", 2).lo
        rhs = cb * norm(u, "H", 2).hi * norm(v, "H", 2).hi
        assert lhs <= rhs + 1e-10
