"""Newton's float cosine-product convolution, on matrix products.

The product of cosine series factorizes per axis: with raw coefficients
(alpha_k c_k, see okvalid.series), the fold of a and b is

    out[k] = sum_{i,j} a_i b_j prod_t S(k_t; i_t, j_t) / 2,
    S(k; i, j) = [k = i + j] + [k = |i - j|],

so it contracts one axis at a time.  Along the last axis each row of a is
a Toeplitz-plus-Hankel matrix in (k, j), and every earlier axis is a small
dense 0/1/2 matrix S in (i j, k): a product is a few gathers and gemms.
The S matrices and the last axis's gather tables depend only on indices:
each is built once per index set, memoised read-only, and shared by every
later product (Newton's iterates repeat a few).  There is no error bound
here; the ball product (series.multiply) keeps its own fold and running
error bound.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def _single_parity(support: np.ndarray) -> list:
    """Per axis, the parity of every index where support holds, or None
    where both parities occur."""
    out = []
    for j in range(support.ndim):
        along = np.moveaxis(support, j, 0)
        even, odd = along[0::2].any(), along[1::2].any()
        out.append(None if even and odd else int(odd))
    return out


def _parity_range(n: int, parity) -> np.ndarray:
    """The indices below n, those of one parity where parity is given."""
    return np.arange(n) if parity is None else np.arange(parity, n, 2)


@functools.lru_cache(maxsize=64)
def _axis_product(rows: tuple, cols: tuple, targets: tuple) -> np.ndarray:
    """S(k; i, j) / 2 for the indices i in rows, j in _parity_range(*cols)
    and k in _parity_range(*targets), as the read-only matrix (i j; k),
    built by two scatters through 2-d index arrays and shared by every
    product with the same indices."""
    i, j = np.array(rows, dtype=np.int64)[:, None], _parity_range(*cols)[None, :]
    size, parity = targets
    step = 1 if parity is None else 2
    s = np.zeros((i.size, j.size, _parity_range(size, parity).size))
    at = np.broadcast_arrays(np.arange(i.size)[:, None], np.arange(j.size)[None, :])
    s[(*at, (i + j) // step)] += 0.5
    s[(*at, np.abs(i - j) // step)] += 0.5
    s = s.reshape(-1, s.shape[2])
    s.flags.writeable = False
    return s


@functools.lru_cache(maxsize=64)
def _last_axis_gathers(n: int, cols: tuple, targets: tuple) -> tuple:
    """The indices of a[k - j], a[k + j] and, for k > 0, a[j - k] in a
    row of n entries padded by one zero at index n, which every index
    outside the row reads, for j in _parity_range(*cols) and k in
    _parity_range(*targets): three read-only (j, k) tables shared by every
    product with the same indices."""
    j, k = _parity_range(*cols)[:, None], _parity_range(*targets)[None, :]
    out = tuple(np.where(ok & (i >= 0) & (i < n), i, n)
                for i, ok in ((k - j, True), (k + j, True), (j - k, k > 0)))
    for g in out:
        g.flags.writeable = False
    return out


def point_conv(a: np.ndarray, b: np.ndarray, budget: float, floor: int) -> np.ndarray:
    """The fold of raw float arrays a (the sparser factor) and b.

    Along the last axis each row of a becomes its Toeplitz-plus-Hankel
    matrix sum_i a_i S(k; i, j): three gathers of a[k - j], a[k + j] and,
    for k > 0, a[j - k] from the row padded by one zero, which every index
    outside the row reads.  One matrix product contracts that axis with b;
    each earlier axis t is one (batched) product with the dense S_t / 2 on
    a's populated indices, b's and the targets.  Each axis of b, and of the
    targets, is compacted to its parity where it has one, so the other
    parity holds exact zeros; so does every entry that only products with a
    zero factor reach.  The first axis of a is taken in chunks whose arrays
    hold at most budget times the output's entries, or floor.
    """
    d = a.ndim
    full = np.zeros(tuple(na + nb - 1 for na, nb in zip(a.shape, b.shape)))
    populated = a != 0.0
    rows = [np.flatnonzero(populated.any(axis=tuple(s for s in range(d) if s != t))) for t in range(d)]
    if rows[0].size == 0:
        return full
    parity = _single_parity(b != 0.0)
    target = [None if pb is None or pa is None else (pa + pb) % 2
              for pa, pb in zip(_single_parity(populated), parity)]
    col_keys, tgt_keys = tuple(zip(b.shape, parity)), tuple(zip(full.shape, target))
    cols = [_parity_range(*key) for key in col_keys]
    tgts = [_parity_range(*key) for key in tgt_keys]
    rev = tuple(range(d - 1, -1, -1))
    # a's rows along the last axis, which leads, and a zero at index n
    n = a.shape[-1]
    pad = np.zeros((n + 1,) + tuple(r.size for r in rows[:-1]))
    pad[:n] = np.moveaxis(a[np.ix_(*rows[:-1], range(n))], -1, 0)
    gathers = _last_axis_gathers(n, col_keys[-1], tgt_keys[-1])
    # b / 2 as the matrix (j_{d-1}; j_{d-2}, ..., j_0)
    bt = (0.5 * b[np.ix_(*cols)]).transpose(rev).reshape(cols[-1].size, -1)
    if d == 1:
        full[tgts[0]] = bt[:, 0] @ (pad[gathers[0]] + pad[gathers[1]] + pad[gathers[2]])
        return full
    S = [_axis_product(tuple(r.tolist()), *keys) for r, *keys in zip(rows, col_keys, tgt_keys[:-1])]
    I, J, K = ([x.size for x in xs] for xs in (rows, cols, tgts))
    # entries per row of a's first axis: the gathered matrices with one
    # gather's temporary, and each product's result but the last
    per_row = 2 * J[-1] * K[-1] * math.prod(I[1:-1]) + sum(
        K[-1] * math.prod(I[1:t]) * math.prod(J[:t]) * math.prod(K[t:-1]) for t in range(1, d))
    chunk = max(1, int(max(budget * full.size, floor) // per_row))
    acc = np.zeros(K[::-1])
    for lo in range(0, I[0], chunk):
        c = min(chunk, I[0] - lo)
        rows0 = slice(lo, lo + c)
        g = pad[gathers[0], rows0]
        g += pad[gathers[1], rows0]
        g += pad[gathers[2], rows0]
        # (k_{d-1}, i_0, ..., i_{d-2}; j_{d-2}, ..., j_0)
        x = g.reshape(J[-1], -1).T @ bt
        pre = K[-1] * c * math.prod(I[1:-1])
        for t in range(d - 2, -1, -1):
            # (pre, i_t j_t, post) -> (pre, post, k_t): the pair sits
            # between a's earlier rows and b's earlier columns
            pre //= I[t] if t else c
            s = S[t] if t else S[0][lo * J[0]:(lo + c) * J[0]]
            x = x.reshape(pre, s.shape[0], -1)
            x = x[:, :, 0] @ s if x.shape[2] == 1 else np.matmul(x.transpose(0, 2, 1), s)
        acc += x.reshape(acc.shape)
    full[np.ix_(*tgts)] = acc.transpose(rev)
    return full
