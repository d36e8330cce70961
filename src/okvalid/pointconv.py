"""The cosine-product convolution on matrix products, with an a-priori
rounding bound.

The product of cosine series factorizes per axis: with raw coefficients
(alpha_k c_k, see okvalid.series), the fold of a and b is

    out[k] = sum_{i,j} a_i b_j prod_t S(k_t; i_t, j_t) / 2,
    S(k; i, j) = [k = i + j] + [k = |i - j|],

so it contracts one axis at a time.  Along the last axis each row of a is
a Toeplitz-plus-Hankel matrix in (k, j), and every earlier axis is a small
dense 0/1/2 matrix S in (i j, k): a product is a few gathers and gemms.
The S matrices and the last axis's gather tables depend only on indices:
each is built once per index set, memoised read-only, and shared by every
later product (Newton's iterates repeat a few).

An operand may hold, along an axis, only the indices of one parity: its
lattice is an (extent, parity) pair per axis, parity None where it holds
every index, as okvalid.series keeps each series on the parity that its
coefficients populate.  The fold lies on product_lattice of the two
lattices and is formed there, without a copy on the full extent.

point_conv returns, with the fold, a bound n on the roundings along any
product term's path, derived from the index sets of the call.  Any
summation order then keeps the float fold within gamma_n sum |terms| of
the exact one, plus 2^-1075 per product below the normal range (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 3).  The ball product
(series.multiply) builds its midpoint-radius enclosure on that bound, and
Newton's float product (series.multiply_point) runs on the same kernel
without it: there is one convolution in the program.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# the arrays of one chunk of a's first axis hold at most the output's
# entries or, where more, the floor's (1 MiB of doubles; at least one row)
_PARTIAL_FLOOR = 2**17


def _projections(support: np.ndarray) -> list:
    """Per axis, the indices at which support holds somewhere."""
    d = support.ndim
    return [np.flatnonzero(support.any(axis=tuple(s for s in range(d) if s != t)))
            for t in range(d)]


def _parity(indices: np.ndarray):
    """The parity of every index in indices, or None where both occur (0
    where there are none)."""
    odd = int(np.count_nonzero(indices & 1))
    return None if 0 < odd < indices.size else int(odd > 0)


def _parity_range(n: int, parity) -> np.ndarray:
    """The indices below n, those of one parity where parity is given."""
    return np.arange(n) if parity is None else np.arange(parity, n, 2)


def _parity_slice(parity) -> slice:
    return slice(None) if parity is None else slice(parity, None, 2)


def _parity_count(n: int, parity) -> int:
    return n if parity is None else (n - parity + 1) // 2


def _lattice_slices(src: tuple, dst: tuple) -> tuple:
    """(put, take): per axis, the slices of an array held on the lattice
    dst and of one held on the lattice src that hold the same modes, every
    mode that both lattices hold."""
    put, take = [], []
    for (n, p), (m, q) in zip(src, dst):
        par = q if p is None else p  # the common modes' parity
        below = 0 if None not in (p, q) and p != q else min(n, m)
        held = slice(0, _parity_count(below, par))
        strided = slice(par or 0, below, 1 if par is None else 2)
        take.append(strided if p is None else held)
        put.append(strided if q is None else held)
    return tuple(put), tuple(take)


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
def _last_axis_gathers(n: int, cols: tuple, targets: tuple, parity=None) -> tuple:
    """The positions of a[k - j], a[k + j] and, for k > 0, a[j - k] in a
    row of n entries, held on the indices _parity_range(n, parity) and
    padded by one zero after them, which every index outside the row or off
    its parity reads, for j in _parity_range(*cols) and k in
    _parity_range(*targets): three read-only (j, k) tables shared by every
    product with the same indices."""
    j, k = _parity_range(*cols)[:, None], _parity_range(*targets)[None, :]
    step, first = (1, 0) if parity is None else (2, parity)
    pad = _parity_count(n, parity)
    out = tuple(np.where(ok & (i >= first) & (i < n) & ((i - first) % step == 0),
                         (i - first) // step, pad)
                for i, ok in ((k - j, True), (k + j, True), (j - k, k > 0)))
    for g in out:
        g.flags.writeable = False
    return out


def product_lattice(a_axes: tuple, b_axes: tuple) -> tuple:
    """The lattice of the fold of arrays on the lattices a_axes and b_axes,
    each a (extent, parity) pair per axis: the extents add less one, and an
    axis keeps a parity, their sum's, where both factors have one."""
    return tuple((na + nb - 1, None if pa is None or pb is None else (pa + pb) % 2)
                 for (na, pa), (nb, pb) in zip(a_axes, b_axes))


def point_conv(a: np.ndarray, b: np.ndarray, a_axes: tuple | None = None,
               b_axes: tuple | None = None):
    """The fold of raw float arrays a (the sparser factor) and b, held on
    the lattices a_axes and b_axes ((extent, parity) per axis; default every
    index of the array), on its lattice product_lattice(a_axes, b_axes),
    and n, a bound on the roundings along any product term's path.

    Along the last axis each row of a becomes its Toeplitz-plus-Hankel
    matrix sum_i a_i S(k; i, j): three gathers of a[k - j], a[k + j] and,
    for k > 0, a[j - k] from the row padded by one zero, which every index
    outside the row or off its lattice reads.  One matrix product contracts
    that axis with b / 2; each earlier axis t is one (batched) product with
    the dense S_t / 2 on a's I_t populated indices, b's and the targets.
    Each axis of b, and of the targets, is compacted to its parity where it
    has one, so the other parity holds exact zeros, and is scattered back
    where the result's lattice holds both; every entry that only products
    with a zero factor reach is an exact zero too.  The first axis of a is
    taken in chunks whose arrays hold at most the entries of the output's
    full extent, or _PARTIAL_FLOOR.

    The roundings on one term's path: the gather's two additions; the
    scaling by b / 2; J along the last axis (one product and at most J - 1
    additions), J its compacted extent of b; at most 2 I_t per earlier
    axis, since for a target k_t and a row i_t at most two j_t have S
    nonzero, so at most 2 I_t - 1 additions are not of exact zeros, and
    the weights 0.5 and 1 are exact; and one per chunk after the first,
    where the chunks' results add up.  So

        n = 3 + J + 2 sum_{t < d-1} I_t + (chunks - 1).

    An operation counted here is exact unless it rounds (relatively) or
    underflows; where the operands are zero or at least 2^-1021 in
    magnitude, as the ball product's are, b / 2 and the gathers' sums are
    exact below the normal range, so only products underflow.
    """
    d = a.ndim
    a_axes = tuple((n, None) for n in a.shape) if a_axes is None else a_axes
    b_axes = tuple((n, None) for n in b.shape) if b_axes is None else b_axes
    out_axes = product_lattice(a_axes, b_axes)
    out_shape = tuple(_parity_count(*key) for key in out_axes)
    # a's populated indices per axis, on its lattice and in the full extent
    held = _projections(a != 0.0)
    if held[0].size == 0:
        return np.zeros(out_shape), 0
    rows = [_parity_range(*key)[h] for key, h in zip(a_axes, held)]
    # b's parity per axis: its lattice's, or its support's where that holds both
    parity = [pb if pb is not None else _parity(idx)
              for (_, pb), idx in zip(b_axes, _projections(b != 0.0))]
    target = [None if pb is None or pa is None else (pa + pb) % 2
              for pa, pb in zip(map(_parity, rows), parity)]
    col_keys = tuple((nb, pb) for (nb, _), pb in zip(b_axes, parity))
    tgt_keys = tuple((nk, pk) for (nk, _), pk in zip(out_axes, target))
    I = [r.size for r in rows]
    J = [_parity_count(*key) for key in col_keys]
    K = [_parity_count(*key) for key in tgt_keys]
    rev = tuple(range(d - 1, -1, -1))
    # a's rows along the last axis, which leads, and a zero after them
    n = a.shape[-1]
    pad = np.zeros((n + 1,) + tuple(I[:-1]))
    pad[:n] = np.moveaxis(a[np.ix_(*held[:-1])] if d > 1 else a, -1, 0)
    na, pa = a_axes[-1]
    gathers = _last_axis_gathers(na, col_keys[-1], tgt_keys[-1], pa)
    # b / 2 as the matrix (j_{d-1}; j_{d-2}, ..., j_0)
    compact = tuple(_parity_slice(pb) if own is None else slice(None)
                    for (_, own), pb in zip(b_axes, parity))
    bt = (0.5 * b[compact]).transpose(rev).reshape(J[-1], -1)
    # where the targets sit on the output's lattice
    place = tuple(_parity_slice(pk) if own is None else slice(None)
                  for (_, own), pk in zip(out_axes, target))
    if d == 1:
        acc, depth = bt[:, 0] @ (pad[gathers[0]] + pad[gathers[1]] + pad[gathers[2]]), 3 + J[0]
        return _on_lattice(acc, out_shape, place), depth
    S = [_axis_product(tuple(r.tolist()), *keys) for r, *keys in zip(rows, col_keys, tgt_keys[:-1])]
    # entries per row of a's first axis: the gathered matrices with one
    # gather's temporary, and each product's result but the last
    per_row = 2 * J[-1] * K[-1] * math.prod(I[1:-1]) + sum(
        K[-1] * math.prod(I[1:t]) * math.prod(J[:t]) * math.prod(K[t:-1]) for t in range(1, d))
    full_size = math.prod(nk for nk, _ in out_axes)
    chunk = max(1, max(full_size, _PARTIAL_FLOOR) // per_row)
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
    chunks = -(-I[0] // chunk)
    depth = 3 + J[-1] + 2 * sum(I[:-1]) + chunks - 1
    return _on_lattice(acc.transpose(rev), out_shape, place), depth


def _on_lattice(acc: np.ndarray, shape: tuple, place: tuple) -> np.ndarray:
    """The fold acc on the compacted targets as a C-contiguous array on the
    output's lattice of the given shape, the targets at place."""
    if acc.shape == shape:
        return np.ascontiguousarray(acc)
    out = np.zeros(shape)
    out[place] = acc
    return out
