"""Bipartitions of N modes and the separability bounds they imply.

For gains (h, g) and a bipartition A|B, any state separable across A|B
obeys Var(u) + Var(v) >= 2 (|sum_A h_i g_i| + |sum_B h_i g_i|); the
corresponding product bound Delta u Delta v is half of that.  Minimizing
over every bipartition gives the bound that certifies genuine N-partite
entanglement, and for three modes a hybrid trust model gives the strictly
smaller steering bound 2 min_i |h_i g_i|.

The minimum is taken over subset sums of the products h_i g_i rather
than split by split.  Modes 1..N-1 whose products are bitwise equal in
every row of a batch form a class, and a split's sums depend only on how
many modes of each class lie on side B, so a class of m modes contributes
m + 1 counts instead of 2^m subsets: tied gains, with products
(1, q, ..., q), need N sums per side, and products that are all distinct
take N - 1 doubling steps.
"""

from __future__ import annotations

import math

import numpy as np

from .states import GainVector

MAX_MODES = 20
# subset sums held at once per side, 2 MB of float64, unless one row needs
# more (2^(N-1) sums for all-distinct products at N = 20)
BLOCK_SUMS = 1 << 18


def _check_modes(n: int):
    if not 2 <= n <= MAX_MODES:
        raise ValueError(f"mode count must lie in [2, {MAX_MODES}], got {n}")


def enumerate_bipartitions(n: int):
    """All 2^(N-1) - 1 bipartitions of modes 0..N-1 as (set_a, set_b)
    frozenset pairs, mode 0 in set_a, ordered by the bitmask of set_b."""
    _check_modes(n)
    sides = (frozenset(k + 1 for k in range(n - 1) if mask >> k & 1)
             for mask in range(1, 1 << (n - 1)))
    return tuple((frozenset(range(n)) - set_b, set_b) for set_b in sides)


def _classes(products: np.ndarray):
    """Columns 1..N-1 of a (B, N) products array grouped by bitwise
    equality in every row: a (column, multiplicity) pair per class, in order
    of first occurrence."""
    classes = {}
    for k in range(1, products.shape[1]):
        key = products[:, k].tobytes()
        first, m = classes.get(key, (k, 0))
        classes[key] = (first, m + 1)
    return list(classes.values())


def _split_bounds(products: np.ndarray, classes) -> np.ndarray:
    """Sum bound 2 (|sum_A h g| + |sum_B h g|) of every distinct split of
    the classes of modes 1..N-1, for each row of a (B, N) products array, as
    a (prod(m + 1) - 1, B) array.

    A split puts c of a class's m equal products on side B and m - c on
    side A, and sits at index sum_j c_j S_j, where a class's stride S is
    the product of m + 1 over the classes before it.  Sums are filled in
    place: a class writes m blocks of S sums, each the block before it
    plus the class's product, so a class of one is a doubling step.  Side
    A holds mode 0, so its sums start from p_0 and side B's from 0; both
    add one copy at a time, as a direct sum over the side does for tied
    products, and the A side of a split is its complement, reached by
    reading A's sums backwards.
    """
    p = products.T
    sums = np.empty((2, math.prod(m + 1 for _, m in classes), p.shape[1]))
    sums[0, 0], sums[1, 0] = p[0], 0.0
    stride = 1
    for k, m in classes:
        for lo in range(stride, (m + 1) * stride, stride):
            np.add(sums[:, lo - stride:lo], p[k], out=sums[:, lo:lo + stride])
        stride *= m + 1
    np.abs(sums, out=sums)
    bounds = sums[0, -2::-1] + sums[1, 1:]
    bounds *= 2.0
    return bounds


def genuine_bounds(products) -> np.ndarray:
    """Genuine-multipartite-entanglement sum bound of each row of a (B, N)
    array of products h_i g_i.  Columns of modes 1..N-1 that are bitwise
    equal in every row form one class (see :func:`_split_bounds`), so tied
    gains need N sums per side instead of 2^(N-1); rows are taken in
    blocks so that the sums stay below BLOCK_SUMS per side."""
    products = np.atleast_2d(np.asarray(products, dtype=float))
    _check_modes(products.shape[1])
    classes = _classes(products)
    step = max(1, BLOCK_SUMS // math.prod(m + 1 for _, m in classes))
    return np.concatenate([_split_bounds(products[lo:lo + step], classes).min(axis=0)
                           for lo in range(0, len(products), step)])


def genuine_bound(gains: GainVector, n: int | None = None) -> float:
    """Genuine-multipartite-entanglement bound of one gain vector: the
    minimum of the sum bound 2 (|sum_A h g| + |sum_B h g|) over every
    bipartition A|B."""
    if n is None:
        n = gains.n_modes
    if gains.n_modes != n:
        raise ValueError(f"gain length {gains.n_modes} does not match n={n}")
    return float(genuine_bounds(gains.products())[0])


def steering_bounds(products) -> np.ndarray:
    """Genuine tripartite steering sum bound 2 min_i |h_i g_i| of each row
    of a (B, 3) array of products h_i g_i."""
    return 2.0 * np.min(np.abs(np.atleast_2d(products)), axis=1)
