"""Two-state transfer-matrix route to the counting series.

At each part size j the choices absent / present-plain / present-overlined
are encoded in a 2x2 matrix over truncated series. State 0 means the last
present block is plain, state 1 that it is overlined (which forbids
overlining the next block). Only the route is here: the literal matrices,
their row-vector product and the forward fold that the tests compare it
against live in tests/series_folds.py.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from math import isqrt
from operator import add

from .qseries import TruncatedSeries


def matrix_product_gf(order: int) -> TruncatedSeries:
    """Counting series of block-separated overpartitions, matrix route.

    Each transfer matrix is I + S_j*F with F = [[1, 1], [1, 0]], so they
    commute and the order of the sizes is a choice; sizes beyond the order
    are identity factors. Folded from the largest size down, (1, 0) times
    the matrices of the sizes above j counts the decorated partitions into
    parts above j, by the overline state of the smallest block. The sizes
    above s = isqrt(order) come at once from `_parts_above`, in about
    order^2 / (2s) additions; then each size j = s..1 is one pass in place
    over plain lists, about order additions each. Before pass j, indices
    1..j are (0, 0): the pass sets index j to (1, 1) and updates k >= 2j
    only, mostly on small counts. With a = f0*S_j and b = f1*S_j of the old
    values, the update f0 += a + b, f1 += a reads f0[k] += f1_old[k-j] +
    f0[k-j] and f1[k] += f0_old[k-j] - f1_old[k-j] + f1[k-j], because
    a[k] = f0_old[k-j] + a[k-j] and a[k-j] = f1[k-j] - f1_old[k-j].
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    n, s = order + 1, isqrt(order)
    f0, f1 = _parts_above(order, s)
    for j in range(s, 0, -1):
        old = zip(range(2 * j, n), f0[j:n - j], f1[j:n - j])  # slices before f[j] is set
        f0[j] = f1[j] = 1
        for k, g0, g1 in old:
            f0[k] += g1 + f0[k - j]
            f1[k] += g0 - g1 + f1[k - j]
    return TruncatedSeries(map(add, f0, f1))


def _parts_above(order: int, s: int) -> tuple[list[int], list[int]]:
    """(f0, f1) of (1, 0) times the matrices of the sizes s + 1..order, by part count.

    Subtracting s from every part maps the partitions of k into exactly l
    parts, all above s, one to one onto the partitions of k - l*s into l
    parts, with the same blocks in the same order, so the same decorations.
    Let g_l[x] count the decorated partitions of x into l parts by the state
    of the smallest block, and h_l[x] those whose smallest part is 1. Taking
    one 1 away leaves a partition of x - 1 into l - 1 parts that still has a
    smallest part 1, or, if that 1 was a lone block, one with all parts >= 2,
    which less 1 per part is counted by g_(l-1)[x-l]; the lone block then
    moves its state by F, as a matrix step does. So
    h_l[x] = h_(l-1)[x-1] + (g0 + g1, g0)_(l-1)[x-l], and taking 1 from
    every part of the rest gives g_l[x] = g_l[x-l] + h_l[x], one strided
    prefix sum per residue of x mod l. The empty partition counts (1, 0)
    at k = 0, layer 1 (one part) (1, 1) at every k > s, and each layer
    l >= 2 with l*(s + 1) <= order adds g_l[x] at k = l*s + x. The lists
    hold x = l.. only, as g_l and h_l vanish below x = l: index y = x - l,
    so h_(l-1) lines up unshifted and g_(l-1) shifts by l - 1.
    """
    top = order - s  # layer 1: one part, in either state, at every k > s
    g0 = g1 = [1] * top
    h0 = h1 = [1] + [0] * (top - 1)
    f0, f1 = [1] + [0] * s + g0, [0] * (s + 1) + g1
    n = order + 1
    for l in range(2, order // (s + 1) + 1):
        start = l * (s + 1)
        size = n - start
        h0 = list(map(add, h0[:size], chain(repeat(0, l - 1), map(add, g0, g1))))
        h1 = list(map(add, h1[:size], chain(repeat(0, l - 1), g0)))
        g0, g1 = h0[:], h1[:]
        for r in range(min(l, size - l)):  # a residue with one entry is its own sum
            g0[r::l] = accumulate(g0[r::l])
            g1[r::l] = accumulate(g1[r::l])
        f0[start:] = map(add, f0[start:], g0)
        f1[start:] = map(add, f1[start:], g1)
    return f0, f1
