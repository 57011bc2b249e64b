"""Fibonacci-weighted symmetric-function route and its bivariate refinement.

e_r evaluated at the block series (S_1, S_2, ...) generates skeletons with
exactly r blocks; weighting e_r by F_{r+2} counts their legal decorations,
by 2^r all decorations, by 1 none. Refining by the number of overlined
blocks replaces F_{r+2} with the coefficients C(r-m+1, m).
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import accumulate, chain, repeat, zip_longest
from math import isqrt
from operator import add, mul

from .fibonacci import fib, fib_polynomial
from .qseries import SlotOverflowError, TruncatedSeries, max_block_count, partition_numbers


def elementary_symmetric_series(order: int) -> list[TruncatedSeries]:
    """e_0 .. e_top of the block series S_1..S_order, truncated; top = max_block_count(order).

    All ranks are packed into one int per power of q: ys[k] holds e_r[k] in
    the w-bit slot r, so y = 1 << w is one block. The sizes above
    s = isqrt(order) come by part count, with the bijection of
    `transfer._parts_above` and its step F replaced by one rank up: if g_l[x]
    counts the partitions of x into l parts by blocks and h_l[x] those with
    smallest part 1, h_l[x] = h_(l-1)[x-1] + (g_(l-1)[x-l] << w), as a lone 1
    is one more block, and g_l[x] = g_l[x-l] + h_l[x]; layer 1 puts y at
    every k > s, layer l adds g_l[x] at k = l*s + x. Each size j = s..1 then
    multiplies by 1 + y*S_j: t[k] = ys_old[k-j] + t[k-j] is ys_old*S_j, added
    one rank up by ys[k] += t[k] << w. Before pass j, ys counts skeletons with
    all parts above j, so ys[1..j] are zero: the pass sets ys[j] = y*q^j and
    works from k = 2j on. Each slot of ys, t, g and h counts the partitions of
    one weight <= order with one number of blocks, so it stays <= p(order): w
    is that bound's bit length plus a spare bit and no slot carries into the
    next. Decode checks each packed int once against the spare bit of every
    rank and the bits above the top rank, raising SlotOverflowError if any is
    set, then unpacks one rank at a time. Every e_r with r > top, that is
    r(r+1)/2 > order, is zero and not returned.
    """
    n, top = order + 1, max_block_count(order)  # a negative order raises here
    s, w = isqrt(order), partition_numbers(order)[-1].bit_length() + 1
    g, h = [1 << w] * (order - s), [1 << w] + [0] * (order - s - 1)  # layer 1: one part
    ys = [1] + [0] * s + g
    for l in range(2, order // (s + 1) + 1):
        start = l * (s + 1)
        h = list(map(add, h[:n - start], chain(repeat(0, l - 1), (x << w for x in g))))
        g = h[:]
        for r in range(min(l, n - start - l)):  # a residue with one entry is its own sum
            g[r::l] = accumulate(g[r::l])
        ys[start:] = map(add, ys[start:], g)
    for j in range(s, 0, -1):
        t = [0] * j + ys[:n - j]  # copied before ys[j] is set
        ys[j] = 1 << w
        for k in range(2 * j, n):
            t[k] += t[k - j]
            ys[k] += t[k] << w
    mask = (1 << w) - 1
    # every rank's spare bit, and (negative, so unbounded) every bit above the top rank
    bad = sum(1 << (r * w + w - 1) for r in range(top + 1)) | -(1 << (top + 1) * w)
    if any(y & bad for y in ys):
        raise SlotOverflowError(f"e_r slot of {w} bits overflowed at order {order}")
    return [TruncatedSeries([y >> r * w & mask for y in ys]) for r in range(top + 1)]


def _row_dots(es: list[TruncatedSeries], weights: list[int]) -> list[int]:
    """sum_r e_r[n] * weights[r] for each n = 0..order, one row of the table at a time.

    weights runs up to max_block_count(order); row n stops at
    max_block_count(n), since e_r[n] is zero for every larger r.
    """
    heads = [weights[:r + 1] for r in range(len(weights))]
    return [sum(map(mul, row, heads[max_block_count(n)]))
            for n, row in enumerate(zip(*(e.coeffs for e in es)))]


def weighted_gf(order: int, weight: Callable[[int], int]) -> TruncatedSeries:
    """Sum of weight(r) * e_r over all ranks that can contribute."""
    es = elementary_symmetric_series(order)
    return TruncatedSeries(_row_dots(es, [weight(r) for r in range(len(es))]))


def fibonacci_weighted_gf(order: int) -> TruncatedSeries:
    """Counting series of block-separated overpartitions, symmetric route."""
    return weighted_gf(order, lambda r: fib(r + 2))


def bivariate_gf(order: int) -> tuple[tuple[int, ...], ...]:
    """Rows of b(n, m), the weight-n objects with exactly m overlined blocks.

    rows[n][m] = b(n, m) for n = 0..order; row sums give b(n) and the m = 0
    column gives p(n). b(n, m) sums, over the number of blocks r, the
    skeleton count [q^n] e_r times the number of r-block decorations with m
    overlines, C(r-m+1, m): row n is one plain dot of e_0[n] .. e_(r_n)[n],
    r_n = max_block_count(n), with each column m <= (r_n + 1) // 2 of the
    `fib_polynomial` table. The last entry counts the word 1010.. on a
    skeleton of r_n blocks, so it is nonzero and the row comes out trimmed.
    """
    es = elementary_symmetric_series(order)  # a negative order raises here
    polys = [fib_polynomial(r) for r in range(len(es))]
    # heads[r]: the columns m <= (r + 1) // 2 of the table, each cut to ranks 0..r
    heads = [list(zip_longest(*polys[:r + 1], fillvalue=0)) for r in range(len(es))]
    return tuple(tuple(sum(map(mul, ranks, column)) for column in heads[max_block_count(n)])
                 for n, ranks in enumerate(zip(*(e.coeffs for e in es))))
