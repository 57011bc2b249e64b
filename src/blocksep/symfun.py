"""Fibonacci-weighted symmetric-function route and its bivariate refinement.

e_r evaluated at the block series (S_1, S_2, ...) generates skeletons with
exactly r blocks; weighting e_r by F_{r+2} counts their legal decorations,
by 2^r all decorations, by 1 none. Refining by the number of overlined
blocks replaces F_{r+2} with the coefficients C(r-m+1, m).
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .fibonacci import fib, fib_polynomial
from .qseries import TruncatedSeries, partition_numbers


class SlotOverflowError(OverflowError):
    """The e_r table's decode check failed: a packed slot outgrew its width."""


def max_block_count(order: int) -> int:
    """Largest r whose minimal skeleton 1+2+..+r still fits: r(r+1)/2 <= order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return (math.isqrt(8 * order + 1) - 1) // 2


def elementary_symmetric_series(r_max: int, order: int) -> list[TruncatedSeries]:
    """e_0 .. e_{r_max} of the block series S_1..S_order, truncated.

    All ranks are packed into one int per power of q: ys[k] holds e_r[k] in
    the w-bit slot r. Below q^(order+1), S_j = q^j for j > h = order // 2 and
    any two such terms multiply to zero, so those sizes give the start state
    ys = 1 + y*(q^(h+1) + .. + q^order). Each size j = h..1 then multiplies by
    1 + y*S_j: t[k] = ys_old[k-j] + t[k-j] is ys_old*S_j, added one rank up by
    ys[k] += t[k] << w. Before pass j, ys counts skeletons with all parts
    above j, so ys[1..j] are zero: the pass sets ys[j] = y*q^j and works from
    k = 2j on. Slot r of ys[k] (of t[k]) counts the r-block ((r+1)-block)
    skeletons of weight k with all parts >= j, a subset of those e_r[k]
    (e_{r+1}[k]) counts, which are partitions of k: every slot stays <=
    p(order), so w is that bound's bit length plus a spare bit and no slot
    carries into the next. Decode raises SlotOverflowError if a slot reaches
    the spare bit or bits sit above the top rank. e_r with r(r+1)/2 > order
    comes out zero.
    """
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    n, h, top = order + 1, order // 2, max_block_count(order)
    w = partition_numbers(order)[-1].bit_length() + 1
    ys = [1] + [0] * h + [1 << w] * (order - h)
    for j in range(h, 0, -1):
        t = [0] * j + ys[:n - j]  # copied before ys[j] is set
        ys[j] = 1 << w
        for k in range(2 * j, n):
            t[k] += t[k - j]
            ys[k] += t[k] << w
    mask, spare = (1 << w) - 1, 1 << (w - 1)
    rows = [[y >> (r * w) & mask for r in range(max(top, r_max) + 1)] for y in ys]
    if any(y >> ((top + 1) * w) for y in ys) or any(c & spare for row in rows for c in row):
        raise SlotOverflowError(f"e_r slot of {w} bits overflowed at order {order}")
    return [TruncatedSeries(e) for e in list(zip(*rows))[:r_max + 1]]


def weighted_gf(order: int, weight: Callable[[int], int]) -> TruncatedSeries:
    """Sum of weight(r) * e_r over all ranks that can contribute."""
    es = elementary_symmetric_series(max_block_count(order), order)
    acc = [0] * (order + 1)
    for r, e in enumerate(es):
        w = weight(r)
        acc = [a + w * c for a, c in zip(acc, e.coeffs)]
    return TruncatedSeries(acc)


def fibonacci_weighted_gf(order: int) -> TruncatedSeries:
    """Counting series of block-separated overpartitions, symmetric route."""
    return weighted_gf(order, lambda r: fib(r + 2))


def bivariate_gf(order: int) -> tuple[tuple[int, ...], ...]:
    """Rows of b(n, m), the weight-n objects with exactly m overlined blocks.

    rows[n][m] = b(n, m) for n = 0..order, each row trimmed of trailing
    zeros; row sums give b(n) and the m = 0 column gives p(n). b(n, m) sums,
    over the number of blocks r, the skeleton count [q^n] e_r times the
    number of r-block decorations with m overlines.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    r_top = max_block_count(order)
    es = elementary_symmetric_series(r_top, order)
    # column m = sum over r of C(r-m+1, m) * e_r, built as one list per m
    columns = [[0] * (order + 1) for _ in range((r_top + 1) // 2 + 1)]
    for r, e in enumerate(es):
        low = r * (r + 1) // 2  # e_r vanishes below q^(r(r+1)/2)
        for m, c in enumerate(fib_polynomial(r)):
            column = columns[m]
            column[low:] = [a + c * x for a, x in zip(column[low:], e.coeffs[low:])]
    rows = []
    for row in zip(*columns):  # trim trailing zeros, keeping b(n, 0)
        width = len(row)
        while width > 1 and row[width - 1] == 0:
            width -= 1
        rows.append(row[:width])
    return tuple(rows)
