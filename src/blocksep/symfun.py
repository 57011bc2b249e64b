"""Fibonacci-weighted symmetric-function route and its bivariate refinement.

e_r evaluated at the block series (S_1, S_2, ...) generates skeletons with
exactly r blocks; weighting e_r by F_{r+2} counts their legal decorations,
by 2^r all decorations, by 1 none. Refining by the number of overlined
blocks replaces F_{r+2} with the coefficients C(r-m+1, m).
"""

from __future__ import annotations

from collections.abc import Callable
from operator import mul

from .fibonacci import fib, fib_polynomial
from .qseries import (SlotOverflowError, TruncatedSeries, _decode_rows, max_block_count,
                      overpartition_numbers, partition_numbers)


def elementary_symmetric_series(order: int) -> list[TruncatedSeries]:
    """e_0 .. e_top of the block series S_1..S_order, truncated; top = max_block_count(order).

    All ranks are packed into one int per power of q: ys[k] holds e_r[k] in
    the w-bit slot r. Below q^(order+1), S_j = q^j + q^(2j) + q^(3j) for
    j > m = order // 4 and any four such sizes sum past the order, so those
    sizes give the start state ys = 1 + y*e1 + y^2*e2 + y^3*e3, with the
    closed forms of e1, e2 and e3 that `transfer.matrix_product_gf` states
    (this loop computes its own). Each size j = m..1 then multiplies by
    1 + y*S_j: t[k] = ys_old[k-j] + t[k-j] is ys_old*S_j, added one rank up
    by ys[k] += t[k] << w. Before pass j, ys counts skeletons with all parts
    above j, so ys[1..j] are zero: the pass sets ys[j] = y*q^j and works
    from k = 2j on. Slot r of ys[k] (of t[k]) counts the r-block
    ((r+1)-block) skeletons of weight k with all parts >= j, a subset of
    those e_r[k] (e_{r+1}[k]) counts, which are partitions of k: every slot
    stays <= p(order), so w is that bound's bit length plus a spare bit and
    no slot carries into the next. Decode checks each packed int once
    against the spare bit of every rank and the bits above the top rank,
    raising SlotOverflowError if any is set, then unpacks one rank at a
    time. Every e_r with r > top, r(r+1)/2 > order, is zero and not returned.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    n, m, top = order + 1, order // 4, max_block_count(order)
    w = partition_numbers(order)[-1].bit_length() + 1
    ys = [1] + [0] * order
    for k in range(m + 1, n):
        third = (k - 1) // 3  # largest a with 3a < k
        e1 = 1 + (k % 2 == 0 and k > 2 * m) + (k % 3 == 0 and k > 3 * m)
        e2 = (max(0, (k - 1) // 2 - m) + max(0, third - m)
              + max(0, (third - k) // 2 - (m - k) // 2))
        e3 = (max(0, k - 3 * m - 3) ** 2 + 6) // 12
        ys[k] = e1 << w | e2 << 2 * w | e3 << 3 * w
    for j in range(m, 0, -1):
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

    rows[n][m] = b(n, m) for n = 0..order, each row trimmed of trailing
    zeros; row sums give b(n) and the m = 0 column gives p(n). b(n, m) sums,
    over the number of blocks r, the skeleton count [q^n] e_r times the
    number of r-block decorations with m overlines, C(r-m+1, m).

    Each row is one packed dot product with the weights
    W_r = sum_m C(r-m+1, m) * 2^(m*v), so slot m of row n is b(n, m). Every
    partial sum adds nonnegative terms, and b(n, m) <= b(n) <= p~(n) <=
    p~(order), so v is that bound's bit length plus a spare bit and no slot
    carries into the next; `_decode_rows` checks and unpacks the rows.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    es = elementary_symmetric_series(order)
    v = overpartition_numbers(order)[-1].bit_length() + 1
    weights = [sum(c << m * v for m, c in enumerate(fib_polynomial(r))) for r in range(len(es))]
    return _decode_rows(_row_dots(es, weights), v)

