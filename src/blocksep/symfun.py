"""Fibonacci-weighted symmetric-function route and its bivariate refinement.

e_r evaluated at the block series (S_1, S_2, ...) generates skeletons with
exactly r blocks; weighting e_r by F_{r+2} counts their legal decorations,
by 2^r all decorations, by 1 none. Refining by the number of overlined
blocks replaces F_{r+2} with the coefficients C(r-m+1, m).
"""

from __future__ import annotations

from collections.abc import Callable

from .fibonacci import fib, fib_polynomial
from .qseries import TruncatedSeries, one, zero


def max_block_count(order: int) -> int:
    """Largest r whose minimal skeleton 1+2+..+r still fits: r(r+1)/2 <= order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    r = 0
    while (r + 1) * (r + 2) // 2 <= order:
        r += 1
    return r


def elementary_symmetric_series(r_max: int, order: int) -> list[TruncatedSeries]:
    """e_0 .. e_{r_max} of the block series S_1..S_order, truncated.

    One triangular pass: for each size j, update e_r += e_{r-1} * S_j with
    r descending so each size is used at most once per monomial. e_r with
    r(r+1)/2 > order comes out identically zero.
    """
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    es = [one(order)] + [zero(order) for _ in range(r_max)]
    for j in range(1, order + 1):
        # e_r needs r distinct sizes <= j, so ranks above j stay zero
        for r in range(min(r_max, j), 0, -1):
            es[r] = es[r] + es[r - 1].mul_s_block(j)
    return es


def weighted_gf(order: int, weight: Callable[[int], int]) -> TruncatedSeries:
    """Sum of weight(r) * e_r over all ranks that can contribute."""
    es = elementary_symmetric_series(max_block_count(order), order)
    acc = zero(order)
    for r, e in enumerate(es):
        acc = acc + e * weight(r)
    return acc


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
    width = (r_top + 1) // 2 + 1
    grid = [[0] * width for _ in range(order + 1)]
    for r, e in enumerate(es):
        for m, c in enumerate(fib_polynomial(r)):
            for n, en in enumerate(e.coeffs):
                if en:
                    grid[n][m] += c * en
    for row in grid:  # trim trailing zeros, keeping b(n, 0)
        while len(row) > 1 and row[-1] == 0:
            row.pop()
    return tuple(map(tuple, grid))
