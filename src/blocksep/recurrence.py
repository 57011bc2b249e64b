"""Normalized recurrence and Euler-factorized route to the counting series.

Pulling the Euler factor 1/(1-q^j) out of each transfer matrix leaves the
normalized matrices [[1, q^j], [q^j, 1-q^j]]; folding (1, 0) through them
gives a pair whose update per step n is

    f0 <- f0 + q^n * f1
    f1 <- q^n * f0 + (1 - q^n) * f1

and the counting series is the final f0 + f1 divided by (q)_inf, Euler's
pentagonal series. The f1 iterates pick up negative coefficients along the
way, which is why the series type is signed.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import add, sub

from .qseries import TruncatedSeries, euler_inverse
from .transfer import StatePair


def iter_normalized_pairs(order: int) -> Iterator[StatePair]:
    """Yield the normalized pair after steps n = 0, 1, .., order.

    Step n only touches coefficients from q^n up, so the low-order part of
    f0 + f1 freezes as the iteration proceeds. Each yield is a snapshot of
    the in-place scan; a negative order raises at the call.
    """
    return map(_snapshot, _scan(order))


def normalized_recurrence(order: int) -> StatePair:
    """The normalized pair after the full scan n = 1..order."""
    for pair in _scan(order):
        pass
    return _snapshot(pair)


def _scan(order: int) -> Iterator[tuple[list[int], list[int]]]:
    """Steps n = 0..order over two plain lists, updated in place as slices shifted by n."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    f0, f1 = [1] + [0] * order, [0] * (order + 1)

    def step(n: int) -> tuple[list[int], list[int]]:
        if n:
            kept = order + 1 - n
            old_f0, shifted_f1 = f0[:kept], f1[:kept]
            f0[n:] = map(add, f0[n:], shifted_f1)
            f1[n:] = map(add, f1[n:], map(sub, old_f0, shifted_f1))
        return f0, f1

    return map(step, range(order + 1))


def _snapshot(pair: tuple[list[int], list[int]]) -> StatePair:
    return StatePair(*map(TruncatedSeries, pair))


def euler_factorized_gf(order: int) -> TruncatedSeries:
    """Counting series, recurrence route: the normalized total divided by (q)_inf."""
    return euler_inverse(order, normalized_recurrence(order).total())
