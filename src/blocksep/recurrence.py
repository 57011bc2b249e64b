"""Normalized recurrence and Euler-factorized route to the counting series.

Pulling the Euler factor 1/(1-q^j) out of each transfer matrix leaves the
normalized matrices [[1, q^j], [q^j, 1-q^j]] = I + q^j * G with
G = [[0, 1], [1, -1]]. Folding (1, 0) through them step by step is the
update

    f0 <- f0 + q^n * f1
    f1 <- q^n * f0 + (1 - q^n) * f1

and the counting series is the final f0 + f1 divided by (q)_inf, Euler's
pentagonal series. The matrices commute, so Euler's identity
prod_{n>=1} (1 + z q^n) = sum_k z^k q^(T_k) / (q)_k, T_k = k(k+1)/2
(Andrews, The Theory of Partitions, Cor. 2.2), gives the whole product as
sum_k G^k q^(T_k) / (q)_k, and only k with T_k <= order contribute. Since
G^2 = I - G, each power is G^k = a_k I + b_k G with
(a_{k+1}, b_{k+1}) = (b_k, a_k - b_k); a_k + b_k = F(2-k). The f1 part
has negative coefficients, which is why the series type is signed.
One kernel, `_euler_sum`, sums sum_k c_k q^(T_k) / (q)_k by Horner's rule
for given weights c_k, and has three callers: `normalized_recurrence`
(c_k = a_k for f0, b_k for f1), the route (the total, c_k = F(2-k)) and
the triangle below (c_k(t)).

A marker t on the overlined transition turns G into G_t = [[0, t], [1, -1]]
with G_t^2 = t I - G_t, so G_t^k = a_k I + b_k G_t with
(a_{k+1}, b_{k+1}) = (t b_k, a_k - b_k) and the total weights are
c_k(t) = a_k + t b_k. Dividing that total by (q)_inf gives
sum_m b(n, m) t^m at q^n: `euler_factorized_triangle` evaluates it at
t = 2^v (Kronecker substitution), so the same fold and division run on
plain ints and each coefficient packs one row of the triangle.
"""

from __future__ import annotations

from itertools import accumulate, repeat

from .qseries import (TruncatedSeries, _decode_rows, _pentagonal, _sparse_divide, _Value,
                      euler_inverse, max_block_count, overpartition_numbers)


class StatePair(_Value):
    """Row vector of state weights: f0 ends plain, f1 ends overlined."""

    __slots__ = ("f0", "f1")

    def __init__(self, f0: TruncatedSeries, f1: TruncatedSeries) -> None:
        for f in (f0, f1):
            if not isinstance(f, TruncatedSeries):
                raise TypeError(f"state weights must be TruncatedSeries, got {type(f).__name__}")
        if f0.order != f1.order:
            raise ValueError(f"state weights carry mixed orders {f0.order} and {f1.order}")
        set_f0, set_f1 = self._setters
        set_f0(self, f0)
        set_f1(self, f1)


def normalized_recurrence(order: int) -> StatePair:
    """The normalized pair (1, 0) * prod_{n=1..order} (I + q^n G), by Euler's identity.

    (1, 0) * G^k = (a_k, b_k), so f0 sums the weights a_k and f1 the b_k.
    """
    a, b = zip(*_g_powers(order))
    return StatePair(TruncatedSeries(_euler_sum(order, a)),
                     TruncatedSeries(_euler_sum(order, b)))


def euler_factorized_gf(order: int) -> TruncatedSeries:
    """Counting series, recurrence route: the normalized total divided by (q)_inf."""
    return euler_inverse(order, TruncatedSeries(_normalized_total(order)))


def euler_factorized_triangle(order: int) -> tuple[tuple[int, ...], ...]:
    """Rows of b(n, m) for n = 0..order, recurrence route: the t-weighted total at t = 2^v.

    Z[t] -> Z, t -> 2^v is a ring map, so the Horner fold and the pentagonal
    division of the total, both on plain ints, leave sum_m b(n, m) 2^(m v) at
    q^n exactly. Their intermediate values may be negative or of any size;
    only the result needs the width: b(n, m) <= b(n) <= p~(order), so v is
    that bound's bit length plus a spare bit, as in `symfun.bivariate_gf`,
    and the one decode both triangles share, `qseries._decode_rows`, checks them.
    """
    v = overpartition_numbers(order)[-1].bit_length() + 1  # a negative order raises here
    return _decode_rows(_sparse_divide(_normalized_total(order, 1 << v), _pentagonal()), v)


def _normalized_total(order: int, t: int = 1) -> list[int]:
    """f0 + f1 of `normalized_recurrence` with marker t: c_k = a_k + t b_k, F(2-k) at t = 1."""
    return _euler_sum(order, tuple(a + t * b for a, b in _g_powers(order, t)))


def _g_powers(order: int, t: int = 1) -> list[tuple[int, int]]:
    """(a_k, b_k) of G_t^k = a_k I + b_k G_t for k = 0..K, K = max_block_count(order).

    From (1, 0), (a, b) <- (t b, a - b); a negative order raises.
    """
    pairs, a, b = [], 1, 0
    for _ in range(max_block_count(order) + 1):
        pairs.append((a, b))
        a, b = t * b, a - b
    return pairs


def _euler_sum(order: int, c: tuple[int, ...]) -> list[int]:
    """sum_k c_k q^(T_k) / (q)_k for k = 0..K, K = len(c) - 1, by Horner.

    q^(T_k) / (q)_k = y_1 .. y_k with y_k = q^k / (1 - q^k), so the sum
    folds from the inside out: acc <- c_{k-1} + y_k * acc for k = K down to
    1, from acc = c_K. The factors outside step k shift by T_{k-1}, so acc
    keeps order - T_{k-1} + 1 coefficients after it, exactly k more than
    before: the shift by k prepends k zeros and drops nothing. Each step is
    that shift, one strided prefix sum per residue and acc[0] = c_{k-1}.
    """
    top = len(c) - 1
    acc = [c[top]] + [0] * (order - top * (top + 1) // 2)
    for k in range(top, 0, -1):
        acc[:0] = repeat(0, k)
        for r in range(k, min(2 * k, len(acc))):
            acc[r::k] = accumulate(acc[r::k])
        acc[0] = c[k - 1]
    return acc
