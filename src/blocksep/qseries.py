"""Truncated formal power series in q with exact integer coefficients.

The routes return this type, and the tests' reference folds compute with
its kernels; the routes themselves fold over plain lists of ints. p(n),
p~(n) and the recurrence route's Euler factor come from one loop that
divides a list by a sparse series, its terms grouped by sign under one
scale. A series is kept modulo q^(order+1); coefficients are Python ints,
so all arithmetic is exact at any size. The packed-row decode that both
triangles of b(n, m) share lives here too, so no route imports another,
and so does `_Value`, the base of every value type in the package.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import count
from math import isqrt
from operator import add


class _Value:
    """An immutable value: compared, hashed, shown and pickled by its __slots__, which
    __init__ sets once through the slots' own setters, _setters, past __setattr__."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot change {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class TruncatedSeries(_Value):
    """A formal power series truncated at a fixed order.

    Instances are immutable and hashable; every operation returns a new
    series. Binary operations require both operands to carry the same
    order: a mismatch raises instead of silently re-truncating, because
    silent truncation mismatches are the classic q-series bug.
    """

    __slots__ = ("coeffs",)  # q^0 .. q^N as a tuple of ints

    def __init__(self, coeffs: Iterable[int]) -> None:
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least the q^0 coefficient")
        for c in coeffs:
            if type(c) is not int:  # bool too: True would pass as 1
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        self._setters[0](self, coeffs)

    @property
    def order(self) -> int:
        """Highest retained exponent N."""
        return len(self.coeffs) - 1

    def _check_order(self, other: TruncatedSeries) -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        """Cauchy product truncated at the order; no route multiplies two series."""
        if isinstance(other, bool):  # True would pass as 1, as in the constructor
            raise TypeError("cannot multiply a series by a bool")
        if isinstance(other, int):
            return TruncatedSeries(c * other for c in self.coeffs)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        b = other.coeffs
        out = [0] * len(b)
        for i, a in enumerate(self.coeffs):
            if a:  # row i adds a * b[k - i] at q^k; map stops at the order
                out[i:] = map(add, out[i:], (a * c for c in b))
        return TruncatedSeries(out)

    def __rmul__(self, other: int) -> TruncatedSeries:
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    # O(N) kernels for the factors of the transfer matrices, each equal to
    # the generic product with its series (property-tested). No route calls
    # them: the tests' reference folds use them, and perfbench/spans.py
    # wraps them by name (ROADMAP item 1 retires those spans).

    def shift(self, j: int) -> TruncatedSeries:
        """Multiply by q^j, dropping exponents beyond the order."""
        if j < 0:
            raise ValueError("shift amount must be nonnegative")
        c = self.coeffs
        n = len(c)
        if j >= n:
            return TruncatedSeries((0,) * n)
        return TruncatedSeries((0,) * j + c[: n - j])

    def mul_geometric_inverse(self, j: int) -> TruncatedSeries:
        """Multiply by 1/(1 - q^j) = 1 + S_j."""
        return self + self.mul_s_block(j)

    def mul_s_block(self, j: int) -> TruncatedSeries:
        """Multiply by q^j/(1 - q^j): out[k] = c[k-j] + out[k-j]."""
        if j < 1:
            raise ValueError("j must be a positive part size")
        c = self.coeffs
        n = len(c)
        out = [0] * n
        for k in range(j, n):
            out[k] = c[k - j] + out[k - j]
        return TruncatedSeries(out)


def euler_inverse(order: int, numerator: TruncatedSeries | None = None) -> TruncatedSeries:
    """numerator / prod_{j>=1} (1 - q^j) truncated; the numerator defaults to 1.

    With the default the coefficient of q^n is p(n). The recurrence route
    divides its normalized total here, in the loop that also gives p and
    p~. The matrix route never runs that loop; the symmetric route runs it
    once, for p(order), to size its e_r slots, so a fault in it can only
    make that route raise at decode, never return a wrong value.
    """
    if numerator is None:
        return TruncatedSeries(partition_numbers(order))
    if numerator.order != order:
        raise ValueError(f"numerator of order {numerator.order} at order {order}")
    return TruncatedSeries(_sparse_divide(numerator.coeffs, _pentagonal()))


def partition_numbers(order: int) -> list[int]:
    """p(0) .. p(order): the reciprocal of Euler's pentagonal series."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _sparse_divide([1] + [0] * order, _pentagonal())


def overpartition_numbers(order: int) -> list[int]:
    """p~(0) .. p~(order): the reciprocal of Gauss's theta series.

    prod_{j>=1} (1 - q^j)/(1 + q^j) = 1 - 2 * sum_{k>=1} (-1)^(k+1) q^(k^2).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    odd, even = ((k * k for k in count(first, 2)) for first in (1, 2))
    return _sparse_divide([1] + [0] * order, (2, odd, even))


def _pentagonal() -> tuple[int, Iterator[int], Iterator[int]]:
    """1 - prod_{j>=1} (1 - q^j) = sum_{k>=1} (-1)^(k+1) q^(k(3k -+ 1)/2), as (1, plus, minus)."""
    odd, even = ((k * (3 * k + s) // 2 for k in count(first, 2) for s in (-1, 1))
                 for first in (1, 2))
    return 1, odd, even


def _sparse_divide(numerator: Iterable[int],
                   divisor: tuple[int, Iterator[int], Iterator[int]]) -> list[int]:
    """numerator / (1 - s * (sum_{g in plus} q^g - sum_{g in minus} q^g)).

    divisor is (s, plus, minus); plus and minus are endless iterators of
    disjoint ascending gaps from 1. f grows by one coefficient per n:
    numerator[n] plus s times the sum of f[n - g] over the plus gaps g <= n
    less the same sum over the minus gaps. Gap g joins its list as the
    index -g at n = g; f then holds f[0..n-1], so f[-g] is f[n - g], each
    term is one lookup and one add, and the only multiply is the one by s
    per n.
    """
    s, plus, minus = divisor
    next_plus, next_minus = next(plus), next(minus)
    f, up, down = [], [], []
    get = f.__getitem__
    for n, x in enumerate(numerator):
        if n == next_plus:
            up.append(-n)
            next_plus = next(plus)
        if n == next_minus:
            down.append(-n)
            next_minus = next(minus)
        f.append(x + s * (sum(map(get, up)) - sum(map(get, down))))
    return f


class SlotOverflowError(OverflowError):
    """A packed kernel's decode check failed: a slot outgrew its width."""


def max_block_count(order: int) -> int:
    """Largest r whose minimal skeleton 1+2+..+r still fits: r(r+1)/2 <= order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return (isqrt(8 * order + 1) - 1) // 2


def _decode_rows(packed: list[int], v: int) -> tuple[tuple[int, ...], ...]:
    """Rows of b(n, m) from packed[n] = sum_m b(n, m) * 2^(m*v), n = 0..len(packed) - 1.

    Row n has at most (r_n + 1) // 2 + 1 slots, r_n = max_block_count(n),
    and b(n, 0) = p(n) >= 1, so packed[n] > 0. Raises SlotOverflowError if
    packed[n] is not positive, has more slots or sets a slot's spare bit.
    The top slot is nonzero, so the rows come out trimmed.
    """
    order = len(packed) - 1
    mask = (1 << v) - 1
    spares = sum(1 << (m * v + v - 1) for m in range((max_block_count(order) + 1) // 2 + 1))
    rows = []
    for n, x in enumerate(packed):
        slots = -(-x.bit_length() // v)
        if x <= 0 or slots > (max_block_count(n) + 1) // 2 + 1 or x & spares:
            raise SlotOverflowError(f"b(n, m) slot of {v} bits overflowed at order {order}")
        rows.append(tuple([x >> m * v & mask for m in range(slots)]))
    return tuple(rows)
