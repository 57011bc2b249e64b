"""Truncated formal power series in q with exact integer coefficients.

Everything downstream (transfer matrices, recurrences, symmetric-function
expansions) is built on this module. A series is kept modulo q^(order+1);
coefficients are Python ints, so all arithmetic is exact at any size.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import count, takewhile


class TruncatedSeries:
    """A formal power series truncated at a fixed order.

    Instances are immutable and hashable; every operation returns a new
    series. Binary operations require both operands to carry the same
    order: a mismatch raises instead of silently re-truncating, because
    silent truncation mismatches are the classic q-series bug.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least the q^0 coefficient")
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        self._coeffs = coeffs

    @classmethod
    def _raw(cls, coeffs: tuple[int, ...]) -> TruncatedSeries:
        # Fast path for internal use: skips validation.
        s = object.__new__(cls)
        s._coeffs = coeffs
        return s

    @property
    def order(self) -> int:
        """Highest retained exponent N."""
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients of q^0 .. q^N."""
        return self._coeffs

    def coefficient(self, k: int) -> int:
        """Coefficient of q^k; k must not exceed the truncation order."""
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient of q^{k} unknown at order {self.order}")
        return self._coeffs[k]

    def __getitem__(self, k: int) -> int:
        return self.coefficient(k)

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def truncate(self, new_order: int) -> TruncatedSeries:
        """Drop coefficients above new_order (which must not exceed order)."""
        if not 0 <= new_order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {new_order}")
        return TruncatedSeries._raw(self._coeffs[: new_order + 1])

    def _check_order(self, other: TruncatedSeries) -> None:
        if len(self._coeffs) != len(other._coeffs):
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}; "
                "truncate explicitly before mixing orders"
            )

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries._raw(
            tuple(a + b for a, b in zip(self._coeffs, other._coeffs))
        )

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries._raw(
            tuple(a - b for a, b in zip(self._coeffs, other._coeffs))
        )

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries._raw(tuple(-c for c in self._coeffs))

    def __mul__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        if isinstance(other, int):
            return TruncatedSeries._raw(tuple(c * other for c in self._coeffs))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        # Schoolbook Cauchy product; exponents above the order are dropped.
        a, b = self._coeffs, other._coeffs
        n = len(a)
        out = [0] * n
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for k in range(i, n):
                out[k] += ai * b[k - i]
        return TruncatedSeries._raw(tuple(out))

    def __rmul__(self, other: int) -> TruncatedSeries:
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    # Specialized O(N) kernels for the factors that dominate the production
    # paths. Each is equivalent to a generic product with the corresponding
    # constructor series (property-tested), just without the O(N^2) cost.

    def shift(self, j: int) -> TruncatedSeries:
        """Multiply by q^j, dropping exponents beyond the order."""
        if j < 0:
            raise ValueError("shift amount must be nonnegative")
        c = self._coeffs
        n = len(c)
        if j >= n:
            return TruncatedSeries._raw((0,) * n)
        return TruncatedSeries._raw((0,) * j + c[: n - j])

    def mul_geometric_inverse(self, j: int) -> TruncatedSeries:
        """Multiply by 1/(1 - q^j) = 1 + S_j."""
        return self + self.mul_s_block(j)

    def mul_s_block(self, j: int) -> TruncatedSeries:
        """Multiply by q^j/(1 - q^j): out[k] = c[k-j] + out[k-j]."""
        if j < 1:
            raise ValueError("j must be a positive part size")
        c = self._coeffs
        n = len(c)
        out = [0] * n
        for k in range(j, n):
            out[k] = c[k - j] + out[k - j]
        return TruncatedSeries._raw(tuple(out))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({_poly_str(self._coeffs)!r})"


def _poly_str(coeffs: tuple[int, ...]) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
            continue
        q = "q" if k == 1 else f"q^{k}"
        if c == 1:
            terms.append(q)
        elif c == -1:
            terms.append(f"-{q}")
        else:
            terms.append(f"{c}*{q}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def zero(order: int) -> TruncatedSeries:
    """The zero series at the given order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncatedSeries._raw((0,) * (order + 1))


def one(order: int) -> TruncatedSeries:
    """The constant series 1 at the given order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncatedSeries._raw((1,) + (0,) * order)


def qpow(k: int, order: int) -> TruncatedSeries:
    """The monomial q^k at the given order (zero if k exceeds it)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    c = [0] * (order + 1)
    if k <= order:
        c[k] = 1
    return TruncatedSeries._raw(tuple(c))


def geometric_inverse(j: int, order: int) -> TruncatedSeries:
    """1/(1 - q^j) truncated: coefficient of q^k is 1 iff j divides k."""
    if j < 1:
        raise ValueError("j must be a positive part size")
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncatedSeries._raw(
        tuple(1 if k % j == 0 else 0 for k in range(order + 1))
    )


def s_block(j: int, order: int) -> TruncatedSeries:
    """Generating series q^j/(1 - q^j) of a nonempty block of parts of size j.

    Coefficient of q^k is 1 iff k >= j and j divides k.
    """
    if j < 1:
        raise ValueError("j must be a positive part size")
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncatedSeries._raw(
        tuple(1 if k >= j and k % j == 0 else 0 for k in range(order + 1))
    )


def euler_inverse(order: int) -> TruncatedSeries:
    """1 / prod_{j>=1} (1 - q^j) truncated; coefficient of q^n is p(n).

    Computed by the pentagonal-number recurrence alone. A wrong p(n) does
    not go unnoticed: the recurrence route multiplies by this series and
    the matrix route does not, so `verify` reports them unequal.
    """
    return TruncatedSeries._raw(tuple(partition_numbers(order)))


def partition_numbers(order: int) -> list[int]:
    """p(0) .. p(order): the reciprocal of Euler's pentagonal series.

    prod_{j>=1} (1 - q^j) = 1 - sum_{k>=1} (-1)^(k+1) (q^(k(3k-1)/2) + q^(k(3k+1)/2)).
    """
    return _sparse_reciprocal(
        order, ((k * (3 * k + s) // 2, (-1) ** (k + 1)) for k in count(1) for s in (-1, 1))
    )


def overpartition_numbers(order: int) -> list[int]:
    """p~(0) .. p~(order): the reciprocal of Gauss's theta series.

    prod_{j>=1} (1 - q^j)/(1 + q^j) = 1 - sum_{k>=1} 2(-1)^(k+1) q^(k^2).
    """
    return _sparse_reciprocal(order, ((k * k, 2 * (-1) ** (k + 1)) for k in count(1)))


def _sparse_reciprocal(order: int, terms: Iterable[tuple[int, int]]) -> list[int]:
    """f = 1 / (1 - sum c*q^g) over terms (g, c) with g ascending from 1.

    f[0] = 1 and f[n] = sum_{g <= n} c * f[n - g]; terms may be endless.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    terms = list(takewhile(lambda t: t[0] <= order, terms))
    f = [1] + [0] * order
    for n in range(1, order + 1):
        total = 0
        for g, c in terms:
            if g > n:
                break
            total += c * f[n - g]
        f[n] = total
    return f
