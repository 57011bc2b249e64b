"""Two-state transfer-matrix route to the counting series.

At each part size j the choices absent / present-plain / present-overlined
are encoded in a 2x2 matrix over truncated series. State 0 means the last
present block is plain, state 1 that it is overlined (which forbids
overlining the next block).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .qseries import TruncatedSeries, geometric_inverse, one, qpow, s_block, zero


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 matrix of series, indexed by (from_state, to_state)."""

    e00: TruncatedSeries
    e01: TruncatedSeries
    e10: TruncatedSeries
    e11: TruncatedSeries

    def __post_init__(self):
        orders = {self.e00.order, self.e01.order, self.e10.order, self.e11.order}
        if len(orders) != 1:
            raise ValueError(f"matrix entries carry mixed orders {sorted(orders)}")

    @property
    def order(self) -> int:
        return self.e00.order

    def entry(self, from_state: int, to_state: int) -> TruncatedSeries:
        if from_state not in (0, 1) or to_state not in (0, 1):
            raise IndexError("states are 0 (plain) and 1 (overlined)")
        return (self.e00, self.e01, self.e10, self.e11)[2 * from_state + to_state]


@dataclass(frozen=True)
class StatePair:
    """Row vector of state weights: f0 ends plain, f1 ends overlined."""

    f0: TruncatedSeries
    f1: TruncatedSeries

    def __post_init__(self):
        if self.f0.order != self.f1.order:
            raise ValueError(
                f"state weights carry mixed orders {self.f0.order} and {self.f1.order}"
            )

    @property
    def order(self) -> int:
        return self.f0.order

    def total(self) -> TruncatedSeries:
        """Sum over both final states."""
        return self.f0 + self.f1


def start_pair(order: int) -> StatePair:
    """Initial weights (1, 0): no blocks yet, vacuously in the plain state."""
    return StatePair(one(order), zero(order))


def transfer_matrix(j: int, order: int) -> TransferMatrix:
    """Transition weights at part size j.

    [[1/(1-q^j), q^j/(1-q^j)], [q^j/(1-q^j), 1]]: from state 0 a block may
    be absent, plain, or overlined; from state 1 an overlined block is
    forbidden. For j > order this is the identity matrix.
    """
    if j < 1:
        raise ValueError("j must be a positive part size")
    block = s_block(j, order)
    return TransferMatrix(
        e00=geometric_inverse(j, order),
        e01=block,
        e10=block,
        e11=one(order),
    )


def normalized_matrix(j: int, order: int) -> TransferMatrix:
    """(1 - q^j) times the transfer matrix: [[1, q^j], [q^j, 1-q^j]]."""
    if j < 1:
        raise ValueError("j must be a positive part size")
    qj = qpow(j, order)
    return TransferMatrix(
        e00=one(order),
        e01=qj,
        e10=qj,
        e11=one(order) - qj,
    )


def apply_matrix(v: StatePair, m: TransferMatrix) -> StatePair:
    """Row-vector times matrix: concatenates the choices at one part size."""
    if v.order != m.order:
        raise ValueError(f"order mismatch: vector {v.order} vs matrix {m.order}")
    return StatePair(
        f0=v.f0 * m.e00 + v.f1 * m.e10,
        f1=v.f0 * m.e01 + v.f1 * m.e11,
    )


def matrix_product_gf(order: int) -> TruncatedSeries:
    """Counting series of block-separated overpartitions, matrix route.

    Each transfer matrix is I + S_j*F with F = [[1, 1], [1, 0]], so they
    commute and the order of the sizes is a choice; sizes beyond the order
    are identity factors. For j > m = order // 4, S_j = q^j + q^(2j) +
    q^(3j) mod q^(order+1) and any four such sizes sum past the order, so
    those sizes fold to I + e1*F + e2*F^2 + e3*F^3, e_r the elementary
    symmetric functions of their S_j. [q^k] e1 counts the sizes j > m with
    j, 2j or 3j equal to k; e2 the pairs m < a < b with a + b, 2a + b or
    a + 2b equal to k (the last two need a < k/3, the last also
    a = k mod 2); e3 the triples m < a < b < c with a + b + c = k, that is
    the partitions of x = k - 3m - 3 into three parts, round(x^2/12). Since
    F^r = F_r*F + F_(r-1)*I, (1, 0) starts as
    (1 + e1 + 2*e2 + 3*e3, e1 + e2 + 2*e3). Then each size j = m..1 is one
    pass in place over plain lists. Before it the state counts partitions
    into parts above j, so indices 1..j are (0, 0): the pass sets index j to
    (1, 1) and updates k >= 2j only, mostly on small counts. With a = f0*S_j
    and b = f1*S_j of the old values, the update f0 += a + b, f1 += a reads
    f0[k] += f1_old[k-j] + f0[k-j] and f1[k] +=
    f0_old[k-j] - f1_old[k-j] + f1[k-j], because a[k] = f0_old[k-j] + a[k-j]
    and a[k-j] = f1[k-j] - f1_old[k-j].
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    n, m = order + 1, order // 4
    f0, f1 = [1] + [0] * order, [0] * n
    for k in range(m + 1, n):
        third = (k - 1) // 3  # largest a with 3a < k
        e1 = 1 + (k % 2 == 0 and k > 2 * m) + (k % 3 == 0 and k > 3 * m)
        e2 = (max(0, (k - 1) // 2 - m) + max(0, third - m)
              + max(0, (third - k) // 2 - (m - k) // 2))
        e3 = (max(0, k - 3 * m - 3) ** 2 + 6) // 12
        f0[k], f1[k] = e1 + 2 * e2 + 3 * e3, e1 + e2 + 2 * e3
    for j in range(m, 0, -1):
        old = zip(range(2 * j, n), f0[j:n - j], f1[j:n - j])  # slices before f[j] is set
        f0[j] = f1[j] = 1
        for k, g0, g1 in old:
            f0[k] += g1 + f0[k - j]
            f1[k] += g0 - g1 + f1[k - j]
    return TruncatedSeries(map(add, f0, f1))
