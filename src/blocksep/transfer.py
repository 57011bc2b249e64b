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
    are identity factors. For j > h = order // 2, S_j = q^j mod q^(order+1)
    and any two such terms multiply to zero, so those sizes fold to I + T*F,
    T = q^(h+1) + ... + q^order, and (1, 0) starts as (1 + T, T). Then each
    size j = h..1 is one pass in place over plain lists. Before it the state
    counts partitions into parts above j, so indices 1..j are (0, 0): the
    pass sets index j to (1, 1) and updates k >= 2j only, mostly on small
    counts. With a = f0*S_j and b = f1*S_j of the old values, the update
    f0 += a + b, f1 += a reads f0[k] += f1_old[k-j] + f0[k-j] and
    f1[k] += f0_old[k-j] - f1_old[k-j] + f1[k-j], because
    a[k] = f0_old[k-j] + a[k-j] and a[k-j] = f1[k-j] - f1_old[k-j].
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    n, h = order + 1, order // 2
    f0, f1 = [1] + [0] * h + [1] * (order - h), [0] * (h + 1) + [1] * (order - h)
    for j in range(h, 0, -1):
        old = zip(range(2 * j, n), f0[j:n - j], f1[j:n - j])  # slices before f[j] is set
        f0[j] = f1[j] = 1
        for k, g0, g1 in old:
            f0[k] += g1 + f0[k - j]
            f1[k] += g0 - g1 + f1[k - j]
    return TruncatedSeries(map(add, f0, f1))
