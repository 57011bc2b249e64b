"""Reference folds shared by the tests.

Each multiplies an infinite product out factor by factor with the
`TruncatedSeries` kernels, so it shares no code with the pentagonal
recurrence or with the in-place list loops of the routes it is compared
against.
"""

from blocksep.qseries import one, zero


def euler_product_inverse(order):
    """prod_{j>=1} 1/(1-q^j); coefficient of q^n is p(n)."""
    acc = one(order)
    for j in range(1, order + 1):
        acc = acc.mul_geometric_inverse(j)
    return acc


def overpartition_product(order):
    """prod_{j>=1} (1+q^j)/(1-q^j); coefficient of q^n is p~(n)."""
    acc = one(order)
    for j in range(1, order + 1):
        acc = (acc + acc.shift(j)).mul_geometric_inverse(j)
    return acc


def elementary_symmetric_fold(r_max, order):
    """e_0 .. e_{r_max} of S_1..S_order: e_r += e_{r-1} * S_j, r descending."""
    es = [one(order)] + [zero(order) for _ in range(r_max)]
    for j in range(1, order + 1):
        for r in range(min(r_max, j), 0, -1):
            es[r] = es[r] + es[r - 1].mul_s_block(j)
    return es
