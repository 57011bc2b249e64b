"""Reference folds shared by the tests.

Each multiplies an infinite product out factor by factor with the series
kernels, so it shares no code with the pentagonal recurrence or with the
symmetric-function route it is compared against.
"""

from blocksep.qseries import one


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
