"""Reference folds shared by the tests.

Each multiplies an infinite product out factor by factor with the
`TruncatedSeries` kernels, so it shares no code with the pentagonal
recurrence or with the in-place list loops of the routes it is compared
against. `schoolbook_product` is the term-by-term reference for `*` and
for the division by the pentagonal series.
"""

from blocksep.qseries import TruncatedSeries, one, zero


def schoolbook_product(a, b):
    """Cauchy product of two series of one order; exponents above it are dropped."""
    if a.order != b.order:
        raise ValueError("order mismatch")
    a, b = a.coeffs, b.coeffs
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for k in range(i, n):
            out[k] += ai * b[k - i]
    return TruncatedSeries(out)


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
