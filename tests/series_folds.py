"""Reference folds shared by the tests.

`transfer_matrix` and `normalized_matrix` are the paper's 2x2 matrices
over series, as ((e00, e01), (e10, e11)) indexed (from state, to state);
`matrix_fold` multiplies the row vector (1, 0) through them one part size
at a time, the literal product the routes are compared against, and
`pair_total` sums its two states. The constructors `zero`, `one`, `qpow`,
`s_block` and `geometric_inverse` build their entries coefficient by
coefficient.

Each fold multiplies an infinite product out factor by factor, so it shares no
code with the pentagonal recurrence or with the in-place list loops of the
routes it is compared against. `euler_product_inverse` and
`overpartition_product` use the `TruncatedSeries` kernels;
`schoolbook_product` is the term-by-term reference for `*` and for the
division by the pentagonal series. `elementary_symmetric_fold` keeps one
plain list per rank and takes every size alone: the unpacked reference for
the packed e_r table, quick enough to reach order 1000.
`elementary_symmetric_cut` cuts one such fold at 1000, built once per test
session, to any smaller order. `bivariate_columns` builds the triangle
b(n, m) from that cut one column m at a time, one list pass per (r, m):
the reference for both triangles, the plain dots of `bivariate_gf` and the
Kronecker-packed rows of `euler_factorized_triangle`. `term_division`
divides by a sparse series one signed term (g, c) at a time, a multiply
per term: the reference for the
sign-grouped division loop behind p, p~ and the Euler factor, with its own
`pentagonal_terms` and `theta_terms`. `normalized_scan`
folds the normalized matrices in one n at a time over plain lists; it is
the per-step reference for the recurrence route, which sums Euler's
identity instead. `euler_forward_pair` sums that identity term by term,
front to back: the reference for the route's Horner fold.
`threshold_boundaries` lists the orders where the part-count start state
of both product routes changes shape.
"""

import functools
from itertools import accumulate, repeat
from math import isqrt
from operator import add, mul, sub

from blocksep.fibonacci import fib_polynomial
from blocksep.qseries import TruncatedSeries, max_block_count
from blocksep.recurrence import StatePair


def zero(order):
    return TruncatedSeries([0] * (order + 1))


def one(order):
    return TruncatedSeries([1] + [0] * order)


def qpow(k, order):
    return TruncatedSeries(int(i == k) for i in range(order + 1))


def s_block(j, order):
    """q^j/(1 - q^j): a nonempty block of parts of size j."""
    return TruncatedSeries(int(k >= j and k % j == 0) for k in range(order + 1))


def geometric_inverse(j, order):
    """1/(1 - q^j) = 1 + S_j."""
    return TruncatedSeries(int(k % j == 0) for k in range(order + 1))


def transfer_matrix(j, order):
    """[[1/(1-q^j), S_j], [S_j, 1]]: from state 1 an overlined block is forbidden."""
    s = s_block(j, order)
    return (geometric_inverse(j, order), s), (s, one(order))


def normalized_matrix(j, order):
    """(1 - q^j) times the transfer matrix: [[1, q^j], [q^j, 1 - q^j]]."""
    qj = qpow(j, order)
    return (one(order), qj), (qj, one(order) - qj)


def start_pair(order):
    """(1, 0): no blocks yet, vacuously in the plain state."""
    return StatePair(one(order), zero(order))


def pair_total(v):
    """The sum over both final states of the pair v: f0 + f1."""
    return v.f0 + v.f1


def apply_matrix(v, m):
    """Row vector v times the matrix m: the choices at one more part size."""
    (e00, e01), (e10, e11) = m
    return StatePair(v.f0 * e00 + v.f1 * e10, v.f0 * e01 + v.f1 * e11)


def matrix_fold(order, js, matrix=transfer_matrix):
    """(1, 0) times matrix(j, order) for each j of js in turn."""
    v = start_pair(order)
    for j in js:
        v = apply_matrix(v, matrix(j, order))
    return v


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
    """e_0 .. e_{r_max} of S_1..S_order: e_r += e_{r-1} * S_j, r descending.

    One plain list per rank, every size j one at a time: no packing, no
    slot width and no part-count start for the sizes above isqrt(order).
    e_{r-1} is zero below q^(T_{r-1}), T_r = r(r+1)/2, so e_{r-1} * S_j is
    zero below q^(T_{r-1}+j); t below holds it from there up.
    """
    n = order + 1
    es = [[1] + [0] * order] + [[0] * n for _ in range(r_max)]
    for j in range(1, n):
        for r in range(min(r_max, j), 0, -1):
            low = r * (r - 1) // 2 + j
            t = es[r - 1][low - j:n - j]
            for i in range(j, len(t)):
                t[i] += t[i - j]
            es[r][low:] = map(add, es[r][low:], t)
    return [TruncatedSeries(e) for e in es]


CUT_TOP = 1000


@functools.cache
def _fold_at_cut_top():
    """The fold at CUT_TOP, one rank past the largest that fits there."""
    return tuple(elementary_symmetric_fold(max_block_count(CUT_TOP) + 1, CUT_TOP))


def elementary_symmetric_cut(r_max, order):
    """elementary_symmetric_fold(r_max, order), cut from the one fold at CUT_TOP.

    Truncation commutes with the product: the sizes above order add nothing
    below q^(order+1), so the fold at CUT_TOP cut to order is the fold at
    order. It reaches order CUT_TOP and rank max_block_count(CUT_TOP) + 1.
    """
    fold = _fold_at_cut_top()
    if order > CUT_TOP or r_max >= len(fold):
        raise ValueError(f"the cut reaches order {CUT_TOP} and rank {len(fold) - 1}")
    return [TruncatedSeries(e.coeffs[:order + 1]) for e in fold[:r_max + 1]]


def bivariate_columns(order):
    """Rows of b(n, m) = sum_r C(r-m+1, m) * e_r[n], each trimmed of trailing zeros.

    Column m is built as one plain list from the unpacked e_r cut, adding
    C(r-m+1, m) * e_r for each rank r; no packing and no slot width.
    """
    r_top = max_block_count(order)
    es = elementary_symmetric_cut(r_top, order)
    columns = [[0] * (order + 1) for _ in range((r_top + 1) // 2 + 1)]
    for r, e in enumerate(es):
        low = r * (r + 1) // 2  # e_r vanishes below q^(r(r+1)/2)
        for m, c in enumerate(fib_polynomial(r)):
            column = columns[m]
            column[low:] = [a + c * x for a, x in zip(column[low:], e.coeffs[low:])]
    rows = []
    for row in zip(*columns):  # trim trailing zeros, keeping b(n, 0)
        width = len(row)
        while width > 1 and row[width - 1] == 0:
            width -= 1
        rows.append(row[:width])
    return tuple(rows)


def pentagonal_terms(order):
    """Terms (g, c) of 1 - prod_{j>=1} (1 - q^j) up to q^order.

    c = (-1)^(k+1) at g = k(3k -+ 1)/2, k >= 1.
    """
    terms = [(k * (3 * k + s) // 2, (-1) ** (k + 1)) for k in range(1, order + 1) for s in (-1, 1)]
    return [t for t in terms if t[0] <= order]


def theta_terms(order):
    """Terms (g, c) of 1 - prod_{j>=1} (1 - q^j)/(1 + q^j) up to q^order.

    c = 2(-1)^(k+1) at g = k^2, k >= 1.
    """
    return [(k * k, 2 * (-1) ** (k + 1)) for k in range(1, order + 1) if k * k <= order]


def term_division(numerator, terms):
    """numerator / (1 - sum c*q^g) over terms (g, c) with g ascending from 1.

    A copy f of the numerator gets f[n] += sum_{g <= n} c * f[n - g] for n
    ascending, one multiply per term.
    """
    f = list(numerator)
    for n in range(1, len(f)):
        total = f[n]
        for g, c in terms:
            if g > n:
                break
            total += c * f[n - g]
        f[n] = total
    return f


def normalized_scan(order):
    """Steps n = 0..order of the normalized fold over two plain lists, in place.

    Step n adds q^n * f1 to f0 and q^n * (f0 - f1) to f1 and only touches
    coefficients from q^n up. Yields the two lists after each step; a
    negative order raises at the call.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    f0, f1 = [1] + [0] * order, [0] * (order + 1)

    def step(n):
        if n:
            kept = order + 1 - n
            old_f0, shifted_f1 = f0[:kept], f1[:kept]
            f0[n:] = map(add, f0[n:], shifted_f1)
            f1[n:] = map(add, f1[n:], map(sub, old_f0, shifted_f1))
        return f0, f1

    return map(step, range(order + 1))


def iter_normalized_pairs(order):
    """A snapshot of the normalized pair after each step n = 0, 1, .., order."""
    return (StatePair(*map(TruncatedSeries, pair)) for pair in normalized_scan(order))


def normalized_scan_pair(order):
    """The normalized pair after the full scan n = 1..order."""
    *_, pair = normalized_scan(order)
    return StatePair(*map(TruncatedSeries, pair))


def euler_forward_pair(order):
    """The normalized pair (1, 0) * prod_{n=1..order} (I + q^n G), summed forward.

    One loop over plain lists for k = 1, 2, .. while T_k <= order, so
    O(order^1.5) coefficient operations: h <- h * q^k / (1 - q^k) (one
    shift, one strided prefix sum), (a, b) <- (b, a - b), then f0 += a * h
    and f1 += b * h from q^(T_k) up; h = q^(T_k) / (q)_k is zero below.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    n = order + 1
    h, f0, f1 = [1] + [0] * order, [1] + [0] * order, [0] * n
    a, b = 1, 0
    for k in range(1, max_block_count(order) + 1):
        t = k * (k + 1) // 2
        h[k:] = h[:n - k]
        h[:k] = repeat(0, k)
        for r in range(t, min(t + k, n)):
            h[r::k] = accumulate(h[r::k])
        a, b = b, a - b
        for f, c in ((f0, a), (f1, b)):
            if c:
                f[t:] = map(add, f[t:], map(mul, h[t:], repeat(c)))
    return StatePair(TruncatedSeries(f0), TruncatedSeries(f1))


def threshold_boundaries(top):
    """The orders n <= top where the part-count start state changes, each with n - 1.

    Both product routes take the sizes above s = isqrt(n) by part count, in
    layers up to n // (s + 1); the list holds every n where either changes.
    """
    def cut(n):
        s = isqrt(n)
        return s, n // (s + 1)
    changes = [n for n in range(1, top + 1) if cut(n) != cut(n - 1)]
    return sorted({m for n in changes for m in (n - 1, n)})
