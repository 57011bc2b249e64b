import random
from functools import cache
from math import isqrt

import pytest

from blocksep.qseries import TruncatedSeries, euler_inverse
from blocksep.recurrence import StatePair, euler_factorized_gf
from blocksep.transfer import _parts_above, matrix_product_gf
from block_forms import count_overpartitions
from series_folds import (apply_matrix, matrix_fold, normalized_matrix, one, pair_total, qpow,
                          s_block, start_pair, transfer_matrix, zero)


def series(*coeffs):
    return TruncatedSeries(coeffs)


@cache
def recurrence_coeffs(order):
    return euler_factorized_gf(order).coeffs


def threshold_boundaries(top):
    # the orders n <= top where s = isqrt(n) or the last layer n // (s + 1)
    # of the matrix route's start state changes, with the order just below
    def cut(n):
        s = isqrt(n)
        return s, n // (s + 1)
    changes = [n for n in range(1, top + 1) if cut(n) != cut(n - 1)]
    return sorted({m for n in changes for m in (n - 1, n)})


class TestTransferMatrix:
    def test_entries_against_primitives(self):
        for j in (1, 2, 3, 7):
            assert transfer_matrix(j, 6) == ((one(6) + s_block(j, 6), s_block(j, 6)),
                                             (s_block(j, 6), one(6)))

    def test_j1_order3(self):
        assert transfer_matrix(1, 3) == ((series(1, 1, 1, 1), series(0, 1, 1, 1)),
                                         (series(0, 1, 1, 1), series(1, 0, 0, 0)))

    def test_j2_order3(self):
        (e00, e01), _ = transfer_matrix(2, 3)
        assert e00 == series(1, 0, 1, 0)
        assert e01 == series(0, 0, 1, 0)

    def test_identity_beyond_order(self):
        assert transfer_matrix(7, 3) == ((one(3), zero(3)), (zero(3), one(3)))


class TestNormalizedMatrix:
    def test_j1_order2(self):
        assert normalized_matrix(1, 2) == ((one(2), qpow(1, 2)), (qpow(1, 2), series(1, -1, 0)))

    def test_defining_identity(self):
        for j in range(1, 9):
            n = 8
            factor = one(n) - qpow(j, n)
            raw = transfer_matrix(j, n)
            assert normalized_matrix(j, n) == tuple(tuple(factor * e for e in row) for row in raw)

    def test_identity_beyond_order(self):
        assert normalized_matrix(5, 3) == ((one(3), zero(3)), (zero(3), one(3)))


class TestApplyMatrix:
    def test_step1(self):
        v = matrix_fold(3, [1])
        assert v.f0 == series(1, 1, 1, 1)
        assert v.f1 == series(0, 1, 1, 1)

    def test_step2(self):
        v = matrix_fold(3, [1, 2])
        assert v.f0 == series(1, 1, 2, 3)
        assert v.f1 == series(0, 1, 2, 2)

    def test_step3(self):
        v = matrix_fold(3, [1, 2, 3])
        assert v.f0 == series(1, 1, 2, 4)
        assert v.f1 == series(0, 1, 2, 3)
        assert pair_total(v) == series(1, 2, 4, 7)

    def test_rejects_order_mismatch(self):
        # the series product refuses to mix orders
        with pytest.raises(ValueError, match="order mismatch"):
            apply_matrix(start_pair(2), transfer_matrix(1, 3))

    def test_state_pair_rejects_mixed_orders(self):
        with pytest.raises(ValueError, match="mixed orders"):
            StatePair(one(2), zero(3))

    @pytest.mark.parametrize("bad, shown", [((1, 2), "tuple"), (None, "NoneType"),
                                            ([1, 2], "list")], ids=["tuple", "None", "list"])
    def test_state_pair_rejects_a_field_that_is_not_a_series(self, bad, shown):
        for args in ((one(2), bad), (bad, one(2))):
            with pytest.raises(TypeError, match=f"must be TruncatedSeries, got {shown}$"):
                StatePair(*args)


class TestMatrixProductGF:
    def test_order3(self):
        assert matrix_product_gf(3) == series(1, 2, 4, 7)

    def test_order10(self):
        assert matrix_product_gf(10).coeffs == (
            1, 2, 4, 7, 12, 19, 31, 47, 72, 107, 157,
        )

    def test_order0(self):
        assert matrix_product_gf(0) == one(0)

    def test_agrees_with_generic_fold(self):
        # the literal ascending fold against the route's descending passes,
        # at every order up to 120, so across every threshold s <= 10. A
        # size j > n starts at q^j, so one fold at the top order holds the
        # fold at every lower order n as its first n + 1 coefficients
        top = 120
        reference = pair_total(matrix_fold(top, range(1, top + 1))).coeffs
        for n in range(top + 1):
            assert matrix_product_gf(n).coeffs == reference[:n + 1], n

    def test_matrices_commute(self):
        n = 30
        js = list(range(1, n + 1))
        random.Random(13).shuffle(js)
        assert pair_total(matrix_fold(n, js)) == matrix_product_gf(n)

    @pytest.mark.parametrize("n", [20, 21])
    def test_tail_sizes_fold_to_one_step(self, n):
        # for j > h = n // 2 any two S_j sum past the order, so
        # prod M_j = I + T*F with T = q^(h+1) + ... + q^n
        v = StatePair(series(*range(1, n + 2)), series(*range(n + 1, 0, -1)))
        tail = v
        for j in range(n // 2 + 1, n + 1):
            tail = apply_matrix(tail, transfer_matrix(j, n))
        t = sum((qpow(j, n) for j in range(n // 2 + 1, n + 1)), zero(n))
        assert tail == StatePair(v.f0 + t * (v.f0 + v.f1), v.f1 + t * v.f0)

    @pytest.mark.parametrize("n", [24, 25, 26, 27])
    def test_sizes_above_a_quarter_fold_to_one_step(self, n):
        # for j > m = n // 4 any four S_j sum past the order (e4 is zero,
        # as symfun's start state needs), so prod M_j is
        # I + e1*F + e2*F^2 + e3*F^3 = (1 + e2 + e3)*I + (e1 + e2 + 2*e3)*F,
        # e_r of those S_j, and (1, 0) goes to (1 + e1 + 2*e2 + 3*e3, e1 + e2 + 2*e3)
        m = n // 4
        e = [one(n)] + [zero(n)] * 4
        for j in range(m + 1, n + 1):
            for r in range(4, 0, -1):
                e[r] = e[r] + e[r - 1] * s_block(j, n)
        assert e[4] == zero(n) and e[3] != zero(n)
        v = StatePair(series(*range(1, n + 2)), series(*range(n + 1, 0, -1)))
        tail = v
        for j in range(m + 1, n + 1):
            tail = apply_matrix(tail, transfer_matrix(j, n))
        a, b = e[0] + e[2] + e[3], e[1] + e[2] + e[3] + e[3]
        assert tail == StatePair(a * v.f0 + b * (v.f0 + v.f1), a * v.f1 + b * v.f0)

    def test_parts_above_is_the_fold_of_the_sizes_above(self):
        # pins the route's start state: (1, 0) times M_j for j = s + 1..n,
        # for every s <= n <= 40; as above, the top order holds every lower one
        top = 40
        for s in range(top + 1):
            v = matrix_fold(top, range(s + 1, top + 1))
            for n in range(s, top + 1):
                assert _parts_above(n, s) == (list(v.f0.coeffs[:n + 1]),
                                              list(v.f1.coeffs[:n + 1])), (n, s)

    def test_agrees_with_recurrence_route_where_the_threshold_moves(self):
        reference = recurrence_coeffs(10000)
        orders = threshold_boundaries(2000)
        assert {isqrt(n) for n in orders} == set(range(isqrt(2000) + 1))
        for n in orders:
            assert matrix_product_gf(n).coeffs == reference[:n + 1], n

    @pytest.mark.parametrize("n", [4000, 10000])
    def test_agrees_with_recurrence_route_at_large_orders(self, n):
        assert matrix_product_gf(n).coeffs == recurrence_coeffs(10000)[:n + 1]

    def test_agrees_with_recurrence_route_at_1201(self):
        assert matrix_product_gf(1201) == euler_factorized_gf(1201)

    def test_agrees_with_recurrence_route_at_2000(self):
        assert matrix_product_gf(2000) == euler_factorized_gf(2000)

    def test_cutoff_soundness(self):
        # extending the scan past j = N multiplies by identities only
        n = 24
        assert matrix_fold(n, range(1, n + 1)) == matrix_fold(n, range(1, 2 * n + 1))

    def test_start_state_matters(self):
        n = 3
        swapped = StatePair(zero(n), one(n))
        v = swapped
        for j in range(1, n + 1):
            v = apply_matrix(v, transfer_matrix(j, n))
        assert pair_total(v) != matrix_product_gf(n)

    def test_monotone_and_sandwiched(self):
        n = 25
        b = matrix_product_gf(n).coeffs
        p = euler_inverse(n).coeffs
        assert all(b[i] <= b[i + 1] for i in range(n))
        for i in range(n + 1):
            assert p[i] <= b[i] <= count_overpartitions(i)


@pytest.mark.parametrize("call", [lambda: matrix_product_gf(-1)], ids=["matrix_product_gf"])
def test_rejects_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
