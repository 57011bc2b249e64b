import sys
from itertools import accumulate
from math import isqrt

import pytest

from blocksep import symfun
from blocksep.fibonacci import fib
from blocksep.qseries import (TruncatedSeries, euler_inverse, overpartition_numbers,
                              partition_numbers)
from blocksep.recurrence import euler_factorized_gf
from blocksep.symfun import (
    bivariate_gf,
    elementary_symmetric_series,
    fibonacci_weighted_gf,
    max_block_count,
    weighted_gf,
)
from blocksep.transfer import matrix_product_gf
from series_folds import (bivariate_columns, elementary_symmetric_cut, elementary_symmetric_fold,
                          one, overpartition_product, s_block, threshold_boundaries, zero)


def series(*coeffs):
    return TruncatedSeries(coeffs)


class TestMaxBlockCount:
    def test_values(self):
        assert max_block_count(0) == 0
        assert max_block_count(1) == 1
        assert max_block_count(2) == 1
        assert max_block_count(3) == 2
        assert max_block_count(300) == 24

    def test_bound_is_tight(self):
        for n in range(3001):
            r = max_block_count(n)
            assert r * (r + 1) // 2 <= n < (r + 1) * (r + 2) // 2

    @pytest.mark.parametrize("n", [sys.maxsize - 1, 10**40 - 1, 10**40])
    def test_huge_order_returns_at_once(self, n):
        r = max_block_count(n)  # r is about sqrt(2n): not reached one step at a time
        assert r * (r + 1) // 2 <= n < (r + 1) * (r + 2) // 2


class TestElementarySymmetric:
    def test_e0_is_one(self):
        for n in (0, 3, 12):
            assert elementary_symmetric_series(n)[0] == one(n)

    def test_e1_order4(self):
        e1 = elementary_symmetric_series(4)[1]
        total = zero(4)
        for j in range(1, 5):
            total = total + s_block(j, 4)
        assert e1 == total == series(0, 1, 2, 2, 3)

    def test_degree_bound(self):
        # e_r is nonzero exactly while r(r+1)/2 <= n: ranks 0..4 at n = 12
        n = 12
        es = elementary_symmetric_series(n)
        assert len(es) == 5 and zero(n) not in es

    def test_matches_direct_expansion(self):
        # oracle: expand prod_j (1 + t*S_j) coefficient-wise in t
        n = 14
        r_top = max_block_count(n)
        direct = [one(n)] + [zero(n) for _ in range(r_top)]
        for j in range(1, n + 1):
            sj = s_block(j, n)
            for r in range(r_top, 0, -1):
                direct[r] = direct[r] + direct[r - 1] * sj
        assert elementary_symmetric_series(n) == direct

    def test_minimal_monomial(self):
        # the lowest term of e_r is q^(1+2+..+r): the packed table's decode
        # relies on every rank above max_block_count(n) being zero
        n = 120
        es = elementary_symmetric_series(n)
        for r, e in enumerate(es):
            lowest = next(k for k, c in enumerate(e.coeffs) if c)
            assert lowest == r * (r + 1) // 2, r

    def test_matches_reference_fold(self):
        # the packed table, which takes the sizes above isqrt(n) by part
        # count, against the unpacked fold that takes each size alone; the
        # fold runs one rank past the largest that fits, and that rank must
        # be zero
        for n in [*range(121), 500, 1000]:
            *reference, above = elementary_symmetric_cut(max_block_count(n) + 1, n)
            assert above == zero(n), n
            assert elementary_symmetric_series(n) == reference, n

    def test_matches_reference_fold_where_the_threshold_moves(self):
        # one fold at the top order, cut to each order n: truncation commutes
        # with the product, so the cut is the fold at n, and every rank past
        # the largest that fits at n must cut to zero
        top = 1000
        orders = threshold_boundaries(top)
        assert {isqrt(n) for n in orders} == set(range(isqrt(top) + 1))
        reference = elementary_symmetric_cut(max_block_count(top), top)
        for n in orders:
            cut = [TruncatedSeries(e.coeffs[:n + 1]) for e in reference]
            r_top = max_block_count(n)
            assert cut[r_top + 1:] == [zero(n)] * (len(cut) - r_top - 1), n
            assert elementary_symmetric_series(n) == cut[:r_top + 1], n

    def test_cut_is_the_fold_at_its_order(self):
        # the reference folds above are cut from one fold at order 1000
        for n in (0, 1, 7, 60, 200):
            r = max_block_count(n) + 1
            assert elementary_symmetric_cut(r, n) == elementary_symmetric_fold(r, n), n

    def test_narrow_width_raises(self, monkeypatch):
        # the slot width is read from p(order); at the width whose spare bit
        # the largest e_r[k] reaches, and at every narrower one, decode must
        # raise instead of returning a wrong table
        for n in (5, 30, 120):
            table = elementary_symmetric_series(n)
            largest = max(max(e.coeffs) for e in table)
            for w in range(2, largest.bit_length() + 1):
                monkeypatch.setattr(symfun, "partition_numbers",
                                    lambda order, w=w: [1 << (w - 2)] * (order + 1))
                with pytest.raises(OverflowError):
                    elementary_symmetric_series(n)
            monkeypatch.undo()

    def test_largest_entry_at_most_doubles(self):
        # the premise of the decode check: if the largest e_r[k] at most
        # doubles from k - 1 to k, the first slot to outgrow a narrow width
        # still fits in it and sets its spare bit
        n = 1000
        table = elementary_symmetric_series(n)
        largest = [max(column) for column in zip(*(e.coeffs for e in table))]
        assert all(b <= 2 * a for a, b in zip(largest, largest[1:]))

    def test_rank_sums_at_order_1000(self):
        # sum_r e_r = 1/(q;q) and sum_r 2^r e_r = (-q;q)/(q;q), each against
        # its own sparse reciprocal, far past the orders the folds reach, and
        # sum_r r*e_r[k] = p(0) + .. + p(k-1): the left side counts the
        # distinct part sizes over the partitions of k
        self.check_rank_sums(1000)

    def test_rank_sums_at_order_2000(self):
        self.check_rank_sums(2000)

    def test_rank_sums_at_order_4000(self):
        self.check_rank_sums(4000)

    @staticmethod
    def check_rank_sums(n):
        columns = list(zip(*(e.coeffs for e in elementary_symmetric_series(n))))
        p = partition_numbers(n)
        assert [sum(col) for col in columns] == p
        assert [sum(c << r for r, c in enumerate(col)) for col in columns] == \
            overpartition_numbers(n)
        assert [sum(r * c for r, c in enumerate(col)) for col in columns] == \
            [0, *accumulate(p[:n])]


class TestWeightedGF:
    def test_constant_weight_gives_partitions(self):
        for n in (0, 5, 40, 120):
            assert weighted_gf(n, lambda r: 1) == euler_inverse(n), n

    def test_powers_of_two_give_overpartitions(self):
        first = (1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232)
        assert weighted_gf(10, lambda r: 2**r).coeffs == first
        assert tuple(overpartition_numbers(10)) == first
        for n in (0, 17, 80, 200):
            assert weighted_gf(n, lambda r: 2**r) == overpartition_product(n), n
            # p~ by the theta-series reciprocal, the recurrence the CLI uses
            assert overpartition_numbers(n) == list(overpartition_product(n).coeffs), n

    def test_signed_weights_match_the_reference_fold(self):
        # weights need not be nonnegative: each row is a plain dot product
        for weight in (lambda r: (-1) ** r, lambda r: 3 - 2 * r, lambda r: (-2) ** r * fib(r)):
            for n in (0, 1, 7, 60, 200):
                es = elementary_symmetric_cut(max_block_count(n), n)
                expected = [sum(weight(r) * e.coeffs[k] for r, e in enumerate(es))
                            for k in range(n + 1)]
                assert weighted_gf(n, weight).coeffs == tuple(expected), n

    def test_fibonacci_weight_matches_named_route(self):

        n = 30
        assert weighted_gf(n, lambda r: fib(r + 2)) == fibonacci_weighted_gf(n)


class TestFibonacciWeightedGF:
    def test_order10(self):
        assert fibonacci_weighted_gf(10).coeffs == (
            1, 2, 4, 7, 12, 19, 31, 47, 72, 107, 157,
        )

    def test_order2(self):
        assert fibonacci_weighted_gf(2) == series(1, 2, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fibonacci_weighted_gf(-1)

    def test_all_three_routes_agree(self):
        for n in (0, 1, 2, 3, 25, 90):
            a = fibonacci_weighted_gf(n)
            assert a == matrix_product_gf(n) == euler_factorized_gf(n), n


class TestBivariate:
    def test_row_zero(self):
        assert bivariate_gf(5)[0] == (1,)

    def test_small_rows(self):
        rows = bivariate_gf(5)
        assert rows[1] == (1, 1)
        assert rows[2] == (2, 2)
        # two overlines would need adjacent blocks overlined at weight 3
        assert rows[3] == (3, 4)
        # first m=2 entry needs three blocks: 3+2+1 decorated 101
        assert bivariate_gf(6)[6][2] == 1

    def test_column_zero_is_partition_numbers(self):
        rows = bivariate_gf(10)
        assert tuple(row[0] for row in rows) == euler_inverse(10).coeffs

    def test_row_sums_are_the_counting_series(self):
        rows = bivariate_gf(10)
        assert tuple(map(sum, rows)) == fibonacci_weighted_gf(10).coeffs

    def test_entries_nonnegative(self):
        for row in bivariate_gf(40):
            assert all(c >= 0 for c in row)

    def test_rows_trimmed(self):
        for row in bivariate_gf(40):
            assert len(row) == 1 or row[-1] != 0

    def test_matches_plain_reference(self):
        # the dots of each row against one plain list per column, built from
        # the unpacked e_r fold
        for n in [*range(121), 500, 1000]:
            assert bivariate_gf(n) == bivariate_columns(n), n


@pytest.mark.parametrize("call", [
    lambda: elementary_symmetric_series(-1),
    lambda: bivariate_gf(-1),
], ids=["e_r_order", "bivariate_gf"])
def test_rejects_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
