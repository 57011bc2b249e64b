import pytest

from blocksep import fibonacci, recurrence, symfun, transfer
from blocksep.qseries import TruncatedSeries
from blocksep.recurrence import (euler_factorized_gf, euler_factorized_triangle,
                                 normalized_recurrence)
from blocksep.symfun import bivariate_gf
from blocksep.transfer import matrix_product_gf
from series_folds import (apply_matrix, bivariate_columns, euler_forward_pair,
                          iter_normalized_pairs, matrix_fold, normalized_matrix,
                          normalized_scan_pair, one, pair_total, start_pair, transfer_matrix,
                          zero)


def series(*coeffs):
    return TruncatedSeries(coeffs)


def mat_mul(x, y):
    return tuple(tuple(sum(x[i][m] * y[m][j] for m in (0, 1)) for j in (0, 1)) for i in (0, 1))


def fold_normalized(order, steps):
    return matrix_fold(order, range(1, steps + 1), normalized_matrix)


class TestNormalizedRecurrence:
    def test_one_step(self):
        pair = normalized_recurrence(1)
        assert pair.f0 == series(1, 0)
        assert pair.f1 == series(0, 1)

    def test_two_steps_at_order_three(self):
        # oracle: multiply the normalized matrices symbolically at order 3
        v = fold_normalized(3, 2)
        assert v.f0 == series(1, 0, 0, 1)
        assert v.f1 == series(0, 1, 1, -1)

    def test_matches_matrix_fold(self):
        for n in (0, 1, 2, 3, 7, 20, 45):
            pair = normalized_recurrence(n)
            v = fold_normalized(n, n)
            assert pair.f0 == v.f0
            assert pair.f1 == v.f1

    def test_order_zero(self):
        pair = normalized_recurrence(0)
        assert pair.f0 == one(0) and pair.f1 == zero(0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalized_recurrence(-1)

    def test_full_scan_snapshots_once(self, monkeypatch):
        # the route folds plain lists and converts f0 and f1 once, at return
        calls = []
        init = TruncatedSeries.__init__
        monkeypatch.setattr(TruncatedSeries, "__init__",
                            lambda self, *a, **kw: calls.append(1) or init(self, *a, **kw))
        pair = normalized_recurrence(30)
        assert len(calls) == 2
        monkeypatch.undo()
        assert pair == fold_normalized(30, 30)

    @pytest.mark.parametrize("order", [*range(81), 150, 1000, 2000])
    def test_matches_reference_scan(self, order):
        assert normalized_recurrence(order) == normalized_scan_pair(order)

    def test_euler_sum_weights_are_g_powers(self):
        # peel f0 and f1 into sum_k c_k * h_k with h_k = q^(T_k)/(q)_k built by
        # the series kernels: the weights are the first row (a_k, b_k) of the
        # integer matrix G^k = a_k I + b_k G, and a_k + b_k = F(2-k)
        order = 40
        pair = normalized_recurrence(order)
        rest = [list(pair.f0.coeffs), list(pair.f1.coeffs)]
        h, g_power, weights, g_rows = one(order), ((1, 0), (0, 1)), [], []
        for k in range(9):  # T_8 = 36 <= 40 < T_9
            if k:
                h = h.mul_s_block(k)
                g_power = mat_mul(g_power, ((0, 1), (1, -1)))
            t = k * (k + 1) // 2
            weights.append(tuple(coeffs[t] for coeffs in rest))
            g_rows.append(g_power[0])
            rest = [[x - coeffs[t] * y for x, y in zip(coeffs, h.coeffs)] for coeffs in rest]
        assert rest == [[0] * (order + 1)] * 2
        assert weights == g_rows
        assert [a + b for a, b in weights] == [1, 1, 0, 1, -1, 2, -3, 5, -8]

    def test_iter_rejects_negative_at_the_call(self):
        # per-step reference
        with pytest.raises(ValueError):
            iter_normalized_pairs(-1)

    def test_intermediate_f1_goes_negative(self):
        # per-step reference; pins the signed-coefficient requirement
        for n in range(3, 9):
            assert any(
                any(c < 0 for c in pair.f1.coeffs)
                for pair in iter_normalized_pairs(n)
            ), n

    def test_snapshots_match_matrix_fold_and_stay_put(self):
        # per-step reference: each yielded pair is the fold through normalized_matrix(1..k) and is
        # not changed by the steps after it
        for n in (0, 1, 2, 9, 30):
            pairs, seen = [], []
            for pair in iter_normalized_pairs(n):
                pairs.append(pair)
                seen.append((tuple(pair.f0.coeffs), tuple(pair.f1.coeffs)))
            v = start_pair(n)
            for k, pair in enumerate(pairs):
                if k:
                    v = apply_matrix(v, normalized_matrix(k, n))
                assert (pair.f0, pair.f1) == (v.f0, v.f1), (n, k)
                assert (pair.f0.coeffs, pair.f1.coeffs) == seen[k], (n, k)

    def test_stabilization(self):
        # per-step reference: after step n, coefficients up to q^n of the total never change
        order = 50
        pairs = list(iter_normalized_pairs(order))
        final = pair_total(pairs[-1])
        for m in range(order + 1):
            for n in range(m, order + 1):
                assert pair_total(pairs[n]).coeffs[:m + 1] == final.coeffs[:m + 1]


class TestFactorExtraction:
    def test_partial_product_identity(self):
        # folding the raw matrices equals the partial Euler factor times
        # the normalized fold, for every prefix length n
        order = 24
        raw = start_pair(order)
        normalized = start_pair(order)
        partial_euler = one(order)
        for n in range(1, order + 1):
            raw = apply_matrix(raw, transfer_matrix(n, order))
            normalized = apply_matrix(normalized, normalized_matrix(n, order))
            partial_euler = partial_euler.mul_geometric_inverse(n)
            assert raw.f0 == partial_euler * normalized.f0, n
            assert raw.f1 == partial_euler * normalized.f1, n


class TestEulerFactorizedGF:
    def test_order10(self):
        assert euler_factorized_gf(10).coeffs == (
            1, 2, 4, 7, 12, 19, 31, 47, 72, 107, 157,
        )

    def test_order0(self):
        assert euler_factorized_gf(0) == one(0)

    @pytest.mark.parametrize("order", [*range(81), 2000, 10000])
    def test_horner_total_matches_forward_pair(self, order):
        # the route folds only f0 + f1, inside out; the forward pair is its reference.
        # (a, b) <- (t b, a - b) and c_k = a_k + t b_k give F(2-k) at t = 1
        assert recurrence._normalized_total(order) == recurrence._normalized_total(order, 1) == \
            list(pair_total(euler_forward_pair(order)).coeffs)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            euler_factorized_gf(-1)

    def test_agrees_with_matrix_route(self):
        for n in (0, 1, 2, 3, 10, 60, 150, 1000):
            assert euler_factorized_gf(n) == matrix_product_gf(n), n

    def test_agrees_with_matrix_route_at_3000(self):
        assert euler_factorized_gf(3000) == matrix_product_gf(3000)

    def test_reads_no_other_route(self, monkeypatch):
        # independence: no Fibonacci number, e_r table or transfer-matrix fold
        expected = matrix_product_gf(200)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the recurrence route called another route")

        monkeypatch.setattr(fibonacci, "fib", forbidden)
        monkeypatch.setattr(symfun, "elementary_symmetric_series", forbidden)
        monkeypatch.setattr(transfer, "matrix_product_gf", forbidden)
        assert euler_factorized_gf(200) == expected

    def test_statement_variant_without_qn_factor_fails(self):
        # the f0 update needs the q^n factor; dropping it breaks the series
        order = 10
        f0, f1 = one(order), zero(order)
        for n in range(1, order + 1):
            f0, f1 = f0 + f1, f0.shift(n) + f1 - f1.shift(n)
        from blocksep.qseries import euler_inverse

        wrong = euler_inverse(order, f0 + f1)
        assert wrong != matrix_product_gf(order)


class TestEulerFactorizedTriangle:
    def test_matches_plain_reference(self):
        # the t-weighted fold at t = 2^v against one plain list per column,
        # built from the unpacked e_r fold
        for n in [*range(121), 500, 1000]:
            assert euler_factorized_triangle(n) == bivariate_columns(n), n

    def test_narrow_width_raises(self, monkeypatch):
        # v is read from p~(order); at the width whose spare bit the largest
        # b(n, m) reaches, and at every narrower one, decode must raise
        for n in (5, 30, 120):
            largest = max(max(row) for row in euler_factorized_triangle(n))
            for w in range(2, largest.bit_length() + 1):
                monkeypatch.setattr(recurrence, "overpartition_numbers",
                                    lambda order, w=w: [1 << (w - 2)] * (order + 1))
                with pytest.raises(symfun.SlotOverflowError):
                    euler_factorized_triangle(n)
            monkeypatch.undo()

    @pytest.mark.parametrize("edit", [lambda x: -x, lambda x: 0], ids=["negative", "zero"])
    def test_nonpositive_packed_coefficient_raises(self, monkeypatch, edit):
        # the Kronecker ints are signed until the division ends; b(n, 0) = p(n) >= 1
        divide = recurrence._sparse_divide

        def edited(*args):
            packed = divide(*args)
            packed[30] = edit(packed[30])
            return packed

        monkeypatch.setattr(recurrence, "_sparse_divide", edited)
        with pytest.raises(symfun.SlotOverflowError, match="b\\(n, m\\) slot"):
            euler_factorized_triangle(30)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            euler_factorized_triangle(-1)

    def test_reads_no_other_route(self, monkeypatch):
        # independence: no Fibonacci number, e_r table or transfer-matrix fold
        expected = bivariate_gf(200)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the recurrence triangle called another route")

        monkeypatch.setattr(fibonacci, "fib", forbidden)
        monkeypatch.setattr(symfun, "elementary_symmetric_series", forbidden)
        monkeypatch.setattr(transfer, "matrix_product_gf", forbidden)
        assert euler_factorized_triangle(200) == expected
