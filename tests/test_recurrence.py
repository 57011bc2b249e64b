import pytest

from blocksep.qseries import TruncatedSeries, one, zero
from blocksep.recurrence import (
    euler_factorized_gf,
    iter_normalized_pairs,
    normalized_recurrence,
)
from blocksep.transfer import (
    apply_matrix,
    matrix_product_gf,
    normalized_matrix,
    start_pair,
    transfer_matrix,
)


def series(*coeffs):
    return TruncatedSeries(coeffs)


def fold_normalized(order, steps):
    v = start_pair(order)
    for j in range(1, steps + 1):
        v = apply_matrix(v, normalized_matrix(j, order))
    return v


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

    def test_iter_rejects_negative_at_the_call(self):
        with pytest.raises(ValueError):
            iter_normalized_pairs(-1)

    def test_full_scan_snapshots_once(self, monkeypatch):
        from blocksep import recurrence

        calls = []
        snapshot = recurrence._snapshot
        monkeypatch.setattr(recurrence, "_snapshot", lambda *a: calls.append(1) or snapshot(*a))
        assert normalized_recurrence(30) == fold_normalized(30, 30)
        assert len(calls) == 1

    def test_intermediate_f1_goes_negative(self):
        # pins the signed-coefficient requirement
        for n in range(3, 9):
            assert any(
                any(c < 0 for c in pair.f1.coeffs)
                for pair in iter_normalized_pairs(n)
            ), n

    def test_snapshots_match_matrix_fold_and_stay_put(self):
        # each yielded pair is the fold through normalized_matrix(1..k) and is
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
        # after step n, coefficients up to q^n of the total never change
        order = 50
        pairs = list(iter_normalized_pairs(order))
        final = pairs[-1].total()
        for m in range(order + 1):
            for n in range(m, order + 1):
                assert pairs[n].total().truncate(m) == final.truncate(m)


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

    def test_agrees_with_matrix_route(self):
        for n in (0, 1, 2, 3, 10, 60, 150, 1000):
            assert euler_factorized_gf(n) == matrix_product_gf(n), n

    def test_statement_variant_without_qn_factor_fails(self):
        # the f0 update needs the q^n factor; dropping it breaks the series
        order = 10
        f0, f1 = one(order), zero(order)
        for n in range(1, order + 1):
            f0, f1 = f0 + f1, f0.shift(n) + f1 - f1.shift(n)
        from blocksep.qseries import euler_inverse

        wrong = euler_inverse(order, f0 + f1)
        assert wrong != matrix_product_gf(order)
