import pytest

from blocksep.qseries import TruncatedSeries, euler_inverse, one, qpow, s_block, zero
from blocksep.transfer import (
    StatePair,
    TransferMatrix,
    apply_matrix,
    matrix_product_gf,
    normalized_matrix,
    start_pair,
    transfer_matrix,
)


def series(*coeffs):
    return TruncatedSeries(coeffs)


def fold(order, js, matrix_builder=transfer_matrix):
    v = start_pair(order)
    for j in js:
        v = apply_matrix(v, matrix_builder(j, order))
    return v


class TestTransferMatrix:
    def test_entries_against_primitives(self):
        for j in (1, 2, 3, 7):
            m = transfer_matrix(j, 6)
            assert m.entry(0, 0) == one(6) + s_block(j, 6)
            assert m.entry(0, 1) == s_block(j, 6)
            assert m.entry(1, 0) == s_block(j, 6)
            assert m.entry(1, 1) == one(6)

    def test_j1_order3(self):
        m = transfer_matrix(1, 3)
        assert m.e00 == series(1, 1, 1, 1)
        assert m.e01 == series(0, 1, 1, 1)
        assert m.e10 == series(0, 1, 1, 1)
        assert m.e11 == series(1, 0, 0, 0)

    def test_j2_order3(self):
        m = transfer_matrix(2, 3)
        assert m.e00 == series(1, 0, 1, 0)
        assert m.e01 == series(0, 0, 1, 0)

    def test_identity_beyond_order(self):
        m = transfer_matrix(7, 3)
        assert m.e00 == one(3) and m.e11 == one(3)
        assert m.e01 == zero(3) and m.e10 == zero(3)

    def test_rejects_j_zero(self):
        with pytest.raises(ValueError):
            transfer_matrix(0, 3)

    def test_rejects_mixed_orders(self):
        with pytest.raises(ValueError, match="mixed orders"):
            TransferMatrix(one(2), one(2), one(2), one(3))


class TestNormalizedMatrix:
    def test_j1_order2(self):
        m = normalized_matrix(1, 2)
        assert m.e00 == one(2)
        assert m.e01 == qpow(1, 2)
        assert m.e10 == qpow(1, 2)
        assert m.e11 == series(1, -1, 0)

    def test_defining_identity(self):
        for j in range(1, 9):
            n = 8
            m = transfer_matrix(j, n)
            factor = one(n) - qpow(j, n)
            normalized = normalized_matrix(j, n)
            assert normalized.e00 == factor * m.e00
            assert normalized.e01 == factor * m.e01
            assert normalized.e10 == factor * m.e10
            assert normalized.e11 == factor * m.e11

    def test_identity_beyond_order(self):
        m = normalized_matrix(5, 3)
        assert m.e00 == one(3) and m.e11 == one(3)
        assert m.e01 == zero(3) and m.e10 == zero(3)


class TestApplyMatrix:
    def test_step1(self):
        v = fold(3, [1])
        assert v.f0 == series(1, 1, 1, 1)
        assert v.f1 == series(0, 1, 1, 1)

    def test_step2(self):
        v = fold(3, [1, 2])
        assert v.f0 == series(1, 1, 2, 3)
        assert v.f1 == series(0, 1, 2, 2)

    def test_step3(self):
        v = fold(3, [1, 2, 3])
        assert v.f0 == series(1, 1, 2, 4)
        assert v.f1 == series(0, 1, 2, 3)
        assert v.total() == series(1, 2, 4, 7)

    def test_rejects_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            apply_matrix(start_pair(2), transfer_matrix(1, 3))

    def test_state_pair_rejects_mixed_orders(self):
        with pytest.raises(ValueError, match="mixed orders"):
            StatePair(one(2), zero(3))


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
        for n in (0, 1, 2, 5, 13, 40):
            assert matrix_product_gf(n) == fold(n, range(1, n + 1)).total()

    def test_cutoff_soundness(self):
        # extending the scan past j = N multiplies by identities only
        n = 24
        assert fold(n, range(1, n + 1)).total() == fold(n, range(1, 2 * n + 1)).total()

    def test_start_state_matters(self):
        n = 3
        swapped = StatePair(zero(n), one(n))
        v = swapped
        for j in range(1, n + 1):
            v = apply_matrix(v, transfer_matrix(j, n))
        assert v.total() != matrix_product_gf(n)

    def test_monotone_and_sandwiched(self):
        from blocksep.bruteforce import count_overpartitions

        n = 25
        b = matrix_product_gf(n).coeffs
        p = euler_inverse(n).coeffs
        assert all(b[i] <= b[i + 1] for i in range(n))
        for i in range(n + 1):
            assert p[i] <= b[i] <= count_overpartitions(i)


@pytest.mark.parametrize("call, error", [
    (lambda: normalized_matrix(0, 3), ValueError),
    (lambda: matrix_product_gf(-1), ValueError),
    (lambda: transfer_matrix(1, 3).entry(2, 0), IndexError),
], ids=["normalized_matrix", "matrix_product_gf", "entry"])
def test_rejects_bad_arguments(call, error):
    with pytest.raises(error):
        call()
