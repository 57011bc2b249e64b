import random

import pytest
from hypothesis import given, settings, strategies as st

from blocksep.bruteforce import _block_forms
from blocksep.qseries import (TruncatedSeries, euler_inverse, overpartition_numbers,
                              partition_numbers)
from series_folds import (
    euler_product_inverse,
    geometric_inverse,
    one,
    pentagonal_terms,
    qpow,
    s_block,
    schoolbook_product,
    term_division,
    theta_terms,
    zero,
)


def series(*coeffs):
    return TruncatedSeries(coeffs)


# Draw two or three series sharing one order, with small coefficients.
def _series_tuple(count):
    return st.integers(min_value=0, max_value=32).flatmap(
        lambda n: st.tuples(
            *(
                st.lists(
                    st.integers(min_value=-9, max_value=9),
                    min_size=n + 1,
                    max_size=n + 1,
                ).map(TruncatedSeries)
                for _ in range(count)
            )
        )
    )


class TestArithmetic:
    def test_add(self):
        assert series(1, 1) + series(1, 1) == series(2, 2)

    def test_add_identity(self):
        a = series(3, -1, 4)
        assert a + zero(2) == a

    def test_add_cancellation(self):
        # signed coefficients must be supported
        assert series(1, -1) + series(0, 1) == series(1, 0)

    def test_add_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            series(1, 2) + series(1, 2, 3)

    def test_mul(self):
        assert series(1, 1, 0) * series(1, 1, 0) == series(1, 2, 1)

    def test_mul_identity(self):
        a = series(5, 0, -2, 7)
        assert a * one(3) == a

    def test_mul_telescoping(self):
        # (1+q+q^2)(1-q) = 1 - q^3, truncated at order 2
        assert series(1, 1, 1) * series(1, -1, 0) == series(1, 0, 0)

    def test_mul_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            series(1) * series(1, 0)

    def test_scalar_mul(self):
        assert 3 * series(1, -2) == series(3, -6)
        assert series(1, -2) * -1 == series(-1, 2)

    def test_sub(self):
        assert series(4, 4) - series(1, 2) == series(3, 2)

    @given(_series_tuple(2))
    def test_mul_commutative(self, pair):
        a, b = pair
        assert a * b == b * a

    @given(_series_tuple(3))
    @settings(max_examples=60)
    def test_mul_associative(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    @given(_series_tuple(3))
    @settings(max_examples=60)
    def test_mul_distributes_over_add(self, triple):
        a, b, c = triple
        assert a * (b + c) == a * b + a * c


class TestConstructors:
    @pytest.mark.parametrize("coeffs", [[1.0, 2.0], [True, False]], ids=["float", "bool"])
    def test_rejects_float_coefficients(self, coeffs):
        with pytest.raises(TypeError):
            TruncatedSeries(coeffs)

    @pytest.mark.parametrize("scalar", [True, False])
    def test_rejects_bool_scalar(self, scalar):
        # as for coefficients: True would otherwise pass as 1
        with pytest.raises(TypeError):
            series(1, 2) * scalar
        with pytest.raises(TypeError):
            scalar * series(1, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_qpow(self):
        assert qpow(2, 4) == series(0, 0, 1, 0, 0)
        assert qpow(5, 3) == zero(3)

    def test_geometric_inverse_values(self):
        assert geometric_inverse(1, 3) == series(1, 1, 1, 1)
        assert geometric_inverse(2, 5) == series(1, 0, 1, 0, 1, 0)

    def test_s_block_values(self):
        assert s_block(1, 3) == series(0, 1, 1, 1)
        assert s_block(3, 3) == series(0, 0, 0, 1)
        assert s_block(5, 3) == zero(3)


class TestIdentities:
    def test_geometric_inverse_times_one_minus_qj(self):
        # full range via the shift kernel, which TestKernels pins to the
        # generic product
        for n in range(65):
            for j in range(1, n + 1):
                g = geometric_inverse(j, n)
                assert g - g.shift(j) == one(n), (j, n)

    def test_geometric_inverse_times_one_minus_qj_generic_mul(self):
        for n in (1, 7, 33, 64):
            for j in range(1, n + 1):
                prod = geometric_inverse(j, n) * (one(n) - qpow(j, n))
                assert prod == one(n), (j, n)

    def test_one_plus_s_block_is_geometric_inverse(self):
        for n in range(65):
            for j in range(1, n + 1):
                assert one(n) + s_block(j, n) == geometric_inverse(j, n), (j, n)


class TestKernels:
    """The O(N) kernels must agree with generic products."""

    @given(_series_tuple(1), st.integers(min_value=0, max_value=40))
    @settings(max_examples=80)
    def test_shift(self, single, j):
        (a,) = single
        assert a.shift(j) == a * qpow(j, a.order)

    @given(_series_tuple(1), st.integers(min_value=1, max_value=40))
    @settings(max_examples=80)
    def test_mul_geometric_inverse(self, single, j):
        (a,) = single
        assert a.mul_geometric_inverse(j) == a * geometric_inverse(j, a.order)

    @given(_series_tuple(1), st.integers(min_value=1, max_value=40))
    @settings(max_examples=80)
    def test_mul_s_block(self, single, j):
        (a,) = single
        assert a.mul_s_block(j) == a * s_block(j, a.order)


# One or two series of one order 0..64 with signed coefficients up to about
# 2^300, some of them all zero.
_BIG = 2**300


def _wide_tuple(count):
    return st.integers(min_value=0, max_value=64).flatmap(
        lambda n: st.tuples(
            *(
                st.one_of(
                    st.just(zero(n)),
                    st.lists(
                        st.integers(min_value=-_BIG, max_value=_BIG),
                        min_size=n + 1,
                        max_size=n + 1,
                    ).map(TruncatedSeries),
                )
                for _ in range(count)
            )
        )
    )


class TestPackedProduct:
    """`*` against the term-by-term reference product."""

    @given(_wide_tuple(2))
    @settings(max_examples=150)
    def test_matches_schoolbook(self, pair):
        a, b = pair
        assert a * b == schoolbook_product(a, b)

    @pytest.mark.parametrize("order", [0, 1, 5, 64])
    def test_zero_operand_next_to_huge_coefficients(self, order):
        huge = TruncatedSeries((-1) ** k * (_BIG + k) for k in range(order + 1))
        assert huge * zero(order) == zero(order)
        assert zero(order) * huge == zero(order)
        assert huge * one(order) == huge

    @pytest.mark.parametrize("a, b", [(0, 0), (1, -1), (-7, -9), (_BIG, -_BIG)])
    def test_order_zero(self, a, b):
        assert series(a) * series(b) == series(a * b)


class TestEulerInverse:
    def test_table_values(self):
        assert euler_inverse(10).coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)

    def test_order_zero(self):
        assert euler_inverse(0) == one(0)

    def test_inverse_property(self):
        n = 30
        euler_product = one(n)
        for j in range(1, n + 1):
            euler_product = euler_product - euler_product.shift(j)
        assert euler_inverse(n) * euler_product == one(n)

    @given(_wide_tuple(1))
    @settings(max_examples=150)
    def test_division_matches_product(self, single):
        (f,) = single
        assert euler_inverse(f.order, f) == schoolbook_product(euler_inverse(f.order), f)

    def test_unit_numerator_gives_partition_numbers(self):
        for n in range(65):
            assert euler_inverse(n, one(n)) == euler_inverse(n), n

    def test_both_routes_agree_at_500(self):
        n = 500
        assert euler_inverse(n) == euler_product_inverse(n)

    def test_division_matches_term_reference(self):
        # the sign-grouped loop against one multiply per (g, c) term, at every
        # order: p with scale 1, p~ with theta's scale 2
        for n in range(301):
            assert partition_numbers(n) == term_division(one(n).coeffs, pentagonal_terms(n)), n
            assert overpartition_numbers(n) == term_division(one(n).coeffs, theta_terms(n)), n

    def test_division_matches_term_reference_at_2000(self):
        n = 2000
        assert partition_numbers(n) == term_division(one(n).coeffs, pentagonal_terms(n))
        assert overpartition_numbers(n) == term_division(one(n).coeffs, theta_terms(n))

    def test_signed_numerator_matches_term_reference(self):
        # the Euler factor divides a numerator with signed coefficients
        rng = random.Random(20)
        for n in (0, 1, 5, 40, 300):
            numerator = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(n + 1)]
            assert list(euler_inverse(n, TruncatedSeries(numerator)).coeffs) == \
                term_division(numerator, pentagonal_terms(n)), n

    def test_matches_brute_force_partition_count(self):
        coeffs = euler_inverse(40).coeffs
        for n in range(41):
            assert coeffs[n] == sum(1 for _ in _block_forms(n))


def test_hash_follows_equality():
    assert hash(series(1, 2)) == hash(TruncatedSeries([1, 2]))
    assert len({series(1, 2), series(1, 2), series(1, 2, 0)}) == 2


@pytest.mark.parametrize("call", [
    lambda: one(3).shift(-1),
    lambda: one(3).mul_s_block(0),
    lambda: partition_numbers(-1),
    lambda: overpartition_numbers(-1),
    lambda: euler_inverse(3, one(4)),
], ids=["shift", "mul_s_block", "partition_numbers", "overpartition_numbers",
        "euler_inverse_numerator_order"])
def test_rejects_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
