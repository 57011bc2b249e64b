"""The routes fold over plain lists inside; what they return is pinned here.

`TruncatedSeries` holds a tuple, `StatePair` two such series and the
triangle a tuple of tuples, so no caller can see or change a route's
working lists.
"""

import pytest

from blocksep.bruteforce import BlockPartition
from blocksep.fibonacci import DecorationWord
from blocksep.qseries import TruncatedSeries
from blocksep.recurrence import euler_factorized_gf, normalized_recurrence
from blocksep.symfun import (bivariate_gf, elementary_symmetric_series, fibonacci_weighted_gf,
                             weighted_gf)
from blocksep.transfer import StatePair, matrix_product_gf


def assert_series(s, order):
    assert type(s) is TruncatedSeries
    assert type(s.coeffs) is tuple and len(s.coeffs) == order + 1
    assert all(type(c) is int for c in s.coeffs)


@pytest.mark.parametrize("route", [matrix_product_gf, euler_factorized_gf,
                                   fibonacci_weighted_gf])
@pytest.mark.parametrize("attr", ["coeffs", "_coeffs", "extra"])
def test_route_result_is_immutable(route, attr):
    s = route(5)
    coeffs, h = s.coeffs, hash(s)
    # Python 3.11 raises TypeError, not FrozenInstanceError, for a new
    # attribute on a frozen dataclass with slots.
    with pytest.raises((AttributeError, TypeError)):
        setattr(s, attr, (9, 9, 9))
    assert s.coeffs is coeffs and hash(s) == h


def test_matrix_product_gf():
    for n in (0, 7):
        assert_series(matrix_product_gf(n), n)


def test_normalized_recurrence():
    for n in (0, 7):
        pair = normalized_recurrence(n)
        assert type(pair) is StatePair
        assert_series(pair.f0, n)
        assert_series(pair.f1, n)


def test_elementary_symmetric_series():
    es = elementary_symmetric_series(4, 12)
    assert type(es) is list and len(es) == 5
    for e in es:
        assert_series(e, 12)


def test_weighted_gf():
    assert_series(weighted_gf(12, lambda r: 3**r), 12)


def test_bivariate_gf():
    rows = bivariate_gf(12)
    assert type(rows) is tuple and len(rows) == 13
    assert all(type(row) is tuple for row in rows)



@pytest.mark.parametrize("make, field, as_list, as_tuple", [
    (DecorationWord, "bits", [0, 1, 0], (0, 1, 0)),
    (BlockPartition, "blocks", [(2, 1), (1, 1)], ((2, 1), (1, 1))),
    (BlockPartition, "blocks", [[3, 2]], ((3, 2),)),
], ids=["DecorationWord", "BlockPartition", "BlockPartition_list_blocks"])
def test_list_input_is_stored_as_tuples(make, field, as_list, as_tuple):
    a, b = make(as_list), make(as_tuple)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert getattr(a, field) == as_tuple
