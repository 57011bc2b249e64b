"""The routes fold over plain lists inside; what they return is pinned here.

`TruncatedSeries` holds a tuple, `StatePair` two such series and the
triangle a tuple of tuples, so no caller can see or change a route's
working lists. The export list and the names the benchmark harness wraps
are pinned here too.
"""

import copy
import importlib
import importlib.util
import pickle
import sys
from pathlib import Path

import pytest

import blocksep
from blocksep.bruteforce import BlockPartition, DecoratedPartition
from blocksep.fibonacci import DecorationWord
from blocksep.qseries import TruncatedSeries
from blocksep.recurrence import StatePair, euler_factorized_gf, normalized_recurrence
from blocksep.symfun import (bivariate_gf, elementary_symmetric_series, fibonacci_weighted_gf,
                             weighted_gf)
from blocksep.transfer import matrix_product_gf

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
    es = elementary_symmetric_series(12)
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
    (BlockPartition, "blocks", ([3, 2],), ((3, 2),)),
], ids=["DecorationWord", "BlockPartition", "BlockPartition_list_blocks",
        "BlockPartition_tuple_of_lists"])
def test_list_input_is_stored_as_tuples(make, field, as_list, as_tuple):
    a, b = make(as_list), make(as_tuple)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert getattr(a, field) == as_tuple


@pytest.mark.parametrize("blocks", [((3.5, 2),), ((3, 2.0),), ((True, 1),), ((2, True),),
                                    (("3", 1),)])
def test_block_partition_rejects_parts_that_are_not_int(blocks):
    # as DecorationWord and TruncatedSeries do; bool is not an int here
    with pytest.raises(ValueError):
        BlockPartition(blocks)


def test_decorated_partition_is_an_immutable_value():
    skeleton = BlockPartition(((2, 2), (1, 1)))
    a = DecoratedPartition(skeleton, DecorationWord((0, 1)))
    b = DecoratedPartition(BlockPartition([(2, 2), (1, 1)]), DecorationWord([0, 1]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != DecoratedPartition(skeleton, DecorationWord((1, 0)))
    assert a != (skeleton, a.decoration)
    assert repr(a) == ("DecoratedPartition(skeleton=BlockPartition(blocks=((2, 2), (1, 1))), "
                       "decoration=DecorationWord(bits=(0, 1)))")
    h = hash(a)
    for attr in ("skeleton", "decoration", "extra"):
        with pytest.raises((AttributeError, TypeError)):
            setattr(a, attr, None)
    with pytest.raises(AttributeError):
        del a.skeleton
    assert a.skeleton is skeleton and hash(a) == h
    assert pickle.loads(pickle.dumps(a)) == a  # rebuilt through the checking constructor


@pytest.mark.parametrize("make, field, value, other, shown", [
    (DecorationWord, "bits", (0, 1), (1, 0), "DecorationWord(bits=(0, 1))"),
    (BlockPartition, "blocks", ((2, 2), (1, 1)), ((3, 1),),
     "BlockPartition(blocks=((2, 2), (1, 1)))"),
], ids=["DecorationWord", "BlockPartition"])
def test_word_and_partition_are_immutable_values(make, field, value, other, shown):
    a, b = make(value), make(list(value))
    assert a == b and hash(a) == hash(b) == hash((value,)) and len({a, b}) == 1
    assert a != make(other) and a != value
    assert repr(a) == shown
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises((AttributeError, TypeError)):  # TypeError: a frozen slots dataclass
        a.extra = None
    assert getattr(a, field) == value and hash(a) == hash((value,))
    for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert copied == a and type(copied) is make


def test_star_import_gives_every_exported_name():
    # a stale entry in __all__ makes `from blocksep import *` raise
    namespace = {}
    exec("from blocksep import *", namespace)
    for name in blocksep.__all__:
        assert namespace[name] is getattr(blocksep, name), name


def test_names_the_harness_wraps_resolve(monkeypatch):
    # perfbench/spans.py looks these up with getattr when it installs its
    # spans, so deleting one breaks every traced benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, attr in spans.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"blocksep.{module}"), attr, None)), attr
    for methods in spans.KERNELS.values():
        for method in methods:
            assert callable(getattr(TruncatedSeries, method, None)), method
