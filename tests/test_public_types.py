"""The routes fold over plain lists inside; what they return is pinned here.

`TruncatedSeries` holds a tuple, `StatePair` two such series and the
triangle a tuple of tuples, so no caller can see or change a route's
working lists. The export list, the refusal of a negative order or size,
the names the benchmark harness wraps and README's library examples are
pinned here too.
"""

import copy
import doctest
import importlib
import importlib.util
import inspect
import pickle
import re
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

# the name of each parameter that is an order or a size, and, for every public
# function that takes one, its arguments with -1 in that place
SIZES = {"order", "n", "r", "k"}
NEGATIVE_SIZE_CALLS = {
    "bivariate_gf": (-1,),
    "count_bivariate_oracle": (-1,),
    "count_block_separated": (-1,),
    "decoration_count": (-1,),
    "elementary_symmetric_series": (-1,),
    "enumerate_decorations": (-1,),
    "euler_factorized_gf": (-1,),
    "euler_factorized_triangle": (-1,),
    "euler_inverse": (-1,),
    "fib": (-1,),
    "fib_polynomial": (-1,),
    "fibonacci_weighted_gf": (-1,),
    "independent_set_to_word": (frozenset(), -1),
    "list_block_separated": (-1,),
    "matrix_product_gf": (-1,),
    "max_block_count": (-1,),
    "normalized_recurrence": (-1,),
    "overpartition_numbers": (-1,),
    "partition_numbers": (-1,),
    "tiling_to_word": ((), -1),
    "weighted_gf": (-1, lambda r: 1),
}

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
README = Path(__file__).resolve().parents[1] / "README.md"


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
    # _Value raises AttributeError for any attribute; TypeError is accepted
    # too, so this pins that nothing changes, not which error says so.
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
    with pytest.raises((AttributeError, TypeError)):  # either error refuses it
        a.extra = None
    assert getattr(a, field) == value and hash(a) == hash((value,))
    for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert copied == a and type(copied) is make


PAIR = {"f0": TruncatedSeries((1, 2)), "f1": TruncatedSeries((0, -1))}


@pytest.mark.parametrize("make, fields, other, shown", [
    (TruncatedSeries, {"coeffs": (1, 2, 4)}, {"coeffs": (1, 2, 5)},
     "TruncatedSeries(coeffs=(1, 2, 4))"),
    (StatePair, PAIR, {"f0": PAIR["f1"], "f1": PAIR["f0"]},
     "StatePair(f0=TruncatedSeries(coeffs=(1, 2)), f1=TruncatedSeries(coeffs=(0, -1)))"),
], ids=["TruncatedSeries", "StatePair"])
def test_series_and_pair_are_immutable_values(make, fields, other, shown):
    a, b, values = make(**fields), make(*fields.values()), tuple(fields.values())
    assert a == b and hash(a) == hash(b) == hash(values) and len({a, b}) == 1
    assert a != make(**other) and a != values and a != values[0]
    assert repr(a) == shown
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises((AttributeError, TypeError)):  # either error refuses it
        a.extra = None
    assert tuple(getattr(a, name) for name in fields) == values and hash(a) == hash(values)
    for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert copied == a and type(copied) is make


def test_star_import_gives_every_exported_name():
    # a stale entry in __all__ makes `from blocksep import *` raise
    namespace = {}
    exec("from blocksep import *", namespace)
    for name in blocksep.__all__:
        assert namespace[name] is getattr(blocksep, name), name


def size_parameter(name):
    """The parameter of public function name that is an order or a size, or None."""
    f = getattr(blocksep, name)
    if not inspect.isfunction(f):  # a class
        return None
    return next((p for p in inspect.signature(f).parameters if p in SIZES), None)


def test_every_sized_function_is_in_the_negative_size_table():
    assert {name for name in blocksep.__all__ if size_parameter(name)} == set(NEGATIVE_SIZE_CALLS)


@pytest.mark.parametrize("name", NEGATIVE_SIZE_CALLS)
def test_a_negative_order_or_size_is_refused(name):
    with pytest.raises(ValueError, match=f"^{size_parameter(name)} must be nonnegative$"):
        getattr(blocksep, name)(*NEGATIVE_SIZE_CALLS[name])


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


def test_readme_examples_run():
    # one doctest per fenced python block: doctest.testfile would read each
    # closing fence as the expected output of the example before it
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, f"README.md python block {i}", str(README), 0))
    failed, attempted = runner.summarize(verbose=False)
    assert blocks and attempted and not failed
