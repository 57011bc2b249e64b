from collections import Counter

import pytest

from blocksep.bruteforce import (
    BlockPartition,
    DecoratedPartition,
    _block_forms,
    _skeletons_by_blocks,
    count_bivariate_oracle,
    count_block_separated,
    list_block_separated,
)
from blocksep.fibonacci import CapExceededError, DecorationWord
from blocksep.qseries import euler_inverse, overpartition_numbers, partition_numbers
from blocksep.recurrence import euler_factorized_gf
from blocksep.symfun import bivariate_gf, fibonacci_weighted_gf
from blocksep.transfer import matrix_product_gf
from block_forms import block_forms_recursive, count_overpartitions, decorated_objects


def all_decorations_unfiltered(r):
    """All 2^r overlining patterns, legal or not, as bit tuples."""
    return [
        tuple((x >> (r - 1 - i)) & 1 for i in range(r)) for x in range(1 << r)
    ]


def is_block_separated(bits):
    return all(not (bits[i] and bits[i + 1]) for i in range(len(bits) - 1))


class TestBlockPartition:
    def test_str(self):
        assert str(BlockPartition(((2, 2), (1, 1)))) == "2+2+1"
        assert str(BlockPartition(())) == "(empty)"

    def test_decorated_str_is_the_list_rendering(self):
        skeleton = BlockPartition(((2, 2), (1, 1)))
        assert str(DecoratedPartition(skeleton, DecorationWord((1, 0)))) == "2~+2+1"
        assert str(DecoratedPartition(BlockPartition(()), DecorationWord(()))) == "(empty)"

    def test_weight_and_blocks(self):
        p = BlockPartition(((3, 1), (1, 2)))
        assert sum(part * mult for part, mult in p.blocks) == 5 and len(p.blocks) == 2

    def test_rejects_nonincreasing_parts(self):
        with pytest.raises(ValueError):
            BlockPartition(((2, 1), (2, 1)))
        with pytest.raises(ValueError):
            BlockPartition(((1, 1), (2, 1)))

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError):
            BlockPartition(((2, 0),))

    def test_decorated_partition_length_check(self):
        skeleton = BlockPartition(((2, 1), (1, 1)))
        with pytest.raises(ValueError):
            DecoratedPartition(skeleton, DecorationWord((1,)))


class TestEnumerateBlockPartitions:
    """`_block_forms`, the walk behind the skeleton counts and the listing."""

    def test_n0(self):
        assert list(_block_forms(0)) == [()]

    def test_n4_canonical_order(self):
        assert list(_block_forms(4)) == [
            ((4, 1),),
            ((3, 1), (1, 1)),
            ((2, 2),),
            ((2, 1), (1, 2)),
            ((1, 4),),
        ]

    def test_counts_are_partition_numbers(self):
        assert len(list(_block_forms(4))) == 5
        assert len(list(_block_forms(10))) == 42

    def test_invariants_hold(self):
        for n in range(12):
            for blocks in _block_forms(n):
                p = BlockPartition(blocks)
                assert sum(part * mult for part, mult in p.blocks) == n
                parts = [part for part, _ in p.blocks]
                assert parts == sorted(parts, reverse=True)
                assert len(set(parts)) == len(parts)


class TestBlockFormsWalk:
    def test_same_sequence_as_the_recursion(self):
        for n in range(41):
            assert list(_block_forms(n)) == list(block_forms_recursive(n, n)), n

    def test_yields_partition_numbers(self):
        p = partition_numbers(40)
        for n in range(41):
            assert sum(1 for _ in _block_forms(n)) == p[n], n

    def test_skeleton_tallies_of_every_weight_from_one_walk(self):
        # the ones bijection: the walk over n tallies every k <= n as its own walk would
        walks = [Counter(map(len, _block_forms(k))) for k in range(41)]
        for n in range(41):
            assert _skeletons_by_blocks(n) == walks[:n + 1], n

    def test_tallies_match_per_object_reference(self):
        pbar = overpartition_numbers(25)
        counts, rows = count_block_separated(25), count_bivariate_oracle(25)
        assert len(counts) == len(rows) == 26
        for n in range(26):
            separated = decorated_objects(n, separated=True)
            unrestricted = decorated_objects(n, separated=False)
            assert set(separated.values()) == set(unrestricted.values()) == {1}
            assert counts[n] == len(separated), n
            assert pbar[n] == len(unrestricted), n
            by_overlines = Counter(sum(bits) for _, bits in separated)
            assert rows[n] == by_overlines, n


class TestCountBlockSeparated:
    def test_known_values(self):
        assert count_block_separated(0) == [1]
        assert count_block_separated(3)[3] == 7
        assert count_block_separated(5)[5] == 19

    def test_cap(self):
        with pytest.raises(CapExceededError):
            count_block_separated(61)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_block_separated(-1)


class TestListBlockSeparated:
    def test_n1(self):
        got = list_block_separated(1)
        assert [(str(d.skeleton), str(d.decoration)) for d in got] == [
            ("1", "0"),
            ("1", "1"),
        ]

    def test_n3_is_the_filtered_overpartition_list(self):
        got = {(d.skeleton.blocks, d.decoration.bits) for d in list_block_separated(3)}
        expected = set()
        for blocks in block_forms_recursive(3, 3):
            for bits in all_decorations_unfiltered(len(blocks)):
                if is_block_separated(bits):
                    expected.add((blocks, bits))
        assert got == expected
        assert len(got) == 7
        # the one classical overpartition of 3 that is dropped
        assert (((2, 1), (1, 1)), (1, 1)) not in got

    def test_n5_example(self):
        got = list_block_separated(5)
        assert len(got) == 19
        keyed = {(d.skeleton.blocks, d.decoration.bits) for d in got}
        assert (((2, 2), (1, 1)), (0, 1)) in keyed
        assert (((2, 2), (1, 1)), (1, 1)) not in keyed

    def test_matches_weighted_count(self):
        counts = count_block_separated(25)
        for n in range(26):
            assert len(list_block_separated(n, cap=25)) == counts[n]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            list_block_separated(21)


class TestBivariateOracle:
    def test_n1(self):
        assert count_bivariate_oracle(1)[1] == {0: 1, 1: 1}

    def test_n5(self):
        row = count_bivariate_oracle(5)[5]
        assert sum(row.values()) == 19
        assert row[0] == 7

    def test_matches_listing(self):
        rows = count_bivariate_oracle(14)
        for n in range(15):
            by_listing: dict[int, int] = {}
            for d in list_block_separated(n):
                m = d.decoration.overline_count
                by_listing[m] = by_listing.get(m, 0) + 1
            assert rows[n] == by_listing


class TestCountOverpartitions:
    def test_known_values(self):
        assert count_overpartitions(0) == 1
        assert count_overpartitions(3) == 8
        assert count_overpartitions(10) == 232


class TestOracleAgainstAnalyticRoutes:
    def test_counts_match_all_three_series(self):
        n_top = 25
        matrix = matrix_product_gf(n_top).coeffs
        recurrence = euler_factorized_gf(n_top).coeffs
        symmetric = fibonacci_weighted_gf(n_top).coeffs
        counts = count_block_separated(n_top)
        for n in range(n_top + 1):
            assert counts[n] == matrix[n] == recurrence[n] == symmetric[n], n

    def test_bivariate_rows_match(self):
        n_top = 25
        triangle = bivariate_gf(n_top)
        rows = count_bivariate_oracle(n_top)
        for n in range(n_top + 1):
            row = rows[n]
            assert tuple(row.get(m, 0) for m in range(len(triangle[n]))) == triangle[n], n
            assert sum(row.values()) == sum(triangle[n])

    def test_sandwich(self):
        n_top = 25
        p = euler_inverse(n_top).coeffs
        b = matrix_product_gf(n_top).coeffs
        for n in range(n_top + 1):
            pbar = count_overpartitions(n)
            assert p[n] <= b[n] <= pbar
            if n >= 1:
                assert p[n] < b[n]
            # the chain collapses entirely only at n = 0
            assert (p[n] == b[n] == pbar) == (n == 0)
            # b meets the overpartition count exactly while r <= 1 skeletons
            assert (b[n] == pbar) == (n <= 2)
