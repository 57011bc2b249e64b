import gc
import math

import pytest

from blocksep.fibonacci import (
    CapExceededError,
    DecorationWord,
    Tile,
    decoration_count,
    enumerate_decorations,
    fib,
    fib_polynomial,
    independent_set_to_word,
    tiling_to_word,
    word_to_independent_set,
    word_to_tiling,
)


def brute_force_valid_words(r):
    """Oracle: filter all 2^r bitstrings by the no-adjacent-ones rule."""
    out = []
    for x in range(1 << r):
        bits = tuple((x >> (r - 1 - i)) & 1 for i in range(r))
        if all(not (bits[i] and bits[i + 1]) for i in range(r - 1)):
            out.append(bits)
    return out


class TestFib:
    def test_convention_anchors(self):
        # a_0 = 1 = F_2 and a_1 = 2 = F_3 pin the convention
        assert fib(2) == 1
        assert fib(3) == 2

    def test_small_values(self):
        assert [fib(k) for k in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fib(-1)


class TestDecorationWord:
    def test_rejects_adjacent_ones(self):
        with pytest.raises(ValueError, match="adjacent"):
            DecorationWord((0, 1, 1))

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            DecorationWord((0, 2))

    def test_str_and_len(self):
        w = DecorationWord((0, 1, 0))
        assert str(w) == "010" and len(w) == 3
        assert str(DecorationWord(())) == ""


class TestEnumeration:
    def test_counts_match_brute_force(self):
        for r in range(15):
            words = enumerate_decorations(r)
            assert len(words) == len(brute_force_valid_words(r)) == decoration_count(r)

    def test_lexicographic_order(self):
        assert [str(w) for w in enumerate_decorations(2)] == ["00", "01", "10"]
        assert [str(w) for w in enumerate_decorations(3)] == [
            "000", "001", "010", "100", "101",
        ]
        for r in range(9):
            strs = [str(w) for w in enumerate_decorations(r)]
            assert strs == sorted(strs)

    def test_empty_word(self):
        assert enumerate_decorations(0) == [DecorationWord(())]

    def test_r5_has_13_words(self):
        assert len(brute_force_valid_words(5)) == 13
        assert decoration_count(5) == 13

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_decorations(26)
        assert len(enumerate_decorations(26, cap=26)) == fib(28)

    def test_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            enumerate_decorations(10)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0


class TestFibPolynomial:
    def test_small(self):
        assert fib_polynomial(0) == (1,)
        assert fib_polynomial(2) == (1, 2)
        assert fib_polynomial(4) == (1, 4, 3)

    def test_matches_enumeration_grouped_by_weight(self):
        for r in range(17):
            counts = {}
            for w in enumerate_decorations(r):
                m = w.overline_count
                counts[m] = counts.get(m, 0) + 1
            poly = fib_polynomial(r)
            assert poly == tuple(counts.get(m, 0) for m in range(len(poly)))
            assert sum(counts.values()) == sum(poly)

    def test_binomial_sum_identity(self):
        for r in range(65):
            assert sum(math.comb(r - m + 1, m) for m in range(r + 2)) == fib(r + 2)

    def test_evaluations(self):
        for r in range(12):
            poly = fib_polynomial(r)
            assert sum(poly) == decoration_count(r)
            assert poly[0] == 1


class TestIndependentSets:
    def test_direct_reading(self):
        assert word_to_independent_set(DecorationWord((0, 1, 0, 1))) == {2, 4}
        assert word_to_independent_set(DecorationWord((0, 0, 0))) == frozenset()

    def test_never_adjacent(self):
        for r in range(13):
            for w in enumerate_decorations(r):
                s = sorted(word_to_independent_set(w))
                assert all(b - a >= 2 for a, b in zip(s, s[1:]))

    def test_round_trip(self):
        for r in range(13):
            for w in enumerate_decorations(r):
                assert independent_set_to_word(word_to_independent_set(w), r) == w

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            independent_set_to_word({4}, 3)


def count_decompositions(bits):
    """Oracle: how many tile sequences spell this word (must be 1)."""
    r = len(bits)
    ways = [0] * (r + 1)
    ways[r] = 1
    for i in range(r - 1, -1, -1):
        if bits[i] == 0:
            ways[i] = ways[i + 1]
        elif i + 1 == r:
            ways[i] = 1  # final domino overhangs the virtual pad slot
        elif bits[i + 1] == 0:
            ways[i] = ways[i + 2]
    return ways[0]


def composition_count(length):
    """Oracle DP: compositions of `length` into parts 1 and 2."""
    if length < 0:
        return 0
    ways = [1] + [0] * length
    for i in range(1, length + 1):
        ways[i] = ways[i - 1] + (ways[i - 2] if i >= 2 else 0)
    return ways[length]


class TestTilings:
    def test_all_plain(self):
        assert word_to_tiling(DecorationWord((0, 0))) == (Tile.PLAIN, Tile.PLAIN)

    def test_domino_inside(self):
        assert word_to_tiling(DecorationWord((0, 1, 0))) == (
            Tile.PLAIN,
            Tile.OVERLINED_PAIR,
        )

    def test_trailing_overline_overhangs(self):
        assert word_to_tiling(DecorationWord((0, 1))) == (
            Tile.PLAIN,
            Tile.OVERLINED_PAIR,
        )

    def test_decomposition_unique(self):
        for r in range(13):
            for w in enumerate_decorations(r):
                assert count_decompositions(w.bits) == 1, w

    def test_round_trip(self):
        for r in range(13):
            for w in enumerate_decorations(r):
                assert tiling_to_word(word_to_tiling(w), r) == w

    def test_tiling_count_is_fibonacci(self):
        # sequences covering r cells exactly, or r+1 with a final domino
        for r in range(21):
            assert composition_count(r) + composition_count(r - 1) == fib(r + 2)

    def test_tilings_distinct_per_word(self):
        for r in range(13):
            tilings = {word_to_tiling(w) for w in enumerate_decorations(r)}
            assert len(tilings) == decoration_count(r)

    def test_tiling_to_word_rejects_bad_cover(self):
        with pytest.raises(ValueError):
            tiling_to_word((Tile.PLAIN,), 2)
        with pytest.raises(ValueError):
            tiling_to_word((Tile.OVERLINED_PAIR, Tile.PLAIN), 2)

    @pytest.mark.parametrize("tiles", [("0",), (Tile.PLAIN, "10"), (None,)])
    def test_tiling_to_word_rejects_non_tiles(self, tiles):
        # anything but a Tile used to be read as a domino: ("0",) gave 10
        with pytest.raises(ValueError, match="Tile"):
            tiling_to_word(tiles, 2)

    @pytest.mark.parametrize("positions", [{1.5}, {True}, {1, "2"}, {1.0}])
    def test_independent_set_to_word_rejects_non_int_positions(self, positions):
        # {1.5} passed the range check and was dropped; {True} read as 1
        with pytest.raises(ValueError, match="int"):
            independent_set_to_word(positions, 2)


@pytest.mark.parametrize("call, match", [
    (lambda: decoration_count(-1), "r must be nonnegative"),
    (lambda: enumerate_decorations(-1), "r must be nonnegative"),
    (lambda: fib_polynomial(-1), "r must be nonnegative"),
    (lambda: DecorationWord((True, False)), "bits must be 0 or 1"),
    (lambda: independent_set_to_word(frozenset(), -2), "r must be nonnegative"),
    # a negative r used to be read as a bad cover: "only a final domino may overhang"
    (lambda: tiling_to_word((), -1), "r must be nonnegative"),
    (lambda: tiling_to_word((Tile.PLAIN,), -1), "r must be nonnegative"),
], ids=["decoration_count", "enumerate_decorations", "fib_polynomial", "DecorationWord",
        "independent_set_to_word", "tiling_to_word_empty", "tiling_to_word"])
def test_rejects_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()
