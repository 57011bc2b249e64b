"""Decoration patterns on blocks and their Fibonacci combinatorics.

A partition with r distinct part sizes has r blocks; which blocks are
overlined is a binary word with no two adjacent ones. Such words are
counted by Fibonacci numbers and are in bijection with independent sets
of the path graph and with square/domino tilings.
"""

from __future__ import annotations

import math
from enum import Enum

from .qseries import _Value

#: Fibonacci convention used throughout: F_1 = F_2 = 1 (and F_0 = 0).
#: With it the number of legal decorations of r blocks is F_{r+2}.

DEFAULT_ENUMERATION_CAP = 25


class CapExceededError(ValueError):
    """An enumeration was asked to exceed its configured resource cap."""


def _check_cap(what: str, name: str, size: int, cap: int) -> None:
    """Refuse a negative size, and a size beyond cap with a CapExceededError."""
    if size < 0:
        raise ValueError(f"{name} must be nonnegative")
    if size > cap:
        raise CapExceededError(f"{what} for {name}={size} exceeds cap {cap}; "
                               "raise the cap explicitly")


class DecorationWord(_Value):
    """Overlining pattern: bit i is 1 iff block i is overlined.

    Valid words never have two adjacent ones; that is exactly the
    block-separation constraint.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]) -> None:
        bits = tuple(bits)  # a list would make the word unhashable
        for b in bits:
            if type(b) is not int or b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
        for i in range(len(bits) - 1):
            if bits[i] == 1 and bits[i + 1] == 1:
                raise ValueError(f"adjacent overlines at positions {i + 1},{i + 2}")
        self._setters[0](self, bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    @property
    def overline_count(self) -> int:
        return sum(self.bits)


class Tile(Enum):
    """Tiles of the square/domino reading of a decoration word."""

    PLAIN = "0"
    OVERLINED_PAIR = "10"


def fib(k: int) -> int:
    """k-th Fibonacci number with F_0 = 0, F_1 = F_2 = 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def decoration_count(r: int) -> int:
    """Number of legal decorations of r blocks: F_{r+2}."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return fib(r + 2)


def enumerate_decorations(r: int, *, cap: int = DEFAULT_ENUMERATION_CAP) -> list[DecorationWord]:
    """All legal decoration words of length r, in lexicographic order (0 < 1).

    Guarded by a cap (default 25) because the list grows like phi^r.
    """
    _check_cap("decoration enumeration", "r", r, cap)
    # grow every legal prefix by one letter at a time, 0 before 1, so the
    # prefixes stay in lexicographic order
    prefixes: list[tuple[int, ...]] = [()]
    for _ in range(r):
        prefixes = [p + (b,) for p in prefixes
                    for b in ((0,) if p[-1:] == (1,) else (0, 1))]
    return [DecorationWord(bits) for bits in prefixes]


def fib_polynomial(r: int) -> tuple[int, ...]:
    """Decorations of r blocks by overline count: entry m is C(r-m+1, m).

    The entries sum to F_{r+2}, the total number of decorations.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    return tuple(math.comb(r - m + 1, m) for m in range((r + 1) // 2 + 1))


def word_to_independent_set(w: DecorationWord) -> frozenset[int]:
    """Positions of overlined blocks, 1-indexed; independent in the path P_r."""
    return frozenset(i + 1 for i, b in enumerate(w.bits) if b)


def independent_set_to_word(positions: frozenset[int] | set[int], r: int) -> DecorationWord:
    """Inverse of word_to_independent_set for words of length r."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    for p in positions:
        if type(p) is not int:  # bool too: True would pass as 1
            raise ValueError(f"positions must be int, got {p!r}")
        if not 1 <= p <= r:
            raise ValueError(f"position {p} outside 1..{r}")
    return DecorationWord(tuple(1 if i + 1 in positions else 0 for i in range(r)))


def word_to_tiling(w: DecorationWord) -> tuple[Tile, ...]:
    """Greedy left-to-right square/domino reading of a decoration word.

    A plain block is a unit tile; an overlined block together with the
    following forced-plain position is a domino. A trailing overline's
    domino covers a virtual pad slot just past the end, so the tiles of a
    length-r word cover r or r+1 cells and the decomposition is unique.
    """
    tiles: list[Tile] = []
    i = 0
    bits = w.bits
    while i < len(bits):
        if bits[i] == 0:
            tiles.append(Tile.PLAIN)
            i += 1
        else:
            tiles.append(Tile.OVERLINED_PAIR)
            i += 2
    return tuple(tiles)


def tiling_to_word(tiles: tuple[Tile, ...], r: int) -> DecorationWord:
    """Inverse of word_to_tiling for words of length r."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    bits: list[int] = []
    for t in tiles:
        if not isinstance(t, Tile):
            raise ValueError(f"tiles must be Tile, got {t!r}")
        bits.extend((0,) if t is Tile.PLAIN else (1, 0))
    if len(bits) == r + 1:
        if not (tiles and tiles[-1] is Tile.OVERLINED_PAIR):
            raise ValueError("only a final domino may overhang the board")
        bits.pop()  # drop the virtual pad slot
    if len(bits) != r:
        raise ValueError(f"tiles cover {len(bits)} cells, expected {r}")
    return DecorationWord(tuple(bits))
