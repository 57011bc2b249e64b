"""Decoration patterns on blocks and their Fibonacci combinatorics.

A partition with r distinct part sizes has r blocks; which blocks are
overlined is a binary word with no two adjacent ones. Such words are
counted by Fibonacci numbers and are in bijection with independent sets
of the path graph and with square/domino tilings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

#: Fibonacci convention used throughout: F_1 = F_2 = 1 (and F_0 = 0).
#: With it the number of legal decorations of r blocks is F_{r+2}.

DEFAULT_ENUMERATION_CAP = 25


class CapExceededError(ValueError):
    """An enumeration was asked to exceed its configured resource cap."""


@dataclass(frozen=True)
class DecorationWord:
    """Overlining pattern: bit i is 1 iff block i is overlined.

    Valid words never have two adjacent ones; that is exactly the
    block-separation constraint.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        for b in self.bits:
            if b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
        for i in range(len(self.bits) - 1):
            if self.bits[i] == 1 and self.bits[i + 1] == 1:
                raise ValueError(f"adjacent overlines at positions {i + 1},{i + 2}")

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
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r > cap:
        raise CapExceededError(
            f"decoration enumeration for r={r} exceeds cap {cap}; "
            "raise the cap explicitly if you mean it"
        )
    words: list[DecorationWord] = []

    def grow(prefix: tuple[int, ...]) -> None:
        if len(prefix) == r:
            words.append(DecorationWord(prefix))
            return
        grow(prefix + (0,))
        if not prefix or prefix[-1] == 0:
            grow(prefix + (1,))

    grow(())
    return words


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
    for p in positions:
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
    bits: list[int] = []
    for t in tiles:
        bits.extend((0,) if t is Tile.PLAIN else (1, 0))
    if len(bits) == r + 1:
        if not (tiles and tiles[-1] is Tile.OVERLINED_PAIR):
            raise ValueError("only a final domino may overhang the board")
        bits.pop()  # drop the virtual pad slot
    if len(bits) != r:
        raise ValueError(f"tiles cover {len(bits)} cells, expected {r}")
    return DecorationWord(tuple(bits))
