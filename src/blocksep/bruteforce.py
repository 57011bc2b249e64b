"""Ground-truth enumeration of block partitions and their decorations.

Everything here is built by explicit construction, so it is slow and
capped, but it validates the analytic routes at small weights. Two
independent brute forces coexist: weighted counting (skeletons times the
Fibonacci decoration count) and explicit decoration listing, which never
touches Fibonacci numbers and is therefore the ultimate oracle.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import repeat

from .fibonacci import DecorationWord, _check_cap, _Value, decoration_count, enumerate_decorations

DEFAULT_WEIGHT_CAP = 60
DEFAULT_LISTING_CAP = 20


class BlockPartition(_Value):
    """A partition grouped into blocks: ((part, multiplicity), ...).

    Parts are strictly decreasing ints and every multiplicity is a positive int.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]) -> None:
        blocks, last, exact = tuple(blocks), None, True
        for block in blocks:
            part, mult = block
            if type(part) is not int or type(mult) is not int or part < 1 or mult < 1:
                raise ValueError(f"bad block {(part, mult)}")  # bool is not int here
            if last is not None and part >= last:
                raise ValueError("parts must be strictly decreasing")
            last, exact = part, exact and type(block) is tuple
        self._setters[0](self, blocks if exact else tuple(map(tuple, blocks)))  # lists: unhashable

    def __str__(self) -> str:
        return "+".join("+".join([str(part)] * mult) for part, mult in self.blocks) or "(empty)"


class DecoratedPartition(_Value):
    """A block partition plus the word saying which blocks are overlined."""

    __slots__ = ("skeleton", "decoration")

    def __init__(self, skeleton: BlockPartition, decoration: DecorationWord) -> None:
        if len(decoration.bits) != len(skeleton.blocks):
            raise ValueError(f"decoration length {len(decoration.bits)} does not match "
                             f"{len(skeleton.blocks)} blocks")
        set_skeleton, set_decoration = self._setters
        set_skeleton(self, skeleton)
        set_decoration(self, decoration)

    def __str__(self) -> str:
        """Plain rendering with ~ marking the overlined copy: 2~+2+1."""
        if not self.skeleton.blocks:
            return "(empty)"
        pieces = []
        for (part, mult), bit in zip(self.skeleton.blocks, self.decoration.bits):
            pieces.append(f"{part}~" if bit else str(part))
            pieces.extend([str(part)] * (mult - 1))
        return "+".join(pieces)


def _block_forms(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Partitions of n as ((part, multiplicity), ...), in descending-lex order.

    ZS1 (Zoghbi and Stojmenovic 1998) on blocks: the current partition is
    kept as a list of blocks and stepped in place. To step, pop a trailing
    block of ones, take one copy off the new last block (its part p is at
    least 2) and refill p plus the popped ones with parts p-1 and one
    remainder part.
    """
    if n == 0:
        yield ()
        return
    blocks = [(n, 1)]
    while True:
        yield tuple(blocks)
        ones = blocks.pop()[1] if blocks[-1][0] == 1 else 0
        if not blocks:
            return
        part, mult = blocks.pop()
        if mult > 1:
            blocks.append((part, mult - 1))
        fill, rem = divmod(part + ones, part - 1)
        blocks.append((part - 1, fill))
        if rem:
            blocks.append((rem, 1))


def _skeletons_by_blocks(n: int) -> list[Counter[int]]:
    """Skeletons of each weight k <= n by block count, from one walk over the partitions of n.

    Adding n - k ones maps the partitions of k one-to-one onto those of n with at
    least n - k ones, so a partition of n with s blocks besides its m ones stands
    for one skeleton of n - j for each j <= m: with s + 1 blocks while j < m.
    """
    shapes = Counter((len(b) - 1, b[-1][1]) if b and b[-1][0] == 1 else (len(b), 0)
                     for b in _block_forms(n))
    out: list[Counter[int]] = [Counter() for _ in range(n + 1)]
    for (s, m), count in shapes.items():
        out[n - m][s] += count
        for k in range(n - m + 1, n + 1):
            out[k][s + 1] += count
    return out


def count_block_separated(n: int, *, cap: int = DEFAULT_WEIGHT_CAP) -> list[int]:
    """b(0..n) by brute force: each skeleton with r blocks contributes F_{r+2} decorations."""
    _check_cap("weighted brute-force count", "n", n, cap)
    return [sum(decoration_count(r) * count for r, count in tally.items())
            for tally in _skeletons_by_blocks(n)]


def list_block_separated(n: int, *, cap: int = DEFAULT_LISTING_CAP) -> list[DecoratedPartition]:
    """Every block-separated overpartition of n, explicitly.

    Skeleton-major canonical order, decorations lexicographic within a
    skeleton. No Fibonacci shortcut: the decorations are enumerated and
    the adjacency rule is what the word type enforces.
    """
    _check_cap("explicit listing", "n", n, cap)
    words_by_r: dict[int, list[DecorationWord]] = {}
    out = []
    for blocks in _block_forms(n):
        r = len(blocks)
        if r not in words_by_r:
            words_by_r[r] = enumerate_decorations(r, cap=r)
        out.extend(map(DecoratedPartition, repeat(BlockPartition(blocks)), words_by_r[r]))
    return out


def count_bivariate_oracle(n: int, *, cap: int = DEFAULT_WEIGHT_CAP) -> list[dict[int, int]]:
    """Rows 0..n: row k counts the block-separated overpartitions of k by overlines.

    The words of each block count r are enumerated and tallied by overline count
    once per call, and each tally is weighted by the number of skeletons of k
    with r blocks, so each (skeleton, word) pair is counted once. Keys ascend.
    """
    _check_cap("bivariate brute-force count", "n", n, cap)
    by_blocks = _skeletons_by_blocks(n)
    words = {r: Counter(w.overline_count for w in enumerate_decorations(r, cap=r))
             for r in set().union(*by_blocks)}
    rows = []
    for tally in by_blocks:
        row: Counter[int] = Counter()
        for r, count in tally.items():
            row.update({m: count * c for m, c in words[r].items()})
        rows.append(dict(sorted(row.items())))
    return rows
