"""Ground-truth enumeration of block partitions and their decorations.

Everything here is built by explicit construction, so it is slow and
capped, but it validates the analytic routes at small weights. Two
independent brute forces coexist: weighted counting (skeletons times the
Fibonacci decoration count) and explicit decoration listing, which never
touches Fibonacci numbers and is therefore the ultimate oracle.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from .fibonacci import (
    CapExceededError,
    DecorationWord,
    decoration_count,
    enumerate_decorations,
)

DEFAULT_WEIGHT_CAP = 60
DEFAULT_LISTING_CAP = 20


@dataclass(frozen=True, slots=True)
class BlockPartition:
    """A partition grouped into blocks: ((part, multiplicity), ...).

    Parts are strictly decreasing and every multiplicity is positive.
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if type(self.blocks) is not tuple:  # a list would make the partition unhashable
            object.__setattr__(self, "blocks", tuple(map(tuple, self.blocks)))
        last = None
        for part, mult in self.blocks:
            if part < 1 or mult < 1:
                raise ValueError(f"bad block {(part, mult)}")
            if last is not None and part >= last:
                raise ValueError("parts must be strictly decreasing")
            last = part

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def weight(self) -> int:
        return sum(part * mult for part, mult in self.blocks)

    def __str__(self) -> str:
        if not self.blocks:
            return "(empty)"
        return "+".join(
            "+".join([str(part)] * mult) for part, mult in self.blocks
        )


@dataclass(frozen=True, slots=True)
class DecoratedPartition:
    """A block partition plus the word saying which blocks are overlined."""

    skeleton: BlockPartition
    decoration: DecorationWord

    def __post_init__(self):
        if len(self.decoration) != self.skeleton.num_blocks:
            raise ValueError(
                f"decoration length {len(self.decoration)} does not match "
                f"{self.skeleton.num_blocks} blocks"
            )


def _check_cap(n: int, cap: int, what: str) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise CapExceededError(
            f"{what} for n={n} exceeds cap {cap}; raise the cap explicitly"
        )


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


def _skeletons_by_blocks(n: int) -> Counter[int]:
    # Number of skeletons of n with r blocks, keyed by r; each one is built.
    return Counter(map(len, _block_forms(n)))


def count_block_separated(n: int, *, cap: int = DEFAULT_WEIGHT_CAP) -> int:
    """b(n) by brute force: each skeleton contributes F_{r+2} decorations."""
    _check_cap(n, cap, "weighted brute-force count")
    return sum(decoration_count(r) * k for r, k in _skeletons_by_blocks(n).items())


def list_block_separated(
    n: int, *, cap: int = DEFAULT_LISTING_CAP
) -> list[DecoratedPartition]:
    """Every block-separated overpartition of n, explicitly.

    Skeleton-major canonical order, decorations lexicographic within a
    skeleton. No Fibonacci shortcut: the decorations are enumerated and
    the adjacency rule is what the word type enforces.
    """
    _check_cap(n, cap, "explicit listing")
    words_by_r: dict[int, list[DecorationWord]] = {}
    out = []
    for blocks in _block_forms(n):
        r = len(blocks)
        if r not in words_by_r:
            words_by_r[r] = enumerate_decorations(r, cap=r)
        skeleton = BlockPartition(blocks)
        out.extend(DecoratedPartition(skeleton, word) for word in words_by_r[r])
    return out


def count_bivariate_oracle(n: int, *, cap: int = DEFAULT_WEIGHT_CAP) -> dict[int, int]:
    """Counts of block-separated overpartitions of n by number of overlines.

    The words of each block count r are enumerated and tallied by overline
    count, and each tally is weighted by the number of skeletons with r
    blocks, so each (skeleton, word) pair is counted once.
    """
    _check_cap(n, cap, "bivariate brute-force count")
    out: Counter[int] = Counter()
    for r, k in _skeletons_by_blocks(n).items():
        tally = Counter(w.overline_count for w in enumerate_decorations(r, cap=r))
        out.update({m: k * c for m, c in tally.items()})
    return dict(out)

