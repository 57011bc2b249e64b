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


@dataclass(frozen=True)
class BlockPartition:
    """A partition grouped into blocks: ((part, multiplicity), ...).

    Parts are strictly decreasing and every multiplicity is positive.
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
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


@dataclass(frozen=True)
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


def _block_forms(remaining: int, max_part: int) -> Iterator[tuple[tuple[int, int], ...]]:
    # Largest part first, then largest multiplicity, giving the usual
    # descending-lex order on expanded part lists.
    if remaining == 0:
        yield ()
        return
    for part in range(min(max_part, remaining), 0, -1):
        for mult in range(remaining // part, 0, -1):
            for rest in _block_forms(remaining - part * mult, part - 1):
                yield ((part, mult),) + rest


def enumerate_block_partitions(
    n: int, *, cap: int = DEFAULT_WEIGHT_CAP
) -> list[BlockPartition]:
    """All partitions of n in block form, canonical descending order."""
    _check_cap(n, cap, "partition enumeration")
    return [BlockPartition(blocks) for blocks in _block_forms(n, n)]


def count_block_separated(n: int, *, cap: int = DEFAULT_WEIGHT_CAP) -> int:
    """b(n) by brute force: each skeleton contributes F_{r+2} decorations."""
    _check_cap(n, cap, "weighted brute-force count")
    return sum(decoration_count(len(blocks)) for blocks in _block_forms(n, n))


def _decorated_skeletons(n: int) -> Iterator[tuple[tuple, list[DecorationWord]]]:
    # Each skeleton of n in canonical order with its legal decoration words.
    words_by_r: dict[int, list[DecorationWord]] = {}
    for blocks in _block_forms(n, n):
        r = len(blocks)
        if r not in words_by_r:
            words_by_r[r] = enumerate_decorations(r, cap=r)
        yield blocks, words_by_r[r]


def list_block_separated(
    n: int, *, cap: int = DEFAULT_LISTING_CAP
) -> list[DecoratedPartition]:
    """Every block-separated overpartition of n, explicitly.

    Skeleton-major canonical order, decorations lexicographic within a
    skeleton. No Fibonacci shortcut: the decorations are enumerated and
    the adjacency rule is what the word type enforces.
    """
    _check_cap(n, cap, "explicit listing")
    out = []
    for blocks, words in _decorated_skeletons(n):
        skeleton = BlockPartition(blocks)
        out.extend(DecoratedPartition(skeleton, word) for word in words)
    return out


def count_bivariate_oracle(n: int, *, cap: int = DEFAULT_WEIGHT_CAP) -> dict[int, int]:
    """Counts of block-separated overpartitions of n by number of overlines.

    Explicit word enumeration, grouped by weight of the decoration.
    """
    _check_cap(n, cap, "bivariate brute-force count")
    words = (w for _, group in _decorated_skeletons(n) for w in group)
    return dict(Counter(w.overline_count for w in words))


def count_overpartitions(n: int, *, cap: int = DEFAULT_WEIGHT_CAP) -> int:
    """Unrestricted overpartition count: each of r blocks may be overlined."""
    _check_cap(n, cap, "overpartition count")
    return sum(2 ** len(blocks) for blocks in _block_forms(n, n))
