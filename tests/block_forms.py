"""Reference enumeration of skeletons and decorated objects for the tests.

`block_forms_recursive` is the recursion the brute-force layer used before
its in-place walk; `decorated_objects` builds every (skeleton, overlining)
pair from all 2^r bit patterns, so it shares no code with the word
enumerator or with the tallies of the oracles it is compared against.
`count_overpartitions` tallies 2^r over the recursion's skeletons: p~(n)
for the sandwich p <= b <= p~.
"""

from collections import Counter
from itertools import product


def block_forms_recursive(remaining, max_part):
    """Partitions of remaining into parts <= max_part, in block form.

    Largest part first, then largest multiplicity, giving the usual
    descending-lex order on expanded part lists.
    """
    if remaining == 0:
        yield ()
        return
    for part in range(min(max_part, remaining), 0, -1):
        for mult in range(remaining // part, 0, -1):
            for rest in block_forms_recursive(remaining - part * mult, part - 1):
                yield ((part, mult),) + rest


def decorated_objects(n, *, separated):
    """Counter over (blocks, bits) pairs of weight n, each built once.

    With separated=True only patterns without two adjacent overlined blocks
    are kept (block-separated overpartitions); otherwise every pattern is
    (overpartitions).
    """
    objects = Counter()
    for blocks in block_forms_recursive(n, n):
        for bits in product((0, 1), repeat=len(blocks)):
            if separated and any(a and b for a, b in zip(bits, bits[1:])):
                continue
            objects[blocks, bits] += 1
    return objects


def count_overpartitions(n):
    """Overpartitions of n: each of the r blocks of a skeleton may be overlined."""
    return sum(2 ** len(blocks) for blocks in block_forms_recursive(n, n))
