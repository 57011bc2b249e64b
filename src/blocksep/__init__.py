"""Exact counting of block-separated overpartitions.

A block-separated overpartition is an overpartition in which no two
consecutive distinct part-size blocks are both overlined. The count b(n)
is computed here by four independent routes that are cross-checked
against each other: a two-state transfer-matrix product, a normalized
recurrence with an Euler factorization, a Fibonacci-weighted expansion in
elementary symmetric functions of the block series, and brute-force
enumeration. All arithmetic is exact.
"""

from .bruteforce import (
    BlockPartition,
    DecoratedPartition,
    count_bivariate_oracle,
    count_block_separated,
    list_block_separated,
)
from .fibonacci import (
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
from .qseries import (TruncatedSeries, euler_inverse, max_block_count, overpartition_numbers,
                      partition_numbers)
from .recurrence import (
    StatePair,
    euler_factorized_gf,
    euler_factorized_triangle,
    normalized_recurrence,
)
from .symfun import (
    bivariate_gf,
    elementary_symmetric_series,
    fibonacci_weighted_gf,
    weighted_gf,
)
from .transfer import matrix_product_gf

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "CapExceededError",
    "DecoratedPartition",
    "DecorationWord",
    "StatePair",
    "Tile",
    "TruncatedSeries",
    "bivariate_gf",
    "count_bivariate_oracle",
    "count_block_separated",
    "decoration_count",
    "elementary_symmetric_series",
    "enumerate_decorations",
    "euler_factorized_gf",
    "euler_factorized_triangle",
    "euler_inverse",
    "fib",
    "fib_polynomial",
    "fibonacci_weighted_gf",
    "independent_set_to_word",
    "list_block_separated",
    "matrix_product_gf",
    "max_block_count",
    "normalized_recurrence",
    "overpartition_numbers",
    "partition_numbers",
    "tiling_to_word",
    "weighted_gf",
    "word_to_independent_set",
    "word_to_tiling",
]
