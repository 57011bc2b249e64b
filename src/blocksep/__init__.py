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
    count_overpartitions,
    enumerate_block_partitions,
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
from .qseries import (
    TruncatedSeries,
    euler_inverse,
    geometric_inverse,
    one,
    overpartition_numbers,
    partition_numbers,
    qpow,
    s_block,
    zero,
)
from .recurrence import euler_factorized_gf, euler_factorized_triangle, normalized_recurrence
from .symfun import (
    bivariate_gf,
    elementary_symmetric_series,
    fibonacci_weighted_gf,
    max_block_count,
    weighted_gf,
)
from .transfer import (
    StatePair,
    TransferMatrix,
    apply_matrix,
    matrix_product_gf,
    normalized_matrix,
    start_pair,
    transfer_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "CapExceededError",
    "DecoratedPartition",
    "DecorationWord",
    "StatePair",
    "Tile",
    "TransferMatrix",
    "TruncatedSeries",
    "apply_matrix",
    "bivariate_gf",
    "count_bivariate_oracle",
    "count_block_separated",
    "count_overpartitions",
    "decoration_count",
    "elementary_symmetric_series",
    "enumerate_block_partitions",
    "enumerate_decorations",
    "euler_factorized_gf",
    "euler_factorized_triangle",
    "euler_inverse",
    "fib",
    "fib_polynomial",
    "fibonacci_weighted_gf",
    "geometric_inverse",
    "independent_set_to_word",
    "list_block_separated",
    "matrix_product_gf",
    "max_block_count",
    "normalized_matrix",
    "normalized_recurrence",
    "one",
    "overpartition_numbers",
    "partition_numbers",
    "qpow",
    "s_block",
    "start_pair",
    "tiling_to_word",
    "transfer_matrix",
    "weighted_gf",
    "word_to_independent_set",
    "word_to_tiling",
    "zero",
]
