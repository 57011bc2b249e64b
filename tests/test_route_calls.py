"""The routes are independent only if they share no code that computes b.

`test_import_graph` pins that rule per module: no route module imports
another. A route can still reach another route's code through the shared
`qseries`, so this test records, with `sys.setprofile`, every function of
the package that each route runs at N = 300, and asserts that each pair of
routes shares exactly the functions its allowlist names, each with the
reason it may be shared (ROADMAP item 9). A function is keyed by its module
and code name, as Python 3.10 has no `co_qualname`; names that start with
"<" (lambdas, generator expressions and the comprehensions that 3.12
inlines) are skipped.
"""

import functools
import itertools
import os
import sys

import pytest

import blocksep
from blocksep import recurrence, symfun, transfer

SRC = os.path.dirname(blocksep.__file__) + os.sep  # the prefix of every co_filename there
N = 300

ROUTES = {
    "matrix": transfer.matrix_product_gf,
    "recurrence": recurrence.euler_factorized_gf,
    "symmetric": symfun.fibonacci_weighted_gf,
    "kronecker_triangle": recurrence.euler_factorized_triangle,
    "e_r_triangle": symfun.bivariate_gf,
}

CONSTRUCTOR = "the TruncatedSeries constructor checks a result's type and computes nothing"
LOOP_BOUND = "the largest block count r with r(r+1)/2 <= N, a loop bound"
DIVISION = ("the pentagonal division gives the Euler factor of the recurrence route and the "
            "Kronecker triangle, and p(N) and p~(N), which the packed routes read only as "
            "slot widths that the decode checks")
RECURRENCE_FOLD = ("the Kronecker triangle is the recurrence route's fold at t = 2^v, so it is "
                   "compared with the e_r triangle instead")
E_R_TABLE = ("the symmetric route and the e_r triangle weigh one e_r table, by F(r+2) and "
             "by the Fibonacci polynomials, so each is compared with the other routes instead")

# shared by every pair without the matrix route
COMMON = {"qseries._pentagonal": DIVISION, "qseries._sparse_divide": DIVISION,
          "qseries.max_block_count": LOOP_BOUND}

# (route, route) -> {function both run: why it may be shared}
ALLOWED = {
    ("matrix", "recurrence"): {"qseries.__init__": CONSTRUCTOR},
    ("matrix", "symmetric"): {"qseries.__init__": CONSTRUCTOR},
    ("matrix", "kronecker_triangle"): {},
    ("matrix", "e_r_triangle"): {"qseries.__init__": CONSTRUCTOR},
    ("recurrence", "symmetric"): {"qseries.__init__": CONSTRUCTOR, **COMMON},
    ("recurrence", "kronecker_triangle"): {
        **COMMON, "recurrence._euler_sum": RECURRENCE_FOLD,
        "recurrence._g_powers": RECURRENCE_FOLD, "recurrence._normalized_total": RECURRENCE_FOLD},
    ("recurrence", "e_r_triangle"): {"qseries.__init__": CONSTRUCTOR, **COMMON},
    ("symmetric", "kronecker_triangle"): COMMON,
    ("symmetric", "e_r_triangle"): {
        "qseries.__init__": CONSTRUCTOR, **COMMON,
        "qseries.partition_numbers": E_R_TABLE, "symfun.elementary_symmetric_series": E_R_TABLE},
    ("kronecker_triangle", "e_r_triangle"): COMMON,
}


@functools.cache
def calls(route: str) -> frozenset[str]:
    """module.name of every package function ROUTES[route](N) runs."""
    seen = set()

    def note(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(SRC) and code.co_name[0] != "<":
            seen.add(f"{frame.f_globals['__name__'].rpartition('.')[2]}.{code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(note)
    try:
        ROUTES[route](N)
    finally:
        sys.setprofile(previous)
    return frozenset(seen)


@pytest.mark.parametrize("pair", list(itertools.combinations(ROUTES, 2)), ids="-".join)
def test_routes_share_only_the_allowed_functions(pair):
    a, b = pair
    assert calls(a) & calls(b) == set(ALLOWED[pair])
