"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. All comparisons are bit-exact; the few runtime budgets
are asserted with time.perf_counter.
"""

import math
import time
from contextlib import contextmanager

from blocksep.bruteforce import count_block_separated, list_block_separated
from blocksep.cli import main
from blocksep.fibonacci import (
    enumerate_decorations,
    fib,
    word_to_tiling,
)
from blocksep.qseries import TruncatedSeries, euler_inverse
from blocksep.recurrence import euler_factorized_gf
from blocksep.symfun import bivariate_gf, fibonacci_weighted_gf, weighted_gf
from blocksep.transfer import matrix_product_gf
from series_folds import (apply_matrix, matrix_fold, overpartition_product, start_pair,
                          transfer_matrix)

P_ROW = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
PBAR_ROW = (1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232)
B_ROW = (1, 2, 4, 7, 12, 19, 31, 47, 72, 107, 157)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {name}")
        raise
    print(f"criterion {num}: PASS - {name}")


def test_criterion_1_table_reproduction(capsys):
    with criterion(1, "table --limit 10 reproduces all three rows, < 1 s"):
        t0 = time.perf_counter()
        code = main(["table", "--limit", "10"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == ["p(n)"] + [str(v) for v in P_ROW]
        assert lines[2].split() == ["p~(n)"] + [str(v) for v in PBAR_ROW]
        assert lines[3].split() == ["b(n)"] + [str(v) for v in B_ROW]
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_example_count_19():
    with criterion(2, "b(5) = 19 with 2+2+1~ present and 2~+2+1~ absent"):
        assert count_block_separated(5) == 19
        listed = list_block_separated(5)
        assert len(listed) == 19
        keyed = {(d.skeleton.blocks, d.decoration.bits) for d in listed}
        assert (((2, 2), (1, 1)), (0, 1)) in keyed
        assert (((2, 2), (1, 1)), (1, 1)) not in keyed


def test_criterion_3_stepwise_intermediates():
    with criterion(3, "state pairs after sizes 1, 2, 3 at order 3"):
        v = start_pair(3)
        v = apply_matrix(v, transfer_matrix(1, 3))
        assert v.f0 == TruncatedSeries((1, 1, 1, 1))
        assert v.f1 == TruncatedSeries((0, 1, 1, 1))
        v = apply_matrix(v, transfer_matrix(2, 3))
        assert v.f0 == TruncatedSeries((1, 1, 2, 3))
        assert v.f1 == TruncatedSeries((0, 1, 2, 2))
        v = apply_matrix(v, transfer_matrix(3, 3))
        assert v.f0 == TruncatedSeries((1, 1, 2, 4))
        assert v.f1 == TruncatedSeries((0, 1, 2, 3))
        assert v.total() == TruncatedSeries((1, 2, 4, 7))


def test_criterion_4_cross_method_at_300():
    with criterion(4, "matrix, recurrence, symmetric agree at N = 300, < 10 s"):
        t0 = time.perf_counter()
        by_matrix = matrix_product_gf(300)
        by_recurrence = euler_factorized_gf(300)
        by_symmetric = fibonacci_weighted_gf(300)
        elapsed = time.perf_counter() - t0
        assert by_matrix == by_recurrence == by_symmetric
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_5_oracle_equivalence_to_22():
    with criterion(5, "explicit enumeration matches every method to n = 22, < 30 s"):
        t0 = time.perf_counter()
        top = 22
        routes = (
            matrix_product_gf(top).coeffs,
            euler_factorized_gf(top).coeffs,
            fibonacci_weighted_gf(top).coeffs,
        )
        for n in range(top + 1):
            explicit = len(list_block_separated(n, cap=top))
            assert all(route[n] == explicit for route in routes), n
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_6_fibonacci_suite():
    with criterion(6, "decoration counts, binomial sums, tiling DP"):
        for r in range(21):
            assert len(enumerate_decorations(r)) == fib(r + 2)
        for r in range(65):
            assert sum(math.comb(r - m + 1, m) for m in range(r + 2)) == fib(r + 2)
        # tiling count DP: cover r cells with 1- and 2-tiles, a final
        # domino may overhang by one cell
        comp = [1, 1]
        for length in range(2, 22):
            comp.append(comp[-1] + comp[-2])
        for r in range(21):
            overhang = comp[r - 1] if r >= 1 else 0
            assert comp[r] + overhang == fib(r + 2)
        for r in range(17):
            tilings = {word_to_tiling(w) for w in enumerate_decorations(r)}
            assert len(tilings) == fib(r + 2)


def test_criterion_7_specializations_at_100():
    with criterion(7, "weights 1 and 2^r, bivariate column and row sums, N = 100"):
        top = 100
        assert weighted_gf(top, lambda r: 1) == euler_inverse(top)
        assert weighted_gf(top, lambda r: 2**r) == overpartition_product(top)
        triangle = bivariate_gf(top)
        assert tuple(row[0] for row in triangle) == euler_inverse(top).coeffs
        assert tuple(map(sum, triangle)) == fibonacci_weighted_gf(top).coeffs


def test_criterion_8_sandwich_to_300():
    # Strictness can only mean the lower bound: every skeleton of weight
    # 1 or 2 has a single block, so b(1) = pbar(1) = 2 and
    # b(2) = pbar(2) = 4. The lower bound is strict for n >= 1, the upper
    # for n >= 3, and the chain p = b = pbar collapses only at n = 0.
    with criterion(8, "p(n) <= b(n) <= pbar(n) to 300, lower strict for n >= 1"):
        top = 300
        p = euler_inverse(top).coeffs
        b = matrix_product_gf(top).coeffs
        pbar = overpartition_product(top).coeffs
        for n in range(top + 1):
            assert p[n] <= b[n] <= pbar[n], n
            if n >= 1:
                assert p[n] < b[n], n
            if n >= 3:
                assert b[n] < pbar[n], n
            assert (p[n] == b[n] == pbar[n]) == (n == 0), n
            assert (b[n] == pbar[n]) == (n <= 2), n


def test_criterion_9_truncation_cutoff_soundness():
    with criterion(9, "scanning sizes to 2N changes nothing at order N = 50"):
        n = 50
        assert matrix_fold(n, range(1, 2 * n + 1)).total() == matrix_product_gf(n)
