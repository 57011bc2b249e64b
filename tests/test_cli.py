import csv
import errno
import gc
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from blocksep import bruteforce, cli, qseries, recurrence, symfun, transfer
from blocksep.cli import main
from blocksep.fibonacci import (CapExceededError, enumerate_decorations, fib,
                                word_to_independent_set, word_to_tiling)
from blocksep.qseries import TruncatedSeries, euler_inverse
from blocksep.symfun import weighted_gf

TABLE1_B = "1 2 4 7 12 19 31 47 72 107 157"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def edit_result(monkeypatch, module, name, edit):
    """Pass every result of module.name through edit(result, *args)."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: edit(original(*a, **kw), *a))


def replaced(values, k, value):
    return values[:k] + (value,) + values[k + 1:]


class TestSeq:
    def test_plain_limit_10(self, capsys):
        code, out, _ = run(capsys, "seq", "--limit", "10")
        assert code == 0
        assert out == TABLE1_B + "\n"

    def test_limit_0(self, capsys):
        code, out, _ = run(capsys, "seq", "--limit", "0")
        assert code == 0 and out == "1\n"

    def test_method_all_agrees(self, capsys):
        code, out, _ = run(capsys, "seq", "--limit", "10", "--method", "all")
        assert code == 0
        assert out == TABLE1_B + "\n"

    def test_all_notes_dropped_bruteforce_on_stderr(self, capsys):
        code, out, err = run(capsys, "seq", "--limit", "12", "--method", "all")
        assert code == 0 and err == ""
        code, narrow, err = run(
            capsys, "seq", "--limit", "12", "--method", "all", "--cap-enum", "5"
        )
        assert code == 0 and narrow == out
        (note,) = err.splitlines()
        assert note.startswith("note: ")
        assert "bruteforce" in note and "0..5" in note and "--cap-enum" in note

    def test_all_reports_disagreement_on_stderr(self, capsys, monkeypatch):
        symmetric = cli.SERIES_METHODS["symmetric"]
        monkeypatch.setitem(cli.SERIES_METHODS, "symmetric", lambda order: TruncatedSeries(
            replaced(symmetric(order).coeffs, 3, 8)))
        code, out, err = run(capsys, "seq", "--limit", "10", "--method", "all")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: method disagreement at n=3: {'matrix': 7, "
                                    "'recurrence': 7, 'symmetric': 8, 'bruteforce': 7}"]

    def test_each_method_same_output(self, capsys):
        outputs = set()
        for method in ("matrix", "recurrence", "symmetric", "bruteforce"):
            code, out, _ = run(capsys, "seq", "--limit", "12", "--method", method)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_bfile_format(self, capsys):
        code, out, _ = run(capsys, "seq", "--limit", "3", "--format", "bfile")
        assert code == 0
        assert out == "0 1\n1 2\n2 4\n3 7\n"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "seq", "--limit", "2", "--format", "csv")
        assert code == 0
        assert out == "n,b\n0,1\n1,2\n2,4\n"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "seq", "--limit", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"n", "values", "method", "checks"}
        assert doc["n"] == 4
        assert doc["values"] == [1, 2, 4, 7, 12]
        assert doc["method"] == "recurrence"

    def test_default_route_agrees_with_matrix_at_3000(self, capsys):
        code, out, _ = run(capsys, "seq", "--limit", "3000")
        assert code == 0
        assert out == " ".join(map(str, transfer.matrix_product_gf(3000).coeffs)) + "\n"

    def test_bruteforce_refuses_beyond_cap(self, capsys):
        code, _, err = run(capsys, "seq", "--limit", "70", "--method", "bruteforce")
        assert code == 2
        assert "cap" in err

    def test_cap_override_allows(self, capsys):
        code, out, _ = run(
            capsys, "seq", "--limit", "26", "--method", "bruteforce",
            "--cap-enum", "26",
        )
        assert code == 0
        assert out.startswith("1 2 4 7")

    def test_parallel_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "--limit", "30", "--method", "all", "--parallel"])
        assert exc.value.code == 2


class TestTable:
    def test_plain_reproduces_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--limit", "10")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[1].split() == ["p(n)", "1", "1", "2", "3", "5", "7",
                                    "11", "15", "22", "30", "42"]
        assert lines[2].split() == ["p~(n)", "1", "2", "4", "8", "14", "24",
                                    "40", "64", "100", "154", "232"]
        assert lines[3].split() == ["b(n)"] + TABLE1_B.split()

    def test_csv_b_row(self, capsys):
        code, out, _ = run(capsys, "table", "--limit", "10", "--format", "csv")
        assert code == 0
        rows = {line.split(",")[0]: line for line in out.splitlines()}
        assert rows["b"] == "b," + TABLE1_B.replace(" ", ",")
        assert rows["p"] == "p,1,1,2,3,5,7,11,15,22,30,42"
        assert rows["p~"] == "p~,1,2,4,8,14,24,40,64,100,154,232"

    def test_limit_0_single_column(self, capsys):
        code, out, _ = run(capsys, "table", "--limit", "0")
        assert code == 0
        values = [line.split()[-1] for line in out.splitlines()[1:]]
        assert values == ["1", "1", "1"]

    def test_pbar_row_is_the_powers_of_two_weighting(self, capsys):
        # beyond the golden limits: p~ by its recurrence against sum 2^r e_r
        code, out, _ = run(capsys, "table", "--limit", "150", "--format", "json")
        assert code == 0
        pbar = json.loads(out)["values"]["pbar"]
        assert pbar == list(weighted_gf(150, lambda r: 2**r).coeffs)

    def test_sandwich_in_every_column(self, capsys):
        code, out, _ = run(capsys, "table", "--limit", "30", "--format", "json")
        doc = json.loads(out)
        for p, pbar, b in zip(doc["values"]["p"], doc["values"]["pbar"],
                              doc["values"]["b"]):
            assert p <= b <= pbar

    def test_bfile_is_usage_error(self, capsys):
        code, _, err = run(capsys, "table", "--limit", "3", "--format", "bfile")
        assert code == 2 and "format" in err

    def test_all_reports_disagreement_on_stderr(self, capsys, monkeypatch):
        # as for seq: every route runs, and a disagreement prints nothing
        symmetric = cli.SERIES_METHODS["symmetric"]
        monkeypatch.setitem(cli.SERIES_METHODS, "symmetric", lambda order: TruncatedSeries(
            replaced(symmetric(order).coeffs, 3, 8)))
        code, out, err = run(capsys, "table", "--limit", "10", "--method", "all")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: method disagreement at n=3: {'matrix': 7, "
                                    "'recurrence': 7, 'symmetric': 8, 'bruteforce': 7}"]


VERIFY_CHECK_NAMES = ("cross_method_equality", "oracle_weighted_count",
                      "oracle_explicit_listing", "bivariate_oracle", "sandwich")


def at_9(update):
    """An edit of the oracle's row at n = 9 only; row (30, 67, 10) there."""
    return lambda rows, n: rows[:9] + [{**rows[9], **update}] + rows[10:]


def triangle_row_9_raised(monkeypatch):
    # one more object at n = 9, m = 1 in both the triangle and the oracle
    edit_result(monkeypatch, symfun, "bivariate_gf",
                lambda rows, order: replaced(rows, 9, (30, 68, 10)))
    edit_result(monkeypatch, bruteforce, "count_bivariate_oracle", at_9({1: 68}))


def overpartitions_below_b_at_10(monkeypatch):
    # p~ comes from its own recurrence, imported into cli by name
    edit_result(monkeypatch, cli, "overpartition_numbers",
                lambda pbar, order: pbar[:10] + [150] + pbar[11:])


# (apply the fault, failing check -> its detail); every other check passes.
VERIFY_FAULTS = [
    (lambda mp: edit_result(mp, bruteforce, "count_block_separated",
                            lambda counts, n: [c + (k == 5) for k, c in enumerate(counts)]),
     {"oracle_weighted_count": "n=5: bruteforce=20 series=19"}),
    (lambda mp: edit_result(mp, bruteforce, "list_block_separated",
                            lambda items, n: items[:-1] if n == 6 else items),
     {"oracle_explicit_listing": "n=6: listing=30 series=31"}),
    (lambda mp: edit_result(mp, bruteforce, "count_bivariate_oracle", at_9({0: 29, 1: 68})),
     {"bivariate_oracle": "n=9: triangle row (30, 67, 10) != oracle {0: 29, 1: 68, 2: 10}"}),
    (lambda mp: edit_result(mp, bruteforce, "count_bivariate_oracle", at_9({3: 5})),
     {"bivariate_oracle": "n=9: triangle row (30, 67, 10) != oracle "
                          "{0: 30, 1: 67, 2: 10, 3: 5}"}),
    (triangle_row_9_raised, {"bivariate_oracle": "n=9: row sum 108 != b(9)=107"}),
    # p(5) raised to b(5) = 19, in verify's p only; the recurrence route keeps its own
    (lambda mp: edit_result(mp, cli, "euler_inverse",
                            lambda p, order: TruncatedSeries(replaced(p.coeffs, 5, 19))),
     {"bivariate_oracle": "n=5: column 0 entry 7 != p(5)=19",
      "sandwich": "n=5: lower bound not strict"}),
    (overpartitions_below_b_at_10, {"sandwich": "n=10: sandwich violated"}),
    # p(7) raised where euler_inverse reads p; the recurrence route divides without p
    (lambda mp: edit_result(mp, qseries, "partition_numbers",
                            lambda p, order: p[:7] + [p[7] + 1] + p[8:]),
     {"bivariate_oracle": "n=7: column 0 entry 15 != p(7)=16"}),
]


def raised_at(n):
    """An edit that adds 1 at q^n to a series or a list of coefficients."""
    def edit(result, *_):
        coeffs = list(getattr(result, "coeffs", result))
        coeffs[n] += 1
        return type(result)(coeffs)
    return edit


def row_raised_at(n, m):
    """An edit that adds 1 at b(n, m) of a triangle, if it has a row n."""
    def edit(rows, *_):
        return replaced(rows, n, replaced(rows[n], m, rows[n][m] + 1)) if len(rows) > n else rows
    return edit


def route_raised_at_100(name):
    def fault(mp):
        route = cli.SERIES_METHODS[name]
        mp.setitem(cli.SERIES_METHODS, name, lambda order: raised_at(100)(route(order)))
    return fault


HOLE = "ROADMAP item 2: verify reads p and p~ above n = 25 only through the loose sandwich"
ROWS_HOLE = "ROADMAP item 2: verify reads no triangle row above n = 25"


def hole(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


# (apply the fault, the first n it changes, the one check that must fail or None for any)
FAULTS_ABOVE_THE_WINDOWS = [
    *(pytest.param(route_raised_at_100(name), 100, "cross_method_equality", id=name)
      for name in cli.SERIES_METHODS),
    pytest.param(lambda mp: edit_result(mp, recurrence, "_euler_sum", raised_at(100)),
                 100, "cross_method_equality", id="euler_sum_kernel"),
    # F(9) weighs e_7, whose lowest term is q^28
    pytest.param(lambda mp: edit_result(mp, symfun, "fib", lambda f, k: f + (k == 9)),
                 28, "cross_method_equality", id="fib"),
    pytest.param(lambda mp: edit_result(mp, cli, "euler_inverse", raised_at(100)), 100, None,
                 id="partition_numbers", marks=hole(HOLE)),
    pytest.param(lambda mp: edit_result(mp, cli, "overpartition_numbers", raised_at(100)), 100,
                 None, id="overpartition_numbers", marks=hole(HOLE)),
    *(pytest.param(lambda mp, module=module, name=name:
                   edit_result(mp, module, name, row_raised_at(100, 1)),
                   100, None, id=name, marks=hole(ROWS_HOLE))
      for module, name in [(recurrence, "euler_factorized_triangle"), (symfun, "bivariate_gf")]),
]


class TestVerify:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--limit", "30")
        assert code == 0
        assert out.splitlines()[-1] == "result: pass"
        assert all(
            line.endswith("pass") for line in out.splitlines() if line.startswith("check")
        )

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--limit", "20", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"n", "values", "method", "checks"}
        names = [c["name"] for c in doc["checks"]]
        assert names == list(VERIFY_CHECK_NAMES)
        for c in doc["checks"]:
            assert c["status"] == "pass"
            assert ".." in c["range"]

    def test_narrowed_windows_noted_on_stderr(self, capsys):
        code, wide, err = run(capsys, "verify", "--limit", "30")
        assert code == 0 and err == ""
        code, narrow, err = run(capsys, "verify", "--limit", "30", "--cap-enum", "2")
        assert code == 0
        assert narrow == wide.replace("0..25", "0..2").replace("0..20", "0..2")
        notes = err.splitlines()
        assert len(notes) == 3
        for name in ("oracle_weighted_count", "oracle_explicit_listing",
                     "bivariate_oracle"):
            assert sum(name in line for line in notes) == 1

    def test_wrong_partition_number_fails_cross_check(self, capsys, monkeypatch):
        # The division loop behind p, p~ and the recurrence route's Euler
        # factor gains 1 at n = 7; the matrix and symmetric routes keep 47.
        divide = qseries._sparse_divide

        def off_by_one_at_7(numerator, terms):
            f = list(numerator)
            if len(f) > 7:
                f[7] += 1
            return divide(f, terms)

        monkeypatch.setattr(qseries, "_sparse_divide", off_by_one_at_7)
        code, out, _ = run(capsys, "verify", "--limit", "30")
        assert code == 1
        (line,) = [s for s in out.splitlines() if "cross_method_equality" in s]
        assert ": fail (first difference at n=7" in line
        assert "'recurrence': 48" in line and "'matrix': 47" in line

    @pytest.mark.parametrize("argv", [("verify",), ("seq", "--method", "symmetric")])
    def test_e_r_decode_fault_is_one_error_line(self, capsys, monkeypatch, argv):
        # p(order) sizes the e_r slots, so a division loop that lowers it
        # makes the symmetric route's decode check raise at order 30.
        divide = qseries._sparse_divide
        monkeypatch.setattr(qseries, "_sparse_divide",
                            lambda numerator, terms: divide(numerator, terms)[:-1] + [1])
        code, out, err = run(capsys, *argv, "--limit", "30")
        assert (code, out) == (1, "")
        assert err == "error: e_r slot of 2 bits overflowed at order 30\n"

    @pytest.mark.parametrize("fault, failed", VERIFY_FAULTS, ids=[
        "count", "listing", "bivariate_moved", "bivariate_phantom_column", "row_sum",
        "partition_number", "overpartition_bound", "partition_table"])
    def test_each_fault_fails_only_its_checks(self, capsys, monkeypatch, fault, failed):
        fault(monkeypatch)
        code, out, err = run(capsys, "verify", "--limit", "30")
        assert code == 1 and err == ""
        *lines, result = out.splitlines()
        assert result == "result: fail"
        statuses = dict(re.fullmatch(r"check (\S+) range \S+: (.*)", s).groups() for s in lines)
        assert statuses == {name: f"fail ({failed[name]})" if name in failed else "pass"
                            for name in VERIFY_CHECK_NAMES}

    @pytest.mark.parametrize("fault, n, check", FAULTS_ABOVE_THE_WINDOWS)
    def test_a_fault_above_every_oracle_window_fails(self, capsys, monkeypatch, fault, n, check):
        fault(monkeypatch)
        code, out, err = run(capsys, "verify", "--limit", "150")
        assert code == 1 and err == ""
        *lines, result = out.splitlines()
        assert result == "result: fail"
        statuses = dict(re.fullmatch(r"check (\S+) range \S+: (.*)", s).groups() for s in lines)
        failed = {name: status for name, status in statuses.items() if status != "pass"}
        assert failed and all(f"n={n}:" in status for status in failed.values())
        if check is not None:
            assert list(failed) == [check]
            assert failed[check].startswith(f"fail (first difference at n={n}: ")

    @pytest.mark.parametrize("skipped, weighted, bivariate", [
        (((25, 1),), "n=25: bruteforce=15084 series=15086",
         "n=25: triangle row (1958, 7338, 5387, 403) != oracle {0: 1957, 1: 7337, 2: 5387, 3: 403}"),
        # the partition of 25 into ones stands for the empty partition of 0 too
        (((1, 25),), "n=0: bruteforce=0 series=1", "n=0: triangle row (1,) != oracle {}"),
    ], ids=["no_ones", "all_ones"])
    def test_a_partition_missed_by_the_walk_fails_the_counting_oracles(
            self, capsys, monkeypatch, skipped, weighted, bivariate):
        # each counting oracle derives every weight from one walk over the partitions of 25
        walk = bruteforce._block_forms
        monkeypatch.setattr(bruteforce, "_block_forms",
                            lambda n: (b for b in walk(n) if (n, b) != (25, skipped)))
        code, out, err = run(capsys, "verify", "--limit", "30")
        assert code == 1 and err == ""
        *lines, result = out.splitlines()
        assert result == "result: fail"
        statuses = dict(re.fullmatch(r"check (\S+) range \S+: (.*)", s).groups() for s in lines)
        assert statuses == {"cross_method_equality": "pass",
                            "oracle_weighted_count": f"fail ({weighted})",
                            "oracle_explicit_listing": "pass",
                            "bivariate_oracle": f"fail ({bivariate})", "sandwich": "pass"}


class TestDecorations:
    def test_r3(self, capsys):
        code, out, _ = run(capsys, "decorations", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[-1] == "count 5"
        assert lines[0] == "000  {}  [0][0][0]"
        assert lines[4] == "101  {1,3}  [10][10]"

    def test_r0(self, capsys):
        code, out, _ = run(capsys, "decorations", "0")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "-  {}  -"
        assert lines[1] == "count 1"

    def test_r5_count(self, capsys):
        code, out, _ = run(capsys, "decorations", "5")
        assert code == 0
        assert out.splitlines()[-1] == "count 13"

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "decorations", "26")
        assert code == 2 and "cap" in err

    @pytest.mark.parametrize("r", ["ten", "-1", "", str(sys.maxsize), "1_0", " 3", "\uff13"])
    def test_bad_r_is_one_error_line(self, capsys, r):
        code, out, err = run(capsys, "decorations", r)
        assert code == 2 and out == ""
        assert err.startswith("error: r ") and len(err.splitlines()) == 1
        assert repr(r) in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "decorations", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["count"] == 3
        assert doc["values"][1] == {
            "word": "01", "independent_set": [2], "tiling": ["0", "10"],
        }


class TestBivariate:
    def test_row_sums_match_seq(self, capsys):
        code, out, _ = run(capsys, "bivariate", "--limit", "10", "--format", "json")
        doc = json.loads(out)
        sums = [sum(row) for row in doc["values"]]
        assert sums == [1, 2, 4, 7, 12, 19, 31, 47, 72, 107, 157]

    def test_column0_is_p(self, capsys):
        code, out, _ = run(capsys, "bivariate", "--limit", "10", "--format", "json")
        doc = json.loads(out)
        assert [row[0] for row in doc["values"]] == list(euler_inverse(10).coeffs)

    def test_n5_row(self, capsys):
        code, out, _ = run(capsys, "bivariate", "--limit", "5")
        assert code == 0
        row5 = out.splitlines()[5]
        assert row5.startswith("5: ")
        assert sum(int(v) for v in row5[3:].split()) == 19

    def test_csv_padded(self, capsys):
        code, out, _ = run(capsys, "bivariate", "--limit", "6", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "n,m=0,m=1,m=2"
        assert lines[1] == "0,1,0,0"
        assert lines[-1] == "6,11,19,1"

    def test_window_disagreement_exits_1(self, capsys, monkeypatch):
        # one more object at n = 9, m = 1 in the recurrence triangle only
        edit_result(monkeypatch, recurrence, "euler_factorized_triangle",
                    lambda rows, order: replaced(rows, 9, (30, 68, 10)))
        err = ("error: triangle disagreement at n=9: "
               "recurrence (30, 68, 10) != symmetric (30, 67, 10)\n")
        assert run(capsys, "bivariate", "--limit", "40") == (1, "", err)

    def test_window_check_reads_the_e_r_triangle(self, capsys, monkeypatch):
        # rows 0..25 are compared with bivariate_gf, which reads the e_r table
        e_r, triangle = symfun.elementary_symmetric_series, symfun.bivariate_gf
        inside, calls = [], []

        def spy_triangle(order):
            inside.append(order)
            try:
                return triangle(order)
            finally:
                inside.pop()

        monkeypatch.setattr(symfun, "bivariate_gf", spy_triangle)
        monkeypatch.setattr(symfun, "elementary_symmetric_series",
                            lambda *a: calls.append((a, list(inside))) or e_r(*a))
        assert run(capsys, "bivariate", "--limit", "40")[0] == 0
        assert calls == [((25,), [25])]


class TestList:
    def test_n5_has_19_items(self, capsys):
        code, out, _ = run(capsys, "list", "--limit", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "count 19"
        assert len(lines) == 20
        assert "2+2+1~" in lines
        assert "2~+2+1" in lines
        assert "2~+2+1~" not in lines

    def test_n0_empty_partition(self, capsys):
        code, out, _ = run(capsys, "list", "--limit", "0")
        assert out.splitlines() == ["(empty)", "count 1"]

    def test_n0_csv_prints_the_empty_decoration_as_a_dash(self, capsys):
        # as decorations 0 does: the empty word prints as "-" in plain text and csv
        assert run(capsys, "list", "--limit", "0", "--format", "csv") == (
            0, "partition,decoration\n(empty),-\n", "")

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "list", "--limit", "1")
        assert out.splitlines() == ["1", "1~", "count 2"]

    def test_json_blocks(self, capsys):
        code, out, _ = run(capsys, "list", "--limit", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["count"] == 4
        overlined = [
            v["rendered"] for v in doc["values"]
            if any(b["overlined"] for b in v["blocks"])
        ]
        assert overlined == ["2~", "1~+1"]

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "list", "--limit", "21")
        assert code == 2 and "cap" in err


def readme_command_lines():
    """(argv, comment) for each `blocksep ...` line of README's "Command line" sh block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```$", text, re.M | re.S)[1]
    lines = [line.partition("#") for line in block.splitlines()]
    assert all(command.split()[0] == "blocksep" for command, _, _ in lines)
    return [(command.split()[1:], comment.strip()) for command, _, comment in lines]


README_COMMANDS = readme_command_lines()


def test_readme_lists_every_command():
    assert [argv[0] for argv, _ in README_COMMANDS] == [
        "seq", "seq", "table", "verify", "decorations", "bivariate", "list"]


@pytest.mark.parametrize("argv, comment", README_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_readme_command_line_runs(capsys, argv, comment):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if argv == ["seq", "--limit", "10"]:
        assert out == comment + "\n" == TABLE1_B + "\n"
    if argv[0] == "list":
        assert out.endswith("\ncount 19\n") and "2~+2+1" in out.splitlines()


@pytest.mark.parametrize("argv, library_call, refusal", [
    (["list", "--limit", "21"], lambda: bruteforce.list_block_separated(21),
     "explicit listing for n=21 exceeds cap 20"),
    (["decorations", "26"], lambda: enumerate_decorations(26),
     "decoration enumeration for r=26 exceeds cap 25"),
    (["seq", "--method", "bruteforce", "--limit", "61"],
     lambda: bruteforce.count_block_separated(61),
     "weighted brute-force count for n=61 exceeds cap 60"),
    (["table", "--method", "bruteforce", "--limit", "61"],
     lambda: bruteforce.count_block_separated(61),
     "weighted brute-force count for n=61 exceeds cap 60"),
], ids=["list", "decorations", "seq", "table"])
def test_cap_error_names_the_flag(capsys, argv, library_call, refusal):
    # CLI users raise a cap with --cap-enum; API callers keep the library's advice
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {refusal}; raise --cap-enum if you mean it\n"
    with pytest.raises(CapExceededError, match=f"^{refusal}; raise the cap explicitly"):
        library_call()


def printed_rows(fmt, out):
    """The rows of a list or decorations output, and the count it prints (csv prints none)."""
    if fmt == "json":
        doc = json.loads(out)
        return doc["values"], doc["count"]
    lines = out.splitlines()
    if fmt == "csv":
        return list(csv.reader(lines))[1:], None
    last = re.fullmatch(r"count (\d+)", lines[-1])
    return lines[:-1], int(last[1])


class TestRendering:
    """Rows reach the renderers as lists, and JSON is written in batches of
    encoder pieces; the output is what json.dumps and whole row lists gave."""

    @pytest.mark.parametrize("fmt", cli.DECORATION_FORMATS)
    @pytest.mark.parametrize("r", range(7))
    def test_decoration_rows_are_read_once(self, capsys, r, fmt):
        code, out, _ = run(capsys, "decorations", str(r), "--format", fmt)
        rows, count = printed_rows(fmt, out)
        assert code == 0 and len(rows) == fib(r + 2) and count in (None, fib(r + 2))
        if r == 0:  # the empty word prints as "-"
            assert rows == {"plain": ["-  {}  -"], "csv": [["-", "", "-"]],
                            "json": [{"word": "", "independent_set": [], "tiling": []}]}[fmt]

    @pytest.mark.parametrize("fmt", cli.LIST_FORMATS)
    @pytest.mark.parametrize("n", range(7))
    def test_list_rows_are_read_once(self, capsys, n, fmt):
        code, out, _ = run(capsys, "list", "--limit", str(n), "--format", fmt)
        rows, count = printed_rows(fmt, out)
        expected = bruteforce.count_block_separated(n)[n]
        assert code == 0 and len(rows) == expected and count in (None, expected)

    @pytest.mark.parametrize("doc", [
        {"n": 16, "values": [{"word": str(w), "independent_set": sorted(word_to_independent_set(w)),
                              "tiling": [t.value for t in word_to_tiling(w)]}
                             for w in enumerate_decorations(16)],
         "method": "enumeration", "checks": [], "count": fib(18)},
        {"n": 0, "values": [], "method": "bruteforce", "checks": [], "count": 0},
        {"n": 3, "values": [[1, [2, [], {}]], {"a": [], "b": {"c": [1, "x"]}}, []],
         "method": "all", "checks": [{"name": "c", "range": "0..3", "status": "pass"}]},
    ], ids=["decorations-16", "empty-values", "nested"])
    def test_json_text_is_json_dumps(self, doc):
        if doc["n"] == 16:  # several batches
            assert sum(1 for _ in json.JSONEncoder(indent=2).iterencode(doc)) > 3 * cli._JSON_BATCH
        cli._write_json(out := io.StringIO(), **doc)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("pieces", [cli._JSON_BATCH - 1, cli._JSON_BATCH,
                                        cli._JSON_BATCH + 1, 3 * cli._JSON_BATCH])
    def test_json_text_at_batch_boundaries(self, pieces):
        doc = {"n": 0, "values": [0] * (pieces - 20), "method": "m", "checks": []}
        assert sum(1 for _ in json.JSONEncoder(indent=2).iterencode(doc)) == pieces
        cli._write_json(out := io.StringIO(), **doc)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("argv", [["decorations", "16", "--format", "json"],
                                      ["list", "--limit", "14", "--format", "json"]])
    def test_peak_memory_follows_the_output(self, capsys, argv):
        # json.dumps lists every encoder piece before joining: 9 to 10 times the output
        run(capsys, *argv)  # the parser and lazy imports are built once per process
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0 and peak <= 7 * len(out)


class TestConfigPlumbing:
    def test_env_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCKSEP_LIMIT", "3")
        code, out, _ = run(capsys, "seq")
        assert out == "1 2 4 7\n"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCKSEP_LIMIT", "3")
        code, out, _ = run(capsys, "seq", "--limit", "1")
        assert out == "1 2\n"

    def test_env_format(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCKSEP_FORMAT", "bfile")
        code, out, _ = run(capsys, "seq", "--limit", "1")
        assert out == "0 1\n1 2\n"

    def test_bad_env_method(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCKSEP_METHOD", "magic")
        code, _, err = run(capsys, "seq", "--limit", "1")
        assert code == 2 and "method" in err

    def test_bad_env_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCKSEP_LIMIT", "ten")
        code, _, err = run(capsys, "seq")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("older and longer contents\n")
        code, out, _ = run(capsys, "seq", "--limit", "3", "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "1 2 4 7\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_output_fifo_is_written_not_replaced(self, capsys, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        code, out, _ = run(capsys, "seq", "--limit", "6", "--output", str(fifo))
        reader.join(timeout=30)
        assert not reader.is_alive(), "nothing was written to the FIFO"
        assert code == 0 and out == ""
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]
        _, stdout, _ = run(capsys, "seq", "--limit", "6")
        assert received == [stdout.encode()]

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs os.symlink")
    def test_output_symlink_is_followed_not_replaced(self, capsys, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("older and longer contents\n")
        link = tmp_path / "link"
        link.symlink_to(target)
        code, out, _ = run(capsys, "seq", "--limit", "3", "--output", str(link))
        assert code == 0 and out == ""
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "1 2 4 7\n"
        assert sorted(tmp_path.iterdir()) == [link, target]

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs os.symlink")
    def test_output_keeps_the_target_mode(self, capsys, tmp_path):
        # the replacement takes the target's permission bits, through a link
        # too; a new file gets the umask's
        target, link, fresh = tmp_path / "out.txt", tmp_path / "link", tmp_path / "new.txt"
        target.write_text("older contents\n")
        link.symlink_to(target)
        umask = os.umask(0o022)
        try:
            for path, mode in ((target, 0o600), (link, 0o640)):
                target.chmod(mode)
                assert run(capsys, "seq", "--limit", "5", "--output", str(path))[0] == 0
                assert stat.S_IMODE(target.stat().st_mode) == mode
            assert run(capsys, "seq", "--limit", "5", "--output", str(fresh))[0] == 0
        finally:
            os.umask(umask)
        assert link.is_symlink() and target.read_text() == "1 2 4 7 12 19\n"
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
        assert sorted(tmp_path.iterdir()) == [link, fresh, target]

    def test_output_keeps_a_file_it_did_not_create(self, capsys, tmp_path):
        # a file already at the temporary file's name is not the run's to overwrite or remove
        target, sentinel = tmp_path / "out.txt", tmp_path / f"out.txt.{os.getpid()}.tmp"
        sentinel.write_text("not the CLI's\n")
        code, out, err = run(capsys, "seq", "--limit", "3", "--output", str(target))
        assert sentinel.read_text() == "not the CLI's\n"
        assert code == 2 and out == "" and not target.exists()
        assert err.startswith("error: cannot write ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("sink", [
        "stdout", "file", "new file",
        pytest.param("symlink", marks=pytest.mark.skipif(not hasattr(os, "symlink"),
                                                         reason="needs os.symlink")),
    ])
    def test_a_failed_render_writes_nothing(self, capsys, monkeypatch, tmp_path, sink):
        def half_then_fail(out, cfg, values, checks):
            out.write("1 2 4")
            raise MemoryError

        monkeypatch.setitem(cli.SEQ_FORMATS, "plain", half_then_fail)
        target, link = tmp_path / "out.txt", tmp_path / "link"
        if sink in ("file", "symlink"):
            target.write_text("older contents\n")
        if sink == "symlink":
            link.symlink_to(target)
        argv = [] if sink == "stdout" else ["--output", str(link if sink == "symlink" else target)]
        before = sorted(tmp_path.iterdir())
        assert run(capsys, "seq", "--limit", "5", *argv) == (2, "", "error: out of memory\n")
        assert sorted(tmp_path.iterdir()) == before  # no new target, no *.tmp beside it
        if sink in ("file", "symlink"):
            assert target.read_bytes() == b"older contents\n"

    @pytest.mark.parametrize("argv", [
        [command, *(["12"] if command == "decorations" else ["--limit", "12"]), "--format", fmt]
        for command, (_, _, formats, _) in cli.COMMANDS.items() for fmt in formats
    ], ids=" ".join)
    def test_output_file_gets_the_stdout_bytes(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, *argv)
        target = tmp_path / "out"
        assert run(capsys, *argv, "--output", str(target))[:2] == (code, "")
        assert target.read_bytes() == out.encode()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_output_pipe_by_dev_fd_path_is_written(self, capsys):
        # /dev/fd/N of a pipe links to "pipe:[inode]", which is no path: the
        # write must go through the name as given, not a resolved one.
        read_fd, write_fd = os.pipe()
        received = []
        reader = threading.Thread(target=lambda: received.append(os.read(read_fd, 1 << 16)),
                                  daemon=True)
        reader.start()
        try:
            code, out, err = run(capsys, "seq", "--limit", "6",
                                 "--output", f"/dev/fd/{write_fd}")
            reader.join(timeout=30)
        finally:
            os.close(write_fd)
            os.close(read_fd)
        assert code == 0 and out == "" and err == ""
        _, stdout, _ = run(capsys, "seq", "--limit", "6")
        assert received == [stdout.encode()]

    def test_output_to_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, "seq", "--limit", "5", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "missing").exists()

    def test_full_stdout_exits_2(self, capsys, monkeypatch):
        class FullDevice(io.StringIO):
            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullDevice())
        code = main(["seq", "--limit", "5"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")

    def test_closed_stdout_pipe_exits_2(self):
        # the read end is gone before the child starts, so its write gets EPIPE;
        # stderr must hold the one error line and nothing from the exit flush,
        # which has bytes left to flush only when stdout is buffered
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "blocksep.cli", "seq", "--limit", "5"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n")

    @pytest.mark.parametrize("fmt, argv, env", [
        ("xml", ["seq", "--format", "xml"], None),
        ("xml", ["seq"], "xml"),
        ("bfile", ["table", "--format", "bfile"], None),
        ("bfile", ["table"], "bfile"),
    ], ids=["flag", "env", "flag_other_command", "env_other_command"])
    def test_bad_format_is_one_error_line(self, capsys, monkeypatch, fmt, argv, env):
        if env:
            monkeypatch.setenv("BLOCKSEP_FORMAT", env)
        code, out, err = run(capsys, *argv, "--limit", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert repr(fmt) in err

    def test_negative_limit_rejected(self, capsys):
        code, _, err = run(capsys, "seq", "--limit", "-1")
        assert code == 2

    @pytest.mark.parametrize("command", ["seq", "table", "verify", "bivariate"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_limit_beyond_index_range_is_one_error_line(
            self, capsys, monkeypatch, command, source):
        limit = str(sys.maxsize)
        if source == "env":
            monkeypatch.setenv("BLOCKSEP_LIMIT", limit)
        argv = [command] + (["--limit", limit] if source == "flag" else [])
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, setting, value", [
        *[("seq", setting, value) for setting in ("limit", "cap_enum")
          for value in ("ten", "-1", str(sys.maxsize), str(10**19), "", "1_0", " 3", "\uff13")],
        ("seq", "method", "magic"), ("seq", "method", ""), ("seq", "format", ""),
    ])
    def test_bad_value_is_the_same_line_from_flag_and_env(
            self, capsys, monkeypatch, command, setting, value):
        flag, twin = "--" + setting.replace("_", "-"), "BLOCKSEP_" + setting.upper()
        lines = {}
        for source, other in [(flag, twin), (twin, flag)]:
            with monkeypatch.context() as m:
                if source == twin:
                    m.setenv(twin, value)
                code, out, err = run(capsys, command, *([flag, value] if source == flag else []))
            assert code == 2 and out == ""
            assert err.startswith(f"error: {source} ") and len(err.splitlines()) == 1
            assert other not in err and repr(value) in err
            lines[source] = err.replace(source, "<source>")
        assert lines[flag] == lines[twin]

    @pytest.mark.parametrize("command", ["seq", "table", "verify", "bivariate"])
    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch, command):
        def exhausted(*_args):
            raise MemoryError

        monkeypatch.setitem(cli.SERIES_METHODS, cli.RunConfig().method, exhausted)
        monkeypatch.setattr(symfun, "bivariate_gf", exhausted)
        monkeypatch.setattr(recurrence, "euler_factorized_triangle", exhausted)
        assert run(capsys, command) == (2, "", "error: out of memory\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
    @pytest.mark.parametrize("command", ["seq", "table", "verify", "bivariate"])
    def test_limit_beyond_memory_is_one_error_line(self, command):
        # the child caps its own address space first, so a route that does
        # try to fill a list this long fails at 1 GiB, not at the host's limit
        src = str(Path(cli.__file__).resolve().parents[1])
        child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2); "
                 "from blocksep.cli import main; sys.exit(main(sys.argv[1:]))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", child, command, "--limit", str(sys.maxsize - 1)],
            capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"error: out of memory\n")

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "verify", "--limit", "15", "--format", "json")
        _, second, _ = run(capsys, "verify", "--limit", "15", "--format", "json")
        assert first == second

    @pytest.mark.parametrize("argv", [["verify", "--limit", "30", "--format", "json"],
                                      ["decorations", "6", "--format", "json"]], ids=" ".join)
    def test_same_bytes_under_another_hash_seed(self, argv):
        # set and dict order vary with the string hash seed; the output must not
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if not k.startswith("BLOCKSEP_")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run([sys.executable, "-m", "blocksep.cli", *argv],
                                  capture_output=True, env=dict(env, PYTHONHASHSEED=seed),
                                  timeout=120)
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, usage, prog", [
        (["--bogus", "seq", "--limit", "3"], "usage: blocksep [-h] {", "blocksep"),
        (["--bogus", "seq", "--other"], "usage: blocksep [-h] {", "blocksep"),
        (["seq", "--limit", "3", "--bogus"], "usage: blocksep seq [-h]", "blocksep seq"),
    ], ids=["before", "before-and-after", "after"])
    def test_unknown_flag_is_reported_by_the_parser_it_was_given_to(self, capsys, argv, usage,
                                                                     prog):
        # a flag before the command belongs to the top-level parser, one after
        # it to the command's; the first that was given is reported
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith(usage)
        assert err.endswith(f"\n{prog}: error: unrecognized arguments: --bogus\n")


class TestDeclaredSettings:
    """A command has a flag and a BLOCKSEP_ twin for each setting it declares, and
    for no other: an undeclared twin is ignored, an undeclared flag is refused."""

    BASE = {name: [name, "--limit", "3"] for name in cli.COMMANDS} | {
        "decorations": ["decorations", "2"]}
    BAD = {"limit": "ten", "method": "magic", "cap_enum": "x"}

    @pytest.mark.parametrize("command, setting", [
        (command, setting) for command, (*_, declared) in cli.COMMANDS.items()
        for setting in cli.SETTINGS if setting not in declared])
    def test_undeclared_setting_is_not_read(self, capsys, monkeypatch, command, setting):
        expected = run(capsys, *self.BASE[command])
        monkeypatch.setenv("BLOCKSEP_" + setting.upper(), self.BAD[setting])
        assert run(capsys, *self.BASE[command]) == expected
        flag = "--" + setting.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main([*self.BASE[command], flag, self.BAD[setting]])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        # the command's own usage line, which lists the flags it does take
        assert err.startswith(f"usage: blocksep {command} [-h]")
        assert err.endswith(f"error: unrecognized arguments: {flag} {self.BAD[setting]}\n")

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_help_lists_the_declared_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
        declared = cli.COMMANDS[command][-1]
        assert exc.value.code == 0
        assert flags == ["--" + setting.replace("_", "-") for setting in declared]

    def test_readme_table_matches_the_declarations(self):
        # the table in README.md "Command line": one row per flag, one column per command
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in readme.splitlines() if line.startswith("| `--")]
        header = next(line for line in readme.splitlines() if line.startswith("| flag "))
        columns = [cell.strip().strip("`") for cell in header.strip("|").split("|")]
        documented = {command: [re.match(r"`--([a-z-]+)", row[0])[1].replace("-", "_")
                                for row in rows if row[columns.index(command)]]
                      for command in columns if command in cli.COMMANDS}
        assert documented == {command: list(entry[-1]) for command, entry in cli.COMMANDS.items()}


class TestSharedParser:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_main_leaves_no_cyclic_garbage(self, capsys):
        cli.build_parser()  # argparse leaves garbage while it builds, once per process
        gc.collect()
        gc.disable()
        try:
            code = main(["seq", "--limit", "3"])
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert code == 0 and unreachable == 0
