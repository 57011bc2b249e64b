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
from pathlib import Path

import pytest

from blocksep import bruteforce, cli, qseries, symfun
from blocksep.cli import main
from blocksep.qseries import TruncatedSeries, euler_inverse
from blocksep.symfun import weighted_gf

TABLE1_B = "1 2 4 7 12 19 31 47 72 107 157"


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
        assert err.splitlines() == ["method disagreement at n=3: {'matrix': 7, "
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
        assert doc["method"] == "matrix"

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


VERIFY_CHECK_NAMES = ("cross_method_equality", "oracle_weighted_count",
                      "oracle_explicit_listing", "bivariate_oracle", "sandwich")


def at_9(update):
    """An oracle row edit applied at n = 9 only; row (30, 67, 10) there."""
    return lambda row, n: {**row, **update} if n == 9 else row


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
                            lambda c, n: c + (n == 5)),
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

    def test_inject_fault_detected(self, capsys):
        code, out, _ = run(capsys, "verify", "--limit", "10", "--inject-fault")
        assert code == 1
        assert "result: fail" in out
        assert "cross_method_equality" in out

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

    def test_inject_fault_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--limit", "10", "--inject-fault", "--format", "json"
        )
        assert code == 1
        doc = json.loads(out)
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        assert statuses["cross_method_equality"] == "fail"


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

    def test_bad_env_boolean(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCKSEP_INJECT_FAULT", "maybe")
        code, out, err = run(capsys, "verify", "--limit", "5")
        assert code == 2 and out == ""
        assert "BLOCKSEP_INJECT_FAULT" in err

    def test_inject_fault_env_read_by_verify_alone(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCKSEP_INJECT_FAULT", "maybe")
        assert run(capsys, "seq", "--limit", "3") == (0, "1 2 4 7\n", "")

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
          for value in ("ten", "-1", str(sys.maxsize), str(10**19), "")],
        ("seq", "method", "magic"), ("seq", "method", ""), ("seq", "format", ""),
        ("verify", "inject_fault", "maybe"), ("verify", "inject_fault", ""),
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
            assert other not in err
            lines[source] = err.replace(source, "<source>")
        assert lines[flag] == lines[twin]

    @pytest.mark.parametrize("command", ["seq", "table", "verify", "bivariate"])
    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch, command):
        def exhausted(*_args):
            raise MemoryError

        monkeypatch.setitem(cli.SERIES_METHODS, "matrix", exhausted)
        monkeypatch.setattr(symfun, "bivariate_gf", exhausted)
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

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "--bogus"])
        assert exc.value.code == 2


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

    def test_inject_fault_does_not_leak_into_the_next_run(self, capsys):
        assert run(capsys, "verify", "--limit", "10", "--inject-fault")[0] == 1
        code, out, _ = run(capsys, "verify", "--limit", "10")
        assert code == 0 and out.splitlines()[-1] == "result: pass"
