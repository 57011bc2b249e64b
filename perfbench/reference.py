"""Reference values and output checks that do not trust the routes under test.

The values are computed here from compact plain-list code that imports
nothing from blocksep, so a bug shared by every route inside the package
still shows up as a wrong output:

- b(n) by the two-state fold over part sizes;
- p(n) by the pentagonal-number recurrence;
- p~(n) by the product prod (1 + q^j) / (1 - q^j);
- F(r + 2), the number of decoration words of r blocks.

`check` compares one request's captured stdout against them.
"""

from __future__ import annotations

import csv
import io
import json


def block_separated_counts(n_max: int) -> list[int]:
    """b(0..n_max): fold (f0, f1) through the part sizes j = 1..n_max.

    f0 weighs objects whose last block is plain (or that have none), f1
    those whose last block is overlined. A block of size j is a nonempty
    run of j's, q^j / (1 - q^j); it may be overlined only after state 0:
        f0 += (f0 + f1) * S_j,   f1 += f0 * S_j.
    """
    f0 = [1] + [0] * n_max
    f1 = [0] * (n_max + 1)
    for j in range(1, n_max + 1):
        keep = n_max + 1 - j
        # g * S_j for g = f0 + f1 and g = f0: shift by j, then stride-j prefix sums
        to0 = [0] * j + [a + b for a, b in zip(f0[:keep], f1[:keep])]
        to1 = [0] * j + f0[:keep]
        for k in range(2 * j, n_max + 1):
            to0[k] += to0[k - j]
            to1[k] += to1[k - j]
        f0 = [a + b for a, b in zip(f0, to0)]
        f1 = [a + b for a, b in zip(f1, to1)]
    return [a + b for a, b in zip(f0, f1)]


def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        p[n] = total
    return p


def overpartition_counts(n_max: int) -> list[int]:
    """p~(0..n_max): multiply 1 by (1 + q^j) and then by 1 / (1 - q^j), j = 1..n_max."""
    f = [1] + [0] * n_max
    for j in range(1, n_max + 1):
        for k in range(n_max, j - 1, -1):
            f[k] += f[k - j]
        for k in range(j, n_max + 1):
            f[k] += f[k - j]
    return f


def decoration_counts(r_max: int) -> list[int]:
    """F(r + 2) for r = 0..r_max, with F(1) = F(2) = 1."""
    out, a, b = [], 1, 2  # F(2), F(3)
    for _ in range(r_max + 1):
        out.append(a)
        a, b = b, a + b
    return out


def reference_tables(requests: list[list[str]]) -> dict[str, list[int]]:
    """Every reference value the request list needs, keyed b / p / pbar / fib."""
    seq_n = max((_limit(r) for r in requests if r[0] != "decorations"), default=0)
    table_n = max(
        (_limit(r) for r in requests if r[0] in ("table", "bivariate", "verify")),
        default=0,
    )
    r_max = max((int(r[1]) for r in requests if r[0] == "decorations"), default=0)
    return {
        "b": block_separated_counts(seq_n),
        "p": partition_counts(seq_n),
        "pbar": overpartition_counts(table_n),
        "fib": decoration_counts(r_max),
    }


def _limit(argv: list[str]) -> int:
    return int(argv[argv.index("--limit") + 1])


def _format(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "plain"


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _ints(cells) -> list[int]:
    return [int(c) for c in cells]


def _expect(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {_short(got)}, want {_short(want)}"


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _seq_values(fmt: str, out: str) -> list[int]:
    if fmt == "plain":
        return _ints(out.split())
    if fmt == "bfile":
        return [int(line.split()[1]) for line in out.splitlines()]
    if fmt == "csv":
        return [int(row[1]) for row in _csv_rows(out)[1:]]
    return json.loads(out)["values"]


def _table_rows(fmt: str, out: str) -> list[list[int]]:
    if fmt == "plain":
        return [_ints(line.split()[1:]) for line in out.splitlines()[1:]]
    if fmt == "csv":
        return [_ints(row[1:]) for row in _csv_rows(out)[1:]]
    doc = json.loads(out)["values"]
    return [doc["p"], doc["pbar"], doc["b"]]


def _triangle(fmt: str, out: str) -> list[list[int]]:
    if fmt == "plain":
        return [_ints(line.split(":")[1].split()) for line in out.splitlines()]
    if fmt == "csv":
        return [_ints(row[1:]) for row in _csv_rows(out)[1:]]
    return json.loads(out)["values"]


def _listing_count(fmt: str, out: str) -> tuple[int, int]:
    """(number of items printed, count the command states)."""
    if fmt == "plain":
        lines = out.splitlines()
        return len(lines) - 1, int(lines[-1].split()[1])
    if fmt == "csv":
        n = len(_csv_rows(out)) - 1
        return n, n
    doc = json.loads(out)
    return len(doc["values"]), doc["count"]


def _verify_passed(fmt: str, out: str) -> bool:
    if fmt == "plain":
        return out.splitlines()[-1] == "result: pass"
    if fmt == "csv":
        return all(row[2] == "pass" for row in _csv_rows(out)[1:])
    return all(c["status"] == "pass" for c in json.loads(out)["checks"])


def check(argv: list[str], out: str, refs: dict[str, list[int]]) -> str | None:
    """None if the stdout of request `argv` is right, else what is wrong."""
    command, fmt = argv[0], _format(argv)
    b, p, pbar = refs["b"], refs["p"], refs["pbar"]
    if command == "decorations":
        want = refs["fib"][int(argv[1])]
        return _expect("decoration count", _listing_count(fmt, out), (want, want))
    n = _limit(argv)
    if command == "seq":
        return _expect("b(0..n)", _seq_values(fmt, out), b[: n + 1])
    if command == "table":
        want = [p[: n + 1], pbar[: n + 1], b[: n + 1]]
        return _expect("rows p, p~, b", _table_rows(fmt, out), want)
    if command == "bivariate":
        rows = _triangle(fmt, out)
        return _expect("row sums", [sum(r) for r in rows], b[: n + 1]) or _expect(
            "column 0", [r[0] for r in rows], p[: n + 1]
        )
    if command == "list":
        return _expect("listed objects", _listing_count(fmt, out), (b[n], b[n]))
    if command == "verify":
        if fmt == "json":
            wrong = _expect("values", json.loads(out)["values"], b[: n + 1])
            if wrong:
                return wrong
        return None if _verify_passed(fmt, out) else "verify did not pass"
    return f"no check for command {command!r}"
