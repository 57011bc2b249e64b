"""Command-line front end.

Subcommands: seq, table, verify, decorations, bivariate, list. Every flag
has an environment-variable twin prefixed BLOCKSEP_ (flags win). Exit
status is 0 only when every requested computation and check succeeded;
semantic usage problems and failures to write --output or stdout exit 2,
failed verifications and a route's failed decode check exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys
from collections.abc import Collection, Iterator
from dataclasses import dataclass

from . import bruteforce, fibonacci, recurrence, symfun, transfer
from .bruteforce import DecoratedPartition
from .fibonacci import (CapExceededError, enumerate_decorations, word_to_independent_set,
                        word_to_tiling)
from .qseries import euler_inverse, overpartition_numbers

ENV_PREFIX = "BLOCKSEP_"
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

SERIES_METHODS = {
    "matrix": transfer.matrix_product_gf,
    "recurrence": recurrence.euler_factorized_gf,
    "symmetric": symfun.fibonacci_weighted_gf,
}
METHOD_CHOICES = (*SERIES_METHODS, "bruteforce", "all")

# Brute-force routes only join cross-checks up to this weight unless the
# user raises --cap-enum; beyond it they are too slow to be a default.
ORACLE_WINDOW = 25
LISTING_WINDOW = 20

TRUE_WORDS, FALSE_WORDS = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    limit: int
    method: str
    format: str
    cap_enum: int | None
    output: str | None
    inject_fault: bool = False

    def cap(self, default: int) -> int:
        """An enumeration cap or oracle window: --cap-enum if given, else default."""
        return default if self.cap_enum is None else self.cap_enum


def _count(text: str) -> int:
    """A nonnegative int small enough to size a list with."""
    with contextlib.suppress(ValueError):
        if 0 <= (value := int(text)) < sys.maxsize:
            return value
    raise ValueError(f"must be an integer in 0..{sys.maxsize - 1}; got {text!r}")


def _word(kind: str, words: Collection[str], text: str) -> str:
    if text not in words:
        raise ValueError(f"must be {kind}, one of {', '.join(words)}; got {text!r}")
    return text


def _switch(text: str) -> bool:
    return _word("yes or no", TRUE_WORDS + FALSE_WORDS, text.strip().lower()) in TRUE_WORDS


def _resolve_config(args: argparse.Namespace, formats: Collection[str]) -> RunConfig:
    """Each setting the command has, from its flag, else its BLOCKSEP_ twin, else its
    default; both arrive as text, and a bad one is a UsageError naming its source."""
    settings = {  # name -> (default, parse of the text)
        "limit": (10, _count),
        "method": ("matrix", functools.partial(_word, "a method", METHOD_CHOICES)),
        "format": ("plain", functools.partial(_word, f"a {args.command} format", formats)),
        "cap_enum": (None, _count),
        "output": (None, str),  # empty text means stdout
        "inject_fault": (False, _switch),
    }
    given, resolved = vars(args), {}
    for name, (default, parse) in settings.items():
        if name in given:
            from_flag = given[name] is not None
            source = "--" + name.replace("_", "-") if from_flag else ENV_PREFIX + name.upper()
            text = given[name] if from_flag else os.environ.get(source)
            try:
                resolved[name] = default if text is None else parse(text)
            except ValueError as exc:
                raise UsageError(f"{source} {exc}") from None
    return RunConfig(**resolved)


def _emit(cfg: RunConfig, renderers: dict, *data) -> int:
    """Render data in cfg's format; replace a regular --output whole, never partly.

    An --output that exists and is not a regular file (a FIFO, a device) is
    written directly: renaming a temporary file over it would replace it.
    """
    text = renderers[cfg.format](cfg, *data)
    try:
        if not cfg.output:
            sys.stdout.write(text)
            sys.stdout.flush()
            return EXIT_OK
        if os.path.exists(cfg.output) and not os.path.isfile(cfg.output):
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            return EXIT_OK
        tmp = f"{cfg.output}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, cfg.output)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    except OSError as exc:
        if not cfg.output:
            _discard_stdout()
        raise UsageError(f"cannot write {cfg.output or 'stdout'}: {exc.strerror or exc}")
    return EXIT_OK


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device after a failed write.

    The interpreter flushes stdout once more at exit; the bytes still
    buffered then go nowhere instead of raising a second, unhandled error.
    """
    with contextlib.suppress(AttributeError, OSError, ValueError):
        fd = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(fd, sys.stdout.fileno())
        finally:
            os.close(fd)


def _csv_text(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(n: int, values: object, method: str, checks: list[dict], **extra) -> str:
    doc = {"n": n, "values": values, "method": method, "checks": checks}
    doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


def _lines_text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _sequence(cfg: RunConfig, method: str) -> list[int]:
    """b(0..limit) by one route; bruteforce refuses a limit beyond its cap."""
    if method != "bruteforce":
        return list(SERIES_METHODS[method](cfg.limit).coeffs)
    cap = cfg.cap(bruteforce.DEFAULT_WEIGHT_CAP)
    if cfg.limit > cap:
        raise UsageError(
            f"bruteforce refuses limit {cfg.limit} beyond cap {cap}; "
            "raise --cap-enum if you mean it"
        )
    return [bruteforce.count_block_separated(n, cap=cap) for n in range(cfg.limit + 1)]


SEQ_FORMATS = {
    "plain": lambda cfg, values, checks: " ".join(str(v) for v in values) + "\n",
    "csv": lambda cfg, values, checks: _csv_text([["n", "b"], *enumerate(values)]),
    "json": lambda cfg, values, checks: _json_text(cfg.limit, values, cfg.method, checks),
    "bfile": lambda cfg, values, checks: "".join(f"{n} {v}\n" for n, v in enumerate(values)),
}


def cmd_seq(cfg: RunConfig, _args: argparse.Namespace) -> int:
    if cfg.method != "all":
        return _emit(cfg, SEQ_FORMATS, _sequence(cfg, cfg.method), [])
    methods = list(SERIES_METHODS)
    if cfg.limit <= cfg.cap(ORACLE_WINDOW):
        methods.append("bruteforce")
    else:  # the cross-check is narrower than asked for; say so
        sys.stderr.write(f"note: --method all leaves out bruteforce beyond its window "
                         f"0..{cfg.cap(ORACLE_WINDOW)}; raise --cap-enum to include it\n")
    results = {m: _sequence(cfg, m) for m in methods}
    for n in range(cfg.limit + 1):
        at = {m: values[n] for m, values in results.items()}
        if len(set(at.values())) > 1:
            sys.stderr.write(f"method disagreement at n={n}: {at}\n")
            return EXIT_CHECK_FAILED
    checks = [{"name": "cross_method_equality", "range": f"0..{cfg.limit}",
               "methods": sorted(results), "status": "pass"}]
    return _emit(cfg, SEQ_FORMATS, results["matrix"], checks)


def _table_plain(cfg: RunConfig, rows: dict[str, list[int]]) -> str:
    labels = {"p": "p(n)", "pbar": "p~(n)", "b": "b(n)"}
    table = [["n"] + [str(i) for i in range(cfg.limit + 1)]]
    table += [[labels[key]] + [str(v) for v in values] for key, values in rows.items()]
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    return "".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
        for row in table
    )


TABLE_FORMATS = {
    "plain": _table_plain,
    "csv": lambda cfg, rows: _csv_text(
        [["n", *range(cfg.limit + 1)], ["p", *rows["p"]], ["p~", *rows["pbar"]],
         ["b", *rows["b"]]]
    ),
    "json": lambda cfg, rows: _json_text(cfg.limit, rows, cfg.method, []),
}


def cmd_table(cfg: RunConfig, _args: argparse.Namespace) -> int:
    b = _sequence(cfg, "matrix" if cfg.method == "all" else cfg.method)
    rows = {"p": list(euler_inverse(cfg.limit).coeffs),
            "pbar": overpartition_numbers(cfg.limit), "b": b}
    return _emit(cfg, TABLE_FORMATS, rows)


def _verify_checks(cfg: RunConfig) -> tuple[list[dict], list[int]]:
    n = cfg.limit

    def window(default: int | None) -> int:  # None: the whole limit
        return n if default is None else min(n, cfg.cap(default))

    # Each rule yields the failures of its check at weight k <= hi. Rules read
    # the routes computed below and look library functions up when called.
    def cross_method(k: int, hi: int) -> Iterator[str]:
        at = {m: v[k] for m, v in results.items()}
        if len(set(at.values())) > 1:
            yield f"first difference at n={k}: {at}"

    def weighted_count(k: int, hi: int) -> Iterator[str]:
        expected = bruteforce.count_block_separated(k, cap=hi)
        if expected != values[k]:
            yield f"n={k}: bruteforce={expected} series={values[k]}"

    def explicit_listing(k: int, hi: int) -> Iterator[str]:
        listed = len(bruteforce.list_block_separated(k, cap=hi))
        if listed != values[k]:
            yield f"n={k}: listing={listed} series={values[k]}"

    def bivariate(k: int, hi: int) -> Iterator[str]:
        row, oracle_row = triangle[k], bruteforce.count_bivariate_oracle(k, cap=hi)
        # whole rows: an oracle entry past the triangle's width is a mismatch
        if row != tuple(oracle_row.get(m, 0) for m in range(max(oracle_row, default=0) + 1)):
            yield f"n={k}: triangle row {row} != oracle {oracle_row}"
        if sum(row) != values[k]:
            yield f"n={k}: row sum {sum(row)} != b({k})={values[k]}"
        if row[0] != p[k]:
            yield f"n={k}: column 0 entry {row[0]} != p({k})={p[k]}"

    def sandwich(k: int, hi: int) -> Iterator[str]:
        if not p[k] <= values[k] <= pbar[k]:
            yield f"n={k}: sandwich violated"
        if k >= 1 and not p[k] < values[k]:
            yield f"n={k}: lower bound not strict"

    table = [("cross_method_equality", None, cross_method),
             ("oracle_weighted_count", ORACLE_WINDOW, weighted_count),
             ("oracle_explicit_listing", LISTING_WINDOW, explicit_listing),
             ("bivariate_oracle", ORACLE_WINDOW, bivariate),
             ("sandwich", None, sandwich)]
    for name, default, _ in table:  # a narrowed oracle still passes; say so
        if default is not None and window(default) < min(n, default):
            sys.stderr.write(f"note: --cap-enum {cfg.cap_enum} narrows {name} "
                             f"to 0..{window(default)} from 0..{min(n, default)}\n")

    results = {m: _sequence(cfg, m) for m in SERIES_METHODS}
    if cfg.inject_fault:
        # self-test of the detector: flip one coefficient and watch it fail
        results["matrix"][min(1, n)] += 1
    values = results["recurrence"]
    p = euler_inverse(n).coeffs
    pbar = overpartition_numbers(n)
    triangle = symfun.bivariate_gf(window(ORACLE_WINDOW))

    checks = []
    for name, default, rule in table:
        hi = window(default)
        detail = next((d for k in range(hi + 1) for d in rule(k, hi)), None)
        checks.append({"name": name, "range": f"0..{hi}", "status": "fail" if detail else "pass",
                       **({"detail": detail} if detail else {})})
    return checks, values


def _verify_plain(cfg: RunConfig, checks: list[dict], values: list[int], ok: bool) -> str:
    lines = [f"check {c['name']} range {c['range']}: {c['status']}"
             + (f" ({c['detail']})" if "detail" in c else "") for c in checks]
    return _lines_text(lines + [f"result: {'pass' if ok else 'fail'}"])


VERIFY_FORMATS = {
    "plain": _verify_plain,
    "csv": lambda cfg, checks, values, ok: _csv_text(
        [["check", "range", "status"]]
        + [[c["name"], c["range"], c["status"]] for c in checks]
    ),
    "json": lambda cfg, checks, values, ok: _json_text(cfg.limit, values, "all", checks),
}


def cmd_verify(cfg: RunConfig, _args: argparse.Namespace) -> int:
    checks, values = _verify_checks(cfg)
    ok = all(c["status"] == "pass" for c in checks)
    _emit(cfg, VERIFY_FORMATS, checks, values, ok)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _render_tiling(tiles) -> str:
    return "".join(f"[{t.value}]" for t in tiles) if tiles else "-"


def _render_set(positions) -> str:
    return "{" + ",".join(str(p) for p in sorted(positions)) + "}"


def _decorations_json(cfg: RunConfig, r: int, rows: list) -> str:
    values = [
        {"word": word, "independent_set": positions, "tiling": [t.value for t in tiles]}
        for word, positions, tiles in rows
    ]
    return _json_text(r, values, "enumeration", [], count=len(rows))


DECORATION_FORMATS = {
    "plain": lambda cfg, r, rows: _lines_text(
        [f"{word or '-'}  {_render_set(positions)}  {_render_tiling(tiles)}"
         for word, positions, tiles in rows] + [f"count {len(rows)}"]
    ),
    "csv": lambda cfg, r, rows: _csv_text(
        [["word", "independent_set", "tiling"]]
        + [[word or "-", " ".join(map(str, positions)), _render_tiling(tiles)]
           for word, positions, tiles in rows]
    ),
    "json": _decorations_json,
}


def cmd_decorations(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.r < 0:
        raise UsageError("r must be nonnegative")
    words = enumerate_decorations(args.r, cap=cfg.cap(fibonacci.DEFAULT_ENUMERATION_CAP))
    rows = [(str(w), sorted(word_to_independent_set(w)), word_to_tiling(w)) for w in words]
    return _emit(cfg, DECORATION_FORMATS, args.r, rows)


def _bivariate_csv(cfg: RunConfig, rows: list[list[int]]) -> str:
    width = max(len(row) for row in rows)
    header = ["n"] + [f"m={m}" for m in range(width)]
    body = [[n, *row] + [0] * (width - len(row)) for n, row in enumerate(rows)]
    return _csv_text([header] + body)


BIVARIATE_FORMATS = {
    "plain": lambda cfg, rows: "".join(
        f"{n}: " + " ".join(str(c) for c in row) + "\n" for n, row in enumerate(rows)
    ),
    "csv": _bivariate_csv,
    "json": lambda cfg, rows: _json_text(cfg.limit, rows, "symmetric", []),
}


def cmd_bivariate(cfg: RunConfig, _args: argparse.Namespace) -> int:
    rows = [list(row) for row in symfun.bivariate_gf(cfg.limit)]
    return _emit(cfg, BIVARIATE_FORMATS, rows)


def render_decorated(d: DecoratedPartition) -> str:
    """Plain rendering with ~ marking the overlined copy: 2~+2+1."""
    if not d.skeleton.blocks:
        return "(empty)"
    pieces = []
    for (part, mult), bit in zip(d.skeleton.blocks, d.decoration.bits):
        pieces.append(f"{part}~" if bit else str(part))
        pieces.extend([str(part)] * (mult - 1))
    return "+".join(pieces)


def _list_json(cfg: RunConfig, items: list[DecoratedPartition]) -> str:
    values = [
        {
            "blocks": [
                {"part": part, "multiplicity": mult, "overlined": bool(bit)}
                for (part, mult), bit in zip(d.skeleton.blocks, d.decoration.bits)
            ],
            "rendered": render_decorated(d),
        }
        for d in items
    ]
    return _json_text(cfg.limit, values, "bruteforce", [], count=len(items))


LIST_FORMATS = {
    "plain": lambda cfg, items: _lines_text(
        [render_decorated(d) for d in items] + [f"count {len(items)}"]
    ),
    "csv": lambda cfg, items: _csv_text(
        [["partition", "decoration"]]
        + [[render_decorated(d), str(d.decoration)] for d in items]
    ),
    "json": _list_json,
}


def cmd_list(cfg: RunConfig, _args: argparse.Namespace) -> int:
    cap = cfg.cap(bruteforce.DEFAULT_LISTING_CAP)
    return _emit(cfg, LIST_FORMATS, bruteforce.list_block_separated(cfg.limit, cap=cap))


# name -> (help, handler, renderers); a command accepts the formats it can render.
COMMANDS = {
    "seq": ("emit b(0..limit)", cmd_seq, SEQ_FORMATS),
    "table": ("emit p(n), p~(n), b(n) side by side", cmd_table, TABLE_FORMATS),
    "verify": ("run the cross-method and oracle checks", cmd_verify, VERIFY_FORMATS),
    "decorations": ("list decoration words of length r", cmd_decorations,
                    DECORATION_FORMATS),
    "bivariate": ("emit the triangle b(n, m)", cmd_bivariate, BIVARIATE_FORMATS),
    "list": ("list the block-separated overpartitions of n", cmd_list, LIST_FORMATS),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: parse with it, never edit it."""
    parser = argparse.ArgumentParser(
        prog="blocksep",
        description="Count block-separated overpartitions by independent methods.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, renderers) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--limit", help="top weight n (default 10)")
        p.add_argument("--method", help="one of " + ", ".join(METHOD_CHOICES))
        p.add_argument("--format", help="one of " + ", ".join(renderers))
        p.add_argument("--cap-enum", help="override brute-force enumeration caps")
        p.add_argument("--output", help="write to file instead of stdout")
    sub.choices["verify"].add_argument("--inject-fault", nargs="?", const="yes", metavar="yes/no",
                                       help="self-test: flip one coefficient, expect failure")
    sub.choices["decorations"].add_argument("r", type=int, help="number of blocks")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, handler, renderers = COMMANDS[args.command]
    try:
        return handler(_resolve_config(args, renderers), args)
    except (UsageError, CapExceededError, MemoryError) as exc:  # MemoryError: too big a limit
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_USAGE
    except symfun.SlotOverflowError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
