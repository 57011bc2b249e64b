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
import itertools
import json
import os
import shutil
import sys
from collections.abc import Callable, Collection, Iterable, Sequence
from dataclasses import dataclass
from typing import TypeVar

from . import bruteforce, fibonacci, recurrence, symfun, transfer
from .bruteforce import DecoratedPartition
from .fibonacci import (CapExceededError, enumerate_decorations, word_to_independent_set,
                        word_to_tiling)
from .qseries import SlotOverflowError, euler_inverse, overpartition_numbers

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

T = TypeVar("T")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """The resolved settings; one a command does not read keeps its default."""

    limit: int = 10
    method: str = "recurrence"
    format: str = "plain"
    cap_enum: int | None = None
    output: str | None = None  # None or empty text: stdout
    inject_fault: bool = False

    def cap(self, default: int) -> int:
        """An enumeration cap or oracle window: --cap-enum if given, else default."""
        return default if self.cap_enum is None else self.cap_enum


def _count(text: str) -> int:
    """A nonnegative int small enough to size a list with, written in ASCII digits alone."""
    if text.isascii() and text.isdigit() and (value := int(text)) < sys.maxsize:
        return value
    raise ValueError(f"must be an integer in 0..{sys.maxsize - 1}; got {text!r}")


def _word(kind: str, words: Collection[str], text: str, fold: Callable[[str], str] = str) -> str:
    if (word := fold(text)) not in words:
        raise ValueError(f"must be {kind}, one of {', '.join(words)}; got {text!r}")
    return word


def _switch(text: str) -> bool:
    return _word("yes or no", TRUE_WORDS + FALSE_WORDS, text,
                 lambda t: t.strip().lower()) in TRUE_WORDS


def _checked(source: str, parse: Callable[[str], T], text: str) -> T:
    """parse(text); a bad value is a UsageError naming where it came from."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"{source} {exc}") from None


# name -> (parse of the text its flag or BLOCKSEP_ twin gives, the flag's argparse keywords)
SETTINGS: dict[str, tuple[Callable[[str], object] | None, dict[str, str]]] = {
    "limit": (_count, {"help": "top weight n (default 10)"}),
    "method": (functools.partial(_word, "a method", METHOD_CHOICES),
               {"help": "one of " + ", ".join(METHOD_CHOICES)}),
    "format": (None, {}),  # both come from the command's renderers
    "cap_enum": (_count, {"help": "override brute-force enumeration caps"}),
    "output": (str, {"help": "write to file instead of stdout"}),
    "inject_fault": (_switch, {"nargs": "?", "const": "yes", "metavar": "yes/no",
                               "help": "self-test: flip one coefficient, expect failure"}),
}


def _resolve_config(args: argparse.Namespace, formats: dict, settings: tuple) -> RunConfig:
    """Each of settings from its flag, else its BLOCKSEP_ twin (same text, same parse),
    else its default. The choices of --format are the keys of formats."""
    given, resolved = vars(args), {}
    for name in settings:
        parse = SETTINGS[name][0] or functools.partial(_word, f"a {args.command} format", formats)
        from_flag = given[name] is not None
        source = "--" + name.replace("_", "-") if from_flag else ENV_PREFIX + name.upper()
        text = given[name] if from_flag else os.environ.get(source)
        if text is not None:
            resolved[name] = _checked(source, parse, text)
    return RunConfig(**resolved)


def _emit(cfg: RunConfig, renderers: dict, *data) -> int:
    """Render data in cfg's format; replace a regular --output whole, never partly.

    A target that is not a regular file (a FIFO, /dev/stdout) is written as
    given, since a rename would replace it; a regular file is replaced at its
    symlink-resolved path, so a link stays a link, and keeps its mode bits.
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
        target = os.path.realpath(cfg.output)
        tmp = f"{target}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            with contextlib.suppress(FileNotFoundError):  # a new file keeps the umask's mode
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
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


def _csv_text(rows: Iterable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


# indent selects the pure-Python encoder, which yields a few bytes per piece
_JSON_ENCODER = json.JSONEncoder(indent=2)
_JSON_BATCH = 4096


def _json_text(n: int, values: object, method: str, checks: list[dict], **extra) -> str:
    """json.dumps(doc, indent=2) and a newline. The encoder's pieces are joined a
    batch at a time, so the pieces of the whole text are never listed at once."""
    doc = {"n": n, "values": values, "method": method, "checks": checks}
    doc.update(extra)
    pieces, batches = _JSON_ENCODER.iterencode(doc), []
    while batch := list(itertools.islice(pieces, _JSON_BATCH)):  # [] only once exhausted
        batches.append("".join(batch))
    batches.append("\n")
    return "".join(batches)


def _lines_text(lines: Iterable[str]) -> str:
    return "\n".join(lines) + "\n"


def _sequence(cfg: RunConfig, method: str) -> list[int]:
    """b(0..limit) by one route."""
    if method != "bruteforce":
        return list(SERIES_METHODS[method](cfg.limit).coeffs)
    return bruteforce.count_block_separated(cfg.limit, cap=cfg.cap(bruteforce.DEFAULT_WEIGHT_CAP))


def _first_difference(named: dict[str, Sequence], top: int) -> int | None:
    """The first n in 0..top at which the named sequences are not all equal, or None."""
    return next((n for n in range(top + 1) if len({s[n] for s in named.values()}) > 1), None)


def _at(named: dict[str, Sequence], n: int) -> dict:
    return {name: s[n] for name, s in named.items()}


SEQ_FORMATS = {
    "plain": lambda cfg, values, checks: " ".join(str(v) for v in values) + "\n",
    "csv": lambda cfg, values, checks: _csv_text(
        itertools.chain([["n", "b"]], enumerate(values))),
    "json": lambda cfg, values, checks: _json_text(cfg.limit, values, cfg.method, checks),
    "bfile": lambda cfg, values, checks: "".join(f"{n} {v}\n" for n, v in enumerate(values)),
}


def _checked_sequence(cfg: RunConfig) -> tuple[list[int], list[dict]] | None:
    """b(0..limit) by cfg.method and its checks; None once `all` reports a disagreement."""
    if cfg.method != "all":
        return _sequence(cfg, cfg.method), []
    methods = list(SERIES_METHODS)
    if cfg.limit <= cfg.cap(ORACLE_WINDOW):
        methods.append("bruteforce")
    else:  # the cross-check is narrower than asked for; say so
        sys.stderr.write(f"note: --method all leaves out bruteforce beyond its window "
                         f"0..{cfg.cap(ORACLE_WINDOW)}; raise --cap-enum to include it\n")
    results = {m: _sequence(cfg, m) for m in methods}
    if (n := _first_difference(results, cfg.limit)) is not None:
        sys.stderr.write(f"method disagreement at n={n}: {_at(results, n)}\n")
        return None
    return results["matrix"], [{"name": "cross_method_equality", "range": f"0..{cfg.limit}",
                                "methods": sorted(results), "status": "pass"}]


def cmd_seq(cfg: RunConfig, _args: argparse.Namespace) -> int:
    if (found := _checked_sequence(cfg)) is None:
        return EXIT_CHECK_FAILED
    return _emit(cfg, SEQ_FORMATS, *found)


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
    if (found := _checked_sequence(cfg)) is None:
        return EXIT_CHECK_FAILED
    rows = {"p": list(euler_inverse(cfg.limit).coeffs),
            "pbar": overpartition_numbers(cfg.limit), "b": found[0]}
    return _emit(cfg, TABLE_FORMATS, rows)


def _verify_checks(cfg: RunConfig) -> tuple[list[dict], list[int]]:
    n = cfg.limit

    def window(default: int | None) -> int:  # None: the whole limit
        return n if default is None else min(n, cfg.cap(default))

    # Each rule returns the failure of its check at weight k, or None. Rules read the
    # routes and counting oracles computed below; the listing is one call per k.
    def cross_method(k: int) -> str | None:
        return f"first difference at n={k}: {_at(results, k)}" if k == first else None

    def weighted_count(k: int) -> str | None:
        bad = counts[k] != values[k]
        return f"n={k}: bruteforce={counts[k]} series={values[k]}" if bad else None

    def explicit_listing(k: int) -> str | None:
        listed = len(bruteforce.list_block_separated(k, cap=k))
        return f"n={k}: listing={listed} series={values[k]}" if listed != values[k] else None

    def bivariate(k: int) -> str | None:
        row, oracle_row = triangle[k], oracle_rows[k]
        # whole rows: an oracle entry past the triangle's width is a mismatch
        if row != tuple(oracle_row.get(m, 0) for m in range(max(oracle_row, default=0) + 1)):
            return f"n={k}: triangle row {row} != oracle {oracle_row}"
        if sum(row) != values[k]:
            return f"n={k}: row sum {sum(row)} != b({k})={values[k]}"
        return f"n={k}: column 0 entry {row[0]} != p({k})={p[k]}" if row[0] != p[k] else None

    def sandwich(k: int) -> str | None:
        if not p[k] <= values[k] <= pbar[k]:
            return f"n={k}: sandwich violated"
        return f"n={k}: lower bound not strict" if k >= 1 and not p[k] < values[k] else None

    results = {m: _sequence(cfg, m) for m in SERIES_METHODS}
    if cfg.inject_fault:
        # self-test of the detector: flip one coefficient and watch it fail
        results["matrix"][min(1, n)] += 1
    values = results["recurrence"]
    first = _first_difference(results, n)
    p = euler_inverse(n).coeffs
    pbar = overpartition_numbers(n)
    top = window(ORACLE_WINDOW)
    triangle = symfun.bivariate_gf(top)
    counts = bruteforce.count_block_separated(top, cap=top)
    oracle_rows = bruteforce.count_bivariate_oracle(top, cap=top)

    table = [("cross_method_equality", None, cross_method),
             ("oracle_weighted_count", ORACLE_WINDOW, weighted_count),
             ("oracle_explicit_listing", LISTING_WINDOW, explicit_listing),
             ("bivariate_oracle", ORACLE_WINDOW, bivariate),
             ("sandwich", None, sandwich)]
    checks = []
    for name, default, rule in table:
        hi = window(default)
        if default is not None and hi < min(n, default):  # a narrowed oracle still passes; say so
            sys.stderr.write(f"note: --cap-enum {cfg.cap_enum} narrows {name} "
                             f"to 0..{hi} from 0..{min(n, default)}\n")
        detail = next(filter(None, map(rule, range(hi + 1))), None)
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


def _decorations_json(cfg: RunConfig, r: int, rows: Iterable, count: int) -> str:
    values = [
        {"word": word, "independent_set": positions, "tiling": [t.value for t in tiles]}
        for word, positions, tiles in rows
    ]
    return _json_text(r, values, "enumeration", [], count=count)


# each renderer reads rows, a generator, once; count is its length
DECORATION_FORMATS = {
    "plain": lambda cfg, r, rows, count: _lines_text(itertools.chain(
        (f"{word or '-'}  {_render_set(positions)}  {_render_tiling(tiles)}"
         for word, positions, tiles in rows), [f"count {count}"]
    )),
    "csv": lambda cfg, r, rows, count: _csv_text(itertools.chain(
        [["word", "independent_set", "tiling"]],
        ([word or "-", " ".join(map(str, positions)), _render_tiling(tiles)]
         for word, positions, tiles in rows)
    )),
    "json": _decorations_json,
}


def cmd_decorations(cfg: RunConfig, args: argparse.Namespace) -> int:
    r = _checked("r", _count, args.r)
    words = enumerate_decorations(r, cap=cfg.cap(fibonacci.DEFAULT_ENUMERATION_CAP))
    rows = ((str(w), sorted(word_to_independent_set(w)), word_to_tiling(w)) for w in words)
    return _emit(cfg, DECORATION_FORMATS, r, rows, len(words))


def _bivariate_csv(cfg: RunConfig, rows: tuple[tuple[int, ...], ...]) -> str:
    width = max(len(row) for row in rows)
    header = ["n"] + [f"m={m}" for m in range(width)]
    body = ([n, *row] + [0] * (width - len(row)) for n, row in enumerate(rows))
    return _csv_text(itertools.chain([header], body))


BIVARIATE_FORMATS = {
    "plain": lambda cfg, rows: "".join(
        f"{n}: " + " ".join(str(c) for c in row) + "\n" for n, row in enumerate(rows)
    ),
    "csv": _bivariate_csv,
    "json": lambda cfg, rows: _json_text(cfg.limit, rows, "recurrence", []),
}


def cmd_bivariate(cfg: RunConfig, _args: argparse.Namespace) -> int:
    """The recurrence route's rows, after rows 0..ORACLE_WINDOW match the e_r triangle's."""
    top = min(cfg.limit, ORACLE_WINDOW)
    rows, e_rows = recurrence.euler_factorized_triangle(cfg.limit), symfun.bivariate_gf(top)
    if (n := _first_difference({"recurrence": rows, "symmetric": e_rows}, top)) is not None:
        sys.stderr.write(f"triangle disagreement at n={n}: "
                         f"recurrence {rows[n]} != symmetric {e_rows[n]}\n")
        return EXIT_CHECK_FAILED
    return _emit(cfg, BIVARIATE_FORMATS, rows)


def _list_json(cfg: RunConfig, items: list[DecoratedPartition]) -> str:
    values = [
        {
            "blocks": [
                {"part": part, "multiplicity": mult, "overlined": bool(bit)}
                for (part, mult), bit in zip(d.skeleton.blocks, d.decoration.bits)
            ],
            "rendered": str(d),
        }
        for d in items
    ]
    return _json_text(cfg.limit, values, "bruteforce", [], count=len(items))


LIST_FORMATS = {
    "plain": lambda cfg, items: _lines_text(itertools.chain(
        map(str, items), [f"count {len(items)}"]
    )),
    "csv": lambda cfg, items: _csv_text(itertools.chain(
        [["partition", "decoration"]],
        ([str(d), str(d.decoration)] for d in items)
    )),
    "json": _list_json,
}


def cmd_list(cfg: RunConfig, _args: argparse.Namespace) -> int:
    cap = cfg.cap(bruteforce.DEFAULT_LISTING_CAP)
    return _emit(cfg, LIST_FORMATS, bruteforce.list_block_separated(cfg.limit, cap=cap))


# name -> (help, handler, renderers, the settings it reads, in the order they resolve)
COMMANDS = {
    "seq": ("emit b(0..limit)", cmd_seq, SEQ_FORMATS,
            ("limit", "method", "format", "cap_enum", "output")),
    "table": ("emit p(n), p~(n), b(n) side by side", cmd_table, TABLE_FORMATS,
              ("limit", "method", "format", "cap_enum", "output")),
    "verify": ("run the cross-method and oracle checks", cmd_verify, VERIFY_FORMATS,
               ("limit", "format", "cap_enum", "output", "inject_fault")),
    "decorations": ("list decoration words of length r", cmd_decorations,
                    DECORATION_FORMATS, ("format", "cap_enum", "output")),
    "bivariate": ("emit the triangle b(n, m)", cmd_bivariate, BIVARIATE_FORMATS,
                  ("limit", "format", "output")),
    "list": ("list the block-separated overpartitions of n", cmd_list, LIST_FORMATS,
             ("limit", "format", "cap_enum", "output")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: parse with it, never edit it."""
    parser = argparse.ArgumentParser(
        prog="blocksep",
        description="Count block-separated overpartitions by independent methods.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, renderers, settings) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(usage_error=p.error)
        if name == "decorations":  # sized by r, not by a --limit
            p.add_argument("r", help="number of blocks")
        for setting in settings:
            p.add_argument("--" + setting.replace("_", "-"),
                           **(SETTINGS[setting][1] or {"help": "one of " + ", ".join(renderers)}))
    return parser


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # parse_args would show the top-level usage, not the command's flags
        # the top-level parser takes no flags: each token before the command is its leftover
        early = (sys.argv[1:] if argv is None else argv).index(args.command)
        (build_parser().error if early else args.usage_error)(
            f"unrecognized arguments: {' '.join(unknown[:early] or unknown)}")
    _, handler, renderers, settings = COMMANDS[args.command]
    try:
        return handler(_resolve_config(args, renderers, settings), args)
    except CapExceededError as exc:  # the library says "raise the cap"; here that is a flag
        sys.stderr.write(f"error: {str(exc).partition(';')[0]}; raise --cap-enum if you mean it\n")
        return EXIT_USAGE
    except (UsageError, MemoryError) as exc:  # MemoryError: too big a limit
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_USAGE
    except SlotOverflowError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
