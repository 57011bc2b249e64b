"""Command-line front end.

Subcommands: seq, table, verify, decorations, bivariate, list. Every flag
has an environment-variable twin prefixed BLOCKSEP_ (flags win). Exit
status is 0 only when every requested computation and check succeeded;
semantic usage problems and failures to write --output or stdout exit 2,
failed verifications, disagreeing routes and a route's failed decode check exit 1.
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
from typing import NamedTuple, TextIO, TypeVar

from . import bruteforce, fibonacci, recurrence, symfun, transfer
from .fibonacci import (CapExceededError, DecorationWord, enumerate_decorations,
                        word_to_independent_set, word_to_tiling)
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

T = TypeVar("T")


class UsageError(Exception):
    pass


class Disagreement(Exception):
    """Two routes gave different values; main reports it as a failed check."""


class RunConfig(NamedTuple):
    """The resolved settings; one a command does not read keeps its default."""

    limit: int = 10
    method: str = "recurrence"
    format: str = "plain"
    cap_enum: int | None = None
    output: str | None = None  # None or empty text: stdout

    def cap(self, default: int) -> int:
        """An enumeration cap or oracle window: --cap-enum if given, else default."""
        return default if self.cap_enum is None else self.cap_enum


def _count(text: str) -> int:
    """A nonnegative int small enough to size a list with, written in ASCII digits alone."""
    if text.isascii() and text.isdigit() and (value := int(text)) < sys.maxsize:
        return value
    raise ValueError(f"must be an integer in 0..{sys.maxsize - 1}; got {text!r}")


def _word(kind: str, words: Collection[str], text: str) -> str:
    if text not in words:
        raise ValueError(f"must be {kind}, one of {', '.join(words)}; got {text!r}")
    return text


def _checked(source: str, parse: Callable[[str], T], text: str) -> T:
    """parse(text); a bad value is a UsageError naming where it came from."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"{source} {exc}") from None


# name -> (parse of the text its flag or BLOCKSEP_ twin gives, the flag's help)
SETTINGS: dict[str, tuple[Callable[[str], object] | None, str | None]] = {
    "limit": (_count, "top weight n (default 10)"),
    "method": (functools.partial(_word, "a method", METHOD_CHOICES),
               "one of " + ", ".join(METHOD_CHOICES)),
    "format": (None, None),  # both come from the command's renderers
    "cap_enum": (_count, "override brute-force enumeration caps"),
    "output": (str, "write to file instead of stdout"),
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
    """Render data in cfg's format; a failed render writes nothing, --output is replaced whole.

    A regular file is rendered into a temporary file renamed over its symlink-resolved
    path, so a link stays a link, and keeps its mode bits; stdout and other targets (a
    FIFO, /dev/stdout), which a rename would replace, get the text once rendering ends.
    """
    render = renderers[cfg.format]
    try:
        if not cfg.output or os.path.exists(cfg.output) and not os.path.isfile(cfg.output):
            buf = io.StringIO()
            render(buf, cfg, *data)
            with (open(cfg.output, "w", encoding="utf-8") if cfg.output
                  else contextlib.nullcontext(sys.stdout)) as fh:
                print(buf.getvalue(), end="", file=fh, flush=True)
            return EXIT_OK
        target = os.path.realpath(cfg.output)
        tmp = f"{target}.{os.getpid()}.tmp"
        fh = open(tmp, "x", encoding="utf-8")  # "x": a file already there is not this run's
        try:
            with fh:
                render(fh, cfg, *data)
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


def _write_csv(out: TextIO, rows: Iterable) -> None:
    csv.writer(out, lineterminator="\n").writerows(rows)


# indent selects the pure-Python encoder, which yields a few bytes per piece
_JSON_ENCODER = json.JSONEncoder(indent=2)
_JSON_BATCH = 4096


def _write_json(out: TextIO, n: int, values: object, method: str, checks: list[dict],
                **extra) -> None:
    """json.dump(doc, out, indent=2) and a newline. The encoder's pieces are joined and
    written a batch at a time, so the pieces of the whole text are never listed at once."""
    doc = {"n": n, "values": values, "method": method, "checks": checks}
    doc.update(extra)
    pieces = _JSON_ENCODER.iterencode(doc)
    while batch := list(itertools.islice(pieces, _JSON_BATCH)):  # [] only once exhausted
        out.write("".join(batch))
    out.write("\n")


def _sequence(cfg: RunConfig, method: str) -> Sequence[int]:
    """b(0..limit) by one route."""
    if method != "bruteforce":
        return SERIES_METHODS[method](cfg.limit).coeffs
    return bruteforce.count_block_separated(cfg.limit, cap=cfg.cap(bruteforce.DEFAULT_WEIGHT_CAP))


def _first_difference(named: dict[str, Sequence], top: int) -> int | None:
    """The first n in 0..top at which the named sequences are not all equal, or None."""
    return next((n for n in range(top + 1) if len({s[n] for s in named.values()}) > 1), None)


def _at(named: dict[str, Sequence], n: int) -> dict:
    return {name: s[n] for name, s in named.items()}


SEQ_FORMATS = {
    "plain": lambda out, cfg, values, checks: print(" ".join(str(v) for v in values), file=out),
    "csv": lambda out, cfg, values, checks: _write_csv(
        out, itertools.chain([["n", "b"]], enumerate(values))),
    "json": lambda out, cfg, values, checks: _write_json(
        out, cfg.limit, values, cfg.method, checks),
    "bfile": lambda out, cfg, values, checks: out.writelines(
        f"{n} {v}\n" for n, v in enumerate(values)),
}


def _checked_sequence(cfg: RunConfig) -> tuple[Sequence[int], list[dict]]:
    """b(0..limit) by cfg.method and its checks; Disagreement if `all` finds one."""
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
        raise Disagreement(f"method disagreement at n={n}: {_at(results, n)}")
    return results["matrix"], [{"name": "cross_method_equality", "range": f"0..{cfg.limit}",
                                "methods": sorted(results), "status": "pass"}]


def cmd_seq(cfg: RunConfig, _args: argparse.Namespace) -> int:
    return _emit(cfg, SEQ_FORMATS, *_checked_sequence(cfg))


def _table_plain(out: TextIO, cfg: RunConfig, rows: dict[str, Sequence[int]]) -> None:
    labels = {"p": "p(n)", "pbar": "p~(n)", "b": "b(n)"}
    table = [["n"] + [str(i) for i in range(cfg.limit + 1)]]
    table += [[labels[key]] + [str(v) for v in values] for key, values in rows.items()]
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    for row in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip(), file=out)


TABLE_FORMATS = {
    "plain": _table_plain,
    "csv": lambda out, cfg, rows: _write_csv(
        out, [["n", *range(cfg.limit + 1)], ["p", *rows["p"]], ["p~", *rows["pbar"]],
              ["b", *rows["b"]]]
    ),
    "json": lambda out, cfg, rows: _write_json(out, cfg.limit, rows, cfg.method, []),
}


def cmd_table(cfg: RunConfig, _args: argparse.Namespace) -> int:
    values, _checks = _checked_sequence(cfg)  # a disagreement fails before p and p~ are divided
    rows = {"p": list(euler_inverse(cfg.limit).coeffs),
            "pbar": overpartition_numbers(cfg.limit), "b": values}
    return _emit(cfg, TABLE_FORMATS, rows)


def _verify_checks(cfg: RunConfig) -> tuple[list[dict], Sequence[int]]:
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
             ("oracle_explicit_listing", bruteforce.DEFAULT_LISTING_CAP, explicit_listing),
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


def _verify_plain(out: TextIO, cfg: RunConfig, checks: list[dict], values: Sequence[int],
                  ok: bool) -> None:
    for c in checks:
        print(f"check {c['name']} range {c['range']}: {c['status']}"
              + (f" ({c['detail']})" if "detail" in c else ""), file=out)
    print(f"result: {'pass' if ok else 'fail'}", file=out)


VERIFY_FORMATS = {
    "plain": _verify_plain,
    "csv": lambda out, cfg, checks, values, ok: _write_csv(
        out, [["check", "range", "status", "detail"]]
        + [[c["name"], c["range"], c["status"], c.get("detail", "")] for c in checks]
    ),
    "json": lambda out, cfg, checks, values, ok: _write_json(
        out, cfg.limit, values, "all", checks),
}


def cmd_verify(cfg: RunConfig, _args: argparse.Namespace) -> int:
    checks, values = _verify_checks(cfg)
    ok = all(c["status"] == "pass" for c in checks)
    _emit(cfg, VERIFY_FORMATS, checks, values, ok)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _listing_formats(header: list[str], method: str, line: Callable, row: Callable,
                     obj: Callable) -> dict:
    """The renderers of a listing: one line per item, then `count N`; a csv header, then
    one row per item; or JSON with a count. Each takes (out, cfg, n, items), items a list."""
    return {
        "plain": lambda out, cfg, n, items: out.writelines(
            f"{text}\n" for text in itertools.chain(map(line, items), [f"count {len(items)}"])),
        "csv": lambda out, cfg, n, items: _write_csv(
            out, itertools.chain([header], map(row, items))),
        "json": lambda out, cfg, n, items: _write_json(
            out, n, list(map(obj, items)), method, [], count=len(items)),
    }


def _positions(w: DecorationWord) -> list[int]:
    return sorted(word_to_independent_set(w))


def _tiling_text(w: DecorationWord) -> str:
    return "".join(f"[{t.value}]" for t in word_to_tiling(w)) or "-"


DECORATION_FORMATS = _listing_formats(
    ["word", "independent_set", "tiling"], "enumeration",
    line=lambda w: "  ".join(
        [str(w) or "-", "{" + ",".join(map(str, _positions(w))) + "}", _tiling_text(w)]),
    row=lambda w: [str(w) or "-", " ".join(map(str, _positions(w))), _tiling_text(w)],
    obj=lambda w: {"word": str(w), "independent_set": _positions(w),
                   "tiling": [t.value for t in word_to_tiling(w)]},
)


def cmd_decorations(cfg: RunConfig, args: argparse.Namespace) -> int:
    r = _checked("r", _count, args.r)
    words = enumerate_decorations(r, cap=cfg.cap(fibonacci.DEFAULT_ENUMERATION_CAP))
    return _emit(cfg, DECORATION_FORMATS, r, words)


def _bivariate_csv(out: TextIO, cfg: RunConfig, rows: tuple[tuple[int, ...], ...]) -> None:
    width = max(len(row) for row in rows)
    header = ["n"] + [f"m={m}" for m in range(width)]
    body = ([n, *row] + [0] * (width - len(row)) for n, row in enumerate(rows))
    _write_csv(out, itertools.chain([header], body))


BIVARIATE_FORMATS = {
    "plain": lambda out, cfg, rows: out.writelines(
        f"{n}: " + " ".join(str(c) for c in row) + "\n" for n, row in enumerate(rows)
    ),
    "csv": _bivariate_csv,
    "json": lambda out, cfg, rows: _write_json(out, cfg.limit, rows, "recurrence", []),
}


def cmd_bivariate(cfg: RunConfig, _args: argparse.Namespace) -> int:
    """The recurrence route's rows, after rows 0..ORACLE_WINDOW match the e_r triangle's."""
    top = min(cfg.limit, ORACLE_WINDOW)
    rows, e_rows = recurrence.euler_factorized_triangle(cfg.limit), symfun.bivariate_gf(top)
    if (n := _first_difference({"recurrence": rows, "symmetric": e_rows}, top)) is not None:
        raise Disagreement(f"triangle disagreement at n={n}: "
                           f"recurrence {rows[n]} != symmetric {e_rows[n]}")
    return _emit(cfg, BIVARIATE_FORMATS, rows)


LIST_FORMATS = _listing_formats(
    ["partition", "decoration"], "bruteforce",
    line=str,
    row=lambda d: [str(d), str(d.decoration) or "-"],
    obj=lambda d: {"blocks": [{"part": part, "multiplicity": mult, "overlined": bool(bit)}
                              for (part, mult), bit in zip(d.skeleton.blocks, d.decoration.bits)],
                   "rendered": str(d)},
)


def cmd_list(cfg: RunConfig, _args: argparse.Namespace) -> int:
    cap = cfg.cap(bruteforce.DEFAULT_LISTING_CAP)
    items = bruteforce.list_block_separated(cfg.limit, cap=cap)
    return _emit(cfg, LIST_FORMATS, cfg.limit, items)


# name -> (help, handler, renderers, the settings it reads, in the order they resolve)
COMMANDS = {
    "seq": ("emit b(0..limit)", cmd_seq, SEQ_FORMATS,
            ("limit", "method", "format", "cap_enum", "output")),
    "table": ("emit p(n), p~(n), b(n) side by side", cmd_table, TABLE_FORMATS,
              ("limit", "method", "format", "cap_enum", "output")),
    "verify": ("run the cross-method and oracle checks", cmd_verify, VERIFY_FORMATS,
               ("limit", "format", "cap_enum", "output")),
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
                           help=SETTINGS[setting][1] or "one of " + ", ".join(renderers))
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
    except (SlotOverflowError, Disagreement) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
