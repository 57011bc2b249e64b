"""Command-line front end.

Subcommands: seq, table, verify, decorations, bivariate, list. Every flag
has an environment-variable twin prefixed BLOCKSEP_ (flags win). Exit
status is 0 only when every requested computation and check succeeded;
semantic usage problems and failures to write --output exit 2, failed
verifications exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from collections.abc import Iterator
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
FORMAT_CHOICES = ("plain", "csv", "json", "bfile")

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
    fmt: str
    cap_enum: int | None
    output: str | None
    inject_fault: bool

    def cap(self, default: int) -> int:
        """An enumeration cap or oracle window: --cap-enum if given, else default."""
        return default if self.cap_enum is None else self.cap_enum


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _int_env(name: str) -> int | None:
    raw = _env(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ENV_PREFIX}{name} must be an integer, got {raw!r}")


def _bool_env(name: str) -> bool:
    raw = _env(name)
    word = "0" if raw is None else raw.strip().lower()
    if word not in TRUE_WORDS + FALSE_WORDS:
        raise UsageError(f"{ENV_PREFIX}{name} must be {'/'.join(TRUE_WORDS)} or "
                         f"{'/'.join(FALSE_WORDS)}, got {raw!r}")
    return word in TRUE_WORDS


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    limit = args.limit if args.limit is not None else _int_env("LIMIT")
    if limit is None:
        limit = 10
    if limit < 0:
        raise UsageError("--limit must be nonnegative")

    method = args.method or _env("METHOD") or "matrix"
    if method not in METHOD_CHOICES:
        raise UsageError(f"unknown method {method!r}; choose from {METHOD_CHOICES}")

    fmt = args.format or _env("FORMAT") or "plain"
    if fmt not in FORMAT_CHOICES:
        raise UsageError(f"unknown format {fmt!r}; choose from {FORMAT_CHOICES}")

    cap_enum = args.cap_enum if args.cap_enum is not None else _int_env("CAP_ENUM")
    if cap_enum is not None and cap_enum < 0:
        raise UsageError("--cap-enum must be nonnegative")

    output = args.output or _env("OUTPUT")
    inject = bool(getattr(args, "inject_fault", False)) or _bool_env("INJECT_FAULT")
    return RunConfig(limit, method, fmt, cap_enum, output, inject)


def _emit(cfg: RunConfig, renderers: dict, *data) -> int:
    """Render data in cfg's format; replace --output whole, never partly."""
    text = renderers[cfg.fmt](cfg, *data)
    if not cfg.output:
        sys.stdout.write(text)
        return EXIT_OK
    tmp = f"{cfg.output}.{os.getpid()}.tmp"
    try:
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, cfg.output)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    except OSError as exc:
        raise UsageError(f"cannot write {cfg.output}: {exc.strerror or exc}")
    return EXIT_OK


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksep",
        description="Count block-separated overpartitions by independent methods.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, renderers) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--limit", type=int, default=None, help="top weight n (default 10)")
        p.add_argument("--method", choices=METHOD_CHOICES, default=None)
        p.add_argument("--format", choices=FORMAT_CHOICES, default=None)
        p.add_argument("--cap-enum", type=int, default=None, dest="cap_enum",
                       help="override brute-force enumeration caps")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.set_defaults(func=handler, formats=tuple(renderers))
    sub.choices["verify"].add_argument(
        "--inject-fault", action="store_true", default=False, dest="inject_fault",
        help="self-test: flip one coefficient, expect failure",
    )
    sub.choices["decorations"].add_argument("r", type=int, help="number of blocks")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if cfg.fmt not in args.formats:
            raise UsageError(f"format {cfg.fmt!r} does not apply here; "
                             f"use one of {args.formats}")
        return args.func(cfg, args)
    except (UsageError, CapExceededError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
