"""Request lists of the three workloads, generated from the seed alone.

A request is the argv of one `blocksep` command. The two large requests
of a workload take antithetic sizes c + d and c - d around a fixed
centre, and small sizes are drawn one from each of k equal slices of
their range, so that different seeds give different inputs but nearly
the same total work. No two requests of one command share a limit, so a
cache keyed on the limit cannot hit across requests of a pass.
"""

from __future__ import annotations

import random

WORKLOADS = ("series-large", "symfun-table", "request-stream")

# Request-stream mix: (command, method or None, count, lo, hi, formats).
# The counts give 104 requests, so that at least 10 lie beyond p90, and put
# about 45-50% of the traced wall time in the brute-force oracles (verify's
# oracle windows, seq all and seq bruteforce) and about 35% in symfun
# (table, bivariate, verify's symmetric route). list and decorations take
# every size their ranges allow; seq bruteforce is the costliest request per
# unit and is kept to four. Seq limits of the different methods lie in
# disjoint ranges. Formats go round-robin by size, largest limit first, so
# the largest request of each command always uses the first format listed:
# for list and decorations that is json, the most memory-hungry, which
# keeps peak RSS from depending on the seed.
STREAM_MIX = (
    ("verify", None, 11, 30, 200, ("json", "plain", "csv")),
    ("table", None, 20, 30, 150, ("json", "plain", "csv")),
    ("bivariate", None, 20, 30, 150, ("json", "plain", "csv")),
    ("seq", "all", 20, 4, 25, ("json", "plain", "csv", "bfile")),
    ("seq", "bruteforce", 4, 26, 34, ("json", "plain", "csv", "bfile")),
    ("list", None, 15, 2, 16, ("json", "plain", "csv")),
    ("decorations", None, 14, 1, 14, ("json", "plain", "csv")),
)
BRUTEFORCE_CAP = 34

# Centre and half-width of the large sizes: (series-large, symfun-table).
SERIES_CENTRE, SERIES_HALF = 2000, 50
TABLE_CENTRE, TABLE_HALF = 500, 15
# Sizes of the self-test, which runs every workload in well under a second.
TINY = {"series": (60, 5), "table": (40, 5), "stream_scale": 0.25}


def build(workload: str, seed: int, *, tiny: bool = False) -> dict:
    """{"requests": [argv, ...], "ranges": {...}} for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "series-large":
        centre, half = TINY["series"] if tiny else (SERIES_CENTRE, SERIES_HALF)
        d = rng.choice((1, -1)) * rng.randint(1, half)
        requests = [_seq("matrix", centre + d, "bfile"),
                    _seq("recurrence", centre - d, "bfile")]
        ranges = {"seq": [centre - half, centre + half]}
    elif workload == "symfun-table":
        centre, half = TINY["table"] if tiny else (TABLE_CENTRE, TABLE_HALF)
        d = rng.choice((1, -1)) * rng.randint(1, half)
        requests = [
            [command, "--limit", str(n), "--format", rng.choice(("plain", "csv", "json"))]
            for command, n in (("table", centre + d), ("bivariate", centre - d))
        ]
        ranges = {command: [centre - half, centre + half]
                  for command in ("table", "bivariate")}
    elif workload == "request-stream":
        requests, ranges = _stream(rng, TINY["stream_scale"] if tiny else 1.0)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(requests)
    return {"requests": requests, "ranges": ranges}


def _seq(method: str, n: int, fmt: str) -> list[str]:
    return ["seq", "--limit", str(n), "--method", method, "--format", fmt]


def _stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k distinct ints, one drawn from each of k contiguous slices of lo..hi.

    Where the slices cannot be equal the wider ones come first, so that when
    k is close to the number of values the top value is always drawn.
    """
    values = list(range(lo, hi + 1))
    if k > len(values):
        raise ValueError(f"cannot draw {k} distinct values from {lo}..{hi}")
    cuts = [-(-len(values) * i // k) for i in range(k + 1)]
    return [rng.choice(values[a:b]) for a, b in zip(cuts, cuts[1:])]


def _stream(rng: random.Random, scale: float) -> tuple[list[list[str]], dict]:
    requests, ranges = [], {}
    for command, method, count, lo, hi, allowed in STREAM_MIX:
        k = max(1, round(count * scale))
        if scale < 1:
            hi = lo + max(k - 1, (hi - lo) // 4)
        limits = sorted(_stratified(rng, lo, hi, k), reverse=True)
        fmts = [allowed[i % len(allowed)] for i in range(k)]
        ranges[f"{command} {method}" if method else command] = [lo, hi]
        for n, fmt in zip(limits, fmts):
            if command == "decorations":
                requests.append(["decorations", str(n), "--format", fmt])
            elif method == "bruteforce":
                requests.append(_seq("bruteforce", n, fmt)
                                + ["--cap-enum", str(BRUTEFORCE_CAP)])
            elif method == "all":
                requests.append(_seq("all", n, fmt))
            else:
                requests.append([command, "--limit", str(n), "--format", fmt])
    return requests, ranges
