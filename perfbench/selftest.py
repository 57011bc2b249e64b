"""Self-test of the benchmark, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

For each workload it shows that
- every metric of BENCHMARK.json is emitted, by name and with its unit,
  in the untraced and in the traced run;
- a deliberately wrong reference value makes ok_ratio drop below 1;
- the spans of the traced run nest under their request, and the
  functions imported by name into other modules (`cli.SERIES_METHODS`,
  `euler_inverse` in cli and recurrence, `enumerate_decorations` in cli
  and bruteforce) are traced at each call site.
It also shows that a single wrong request in a pass of request-stream
fails that request alone, and that on every workload one failed request
moves ok_ratio by more than its bound. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# (span name, parent span name): a call reached through a name imported into
# another module, which patching only the defining module would miss.
CALL_SITES = {
    "series-large": [
        ("transfer.matrix_product_gf", spans.ROOT),
        ("recurrence.euler_factorized_gf", spans.ROOT),
        ("qseries.euler_inverse", "recurrence.euler_factorized_gf"),
    ],
    "symfun-table": [
        ("qseries.euler_inverse", spans.ROOT),
        ("symfun.elementary_symmetric_series", "symfun.bivariate_gf"),
    ],
    "request-stream": [
        ("symfun.fibonacci_weighted_gf", spans.ROOT),
        ("fibonacci.enumerate_decorations", spans.ROOT),
        ("fibonacci.enumerate_decorations", "bruteforce.list_block_separated"),
        ("bruteforce.count_block_separated", spans.ROOT),
    ],
}


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{what}: metrics {sorted(set(got) ^ set(want))} or units differ")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            fail(f"{what}: {name} is not a number")
    print(f"ok   {what}: {len(got)} metrics, each with its unit")


def check_spans(path: str, workload: str) -> None:
    with open(path, encoding="utf-8") as fh:
        records = [dict(zip(("name", "start", "end", "parent", "request"), json.loads(line)))
                   for line in fh]
    for i, s in enumerate(records):
        if s["parent"] < 0:
            if s["name"] != spans.ROOT:
                fail(f"{workload}: span {i} ({s['name']}) has no parent request")
            continue
        parent = records[s["parent"]]
        if parent["request"] != s["request"]:
            fail(f"{workload}: span {i} and its parent belong to different requests")
        if not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            fail(f"{workload}: span {i} ({s['name']}) lies outside its parent")
    roots = {s["request"] for s in records if s["parent"] < 0}
    if roots != set(range(len(roots))):
        fail(f"{workload}: requests without a root span")
    edges = {(s["name"], records[s["parent"]]["name"]) for s in records if s["parent"] >= 0}
    for edge in CALL_SITES[workload]:
        if edge not in edges:
            fail(f"{workload}: no span {edge[0]} under {edge[1]}")
    print(f"ok   {workload}: {len(records)} spans nest under {len(roots)} requests; "
          f"{len(CALL_SITES[workload])} imported call sites traced")


def check_single_failure(src: str, bound: float) -> None:
    """One wrong request in a pass must move ok_ratio by more than its bound.

    F(r + 2) of the largest decoration count in request-stream is needed by
    that one request alone. At full size a single failing request is the
    smallest drop ok_ratio can show, so 1 / (requests per pass) has to stay
    above the bound on every workload.
    """
    result, context = run.run_workload("request-stream", 1, 0.1, False, src=src, tiny=True,
                                       corrupt=("fib", -1))
    per_pass = context["requests_per_pass"]
    passes = result["attempted"] // per_pass
    if result["failed"] != passes:
        fail(f"one wrong reference failed {result['failed']} requests in {passes} passes")
    print(f"ok   request-stream: one wrong reference fails one request of {per_pass}")
    for workload in workloads.WORKLOADS:
        drop = 1 / len(workloads.build(workload, 1)["requests"])
        if drop <= bound:
            fail(f"{workload}: one failed request moves ok_ratio by {drop:.4f}, "
                 f"not more than its bound {bound}")
        print(f"ok   {workload}: one failed request moves ok_ratio by {drop:.4f} "
              f"> bound {bound}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    src = run.find_source(ROOT)
    if src is None:
        fail("no blocksep sources under src/")
    out_dir = os.path.join(HERE, "out", "selftest")
    os.makedirs(out_dir, exist_ok=True)
    for workload in workloads.WORKLOADS:
        result, _ = run.run_workload(workload, 1, 0.1, False, src=src, tiny=True)
        check_metrics(result, bench["end_to_end"], f"{workload} untraced")
        if not result["correct"] or result["metrics"]["ok_ratio"]["value"] != 1:
            fail(f"{workload}: failures with right references")

        result, _ = run.run_workload(workload, 1, 0.1, False, src=src, tiny=True,
                                     corrupt=("b", 2))
        ratio = result["metrics"]["ok_ratio"]["value"]
        if result["correct"] or ratio >= 1:
            fail(f"{workload}: a wrong reference value went unnoticed")
        print(f"ok   {workload}: wrong reference gives ok_ratio {ratio:.3f}")

        result, context = run.run_workload(workload, 1, 0.1, True, src=src, tiny=True,
                                           out_dir=out_dir)
        check_metrics(result, bench["per_layer"], f"{workload} traced")
        check_spans(os.path.join(ROOT, context["spans"]), workload)
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}["ok_ratio"]
    check_single_failure(src, bound)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
