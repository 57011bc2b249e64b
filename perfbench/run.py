"""blocksep benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload series-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src. The request list of the workload is generated from the seed (see
workloads.py) and run back to back through `blocksep.cli.main(argv)` in
one process, one request at a time (a closed loop with one client), with
stdout captured. Each pass over the list runs in a fresh worker process
(worker.py); passes repeat until --seconds is used up. Every output is
checked against reference values computed in untimed set-up by code
independent of the package (reference.py).

--trace 0 reports the end-to-end metrics:
    wall_s       median over passes of the time to run the whole list
    req_p50_ms   median over passes of the pass's median request latency
    req_p90_ms   median over passes of the pass's p90 request latency
    peak_rss_mb  median over passes of the worker's ru_maxrss
    setup_s      median over fresh interpreters, one before each pass, of
                 `import blocksep.cli` plus `build_parser()`
    ok_ratio     requests with exit 0 and a right output, over attempted
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (spans.py), plus trace.overhead_s, the traced
minus the untraced median wall_s. Every request is one root span
(cli.main) and each span's self time is its duration less its direct
children's, so the self times of a pass sum to its traced wall_s by
construction; time no layer claims is left in cli.self_ms.

Which per-layer metric should move which end-to-end metric, on which
workload:
    transfer.matrix_product_gf.s, recurrence.normalized_recurrence.s,
    recurrence.euler_product.s            -> wall_s on series-large
    qseries.euler_inverse.{s,calls}       -> wall_s on request-stream
    qseries.kernel.*.{s,calls}            -> wall_s on series-large; must not
                                             raise req_p50_ms on request-stream
    symfun.*                              -> wall_s on symfun-table; wall_s and
                                             req_p90_ms on request-stream; not
                                             series-large
    bruteforce.*, fibonacci.*             -> req_p50_ms on request-stream only
    cli.self_ms                           -> req_p50_ms on request-stream

The last line of stdout is the result object; the line before it holds
the run context (seed, Python version, CPU count, size ranges and every
request's command line). Both, with the per-pass figures, are also
written to perfbench/out/, with the spans of the last traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 9      # set-up timings per run at least; one is taken before each pass
MIN_PASSES = 3        # untraced passes of a --trace 0 run
MIN_TRACED = 2        # of each kind in a --trace 1 run
PASS_TIMEOUT_S = 120


def declared_metrics(traced: bool) -> list[dict]:
    """The metrics BENCHMARK.json declares for a traced or an untraced run."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if traced else "end_to_end"]


def find_source(root: str) -> str | None:
    src = os.path.join(root, "src")
    return src if os.path.isfile(os.path.join(src, "blocksep", "cli.py")) else None


def time_setup(src: str) -> float:
    """Wall time of a fresh interpreter that imports the CLI and builds its parser."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import blocksep.cli as c; c.build_parser()"],
        env=dict(os.environ, PYTHONPATH=src),
    )
    # wait() with a timeout polls in steps of up to 50 ms, which would round
    # the time up; a blocking wait with a watchdog does not.
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run exited with {proc.returncode}")
    return elapsed


def run_pass(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"), timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def run_workload(workload: str, seed: int, seconds: float, traced: bool, *,
                 src: str, tiny: bool = False, corrupt: tuple[str, int] | None = None,
                 out_dir: str | None = None) -> tuple[dict, dict]:
    """(result object, run context) of one run.

    `corrupt` = (table, index) makes that reference value wrong, for the
    self-test: every request that depends on it must then fail.
    """
    plan = workloads.build(workload, seed, tiny=tiny)
    requests = plan["requests"]
    refs = reference.reference_tables(requests)
    if corrupt:
        table, index = corrupt
        refs[table][index] += 1
    setup = []
    if not traced:
        time_setup(src)  # may compile bytecode; users pay that once, not per run

    spans_path = None
    if traced and out_dir:
        spans_path = os.path.join(out_dir, f"{workload}-seed{seed}.spans.jsonl")
    passes = {False: [], True: []}
    duration = {False: [], True: []}
    modes = [False, True] if traced else [False]
    minimum = MIN_TRACED if traced else MIN_PASSES
    start = time.perf_counter()
    while True:
        mode = modes[sum(len(p) for p in passes.values()) % len(modes)]
        elapsed = time.perf_counter() - start
        enough = all(len(passes[m]) >= minimum for m in modes)
        if enough and elapsed + statistics.median(duration[mode]) > seconds:
            break
        if not traced:
            # Set-up is timed between passes, so that its median samples the
            # whole run rather than the few seconds before the first pass.
            setup.append(time_setup(src))
        job = {"src": src, "requests": requests, "refs": refs, "trace": mode,
               "spans_path": spans_path if mode else None}
        t = time.perf_counter()
        passes[mode].append(run_pass(job))
        duration[mode].append(time.perf_counter() - t)

    while not traced and len(setup) < SETUP_STARTS:
        setup.append(time_setup(src))
    done = passes[False] + passes[True]
    attempted = sum(len(p["errors"]) for p in done)
    failed = sum(e is not None for p in done for e in p["errors"])
    walls = {m: [sum(p["latencies_s"]) for p in passes[m]] for m in modes}
    if traced:
        values = {
            name: statistics.median(p["layers"][name] for p in passes[True])
            for name in passes[True][0]["layers"]
        }
        values["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False]))
    else:
        deciles = [statistics.quantiles(p["latencies_s"], n=10, method="inclusive")
                   for p in passes[False]]
        values = {
            "wall_s": statistics.median(walls[False]),
            "req_p50_ms": 1000 * statistics.median(d[4] for d in deciles),
            "req_p90_ms": 1000 * statistics.median(d[8] for d in deciles),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in done) / 1024,
            "setup_s": statistics.median(setup),
            "ok_ratio": 1 - failed / attempted,
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared_metrics(traced)},
    }
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ranges": plan["ranges"],
        "requests_per_pass": len(requests),
        "requests": [" ".join(["blocksep", *argv]) for argv in requests],
        "passes": {"untraced": len(passes[False]), "traced": len(passes[True])},
        "pass_wall_s": {("traced" if m else "untraced"): walls[m] for m in modes},
        "setup_s": setup,
        "errors": sorted({e for p in done for e in p["errors"] if e})[:10],
    }
    if traced:
        context["patched_sites"] = passes[True][-1]["patched_sites"]
        context["spans"] = spans_path and os.path.relpath(spans_path, os.path.dirname(HERE))
    return result, context


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.path.dirname(HERE)
    src = find_source(root)
    if src is None:
        sys.stderr.write(f"error: no blocksep sources under {os.path.join(root, 'src')}\n")
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result, context = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), src=src, out_dir=out_dir)
    record = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"context": context, "result": result}, fh, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
