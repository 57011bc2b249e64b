"""One pass of a workload: the request list, run in this process via cli.main.

Reads a job from stdin as JSON:
    {"src": dir holding the blocksep package, "requests": [argv, ...],
     "refs": reference tables, "trace": bool, "spans_path": path or null}
and writes one JSON object to stdout: per-request latencies and check
results, ru_maxrss, and with "trace" the per-layer metrics of the pass.

A fresh process per pass gives each pass its own peak RSS and keeps
anything a pass leaves behind in memory from reaching the next one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import spans  # noqa: E402


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from blocksep import cli

    tracer = None
    main = cli.main
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()
        main = tracer.root(cli.main)

    latencies, errors = [], []
    clock = time.perf_counter
    for i, argv in enumerate(job["requests"]):
        if tracer:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        rc, crash = None, None
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(argv))
        except (Exception, SystemExit) as exc:  # a crash is a failed request
            crash = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        if crash is None and rc != 0:
            crash = f"exit {rc}: {err.getvalue().strip()[:200]}"
        errors.append(crash or _check(argv, out.getvalue(), job["refs"]))

    result = {
        "latencies_s": latencies,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer)
        result["patched_sites"] = tracer.patched_sites
        if job.get("spans_path"):
            spans.write_spans(tracer.spans, job["spans_path"])
    return result


def _check(argv: list[str], out: str, refs: dict) -> str | None:
    try:
        return reference.check(argv, out, refs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
