"""Spans around calls into blocksep's public functions, recorded from outside.

`Tracer.install` wraps each function in LAYER_FUNCTIONS and each series
kernel in KERNELS. A name imported into another module, or stored in a
module-level dict such as `cli.SERIES_METHODS`, is a separate reference
that patching the defining module would miss, so every reference held by
a blocksep module namespace or one of its module-level dicts is replaced.

A span is [name, start, end, parent index, request id], times from
time.perf_counter in seconds. Spans stay in memory; `layer_metrics` reduces
them to the per-layer metrics and `write_spans` writes them out once the
pass is over.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

ROOT = "cli.main"
SCAN = "trace.coeff_scan"

# (span name, module, attribute)
LAYER_FUNCTIONS = (
    ("transfer.matrix_product_gf", "transfer", "matrix_product_gf"),
    ("recurrence.euler_factorized_gf", "recurrence", "euler_factorized_gf"),
    ("recurrence.normalized_recurrence", "recurrence", "normalized_recurrence"),
    ("qseries.euler_inverse", "qseries", "euler_inverse"),
    ("symfun.elementary_symmetric_series", "symfun", "elementary_symmetric_series"),
    ("symfun.weighted_gf", "symfun", "weighted_gf"),
    ("symfun.bivariate_gf", "symfun", "bivariate_gf"),
    ("symfun.fibonacci_weighted_gf", "symfun", "fibonacci_weighted_gf"),
    ("bruteforce.count_block_separated", "bruteforce", "count_block_separated"),
    ("bruteforce.list_block_separated", "bruteforce", "list_block_separated"),
    ("bruteforce.count_bivariate_oracle", "bruteforce", "count_bivariate_oracle"),
    ("fibonacci.enumerate_decorations", "fibonacci", "enumerate_decorations"),
)

# kernel name -> TruncatedSeries methods it covers
KERNELS = {
    "shift": ("shift",),
    "mul_s_block": ("mul_s_block",),
    "mul_geometric_inverse": ("mul_geometric_inverse",),
    "add": ("__add__",),
    "sub": ("__sub__",),
    "mul": ("__mul__", "__rmul__"),
}

# Functions whose results carry the series the routes produce; their largest
# coefficient is the input property a packed representation has to respect.
SERIES_RESULTS = {
    "transfer.matrix_product_gf",
    "recurrence.euler_factorized_gf",
    "recurrence.normalized_recurrence",
    "qseries.euler_inverse",
    "symfun.elementary_symmetric_series",
    "symfun.weighted_gf",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1
        self.objects_listed = 0
        self.max_coeff_bits = 0
        self.patched_sites: dict[str, int] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            # A kernel calling itself (__rmul__ -> __mul__) is one span.
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if name in SERIES_RESULTS:
                self._note_series(result)
            elif name == "bruteforce.list_block_separated":
                self.objects_listed += len(result)
            return result

        return span

    def _note_series(self, result) -> None:
        # The scan gets a span of its own, so that it is not counted in the
        # self time of the function that made the call.
        record = [SCAN, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, self.request]
        self.spans.append(record)
        if isinstance(result, list):
            series = result
        elif hasattr(result, "f0"):
            series = [result.f0, result.f1]
        else:
            series = [result]
        for s in series:
            c = s.coeffs
            self.max_coeff_bits = max(
                self.max_coeff_bits, max(c).bit_length(), min(c).bit_length()
            )
        record[2] = time.perf_counter()

    def install(self) -> None:
        """Replace every reference to the traced functions with its span wrapper."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "blocksep" or k.startswith("blocksep.")]
        for name, module, attr in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"blocksep.{module}"], attr)
            wrapper = self.wrap(name, original)
            self.patched_sites[name] = _replace_everywhere(modules, original, wrapper)
        series_type = sys.modules["blocksep.qseries"].TruncatedSeries
        for kernel, methods in KERNELS.items():
            for method in methods:
                wrapper = self.wrap(f"qseries.kernel.{kernel}", getattr(series_type, method))
                setattr(series_type, method, wrapper)

    def root(self, fn):
        """The request span: wraps the CLI entry point the benchmark calls."""
        return self.wrap(ROOT, fn)


def _replace_everywhere(modules, original, wrapper) -> int:
    sites = 0
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                sites += 1
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is original:
                        value[k] = wrapper
                        sites += 1
    return sites


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; names match BENCHMARK.json."""
    spans = tracer.spans
    own = self_times(spans)
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for span, t_self in zip(spans, own):
        name = span[0]
        total[name] += span[2] - span[1]
        self_s[name] += t_self
        calls[name] += 1
    # Euler product: euler_factorized_gf net of the normalized scan, of
    # euler_inverse and of the tracer's own coefficient scans.
    netted = ("recurrence.normalized_recurrence", "qseries.euler_inverse", SCAN)
    euler_product = total["recurrence.euler_factorized_gf"]
    for name, start, end, parent, _ in spans:
        if name in netted and parent >= 0 \
                and spans[parent][0] == "recurrence.euler_factorized_gf":
            euler_product -= end - start
    request_self = [t for span, t in zip(spans, own) if span[0] == ROOT]
    out = {
        "cli.self_ms": 1000 * statistics.median(request_self) if request_self else 0.0,
        "transfer.matrix_product_gf.s": total["transfer.matrix_product_gf"],
        "recurrence.normalized_recurrence.s": total["recurrence.normalized_recurrence"],
        "recurrence.euler_product.s": euler_product,
        "qseries.euler_inverse.s": total["qseries.euler_inverse"],
        "qseries.euler_inverse.calls": calls["qseries.euler_inverse"],
    }
    for kernel in KERNELS:
        out[f"qseries.kernel.{kernel}.calls"] = calls[f"qseries.kernel.{kernel}"]
        out[f"qseries.kernel.{kernel}.s"] = total[f"qseries.kernel.{kernel}"]
    out.update({
        "qseries.max_coeff_bits": tracer.max_coeff_bits,
        "symfun.elementary_symmetric_series.s": total["symfun.elementary_symmetric_series"],
        "symfun.elementary_symmetric_series.calls": calls["symfun.elementary_symmetric_series"],
        "symfun.weighted_gf.self_s": self_s["symfun.weighted_gf"],
        "symfun.bivariate_gf.self_s": self_s["symfun.bivariate_gf"],
        "symfun.fibonacci_weighted_gf.s": total["symfun.fibonacci_weighted_gf"],
        "bruteforce.count_block_separated.s": total["bruteforce.count_block_separated"],
        "bruteforce.count_block_separated.calls": calls["bruteforce.count_block_separated"],
        "bruteforce.list_block_separated.s": total["bruteforce.list_block_separated"],
        "bruteforce.count_bivariate_oracle.s": total["bruteforce.count_bivariate_oracle"],
        "bruteforce.objects_listed": tracer.objects_listed,
        "fibonacci.enumerate_decorations.s": total["fibonacci.enumerate_decorations"],
        "fibonacci.enumerate_decorations.calls": calls["fibonacci.enumerate_decorations"],
    })
    return out


def write_spans(spans: list[list], path: str) -> None:
    """One JSON array per line: [name, start_s, end_s, parent line or -1, request]."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in spans)
