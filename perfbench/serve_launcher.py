"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage (the benchmark spawns it with ``PYTHONPATH`` pointing at ``src``)::

    python3 perfbench/serve_launcher.py SPANS.json serve-args...

Installs the tracer before the server builds anything, serves exactly as
``python3 -m repro.cli serve serve-args...`` would, and when SIGTERM's
graceful drain returns writes the spans to ``SPANS.json``.  Only requests
whose id starts with ``m-`` (the measured phase) count: the tables reset
when the first of them arrives, and only their handler time is summed.
"""

from __future__ import annotations

import json
import sys
import time

import harness
from tracer import SERVER_TARGETS, SPAN_TARGETS, Tracer


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    from repro import cli
    from repro.service.server import TranslationService

    tracer = Tracer().install(SPAN_TARGETS + SERVER_TARGETS)
    original = TranslationService.handle_request
    handle = [0, 0.0]
    baseline: dict = {}

    async def handle_request(self, obj, timeout=None):
        ident = obj.get("id") if isinstance(obj, dict) else None
        measured = isinstance(ident, str) and ident.startswith("m-")
        if measured and not baseline:
            tracer.reset()
            baseline["memo"] = harness.memo_counters()
            baseline["trace"] = harness.trace_counters()
        started = time.perf_counter()
        try:
            return await original(self, obj, timeout)
        finally:
            if measured:
                handle[0] += 1
                handle[1] += time.perf_counter() - started

    tracer.patch(TranslationService, "handle_request", handle_request)
    try:
        code = cli.main(["serve", *serve_args])
    finally:
        tracer.uninstall()
    report = tracer.snapshot()
    report["handle"] = handle
    report["memo"] = harness.delta(harness.memo_counters(), baseline.get("memo", {}))
    report["trace_stats"] = harness.delta(harness.trace_counters(), baseline.get("trace", {}))
    with open(spans_path, "w") as out:
        json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
