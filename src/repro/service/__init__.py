"""repro.service — the translation-as-a-service layer.

Everything before this package is a batch CLI: rules are learned, derived,
and executed in one process and thrown away.  This package turns the
pipeline into a long-lived serving system:

* :mod:`repro.service.protocol` — the newline-delimited JSON wire protocol;
* :mod:`repro.service.stats` — latency histograms and per-endpoint stats;
* :mod:`repro.service.server` — the asyncio TCP server (``repro serve``),
  which builds each (program, stage) once per ruleset generation: one
  cached table of compiled blocks, which concurrent first requests share;
* :mod:`repro.service.pool` — the pre-fork worker pool
  (``repro serve --workers N``): one listener, N processes, crash
  respawn, SIGTERM drain fan-out;
* :mod:`repro.service.loadgen` — the load-generation client
  (``repro loadgen``), which oracle-checks every ``run`` response and
  writes ``BENCH_service.json``; ``--sweep`` records the clients-vs-
  latency saturation curve.
"""

from repro.service.loadgen import (
    LoadgenOptions,
    check_loadgen_report,
    check_sweep_report,
    render_loadgen_report,
    render_sweep_report,
    run_loadgen,
    run_sweep,
)
from repro.service.pool import PoolConfig, PoolSupervisor, serve_pool
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError
from repro.service.server import (
    PoolContext,
    ServiceConfig,
    ServiceServer,
    TranslationService,
    serve,
)
from repro.service.stats import EndpointStats, LatencyHistogram

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "LatencyHistogram",
    "EndpointStats",
    "ServiceConfig",
    "PoolContext",
    "TranslationService",
    "ServiceServer",
    "serve",
    "PoolConfig",
    "PoolSupervisor",
    "serve_pool",
    "LoadgenOptions",
    "run_loadgen",
    "run_sweep",
    "render_loadgen_report",
    "render_sweep_report",
    "check_loadgen_report",
    "check_sweep_report",
]
