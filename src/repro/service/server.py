"""The asyncio translation server (``repro serve``).

One process loads a frozen :class:`~repro.param.engine.SystemSetup` (rules
learned + derived once) and serves ``translate`` / ``run`` / ``coverage`` /
``stats`` requests from many concurrent TCP clients over the
newline-delimited JSON protocol of :mod:`repro.service.protocol`.

Structure::

    client conns --> per-connection reader --> bounded queue --> N workers
                      (malformed-request         |                 |
                       isolation,                backpressure      asyncio
                       drain refusal)            rejection         handlers

* **Robustness** — a malformed line gets an error response and the
  connection lives on; an oversized line closes only that connection; a
  full queue answers ``backpressure`` immediately instead of buffering
  without bound; every request runs under a timeout; SIGTERM/SIGINT drain
  queued requests before exiting 0.
* **CPU isolation** — translation, compilation, and guest execution run in
  the default thread executor, so the event loop keeps accepting and
  answering while blocks compile.
* **Sharing** — all requests share one single-flight code cache
  (:mod:`repro.service.codecache`) and look rules up straight from the
  frozen per-stage :class:`~repro.learning.ruleset.RuleSet`: a hot program
  is translated and compiled once, ever, per (program, stage).
* **Hot reload** — the serving ruleset lives in an immutable
  :class:`_Generation` (ruleset identity + per-stage configs + unit memo).
  Every request reads ``self._generation`` exactly once and carries that
  object through translate/compile/execute, so the ``reload`` admin op (or
  the ``--watch-interval`` store watcher) can load a new generation in the
  background and swap the attribute atomically: in-flight requests finish
  on the generation they started with (natural drain — the old generation
  is garbage-collected when its last request completes), new requests see
  the new version, and no request ever mixes rules from two versions.
  Code-cache keys include the ruleset digest, so a swapped version can
  never be served stale compiled blocks.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import os
import signal
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cache import BoundedMemo, stats_payload
from repro.dbt.compiler import (
    compile_block,
    compile_block_source,
    generate_block_source,
)
from repro.dbt.engine import CodeCacheEntry, DBTEngine
from repro.dbt.executor import BlockKernel
from repro.dbt.translator import BlockTranslator, TranslationConfig
from repro.errors import ExecutionError, ReproError
from repro.param.engine import STAGES, SystemSetup
from repro.service import protocol
from repro.service.codecache import SingleFlightCodeCache
from repro.service.diskcode import DiskCodeCache
from repro.service.protocol import ProtocolError
from repro.service.stats import EndpointStats


@dataclass
class ServiceConfig:
    """Tunables for one server process (one pool worker, or a solo server)."""

    host: str = "127.0.0.1"
    port: int = 9477
    #: default translation stage for requests that don't name one.
    stage: str = "condition"
    #: "quick" trains on the two-benchmark difftest training set (seconds of
    #: warm-up); "full" uses the full-suite rule set (minutes, best rules).
    training: str = "quick"
    cache_blocks: int = 4096
    #: queued (admitted, not yet running) requests before backpressure.
    max_queue: int = 64
    #: concurrent asyncio request handlers per process (``--handlers``; the
    #: OS-process fan-out is :class:`repro.service.pool.PoolConfig.workers`).
    handlers: int = 8
    request_timeout: float = 30.0
    #: per-run guest block execution bound (runaway protection).
    max_blocks: int = 500_000
    chaining: bool = True
    #: execution backend for ``run``/``coverage`` requests ("jit" or
    #: "trace").  The trace tier forms superblocks within one request's
    #: run; with a disk code cache their generated source is shared
    #: cross-process, content-addressed like blocks.
    backend: str = "jit"
    #: cross-process shared code cache directory; None disables the disk
    #: layer (generated source stays in-process only).  The pre-fork pool
    #: always sets this so sibling workers share compiled blocks.
    disk_code_dir: Optional[str] = None
    #: enable the test-only ``_sleep`` op (deterministic backpressure /
    #: timeout exercises); never enable on a real deployment.
    debug_ops: bool = False
    #: root of a :class:`repro.pipeline.store.RulesetStore`; when set and
    #: non-empty the server boots from its ``latest`` version instead of
    #: training at startup, and the ``reload`` op / watcher can hot-swap to
    #: newly published versions.  None keeps the legacy train-at-boot path.
    ruleset_store: Optional[str] = None
    #: seconds between ``latest``-pointer polls; 0 disables the watcher
    #: (reloads then happen only through the ``reload`` admin op).
    watch_interval: float = 0.0

    def __post_init__(self) -> None:
        """Reject values that would otherwise fail late or silently.

        Checked at construction, so a pool parent fails before it binds
        the listener or forks a worker.
        """
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.backend not in ("jit", "trace"):
            raise ValueError(f"backend must be 'jit' or 'trace', got {self.backend!r}")
        for name in ("handlers", "max_queue", "cache_blocks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.request_timeout > 0:
            raise ValueError(f"request_timeout must be > 0, got {self.request_timeout}")


@dataclass
class PoolContext:
    """A pool worker's identity, injected by :mod:`repro.service.pool`."""

    directory: str
    worker_index: int
    workers: int


def resolve_setup(config: ServiceConfig) -> SystemSetup:
    """The frozen SystemSetup for *config*'s training corpus.

    Factored out of :class:`TranslationService` so the pre-fork pool parent
    can build it once, before forking — workers then share it copy-on-write
    instead of re-learning rules N times.
    """
    if config.training == "full":
        from repro.experiments.common import full_suite_setup

        return full_suite_setup()
    from repro.difftest.oracle import training_setup

    return training_setup()


def resolve_ruleset(config: ServiceConfig, setup: Optional[SystemSetup] = None):
    """The :class:`ServingRuleset` this server should boot with.

    A configured store with a published version wins (no training at boot —
    the configs are reconstructed from the stored body); an empty or absent
    store falls back to the legacy train-at-boot setup, wrapped with a
    ``builtin:`` identity so stats/bench meta always carry a version.  Like
    :func:`resolve_setup`, this runs in the pool parent pre-fork so workers
    share the result copy-on-write.
    """
    if config.ruleset_store:
        from repro.pipeline.manifest import serving_ruleset_from_body
        from repro.pipeline.store import RulesetStore

        store = RulesetStore(config.ruleset_store)
        latest = store.latest_version()
        if latest is not None:
            loaded = store.load_version(latest)
            return serving_ruleset_from_body(
                loaded["body"], version=latest, digest=loaded["body_sha256"]
            )
    from repro.pipeline.manifest import serving_ruleset_from_setup

    if setup is None:
        setup = resolve_setup(config)
    return serving_ruleset_from_setup(setup, training=config.training)


class _Generation:
    """One immutable serving generation: ruleset identity + unit memo.

    All per-ruleset state lives here — the stage configs (through the
    ruleset) and the unit-context memo (contexts cache per-stage
    translators, which bind configs, so they must never outlive their
    generation).  Requests capture one generation at dispatch and use only
    it; the service swaps the current-generation attribute atomically.
    """

    __slots__ = ("ruleset", "units")

    def __init__(self, ruleset) -> None:
        self.ruleset = ruleset
        self.units = BoundedMemo(maxsize=256, register=False)

    def config_for(self, stage: str) -> TranslationConfig:
        return self.ruleset.config_for(stage)


class _UnitContext:
    """Per-program serving context: unit + block map + per-stage translators."""

    __slots__ = ("unit", "digest", "blockmap", "_translators", "_lock")

    def __init__(self, unit, digest: str) -> None:
        from repro.dbt.block import BlockMap

        self.unit = unit
        self.digest = digest
        self.blockmap = BlockMap(unit)
        self._translators: Dict[str, BlockTranslator] = {}
        self._lock = threading.Lock()

    def translator_for(self, stage: str, config: TranslationConfig) -> BlockTranslator:
        with self._lock:
            translator = self._translators.get(stage)
            if translator is None:
                translator = BlockTranslator(self.unit, self.blockmap, config)
                self._translators[stage] = translator
            return translator


class TranslationService:
    """Request handlers over one serving ruleset generation (transport-agnostic).

    ``setup`` keeps the legacy embedding path (tests pass a pre-built
    SystemSetup); ``ruleset`` injects a pre-resolved
    :class:`ServingRuleset` (the pool parent resolves once pre-fork).
    """

    def __init__(
        self,
        config: ServiceConfig,
        setup: Optional[SystemSetup] = None,
        ruleset=None,
    ) -> None:
        self.config = config
        if ruleset is None:
            ruleset = resolve_ruleset(config, setup=setup)
        self._generation = _Generation(ruleset)
        self.ruleset_store = None
        if config.ruleset_store:
            from repro.pipeline.store import RulesetStore

            self.ruleset_store = RulesetStore(config.ruleset_store)
        self._reload_lock = threading.Lock()
        self.ruleset_swaps = 0
        self._swap_history: list = [ruleset.version]
        self.disk_code: Optional[DiskCodeCache] = (
            DiskCodeCache(config.disk_code_dir)
            if config.disk_code_dir
            else None
        )
        self.code_cache = SingleFlightCodeCache(
            config.cache_blocks, disk=self.disk_code
        )
        self.endpoints = EndpointStats()
        #: set by :mod:`repro.service.pool` on workers; solo servers keep None.
        self.pool_context: Optional[PoolContext] = None
        self._counter_lock = threading.Lock()
        self.requests_total = 0
        self.error_counts: Dict[str, int] = {}
        self.started_monotonic = time.monotonic()
        #: transport-level stats provider, installed by :class:`ServiceServer`.
        self.server_stats: Optional[Callable[[], Dict[str, Any]]] = None
        self._handlers = {
            "ping": self._op_ping,
            "translate": self._op_translate,
            "run": self._op_run,
            "coverage": self._op_coverage,
            "stats": self._op_stats,
            "reload": self._op_reload,
            "_sleep": self._op_sleep,
        }

    # -- configuration and program resolution --------------------------------

    def uptime(self) -> float:
        return time.monotonic() - self.started_monotonic

    @property
    def ruleset(self):
        """The currently served :class:`ServingRuleset`."""
        return self._generation.ruleset

    def ruleset_version(self) -> str:
        return self._generation.ruleset.version

    def config_for(self, stage: str) -> TranslationConfig:
        """Current generation's config for *stage* (embedders, tests)."""
        return self._generation.config_for(stage)

    # -- hot reload ------------------------------------------------------------

    def reload_ruleset(self, version: Optional[str] = None) -> Dict[str, Any]:
        """Swap to a store version (default: ``latest``) without a restart.

        Blocking (call from an executor thread).  The new generation is
        fully loaded before the swap; the attribute assignment is atomic and
        in-flight requests drain on the generation they captured.  Raises
        :class:`~repro.errors.ReproError` on a missing/corrupt version —
        the serving generation is untouched on any failure.
        """
        if self.ruleset_store is None:
            raise ReproError("no ruleset store configured (--ruleset-store)")
        with self._reload_lock:
            target = version or self.ruleset_store.latest_version()
            if target is None:
                raise ReproError("ruleset store has no published versions")
            current = self._generation.ruleset
            if target == current.version:
                return {
                    "swapped": False,
                    "version": current.version,
                    "previous": current.version,
                    "digest": current.digest,
                    "swaps": self.ruleset_swaps,
                }
            from repro.pipeline.manifest import serving_ruleset_from_body

            loaded = self.ruleset_store.load_version(target)
            ruleset = serving_ruleset_from_body(
                loaded["body"], version=target, digest=loaded["body_sha256"]
            )
            self._generation = _Generation(ruleset)  # atomic swap; old gen drains out
            self.ruleset_swaps += 1
            self._swap_history.append(target)
            return {
                "swapped": True,
                "version": target,
                "previous": current.version,
                "digest": ruleset.digest,
                "swaps": self.ruleset_swaps,
            }

    def _stage_of(self, obj: Dict[str, Any]) -> str:
        stage = obj.get("stage", self.config.stage)
        if not isinstance(stage, str) or stage not in STAGES:
            raise ProtocolError(
                "bad-request", f"unknown stage {stage!r}; expected one of {STAGES}"
            )
        return stage

    def _build_context(self, kind: str, value) -> _UnitContext:
        """Executor-side unit resolution (assembly / benchmark compile)."""
        if kind == "benchmark":
            from repro.workloads import compiled_benchmark

            unit = compiled_benchmark(value).guest
            digest = f"bench:{value}"
        else:
            from repro.difftest.oracle import InvalidProgram, assemble_program

            try:
                unit = assemble_program(list(value))
            except InvalidProgram as exc:
                raise ProtocolError("bad-program", str(exc)) from exc
            digest = "prog:" + hashlib.sha256(
                "\n".join(value).encode("utf-8")
            ).hexdigest()
        return _UnitContext(unit, digest)

    async def _context(self, gen: _Generation, obj: Dict[str, Any]) -> _UnitContext:
        benchmark = obj.get("benchmark")
        program = obj.get("program")
        if (benchmark is None) == (program is None):
            raise ProtocolError(
                "bad-request", "exactly one of 'benchmark' or 'program' required"
            )
        if benchmark is not None:
            from repro.workloads import BENCHMARK_NAMES

            if benchmark not in BENCHMARK_NAMES:
                raise ProtocolError("bad-program", f"unknown benchmark {benchmark!r}")
            key: Tuple = ("benchmark", benchmark)
            kind, value = "benchmark", benchmark
        else:
            if not (
                isinstance(program, list)
                and program
                and all(isinstance(line, str) for line in program)
            ):
                raise ProtocolError(
                    "bad-request", "'program' must be a non-empty list of strings"
                )
            key = ("program", "\n".join(program))
            kind, value = "program", tuple(program)
        cached = gen.units.get(key, None)
        if cached is not None:
            return cached
        # Concurrent first requests may build the same context twice; the
        # memo is last-wins and contexts are interchangeable, so that is
        # only duplicated work — block compilation stays single-flight.
        loop = asyncio.get_running_loop()
        ctx = await loop.run_in_executor(None, self._build_context, kind, value)
        gen.units.put(key, ctx)
        return ctx

    # -- block compilation ----------------------------------------------------

    def _training_key(self, gen: _Generation) -> str:
        """Disk-code key component identifying corpus *and* ruleset version.

        The ruleset digest is mixed in so blocks compiled under one version
        can never be served after a hot swap to another — across processes
        too (two pool workers momentarily on different versions during a
        rolling reload must not share entries).
        """
        return f"{self.config.training}@{gen.ruleset.digest[:16]}"

    def _compile_entry(
        self, gen: _Generation, ctx: _UnitContext, stage: str, start: int
    ) -> CodeCacheEntry:
        config = gen.config_for(stage)
        translator = ctx.translator_for(stage, config)
        tb = translator.translate(ctx.blockmap.block_at(start))
        kernel = BlockKernel(tb)
        if self.disk_code is None:
            compiled = compile_block(tb, kernel.defs)
        else:
            compiled = self._compile_via_disk(gen, ctx, stage, start, tb, kernel)
        return CodeCacheEntry(tb=tb, kernel=kernel, compiled=compiled)

    def _compile_via_disk(self, gen, ctx, stage: str, start: int, tb, kernel):
        """Compile through the cross-process disk code cache.

        Warm path: hash-verified cached source from any pool worker is
        re-instantiated with a local ``compile()`` — no codegen, no
        compile-listener fire.  Cold path: one worker generates and
        publishes while the others wait (a wait timeout degrades to
        duplicated local codegen, never a stall or an error).  Runs in an
        executor thread, so the blocking file IO here is fine.
        """
        digest = self.disk_code.key(
            ctx.digest, stage, start, self._training_key(gen)
        )
        source = self.disk_code.get_or_build(
            digest, partial(generate_block_source, tb, kernel.defs)
        )
        return compile_block_source(tb, source, kernel.defs)

    async def _ensure_blocks(
        self, gen: _Generation, ctx: _UnitContext, stage: str
    ) -> Dict[int, CodeCacheEntry]:
        """All of the program's blocks translated+compiled (single-flight).

        The in-memory key carries the ruleset digest too: after a swap the
        new generation's blocks are distinct entries, and the old entries
        age out of the LRU instead of ever answering a new-version request.
        """
        entries: Dict[int, CodeCacheEntry] = {}
        for block in ctx.blockmap.blocks:
            key = (gen.ruleset.digest, ctx.digest, stage, block.start)
            entries[block.start] = await self.code_cache.get_or_compile(
                key, partial(self._compile_entry, gen, ctx, stage, block.start)
            )
        return entries

    def _execute(
        self,
        gen: _Generation,
        ctx: _UnitContext,
        stage: str,
        entries: Dict[int, CodeCacheEntry],
    ):
        """Executor-side guest run over pre-seeded shared code-cache entries."""
        backend = self.config.backend
        engine_kwargs = {}
        if backend == "trace" and self.disk_code is not None:
            from repro.service.diskcode import TraceSourceDiskAdapter

            engine_kwargs["trace_source_cache"] = TraceSourceDiskAdapter(
                self.disk_code, ctx.digest, stage, self._training_key(gen)
            )
        engine = DBTEngine(
            ctx.unit,
            gen.config_for(stage),
            chaining=self.config.chaining,
            backend=backend,
            code_cache=dict(entries),
            **engine_kwargs,
        )
        try:
            return engine.run(max_blocks=self.config.max_blocks)
        except ExecutionError as exc:
            raise ProtocolError("bad-program", f"execution failed: {exc}") from exc
        except ReproError as exc:
            raise ProtocolError("bad-program", f"translation failed: {exc}") from exc

    async def _run(self, obj: Dict[str, Any]):
        gen = self._generation  # one read: the whole request stays on it
        stage = self._stage_of(obj)
        ctx = await self._context(gen, obj)
        entries = await self._ensure_blocks(gen, ctx, stage)
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(
            None, self._execute, gen, ctx, stage, entries
        )
        return ctx, stage, result

    # -- operations -----------------------------------------------------------

    async def _op_ping(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "pong": True,
            "protocol_version": protocol.PROTOCOL_VERSION,
            "uptime_seconds": round(self.uptime(), 3),
        }

    async def _op_translate(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        gen = self._generation
        stage = self._stage_of(obj)
        ctx = await self._context(gen, obj)
        entries = await self._ensure_blocks(gen, ctx, stage)
        guest = sum(entry.tb.guest_count for entry in entries.values())
        covered = sum(entry.tb.covered_count for entry in entries.values())
        return {
            "unit": ctx.digest,
            "stage": stage,
            "blocks": len(entries),
            "guest_instructions": guest,
            "host_instructions": sum(
                len(entry.tb.host) for entry in entries.values()
            ),
            "static_coverage": round(covered / guest, 4) if guest else 0.0,
        }

    async def _op_run(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        ctx, stage, result = await self._run(obj)
        metrics = result.metrics
        return {
            "unit": ctx.digest,
            "stage": stage,
            "snapshot": result.architectural_snapshot(),
            "metrics": {
                "guest_dynamic": metrics.guest_dynamic,
                "coverage": round(metrics.coverage, 6),
                "total_ratio": round(metrics.total_ratio, 4),
                "block_executions": metrics.block_executions,
                "chained_executions": metrics.chained_executions,
                "chain_rate": round(metrics.chain_rate, 4),
                "blocks_translated": metrics.blocks_translated,
                "cost": round(metrics.cost(), 1),
            },
        }

    async def _op_coverage(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        ctx, stage, result = await self._run(obj)
        metrics = result.metrics
        return {
            "unit": ctx.digest,
            "stage": stage,
            "coverage": round(metrics.coverage, 6),
            "total_ratio": round(metrics.total_ratio, 4),
            "ratios": {
                category: round(metrics.ratio(category), 4)
                for category in ("rule", "tcg", "data", "control")
            },
            "rules_hit": len(metrics.rule_hits),
            "rule_origins": {
                origin: count
                for origin, count in sorted(metrics.rule_origin_counts().items())
            },
        }

    async def _op_stats(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        with self._counter_lock:
            errors = dict(self.error_counts)
            total = self.requests_total
        gen = self._generation
        payload: Dict[str, Any] = {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_seconds": round(self.uptime(), 3),
            "stage_default": self.config.stage,
            "training": self.config.training,
            "backend": self.config.backend,
            "ruleset_version": gen.ruleset.version,
            "ruleset": {
                **gen.ruleset.identity(),
                "swaps": self.ruleset_swaps,
                "history": list(self._swap_history[-5:]),
            },
            "requests": {"total": total, "errors_by_code": errors},
            "endpoints": self.endpoints.summary(),
            "code_cache": self.code_cache.stats(),
            "units_cached": len(gen.units),
            "caches": stats_payload(include_disk=False),
        }
        if self.server_stats is not None:
            payload["server"] = self.server_stats()
        if self.pool_context is not None:
            from repro.service.pool import aggregate_pool_stats, publish_worker_stats

            loop = asyncio.get_running_loop()

            def pool_section() -> Dict[str, Any]:
                # Flush our own snapshot first so the aggregate the client
                # reads always includes the worker answering it.
                publish_worker_stats(self, self.pool_context)
                return aggregate_pool_stats(self.pool_context.directory)

            payload["worker"] = {
                "index": self.pool_context.worker_index,
                "pid": os.getpid(),
            }
            payload["pool"] = await loop.run_in_executor(None, pool_section)
        return payload

    async def _op_reload(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """Admin op: hot-swap to a store version (default ``latest``).

        The ruleset load runs in the executor, so serving (and the event
        loop) never blocks on it; failures leave the current generation in
        place and report ``bad-request``.
        """
        version = obj.get("version")
        if version is not None and not isinstance(version, str):
            raise ProtocolError("bad-request", "'version' must be a string")
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, self.reload_ruleset, version)
        except ReproError as exc:
            raise ProtocolError("bad-request", f"reload failed: {exc}") from exc

    async def _op_sleep(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        seconds = float(obj.get("seconds", 0.1))
        await asyncio.sleep(seconds)
        return {"slept": seconds}

    # -- dispatch -------------------------------------------------------------

    async def handle_request(
        self, obj: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """One request object in, one response object out — never raises.

        Applies the per-request timeout, converts every failure mode into a
        protocol error response (one bad request can never kill the serving
        loop), and records per-endpoint latency.
        """
        started = time.perf_counter()
        ident: Optional[Any] = protocol.request_id(obj)
        op = "<malformed>"
        try:
            ident, op = protocol.parse_request(obj)
            handler = self._handlers.get(op)
            if handler is None or (op == "_sleep" and not self.config.debug_ops):
                raise ProtocolError(
                    "unknown-op", f"unknown op {op!r}; expected one of {protocol.OPS}"
                )
            if timeout is not None:
                result = await asyncio.wait_for(handler(obj), timeout)
            else:
                result = await handler(obj)
            response = protocol.ok_response(ident, result)
        except ProtocolError as exc:
            response = protocol.error_response(ident, exc.code, exc.message)
        except asyncio.TimeoutError:
            response = protocol.error_response(
                ident, "timeout", f"request exceeded {timeout}s"
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # isolation: no request kills the loop
            response = protocol.error_response(
                ident, "internal", f"{type(exc).__name__}: {exc}"
            )
        ok = bool(response.get("ok"))
        with self._counter_lock:
            self.requests_total += 1
            if not ok:
                code = response["error"]["code"]
                self.error_counts[code] = self.error_counts.get(code, 0) + 1
        self.endpoints.observe(op, time.perf_counter() - started, ok)
        return response


class ServiceServer:
    """TCP transport: bounded queue, handler tasks, graceful drain."""

    def __init__(self, service: TranslationService, config: ServiceConfig) -> None:
        self.service = service
        self.config = config
        self._queue: "asyncio.Queue" = asyncio.Queue(maxsize=config.max_queue)
        self._handlers: list = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._client_tasks: set = set()
        self._draining = False
        self._drained = asyncio.Event()
        self._active = 0
        self.backpressure_rejections = 0
        self.port: Optional[int] = None
        self._watcher: Optional[asyncio.Task] = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self, sock=None) -> None:
        """Start listening — on host:port, or on an inherited *sock*.

        Pool workers pass the listener the parent bound before forking, so
        every worker ``accept()``s on the same socket and the kernel
        balances connections across the pool.
        """
        if sock is not None:
            self._server = await asyncio.start_server(
                self._on_client, sock=sock, limit=protocol.MAX_LINE_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._on_client,
                self.config.host,
                self.config.port,
                limit=protocol.MAX_LINE_BYTES,
            )
        self.port = self._server.sockets[0].getsockname()[1]
        self._handlers = [
            asyncio.create_task(self._handler())
            for _ in range(self.config.handlers)
        ]
        self.service.server_stats = self.stats
        if self.service.ruleset_store is not None and self.config.watch_interval > 0:
            self._watcher = asyncio.create_task(self._watch_ruleset())

    async def _watch_ruleset(self) -> None:
        """Poll the store's ``latest`` pointer and hot-swap when it moves.

        Store reads and the swap's ruleset load both run in the executor; a
        broken store read (mid-GC, partial copy, NFS hiccup) is retried
        next tick — the watcher must never take serving down.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.watch_interval)
            try:
                latest = await loop.run_in_executor(
                    None, self.service.ruleset_store.latest_version
                )
                if latest is None or latest == self.service.ruleset_version():
                    continue
                result = await loop.run_in_executor(
                    None, self.service.reload_ruleset, latest
                )
                if result.get("swapped"):
                    print(
                        f"repro serve: ruleset reloaded "
                        f"{result['previous']} -> {result['version']} "
                        f"(pid={os.getpid()})",
                        flush=True,
                    )
            except asyncio.CancelledError:
                raise
            except Exception:
                continue

    def install_signal_handlers(self) -> None:
        """Drain on SIGTERM/SIGINT, on every platform.

        ``loop.add_signal_handler`` is the right tool where it exists, but
        it raises ``NotImplementedError`` on some platforms/loops — and the
        old code suppressed that and silently installed *nothing*, so
        SIGTERM hard-killed the process instead of draining (exit 143, no
        "drained cleanly").  The fallback installs a plain ``signal.signal``
        handler that trampolines onto the loop thread-safely, so the pool
        parent's SIGTERM fan-out gets the same graceful drain everywhere.
        """
        loop = asyncio.get_running_loop()

        def begin_drain() -> None:
            asyncio.ensure_future(self.drain())

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, begin_drain)
            except (NotImplementedError, ValueError):
                try:
                    signal.signal(
                        signum,
                        lambda *_: loop.call_soon_threadsafe(begin_drain),
                    )
                except (ValueError, OSError):
                    pass  # non-main thread or unsupported signal

    async def drain(self) -> None:
        """Stop accepting, answer everything queued, then shut down."""
        if self._draining:
            return
        self._draining = True
        if self._watcher is not None:
            self._watcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watcher
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._queue.join()
        for handler in self._handlers:
            handler.cancel()
        await asyncio.gather(*self._handlers, return_exceptions=True)
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        # Let connection handlers observe the close and exit on their own
        # (cancelling a handler mid-readline trips asyncio's stream-callback
        # exception retrieval and logs spurious errors on some versions).
        if self._client_tasks:
            await asyncio.gather(*list(self._client_tasks), return_exceptions=True)
        self._drained.set()

    async def wait_closed(self) -> None:
        await self._drained.wait()

    async def aclose(self) -> None:
        await self.drain()

    # -- connection handling --------------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        self._connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized line: no way to resync mid-line, so answer
                    # and close this connection only.
                    await self._send(
                        writer,
                        write_lock,
                        protocol.error_response(
                            None,
                            "bad-request",
                            f"request line exceeds {protocol.MAX_LINE_BYTES} bytes",
                        ),
                    )
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not raw:
                    break  # client closed
                if not raw.strip():
                    continue
                try:
                    obj = protocol.decode(raw)
                except ProtocolError as exc:
                    # Malformed-request isolation: respond, keep serving
                    # this connection and everyone else.
                    await self._send(
                        writer,
                        write_lock,
                        protocol.error_response(None, exc.code, exc.message),
                    )
                    continue
                ident = protocol.request_id(obj)
                if self._draining:
                    await self._send(
                        writer,
                        write_lock,
                        protocol.error_response(
                            ident, "shutting-down", "server is draining"
                        ),
                    )
                    continue
                try:
                    self._queue.put_nowait((obj, writer, write_lock))
                except asyncio.QueueFull:
                    self.backpressure_rejections += 1
                    await self._send(
                        writer,
                        write_lock,
                        protocol.error_response(
                            ident,
                            "backpressure",
                            f"request queue full ({self.config.max_queue}); retry",
                        ),
                    )
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._client_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def _handler(self) -> None:
        while True:
            obj, writer, write_lock = await self._queue.get()
            self._active += 1
            try:
                response = await self.service.handle_request(
                    obj, timeout=self.config.request_timeout
                )
                await self._send(writer, write_lock, response)
            except asyncio.CancelledError:
                raise
            except Exception:
                pass  # connection torn down mid-response; nothing to tell
            finally:
                self._active -= 1
                self._queue.task_done()

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        message: Dict[str, Any],
    ) -> None:
        data = protocol.encode(message)
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away; their loss

    # -- observability --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "queue_depth": self._queue.qsize(),
            "queue_max": self.config.max_queue,
            "handlers": self.config.handlers,
            "active": self._active,
            "connections": len(self._connections),
            "backpressure_rejections": self.backpressure_rejections,
            "draining": self._draining,
        }


async def start_server(
    config: ServiceConfig,
    setup: Optional[SystemSetup] = None,
    sock=None,
    pool_context: Optional[PoolContext] = None,
    ruleset=None,
) -> ServiceServer:
    """Build a service + transport and start listening (tests, embedders)."""
    service = TranslationService(config, setup=setup, ruleset=ruleset)
    service.pool_context = pool_context
    server = ServiceServer(service, config)
    await server.start(sock=sock)
    return server


async def _amain(config: ServiceConfig) -> int:
    server = await start_server(config)
    server.install_signal_handlers()
    print(
        f"repro serve: listening on {config.host}:{server.port} "
        f"(stage={config.stage}, training={config.training}, "
        f"ruleset={server.service.ruleset_version()}, "
        f"handlers={config.handlers}, pid={os.getpid()})",
        flush=True,
    )
    await server.wait_closed()
    print("repro serve: drained cleanly", flush=True)
    return 0


def serve(config: ServiceConfig) -> int:
    """Blocking entry point for ``repro serve``; returns the exit code."""
    try:
        return asyncio.run(_amain(config))
    except KeyboardInterrupt:
        return 0
