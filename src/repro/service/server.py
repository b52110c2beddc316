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
* **Sharing** — each serving generation keeps one table per (program,
  stage): the program's every block translated and compiled by one
  executor call, built once however many requests ask for it at once, and
  bounded at :data:`CACHE_BLOCKS` blocks over all tables (least recently
  used tables go first).  Rules are looked up straight from the frozen
  per-stage :class:`~repro.learning.ruleset.RuleSet`.  A warm request is
  one dict lookup.  What a run patches while it executes (block chain
  maps) stays with that run, so every response is a function of its
  request alone.
* **Hot reload** — the serving ruleset lives in a :class:`_Generation`
  (ruleset identity + per-stage configs + its table cache).  Every request
  reads ``self._generation`` exactly once and carries that object through
  translate/compile/execute, so the ``reload`` admin op (or the
  ``--watch-interval`` store watcher) can load a new generation in the
  background and swap the attribute atomically: in-flight requests finish
  on the generation they started with, new requests see the new version,
  and no request ever mixes rules from two versions.  Tables belong to the
  generation that built them, so a swapped version is never served stale
  compiled blocks, and its tables are freed when its last request drains.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import os
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.cache import stats_payload
from repro.dbt.block import BlockMap
from repro.dbt.compiler import CompiledBlock, compile_block

# Unused here, but kept importable from this module: the per-layer tracer in
# perfbench/tracer.py wraps the codegen entry points at these names, and
# tests/test_perfbench_targets.py checks that they resolve.
from repro.dbt.compiler import (  # noqa: F401
    compile_block_source,
    generate_block_source,
)
from repro.dbt.engine import CodeCacheEntry, DBTEngine
from repro.dbt.translator import BlockTranslator, TranslationConfig
from repro.errors import ExecutionError, ReproError
from repro.lang.program import CompiledUnit
from repro.param.engine import STAGES, SystemSetup
from repro.service import protocol
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
    #: queued (admitted, not yet running) requests before backpressure.
    max_queue: int = 64
    #: concurrent asyncio request handlers per process (``--handlers``; the
    #: OS-process fan-out is :class:`repro.service.pool.PoolConfig.workers`).
    handlers: int = 8
    request_timeout: float = 30.0
    #: per-run guest block execution bound (runaway protection).
    max_blocks: int = 500_000
    #: enable the test-only ``_sleep`` op (deterministic backpressure /
    #: timeout exercises); never enable on a real deployment.
    debug_ops: bool = False
    #: root of a :class:`repro.pipeline.store.RulesetStore`; when set and
    #: non-empty the server boots from its ``latest`` version instead of
    #: training at startup, and the ``reload`` op / watcher can hot-swap to
    #: newly published versions.  None keeps the legacy train-at-boot path.
    ruleset_store: Optional[str] = None
    #: seconds between ``latest``-pointer polls; 0 disables the watcher
    #: (reloads then happen only through the ``reload`` admin op).  A
    #: positive interval needs ``ruleset_store``.
    watch_interval: float = 0.0

    def __post_init__(self) -> None:
        """Reject values that would otherwise fail late or silently.

        Checked at construction, so a pool parent fails before it binds
        the listener or forks a worker.
        """
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        for name in ("handlers", "max_queue"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.request_timeout > 0:
            raise ValueError(f"request_timeout must be > 0, got {self.request_timeout}")
        if self.watch_interval < 0:
            raise ValueError(f"watch_interval must be >= 0, got {self.watch_interval}")
        if self.watch_interval > 0 and not self.ruleset_store:
            raise ValueError(
                f"watch_interval {self.watch_interval} needs a ruleset_store to poll"
            )


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


#: Compiled blocks a generation's tables may hold in total.  Publishing a
#: table evicts least-recently-used finished tables until the total is
#: within it; a lone table larger than the bound stays.  A compiled block
#: costs about 8 KB, so a bound in programs rather than blocks would let a
#: stage grow to hundreds of MB.
CACHE_BLOCKS = 4096


class _Table(NamedTuple):
    """One (program, stage), translated and compiled: all a request reads."""

    unit: CompiledUnit
    digest: str
    #: block start index -> entry, for every block of the program.
    entries: Dict[int, CodeCacheEntry]
    guest: int
    host: int
    covered: int


def _build_table(config: TranslationConfig, kind: str, value) -> _Table:
    """Executor side: resolve the program, then translate and compile it."""
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
    blockmap = BlockMap(unit)
    translator = BlockTranslator(unit, blockmap, config)
    entries: Dict[int, CodeCacheEntry] = {}
    guest = host = covered = 0
    for block in blockmap.blocks:
        tb = translator.translate(block)
        entries[block.start] = CodeCacheEntry(tb=tb, compiled=compile_block(tb))
        guest += tb.guest_count
        host += len(tb.host)
        covered += tb.covered_count
    return _Table(unit, digest, entries, guest, host, covered)


class _Generation:
    """One serving generation: a frozen ruleset and the tables built from it.

    Requests capture one generation at dispatch and use only it; the
    service swaps the current-generation attribute atomically.  Tables bind
    the generation's stage configs, so they live in its cache and go with
    it.

    ``tables`` maps ``(program key, stage)`` to the task that builds that
    table, least recently used first, and is confined to the event loop.
    ``blocks`` (held by finished tables) and the service-wide ``counts``
    are plain ints, so any thread may read them.
    """

    __slots__ = ("ruleset", "counts", "tables", "blocks")

    def __init__(self, ruleset, counts: Dict[str, int]) -> None:
        self.ruleset = ruleset
        self.counts = counts
        self.tables: "OrderedDict[Tuple, asyncio.Task]" = OrderedDict()
        self.blocks = 0

    def config_for(self, stage: str) -> TranslationConfig:
        return self.ruleset.config_for(stage)

    async def table(self, key: Tuple, build: Callable[[], _Table]) -> _Table:
        """The table for *key*, built at most once however many ask at once.

        A warm request is one dict lookup and an await of a finished task.
        Every caller, the first included, awaits the build through
        :func:`asyncio.shield`, so a caller's timeout never cancels it.
        """
        counts = self.counts
        task = self.tables.get(key)
        if task is None:
            counts["misses"] += 1
            task = self.tables[key] = asyncio.ensure_future(self._build(key, build))
        else:
            self.tables.move_to_end(key)
            if task.done():
                counts["hits"] += 1
            else:
                counts["misses"] += 1
                counts["coalesced"] += 1
        return await asyncio.shield(task)

    async def _build(self, key: Tuple, build: Callable[[], _Table]) -> _Table:
        """Run *build* in the executor, then publish its table.

        A failed build leaves the cache, so the key retries; its exception
        reaches every waiter.  Publishing evicts least-recently-used
        finished tables until the blocks held are within
        :data:`CACHE_BLOCKS`.  This table's task is still running, so it
        is never evicted by its own publish.
        """
        counts = self.counts
        counts["inflight"] += 1
        try:
            table = await asyncio.get_running_loop().run_in_executor(None, build)
        except BaseException:
            del self.tables[key]
            raise
        finally:
            counts["inflight"] -= 1
        size = len(table.entries)
        counts["compiles"] += size
        self.blocks += size
        for old_key, old in list(self.tables.items()):
            if self.blocks <= CACHE_BLOCKS:
                break
            if old.done():
                del self.tables[old_key]
                evicted = len(old.result().entries)
                self.blocks -= evicted
                counts["evictions"] += evicted
        return table


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
        #: table-cache counters, shared by every generation; ``hits``,
        #: ``misses`` and ``coalesced`` count requests, ``compiles`` and
        #: ``evictions`` blocks.
        self._cache_counts = dict.fromkeys(
            ("hits", "misses", "compiles", "coalesced", "evictions", "inflight"), 0
        )
        self._generation = _Generation(ruleset, self._cache_counts)
        self.ruleset_store = None
        if config.ruleset_store:
            from repro.pipeline.store import RulesetStore

            self.ruleset_store = RulesetStore(config.ruleset_store)
        self._reload_lock = threading.Lock()
        self.ruleset_swaps = 0
        self._swap_history: list = [ruleset.version]
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
            # Atomic swap; the old generation and its tables drain out.
            self._generation = _Generation(ruleset, self._cache_counts)
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

    async def _table(self, gen: _Generation, obj: Dict[str, Any]) -> Tuple[str, _Table]:
        """The request's stage and its program's table from *gen*'s cache."""
        stage = self._stage_of(obj)
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
        build = partial(_build_table, gen.config_for(stage), kind, value)
        return stage, await gen.table((key, stage), build)

    def _execute(self, table: _Table, config: TranslationConfig):
        """Executor-side guest run over the table's shared code-cache entries.

        The run chains through per-request shells of the shared compiled
        blocks (same code and counts, empty chain maps), so its chained
        transfers, and with them its metrics, are those of a fresh engine
        whatever earlier requests ran.  The shells are unchained when the
        run ends, which keeps them free of reference cycles.
        """
        shells = {
            index: CodeCacheEntry(
                tb=entry.tb,
                compiled=CompiledBlock(
                    entry.tb, entry.compiled.execute, entry.compiled.host_counts
                ),
            )
            for index, entry in table.entries.items()
        }
        engine = DBTEngine(
            table.unit,
            config,
            chaining=True,
            backend="jit",
            code_cache=shells,
        )
        try:
            return engine.run(max_blocks=self.config.max_blocks)
        except ExecutionError as exc:
            raise ProtocolError("bad-program", f"execution failed: {exc}") from exc
        except ReproError as exc:
            raise ProtocolError("bad-program", f"translation failed: {exc}") from exc
        finally:
            for shell in shells.values():
                shell.compiled.chain.clear()

    async def _run(self, obj: Dict[str, Any]):
        gen = self._generation  # one read: the whole request stays on it
        stage, table = await self._table(gen, obj)
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(
            None, self._execute, table, gen.config_for(stage)
        )
        return table, stage, result

    def cache_stats(self) -> Dict[str, Any]:
        """The ``stats`` op's ``code_cache`` section; any thread may call it."""
        counts = dict(self._cache_counts)
        lookups = counts["hits"] + counts["misses"]
        return {
            "size": self._generation.blocks,
            "maxsize": CACHE_BLOCKS,
            "hit_rate": round(counts["hits"] / lookups, 4) if lookups else 0.0,
            **counts,
        }

    # -- operations -----------------------------------------------------------

    async def _op_ping(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "pong": True,
            "protocol_version": protocol.PROTOCOL_VERSION,
            "uptime_seconds": round(self.uptime(), 3),
        }

    async def _op_translate(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        stage, table = await self._table(self._generation, obj)
        guest = table.guest
        return {
            "unit": table.digest,
            "stage": stage,
            "blocks": len(table.entries),
            "guest_instructions": guest,
            "host_instructions": table.host,
            "static_coverage": round(table.covered / guest, 4) if guest else 0.0,
        }

    async def _op_run(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        table, stage, result = await self._run(obj)
        metrics = result.metrics
        return {
            "unit": table.digest,
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
        table, stage, result = await self._run(obj)
        metrics = result.metrics
        return {
            "unit": table.digest,
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
            "ruleset_version": gen.ruleset.version,
            "ruleset": {
                **gen.ruleset.identity(),
                "swaps": self.ruleset_swaps,
                "history": list(self._swap_history[-5:]),
            },
            "requests": {"total": total, "errors_by_code": errors},
            "endpoints": self.endpoints.summary(),
            "code_cache": self.cache_stats(),
            "caches": stats_payload(),
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
