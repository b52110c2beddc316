"""Tests for the translation-as-a-service subsystem (``repro.service``).

Covers service configuration validation, the per-generation table cache
(coalescing, failure retry, block-bounded eviction), latency histograms, the
asyncio server's protocol/robustness guarantees (malformed-request
isolation, backpressure, timeouts, graceful drain), the run endpoint's
oracle parity, and a short in-process loadgen run.
"""

from __future__ import annotations

import asyncio
import json
import time
from functools import partial

import pytest

from repro.service import protocol, server as server_module
from repro.service.server import ServiceConfig, TranslationService, _Table, start_server
from repro.service.stats import EndpointStats, LatencyHistogram


@pytest.fixture(scope="session")
def service_setup():
    """The quick two-benchmark training setup servers are booted with."""
    from repro.difftest.oracle import training_setup

    return training_setup()


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize(
    "field, value",
    [
        ("handlers", 0),
        ("max_queue", 0),
        ("request_timeout", 0.0),
        ("request_timeout", -1.0),
        ("stage", "nope"),
        ("watch_interval", -1.0),
        ("watch_interval", 1.0),  # no ruleset_store to poll
    ],
)
def test_service_config_rejects_bad_values(field, value):
    """Values that would fail silently once serving are refused up front."""
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: value})


# ---------------------------------------------------------------------------
# single-flight code cache: one table per (program, stage) and generation


def _fake_table(blocks: int = 1) -> _Table:
    return _Table(None, "d", dict.fromkeys(range(blocks)), 0, 0, 0)


@pytest.fixture
def cache_service(service_setup):
    """A service whose generation cache the tests drive with fake builds."""
    return TranslationService(ServiceConfig(), setup=service_setup)


def _held_entries(service):
    """Every code-cache entry the current generation's tables hold."""
    return [
        entry
        for task in service._generation.tables.values()
        for entry in task.result().entries.values()
    ]


class TestSingleFlightCodeCache:
    def test_concurrent_requests_compile_once(self, cache_service):
        gen = cache_service._generation
        calls = []

        def build():
            calls.append(1)
            time.sleep(0.05)  # hold the flight open so others coalesce
            return _fake_table(3)

        async def body():
            return await asyncio.gather(*(gen.table("k", build) for _ in range(5)))

        results = asyncio.run(body())
        assert len(calls) == 1
        assert all(table is results[0] for table in results)
        stats = cache_service.cache_stats()
        assert stats["compiles"] == 3 and stats["size"] == 3
        assert stats["misses"] == 5 and stats["coalesced"] == 4
        assert stats["hits"] == 0 and stats["inflight"] == 0

    def test_failed_compile_propagates_and_key_retries(self, cache_service):
        gen = cache_service._generation
        attempts = []

        def build():
            attempts.append(1)
            time.sleep(0.05)
            if len(attempts) == 1:
                raise RuntimeError("boom")
            return _fake_table()

        async def body():
            failed = await asyncio.gather(
                gen.table("k", build), gen.table("k", build), return_exceptions=True
            )
            assert [str(exc) for exc in failed] == ["boom", "boom"]  # every waiter
            assert "k" not in gen.tables
            return await gen.table("k", build)

        assert asyncio.run(body()).entries == {0: None}
        assert len(attempts) == 2
        assert cache_service.cache_stats()["compiles"] == 1

    def test_owner_timeout_does_not_cancel_the_shared_compile(self, cache_service):
        """The caller that started a build times out; a coalesced waiter
        still gets the table, and the table is published."""
        gen = cache_service._generation
        table = _fake_table()

        def build():
            time.sleep(0.3)
            return table

        async def body():
            owner = asyncio.ensure_future(asyncio.wait_for(gen.table("k", build), 0.1))
            await asyncio.sleep(0.02)  # the owner has started the flight
            waiter = asyncio.ensure_future(gen.table("k", build))
            with pytest.raises(asyncio.TimeoutError):
                await owner
            assert await waiter is table
            return await gen.table("k", build)

        assert asyncio.run(body()) is table
        stats = cache_service.cache_stats()
        assert stats["compiles"] == 1 and stats["coalesced"] == 1
        assert stats["hits"] == 1

    def test_lru_eviction_accounting(self, cache_service, monkeypatch):
        """Tables go least recently used first until the blocks held are
        within the bound; a lone table larger than the bound stays."""
        monkeypatch.setattr(server_module, "CACHE_BLOCKS", 2)
        gen = cache_service._generation

        async def body():
            for key in ("a", "b", "a", "c"):  # touching "a" leaves "b" LRU
                await gen.table(key, _fake_table)
            assert list(gen.tables) == ["a", "c"]
            await gen.table("big", partial(_fake_table, 5))
            assert list(gen.tables) == ["big"]

        asyncio.run(body())
        stats = cache_service.cache_stats()
        assert stats["size"] == 5 and stats["maxsize"] == 2
        assert stats["compiles"] == 8 and stats["evictions"] == 3

    def test_hit_rate(self, cache_service):
        gen = cache_service._generation

        async def body():
            await gen.table("k", _fake_table)
            await gen.table("k", _fake_table)

        asyncio.run(body())
        assert cache_service.cache_stats()["hit_rate"] == 0.5


# ---------------------------------------------------------------------------
# latency histograms


class TestStats:
    def test_histogram_percentiles_bracket_observations(self):
        hist = LatencyHistogram()
        for ms in (1, 2, 3, 4, 100):
            hist.observe(ms / 1e3)
        summary = hist.summary()
        assert summary["count"] == 5
        # p50 falls within one 35%-wide bucket of the true median (3ms)
        assert 2.0 <= summary["p50_ms"] <= 3.0 * 1.35
        assert summary["p99_ms"] <= summary["max_ms"] == 100.0
        assert summary["mean_ms"] == pytest.approx(22.0, rel=0.01)

    def test_histogram_empty(self):
        summary = LatencyHistogram().summary()
        assert summary["count"] == 0 and summary["p99_ms"] == 0.0

    @pytest.mark.parametrize(
        "damage",
        [lambda p: p.pop("count"), lambda p: p["buckets"].__setitem__(-1, "x")],
        ids=["missing-count", "bad-bucket"],
    )
    def test_malformed_payload_is_not_half_merged(self, damage):
        hist = LatencyHistogram()
        hist.observe(0.002)
        good = hist.raw_payload()
        bad = hist.raw_payload()
        damage(bad)
        merged = LatencyHistogram.merged([good, bad])
        assert merged.raw_payload() == good

    def test_endpoint_stats_counts(self):
        stats = EndpointStats()
        stats.observe("run", 0.01, ok=True)
        stats.observe("run", 0.02, ok=False)
        stats.observe("ping", 0.001, ok=True)
        summary = stats.summary()
        assert summary["run"]["ok"] == 1 and summary["run"]["errors"] == 1
        assert summary["ping"]["count"] == 1


# ---------------------------------------------------------------------------
# server-level tests (in-process asyncio server per test)


async def _connect(port):
    return await asyncio.open_connection(
        "127.0.0.1", port, limit=protocol.MAX_LINE_BYTES
    )


async def _rpc(reader, writer, obj):
    writer.write(protocol.encode(obj))
    await writer.drain()
    return json.loads(await reader.readline())


class TestServiceServer:
    def test_ping_translate_and_stats(self, service_setup):
        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=4), setup=service_setup
            )
            try:
                reader, writer = await _connect(server.port)
                pong = await _rpc(reader, writer, {"id": 1, "op": "ping"})
                assert pong["ok"] and pong["result"]["pong"]
                assert pong["result"]["protocol_version"] == protocol.PROTOCOL_VERSION

                t = await _rpc(
                    reader, writer, {"id": 2, "op": "translate", "benchmark": "mcf"}
                )
                assert t["ok"]
                assert t["result"]["blocks"] > 0
                assert 0.0 < t["result"]["static_coverage"] <= 1.0

                st = await _rpc(reader, writer, {"id": 3, "op": "stats"})
                assert st["ok"]
                result = st["result"]
                assert result["requests"]["total"] >= 2
                assert result["code_cache"]["compiles"] > 0
                assert result["ruleset"]["rules"]["serving"] > 0
                assert result["server"]["connections"] == 1
                assert "process" in result["caches"]  # shared serializer payload
                assert "jit_blocks_bound" in result["caches"]["process"]
                assert len(result["caches"]["gc"]) == 3  # one per generation
                verify = result["caches"]["verify"]
                assert verify["cross_failed"] == 0
                assert verify["pairs_sampled"] == (
                    verify["prefix_decided"] + verify["compiled_scans"]
                )
                writer.close()
            finally:
                await server.aclose()

        asyncio.run(body())

    def test_run_matches_interpreter_oracle(self, service_setup):
        from repro.difftest.oracle import diff_snapshots
        from repro.dbt.guest_interp import GuestInterpreter
        from repro.service.loadgen import _normalize_snapshot
        from repro.workloads import compiled_benchmark

        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=2), setup=service_setup
            )
            try:
                reader, writer = await _connect(server.port)
                response = await _rpc(
                    reader, writer, {"id": "r", "op": "run", "benchmark": "mcf"}
                )
                assert response["ok"], response
                writer.close()
                return response["result"]
            finally:
                await server.aclose()

        result = asyncio.run(body())
        reference = (
            GuestInterpreter(compiled_benchmark("mcf").guest)
            .run()
            .architectural_snapshot()
        )
        divergence = diff_snapshots(reference, _normalize_snapshot(result["snapshot"]))
        assert divergence is None, f"{divergence.kind}: {divergence.detail}"
        assert result["metrics"]["guest_dynamic"] > 0

    def test_repeated_run_answers_alike(self, service_setup):
        """A ``run`` answers the same bytes however many runs the process
        served before, with the chained transfers of a fresh engine: each
        run chains through its own maps, never the shared blocks'."""
        from repro.dbt import DBTEngine
        from repro.workloads import compiled_benchmark

        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=2), setup=service_setup
            )
            try:
                reader, writer = await _connect(server.port)
                lines = []
                for _ in range(3):
                    writer.write(b'{"id": "r", "op": "run", "benchmark": "mcf"}\n')
                    await writer.drain()
                    lines.append(await reader.readline())
                writer.close()
                shared = _held_entries(server.service)
                return lines, shared, server.service.config_for("condition")
            finally:
                await server.aclose()

        lines, shared, config = asyncio.run(body())
        assert lines[0] == lines[1] == lines[2]
        metrics = json.loads(lines[0])["result"]["metrics"]
        engine = DBTEngine(
            compiled_benchmark("mcf").guest, config, chaining=True, backend="jit"
        )
        fresh = engine.run().metrics
        assert metrics["chained_executions"] == fresh.chained_executions > 0
        assert shared and not any(entry.compiled.chain for entry in shared)

    def test_concurrent_identical_translates_single_flight(self, service_setup):
        """Two concurrent identical requests: byte-identical responses and
        exactly one compilation per unique block (the coalescing proof the
        issue asks for)."""
        from repro.dbt.compiler import add_compile_listener, remove_compile_listener

        compiled_starts = []
        listener = lambda tb: compiled_starts.append(tb.start)  # noqa: E731

        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=4), setup=service_setup
            )
            try:
                request = {"id": "same", "op": "translate", "benchmark": "libquantum"}

                async def one():
                    reader, writer = await _connect(server.port)
                    writer.write(protocol.encode(request))
                    await writer.drain()
                    raw = await reader.readline()
                    writer.close()
                    return raw

                lines = await asyncio.gather(one(), one())
                return lines, server.service.cache_stats()
            finally:
                await server.aclose()

        add_compile_listener(listener)
        try:
            (line_a, line_b), cache_stats = asyncio.run(body())
        finally:
            remove_compile_listener(listener)
        assert line_a == line_b  # byte-identical
        response = json.loads(line_a)
        assert response["ok"]
        blocks = response["result"]["blocks"]
        # exactly one compile per unique block key, despite two requests
        assert len(compiled_starts) == blocks
        assert len(set(compiled_starts)) == blocks
        assert cache_stats["compiles"] == blocks

    def test_malformed_request_isolation(self, service_setup):
        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=2), setup=service_setup
            )
            try:
                reader, writer = await _connect(server.port)
                # not JSON at all
                writer.write(b"this is not json\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert not response["ok"]
                assert response["error"]["code"] == "bad-json"
                # a JSON array, not an object
                writer.write(b"[1, 2]\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["error"]["code"] == "bad-request"
                # an object with an unknown op (id echoed back)
                response = await _rpc(reader, writer, {"id": 7, "op": "nope"})
                assert response["id"] == 7
                assert response["error"]["code"] == "unknown-op"
                # missing benchmark AND program
                response = await _rpc(reader, writer, {"id": 8, "op": "run"})
                assert response["error"]["code"] == "bad-request"
                # unknown benchmark
                response = await _rpc(
                    reader, writer, {"id": 9, "op": "run", "benchmark": "nope"}
                )
                assert response["error"]["code"] == "bad-program"
                # a program writing the PC outside b/bl/bx
                response = await _rpc(
                    reader,
                    writer,
                    {"id": 11, "op": "run", "program": ["add pc, r0, #0", "bx lr"]},
                )
                assert response["error"]["code"] == "bad-program"
                assert "writes the PC" in response["error"]["message"]
                # a program that falls off its end, where no block starts
                response = await _rpc(
                    reader, writer, {"id": 12, "op": "run", "program": ["mov r0, #1"]}
                )
                assert response["error"]["code"] == "bad-program"
                assert "guest PC 0x4" in response["error"]["message"]
                # ... and the connection still serves fine afterwards
                response = await _rpc(reader, writer, {"id": 10, "op": "ping"})
                assert response["ok"]
                writer.close()
            finally:
                await server.aclose()

        asyncio.run(body())

    def test_debug_sleep_hidden_without_flag(self, service_setup):
        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=1), setup=service_setup
            )
            try:
                reader, writer = await _connect(server.port)
                response = await _rpc(
                    reader, writer, {"id": 1, "op": "_sleep", "seconds": 0}
                )
                assert response["error"]["code"] == "unknown-op"
                writer.close()
            finally:
                await server.aclose()

        asyncio.run(body())

    def test_backpressure_when_queue_full(self, service_setup):
        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=1, max_queue=1, debug_ops=True),
                setup=service_setup,
            )
            try:
                reader, writer = await _connect(server.port)
                # r1 occupies the single worker; r2 fills the queue; r3 is
                # rejected with a retryable backpressure error.
                writer.write(protocol.encode({"id": 1, "op": "_sleep", "seconds": 0.4}))
                await writer.drain()
                await asyncio.sleep(0.15)  # let the worker dequeue r1
                writer.write(protocol.encode({"id": 2, "op": "_sleep", "seconds": 0}))
                writer.write(protocol.encode({"id": 3, "op": "ping"}))
                await writer.drain()
                responses = [json.loads(await reader.readline()) for _ in range(3)]
                by_id = {r["id"]: r for r in responses}
                rejected = by_id[3]
                assert rejected["error"]["code"] == "backpressure"
                assert rejected["error"]["retryable"] is True
                assert by_id[1]["ok"] and by_id[2]["ok"]
                assert server.stats()["backpressure_rejections"] == 1
                writer.close()
            finally:
                await server.aclose()

        asyncio.run(body())

    def test_per_request_timeout(self, service_setup):
        async def body():
            server = await start_server(
                ServiceConfig(
                    port=0, handlers=1, request_timeout=0.2, debug_ops=True
                ),
                setup=service_setup,
            )
            try:
                reader, writer = await _connect(server.port)
                response = await _rpc(
                    reader, writer, {"id": 1, "op": "_sleep", "seconds": 30}
                )
                assert response["error"]["code"] == "timeout"
                assert response["error"]["retryable"] is True
                # server still alive afterwards
                response = await _rpc(reader, writer, {"id": 2, "op": "ping"})
                assert response["ok"]
                writer.close()
            finally:
                await server.aclose()

        asyncio.run(body())

    def test_timeout_during_shared_compile_spares_coalesced_request(
        self, service_setup, monkeypatch
    ):
        """Request A times out while compiling; request B, coalesced onto
        the same compile, still gets a response and no handler dies."""
        program = ["mov r0, #7", "add r0, r0, #5", "bx lr"]
        original = server_module._build_table
        slow = [True]

        def slow_build(*args):
            if slow[0]:
                time.sleep(0.6)
            return original(*args)

        monkeypatch.setattr(server_module, "_build_table", slow_build)

        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=2, request_timeout=0.4),
                setup=service_setup,
            )
            try:
                ra, wa = await _connect(server.port)
                rb, wb = await _connect(server.port)
                wa.write(protocol.encode({"id": 1, "op": "run", "program": program}))
                await wa.drain()
                await asyncio.sleep(0.1)  # B coalesces onto A's compile
                wb.write(protocol.encode({"id": 2, "op": "run", "program": program}))
                await wb.drain()
                a = json.loads(await asyncio.wait_for(ra.readline(), 5))
                b = json.loads(await asyncio.wait_for(rb.readline(), 5))
                assert a["error"]["code"] == "timeout"
                assert b["id"] == 2  # answered, whatever the outcome
                assert all(not task.done() for task in server._handlers)
                slow[0] = False
                c = await _rpc(ra, wa, {"id": 3, "op": "run", "program": program})
                assert c["ok"], c
                assert c["result"]["snapshot"]["regs"]["r0"] == 12
                wa.close()
                wb.close()
            finally:
                await server.aclose()

        asyncio.run(body())

    def test_graceful_drain_answers_queued_requests(self, service_setup):
        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=1, debug_ops=True),
                setup=service_setup,
            )
            reader, writer = await _connect(server.port)
            writer.write(protocol.encode({"id": 1, "op": "_sleep", "seconds": 0.3}))
            await writer.drain()
            await asyncio.sleep(0.1)  # request admitted before the drain
            drain = asyncio.create_task(server.drain())
            response = json.loads(await reader.readline())
            assert response["ok"] and response["id"] == 1  # answered, not dropped
            await drain
            await server.wait_closed()
            assert server.stats()["draining"]
            # new connections are refused once the listener is closed
            with pytest.raises((ConnectionError, OSError)):
                await _connect(server.port)

        asyncio.run(body())

    def test_custom_program_runs(self, service_setup):
        program = ["mov r0, #7", "add r0, r0, #5", "bx lr"]

        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=2), setup=service_setup
            )
            try:
                reader, writer = await _connect(server.port)
                response = await _rpc(
                    reader, writer, {"id": 1, "op": "run", "program": program}
                )
                writer.close()
                return response
            finally:
                await server.aclose()

        response = asyncio.run(body())
        assert response["ok"], response
        assert response["result"]["unit"].startswith("prog:")
        assert response["result"]["snapshot"]["regs"]["r0"] == 12


class TestServedTables:
    PROGRAMS = (
        ["mov r0, #7", "add r0, r0, #5", "bx lr"],
        ["mov r0, #1", "cmp r0, #2", "beq done", "add r0, r0, #3", "done:", "bx lr"],
        ["mov r1, #4", "bl f", "bx lr", "f:", "add r0, r1, r1", "bx lr"],
    )

    def test_warm_run_is_one_hit_and_no_compile(self, service_setup):
        service = TranslationService(ServiceConfig(), setup=service_setup)
        request = {"id": 1, "op": "run", "program": self.PROGRAMS[0]}

        async def body():
            cold = await service.handle_request(request)
            before = service.cache_stats()
            warm = await service.handle_request(request)
            return cold, before, warm, service.cache_stats()

        cold, before, warm, after = asyncio.run(body())
        assert cold["ok"] and warm == cold
        assert after["hits"] == before["hits"] + 1
        assert after["compiles"] == before["compiles"] > 0
        assert after["misses"] == before["misses"]

    def test_small_bound_holds_and_evicted_program_answers_alike(
        self, service_setup, monkeypatch
    ):
        """With the block bound at 3, the blocks held never exceed it except
        for a lone larger table, and a program evicted and recompiled
        answers byte for byte what it answered first."""
        monkeypatch.setattr(server_module, "CACHE_BLOCKS", 3)
        service = TranslationService(ServiceConfig(), setup=service_setup)
        requests = [
            {"id": n, "op": op, "program": program}
            for n, program in enumerate(self.PROGRAMS)
            for op in ("run", "translate")
        ]

        async def body():
            answers = []
            for request in requests * 2:
                answers.append(protocol.encode(await service.handle_request(request)))
                stats = service.cache_stats()
                tables = list(service._generation.tables.values())
                assert stats["size"] <= 3 or len(tables) == 1
                assert stats["size"] == sum(len(t.result().entries) for t in tables)
            return answers

        answers = asyncio.run(body())
        assert answers[: len(requests)] == answers[len(requests) :]
        stats = service.cache_stats()
        assert stats["evictions"] > 0
        assert stats["compiles"] == stats["size"] + stats["evictions"]


class TestCompileEntry:
    def test_served_run_builds_no_block_kernel(self, service_setup):
        """Cached entries carry the compiled body only: neither compiling a
        block nor running it through per-request shells decodes a
        ``BlockKernel``, which only the interpreter reads."""
        program = ["mov r0, #3", "add r0, r0, #1", "bx lr"]

        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=2), setup=service_setup
            )
            try:
                reader, writer = await _connect(server.port)
                response = await _rpc(
                    reader, writer, {"id": 1, "op": "run", "program": program}
                )
                writer.close()
                return response, _held_entries(server.service)
            finally:
                await server.aclose()

        response, entries = asyncio.run(body())
        assert response["ok"], response
        assert response["result"]["snapshot"]["regs"]["r0"] == 4
        assert entries
        assert all(entry._kernel is None for entry in entries)

    def test_path_dependent_block_gets_the_guarded_form(
        self, service_setup, monkeypatch
    ):
        """A block with no inline form (backward edge) gets the guarded
        form, which counts per instruction exactly as the interpreter does."""
        from repro.dbt.executor import HostExecutor
        from repro.dbt.runtime import DISPATCH_LABEL
        from repro.dbt.translator import TranslatedBlock
        from repro.isa.instruction import Instruction
        from repro.isa.operands import Imm, Label, Reg
        from repro.semantics.state import ConcreteState

        host = (
            Instruction("addl", (Imm(1), Reg("g_r0"))),  # _top
            Instruction("cmpl", (Imm(3), Reg("g_r0"))),
            Instruction("jne", (Label("_top"),)),
            Instruction("jmp", (Label(DISPATCH_LABEL),)),
        )
        tb = TranslatedBlock(
            start=0,
            guest_count=1,
            host=host,
            categories=("tcg",) * len(host),
            labels={"_top": 0},
            covered=(False,),
        )

        class _Translator:
            def __init__(self, unit, blockmap, config):
                pass

            def translate(self, block):
                return tb

        monkeypatch.setattr(server_module, "BlockTranslator", _Translator)
        service = TranslationService(ServiceConfig(), setup=service_setup)
        table = server_module._build_table(
            service.config_for("condition"), "program", ("mov r0, #7", "bx lr")
        )
        (entry,) = table.entries.values()
        assert entry.compiled.host_counts == ()
        outcomes = []
        for execute in (
            entry.compiled.execute,
            lambda st, counts: HostExecutor(st).run_block(tb, counts),
        ):
            state = ConcreteState()
            state.reset_flags()
            state.regs["g_r0"] = 0
            counts = {}
            execute(state, counts)
            outcomes.append((state.regs, counts))
        assert outcomes[0] == outcomes[1] == ({"g_r0": 3}, {"tcg": 10})


# ---------------------------------------------------------------------------
# loadgen (in-process, short)


class TestLoadgen:
    def test_loadgen_smoke_zero_divergences(self, service_setup, tmp_path):
        from repro.service.loadgen import (
            LoadgenOptions,
            check_loadgen_report,
            render_loadgen_report,
            run_loadgen_async,
            write_loadgen_report,
        )

        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=4), setup=service_setup
            )
            try:
                options = LoadgenOptions(
                    port=server.port,
                    concurrency=3,
                    duration=1.2,
                    seed=7,
                    fuzz_programs=2,
                    benchmarks=("mcf",),
                    out=str(tmp_path / "BENCH_service.json"),
                )
                payload = await run_loadgen_async(options)
                return options, payload
            finally:
                await server.aclose()

        options, payload = asyncio.run(body())
        assert payload["requests"]["ok"] > 0
        assert payload["requests"]["errors"] == 0
        assert payload["oracle"]["divergences"] == 0
        assert payload["oracle"]["runs_checked"] > 0
        assert payload["server_stats"] is not None
        ok, message = check_loadgen_report(payload)
        assert ok, message
        rendered = render_loadgen_report(payload)
        assert "0 divergences" in rendered
        write_loadgen_report(payload, options.out)
        with open(options.out) as handle:
            on_disk = json.load(handle)
        assert on_disk["meta"]["schema_version"] == 1
        # server_stats carries the ruleset identity, so the meta writer
        # stamps the serving version/digest the measurement is attributable to
        assert set(on_disk["meta"]) == {
            "schema_version", "commit", "created_utc", "cpu_count",
            "ruleset_version", "ruleset_digest",
        }
        assert on_disk["meta"]["ruleset_version"] == "builtin:quick"

    def test_check_fails_on_errors_or_divergences(self):
        from repro.service.loadgen import check_loadgen_report

        base = {
            "requests": {"ok": 10, "errors": 0, "backpressure_retries": 0},
            "oracle": {"divergences": 0, "runs_checked": 5},
            "throughput_rps": 1.0,
        }
        assert check_loadgen_report(base)[0]
        bad = {**base, "requests": {**base["requests"], "errors": 2}}
        assert not check_loadgen_report(bad)[0]
        bad = {**base, "oracle": {**base["oracle"], "divergences": 1}}
        assert not check_loadgen_report(bad)[0]
        bad = {**base, "requests": {**base["requests"], "ok": 0}}
        assert not check_loadgen_report(bad)[0]

    def test_report_meta_shape(self, tmp_path):
        from datetime import datetime

        from repro.service.loadgen import REPORT_SCHEMA_VERSION, write_loadgen_report

        path = tmp_path / "BENCH_x.json"
        write_loadgen_report({}, str(path))
        meta = json.loads(path.read_text())["meta"]
        assert set(meta) == {"schema_version", "commit", "created_utc", "cpu_count"}
        assert meta["schema_version"] == REPORT_SCHEMA_VERSION
        # a 40-hex commit inside a work tree, the literal "unknown" outside
        assert meta["commit"] == "unknown" or len(meta["commit"]) == 40
        # ISO-8601 with timezone, parseable round-trip
        stamp = datetime.fromisoformat(meta["created_utc"])
        assert stamp.tzinfo is not None

    def test_report_stamps_meta(self, tmp_path):
        from repro.service.loadgen import REPORT_SCHEMA_VERSION, write_loadgen_report

        path = tmp_path / "BENCH_x.json"
        write_loadgen_report({"results": [1, 2]}, str(path))
        payload = json.loads(path.read_text())
        assert payload["results"] == [1, 2]
        assert payload["meta"]["schema_version"] == REPORT_SCHEMA_VERSION

    def test_report_keeps_existing_meta(self, tmp_path):
        from repro.service.loadgen import write_loadgen_report

        path = tmp_path / "BENCH_x.json"
        write_loadgen_report({"meta": {"schema_version": 99}}, str(path))
        payload = json.loads(path.read_text())
        assert payload["meta"] == {"schema_version": 99}
