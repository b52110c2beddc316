"""Hot ruleset reload under load (``reload`` op + ``--watch-interval``).

The zero-downtime contract: while clients continuously drive oracle-
verified ``run`` traffic, publishing a new store version and swapping to
it must drop zero connections, produce zero errors and zero divergences
from the reference interpreter, and surface the version transition in
``stats``.  Covered in-process (explicit ``reload`` op and the store
watcher) and as a real ``serve --workers 2`` subprocess pool where every
worker's watcher must converge on the new version independently.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
import weakref

import pytest

from repro.pipeline import RulesetStore, body_from_setup
from repro.service import protocol
from repro.service.server import ServiceConfig, TranslationService, start_server

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture(scope="module")
def service_setup():
    from repro.difftest.oracle import training_setup

    return training_setup()


@pytest.fixture(scope="module")
def bodies():
    """Two distinct publishable bodies: mcf-only rules, then the full
    quick-training rules — both must serve mcf correctly (rules change
    translation efficiency, never semantics)."""
    from repro.difftest.oracle import training_setup
    from repro.experiments.common import setup_for

    v1 = body_from_setup(
        setup_for(("mcf",)), training="quick", benchmarks=("mcf",)
    )
    v2 = body_from_setup(
        training_setup(), training="quick", benchmarks=("mcf", "libquantum")
    )
    assert v1 != v2
    return v1, v2


@pytest.fixture()
def seeded_store(tmp_path, bodies):
    """A store with v1 published; v2 is published mid-test."""
    store = RulesetStore(tmp_path / "rulesets")
    result = store.publish(bodies[0])
    return store, result.version


@pytest.fixture(scope="module")
def mcf_reference():
    from repro.dbt.guest_interp import GuestInterpreter
    from repro.workloads import compiled_benchmark

    return (
        GuestInterpreter(compiled_benchmark("mcf").guest)
        .run()
        .architectural_snapshot()
    )


async def _connect(port):
    return await asyncio.open_connection(
        "127.0.0.1", port, limit=protocol.MAX_LINE_BYTES
    )


async def _rpc(reader, writer, obj):
    writer.write(protocol.encode(obj))
    await writer.drain()
    return json.loads(await reader.readline())


def _check_run(response, reference, errors, divergences):
    from repro.difftest.oracle import diff_snapshots
    from repro.service.loadgen import _normalize_snapshot

    if not response.get("ok"):
        errors.append(response)
        return
    divergence = diff_snapshots(
        reference, _normalize_snapshot(response["result"]["snapshot"])
    )
    if divergence is not None:
        divergences.append(f"{divergence.kind}: {divergence.detail}")


class TestReloadOp:
    def test_swap_under_continuous_load(self, seeded_store, bodies, mcf_reference):
        """Clients never stop talking while v2 is published and swapped in:
        0 dropped connections, 0 errors, 0 divergences, stats shows the
        version transition."""
        store, v1 = seeded_store
        errors, divergences = [], []

        async def body():
            server = await start_server(
                ServiceConfig(
                    port=0, handlers=4, ruleset_store=str(store.root)
                )
            )
            assert server.service.ruleset_version() == v1
            stop = asyncio.Event()

            async def client_loop(wid):
                # One persistent connection across the swap — a dropped
                # connection would raise and fail the test.
                reader, writer = await _connect(server.port)
                count = 0
                while not stop.is_set():
                    response = await _rpc(
                        reader,
                        writer,
                        {"id": f"{wid}-{count}", "op": "run", "benchmark": "mcf"},
                    )
                    _check_run(response, mcf_reference, errors, divergences)
                    count += 1
                writer.close()
                return count

            try:
                clients = [
                    asyncio.create_task(client_loop(wid)) for wid in range(3)
                ]
                await asyncio.sleep(0.3)  # traffic established on v1

                v2 = store.publish(bodies[1]).version
                admin_r, admin_w = await _connect(server.port)
                reloaded = await _rpc(admin_r, admin_w, {"id": "a", "op": "reload"})
                assert reloaded["ok"], reloaded
                assert reloaded["result"]["swapped"] is True
                assert reloaded["result"]["previous"] == v1
                assert reloaded["result"]["version"] == v2

                await asyncio.sleep(0.3)  # traffic continues on v2
                stop.set()
                counts = await asyncio.gather(*clients)
                assert all(count > 0 for count in counts)

                stats = await _rpc(admin_r, admin_w, {"id": "s", "op": "stats"})
                result = stats["result"]
                assert result["ruleset_version"] == v2
                assert result["ruleset"]["swaps"] == 1
                assert result["ruleset"]["history"][-2:] == [v1, v2]
                assert result["ruleset"]["source"] == "store"
                admin_w.close()
            finally:
                await server.aclose()

        asyncio.run(body())
        assert errors == []
        assert divergences == []

    def test_reload_same_version_is_noop(self, seeded_store):
        store, v1 = seeded_store

        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=2, ruleset_store=str(store.root))
            )
            try:
                reader, writer = await _connect(server.port)
                response = await _rpc(reader, writer, {"id": 1, "op": "reload"})
                assert response["ok"]
                assert response["result"]["swapped"] is False
                assert response["result"]["version"] == v1
                writer.close()
            finally:
                await server.aclose()

        asyncio.run(body())

    def test_reload_without_store_is_bad_request(self, service_setup):
        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=2), setup=service_setup
            )
            try:
                reader, writer = await _connect(server.port)
                response = await _rpc(reader, writer, {"id": 1, "op": "reload"})
                assert not response["ok"]
                assert response["error"]["code"] == "bad-request"
                assert "no ruleset store" in response["error"]["message"]
                writer.close()
            finally:
                await server.aclose()

        asyncio.run(body())

    def test_reload_unknown_version_leaves_generation(self, seeded_store):
        store, v1 = seeded_store

        async def body():
            server = await start_server(
                ServiceConfig(port=0, handlers=2, ruleset_store=str(store.root))
            )
            try:
                reader, writer = await _connect(server.port)
                response = await _rpc(
                    reader, writer,
                    {"id": 1, "op": "reload", "version": "v999999-feedfeed00"},
                )
                assert not response["ok"]
                assert response["error"]["code"] == "bad-request"
                assert server.service.ruleset_version() == v1
                run = await _rpc(
                    reader, writer, {"id": 2, "op": "run", "benchmark": "mcf"}
                )
                assert run["ok"]  # serving survived the failed reload
                writer.close()
            finally:
                await server.aclose()

        asyncio.run(body())


class TestWatcher:
    def test_watcher_swaps_on_publish(self, seeded_store, bodies, mcf_reference):
        """No admin op at all: publishing alone moves the server."""
        store, v1 = seeded_store
        errors, divergences = [], []

        async def body():
            server = await start_server(
                ServiceConfig(
                    port=0,
                    handlers=4,
                    ruleset_store=str(store.root),
                    watch_interval=0.05,
                )
            )
            try:
                reader, writer = await _connect(server.port)
                v2 = store.publish(bodies[1]).version
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if server.service.ruleset_version() == v2:
                        break
                    await asyncio.sleep(0.02)
                assert server.service.ruleset_version() == v2
                response = await _rpc(
                    reader, writer, {"id": 1, "op": "run", "benchmark": "mcf"}
                )
                _check_run(response, mcf_reference, errors, divergences)
                stats = await _rpc(reader, writer, {"id": 2, "op": "stats"})
                assert stats["result"]["ruleset"]["swaps"] == 1
                writer.close()
            finally:
                await server.aclose()

        asyncio.run(body())
        assert errors == []
        assert divergences == []


class TestGenerationIsolation:
    def test_code_cache_keys_are_versioned(self, seeded_store, bodies):
        """Blocks compiled under v1 are distinct cache entries from v2's:
        each generation keeps its own tables, so a swapped version can never
        be served stale compiled code."""
        store, v1 = seeded_store
        service = TranslationService(
            ServiceConfig(port=0, ruleset_store=str(store.root))
        )

        async def run_once():
            return await service.handle_request(
                {"id": 1, "op": "translate", "benchmark": "mcf"}
            )

        first = asyncio.run(run_once())
        assert first["ok"]
        compiles_v1 = service.cache_stats()["compiles"]
        assert compiles_v1 > 0

        v2 = store.publish(bodies[1]).version
        assert service.reload_ruleset()["version"] == v2
        second = asyncio.run(run_once())
        assert second["ok"]
        # every block recompiled under the new generation, nothing reused
        assert service.cache_stats()["compiles"] == 2 * compiles_v1

    def test_old_generation_blocks_free_when_last_request_drains(
        self, seeded_store, bodies
    ):
        """After a swap, the old generation's compiled blocks live only as
        long as a request still holds that generation."""
        store, v1 = seeded_store
        service = TranslationService(
            ServiceConfig(port=0, ruleset_store=str(store.root))
        )
        response = asyncio.run(
            service.handle_request({"id": 1, "op": "run", "benchmark": "mcf"})
        )
        assert response["ok"]
        held = service._generation  # as a request still running on v1 would
        (task,) = held.tables.values()
        block = weakref.ref(next(iter(task.result().entries.values())).compiled)
        del task
        store.publish(bodies[1])
        assert service.reload_ruleset()["swapped"]
        assert block() is not None
        gc.disable()  # freed by reference counting, not a later collection
        try:
            del held
            assert block() is None
        finally:
            gc.enable()


class TestPoolReload:
    def test_all_workers_converge(self, tmp_path, bodies, mcf_reference):
        """A real 2-worker pool with watchers: after a publish, stats'
        pool aggregate reports every worker on the new version, with
        oracle-verified traffic running throughout."""
        from tests.test_service_pool import Conn, _boot

        store = RulesetStore(tmp_path / "rulesets")
        v1 = store.publish(bodies[0]).version
        handle = _boot(
            tmp_path,
            workers=2,
            name="reload-pool",
            extra=(
                "--ruleset-store",
                str(store.root),
                "--watch-interval",
                "0.1",
            ),
        )
        errors, divergences = [], []
        try:
            conns = [Conn(handle.port) for _ in range(4)]
            for i, conn in enumerate(conns):
                _check_run(
                    conn.request({"id": i, "op": "run", "benchmark": "mcf"}),
                    mcf_reference,
                    errors,
                    divergences,
                )
            v2 = store.publish(bodies[1]).version
            deadline = time.monotonic() + 60.0
            versions = {}
            while time.monotonic() < deadline:
                for i, conn in enumerate(conns):
                    _check_run(
                        conn.request(
                            {"id": f"r{i}", "op": "run", "benchmark": "mcf"}
                        ),
                        mcf_reference,
                        errors,
                        divergences,
                    )
                stats = conns[0].request({"id": "s", "op": "stats"})
                assert stats["ok"], stats
                versions = stats["result"]["pool"]["aggregate"]["ruleset_versions"]
                if versions == {v2: 2}:
                    break
                time.sleep(0.1)
            assert versions == {v2: 2}, f"pool did not converge: {versions}"
            assert errors == []
            assert divergences == []
            for conn in conns:
                conn.close()
        finally:
            assert handle.terminate() == 0
        assert "drained cleanly" in handle.log_text()
