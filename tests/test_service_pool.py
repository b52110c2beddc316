"""Concurrency battery for the pre-fork worker pool (``serve --workers N``).

Every test here boots the real thing — ``python -m repro.cli serve`` as a
subprocess, parent + forked workers accepting on one shared socket — and
attacks it the way production does:

* sustained oracle-verified load across 4 workers (every ``run`` snapshot
  diffed against the reference interpreter; zero divergences tolerated);
* a cold-start stampede of identical requests across two workers, each of
  which translates and compiles the blocks it serves, all answering alike;
* SIGKILL of a worker mid-session: the parent respawns it, sibling
  workers' connections keep answering, and the exit accounting in
  ``pool.json`` records the crash;
* SIGKILL of the parent: every orphaned worker drains and exits on its own;
* SIGTERM of the parent with a request in flight: fan-out drain, the
  in-flight response still arrives, exit code 0 — the single-process
  drain contract (PR 5) preserved under the pool;
* a Hypothesis property: random request interleavings across the
  2-worker pool are byte-identical to the single-process server's
  responses.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

_LISTEN_RE = re.compile(r"listening on [^:]+:(\d+)")
_READY_RE = re.compile(r"worker (\d+) ready \(pid=(\d+)\)")


class PoolHandle:
    """A booted serve subprocess plus its parsed log state."""

    def __init__(self, proc, log_path: Path, pool_dir: Path) -> None:
        self.proc = proc
        self.log_path = log_path
        self.pool_dir = pool_dir
        self.port: int = 0

    def log_text(self) -> str:
        try:
            return self.log_path.read_text()
        except OSError:
            return ""

    def await_log(self, predicate, timeout: float = 180.0, what: str = "pattern"):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log_text()
            value = predicate(text)
            if value:
                return value
            if self.proc.poll() is not None:
                raise AssertionError(
                    f"server exited (code {self.proc.returncode}) before "
                    f"{what}:\n{text}"
                )
            time.sleep(0.05)
        raise AssertionError(f"timed out waiting for {what}:\n{self.log_text()}")

    def worker_pids(self) -> dict:
        """index -> pid of the most recently announced worker per index."""
        pids = {}
        for index, pid in _READY_RE.findall(self.log_text()):
            pids[int(index)] = int(pid)
        return pids

    def pool_file(self) -> dict:
        return json.loads((self.pool_dir / "pool.json").read_text())

    def terminate(self, timeout: float = 120.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


def _boot(
    tmp_path: Path,
    workers: int,
    name: str,
    handlers: int = 4,
    extra: tuple = (),
) -> PoolHandle:
    log_path = tmp_path / f"{name}.log"
    pool_dir = tmp_path / f"{name}-pool"
    env = dict(
        os.environ,
        PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--port",
        "0",
        "--workers",
        str(workers),
        "--handlers",
        str(handlers),
    ]
    argv += list(extra)
    if workers > 1:
        argv += ["--pool-dir", str(pool_dir)]
    with open(log_path, "w") as log_handle:
        proc = subprocess.Popen(
            argv, stdout=log_handle, stderr=subprocess.STDOUT, env=env
        )
    handle = PoolHandle(proc, log_path, pool_dir)
    match = handle.await_log(
        lambda text: _LISTEN_RE.search(text), what="listening banner"
    )
    handle.port = int(match.group(1))
    if workers > 1:
        handle.await_log(
            lambda text: len(_READY_RE.findall(text)) >= workers or None,
            what=f"{workers} ready workers",
        )
    return handle


# ---------------------------------------------------------------------------
# blocking JSON-lines client helpers


class Conn:
    """One persistent client connection (blocking sockets; test-side only)."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.file = self.sock.makefile("rb")

    def request_raw(self, obj: dict) -> bytes:
        self.sock.sendall((json.dumps(obj) + "\n").encode("utf-8"))
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def request(self, obj: dict) -> dict:
        return json.loads(self.request_raw(obj))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _request(port: int, obj: dict) -> dict:
    conn = Conn(port)
    try:
        return conn.request(obj)
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# sustained verified load + cross-process stats aggregation + drain


class TestPoolUnderLoad:
    def test_loadgen_stats_sweep_and_drain(self, tmp_path):
        from repro.service.loadgen import (
            LoadgenOptions,
            check_loadgen_report,
            check_sweep_report,
            run_loadgen,
            run_sweep,
        )

        pool = _boot(tmp_path, workers=4, name="load4")
        try:
            options = LoadgenOptions(
                port=pool.port,
                concurrency=6,
                duration=3.0,
                seed=11,
                fuzz_programs=2,
                benchmarks=("mcf",),
            )
            payload = run_loadgen(options)
            assert payload["requests"]["ok"] > 0
            assert payload["requests"]["errors"] == 0, payload["error_samples"]
            assert payload["oracle"]["runs_checked"] > 0
            assert payload["oracle"]["divergences"] == 0, (
                payload["oracle"]["divergence_samples"]
            )
            ok, message = check_loadgen_report(payload)
            assert ok, message

            # saturation sweep against the same pool: the curve must be
            # clean (0 errors, 0 divergences) at every client count
            sweep = run_sweep(
                LoadgenOptions(
                    port=pool.port,
                    duration=1.0,
                    seed=5,
                    fuzz_programs=1,
                    benchmarks=("mcf",),
                ),
                clients=[1, 4],
            )
            assert [p["clients"] for p in sweep["saturation"]] == [1, 4]
            ok, message = check_sweep_report(sweep)
            assert ok, message

            # cross-process stats aggregation: one request shows the pool
            time.sleep(1.0)  # let every worker's periodic flush land
            stats = _request(pool.port, {"id": "s", "op": "stats"})["result"]
            assert stats["worker"]["index"] in range(4)
            pool_section = stats["pool"]
            assert len(pool_section["workers"]) == 4
            assert len(pool_section["parent"]["workers"]) == 4
            aggregate = pool_section["aggregate"]
            assert aggregate["requests_total"] >= payload["requests"]["ok"]
            assert aggregate["endpoints"]["run"]["count"] > 0

            # SIGTERM fan-out: every worker drains, parent exits 0
            assert pool.terminate() == 0
            text = pool.log_text()
            assert text.count("drained cleanly (pid=") == 4
            assert "pool drained cleanly" in text
        finally:
            pool.kill()


# ---------------------------------------------------------------------------
# cold-start stampede: identical cold translates across workers agree


class TestColdStartStampede:
    def test_concurrent_identical_translates_agree(self, tmp_path):
        import concurrent.futures

        pool = _boot(tmp_path, workers=2, name="stampede")
        try:
            request = {"op": "translate", "benchmark": "libquantum"}
            with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool_ex:
                responses = list(
                    pool_ex.map(
                        lambda i: _request(
                            pool.port, dict(request, id=f"c{i}")
                        ),
                        range(6),
                    )
                )
            assert all(r["ok"] for r in responses), responses
            blocks = responses[0]["result"]["blocks"]
            assert blocks > 0
            assert all(r["result"]["blocks"] == blocks for r in responses)
            assert all(
                r["result"] == responses[0]["result"] for r in responses
            )
            # workers keep compiled blocks in memory only
            assert not (pool.pool_dir / "codecache").exists()
            assert pool.terminate() == 0
        finally:
            pool.kill()


# ---------------------------------------------------------------------------
# worker crash: respawn, sibling isolation, exit accounting, then drain


class TestWorkerCrash:
    def test_sigkill_respawn_and_graceful_drain(self, tmp_path):
        pool = _boot(tmp_path, workers=2, name="crash")
        conns = []
        try:
            ready_pids = set(pool.worker_pids().values())
            assert len(ready_pids) == 2

            # Map persistent connections to the worker pid serving them.
            by_pid = {}
            for i in range(8):
                conn = Conn(pool.port)
                conns.append(conn)
                response = conn.request({"id": f"m{i}", "op": "stats"})
                by_pid.setdefault(response["result"]["pid"], []).append(conn)
            assert set(by_pid) <= ready_pids

            # Kill a worker that serves none of our connections if there is
            # one (the idle sibling), else any one of them; either way some
            # held connections survive on the other worker.
            idle = ready_pids - set(by_pid)
            victim = idle.pop() if idle else sorted(
                by_pid, key=lambda pid: len(by_pid[pid])
            )[0]
            survivors = [
                c for pid, cs in by_pid.items() if pid != victim for c in cs
            ]
            assert survivors, "need at least one connection on a survivor"
            os.kill(victim, signal.SIGKILL)

            # Parent reaps and respawns: a new ready line for the same index
            pool.await_log(
                lambda text: "respawning" in text or None, what="respawn notice"
            )
            pool.await_log(
                lambda text: len(_READY_RE.findall(text)) >= 3 or None,
                what="respawned worker ready",
            )
            new_pids = set(pool.worker_pids().values())
            assert len(new_pids - ready_pids) == 1  # one fresh pid

            # Exit accounting: the crash is recorded with its signal
            accounting = pool.pool_file()
            crash_exits = [
                e for e in accounting["exits"] if e["pid"] == victim
            ]
            assert len(crash_exits) == 1
            assert crash_exits[0]["signal"] == signal.SIGKILL
            assert crash_exits[0]["respawned"] is True
            assert accounting["respawns"] == 1
            assert len(accounting["workers"]) == 2

            # In-flight clients on the sibling were untouched
            for i, conn in enumerate(survivors):
                response = conn.request({"id": f"p{i}", "op": "ping"})
                assert response["ok"], response
            # ... and fresh connections reach the recovered pool
            assert _request(pool.port, {"id": "f", "op": "ping"})["ok"]

            # Now the PR-5 drain contract under the pool: send a run, then
            # SIGTERM the parent while it may still be in flight — the
            # response must arrive and the pool must exit 0.
            runner = survivors[0]
            runner.sock.sendall(
                (json.dumps({"id": "inflight", "op": "run", "benchmark": "mcf"}) + "\n").encode()
            )
            time.sleep(0.2)
            pool.proc.send_signal(signal.SIGTERM)
            response = json.loads(runner.file.readline())
            assert response["id"] == "inflight" and response["ok"], response
            assert pool.proc.wait(timeout=120) == 0
            text = pool.log_text()
            assert text.count("drained cleanly (pid=") == 2
            assert "pool drained cleanly" in text
        finally:
            for conn in conns:
                conn.close()
            pool.kill()


def _alive(pid: int) -> bool:
    """Is *pid* a live process?  An unreaped zombie counts as exited."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestParentDeath:
    def test_workers_exit_after_parent_sigkill(self, tmp_path):
        pool = _boot(tmp_path, workers=2, name="orphan")
        workers = set(pool.worker_pids().values())
        assert len(workers) == 2
        try:
            pool.kill()  # SIGKILL: the parent gets no chance to fan out
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(map(_alive, workers)):
                time.sleep(0.05)
            assert not any(map(_alive, workers)), pool.log_text()
            assert pool.log_text().count("lost its parent; draining") == 2
        finally:
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


# ---------------------------------------------------------------------------
# property: pool responses byte-identical to the single-process server


#: deterministic request specs (no stats/ping — those answer with
#: uptime/pid, which legitimately differ per process).
_OP_SPECS = (
    {"op": "translate", "benchmark": "mcf"},
    {"op": "coverage", "benchmark": "mcf"},
    {"op": "run", "benchmark": "mcf"},
    {"op": "run", "program": ["mov r0, #7", "add r0, r0, #5", "bx lr"]},
    {"op": "translate", "benchmark": "astar"},
)


# Both equivalence servers chain blocks: each run gets fresh chain maps,
# so a response is a pure function of its request, however many runs the
# process served before, which is exactly the property under test.


@pytest.fixture(scope="module")
def solo_server(tmp_path_factory):
    handle = _boot(
        tmp_path_factory.mktemp("solo"),
        workers=1,
        name="solo",
    )
    yield handle
    handle.kill()


@pytest.fixture(scope="module")
def pool_server(tmp_path_factory):
    handle = _boot(
        tmp_path_factory.mktemp("pool2"),
        workers=2,
        name="pool2",
    )
    yield handle
    handle.kill()


class TestPoolEquivalenceProperty:
    _solo_memo: dict = {}

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        steps=st.lists(
            st.tuples(
                st.integers(0, len(_OP_SPECS) - 1), st.integers(0, 1)
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_interleavings_byte_identical_to_single_process(
        self, solo_server, pool_server, steps
    ):
        """Any interleaving of requests across two pool connections (each
        possibly served by a different OS process) yields exactly the bytes
        the single-process server produces for the same requests."""
        conns = [Conn(pool_server.port), Conn(pool_server.port)]
        try:
            for op_index, conn_index in steps:
                request = dict(_OP_SPECS[op_index], id=f"op{op_index}")
                pool_raw = conns[conn_index].request_raw(request)
                solo_raw = self._solo_memo.get(op_index)
                if solo_raw is None:
                    solo_raw = _request_raw(solo_server.port, request)
                    self._solo_memo[op_index] = solo_raw
                assert pool_raw == solo_raw, (
                    f"divergent bytes for {request}:\n"
                    f"pool: {pool_raw!r}\nsolo: {solo_raw!r}"
                )
        finally:
            for conn in conns:
                conn.close()


def _request_raw(port: int, obj: dict) -> bytes:
    conn = Conn(port)
    try:
        return conn.request_raw(obj)
    finally:
        conn.close()
