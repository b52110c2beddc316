"""The closed-loop ``serve`` workload.

One generator (this process) drives a freshly booted single-worker
``repro serve --training full`` over two connections.  Each connection
sends its next request when the previous answer arrives, as two callers
that wait for their replies would.  Requests are ``run`` and ``translate``
in the proportion of ``repro.service.loadgen.MIX``, over a seeded
population of never-seen programs sent as assembly lines, each program
drawn equally often (loadgen draws its benchmarks uniformly too).  Before
the measured phase every program is translated once, so the phase starts
from a warm cache.

An open loop at ~40% of capacity was tried first: on the shared 2-vCPU
host one stall delayed every request queued behind it, and ``op_p90_ms``
spread 0.3-0.4 across seeds, above any usable bound.

Every response is checked: ``run`` snapshots against the reference
interpreter, ``translate`` block counts against the program's block map.
Error responses, refusals, mismatches and client timeouts all fail.

``setup_s`` is the median of three boots, each timed from spawning the
server to its first ``ping`` answer; the third server serves the run.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness
from corpus import Program, program_rounds
from harness import END_TO_END, PER_LAYER, Calibration, OpLog, percentile, ratio
from repro.service.loadgen import MIX, _normalize_snapshot

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Population: POPULATION_ROUNDS rounds of one variant per stand-in profile
#: (~3,500 blocks, inside the 4,096-entry code cache).
POPULATION_ROUNDS = 2
#: loadgen's ``translate`` weight over its weights of the ops that translate
#: or run a program (15 / 80).
TRANSLATE_SHARE = dict(MIX)["translate"] / sum(
    weight for kind, weight in MIX if kind in ("run-bench", "run-fuzz", "translate")
)
CONNECTIONS = 2
#: Every run completes at least this many requests; the deterministic
#: metrics come from the run responses among the first MIN_REQUESTS.
MIN_REQUESTS = 120
#: Length of the seeded request list the connections walk (cyclically).
REQUEST_LIST = 1200
#: The measured phase runs in slices of this many seconds.  Between slices,
#: with no request in flight, the calibration kernel runs CAL_SAMPLES times.
SLICE_S = 1.0
CAL_SAMPLES = 20
STAGE = "condition"
BOOT_TIMEOUT = 120.0
CLIENT_TIMEOUT = 60.0
#: Client-side line limit; run answers carry whole memory snapshots.
LINE_LIMIT = 1 << 24
SERVER_ARGS = ("--workers", "1", "--training", "full", "--port", "0")


# -- server process ------------------------------------------------------------


class Server:
    """One server subprocess: boot, ping, peak memory, graceful stop."""

    def __init__(self, spans_path: Optional[str] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["REPRO_CACHE_DISABLE"] = "1"
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *SERVER_ARGS]
        else:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"), spans_path, *SERVER_ARGS]
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = re.search(r"listening on [^ ]+:(\d+)", line)
                if match:
                    return int(match.group(1))
        self.stop()
        raise RuntimeError("server did not start listening")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """One client connection with at most one request in flight."""

    @classmethod
    async def open(cls, port: int) -> "Connection":
        conn = cls()
        conn.reader, conn.writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=LINE_LIMIT
        )
        return conn

    async def send(self, ident: str, body: bytes) -> Tuple[float, Dict]:
        """Send *body* (one encoded request, no id) as *ident*.

        Returns the seconds until the answer's line arrived, and the answer.
        """
        sent = time.perf_counter()
        self.writer.write(b'{"id":' + json.dumps(ident).encode() + b"," + body[1:])
        await self.writer.drain()
        line = await asyncio.wait_for(self.reader.readline(), CLIENT_TIMEOUT)
        received = time.perf_counter()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = json.loads(line)
        if reply.get("id") != ident:
            raise ConnectionError(f"answer id {reply.get('id')!r} for request {ident!r}")
        return received - sent, reply

    async def call(self, ident: str, message: Dict) -> Dict:
        return (await self.send(ident, _encode(message)))[1]

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def _encode(message: Dict) -> bytes:
    return (json.dumps(message) + "\n").encode()


async def _ping(port: int) -> Dict:
    conn = await Connection.open(port)
    try:
        return await conn.call("boot", {"op": "ping"})
    finally:
        await conn.close()


def boot(spans_path: Optional[str] = None) -> Server:
    """A server that has answered its first ``ping``."""
    server = Server(spans_path)
    try:
        reply = asyncio.run(_ping(server.port))
        if not reply.get("ok"):
            raise RuntimeError(f"server ping failed: {reply}")
    except BaseException:
        server.stop()
        raise
    return server


# -- load generation ------------------------------------------------------------


def population(seed: int) -> List[Program]:
    """One fresh variant of every stand-in profile per round."""
    return [p for rnd in program_rounds(seed, POPULATION_ROUNDS) for p in rnd]


def schedule(seed: int, size: int, total: int = REQUEST_LIST) -> List[Tuple[str, int]]:
    """Seeded request list: (op, population index).

    Every program gets the same share of the list and ``translate`` its
    exact share; only the order is drawn from the seed, so runs differ in
    the programs, not the mix.
    """
    picks = [n % size for n in range(total)]
    translates = round(total * TRANSLATE_SHARE)
    ops = ["translate"] * translates + ["run"] * (total - translates)
    rng = random.Random(seed)
    rng.shuffle(picks)
    rng.shuffle(ops)
    return list(zip(ops, picks))


def _verdict(program: Program, op: str, reply: Dict) -> Optional[str]:
    """Why a response is wrong, or None."""
    if not reply.get("ok"):
        return f"{op} {program.name}: error {reply.get('error')}"
    result = reply["result"]
    if op == "translate":
        if result["blocks"] != program.blocks:
            return f"translate {program.name}: {result['blocks']} blocks != {program.blocks}"
        return None
    why = program.mismatch(_normalize_snapshot(result["snapshot"]))
    return None if why is None else f"run {program.name}: {why}"


async def _drive(
    port: int, programs: List[Program], requests, seconds: float, log: OpLog,
    cal: Calibration,
) -> Dict:
    """Warm the cache, then run the closed loop; return phase data.

    The loop runs in slices of ``SLICE_S``: each connection stops sending
    when its slice is over, and once both answers are in, the calibration
    kernel runs between slices, so it never shares the machine with a
    timed request.  ``wall`` is the summed duration of the slices.
    """
    bodies = {
        (op, i): _encode({"op": op, "stage": STAGE, "program": p.assembly()})
        for i, p in enumerate(programs)
        for op in ("run", "translate")
    }
    conns = [await Connection.open(port) for _ in range(CONNECTIONS)]
    try:
        for i, program in enumerate(programs):
            _, reply = await conns[0].send(f"w-{i}", bodies[("translate", i)])
            why = _verdict(program, "translate", reply)
            if why is not None:
                raise RuntimeError(f"warm-up failed: {why}")
        before = (await conns[0].call("s-0", {"op": "stats"}))["result"]
        records: List = []
        counter = iter(range(1 << 30))
        wall = 0.0

        async def caller(conn: Connection, slice_start: float) -> None:
            while True:
                now = time.perf_counter()
                if now - slice_start >= SLICE_S:
                    return
                n = next(counter)
                if n >= MIN_REQUESTS and wall + now - slice_start >= seconds:
                    return
                op, index = requests[n % len(requests)]
                try:
                    outcome = await conn.send(f"m-{n}", bodies[(op, index)])
                except (asyncio.TimeoutError, ConnectionError) as exc:
                    outcome = exc
                records.append((n, op, index, outcome))

        while wall < seconds or len(records) < MIN_REQUESTS:
            slice_start = time.perf_counter()
            await asyncio.gather(*(caller(conn, slice_start) for conn in conns))
            wall += time.perf_counter() - slice_start
            cal.sample(CAL_SAMPLES)
        after = (await conns[0].call("s-1", {"op": "stats"}))["result"]
    finally:
        for conn in conns:
            await conn.close()
    guest = covered = host = 0.0
    for n, op, index, outcome in sorted(records, key=lambda r: r[0]):
        program = programs[index]
        if isinstance(outcome, BaseException):
            log.fail(f"{op} {program.name}: {type(outcome).__name__}: {outcome}")
            continue
        latency, reply = outcome
        why = _verdict(program, op, reply)
        if why is not None:
            log.fail(why)
            continue
        log.ok(latency)
        if op == "run" and n < MIN_REQUESTS:
            metrics = reply["result"]["metrics"]
            guest += metrics["guest_dynamic"]
            covered += metrics["coverage"] * metrics["guest_dynamic"]
            host += metrics["total_ratio"] * metrics["guest_dynamic"]
    cache = {
        key: after["code_cache"][key] - before["code_cache"][key]
        for key in ("hits", "misses", "compiles", "evictions", "coalesced")
    }
    return {
        "wall": wall,
        "coverage": ratio(covered, guest),
        "host_ratio": ratio(host, guest),
        "derived": after["ruleset"]["rules"]["derived"],
        "cache": cache,
    }


def serve_workload(seed: int, seconds: float, trace: bool):
    programs = population(seed)
    requests = schedule(seed, len(programs))
    log = OpLog()
    cal = Calibration()
    if trace:
        return _traced(programs, requests, seconds, log, cal)
    boots = []
    for attempt in range(harness.SETUP_REPEATS):
        started = time.perf_counter()
        server = boot()
        boots.append(time.perf_counter() - started)
        if attempt < harness.SETUP_REPEATS - 1:
            server.stop()
    try:
        phase = asyncio.run(_drive(server.port, programs, requests, seconds, log, cal))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    latencies_ms = [s * 1000.0 for s in log.latencies]
    values = {
        "setup_s": statistics.median(boots),
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_p90_ms": percentile(latencies_ms, 90),
        "work_per_s": ratio(len(log.latencies), phase["wall"]),
        "guest_coverage": phase["coverage"],
        "host_insns_per_guest": phase["host_ratio"],
        "derived_rules": phase["derived"],
        "peak_rss_mb": rss,
    }
    return log, harness.at_reference_speed(values, END_TO_END, cal), END_TO_END


def _traced(programs, requests, seconds: float, log: OpLog, cal: Calibration):
    """Serve under the tracing launcher; attribute client latency to layers."""
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    fd, spans_path = tempfile.mkstemp(dir=str(tmp), suffix=".json")
    os.close(fd)
    try:
        server = boot(spans_path)
        try:
            phase = asyncio.run(_drive(server.port, programs, requests, seconds, log, cal))
        finally:
            server.stop()
        with open(spans_path) as handle:
            report = json.load(handle)
    finally:
        os.unlink(spans_path)
    spans = report["spans"]
    handle_total = report["handle"][1]
    loop_layers = ("service.protocol.encode", "service.protocol.decode")
    executor_roots = sum(row[3] for layer, row in spans.items() if layer not in loop_layers)
    loop_self = sum(spans.get(layer, [0, 0.0, 0.0, 0.0])[2] for layer in loop_layers)
    latency_sum = sum(log.latencies)
    cache = phase["cache"]
    extra = {
        "service.server.handle_s": handle_total - executor_roots,
        "service.server.execute_s": spans.get("service.server.execute", [0, 0.0])[1],
        "service.server.wait_s": latency_sum - handle_total - loop_self,
        "service.codecache.hit_ratio": ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "service.codecache.compiles": cache["compiles"],
        "service.codecache.evictions": cache["evictions"],
        "service.codecache.coalesced": cache["coalesced"],
    }
    values = harness.layer_metrics(
        report, latency_sum, report["memo"], report["trace_stats"], 0.0, extra
    )
    # Handler self time and wait are both residuals of the latency sum, so
    # serve leaves nothing unattributed by construction.
    values["unattributed_s"] = (
        latency_sum
        - sum(row[2] for row in spans.values())
        - extra["service.server.handle_s"]
        - extra["service.server.wait_s"]
    )
    return log, harness.at_reference_speed(values, PER_LAYER, cal), PER_LAYER
