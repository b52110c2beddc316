"""Load-generation client for the translation service (``repro loadgen``).

Drives ``--concurrency`` independent TCP connections against a running
``repro serve`` for ``--duration`` seconds with a seeded, weighted request
mix (benchmark runs, fuzzed-program runs, translates, coverage, stats),
and writes ``BENCH_service.json``.

Two hard guarantees make the numbers trustworthy:

* **oracle verification** — every successful ``run`` response's
  architectural snapshot is diffed against the in-process reference
  interpreter (:class:`~repro.dbt.guest_interp.GuestInterpreter`, the same
  oracle the differential fuzzer trusts); any mismatch is recorded as a
  divergence and fails the check;
* **closed error accounting** — every response is either ok, a retryable
  backpressure/drain rejection (backed off and counted), or an error;
  :func:`check_loadgen_report` only passes on zero errors and zero
  divergences.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import subprocess
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service import protocol
from repro.service.stats import EndpointStats, LatencyHistogram

#: benchmarks driven by default (small, with distinct control-flow shapes).
DEFAULT_BENCHMARKS: Tuple[str, ...] = ("mcf", "libquantum", "astar")

#: Schema stamp of a report's ``meta`` block; bump when the report's
#: structure changes incompatibly.
REPORT_SCHEMA_VERSION = 1

#: (request kind, weight) — the traffic mix.
MIX: Tuple[Tuple[str, int], ...] = (
    ("run-bench", 45),
    ("run-fuzz", 20),
    ("translate", 15),
    ("coverage", 10),
    ("stats", 5),
    ("ping", 5),
)


@dataclass
class LoadgenOptions:
    host: str = "127.0.0.1"
    port: int = 9477
    concurrency: int = 8
    duration: float = 10.0
    seed: int = 0
    stage: str = "condition"
    out: str = "BENCH_service.json"
    request_timeout: float = 60.0
    #: fuzzed guest programs in the rotation (generated client-side with
    #: :class:`repro.difftest.gen.ProgramGenerator`, reference-validated).
    fuzz_programs: int = 6
    benchmarks: Tuple[str, ...] = DEFAULT_BENCHMARKS


def _normalize_snapshot(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Undo JSON's stringification of integer memory keys."""
    return {
        "regs": {name: int(value) for name, value in snapshot["regs"].items()},
        "flags": {name: int(value) for name, value in snapshot["flags"].items()},
        "memory": {
            int(addr): int(value) for addr, value in snapshot["memory"].items()
        },
    }


class _OracleBook:
    """Reference snapshots, computed once per program spec client-side."""

    def __init__(self) -> None:
        self._snapshots: Dict[Any, Dict[str, Any]] = {}

    def benchmark(self, name: str) -> Dict[str, Any]:
        key = ("benchmark", name)
        snap = self._snapshots.get(key)
        if snap is None:
            from repro.dbt.guest_interp import GuestInterpreter
            from repro.workloads import compiled_benchmark

            snap = (
                GuestInterpreter(compiled_benchmark(name).guest)
                .run()
                .architectural_snapshot()
            )
            self._snapshots[key] = snap
        return snap

    def program(self, lines: Tuple[str, ...]) -> Optional[Dict[str, Any]]:
        """Reference snapshot for raw lines, or None if the program is invalid."""
        key = ("program", lines)
        if key in self._snapshots:
            return self._snapshots[key]
        from repro.dbt.guest_interp import GuestInterpreter
        from repro.difftest.oracle import (
            MAX_REF_STEPS,
            InvalidProgram,
            assemble_program,
        )

        try:
            unit = assemble_program(list(lines))
            snap = (
                GuestInterpreter(unit)
                .run(max_steps=MAX_REF_STEPS)
                .architectural_snapshot()
            )
        except (InvalidProgram, Exception):  # noqa: B014 - any failure = invalid
            snap = None
        self._snapshots[key] = snap
        return snap


def _fuzz_pool(options: LoadgenOptions, oracle: _OracleBook) -> List[Tuple[str, ...]]:
    """Seeded pool of reference-valid fuzzed programs shared by all workers."""
    from repro.difftest.gen import ProgramGenerator

    generator = ProgramGenerator(options.seed)
    pool: List[Tuple[str, ...]] = []
    index = 0
    while len(pool) < options.fuzz_programs and index < options.fuzz_programs * 20:
        lines = generator.generate(index).lines
        if oracle.program(lines) is not None:
            pool.append(lines)
        index += 1
    return pool


@dataclass
class _Tally:
    """Shared mutable results (single event loop — no locking needed)."""

    ok: int = 0
    errors: int = 0
    backpressure_retries: int = 0
    timeouts: int = 0
    runs_checked: int = 0
    divergences: int = 0
    divergence_samples: List[str] = field(default_factory=list)
    error_samples: List[str] = field(default_factory=list)

    def note_error(self, sample: str) -> None:
        self.errors += 1
        if len(self.error_samples) < 10:
            self.error_samples.append(sample)

    def note_divergence(self, sample: str) -> None:
        self.divergences += 1
        if len(self.divergence_samples) < 10:
            self.divergence_samples.append(sample)


def _pick(rng: random.Random) -> str:
    total = sum(weight for _, weight in MIX)
    roll = rng.uniform(0, total)
    for kind, weight in MIX:
        roll -= weight
        if roll <= 0:
            return kind
    return MIX[-1][0]


def _phase_key(op: str, unit: Any, stage: str, seen: set) -> str:
    """``op:cold`` / ``op:warm`` per-endpoint histogram key.

    The first request the client issues for a (unit, stage) pair hits a
    server that has not translated it yet — that request pays the
    translate phase on top of the run phase.  Later requests for the same
    unit are served from the server's cached table.  Classification
    is client-side and at build time (a shared single-event-loop set), so
    it is an approximation under concurrent first requests — the server's
    single-flight translation makes all of those pay cold-start latency
    anyway, which is exactly what the cold bucket should capture.
    """
    key = (unit, stage)
    if key in seen:
        return f"{op}:warm"
    seen.add(key)
    return f"{op}:cold"


def _build_request(
    kind: str,
    ident: str,
    rng: random.Random,
    options: LoadgenOptions,
    fuzz_pool: List[Tuple[str, ...]],
    seen: set,
) -> Tuple[Dict[str, Any], Optional[Any], str]:
    """(request, oracle key, stats key) — oracle key None for unchecked ops.

    The stats key is the per-endpoint histogram bucket: translating ops
    (``run`` / ``translate``) are split into ``:cold`` / ``:warm`` phases
    so translate-phase latency reports separately from run-phase latency.
    """
    if kind == "run-bench" or (kind == "run-fuzz" and not fuzz_pool):
        name = rng.choice(options.benchmarks)
        return (
            {"id": ident, "op": "run", "benchmark": name, "stage": options.stage},
            ("benchmark", name),
            _phase_key("run", ("benchmark", name), options.stage, seen),
        )
    if kind == "run-fuzz":
        lines = fuzz_pool[rng.randrange(len(fuzz_pool))]
        return (
            {
                "id": ident,
                "op": "run",
                "program": list(lines),
                "stage": options.stage,
            },
            ("program", lines),
            _phase_key("run", ("program", lines), options.stage, seen),
        )
    if kind == "translate":
        name = rng.choice(options.benchmarks)
        return (
            {
                "id": ident,
                "op": "translate",
                "benchmark": name,
                "stage": options.stage,
            },
            None,
            _phase_key("translate", ("benchmark", name), options.stage, seen),
        )
    if kind == "coverage":
        name = rng.choice(options.benchmarks)
        return (
            {
                "id": ident,
                "op": "coverage",
                "benchmark": name,
                "stage": options.stage,
            },
            None,
            "coverage",
        )
    if kind == "stats":
        return {"id": ident, "op": "stats"}, None, "stats"
    return {"id": ident, "op": "ping"}, None, "ping"


async def _worker(
    wid: int,
    options: LoadgenOptions,
    deadline: float,
    tally: _Tally,
    endpoint_stats: EndpointStats,
    overall: LatencyHistogram,
    oracle: _OracleBook,
    fuzz_pool: List[Tuple[str, ...]],
    seen_units: set,
) -> None:
    from repro.difftest.oracle import diff_snapshots

    try:
        reader, writer = await asyncio.open_connection(
            options.host, options.port, limit=protocol.MAX_LINE_BYTES
        )
    except OSError as exc:
        tally.note_error(f"worker {wid}: connect failed: {exc}")
        return
    rng = random.Random((options.seed + 1) * 7919 + wid)
    sequence = 0
    try:
        while time.monotonic() < deadline:
            sequence += 1
            ident = f"w{wid}-{sequence}"
            kind = _pick(rng)
            request, oracle_key, stats_key = _build_request(
                kind, ident, rng, options, fuzz_pool, seen_units
            )
            op = request["op"]
            started = time.perf_counter()
            try:
                writer.write(protocol.encode(request))
                await writer.drain()
                raw = await asyncio.wait_for(
                    reader.readline(), options.request_timeout
                )
            except asyncio.TimeoutError:
                tally.timeouts += 1
                tally.note_error(f"{ident} ({op}): client-side timeout")
                break  # this connection is now desynchronized; stop it
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                tally.note_error(f"{ident} ({op}): connection lost: {exc}")
                break
            elapsed = time.perf_counter() - started
            if not raw:
                tally.note_error(f"{ident} ({op}): server closed the connection")
                break
            overall.observe(elapsed)
            try:
                response = json.loads(raw.decode("utf-8"))
            except ValueError as exc:
                endpoint_stats.observe(stats_key, elapsed, False)
                tally.note_error(f"{ident} ({op}): unparseable response: {exc}")
                continue
            if response.get("id") != ident:
                endpoint_stats.observe(stats_key, elapsed, False)
                tally.note_error(
                    f"{ident} ({op}): response id mismatch ({response.get('id')!r})"
                )
                continue
            if response.get("ok"):
                endpoint_stats.observe(stats_key, elapsed, True)
                tally.ok += 1
                if oracle_key is not None:
                    reference = (
                        oracle.benchmark(oracle_key[1])
                        if oracle_key[0] == "benchmark"
                        else oracle.program(oracle_key[1])
                    )
                    served = _normalize_snapshot(response["result"]["snapshot"])
                    divergence = (
                        diff_snapshots(reference, served)
                        if reference is not None
                        else None
                    )
                    tally.runs_checked += 1
                    if divergence is not None:
                        tally.note_divergence(
                            f"{ident} ({oracle_key}): {divergence.kind}: "
                            f"{divergence.detail}"
                        )
                continue
            error = response.get("error") or {}
            if error.get("retryable"):
                endpoint_stats.observe(stats_key, elapsed, True)
                tally.backpressure_retries += 1
                await asyncio.sleep(rng.uniform(0.005, 0.025))
                continue
            endpoint_stats.observe(stats_key, elapsed, False)
            tally.note_error(
                f"{ident} ({op}): {error.get('code')}: {error.get('message')}"
            )
    finally:
        with contextlib.suppress(Exception):
            writer.close()


async def _final_server_stats(options: LoadgenOptions) -> Optional[Dict[str, Any]]:
    """One last ``stats`` request so the report captures server-side truth."""
    try:
        reader, writer = await asyncio.open_connection(
            options.host, options.port, limit=protocol.MAX_LINE_BYTES
        )
        writer.write(protocol.encode({"id": "final-stats", "op": "stats"}))
        await writer.drain()
        raw = await asyncio.wait_for(reader.readline(), options.request_timeout)
        writer.close()
        response = json.loads(raw.decode("utf-8"))
        if response.get("ok"):
            return response["result"]
    except (OSError, ValueError, asyncio.TimeoutError):
        pass
    return None


async def run_loadgen_async(
    options: LoadgenOptions, log: Optional[Callable[[str], None]] = None
) -> Dict[str, Any]:
    """Drive the load, verify oracles, and return the report payload."""
    oracle = _OracleBook()
    if log is not None:
        log("precomputing reference snapshots ...")
    for name in options.benchmarks:
        oracle.benchmark(name)
    fuzz_pool = _fuzz_pool(options, oracle)
    if log is not None:
        log(
            f"driving {options.concurrency} clients for {options.duration:.1f}s "
            f"against {options.host}:{options.port} ..."
        )
    tally = _Tally()
    endpoint_stats = EndpointStats()
    overall = LatencyHistogram()
    # Shared cold/warm classification state: first builder of a request for
    # a (unit, stage) pair claims its cold slot (single event loop).
    seen_units: set = set()
    started = time.monotonic()
    deadline = started + options.duration
    await asyncio.gather(
        *(
            _worker(
                wid,
                options,
                deadline,
                tally,
                endpoint_stats,
                overall,
                oracle,
                fuzz_pool,
                seen_units,
            )
            for wid in range(options.concurrency)
        )
    )
    elapsed = time.monotonic() - started
    server_stats = await _final_server_stats(options)
    total = tally.ok + tally.errors + tally.backpressure_retries
    payload: Dict[str, Any] = {
        "harness": "repro loadgen",
        "options": asdict(options),
        "elapsed_seconds": round(elapsed, 3),
        "requests": {
            "total": total,
            "ok": tally.ok,
            "errors": tally.errors,
            "backpressure_retries": tally.backpressure_retries,
            "client_timeouts": tally.timeouts,
        },
        "throughput_rps": round(tally.ok / elapsed, 2) if elapsed else 0.0,
        "latency": {"overall": overall.summary(), "by_op": endpoint_stats.summary()},
        "oracle": {
            "runs_checked": tally.runs_checked,
            "divergences": tally.divergences,
            "divergence_samples": tally.divergence_samples,
        },
        "error_samples": tally.error_samples,
        "server_stats": server_stats,
    }
    return payload


def run_loadgen(
    options: LoadgenOptions, log: Optional[Callable[[str], None]] = None
) -> Dict[str, Any]:
    return asyncio.run(run_loadgen_async(options, log=log))


# ---------------------------------------------------------------------------
# Saturation sweep: clients vs latency/throughput curve


def sweep_point(clients: int, payload: Dict[str, Any]) -> Dict[str, Any]:
    """One saturation-curve point distilled from a full loadgen report."""
    latency = payload["latency"]["overall"]
    requests = payload["requests"]
    return {
        "clients": clients,
        "throughput_rps": payload["throughput_rps"],
        "p50_ms": latency["p50_ms"],
        "p95_ms": latency["p95_ms"],
        "p99_ms": latency["p99_ms"],
        "ok": requests["ok"],
        "errors": requests["errors"],
        "backpressure_retries": requests["backpressure_retries"],
        "runs_checked": payload["oracle"]["runs_checked"],
        "divergences": payload["oracle"]["divergences"],
    }


async def run_sweep_async(
    options: LoadgenOptions,
    clients: List[int],
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Drive the same server at each client count; return the curve.

    The oracle contract holds at every point — a divergence anywhere on the
    curve fails the sweep, so throughput numbers are never bought with
    correctness.
    """
    import dataclasses

    points: List[Dict[str, Any]] = []
    for count in clients:
        if log is not None:
            log(f"sweep: {count} clients ...")
        step = dataclasses.replace(options, concurrency=count)
        payload = await run_loadgen_async(step, log=None)
        points.append(sweep_point(count, payload))
    server_stats = await _final_server_stats(options)
    return {
        "harness": "repro loadgen --sweep",
        "options": asdict(options),
        "clients": list(clients),
        "saturation": points,
        "server_stats": server_stats,
    }


def run_sweep(
    options: LoadgenOptions,
    clients: List[int],
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    return asyncio.run(run_sweep_async(options, clients, log=log))


def render_sweep_report(payload: Dict[str, Any]) -> str:
    lines = [
        "saturation sweep (clients vs latency)",
        f"  {'clients':>7s} {'req/s':>8s} {'p50_ms':>8s} {'p95_ms':>8s} "
        f"{'p99_ms':>8s} {'errors':>6s} {'diverg':>6s}",
    ]
    for point in payload["saturation"]:
        lines.append(
            f"  {point['clients']:>7d} {point['throughput_rps']:>8.1f} "
            f"{point['p50_ms']:>8.1f} {point['p95_ms']:>8.1f} "
            f"{point['p99_ms']:>8.1f} {point['errors']:>6d} "
            f"{point['divergences']:>6d}"
        )
    return "\n".join(lines)


def check_sweep_report(payload: Dict[str, Any]) -> Tuple[bool, str]:
    """CI gate for a sweep: every point flowed traffic, zero errors or
    divergences anywhere on the curve."""
    points = payload.get("saturation") or []
    if not points:
        return False, "sweep produced no points"
    checked = sum(point["runs_checked"] for point in points)
    for point in points:
        if not point["ok"]:
            return False, f"{point['clients']} clients: no successful requests"
        if point["errors"]:
            return False, f"{point['clients']} clients: {point['errors']} errors"
        if point["divergences"]:
            return (
                False,
                f"{point['clients']} clients: {point['divergences']} divergences",
            )
    return True, (
        f"{len(points)}-point curve clean: {checked} snapshots "
        "oracle-verified, 0 errors, 0 divergences"
    )


def _commit_hash() -> str:
    """Current git commit, or ``"unknown"`` outside a work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def write_loadgen_report(payload: Dict[str, Any], path: str) -> None:
    """Write a load or sweep report, stamping a ``meta`` block into it.

    The meta block carries the report schema version, the git commit, a
    UTC timestamp and the CPU count the numbers were measured on.  Reports
    that captured the server's ``stats`` also get the serving ruleset's
    version and digest, so a report is attributable to the exact ruleset
    artifact it measured.  An explicit caller-supplied ``meta`` is never
    touched.
    """
    payload = dict(payload)
    if "meta" not in payload:
        meta: Dict[str, Any] = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "commit": _commit_hash(),
            "created_utc": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            # Throughput numbers are meaningless without the core count
            # they were measured on (a 1-core box cannot show pool speedup).
            "cpu_count": os.cpu_count() or 1,
        }
        server_stats = payload.get("server_stats")
        if isinstance(server_stats, dict):
            ruleset = server_stats.get("ruleset")
            if isinstance(ruleset, dict):
                meta["ruleset_version"] = ruleset.get("version")
                meta["ruleset_digest"] = ruleset.get("digest")
        payload["meta"] = meta
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_loadgen_report(payload: Dict[str, Any]) -> str:
    requests = payload["requests"]
    latency = payload["latency"]["overall"]
    oracle = payload["oracle"]
    lines = [
        "service load report",
        f"  duration          : {payload['elapsed_seconds']:.1f}s "
        f"x {payload['options']['concurrency']} clients",
        f"  requests          : {requests['total']} total, "
        f"{requests['ok']} ok, {requests['errors']} errors, "
        f"{requests['backpressure_retries']} backpressure retries",
        f"  throughput        : {payload['throughput_rps']:.1f} req/s",
        f"  latency (all ops) : p50 {latency['p50_ms']:.1f}ms  "
        f"p95 {latency['p95_ms']:.1f}ms  p99 {latency['p99_ms']:.1f}ms  "
        f"max {latency['max_ms']:.1f}ms",
        f"  oracle            : {oracle['runs_checked']} run snapshots checked, "
        f"{oracle['divergences']} divergences",
    ]
    for op, summary in sorted(payload["latency"]["by_op"].items()):
        lines.append(
            f"    {op:10s} n={summary['count']:<6d} "
            f"p50 {summary['p50_ms']:8.1f}ms  p95 {summary['p95_ms']:8.1f}ms  "
            f"p99 {summary['p99_ms']:8.1f}ms"
        )
    for sample in oracle["divergence_samples"]:
        lines.append(f"  DIVERGENCE: {sample}")
    for sample in payload["error_samples"]:
        lines.append(f"  ERROR: {sample}")
    return "\n".join(lines)


def check_loadgen_report(payload: Dict[str, Any]) -> Tuple[bool, str]:
    """CI gate: traffic flowed, zero protocol errors, zero divergences."""
    requests = payload["requests"]
    oracle = payload["oracle"]
    if not requests["ok"]:
        return False, "no successful requests completed"
    if requests["errors"]:
        return False, f"{requests['errors']} protocol/server errors"
    if oracle["divergences"]:
        return False, f"{oracle['divergences']} oracle divergences"
    return True, (
        f"{requests['ok']} ok requests at {payload['throughput_rps']:.1f} req/s, "
        f"{oracle['runs_checked']} snapshots oracle-verified, 0 divergences"
    )
