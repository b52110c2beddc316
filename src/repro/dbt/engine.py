"""The DBT engine: code cache + dispatch loop + correctness checking.

``DBTEngine`` emulates a compiled guest program the way user-mode QEMU
does: discover the basic block at the current guest PC, translate it (once —
translations are cached), execute the translated host code, read the next
guest PC from the environment, repeat until control reaches the halt
address.

Two execution backends share the code cache (``--backend`` on the CLI):

* ``interp`` — the per-instruction :class:`HostExecutor`.  Slow, simple,
  and the oracle every other backend is differentially tested against.
* ``jit`` — :mod:`repro.dbt.compiler` lowers each translated block to
  pre-bound Python closures (operands resolved at compile time, straight-
  line runs fused, no accounting in the generated code: each block's
  constant counts are multiplied by its execution count at run end).
  With ``chaining=True`` hot block edges transfer directly between
  compiled bodies without returning to this dispatch loop.

Each code-cache entry (:class:`CodeCacheEntry`) owns the translated block
*and* its backend artifacts — decoded defs for interp, the compiled body
for jit — so decode products can never outlive or alias their block (the
failure mode of the old ``id(tb)``-keyed defs cache in the executor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.dbt.block import BlockMap
from repro.dbt.compiler import CompiledBlock, compile_block
from repro.dbt.executor import BlockKernel, HostExecutor
from repro.dbt.guest_interp import GuestInterpreter
from repro.dbt.metrics import RunMetrics
from repro.dbt.runtime import (
    ENV_BASE,
    HALT_ADDRESS,
    env_flag_addr,
    env_pc_word,
    env_reg_addr,
    is_env_address,
)
from repro.dbt.trace import TRACE_STATS, CompiledTrace, TraceConfig, form_trace
from repro.dbt.translator import BlockTranslator, TranslatedBlock, TranslationConfig
from repro.errors import ExecutionError
from repro.lang.program import STACK_BASE, CompiledUnit
from repro.semantics.state import ConcreteState

DEFAULT_MAX_BLOCKS = 2_000_000

#: Execution backends accepted by :class:`DBTEngine`.
BACKENDS = ("interp", "jit", "trace")


@dataclass
class DBTRunResult:
    metrics: RunMetrics
    state: ConcreteState

    def guest_reg(self, name: str) -> int:
        return self.state.load(env_reg_addr(name))

    def guest_flag(self, name: str) -> int:
        return self.state.load(env_flag_addr(name))

    def guest_memory(self) -> Dict[int, int]:
        """Guest-visible memory (environment slots excluded)."""
        return {
            word_addr: value
            for word_addr, value in self.state.memory.items()
            if not is_env_address(word_addr * 4) and value
        }

    def architectural_snapshot(self) -> Dict[str, Dict]:
        """Final guest architectural state read out of the CPU environment.

        Normalized to the same shape as
        :meth:`repro.dbt.guest_interp.RunResult.architectural_snapshot` so a
        differential-testing oracle can diff the two directly.  Flags are
        included for diagnostics but may legitimately differ from the
        reference when they are dead at program exit (the translator never
        materializes dead guest flags).
        """
        regs = {f"r{i}": self.guest_reg(f"r{i}") for i in range(13)}
        regs["sp"] = self.guest_reg("sp")
        regs["lr"] = self.guest_reg("lr")
        return {
            "regs": regs,
            "flags": {f: self.guest_flag(f) for f in ("N", "Z", "C", "V")},
            "memory": self.guest_memory(),
        }


def _initial_state() -> ConcreteState:
    state = ConcreteState()
    state.reset_flags()
    for i in range(13):
        state.store(env_reg_addr(f"r{i}"), 0)
    state.store(env_reg_addr("sp"), STACK_BASE)
    state.store(env_reg_addr("lr"), HALT_ADDRESS)
    state.store(env_reg_addr("pc"), 0)
    for flag in ("N", "Z", "C", "V"):
        state.store(env_flag_addr(flag), 0)
    return state


@dataclass
class CodeCacheEntry:
    """One code-cache slot: the block plus its per-backend artifacts.

    The entry pins the :class:`TranslatedBlock` for as long as its decode
    products (``kernel``) and compiled body (``compiled``) are reachable, so
    recycled blocks can never alias another block's artifacts.
    """

    tb: TranslatedBlock
    kernel: BlockKernel
    compiled: Optional[CompiledBlock] = field(default=None)


class DBTEngine:
    """Dynamic binary translator for one guest binary + one configuration.

    ``chaining=True`` enables QEMU-style block chaining: once a control-flow
    edge between two translated blocks has been taken, its exit is patched
    to transfer directly to the successor, skipping the dispatch loop.  The
    paper treats chaining as a complementary optimization outside its scope
    (§V-B1); under the interp backend it is modelled (edges are tracked and
    counted, metrics reflect the dispatches saved), under the jit backend it
    is real (chained transfers call the successor's compiled body directly).

    ``backend`` selects the execution engine: ``"interp"`` (the oracle),
    ``"jit"`` (closure-compiled blocks, see :mod:`repro.dbt.compiler`), or
    ``"trace"`` (the jit block tier plus hot-cycle superblocks with
    side-exit guards, see :mod:`repro.dbt.trace`).  All produce
    byte-identical architectural state and metrics.
    """

    def __init__(
        self,
        unit: CompiledUnit,
        config: TranslationConfig,
        chaining: bool = False,
        backend: str = "interp",
        code_cache: Optional[Dict[int, CodeCacheEntry]] = None,
        trace_config: Optional[TraceConfig] = None,
        trace_source_cache=None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.unit = unit
        self.config = config
        self.chaining = chaining
        self.backend = backend
        #: ``code_cache`` may be injected: the serving layer pre-seeds an
        #: engine with entries compiled once (single-flight) and shared
        #: across requests for the same (program, stage), so a fresh engine
        #: pays zero translation for a warm program.
        self.code_cache: Dict[int, CodeCacheEntry] = (
            code_cache if code_cache is not None else {}
        )
        self._chained_edges: set = set()
        #: trace-tier state (``backend="trace"``): edge profile, live
        #: superblocks by head index, and heads proven not traceable.
        self.trace_config = trace_config or TraceConfig()
        #: optional diskcode adapter with ``get(starts)``/``put(starts, src)``
        #: so trace source generation is shared across processes.
        self.trace_source_cache = trace_source_cache
        self._edge_counts: Dict[Tuple[int, int], int] = {}
        self._traces: Dict[int, CompiledTrace] = {}
        self._trace_blacklist: set = set()
        #: edge profiling is on until ``profile_window`` transitions pass
        #: without a new trace forming; the countdown persists across runs
        #: so warm runs on a settled engine pay no profiling tax at all.
        self._profiling = True
        self._profile_countdown = self.trace_config.profile_window

    @cached_property
    def blockmap(self) -> BlockMap:
        """Built on the first code-cache miss: an engine over a pre-seeded
        cache (the serving layer's) never needs it."""
        return BlockMap(self.unit)

    @cached_property
    def translator(self) -> BlockTranslator:
        return BlockTranslator(self.unit, self.blockmap, self.config)

    def _entry(self, index: int, metrics: RunMetrics) -> CodeCacheEntry:
        entry = self.code_cache.get(index)
        if entry is None:
            tb = self.translator.translate(self.blockmap.block_at(index))
            entry = CodeCacheEntry(tb=tb, kernel=BlockKernel(tb))
            self.code_cache[index] = entry
            metrics.blocks_translated += 1
        return entry

    def _compiled(self, entry: CodeCacheEntry) -> CompiledBlock:
        cb = entry.compiled
        if cb is None:
            cb = compile_block(entry.tb, entry.kernel.defs)
            entry.compiled = cb
        return cb

    def run(
        self,
        entry: str = "fn_main",
        max_blocks: int = DEFAULT_MAX_BLOCKS,
        state: Optional[ConcreteState] = None,
        on_block=None,
    ) -> DBTRunResult:
        """Run to completion.

        ``on_block(tb, state)`` — if given — is invoked after every block
        execution with the translated block and the live machine state: an
        execution-trace hook for debugging and tooling.
        """
        state = state or _initial_state()
        metrics = RunMetrics(name=self.config.name)
        entry_label = self.unit.func_labels.get(entry, entry)
        pc_index = self.unit.labels[entry_label]
        if self.backend == "trace":
            self._run_trace(pc_index, max_blocks, state, metrics, on_block)
        elif self.backend == "jit":
            self._run_jit(pc_index, max_blocks, state, metrics, on_block)
        else:
            self._run_interp(pc_index, max_blocks, state, metrics, on_block)
        return DBTRunResult(metrics=metrics, state=state)

    def _run_interp(
        self,
        pc_index: int,
        max_blocks: int,
        state: ConcreteState,
        metrics: RunMetrics,
        on_block,
    ) -> None:
        executor = HostExecutor(state)
        pc_word = env_pc_word()
        memory = state.memory
        while True:
            if metrics.block_executions >= max_blocks:
                raise ExecutionError(f"exceeded {max_blocks} block executions")
            entry = self._entry(pc_index, metrics)
            tb = entry.tb
            executor.run_block(tb, metrics.host_counts, entry.kernel)
            metrics.account_block(tb.guest_count, tb.covered_count, tb.rule_agg)
            if on_block is not None:
                on_block(tb, state)
            next_addr = memory.get(pc_word, 0)
            if next_addr == HALT_ADDRESS:
                return
            if next_addr % 4:
                raise ExecutionError(f"misaligned guest PC {next_addr:#x}")
            next_index = next_addr // 4
            if self.chaining:
                edge = (pc_index, next_index)
                if edge in self._chained_edges:
                    metrics.chained_executions += 1
                else:
                    self._chained_edges.add(edge)
            pc_index = next_index

    def _run_jit(
        self,
        pc_index: int,
        max_blocks: int,
        state: ConcreteState,
        metrics: RunMetrics,
        on_block,
    ) -> None:
        chaining = self.chaining
        pc_word = env_pc_word()
        memory = state.memory
        host_counts = metrics.host_counts
        # Per-block execution counters, flushed into the metrics once the
        # run ends: the hot loop pays one dict increment per block instead
        # of re-walking rule aggregates on every execution.
        execs: Dict[CompiledBlock, int] = {}
        n_exec = 0
        n_chained = 0
        #: the compiled block whose just-taken exit edge should be patched to
        #: the successor the dispatch loop is about to look up.
        pending: Optional[CompiledBlock] = None
        try:
            while True:
                # Dispatch: code-cache lookup (+ lazy translate/compile).
                if n_exec >= max_blocks:
                    raise ExecutionError(
                        f"exceeded {max_blocks} block executions"
                    )
                cb = self._compiled(self._entry(pc_index, metrics))
                if pending is not None:
                    pending.chain[pc_index] = cb  # patch the hot exit edge
                    pending = None
                # Chained inner loop: direct block-to-block transfers.
                while True:
                    cb.execute(state, host_counts)
                    n_exec += 1
                    execs[cb] = execs.get(cb, 0) + 1
                    if on_block is not None:
                        on_block(cb.tb, state)
                    next_addr = memory.get(pc_word, 0)
                    if next_addr == HALT_ADDRESS:
                        return
                    if next_addr % 4:
                        raise ExecutionError(
                            f"misaligned guest PC {next_addr:#x}"
                        )
                    next_index = next_addr // 4
                    nxt = cb.chain.get(next_index)
                    if nxt is None:
                        if chaining:
                            pending = cb
                        pc_index = next_index
                        break
                    n_chained += 1
                    cb = nxt
                    if n_exec >= max_blocks:
                        raise ExecutionError(
                            f"exceeded {max_blocks} block executions"
                        )
        finally:
            metrics.block_executions += n_exec
            metrics.chained_executions += n_chained
            _fold_blocks(metrics, execs)

    def _run_trace(
        self,
        pc_index: int,
        max_blocks: int,
        state: ConcreteState,
        metrics: RunMetrics,
        on_block,
    ) -> None:
        """Tiered execution: profiled jit block tier + superblock traces.

        Metrics parity with the interp oracle is reconstructed exactly:
        a trace execution returning ``(iterations, exit_pos)`` accounts
        ``iterations`` full passes plus the partial prefix through
        ``exit_pos``, and *every* internal trace transfer counts as
        chained (each internal edge was necessarily traversed — and
        therefore registered — during profiling, so the interp backend
        would count it too).

        The loop runs in two phases.  While **profiling**, every block
        transition feeds the edge counters and the formation trigger, and
        chained-edge accounting uses the interp backend's seen-set model
        directly.  Once ``profile_window`` transitions pass without a new
        trace forming, the seen-set is synced into the compiled blocks'
        chain maps (patching a map entry on first traversal is exactly the
        seen-set model, so the counts stay byte-identical) and the loop
        drops into the **steady** phase: the jit tier's chained inner loop
        plus a trace-head check per transfer, with no profiling tax.
        """
        if on_block is not None:
            # Per-block hooks observe individual block executions; traces
            # fuse them away.  Correctness first: fall back to the jit tier.
            self._run_jit(pc_index, max_blocks, state, metrics, on_block)
            return
        tcfg = self.trace_config
        chaining = self.chaining
        pc_word = env_pc_word()
        memory = state.memory
        host_counts = metrics.host_counts
        edges = self._chained_edges
        edge_counts = self._edge_counts
        traces = self._traces
        blacklist = self._trace_blacklist
        cache_get = self.code_cache.get
        hot_threshold = tcfg.hot_threshold
        profiling = self._profiling
        countdown = self._profile_countdown
        execs: Dict[CompiledBlock, int] = {}
        n_exec = 0
        n_chained = 0
        # Per-trace run-end histograms: the generated trace code carries no
        # accounting at all, so every metric is reconstructed here from the
        # (iterations, exit_pos) pairs and the traces' translate-time
        # aggregate tables — a handful of dict increments per entry on the
        # hot path, one expansion pass per run in ``finally``.
        iter_hist: Dict[CompiledTrace, int] = {}
        entry_hist: Dict[CompiledTrace, int] = {}
        exit_hist: Dict[Tuple[CompiledTrace, int], int] = {}
        try:
            # -- profiling phase ------------------------------------------
            while profiling:
                if n_exec >= max_blocks:
                    raise ExecutionError(
                        f"exceeded {max_blocks} block executions"
                    )
                if countdown <= 0:
                    # Settled: no new trace formed for a full window.  The
                    # switch happens at the loop top, after the budget check
                    # passed, so the current block is guaranteed to run (or
                    # to raise at translation exactly as interp would) —
                    # which keeps the one possibly-untranslated seen-edge
                    # target the sync may translate early parity-safe.
                    profiling = False
                    edge_counts.clear()
                    if chaining:
                        self._sync_chain_maps(metrics)
                    break
                trace = traces.get(pc_index)
                if trace is not None and max_blocks - n_exec >= trace.length:
                    # The iteration budget keeps the block count within
                    # max_blocks exactly, so budget-exhaustion runs raise
                    # (or halt) precisely where the interp backend does.
                    iters, exit_pos = trace.fn(
                        state, (max_blocks - n_exec) // trace.length
                    )
                    executed = iters * trace.length + (
                        exit_pos + 1 if exit_pos >= 0 else 0
                    )
                    n_exec += executed
                    if chaining:
                        n_chained += executed - 1
                    iter_hist[trace] = iter_hist.get(trace, 0) + iters
                    entry_hist[trace] = entry_hist.get(trace, 0) + 1
                    if exit_pos >= 0:
                        key = (trace, exit_pos)
                        exit_hist[key] = exit_hist.get(key, 0) + 1
                        src = trace.block_indices[exit_pos]
                    else:
                        src = trace.block_indices[-1]
                    trace.window_entries += 1
                    trace.window_blocks += executed
                    if trace.window_entries >= tcfg.probation_entries:
                        if (
                            trace.window_blocks
                            < tcfg.min_mean_blocks * trace.window_entries
                        ):
                            # Pathological: entered over and over but guard
                            # exits almost immediately, covering next to
                            # nothing.  Retire for good.
                            del traces[pc_index]
                            blacklist.add(pc_index)
                            metrics.traces_retired += 1
                            TRACE_STATS.incr("retired")
                        else:
                            trace.window_entries = 0
                            trace.window_blocks = 0
                else:
                    entry = cache_get(pc_index)
                    if entry is None or entry.compiled is None:
                        entry = self._entry(pc_index, metrics)
                        cb = self._compiled(entry)
                    else:
                        cb = entry.compiled
                    cb.execute(state, host_counts)
                    n_exec += 1
                    execs[cb] = execs.get(cb, 0) + 1
                    src = pc_index
                next_addr = memory.get(pc_word, 0)
                if next_addr == HALT_ADDRESS:
                    return
                if next_addr % 4:
                    raise ExecutionError(f"misaligned guest PC {next_addr:#x}")
                next_index = next_addr // 4
                edge = (src, next_index)
                if chaining:
                    if edge in edges:
                        n_chained += 1
                    else:
                        edges.add(edge)
                count = edge_counts.get(edge, 0) + 1
                edge_counts[edge] = count
                if (
                    count == hot_threshold
                    and next_index <= src
                    and next_index not in traces
                    and next_index not in blacklist
                    and len(traces) < tcfg.max_traces
                    and self._form_trace(next_index, metrics)
                ):
                    countdown = tcfg.profile_window
                countdown -= 1
                pc_index = next_index
            # -- steady phase ---------------------------------------------
            # Chain maps now carry the seen-set; trace heads are checked on
            # every dispatch and every chained transfer, everything else is
            # the jit tier's inner loop verbatim.
            pending: Optional[CompiledBlock] = None
            while True:
                if n_exec >= max_blocks:
                    raise ExecutionError(
                        f"exceeded {max_blocks} block executions"
                    )
                trace = traces.get(pc_index)
                if trace is not None and max_blocks - n_exec >= trace.length:
                    if pending is not None:
                        pending.chain[pc_index] = cache_get(pc_index).compiled
                        pending = None
                    iters, exit_pos = trace.fn(
                        state, (max_blocks - n_exec) // trace.length
                    )
                    executed = iters * trace.length + (
                        exit_pos + 1 if exit_pos >= 0 else 0
                    )
                    n_exec += executed
                    if chaining:
                        n_chained += executed - 1
                    iter_hist[trace] = iter_hist.get(trace, 0) + iters
                    entry_hist[trace] = entry_hist.get(trace, 0) + 1
                    if exit_pos >= 0:
                        key = (trace, exit_pos)
                        exit_hist[key] = exit_hist.get(key, 0) + 1
                        src = trace.block_indices[exit_pos]
                    else:
                        src = trace.block_indices[-1]
                    trace.window_entries += 1
                    trace.window_blocks += executed
                    if trace.window_entries >= tcfg.probation_entries:
                        if (
                            trace.window_blocks
                            < tcfg.min_mean_blocks * trace.window_entries
                        ):
                            del traces[pc_index]
                            blacklist.add(pc_index)
                            metrics.traces_retired += 1
                            TRACE_STATS.incr("retired")
                        else:
                            trace.window_entries = 0
                            trace.window_blocks = 0
                    next_addr = memory.get(pc_word, 0)
                    if next_addr == HALT_ADDRESS:
                        return
                    if next_addr % 4:
                        raise ExecutionError(
                            f"misaligned guest PC {next_addr:#x}"
                        )
                    next_index = next_addr // 4
                    if chaining:
                        # Trace-exit edges go through the exit block's chain
                        # map like any other edge; a miss defers the patch to
                        # the next dispatch (the successor may not even be
                        # translated yet — e.g. a loop exit taken for the
                        # first time ever through a guard).
                        scb = cache_get(src).compiled
                        if next_index in scb.chain:
                            n_chained += 1
                        else:
                            pending = scb
                    pc_index = next_index
                    continue
                entry = cache_get(pc_index)
                if entry is None or entry.compiled is None:
                    entry = self._entry(pc_index, metrics)
                    cb = self._compiled(entry)
                else:
                    cb = entry.compiled
                if pending is not None:
                    pending.chain[pc_index] = cb
                    pending = None
                while True:
                    cb.execute(state, host_counts)
                    n_exec += 1
                    execs[cb] = execs.get(cb, 0) + 1
                    next_addr = memory.get(pc_word, 0)
                    if next_addr == HALT_ADDRESS:
                        return
                    if next_addr % 4:
                        raise ExecutionError(
                            f"misaligned guest PC {next_addr:#x}"
                        )
                    next_index = next_addr // 4
                    nxt = cb.chain.get(next_index)
                    if nxt is None:
                        if chaining:
                            pending = cb
                        pc_index = next_index
                        break
                    n_chained += 1
                    if next_index in traces:
                        pc_index = next_index
                        break
                    cb = nxt
                    if n_exec >= max_blocks:
                        raise ExecutionError(
                            f"exceeded {max_blocks} block executions"
                        )
        finally:
            self._profiling = profiling
            self._profile_countdown = countdown
            metrics.block_executions += n_exec
            metrics.chained_executions += n_chained
            hits = metrics.rule_hits
            total_iters = 0
            for trace, iters in iter_hist.items():
                if not iters:
                    continue
                total_iters += iters
                metrics.guest_dynamic += trace.guest_total * iters
                metrics.covered_dynamic += trace.covered_total * iters
                for rule, length in trace.rule_total:
                    hits[rule] = hits.get(rule, 0) + length * iters
                for cat, weight in trace.count_total.items():
                    host_counts[cat] = (
                        host_counts.get(cat, 0) + weight * iters
                    )
            total_guard = 0
            for (trace, pos), k in exit_hist.items():
                total_guard += k
                trace.guard_exits += k
                metrics.guest_dynamic += trace.guest_prefix[pos] * k
                metrics.covered_dynamic += trace.covered_prefix[pos] * k
                for rule, length in trace.rule_prefix[pos]:
                    hits[rule] = hits.get(rule, 0) + length * k
                for cat, weight in trace.count_prefix[pos].items():
                    host_counts[cat] = host_counts.get(cat, 0) + weight * k
            total_entries = sum(entry_hist.values())
            if total_entries:
                metrics.trace_entries += total_entries
                metrics.trace_iterations += total_iters
                metrics.trace_guard_exits += total_guard
                TRACE_STATS.incr("entries", total_entries)
                if total_iters:
                    TRACE_STATS.incr("iterations", total_iters)
                if total_guard:
                    TRACE_STATS.incr("guard_exits", total_guard)
            _fold_blocks(metrics, execs)

    def _sync_chain_maps(self, metrics: RunMetrics) -> None:
        """Mirror the seen-edge set into the compiled blocks' chain maps.

        Run once when profiling settles: after this, patch-on-first-
        traversal keeps the maps equal to the seen-set the interp backend
        maintains, so chained-execution counts stay byte-identical.  Every
        edge source has necessarily executed (and compiled); the one target
        that may not have yet is the current transition's — translating it
        here is safe because the caller only switches phases once the block
        is guaranteed to be dispatched next.
        """
        for a, b in self._chained_edges:
            entry_a = self.code_cache.get(a)
            if entry_a is None:
                continue
            entry_b = self.code_cache.get(b)
            if entry_b is None:
                entry_b = self._entry(b, metrics)
            self._compiled(entry_a).chain[b] = self._compiled(entry_b)

    def _form_trace(self, head: int, metrics: RunMetrics) -> bool:
        """Try to promote ``head``; returns True iff a trace went live."""
        trace, permanent = form_trace(
            head,
            self._edge_counts,
            self.code_cache.get,
            self.trace_config,
            self.trace_source_cache,
        )
        if trace is None:
            if permanent:
                self._trace_blacklist.add(head)
            return False
        self._traces[head] = trace
        metrics.traces_formed += 1
        return True


def _fold_blocks(metrics: RunMetrics, execs: Dict[CompiledBlock, int]) -> None:
    """Add each block's constant per-execution counts times its executions.

    Generated block code counts nothing (guarded blocks aside, whose
    ``host_counts`` is empty because they count in code), so this is where
    a jit run's guest, covered, rule-hit and host-instruction totals come
    from.  A block that faulted never reached ``execs``.
    """
    hits = metrics.rule_hits
    host_counts = metrics.host_counts
    for block, count in execs.items():
        metrics.guest_dynamic += block.guest_count * count
        metrics.covered_dynamic += block.covered_count * count
        for rule, length in block.rule_agg:
            hits[rule] = hits.get(rule, 0) + length * count
        for cat, weight in block.host_counts:
            host_counts[cat] = host_counts.get(cat, 0) + weight * count


def check_against_reference(
    unit: CompiledUnit, result: DBTRunResult, entry: str = "fn_main"
) -> Tuple[bool, str]:
    """Compare a DBT run's final state with the reference interpreter.

    Compares general-purpose registers and guest-visible memory.  Condition
    flags are excluded: the translated code may legitimately leave dead
    guest flags unmaterialized.
    """
    reference = GuestInterpreter(unit).run(entry=entry)
    for i in range(13):
        name = f"r{i}"
        if reference.state.regs[name] != result.guest_reg(name):
            return False, (
                f"register {name}: reference {reference.state.regs[name]:#x} "
                f"!= DBT {result.guest_reg(name):#x}"
            )
    ref_memory = {
        addr: value for addr, value in reference.state.memory.items() if value
    }
    dbt_memory = result.guest_memory()
    if ref_memory != dbt_memory:
        delta = set(ref_memory.items()) ^ set(dbt_memory.items())
        return False, f"memory mismatch ({len(delta)} differing entries)"
    return True, "ok"
