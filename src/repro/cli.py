"""Command-line interface.

Usage::

    repro list                      # available experiments
    repro run fig12                 # reproduce one table/figure
    repro run all --jobs 4          # reproduce everything, 4 worker processes
    repro suite                     # workload suite summary
    repro rules [--benchmark NAME] [--out FILE]   # learn + dump rules
    repro translate NAME [--stage condition] [--backend jit]  # one DBT run
    repro cache stats [--json]      # in-process memo and counter overview
    repro serve [--port 9477]       # translation-as-a-service TCP server
    repro loadgen [--duration 10]   # drive a server; oracle-verified report
    repro pipeline run              # corpus→learn→derive→verify→publish

Every experiment prints the same rows the paper reports, with a note giving
the paper's numbers for comparison.  ``--jobs N`` (0 = all CPUs) fans the
expensive phases — target derivation and the leave-one-out sweep — out over
worker processes; results are byte-identical to ``--jobs 1``.

Performance is measured by the repository benchmark, ``perfbench/run.py``
(workloads and bounds in ``BENCHMARK.json``), not by a subcommand here.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional


def _cmd_list(_args) -> int:
    from repro.experiments import EXPERIMENTS

    print("available experiments:")
    for ident, runner in EXPERIMENTS.items():
        doc = (runner.__module__.split(".")[-1]).replace("_", " ")
        print(f"  {ident:8s} {doc}")
    return 0


def _cmd_run(args) -> int:
    from repro.cache import STATS
    from repro.experiments import EXPERIMENTS
    from repro.experiments.charts import render_chart

    idents = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [i for i in idents if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for ident in idents:
        started = time.time()
        before = STATS.snapshot()
        result = EXPERIMENTS[ident]()
        if args.chart and ident == "fig16":
            from repro.experiments.charts import render_series

            print(
                render_series(
                    result.title,
                    xs=[row[0] for row in result.rows],
                    series={
                        "w/o para.": [row[1] for row in result.rows],
                        "para.": [row[2] for row in result.rows],
                    },
                )
            )
        elif args.chart and ident.startswith("fig"):
            print(render_chart(result))
        else:
            print(result.format())
        print(f"[{ident} completed in {time.time() - started:.1f}s]")
        print(f"[cache: {STATS.delta(before).summary()}]")
        print()
    return 0


def _cmd_cache(args) -> int:
    from repro.cache import STATS, gc_stats, memo_registry, stats_payload
    from repro.symir.expr import intern_table_size
    from repro.verify.equivalence import sampler_stats
    from repro.verify.shapeclass import cross_check_stats

    if args.json:
        import json

        print(json.dumps(stats_payload(), indent=2, sort_keys=True))
        return 0
    print(f"this process    : {STATS.summary()}")
    print(f"interned exprs  : {intern_table_size()}")
    print("in-memory memos (this process):")
    for memo in memo_registry():
        stats = memo.stats()
        print(
            f"  {stats['name']:24s} {stats['hits']:6d} hits "
            f"{stats['misses']:6d} misses  "
            f"size {stats['size']}/{stats['maxsize']}"
        )
    from repro.dbt.trace import TRACE_STATS

    trace = TRACE_STATS.snapshot()
    print("trace tier (this process):")
    print(f"  formed {trace['formed']}  failed {trace['form_failed']}  "
          f"retired {trace['retired']}")
    print(f"  entries {trace['entries']}  iterations {trace['iterations']}  "
          f"guard exits {trace['guard_exits']}")
    cross_check = cross_check_stats()
    print("shape-class cross-check (this process): "
          f"{cross_check['checked']} re-verified, {cross_check['failed']} diverged")
    sampler = sampler_stats()
    print("equivalence sampling (this process): "
          f"{sampler['sampled']} pairs sampled, "
          f"{sampler['prefix_decided']} decided in the prefix, "
          f"{sampler['compiled_scans']} compiled scans")
    print("cyclic gc (this process):")
    for generation, stats in enumerate(gc_stats()):
        print(f"  gen {generation}: {stats['collections']} collections, "
              f"{stats['collected']} collected, "
              f"{stats['uncollectable']} uncollectable")
    return 0


def _cmd_verify(args) -> int:
    """Verify a rule candidate given guest and host assembly."""
    from repro.isa.arm import assemble as arm_assemble
    from repro.isa.arm.opcodes import ARM
    from repro.isa.x86 import assemble as x86_assemble
    from repro.isa.x86.opcodes import X86
    from repro.verify import check_equivalence

    guest = arm_assemble(args.guest.replace(";", "\n"))
    host = x86_assemble(args.host.replace(";", "\n"))
    result = check_equivalence(ARM, X86, guest, host, allow_temps=args.temps)
    print(f"equivalent      : {result.equivalent}")
    print(f"dataflow ok     : {result.dataflow_ok}")
    if result.reg_mapping is not None:
        print(f"register mapping: {result.reg_mapping}")
        print(f"scratch regs    : {list(result.host_temps)}")
        print(f"flag status     : {result.flag_status}")
    else:
        print(f"rejected        : {result.reason}")
    return 0 if result.equivalent else 1


def _cmd_suite(_args) -> int:
    from repro.experiments.report import format_table
    from repro.workloads import suite_summary

    rows = [
        (name, info["statements"], info["guest_instructions"], info["host_instructions"])
        for name, info in suite_summary().items()
    ]
    print(
        format_table(
            "Synthetic SPEC CINT 2006 suite",
            ("benchmark", "statements", "guest insns", "host insns"),
            rows,
        )
    )
    return 0


def _cmd_rules(args) -> int:
    from repro.experiments.common import benchmark_learning, rules_full_suite
    from repro.learning import dump_rules

    if args.benchmark:
        rules = benchmark_learning(args.benchmark).rules
    else:
        rules = rules_full_suite()
    text = dump_rules(rules)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {len(rules)} rules to {args.out}")
    else:
        print(text)
    return 0


def _cmd_losses(_args) -> int:
    """Aggregate learning-funnel loss reasons across the suite (§II-B)."""
    from repro.experiments.common import suite_stats
    from repro.experiments.report import format_table

    extraction: dict = {}
    verification: dict = {}
    for stats in suite_stats():
        for reason, count in stats.extraction_losses.items():
            extraction[reason] = extraction.get(reason, 0) + count
        for reason, count in stats.verification_losses.items():
            verification[reason] = verification.get(reason, 0) + count
    rows = [("extraction", r, c) for r, c in sorted(extraction.items(), key=lambda kv: -kv[1])]
    rows += [("verification", r, c) for r, c in sorted(verification.items(), key=lambda kv: -kv[1])]
    print(
        format_table(
            "Learning-funnel losses (whole suite)",
            ("stage", "reason", "statements"),
            rows,
        )
    )
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import origin_attribution, ruleset_stats, top_rules
    from repro.experiments.common import run_benchmark, setup_excluding

    metrics = run_benchmark(args.benchmark, args.stage)
    print(origin_attribution(metrics).format())
    print()
    print(top_rules(metrics, count=args.top).format())
    if args.ruleset:
        print()
        setup = setup_excluding(args.benchmark)
        print(ruleset_stats(setup.configs[args.stage].rules).format())
    return 0


def _cmd_translate(args) -> int:
    from repro.experiments.common import run_benchmark

    metrics = run_benchmark(args.benchmark, args.stage, backend=args.backend)
    print(f"benchmark          : {args.benchmark}")
    print(f"configuration      : {args.stage}")
    print(f"backend            : {args.backend}")
    print(f"guest instructions : {metrics.guest_dynamic}")
    print(f"dynamic coverage   : {100 * metrics.coverage:.2f}%")
    print(f"host/guest ratio   : {metrics.total_ratio:.2f}")
    for category in ("rule", "tcg", "data", "control"):
        print(f"  {category:16s} : {metrics.ratio(category):.2f}")
    print(f"blocks translated  : {metrics.blocks_translated}")
    print(f"block executions   : {metrics.block_executions}")
    print(f"simulated cost     : {metrics.cost():.0f}")
    return 0


def _cmd_difftest(args) -> int:
    """Coverage-guided differential fuzzing of the full DBT pipeline."""
    from repro.difftest import DifftestOptions, run_difftest

    options = DifftestOptions(
        seed=args.seed,
        programs=args.programs,
        stage=args.stage,
        fault=args.fault,
        backend=args.backend,
        corpus_dir=args.corpus_dir,
        max_shrinks=args.max_shrinks,
        time_budget=args.time_budget,
    )
    log = None if args.quiet else (lambda message: print(f"# {message}"))
    report = run_difftest(options, log=log)
    print(report.render(), end="")
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"json report: {args.json}")
    if args.fault:
        # Self-check mode: the planted fault *must* be found.
        return 0 if report.failures else 1
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    """Run the translation service (newline-delimited JSON over TCP)."""
    from repro.service import ServiceConfig, serve

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            stage=args.stage,
            training=args.training,
            max_queue=args.max_queue,
            handlers=args.handlers,
            request_timeout=args.timeout,
            ruleset_store=args.ruleset_store,
            watch_interval=args.watch_interval,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workers > 1 or args.pool_dir:
        from repro.service import PoolConfig, serve_pool

        return serve_pool(
            PoolConfig(
                workers=args.workers,
                service=config,
                directory=args.pool_dir,
            )
        )
    return serve(config)


def _cmd_pipeline(args) -> int:
    """Staged corpus→learn→derive→verify→publish with artifact skipping."""
    import json

    from repro.errors import ReproError
    from repro.pipeline import Pipeline, PipelineConfig

    benchmarks = None
    if args.benchmarks:
        benchmarks = tuple(
            part for part in args.benchmarks.split(",") if part
        )
    pipeline = Pipeline(
        PipelineConfig(
            workdir=args.workdir,
            store_dir=args.store,
            training=args.training,
            benchmarks=benchmarks,
            verify_programs=args.verify_programs,
            verify_seed=args.verify_seed,
        )
    )

    if args.action == "status":
        payload = pipeline.status()
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"workdir : {payload['workdir']}")
        print(f"latest  : {payload['latest'] or '(none published)'}")
        store = payload["store"]
        print(f"store   : {store['versions']} versions, {store['bodies']} bodies")
        print(f"artifacts: {payload['artifacts']['entries']} entries")
        last = payload["last_run"]
        if last:
            outcome = "all hits" if last["all_hits"] else "rebuilt"
            print(f"last run: ok={last['ok']} ({outcome})")
            for stage in last["stages"]:
                print(
                    f"  {stage['name']:<8} {stage['outcome']:<5}"
                    f" [{stage['digest'][:12]}] {stage['summary']}"
                )
        else:
            print("last run: (none)")
        return 0

    if args.action == "invalidate":
        removed = pipeline.invalidate(args.stage)
        scope = args.stage or "all stages"
        print(f"invalidated {removed} artifact(s) ({scope})")
        return 0

    # action == "run"
    log = None if args.quiet else (lambda message: print(f"# {message}"))
    try:
        report = pipeline.run(log=log)
    except ReproError as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return 1
    if args.gc is not None:
        swept = pipeline.store.gc(keep=args.gc)
        if not args.quiet:
            print(
                f"# gc: kept {len(swept['kept'])},"
                f" removed {len(swept['removed_versions'])} version(s)"
            )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    ruleset = report["ruleset"]
    outcome = "all stages hit" if report["all_hits"] else "stages rebuilt"
    print(f"pipeline: ok ({outcome})")
    print(f"ruleset : {ruleset['version']} (body {ruleset['body_sha256'][:12]})")
    return 0


def _cmd_loadgen(args) -> int:
    """Drive a running service and write an oracle-checked BENCH report."""
    from repro.service import (
        LoadgenOptions,
        check_loadgen_report,
        render_loadgen_report,
        run_loadgen,
    )
    from repro.service.loadgen import (
        check_sweep_report,
        render_sweep_report,
        run_sweep,
        write_loadgen_report,
    )

    options = LoadgenOptions(
        host=args.host,
        port=args.port,
        concurrency=args.concurrency,
        duration=args.duration,
        seed=args.seed,
        stage=args.stage,
        out=args.out,
    )
    log = None if args.quiet else (lambda message: print(f"# {message}"))
    if args.sweep:
        clients = sorted({int(part) for part in args.sweep.split(",") if part})
        payload = run_sweep(options, clients, log=log)
        print(render_sweep_report(payload))
        write_loadgen_report(payload, options.out)
        print(f"report: {options.out}")
        ok, message = check_sweep_report(payload)
        print(f"check: {message}")
        return 0 if ok else 1
    payload = run_loadgen(options, log=log)
    print(render_loadgen_report(payload))
    write_loadgen_report(payload, options.out)
    print(f"report: {options.out}")
    ok, message = check_loadgen_report(payload)
    print(f"check: {message}")
    return 0 if ok else 1


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for derivation/sweeps (0 = all CPUs; default 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'More with Less' (MICRO 2020): "
        "learning-based DBT with rule parameterization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(fn=_cmd_list)

    run = sub.add_parser("run", help="reproduce a paper table/figure")
    run.add_argument("experiment", help="experiment id (e.g. fig12) or 'all'")
    run.add_argument("--chart", action="store_true",
                     help="render figures as ASCII bar charts")
    _add_jobs(run)
    run.set_defaults(fn=_cmd_run)

    verify = sub.add_parser(
        "verify", help="verify a rule candidate (guest vs host assembly)"
    )
    verify.add_argument("guest", help="guest assembly; ';' separates lines")
    verify.add_argument("host", help="host assembly; ';' separates lines")
    verify.add_argument("--temps", type=int, default=0,
                        help="allowed host scratch registers")
    verify.set_defaults(fn=_cmd_verify)

    sub.add_parser("suite", help="workload suite summary").set_defaults(fn=_cmd_suite)

    rules = sub.add_parser("rules", help="learn and dump translation rules")
    rules.add_argument("--benchmark", help="learn from one benchmark only")
    rules.add_argument("--out", help="write JSON to a file")
    _add_jobs(rules)
    rules.set_defaults(fn=_cmd_rules)

    losses = sub.add_parser(
        "losses", help="learning-funnel loss reasons (paper §II-B)"
    )
    _add_jobs(losses)
    losses.set_defaults(fn=_cmd_losses)

    analyze = sub.add_parser(
        "analyze", help="rule-usage and coverage-attribution report"
    )
    analyze.add_argument("benchmark")
    analyze.add_argument("--stage", default="condition")
    analyze.add_argument("--top", type=int, default=15)
    analyze.add_argument("--ruleset", action="store_true",
                         help="also print rule-set composition")
    _add_jobs(analyze)
    analyze.set_defaults(fn=_cmd_analyze)

    translate = sub.add_parser("translate", help="run one benchmark under the DBT")
    translate.add_argument("benchmark")
    from repro.param import STAGES

    translate.add_argument("--stage", default="condition", choices=STAGES)
    from repro.dbt import BACKENDS

    translate.add_argument("--backend", default="interp", choices=BACKENDS,
                           help="execution backend (interp is the oracle)")
    _add_jobs(translate)
    translate.set_defaults(fn=_cmd_translate)

    difftest = sub.add_parser(
        "difftest", help="coverage-guided differential fuzzing of the DBT"
    )
    difftest.add_argument("--seed", type=int, default=0)
    difftest.add_argument("--programs", type=int, default=200,
                          help="number of generated guest programs")
    difftest.add_argument("--stage", default="condition", choices=STAGES)
    difftest.add_argument("--backend", default="interp", choices=BACKENDS,
                          help="DBT execution backend under test (the "
                               "reference interpreter is always the oracle)")
    from repro.difftest.oracle import FAULTS

    difftest.add_argument("--fault", choices=FAULTS,
                          help="inject a translator fault (oracle self-check)")
    difftest.add_argument("--corpus-dir", metavar="DIR",
                          help="persist shrunk reproducers as JSON here")
    difftest.add_argument("--max-shrinks", type=int, default=4,
                          help="failures to shrink before giving up")
    difftest.add_argument("--time-budget", type=float, metavar="SECONDS",
                          help="wall-clock cap (CI smoke mode)")
    difftest.add_argument("--json", metavar="FILE",
                          help="also write the full report as JSON")
    difftest.add_argument("--quiet", action="store_true",
                          help="suppress progress lines")
    _add_jobs(difftest)
    difftest.set_defaults(fn=_cmd_difftest)

    cache = sub.add_parser(
        "cache", help="inspect this process's in-memory caches and counters"
    )
    cache.add_argument("action", choices=("stats",))
    cache.add_argument("--json", action="store_true",
                       help="machine-readable stats (same serializer as the "
                            "service stats endpoint)")
    cache.set_defaults(fn=_cmd_cache)

    serve = sub.add_parser(
        "serve", help="translation-as-a-service TCP server (JSON lines)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9477,
                       help="TCP port (0 = ephemeral; default 9477)")
    serve.add_argument("--stage", default="condition", choices=STAGES,
                       help="default parameterization stage for requests")
    serve.add_argument("--training", default="quick", choices=("quick", "full"),
                       help="rule-training corpus loaded at startup "
                            "(quick = 2 benchmarks, full = whole suite)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="request queue bound; beyond it clients get "
                            "retryable backpressure errors")
    serve.add_argument("--workers", type=int, default=1,
                       help="pre-fork worker processes sharing the listener "
                            "(1 = single process)")
    serve.add_argument("--handlers", type=int, default=8,
                       help="concurrent asyncio request handlers per process")
    serve.add_argument("--pool-dir", default=None,
                       help="pool runtime directory (pool.json + worker "
                            "stats); default: fresh temp dir")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="per-request timeout in seconds")
    serve.add_argument("--ruleset-store", default=None, metavar="DIR",
                       help="versioned ruleset store (from `repro pipeline "
                            "run`); serve its latest version and accept "
                            "`reload` requests to hot-swap without a restart")
    serve.add_argument("--watch-interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="poll the ruleset store (needs --ruleset-store) "
                            "and auto-reload when a new version is published "
                            "(0 = reload only on explicit `reload` requests)")
    serve.set_defaults(fn=_cmd_serve)

    pipeline = sub.add_parser(
        "pipeline",
        help="continuous-learning pipeline: corpus→learn→derive→verify→"
             "publish with content-addressed stage skipping",
    )
    pipeline.add_argument("action", choices=("run", "status", "invalidate"),
                          help="run the stage chain, show last-run/store "
                               "state, or drop stage artifacts")
    pipeline.add_argument("--workdir", default="pipeline-runtime",
                          help="pipeline state root (stage artifacts + "
                               "last-run report; default pipeline-runtime)")
    pipeline.add_argument("--store", default=None, metavar="DIR",
                          help="versioned ruleset store to publish into "
                               "(default <workdir>/rulesets)")
    pipeline.add_argument("--training", default="quick",
                          choices=("quick", "full"),
                          help="training corpus (quick = 2 benchmarks)")
    pipeline.add_argument("--benchmarks", default=None, metavar="A,B,...",
                          help="explicit corpus benchmark list (overrides "
                               "--training's default corpus)")
    pipeline.add_argument("--verify-programs", type=int, default=25,
                          help="fuzzed programs per verify run beyond the "
                               "corpus itself (default 25)")
    pipeline.add_argument("--verify-seed", type=int, default=0,
                          help="program-generator seed for the verify stage")
    pipeline.add_argument("--stage", default=None,
                          help="with `invalidate`: drop only this stage's "
                               "artifacts (corpus/learn/derive/verify/"
                               "publish); default drops all")
    pipeline.add_argument("--gc", type=int, default=None, metavar="KEEP",
                          help="after a successful run, garbage-collect the "
                               "store down to the latest KEEP-version chain")
    pipeline.add_argument("--json", action="store_true",
                          help="emit the full report/status as JSON")
    pipeline.add_argument("--quiet", action="store_true",
                          help="suppress per-stage progress lines")
    pipeline.set_defaults(fn=_cmd_pipeline)

    loadgen = sub.add_parser(
        "loadgen", help="drive a running service; oracle-verify every run "
                        "(writes BENCH_service.json)"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=9477)
    loadgen.add_argument("--concurrency", type=int, default=8,
                         help="concurrent client connections")
    loadgen.add_argument("--duration", type=float, default=10.0,
                         help="wall-clock seconds to drive load")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="request-mix RNG seed")
    loadgen.add_argument("--stage", default="condition", choices=STAGES)
    loadgen.add_argument("--sweep", default=None, metavar="N,N,...",
                         help="saturation sweep: drive each client count for "
                              "--duration seconds and report the clients-vs-"
                              "latency curve (e.g. --sweep 1,2,4,8)")
    loadgen.add_argument("--out", default="BENCH_service.json",
                         help="report path (default BENCH_service.json)")
    loadgen.add_argument("--quiet", action="store_true",
                         help="suppress progress lines")
    loadgen.set_defaults(fn=_cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", None) is not None:
        from repro.parallel import set_jobs

        set_jobs(args.jobs)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `repro run all | head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
