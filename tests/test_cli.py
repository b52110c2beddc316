"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table3" in out

    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "perlbench" in out and "xalancbmk" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_fig02(self, capsys):
        assert main(["run", "fig02"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out and "completed in" in out

    def test_rules_dump(self, tmp_path, capsys):
        target = tmp_path / "rules.json"
        assert main(["rules", "--benchmark", "mcf", "--out", str(target)]) == 0
        assert target.exists()
        from repro.learning import load_rules_file

        assert len(load_rules_file(str(target))) > 0

    @pytest.mark.slow
    def test_translate(self, capsys):
        assert main(["translate", "mcf", "--stage", "condition"]) == 0
        out = capsys.readouterr().out
        assert "dynamic coverage" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCacheCli:
    def test_cache_stats(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "this process" in out and "derivations" in out
        assert "cyclic gc" in out and "gen 2:" in out
        assert "shape-class cross-check" in out and "re-verified" in out
        assert "equivalence sampling" in out and "compiled scans" in out

    def test_cache_stats_json(self, capsys):
        import json

        assert main(["cache", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # the same serializer the service stats endpoint embeds
        assert sorted(payload) == [
            "gc", "interned_exprs", "memos", "process", "trace_tier", "verify",
        ]
        assert isinstance(payload["memos"], list)
        assert "derivations" in payload["process"]
        assert "jit_tierups_count" in payload["process"]  # jit template tier
        # the cyclic collector's counters, one entry per generation
        assert [sorted(gen) for gen in payload["gc"]] == [
            ["collected", "collections", "uncollectable"]
        ] * 3
        # the shape-class soundness guard: memo-served verdicts re-verified;
        # and the sampler's mix: every sampled pair is decided in the
        # interpreted prefix or by a compiled scan
        assert sorted(payload["verify"]) == [
            "compiled_scans", "cross_checked", "cross_failed",
            "pairs_sampled", "prefix_decided",
        ]
        assert payload["verify"]["cross_failed"] == 0
        verify = payload["verify"]
        assert verify["pairs_sampled"] == verify["prefix_decided"] + verify["compiled_scans"]

    def test_stats_payload_counts_cross_checks(self):
        from repro.cache import clear_all_caches, stats_payload
        from repro.isa.arm import ARM, assemble as arm
        from repro.isa.x86 import X86, assemble as x86
        from repro.verify import check_equivalence, shapeclass

        clear_all_caches()
        previous = shapeclass._CROSS_CHECK_MOD
        shapeclass.set_cross_check(1)
        try:
            before = stats_payload()["verify"]
            # two members of one shape class: the second is memo-served
            for guest, host in (
                ("add r4, r5, r6", "movl %esi, %ebx\naddl %edi, %ebx"),
                ("add r7, r8, r9", "movl %edi, %esi\naddl %ebx, %esi"),
            ):
                check_equivalence(ARM, X86, arm(guest), x86(host))
            after = stats_payload()["verify"]
        finally:
            shapeclass.set_cross_check(previous)
        assert after["cross_checked"] == before["cross_checked"] + 1
        assert after["cross_failed"] == before["cross_failed"]

    def test_stats_payload_counts_sampled_pairs(self):
        from repro.cache import stats_payload
        from repro.symir import BinOp, Const, Sym
        from repro.verify.equivalence import exprs_equal

        x = Sym("stats_x")
        pairs = (
            # differs at the first row (x = 0): decided in the prefix
            ((BinOp("add", x, Const(1)), x), "prefix_decided"),
            # equal, but not by simplification: a compiled scan
            ((BinOp("and", BinOp("or", x, Const(1)), Const(1)), Const(1)), "compiled_scans"),
        )
        for (lhs, rhs), counter in pairs:
            before = stats_payload()["verify"]
            exprs_equal(lhs, rhs, seed=0x57A7)
            after = stats_payload()["verify"]
            assert after["pairs_sampled"] == before["pairs_sampled"] + 1
            assert after[counter] == before[counter] + 1
            assert (
                after["prefix_decided"] + after["compiled_scans"]
                == before["prefix_decided"] + before["compiled_scans"] + 1
            )

    def test_stats_show_the_translator_window_memo(self, capsys, demo_pair, demo_setup):
        from repro.cache import stats_payload
        from repro.dbt import BlockMap, BlockTranslator

        def windows():
            (memo,) = [
                m for m in stats_payload()["memos"]
                if m["name"] == "dbt.translator.windows"
            ]
            return memo

        def translate():
            blockmap = BlockMap(demo_pair.guest)
            translator = BlockTranslator(
                demo_pair.guest, blockmap, demo_setup.configs["condition"]
            )
            for block in blockmap.blocks:
                translator.translate(block)

        translate()
        first = windows()
        assert 0 < first["size"] <= first["maxsize"]
        translate()  # a second translator: every probe is a hit
        second = windows()
        assert second["misses"] == first["misses"]
        assert second["hits"] > first["hits"]
        assert second["size"] == first["size"]
        assert main(["cache", "stats"]) == 0
        (line,) = [
            line for line in capsys.readouterr().out.splitlines()
            if "dbt.translator.windows" in line
        ]
        assert f"size {second['size']}/{second['maxsize']}" in line

    def test_stats_payload_counts_full_collections(self):
        import gc

        from repro.cache import stats_payload

        before = stats_payload()["gc"][2]["collections"]
        gc.collect()
        after = stats_payload()["gc"][2]["collections"]
        assert after >= before + 1

    def test_run_writes_nothing_outside_the_process(self, tmp_path):
        """Learning and derivation stay in-process: a full ``run`` leaves
        an empty ``HOME`` and working directory empty, and there is no
        ``cache clear`` to ask for."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = {"HOME": str(tmp_path), "PATH": os.environ.get("PATH", ""),
               "PYTHONPATH": src}

        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv], cwd=tmp_path,
                env=env, capture_output=True, text=True, timeout=300,
            )

        run = cli("run", "table3")
        assert run.returncode == 0, run.stderr
        assert "Table III" in run.stdout
        assert sorted(tmp_path.iterdir()) == []
        clear = cli("cache", "clear")
        assert clear.returncode == 2
        assert "invalid choice" in clear.stderr

    def test_run_reports_cache_stats(self, capsys):
        assert main(["run", "table3"]) == 0
        out = capsys.readouterr().out
        assert "[cache:" in out and "derivations" in out

    def test_run_with_jobs_flag(self, capsys):
        from repro.parallel import set_jobs

        try:
            assert main(["run", "fig02", "--jobs", "2"]) == 0
            out = capsys.readouterr().out
            assert "Fig. 2" in out
        finally:
            set_jobs(1)


class TestServiceCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--port", "0", "--workers", "2"])
        assert args.port == 0 and args.workers == 2
        assert args.stage == "condition" and args.training == "quick"
        assert args.max_queue == 64

    def test_loadgen_parser_defaults(self):
        args = build_parser().parse_args(
            ["loadgen", "--duration", "5", "--concurrency", "8"]
        )
        assert args.duration == 5.0 and args.concurrency == 8
        assert args.out == "BENCH_service.json"

    def test_serve_rejects_unknown_stage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--stage", "nope"])

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_serve_rejects_bad_size_before_binding(self, capsys, workers):
        """Exit 2 with a message, before training, binding or forking."""
        code = main(["serve", "--port", "0", "--workers", workers, "--handlers", "0"])
        assert code == 2
        assert "handlers must be >= 1" in capsys.readouterr().err
