"""Worker fan-out: serial/parallel equivalence and the jobs plumbing."""

from __future__ import annotations

import os

import pytest

from repro.cache import clear_all_caches
from repro.parallel import get_jobs, parallel_map, resolve_jobs, set_jobs


def _square(x: int) -> int:
    return x * x


@pytest.fixture(autouse=True)
def _serial_default():
    """Restore the process-wide job count after every test."""
    yield
    set_jobs(1)


class TestJobsPlumbing:
    def test_set_get(self):
        assert set_jobs(3) == 3
        assert get_jobs() == 3

    def test_zero_means_all_cpus(self):
        assert set_jobs(0) == (os.cpu_count() or 1)
        assert set_jobs(None) == (os.cpu_count() or 1)

    def test_negative_clamps_to_one(self):
        assert set_jobs(-5) == 1

    def test_resolve_override(self):
        set_jobs(1)
        assert resolve_jobs(4) == 4
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == (os.cpu_count() or 1)


class TestParallelMap:
    def test_serial_path(self):
        set_jobs(1)
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        assert parallel_map(_square, list(range(20)), jobs=4) == [
            x * x for x in range(20)
        ]

    def test_empty_and_single(self):
        assert parallel_map(_square, [], jobs=4) == []
        assert parallel_map(_square, [7], jobs=4) == [49]


class TestCliJobsFlag:
    def test_every_experiment_subcommand_accepts_jobs(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["run", "table3", "--jobs", "2"],
            ["translate", "gcc", "-j", "2"],
            ["analyze", "gcc", "--jobs", "0"],
            ["rules", "--jobs", "4"],
            ["losses", "--jobs", "4"],
        ):
            args = parser.parse_args(argv)
            assert hasattr(args, "jobs")


class TestParallelSerialEquivalence:
    def test_derive_rules_identical(self):
        """Parallel and serial derivation produce identical rule sets."""
        from repro.experiments.common import benchmark_learning
        from repro.param.derive import derive_rules

        learned = benchmark_learning("gcc").rules
        try:
            clear_all_caches()
            serial = derive_rules(learned, jobs=1)
            # Fresh caches for the parallel run so it really derives.
            clear_all_caches()
            parallel = derive_rules(learned, jobs=2)
        finally:
            clear_all_caches()
        assert [str(r) for r in parallel.derived] == [str(r) for r in serial.derived]
        assert parallel.counts == serial.counts
        assert parallel.target_stage == serial.target_stage
