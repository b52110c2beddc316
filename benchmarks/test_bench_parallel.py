"""Wall-clock benchmarks for the parallelism layer.

Two comparisons, each printed with ``-s``:

* cold serial vs cold parallel fig16 sweep (the leave-one-out style fan-out
  is where ``--jobs`` pays off);
* serial vs parallel results are asserted identical, not just fast.

Run:  pytest benchmarks/test_bench_parallel.py --benchmark-only -s
"""

from __future__ import annotations

import os

import pytest

from repro.cache import clear_all_caches


@pytest.fixture(autouse=True, scope="module")
def _clear_caches_after():
    yield
    clear_all_caches()


#: Small-but-real fig16 sweep: 12 draws, up to 2 held-out runs each.
SWEEP = dict(sizes=(2, 3, 4), repetitions=4, eval_limit=2, seed=2020)

_ROWS = {}


def _sweep_rows():
    from repro.experiments import fig16_training_size

    return fig16_training_size.run(**SWEEP).rows


def test_bench_fig16_serial(benchmark):
    from repro.parallel import set_jobs

    def run():
        clear_all_caches()
        set_jobs(1)
        return _sweep_rows()

    _ROWS["serial"] = benchmark.pedantic(run, rounds=1, iterations=1)


def test_bench_fig16_parallel(benchmark):
    from repro.parallel import set_jobs

    def run():
        clear_all_caches()
        set_jobs(min(4, os.cpu_count() or 1))
        return _sweep_rows()

    try:
        _ROWS["parallel"] = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        from repro.parallel import set_jobs as reset

        reset(1)


def test_parallel_rows_identical():
    """The speedup must not change a single number."""
    if "serial" in _ROWS and "parallel" in _ROWS:
        assert _ROWS["serial"] == _ROWS["parallel"]

