"""Worker-process fan-out for derivation and the leave-one-out sweep.

One process-wide job count (set from every CLI subcommand's ``--jobs``)
drives :func:`parallel_map`, the single primitive the pipeline uses: map a
picklable function over items on a :class:`~concurrent.futures.\
ProcessPoolExecutor`, preserving input order so parallel runs are
byte-identical to serial ones.  ``jobs <= 1`` (the default) never spawns a
pool — the serial path stays the reference implementation.

Workers are forked (on POSIX), so anything the parent warmed — compiled
benchmarks, learned rules, derivation memos — is inherited for free; results
flow back once per item, and the parent memoizes them, so work a worker
performs is paid once per parent process.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_JOBS = 1


def set_jobs(jobs: Optional[int]) -> int:
    """Set the process-wide job count; ``0``/``None`` means all CPUs."""
    global _JOBS
    if not jobs:  # None or 0 -> auto
        _JOBS = os.cpu_count() or 1
    else:
        _JOBS = max(1, int(jobs))
    return _JOBS


def get_jobs() -> int:
    return _JOBS


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """An explicit override, or the process-wide setting."""
    if jobs is None:
        return _JOBS
    if jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = None,
) -> List[R]:
    """``[fn(x) for x in items]``, fanned out over worker processes.

    Results preserve input order.  Serial fallback when the effective job
    count is 1, when there is at most one item, or when a pool cannot be
    created (e.g. a sandbox without process spawning).  *fn* and the items
    must be picklable on the parallel path.
    """
    work: Sequence[T] = list(items)
    n = min(resolve_jobs(jobs), len(work))
    if n <= 1:
        return [fn(item) for item in work]
    try:
        executor = ProcessPoolExecutor(max_workers=n, initializer=_worker_init)
    except OSError as exc:  # no fork/semaphores available: run serially
        print(f"repro.parallel: no worker pool ({exc}); running serially",
              file=sys.stderr)
        return [fn(item) for item in work]
    with executor:
        chunksize = max(1, len(work) // (n * 4))
        return list(executor.map(fn, work, chunksize=chunksize))


def _worker_init() -> None:
    """Workers run serially — a fan-out inside a fan-out would oversubscribe."""
    global _JOBS
    _JOBS = 1
