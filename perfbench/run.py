"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The program is imported from the
checkout's ``src`` tree; the on-disk derivation cache is disabled so every
run starts cold and reads nothing earlier runs left behind.  Exits 2
without a result when the checkout holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("cold-start", "steady-state", "serve", "learn")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so ``finally`` blocks stop the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ["REPRO_CACHE_DISABLE"] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    trace = bool(args.trace)
    if args.workload == "serve":
        import serve

        log, metrics, table = serve.serve_workload(args.seed, args.seconds, trace)
    else:
        import inproc

        workload = getattr(inproc, args.workload.replace("-", "_"))
        log, metrics, table = workload(args.seed, args.seconds, trace)
    return harness.emit(log, metrics, table)


if __name__ == "__main__":
    sys.exit(main())
