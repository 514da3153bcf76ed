#!/usr/bin/env python3
"""Benchmark of chirploc's position fixes and power tables.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fix-clean --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics and the tracing overhead with
``--trace 1``.  Tables, configs, traces and results go to ``perfbench/out/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: the locator's matrix-vector
# products otherwise wake a second OpenBLAS thread that spins on the other
# vCPU, doubling the CPU a fix uses at the same wall time, and the run then
# measures how that spin contends with the rest of the host.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "chirploc" / "__init__.py").is_file():
        print(f"chirploc sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import OUT, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    line = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
