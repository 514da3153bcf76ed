#!/usr/bin/env python3
"""Render the ``range`` table on a fine grid under a fixed list of settings.

Each setting becomes one CSV in OUTPUT_DIR: ``chirploc range`` at 56
distances (0.5-6 m in 0.1 m steps) in both modes.  Cells print at their
shortest round-trip digits, so ``diff -r`` of two output directories
compares some 1,500 ranging answers bit for bit.  Render from two versions
of ``src/`` to show that a change keeps every lag and peak:

    PYTHONPATH=src python scripts/render_range_settings.py OUTPUT_DIR

OpenBLAS splits a dot product of more than 10,000 samples across its
threads, so the peaks of a 4 ms capture follow the thread count.  The
script therefore holds OpenBLAS to one thread before numpy loads, as the
golden-bit tests and the benchmark do.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import sys
import time
from pathlib import Path

from chirploc.cli import main

ECHO = "channel.multipath=[[0.0005, 0.5]]"
SETTINGS = {
    "defaults": [],
    "noise-0.02": ["channel.noise_std=0.02"],
    "noise-0.05": ["channel.noise_std=0.05"],
    "noise-0.1": ["channel.noise_std=0.1"],
    "noise-0.3": ["channel.noise_std=0.3"],
    "echo-0.5ms": [ECHO],
    "echo-0.5ms-interpolated": [ECHO, "channel.interpolate_delays=true"],
    "echo-2ms-noise-0.05": ["channel.multipath=[[0.002, 0.5]]",
                            "channel.noise_std=0.05"],
    "capture-50us": ["timeline.capture_duration_s=5e-5"],
    "capture-0.2ms": ["timeline.capture_duration_s=2e-4"],
    "capture-4ms": ["timeline.capture_duration_s=4e-3"],
    "amplitude-1e-150": ["chirp.amplitude=1e-150"],
    "amplitude-1e150": ["chirp.amplitude=1e150"],
}


def run(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, sets in SETTINGS.items():
        target = out_dir / f"range-{name}.csv"
        argv = ["range", "--set", "range_grid.d_step_m=0.1", "--out", str(target)]
        for assignment in sets:
            argv += ["--set", assignment]
        started = time.perf_counter()
        code = main(argv)
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return code
        print(f"{name:24s} -> {target}  ({time.perf_counter() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output_dir", help="directory for the CSV tables")
    sys.exit(run(Path(parser.parse_args().output_dir)))
