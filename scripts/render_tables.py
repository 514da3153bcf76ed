#!/usr/bin/env python3
"""Render every table a change must keep byte for byte into OUTPUT_DIR.

Each table is one CSV named ``COMMAND-SETTING.csv``: the five commands at
the defaults (``COMMAND-defaults.csv``), ``range`` at
``channel.noise_std=0.02``, ``range`` on a 0.1 m grid (56 distances, 0.5-6
m, both modes) under 13 settings (``range-fine-SETTING.csv``), and the four
power tables under 13 more.  Cells print at their shortest round-trip
digits, so ``diff -r`` of two output directories compares every ranging
answer and power cell bit for bit.  Render from two versions of ``src/`` to
show that a change keeps them:

    PYTHONPATH=src python scripts/render_tables.py OUTPUT_DIR
"""

import os

# OpenBLAS splits a dot product of more than 10,000 samples across its
# threads, so an ideal-audio peak over a longer capture would follow the
# thread count.  No table here takes such a dot: one-bit scores are integer
# counts, and the longest ideal-audio capture is 768 samples.  One thread,
# set before numpy loads, as in the golden-bit tests and the benchmark,
# keeps every table independent of the CPUs it runs on all the same.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys
import time
from pathlib import Path

from chirploc.cli import COMMANDS, main

POWER = ("charge-curve", "update-rate", "size-buffer", "sweep")
ECHO = "channel.multipath=[[0.0005, 0.5]]"
RANGE_SETTINGS = {
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
POWER_SETTINGS = {
    "grid-1cm": ["grid.d_step_m=0.01"],
    "step-7": ["sweep.step_deg=7"],
    "step-13": ["sweep.step_deg=13"],
    "step-100": ["sweep.step_deg=100"],
    "step-180": ["sweep.step_deg=180"],
    "elements-1-2-3-16": ["sweep.n_elements=[1,2,3,16]"],
    "spacing-0.25": ["sweep.spacing_wavelengths=0.25"],
    "spacing-1.0": ["sweep.spacing_wavelengths=1.0"],
    "element-gain-2.15": ["sweep.element_gain_dbi=2.15"],
    "tags-edge": ["sweep.tag_angles_deg=[-90,-37.5,90]"],
    "dwell-0.3ms": ["sweep.dwell_s=3e-4"],
    "scenario-initial": ["scenario=initial"],
    "scenario-update": ["scenario=update"],
}
# table name: (command, its settings)
TABLES = {
    **{f"{command}-defaults": (command, []) for command in COMMANDS},
    "range-noise-0.02": ("range", ["channel.noise_std=0.02"]),
    **{f"range-fine-{name}": ("range", ["range_grid.d_step_m=0.1", *sets])
       for name, sets in RANGE_SETTINGS.items()},
    **{f"{command}-{name}": (command, sets)
       for name, sets in POWER_SETTINGS.items() for command in POWER},
}


def run(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (command, sets) in TABLES.items():
        target = out_dir / f"{name}.csv"
        started = time.perf_counter()
        code = main([command, "--out", str(target),
                     *(arg for setting in sets for arg in ("--set", setting))])
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return code
        print(f"{name:32s} ({time.perf_counter() - started:.2f} s)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(f"usage: {sys.argv[0]} OUTPUT_DIR")
    sys.exit(run(Path(sys.argv[1])))
