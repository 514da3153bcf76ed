#!/usr/bin/env python3
"""Render the four power tables under a fixed list of settings.

Each setting becomes four CSVs in OUTPUT_DIR: ``chirploc charge-curve``,
``update-rate``, ``size-buffer`` and ``sweep``.  Cells print at their
shortest round-trip digits, so ``diff -r`` of two output directories
compares the power chain (Friis link, harvester curve, charge times,
update rates, buffer sizing and beam-sweep precharge) bit for bit.  Render
from two versions of ``src/`` to show that a change keeps every cell:

    PYTHONPATH=src python scripts/render_power_settings.py OUTPUT_DIR

The power chain calls no BLAS routine, so unlike the range settings these
tables do not depend on the thread count.
"""

import argparse
import sys
import time
from pathlib import Path

from chirploc.cli import main

COMMANDS = ("charge-curve", "update-rate", "size-buffer", "sweep")
SETTINGS = {
    "defaults": [],
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


def run(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, sets in SETTINGS.items():
        started = time.perf_counter()
        for command in COMMANDS:
            target = out_dir / f"{command}-{name}.csv"
            argv = [command, "--out", str(target)]
            for assignment in sets:
                argv += ["--set", assignment]
            code = main(argv)
            if code != 0:
                print(f"{command} {name}: exit {code}", file=sys.stderr)
                return code
        print(f"{name:20s} -> {out_dir / f'*-{name}.csv'}  "
              f"({time.perf_counter() - started:.2f} s)")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output_dir", help="directory for the CSV tables")
    sys.exit(run(Path(parser.parse_args().output_dir)))
