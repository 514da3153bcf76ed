#!/usr/bin/env python3
"""Print each mode's cycle-slip rate and fine error over the Monte Carlo set.

The set is 400 distances drawn uniformly from 0.5-6 m
(``default_rng(12345)``), the ``i``-th ranged with the channel
``channel_at(d, seed_offset=1000 + i)`` of the default config.  An error
over 6 mm, about half a local audio period, is a slip.  Per mode and per
``channel.noise_std`` in 0, 0.02, 0.05 and 0.1 it prints the slip rate and
the median and 95th percentile of the error among the draws that do not
slip.  Each ``--set KEY=VALUE``, repeatable and in the CLI's syntax, applies
on top of every noise level.  Each one-bit noise level takes a few seconds:

    PYTHONPATH=src python scripts/slip_rates.py
    PYTHONPATH=src python scripts/slip_rates.py \
        --set channel.interpolate_delays=true
"""

import argparse
import os

# OpenBLAS splits a dot product of more than 10,000 samples across its
# threads, so an ideal-audio peak over a longer capture would follow the
# thread count.  No exchange here takes such a dot: the default 1 ms capture
# is 192 ideal-audio samples, and one-bit scores are integer counts.  One
# thread, set before numpy loads, as in the tables and the benchmark, keeps
# every rate independent of the CPUs it runs on all the same.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from chirploc.config import load_config
from chirploc.errors import ConfigError
from chirploc.ranging import MODES, simulate_ranging

DRAWS = 400
SLIP_M = 0.006
NOISE_STDS = (0, 0.02, 0.05, 0.1)


def errors(mode: str, noise_std: float, sets: list[str]) -> np.ndarray:
    """The absolute range error of each draw, in metres, with the ``sets``
    overrides applied after the noise level."""
    cfg = load_config(sets=[f"channel.noise_std={noise_std}", *sets])
    distances = np.random.default_rng(12345).uniform(0.5, 6.0, DRAWS)
    return np.array([abs(simulate_ranging(
        cfg.chirp, cfg.channel_at(d, seed_offset=1000 + i), cfg.timeline,
        mode=mode, fsk=cfg.fsk, threshold=cfg.comparator_threshold).distance
        - d) for i, d in enumerate(distances)])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one config value by dotted path, on "
                             "top of every noise level (repeatable)")
    sets = parser.parse_args().set
    try:
        load_config(sets=sets)
    except ConfigError as exc:
        parser.error(f"config error: {exc}")
    print("| mode | noise_std | slips | fine median | fine p95 |")
    print("| --- | --- | --- | --- | --- |")
    for mode in MODES:
        for noise_std in NOISE_STDS:
            err = errors(mode, noise_std, sets)
            fine = err[err <= SLIP_M] * 1e3
            median, p95 = (np.percentile(fine, (50, 95)) if fine.size
                           else (np.nan, np.nan))
            print(f"| {mode} | {noise_std} | {np.mean(err > SLIP_M):.1%} | "
                  f"{median:.4f} mm | {p95:.4f} mm |")


if __name__ == "__main__":
    main()
