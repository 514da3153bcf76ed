#!/usr/bin/env python3
"""Regenerate the calibrated harvester efficiency curve.

The shipped curve is a piecewise-linear surrogate, not a vendor datasheet
trace.  It is anchored so the end-to-end charge model reproduces the
measured behaviour of the reference deployment:

  * initial charge (0 V -> 2.3 V on 68 uF) takes <= 30 s at 4.5 m,
  * update charge (2.2 V -> 2.3 V) takes ~10 s at 6 m,
  * the charge-time ratio t(d)/t(d-0.5) has its minimum near 4.5 m and
    grows beyond it (the knee where falling efficiency compounds the
    inverse-square path loss).

Anchor efficiencies are placed at the input powers corresponding to
half-metre distances on the default configuration's link, with the drop
between anchors specified in dB of output power so the knee shape is
explicit.  The anchors are checked through the package's own link, harvester
and charge model, on the default capacitance and distance grid.  Run from
the repository root:

    PYTHONPATH=src python scripts/calibrate_efficiency_curve.py
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from chirploc import (ChargeScenario, charge_time, friis_received_power,
                      harvester_output)
from chirploc.config import load_config

# eta at the 4.5 m and 6 m anchors; chosen so t_initial(4.5) ~ 27.7 s (inside
# the 30 s budget with margin) and t_update(6) ~ 10.0 s.
ETA_4P5 = 0.2125
ETA_6P0 = 0.0890

# dB drop of 10*log10(eta) per half-metre step, outward from 4.5 m.  The
# outward steps grow, which is what creates the knee; the 5.0->6.0 segment is
# scaled so it lands exactly on ETA_6P0.
DROP_OUT_5, DROP_OUT_5P5 = 0.93, 1.26
DROP_OUT_6P5, DROP_OUT_7 = 2.10, 2.75
# dB rise per half-metre step, inward from 4.5 m down to 1 m.
RISES_IN = (0.55, 0.48, 0.42, 0.36, 0.31, 0.26, 0.21)

TOP_POINTS = ((0.0, 0.40), (5.0, 0.42), (10.0, 0.44))
BOTTOM_POINT = (-19.5, 0.0126)


def build_curve(link) -> list[tuple[float, float]]:
    level = {4.5: 10.0 * math.log10(ETA_4P5)}
    total = level[4.5] - 10.0 * math.log10(ETA_6P0)
    level[5.0] = level[4.5] - DROP_OUT_5
    level[5.5] = level[5.0] - DROP_OUT_5P5
    level[6.0] = level[5.5] - (total - DROP_OUT_5 - DROP_OUT_5P5)
    level[6.5] = level[6.0] - DROP_OUT_6P5
    level[7.0] = level[6.5] - DROP_OUT_7
    d = 4.5
    for rise in RISES_IN:
        level[round(d - 0.5, 1)] = level[d] + rise
        d = round(d - 0.5, 1)

    points = [(friis_received_power(replace(link, distance=dist)),
               10.0 ** (lvl / 10.0))
              for dist, lvl in level.items()]
    points.append(BOTTOM_POINT)
    points.extend(TOP_POINTS)
    points.sort()
    return points


def verify(points: list[tuple[float, float]], cfg) -> None:
    ps = np.array([p for p, _ in points])
    es = np.array([e for _, e in points])
    assert (np.diff(ps) > 0).all() and (np.diff(es) > 0).all()
    harvester = replace(cfg.harvester, efficiency_curve=points)

    def charge(kind: str, d):
        """Radiated charge time of the ``kind`` scenario at distance ``d``."""
        p_in = friis_received_power(replace(cfg.link, distance=d))
        return charge_time(cfg.capacitance,
                           getattr(ChargeScenario, kind)(harvester),
                           harvester_output(p_in, harvester))

    t_initial = charge("initial", cfg.grid)
    ratios = t_initial[1:] / t_initial[:-1]
    t_initial_4p5, t_update_6 = charge("initial", 4.5), charge("update", 6.0)

    print(f"t_initial(4.5 m) = {t_initial_4p5:7.3f} s  (budget 30 s)")
    print(f"t_update(6.0 m)  = {t_update_6:7.3f} s  (target ~10 s)")
    knee = ratios[7:]
    print(f"ratio t(d)/t(d-0.5) beyond 4.5 m: {np.round(knee, 4)}")
    assert t_initial_4p5 <= 30.0
    assert abs(t_update_6 - 10.0) <= 2.0
    assert (np.diff(knee) > 0).all(), "knee must steepen beyond 4.5 m"


def main() -> None:
    cfg = load_config()
    points = build_curve(cfg.link)
    verify(points, cfg)
    out = Path(__file__).resolve().parents[1] / "src" / "chirploc" / "data" \
        / "harvester_efficiency.csv"
    lines = [
        "# Calibrated RF harvester efficiency surrogate (NOT a vendor datasheet",
        "# trace).  Piecewise linear in input power; regenerate with",
        "# scripts/calibrate_efficiency_curve.py, which documents the anchors.",
        "p_in_dbm,efficiency",
    ]
    lines += [f"{p:.3f},{e:.5f}" for p, e in points]
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
