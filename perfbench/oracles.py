"""Reference computations made apart from chirploc.

Nothing here imports the package: geometry, the Friis link, the harvester
curve read straight from the packaged CSV, a closed-form beam-sweep
precharge time and the paper's update-rate anchor are computed from their
formulas, so the benchmark can check the program's outputs against them.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
from pathlib import Path

C_LIGHT = 299792458.0
# The paper's system figure: about 10 position updates per hour at 4.5 m.
ANCHOR_DISTANCE_M = 4.5
ANCHOR_UPDATES_PER_HOUR = (8.0, 14.0)


def distances(beacons, tag) -> list[float]:
    """True beacon-to-tag distances in metres."""
    return [math.hypot(tag[0] - b[0], tag[1] - b[1]) for b in beacons]


def capture_window_m(cfg: dict) -> tuple[float, float]:
    """Nearest and farthest distance whose capture lies inside the chirp."""
    c = cfg["channel"]["speed_of_sound_mps"]
    t = cfg["timeline"]
    delay = t["wakeup_time_s"] - t["chirp_start_s"]
    tail = delay + t["capture_duration_s"] - cfg["chirp"]["duration_s"]
    return max(0.0, c * tail), c * delay


def read_curve(path: Path) -> tuple[list[float], list[float]]:
    """(input dBm, efficiency) columns of a harvester efficiency CSV."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    rows = list(csv.reader(lines))
    if rows[0] != ["p_in_dbm", "efficiency"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return [float(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]]


def friis_dbm(distance: float, link: dict, g_t: float | None = None) -> float:
    """Free-space received power in dBm."""
    wavelength = C_LIGHT / link["frequency_hz"]
    path = 20.0 * math.log10(4.0 * math.pi * distance / wavelength)
    gain = link["g_t_dbi"] if g_t is None else g_t
    return link["p_t_dbm"] + gain + link["g_r_dbi"] - path


def harvested_w(p_in_dbm: float, harvester: dict, curve) -> float:
    """DC watts out of the harvester: zero outside its input window."""
    p = p_in_dbm + 10.0 * math.log10(harvester["eta_antenna"])
    if not harvester["p_in_min_dbm"] <= p <= harvester["p_in_max_dbm"]:
        return 0.0
    xs, ys = curve
    if p <= xs[0]:
        eta = ys[0]
    elif p >= xs[-1]:
        eta = ys[-1]
    else:
        k = bisect.bisect_right(xs, p) - 1
        eta = ys[k] + (ys[k + 1] - ys[k]) * (p - xs[k]) / (xs[k + 1] - xs[k])
    return harvester["eta_storage"] * eta * 10.0 ** ((p - 30.0) / 10.0)


def charge_s(capacitance: float, v_high: float, v_low: float,
             power_w: float) -> float:
    """Radiated seconds to charge a capacitor from v_low to v_high."""
    if power_w == 0.0:
        return math.inf
    return 0.5 * capacitance * (v_high ** 2 - v_low ** 2) / power_w


def updates_per_hour(charge: float, duty: float, overhead: float) -> float:
    return 0.0 if math.isinf(charge) else 3600.0 / (charge / duty + overhead)


def ula_gain_dbi(n: int, spacing: float, element_gain: float,
                 steer_deg: float, target_deg: float) -> float:
    """Uniform linear array gain by the closed-form array factor."""
    psi = 2.0 * math.pi * spacing * (math.sin(math.radians(target_deg))
                                     - math.sin(math.radians(steer_deg)))
    half = math.sin(psi / 2.0)
    if abs(half) < 1e-12:
        ratio = float(n)
    else:
        ratio = math.sin(n * psi / 2.0) ** 2 / (n * half * half)
    if ratio <= 1e-300:
        return -math.inf
    return element_gain + 10.0 * math.log10(ratio)


def sweep_precharge_s(cfg: dict, curve, n: int, tag_deg: float) -> float:
    """Closed-form wall-clock precharge time of a sweeping beam.

    Full sweeps deliver ``dwell * sum(p)`` each; the rest is one partial
    sweep walked steer by steer, finishing inside the first dwell whose
    energy reaches the target.
    """
    s, link, h = cfg["sweep"], cfg["link"], cfg["harvester"]
    step, dwell = s["step_deg"], s["dwell_s"]
    steers = [-90.0 + k * step for k in range(math.ceil(180.0 / step + 0.5))]
    powers = []
    for steer in steers:
        gain = ula_gain_dbi(n, s["spacing_wavelengths"], s["element_gain_dbi"],
                            steer, tag_deg)
        p_in = friis_dbm(s["distance_m"], link, g_t=gain)
        powers.append(harvested_w(p_in, h, curve) if math.isfinite(p_in)
                      else 0.0)
    per_sweep = dwell * sum(powers)
    if per_sweep == 0.0:
        return math.inf
    target = 0.5 * cfg["capacitance_f"] * h["v_chrdy"] ** 2
    full = math.ceil(target / per_sweep) - 1
    remaining = target - full * per_sweep
    radiated = full * len(steers) * dwell
    for p in powers:
        if p > 0.0 and p * dwell >= remaining:
            radiated += remaining / p
            break
        remaining -= p * dwell
        radiated += dwell
    return radiated / link["duty_cycle"]


def read_table(text: str) -> list[dict]:
    """Rows of a chirploc CSV table, '#' provenance lines skipped."""
    body = "".join(ln for ln in io.StringIO(text) if not ln.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def check_tables(texts: dict[str, str], cfg: dict, curve) -> list[str]:
    """Compare the rendered tables with the oracles; return the mismatches."""
    errors = []
    link, h, cap = cfg["link"], cfg["harvester"], cfg["capacitance_f"]
    overhead = cfg["update_rate"]["measurement_overhead_s"]
    swing = {"initial": (h["v_chrdy"], 0.0), "update": (h["v_chrdy"], h["v_ovdis"])}

    for row in read_table(texts["charge-curve"]):
        d = float(row["distance_m"])
        p_in = friis_dbm(d, link)
        p = harvested_w(p_in, h, curve)
        want = {"p_in_dbm": p_in, "p_harvest_w": p,
                "t_initial_s": charge_s(cap, *swing["initial"], p),
                "t_update_s": charge_s(cap, *swing["update"], p)}
        for col, value in want.items():
            if not _close(float(row[col]), value):
                errors.append(f"charge-curve d={d} {col}: {row[col]} != {value!r}")

    anchor = None
    for row in read_table(texts["update-rate"]):
        d = float(row["distance_m"])
        p = harvested_w(friis_dbm(d, link), h, curve)
        t = charge_s(cap, *swing[row["scenario"]], p)
        rate = updates_per_hour(t, link["duty_cycle"], overhead)
        for col, value in (("charge_time_s", t), ("updates_per_hour", rate)):
            if not _close(float(row[col]), value):
                errors.append(f"update-rate d={d} {row['scenario']} {col}: "
                              f"{row[col]} != {value!r}")
        if row["scenario"] == "initial" and abs(d - ANCHOR_DISTANCE_M) < 1e-9:
            anchor = float(row["updates_per_hour"])
    lo, hi = ANCHOR_UPDATES_PER_HOUR
    if anchor is None or not lo <= anchor <= hi:
        errors.append(f"update-rate at {ANCHOR_DISTANCE_M} m: {anchor} updates/h, "
                      f"paper anchor is {lo}..{hi}")

    for row in read_table(texts["sweep"]):
        want = sweep_precharge_s(cfg, curve, int(row["n_elements"]),
                                 float(row["tag_angle_deg"]))
        if not _close(float(row["precharge_time_s"]), want):
            errors.append(f"sweep {row}: closed form gives {want!r}")

    if not read_table(texts["size-buffer"]):
        errors.append("size-buffer table is empty")
    return errors
