"""Command-line front end: scenario tables from a JSON configuration.

Subcommands:
    charge-curve   charge times and harvested power over distance
    range          acoustic ranging accuracy over distance, both modes
    size-buffer    capacitor sizing report from the tag energy model
    update-rate    position-update rates under the duty cycle
    sweep          beam-sweep precharge times over tag angle and array size

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import lru_cache
from itertools import repeat

from . import __version__
from .config import ScenarioConfig, load_config
from .energy import (
    buffer_energy,
    harvester_output,
    min_capacitance,
    next_standard_capacitance,
    tag_energy,
)
from .errors import ConfigError, ParameterError, RangeWindowError
from .ranging import MODES, simulate_ranging
from .tables import ResultTable
from .wpt import (
    ChargeScenario,
    beam_sweep_precharge,
    charge_time,
    friis_received_power,
    update_rate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _grid_powers(cfg: ScenarioConfig):
    """The grid's distances, and the RF input (dBm) and harvested power (W)
    at each, one column each."""
    distances = cfg.grid
    p_in = friis_received_power(replace(cfg.link, distance=distances))
    return distances, p_in, harvester_output(p_in, cfg.harvester)


def cmd_charge_curve(cfg: ScenarioConfig) -> ResultTable:
    table = ResultTable(
        ["distance_m", "t_initial_s", "t_update_s", "p_harvest_w", "p_in_dbm"])
    d, p_in, p = _grid_powers(cfg)
    initial = charge_time(cfg.capacitance, ChargeScenario.initial(cfg.harvester), p)
    update = charge_time(cfg.capacitance, ChargeScenario.update(cfg.harvester), p)
    table.rows.extend(zip(*(c.tolist() for c in (d, initial, update, p, p_in))))
    return table


def cmd_range(cfg: ScenarioConfig) -> ResultTable:
    table = ResultTable(
        ["true_distance_m", "est_distance_m", "abs_error_m", "corr_peak", "mode"])
    for i, d in enumerate(cfg.range_grid):
        channel = cfg.channel_at(float(d), seed_offset=i)
        for mode in MODES:
            try:
                result = simulate_ranging(
                    cfg.chirp, channel, cfg.timeline, mode=mode, fsk=cfg.fsk,
                    threshold=cfg.comparator_threshold,
                )
            except RangeWindowError as exc:
                print(f"range: {exc}", file=sys.stderr)
                table.add(float(d), float("nan"), float("nan"), float("nan"), mode)
                continue
            table.add(
                float(d),
                result.distance,
                abs(result.distance - float(d)),
                result.peak,
                mode,
            )
    return table


def cmd_size_buffer(cfg: ScenarioConfig) -> ResultTable:
    e_tag = tag_energy(cfg.components, cfg.startup)
    c_min = min_capacitance(e_tag, cfg.harvester)
    standard = next_standard_capacitance(c_min)
    e_cap = buffer_energy(standard, cfg.harvester.v_chrdy, cfg.harvester.v_ovdis)
    e_full = buffer_energy(standard, cfg.harvester.v_chrdy, 0.0)
    return ResultTable(["quantity", "value", "unit"], [
        ("e_tag", e_tag, "J"),
        ("c_min", c_min, "F"),
        ("standard_capacitance", standard, "F"),
        ("e_cap_swing", e_cap, "J"),
        ("e_cap_full", e_full, "J"),
    ])


def cmd_update_rate(cfg: ScenarioConfig) -> ResultTable:
    table = ResultTable(
        ["distance_m", "scenario", "charge_time_s", "duty_cycle",
         "updates_per_hour", "seconds_per_update"])
    duty, overhead = cfg.link.duty_cycle, cfg.measurement_overhead
    d, _, p = _grid_powers(cfg)
    per_scenario = []
    for scenario in cfg.scenarios:
        t = charge_time(cfg.capacitance, scenario, p)
        per_scenario.append(zip(
            d.tolist(), repeat(scenario.kind), t.tolist(), repeat(duty),
            update_rate(t, duty, overhead).tolist(), (t / duty + overhead).tolist()))
    table.rows.extend(row for rows in zip(*per_scenario) for row in rows)
    return table


def cmd_sweep(cfg: ScenarioConfig) -> ResultTable:
    table = ResultTable(["tag_angle_deg", "n_elements", "precharge_time_s"])
    for angle in cfg.sweep_angles:
        for array in cfg.sweep_arrays:
            t = beam_sweep_precharge(
                array, angle, dwell=cfg.sweep_dwell, step=cfg.sweep_step,
                link=cfg.sweep_link, harvester=cfg.harvester,
                capacitance=cfg.capacitance)
            table.add(angle, array.n_elements, t)
    return table


COMMANDS = {
    "charge-curve": cmd_charge_curve,
    "range": cmd_range,
    "size-buffer": cmd_size_buffer,
    "update-rate": cmd_update_rate,
    "sweep": cmd_sweep,
}


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="chirploc",
        description="Chirp-sampling ranging and RF-power scenario simulator.",
    )
    parser.add_argument("--version", action="version",
                        version=f"chirploc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", default=None,
                       help="JSON scenario configuration (defaults apply)")
        p.add_argument("--out", default=None,
                       help="output CSV path (stdout when omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured RNG seed")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config value by dotted path "
                            "(repeatable)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set, args.seed)
        table = COMMANDS[args.command](cfg)
        # every table carries its provenance as leading '#' lines
        table.metadata = {
            "tool": f"chirploc {__version__}",
            "command": args.command,
            "config_hash": cfg.config_hash,
            "seed": str(cfg.rng_seed),
        }
        table.write(args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParameterError, RangeWindowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
