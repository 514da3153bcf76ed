"""Scenario configuration: JSON in, validated typed objects out.

Every parameter has a default, so an empty config file (or none at all)
reproduces the reference deployment scenario.  User files are deep-merged
over the defaults; unknown keys are rejected with the offending dotted
path.  The resolved configuration (with any referenced data files inlined)
is hashed so result tables can state exactly what produced them.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .channel import AcousticChannel, ReceiveWindow
from .energy import (
    ComponentPower,
    HarvesterSpec,
    StartupPlan,
    default_components,
    default_efficiency_curve,
    load_component_table,
    load_efficiency_curve,
)
from .errors import ConfigError, ParameterError
from .ranging import RangingTimeline
from .signals import ChirpSpec, FskConfig
from .wpt import ArraySpec, RfLink, inclusive_grid

__all__ = ["DEFAULT_CONFIG", "ScenarioConfig", "load_config", "resolve_config"]

DEFAULT_CONFIG: dict[str, Any] = {
    "rng_seed": 0,
    "chirp": {
        "f_start_hz": 20000.0,
        "f_stop_hz": 40000.0,
        "duration_s": 0.050,
        "sample_rate_hz": 192000.0,
        "amplitude": 1.0,
    },
    "channel": {
        "speed_of_sound_mps": 343.0,
        "attenuation_exponent": 1.0,
        "noise_std": 0.0,
        "multipath": [],
        "interpolate_delays": False,
    },
    "timeline": {
        "chirp_start_s": 0.0,
        "wakeup_time_s": 0.020,
        "capture_duration_s": 0.001,
    },
    "fsk": {
        "freq0_hz": 1.0e6,
        "freq1_hz": 1.1e6,
        "sample_rate_hz": 1.0e7,
    },
    "comparator_threshold": 0.0,
    "components_file": None,
    "startup": {
        "mode": "split",
        "overlap": "full_window",
    },
    "harvester": {
        "v_chrdy": 2.30,
        "v_ovdis": 2.20,
        "eta_ldo_worst": 0.77,
        "p_in_min_dbm": -19.5,
        "p_in_max_dbm": 10.0,
        "eta_antenna": 1.0,
        "eta_storage": 1.0,
        "efficiency_curve_file": None,
    },
    "link": {
        "frequency_hz": 869.5e6,
        "p_t_dbm": 27.0,
        "g_t_dbi": 0.0,
        "g_r_dbi": 2.15,
        "duty_cycle": 0.10,
        "eirp_limit_dbm": 27.0,
    },
    "capacitance_f": 6.8e-5,
    # RF charge/update-rate sweeps use this grid; acoustic ranging has its
    # own because distances beyond speed_of_sound * wakeup_delay cannot be
    # captured at all.
    "grid": {"d_min_m": 1.0, "d_max_m": 7.0, "d_step_m": 0.5},
    "range_grid": {"d_min_m": 0.5, "d_max_m": 6.0, "d_step_m": 0.5},
    "scenario": "both",
    "update_rate": {"measurement_overhead_s": 0.0},
    "sweep": {
        "distance_m": 4.5,
        "dwell_s": 1.0,
        "step_deg": 10.0,
        "tag_angles_deg": [-90.0, 0.0, 25.0],
        "n_elements": [1, 4, 8],
        "element_gain_dbi": 0.0,
        "spacing_wavelengths": 0.5,
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        dotted = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key '{dotted}'")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(
                    f"config key '{dotted}' must be an object; set its fields")
            out[key] = _merge(base[key], value, f"{dotted}.")
        elif isinstance(value, dict):
            raise ConfigError(f"config key '{dotted}' takes a value, not an object")
        else:
            out[key] = value
    return out


def _set_override(assignment: str) -> dict:
    """``--set a.b=v`` as the nested override ``{"a": {"b": v}}``."""
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got '{assignment}'")
    dotted, _, raw = assignment.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(dotted.strip().split(".")):
        value = {part: value}
    return value


def resolve_config(path: str | None = None, sets: list[str] | None = None,
                   seed: int | None = None) -> dict:
    """Produce the fully resolved configuration dict."""
    if path is None:
        user: dict = {}
    else:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must contain a JSON object")
    resolved = _merge(DEFAULT_CONFIG, user)
    for assignment in sets or []:
        resolved = _merge(resolved, _set_override(assignment))
    if seed is not None:
        resolved["rng_seed"] = int(seed)
    return resolved


def _number(value) -> float:
    if not math.isfinite(number := float(value)):
        raise ValueError(f"must be a finite number, got {value}")
    return number


def _whole(value) -> int:
    number = value if isinstance(value, int) else _number(value)
    if number != int(number):
        raise ValueError(f"must be a whole number, got {value}")
    return int(number)


def _read(resolved: dict, dotted: str, convert=_number):
    """``convert`` applied to the value at a dotted key: a value it rejects,
    or a data file it cannot read, is a ``ConfigError`` naming the key."""
    group, _, key = dotted.rpartition(".")
    try:
        return convert((resolved[group] if group else resolved)[key])
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"{dotted}: {exc}") from exc


def _spec(resolved: dict, group: str, build, *keys: str, **given):
    """``build`` of the numbers at ``group``'s ``keys``, in order, and of
    ``given``.  A value it rejects is a ``ConfigError`` naming the keys of
    ``group`` whose fields (``distance`` for ``distance_m``) it names."""
    try:
        return build(*(_read(resolved, f"{group}.{k}") for k in keys), **given)
    except ParameterError as exc:
        words = re.findall(r"\w+", str(exc))
        named = [f"{group}.{key}" for key in resolved[group]
                 if any(key == w or key.startswith(f"{w}_") for w in words)]
        raise ConfigError(f"{', '.join(named) or group}: {exc}") from exc


def _grid(resolved: dict, name: str) -> np.ndarray:
    lo, hi, step = (_read(resolved, f"{name}.{k}")
                    for k in ("d_min_m", "d_max_m", "d_step_m"))
    if not step > 0:
        raise ConfigError(f"{name}.d_step_m must be positive, got {step}")
    try:
        return inclusive_grid(lo, hi, step)
    except ParameterError as exc:
        raise ConfigError(f"{name}.d_step_m: {exc}") from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """Typed view of a resolved configuration: ``link`` and ``channel`` sit
    at 1 m until a table moves them (``channel_at`` for the channel)."""

    resolved: dict
    rng_seed: int
    chirp: ChirpSpec
    timeline: RangingTimeline
    fsk: FskConfig
    comparator_threshold: float
    channel: AcousticChannel
    components: tuple[ComponentPower, ...]
    startup: StartupPlan
    harvester: HarvesterSpec
    capacitance: float
    link: RfLink
    scenario: str
    measurement_overhead: float
    sweep_link: RfLink
    sweep_arrays: tuple[ArraySpec, ...]
    sweep_angles: tuple[float, ...]
    sweep_dwell: float
    sweep_step: float
    config_hash: str

    @classmethod
    def from_dict(cls, resolved: dict) -> "ScenarioConfig":
        """A malformed or out-of-range value is a ``ConfigError`` naming its key."""
        rng_seed = _read(resolved, "rng_seed", _whole)
        chirp = _spec(resolved, "chirp", ChirpSpec, "f_start_hz", "f_stop_hz",
                      "duration_s", "sample_rate_hz", "amplitude")
        timeline = _spec(resolved, "timeline", RangingTimeline, "chirp_start_s",
                         "wakeup_time_s", "capture_duration_s")
        fsk = _spec(resolved, "fsk", FskConfig, "freq0_hz", "freq1_hz",
                    "sample_rate_hz")
        # each mode samples the capture at its own rate; an empty capture
        # has nothing to locate
        for key, rate in (("chirp.sample_rate_hz", chirp.sample_rate),
                          ("fsk.sample_rate_hz", fsk.sample_rate)):
            window = ReceiveWindow(timeline.wakeup_time,
                                   timeline.capture_duration, rate)
            if not math.isfinite(window.duration * rate):
                raise ConfigError(
                    f"timeline.capture_duration_s ({timeline.capture_duration})"
                    f" overflows the sample count at {key} = {rate}")
            if window.n_samples == 0:
                raise ConfigError(
                    f"timeline.capture_duration_s ({timeline.capture_duration})"
                    f" holds no sample at {key} = {rate}")
        channel = _spec(
            resolved, "channel", AcousticChannel, distance=1.0,
            speed_of_sound=_read(resolved, "channel.speed_of_sound_mps"),
            attenuation_exponent=_read(resolved, "channel.attenuation_exponent"),
            noise_std=_read(resolved, "channel.noise_std"),
            multipath=_read(resolved, "channel.multipath",
                            lambda echoes: tuple((_number(d), _number(g))
                                                 for d, g in echoes)),
            rng_seed=rng_seed,
            interpolate_delays=resolved["channel"]["interpolate_delays"],
        )

        components = _read(resolved, "components_file", lambda path: (
            load_component_table(str(path)) if path else default_components()))
        startup = _spec(
            resolved, "startup", StartupPlan,
            mode=resolved["startup"]["mode"],
            operate_time=timeline.capture_duration,
            overlap=resolved["startup"]["overlap"],
        )

        curve = _read(resolved, "harvester.efficiency_curve_file", lambda path: (
            load_efficiency_curve(str(path)) if path else default_efficiency_curve()))
        harvester = _spec(
            resolved, "harvester", HarvesterSpec, "v_chrdy", "v_ovdis",
            "eta_ldo_worst", "p_in_min_dbm", "p_in_max_dbm",
            efficiency_curve=curve,
            eta_antenna=_read(resolved, "harvester.eta_antenna"),
            eta_storage=_read(resolved, "harvester.eta_storage"),
        )

        capacitance = _read(resolved, "capacitance_f")
        if not capacitance > 0:
            raise ConfigError(f"capacitance_f must be positive, got {capacitance}")
        link = _spec(resolved, "link", lambda *values: RfLink(1.0, *values),
                     "frequency_hz", "p_t_dbm", "g_t_dbi", "g_r_dbi",
                     "duty_cycle", "eirp_limit_dbm")
        scenario = resolved["scenario"]
        if scenario not in ("initial", "update", "both"):
            raise ConfigError(
                f"scenario must be 'initial', 'update' or 'both', got {scenario!r}"
            )
        overhead = _read(resolved, "update_rate.measurement_overhead_s")
        if overhead < 0:
            raise ConfigError(
                f"update_rate.measurement_overhead_s must be >= 0, got {overhead}"
            )

        spacing = _read(resolved, "sweep.spacing_wavelengths")
        element_gain = _read(resolved, "sweep.element_gain_dbi")
        sweep_arrays = tuple(
            _spec(resolved, "sweep", ArraySpec, n_elements=n, spacing=spacing,
                  element_gain=element_gain)
            for n in _read(resolved, "sweep.n_elements",
                           lambda v: [_whole(x) for x in v]))
        return cls(
            resolved=resolved,
            rng_seed=rng_seed,
            chirp=chirp,
            timeline=timeline,
            fsk=fsk,
            comparator_threshold=_read(resolved, "comparator_threshold"),
            channel=channel,
            components=components,
            startup=startup,
            harvester=harvester,
            capacitance=capacitance,
            link=link,
            scenario=scenario,
            measurement_overhead=overhead,
            sweep_link=_spec(resolved, "sweep",
                             lambda d: replace(link, distance=d), "distance_m"),
            sweep_arrays=sweep_arrays,
            sweep_angles=_read(resolved, "sweep.tag_angles_deg",
                               lambda v: tuple(map(_number, v))),
            sweep_dwell=_read(resolved, "sweep.dwell_s"),
            sweep_step=_read(resolved, "sweep.step_deg"),
            config_hash=_hash_config(resolved, components, harvester),
        )

    def channel_at(self, distance: float, seed_offset: int = 0) -> AcousticChannel:
        return replace(self.channel, distance=distance,
                       rng_seed=self.rng_seed + seed_offset)

    def grid(self) -> np.ndarray:
        return _grid(self.resolved, "grid")

    def range_grid(self) -> np.ndarray:
        return _grid(self.resolved, "range_grid")


def _hash_config(resolved: dict, components: tuple[ComponentPower, ...],
                 harvester: HarvesterSpec) -> str:
    # Inline loaded data files so the hash pins the effective inputs, not
    # just the file names.
    canon = copy.deepcopy(resolved)
    canon["components_file"] = [
        [c.name, c.power, c.turn_on_time, c.count] for c in components
    ]
    canon["harvester"]["efficiency_curve_file"] = [
        list(p) for p in harvester.efficiency_curve
    ]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_config(path: str | None = None, sets: list[str] | None = None,
                seed: int | None = None) -> ScenarioConfig:
    """Resolve and validate a scenario configuration."""
    return ScenarioConfig.from_dict(resolve_config(path, sets, seed))
