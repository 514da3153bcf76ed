"""Tag energy accounting, storage sizing, and the harvester transfer curve.

The tag's receive chain is a handful of always-off components that get
powered just long enough to capture one chirp slice.  This module prices
that wake-up, sizes the storage capacitor that must carry it, and models
the RF harvester that refills the capacitor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ParameterError

__all__ = [
    "ComponentPower",
    "StartupPlan",
    "HarvesterSpec",
    "tag_energy",
    "min_capacitance",
    "buffer_energy",
    "harvester_output",
    "next_standard_capacitance",
    "load_component_table",
    "load_efficiency_curve",
    "default_components",
    "default_efficiency_curve",
    "default_harvester",
]

STARTUP_MODES = ("split", "simultaneous")
OVERLAP_MODES = ("full_window", "own_turn_on")

# E12 preferred values, spanned over practical storage decades (1 uF .. 1 F).
_E12 = (1.0, 1.2, 1.5, 1.8, 2.2, 2.7, 3.3, 3.9, 4.7, 5.6, 6.8, 8.2)
_DECADES = tuple(10.0 ** e for e in range(-6, 1))


@dataclass(frozen=True)
class ComponentPower:
    """Power draw of one receive-chain component.

    ``power`` is per unit; ``count`` multiplies it for duplicated stages
    (e.g. two amplifiers, two oscillators).
    """

    name: str
    power: float
    turn_on_time: float
    count: int = 1

    def __post_init__(self):
        if self.power < 0:
            raise ParameterError(f"{self.name}: power must be >= 0, got {self.power}")
        if self.turn_on_time < 0:
            raise ParameterError(
                f"{self.name}: turn_on_time must be >= 0, got {self.turn_on_time}"
            )
        if self.count < 1:
            raise ParameterError(f"{self.name}: count must be >= 1, got {self.count}")

    @property
    def total_power(self) -> float:
        return self.power * self.count


@dataclass(frozen=True)
class StartupPlan:
    """How the components are sequenced around one capture.

    In ``split`` mode the slowest-starting component (the microphone) powers
    up alone, and every other component turns on only inside a final shared
    window whose length is the largest remaining turn-on time.  In
    ``simultaneous`` mode everything is on for the whole slow start-up.
    Either way everything then stays on for ``operate_time``, which the
    scenario config fills from ``timeline.capture_duration_s``.

    ``overlap`` applies to split mode only: ``full_window`` keeps the fast
    components on for the whole shared window, ``own_turn_on`` powers each
    one just for its own turn-on time, aligned to finish together.
    """

    mode: str = "split"
    operate_time: float = 1e-3
    overlap: str = "full_window"

    def __post_init__(self):
        if self.mode not in STARTUP_MODES:
            raise ParameterError(f"mode must be one of {STARTUP_MODES}, got {self.mode!r}")
        if self.overlap not in OVERLAP_MODES:
            raise ParameterError(
                f"overlap must be one of {OVERLAP_MODES}, got {self.overlap!r}"
            )
        if self.operate_time < 0:
            raise ParameterError(
                f"operate_time must be >= 0, got {self.operate_time}"
            )


def tag_energy(components: list[ComponentPower] | tuple[ComponentPower, ...],
               plan: StartupPlan) -> float:
    """Energy in joules for one capture under the given start-up plan."""
    comps = tuple(components)
    if not comps:
        return 0.0
    slow = max(comps, key=lambda c: c.turn_on_time)
    rest = [c for c in comps if c is not slow]
    window = max((c.turn_on_time for c in rest), default=0.0)

    energy = slow.total_power * (slow.turn_on_time + plan.operate_time)
    for c in rest:
        if plan.mode == "simultaneous":
            on_time = slow.turn_on_time
        elif plan.overlap == "full_window":
            on_time = window
        else:
            on_time = min(c.turn_on_time, window)
        energy += c.total_power * (on_time + plan.operate_time)
    return energy


@dataclass(frozen=True)
class HarvesterSpec:
    """RF harvester and its LDO-regulated storage interface.

    The efficiency curve is piecewise linear in input power (dBm); outside
    [p_in_min, p_in_max] the harvester produces nothing.  ``eta_antenna``
    scales the input power before the curve, ``eta_storage`` scales the
    output after it (both default to lossless).
    """

    v_chrdy: float = 2.30
    v_ovdis: float = 2.20
    eta_ldo_worst: float = 0.77
    p_in_min: float = -19.5
    p_in_max: float = 10.0
    efficiency_curve: tuple[tuple[float, float], ...] = field(
        default_factory=lambda: default_efficiency_curve()
    )
    eta_antenna: float = 1.0
    eta_storage: float = 1.0

    def __post_init__(self):
        if not 0 < self.v_ovdis < self.v_chrdy:
            raise ParameterError(
                f"need 0 < v_ovdis < v_chrdy, got v_ovdis={self.v_ovdis}, "
                f"v_chrdy={self.v_chrdy}"
            )
        if not 0 < self.eta_ldo_worst <= 1:
            raise ParameterError(
                f"eta_ldo_worst must be in (0, 1], got {self.eta_ldo_worst}"
            )
        if not self.p_in_min < self.p_in_max:
            raise ParameterError(
                f"p_in_min ({self.p_in_min}) must be below p_in_max ({self.p_in_max})"
            )
        for name in ("eta_antenna", "eta_storage"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ParameterError(f"{name} must be in (0, 1], got {v}")
        curve = tuple((float(p), float(e)) for p, e in self.efficiency_curve)
        if len(curve) < 2:
            raise ParameterError("efficiency_curve needs at least two points")
        ps = [p for p, _ in curve]
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ParameterError("efficiency_curve points must have strictly "
                                 "increasing input power")
        if any(not 0 < e <= 1 for _, e in curve):
            raise ParameterError("efficiency values must be in (0, 1]")
        object.__setattr__(self, "efficiency_curve", curve)


def buffer_energy(capacitance: float, v_high: float, v_low: float) -> float:
    """Energy released by a capacitor discharging from v_high to v_low."""
    if not 0 < capacitance < math.inf:
        raise ParameterError(
            f"capacitance must be positive and finite, got {capacitance}")
    if v_low < 0 or v_high < v_low:
        raise ParameterError(
            f"need v_high >= v_low >= 0, got v_high={v_high}, v_low={v_low}"
        )
    return 0.5 * capacitance * (v_high**2 - v_low**2)


def min_capacitance(e_tag: float, harvester: HarvesterSpec) -> float:
    """Smallest capacitance whose usable swing covers one capture.

    Only the charge between the charge-ready and over-discharge thresholds
    is usable, and the LDO passes a worst-case fraction of it, so
    C >= 2*E / (eta_ldo * (v_chrdy^2 - v_ovdis^2)).
    """
    if e_tag < 0:
        raise ParameterError(f"e_tag must be >= 0, got {e_tag}")
    swing = harvester.v_chrdy**2 - harvester.v_ovdis**2
    return 2.0 * e_tag / (harvester.eta_ldo_worst * swing)


def next_standard_capacitance(c_min: float) -> float:
    """Smallest E12 preferred value >= c_min (1 uF .. 8.2 F range)."""
    if c_min < 0:
        raise ParameterError(f"c_min must be >= 0, got {c_min}")
    for decade in _DECADES:
        for mantissa in _E12:
            value = mantissa * decade
            if value >= c_min or math.isclose(value, c_min, rel_tol=1e-12):
                return value
    raise ParameterError(f"c_min {c_min} exceeds the supported standard range")


def harvester_output(p_in_dbm, harvester: HarvesterSpec):
    """DC power in watts delivered by the harvester for a given RF input.

    Zero outside the harvester's sensitivity window; inside it, the
    efficiency interpolated from the curve times the input power in watts.
    An array of inputs gives an array of outputs, a scalar a float.  Each
    dBm-to-watt power runs on Python's ``math``, not numpy's SIMD loops.
    """
    p = np.asarray(p_in_dbm, dtype=float)
    if not np.isfinite(p).all():
        raise ParameterError(f"p_in_dbm must be finite, got {p_in_dbm}")
    p_eff = p + 10.0 * math.log10(harvester.eta_antenna)
    inside = (p_eff >= harvester.p_in_min) & (p_eff <= harvester.p_in_max)
    powers = np.zeros(p.shape)
    p_eff = p_eff[inside]
    p_watts = [10.0 ** x for x in ((p_eff - 30.0) / 10.0).tolist()]
    powers[inside] = (harvester.eta_storage
                      * np.interp(p_eff, *np.array(harvester.efficiency_curve).T)
                      * p_watts)
    return powers if powers.ndim else float(powers)


def load_component_table(path: str | Path) -> tuple[ComponentPower, ...]:
    """Read a component table CSV (name,power_w,turn_on_time_s,count)."""
    with open(path, newline="") as fh:
        rows = _read_rows(fh, "component table",
                          ("name", "power_w", "turn_on_time_s", "count"))
    return tuple(
        ComponentPower(name=name.strip(), power=float(power),
                       turn_on_time=float(turn_on), count=int(count))
        for name, power, turn_on, count in rows
    )


def load_efficiency_curve(path: str | Path) -> tuple[tuple[float, float], ...]:
    """Read an efficiency curve CSV (p_in_dbm,efficiency)."""
    with open(path, newline="") as fh:
        rows = _read_rows(fh, "efficiency curve", ("p_in_dbm", "efficiency"))
    return tuple((float(p), float(eta)) for p, eta in rows)


def _read_rows(lines, what: str, header: tuple[str, ...]) -> list[list[str]]:
    """The data rows of a CSV whose ``#`` lines are comments.

    The first row must be ``header`` and every data row as wide as it.
    """
    rows = [r for r in csv.reader(
        line for line in lines if not line.lstrip().startswith("#")) if r]
    if not rows or [c.strip() for c in rows[0]] != list(header):
        raise ParameterError(
            f"{what} must start with header '{','.join(header)}'")
    for row in rows[1:]:
        if len(row) != len(header):
            raise ParameterError(f"bad {what} row: {row}")
    return rows[1:]


@lru_cache(maxsize=1)
def default_components() -> tuple[ComponentPower, ...]:
    """The built-in receive-chain component table."""
    data = resources.files("chirploc.data")
    with resources.as_file(data.joinpath("tag_components.csv")) as path:
        return load_component_table(path)


@lru_cache(maxsize=1)
def default_efficiency_curve() -> tuple[tuple[float, float], ...]:
    """The built-in calibrated harvester efficiency curve."""
    data = resources.files("chirploc.data")
    with resources.as_file(data.joinpath("harvester_efficiency.csv")) as path:
        return load_efficiency_curve(path)


def default_harvester() -> HarvesterSpec:
    return HarvesterSpec()
