"""RF power delivery: link budget, harvesting, charge timing, beam sweeps.

All link arithmetic happens in dB; power crosses into watts only inside the
harvester model.  Duty-cycle regulation is modeled as time-averaged
stretching: the radiated (on-air) time is what the energy integral sees, and
wall-clock time is radiated time divided by the duty cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import HarvesterSpec, buffer_energy, harvester_output
from .errors import ParameterError

__all__ = [
    "C_LIGHT",
    "RfLink",
    "ArraySpec",
    "ChargeScenario",
    "friis_received_power",
    "charge_time",
    "array_factor",
    "beam_sweep_precharge",
    "update_rate",
]

C_LIGHT = 299792458.0


@dataclass(frozen=True)
class RfLink:
    """Continuous-wave power link from transmitter to tag.

    Gains are in dBi, powers in dBm.  The transmitter must respect the
    regulatory EIRP ceiling: p_t + g_t <= eirp_limit.  ``distance`` may be
    an array: one link per distance, checked and priced all at once.
    """

    distance: float
    frequency: float = 869.5e6
    p_t: float = 27.0
    g_t: float = 0.0
    g_r: float = 2.15
    duty_cycle: float = 0.10
    eirp_limit: float = 27.0

    def __post_init__(self):
        distance = np.asarray(self.distance)
        if not (distance > 0).all():
            raise ParameterError(
                f"distance must be positive, got {distance[~(distance > 0)][0]}")
        if not self.frequency > 0:
            raise ParameterError(f"frequency must be positive, got {self.frequency}")
        if self.p_t + self.g_t > self.eirp_limit + 1e-9:
            raise ParameterError(
                f"p_t ({self.p_t} dBm) + g_t ({self.g_t} dBi) exceeds the "
                f"{self.eirp_limit} dBm regulatory EIRP limit"
            )
        if not 0 < self.duty_cycle <= 1:
            raise ParameterError(
                f"duty_cycle must be in (0, 1], got {self.duty_cycle}"
            )

    @property
    def wavelength(self) -> float:
        return C_LIGHT / self.frequency


@dataclass(frozen=True)
class ArraySpec:
    """Uniform linear transmit array.

    ``spacing`` is in wavelengths; ``element_gain`` in dBi applies on top of
    the array factor.  A single element is an omnidirectional transmitter
    with gain equal to ``element_gain``.
    """

    n_elements: int = 1
    spacing: float = 0.5
    element_gain: float = 0.0
    steer_angle: float = 0.0

    def __post_init__(self):
        if self.n_elements < 1:
            raise ParameterError(
                f"n_elements must be >= 1, got {self.n_elements}"
            )
        if not self.spacing > 0:
            raise ParameterError(f"spacing must be positive, got {self.spacing}")
        # the steers' element phases reach 4 pi spacing (n - 1) radians, and
        # a single element's steer phase 4 pi spacing
        if not math.isfinite(4 * math.pi * self.spacing
                             * max(self.n_elements - 1, 1)):
            raise ParameterError(
                f"spacing {self.spacing} overflows the array's phases")
        if not -90.0 <= self.steer_angle <= 90.0:
            raise ParameterError(
                f"steer_angle must be in [-90, 90], got {self.steer_angle}")


@dataclass(frozen=True)
class ChargeScenario:
    """Voltage excursion the harvester must supply.

    ``initial`` charges an empty capacitor up to charge-ready; ``update``
    refills only the working swing between over-discharge and charge-ready.
    """

    kind: str
    v_start: float
    v_end: float

    def __post_init__(self):
        if self.v_start < 0 or self.v_end <= self.v_start:
            raise ParameterError(
                f"need v_end > v_start >= 0, got v_start={self.v_start}, "
                f"v_end={self.v_end}"
            )

    @classmethod
    def initial(cls, harvester: HarvesterSpec) -> "ChargeScenario":
        return cls("initial", 0.0, harvester.v_chrdy)

    @classmethod
    def update(cls, harvester: HarvesterSpec) -> "ChargeScenario":
        return cls("update", harvester.v_ovdis, harvester.v_chrdy)


def friis_received_power(link: RfLink) -> float:
    """Received power in dBm under free-space (Friis) propagation."""
    return link.p_t + link.g_t + link.g_r - _path_loss_db(link)


def _path_loss_db(link: RfLink):
    """Free-space path loss of the link in dB: ``20 log10(4 pi d / lambda)``.

    ``log10`` runs per distance on Python's ``math``: numpy's SIMD loop
    differs from it in the last bit of some inputs.
    """
    ratio = 4.0 * math.pi * np.asarray(link.distance, dtype=float) / link.wavelength
    if not ratio.ndim:
        return 20.0 * math.log10(ratio)
    return 20.0 * np.array([math.log10(r) for r in ratio.tolist()])


def charge_time(capacitance: float, scenario: ChargeScenario, p_harvest):
    """Radiated seconds to move the capacitor through the scenario's swing.

    Returns infinity when the harvested power is zero (the tag is
    unreachable at this distance) or the time overflows a float.
    Duty-cycle stretching is applied by the caller; this is pure energy
    over power, elementwise over an array.
    """
    p = np.asarray(p_harvest, dtype=float)
    if (p < 0).any():
        raise ParameterError(f"p_harvest must be >= 0, got {p_harvest}")
    energy = buffer_energy(capacitance, scenario.v_end, scenario.v_start)
    with np.errstate(over="ignore"):  # past a float's range is infinite too
        t = np.divide(energy, p, out=np.full(p.shape, math.inf), where=p != 0.0)
    return t if t.ndim else float(t)


def array_factor(array: ArraySpec, target_angle: float) -> float:
    """Transmit gain in dBi toward ``target_angle`` degrees.

    Uniform linear array: the element phasors are summed for the direction
    offset sin(target) - sin(steer) and normalized so that a perfectly
    steered array gains a factor n_elements over one element.
    """
    return _gains(array, [array.steer_angle], target_angle)[0]


# The most element phasors one gain pass may sum, about 32 bytes each at
# its peak: 100,000 steers of a 10-element array.  A larger pass is refused
# before anything is allocated.
PHASORS_MAX = 1_000_000


def _gains(array: ArraySpec, steers: list[float], target_angle: float) -> list[float]:
    """``array_factor`` of ``array`` steered to each of ``steers``: one numpy
    phasor sum, then each steer's magnitude and ``log10`` on Python's floats
    and ``math``, as numpy's vector loops differ in the last bit of some.
    More than ``PHASORS_MAX`` steers times elements is a ``ParameterError``."""
    if not -90.0 <= target_angle <= 90.0:
        raise ParameterError(
            f"target_angle must be in [-90, 90], got {target_angle}"
        )
    if len(steers) * array.n_elements > PHASORS_MAX:
        raise ParameterError(
            f"{len(steers)} steers of {array.n_elements} elements make more "
            f"than {PHASORS_MAX} phasors")
    n, target = array.n_elements, math.sin(math.radians(target_angle))
    psi = np.array([2.0 * math.pi * array.spacing
                    * (target - math.sin(math.radians(steer))) for steer in steers])
    phasors = np.exp(1j * psi[:, None] * np.arange(n)).sum(axis=1).tolist()
    return [-math.inf if (ratio := abs(p) ** 2 / n) <= 0.0
            else array.element_gain + 10.0 * math.log10(ratio) for p in phasors]


# The most points one distance or steer grid may hold: a 1 cm grid over
# 1 km.  A finer grid is refused before anything is allocated.
GRID_POINTS_MAX = 100_000


def inclusive_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """``lo, lo + step, ...`` up to ``hi`` for a positive ``step``.

    The last point is the largest ``lo + k*step <= hi``, tolerant to 1e-9
    of a step and clipped at ``hi`` so that rounding never carries a point
    past it.  Empty when ``hi < lo``.  A step that is not positive, or
    more than ``GRID_POINTS_MAX`` points (counted first), is a
    ``ParameterError``.
    """
    if not step > 0:
        raise ParameterError(f"step must be positive, got {step}")
    if hi < lo:
        return np.zeros(0)
    steps = (hi - lo) / step + 1e-9
    if not steps < GRID_POINTS_MAX:
        raise ParameterError(f"a step of {step} from {lo} to {hi} makes more "
                             f"than {GRID_POINTS_MAX} grid points")
    return np.minimum(lo + step * np.arange(math.floor(steps) + 1), hi)


def beam_sweep_precharge(
    array: ArraySpec,
    tag_angle: float,
    dwell: float,
    step: float,
    link: RfLink,
    harvester: HarvesterSpec,
    capacitance: float,
) -> float:
    """Wall-clock seconds for a sweeping beam to fill an empty capacitor.

    The beam steers across [-90, 90] degrees in ``step`` increments,
    dwelling ``dwell`` radiated seconds per direction and cycling until the
    capacitor reaches charge-ready.  The tag sits at ``tag_angle``; each
    dwell charges with the array gain toward the tag for that steering.
    The link's own g_t is replaced by the array gain here.

    Whole sweeps are counted in one product and only the last is walked
    steer by steer, so the cost does not depend on ``dwell``.  A target of
    exactly k sweeps (to 1e-12) ends at the last powered steer of sweep k.

    Returns infinity when no steering direction can power the tag at all,
    or when the charge needs more radiated seconds than a float holds.
    """
    if not 0 < dwell < math.inf:
        raise ParameterError(f"dwell must be positive and finite, got {dwell}")
    if not 0 < step <= 180:
        raise ParameterError(f"sweep step must be in (0, 180], got {step}")
    angles = inclusive_grid(-90.0, 90.0, step)
    target = buffer_energy(capacitance, harvester.v_chrdy, 0.0)
    path = _path_loss_db(link)

    gains = np.array(_gains(array, angles.tolist(), tag_angle))
    powers = harvester_output(link.p_t + gains + link.g_r - path,
                              harvester).tolist()
    if max(powers) == 0.0 or target / sum(powers) * len(angles) == math.inf:
        return math.inf

    per_sweep = dwell * sum(powers)
    try:  # the margin keeps a k-sweep target from rounding into sweep k+1
        full = math.ceil(target / per_sweep * (1.0 - 1e-12)) - 1
    except (ZeroDivisionError, OverflowError):
        raise ParameterError(f"dwell {dwell} s is too short") from None
    energy, radiated = full * per_sweep, full * len(angles) * dwell
    last = max(i for i, p in enumerate(powers) if p > 0)
    for i, p in enumerate(powers):
        if p > 0 and (energy + p * dwell >= target or i == last):
            return (radiated + (target - energy) / p) / link.duty_cycle
        energy += p * dwell
        radiated += dwell


def update_rate(charge_s, duty_cycle: float,
                measurement_overhead_s: float = 0.0):
    """Position updates per hour given a per-update charge requirement.

    The charge must be gathered under the duty cycle, so each update costs
    charge_s / duty_cycle plus the measurement overhead in wall-clock time.
    An infinite charge time yields a rate of zero.  An array of charge times
    gives an array of rates.
    """
    charge = np.asarray(charge_s, dtype=float)
    if not (charge > 0).all():
        raise ParameterError(f"charge_s must be positive, got {charge_s}")
    if not 0 < duty_cycle <= 1:
        raise ParameterError(f"duty_cycle must be in (0, 1], got {duty_cycle}")
    if measurement_overhead_s < 0:
        raise ParameterError(
            f"measurement_overhead_s must be >= 0, got {measurement_overhead_s}"
        )
    rate = 3600.0 / (charge / duty_cycle + measurement_overhead_s)
    return rate if rate.ndim else float(rate)
