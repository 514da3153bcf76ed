"""Chirp-sampling ranging protocol and multi-beacon position solving.

A beacon starts broadcasting a long audio chirp at a known time; an RF
wake-up at a later known time triggers the tag, which captures a short slice
of whatever part of the chirp is passing by.  Locating that slice inside the
reference chirp gives the emission offset, and the gap between elapsed time
and emission offset is the time of flight.

With a one-bit tag the beacon hears only the FSK reflection of the tag's
comparator bits; ``signals`` holds the matched filter that locates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import AcousticChannel, ReceiveWindow, _capture
from .errors import ConvergenceError, GeometryError, ParameterError, RangeWindowError
from .signals import (
    ChirpSpec,
    FskConfig,
    _audio_reference,
    _backscatter_reference,
    _locate,
    _locate_backscatter,
    fsk_modulate,
    one_bit_quantize,
)

__all__ = [
    "RangingTimeline",
    "RangingResult",
    "BeaconSet",
    "PositionFix",
    "simulate_ranging",
    "trilaterate",
]

MODES = ("ideal-audio", "one-bit-backscatter")


@dataclass(frozen=True)
class RangingTimeline:
    """Shared clock events of one ranging exchange (absolute seconds).

    Attributes:
        chirp_start: when the beacon starts emitting the chirp.
        wakeup_time: when the RF wake-up fires and the tag starts sampling.
        capture_duration: how long the tag samples.
    """

    chirp_start: float = 0.0
    wakeup_time: float = 0.020
    capture_duration: float = 0.001

    def __post_init__(self):
        if self.wakeup_time < self.chirp_start:
            raise ParameterError(
                f"wakeup_time ({self.wakeup_time}) must not precede "
                f"chirp_start ({self.chirp_start})")
        if not self.capture_duration > 0:
            raise ParameterError(
                f"capture_duration must be positive, got {self.capture_duration}")

    @property
    def wakeup_delay(self) -> float:
        return self.wakeup_time - self.chirp_start

    def max_distance(self, speed_of_sound: float) -> float:
        """Farthest tag whose capture starts after the chirp front arrives."""
        return speed_of_sound * self.wakeup_delay

    def min_distance(self, speed_of_sound: float, chirp_duration: float) -> float:
        """Nearest tag whose capture ends before the chirp tail passes."""
        return max(0.0, speed_of_sound * (
            self.wakeup_delay + self.capture_duration - chirp_duration))


@dataclass(frozen=True)
class RangingResult:
    """Outcome of one simulated exchange.

    ``clamped`` is set when the lag exceeds the wake-up delay, which would
    mean a negative distance; ``distance`` and ``tof`` are then 0.
    """

    lag: float
    peak: float
    tof: float
    distance: float
    clamped: bool = False


@dataclass(frozen=True)
class BeaconSet:
    """Beacon coordinates, one row per beacon."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2:
            raise ParameterError("positions must be a 2-D array (beacons x dims)")
        k, dims = pos.shape
        if dims not in (2, 3):
            raise ParameterError(f"supported dimensions are 2 and 3, got {dims}")
        if not np.isfinite(pos).all():
            raise ParameterError("positions must be finite")
        if k < dims + 1:
            raise ParameterError(
                f"need at least {dims + 1} beacons for a {dims}-D fix, got {k}")
        spread = pos - pos.mean(axis=0)
        if np.linalg.matrix_rank(spread) < dims:
            kind = "collinear" if dims == 2 else "coplanar"
            raise GeometryError(f"beacons are {kind}; the fix is not unique")
        object.__setattr__(self, "positions", pos)


@dataclass(frozen=True)
class PositionFix:
    coordinates: np.ndarray
    residual_rms: float
    iterations: int


def simulate_ranging(
    chirp: ChirpSpec,
    channel: AcousticChannel,
    timeline: RangingTimeline,
    mode: str = "ideal-audio",
    fsk: FskConfig | None = None,
    threshold: float = 0.0,
) -> RangingResult:
    """Run one ranging exchange end to end.

    In ``ideal-audio`` mode the captured analog window is correlated against
    the reference chirp directly.  In ``one-bit-backscatter`` mode the tag's
    comparator output toggles the FSK tone pair and the beacon matches the
    reflection it hears against the reflection each window of the reference
    would produce.  The comparator has no clock of its own, so this leg is
    modeled at the RF sample rate: transition timing survives at far better
    than audio-sample resolution, which is what makes the 1-bit stream
    locatable inside the sweep even where its audio-rate sampling would
    alias into a periodic pattern.

    Only the part of the chirp a capture can reach is synthesized
    (``signals._reachable``), and the received signal is computed over the
    capture window alone; sample i's noise is still the i-th normal of the
    channel's seeded stream, so the window is what the full chirp gives.
    Its memory does not grow with distance, wake-up delay or echo delay,
    but the time to draw the normals before the window still does.

    Raises:
        ParameterError: if the capture holds no sample at the mode's rate.
        RangeWindowError: if the capture window cannot land fully inside the
            chirp at this distance.
    """
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "one-bit-backscatter" and fsk is None:
        raise ParameterError("one-bit-backscatter mode requires an FskConfig")

    c = channel.speed_of_sound
    d_max = timeline.max_distance(c)
    d_min = timeline.min_distance(c, chirp.duration)
    if not (d_min <= channel.distance <= d_max):
        raise RangeWindowError(
            f"distance {channel.distance:.3f} m puts the capture window "
            f"outside the chirp; supported range is [{d_min:.3f}, {d_max:.3f}] m "
            f"(chirp_start={timeline.chirp_start}, "
            f"wakeup_time={timeline.wakeup_time}, "
            f"capture_duration={timeline.capture_duration}, "
            f"chirp duration={chirp.duration})")

    # the comparator switches tones asynchronously; its transitions are
    # observable at the RF sampling resolution
    rate = chirp.sample_rate if mode == "ideal-audio" else fsk.sample_rate
    window = ReceiveWindow(timeline.wakeup_time, timeline.capture_duration, rate)
    if mode == "ideal-audio":
        reference, *scaled = _audio_reference(chirp, timeline.wakeup_delay,
                                              window)
    else:
        matched = _backscatter_reference(chirp, timeline.wakeup_delay, window,
                                         fsk, threshold)
        reference = matched.reference
    captured = _capture(reference.samples, rate, timeline.chirp_start,
                        channel, window)

    if mode == "ideal-audio":
        lag, peak = _locate(*scaled, captured.samples, rate)
    else:
        rf_low = fsk_modulate(one_bit_quantize(captured, threshold),
                              fsk).samples < 0
        del captured  # before the locate, whose scan sets the peak
        lag, peak = _locate_backscatter(matched, rf_low, rate)

    # the sample heard at wake-up left the beacon ``lag`` seconds into the
    # chirp, so the flight time is wakeup_delay - lag
    raw = c * (timeline.wakeup_delay - lag)
    clamped = raw < 0
    distance = max(raw, 0.0)
    return RangingResult(
        lag=lag, peak=peak, tof=distance / c, distance=distance, clamped=clamped)


def trilaterate(
    beacons: BeaconSet | np.ndarray,
    distances: np.ndarray,
    initial_guess: np.ndarray | None = None,
    max_iterations: int = 50,
) -> PositionFix:
    """Solve for a position from beacon distances by Gauss-Newton.

    Starts from the beacon centroid (or ``initial_guess``) and iterates
    damped-free Gauss-Newton steps until the step norm drops below 1 nm.

    Raises:
        ParameterError: fewer than one iteration, or malformed inputs.
        GeometryError: degenerate beacon geometry or rank-deficient Jacobian.
        ConvergenceError: no convergence within ``max_iterations``; the
            exception carries the last iterate.
    """
    if not max_iterations >= 1:
        raise ParameterError(
            f"max_iterations must be at least 1, got {max_iterations}")
    bset = beacons if isinstance(beacons, BeaconSet) else BeaconSet(np.asarray(beacons))
    pos = bset.positions
    k, dims = pos.shape
    d = np.asarray(distances, dtype=np.float64)
    if d.shape != (k,):
        raise ParameterError(
            f"need one distance per beacon: {k} beacons, {d.size} distances")
    # LAPACK would reject a NaN or infinity only mid-solve, printing errors
    if not (np.isfinite(d) & (d >= 0)).all():
        raise ParameterError(f"distances must be finite and >= 0, got {d}")

    x = pos.mean(axis=0) if initial_guess is None else np.asarray(
        initial_guess, dtype=np.float64).copy()
    if x.shape != (dims,) or not np.isfinite(x).all():
        raise ParameterError(f"initial_guess must have {dims} finite coordinates")

    residual = None
    for iteration in range(1, max_iterations + 1):
        diff = x - pos
        ranges = np.linalg.norm(diff, axis=1)
        ranges = np.maximum(ranges, 1e-12)  # guard the derivative at a beacon
        residual = ranges - d
        jac = diff / ranges[:, None]
        step, _, rank, _ = np.linalg.lstsq(jac, -residual, rcond=None)
        if rank < dims:
            raise GeometryError(
                f"Jacobian rank {rank} < {dims} at iterate {x}; beacon "
                "geometry does not constrain the fix")
        x = x + step
        if np.linalg.norm(step) < 1e-9:
            diff = x - pos
            residual = np.linalg.norm(diff, axis=1) - d
            return PositionFix(
                coordinates=x,
                residual_rms=float(np.sqrt(np.mean(residual**2))),
                iterations=iteration)
    raise ConvergenceError(
        f"no convergence after {max_iterations} iterations; last iterate {x} "
        f"with residual RMS {float(np.sqrt(np.mean(residual**2))):.3e}",
        last_iterate=x,
        iterations=max_iterations)
