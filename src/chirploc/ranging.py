"""Chirp-sampling ranging protocol and multi-beacon position solving.

A beacon starts broadcasting a long audio chirp at a known time; an RF
wake-up at a later known time triggers the tag, which captures a short slice
of whatever part of the chirp is passing by.  Locating that slice inside the
reference chirp gives the emission offset, and the gap between elapsed time
and emission offset is the time of flight.

With a one-bit tag the beacon never hears the audio: the comparator bits
reach it only as the FSK square wave the tag reflects.  The beacon locates
the slice with one matched filter that scores that reflection against the
reflection each window of the reference chirp would produce, at every lag
at once (``_scan``), then rescores the best lags exactly (``_replica``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import AcousticChannel, ReceiveWindow, propagate_acoustic, sample_window
from .errors import ConvergenceError, GeometryError, ParameterError, RangeWindowError
from .signals import (
    BitStream,
    ChirpSpec,
    FskConfig,
    _carrier_phase,
    _cycles_per_sample,
    _readonly,
    _square_wave,
    fft_size,
    fsk_modulate,
    gen_chirp,
    one_bit_quantize,
    pearson_window,
    xcorr_offset,
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
# Odd harmonics of the square-wave replica that the backscatter scan keeps;
# the 1st and 3rd carry 90% of its energy.
HARMONICS = (1, 3)
# Lags the scan hands to exact rescoring: a margin for the dropped harmonics.
RESCORED_LAGS = 32


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
                f"chirp_start ({self.chirp_start})"
            )
        if not self.capture_duration > 0:
            raise ParameterError(
                f"capture_duration must be positive, got {self.capture_duration}"
            )

    @property
    def wakeup_delay(self) -> float:
        return self.wakeup_time - self.chirp_start

    def max_distance(self, speed_of_sound: float) -> float:
        """Farthest tag whose capture starts after the chirp front arrives."""
        return speed_of_sound * self.wakeup_delay

    def min_distance(self, speed_of_sound: float, chirp_duration: float) -> float:
        """Nearest tag whose capture ends before the chirp tail passes."""
        return max(
            0.0,
            speed_of_sound
            * (self.wakeup_delay + self.capture_duration - chirp_duration),
        )


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
        if k < dims + 1:
            raise ParameterError(
                f"need at least {dims + 1} beacons for a {dims}-D fix, got {k}"
            )
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

    Only the part of the chirp a capture can reach is synthesized: the first
    ``wakeup_delay + capture_duration`` seconds, plus one sample for an
    interpolated window edge; the lags searched end one sample past the
    zero-distance lag.  Only the part this tag's window reads, up to its
    end, is propagated and has noise added.  Each kept sample, and each
    noise draw on it, is what the full chirp would give, so the captured
    window is identical.

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
            f"chirp duration={chirp.duration})"
        )

    # the comparator switches tones asynchronously; its transitions are
    # observable at the RF sampling resolution
    rate = chirp.sample_rate if mode == "ideal-audio" else fsk.sample_rate
    window = ReceiveWindow(timeline.wakeup_time, timeline.capture_duration, rate)
    if window.n_samples == 0:
        raise ParameterError(
            f"capture_duration {timeline.capture_duration} s holds no sample "
            f"at the {mode} sample rate of {rate} Hz"
        )
    # a tag at zero distance starts its window round(wakeup_delay * rate)
    # samples into the chirp, and an interpolated window reads one further
    reach = round(timeline.wakeup_delay * rate) + window.n_samples + 1
    if mode == "ideal-audio":
        reference = gen_chirp(chirp, reach)
    else:
        matched = _backscatter_reference(
            dataclasses.replace(chirp, sample_rate=rate), reach,
            window.n_samples, fsk, threshold)
        reference = matched[0]
    # this tag's window reads only samples before ceil(its start) +
    # n_samples; two more absorb rounding in where the window lands
    heard = min(len(reference), window.n_samples + 2 + math.ceil(
        (timeline.wakeup_delay - channel.delay) * rate))
    tx = dataclasses.replace(reference, samples=reference.samples[:heard],
                             t_origin=timeline.chirp_start)
    captured = sample_window(propagate_acoustic(tx, channel), window,
                             interpolate=channel.interpolate_delays)

    if mode == "ideal-audio":
        lag, peak = xcorr_offset(reference, captured)
    else:
        lag, peak = _locate_backscatter(matched, captured, fsk, threshold)

    # the sample heard at wake-up left the beacon ``lag`` seconds into the
    # chirp, so the flight time is wakeup_delay - lag
    raw = c * (timeline.wakeup_delay - lag)
    clamped = raw < 0
    distance = max(raw, 0.0)
    return RangingResult(
        lag=lag, peak=peak, tof=distance / c, distance=distance, clamped=clamped
    )


@lru_cache(maxsize=1)
def _backscatter_reference(chirp: ChirpSpec, reach: int, m: int,
                           fsk: FskConfig, threshold: float) -> tuple:
    """The beacon side of the one-bit matched filter, built once per config.

    Returns ``(reference, ref_bits, size, step, lags, tones)``: the first
    ``reach`` samples of ``chirp`` (at the RF rate), their comparator bits,
    the block FFT size, the lags between block starts, the number of lags an
    ``m``-sample window can take, and for each harmonic h in ``HARMONICS``
    the pair ``(blocks, conj(exp(2 pi i h P[:lags])))``, with ``P`` the
    carrier phase ``fsk_modulate`` reaches at each reference sample.  Row b
    of ``blocks`` is the ``size``-point FFT of ``exp(2 pi i h P)`` from
    sample ``b * step`` on, zero-padded past the end.  The block size
    follows the capture length alone: ``size = min(fft_size(4 m),
    fft_size(n))``, so a capture that spans a quarter of the reference or
    more is scanned in one block.  Only the last config is kept, about
    17 MB at the defaults; every array is read-only, so no exchange can
    change what a later one reads.
    """
    reference = gen_chirp(chirp, reach)
    ref_bits = one_bit_quantize(reference, threshold)
    n = len(ref_bits)
    lags = n - m + 1
    phase = _carrier_phase(ref_bits, fsk)
    # a circular correlation over a block of size samples leaves the first
    # step lags unwrapped: their windows end inside the block
    size = min(fft_size(4 * m), fft_size(n))
    step = size - m + 1
    tones = []
    for h in HARMONICS:
        tone = np.exp(2j * np.pi * h * phase)
        blocks = np.array([np.fft.fft(tone[start:start + size], size)
                           for start in range(0, lags, step)])
        tones.append((_readonly(blocks), _readonly(np.conj(tone[:lags]))))
    return reference, ref_bits, size, step, lags, tuple(tones)


def _scan(matched: tuple, rfz: np.ndarray) -> np.ndarray:
    """Square-wave replica correlation of the centred reflection ``rfz`` at
    every lag, truncated to ``HARMONICS``, by overlap-save blocks.

    One forward FFT takes the reflection to ``size`` points.  Per block and
    harmonic, one inverse FFT of its product with the block's tone spectrum
    yields the block's first ``step`` lags, which are rotated back by their
    start phases and added into the score.

    The blocks are split two ways: the calling thread scans the even blocks
    and one pool thread the odd ones, each in its own ``size``-point buffer,
    so the scan holds two block buffers on any host.  Each writes only its
    own blocks' lags, one harmonic after the other in ``HARMONICS`` order,
    so every score is summed as a serial pass sums it and the answer does
    not depend on the CPUs the process may use.  No thread outlives the call.
    """
    # imported here: importing it with the module would add several ms to
    # every command's start-up, and only the one-bit scan uses it
    from concurrent.futures import ThreadPoolExecutor

    _, _, size, step, lags, tones = matched
    rf_spec = np.conj(np.fft.fft(rfz, size))
    score = np.zeros(lags)
    starts = range(0, lags, step)

    def scan_blocks(first: int) -> None:
        buf = np.empty(size, dtype=complex)
        for b in range(first, len(starts), 2):
            kept = slice(starts[b], min(starts[b] + step, lags))
            corr = buf[:kept.stop - kept.start]
            for h, (blocks, rotation) in zip(HARMONICS, tones):
                np.multiply(blocks[b], rf_spec, out=buf)
                np.fft.ifft(buf, out=buf)
                np.multiply(rotation[kept], corr, out=corr)
                # the square wave is 4/pi times the sum of sin(2 pi h theta) / h
                np.divide(corr.imag, h, out=corr.imag)
                score[kept] += corr.imag

    with ThreadPoolExecutor(1) as pool:
        odd = pool.submit(scan_blocks, 1)
        scan_blocks(0)
        odd.result()  # re-raises what the pool thread raised
    return score


def _locate_backscatter(matched: tuple, captured, fsk: FskConfig,
                        threshold: float) -> tuple[float, float]:
    """Find the capture offset from the FSK reflection of the comparator.

    One matched filter scores the received RF stream against the exact
    reflection replica at every lag.  With ``P`` the carrier phase that
    ``fsk_modulate`` accumulates over the reference comparator bits, the
    replica at lag k is the square wave ``sign(frac(P[k+j] - P[k]) < 1/2)``.
    Its odd harmonics h turn the correlation at all lags into FFT
    cross-correlations of the stream against ``exp(2 pi i h P)``, each lag
    then rotated back by its own start phase ``P[k]``.  Every replica is a
    balanced carrier, so its energy is the window length to within a few
    samples and the scan ranks lags by correlation alone.  The best lags
    are rescored exactly against replicas that ``_replica`` builds bit for
    bit as the modulator would, so a perfect match scores exactly 1.0 and
    the truncated series never decides the answer.  Ties go to the smallest
    lag.

    Everything on the reference side depends only on the config and comes
    in ``matched`` from ``_backscatter_reference``.  Per exchange this
    quantizes and modulates the capture, scores every lag with ``_scan``
    and rescores the best ``RESCORED_LAGS`` lags one at a time.
    """
    ref_bits = matched[1]
    tag_bits = one_bit_quantize(captured, threshold)
    rf = fsk_modulate(tag_bits, fsk)
    rfz = rf.samples - rf.samples.mean()
    erf2 = float(np.dot(rfz, rfz))
    m = len(tag_bits)
    score = _scan(matched, rfz)

    take = min(RESCORED_LAGS, len(score))
    best_lag, best_score = 0, -np.inf
    for k in np.sort(np.argpartition(score, -take)[-take:]):
        exact = pearson_window(_replica(ref_bits, k, m, fsk), 0, rfz, erf2)
        if exact > best_score:
            best_lag, best_score = int(k), exact
    return best_lag / ref_bits.bit_rate, best_score


def _replica(ref_bits: BitStream, k: int, m: int,
             fsk: FskConfig) -> np.ndarray:
    """``fsk_modulate`` of the ``m`` reference bits from lag ``k`` on, bit
    for bit.

    The reference bits run at the RF sample rate, so each bit is one sample
    and the replica's phase is the running sum of the per-bit increments
    before each sample, accumulated in the modulator's order; bit
    ``k + m - 1`` is never read.
    """
    phase = np.zeros(m)
    np.cumsum(_cycles_per_sample(ref_bits.bits[k:k + m - 1], fsk),
              out=phase[1:])
    return _square_wave(phase)


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
        GeometryError: degenerate beacon geometry or rank-deficient Jacobian.
        ConvergenceError: no convergence within ``max_iterations``; the
            exception carries the last iterate.
    """
    bset = beacons if isinstance(beacons, BeaconSet) else BeaconSet(np.asarray(beacons))
    pos = bset.positions
    k, dims = pos.shape
    d = np.asarray(distances, dtype=np.float64)
    if d.shape != (k,):
        raise ParameterError(
            f"need one distance per beacon: {k} beacons, {d.size} distances"
        )
    if (d < 0).any():
        raise ParameterError("distances must be >= 0")

    x = pos.mean(axis=0) if initial_guess is None else np.asarray(
        initial_guess, dtype=np.float64).copy()
    if x.shape != (dims,):
        raise ParameterError(f"initial_guess must have {dims} coordinates")

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
                "geometry does not constrain the fix"
            )
        x = x + step
        if np.linalg.norm(step) < 1e-9:
            diff = x - pos
            residual = np.linalg.norm(diff, axis=1) - d
            return PositionFix(
                coordinates=x,
                residual_rms=float(np.sqrt(np.mean(residual**2))),
                iterations=iteration,
            )
    raise ConvergenceError(
        f"no convergence after {max_iterations} iterations; last iterate {x} "
        f"with residual RMS {float(np.sqrt(np.mean(residual**2))):.3e}",
        last_iterate=x,
        iterations=max_iterations,
    )
