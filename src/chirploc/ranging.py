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
at once (``_scan``), then rescores the best lags exactly (``_exact_scores``).
A coarse locate of the reflection's carrier advance per 50 RF samples first
picks the few overlap-save blocks of lags the scan needs (``_coarse_blocks``).
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
    ChirpSpec,
    FskConfig,
    _carrier_phase,
    _cycles_per_sample,
    _readonly,
    _centred_pearson,
    _locate,
    _sliding_pearson,
    _unit_scale,
    _window_stats,
    fft_size,
    fsk_modulate,
    gen_chirp,
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
# Odd harmonics of the square-wave replica that the backscatter scan keeps;
# the 1st and 3rd carry 90% of its energy.
HARMONICS = (1, 3)
# Lags the scan hands to exact rescoring: a margin for the dropped harmonics.
RESCORED_LAGS = 32
# RF samples to a bin of the coarse locate that picks the scan's blocks:
# 5 us at the default 10 MHz.
COARSE_BIN = 50
# Lags on each side of the coarse lag whose blocks the scan runs: 2 ms of
# lag, 0.69 m of range, at 10 MHz.
COARSE_REACH = 20_000
# The least lead of the coarse peak over every coarse score farther than
# COARSE_REACH from it at which the scan skips blocks.
COARSE_MARGIN = 0.05


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
        if not np.isfinite(pos).all():
            raise ParameterError("positions must be finite")
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
        matched = _audio_reference(chirp, reach, window.n_samples)
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
        lag, peak = _locate(*matched[1:], _unit_scale(captured.samples), rate)
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
def _audio_reference(chirp: ChirpSpec, reach: int, m: int) -> tuple:
    """The first ``reach`` samples of ``chirp``, their ``_unit_scale`` copy
    and its ``_window_stats`` for ``m``-sample windows: the ideal-audio
    locator's beacon side, built once per config.  Only the last config is
    kept, about 95 KB at the defaults; every array is read-only."""
    reference = gen_chirp(chirp, reach)
    x = _readonly(_unit_scale(reference.samples))
    return reference, x, _readonly(_window_stats(x, m))


@lru_cache(maxsize=1)
def _backscatter_reference(chirp: ChirpSpec, reach: int, m: int,
                           fsk: FskConfig, threshold: float) -> tuple:
    """The beacon side of the one-bit matched filter, built once per config.

    Returns ``(reference, cycles, size, step, lags, spectra, rotations,
    coarse)``: the first ``reach`` samples of ``chirp`` (at the RF rate),
    the carrier cycles ``fsk_modulate`` advances per comparator bit of each,
    the block FFT size, the lags between block starts, the number of lags an
    ``m``-sample window can take, and, with ``P`` the modulator's carrier
    phase and h the i-th of ``HARMONICS``, ``spectra[b, i]``, the
    ``size``-point FFT of ``exp(2 pi i h P)`` from sample ``b * step`` on,
    and ``rotations[i] = conj(exp(2 pi i h P[:lags]))``.  ``coarse`` is
    ``_coarse_blocks``' reference: the advance of ``P`` over each
    ``COARSE_BIN`` samples from sample 0 on, and its ``_window_stats`` for
    the ``_coarse_bins(m)`` bins a capture keeps, or None when it keeps
    none.  Blocks follow the capture length alone: ``size = min(fft_size(3
    m), fft_size(n))``.  Only the last config is kept, about 19 MB at the
    defaults; every array is read-only, so no exchange can change what a
    later one reads.
    """
    reference = gen_chirp(chirp, reach)
    ref_bits = one_bit_quantize(reference, threshold)
    n = len(ref_bits)
    lags = n - m + 1
    phase = _carrier_phase(ref_bits, fsk)
    # a circular correlation over a block of size samples leaves the first
    # step lags unwrapped: their windows end inside the block
    size = min(fft_size(3 * m), fft_size(n))
    step = size - m + 1
    tones = np.array([np.exp(2j * np.pi * h * phase) for h in HARMONICS])
    spectra = np.array([np.fft.fft(tones[:, start:start + size], size)
                        for start in range(0, lags, step)])
    coarse = None
    bins = _coarse_bins(m)
    if bins > 0:
        advance = _readonly(np.diff(phase[::COARSE_BIN]))
        coarse = (advance, _readonly(_window_stats(advance, bins)))
    return (reference, _readonly(_cycles_per_sample(ref_bits.bits, fsk)),
            size, step, lags, _readonly(spectra),
            _readonly(np.conj(tones[:, :lags])), coarse)


def _coarse_bins(m: int) -> int:
    """``COARSE_BIN``-sample bins an ``m``-sample capture's coarse stream
    keeps: its edges are samples 0, ``COARSE_BIN``, ... up to ``m - 1``, and
    the bin at each end is dropped."""
    return (m - 1) // COARSE_BIN - 2


def _coarse_blocks(matched: tuple, rf: np.ndarray) -> range:
    """The overlap-save blocks ``_scan`` needs for the reflection ``rf``.

    Each sign change of ``rf`` is half a carrier cycle on from the last, so
    the carrier phase, interpolated at the bin edges of ``_coarse_bins``,
    advances over each bin by what the comparator's duty cycle there gives.
    ``_sliding_pearson`` locates that stream in the same advance of the
    reference.  Returns the blocks holding a lag within ``COARSE_REACH`` of
    the coarse lag, or every block when the coarse peak leads every score
    farther than ``COARSE_REACH`` from it by less than ``COARSE_MARGIN``,
    the capture keeps no bin, or ``rf`` changes sign less than twice.
    """
    step, lags, spectra = matched[3:6]
    coarse = matched[7]
    every = range(len(spectra))
    flips = np.flatnonzero(rf[1:] != rf[:-1])
    if coarse is None or flips.size < 2:
        return every
    # np.interp clamps before the first sign change and past the last, so
    # the bin at each end is dropped
    edges = np.arange(_coarse_bins(rf.size) + 3) * COARSE_BIN
    phase = np.interp(edges, flips, np.arange(flips.size) / 2)
    advance = np.diff(phase)[1:-1]
    advance -= advance.mean()
    scores = _sliding_pearson(*coarse, advance, float(np.dot(advance, advance)))
    best = int(np.argmax(scores))
    reach = COARSE_REACH // COARSE_BIN
    far = np.concatenate((scores[:max(best - reach, 0)],
                          scores[best + reach + 1:]))
    if far.size and scores[best] - far.max() < COARSE_MARGIN:
        return every
    # the stream's first kept bin starts COARSE_BIN samples into the capture
    lag = (best - 1) * COARSE_BIN
    return range(max(lag - COARSE_REACH, 0) // step,
                 min(lag + COARSE_REACH, lags - 1) // step + 1)


def _scan(matched: tuple, rfz: np.ndarray,
          blocks: range) -> tuple[np.ndarray, np.ndarray]:
    """The ``RESCORED_LAGS`` lags, in order, at which the square-wave
    replica truncated to ``HARMONICS`` best matches the centred reflection
    ``rfz``, and their scores: the best of each overlap-save block's best,
    so the best of all lags in ``blocks`` unless the next one ties.

    Per block, one inverse FFT takes every harmonic's correlation at the
    block's first ``step`` lags, each rotated back by its start phase and
    weighted by 1/h.  The blocks run one after another on the calling
    thread, in one ``(len(HARMONICS), size)`` buffer, and their kept lags
    merge in block order.
    """
    size, step, lags, spectra, rotations = matched[2:7]
    rf_spec = np.conj(np.fft.fft(rfz, size))
    # the square wave is 4/pi times the sum of sin(2 pi h theta) / h
    weights = np.array(HARMONICS, dtype=float)[:, None]
    buf = np.empty((len(HARMONICS), size), dtype=complex)
    score = np.empty(step)
    shortlist, scores = [], []
    for b in blocks:
        start = b * step
        width = min(step, lags - start)
        corr = buf[:, :width]
        np.multiply(spectra[b], rf_spec, out=buf)
        np.fft.ifft(buf, axis=-1, out=buf)
        np.multiply(rotations[:, start:start + width], corr, out=corr)
        np.divide(corr.imag, weights, out=corr.imag)
        block = np.sum(corr.imag, axis=0, out=score[:width])
        best = _best(block)
        shortlist.append(best + start)
        scores.append(block[best])
    shortlist, scores = np.concatenate(shortlist), np.concatenate(scores)
    best = _best(scores)
    best = best[np.argsort(shortlist[best])]
    return shortlist[best], scores[best]


def _best(scores: np.ndarray) -> np.ndarray:
    """Indices of the ``RESCORED_LAGS`` highest scores, or of all of them."""
    take = min(RESCORED_LAGS, len(scores))
    return np.argpartition(scores, -take)[-take:]


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
    samples and the scan ranks lags by correlation alone.  ``_scan``'s
    shortlist is rescored exactly, so a perfect match scores exactly 1.0 and
    the truncated series never decides the answer.  Ties go to the smallest
    lag.  The reference side depends only on the config and comes in
    ``matched`` from ``_backscatter_reference``.

    ``_scan`` runs only the blocks ``_coarse_blocks`` picks: those holding a
    lag within ``COARSE_REACH`` of a coarse locate of the carrier's advance
    per ``COARSE_BIN`` samples, or all of them when that locate leads the
    rest by less than ``COARSE_MARGIN``.  Everything runs on the calling
    thread.  CHANGES.md records how the pruned answers compare with the
    all-blocks scan's.
    """
    rf = fsk_modulate(one_bit_quantize(captured, threshold), fsk).samples
    rfz = rf - rf.mean()
    shortlist, _ = _scan(matched, rfz, _coarse_blocks(matched, rf))
    exact = _exact_scores(matched[1], shortlist, rfz, float(np.dot(rfz, rfz)))
    best = int(np.argmax(exact))  # the first maximum: the smallest lag
    return int(shortlist[best]) / fsk.sample_rate, float(exact[best])


def _exact_scores(cycles: np.ndarray, lags: np.ndarray, yz: np.ndarray,
                  ey2: float) -> np.ndarray:
    """``pearson_window``, bit for bit, of ``fsk_modulate`` of the
    ``m = yz.size`` reference bits from each lag k on against the centred
    ``yz`` of energy ``ey2``.  Bits are samples at the RF rate, so the
    replica's phase is the running sum of ``cycles[k:k + m - 1]`` from 0,
    and it is +1 where ``floor(2 phase)`` is even (``_square_wave``); its
    samples sum to an integer, so its count of low ones gives its mean
    exactly."""
    m = yz.size
    phase = np.zeros(m)
    scores = np.empty(len(lags))
    for i, k in enumerate(lags):
        np.cumsum(cycles[k:k + m - 1], out=phase[1:])
        low = (2.0 * phase).astype(np.int64) & 1
        mean = (m - 2 * int(np.count_nonzero(low))) / m
        xz = np.array((1.0 - mean, -1.0 - mean))[low]
        scores[i] = _centred_pearson(xz, yz, ey2)
    return scores


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
