"""Chirp synthesis, one-bit quantization, the square-wave FSK modulator, and
the lag search that locates one ``Waveform`` inside another.

Everything here is a pure function of its arguments; no global state, no RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "ChirpSpec",
    "Waveform",
    "BitStream",
    "FskConfig",
    "gen_chirp",
    "one_bit_quantize",
    "fsk_modulate",
    "xcorr_offset",
]


# Largest |freq1 - freq0| / min(freq0, freq1): the tones stay close enough
# for a single oscillator pair to generate both.
MAX_SHIFT_RATIO = 0.10


@dataclass(frozen=True)
class ChirpSpec:
    """Linear frequency sweep description.

    A zero-bandwidth sweep (f_stop == f_start) degenerates to a pure tone,
    which is allowed.
    """

    f_start: float
    f_stop: float
    duration: float
    sample_rate: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.f_start > 0:
            raise ParameterError(f"f_start must be positive, got {self.f_start}")
        if self.f_stop < self.f_start:
            raise ParameterError(
                f"f_stop ({self.f_stop}) must be >= f_start ({self.f_start})"
            )
        if not self.duration > 0:
            raise ParameterError(f"duration must be positive, got {self.duration}")
        if not self.sample_rate > 2 * self.f_stop:
            raise ParameterError(
                f"sample_rate ({self.sample_rate}) must exceed twice f_stop "
                f"({self.f_stop}) to satisfy Nyquist"
            )
        if not self.amplitude > 0:
            raise ParameterError(f"amplitude must be positive, got {self.amplitude}")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real signal with an absolute time origin.

    ``t_origin`` is the absolute time of ``samples[0]``; shifting a waveform
    in time is therefore free and exact.
    """

    samples: np.ndarray
    sample_rate: float
    t_origin: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ParameterError("samples must be one-dimensional")
        if arr.size and not np.isfinite(arr).all():
            raise ParameterError("samples must be finite")
        if not self.sample_rate > 0:
            raise ParameterError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", _readonly(arr))

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class BitStream:
    """Hard-decision bit sequence produced at a fixed rate."""

    bits: np.ndarray
    bit_rate: float

    def __post_init__(self):
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ParameterError("bits must be one-dimensional")
        if arr.size and arr.max() > 1:
            raise ParameterError("bits must contain only 0 and 1")
        if not self.bit_rate > 0:
            raise ParameterError(f"bit_rate must be positive, got {self.bit_rate}")
        object.__setattr__(self, "bits", _readonly(arr))

    def __len__(self) -> int:
        return self.bits.size


@dataclass(frozen=True)
class FskConfig:
    """Two-tone square-wave FSK parameters for the backscatter uplink.

    The tone spacing is kept small relative to the carriers so a single
    oscillator pair can generate both; ``MAX_SHIFT_RATIO`` bounds
    ``|freq1 - freq0| / min(freq0, freq1)``.
    """

    freq0: float = 1.0e6
    freq1: float = 1.1e6
    sample_rate: float = 1.0e7

    def __post_init__(self):
        if not (self.freq0 > 0 and self.freq1 > 0):
            raise ParameterError("freq0 and freq1 must be positive")
        if self.freq0 == self.freq1:
            raise ParameterError("freq0 and freq1 must differ")
        shift = abs(self.freq1 - self.freq0) / min(self.freq0, self.freq1)
        if shift > MAX_SHIFT_RATIO + 1e-12:
            raise ParameterError(
                f"tone spacing {shift:.3f} of freq0 and freq1 exceeds the "
                f"maximum ratio {MAX_SHIFT_RATIO}")
        if not self.sample_rate > 4 * max(self.freq0, self.freq1):
            raise ParameterError(
                f"sample_rate ({self.sample_rate}) must exceed four times the "
                f"faster tone ({max(self.freq0, self.freq1)})"
            )


def gen_chirp(spec: ChirpSpec, n_samples: int | None = None) -> Waveform:
    """Synthesize a linear up-chirp.

    Returns round(duration * sample_rate) samples with t_origin = 0, or only
    the first ``n_samples`` of them; the sweep rate always follows the full
    duration, so a shortened chirp is an exact prefix of the full one.  The
    instantaneous frequency sweeps linearly from f_start to f_stop over the
    duration; a zero-bandwidth spec yields a pure tone.
    """
    n = spec.n_samples
    if n_samples is not None:
        if n_samples < 0:
            raise ParameterError(f"n_samples must be >= 0, got {n_samples}")
        n = min(n, n_samples)
    t = np.arange(n) / spec.sample_rate
    rate = (spec.f_stop - spec.f_start) / spec.duration
    phase = 2.0 * np.pi * (spec.f_start * t + 0.5 * rate * t * t)
    return Waveform(spec.amplitude * np.sin(phase), spec.sample_rate, 0.0)


def one_bit_quantize(wave: Waveform, threshold: float = 0.0) -> BitStream:
    """Comparator model: bit is 1 where the sample is >= threshold.

    The bit rate equals the waveform sample rate; every sample becomes one
    hard decision, exactly what a single comparator clocked at the ADC-less
    front end produces.
    """
    if not math.isfinite(threshold):
        raise ParameterError(f"threshold must be finite, got {threshold}")
    bits = (wave.samples >= threshold).astype(np.uint8)
    return BitStream(bits, wave.sample_rate)


def _bit_boundaries(n_bits: int, samples_per_bit: float) -> np.ndarray:
    # Rounding each boundary (rather than each width) keeps the long-run bit
    # rate exact even when sample_rate / bit_rate is not an integer.
    return np.round(np.arange(n_bits + 1) * samples_per_bit).astype(np.int64)


def fsk_modulate(bits: BitStream, cfg: FskConfig) -> Waveform:
    """Modulate bits onto a phase-continuous +/-1 square-wave FSK stream.

    Bit value 0 selects freq0, bit value 1 selects freq1.  The output models
    the reflection coefficient of an RF switch driven by a multiplexed
    oscillator pair, so samples take only the values +1 and -1.
    """
    if len(bits) == 0:
        return Waveform(np.zeros(0), cfg.sample_rate, 0.0)
    samples = _square_wave(_carrier_phase(bits, cfg))
    return Waveform(samples, cfg.sample_rate, 0.0)


def _square_wave(phase: np.ndarray) -> np.ndarray:
    """The +/-1 carrier at ``phase`` cycles: +1 where floor(2 phase) is even.

    The sample is high during the first half of each carrier cycle, and the
    half-open rule keeps the sign deterministic even when a cycle boundary
    lands exactly on a sample, which happens whenever the tone divides the
    sample rate.  For 0 <= phase < 2**62 this is exactly
    ``np.mod(phase, 1) < 0.5``: doubling is exact and truncation is the
    floor, so no ``np.mod`` is needed.
    """
    return 1.0 - 2.0 * ((2.0 * phase).astype(np.int64) & 1)


def _carrier_phase(bits: BitStream, cfg: FskConfig) -> np.ndarray:
    """Carrier phase, in cycles, at each sample ``fsk_modulate`` outputs.

    Accumulating it keeps the carrier continuous across bit boundaries.
    """
    edges = _bit_boundaries(len(bits), cfg.sample_rate / bits.bit_rate)
    cycles = np.repeat(_cycles_per_sample(bits.bits, cfg), np.diff(edges))
    return np.concatenate(([0.0], np.cumsum(cycles[:-1])))


def _cycles_per_sample(bits: np.ndarray, cfg: FskConfig) -> np.ndarray:
    """Carrier cycles per output sample while each bit is on the air."""
    return np.where(bits, cfg.freq1 / cfg.sample_rate,
                    cfg.freq0 / cfg.sample_rate)


def fft_size(n: int) -> int:
    """Smallest 5-smooth length >= n: numpy's FFT is fast on those."""
    odd = (3 ** j * 5 ** k for j in range(n.bit_length())
           for k in range(n.bit_length()))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


def pearson_window(x: np.ndarray, k: int, yz: np.ndarray, ey2: float) -> float:
    """Exact Pearson correlation of x[k:k+m] against a pre-centred segment.

    ``yz`` is the segment as ``_centre`` gives it and ``ey2`` its energy, so
    a caller scoring one segment at many lags centres it once.
    """
    return _centred_pearson(_centre(x[k:k + yz.size]), yz, ey2)


def _centre(v: np.ndarray) -> np.ndarray:
    """``v`` minus its mean, and exact zeros for a constant ``v``, whose
    rounded mean can leave a residue that reads as energy.  Comparing the
    ends first keeps the full test off almost every window."""
    if v[0] == v[-1] and (v == v[0]).all():
        return np.zeros(v.size)
    return v - v.mean()


def _centred_pearson(xz: np.ndarray, yz: np.ndarray, ey2: float) -> float:
    """Exact Pearson correlation of centred ``xz`` and ``yz`` (energy ``ey2``)."""
    a = float(np.dot(xz, xz))
    if a == 0.0 and ey2 == 0.0:
        return 1.0
    if a == 0.0 or ey2 == 0.0:
        return 0.0
    # sqrt(fl(a*a)) == a in IEEE double, so a perfect match is exactly 1.0.
    # Scaling each factor by an even power of two first is exact and keeps
    # the product clear of underflow and overflow.
    ea, ee = math.frexp(a)[1] & ~1, math.frexp(ey2)[1] & ~1
    denom = math.ldexp(
        math.sqrt(math.ldexp(a, -ea) * math.ldexp(ey2, -ee)), (ea + ee) // 2)
    peak = float(np.dot(xz, yz)) / denom
    return min(1.0, max(-1.0, peak))


def _unit_scale(x: np.ndarray) -> np.ndarray:
    """``x`` times the power of two that brings its peak into [1, 2): exact."""
    return np.ldexp(x, 1 - math.frexp(np.abs(x).max())[1])


def _window_stats(x: np.ndarray, m: int) -> np.ndarray:
    """The reference half of ``_sliding_pearson``: the centred energy of
    every ``m``-sample window of ``x``, from sliding window sums."""
    csum = np.concatenate(([0.0], np.cumsum(x)))
    csum2 = np.concatenate(([0.0], np.cumsum(x * x)))
    s1 = csum[m:] - csum[:-m]
    s2 = csum2[m:] - csum2[:-m]
    return np.maximum(s2 - s1 * s1 / m, 0.0)


def _sliding_pearson(x: np.ndarray, ex2: np.ndarray, yz: np.ndarray,
                     ey2: float) -> np.ndarray:
    """Pearson correlation of the centred ``yz`` (energy ``ey2``) against
    every full window of x, whose centred energies are ``ex2``.  A centred
    segment's dot with a window equals its dot with the centred window, so
    no window sum is needed.  Large problems take the dot products through
    the FFT; ``pearson_window`` gives exact values at specific lags."""
    if ey2 == 0.0:
        return np.where(ex2 == 0.0, 1.0, 0.0)
    n, m = x.size, yz.size
    if n * m <= 5e7:
        dot = np.correlate(x, yz, mode="valid")
    else:
        # a circular convolution of size >= n leaves every full window
        # unwrapped
        size = fft_size(n)
        spec = np.fft.rfft(x, size) * np.fft.rfft(yz[::-1], size)
        dot = np.fft.irfft(spec, size)[m - 1:n]
    denom = np.sqrt(ex2 * ey2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, dot / denom, 0.0)


def _locate(x: np.ndarray, ex2: np.ndarray, y: np.ndarray,
            rate: float) -> tuple:
    """``xcorr_offset`` of unit-scaled x and y, given x's window energies."""
    yz = _centre(y)
    ey2 = float(np.dot(yz, yz))
    corr = _sliding_pearson(x, ex2, yz, ey2)

    # The scan locates the neighbourhood of the maximum; every lag within scan
    # tolerance of it is then recomputed directly so the result does not depend
    # on accumulated rounding, and true ties resolve to the smallest lag.
    candidates = np.nonzero(corr >= corr.max() - 1e-6)[0]
    if candidates.size > 4096:
        # a plateau this wide is exact ties (periodic or degenerate windows);
        # the smallest lags plus the scan argmax cover every possible winner
        candidates = np.union1d(candidates[:4096], [int(np.argmax(corr))])
    best_lag, best_peak = 0, -np.inf
    for k in candidates:
        peak = pearson_window(x, int(k), yz, ey2)
        if peak > best_peak:
            best_peak, best_lag = peak, int(k)
    return best_lag / rate, best_peak


def xcorr_offset(reference: Waveform, segment: Waveform) -> tuple[float, float]:
    """Locate a segment inside a longer reference by normalized correlation.

    Every candidate placement keeps the segment fully inside the reference.
    Each window is compared Pearson-style (zero mean, unit energy), so a
    scaled or attenuated copy still correlates at 1.

    Returns:
        (lag_seconds, peak) where lag is the offset of the best placement in
        seconds and peak is the correlation value in [-1, 1].  Ties break
        toward the smallest lag.

    Conventions for degenerate windows: two zero-variance windows correlate
    at 1.0, a zero-variance window against a varying one at 0.0.

    Each signal is first scaled by its own power of two, bringing its
    largest |sample| into [1, 2).  That is exact and keeps every energy
    finite, so a score keeps its bits unless an intermediate goes subnormal.
    The reference's scaled samples and window energies never depend on the
    segment, so ``simulate_ranging`` builds them once per config.
    """
    x, rate_x = reference.samples, reference.sample_rate
    y, rate_y = segment.samples, segment.sample_rate
    if not math.isclose(rate_x, rate_y, rel_tol=1e-9):
        raise ParameterError(
            f"sample rates must match: reference {rate_x}, segment {rate_y}"
        )
    n, m = x.size, y.size
    if m == 0:
        raise ParameterError("segment is empty")
    if m > n:
        raise ParameterError(
            f"segment ({m} samples) is longer than reference ({n} samples)"
        )
    # Pearson scores ignore scale: with each signal at its own power of two,
    # every term of a score scales by an exact power of two, and the
    # exponents ``_centred_pearson`` splits off shift by even amounts
    x = _unit_scale(x)
    return _locate(x, _window_stats(x, m), _unit_scale(y), rate_x)
