"""Chirp synthesis, one-bit quantization, the square-wave FSK modulator, and
the lag search that locates one ``Waveform`` inside another.

A one-bit tag's beacon never hears the audio: its comparator bits reach the
beacon only as the FSK square wave the tag reflects.  So the one-bit locator
is a replica of the modulator.  It scores that reflection against the
reflection each window of the reference chirp would produce, at every lag at
once (``_scan``), over the overlap-save blocks that a coarse locate of the
carrier's advance picks (``_coarse_blocks``), then rescores the best lags
exactly (``_exact_scores``).  The reflection and every replica are +/-1
waves, so each exact score follows from three integer counts, and no
one-bit score depends on how a BLAS library orders its sums.  The scan runs
in single precision: it only picks the lags that exact rescoring decides
between.

Nothing here draws random numbers.  ``_audio_reference`` and
``_backscatter_reference`` memoize each locator's reference side, which
depends only on the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

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

# Odd harmonics of the square-wave replica that the backscatter scan keeps;
# the 1st and 3rd carry 90% of its energy.
HARMONICS = (1, 3)
# Lags the scan hands to exact rescoring: a margin for the dropped harmonics.
RESCORED_LAGS = 32
# Lags of a block the scan ranks at once, so that the ranking's index stays
# small beside the block buffer.
SHORTLIST_PIECE = 4096
# RF samples to a bin of the coarse locate that picks the scan's blocks:
# 5 us at the default 10 MHz.
COARSE_BIN = 50
# Lags the scan pads the coarse candidates' span with on each side: 0.5 ms
# of lag, 0.17 m of range, at 10 MHz.  It covers how far the true lag has
# been seen outside that span, at most 4,446 lags (ROADMAP item 12).
COARSE_REACH = 5_000
# How far below the best coarse score a coarse bin may score and still be a
# candidate for the lag.
COARSE_MARGIN = 0.05


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
    def n_samples(self) -> int | float:
        return _count(self.duration * self.sample_rate)


def _count(samples: float) -> int | float:
    """``round(samples)``, or ``inf`` for a count past a float's range."""
    return round(samples) if samples < math.inf else samples


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
    duration; a zero-bandwidth spec yields a pure tone.  A full chirp whose
    count is past a float's range is a ``ParameterError``.
    """
    n = spec.n_samples
    if n_samples is not None:
        if n_samples < 0:
            raise ParameterError(f"n_samples must be >= 0, got {n_samples}")
        n = min(n, n_samples)
    if n == math.inf:
        raise ParameterError(f"a {spec.duration} s chirp at {spec.sample_rate} "
                             "Hz holds more samples than a float can count")
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
    samples = 1.0 - 2.0 * _low_half(*_carrier_phase(bits, cfg))
    return Waveform(samples, cfg.sample_rate, 0.0)


def _low_half(twice: np.ndarray, fs: int) -> np.ndarray:
    """True where the +/-1 carrier at ``twice / (2 fs)`` cycles is low
    (``twice // fs`` is odd): the sign rule of the modulator, which exact
    rescoring reads through the memo.

    The sample is high during the first half of each carrier cycle, and the
    half-open rule keeps the sign deterministic even when a cycle boundary
    lands exactly on a sample, which happens whenever the tone divides the
    sample rate; the integer phase puts every such boundary exactly.
    """
    return (twice // fs & 1).astype(bool)


def _carrier_phase(bits: BitStream, cfg: FskConfig) -> tuple[np.ndarray, int]:
    """Twice the carrier phase at each sample ``fsk_modulate`` outputs, as
    exact integers: ``(twice, FS)``, the phase being ``twice / (2 FS)``
    cycles.

    Every float is a ratio of integers, so ``F0 / FS`` and ``F1 / FS`` are
    exactly the carrier cycles per sample of ``freq0`` and ``freq1``, with
    ``FS`` their least common denominator (100 at the defaults).  Each sample
    then advances ``twice`` by ``2 F0`` or ``2 F1``, so with ``h(j)`` the
    1-samples before sample ``j``, ``twice(j) = 2 (j F0 + h(j) (F1 -
    F0))``: the carrier stays continuous across bit boundaries with no
    rounding.  It is int64 while ``2 n FS < 2**53``, so that every sum is
    exact and every ``twice`` and ``2 FS`` is exact as a float; past that,
    as non-dyadic tones can take it, it holds Python ints, as exact and
    slower.
    """
    # each tone's cycles per sample, f / sample_rate, as integers (p, q)
    rate_p, rate_q = float(cfg.sample_rate).as_integer_ratio()
    cycles = [(p * rate_q, q * rate_p) for p, q in (
        float(f).as_integer_ratio() for f in (cfg.freq0, cfg.freq1))]
    fs = math.lcm(*(q // math.gcd(p, q) for p, q in cycles))
    edges = _bit_boundaries(len(bits), cfg.sample_rate / bits.bit_rate)
    dtype = np.int64 if 2 * int(edges[-1]) * fs < 2**53 else object
    advance = np.array([2 * p * fs // q for p, q in cycles], dtype)[np.repeat(
        bits.bits, np.diff(edges))]
    return np.cumsum(advance) - advance, fs


def fft_size(n: int) -> int:
    """Smallest 5-smooth length >= n: numpy's FFT is fast on those."""
    odd = (3 ** j * 5 ** k for j in range(n.bit_length())
           for k in range(n.bit_length()))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


def pearson_window(x: np.ndarray, k: int, yz: np.ndarray, ey2: float) -> float:
    """The exact ``_pearson`` score of x[k:k+m] against a centred segment.

    ``yz`` and ``ey2`` are the segment and its energy as ``_centred`` gives
    them, so a caller scoring one segment at many lags centres it once.
    """
    xz, a = _centred(x[k:k + yz.size])
    return _pearson(float(np.dot(xz, yz)), a, ey2)


def _pearson(num: float, a: float, b: float) -> float:
    """The Pearson score of covariance ``num`` over energies ``a`` and
    ``b``: ``num / sqrt(a * b)`` clamped to [-1, 1].  Two zero energies
    score 1.0, and one zero energy 0.0.  ``sqrt(fl(c * c)) == c`` in IEEE
    double, so a perfect match scores exactly 1.0; scaling each energy by
    an even power of two first is exact and keeps the product clear of
    underflow and overflow."""
    if a == 0.0 or b == 0.0:
        return float(a == b)
    ea, eb = math.frexp(a)[1] & ~1, math.frexp(b)[1] & ~1
    denom = math.ldexp(
        math.sqrt(math.ldexp(a, -ea) * math.ldexp(b, -eb)), (ea + eb) // 2)
    return min(1.0, max(-1.0, num / denom))


def _centred(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``v`` minus its mean, and its energy, as every locator scores a
    segment.  A constant ``v`` centres to exact zeros (``v`` minus its
    first sample), since its rounded mean can leave a residue that reads as
    energy.  Comparing the ends first keeps the full test off almost every
    window.  The centred copy starts on a 64-byte boundary, where
    ``np.correlate`` takes about a third less time than at the other
    offsets malloc may give, with the same bits."""
    out = np.empty(v.size + 7)
    out = out[-out.ctypes.data % 64 // 8:][:v.size]
    constant = v[0] == v[-1] and (v == v[0]).all()
    # the sum over the count is v.mean() to the bit, without its wrapper
    mean = v[0] if constant else np.add.reduce(v) / v.size
    vz = np.subtract(v, mean, out=out)
    return vz, float(np.dot(vz, vz))


def _first_max(lags: np.ndarray, scores: np.ndarray,
               rate: float) -> tuple[float, float]:
    """The first of the ascending ``lags``, in seconds at ``rate``, with the
    highest exact score, and that score: ties go to the smallest lag."""
    best = int(np.argmax(scores))
    return int(lags[best]) / rate, float(scores[best])


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
    the FFT; ``pearson_window`` gives exact values at specific lags.  A
    constant segment scores 1.0 on the constant windows, told by an exact
    count of sample-to-sample changes, since a rounded ``ex2`` can miss one."""
    n, m = x.size, yz.size
    if ey2 == 0.0:
        changes = np.concatenate(([0], np.cumsum(x[1:] != x[:-1])))
        return (changes[m - 1:] == changes[:n - m + 1]).astype(float)
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
            rate: float) -> tuple[float, float]:
    """``xcorr_offset`` of the unit-scaled x, given its window energies, and y."""
    yz, ey2 = _centred(_unit_scale(y))
    corr = _sliding_pearson(x, ex2, yz, ey2)

    # The scan locates the neighbourhood of the maximum; every lag within scan
    # tolerance of it is then recomputed directly so the result does not depend
    # on accumulated rounding, and true ties resolve to the smallest lag.
    candidates = np.nonzero(corr >= corr.max() - 1e-6)[0]
    if candidates.size > 4096:
        # a plateau this wide is exact ties (periodic or degenerate windows);
        # the smallest lags plus the scan argmax cover every possible winner
        candidates = np.union1d(candidates[:4096], [int(np.argmax(corr))])
    scores = np.fromiter((pearson_window(x, k, yz, ey2) for k in candidates),
                         float, candidates.size)
    return _first_max(candidates, scores, rate)


# The most chirp samples a capture may reach at either rate.  The one-bit
# reference memo keeps about 48 bytes per sample, so 2,000,000 is some
# 97 MB; a capture that reaches further is refused before any is built.
REFERENCE_SAMPLES_MAX = 2_000_000


def _reach(chirp: ChirpSpec, delay: float, window) -> int:
    """How many samples of ``chirp``, at the ``ReceiveWindow``'s rate, a
    capture opening ``delay`` seconds in can read: at zero distance, the
    window's length on from ``round(delay * rate)``, and one sample further
    when interpolated, but no more than the whole chirp holds.  A count past
    a float's range is ``inf``, so the reach is finite if either is.  A
    reach past ``REFERENCE_SAMPLES_MAX`` is a ``ParameterError``."""
    rate = window.sample_rate
    reach = min(_count(chirp.duration * rate),
                _count(delay * rate) + window.n_samples + 1)
    if reach > REFERENCE_SAMPLES_MAX:
        raise ParameterError(f"a capture reaches {reach} chirp samples, more "
                             f"than {REFERENCE_SAMPLES_MAX}")
    return reach


def _reachable(chirp: ChirpSpec, delay: float, window) -> Waveform:
    """The ``_reach`` of ``chirp`` at the ``ReceiveWindow``'s rate."""
    return gen_chirp(replace(chirp, sample_rate=window.sample_rate),
                     _reach(chirp, delay, window))


@lru_cache(maxsize=1)
def _audio_reference(chirp: ChirpSpec, delay: float, window) -> tuple:
    """The ``_reachable`` part of ``chirp``, its ``_unit_scale`` copy and
    that copy's ``_window_stats`` for the ``window``'s length: the
    ideal-audio locator's beacon side, built once per config.  Only the
    last config is kept, about 95 KB at the defaults; all are read-only."""
    reference = _reachable(chirp, delay, window)
    x = _readonly(_unit_scale(reference.samples))
    return reference, x, _readonly(_window_stats(x, window.n_samples))


class BackscatterReference(NamedTuple):
    """The beacon side of the one-bit matched filter, as
    ``_backscatter_reference`` builds it."""

    reference: Waveform
    halves: tuple
    size: int
    step: int
    lags: int
    spectra: np.ndarray
    rotations: np.ndarray
    coarse: tuple | None


@lru_cache(maxsize=1)
def _backscatter_reference(chirp: ChirpSpec, delay: float, window,
                           fsk: FskConfig,
                           threshold: float) -> BackscatterReference:
    """The beacon side of the one-bit matched filter, built once per config.

    ``reference`` is the ``_reachable`` samples of ``chirp`` for an
    ``m``-sample capture ``window`` opening ``delay`` seconds into it (at the
    RF rate); ``halves``, the ``_low_half`` of the exact phase ``(twice,
    FS)`` that ``_carrier_phase`` gives their comparator bits, and ``twice %
    FS`` in the narrowest integer type that holds ``FS``; ``size``, ``step``
    and ``lags``, the block FFT size, the lags between block starts and the
    number of lags an ``m``-sample window can take.  With ``P`` the
    modulator's carrier phase ``twice / (2 FS)``, correctly rounded, and h
    the i-th of ``HARMONICS``, ``spectra[b, i]`` is the ``size``-point FFT
    of ``exp(2 pi i h P)`` from sample ``b * step`` on, and ``rotations[i] =
    conj(exp(2 pi i h P[:lags]))``, both complex64, each computed in double
    precision and rounded once.  ``coarse`` is ``_coarse_blocks``'
    reference: the advance of ``P`` over each ``COARSE_BIN`` samples from
    sample 0 on, and its ``_window_stats`` for the ``_coarse_bins(m)`` bins
    a capture keeps, or None when it keeps none.  Blocks follow the capture
    length alone: ``size = min(fft_size(3 m), fft_size(n))``.  Only the last
    config is kept, about 10 MB at the defaults; every array is read-only,
    so no exchange can change what a later one reads.
    """
    reference = _reachable(chirp, delay, window)
    ref_bits = one_bit_quantize(reference, threshold)
    n, m = len(ref_bits), window.n_samples
    lags = n - m + 1
    twice, fs = _carrier_phase(ref_bits, fsk)
    # one rounding: twice and 2 fs are exact as floats, or Python ints
    phase = np.asarray(twice / (2 * fs), dtype=float)
    # a circular correlation over a block of size samples leaves the first
    # step lags unwrapped: their windows end inside the block
    size = min(fft_size(3 * m), fft_size(n))
    step = size - m + 1
    tones = np.array([np.exp(2j * np.pi * h * phase) for h in HARMONICS])
    # each block's spectrum is rounded once, from double into single, so
    # the memo never holds both precisions of every block at once
    spectra = np.empty((-(-lags // step), len(HARMONICS), size), np.complex64)
    for b, block in enumerate(spectra):
        block[:] = np.fft.fft(tones[:, b * step:b * step + size], size)
    coarse = None
    if (bins := _coarse_bins(m)) > 0:
        advance = _readonly(np.diff(phase[::COARSE_BIN]))
        coarse = (advance, _readonly(_window_stats(advance, bins)))
    halves = _low_half(twice, fs), (twice % fs).astype(np.min_scalar_type(fs))
    rotations = np.conj(tones[:, :lags], dtype=np.complex64)
    return BackscatterReference(
        reference, tuple(map(_readonly, halves)), size, step, lags,
        _readonly(spectra), _readonly(rotations), coarse)


def _coarse_bins(m: int) -> int:
    """``COARSE_BIN``-sample bins an ``m``-sample capture's coarse stream
    keeps: its edges are samples 0, ``COARSE_BIN``, ... up to ``m - 1``, and
    the bin at each end is dropped."""
    return (m - 1) // COARSE_BIN - 2


def _coarse_blocks(matched: BackscatterReference, rf_low: np.ndarray) -> range:
    """The overlap-save blocks ``_scan`` needs for the reflection whose sign
    bits are ``rf_low``.

    Each sign change of the reflection is half a carrier cycle on from the
    last, so the carrier phase, interpolated at the bin edges of
    ``_coarse_bins``, advances over each bin by what the comparator's duty
    cycle there gives.
    ``_sliding_pearson`` locates that stream in the same advance of the
    reference.  Its candidates are the coarse lags that score within
    ``COARSE_MARGIN`` of the best; returns the blocks holding a lag from
    ``COARSE_REACH`` before the first candidate to ``COARSE_REACH`` after
    the last, so a far competitor stretches the span toward every block.
    Returns every block when the capture keeps no bin or the reflection
    changes sign less than twice.
    """
    flips = np.flatnonzero(rf_low[1:] != rf_low[:-1])
    if matched.coarse is None or flips.size < 2:
        return range(len(matched.spectra))
    # np.interp clamps before the first sign change and past the last, so
    # the bin at each end is dropped
    edges = np.arange(_coarse_bins(rf_low.size) + 3) * COARSE_BIN
    phase = np.interp(edges, flips, np.arange(flips.size) / 2)
    scores = _sliding_pearson(*matched.coarse,
                              *_centred(np.diff(phase)[1:-1]))
    near = np.flatnonzero(scores.max() - scores < COARSE_MARGIN)
    # the stream's first kept bin starts COARSE_BIN samples into the capture
    first, last = (near[[0, -1]] - 1) * COARSE_BIN
    step = matched.step
    return range(max(first - COARSE_REACH, 0) // step,
                 min(last + COARSE_REACH, matched.lags - 1) // step + 1)


def _scan(matched: BackscatterReference, rf_low: np.ndarray,
          blocks: range) -> tuple[np.ndarray, np.ndarray]:
    """The ``RESCORED_LAGS`` lags, in order, at which the square-wave
    replica truncated to ``HARMONICS`` best matches the centred +/-1
    reflection that is low where ``rf_low`` is set, and their scores: the
    best of each ``SHORTLIST_PIECE``-lag piece's best, so the best of all
    lags in ``blocks`` unless the next one ties.

    With ``P`` the carrier phase ``fsk_modulate`` gives the reference
    bits, the replica at lag k is +1 where ``frac(P[k+j] - P[k])
    < 1/2``.  Its odd harmonics h turn the correlation at every lag into a
    cross-correlation with ``exp(2 pi i h P)``, rotated back by ``P[k]``.
    Every replica is a balanced carrier, so its energy is the window length
    to within a few samples and the scan ranks lags by correlation alone.
    The reflection is centred by its mean, which the count of low samples
    gives exactly, as ``_centred`` gives it, constant waves included.  It
    is real, so its conjugate spectrum is the Hermitian extension of its
    real FFT.  Per block and harmonic, in ``HARMONICS`` order, one inverse
    FFT takes that harmonic's correlation at the block's first ``step``
    lags, rotated back by its start phase, and the block's scores add it
    weighted by 1/h.  The blocks run one after another on the calling
    thread, and their pieces' kept lags merge in lag order.  Through the
    block loop there live the real FFT ``half`` (``size // 2 + 1``
    values), one ``size``-point row, which takes the conjugate spectrum
    before each harmonic's product overwrites it, the ``step`` scores and
    one piece's ranking.

    The scan runs in single precision, with complex64 inverse transforms
    and float32 scores.  The reflection's real FFT is the exception: numpy
    runs it in double precision, since its scale is the Python int 1, and
    rounds it once to complex64.  Single precision suffices because the
    scan only ranks: its truncated series drops about a tenth of the
    replica's energy, which the ``RESCORED_LAGS`` margin absorbs, while a
    float32 FFT's rounding stays near log2(size) unit roundoffs (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, Thm
    24.2), some five orders of magnitude below it, and exact rescoring
    decides the answer and its peak.  Every input is a +/-1 wave or a unit
    tone, so no amplitude or noise level can take a value out of float32's
    range.  The scores' last bits follow numpy's SIMD dispatch, which fuses
    the complex multiply-adds on some CPUs and not on others.
    """
    size, step, lags = matched.size, matched.step, matched.lags
    mean = (rf_low.size - 2 * np.count_nonzero(rf_low)) / rf_low.size
    half = np.fft.rfft(np.where(rf_low, np.float32(-1.0 - mean),
                                np.float32(1.0 - mean)), size)
    row = np.empty(size, dtype=np.complex64)
    score = np.empty(step, dtype=np.float32)
    shortlist, scores = [], []
    for b in blocks:
        start = b * step
        width = min(step, lags - start)
        corr, block = row[:width], score[:width]
        # the square wave is 4/pi times the sum of sin(2 pi h theta) / h,
        # added in HARMONICS order onto -0.0, which adds every float as is
        block.fill(-0.0)
        for h, spectrum, rotation in zip(HARMONICS, matched.spectra[b],
                                         matched.rotations):
            np.conjugate(half, out=row[:half.size])
            row[half.size:] = half[size - half.size:0:-1]
            np.multiply(spectrum, row, out=row)
            np.fft.ifft(row, out=row)
            np.multiply(rotation[start:start + width], corr, out=corr)
            np.add(block, np.divide(corr.imag, h, out=corr.imag), out=block)
        for first in range(0, width, SHORTLIST_PIECE):
            best = first + _best(block[first:first + SHORTLIST_PIECE])
            shortlist.append(best + start)
            scores.append(block[best])
    shortlist, scores = np.concatenate(shortlist), np.concatenate(scores)
    # the pieces' lags ascend, so the indices of the best ascend in lag too
    best = _best(scores)
    return shortlist[best], scores[best]


def _best(scores: np.ndarray) -> np.ndarray:
    """Indices of the ``RESCORED_LAGS`` highest scores, or of all of them,
    in ascending order."""
    take = min(RESCORED_LAGS, len(scores))
    return np.sort(np.argpartition(scores, -take)[-take:])


def _locate_backscatter(matched: BackscatterReference, rf_low: np.ndarray,
                        rate: float) -> tuple[float, float]:
    """``xcorr_offset`` of the reflection the beacon hears, sampled at
    ``rate``, inside the reflection of the reference comparator bits, whose
    beacon side ``matched`` comes from ``_backscatter_reference``.  It
    takes the reflection's sign bits, ``rf_low``, set where the +/-1 wave
    is low: the locator needs nothing else of it.

    ``_scan`` shortlists lags from the blocks ``_coarse_blocks`` picks, and
    ``_exact_scores`` rescores each, so a perfect match scores exactly 1.0
    and the truncated harmonic series never decides the answer.  Ties go to
    the smallest lag.  CHANGES.md records how the pruned answers compare
    with the all-blocks scan's.
    """
    shortlist, _ = _scan(matched, rf_low, _coarse_blocks(matched, rf_low))
    exact = _exact_scores(matched.halves, shortlist, rf_low)
    return _first_max(shortlist, exact, rate)


def _exact_scores(halves: tuple, lags: np.ndarray,
                  rf_low: np.ndarray) -> np.ndarray:
    """The exact Pearson correlation of ``fsk_modulate`` of the ``m =
    rf_low.size`` reference bits from each lag k on against the +/-1
    reflection that is low where ``rf_low`` is set.  Bits are samples at the
    RF rate, so the replica's doubled phase is ``twice[k:k + m] -
    twice[k]``.  With ``low`` and ``rem`` the memo's ``halves`` (``twice //
    FS`` odd, ``twice % FS``), its floor over ``FS`` is ``twice[j] // FS -
    twice[k] // FS``, less one where ``rem[j] < rem[k]``, so the replica is
    low (``_low_half``) where ``low[j] ^ low[k] ^ (rem[j] < rem[k])``.

    Both waves are +/-1, so their score follows from three integers: their
    sums ``Sx`` and ``Sy`` and the sum of their product ``Sxy``, which is
    ``m`` less twice the samples where they differ.  It is ``_pearson(m Sxy
    - Sx Sy, m**2 - Sx**2, m**2 - Sy**2)``, the polarity-coincidence
    correlator, with every term exact (``m <= REFERENCE_SAMPLES_MAX``, so
    ``m**2 < 2**53``)."""
    (low, rem), m = halves, rf_low.size
    sy = m - 2 * int(np.count_nonzero(rf_low))
    b = float(m * m - sy * sy)
    scores = np.empty(len(lags))
    for i, k in enumerate(lags):
        lows = np.less(rem[k:k + m], rem[k]) ^ low[k:k + m] ^ low[k]
        sx = m - 2 * int(np.count_nonzero(lows))
        sxy = m - 2 * int(np.count_nonzero(
            np.bitwise_xor(lows, rf_low, out=lows)))
        scores[i] = _pearson(m * sxy - sx * sy, float(m * m - sx * sx), b)
    return scores


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
    segment, so ``_audio_reference`` builds them once per config.
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
    # exponents ``_pearson`` splits off shift by even amounts
    x = _unit_scale(x)
    return _locate(x, _window_stats(x, m), y, rate_x)
