"""Acoustic propagation to the tag and the tag's capture window.

The channel applies delay, spreading loss, optional multipath taps, and
seeded Gaussian noise.  Delay is carried exactly in the waveform's time
origin; only multipath taps and window extraction ever round to the sample
grid (nearest sample by default, linear interpolation behind a flag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .signals import Waveform, _count

__all__ = [
    "AcousticChannel",
    "ReceiveWindow",
    "propagate_acoustic",
    "sample_window",
]

# normals drawn at a time to discard the noise before a capture window
NOISE_CHUNK = 1 << 14


@dataclass(frozen=True)
class AcousticChannel:
    """One-way acoustic path from beacon to tag.

    Attributes:
        distance: beacon-to-tag separation in metres.
        speed_of_sound: propagation speed in m/s.
        attenuation_exponent: amplitude falls as distance**-exponent, floored
            at 1 m so short paths never amplify.
        noise_std: standard deviation of Gaussian noise added after
            attenuation.
        multipath: extra taps as (extra_delay_s, relative_gain) pairs, each
            relative to the direct path.
        rng_seed: noise seed; the RNG is created per call so identical
            channels always produce identical outputs.
        interpolate_delays: realize fractional-sample tap delays by linear
            interpolation instead of nearest-sample rounding.
    """

    distance: float
    speed_of_sound: float = 343.0
    attenuation_exponent: float = 1.0
    noise_std: float = 0.0
    multipath: tuple[tuple[float, float], ...] = ()
    rng_seed: int = 0
    interpolate_delays: bool = False

    def __post_init__(self):
        if not 0 <= self.distance < math.inf:
            raise ParameterError(
                f"distance must be finite and >= 0, got {self.distance}")
        if not self.speed_of_sound > 0:
            raise ParameterError(
                f"speed_of_sound must be positive, got {self.speed_of_sound}")
        if self.attenuation_exponent < 0:
            raise ParameterError(
                f"attenuation_exponent must be >= 0, got {self.attenuation_exponent}")
        if not 0 <= self.noise_std < math.inf:
            raise ParameterError(
                f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.rng_seed < 0:
            raise ParameterError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if not isinstance(self.interpolate_delays, (bool, np.bool_)):
            raise ParameterError("interpolate_delays must be true or false, "
                                 f"got {self.interpolate_delays!r}")
        taps = tuple((float(d), float(g)) for d, g in self.multipath)
        for extra_delay, _gain in taps:
            if extra_delay < 0:
                raise ParameterError(
                    f"multipath extra delay must be >= 0, got {extra_delay}")
        object.__setattr__(self, "multipath", taps)

    @property
    def delay(self) -> float:
        return self.distance / self.speed_of_sound

    @property
    def gain(self) -> float:
        # amplitude model: no gain above unity inside the 1 m floor
        if self.distance <= 1.0:
            return 1.0
        return self.distance ** -self.attenuation_exponent


@dataclass(frozen=True)
class ReceiveWindow:
    """Capture request: absolute start time, duration, and sampling rate."""

    start_time: float
    duration: float
    sample_rate: float

    def __post_init__(self):
        if not self.duration > 0:
            raise ParameterError(f"duration must be positive, got {self.duration}")
        if not self.sample_rate > 0:
            raise ParameterError(
                f"sample_rate must be positive, got {self.sample_rate}")
        if not 0 < self.n_samples < math.inf:
            raise ParameterError(
                f"duration {self.duration} s holds "
                f"{self.duration * self.sample_rate} samples at "
                f"{self.sample_rate} Hz, not a finite count of at least one")

    @property
    def n_samples(self) -> int:
        return _count(self.duration * self.sample_rate)


def _terms(ch: AcousticChannel, fs: float) -> list[tuple[int, float]]:
    """The direct path and each tap as ``(shift, coefficient)`` terms, in
    the order they add coefficient times the attenuated direct path
    ``shift`` samples on; an interpolated tap off the grid is two terms."""
    terms = [(0, 1.0)]
    for extra_delay, gain in ch.multipath:
        shift = extra_delay * fs
        k = math.floor(shift) if ch.interpolate_delays else round(shift)
        frac = shift - k if ch.interpolate_delays else 0.0
        terms += ([(k, gain)] if frac == 0.0 else
                  [(k, gain * (1.0 - frac)), (k + 1, gain * frac)])
    return terms


def _received(tx: np.ndarray, ch: AcousticChannel, fs: float, lo: int,
              hi: int) -> np.ndarray:
    """Samples ``[lo, hi)`` of the channel's output for the input ``tx``:
    the ``_terms`` reaching each sample ``i``, summed in order, plus
    ``noise_std`` times the ``i``-th normal of the seeded stream.  The
    normals before ``lo`` are drawn into a ``NOISE_CHUNK`` buffer and
    dropped: each takes a varying number of raw draws, so none can be skipped."""
    if not ch.multipath:
        out = ch.gain * tx[lo:hi]
    else:
        out = np.zeros(hi - lo)
        for k, coef in _terms(ch, fs):
            a, b = max(lo, k), min(hi, k + tx.size)
            if a < b:
                out[a - lo:b - lo] += coef * (ch.gain * tx[a - k:b - k])
    if ch.noise_std > 0:
        rng = np.random.default_rng(ch.rng_seed)
        head = np.empty(min(lo, NOISE_CHUNK))
        for done in range(0, lo, NOISE_CHUNK):
            rng.standard_normal(out=head[:lo - done])
        # numpy's normal(0, s) is 0 + s * z: the same noise, added in place
        noise = rng.standard_normal(out.size)
        out += np.multiply(noise, ch.noise_std, out=noise)
    return out


def propagate_acoustic(tx: Waveform, ch: AcousticChannel) -> Waveform:
    """Propagate a transmitted waveform through the acoustic channel.

    The direct-path delay moves the time origin rather than the samples, so
    it is exact.  Multipath taps are shifted copies of the attenuated direct
    path; noise is added last, the ``i``-th normal of the channel's seeded
    stream at sample ``i``, so ``_capture`` computes a window alone, in
    memory no delay grows (the draws before the window still take time).
    """
    size = tx.samples.size + max(k for k, _ in _terms(ch, tx.sample_rate))
    return Waveform(_received(tx.samples, ch, tx.sample_rate, 0, size),
                    tx.sample_rate, tx.t_origin + ch.delay)


def sample_window(rx: Waveform, window: ReceiveWindow,
                  interpolate: bool = False) -> Waveform:
    """Extract the tag's capture window from the received waveform.

    Samples outside the waveform support read as zero (the tag hears
    silence before the chirp arrives and after it ends).  The window start
    generally falls between samples of rx; by default it snaps to the
    nearest sample, with linear interpolation behind the flag.
    """
    if not math.isclose(window.sample_rate, rx.sample_rate, rel_tol=1e-9):
        raise ParameterError(
            f"window sample rate ({window.sample_rate}) must match the "
            f"waveform sample rate ({rx.sample_rate})")
    # a zero-length channel passes rx on as it is
    ch = AcousticChannel(0.0, interpolate_delays=bool(interpolate))
    return _capture(rx.samples, rx.sample_rate, rx.t_origin, ch, window)


def _capture(tx: np.ndarray, fs: float, t_origin: float, ch: AcousticChannel,
             window: ReceiveWindow) -> Waveform:
    """``sample_window(propagate_acoustic(Waveform(tx, fs, t_origin), ch),
    window, ch.interpolate_delays)``, bit for bit, computing only the
    received samples the window reads: at most its length plus two, however
    long ``tx`` is or however far a tap lands."""
    n = window.n_samples
    size = tx.size + max(k for k, _ in _terms(ch, fs))
    offset = (window.start_time - (t_origin + ch.delay)) * fs
    out = np.zeros(n)
    if ch.interpolate_delays:
        pos = offset + np.arange(n)
        inside = (pos >= 0.0) & (pos <= size - 1)
        if inside.any():
            pos = pos[inside]
            lo, hi = math.floor(pos[0]), min(math.floor(pos[-1]) + 2, size)
            # absolute indices as abscissae keep each interpolated sample's bits
            out[inside] = np.interp(pos, np.arange(lo, hi),
                                    _received(tx, ch, fs, lo, hi))
    else:
        start = int(round(offset))
        lo, hi = max(start, 0), min(start + n, size)
        if hi > lo:
            out[lo - start:hi - start] = _received(tx, ch, fs, lo, hi)
    return Waveform(out, fs, window.start_time)
