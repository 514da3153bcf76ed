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
from .signals import Waveform

__all__ = [
    "AcousticChannel",
    "ReceiveWindow",
    "propagate_acoustic",
    "sample_window",
]


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
        if self.distance < 0:
            raise ParameterError(f"distance must be >= 0, got {self.distance}")
        if not self.speed_of_sound > 0:
            raise ParameterError(
                f"speed_of_sound must be positive, got {self.speed_of_sound}"
            )
        if self.attenuation_exponent < 0:
            raise ParameterError(
                f"attenuation_exponent must be >= 0, got {self.attenuation_exponent}"
            )
        if self.noise_std < 0:
            raise ParameterError(f"noise_std must be >= 0, got {self.noise_std}")
        if not isinstance(self.interpolate_delays, (bool, np.bool_)):
            raise ParameterError("interpolate_delays must be true or false, "
                                 f"got {self.interpolate_delays!r}")
        taps = tuple((float(d), float(g)) for d, g in self.multipath)
        for extra_delay, _gain in taps:
            if extra_delay < 0:
                raise ParameterError(
                    f"multipath extra delay must be >= 0, got {extra_delay}"
                )
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
                f"sample_rate must be positive, got {self.sample_rate}"
            )

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))


def _shift_add(out: np.ndarray, src: np.ndarray, shift: float, gain: float,
               interpolate: bool) -> None:
    """Add gain*src into out at a (possibly fractional) sample offset."""
    if interpolate:
        lo = int(math.floor(shift))
        frac = shift - lo
        if frac == 0.0:
            out[lo:lo + src.size] += gain * src
        else:
            out[lo:lo + src.size] += gain * (1.0 - frac) * src
            out[lo + 1:lo + 1 + src.size] += gain * frac * src
    else:
        k = int(round(shift))
        out[k:k + src.size] += gain * src


def propagate_acoustic(tx: Waveform, ch: AcousticChannel) -> Waveform:
    """Propagate a transmitted waveform through the acoustic channel.

    The direct-path delay moves the time origin rather than the samples, so
    it is exact.  Multipath taps are shifted copies of the attenuated direct
    path; noise is added last over the whole output support.
    """
    fs = tx.sample_rate
    direct = ch.gain * tx.samples

    if ch.multipath:
        # pad only as far as the farthest tap actually lands
        if ch.interpolate_delays:
            pad = max(int(math.ceil(d * fs)) for d, _ in ch.multipath)
        else:
            pad = max(int(round(d * fs)) for d, _ in ch.multipath)
        out = np.zeros(tx.samples.size + pad)
        out[:direct.size] += direct
        for extra_delay, gain in ch.multipath:
            _shift_add(out, direct, extra_delay * fs, gain, ch.interpolate_delays)
    else:
        out = direct

    if ch.noise_std > 0:
        # numpy's normal(0, s) is 0 + s * z: the same noise, added in place
        noise = np.random.default_rng(ch.rng_seed).standard_normal(out.size)
        out += np.multiply(noise, ch.noise_std, out=noise)

    return Waveform(out, fs, tx.t_origin + ch.delay)


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
            f"waveform sample rate ({rx.sample_rate})"
        )
    n = window.n_samples
    offset = (window.start_time - rx.t_origin) * rx.sample_rate
    out = np.zeros(n)
    if interpolate:
        pos = offset + np.arange(n)
        inside = (pos >= 0.0) & (pos <= rx.samples.size - 1)
        if inside.any():
            out[inside] = np.interp(pos[inside], np.arange(rx.samples.size),
                                    rx.samples)
    else:
        start = int(round(offset))
        src_lo = max(start, 0)
        src_hi = min(start + n, rx.samples.size)
        if src_hi > src_lo:
            out[src_lo - start:src_hi - start] = rx.samples[src_lo:src_hi]
    return Waveform(out, rx.sample_rate, window.start_time)
