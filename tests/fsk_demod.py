"""Reference FSK demodulator for the modulator round-trip tests.

The simulator's beacon never demodulates the tag's bits: it matches the
reflection against replicas instead.  This per-bit quadrature receiver lives
with the tests, which use it to check that ``fsk_modulate`` puts each bit on
the right tone.
"""

import numpy as np

from chirploc import BitStream, FskConfig, ParameterError, Waveform
from chirploc.signals import _bit_boundaries


def fsk_demodulate(wave: Waveform, cfg: FskConfig, bit_rate: float) -> BitStream:
    """Recover bits by comparing quadrature correlation energy at both tones.

    For each bit period the received samples are correlated against sine and
    cosine templates at freq0 and freq1; the tone with the larger energy
    (I^2 + Q^2) wins.  Works on square-wave input because the fundamental
    carries most of the energy and the harmonics fall outside both bands.

    Args:
        wave: received reflection-coefficient stream, sampled at
            cfg.sample_rate.
        cfg: tone configuration used by the modulator.
        bit_rate: decision rate in bits per second.

    Returns:
        BitStream at ``bit_rate``.
    """
    if not bit_rate > 0:
        raise ParameterError(f"bit_rate must be positive, got {bit_rate}")
    slow = min(cfg.freq0, cfg.freq1)
    if 1.0 / bit_rate < 2.0 / slow:
        raise ParameterError(
            f"bit period {1.0 / bit_rate:.3e} s is shorter than two cycles of "
            f"the slower tone ({slow:.3e} Hz)"
        )
    n = len(wave)
    if n == 0:
        return BitStream(np.zeros(0, dtype=np.uint8), bit_rate)
    spb = cfg.sample_rate / bit_rate
    n_bits = int(round(n / spb))
    if n_bits == 0:
        return BitStream(np.zeros(0, dtype=np.uint8), bit_rate)
    edges = np.minimum(_bit_boundaries(n_bits, spb), n)
    t = np.arange(n) / cfg.sample_rate
    bits = np.empty(n_bits, dtype=np.uint8)
    for i in range(n_bits):
        seg = wave.samples[edges[i]:edges[i + 1]]
        ts = t[edges[i]:edges[i + 1]]
        energies = []
        for f in (cfg.freq0, cfg.freq1):
            arg = 2.0 * np.pi * f * ts
            i_corr = float(np.dot(seg, np.cos(arg)))
            q_corr = float(np.dot(seg, np.sin(arg)))
            energies.append(i_corr * i_corr + q_corr * q_corr)
        bits[i] = 1 if energies[1] > energies[0] else 0
    return BitStream(bits, bit_rate)
