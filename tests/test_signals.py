"""DSP core: chirp synthesis, quantization, FSK, correlation offsets."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from chirploc import (
    BitStream,
    ChirpSpec,
    FskConfig,
    ParameterError,
    Waveform,
    fsk_modulate,
    gen_chirp,
    one_bit_quantize,
    xcorr_offset,
)
from chirploc.signals import (
    REFERENCE_SAMPLES_MAX,
    _carrier_phase,
    _centred,
    _low_half,
    _pearson,
    _sliding_pearson,
    _window_stats,
    pearson_window,
)
from fsk_demod import fsk_demodulate

DEFAULT_CHIRP = ChirpSpec(f_start=20e3, f_stop=40e3, duration=0.050,
                          sample_rate=192e3)


def _signs(bits: np.ndarray) -> np.ndarray:
    """Bits as a +/-1 sequence (0 -> -1, 1 -> +1)."""
    return bits.astype(np.float64) * 2.0 - 1.0


def naive_xcorr(x: np.ndarray, y: np.ndarray) -> tuple[int, float]:
    """O(n*m) reference: per-lag Pearson correlation, first max wins."""
    n, m = x.size, y.size
    yz = y - y.mean()
    ey = math.sqrt(float(yz @ yz))
    best_lag, best_val = 0, -np.inf
    for k in range(n - m + 1):
        w = x[k:k + m]
        wz = w - w.mean()
        ex = math.sqrt(float(wz @ wz))
        if ex == 0.0 or ey == 0.0:
            val = 1.0 if (ex == 0.0 and ey == 0.0) else 0.0
        else:
            val = float(wz @ yz) / (ex * ey)
        if val > best_val:
            best_val, best_lag = val, k
    return best_lag, best_val


# ---------------------------------------------------------------- gen_chirp

def test_chirp_sample_count_and_origin():
    w = gen_chirp(DEFAULT_CHIRP)
    assert len(w) == 9600
    assert w.t_origin == 0.0
    assert w.sample_rate == 192e3


def test_chirp_amplitude_bound():
    w = gen_chirp(ChirpSpec(20e3, 40e3, 0.050, 192e3, amplitude=0.3))
    assert np.max(np.abs(w.samples)) <= 0.3 + 1e-12


def test_zero_bandwidth_chirp_is_pure_tone():
    spec = ChirpSpec(f_start=25e3, f_stop=25e3, duration=0.01, sample_rate=192e3)
    w = gen_chirp(spec)
    t = np.arange(len(w)) / spec.sample_rate
    np.testing.assert_allclose(w.samples, np.sin(2 * np.pi * 25e3 * t),
                               atol=1e-9)


def test_chirp_midpoint_instantaneous_frequency():
    # peak of a windowed FFT centred mid-sweep sits at the mean frequency
    w = gen_chirp(DEFAULT_CHIRP)
    mid, half = len(w) // 2, 512
    seg = w.samples[mid - half:mid + half] * np.hanning(2 * half)
    spectrum = np.abs(np.fft.rfft(seg))
    f_peak = np.argmax(spectrum) * DEFAULT_CHIRP.sample_rate / (2 * half)
    assert abs(f_peak - 30e3) < 500.0


@given(
    f_start=st.floats(5e3, 30e3),
    bandwidth=st.floats(0.0, 30e3),
    duration=st.floats(0.01, 0.1),
    amplitude=st.floats(0.1, 4.0),
)
@settings(max_examples=40, deadline=None)
def test_chirp_energy_matches_half_amplitude_square(f_start, bandwidth,
                                                    duration, amplitude):
    spec = ChirpSpec(f_start, f_start + bandwidth, duration, 192e3, amplitude)
    w = gen_chirp(spec)
    if len(w) < 1000:
        return
    energy = float(w.samples @ w.samples)
    assert energy == pytest.approx(amplitude**2 * len(w) / 2, rel=0.01)


@pytest.mark.parametrize("kwargs", [
    dict(f_start=0.0, f_stop=40e3, duration=0.05, sample_rate=192e3),
    dict(f_start=30e3, f_stop=20e3, duration=0.05, sample_rate=192e3),
    dict(f_start=20e3, f_stop=40e3, duration=-1.0, sample_rate=192e3),
    dict(f_start=20e3, f_stop=40e3, duration=0.05, sample_rate=60e3),
    dict(f_start=20e3, f_stop=40e3, duration=0.05, sample_rate=192e3,
         amplitude=0.0),
])
def test_chirp_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ParameterError):
        ChirpSpec(**kwargs)


@pytest.mark.parametrize("n", [0, 1, 4033, 9599, 9600, 20000])
def test_shortened_chirp_is_exact_prefix(n):
    full = gen_chirp(DEFAULT_CHIRP).samples
    short = gen_chirp(DEFAULT_CHIRP, n)
    assert len(short) == min(n, full.size)
    assert np.array_equal(short.samples, full[:n])


def test_shortened_chirp_is_exact_prefix_at_rf_rate():
    # the one-bit path synthesizes wakeup + capture of the chirp at 10 MHz
    rf_spec = ChirpSpec(20e3, 40e3, 0.050, 1e7)
    assert np.array_equal(gen_chirp(rf_spec, 210001).samples,
                          gen_chirp(rf_spec).samples[:210001])


def test_shortened_chirp_rejects_negative_count():
    with pytest.raises(ParameterError):
        gen_chirp(DEFAULT_CHIRP, -1)


def test_chirp_past_a_floats_count_gives_only_a_prefix():
    # 1e305 s at 10 MHz is past a float's range: the count is inf, and only
    # a prefix of such a chirp can be built
    spec = ChirpSpec(20e3, 40e3, 1e305, 1e7)
    assert spec.n_samples == math.inf
    assert len(gen_chirp(spec, 1000)) == 1000
    with pytest.raises(ParameterError, match="more samples than a float"):
        gen_chirp(spec)


# ---------------------------------------------------------- one_bit_quantize

def test_quantize_all_zero_is_all_ones():
    w = Waveform(np.zeros(64), 192e3)
    b = one_bit_quantize(w, threshold=0.0)
    assert b.bits.tolist() == [1] * 64
    assert b.bit_rate == 192e3


def test_quantize_sine_gives_half_ones():
    t = np.arange(1920) / 192e3
    w = Waveform(np.sin(2 * np.pi * 24e3 * t), 192e3)
    ones = int(one_bit_quantize(w).bits.sum())
    assert abs(ones - 960) <= 960 * 0.02


def test_quantize_threshold_selects_samples():
    w = Waveform(np.array([-1.0, 0.2, 0.5, 0.5, 0.9]), 1.0)
    assert one_bit_quantize(w, 0.5).bits.tolist() == [0, 0, 1, 1, 1]


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=64),
       st.floats(-5, 5))
@settings(max_examples=60)
def test_quantize_idempotent_on_sign_mapping(samples, threshold):
    b = one_bit_quantize(Waveform(np.array(samples), 48e3), threshold)
    again = one_bit_quantize(Waveform(_signs(b.bits), 48e3), 0.0)
    assert np.array_equal(again.bits, b.bits)


def test_bitstream_rejects_non_binary():
    with pytest.raises(ParameterError):
        BitStream(np.array([0, 1, 2], dtype=np.uint8), 1e3)


@pytest.mark.parametrize("make, match", [
    (lambda: Waveform(np.zeros((2, 3)), 1e3), "samples must be one-dim"),
    (lambda: Waveform([0.0, math.nan], 1e3), "samples must be finite"),
    (lambda: Waveform([0.0, math.inf], 1e3), "samples must be finite"),
    (lambda: Waveform(np.zeros(4), 0.0), "sample_rate must be positive"),
    (lambda: BitStream(np.zeros((2, 2)), 1e3), "bits must be one-dim"),
    (lambda: BitStream([0, 1], -1.0), "bit_rate must be positive"),
    (lambda: one_bit_quantize(Waveform(np.zeros(4), 1e3), math.nan),
     "threshold must be finite"),
    (lambda: one_bit_quantize(Waveform(np.zeros(4), 1e3), -math.inf),
     "threshold must be finite"),
], ids=["waveform-2d", "waveform-nan", "waveform-inf", "waveform-rate",
        "bits-2d", "bits-rate", "threshold-nan", "threshold-inf"])
def test_signal_inputs_are_checked(make, match):
    with pytest.raises(ParameterError, match=match):
        make()


@pytest.mark.parametrize("bits", [[0, 2], [0, 1, 7]])
def test_bitstream_rejects_values_above_one(bits):
    with pytest.raises(ParameterError, match="only 0 and 1"):
        BitStream(bits, 1e3)


# ------------------------------------------------------------------- FSK

def _tone_peak_hz(w: Waveform) -> float:
    spectrum = np.abs(np.fft.rfft(w.samples))
    return float(np.argmax(spectrum) * w.sample_rate / len(w))


def test_fsk_all_zero_bits_is_freq0_tone():
    cfg = FskConfig()
    bits = BitStream(np.zeros(200, dtype=np.uint8), 192e3)
    w = fsk_modulate(bits, cfg)
    assert set(np.unique(w.samples)) <= {-1.0, 1.0}
    assert abs(_tone_peak_hz(w) - cfg.freq0) < 5e3


def test_fsk_all_one_bits_is_freq1_tone():
    cfg = FskConfig()
    bits = BitStream(np.ones(200, dtype=np.uint8), 192e3)
    assert abs(_tone_peak_hz(fsk_modulate(bits, cfg)) - cfg.freq1) < 5e3


def test_fsk_sample_count_follows_bit_rate():
    cfg = FskConfig()
    bits = BitStream(np.zeros(77, dtype=np.uint8), 192e3)
    w = fsk_modulate(bits, cfg)
    assert len(w) == round(77 * cfg.sample_rate / 192e3)


def test_fsk_empty_round_trip():
    cfg = FskConfig()
    empty = BitStream(np.zeros(0, dtype=np.uint8), 192e3)
    w = fsk_modulate(empty, cfg)
    assert len(w) == 0
    assert len(fsk_demodulate(w, cfg, 192e3)) == 0


def test_fsk_round_trip_identity_defaults():
    cfg = FskConfig()
    rng = np.random.default_rng(3)
    bits = BitStream(rng.integers(0, 2, 500).astype(np.uint8), 192e3)
    back = fsk_demodulate(fsk_modulate(bits, cfg), cfg, 192e3)
    assert np.array_equal(back.bits, bits.bits)
    assert back.bit_rate == bits.bit_rate


@given(
    freq0=st.floats(10e3, 1.5e6),
    shift=st.floats(0.03, 0.10),
    tb_product=st.floats(0.52, 2.0),
    oversample=st.floats(4.5, 10.0),
    seed=st.integers(0, 2**32 - 1),
    n_bits=st.integers(1, 48),
)
@settings(max_examples=40, deadline=None)
def test_fsk_round_trip_identity_property(freq0, shift, tb_product,
                                          oversample, seed, n_bits):
    # tone spacing times bit period must stay near the default's 0.52
    # or the per-bit correlators cannot tell the two tones apart
    freq1 = freq0 * (1 + shift)
    cfg = FskConfig(freq0=freq0, freq1=freq1,
                    sample_rate=oversample * freq1)
    cycles_per_bit = math.ceil(tb_product / shift)
    bit_rate = freq0 / cycles_per_bit
    bits = BitStream(
        np.random.default_rng(seed).integers(0, 2, n_bits).astype(np.uint8),
        bit_rate,
    )
    back = fsk_demodulate(fsk_modulate(bits, cfg), cfg, bit_rate)
    assert np.array_equal(back.bits, bits.bits)


def test_fsk_square_wave_switches_on_exact_half_cycle_boundaries():
    # a float running sum of the phase rounded a half cycle that ends
    # exactly on a sample to just short of it, flipping that sample
    cfg = FskConfig(freq0=1e4, freq1=10937.5, sample_rate=65625.0)
    wave = fsk_modulate(BitStream(np.ones(2, dtype=np.uint8), 1e4 / 6), cfg)
    # six samples per carrier cycle: three high, then three low
    expected = np.tile([1.0, 1.0, 1.0, -1.0, -1.0, -1.0], 14)[:len(wave)]
    assert np.array_equal(wave.samples, expected)


def test_fsk_noisy_bit_error_rate():
    # 10 dB SNR against a unit-power square carrier, 1e4 bits
    cfg = FskConfig()
    rng = np.random.default_rng(42)
    bits = BitStream(rng.integers(0, 2, 10_000).astype(np.uint8), 192e3)
    clean = fsk_modulate(bits, cfg)
    noise_std = math.sqrt(10 ** (-10 / 10))
    noisy = Waveform(clean.samples + rng.normal(0, noise_std, len(clean)),
                     cfg.sample_rate)
    back = fsk_demodulate(noisy, cfg, 192e3)
    ber = np.mean(back.bits != bits.bits)
    assert ber < 1e-3


def test_fsk_rejects_too_short_bit_period():
    cfg = FskConfig()
    w = fsk_modulate(BitStream(np.zeros(10, dtype=np.uint8), 192e3), cfg)
    with pytest.raises(ParameterError):
        fsk_demodulate(w, cfg, bit_rate=600e3)


def _exact_signs(bits: BitStream, cfg: FskConfig) -> np.ndarray:
    """The modulator's samples from its phase P summed sample by sample in
    exact fractions: -1 where floor(2 P) is odd, else +1."""
    per_bit = cfg.sample_rate / bits.bit_rate
    widths = np.diff(np.round(np.arange(len(bits) + 1) * per_bit))
    advance = [Fraction(f) / Fraction(cfg.sample_rate)
               for f in (cfg.freq0, cfg.freq1)]
    phase, signs = Fraction(0), []
    for bit, width in zip(bits.bits, widths.astype(int)):
        for _ in range(width):
            signs.append(-1.0 if math.floor(2 * phase) % 2 else 1.0)
            phase += advance[bit]
    return np.array(signs)


# whole hertz, eighths of a hertz and any float: the first two keep the
# doubled phase in int64, and most floats, which are not dyadic, take it past
# 2**53 into Python ints
TONE_ROUNDING = {"whole": round, "dyadic": lambda f: round(8 * f) / 8,
                 "float": float}


@given(kind=st.sampled_from(sorted(TONE_ROUNDING)),
       freq0=st.floats(1e4, 1.5e6),
       shift=st.one_of(st.floats(-0.09, -0.02), st.floats(0.02, 0.09)),
       oversample=st.floats(4.5, 10.0), per_bit=st.floats(1.0, 40.0),
       seed=st.integers(0, 2**32 - 1), n_bits=st.integers(1, 24))
@settings(max_examples=60, deadline=None)
@example(kind="dyadic", freq0=1e4, shift=0.09375, oversample=6.0,
         per_bit=36.0, seed=0, n_bits=2)
@example(kind="float", freq0=10000.1, shift=0.05, oversample=7.3,
         per_bit=9.5, seed=1, n_bits=20)
def test_fsk_signs_follow_the_exact_phase(kind, freq0, shift, oversample,
                                          per_bit, seed, n_bits):
    rounding = TONE_ROUNDING[kind]
    freq0, freq1 = rounding(freq0), rounding(freq0 * (1 + shift))
    cfg = FskConfig(freq0=float(freq0), freq1=float(freq1),
                    sample_rate=float(rounding(oversample * max(freq0,
                                                                freq1))))
    bits = BitStream(np.random.default_rng(seed).integers(0, 2, n_bits),
                     cfg.sample_rate / per_bit)
    wave = fsk_modulate(bits, cfg)
    assert np.array_equal(wave.samples, _exact_signs(bits, cfg))
    # int64 while 2 n FS < 2**53, FS the least common denominator of the
    # carrier cycles per sample of the two tones
    rate = Fraction(cfg.sample_rate)
    fs = math.lcm(*((Fraction(f) / rate).denominator
                    for f in (cfg.freq0, cfg.freq1)))
    big = 2 * len(wave) * fs >= 2**53
    twice, got_fs = _carrier_phase(bits, cfg)
    assert got_fs == fs and twice.dtype == (object if big else np.int64)
    assert kind == "float" or not big


@st.composite
def _doubled_phases(draw):
    """An integer ``fs`` and an array of twice the phase over it, in units
    of ``1 / fs`` cycles, many of them within one unit of a half cycle."""
    fs = draw(st.integers(1, 10**12))
    near = st.builds(lambda k, side: max(k * fs + side - 1, 0),
                     st.integers(0, 2 * 10**6), st.integers(0, 2))
    return fs, draw(arrays(np.int64, array_shapes(min_dims=1, max_dims=2,
                                                  max_side=16),
                           elements=st.one_of(st.integers(0, 2**62), near)))


@given(_doubled_phases())
@settings(max_examples=200)
@example((10**7, np.array([[0, 10**7, 2 * 10**7, 3 * 10**7],
                           [10**7 - 1, 10**7 + 1, 2**62 - 1, 2**62]])))
def test_square_wave_matches_the_mod_rule(case):
    # the sign rule the modulator and the exact rescoring share, against
    # frac(P) < 1/2 on the exact phase P = twice / (2 fs): in int64, and an
    # even number of half cycles on, in Python ints past it
    fs, twice = case
    high = np.vectorize(lambda t: Fraction(int(t), 2 * fs) % 1 < 0.5,
                        otypes=[bool])
    for phase in (twice, twice.astype(object) + 2**64 * 2 * fs):
        expected = np.where(high(phase), 1.0, -1.0)
        got = 1.0 - 2.0 * _low_half(phase, fs)
        assert got.shape == phase.shape
        assert np.array_equal(got.view(np.uint64),
                              expected.view(np.uint64))


def test_fsk_config_rejects_equal_or_far_tones():
    with pytest.raises(ParameterError):
        FskConfig(freq0=1e6, freq1=1e6)
    with pytest.raises(ParameterError):
        FskConfig(freq0=1e6, freq1=1.5e6)
    with pytest.raises(ParameterError):
        FskConfig(freq0=1e6, freq1=1.1e6, sample_rate=4e6)


# ------------------------------------------------------------ xcorr_offset

def test_xcorr_exact_subsequence():
    w = gen_chirp(DEFAULT_CHIRP)
    k, m = 4096, 192
    seg = Waveform(w.samples[k:k + m], w.sample_rate)
    lag, peak = xcorr_offset(w, seg)
    assert lag == k / w.sample_rate
    assert peak == 1.0


def test_xcorr_matches_naive_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = int(rng.integers(64, 1200))
        m = int(rng.integers(8, max(9, n // 3)))
        x = rng.normal(size=n)
        y = rng.normal(size=m)
        lag, peak = xcorr_offset(Waveform(x, 1e3), Waveform(y, 1e3))
        lag_ref, peak_ref = naive_xcorr(x, y)
        assert lag == lag_ref / 1e3, f"trial {trial}"
        assert peak == pytest.approx(peak_ref, abs=1e-9)


def test_xcorr_attenuated_segment_same_offset():
    w = gen_chirp(DEFAULT_CHIRP)
    k, m = 2500, 384
    seg = Waveform(w.samples[k:k + m] * 1e-3, w.sample_rate)
    lag, peak = xcorr_offset(w, seg)
    assert lag == k / w.sample_rate
    assert peak == pytest.approx(1.0, abs=1e-9)


def test_xcorr_one_bit_flips_keep_lag():
    ref = one_bit_quantize(gen_chirp(DEFAULT_CHIRP))
    rng = np.random.default_rng(7)
    k, m = 3000, 192
    seg = ref.bits[k:k + m].copy()
    seg[rng.choice(m, size=int(0.05 * m), replace=False)] ^= 1
    lag, peak = xcorr_offset(Waveform(_signs(ref.bits), ref.bit_rate),
                             Waveform(_signs(seg), ref.bit_rate))
    assert lag == k / ref.bit_rate
    assert 0.5 < peak < 1.0


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=128))
@settings(max_examples=60)
@example(samples=[0.0, 3.462314603717685e-92])  # energy product underflows
@example(samples=[0.0, 1e200])  # energy overflows unscaled
@example(samples=[1.5e308, -1.7e308, 3.0])
@example(samples=[0.0, 5e-324])  # subnormal only
def test_xcorr_self_correlation_is_exactly_unity(samples):
    w = Waveform(np.array(samples), 48e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert xcorr_offset(w, w) == (0.0, 1.0)


@given(scale=st.floats(1e-6, 1e6), k=st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_xcorr_scaling_invariance(scale, k):
    w = gen_chirp(ChirpSpec(20e3, 40e3, 0.005, 192e3))
    m = 96
    seg = Waveform(w.samples[k:k + m] * scale, w.sample_rate)
    lag, peak = xcorr_offset(w, seg)
    assert lag == k / w.sample_rate
    assert peak == pytest.approx(1.0, abs=1e-9)


def test_xcorr_tie_breaks_to_smallest_lag():
    pattern = np.array([1.0, -1.0, 2.0, -2.0])
    ref = Waveform(np.tile(pattern, 8), 1e3)
    seg = Waveform(pattern, 1e3)
    lag, peak = xcorr_offset(ref, seg)
    assert lag == 0.0
    assert peak == 1.0


def _exact_pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``pearson_window`` at every lag of y within x."""
    return np.array([pearson_window(x, k, *_centred(y))
                     for k in range(x.size - y.size + 1)])


def test_xcorr_tie_cap_keeps_the_smallest_lag():
    # a 64 kHz tone sampled at 192 kHz repeats every 3 samples, so more
    # lags tie with the true one than the candidate cap admits, and the
    # scan's own argmax lies far from the smallest of them
    tone = gen_chirp(ChirpSpec(64e3, 64e3, 0.086, 192e3))
    seg = Waveform(tone.samples[16415:16511], tone.sample_rate)
    corr = _sliding_pearson(tone.samples, _window_stats(tone.samples, 96),
                            *_centred(seg.samples))
    assert (corr >= corr.max() - 1e-6).sum() > 4096
    exact = _exact_pearson(tone.samples, seg.samples)
    lag, peak = xcorr_offset(tone, seg)
    assert round(lag * tone.sample_rate) == int(np.argmax(exact))
    assert peak == exact.max()


# 9600 * 6000 products take the FFT branch, 9600 * 2000 np.correlate
@pytest.mark.parametrize("m, fft", [(6000, True), (2000, False)],
                         ids=["fft", "correlate"])
def test_sliding_pearson_matches_exact_windows(m, fft):
    rng = np.random.default_rng(11)
    x = gen_chirp(DEFAULT_CHIRP).samples + 0.1 * rng.normal(size=9600)
    k = 1234
    y = x[k:k + m] + 0.1 * rng.normal(size=m)
    assert (x.size * m > 5e7) == fft
    corr = _sliding_pearson(x, _window_stats(x, m), *_centred(y))
    exact = _exact_pearson(x, y)
    assert int(np.argmax(corr)) == int(np.argmax(exact)) == k
    assert np.allclose(corr, exact, rtol=0.0, atol=1e-9)


def test_pearson_zero_energies():
    # two zero energies score 1.0 and one zero energy 0.0, whatever the
    # covariance
    assert _pearson(0.0, 0.0, 0.0) == 1.0
    assert _pearson(0.0, 0.0, 2.5) == 0.0
    assert _pearson(0.0, 2.5, 0.0) == 0.0
    assert _pearson(-3, 0.0, 4.0) == 0.0


@pytest.mark.parametrize("c", [1e-300, 3e-301, 1e300, 7e299])
def test_pearson_perfect_match_is_exactly_one_at_extreme_energies(c):
    # num * num == a * b, where the plain root of a * b underflows or
    # overflows
    assert math.sqrt(c * c) in (0.0, math.inf)
    for a, b in ((c, c), (4 * c, c / 4), (c / 16, 16 * c)):
        assert _pearson(c, a, b) == 1.0
        assert _pearson(-c, a, b) == -1.0


def test_pearson_keeps_the_plain_root_on_integer_sums():
    # a one-bit score comes from the integer sums of m +/-1 samples, whose
    # nonzero energies lie in [4, m**2]: there the scaled root is the plain
    # one, bit for bit, so no one-bit score can move
    rng = np.random.default_rng(27)
    ms = np.exp(rng.uniform(math.log(2), math.log(REFERENCE_SAMPLES_MAX),
                            3000)).astype(np.int64)
    for m in [2, 3, REFERENCE_SAMPLES_MAX, *ms.tolist()]:
        # one to m - 1 flipped samples keep each energy nonzero
        for fx, fy, fxy in [(1, m - 1, 1),
                            *rng.integers(1, m, size=(3, 3)).tolist()]:
            sx, sy, sxy = m - 2 * fx, m - 2 * fy, m - 2 * fxy
            num = m * sxy - sx * sy
            a, b = float(m * m - sx * sx), float(m * m - sy * sy)
            plain = min(1.0, max(-1.0, num / math.sqrt(a * b)))
            assert _pearson(num, a, b).hex() == plain.hex()
            # a reflection equal to its replica
            assert _pearson(m * m - sx * sx, a, a) == 1.0


def test_xcorr_peak_stays_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.normal(size=300)
        y = rng.normal(size=40)
        _, peak = xcorr_offset(Waveform(x, 1.0), Waveform(y, 1.0))
        assert -1.0 <= peak <= 1.0


def test_xcorr_rejects_segment_longer_than_reference():
    short = Waveform(np.ones(4), 1e3)
    long = Waveform(np.arange(10.0), 1e3)
    with pytest.raises(ParameterError):
        xcorr_offset(short, long)


def test_xcorr_rejects_an_empty_segment():
    with pytest.raises(ParameterError, match="segment is empty"):
        xcorr_offset(Waveform(np.arange(10.0), 1e3), Waveform([], 1e3))


def test_xcorr_constant_segment_scores_zero_in_a_varying_reference():
    # a zero-variance segment against varying windows scores 0.0 at every
    # lag, so the tie goes to lag 0
    assert xcorr_offset(Waveform(np.arange(10.0), 1e3),
                        Waveform(np.ones(4), 1e3)) == (0.0, 0.0)


@pytest.mark.parametrize("value, n, start", [
    (0.7, 134, 44), (-3.0, 134, 44), (0.1, 134, 44), (1.3, 134, 44),
    (0.1, 6000, 5000),
], ids=["0.7", "-3.0", "0.1", "1.3", "0.1-past-the-candidate-cap"])
def test_xcorr_finds_a_constant_segment_on_its_plateau(value, n, start):
    # the rounded mean of 0.7 or 1.3 leaves a ~2e-16 residue on a centred
    # constant; the segment must still centre to zero energy, so that it
    # meets its zero-variance plateau at 1.0.  The plateau's rounded window
    # energy need not be 0 either, and at 6,000 samples a plateau the scan
    # misses ties with every lag, past the 4,096 that are rescored
    for seed in range(40):
        x = np.random.default_rng(seed).standard_normal(n)
        x[start:start + 11] = value
        lag, peak = xcorr_offset(Waveform(x, 1.0),
                                 Waveform(np.full(11, value), 1.0))
        assert (lag, peak) == (float(start), 1.0), f"seed {seed}"


def test_xcorr_rejects_mismatched_rates():
    with pytest.raises(ParameterError):
        xcorr_offset(Waveform(np.arange(10.0), 1e3),
                     Waveform(np.arange(4.0), 2e3))
