"""Acoustic propagation and receive-window extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirploc import (
    AcousticChannel,
    ChirpSpec,
    ParameterError,
    ReceiveWindow,
    Waveform,
    gen_chirp,
    propagate_acoustic,
    sample_window,
)

CHIRP = gen_chirp(ChirpSpec(20e3, 40e3, 0.050, 192e3))


def test_zero_distance_is_identity():
    rx = propagate_acoustic(CHIRP, AcousticChannel(distance=0.0))
    assert rx.t_origin == CHIRP.t_origin
    np.testing.assert_array_equal(rx.samples, CHIRP.samples)


def test_delay_carried_in_time_origin():
    # 3.43 m at 343 m/s is exactly 10 ms, no sample shifting involved
    rx = propagate_acoustic(CHIRP, AcousticChannel(distance=3.43))
    assert rx.t_origin == CHIRP.t_origin + 0.01
    assert len(rx) == len(CHIRP)


def test_spreading_loss_beyond_one_metre():
    rx = propagate_acoustic(CHIRP, AcousticChannel(distance=3.43))
    np.testing.assert_allclose(rx.samples, CHIRP.samples / 3.43, rtol=1e-12)


def test_no_attenuation_inside_reference_distance():
    for d in (0.0, 0.25, 1.0):
        rx = propagate_acoustic(CHIRP, AcousticChannel(distance=d))
        np.testing.assert_array_equal(rx.samples, CHIRP.samples)


def test_attenuation_exponent():
    ch = AcousticChannel(distance=2.0, attenuation_exponent=2.0)
    rx = propagate_acoustic(CHIRP, ch)
    np.testing.assert_allclose(rx.samples, CHIRP.samples / 4.0, rtol=1e-12)


def test_multipath_adds_shifted_scaled_copy():
    fs = CHIRP.sample_rate
    delay, gain = 25 / fs, 0.3
    ch = AcousticChannel(distance=2.0, multipath=((delay, gain),))
    rx = propagate_acoustic(CHIRP, ch)
    direct = CHIRP.samples / 2.0
    expected = np.zeros(len(CHIRP) + 25)
    expected[:len(CHIRP)] += direct
    expected[25:] += gain * direct
    assert len(rx) == len(expected)
    np.testing.assert_allclose(rx.samples, expected, rtol=1e-12, atol=1e-15)


def test_multipath_fractional_delay_rounds_to_nearest():
    fs = CHIRP.sample_rate
    ch = AcousticChannel(distance=0.0, multipath=((10.4 / fs, 1.0),))
    rx = propagate_acoustic(CHIRP, ch)
    expected = np.zeros(len(CHIRP) + 10)
    expected[:len(CHIRP)] += CHIRP.samples
    expected[10:] += CHIRP.samples
    np.testing.assert_allclose(rx.samples, expected, rtol=1e-12)


def test_multipath_fractional_delay_interpolated():
    fs = 8.0
    tx = Waveform(np.array([0.0, 1.0, 0.0, 0.0]), fs)
    ch = AcousticChannel(distance=0.0, multipath=((1.5 / fs, 1.0),),
                         interpolate_delays=True)
    rx = propagate_acoustic(tx, ch)
    # the echo of the unit impulse splits evenly across samples 2 and 3
    np.testing.assert_allclose(
        rx.samples, np.array([0.0, 1.0, 0.5, 0.5, 0.0, 0.0]), atol=1e-12)


def test_noise_is_seed_reproducible():
    ch_a = AcousticChannel(distance=1.0, noise_std=0.2, rng_seed=11)
    ch_b = AcousticChannel(distance=1.0, noise_std=0.2, rng_seed=11)
    ch_c = AcousticChannel(distance=1.0, noise_std=0.2, rng_seed=12)
    rx_a = propagate_acoustic(CHIRP, ch_a)
    rx_b = propagate_acoustic(CHIRP, ch_b)
    rx_c = propagate_acoustic(CHIRP, ch_c)
    np.testing.assert_array_equal(rx_a.samples, rx_b.samples)
    assert not np.array_equal(rx_a.samples, rx_c.samples)


def test_noise_added_after_attenuation():
    quiet = Waveform(np.zeros(4096), 192e3)
    ch = AcousticChannel(distance=100.0, noise_std=0.5, rng_seed=3)
    rx = propagate_acoustic(quiet, ch)
    assert np.std(rx.samples) == pytest.approx(0.5, rel=0.1)


@given(distance=st.floats(0.0, 20.0), c=st.floats(300.0, 350.0))
@settings(max_examples=60)
def test_delay_equals_distance_over_speed(distance, c):
    ch = AcousticChannel(distance=distance, speed_of_sound=c)
    assert ch.delay == distance / c


@pytest.mark.parametrize("kwargs", [
    dict(distance=-1.0),
    dict(distance=1.0, speed_of_sound=0.0),
    dict(distance=1.0, noise_std=-0.1),
    dict(distance=1.0, multipath=((-1e-3, 0.5),)),
    dict(distance=1.0, attenuation_exponent=-0.5),
    # a truthy string or number is not a flag
    dict(distance=1.0, interpolate_delays="no"),
    dict(distance=1.0, interpolate_delays=1),
    # numpy's generators take no negative seed
    dict(distance=1.0, rng_seed=-1),
    # a NaN noise ran noiseless, and a NaN or infinite distance failed only
    # at the capture, as a window error
    dict(distance=1.0, noise_std=math.nan),
    dict(distance=1.0, noise_std=math.inf),
    dict(distance=math.nan),
    dict(distance=math.inf),
])
def test_channel_rejects_bad_parameters(kwargs):
    with pytest.raises(ParameterError):
        AcousticChannel(**kwargs)


# ------------------------------------------------------------ sample_window

def test_window_mid_waveform_is_plain_slice():
    win = ReceiveWindow(start_time=0.020, duration=0.001, sample_rate=192e3)
    got = sample_window(CHIRP, win)
    start = round(0.020 * 192e3)
    np.testing.assert_array_equal(got.samples,
                                  CHIRP.samples[start:start + 192])
    assert got.t_origin == 0.020
    assert len(got) == 192


def test_window_sample_count_rounds():
    win = ReceiveWindow(0.0, 0.0010000001, 192e3)
    assert win.n_samples == 192


def test_window_before_support_is_zero_padded():
    delayed = Waveform(CHIRP.samples, CHIRP.sample_rate, t_origin=0.010)
    win = ReceiveWindow(start_time=0.008, duration=0.004, sample_rate=192e3)
    got = sample_window(delayed, win)
    n_lead = round(0.002 * 192e3)
    assert np.all(got.samples[:n_lead] == 0.0)
    np.testing.assert_array_equal(got.samples[n_lead:],
                                  CHIRP.samples[:len(got) - n_lead])


def test_window_past_end_is_zero_padded():
    win = ReceiveWindow(start_time=0.0495, duration=0.002, sample_rate=192e3)
    got = sample_window(CHIRP, win)
    start = round(0.0495 * 192e3)
    n_real = len(CHIRP) - start
    np.testing.assert_array_equal(got.samples[:n_real], CHIRP.samples[start:])
    assert np.all(got.samples[n_real:] == 0.0)


def test_window_fully_outside_support_is_silence():
    win = ReceiveWindow(start_time=1.0, duration=0.001, sample_rate=192e3)
    got = sample_window(CHIRP, win)
    assert np.all(got.samples == 0.0)
    assert len(got) == 192


def test_window_interpolated_extraction():
    fs = 10.0
    ramp = Waveform(np.arange(8.0), fs, t_origin=0.0)
    win = ReceiveWindow(start_time=0.25, duration=0.4, sample_rate=fs)
    got = sample_window(ramp, win, interpolate=True)
    np.testing.assert_allclose(got.samples, [2.5, 3.5, 4.5, 5.5], atol=1e-12)


@pytest.mark.parametrize("kwargs, match", [
    (dict(duration=0.0), "duration must be positive"),
    (dict(duration=-1e-3), "duration must be positive"),
    (dict(sample_rate=0.0), "sample_rate must be positive"),
], ids=["zero-duration", "negative-duration", "zero-rate"])
def test_window_rejects_bad_parameters(kwargs, match):
    with pytest.raises(ParameterError, match=match):
        ReceiveWindow(**dict(dict(start_time=0.0, duration=0.001,
                                  sample_rate=192e3), **kwargs))


@pytest.mark.parametrize("duration, sample_rate", [
    (1e-7, 192e3), (4e-8, 1e7), (1e305, 1e7), (math.inf, 192e3)],
    ids=["audio-empty", "rf-empty", "overflow", "infinite"])
def test_window_without_a_finite_sample_count_is_rejected(duration,
                                                          sample_rate):
    with pytest.raises(ParameterError, match=f"at {sample_rate} Hz"):
        ReceiveWindow(0.020, duration, sample_rate)


@pytest.mark.parametrize("flag, expected", [
    (1, [2.5, 3.5, 4.5, 5.5]), (np.True_, [2.5, 3.5, 4.5, 5.5]),
    (0, [2.0, 3.0, 4.0, 5.0]), (None, [2.0, 3.0, 4.0, 5.0])])
def test_window_takes_any_truth_value_as_its_flag(flag, expected):
    # unlike AcousticChannel's, sample_window's flag is any truth value
    ramp = Waveform(np.arange(8.0), 10.0, t_origin=0.0)
    win = ReceiveWindow(start_time=0.25, duration=0.4, sample_rate=10.0)
    got = sample_window(ramp, win, interpolate=flag)
    np.testing.assert_array_equal(got.samples, expected)


def test_window_rejects_rate_mismatch():
    win = ReceiveWindow(0.0, 0.001, 96e3)
    with pytest.raises(ParameterError):
        sample_window(CHIRP, win)


@given(d1=st.floats(0.5, 5.0), extra=st.floats(0.1, 2.0))
@settings(max_examples=30, deadline=None)
def test_two_receivers_window_offset_tracks_separation(d1, extra):
    """Windows cut at the same wall-clock instant from two propagation
    distances differ by the inter-receiver propagation lag."""
    d2 = d1 + extra
    win = ReceiveWindow(start_time=0.030, duration=0.001, sample_rate=192e3)
    near = sample_window(propagate_acoustic(CHIRP, AcousticChannel(d1)), win)
    far = sample_window(propagate_acoustic(CHIRP, AcousticChannel(d2)), win)
    from chirploc import xcorr_offset
    lag_near, _ = xcorr_offset(CHIRP, near)
    lag_far, _ = xcorr_offset(CHIRP, far)
    measured = (lag_near - lag_far) + 0.0
    expected = (d2 - d1) / 343.0
    assert abs(measured - expected) <= 1.0 / 192e3
