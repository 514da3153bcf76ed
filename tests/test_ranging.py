"""End-to-end ranging pipeline and least-squares position solving."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import chirploc
import chirploc.channel as channel_module
import chirploc.ranging as ranging
import chirploc.signals as signals
from chirploc import (
    AcousticChannel,
    BeaconSet,
    BitStream,
    ChirpSpec,
    ConvergenceError,
    FskConfig,
    GeometryError,
    ParameterError,
    RangeWindowError,
    RangingTimeline,
    ReceiveWindow,
    fsk_modulate,
    gen_chirp,
    one_bit_quantize,
    propagate_acoustic,
    sample_window,
    simulate_ranging,
    trilaterate,
    xcorr_offset,
)
from chirploc.cli import cmd_range
from chirploc.config import load_config
from chirploc.signals import _carrier_phase, pearson_window

C = 343.0
FS = 192e3
CHIRP = ChirpSpec(20e3, 40e3, 0.050, FS)
FSK = FskConfig()
TIMELINE = RangingTimeline(chirp_start=0.0, wakeup_time=0.020,
                           capture_duration=0.001)


def grid_search_position(beacons: np.ndarray, dists: np.ndarray,
                         span: float = 4.0) -> np.ndarray:
    """Multi-stage exhaustive search for the least-squares position.

    Starts from a coarse grid over a box around the beacon centroid, then
    zooms. Final resolution 1 mm, independent of the Gauss-Newton path.
    """
    dims = beacons.shape[1]
    center = beacons.mean(axis=0)
    half, step = span / 2, 0.05
    for stage in range(3):
        axes = [np.arange(c - half, c + half + step / 2, step) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        d = np.linalg.norm(pts[:, None, :] - beacons[None, :, :], axis=2)
        cost = ((d - dists[None, :]) ** 2).sum(axis=1)
        center = pts[np.argmin(cost)]
        half, step = step * 2, step / 10 if stage == 0 else step / 5
    return center


def _run(distance, timeline=TIMELINE, mode="ideal-audio", **channel_kw):
    ch = AcousticChannel(distance=distance, **channel_kw)
    return simulate_ranging(CHIRP, ch, timeline, mode=mode, fsk=FSK)


# --------------------------------------------------------------- timelines

def test_timeline_window_bounds():
    assert TIMELINE.wakeup_delay == 0.020
    assert TIMELINE.max_distance(C) == pytest.approx(6.86)
    assert TIMELINE.min_distance(C, chirp_duration=0.050) == 0.0


def test_timeline_min_distance_nonzero_for_short_chirp():
    tl = RangingTimeline(chirp_start=0.0, wakeup_time=0.020,
                         capture_duration=0.001)
    # 15 ms chirp has fully passed a close tag before wake-up
    assert tl.min_distance(C, chirp_duration=0.015) == pytest.approx(
        C * (0.020 + 0.001 - 0.015))


def test_timeline_rejects_wakeup_before_chirp():
    with pytest.raises(ParameterError):
        RangingTimeline(chirp_start=0.010, wakeup_time=0.005,
                        capture_duration=0.001)


# ------------------------------------------------------ lag to distance

# A tag at zero distance wakes 0.6 samples past a sample instant, so its
# nearest-sample capture starts 0.4 samples after the wake-up delay: the raw
# distance is negative and clamps to 0.
@pytest.mark.parametrize("mode, distance, timeline, clamps", [
    ("ideal-audio", 1.7, TIMELINE, False),
    ("ideal-audio", 4.9, TIMELINE, False),
    ("ideal-audio", 0.0, RangingTimeline(
        chirp_start=0.0, wakeup_time=0.020 + 0.6 / FS), True),
    ("one-bit-backscatter", 1.7, TIMELINE, False),
    ("one-bit-backscatter", 4.9, TIMELINE, False),
    ("one-bit-backscatter", 0.0, RangingTimeline(
        chirp_start=0.0, wakeup_time=0.020 + 0.6 / FSK.sample_rate), True),
], ids=["ideal-1.7m", "ideal-4.9m", "ideal-clamps",
        "one-bit-1.7m", "one-bit-4.9m", "one-bit-clamps"])
def test_lag_converts_to_distance_and_clamps_at_zero(mode, distance,
                                                     timeline, clamps):
    r = _run(distance, timeline=timeline, mode=mode)
    raw = C * (timeline.wakeup_delay - r.lag)
    assert r.distance == max(raw, 0.0)
    assert r.tof == r.distance / C
    assert r.clamped == (raw < 0)
    assert r.clamped == clamps


def test_estimate_distance_full_delay_is_zero_range():
    # A lag equal to the whole wake-up delay is a tag at the beacon: the
    # conversion reads exactly 0 m without going through the clamp.
    for mode in ("ideal-audio", "one-bit-backscatter"):
        r = _run(0.0, mode=mode)
        assert r.lag == TIMELINE.wakeup_delay, mode
        assert r.distance == 0.0, mode
        assert r.tof == 0.0, mode
        assert not r.clamped, mode


# ---------------------------------------------------------- simulate_ranging

@pytest.mark.parametrize("mode", ["ideal-audio", "one-bit-backscatter"])
def test_noiseless_error_within_one_sample_distance(mode):
    for d in np.arange(0.5, 6.01, 0.5):
        r = _run(float(d), mode=mode)
        assert abs(r.distance - d) <= C / FS, f"d={d} mode={mode}"
        assert r.peak > 0.8


def test_zero_distance_reads_zero():
    r = _run(0.0)
    assert r.distance == 0.0
    assert r.lag == TIMELINE.wakeup_delay


def test_mode_agreement_noiseless():
    for d in (1.0, 3.3, 5.7):
        ideal = _run(d, mode="ideal-audio")
        onebit = _run(d, mode="one-bit-backscatter")
        assert abs(ideal.distance - onebit.distance) <= 2 * C / FS


def test_out_of_range_error_names_supported_interval():
    far = TIMELINE.max_distance(C) + 0.5
    with pytest.raises(RangeWindowError, match="6.86"):
        _run(far)


def test_close_range_error_for_short_chirp():
    tl = RangingTimeline(chirp_start=0.0, wakeup_time=0.020,
                         capture_duration=0.001)
    spec = ChirpSpec(20e3, 40e3, 0.015, FS)
    ch = AcousticChannel(distance=0.5)
    with pytest.raises(RangeWindowError):
        simulate_ranging(spec, ch, tl)


@pytest.mark.parametrize("mode, rate", [
    ("ideal-audio", FS), ("one-bit-backscatter", FSK.sample_rate)])
def test_capture_without_a_sample_is_rejected(mode, rate):
    # 40 ns holds 0.4 RF samples and 0.008 audio samples
    tl = RangingTimeline(chirp_start=0.0, wakeup_time=0.020,
                         capture_duration=4e-8)
    with pytest.raises(ParameterError, match=f"{rate} Hz"):
        simulate_ranging(CHIRP, AcousticChannel(distance=2.0), tl, mode=mode,
                         fsk=FSK)


@pytest.mark.parametrize("capture", [0.0, -1e-3])
def test_timeline_rejects_a_non_positive_capture(capture):
    with pytest.raises(ParameterError,
                       match="capture_duration must be positive"):
        RangingTimeline(chirp_start=0.0, wakeup_time=0.020,
                        capture_duration=capture)


def test_one_bit_mode_requires_an_fsk_config():
    with pytest.raises(ParameterError, match="requires an FskConfig"):
        simulate_ranging(CHIRP, AcousticChannel(distance=2.0), TIMELINE,
                         mode="one-bit-backscatter")


def test_unknown_mode_rejected():
    with pytest.raises(ParameterError):
        _run(2.0, mode="dsss")


def test_longer_capture_does_not_hurt():
    errors = []
    for tau in (0.0005, 0.001, 0.002, 0.004):
        tl = RangingTimeline(chirp_start=0.0, wakeup_time=0.020,
                             capture_duration=tau)
        ch = AcousticChannel(distance=4.2)
        r = simulate_ranging(CHIRP, ch, tl)
        errors.append(abs(r.distance - 4.2))
    assert all(e <= C / FS for e in errors)
    assert errors[-1] <= errors[0] + 1e-12


def test_attenuation_does_not_shift_estimate():
    mild = _run(5.0, attenuation_exponent=0.5)
    harsh = _run(5.0, attenuation_exponent=2.0)
    assert mild.lag == harsh.lag


def test_multipath_decorrelated_echo_keeps_lock():
    # a 3 ms echo is ~1.2 kHz detuned from the direct sweep, so it
    # decorrelates over the 1 ms window and barely moves the peak
    r = _run(3.0, multipath=((3e-3, 0.5),))
    assert abs(r.distance - 3.0) <= C / FS


def test_multipath_overlapping_echo_bias_is_bounded():
    # an echo within the sweep decorrelation time pulls the peak, but
    # never past the excess path length it represents
    echo_delay = 2e-3
    r = _run(3.0, multipath=((echo_delay, 0.4),))
    assert abs(r.distance - 3.0) <= C * echo_delay
    assert r.peak > 0.9


def test_noisy_ranging_reproducible():
    a = _run(2.5, noise_std=0.05, rng_seed=9)
    b = _run(2.5, noise_std=0.05, rng_seed=9)
    assert a.distance == b.distance and a.peak == b.peak


# -------------------------------------------------------------- trilaterate

SQUARE_2D = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 5.0], [0.0, 5.0]])
BEACONS_3D = np.array([
    [0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0],
    [0.0, 0.0, 3.0], [4.0, 4.0, 3.0],
])


def test_trilaterate_exact_2d():
    truth = np.array([1.7, 3.2])
    dists = np.linalg.norm(SQUARE_2D - truth, axis=1)
    fix = trilaterate(SQUARE_2D, dists)
    np.testing.assert_allclose(fix.coordinates, truth, atol=1e-6)
    assert fix.residual_rms < 1e-6
    assert fix.iterations <= 50


def test_trilaterate_exact_3d():
    truth = np.array([1.2, 2.1, 1.4])
    dists = np.linalg.norm(BEACONS_3D - truth, axis=1)
    fix = trilaterate(BEACONS_3D, dists)
    np.testing.assert_allclose(fix.coordinates, truth, atol=1e-6)


def test_trilaterate_accepts_beacon_set():
    bs = BeaconSet(SQUARE_2D)
    truth = np.array([2.0, 2.0])
    dists = np.linalg.norm(SQUARE_2D - truth, axis=1)
    fix = trilaterate(bs, dists)
    np.testing.assert_allclose(fix.coordinates, truth, atol=1e-6)


def test_trilaterate_idempotent_from_own_fix():
    truth = np.array([3.9, 0.8])
    dists = np.linalg.norm(SQUARE_2D - truth, axis=1) + 1e-3
    first = trilaterate(SQUARE_2D, dists)
    second = trilaterate(SQUARE_2D, dists, initial_guess=first.coordinates)
    np.testing.assert_allclose(second.coordinates, first.coordinates,
                               atol=1e-7)


def test_trilaterate_perturbed_monte_carlo():
    rng = np.random.default_rng(17)
    for _ in range(100):
        truth = rng.uniform(0.5, 4.5, size=2)
        dists = np.linalg.norm(SQUARE_2D - truth, axis=1)
        noisy = dists + rng.uniform(-0.005, 0.005, size=4)
        fix = trilaterate(SQUARE_2D, noisy)
        assert np.linalg.norm(fix.coordinates - truth) < 0.02
        assert fix.residual_rms <= 0.01


def test_trilaterate_matches_grid_search_oracle():
    rng = np.random.default_rng(31)
    for _ in range(6):
        truth = rng.uniform(1.0, 4.0, size=2)
        dists = np.linalg.norm(SQUARE_2D - truth, axis=1)
        fix = trilaterate(SQUARE_2D, dists)
        ref = grid_search_position(SQUARE_2D, dists, span=5.0)
        assert np.linalg.norm(fix.coordinates - ref) < 2e-3


def test_trilaterate_rejects_count_mismatch():
    with pytest.raises(ParameterError):
        trilaterate(SQUARE_2D, np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 3])
def test_trilaterate_rejects_non_finite_distances(capfd, bad, index):
    d = np.array([1.0, 2.0, 3.0, 4.0])
    d[index] = bad
    with pytest.raises(ParameterError, match="distances must be finite"):
        trilaterate(SQUARE_2D, d)
    # rejected before the solver: LAPACK would print DLASCL errors first
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("guess", [[np.nan, 1.0], [2.0, np.inf]])
def test_trilaterate_rejects_a_non_finite_initial_guess(capfd, guess):
    with pytest.raises(ParameterError, match="finite coordinates"):
        trilaterate(SQUARE_2D, np.array([3.0, 4.0, 5.0, 4.0]),
                    initial_guess=np.array(guess))
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_beacon_set_rejects_non_finite_positions(capfd, bad):
    pos = SQUARE_2D.copy()
    pos[1, 1] = bad
    with pytest.raises(ParameterError, match="positions must be finite"):
        BeaconSet(pos)
    with pytest.raises(ParameterError, match="positions must be finite"):
        trilaterate(pos, np.array([3.0, 4.0, 5.0, 4.0]))
    assert capfd.readouterr() == ("", "")


def test_trilaterate_rejects_too_few_beacons():
    with pytest.raises(ParameterError):
        trilaterate(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))


def test_trilaterate_rejects_collinear_beacons():
    line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(GeometryError):
        trilaterate(line, np.ones(4))


def test_trilaterate_rejects_coplanar_3d():
    flat = np.array([[0.0, 0.0, 1.0], [4.0, 0.0, 1.0],
                     [0.0, 4.0, 1.0], [4.0, 4.0, 1.0]])
    with pytest.raises(GeometryError):
        trilaterate(flat, np.ones(4))


def test_trilaterate_rejects_a_rank_deficient_jacobian():
    # so far off that every beacon lies in the same direction: in double
    # precision the Jacobian's rows are all equal
    with pytest.raises(GeometryError, match="Jacobian rank 1 < 2"):
        trilaterate(SQUARE_2D, np.full(4, 3.0),
                    initial_guess=np.array([1e16, 1e16]))


def test_trilaterate_convergence_error_carries_state():
    truth = np.array([2.5, 2.5])
    dists = np.linalg.norm(SQUARE_2D - truth, axis=1)
    with pytest.raises(ConvergenceError) as exc:
        trilaterate(SQUARE_2D, dists, initial_guess=np.array([40.0, -35.0]),
                    max_iterations=1)
    assert exc.value.iterations == 1
    assert exc.value.last_iterate.shape == (2,)


@pytest.mark.parametrize("count", [0, -3])
def test_trilaterate_needs_at_least_one_iteration(count):
    # no iteration left no residual, and its RMS died with a TypeError
    truth = np.array([2.5, 2.5])
    dists = np.linalg.norm(SQUARE_2D - truth, axis=1)
    with pytest.raises(ParameterError, match=f"got {count}"):
        trilaterate(SQUARE_2D, dists, max_iterations=count)


def test_beacon_set_validation():
    with pytest.raises(GeometryError):
        BeaconSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(ParameterError, match="2-D array"):
        BeaconSet(np.zeros(4))
    with pytest.raises(ParameterError, match="dimensions are 2 and 3, got 4"):
        BeaconSet(np.eye(5, 4))


# ---------------------------------------------------- pipeline to position

def test_full_pipeline_position_fix():
    """Range from four beacons with the waveform simulator, then solve."""
    truth = np.array([2.2, 3.1])
    dists = np.linalg.norm(SQUARE_2D - truth, axis=1)
    est = []
    for d in dists:
        r = _run(float(d))
        est.append(r.distance)
    fix = trilaterate(SQUARE_2D, np.array(est))
    assert np.linalg.norm(fix.coordinates - truth) < 0.01


# ------------------------------------------- backscatter locator vs oracles

def _memo_key(chirp, timeline, rate):
    """The key ``simulate_ranging`` gives a memo for a capture under
    ``timeline`` at ``rate``: the chirp, the wake-up delay and the window."""
    return (chirp, timeline.wakeup_delay,
            ReceiveWindow(timeline.wakeup_time, timeline.capture_duration, rate))


def _captured_full_chirp(chirp, channel, timeline, rate):
    """The capture window cut from the whole chirp, never shortened."""
    spec = dataclasses.replace(chirp, sample_rate=rate)
    tx = dataclasses.replace(gen_chirp(spec), t_origin=timeline.chirp_start)
    window = ReceiveWindow(timeline.wakeup_time, timeline.capture_duration, rate)
    return sample_window(propagate_acoustic(tx, channel), window,
                         interpolate=channel.interpolate_delays)


ECHO = ((5e-4, 0.5),)
# the echo lands 20,000 RF samples late, twice the capture's length
LATE_ECHO = ((2e-3, 0.5),)
# wakes 0.3 RF samples off the sample grid, so an interpolated window at zero
# distance reads one sample past round(wakeup_delay * rate) + its length
OFF_GRID_TIMELINE = RangingTimeline(chirp_start=0.0, wakeup_time=0.02000003,
                                    capture_duration=0.001)


def _record_capture(monkeypatch):
    """Record each window ``simulate_ranging`` captures, and the span of
    received samples computed for it."""
    captured, spans = [], []

    def recording_capture(*args, **kwargs):
        captured.append(channel_module._capture(*args, **kwargs))
        return captured[-1]

    def recording_received(tx, ch, fs, lo, hi):
        spans.append(hi - lo)
        return received(tx, ch, fs, lo, hi)

    received = channel_module._received
    monkeypatch.setattr(ranging, "_capture", recording_capture)
    monkeypatch.setattr(channel_module, "_received", recording_received)
    return captured, spans


@pytest.mark.parametrize("timeline, distance", [
    (TIMELINE, 0.0), (TIMELINE, TIMELINE.max_distance(C)),
    (OFF_GRID_TIMELINE, 0.0),
    (TIMELINE, 1.7), (TIMELINE, 4.9),
    (OFF_GRID_TIMELINE, 1.7), (OFF_GRID_TIMELINE, 4.9),
    # a flight time of a whole number of RF samples
    (TIMELINE, C * 49563 / FSK.sample_rate),
], ids=["zero", "max", "zero-off-grid", "mid", "far", "mid-off-grid",
        "far-off-grid", "mid-on-grid"])
@pytest.mark.parametrize("channel_kw", [
    {},
    {"noise_std": 0.05, "rng_seed": 3},
    {"multipath": ECHO},
    {"multipath": ECHO, "interpolate_delays": True},
    {"noise_std": 0.05, "rng_seed": 4, "multipath": ECHO,
     "interpolate_delays": True},
    {"multipath": LATE_ECHO},
], ids=["plain", "noise", "echo", "echo-interpolated",
        "noise-echo-interpolated", "late-echo"])
def test_shortened_reference_captures_the_same_window(monkeypatch, timeline,
                                                      distance, channel_kw):
    captured, spans = _record_capture(monkeypatch)
    ch = AcousticChannel(distance=distance, **channel_kw)
    simulate_ranging(CHIRP, ch, timeline, mode="one-bit-backscatter", fsk=FSK)
    [span] = spans
    full = _captured_full_chirp(CHIRP, ch, timeline, FSK.sample_rate)
    assert captured[0].t_origin == full.t_origin
    assert np.array_equal(captured[0].samples, full.samples)
    # only the samples the window reads are propagated and have noise added
    assert span <= len(full) + 2


# A short chirp, wake-up and capture keep the exhaustive oracle cheap.
SHORT_CHIRP = ChirpSpec(20e3, 40e3, 0.005, FS)
SHORT_TIMELINE = RangingTimeline(chirp_start=0.0, wakeup_time=0.0005,
                                 capture_duration=0.0001)


# the lags the locator searches end one sample past the zero-distance lag
SHORT_LAGS = int(round(SHORT_TIMELINE.wakeup_delay * FSK.sample_rate)) + 2


def _modulated_replicas(m):
    """The exact m-sample reflection replica at every lag the locator
    searches, each through ``fsk_modulate`` on its own, with no shared
    phase."""
    rate = FSK.sample_rate
    spec = dataclasses.replace(SHORT_CHIRP, sample_rate=rate)
    ref_bits = one_bit_quantize(gen_chirp(spec)).bits
    return np.array([
        fsk_modulate(BitStream(ref_bits[k:k + m], rate), FSK).samples
        for k in range(SHORT_LAGS)])


@pytest.fixture(scope="module")
def short_modulated():
    m = int(round(SHORT_TIMELINE.capture_duration * FSK.sample_rate))
    return _modulated_replicas(m)


@pytest.fixture(scope="module")
def short_signs(short_modulated):
    """The modulator's +/-1 replicas as integers."""
    signs = short_modulated.astype(np.int64)
    assert np.array_equal(signs, short_modulated)
    return signs


def _signed_square(num, ab):
    """``num / sqrt(ab)`` squared with its sign, as an exact ``Fraction``:
    it orders scores as they are, and comparing two of them compares
    cross-multiplied squares."""
    return Fraction(num * abs(num), ab)


@pytest.mark.parametrize("distance, interpolate", [
    *((float(d), False)
      for d in np.linspace(0.0, SHORT_TIMELINE.max_distance(C), 9)),
    (0.0417, True), (0.1033, True), (0.1495, True),
])
def test_backscatter_locator_matches_exhaustive_replica_oracle(
        short_signs, distance, interpolate):
    rate = FSK.sample_rate
    ch = AcousticChannel(distance=distance, interpolate_delays=interpolate)
    r = simulate_ranging(SHORT_CHIRP, ch, SHORT_TIMELINE,
                         mode="one-bit-backscatter", fsk=FSK)

    window = _captured_full_chirp(SHORT_CHIRP, ch, SHORT_TIMELINE, rate)
    rf = fsk_modulate(one_bit_quantize(window), FSK).samples.astype(np.int64)
    # every lag's Pearson score, as the integers (num, ab) of num /
    # sqrt(ab), from the exact sums of the +/-1 waves (an integer matmul
    # takes no BLAS), ranked exactly, with exact ties going to the smallest
    # lag
    m, sy = rf.size, int(rf.sum())
    b = m * m - sy * sy
    scores = []
    for sx, sxy in zip(short_signs.sum(axis=1).tolist(),
                       (short_signs @ rf).tolist()):
        a = m * m - sx * sx
        scores.append((m * sxy - sx * sy, a * b) if a * b
                      else (int(a == b), 1))
    best = max(range(len(scores)), key=lambda k: _signed_square(*scores[k]))
    lag = int(round(r.lag * rate))
    assert lag == best
    num, ab = scores[best]
    assert r.peak == pytest.approx(num / math.sqrt(ab), abs=1e-12)


def _pearson_at_most(num, ab, q):
    """Whether ``num / sqrt(ab)`` is at most ``q``, exactly, for integers
    ``num`` and ``ab > 0`` and a ``Fraction`` ``q``."""
    if num <= 0 <= q:
        return True
    if num > 0:
        return q > 0 and num * num <= q * q * ab
    return q < 0 and num * num >= q * q * ab


@pytest.mark.parametrize("m", [1, 2, 1000])
def test_replicas_match_the_modulator_at_every_lag(short_modulated, m):
    # each exact score is the Pearson correlation of the modulator's own
    # replica with the reflection, to within 2 ulp of its exact value
    rate = FSK.sample_rate
    timeline = dataclasses.replace(SHORT_TIMELINE, capture_duration=m / rate)
    matched = signals._backscatter_reference(
        *_memo_key(SHORT_CHIRP, timeline, rate), FSK, 0.0)
    replicas = (short_modulated if short_modulated.shape[1] == m
                else _modulated_replicas(m))
    assert replicas.shape == (matched.lags, m) == (SHORT_LAGS, m)

    # a noisy reflection, so that no score is a degenerate 0 or 1
    window = _captured_full_chirp(
        SHORT_CHIRP, AcousticChannel(distance=0.05, noise_std=0.3,
                                     rng_seed=3), timeline, rate)
    rf = fsk_modulate(one_bit_quantize(window), FSK).samples
    got = signals._exact_scores(matched.halves, np.arange(matched.lags),
                                rf < 0)

    # sums of +/-1 samples are exact integers in any order
    sy = int(rf.sum())
    b = m * m - sy * sy
    for score, sx, sxy in zip(got.tolist(), replicas.sum(axis=1).tolist(),
                              (replicas @ rf).tolist()):
        a = m * m - int(sx) * int(sx)
        if a * b == 0:
            assert score == (1.0 if a == b else 0.0)
            continue
        num = m * int(sxy) - int(sx) * sy
        width = 2 * Fraction(math.ulp(score))
        assert _pearson_at_most(num, a * b, Fraction(score) + width)
        assert _pearson_at_most(-num, a * b, width - Fraction(score))

    rfz, ey2 = signals._centred(rf)
    expected = np.array([pearson_window(replica, 0, rfz, ey2)
                         for replica in replicas])
    assert np.max(np.abs(got - expected)) <= 1e-14
    if m > 2:
        assert len(np.unique(got)) > 1000
    # a reflection equal to a replica scores exactly 1.0
    for k in (0, matched.lags // 2, matched.lags - 1):
        assert signals._exact_scores(matched.halves, [k],
                                     replicas[k] < 0)[0] == 1.0


def _located(monkeypatch, exchange):
    """The answer of ``exchange()`` and the memo and sign bits its one-bit
    locator was handed."""
    heard = []
    locate = ranging._locate_backscatter

    def recording(matched, rf_low, rate):
        heard.append((matched, rf_low))
        return locate(matched, rf_low, rate)

    monkeypatch.setattr(ranging, "_locate_backscatter", recording)
    result = exchange()
    (located,) = heard
    return result, located


def test_an_exact_tie_goes_to_the_smaller_lag(monkeypatch):
    # the default grid's 2.0 m exchange at noise 0.02 scores two adjacent
    # lags from equal counts; float sums once broke the tie toward 141305
    cfg = load_config(sets=["channel.noise_std=0.02"])
    r, (matched, rf_low) = _located(monkeypatch, lambda: simulate_ranging(
        cfg.chirp, cfg.channel_at(2.0, seed_offset=3), cfg.timeline,
        mode="one-bit-backscatter", fsk=cfg.fsk,
        threshold=cfg.comparator_threshold))
    tied = signals._exact_scores(matched.halves, np.array([141304, 141305]),
                                 rf_low)
    assert tied[0].hex() == tied[1].hex() == r.peak.hex()
    assert r.lag * cfg.fsk.sample_rate == 141304


def _default_exchange(cfg):
    """The one-bit exchange at 3.2 m under ``cfg``."""
    return simulate_ranging(cfg.chirp, cfg.channel_at(3.2), cfg.timeline,
                            mode="one-bit-backscatter", fsk=cfg.fsk,
                            threshold=cfg.comparator_threshold)


def _warm_peak(exchange):
    """The answer of ``exchange()`` and its ``tracemalloc`` peak in bytes,
    run once first so that the cached reference side is built."""
    exchange()
    tracemalloc.start()
    try:
        result = exchange()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_default_exchange_peaks_under_0_55_mb():
    # rescoring every shortlisted lag at once peaked at 12.2 MB, a scan
    # that allocated its products per block, over the whole propagated
    # reference, at 6.1 MB, one that kept the reflection's real FFT alive
    # beside its block buffer at 2.25 MB, the double-precision scan at
    # 2.01 MB, one that held the float reflection, its full conjugate
    # spectrum and a whole block's ranking at 1.21 MB, and one that
    # transformed both harmonics of a block at once at 0.74 MB
    cfg = load_config()
    _, peak = _warm_peak(lambda: _default_exchange(cfg))
    assert peak < 0.55e6


def test_warm_4_ms_exchange_peaks_under_2_1_mb():
    # the scan's buffers grow with the capture: 4.81 MB when the float
    # reflection, its full conjugate spectrum and a whole block's ranking
    # lived through the scan, and 2.81 MB when both harmonics of a block
    # were transformed at once
    cfg = load_config(sets=["timeline.capture_duration_s=0.004"])
    _, peak = _warm_peak(lambda: _default_exchange(cfg))
    assert peak < 2.1e6


def test_a_noisy_exchange_peaks_no_higher_than_a_noiseless_one():
    # at 1.0 m the noise draw discards some 171,000 normals before the
    # capture, through a NOISE_CHUNK buffer of 128 KB; that transient must
    # not become the exchange's peak.  Both peaks fall in the scan, where
    # tracemalloc's count of small interpreter objects varies by tens of
    # bytes from call to call, hence the 1 KiB
    peaks = []
    for noise in ("0", "0.02"):
        cfg = load_config(sets=[f"channel.noise_std={noise}"])
        peaks.append(_warm_peak(lambda: simulate_ranging(
            cfg.chirp, cfg.channel_at(1.0), cfg.timeline,
            mode="one-bit-backscatter", fsk=cfg.fsk,
            threshold=cfg.comparator_threshold))[1])
    noiseless, noisy = peaks
    assert noisy <= noiseless + 1024


def test_a_library_reference_past_its_limit_is_refused_before_allocating():
    # at 10 GHz the capture reaches 2.1e8 chirp samples: the one-bit memo
    # asked for a 1.56 GiB chirp, where load_config refuses the same capture
    fsk = FskConfig(1e6, 1.1e6, 1e10)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError,
                           match="reaches 210000001 chirp samples"):
            simulate_ranging(CHIRP, AcousticChannel(distance=3.2), TIMELINE,
                             mode="one-bit-backscatter", fsk=fsk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_noisy_exchange_memory_does_not_grow_with_the_wakeup_delay():
    # propagating and adding noise to the whole chirp head grew it by
    # 0.06 MB at a 2 ms wake-up and 0.40 MB at 4 ms
    ch = AcousticChannel(distance=0.0, noise_std=0.05, rng_seed=3)
    peaks = [_warm_peak(lambda: simulate_ranging(
        SHORT_CHIRP, ch, dataclasses.replace(SHORT_TIMELINE, wakeup_time=t),
        mode="one-bit-backscatter", fsk=FSK))[1]
        for t in (0.0005, 0.002, 0.004)]
    assert max(peaks) - min(peaks) < 1e5


@pytest.mark.parametrize("noise", ["0", "0.02"])
def test_a_far_echo_costs_no_memory_and_moves_no_bit(noise):
    # a 0.5 s echo pads the received chirp by 5e6 RF samples, which a
    # propagation of the whole support allocated (47 MB noiseless); it lands
    # long after the capture, so the answer is the no-echo one
    sets = [f"channel.noise_std={noise}"]
    plain = _default_exchange(load_config(sets=sets))
    cfg = load_config(sets=[*sets, "channel.multipath=[[0.5, 0.5]]"])
    echoed, peak = _warm_peak(lambda: _default_exchange(cfg))
    assert peak < 0.55e6
    assert (echoed.lag.hex(), echoed.peak.hex()) == (plain.lag.hex(),
                                                   plain.peak.hex())


# float.hex of one-bit (lag, peak) at GOLDEN_DISTANCES, the channel seeded as
# ``cmd_range`` seeds its rows.  Any change to the scan, the shortlist or
# exact rescoring that moves one bit of an answer shows here.
GOLDEN_DISTANCES = (0.5, 1.3, 2.2, 3.2, 4.5, 5.9)
GOLDEN = {
    "noise-0.05": (["channel.noise_std=0.05"], [
        ("0x1.2e9d36dd0bdf3p-6", "0x1.d7dc0a0f4c638p-1"),
        ("0x1.085b18548a9bdp-6", "0x1.c56d5f828ffcep-1"),
        ("0x1.c38cb22a8a174p-7", "0x1.a12d7ab8f37d2p-1"),
        ("0x1.56f9e1d8cd8c1p-7", "0x1.76c8b6305ee19p-1"),
        ("0x1.ce52deca2552ap-8", "0x1.458792cd054cbp-1"),
        ("0x1.75048edaf9b64p-9", "0x1.b6ae7d566cf42p-1"),
    ]),
    "noise-0.1": (["channel.noise_std=0.1"], [
        ("0x1.2cd47460faecap-6", "0x1.906256387d820p-1"),
        ("0x1.0ad03d9a95422p-6", "0x1.c0b788c91e1b3p-1"),
        ("0x1.c0ff3930a3360p-7", "0x1.a872bf69d3ee8p-1"),
        ("0x1.56f9e1d8cd8c1p-7", "0x1.617cbf44473fdp-1"),
        ("0x1.ba5c87c05341cp-8", "0x1.55b571afad1abp-1"),
        ("0x1.62896213f14e9p-9", "0x1.251207d2e2bffp-1"),
    ]),
    "echo-interpolated": ([
        "channel.multipath=[[0.0005, 0.5]]",
        "channel.interpolate_delays=true"], [
        ("0x1.2f3f88ac0b8c2p-6", "0x1.f03afa00e648cp-1"),
        ("0x1.08eaf5acbfe71p-6", "0x1.e7d5695e04507p-1"),
        ("0x1.bab649d388a8bp-7", "0x1.f0a3d985e5388p-1"),
        ("0x1.598c63503170cp-7", "0x1.e92a361a6ce91p-1"),
        ("0x1.d10ccd6ddc7c7p-8", "0x1.bf2e496d1c849p-1"),
        ("0x1.8de53070e113bp-9", "0x1.c2a9985cd569cp-1"),
    ]),
    "capture-4ms": ([
        "timeline.capture_duration_s=0.004", "channel.noise_std=0.05"], [
        ("0x1.2fcc7665b7eacp-6", "0x1.acf41ae01495ep-1"),
        ("0x1.086020d2079f3p-6", "0x1.6a4aa444534d9p-1"),
        ("0x1.bfab7c1a2cd1fp-7", "0x1.590ffafee097cp-1"),
        ("0x1.5c53bded35f8ep-7", "0x1.e28f5ba0f199cp-2"),
        ("0x1.b526bdd9eac28p-8", "0x1.73ddb40b1adbdp-2"),
        ("0x1.6ed4c9f15039dp-9", "0x1.51e4f7888e467p-1"),
    ]),
}
GOLDEN_CHILD = """
import json, sys
from chirploc.config import load_config
from chirploc.ranging import simulate_ranging
cfg = load_config(sets=json.loads(sys.argv[1]))
for i, d in enumerate(json.loads(sys.argv[2])):
    r = simulate_ranging(cfg.chirp, cfg.channel_at(d, seed_offset=i),
                         cfg.timeline, mode=sys.argv[3],
                         fsk=cfg.fsk, threshold=cfg.comparator_threshold)
    print(r.lag.hex(), r.peak.hex())
"""


def _golden_bits(mode, sets):
    """float.hex of (lag, peak) at GOLDEN_DISTANCES from a fresh child.

    An ideal-audio score takes its dot products from OpenBLAS, which splits
    one of more than 10,000 samples across its threads, so a capture that
    long scores with bits that follow the thread count; the child is held
    to one thread, as the benchmark holds itself.  One-bit scores are
    integer counts, which the pin does not reach.  The child inherits the
    rest of the environment, so an ``OPENBLAS_CORETYPE`` reaches it.
    """
    src = os.path.dirname(os.path.dirname(chirploc.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", GOLDEN_CHILD, json.dumps(sets),
         json.dumps(GOLDEN_DISTANCES), mode],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return [tuple(line.split()) for line in child.stdout.splitlines()]


@pytest.mark.parametrize("setting", list(GOLDEN))
def test_one_bit_exchanges_match_their_golden_bits(setting):
    sets, expected = GOLDEN[setting]
    assert _golden_bits("one-bit-backscatter", sets) == expected


# float.hex of ideal-audio (lag, peak), seeded as GOLDEN.  The 36 ms capture
# takes the locator's FFT branch; the extreme amplitudes keep every energy
# clear of underflow and overflow only through the locator's scaling.
IDEAL_GOLDEN = {
    "defaults": ([], [
        ("0x1.2fc962fc962fdp-6", "0x1.0000000000000p+0"),
        ("0x1.098ead65b7a33p-6", "0x1.0000000000000p+0"),
        ("0x1.bd44f3078263bp-7", "0x1.0000000000000p+0"),
        ("0x1.5db22d0e56042p-7", "0x1.0000000000000p+0"),
        ("0x1.c2e6bdc805762p-8", "0x1.fffffffffffffp-1"),
        ("0x1.6e978d4fdf3b6p-9", "0x1.ffffffffffffep-1"),
    ]),
    "noise-0.02": (["channel.noise_std=0.02"], [
        ("0x1.2fc962fc962fdp-6", "0x1.ffd7bf74f0d7ap-1"),
        ("0x1.098ead65b7a33p-6", "0x1.ffaa31911795ep-1"),
        ("0x1.bd44f3078263bp-7", "0x1.ff1a555c6a9bep-1"),
        ("0x1.5db22d0e56042p-7", "0x1.fdd5171259473p-1"),
        ("0x1.c2e6bdc805762p-8", "0x1.fca7ae7dbbe64p-1"),
        ("0x1.74bc6a7ef9db2p-9", "0x1.f841647698d62p-1"),
    ]),
    "noise-0.1": (["channel.noise_std=0.1"], [
        ("0x1.2fc962fc962fdp-6", "0x1.fc3f3bd20c497p-1"),
        ("0x1.098ead65b7a33p-6", "0x1.f7e4760df2bdfp-1"),
        ("0x1.bd44f3078263bp-7", "0x1.eba6c1633dd0cp-1"),
        ("0x1.5db22d0e56042p-7", "0x1.ce293532d2476p-1"),
        ("0x1.c2e6bdc805762p-8", "0x1.bc29da55dc0e6p-1"),
        ("0x1.810624dd2f1aap-9", "0x1.825fe770976eap-1"),
    ]),
    "echo-interpolated": ([
        "channel.multipath=[[0.0005, 0.5]]",
        "channel.interpolate_delays=true"], [
        ("0x1.2bb0cf87d9c55p-6", "0x1.f3e0279190c75p-1"),
        ("0x1.0a27983c131d6p-6", "0x1.f6ac85646ad75p-1"),
        ("0x1.bab596de8ca12p-7", "0x1.fb3ab68e81f27p-1"),
        ("0x1.56de8ca11bfd4p-7", "0x1.fca50455dd5bdp-1"),
        ("0x1.d6b2dbd194238p-8", "0x1.f4ddbde9385dcp-1"),
        ("0x1.81b4e81b4e81bp-9", "0x1.f2fb8a9891f9bp-1"),
    ]),
    "capture-4ms": ([
        "timeline.capture_duration_s=0.004", "channel.noise_std=0.05"], [
        ("0x1.2fc962fc962fdp-6", "0x1.fec32bcec2722p-1"),
        ("0x1.098ead65b7a33p-6", "0x1.fdc372b56fa86p-1"),
        ("0x1.bd44f3078263bp-7", "0x1.fa0dc450f0d07p-1"),
        ("0x1.5db22d0e56042p-7", "0x1.f2be24b770eb3p-1"),
        ("0x1.c2e6bdc805762p-8", "0x1.eb21b9d0c61d8p-1"),
        ("0x1.6e978d4fdf3b6p-9", "0x1.d7c5eaf907763p-1"),
    ]),
    # a 60 ms chirp keeps every distance in range of the long capture
    "capture-36ms": ([
        "timeline.capture_duration_s=0.036", "chirp.duration_s=0.06",
        "channel.noise_std=0.05"], [
        ("0x1.2fc962fc962fdp-6", "0x1.feba4928d3176p-1"),
        ("0x1.098ead65b7a33p-6", "0x1.fdd84dd0533e4p-1"),
        ("0x1.bd44f3078263bp-7", "0x1.f9cfefaee9170p-1"),
        ("0x1.5db22d0e56042p-7", "0x1.f3277198b6521p-1"),
        ("0x1.c2e6bdc805762p-8", "0x1.e8c0c0d6dea1ep-1"),
        ("0x1.6e978d4fdf3b6p-9", "0x1.d7fbdffb9f254p-1"),
    ]),
    "amplitude-1e-150": (["chirp.amplitude=1e-150"], [
        ("0x1.2fc962fc962fdp-6", "0x1.0000000000000p+0"),
        ("0x1.098ead65b7a33p-6", "0x1.0000000000000p+0"),
        ("0x1.bd44f3078263bp-7", "0x1.0000000000000p+0"),
        ("0x1.5db22d0e56042p-7", "0x1.0000000000000p+0"),
        ("0x1.c2e6bdc805762p-8", "0x1.0000000000000p+0"),
        ("0x1.6e978d4fdf3b6p-9", "0x1.fffffffffffffp-1"),
    ]),
    "amplitude-1e150": (["chirp.amplitude=1e150"], [
        ("0x1.2fc962fc962fdp-6", "0x1.0000000000000p+0"),
        ("0x1.098ead65b7a33p-6", "0x1.0000000000000p+0"),
        ("0x1.bd44f3078263bp-7", "0x1.0000000000000p+0"),
        ("0x1.5db22d0e56042p-7", "0x1.0000000000000p+0"),
        ("0x1.c2e6bdc805762p-8", "0x1.0000000000000p+0"),
        ("0x1.6e978d4fdf3b6p-9", "0x1.0000000000000p+0"),
    ]),
}


@pytest.mark.parametrize("setting", list(IDEAL_GOLDEN))
def test_ideal_exchanges_match_their_golden_bits(setting):
    sets, expected = IDEAL_GOLDEN[setting]
    assert _golden_bits("ideal-audio", sets) == expected


@pytest.mark.xfail(strict=True, reason=(
    "known defect: a 50 us capture's comparator bits repeat exactly at "
    "other lags, so one-bit reads 0.5 m as 0.9164 m and 2.0 m as 0.5768 m, "
    "each with a score of 1.0"))
@pytest.mark.parametrize("distance", [0.5, 2.0])
def test_short_one_bit_capture_ranges_within_1_mm(distance):
    cfg = load_config(sets=["timeline.capture_duration_s=5e-5"])
    r = simulate_ranging(cfg.chirp, cfg.channel_at(distance), cfg.timeline,
                         mode="one-bit-backscatter", fsk=cfg.fsk,
                         threshold=cfg.comparator_threshold)
    assert abs(r.distance - distance) < 1e-3


# ------------------------------------------- reference side kept per config

SHORT_ONE_BIT = {"chirp": SHORT_CHIRP, "timeline": SHORT_TIMELINE,
                 "fsk": FSK, "threshold": 0.0}
# each variant changes one input the memoized reference side depends on
MEMO_VARIANTS = [
    {"threshold": 0.1},
    {"fsk": FskConfig(freq1=1.05e6)},
    {"timeline": dataclasses.replace(SHORT_TIMELINE,
                                     capture_duration=0.00015)},
    {"timeline": dataclasses.replace(SHORT_TIMELINE, wakeup_time=0.0006)},
    # as many reference samples as the base config, but a longer window
    {"timeline": dataclasses.replace(SHORT_TIMELINE, wakeup_time=0.00045,
                                     capture_duration=0.00015)},
]
# at zero distance the capture reaches the end of the reference, so one kept
# from a shorter wake-up or capture would not cover it
MEMO_CHANNELS = [
    AcousticChannel(distance=0.0),
    AcousticChannel(distance=0.08),
    AcousticChannel(distance=0.13, noise_std=0.02, rng_seed=5),
]


def _one_bit(config, channel):
    return simulate_ranging(config["chirp"], channel, config["timeline"],
                            mode="one-bit-backscatter", fsk=config["fsk"],
                            threshold=config["threshold"])


def test_interleaved_configs_match_a_cold_reference():
    def cold(config):
        results = []
        for channel in MEMO_CHANNELS:
            signals._backscatter_reference.cache_clear()
            results.append(_one_bit(config, channel))
        return results

    base = cold(SHORT_ONE_BIT)
    variants = [{**SHORT_ONE_BIT, **variant} for variant in MEMO_VARIANTS]
    expected = [cold(config) for config in variants]
    # each variant changes the answer, so a stale entry would show
    assert all(results != base for results in expected)
    signals._backscatter_reference.cache_clear()
    assert [_one_bit(SHORT_ONE_BIT, ch) for ch in MEMO_CHANNELS] == base
    for config, results in zip(variants, expected):
        assert [_one_bit(config, ch) for ch in MEMO_CHANNELS] == results
        assert [_one_bit(SHORT_ONE_BIT, ch) for ch in MEMO_CHANNELS] == base


def test_cached_reference_side_is_read_only():
    # a 1000-sample window, a 5000-sample wake-up delay
    key = (*_memo_key(SHORT_CHIRP, SHORT_TIMELINE, FSK.sample_rate), FSK, 0.0)
    matched = signals._backscatter_reference(*key)
    assert signals._backscatter_reference(*key) is matched
    reference, halves, size, step, lags, spectra, rotations, coarse = matched
    # a 1000-sample window: blocks of fft_size(3000) samples, 2001 lags apart
    assert (len(reference), size, step, lags) == (6001, 3000, 2001, 5002)
    assert spectra.shape == (3, len(signals.HARMONICS), 3000)
    assert rotations.shape == (len(signals.HARMONICS), 5002)
    # the scan runs in single precision
    assert spectra.dtype == rotations.dtype == np.complex64
    # the halves are the modulator's, one entry per reference sample: the
    # tones advance 10 and 11 hundredths of a cycle a sample, so twice the
    # phase in hundredths is 2 (10 j + h(j)) with h(j) the 1-bits before j;
    # they hold its floor's parity and its remainder over 100, as bytes
    bits = one_bit_quantize(reference).bits
    high = np.concatenate(([0], np.cumsum(bits[:-1], dtype=np.int64)))
    twice = 2 * (10 * np.arange(bits.size) + high)
    low, rem = halves
    assert np.array_equal(low, twice // 100 % 2 == 1)
    assert np.array_equal(rem, twice % 100) and rem.dtype == np.uint8
    # the coarse reference is the correctly rounded phase's advance over
    # each 50-sample bin, and its window energies span the 17 bins a
    # 1000-sample capture keeps
    advance, ex2 = coarse
    phase = np.array([Fraction(int(t), 200)
                      for t in twice[::signals.COARSE_BIN]], dtype=float)
    assert np.array_equal(advance, np.diff(phase))
    assert (advance.size, ex2.size) == (120, 104)
    for array in (reference.samples, low, rem, spectra, rotations, advance,
                  ex2):
        with pytest.raises(ValueError):
            array[0] = 0


def test_cached_audio_reference_is_read_only():
    # the default 1 ms capture: 192 samples, a 3840-sample wake-up delay
    key = _memo_key(CHIRP, TIMELINE, FS)
    memo = signals._audio_reference(*key)
    assert signals._audio_reference(*key) is memo
    reference, x, ex2 = memo
    assert (len(reference), x.size, ex2.size) == (4033, 4033, 3842)
    for array in (reference.samples, x, ex2):
        with pytest.raises(ValueError):
            array[0] = 0


def test_a_default_range_table_builds_each_memo_once():
    # a key that picked up a per-row value, such as the channel, would
    # rebuild the 10 MB one-bit memo on every exchange without any error
    signals._audio_reference.cache_clear()
    signals._backscatter_reference.cache_clear()
    table = cmd_range(load_config())
    assert len(table.rows) == 12 * len(ranging.MODES)
    for memo in (signals._audio_reference, signals._backscatter_reference):
        info = memo.cache_info()
        assert (info.misses, info.hits) == (1, 11)


def _bits_here(mode, sets, distances=GOLDEN_DISTANCES):
    """``_golden_bits(mode, sets)`` at ``distances``, computed in this
    process."""
    cfg = load_config(sets=sets)
    bits = []
    for i, d in enumerate(distances):
        r = simulate_ranging(cfg.chirp, cfg.channel_at(d, seed_offset=i),
                             cfg.timeline, mode=mode, fsk=cfg.fsk,
                             threshold=cfg.comparator_threshold)
        bits.append((r.lag.hex(), r.peak.hex()))
    return bits


# a sweep to 30 kHz: the same reach and window as the defaults, so only the
# chirp in the memo's key tells the two configs apart
OTHER_CHIRP = ["chirp.f_stop_hz=30000"]


def test_alternating_chirps_match_a_fresh_process():
    defaults = IDEAL_GOLDEN["defaults"][1]  # from a fresh child
    other = _golden_bits("ideal-audio", OTHER_CHIRP)
    assert other != defaults  # so a stale memo would show
    signals._audio_reference.cache_clear()
    for sets, expected in [([], defaults), (OTHER_CHIRP, other),
                           ([], defaults)]:
        assert _bits_here("ideal-audio", sets) == expected


@pytest.mark.parametrize("setting", list(IDEAL_GOLDEN))
def test_xcorr_offset_matches_the_memoized_locator(monkeypatch, setting):
    captured, _ = _record_capture(monkeypatch)
    cfg = load_config(sets=IDEAL_GOLDEN[setting][0])
    rate = cfg.chirp.sample_rate
    for i, d in enumerate(GOLDEN_DISTANCES):
        r = simulate_ranging(cfg.chirp, cfg.channel_at(d, seed_offset=i),
                             cfg.timeline, mode="ideal-audio")
        m = len(captured[-1])
        reach = round(cfg.timeline.wakeup_delay * rate) + m + 1
        assert xcorr_offset(gen_chirp(cfg.chirp, reach), captured[-1]) == (
            r.lag, r.peak)


# four blocks, the last one partial: 8002 lags, 2001 to a block
BLOCKED_TIMELINE = dataclasses.replace(SHORT_TIMELINE, wakeup_time=0.0008)
# a window over a third of the reference: one block of fft_size(n) samples
ONE_BLOCK_TIMELINE = dataclasses.replace(SHORT_TIMELINE,
                                         capture_duration=0.0005)


def _scan_case(timeline):
    """The memo and a noisy reflection's sign bits for a scan test."""
    rate = FSK.sample_rate
    matched = signals._backscatter_reference(
        *_memo_key(SHORT_CHIRP, timeline, rate), FSK, 0.0)
    ch = AcousticChannel(distance=0.15, noise_std=0.05, rng_seed=7)
    window = _captured_full_chirp(SHORT_CHIRP, ch, timeline, rate)
    return matched, fsk_modulate(one_bit_quantize(window), FSK).samples < 0


def _centred_reflection(rf_low):
    """The +/-1 reflection that is low where ``rf_low`` is set, less its
    mean."""
    rf = 1.0 - 2.0 * rf_low
    return rf - rf.mean()


def _conj_spectrum(rfz, size):
    """The conjugate ``size``-point spectrum of the real ``rfz``, from its
    real FFT: conjugated bins up to the middle, then Hermitian symmetry."""
    half = np.fft.rfft(rfz, size)
    return np.concatenate((np.conj(half), half[size - half.size:0:-1]))


# an even and an odd 5-smooth size, each past the 5000-sample reflection
@pytest.mark.parametrize("size", [6000, 6075])
def test_real_fft_extension_is_the_conjugate_spectrum(size):
    rfz = _centred_reflection(_scan_case(ONE_BLOCK_TIMELINE)[1])
    exact = np.conj(np.fft.fft(rfz, size))
    got = _conj_spectrum(rfz, size)
    assert got.shape == exact.shape
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("timeline, n_blocks", [
    (BLOCKED_TIMELINE, 4), (ONE_BLOCK_TIMELINE, 1)], ids=["four", "one"])
def test_blocked_scan_matches_a_full_length_scan(timeline, n_blocks):
    matched, rf_low = _scan_case(timeline)
    step, lags = matched.step, matched.lags
    assert len(matched.spectra) == n_blocks == -(-lags // step)
    shortlist, scores = signals._scan(matched, rf_low, range(n_blocks))
    rfz = _centred_reflection(rf_low)

    # the oracle: one circular correlation over the whole reference
    ref_bits = one_bit_quantize(matched.reference)
    full = signals.fft_size(len(ref_bits))
    twice, fs = _carrier_phase(ref_bits, FSK)
    phase = twice / (2 * fs)
    rf_spec = _conj_spectrum(rfz, full)
    expected = np.zeros(lags)
    for h in signals.HARMONICS:
        tone = np.exp(2j * np.pi * h * phase)
        corr = np.fft.ifft(np.fft.fft(tone, full) * rf_spec)[:lags]
        expected += (np.conj(tone[:lags]) * corr).imag / h

    take = signals.RESCORED_LAGS
    ranked = np.sort(expected)
    assert ranked[-take] > ranked[-take - 1]  # so the best set is unique
    assert np.array_equal(shortlist,
                          np.sort(np.argpartition(expected, -take)[-take:]))
    # the scan transforms in single precision, and Higham (Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., 2002, Thm 24.2) puts a
    # computed FFT of length N within about log2(N) unit roundoffs of its
    # exact value; the reflection's transform and each block's inverse one
    # are two such, each relative to the highest score any lag can reach,
    # sum(|rfz|) / h summed over the harmonics
    u = np.finfo(np.float32).eps / 2
    reach = sum(np.abs(rfz).sum() / h for h in signals.HARMONICS)
    bound = 2 * np.log2(matched.size) * u * reach
    assert np.max(np.abs(scores - expected[shortlist])) < bound


@pytest.mark.parametrize("timeline", [BLOCKED_TIMELINE, ONE_BLOCK_TIMELINE],
                         ids=["four", "one"])
def test_scan_matches_a_serial_block_loop_bit_for_bit(timeline):
    matched, rf_low = _scan_case(timeline)
    shortlist, scores = signals._scan(matched, rf_low,
                                      _all_blocks(matched, rf_low))

    # every block, each keeping its best lags, merged in block order, in the
    # memo's single precision
    size, step, lags = matched.size, matched.step, matched.lags
    spectra, rotations = matched.spectra, matched.rotations
    take = signals.RESCORED_LAGS
    rf_spec = _conj_spectrum(_centred_reflection(rf_low).astype(np.float32),
                             size)
    all_lags, all_scores = [], []
    for b, start in enumerate(range(0, lags, step)):
        kept_lags = slice(start, min(start + step, lags))
        corr = np.fft.ifft(spectra[b] * rf_spec)[:, :kept_lags.stop - start]
        rotated = (rotations[:, kept_lags] * corr).imag
        block = rotated[0] / signals.HARMONICS[0]
        for h, row in zip(signals.HARMONICS[1:], rotated[1:]):
            block = block + row / h
        best = np.sort(np.argpartition(block, -take)[-take:])
        all_lags.append(best + start)
        all_scores.append(block[best])
    all_lags = np.concatenate(all_lags)
    all_scores = np.concatenate(all_scores)
    best = np.sort(np.argpartition(all_scores, -take)[-take:])
    assert np.array_equal(shortlist, all_lags[best])
    assert scores.dtype == all_scores.dtype == np.float32
    assert np.array_equal(scores.view(np.uint32),
                          all_scores[best].view(np.uint32))


def _all_blocks(matched, rf_low):
    """A ``_coarse_blocks`` that hands ``_scan`` every block."""
    return range(len(matched.spectra))


def test_scan_runs_on_the_calling_thread_over_at_most_3_of_10_blocks(
        monkeypatch):
    # one inverse FFT per harmonic of each block transformed
    threads = []
    ifft = np.fft.ifft

    def recording_ifft(*args, **kwargs):
        threads.append(threading.get_ident())
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", recording_ifft)
    cfg = load_config()
    _default_exchange(cfg)
    assert set(threads) == {threading.get_ident()}
    harmonics = len(signals.HARMONICS)
    assert harmonics <= len(threads) <= 3 * harmonics
    threads.clear()
    monkeypatch.setattr(signals, "_coarse_blocks", _all_blocks)
    _default_exchange(cfg)
    assert len(threads) == 10 * harmonics


def test_scan_peaks_under_the_arrays_its_block_loop_keeps(monkeypatch):
    # through the loop there live one size-point complex64 row, the
    # reflection's real FFT, the float32 score and one piece's int64
    # ranking.  The slack takes argpartition's scratch, every piece's kept
    # lags and scores and their array headers, 37 KB over all 10 blocks;
    # a (len(HARMONICS), size) buffer adds a row, 240 KB
    cfg = load_config()
    _, (matched, rf_low) = _located(monkeypatch,
                                    lambda: _default_exchange(cfg))
    blocks = _all_blocks(matched, rf_low)
    signals._scan(matched, rf_low, blocks)
    tracemalloc.start()
    try:
        signals._scan(matched, rf_low, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size, step = matched.size, matched.step
    arrays = (8 * size + 8 * (size // 2 + 1) + 4 * step
              + 8 * signals.SHORTLIST_PIECE)
    assert peak < arrays + 64 * 1024


# settings under which the coarse locate picks the scan's blocks; the answers
# must keep every bit that the all-blocks scan gives them
PRUNED_SETTINGS = {
    "noiseless": [],
    "noise-0.02": ["channel.noise_std=0.02"],
    "noise-0.05": ["channel.noise_std=0.05"],
    "noise-0.1": ["channel.noise_std=0.1"],
    "echo-interpolated": ["channel.multipath=[[0.0005, 0.5]]",
                          "channel.interpolate_delays=true"],
    "capture-0.5ms": ["timeline.capture_duration_s=0.0005",
                      "channel.noise_std=0.05"],
    "capture-4ms": ["timeline.capture_duration_s=0.004",
                    "channel.noise_std=0.05"],
}
PRUNED_DISTANCES = dict(zip(PRUNED_SETTINGS, np.random.default_rng(
    12345).uniform(0.5, 6.0, (len(PRUNED_SETTINGS), 3)).tolist()))


def _record_blocks(monkeypatch):
    """Record, per exchange, the blocks the scan runs and the blocks
    there are."""
    coarse_blocks = signals._coarse_blocks
    scanned = []

    def recording(matched, rf_low):
        blocks = coarse_blocks(matched, rf_low)
        scanned.append((len(blocks), len(matched.spectra)))
        return blocks

    monkeypatch.setattr(signals, "_coarse_blocks", recording)
    return scanned


@pytest.mark.parametrize("setting", list(PRUNED_SETTINGS))
def test_pruned_scan_matches_the_all_blocks_scan(monkeypatch, setting):
    sets, distances = PRUNED_SETTINGS[setting], PRUNED_DISTANCES[setting]
    scanned = _record_blocks(monkeypatch)
    bits = _bits_here("one-bit-backscatter", sets, distances)
    assert all(ran < total for ran, total in scanned)
    monkeypatch.setattr(signals, "_coarse_blocks", _all_blocks)
    assert bits == _bits_here("one-bit-backscatter", sets, distances)


def test_short_capture_pruned_scan_matches_the_all_blocks_scan(monkeypatch):
    # a 0.1 ms capture keeps 17 coarse bins, whose candidates spread over
    # about half its 100 blocks
    sets = ["timeline.capture_duration_s=0.0001"]
    scanned = _record_blocks(monkeypatch)
    bits = _bits_here("one-bit-backscatter", sets)
    assert all(ran < total for ran, total in scanned)
    monkeypatch.setattr(signals, "_coarse_blocks", _all_blocks)
    assert bits == _bits_here("one-bit-backscatter", sets)


# a 10 us capture keeps no coarse bin
@pytest.mark.parametrize("capture", [1e-5])
def test_short_capture_scans_every_block(monkeypatch, capture):
    scanned = _record_blocks(monkeypatch)
    _bits_here("one-bit-backscatter",
               [f"timeline.capture_duration_s={capture}"])
    assert len(scanned) == len(GOLDEN_DISTANCES)
    assert all(ran == total for ran, total in scanned)


# settings whose true lags the scanned blocks must hold, even where noise or
# an echo takes the answer far from it; the 2 ms echo has put the true lag
# farthest outside the coarse candidates' span, 4,446 lags in 200 draws
COVERED_SETTINGS = {
    "noiseless": [],
    "noise-0.1": ["channel.noise_std=0.1"],
    "interpolated": ["channel.interpolate_delays=true"],
    "echo-0.5ms": ["channel.multipath=[[0.0005, 0.5]]"],
    "echo-2ms": ["channel.multipath=[[0.002, 0.5]]", "channel.noise_std=0.05"],
    "capture-0.5ms": ["timeline.capture_duration_s=0.0005",
                      "channel.noise_std=0.05"],
}


@pytest.mark.parametrize("setting", list(COVERED_SETTINGS))
def test_scan_covers_the_true_lag(monkeypatch, setting):
    coarse_blocks = signals._coarse_blocks
    scanned = []

    def recording(matched, rf_low):
        blocks = coarse_blocks(matched, rf_low)
        scanned.append((len(blocks), blocks.start * matched.step,
                        min(blocks.stop * matched.step, matched.lags) - 1))
        return blocks

    monkeypatch.setattr(signals, "_coarse_blocks", recording)
    sets = COVERED_SETTINGS[setting]
    cfg = load_config(sets=sets)
    distances = np.random.default_rng(12345).uniform(0.5, 6.0, 16)
    for i, d in enumerate(distances.tolist()):
        channel = cfg.channel_at(d, seed_offset=1000 + i)
        simulate_ranging(cfg.chirp, channel, cfg.timeline,
                         mode="one-bit-backscatter", fsk=cfg.fsk,
                         threshold=cfg.comparator_threshold)
        true = round((cfg.timeline.wakeup_delay - channel.delay)
                     * cfg.fsk.sample_rate)
        _, first, last = scanned[-1]
        assert first <= true <= last
    if not sets:
        # 1.77 blocks over 200 draws; 2.97 with 2 ms of lag around the
        # coarse lag alone
        assert np.mean([ran for ran, _, _ in scanned]) < 2.2


def test_no_scan_thread_outlives_the_call():
    cfg = load_config()
    before = threading.active_count()
    _default_exchange(cfg)
    assert threading.active_count() == before
