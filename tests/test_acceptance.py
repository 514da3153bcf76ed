"""End-to-end acceptance checks, one per headline claim of the simulator.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``) with
the measured values next to the tolerance it was held to.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from chirploc import (
    AcousticChannel,
    ArraySpec,
    BitStream,
    ChargeScenario,
    ChirpSpec,
    FskConfig,
    HarvesterSpec,
    RangingTimeline,
    RfLink,
    Waveform,
    charge_time,
    default_components,
    friis_received_power,
    fsk_modulate,
    harvester_output,
    min_capacitance,
    next_standard_capacitance,
    simulate_ranging,
    StartupPlan,
    tag_energy,
    trilaterate,
    update_rate,
    buffer_energy,
    xcorr_offset,
)
from chirploc.cli import main
from fsk_demod import fsk_demodulate

C_SOUND = 343.0
FS_AUDIO = 192e3
CHIRP = ChirpSpec(20e3, 40e3, 0.050, FS_AUDIO)
FSK = FskConfig()
TIMELINE = RangingTimeline(chirp_start=0.0, wakeup_time=0.020,
                           capture_duration=0.001)
HARVESTER = HarvesterSpec()
CAP = 6.8e-5


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"FAIL {number}: {label}")
        raise
    print(f"PASS {number}: {label}")


def charge_times(distance: float) -> tuple[float, float]:
    p = harvester_output(friis_received_power(RfLink(distance=distance)),
                         HARVESTER)
    return (
        charge_time(CAP, ChargeScenario.initial(HARVESTER), p),
        charge_time(CAP, ChargeScenario.update(HARVESTER), p),
    )


def test_criterion_1_capture_energy():
    comps = default_components()
    e_split = tag_energy(comps, StartupPlan("split", 1e-3, "full_window"))
    e_sim = tag_energy(comps, StartupPlan("simultaneous", 1e-3))
    ratio = e_split / e_sim
    with criterion(1, f"capture energy {e_split * 1e6:.3f} uJ "
                      f"(11.7 +/- 5%), split/simultaneous {ratio:.3f} (< 0.5)"):
        assert e_split == pytest.approx(11.7e-6, rel=0.05)
        assert ratio < 0.5


def test_criterion_2_buffer_sizing():
    e_tag = tag_energy(default_components(),
                       StartupPlan("split", 1e-3, "full_window"))
    c_min = min_capacitance(e_tag, HARVESTER)
    standard = next_standard_capacitance(c_min)
    e_cap = buffer_energy(standard, 2.30, 2.20)
    with criterion(2, f"C_min {c_min * 1e6:.2f} uF (67.8 +/- 1%), "
                      f"swing energy {e_cap * 1e6:.3f} uJ (15.3)"):
        assert c_min == pytest.approx(67.8e-6, rel=0.01)
        assert standard == 6.8e-5
        assert round(e_cap * 1e6, 1) == 15.3


def test_criterion_3_link_budget():
    p_rx = friis_received_power(RfLink(distance=4.5))
    flat = HarvesterSpec(efficiency_curve=((-19.5, 0.3), (10.0, 0.3)))
    p1 = harvester_output(friis_received_power(RfLink(distance=1.5)), flat)
    p3 = harvester_output(friis_received_power(RfLink(distance=3.0)), flat)
    slope = (math.log10(p3) - math.log10(p1)) / math.log10(2.0)
    with criterion(3, f"received power {p_rx:.3f} dBm at 4.5 m "
                      f"(-15.1 +/- 0.1), log-log slope {slope:.4f} (-2 +/- 0.01)"):
        assert p_rx == pytest.approx(-15.1, abs=0.1)
        assert slope == pytest.approx(-2.0, abs=0.01)


def test_criterion_4_charge_time_anchors():
    t_init_45, _ = charge_times(4.5)
    _, t_up_60 = charge_times(6.0)
    t_init_55, _ = charge_times(5.5)
    _, t_up_70 = charge_times(7.0)
    grid = [1.0 + 0.5 * k for k in range(13)]
    pairs = [charge_times(d) for d in grid]
    initials = [p[0] for p in pairs]
    updates = [p[1] for p in pairs]
    with criterion(4, f"t_initial(4.5) {t_init_45:.1f} s (<= 30), "
                      f"t_update(6.0) {t_up_60:.2f} s (10 +/- 20%), "
                      f"monotone with knees"):
        assert t_init_45 <= 30.0
        assert t_up_60 == pytest.approx(10.0, rel=0.20)
        assert initials == sorted(initials)
        assert updates == sorted(updates)
        # past the anchors both curves climb steeply
        assert t_init_55 > 2.0 * t_init_45
        assert t_up_70 > 2.0 * t_up_60


def test_criterion_5_update_rates():
    t_init_45, _ = charge_times(4.5)
    _, t_up_60 = charge_times(6.0)
    per_hour = update_rate(t_init_45, 0.10)
    seconds_per_update = t_up_60 / 0.10
    with criterion(5, f"{per_hour:.1f} updates/hour at 4.5 m (8..14), "
                      f"{seconds_per_update:.1f} s/update at 6.0 m (100 +/- 20%)"):
        assert 8.0 <= per_hour <= 14.0
        assert seconds_per_update == pytest.approx(100.0, rel=0.20)


def test_criterion_6_ranging_accuracy():
    sample_distance = C_SOUND / FS_AUDIO
    grid = np.arange(0.5, 6.001, 0.25)
    worst_ideal = worst_gap = 0.0
    for d in grid:
        channel = AcousticChannel(distance=float(d))
        ideal = simulate_ranging(CHIRP, channel, TIMELINE, mode="ideal-audio",
                                 fsk=FSK)
        onebit = simulate_ranging(CHIRP, channel, TIMELINE,
                                  mode="one-bit-backscatter", fsk=FSK)
        worst_ideal = max(worst_ideal, abs(ideal.distance - float(d)))
        worst_gap = max(worst_gap, abs(onebit.distance - ideal.distance))
    with criterion(6, f"ideal-audio error {worst_ideal * 1e3:.3f} mm "
                      f"(<= {sample_distance * 1e3:.3f}), one-bit gap "
                      f"{worst_gap * 1e3:.3f} mm (<= {2 * sample_distance * 1e3:.3f})"):
        assert worst_ideal <= sample_distance
        assert worst_gap <= 2.0 * sample_distance


def _naive_xcorr(x: np.ndarray, y: np.ndarray) -> tuple[int, float]:
    yz = y - y.mean()
    ey = math.sqrt(float(yz @ yz))
    best_lag, best_val = 0, -np.inf
    for k in range(x.size - y.size + 1):
        w = x[k:k + y.size]
        wz = w - w.mean()
        ex = math.sqrt(float(wz @ wz))
        val = float(wz @ yz) / (ex * ey) if ex and ey else 0.0
        if val > best_val:
            best_val, best_lag = val, k
    return best_lag, best_val


def _grid_search_fix(beacons: np.ndarray, dists: np.ndarray) -> np.ndarray:
    dims = beacons.shape[1]
    best = beacons.mean(axis=0).astype(float)
    half = 3.0
    for step in (0.1, 0.01, 0.001) if dims == 3 else (0.05, 0.005, 0.001):
        axes = [np.arange(b - half, b + half + step / 2, step) for b in best]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        err = np.zeros(len(pts))
        for b, d in zip(beacons, dists):
            err += (np.linalg.norm(pts - b, axis=1) - d) ** 2
        best = pts[int(np.argmin(err))]
        half = 2.5 * step
    return best


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(7)
    lag_hits = 0
    for _ in range(20):
        x = rng.normal(size=2000)
        m = int(rng.integers(100, 300))
        k = int(rng.integers(0, 2000 - m))
        y = x[k:k + m] + 0.1 * rng.normal(size=m)
        # unit sample rate keeps the reported lag an exact integer
        fast = xcorr_offset(Waveform(x, 1.0, 0.0), Waveform(y, 1.0, 0.0))
        slow = _naive_xcorr(x, y)
        assert fast[0] == slow[0]
        assert fast[1] == pytest.approx(slow[1], abs=1e-9)
        lag_hits += 1

    square = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 5.0], [0.0, 5.0]])
    box = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, 5.0, 0.0],
                    [0.0, 0.0, 3.0], [5.0, 5.0, 3.0]])
    worst = 0.0
    for i in range(10):
        rng_i = np.random.default_rng(100 + i)
        beacons = square if i % 2 == 0 else box
        dims = beacons.shape[1]
        truth = rng_i.uniform(0.5, 4.5, size=dims)
        if dims == 3:
            truth[2] = rng_i.uniform(0.2, 2.8)
        dists = np.linalg.norm(beacons - truth, axis=1)
        fix = trilaterate(beacons, dists)
        reference = _grid_search_fix(beacons, dists)
        worst = max(worst, float(np.linalg.norm(fix.coordinates - reference)))
    with criterion(7, f"correlation oracle {lag_hits}/20 exact, trilateration "
                      f"vs grid search {worst * 1e3:.2f} mm (<= 2)"):
        assert lag_hits == 20
        assert worst <= 2e-3


def test_criterion_8_property_suite(tmp_path):
    rng = np.random.default_rng(8)
    bits = BitStream(rng.integers(0, 2, size=400).astype(np.uint8), 192e3)
    round_trip = fsk_demodulate(fsk_modulate(bits, FSK), FSK, 192e3)
    fsk_ok = bool(np.array_equal(round_trip.bits, bits.bits))

    x = Waveform(rng.normal(size=3000), 1.0, 0.0)
    y = x.samples[500:900].copy()
    base = xcorr_offset(x, Waveform(y, 1.0, 0.0))
    scaled = xcorr_offset(x, Waveform(7.5 * y, 1.0, 0.0))
    scale_ok = scaled[0] == base[0] and scaled[1] == pytest.approx(
        base[1], abs=1e-12)

    eirp_ok = friis_received_power(RfLink(4.5, p_t=27.0, g_t=0.0)) == \
        friis_received_power(RfLink(4.5, p_t=17.0, g_t=10.0))

    grid = [1.0 + 0.5 * k for k in range(13)]
    ordered = all(u <= i for i, u in (charge_times(d) for d in grid))

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["charge-curve", "--set", "grid.d_max_m=3.0"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    bytes_ok = out_a.read_bytes() == out_b.read_bytes()

    with criterion(8, f"fsk round trip {fsk_ok}, scale invariance {scale_ok}, "
                      f"eirp pairing {eirp_ok}, update<=initial {ordered}, "
                      f"byte-identical reruns {bytes_ok}"):
        assert fsk_ok and scale_ok and eirp_ok and ordered and bytes_ok
