"""RF link budget, charge timing, array steering, and beam sweeps."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chirploc import (
    ArraySpec,
    C_LIGHT,
    ChargeScenario,
    HarvesterSpec,
    ParameterError,
    RfLink,
    array_factor,
    beam_sweep_precharge,
    buffer_energy,
    charge_time,
    default_efficiency_curve,
    friis_received_power,
    harvester_output,
    update_rate,
)
from chirploc.cli import main
from chirploc.wpt import inclusive_grid
from chirploc.config import load_config

HARVESTER = HarvesterSpec()
WAVELENGTH = C_LIGHT / 869.5e6


def path_loss_db(distance: float) -> float:
    return 20.0 * math.log10(4.0 * math.pi * distance / WAVELENGTH)


# --------------------------------------------------------------------- friis

def test_received_power_at_reference_distance():
    p = friis_received_power(RfLink(distance=4.5))
    assert p == pytest.approx(27.0 + 0.0 + 2.15 - path_loss_db(4.5), abs=1e-12)
    assert p == pytest.approx(-15.1, abs=0.1)


def test_doubling_distance_costs_six_db():
    p1 = friis_received_power(RfLink(distance=1.0))
    p2 = friis_received_power(RfLink(distance=2.0))
    assert p1 - p2 == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)


def test_quarter_wavelength_over_pi_has_no_path_loss():
    link = RfLink(distance=WAVELENGTH / (4.0 * math.pi))
    assert friis_received_power(link) == pytest.approx(27.0 + 2.15, abs=1e-12)


def test_eirp_ceiling_is_enforced():
    with pytest.raises(ParameterError, match="EIRP"):
        RfLink(distance=1.0, p_t=28.0)
    with pytest.raises(ParameterError, match="EIRP"):
        RfLink(distance=1.0, p_t=20.0, g_t=8.0)
    # raising the limit makes the same combination legal
    RfLink(distance=1.0, p_t=20.0, g_t=8.0, eirp_limit=30.0)


@pytest.mark.parametrize("kwargs", [
    dict(distance=0.0),
    dict(distance=-1.0),
    dict(distance=1.0, frequency=0.0),
    dict(distance=1.0, duty_cycle=0.0),
    dict(distance=1.0, duty_cycle=1.2),
])
def test_link_validation(kwargs):
    with pytest.raises(ParameterError):
        RfLink(**kwargs)


# ---------------------------------------------------------- harvested power

def test_harvested_power_at_reference_distance():
    p = harvester_output(friis_received_power(RfLink(distance=4.5)),
                         HARVESTER)
    assert p >= 6e-6
    assert p == pytest.approx(6.495e-6, rel=1e-3)


def test_harvest_dies_past_sensitivity():
    near = friis_received_power(RfLink(distance=7.4))
    far = friis_received_power(RfLink(distance=7.5))
    assert harvester_output(near, HARVESTER) > 0.0
    assert harvester_output(far, HARVESTER) == 0.0


@given(st.floats(0.3, 12.0), st.floats(0.3, 12.0))
def test_harvest_monotone_in_distance(d1, d2):
    lo, hi = sorted((d1, d2))
    assert harvester_output(friis_received_power(RfLink(distance=lo)),
                            HARVESTER) >= harvester_output(
        friis_received_power(RfLink(distance=hi)), HARVESTER)


def test_constant_efficiency_gives_inverse_square_harvest():
    flat = HarvesterSpec(efficiency_curve=((-19.5, 0.3), (10.0, 0.3)))
    p1 = harvester_output(friis_received_power(RfLink(distance=1.5)), flat)
    p3 = harvester_output(friis_received_power(RfLink(distance=3.0)), flat)
    slope = (math.log10(p3) - math.log10(p1)) / (math.log10(3.0)
                                                 - math.log10(1.5))
    assert slope == pytest.approx(-2.0, abs=0.01)


# -------------------------------------------------------------- charge_time

def test_charge_time_is_energy_over_power():
    scenario = ChargeScenario("test", 0.0, 1.0)
    assert charge_time(1.0, scenario, 0.05) == 10.0
    assert charge_time(1.0, scenario, 0.0) == math.inf
    with pytest.raises(ParameterError):
        charge_time(1.0, scenario, -1e-6)


def test_charge_scenario_factories():
    initial = ChargeScenario.initial(HARVESTER)
    update = ChargeScenario.update(HARVESTER)
    assert (initial.v_start, initial.v_end) == (0.0, 2.30)
    assert (update.v_start, update.v_end) == (2.20, 2.30)
    with pytest.raises(ParameterError):
        ChargeScenario("bad", 2.3, 2.2)


def test_charge_time_knee_steepens_with_distance():
    # each extra metre costs proportionally more as the input power slides
    # down the efficiency curve toward the sensitivity floor
    initial = ChargeScenario.initial(HARVESTER)
    times = [
        charge_time(6.8e-5, initial, harvester_output(
            friis_received_power(RfLink(distance=d)), HARVESTER))
        for d in (4.0, 5.0, 6.0, 7.0)
    ]
    ratios = [b / a for a, b in zip(times, times[1:])]
    assert all(r > 1.0 for r in ratios)
    assert ratios == sorted(ratios)


# ------------------------------------------------------------- array_factor

@given(st.floats(-90.0, 90.0))
def test_single_element_is_omnidirectional(angle):
    assert array_factor(ArraySpec(1, element_gain=2.15), angle) == 2.15


def test_aligned_array_gains_ten_log_n():
    af = array_factor(ArraySpec(4, steer_angle=30.0), 30.0)
    assert af == pytest.approx(10.0 * math.log10(4.0), abs=1e-12)


def test_element_gain_adds_on_top():
    base = array_factor(ArraySpec(8, steer_angle=0.0), 0.0)
    lifted = array_factor(ArraySpec(8, steer_angle=0.0, element_gain=3.0), 0.0)
    assert lifted == pytest.approx(base + 3.0, abs=1e-12)


def test_two_element_null():
    # half-wave pair steered broadside: the endfire direction cancels (the
    # phasor sum only reaches zero up to rounding, so test for a deep notch)
    assert array_factor(ArraySpec(2, spacing=0.5, steer_angle=0.0),
                        90.0) < -100.0


@pytest.mark.parametrize("n,spacing,steer,target", [
    (2, 0.5, 0.0, 37.0),
    (4, 0.5, -20.0, 10.0),
    (8, 0.25, 45.0, -60.0),
    (3, 0.7, 10.0, 10.0),
])
def test_array_factor_matches_phasor_sum(n, spacing, steer, target):
    delta = math.sin(math.radians(target)) - math.sin(math.radians(steer))
    total = sum(complex(math.cos(2 * math.pi * spacing * delta * k),
                        math.sin(2 * math.pi * spacing * delta * k))
                for k in range(n))
    expected = 10.0 * math.log10(abs(total) ** 2 / n)
    assert array_factor(ArraySpec(n, spacing, 0.0, steer),
                        target) == pytest.approx(expected, abs=1e-9)


def test_array_factor_rejects_bad_target():
    with pytest.raises(ParameterError):
        array_factor(ArraySpec(4), 91.0)


@pytest.mark.parametrize("kwargs", [
    dict(n_elements=0),
    dict(spacing=0.0),
    dict(steer_angle=95.0),
])
def test_array_spec_validation(kwargs):
    with pytest.raises(ParameterError):
        ArraySpec(**kwargs)


# ------------------------------------------------------- beam_sweep_precharge

SWEEP_KW = dict(dwell=1.0, step=10.0, link=RfLink(distance=4.5),
                harvester=HARVESTER, capacitance=6.8e-5)
TARGET = buffer_energy(6.8e-5, HARVESTER.v_chrdy, 0.0)


def steer_powers(array: ArraySpec, tag: float, link: RfLink = RfLink(4.5),
                 harvester: HarvesterSpec = HARVESTER,
                 step: float = 10.0) -> list[float]:
    """DC watts the tag harvests at each steering of one sweep."""
    path = 20.0 * math.log10(4.0 * math.pi * link.distance / link.wavelength)
    powers = []
    for steer in -90.0 + step * np.arange(180.0 // step + 1):
        gain = array_factor(ArraySpec(array.n_elements, array.spacing,
                                      array.element_gain, float(steer)), tag)
        p_in = link.p_t + gain + link.g_r - path
        powers.append(harvester_output(p_in, harvester)
                      if math.isfinite(p_in) else 0.0)
    return powers


def walked_precharge(powers, dwell, target, duty=0.10):
    """Oracle: walk the schedule one dwell at a time, finishing inside the
    first powered dwell whose energy reaches the target."""
    energy, radiated, i = 0.0, 0.0, 0
    while energy < target:
        p = powers[i % len(powers)]
        if p > 0 and energy + p * dwell >= target:
            radiated += (target - energy) / p
            energy = target
        else:
            energy += p * dwell
            radiated += dwell
        i += 1
    return radiated / duty


def stepped_precharge(powers, dwell, target, step, duty=0.10):
    """Oracle: integrate the schedule in fixed ``step`` radiated seconds."""
    energy, radiated, i = 0.0, 0.0, 0
    while energy < target:
        p = powers[i % len(powers)]
        t_in = 0.0
        while t_in < dwell and energy < target:
            dt = min(step, dwell - t_in)
            energy += p * dt
            radiated += dt
            t_in += dt
        i += 1
    return radiated / duty


def test_single_element_sweep_equals_steady_charge():
    # one element radiates the same power at every steering, so sweeping
    # changes nothing: wall clock time is the plain charge time under duty
    t = beam_sweep_precharge(ArraySpec(1), 0.0, **SWEEP_KW)
    steady = charge_time(
        6.8e-5, ChargeScenario.initial(HARVESTER),
        harvester_output(friis_received_power(RfLink(distance=4.5)),
                         HARVESTER)) / 0.10
    assert t == pytest.approx(steady, rel=1e-12)
    assert t == pytest.approx(276.9217320390081, rel=1e-12)
    assert beam_sweep_precharge(ArraySpec(1), -90.0, **SWEEP_KW) == pytest.approx(
        t, rel=1e-12)


def test_eight_element_sweep_beats_single_off_axis():
    t8 = beam_sweep_precharge(ArraySpec(8), -90.0, **SWEEP_KW)
    t1 = beam_sweep_precharge(ArraySpec(1), -90.0, **SWEEP_KW)
    assert t8 == pytest.approx(20.470876838290852, rel=1e-12)
    assert t8 < t1 / 10.0


def test_more_elements_reach_farther():
    far = dict(dwell=1.0, step=10.0, link=RfLink(distance=9.0),
               harvester=HARVESTER, capacitance=6.8e-5)
    times = [beam_sweep_precharge(ArraySpec(n), 0.0, **far)
             for n in (1, 2, 4, 8)]
    assert times[0] == math.inf
    assert times[1] == pytest.approx(12821.175733105538, rel=1e-9)
    assert times[2] == pytest.approx(2933.4824230521904, rel=1e-9)
    assert times[3] == pytest.approx(1992.7640161651314, rel=1e-9)
    assert times[1] > times[2] > times[3]


def test_sweep_event_accumulation_matches_stepped_integrator():
    exact = beam_sweep_precharge(ArraySpec(4), 25.0, **SWEEP_KW)
    stepped = stepped_precharge(steer_powers(ArraySpec(4), 25.0), 1.0,
                                TARGET, 1e-3)
    assert stepped == pytest.approx(exact, rel=1e-4)


@pytest.mark.parametrize("dwell", [1.0, 1e-3, 1e-4])
@pytest.mark.parametrize("tag", [-90.0, 0.0, 25.0, 60.0])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_closed_form_sweep_matches_the_walk(n, tag, dwell):
    kw = dict(SWEEP_KW, dwell=dwell)
    got = beam_sweep_precharge(ArraySpec(n), tag, **kw)
    want = walked_precharge(steer_powers(ArraySpec(n), tag), dwell, TARGET)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("tag", [-90.0, -30.0, 0.0, 25.0, 60.0])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_whole_sweep_target_ends_at_the_last_powered_steer(n, tag):
    # a capacitor that holds exactly k sweeps of energy is full at the last
    # powered steer of sweep k: not after the dark steers that follow it
    # (rounding can leave a per-dwell sum a hair short), and not past the end
    # of the partial sweep
    powers = steer_powers(ArraySpec(n), tag)
    last = max(i for i, p in enumerate(powers) if p > 0)
    for k in range(1, 60):
        cap = 2.0 * k * sum(powers) / HARVESTER.v_chrdy ** 2
        t = beam_sweep_precharge(ArraySpec(n), tag,
                                 **dict(SWEEP_KW, capacitance=cap))
        want = ((k - 1) * len(powers) + last + 1) / 0.10
        assert t == pytest.approx(want, rel=1e-9), k


def test_nanosecond_dwell_sweep_is_fast_at_the_continuous_limit(tmp_path):
    out = tmp_path / "sweep.csv"
    start = time.perf_counter()
    code = main(["sweep", "--set", "sweep.dwell_s=1e-9", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    cfg = load_config()
    link = cfg.sweep_link
    arrays = {a.n_elements: a for a in cfg.sweep_arrays}
    target = buffer_energy(cfg.capacitance, cfg.harvester.v_chrdy, 0.0)
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert len(rows) == 9
    for angle, n, t in rows:
        powers = steer_powers(arrays[int(n)], float(angle), link,
                              cfg.harvester, cfg.sweep_step)
        limit = target * len(powers) / sum(powers) / link.duty_cycle
        assert float(t) == pytest.approx(limit, rel=1e-6)


def test_sweep_replay_oracle():
    """Replay the sweep from scratch: own path loss, own phasor sum, own
    interpolation, 1 ms energy steps."""
    n, spacing, dwell, step, d, cap = 4, 0.5, 1.0, 10.0, 4.5, 6.8e-5
    tag = 25.0
    curve = default_efficiency_curve()
    xs = [p for p, _ in curve]
    ys = [e for _, e in curve]
    target = 0.5 * cap * 2.30**2

    def dc_power(steer: float) -> float:
        delta = math.sin(math.radians(tag)) - math.sin(math.radians(steer))
        total = sum(complex(math.cos(2 * math.pi * spacing * delta * k),
                            math.sin(2 * math.pi * spacing * delta * k))
                    for k in range(n))
        ratio = abs(total) ** 2 / n
        if ratio == 0.0:
            return 0.0
        p_in = 27.0 + 10.0 * math.log10(ratio) + 2.15 - path_loss_db(d)
        if p_in < -19.5 or p_in > 10.0:
            return 0.0
        return float(np.interp(p_in, xs, ys)) * 10.0 ** ((p_in - 30.0) / 10.0)

    angles = np.arange(-90.0, 90.0 + step / 2, step)
    powers = [dc_power(float(a)) for a in angles]
    replayed = stepped_precharge(powers, dwell, target, 1e-3)

    t = beam_sweep_precharge(ArraySpec(4), tag, **SWEEP_KW)
    assert t == pytest.approx(replayed, rel=1e-3)


@pytest.mark.parametrize("step", [7.0, 13.0, 100.0, 179.0])
def test_sweep_step_with_a_remainder_stops_short_of_endfire(capsys, step):
    # 180 / step leaves a remainder: the last steer is the largest
    # -90 + k*step <= 90, never a direction past endfire
    assert main(["sweep", "--set", f"sweep.step_deg={step}"]) == 0
    assert "nan" not in capsys.readouterr().out
    powers = steer_powers(ArraySpec(8), -90.0, step=step)
    t = beam_sweep_precharge(ArraySpec(8), -90.0, **dict(SWEEP_KW, step=step))
    assert t == pytest.approx(walked_precharge(powers, 1.0, TARGET), rel=1e-9)


@given(st.floats(1e-2, 180.0), st.floats(-100.0, 100.0), st.floats(0.0, 100.0))
@example(0.1, 0.0, 0.3)  # 3 * 0.1 rounds past 0.3
def test_inclusive_grid_stays_inside_its_bounds(step, lo, span):
    hi = lo + span
    grid = inclusive_grid(lo, hi, step)
    assert grid[0] == lo
    assert (grid >= lo).all() and (grid <= hi).all()
    assert np.allclose(np.diff(grid), step, rtol=1e-9, atol=1e-9)
    assert hi - grid[-1] < step * (1 + 1e-9)


def test_sweep_rejects_a_dwell_too_short_to_count():
    for dwell in (5e-324, 1e-315):
        with pytest.raises(ParameterError, match="too short"):
            beam_sweep_precharge(ArraySpec(4), 0.0,
                                 **dict(SWEEP_KW, dwell=dwell))


def test_sweep_validation():
    with pytest.raises(ParameterError):
        beam_sweep_precharge(ArraySpec(4), 0.0, dwell=0.0, step=10.0,
                             link=RfLink(distance=4.5), harvester=HARVESTER,
                             capacitance=6.8e-5)
    with pytest.raises(ParameterError):
        beam_sweep_precharge(ArraySpec(4), 0.0, dwell=1.0, step=0.0,
                             link=RfLink(distance=4.5), harvester=HARVESTER,
                             capacitance=6.8e-5)
    # each is refused before any arithmetic, by its own name
    for arg in ("dwell", "capacitance"):
        for value in (math.inf, math.nan):
            with pytest.raises(ParameterError,
                               match=f"^{arg} must be positive and finite"):
                beam_sweep_precharge(ArraySpec(4), 0.0,
                                     **dict(SWEEP_KW, **{arg: value}))


# --------------------------------------------------------------- update_rate

def test_update_rate_examples():
    assert update_rate(10.0, 0.10) == pytest.approx(36.0)
    assert update_rate(10.0, 0.10, measurement_overhead_s=20.0) == pytest.approx(30.0)
    assert update_rate(1.0, 1.0) == pytest.approx(3600.0)


@pytest.mark.parametrize("args", [
    (0.0, 0.1, 0.0),
    (10.0, 0.0, 0.0),
    (10.0, 1.1, 0.0),
    (10.0, 0.1, -1.0),
])
def test_update_rate_validation(args):
    with pytest.raises(ParameterError):
        update_rate(*args)


# ------------------------------------------------------- grids as columns

def scalar_chain(distance: float, harvester: HarvesterSpec, scenario,
                 overhead: float):
    """Oracle: one distance through the chain in Python floats and ``math``,
    as the tables computed each row before they worked on columns."""
    p_in = 27.0 + 0.0 + 2.15 - path_loss_db(distance)
    p_eff = p_in + 10.0 * math.log10(harvester.eta_antenna)
    if p_eff < harvester.p_in_min or p_eff > harvester.p_in_max:
        p = 0.0
    else:
        curve = harvester.efficiency_curve
        eta = float(np.interp(p_eff, [x for x, _ in curve], [e for _, e in curve]))
        p = harvester.eta_storage * eta * 10.0 ** ((p_eff - 30.0) / 10.0)
    energy = buffer_energy(6.8e-5, scenario.v_end, scenario.v_start)
    t = math.inf if p == 0.0 else energy / p
    return p_in, p, t, 3600.0 / (t / 0.10 + overhead)


@pytest.mark.parametrize("harvester", [
    HARVESTER, HarvesterSpec(eta_antenna=0.8, eta_storage=0.9)],
    ids=["lossless", "lossy"])
def test_columns_match_the_scalar_chain_bit_for_bit(harvester):
    # 0.05-40 m crosses both edges of the sensitivity window
    d = inclusive_grid(0.05, 40.0, 0.0137)
    scenario = ChargeScenario.update(harvester)
    p_in = friis_received_power(RfLink(distance=d))
    p = harvester_output(p_in, harvester)
    t = charge_time(6.8e-5, scenario, p)
    rate = update_rate(t, 0.10, 2.0)
    got = np.stack([p_in, p, t, rate], axis=1)
    want = np.array([scalar_chain(x, harvester, scenario, 2.0)
                     for x in d.tolist()])
    assert np.isinf(want[:, 2]).any() and (want[:, 1] > 0).any()
    assert got.tobytes() == want.tobytes()
    # a scalar is a grid of one, and comes back a float
    for i in (0, 1000, d.size - 1):
        scalar = friis_received_power(RfLink(distance=float(d[i])))
        assert type(scalar) is float and scalar == p_in[i]
        assert harvester_output(scalar, harvester) == p[i]
        assert charge_time(6.8e-5, scenario, float(p[i])) == t[i]
        assert update_rate(float(t[i]), 0.10, 2.0) == rate[i]


def test_a_link_grid_names_its_first_non_positive_distance():
    with pytest.raises(ParameterError, match=r"positive, got -0\.5$"):
        RfLink(distance=np.array([1.0, -0.5, 0.0]))
    with pytest.raises(ParameterError):
        charge_time(1.0, ChargeScenario("test", 0.0, 1.0), np.array([1.0, -1e-9]))
    with pytest.raises(ParameterError):
        update_rate(np.array([1.0, 0.0]), 0.10)
    with pytest.raises(ParameterError):
        harvester_output(np.array([0.0, math.nan]), HARVESTER)
