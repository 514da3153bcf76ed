"""Tag energy accounting, capacitor sizing, and the harvester curve."""

import math
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chirploc import (
    ComponentPower,
    HarvesterSpec,
    ParameterError,
    StartupPlan,
    buffer_energy,
    default_components,
    default_efficiency_curve,
    harvester_output,
    load_component_table,
    load_efficiency_curve,
    min_capacitance,
    next_standard_capacitance,
    tag_energy,
)

SPLIT = StartupPlan(mode="split", operate_time=1e-3, overlap="full_window")


def manual_default_energy() -> float:
    """The receive-chain wake-up priced by hand, term by term.

    Mirrors the packaged component table: the microphone starts alone, the
    rest share a window set by the oscillator pair, and everything runs for
    the 1 ms capture.
    """
    mic = 2.16e-4 * (5.0e-2 + 1e-3)
    window = 1.75e-3 + 1e-3
    amps = 2 * 1.26e-4 * window
    comparator = 1.35e-7 * window
    mux = 9.0e-9 * window
    oscillators = 2 * 5.04e-6 * window
    switch = 1.8e-6 * window
    return mic + amps + comparator + mux + oscillators + switch


# ---------------------------------------------------------------- tag_energy

def test_default_capture_energy_matches_manual_sum():
    e = tag_energy(default_components(), SPLIT)
    assert e == pytest.approx(manual_default_energy(), rel=1e-12)
    assert e == pytest.approx(1.1742066e-5, rel=1e-9)


def test_default_capture_energy_near_twelve_microjoules():
    assert tag_energy(default_components(), SPLIT) == pytest.approx(
        11.7e-6, rel=0.05)


def test_split_startup_costs_less_than_half_of_simultaneous():
    comps = default_components()
    e_split = tag_energy(comps, SPLIT)
    e_sim = tag_energy(comps, StartupPlan(mode="simultaneous",
                                          operate_time=1e-3))
    assert e_split < 0.5 * e_sim


def test_overlap_modes_are_ordered():
    comps = default_components()
    e_own = tag_energy(comps, StartupPlan("split", 1e-3, "own_turn_on"))
    e_full = tag_energy(comps, SPLIT)
    e_sim = tag_energy(comps, StartupPlan("simultaneous", 1e-3))
    assert e_own < e_full < e_sim


def test_own_turn_on_energy():
    # each fast component is billed for its own turn-on, the slow one for
    # the full start plus the capture
    comps = (
        ComponentPower("slow", 1e-3, 1e-2),
        ComponentPower("fast", 1e-4, 1e-4),
    )
    plan = StartupPlan("split", 1e-3, "own_turn_on")
    expected = 1e-3 * (1e-2 + 1e-3) + 1e-4 * (1e-4 + 1e-3)
    assert tag_energy(comps, plan) == pytest.approx(expected, rel=1e-12)


def test_no_components_no_energy():
    assert tag_energy((), SPLIT) == 0.0


def test_single_component():
    comps = (ComponentPower("mic", 2e-4, 1e-2),)
    assert tag_energy(comps, SPLIT) == pytest.approx(2e-4 * 1.1e-2)


def test_component_count_multiplies_power():
    one = (ComponentPower("osc", 5e-6, 1e-3, count=1),)
    two = (ComponentPower("osc", 5e-6, 1e-3, count=2),)
    assert tag_energy(two, SPLIT) == pytest.approx(2 * tag_energy(one, SPLIT))


@pytest.mark.parametrize("kwargs", [
    dict(name="x", power=-1e-6, turn_on_time=0.0),
    dict(name="x", power=1e-6, turn_on_time=-1e-3),
    dict(name="x", power=1e-6, turn_on_time=0.0, count=0),
])
def test_component_validation(kwargs):
    with pytest.raises(ParameterError):
        ComponentPower(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(mode="staggered"),
    dict(overlap="none"),
    dict(operate_time=-1e-3),
])
def test_startup_plan_validation(kwargs):
    with pytest.raises(ParameterError):
        StartupPlan(**kwargs)


@given(operate=st.floats(0.0, 0.1))
def test_energy_grows_linearly_with_operate_time(operate):
    comps = default_components()
    base = tag_energy(comps, StartupPlan("split", 0.0, "full_window"))
    total_power = sum(c.power * c.count for c in comps)
    e = tag_energy(comps, StartupPlan("split", operate, "full_window"))
    assert e == pytest.approx(base + total_power * operate, rel=1e-9)


# ---------------------------------------------------- capacitor sizing

def test_min_capacitance_default_scenario():
    e = tag_energy(default_components(), SPLIT)
    c = min_capacitance(e, HarvesterSpec())
    # 2*E / (0.77 * (2.30^2 - 2.20^2)) computed by hand
    assert c == pytest.approx(2 * 1.1742066e-5 / (0.77 * 0.45), rel=1e-9)
    assert c == pytest.approx(6.7775e-5, rel=1e-4)


def test_standard_pick_covers_default_scenario():
    e = tag_energy(default_components(), SPLIT)
    c = next_standard_capacitance(min_capacitance(e, HarvesterSpec()))
    assert c == 6.8e-5


@given(e=st.floats(1e-9, 1e-2))
def test_sized_capacitor_swing_covers_the_energy(e):
    # the defining identity: the usable swing of the minimum capacitor,
    # after the worst-case regulator, is exactly the requested energy
    h = HarvesterSpec()
    c = min_capacitance(e, h)
    usable = buffer_energy(c, h.v_chrdy, h.v_ovdis) * h.eta_ldo_worst
    assert usable == pytest.approx(e, rel=1e-12)


def test_buffer_energy_values():
    assert buffer_energy(6.8e-5, 2.30, 2.20) == pytest.approx(1.53e-5)
    assert buffer_energy(6.8e-5, 2.30, 0.0) == pytest.approx(1.7986e-4)


def test_buffer_energy_validation():
    with pytest.raises(ParameterError):
        buffer_energy(0.0, 2.3, 2.2)
    with pytest.raises(ParameterError):
        buffer_energy(1e-5, 2.2, 2.3)
    with pytest.raises(ParameterError):
        buffer_energy(1e-5, 2.3, -0.1)
    for capacitance in (math.inf, math.nan):
        with pytest.raises(ParameterError,
                           match="capacitance must be positive and finite"):
            buffer_energy(capacitance, 2.3, 0.0)


@pytest.mark.parametrize("c_min,expected", [
    (0.0, 1e-6),
    (6.7775e-5, 6.8e-5),
    (6.8e-5, 6.8e-5),        # exact standard value maps to itself
    (6.8000001e-5, 8.2e-5),
    (0.9, 1.0),
])
def test_next_standard_capacitance(c_min, expected):
    assert next_standard_capacitance(c_min) == pytest.approx(expected,
                                                             rel=1e-12)


def test_next_standard_capacitance_out_of_range():
    with pytest.raises(ParameterError):
        next_standard_capacitance(9.0)
    with pytest.raises(ParameterError):
        next_standard_capacitance(-1e-6)


def test_min_capacitance_rejects_negative_energy():
    with pytest.raises(ParameterError):
        min_capacitance(-1e-6, HarvesterSpec())


# ---------------------------------------------------------- harvester curve

def test_harvester_output_at_curve_points():
    h = HarvesterSpec()
    # at a tabulated point the interpolation is exact: eta * 10^((p-30)/10)
    assert harvester_output(-15.147, h) == pytest.approx(
        0.21250 * 10 ** ((-15.147 - 30) / 10), rel=1e-12)
    assert harvester_output(0.0, h) == pytest.approx(0.40 * 1e-3)


def test_harvester_output_interpolates_between_points():
    h = HarvesterSpec()
    lo, hi = (-10.042, 0.32237), (-8.104, 0.34623)
    t = (-10.0 - lo[0]) / (hi[0] - lo[0])
    eta = lo[1] + t * (hi[1] - lo[1])
    assert harvester_output(-10.0, h) == pytest.approx(eta * 1e-4, rel=1e-12)


def test_harvester_sensitivity_gate():
    h = HarvesterSpec()
    assert harvester_output(-19.5, h) > 0.0
    assert harvester_output(-19.5000001, h) == 0.0
    assert harvester_output(10.0, h) > 0.0
    assert harvester_output(10.0000001, h) == 0.0


def test_antenna_loss_shifts_the_gate():
    h = HarvesterSpec(eta_antenna=0.5)
    # -19.5 dBm at the antenna becomes ~-22.5 after the 3 dB loss: dead
    assert harvester_output(-19.5, h) == 0.0
    # raising the input by exactly the loss restores the lossless output,
    # because the rectifier only ever sees the post-antenna power
    loss_db = 10 * math.log10(0.5)
    assert harvester_output(-19.5 - loss_db, h) == pytest.approx(
        harvester_output(-19.5, HarvesterSpec()), rel=1e-9)


def test_storage_loss_scales_the_output():
    lossless = harvester_output(-10.0, HarvesterSpec())
    lossy = harvester_output(-10.0, HarvesterSpec(eta_storage=0.9))
    assert lossy == pytest.approx(0.9 * lossless, rel=1e-12)


@given(st.floats(-19.5, 10.0), st.floats(-19.5, 10.0))
def test_harvester_output_monotone_in_window(p1, p2):
    h = HarvesterSpec()
    lo, hi = sorted((p1, p2))
    assert harvester_output(lo, h) <= harvester_output(hi, h) + 1e-18


def test_harvester_rejects_non_finite_input():
    with pytest.raises(ParameterError):
        harvester_output(float("nan"), HarvesterSpec())


@pytest.mark.parametrize("kwargs", [
    dict(v_chrdy=2.2, v_ovdis=2.3),
    dict(v_ovdis=0.0),
    dict(eta_ldo_worst=0.0),
    dict(eta_ldo_worst=1.5),
    dict(p_in_min=10.0, p_in_max=-19.5),
    dict(eta_antenna=0.0),
    dict(eta_storage=1.0001),
    dict(efficiency_curve=((0.0, 0.4),)),
    dict(efficiency_curve=((0.0, 0.4), (0.0, 0.5))),
    dict(efficiency_curve=((0.0, 0.4), (5.0, 1.2))),
])
def test_harvester_spec_validation(kwargs):
    with pytest.raises(ParameterError):
        HarvesterSpec(**kwargs)


# ------------------------------------------------------------- data loading

def test_default_tables_shape():
    comps = default_components()
    assert len(comps) == 6
    assert {c.name for c in comps} == {
        "microphone", "amplifier", "comparator", "multiplexer",
        "oscillator", "rf_switch",
    }
    curve = default_efficiency_curve()
    assert len(curve) == 17
    assert curve[0] == (-19.5, 0.0126)
    assert curve[-1] == (10.0, 0.44)


def test_load_component_table_roundtrip(tmp_path):
    path = tmp_path / "parts.csv"
    path.write_text(textwrap.dedent("""\
        # a comment line
        name,power_w,turn_on_time_s,count
        mic,2.0e-4,1.0e-2,1
        amp,1.0e-4,1.0e-6,2
    """))
    comps = load_component_table(path)
    assert comps == (
        ComponentPower("mic", 2.0e-4, 1.0e-2, 1),
        ComponentPower("amp", 1.0e-4, 1.0e-6, 2),
    )


def test_load_component_table_rejects_bad_header(tmp_path):
    path = tmp_path / "parts.csv"
    path.write_text("component,watts\nmic,1e-3\n")
    with pytest.raises(ParameterError, match="header"):
        load_component_table(path)


def test_load_component_table_rejects_short_row(tmp_path):
    path = tmp_path / "parts.csv"
    path.write_text("name,power_w,turn_on_time_s,count\nmic,1e-3\n")
    with pytest.raises(ParameterError, match="row"):
        load_component_table(path)


def test_load_efficiency_curve_roundtrip(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("p_in_dbm,efficiency\n-19.5,0.01\n0.0,0.4\n")
    assert load_efficiency_curve(path) == ((-19.5, 0.01), (0.0, 0.4))


def test_load_efficiency_curve_rejects_bad_header(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("dbm,eta\n-19.5,0.01\n")
    with pytest.raises(ParameterError, match="header"):
        load_efficiency_curve(path)
