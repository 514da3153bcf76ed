"""Configuration resolution and the command-line scenario front end."""

import dataclasses
import hashlib
import json
import math
import time
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from chirploc.cli import COMMANDS, main
from chirploc.config import DEFAULT_CONFIG, load_config, resolve_config
from chirploc.errors import ConfigError
from chirploc.tables import ResultTable


def parse_csv(text: str):
    """Split a result table into (metadata, header, rows of strings)."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header, rows


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- configuration

def test_defaults_resolve_without_a_file():
    cfg = load_config()
    assert cfg.chirp.f_start == 20e3
    assert cfg.chirp.f_stop == 40e3
    assert cfg.timeline.wakeup_time == 0.020
    assert cfg.fsk.freq0 == 1.0e6
    assert cfg.capacitance == 6.8e-5
    assert cfg.rng_seed == 0
    assert len(cfg.grid()) == 13
    assert len(cfg.range_grid()) == 12


def test_config_file_merges_over_defaults(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"channel": {"noise_std": 0.05}, "rng_seed": 3}))
    cfg = load_config(str(path))
    assert cfg.channel_at(1.0).noise_std == 0.05
    assert cfg.rng_seed == 3
    # untouched keys keep their defaults
    assert cfg.chirp.duration == 0.050


def test_unknown_keys_are_rejected(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"chirp": {"color": "blue"}}))
    with pytest.raises(ConfigError, match="chirp.color"):
        load_config(str(path))
    path.write_text(json.dumps({"turbo": True}))
    with pytest.raises(ConfigError, match="turbo"):
        load_config(str(path))


def test_group_key_must_be_an_object(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"chirp": 42}))
    with pytest.raises(ConfigError, match="must be an object"):
        load_config(str(path))
    path.write_text(json.dumps({"chirp": {"f_start_hz": {"x": 1}}}))
    with pytest.raises(ConfigError, match="chirp.f_start_hz"):
        load_config(str(path))


def test_copies_of_the_packaged_data_files_give_the_default_hash(tmp_path):
    data = resources.files("chirploc.data")
    sets = []
    for key, name in (("components_file", "tag_components.csv"),
                      ("harvester.efficiency_curve_file",
                       "harvester_efficiency.csv")):
        copy = tmp_path / name
        copy.write_text(data.joinpath(name).read_text())
        sets.append(f"{key}={copy}")
    assert load_config(sets=sets).config_hash == DEFAULT_CONFIG_HASH


def test_set_overrides_parse_json_values():
    cfg = load_config(sets=["channel.noise_std=0.25", "scenario=update"])
    assert cfg.channel_at(1.0).noise_std == 0.25
    assert cfg.scenario == "update"  # bare word falls back to a string


def test_set_override_validation():
    with pytest.raises(ConfigError, match="key=value"):
        load_config(sets=["channel.noise_std"])
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(sets=["channel.gain=2"])
    with pytest.raises(ConfigError, match="set its fields"):
        load_config(sets=["channel=5"])


def test_seed_argument_wins():
    cfg = load_config(sets=["rng_seed=4"], seed=9)
    assert cfg.rng_seed == 9
    assert cfg.channel_at(1.0, seed_offset=2).rng_seed == 11


def test_bad_grid_step_is_a_config_error():
    cfg = load_config(sets=["grid.d_step_m=0"])
    with pytest.raises(ConfigError, match="d_step_m"):
        cfg.grid()


def test_reversed_grid_is_empty():
    cfg = load_config(sets=["grid.d_max_m=0.5"])
    assert cfg.grid().size == 0


def test_invalid_scenario_values_are_config_errors():
    with pytest.raises(ConfigError):
        load_config(sets=["capacitance_f=-1"])
    with pytest.raises(ConfigError):
        load_config(sets=["scenario=never"])
    with pytest.raises(ConfigError):
        load_config(sets=["update_rate.measurement_overhead_s=-1"])
    with pytest.raises(ConfigError, match="EIRP"):
        load_config(sets=["link.p_t_dbm=30"])


def test_config_hash_tracks_content():
    a = load_config()
    b = load_config()
    c = load_config(sets=["channel.noise_std=0.01"])
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash
    assert len(a.config_hash) == 64


def test_resolve_config_rejects_bad_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        resolve_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        resolve_config(str(bad))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        resolve_config(str(array))


def test_default_config_is_not_mutated_by_merging():
    before = json.dumps(DEFAULT_CONFIG, sort_keys=True)
    load_config(sets=["channel.noise_std=0.5", "rng_seed=12"])
    assert json.dumps(DEFAULT_CONFIG, sort_keys=True) == before


# -------------------------------------------------------------- size-buffer

def test_size_buffer_report(capsys):
    code, out, _ = run_cli(capsys, "size-buffer")
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["quantity", "value", "unit"]
    assert meta["command"] == "size-buffer"
    assert len(meta["config_hash"]) == 64
    values = {r[0]: float(r[1]) for r in rows}
    assert values["e_tag"] == pytest.approx(1.1742066e-5, rel=1e-9)
    assert 6.77e-5 < values["c_min"] < 6.78e-5
    assert values["standard_capacitance"] == 6.8e-5
    assert values["e_cap_swing"] == pytest.approx(1.53e-5, rel=1e-9)
    assert values["e_cap_full"] == pytest.approx(1.7986e-4, rel=1e-9)


@pytest.mark.parametrize("capture, e_tag, standard", [
    (0.0005, "1.1502053999999999e-05", "6.8e-05"),
    (0.001, "1.1742066000000001e-05", "6.8e-05"),
    (0.002, "1.222209e-05", "8.2e-05"),
    (0.004, "1.3182138000000003e-05", "8.2e-05"),
])
def test_capture_duration_sets_the_tag_energy(capsys, capture, e_tag, standard):
    # the tag stays on for the capture the beacon locates
    code, out, _ = run_cli(capsys, "size-buffer",
                           "--set", f"timeline.capture_duration_s={capture}")
    assert code == 0
    values = {r[0]: r[1] for r in parse_csv(out)[2]}
    assert values["e_tag"] == e_tag
    assert values["standard_capacitance"] == standard


def test_operate_time_is_not_a_key_of_its_own(capsys):
    code, out, err = run_cli(capsys, "size-buffer",
                             "--set", "startup.operate_time_s=0.001")
    assert code == 2
    assert err == "config error: unknown config key 'startup.operate_time_s'\n"
    assert out == ""


# -------------------------------------------------------------- charge-curve

def test_charge_curve_rows(capsys):
    code, out, _ = run_cli(capsys, "charge-curve")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["distance_m", "t_initial_s", "t_update_s",
                      "p_harvest_w", "p_in_dbm"]
    assert len(rows) == 13
    assert [float(r[0]) for r in rows] == pytest.approx(
        [1.0 + 0.5 * k for k in range(13)])
    for r in rows:
        t_initial, t_update, p = float(r[1]), float(r[2]), float(r[3])
        assert p > 0.0
        assert t_update <= t_initial
    # harvested power decays with distance
    powers = [float(r[3]) for r in rows]
    assert powers == sorted(powers, reverse=True)


def test_charge_curve_has_finite_knee(capsys):
    # pushing the grid past the sensitivity range yields infinite times
    code, out, _ = run_cli(capsys, "charge-curve", "--set", "grid.d_max_m=8.0")
    assert code == 0
    _, _, rows = parse_csv(out)
    tail = {float(r[0]): r for r in rows}
    assert tail[8.0][1] == "inf"
    assert float(tail[8.0][3]) == 0.0
    assert float(tail[7.0][1]) < float("inf")


# --------------------------------------------------------------------- range

def test_range_accuracy_noiseless(capsys):
    code, out, _ = run_cli(
        capsys, "range",
        "--set", "range_grid.d_max_m=3.0",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["true_distance_m", "est_distance_m", "abs_error_m",
                      "corr_peak", "mode"]
    assert len(rows) == 12  # 6 distances, both modes
    bound = 2 * 343.0 / 192e3
    for r in rows:
        assert float(r[2]) <= bound
        assert 0.9 <= float(r[3]) <= 1.0


def test_range_marks_unreachable_distances(capsys):
    code, out, err = run_cli(
        capsys, "range",
        "--set", "range_grid.d_min_m=6.5",
        "--set", "range_grid.d_max_m=7.5",
        "--set", "range_grid.d_step_m=0.5",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 6
    by_distance = {}
    for r in rows:
        by_distance.setdefault(float(r[0]), []).append(r)
    for r in by_distance[6.5]:
        assert r[1] != "nan"
    for d in (7.0, 7.5):
        for r in by_distance[d]:
            assert r[1] == "nan" and r[2] == "nan"
    assert "range:" in err


def test_range_with_noise_stays_usable(capsys):
    code, out, _ = run_cli(
        capsys, "range",
        "--set", "channel.noise_std=0.05",
        "--set", "range_grid.d_step_m=1.0",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    errors = {"ideal-audio": [], "one-bit-backscatter": []}
    for r in rows:
        errors[r[4]].append(float(r[2]))
    assert len(errors["ideal-audio"]) == 6
    assert sorted(errors["ideal-audio"])[3] < 0.005
    assert sorted(errors["one-bit-backscatter"])[3] < 0.1


def test_range_reruns_are_byte_identical(tmp_path, capsys):
    args = ["range", "--set", "range_grid.d_max_m=2.0",
            "--set", "channel.noise_std=0.02"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a different seed changes the noise draw and therefore the bytes
    c = tmp_path / "c.csv"
    assert main(args + ["--out", str(c), "--seed", "1"]) == 0
    assert a.read_bytes() != c.read_bytes()


# --------------------------------------------------------------- update-rate

def test_update_rate_table(capsys):
    code, out, _ = run_cli(capsys, "update-rate")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["distance_m", "scenario", "charge_time_s", "duty_cycle",
                      "updates_per_hour", "seconds_per_update"]
    assert len(rows) == 26  # 13 distances x (initial, update)
    initial = [r for r in rows if r[1] == "initial"]
    update = [r for r in rows if r[1] == "update"]
    rates = [float(r[4]) for r in update]
    assert rates == sorted(rates, reverse=True)
    for r_init, r_up in zip(initial, update):
        assert float(r_up[4]) >= float(r_init[4])
        # the wall-clock period is the duty-stretched charge time
        assert float(r_up[5]) == pytest.approx(
            float(r_up[2]) / float(r_up[3]), rel=1e-12)


def test_update_rate_beyond_reach_is_zero(capsys):
    code, out, _ = run_cli(capsys, "update-rate",
                           "--set", "grid.d_min_m=8.0",
                           "--set", "grid.d_max_m=8.0")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 2
    for r in rows:
        assert r[2] == "inf"
        assert float(r[4]) == 0.0
        assert r[5] == "inf"


def test_update_rate_scenario_selection(capsys):
    code, out, _ = run_cli(capsys, "update-rate", "--set", "scenario=update")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 13
    assert all(r[1] == "update" for r in rows)


# --------------------------------------------------------------------- sweep

def test_sweep_table(capsys):
    code, out, _ = run_cli(capsys, "sweep")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["tag_angle_deg", "n_elements", "precharge_time_s"]
    assert len(rows) == 9  # 3 angles x 3 array sizes
    times = {(float(r[0]), int(r[1])): float(r[2]) for r in rows}
    # a single element is omnidirectional: same time at every angle, and
    # exactly the duty-stretched steady charge time
    assert times[(-90.0, 1)] == times[(0.0, 1)] == times[(25.0, 1)]
    assert times[(0.0, 1)] == pytest.approx(276.9217320390081, rel=1e-12)
    # endfire is where arrays shine: the beam is broad there in angle terms,
    # so most steering steps still hit the tag and more elements help a lot
    assert times[(-90.0, 4)] == pytest.approx(145.56223986864958, rel=1e-12)
    assert times[(-90.0, 8)] == pytest.approx(20.470876838290852, rel=1e-12)
    # near broadside the swept pencil beam spends most dwells pointing away,
    # so for this schedule it actually loses to an omnidirectional element
    for angle in (0.0, 25.0):
        assert times[(angle, 8)] > times[(angle, 1)]


def test_sweep_default_cells_are_pinned_digit_for_digit(capsys):
    # every digit is pinned: a changed summation order in the sweep
    # accounting would show here first
    code, out, _ = run_cli(capsys, "sweep")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [r[2] for r in rows] == [
        "276.9217320390081", "145.56223986864958", "20.470876838290852",
        "276.9217320390081", "295.20718939306903", "287.40542001555593",
        "276.9217320390081", "314.8972503036568", "309.4027196821003",
    ]


DEFAULT_CONFIG_HASH = (
    "896d6d69daaee38db12b826b1bf48bd4"
    "748ff435f0ae0f3b453f8e89ffa7c767"
)

# Every cell of the default power tables, exactly as the CLI prints it.
PINNED_TABLES = {
    "charge-curve": """\
distance_m,t_initial_s,t_update_s,p_harvest_w,p_in_dbm
1.0,0.7531662988995963,0.06406896682510721,0.00023880516197124336,-2.0831749486580016
1.5,1.7785698056670232,0.151296108232544,0.00010112619669293579,-5.605000129771625
2.0,3.3569507189389265,0.28556291559971864,5.357838558227348e-05,-8.103774861937623
2.5,5.633484054925157,0.4792188704567697,3.192695643520189e-05,-10.041975122098755
3.0,8.812997795219765,0.7496879031850435,2.0408492567371045e-05,-11.625600043051243
3.5,13.213185717986338,1.1239950043655638,1.3612160143572874e-05,-12.964535835663519
4.0,19.276655905590296,1.6397911450880156,9.330456531510736e-06,-14.124374775217255
4.5,27.69217320390081,2.3556669077042196,6.494975987462923e-06,-15.14742522416487
5.0,42.34270311151725,3.6019312665751793,4.2477212549776465e-06,-16.06257503537838
5.5,68.50005672527766,5.827036961507531,2.6256912563056118e-06,-16.890428738542873
6.0,117.54725254012934,9.99929369433989,1.530108072399206e-06,-17.646199956330868
6.5,223.77141068876097,19.035375200367124,8.037666628028884e-07,-18.34144208151512
7.0,488.84665091962626,41.58430867936315,3.679272419308681e-07,-18.985135748943144
""",
    "size-buffer": """\
quantity,value,unit
e_tag,1.1742066000000001e-05,J
c_min,6.777527272727298e-05,F
standard_capacitance,6.8e-05,F
e_cap_swing,1.5299999999999945e-05,J
e_cap_full,0.00017985999999999998,J
""",
    "update-rate": """\
distance_m,scenario,charge_time_s,duty_cycle,updates_per_hour,seconds_per_update
1.0,initial,0.7531662988995963,0.1,477.98208778854456,7.531662988995962
1.0,update,0.06406896682510721,0.1,5618.944987558688,0.6406896682510721
1.5,initial,1.7785698056670232,0.1,202.40982324839814,17.78569805667023
1.5,update,0.151296108232544,0.1,2379.439922186733,1.5129610823254398
2.0,initial,3.3569507189389265,0.1,107.24018019358644,33.56950718938926
2.0,update,0.28556291559971864,0.1,1260.6678960534985,2.8556291559971863
2.5,initial,5.633484054925157,0.1,63.90361568260137,56.33484054925157
2.5,update,0.4792188704567697,0.1,751.2225043576942,4.792188704567697
3.0,initial,8.812997795219765,0.1,40.84875638971187,88.12997795219765
3.0,update,0.7496879031850435,0.1,480.1998251146146,7.496879031850435
3.5,initial,13.213185717986338,0.1,27.245511240332682,132.13185717986337
3.5,update,1.1239950043655638,0.1,320.2861210252452,11.239950043655638
4.0,initial,19.276655905590296,0.1,18.675438404002367,192.76655905590295
4.0,update,1.6397911450880156,0.1,219.54015368260636,16.397911450880155
4.5,initial,27.69217320390081,0.1,13.00006313514207,276.9217320390081
4.5,update,2.3556669077042196,0.1,152.82296441089287,23.556669077042194
5.0,initial,42.34270311151725,0.1,8.502055219570517,423.4270311151725
5.0,update,3.6019312665751793,0.1,99.94638247006264,36.01931266575179
5.5,initial,68.50005672527766,0.1,5.255470100467144,685.0005672527766
5.5,update,5.827036961507531,0.1,61.78097073660285,58.27036961507531
6.0,initial,117.54725254012934,0.1,3.0625981655938745,1175.4725254012933
6.0,update,9.99929369433989,0.1,36.00254287998145,99.9929369433989
6.5,initial,223.77141068876097,0.1,1.6087846025188473,2237.7141068876094
6.5,update,19.035375200367124,0.1,18.912156771832738,190.35375200367122
7.0,initial,488.84665091962626,0.1,0.7364272606199964,4888.466509196262
7.0,update,41.58430867936315,0.1,8.657111574843988,415.84308679363147
""",
}


def test_default_config_hash_is_pinned():
    assert load_config().config_hash == DEFAULT_CONFIG_HASH


@pytest.mark.parametrize("command", sorted(PINNED_TABLES))
def test_default_power_tables_are_pinned_digit_for_digit(capsys, command):
    code, out, _ = run_cli(capsys, command)
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["config_hash"] == DEFAULT_CONFIG_HASH
    body = [line for line in out.splitlines() if not line.startswith("# ")]
    assert body == PINNED_TABLES[command].splitlines()


# Every row of the default `range` table and of its noisy variant, exactly as
# the CLI prints it: each estimate, error and correlation peak to the digit.
PINNED_RANGE_TABLES = {
    (): """\
true_distance_m,est_distance_m,abs_error_m,corr_peak,mode
0.5,0.500208333333333,0.00020833333333303283,1.0,ideal-audio
0.5,0.49999109999999974,8.900000000255925e-06,1.0,one-bit-backscatter
1.0,1.0004166666666672,0.0004166666666671759,1.0,ideal-audio
1.0,1.0000165000000005,1.650000000052998e-05,1.0,one-bit-backscatter
1.5,1.500625,0.0006250000000000977,1.0,ideal-audio
1.5,1.5000076000000002,7.600000000218543e-06,1.0,one-bit-backscatter
2.0,2.000833333333334,0.0008333333333339077,1.0,ideal-audio
2.0,1.9999987,1.3000000000928935e-06,1.0,one-bit-backscatter
2.5,2.4992552083333335,0.0007447916666665222,1.0,ideal-audio
2.5,2.4999898000000003,1.0199999999738196e-05,1.0,one-bit-backscatter
3.0,2.9994635416666666,0.0005364583333333783,0.9999999999999999,ideal-audio
3.0,3.0000152,1.5199999999992997e-05,1.0,one-bit-backscatter
3.5,3.499671875,0.0003281249999997904,1.0,ideal-audio
3.5,3.5000063000000003,6.300000000347694e-06,1.0,one-bit-backscatter
4.0,3.999880208333334,0.00011979166666620245,1.0,ideal-audio
4.0,3.9999974,2.600000000185787e-06,1.0,one-bit-backscatter
4.5,4.500088541666667,8.854166666694141e-05,0.9999999999999999,ideal-audio
4.5,4.4999885,1.1500000000275179e-05,1.0,one-bit-backscatter
5.0,5.000296875,0.00029687500000008527,1.0,ideal-audio
5.0,5.000013900000001,1.3900000000788282e-05,1.0,one-bit-backscatter
5.5,5.500505208333333,0.0005052083333332291,1.0,ideal-audio
5.5,5.500005,4.999999999810711e-06,1.0,one-bit-backscatter
6.0,6.000713541666667,0.0007135416666672612,1.0,ideal-audio
6.0,5.9999961,3.9000000002786805e-06,1.0,one-bit-backscatter
""",
    ("--set", "channel.noise_std=0.02"): """\
true_distance_m,est_distance_m,abs_error_m,corr_peak,mode
0.5,0.500208333333333,0.00020833333333303283,0.9996929006814945,ideal-audio
0.5,0.4999568,4.3200000000021e-05,0.9614023080706317,one-bit-backscatter
1.0,1.0004166666666672,0.0004166666666671759,0.9994984428700211,ideal-audio
1.0,0.9873941000000005,0.012605899999999504,0.9622004811003617,one-bit-backscatter
1.5,1.500625,0.0006250000000000977,0.9991158135120344,ideal-audio
1.5,1.5129387000000003,0.012938700000000303,0.9298000129800036,one-bit-backscatter
2.0,2.000833333333334,0.0008333333333339077,0.9981900786071776,ideal-audio
2.0,2.0132728,0.013272800000000196,0.9228000645600302,one-bit-backscatter
2.5,2.4992552083333335,0.0007447916666665222,0.9974743452762257,ideal-audio
2.5,2.5815208999999997,0.08152089999999967,0.7475999091359673,one-bit-backscatter
3.0,2.9994635416666666,0.0005364583333333783,0.9958782497801444,ideal-audio
3.0,3.0000838,8.380000000007826e-05,0.9112003057920453,one-bit-backscatter
3.5,3.499671875,0.0003281249999997904,0.9956156075108418,ideal-audio
3.5,3.5142065000000002,0.014206500000000233,0.8871999819519986,one-bit-backscatter
4.0,3.999880208333334,0.00011979166666620245,0.9940094754464425,ideal-audio
4.0,3.9272128000000004,0.07278719999999961,0.7224002644800651,one-bit-backscatter
4.5,4.500088541666667,8.854166666694141e-05,0.9909777726286171,ideal-audio
4.5,4.455227,0.044773000000000174,0.7639999856000178,one-bit-backscatter
5.0,5.000296875,0.00029687500000008527,0.9912720203769078,ideal-audio
5.0,5.1074415,0.10744150000000019,0.6666001466600165,one-bit-backscatter
5.5,5.500505208333333,0.0005052083333332291,0.987043309405474,ideal-audio
5.5,5.4530826,0.04691739999999989,0.8182013836624515,one-bit-backscatter
6.0,6.000713541666667,0.0007135416666672612,0.9858655667862152,ideal-audio
6.0,6.097168,0.09716799999999992,0.6650016093058411,one-bit-backscatter
""",
}


@pytest.mark.parametrize("sets", sorted(PINNED_RANGE_TABLES),
                         ids=["default", "noise-0.02"])
def test_range_tables_are_pinned_digit_for_digit(capsys, sets):
    code, out, _ = run_cli(capsys, "range", *sets)
    assert code == 0
    body = [line for line in out.splitlines() if not line.startswith("# ")]
    assert body == PINNED_RANGE_TABLES[sets].splitlines()


# sha256 of the header and rows of each power table on a 1 cm grid with a
# 0.3 ms dwell, and of each variant that takes another branch of the table
# code: rows beyond the harvester's window, antenna and storage losses, each
# scenario, a measurement overhead, and a sweep step that does not divide 180.
FINE = ("grid.d_step_m=0.01", "sweep.dwell_s=3e-4")
FAR = ("grid.d_max_m=40",)
LOSSY = ("harvester.eta_antenna=0.8", "harvester.eta_storage=0.9")
GOLDEN_TABLE_SHA256 = {
    ("charge-curve", ()):
        "f4fd04ea79997e353338d12ff34933c286b924ac4d5fd0bb8be3c628d81d53e8",
    ("size-buffer", ()):
        "4cdf539d52728df86b0ebd3e8746352decfb764dbc8475afec720df294b55c45",
    ("update-rate", ()):
        "a068e17cc0fb79b6ef28e686a2583f988214b7c170595c1deb596e77d3d61cde",
    ("sweep", ()):
        "0153a78a51dc0afb5b288cf8c2cd21a14268339de6d94abd07ea7bf1346c198f",
    ("charge-curve", FAR):
        "1a1a7fa1faf008068563b81662f5291017d3b66b81c805bcc33edbc8d2136b4c",
    ("update-rate", FAR):
        "86ff4191305104a6d0792536d304ae9cb651b18af4c2f1649271c6ee5384e156",
    ("charge-curve", LOSSY):
        "127c57e04d4348a78d7bb30c08766fa7d66ed1b71f87d6d993de90ae2e072954",
    ("update-rate", LOSSY):
        "8f9c121b3f177bdf8f98ca695e99b256ca85f3e9b9509da0dcfccb5404231401",
    ("sweep", LOSSY):
        "b4dfc14c385b04b06901cfb58cb7993f91622ce1c21b6e665a8c02ffc2e4df63",
    ("update-rate", ("scenario=initial",)):
        "ae3e8c0f343f8b528c834c812f9714da05252d548231967ece84d6d6edc32f95",
    ("update-rate", ("scenario=update",)):
        "ad7564f2a0e447651c283b1c26872d4f2d4bbdb46b10cac57bb9131db2ab032c",
    ("update-rate", ("scenario=both",)):
        "a068e17cc0fb79b6ef28e686a2583f988214b7c170595c1deb596e77d3d61cde",
    ("update-rate", ("update_rate.measurement_overhead_s=2",)):
        "1a8ec3a6460f2411a3fadab046fb8a21e60e7a05bdbf3a41d75c62c307a87230",
    ("sweep", ("sweep.step_deg=7",)):
        "aff7b59c01fd00b730684bf2be6e85a92ccc6dc274e53eb412d994f5e7b92e39",
}


def fine_table(capsys, command, sets) -> str:
    args = [arg for s in (*FINE, *sets) for arg in ("--set", s)]
    code, out, _ = run_cli(capsys, command, *args)
    assert code == 0
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("# "))


@pytest.mark.parametrize(
    "command, sets", sorted(GOLDEN_TABLE_SHA256),
    ids=[f"{c}-{'+'.join(s) or 'fine'}" for c, s in sorted(GOLDEN_TABLE_SHA256)])
def test_fine_power_tables_match_their_golden_bytes(capsys, command, sets):
    body = fine_table(capsys, command, sets)
    assert (hashlib.sha256(body.encode()).hexdigest()
            == GOLDEN_TABLE_SHA256[command, sets])


def test_far_fine_grid_reaches_past_the_harvester(capsys):
    # the FAR goldens cover rows the harvester cannot power
    _, _, rows = parse_csv(fine_table(capsys, "update-rate", FAR))
    assert len(rows) == 2 * 3901
    dead = [r for r in rows if r[2] == "inf"]
    assert dead and all(r[4] == "0.0" and r[5] == "inf" for r in dead)


@pytest.mark.parametrize("command", ["charge-curve", "update-rate"])
@pytest.mark.parametrize("d_min, shown", [("0", "0.0"), ("-1", "-1.0")])
def test_non_positive_grid_distances_exit_three(capsys, command, d_min, shown):
    code, out, err = run_cli(capsys, command, "--set", f"grid.d_min_m={d_min}")
    assert code == 3
    assert err == f"error: distance must be positive, got {shown}\n"
    assert out == ""


def test_sweep_runtime_error_exits_three(capsys):
    code, _, err = run_cli(capsys, "sweep", "--set", "sweep.step_deg=0")
    assert code == 3
    assert "error:" in err


# ------------------------------------------------------------ shared plumbing

def test_result_table_cells_print_as_str():
    # shortest round-trip digits and literal inf / nan, for numpy floats too
    table = ResultTable(["a", "b", "c", "d", "e", "f"], metadata={"seed": "0"})
    table.add(np.float64(1.5), 0.1, math.inf, -math.inf, math.nan, "x")
    table.add(1e-05, 1e16, np.float64(math.inf), 3, np.int64(4), True)
    assert table.to_csv() == ("# seed: 0\na,b,c,d,e,f\n1.5,0.1,inf,-inf,nan,x\n"
                              "1e-05,1e+16,inf,3,4,True\n")


def test_result_table_rejects_a_row_of_the_wrong_width():
    table = ResultTable(["a", "b"])
    with pytest.raises(ValueError, match="row has 3 cells, table has 2"):
        table.add(1, 2, 3)
    assert table.rows == []


@pytest.mark.parametrize("command,assignment", [
    ("size-buffer", "chirp.f_start_hz=abc"),
    ("size-buffer", 'chirp.f_start_hz={"x": 1}'),
    ("charge-curve", "timeline.capture_duration_s=null"),
    ("size-buffer", "components_file=missing.csv"),
    ("range", "channel.noise_std=abc"),
    ("range", "channel.multipath=[[1]]"),
    ("sweep", "sweep.tag_angles_deg=5"),
    ("sweep", 'sweep.n_elements=["x"]'),
    ("charge-curve", "grid.d_step_m=0"),
    ("charge-curve", "link.p_t_dbm=abc"),
    ("range", "range_grid.d_step_m=0"),
    # only a JSON boolean sets a flag: bool("no") would be True
    ("range", "channel.interpolate_delays=no"),
    ("range", 'channel.interpolate_delays="false"'),
    ("range", "channel.interpolate_delays=1"),
    # a fraction is rejected, not truncated
    ("size-buffer", "rng_seed=2.7"),
    ("sweep", "sweep.n_elements=[2.5]"),
    # values a spec's own checks reject
    ("size-buffer", "startup.mode=x"),
    ("size-buffer", "startup.overlap=x"),
    ("sweep", "sweep.distance_m=0"),
    ("sweep", "sweep.spacing_wavelengths=0"),
    ("range", "channel.noise_std=-1"),
    ("range", "chirp.sample_rate_hz=50000"),
    ("range", "fsk.freq0_hz=-1"),
    ("range", "fsk.freq1_hz=1.5e6"),
    ("range", "timeline.wakeup_time_s=-1"),
    ("size-buffer", "harvester.eta_ldo_worst=2"),
    ("charge-curve", "link.duty_cycle=2"),
    # finite, but its sample count overflows
    ("size-buffer", "timeline.capture_duration_s=1e305"),
])
def test_malformed_values_exit_two(capsys, command, assignment):
    code, out, err = run_cli(capsys, command, "--set", assignment)
    assert code == 2
    assert err.startswith("config error:")
    assert assignment.partition("=")[0] in err
    assert out == ""


@pytest.mark.parametrize("command,assignment,message", [
    ("size-buffer", "chirp.f_start_hz=abc",
     "chirp.f_start_hz: could not convert string to float: 'abc'"),
    ("sweep", "sweep.tag_angles_deg=5",
     "sweep.tag_angles_deg: 'int' object is not iterable"),
])
def test_malformed_value_errors_name_the_key(capsys, command, assignment,
                                             message):
    code, out, err = run_cli(capsys, command, "--set", assignment)
    assert code == 2
    assert err == f"config error: {message}\n"
    assert out == ""


def test_whole_values_and_flags_are_accepted():
    cfg = load_config(sets=["rng_seed=3.0", "sweep.n_elements=[2.0, 4]",
                            "channel.interpolate_delays=true"])
    assert cfg.rng_seed == 3 and isinstance(cfg.rng_seed, int)
    assert [a.n_elements for a in cfg.sweep_arrays] == [2, 4]
    assert cfg.channel.interpolate_delays is True
    assert load_config(sets=["channel.interpolate_delays=false"]
                       ).config_hash == DEFAULT_CONFIG_HASH


def _numeric_keys(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _numeric_keys(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield f"{prefix}{key}"


NON_FINITE = ("NaN", "Infinity", "-Infinity")
# the command that draws each lazily read group; every other value is read at
# load, where any command rejects it
COMMAND_OF_GROUP = {"grid": "charge-curve", "range_grid": "range"}


@pytest.mark.parametrize("assignment", [
    *(f"{key}={v}" for key in _numeric_keys(DEFAULT_CONFIG) for v in NON_FINITE),
    *(f"channel.multipath=[[{v}, 0.5]]" for v in NON_FINITE),
    *(f"channel.multipath=[[0.001, {v}]]" for v in NON_FINITE),
    *(f"sweep.tag_angles_deg=[0.0, {v}]" for v in NON_FINITE),
    *(f"sweep.n_elements=[1, {v}]" for v in (*NON_FINITE, "1e400")),
])
def test_non_finite_numbers_exit_two(capsys, assignment):
    key = assignment.partition("=")[0]
    command = COMMAND_OF_GROUP.get(key.partition(".")[0], "size-buffer")
    code, out, err = run_cli(capsys, command, "--set", assignment)
    assert code == 2
    assert err.startswith(f"config error: {key}: ")
    assert out == ""


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_read_no_config_value_but_the_grids_again(command):
    # every value but the lazily drawn grids is parsed once, at load
    cfg = load_config(sets=["range_grid.d_max_m=1.5", "channel.noise_std=0.02",
                            "link.p_t_dbm=24", "sweep.step_deg=7"])
    bare = dataclasses.replace(cfg, resolved={
        "grid": cfg.resolved["grid"], "range_grid": cfg.resolved["range_grid"]})
    assert COMMANDS[command](bare).rows == COMMANDS[command](cfg).rows


@pytest.mark.parametrize("sets, rate_key", [
    # 0.02 samples at the audio rate, 1 at the RF rate
    (["timeline.capture_duration_s=1e-7"], "chirp.sample_rate_hz"),
    # 0.8 samples at a 20 MHz audio rate, 0.4 at the RF rate
    (["timeline.capture_duration_s=4e-8", "chirp.sample_rate_hz=2e7"],
     "fsk.sample_rate_hz"),
], ids=["audio-rate", "rf-rate"])
def test_capture_without_a_sample_is_rejected_at_load(capsys, sets, rate_key):
    with pytest.raises(ConfigError, match="timeline.capture_duration_s") as exc:
        load_config(sets=sets)
    assert rate_key in str(exc.value)
    args = [arg for assignment in sets for arg in ("--set", assignment)]
    code, out, err = run_cli(capsys, "range", *args)
    assert code == 2
    assert err.startswith("config error: timeline.capture_duration_s")
    assert rate_key in err
    assert out == ""


@pytest.mark.parametrize("command, assignment, code, message", [
    # today's 1e-7 grid alone held 6e7 points; 1e-12 would ask for 6e12
    ("charge-curve", "grid.d_step_m=1e-7", 2, "config error: grid.d_step_m: "),
    ("update-rate", "grid.d_step_m=1e-12", 2, "config error: grid.d_step_m: "),
    ("range", "range_grid.d_step_m=1e-12", 2,
     "config error: range_grid.d_step_m: "),
    ("range", "range_grid.d_step_m=5e-324", 2,
     "config error: range_grid.d_step_m: "),
    # the sweep's other bad steps exit 3 as well
    ("sweep", "sweep.step_deg=1e-9", 3, "error: "),
])
def test_grids_over_the_budget_fail_before_allocating(capsys, command,
                                                      assignment, code, message):
    main(["size-buffer"])  # argparse and the config data are loaded
    capsys.readouterr()
    tracemalloc.start()
    started = time.perf_counter()
    try:
        got, out, err = run_cli(capsys, command, "--set", assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 1.0
    assert peak < 1e6
    assert got == code
    assert err.startswith(message) and "more than 100000 grid points" in err
    assert out == ""


def test_the_grid_budget_binds_only_where_the_grid_is_drawn(capsys):
    for command, assignment in [("size-buffer", "grid.d_step_m=1e-12"),
                                ("charge-curve", "range_grid.d_step_m=1e-12")]:
        assert run_cli(capsys, command, "--set", assignment)[0] == 0
    # 100,000 points is the budget itself
    cfg = load_config(sets=["grid.d_min_m=1", "grid.d_max_m=100000",
                            "grid.d_step_m=1"])
    assert cfg.grid().size == 100_000
    with pytest.raises(ConfigError, match="grid.d_step_m"):
        load_config(sets=["grid.d_min_m=1", "grid.d_max_m=100001",
                          "grid.d_step_m=1"]).grid()


def test_unknown_set_key_exits_two(capsys):
    code, _, err = run_cli(capsys, "charge-curve", "--set", "warp=9")
    assert code == 2
    assert "config error:" in err


def test_bad_config_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run_cli(capsys, "range", "--config", str(bad))
    assert code == 2
    assert "config error:" in err


def test_eirp_violation_exits_two(capsys):
    code, _, err = run_cli(capsys, "charge-curve", "--set", "link.g_t_dbi=5")
    assert code == 2
    assert "EIRP" in err


def test_unwritable_output_exits_three(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    code, _, err = run_cli(capsys, "size-buffer", "--out", str(target))
    assert code == 3
    assert "error:" in err


def test_empty_grid_yields_header_only(capsys):
    code, out, _ = run_cli(capsys, "charge-curve", "--set", "grid.d_max_m=0.5")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["distance_m", "t_initial_s", "t_update_s",
                      "p_harvest_w", "p_in_dbm"]
    assert rows == []


def test_metadata_lines_present(capsys):
    code, out, _ = run_cli(capsys, "charge-curve", "--seed", "5")
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["command"] == "charge-curve"
    assert meta["seed"] == "5"
    assert meta["tool"].startswith("chirploc ")


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
