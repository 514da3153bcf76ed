"""Configuration resolution and the command-line scenario front end."""

import json
import math

import pytest

from chirploc.cli import main
from chirploc.config import DEFAULT_CONFIG, load_config, resolve_config
from chirploc.errors import ConfigError


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


def test_sweep_runtime_error_exits_three(capsys):
    code, _, err = run_cli(capsys, "sweep", "--set", "sweep.step_deg=0")
    assert code == 3
    assert "error:" in err


# ------------------------------------------------------------ shared plumbing

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
