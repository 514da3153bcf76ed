"""Quick self-tests of the benchmark: tiny workloads and oracle agreement.

Run from the repository root with ``python3 -m pytest -q perfbench``; they
sit outside the package's test paths.
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from chirploc.energy import default_efficiency_curve, default_harvester, harvester_output
from chirploc.ranging import RangingTimeline, trilaterate
from chirploc.wpt import ArraySpec, RfLink, array_factor, beam_sweep_precharge, friis_received_power

import oracles
import workloads
from tracer import Tracer

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
CFG = workloads.DEPLOYMENT
CURVE = oracles.read_curve(workloads.CURVE_CSV)


@pytest.mark.parametrize("name,trace", [
    ("fix-clean", False), ("fix-clean", True), ("fix-noisy", False),
    ("power-tables", False), ("power-tables", True),
])
def test_tiny_workload_is_correct_and_reports_every_metric(name, trace):
    result = workloads.run_workload(name, seed=3, seconds=0.01, trace=trace,
                                    survey=list(workloads.survey_inputs())[:1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_true_distances_fix_back_to_the_tag():
    tag = (1.3, 3.1)
    fix = trilaterate(workloads.BEACONS, oracles.distances(workloads.BEACONS, tag))
    assert math.dist(fix.coordinates, tag) < 1e-9


def test_capture_window_matches_the_timeline():
    t = RangingTimeline(0.0, 0.020, 0.001)
    lo, hi = oracles.capture_window_m(CFG)
    assert lo == pytest.approx(t.min_distance(343.0, 0.050))
    assert hi == pytest.approx(t.max_distance(343.0))


def test_friis_and_harvester_oracles_match_the_program():
    assert oracles.read_curve(workloads.CURVE_CSV) == tuple(
        map(list, zip(*default_efficiency_curve())))
    for d in (0.5, 1.0, 2.7, 4.5, 7.0, 12.0):
        p_in = oracles.friis_dbm(d, CFG["link"])
        assert p_in == pytest.approx(friis_received_power(RfLink(d)), abs=1e-12)
    harvester = default_harvester()
    for p_in in (-25.0, -19.5, -18.0, -15.1, -3.3, 0.0, 7.5, 10.0, 10.5):
        want = harvester_output(p_in, harvester)
        assert oracles.harvested_w(p_in, CFG["harvester"], CURVE) == pytest.approx(
            want, rel=1e-12, abs=0.0)


def test_anchor_of_ten_updates_per_hour_at_4_5_m():
    h = CFG["harvester"]
    p = oracles.harvested_w(oracles.friis_dbm(4.5, CFG["link"]), h, CURVE)
    rate = oracles.updates_per_hour(
        oracles.charge_s(CFG["capacitance_f"], h["v_chrdy"], 0.0, p),
        CFG["link"]["duty_cycle"], 0.0)
    assert 8.0 <= rate <= 14.0


@pytest.mark.parametrize("n", [1, 4, 8])
def test_array_gain_oracle_matches_array_factor(n):
    for steer in (-90.0, -40.0, 0.0, 30.0, 90.0):
        for target in (-90.0, 0.0, 25.0):
            got = array_factor(ArraySpec(n, 0.5, 0.0, steer), target)
            want = oracles.ula_gain_dbi(n, 0.5, 0.0, steer, target)
            if want < -100.0:  # a null: both are rounding noise
                assert got < -100.0
            else:
                assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("dwell", [1.0, 1e-3])
@pytest.mark.parametrize("n,angle", [(1, 0.0), (4, 25.0), (8, -90.0)])
def test_closed_form_sweep_matches_the_walk(dwell, n, angle):
    cfg = workloads.workload_config(workloads.WORKLOADS["fix-clean"])
    cfg["sweep"]["dwell_s"] = dwell
    want = oracles.sweep_precharge_s(cfg, CURVE, n, angle)
    got = beam_sweep_precharge(
        ArraySpec(n, 0.5, 0.0), angle, dwell=dwell, step=10.0,
        link=RfLink(4.5), harvester=default_harvester(), capacitance=6.8e-5)
    assert got == pytest.approx(want, rel=1e-9)


def test_table_check_catches_a_wrong_value_and_a_changed_rerun(tmp_path):
    cfg = workloads.workload_config(workloads.WORKLOADS["fix-clean"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    tables = workloads.Tables(cfg, cfg_path, 1, tmp_path)
    tally = workloads.Tally()
    assert tables.round(tally) is not None and not tally.errors

    texts = {k: v.decode() for k, v in tables.first.items()}
    row = texts["sweep"].splitlines()[-1]
    cells = row.split(",")
    cells[-1] = repr(float(cells[-1]) * 1.001)
    texts["sweep"] = texts["sweep"].replace(row, ",".join(cells))
    assert oracles.check_tables(texts, cfg, CURVE)

    tables.first["size-buffer"] += b"\n"
    tables.round(tally)
    assert tally.errors == ["size-buffer: rerun is not byte-identical"]


def test_tracer_self_time_and_missing_stage():
    calls = []

    def leaf():
        calls.append("leaf")

    def outer():
        mod.leaf()
        mod.leaf()

    mod = types.SimpleNamespace(leaf=leaf, outer=outer)
    tracer = Tracer()
    targets = [(mod, "outer", "x.outer", None), (mod, "leaf", "x.leaf", None),
               (mod, "removed_stage", "x.removed", None)]
    with tracer.installed(targets), tracer.span("bench.op"):
        mod.outer()
    assert mod.leaf is leaf and mod.outer is outer and len(calls) == 2
    summary = tracer.summary()
    key = ("bench.op", "x.outer")
    leaves = summary.total_s[("bench.op", "x.leaf")]
    assert summary.self_s[key] == pytest.approx(summary.total_s[key] - leaves)
    assert summary.calls[("bench.op", "x.leaf")] == 2
    assert summary.calls[("bench.op", "x.removed")] == 0
    assert summary.per(summary.self_s, "bench.op", "x.removed", 1) == 0.0


def test_spread_over_runs_every_share():
    log = []
    workloads.spread_over(0.01, lambda: log.append("main"), 3,
                          [(lambda: log.append("a"), 4), (lambda: log.append("b"), 0)])
    assert log.count("main") >= 3 and log.count("a") == 4 and "b" not in log
