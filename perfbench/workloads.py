"""The benchmark's workloads: 4-beacon position fixes and the power tables.

Every run has the same phases, weighted by workload:

* set-up: fresh interpreters import chirploc and resolve the workload's
  config (``setup_s``);
* fixes: one-bit-backscatter fixes of tags in a 4.5 m square room.  The
  fixed survey points come first and give the accuracy metrics; seeded tag
  positions follow until the time budget is spent (fix workloads only);
* ideal rounds: the survey tags' distances ranged in ideal-audio mode,
  spread over the run;
* tables: ``charge-curve``, ``update-rate``, ``size-buffer`` and ``sweep``
  rendered through ``chirploc.cli.main``, checked against the oracles and
  against their first rendering byte for byte.  The power-tables workload
  repeats them for the time budget, the fix workloads render a few rounds;
* memory: one one-bit fix under ``tracemalloc`` (``peak_alloc_mb``).

Every workload thus reports every end-to-end metric and, traced, every
per-layer metric; its weighting decides which layer it stresses.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import chirploc.cli as cli
import chirploc.ranging as ranging
from chirploc.config import load_config
from chirploc.errors import (ConvergenceError, GeometryError, ParameterError,
                             RangeWindowError)

import oracles
from tracer import RANGING_TARGETS, TABLE_TARGETS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
CURVE_CSV = SRC / "chirploc" / "data" / "harvester_efficiency.csv"

ROOM_M = 4.5
BEACONS = ((0.0, 0.0), (ROOM_M, 0.0), (ROOM_M, ROOM_M), (0.0, ROOM_M))
# Seeded tags keep this far from the walls, so no tag sits on a beacon.
TAG_MARGIN_M = 0.25
# Fixed survey points and their noise seeds: the accuracy metrics are
# medians over these, because over a few seeded fixes a median of cycle
# slips or of sub-sample rounding errors varies with the seed far more than
# any bound could allow.
SURVEY = ((1.0, 1.5), (3.3, 0.9), (3.6, 3.2), (1.2, 3.7), (2.4, 2.1))
SURVEY_NOISE_OFFSET = 1000
TABLES = ("charge-curve", "update-rate", "size-buffer", "sweep")
TABLE_PROBE_ROUNDS = 100
# the survey fixes of the power-tables workload, run this many times over
TABLES_SURVEY_PASSES = 3
SETUP_REPEATS = 15
# ideal-audio rounds of four exchanges, spread over every run
IDEAL_ROUNDS = 250
OPERATION_ERRORS = (ParameterError, RangeWindowError, GeometryError,
                    ConvergenceError)

# The paper's deployment, written out in chirploc's config schema so the
# oracles read the same numbers the program is given.
DEPLOYMENT = {
    "chirp": {"f_start_hz": 20000.0, "f_stop_hz": 40000.0,
              "duration_s": 0.050, "sample_rate_hz": 192000.0},
    "channel": {"speed_of_sound_mps": 343.0, "noise_std": 0.0},
    "timeline": {"chirp_start_s": 0.0, "wakeup_time_s": 0.020,
                 "capture_duration_s": 0.001},
    "fsk": {"freq0_hz": 1.0e6, "freq1_hz": 1.1e6, "sample_rate_hz": 1.0e7},
    "harvester": {"v_chrdy": 2.30, "v_ovdis": 2.20, "p_in_min_dbm": -19.5,
                  "p_in_max_dbm": 10.0, "eta_antenna": 1.0,
                  "eta_storage": 1.0},
    "link": {"frequency_hz": 869.5e6, "p_t_dbm": 27.0, "g_t_dbi": 0.0,
             "g_r_dbi": 2.15, "duty_cycle": 0.10, "eirp_limit_dbm": 27.0},
    "capacitance_f": 6.8e-5,
    "grid": {"d_min_m": 1.0, "d_max_m": 7.0, "d_step_m": 0.5},
    "update_rate": {"measurement_overhead_s": 0.0},
    "sweep": {"distance_m": 4.5, "dwell_s": 1.0, "step_deg": 10.0,
              "tag_angles_deg": [-90.0, 0.0, 25.0], "n_elements": [1, 4, 8],
              "element_gain_dbi": 0.0, "spacing_wavelengths": 0.5},
}


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    timed: str   # the phase that fills the time budget: "fixes" or "tables"


WORKLOADS = {
    w.name: w for w in (
        Workload("fix-clean", {}, "fixes"),
        Workload("fix-noisy", {"channel": {"noise_std": 0.02}}, "fixes"),
        # a fine grid and a short dwell make the per-dwell precharge walk
        # the bulk of the work
        Workload("power-tables", {"grid": {"d_step_m": 0.01},
                                  "sweep": {"dwell_s": 3e-4}}, "tables"),
    )
}


def workload_config(workload: Workload) -> dict:
    cfg = copy.deepcopy(DEPLOYMENT)
    for group, values in workload.overrides.items():
        cfg[group].update(values)
    return cfg


@dataclass
class Tally:
    """Operation counts, check failures and timing samples of one run."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    fix_s: list = field(default_factory=list)
    ideal_ms: list = field(default_factory=list)
    survey_range_err_mm: list = field(default_factory=list)
    survey_pos_err_mm: list = field(default_factory=list)
    tables_s: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


class Room:
    """The workload's ranging scenario and its correctness bounds."""

    def __init__(self, cfg_dict: dict, cfg_path: Path):
        self.cfg = load_config(str(cfg_path))
        self.noisy = cfg_dict["channel"]["noise_std"] > 0
        c = cfg_dict["channel"]["speed_of_sound_mps"]
        self.audio_sample_m = c / cfg_dict["chirp"]["sample_rate_hz"]
        self.window_m = oracles.capture_window_m(cfg_dict)
        self.beacons = np.array(BEACONS)

    def exchanges(self, tag, offsets) -> list:
        """The channel to each beacon and the true distance, per beacon."""
        truth = oracles.distances(BEACONS, tag)
        return [(self.cfg.channel_at(d, seed_offset=int(o)), d)
                for d, o in zip(truth, offsets)]

    def fix(self, tally: Tally, tag, offsets, tracer: Tracer | None = None,
            survey: bool = False) -> float | None:
        """One one-bit fix.

        Returns the fix's host seconds, or None when an operation failed.
        """
        cfg = self.cfg
        channels, truth = zip(*self.exchanges(tag, offsets))
        tally.attempted += 1
        try:
            with tracer.span("bench.fix") if tracer else nullcontext():
                start = time.perf_counter()
                results = [ranging.simulate_ranging(
                    cfg.chirp, ch, cfg.timeline, mode="one-bit-backscatter",
                    fsk=cfg.fsk, threshold=cfg.comparator_threshold)
                    for ch in channels]
                fix = ranging.trilaterate(
                    self.beacons, np.array([r.distance for r in results]))
                elapsed = time.perf_counter() - start
        except OPERATION_ERRORS as exc:
            tally.failed += 1
            print(f"fix at {tag}: {exc}", file=sys.stderr)
            return None

        sample = self.audio_sample_m
        lo, hi = self.window_m
        for r, d in zip(results, truth):
            err = abs(r.distance - d)
            if self.noisy:
                tally.check(not r.clamped and lo <= r.distance <= hi,
                            f"one-bit {r.distance} m for {d} m is outside "
                            f"the capture window [{lo}, {hi}]")
            else:
                tally.check(err <= sample, f"one-bit {r.distance} m for {d} m")
            if survey:
                tally.survey_range_err_mm.append(err * 1e3)
        pos_err = math.dist(fix.coordinates, tag)
        if not self.noisy:
            tally.check(pos_err <= 2 * sample,
                        f"fix {fix.coordinates} for tag {tag}")
        if survey:
            tally.survey_pos_err_mm.append(pos_err * 1e3)

        return elapsed

    def ideal_round(self, tally: Tally, exchanges,
                    tracer: Tracer | None = None) -> None:
        """One survey tag's four distances ranged in ideal-audio mode."""
        cfg = self.cfg
        for ch, d in exchanges:
            tally.attempted += 1
            try:
                with tracer.span("bench.ideal") if tracer else nullcontext():
                    start = time.perf_counter()
                    r = ranging.simulate_ranging(cfg.chirp, ch, cfg.timeline,
                                                 mode="ideal-audio")
                    ms = (time.perf_counter() - start) * 1e3
            except OPERATION_ERRORS as exc:
                tally.failed += 1
                print(f"ideal exchange at {d} m: {exc}", file=sys.stderr)
                continue
            tally.ideal_ms.append(ms)
            tally.check(abs(r.distance - d) <= self.audio_sample_m,
                        f"ideal-audio {r.distance} m for {d} m")


def survey_inputs():
    for i, tag in enumerate(SURVEY):
        yield tag, [SURVEY_NOISE_OFFSET + 4 * i + j for j in range(4)], True


def seeded_inputs(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        tag = tuple(rng.uniform(TAG_MARGIN_M, ROOM_M - TAG_MARGIN_M, 2))
        yield tag, rng.integers(0, 1 << 20, 4), False


class Tables:
    """The four power tables rendered through the CLI, as a user would."""

    def __init__(self, cfg_dict: dict, cfg_path: Path, seed: int, out: Path):
        self.cfg_dict = cfg_dict
        self.argv = ["--config", str(cfg_path), "--seed", str(seed)]
        self.out = out
        out.mkdir(exist_ok=True)
        self.curve = oracles.read_curve(CURVE_CSV)
        self.first: dict[str, bytes] | None = None

    def round(self, tally: Tally, tracer: Tracer | None = None) -> float | None:
        paths = {cmd: self.out / f"{cmd}.csv" for cmd in TABLES}
        for path in paths.values():
            path.unlink(missing_ok=True)
        codes = []
        with tracer.span("bench.tables") if tracer else nullcontext():
            start = time.perf_counter()
            for cmd in TABLES:
                codes.append(cli.main([cmd, *self.argv, "--out", str(paths[cmd])]))
            elapsed = time.perf_counter() - start
        tally.attempted += len(TABLES)
        tally.failed += sum(code != 0 for code in codes)
        if any(codes):
            return None
        rendered = {cmd: p.read_bytes() for cmd, p in paths.items()}
        if self.first is None:
            self.first = rendered
            texts = {cmd: b.decode() for cmd, b in rendered.items()}
            for err in oracles.check_tables(texts, self.cfg_dict, self.curve):
                tally.check(False, err)
        for cmd in TABLES:
            tally.check(rendered[cmd] == self.first[cmd],
                        f"{cmd}: rerun is not byte-identical")
        return elapsed


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from chirploc.config import load_config
load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def setup_seconds(cfg_path: Path) -> float:
    """Seconds to import chirploc and resolve the config, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg_path)],
        capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def peak_alloc_mb(room: Room, tally: Tally) -> float:
    """Peak traced allocation, in MB, during the first survey fix."""
    tag, offsets, _ = next(survey_inputs())
    probe = Tally()
    tracemalloc.start()
    try:
        room.fix(probe, tag, offsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.attempted += probe.attempted
    tally.failed += probe.failed
    tally.errors += probe.errors
    return peak / 1e6


def spread_over(seconds: float, main, minimum: int, others) -> None:
    """Repeat ``main`` for ``seconds`` (and at least ``minimum`` times); run
    each ``(action, n)`` of ``others`` n times, spread evenly over the run.

    The host's speed drifts over tens of seconds, so every metric samples
    the whole run rather than one stretch of it.
    """
    done = [0] * len(others)
    count = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        finished = count >= minimum and elapsed >= seconds
        share = 1.0 if finished else min(1.0, elapsed / seconds)
        for i, (action, n) in enumerate(others):
            while done[i] < n * share:
                action()
                done[i] += 1
        if finished:
            return
        main()
        count += 1


class Run:
    """One run's operations; traced runs repeat each one under the tracer."""

    def __init__(self, room: Room, tables: Tables, cfg_path: Path,
                 tracer: Tracer | None):
        self.room, self.tables, self.cfg_path = room, tables, cfg_path
        self.tracer = tracer
        self.tally = Tally()
        self.setup_s: list[float] = []
        self.traced_fix_s: list[float] = []
        # Ideal rounds cycle over the survey, whose inputs are the same for
        # every seed: under noise, ideal-audio slips a cycle at some seeded
        # distances (CHANGES.md), which would fail on some seeds only.
        self.ideal_inputs = itertools.cycle(
            [room.exchanges(tag, offsets) for tag, offsets, _ in survey_inputs()])

    def fix(self, tag, offsets, survey: bool) -> None:
        elapsed = self.room.fix(self.tally, tag, offsets, survey=survey)
        if elapsed is not None:
            self.tally.fix_s.append(elapsed)
        if self.tracer is not None:
            with self.tracer.installed(RANGING_TARGETS):
                elapsed = self.room.fix(Tally(), tag, offsets, self.tracer)
            if elapsed is not None:
                self.traced_fix_s.append(elapsed)

    def ideal_round(self) -> None:
        exchanges = next(self.ideal_inputs)
        self.room.ideal_round(self.tally, exchanges)
        if self.tracer is not None:
            with self.tracer.installed(RANGING_TARGETS):
                self.room.ideal_round(Tally(), exchanges, self.tracer)

    def tables_round(self) -> None:
        elapsed = self.tables.round(self.tally)
        if elapsed is not None:
            self.tally.tables_s.append(elapsed)
        if self.tracer is not None:
            with self.tracer.installed(TABLE_TARGETS):
                self.tables.round(Tally(), self.tracer)

    def setup(self) -> None:
        self.setup_s.append(setup_seconds(self.cfg_path))


def end_to_end(tally: Tally, setup: list[float], peak_mb: float) -> dict:
    """The run's end-to-end metrics.

    Set-up, ideal exchanges and table rounds repeat the same work, and each
    reports its fastest repetition.  The host's speed drifts between fast and
    slow phases lasting from a tenth of a second to minutes, and slow phases
    only ever add time, so a median says mostly how much of the run fell in
    a slow phase.  Fixes vary with the tag and each spans many phases, so
    ``fix_s`` is a median.
    """
    median = statistics.median
    return {
        "setup_s": (min(setup), "s"),
        "fix_s": (median(tally.fix_s), "s"),
        "exchange_ideal_ms": (min(tally.ideal_ms), "ms"),
        "range_err_mm": (median(tally.survey_range_err_mm), "mm"),
        "pos_err_mm": (median(tally.survey_pos_err_mm), "mm"),
        "peak_alloc_mb": (peak_mb, "MB"),
        "tables_s": (min(tally.tables_s), "s"),
    }


# (metric, unit, root span, span name, statistic, per-unit divisor, scale)
PER_LAYER = [
    ("signals.gen_chirp_ms", "ms", "bench.fix", "signals.gen_chirp", "self_s", "exchange", 1e3),
    ("signals.reference_samples", "count", "bench.fix", "signals.gen_chirp", "value", "exchange", 1),
    ("signals.one_bit_quantize_ms", "ms", "bench.fix", "signals.one_bit_quantize", "self_s", "exchange", 1e3),
    ("signals.fsk_recover_stream_ms", "ms", "bench.fix", "signals.fsk_recover_stream", "self_s", "exchange", 1e3),
    ("signals.fsk_modulate_ms", "ms", "bench.fix", "signals.fsk_modulate", "self_s", "exchange", 1e3),
    ("signals.fsk_modulate_calls", "count", "bench.fix", "signals.fsk_modulate", "calls", "exchange", 1),
    ("signals.xcorr_offset_ms", "ms", "bench.ideal", "signals.xcorr_offset", "self_s", "ideal", 1e3),
    ("channel.propagate_acoustic_ms", "ms", "bench.fix", "channel.propagate_acoustic", "self_s", "exchange", 1e3),
    ("channel.sample_window_ms", "ms", "bench.fix", "channel.sample_window", "self_s", "exchange", 1e3),
    ("ranging.simulate_ranging_one_bit_ms", "ms", "bench.fix", "ranging.simulate_ranging", "total_s", "exchange", 1e3),
    ("ranging.simulate_ranging_ideal_ms", "ms", "bench.ideal", "ranging.simulate_ranging", "total_s", "ideal", 1e3),
    ("ranging.locate_self_ms", "ms", "bench.fix", "ranging.simulate_ranging", "self_s", "exchange", 1e3),
    ("ranging.trilaterate_ms", "ms", "bench.fix", "ranging.trilaterate", "self_s", "fix", 1e3),
    ("ranging.trilaterate_iterations", "count", "bench.fix", "ranging.trilaterate", "value", "fix", 1),
    ("wpt.beam_sweep_precharge_ms", "ms", "bench.tables", "wpt.beam_sweep_precharge", "self_s", "round", 1e3),
    ("wpt.array_factor_calls", "count", "bench.tables", "wpt.array_factor", "calls", "round", 1),
    ("energy.harvester_output_calls", "count", "bench.tables", "energy.harvester_output", "calls", "round", 1),
    ("energy.harvester_output_ms", "ms", "bench.tables", "energy.harvester_output", "self_s", "round", 1e3),
    ("config.load_config_ms", "ms", "bench.tables", "config.load_config", "self_s", "round", 1e3),
    ("tables.write_ms", "ms", "bench.tables", "tables.write", "self_s", "round", 1e3),
    ("cli.charge_curve_ms", "ms", "bench.tables", "cli.charge_curve", "total_s", "round", 1e3),
    ("cli.update_rate_ms", "ms", "bench.tables", "cli.update_rate", "total_s", "round", 1e3),
    ("cli.size_buffer_ms", "ms", "bench.tables", "cli.size_buffer", "total_s", "round", 1e3),
    ("cli.sweep_ms", "ms", "bench.tables", "cli.sweep", "total_s", "round", 1e3),
]


def per_layer(tracer: Tracer, untraced_fix_s: list, traced_fix_s: list) -> dict:
    summary = tracer.summary()
    fixes = summary.calls[("bench.fix", "bench.fix")]
    units = {"fix": fixes, "exchange": 4 * fixes,
             "ideal": summary.calls[("bench.ideal", "bench.ideal")],
             "round": summary.calls[("bench.tables", "bench.tables")]}
    metrics = {}
    for name, unit, root, span, stat, per, scale in PER_LAYER:
        table = getattr(summary, stat)
        metrics[name] = (scale * summary.per(table, root, span, units[per]), unit)
    overhead = statistics.median(traced_fix_s) - statistics.median(untraced_fix_s)
    metrics["trace.overhead_fix_ms"] = (overhead * 1e3, "ms")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 survey=None) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    workload = WORKLOADS[name]
    cfg_dict = workload_config(workload)
    OUT.mkdir(parents=True, exist_ok=True)
    cfg_path = OUT / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg_dict, indent=1))
    survey = list(survey_inputs()) if survey is None else list(survey)

    tables = Tables(cfg_dict, cfg_path, seed, OUT / name)
    run = Run(Room(cfg_dict, cfg_path), tables, cfg_path,
              Tracer() if trace else None)
    setups = 0 if trace else SETUP_REPEATS
    if setups:
        setup_seconds(cfg_path)  # unkept: fills the file cache

    if workload.timed == "fixes":
        fixes = itertools.chain(survey, seeded_inputs(seed))
        spread_over(seconds, lambda: run.fix(*next(fixes)), len(survey),
                    [(run.tables_round, TABLE_PROBE_ROUNDS),
                     (run.ideal_round, IDEAL_ROUNDS), (run.setup, setups)])
    else:
        survey *= TABLES_SURVEY_PASSES
        fixes = iter(survey)
        spread_over(seconds, run.tables_round, 2,
                    [(lambda: run.fix(*next(fixes)), len(survey)),
                     (run.ideal_round, IDEAL_ROUNDS), (run.setup, setups)])

    tally = run.tally
    if trace:
        run.tracer.write(OUT / f"trace-{name}-seed{seed}.json")
        metrics = per_layer(run.tracer, tally.fix_s, run.traced_fix_s)
    else:
        metrics = end_to_end(tally, run.setup_s, peak_alloc_mb(run.room, tally))
        samples = {"setup_s": run.setup_s, "fix_s": tally.fix_s,
                   "ideal_ms": tally.ideal_ms, "tables_s": tally.tables_s}
        (OUT / f"samples-{name}-seed{seed}.json").write_text(json.dumps(samples))

    for err in tally.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
