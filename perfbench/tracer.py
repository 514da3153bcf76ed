"""In-memory span tracer that times chirploc's layers from outside.

Each traced function is replaced, under the name its caller looks it up by,
with a wrapper that records a span (name, start, end, parent).  Nothing in
``src/`` changes: ``uninstall`` puts every original back.  A target that no
longer exists (a stage a later change removed) is skipped, so its metrics
read zero calls instead of crashing the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import chirploc.cli as cli
import chirploc.ranging as ranging
import chirploc.tables as tables
import chirploc.wpt as wpt

# (owner, attribute, span name, value recorded from the result)
RANGING_TARGETS = [
    (ranging, "simulate_ranging", "ranging.simulate_ranging", None),
    (ranging, "trilaterate", "ranging.trilaterate", lambda fix: fix.iterations),
    (ranging, "gen_chirp", "signals.gen_chirp", len),
    (ranging, "one_bit_quantize", "signals.one_bit_quantize", None),
    (ranging, "fsk_modulate", "signals.fsk_modulate", None),
    (ranging, "fsk_recover_stream", "signals.fsk_recover_stream", None),
    (ranging, "xcorr_offset", "signals.xcorr_offset", None),
    (ranging, "propagate_acoustic", "channel.propagate_acoustic", None),
    (ranging, "sample_window", "channel.sample_window", None),
]
# cli.main dispatches through the COMMANDS dict, so the commands are wrapped
# there rather than as module attributes.
TABLE_TARGETS = [
    (cli.COMMANDS, "charge-curve", "cli.charge_curve", None),
    (cli.COMMANDS, "update-rate", "cli.update_rate", None),
    (cli.COMMANDS, "size-buffer", "cli.size_buffer", None),
    (cli.COMMANDS, "sweep", "cli.sweep", None),
    (cli, "load_config", "config.load_config", None),
    (cli, "beam_sweep_precharge", "wpt.beam_sweep_precharge", None),
    (cli, "harvester_output", "energy.harvester_output", None),
    (wpt, "harvester_output", "energy.harvester_output", None),
    (wpt, "array_factor", "wpt.array_factor", None),
    (tables.ResultTable, "write", "tables.write", None),
]


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner.get(attr)
    return getattr(owner, attr, None)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Records spans as ``[name, start, end, parent_index, value]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Root span around one of the benchmark's own operations."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, original, name, record):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if record is not None:
                self.spans[index][4] = record(result)
            return result
        return traced

    def install(self, targets) -> None:
        for owner, attr, name, record in targets:
            original = _get(owner, attr)
            if original is None:
                continue
            self._originals.append((owner, attr, original))
            _set(owner, attr, self._wrap(original, name, record))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            _set(owner, attr, original)
        self._originals.clear()

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "value"],
             "spans": self.spans}))

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans)


class SpanSummary:
    """Per-(root, name) totals: calls, whole-span seconds, self seconds, values.

    A span's self time is its duration minus the durations of its direct
    children; the root is the benchmark operation that caused the span.
    """

    def __init__(self, spans):
        child_time = [0.0] * len(spans)
        root = [""] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = name
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.value = defaultdict(float)
        for i, (name, start, end, _, value) in enumerate(spans):
            key = (root[i], name)
            self.calls[key] += 1
            self.total_s[key] += end - start
            self.self_s[key] += end - start - child_time[i]
            if value is not None:
                self.value[key] += value

    def per(self, table: dict, root: str, name: str, units: int) -> float:
        """Sum of ``table`` over spans ``name`` under ``root``, per unit."""
        return table[(root, name)] / units if units else 0.0
