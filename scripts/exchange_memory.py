#!/usr/bin/env python3
"""Print the working memory of one warm ranging exchange per mode and capture.

Per mode and per ``timeline.capture_duration_s`` in 0.5, 1, 2 and 4 ms, on
the default config otherwise, it ranges 3.2 m once to build the memoized
reference side, then again under ``tracemalloc`` and prints that second
call's peak.  The memo itself is not counted: it is built before tracing
starts.  The whole table takes about a second:

    PYTHONPATH=src python scripts/exchange_memory.py
"""

import tracemalloc

from chirploc.config import load_config
from chirploc.ranging import MODES, simulate_ranging

CAPTURES_S = (0.0005, 0.001, 0.002, 0.004)
DISTANCE_M = 3.2


def warm_peak(mode: str, capture_s: float) -> int:
    """The ``tracemalloc`` peak, in bytes, of a warm exchange."""
    cfg = load_config(sets=[f"timeline.capture_duration_s={capture_s}"])

    def exchange():
        simulate_ranging(cfg.chirp, cfg.channel_at(DISTANCE_M), cfg.timeline,
                         mode=mode, fsk=cfg.fsk,
                         threshold=cfg.comparator_threshold)

    exchange()
    tracemalloc.start()
    try:
        exchange()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    print("| mode | capture | warm peak |")
    print("| --- | --- | --- |")
    for mode in MODES:
        for capture_s in CAPTURES_S:
            peak = warm_peak(mode, capture_s)
            print(f"| {mode} | {capture_s * 1e3:g} ms | {peak / 1e6:.3f} MB |")


if __name__ == "__main__":
    main()
