"""Parallel trial-engine scaling: trials/sec vs worker count.

Runs one fixed Monte Carlo campaign (a `quality_sweep` over every
payload bit of the bench video) serially and at 1/2/4/8 workers,
asserts that every configuration reproduces the serial results bitwise,
and writes the measured throughput trajectory to
``BENCH_parallel_scaling.json`` so regressions are trackable run over
run.

Every configuration is timed best-of-3: pool startup, page-cache state,
and scheduler noise all perturb a single run, and the minimum elapsed
time is the stable estimator of what the configuration can deliver.

Speedup is only asserted when the host can actually deliver it: set
``REPRO_REQUIRE_SCALING=1`` on a machine with >= 4 physical cores to
enforce the >= 2.5x target at 4 workers. On starved CI runners or a
single-core box (flagged ``single_core_host`` in the payload) the
numbers are still measured and recorded.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np

from repro.analysis import format_table, quality_sweep
from repro.runtime import fork_available, session_cache

#: Worker counts probed after the serial baseline.
WORKER_COUNTS = (1, 2, 4, 8)
RATES = (1e-4, 1e-3, 1e-2)
#: Timing repeats per configuration; the fastest run is recorded.
REPEATS = 3
OUTPUT = Path("BENCH_parallel_scaling.json")


def _campaign(encoded, video, clean, runs, workers):
    return quality_sweep(encoded, video, clean, None, rates=RATES,
                         runs=runs, rng=np.random.default_rng(97),
                         workers=workers)


def _best_of(repeats, fn):
    """Fastest campaign of ``repeats`` runs, by wall-clock elapsed."""
    best = None
    for _ in range(repeats):
        result = fn()
        if best is None or (result.stats.elapsed_seconds
                            < best.stats.elapsed_seconds):
            best = result
    return best


def test_parallel_scaling(benchmark, bench_video, bench_config, scale,
                          bench_workers):
    del bench_workers  # this exhibit sweeps the worker axis itself
    cache = session_cache()
    encoded = cache.encode(bench_video, bench_config)
    clean = cache.clean_decode(bench_video, bench_config)
    # Enough trials that per-trial decode work dominates one-time pool
    # startup: 48 trials at quick scale (~50 ms/trial).
    runs = max(16, 2 * scale.runs)

    serial = benchmark.pedantic(
        _campaign, args=(encoded, bench_video, clean, runs, 0),
        rounds=1, iterations=1)
    for _ in range(REPEATS - 1):
        repeat = _campaign(encoded, bench_video, clean, runs, 0)
        assert repeat == serial, "serial repeat results diverge"
        if repeat.stats.elapsed_seconds < serial.stats.elapsed_seconds:
            serial = repeat
    configurations = [(0, serial)]
    for workers in WORKER_COUNTS:
        if not fork_available():
            break

        def run(workers=workers):
            result = _campaign(encoded, bench_video, clean, runs, workers)
            # The engine's core guarantee: fan-out never changes the
            # numbers (RunStats is excluded from equality).
            assert result == serial, f"{workers}-worker results diverge"
            return result

        configurations.append((workers, _best_of(REPEATS, run)))

    serial_rate = serial.stats.trials_per_second
    rows = []
    records = []
    for workers, result in configurations:
        stats = result.stats
        speedup = stats.trials_per_second / serial_rate
        rows.append((("serial" if workers == 0 else str(workers)),
                     f"{stats.elapsed_seconds:.2f}",
                     f"{stats.trials_per_second:.2f}",
                     f"{speedup:.2f}x"))
        records.append({
            "workers": workers,
            "trials": stats.trials,
            "elapsed_seconds": stats.elapsed_seconds,
            "trials_per_second": stats.trials_per_second,
            "speedup_vs_serial": speedup,
            "started_unix": stats.started_unix,
        })
    print()
    print(format_table(("workers", "elapsed s", "trials/s", "speedup"),
                       rows, title="trial-engine parallel scaling "
                                   f"(best of {REPEATS})"))

    payload = {
        "exhibit": "parallel_scaling",
        "scale": os.environ.get("REPRO_BENCH_SCALE", "quick"),
        "video": {"width": bench_video.width,
                  "height": bench_video.height,
                  "frames": len(bench_video)},
        "rates": list(RATES),
        "runs_per_rate": runs,
        "timing_repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "single_core_host": os.cpu_count() == 1,
        "platform": platform.platform(),
        "fork_available": fork_available(),
        "results": records,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT.resolve()}")

    if os.environ.get("REPRO_REQUIRE_SCALING") == "1":
        by_workers = {r["workers"]: r for r in records}
        assert 4 in by_workers, "4-worker configuration did not run"
        assert by_workers[4]["speedup_vs_serial"] >= 2.5, (
            f"4-worker speedup {by_workers[4]['speedup_vs_serial']:.2f}x "
            f"is below the 2.5x target")
