#!/usr/bin/env python3
"""Bench perf gate: current bench run vs committed baseline.

Compares a bench output file (``BENCH_codec_throughput.json``,
``BENCH_batch_throughput.json``, ``BENCH_service_loadgen.json``,
``BENCH_seek_latency.json``, or ``BENCH_read_path.json``) against its
committed snapshot under ``benchmarks/baselines/`` and fails when any
throughput metric regressed by more than the tolerance band (default
25%).

Raw fps is meaningless across machines, so every throughput metric is
first divided by its run's *yardstick* — a fixed numpy workload timed
by the same bench on the same host. The gate therefore checks::

    (current_fps / current_yardstick)
    ----------------------------------  >=  1 - tolerance
    (baseline_fps / baseline_yardstick)

for every (clip, metric) pair present in both files, and prints the
whole delta table either way. Which metrics are watched depends on the
file's ``exhibit`` field (see ``EXHIBIT_METRICS``); metrics present in
only one file are reported but never fail the gate (clips may be added
or renamed).

The batch-throughput exhibit additionally carries *absolute* floors:
``batch_speedup`` is a within-run ratio (both paths timed interleaved
on the same host), so it needs no yardstick and is gated against fixed
floors (``ABSOLUTE_FLOORS``) — the batched encode farm must stay >=
2.0x the per-clip path at width 32 and >= 1.5x at width 8, on any
host. The seek-latency and read-path exhibits carry floors of the same
kind (``seek_speedup``; ``keystream_speedup`` and ``memo_speedup``).

Usage::

    python tools/check_perf.py [--current BENCH_codec_throughput.json]
                               [--baseline benchmarks/baselines/codec_throughput.json]
                               [--tolerance 0.25]

To refresh the baseline after an intentional perf change, rerun the
bench at quick scale and copy its output over the baseline file.

Exits 0 when every shared metric is inside the band and every absolute
floor holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Per-clip throughput metrics the gate watches (higher is better),
#: keyed by the bench file's ``exhibit`` field.
EXHIBIT_METRICS = {
    "codec_throughput": ("encode_fps", "decode_fps"),
    "batch_throughput": ("clips_per_second",),
    "service_loadgen": ("ingest_clips_per_second", "reads_per_second"),
    "seek_latency": ("seeks_per_second", "full_reads_per_second"),
    "read_path": ("keystream_bytes_per_second",),
}

#: Absolute floors, keyed by exhibit then clip label: (metric, floor).
#: These metrics are within-run ratios — self-normalized, so they are
#: compared against a constant, not against the baseline file.
ABSOLUTE_FLOORS = {
    "batch_throughput": {
        "batch8": ("batch_speedup", 1.5),
        "batch32": ("batch_speedup", 2.0),
    },
    # Sustained ingest through the queue + batch path: ~20 clips/s on a
    # laptop; the floor only exists to catch an accidentally serialized
    # or quadratic ingest path, so it sits far below any healthy host.
    "service_loadgen": {
        "mixed": ("ingest_clips_per_second", 2.0),
    },
    # A random-access seek must be measurably cheaper than a whole-clip
    # read: speedup is timed interleaved within one run, so it is gated
    # against a constant. 2.0x at GOP 8 is deliberately conservative
    # for a 4-GOP clip (a seek touches ~1 of 4 GOPs).
    "seek_latency": {
        "gop8": ("seek_speedup", 2.0),
    },
    # The vectorized CTR keystream against the scalar one-block-per-call
    # loop, both timed interleaved in one run. A whole-object stream
    # (2048 B, 128 counter blocks) must decrypt >= 10x faster; a drop
    # below that means the batch kernel fell back to per-block work.
    # The warm keystream memo against the cold vectorized keystream on
    # the 720 B seek slice, timed interleaved in one run: a warm
    # StreamEncryptor.decrypt_at read 5.5 us against 188 us cold (34x)
    # on a 2-core x86-64 host. An encryptor whose memo stores nothing
    # derives the slice's whole prefix per call and reads below 1x.
    "read_path": {
        "bytes2048": ("keystream_speedup", 10.0),
        "bytes720": ("memo_speedup", 5.0),
    },
}


def load_clips(path: Path) -> tuple[str, float, dict]:
    """(exhibit, yardstick ops/s, {label -> record}) from a bench file."""
    payload = json.loads(path.read_text())
    exhibit = payload.get("exhibit", "codec_throughput")
    if exhibit not in EXHIBIT_METRICS:
        raise ValueError(f"{path}: unknown exhibit {exhibit!r}")
    yardstick = float(payload["yardstick_ops_per_second"])
    if yardstick <= 0:
        raise ValueError(f"{path}: non-positive yardstick {yardstick}")
    return exhibit, yardstick, {clip["label"]: clip for clip in payload["clips"]}


def compare(current_path: Path, baseline_path: Path, tolerance: float) -> int:
    """Print the delta table; return the number of failing metrics."""
    exhibit, current_yard, current = load_clips(current_path)
    base_exhibit, baseline_yard, baseline = load_clips(baseline_path)
    if exhibit != base_exhibit:
        raise ValueError(
            f"exhibit mismatch: current {exhibit!r} vs baseline "
            f"{base_exhibit!r} — wrong --baseline for this bench file?"
        )
    metrics = EXHIBIT_METRICS[exhibit]
    floors = ABSOLUTE_FLOORS.get(exhibit, {})

    host_ratio = current_yard / baseline_yard
    floor_pct = 100 * (1 - tolerance)
    print(f"perf gate: {current_path} vs {baseline_path}")
    print(f"yardstick: current {current_yard:.1f} ops/s, baseline", end=" ")
    print(f"{baseline_yard:.1f} ops/s (host speed ratio {host_ratio:.3f})")
    print(f"tolerance: fail below {floor_pct:.0f}% of baseline (normalized)")
    print()

    header = ("clip", "metric", "baseline", "current", "normalized", "status")
    rows = []
    failures = 0
    for label in sorted(set(current) | set(baseline)):
        if label not in current or label not in baseline:
            if label not in current:
                where = "baseline"
            else:
                where = "current run"
            rows.append((label, "-", "-", "-", "-", f"only in {where} (ignored)"))
            continue
        for metric in metrics:
            base = float(baseline[label][metric])
            cur = float(current[label][metric])
            ratio = (cur / current_yard) / (base / baseline_yard)
            if ratio < 1 - tolerance:
                status = "FAIL"
                failures += 1
            else:
                status = "ok"
            delta = f"{100 * (ratio - 1):+.1f}%"
            rows.append((label, metric, f"{base:.1f}", f"{cur:.1f}", delta, status))

    # Absolute floors are checked on the current run only: the metric
    # is already a within-run ratio, so the baseline adds nothing.
    for label in sorted(floors):
        metric, floor = floors[label]
        if label not in current:
            rows.append((label, metric, "-", "-", "-", "FAIL (missing label)"))
            failures += 1
            continue
        cur = float(current[label][metric])
        if cur < floor:
            status = "FAIL"
            failures += 1
        else:
            status = "ok"
        rows.append(
            (label, metric, f">= {floor:.2f}", f"{cur:.2f}", "absolute", status)
        )

    widths = []
    for i in range(len(header)):
        widths.append(max(len(str(row[i])) for row in rows + [header]))
    rule = tuple("-" * w for w in widths)
    for row in [header, rule] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))

    print()
    if failures:
        print(f"perf gate FAILED: {failures} metric(s) regressed more than", end=" ")
        print(f"{100 * tolerance:.0f}% vs the committed baseline.")
        print("If the regression is intentional, refresh the baseline file", end=" ")
        print(f"({baseline_path}) from a fresh quick-scale bench run.")
    else:
        print("perf gate passed: all metrics within the tolerance band.")
    return failures


def main(argv: list[str]) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current",
        type=Path,
        default=Path("BENCH_codec_throughput.json"),
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/baselines/codec_throughput.json"),
    )
    parser.add_argument("--tolerance", type=float, default=0.25)
    args = parser.parse_args(argv)
    if not 0 < args.tolerance < 1:
        parser.error(f"tolerance must be in (0, 1), got {args.tolerance}")
    return 1 if compare(args.current, args.baseline, args.tolerance) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
