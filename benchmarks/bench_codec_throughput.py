"""Single-thread codec throughput: encode/decode fps per resolution.

Times the vectorized codec on fixed synthetic clips at several
resolutions, records the per-stage breakdown from the encoder's and
decoder's StageClock aggregates, and writes the whole trajectory to
``BENCH_codec_throughput.json``.  The committed snapshot
``benchmarks/baselines/codec_throughput.json`` plus
``tools/check_perf.py`` turn that file into a CI perf gate: a >25%
yardstick-normalized drop in any throughput metric fails the build.

Because absolute fps varies wildly across machines, the payload also
carries a *yardstick*: a fixed numpy workload (int16 absolute-diff
reductions plus a float64 matmul, the codec's own op mix) measured on
the same host.  Comparisons divide fps by the yardstick rate so the
gate tracks codec efficiency, not runner hardware.

Scale comes from ``REPRO_BENCH_SCALE`` (quick/full, see conftest.py).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.codec import EncoderConfig
from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder
from repro.obs import trace
from repro.video import SceneConfig, synthesize_scene

OUTPUT = Path("BENCH_codec_throughput.json")

#: (label, width, height, frames) per scale.  Clips are synthesized with
#: a pinned seed so every run times identical work.
_RESOLUTIONS = {
    "quick": (
        ("qcif-ish", 96, 64, 8),
        ("cif-ish", 160, 96, 6),
    ),
    "full": (
        ("qcif-ish", 96, 64, 24),
        ("cif-ish", 160, 96, 16),
        ("hd-ish", 256, 144, 10),
    ),
}

#: Timing repeats (best-of) per scale.
_REPEATS = {"quick": 3, "full": 5}

_CONFIG = EncoderConfig(crf=24, gop_size=8)

#: Pre-vectorization (scalar codec) throughput on the quick-scale
#: clips, measured on the dev host with this same harness in paired,
#: alternating runs (medians of 3 rounds; host yardstick ~2455 ops/s at
#: measurement time). Used to report speedup-vs-seed; the CI gate
#: instead compares against benchmarks/baselines/codec_throughput.json.
SEED_REFERENCE = {
    "qcif-ish": {"encode_fps": 15.3, "decode_fps": 176.3},
    "cif-ish": {"encode_fps": 6.45, "decode_fps": 122.0},
}


def _best_of(repeats, fn):
    """Best (minimum) wall-clock seconds of ``repeats`` calls to fn."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def yardstick_rate(repeats: int = 3) -> float:
    """Relative host speed on the codec's op mix, in arbitrary ops/s.

    Runs a fixed workload — int16 absolute-difference reductions (the
    SAD kernels) and a float64 matmul (the batched rect-SAD product) —
    and returns iterations/second.  Dividing codec fps by this rate
    cancels most host-speed variation, so a committed baseline from one
    machine remains comparable on another.
    """
    rng = np.random.default_rng(2017)
    a = rng.integers(0, 256, size=(64, 4096), dtype=np.int16)
    b = rng.integers(0, 256, size=(64, 4096), dtype=np.int16)
    m = rng.random((4096, 16))
    mask = rng.random((16, 41))

    def _workload():
        for _ in range(40):
            np.abs(a - b).sum(axis=1, dtype=np.int32)
            m @ mask
        return None

    _workload()  # warm caches before timing
    seconds, _ = _best_of(repeats, _workload)
    return 40 / seconds


def _stage_breakdown(video, encoded):
    """Per-stage seconds from one traced encode + decode."""
    tracer = trace.enable()
    try:
        Encoder(_CONFIG).encode(video)
        list(Decoder().decode(encoded))
        totals = {}
        for record in tracer.drain():
            if record.attrs.get("aggregate"):
                name = record.name
                totals[name] = totals.get(name, 0.0) + record.duration
    finally:
        trace.disable()
    return {name: round(s, 6) for name, s in sorted(totals.items())}


def test_codec_throughput(scale):
    del scale  # geometry is fixed per REPRO_BENCH_SCALE below
    scale_name = os.environ.get("REPRO_BENCH_SCALE", "quick")
    repeats = _REPEATS[scale_name]
    yardstick = yardstick_rate()

    rows = []
    clips = []
    for label, width, height, frames in _RESOLUTIONS[scale_name]:
        scene = SceneConfig(
            width=width,
            height=height,
            num_frames=frames,
            seed=5,
            num_objects=3,
        )
        video = synthesize_scene(scene)
        encoder = Encoder(_CONFIG)
        encode_s, encoded = _best_of(repeats, lambda: encoder.encode(video))
        # A fresh decoder per timed decode: one kept across repeats
        # would serve every frame from its memo after the first.
        decode_s, _ = _best_of(repeats, lambda: list(Decoder().decode(encoded)))
        encode_fps = frames / encode_s
        decode_fps = frames / decode_s
        mbs = (width // 16) * (height // 16) * frames
        if scale_name == "quick":
            seed = SEED_REFERENCE.get(label)
        else:
            seed = None
        if seed:
            speedup = f"{encode_fps / seed['encode_fps']:.2f}x"
        else:
            speedup = "-"
        rows.append(
            (
                label,
                f"{width}x{height}",
                str(frames),
                f"{encode_fps:.1f}",
                f"{decode_fps:.1f}",
                f"{mbs / encode_s:.0f}",
                speedup,
            )
        )
        clip = {
            "label": label,
            "width": width,
            "height": height,
            "frames": frames,
            "encode_seconds": encode_s,
            "decode_seconds": decode_s,
            "encode_fps": encode_fps,
            "decode_fps": decode_fps,
            "encode_mb_per_second": mbs / encode_s,
            "stream_bytes": len(encoded.serialize()),
            "stages": _stage_breakdown(video, encoded),
        }
        if seed:
            clip["seed_encode_fps"] = seed["encode_fps"]
            clip["encode_speedup_vs_seed"] = encode_fps / seed["encode_fps"]
            clip["decode_speedup_vs_seed"] = decode_fps / seed["decode_fps"]
        clips.append(clip)

    header = ("clip", "size", "frames", "enc fps", "dec fps", "enc MB/s", "vs seed")
    print()
    print(format_table(header, rows, title="single-thread codec throughput"))
    print(f"yardstick: {yardstick:.1f} ops/s")

    payload = {
        "exhibit": "codec_throughput",
        "scale": scale_name,
        "config": {"crf": _CONFIG.crf, "gop_size": _CONFIG.gop_size},
        "yardstick_ops_per_second": yardstick,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "clips": clips,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT.resolve()}")
