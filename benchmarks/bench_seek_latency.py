"""Random-access seek latency: partial decode must beat whole-clip.

Runs a frozen seek schedule against a nominal-age
:class:`~repro.service.store.VideoObjectStore` (GOP cache disabled, so
every seek pays the real partial-read + partial-decode cost) and writes
``BENCH_seek_latency.json``. The committed snapshot
``benchmarks/baselines/seek_latency.json`` plus ``tools/check_perf.py``
gate:

* yardstick-normalized ``seeks_per_second`` (regression band) — the
  end-to-end rate of `get_frame` including shard range reads, CTR
  counter-jump decryption, merge, and GOP decode;
* yardstick-normalized ``full_reads_per_second`` (regression band) —
  the rate of whole-object `get`s (every stream fetched, decrypted,
  merged and decoded), i.e. the read path's reads/sec;
* an **absolute floor** on ``seek_speedup`` at GOP 8 — one seek must
  run >= 2x faster than one whole-clip read of the same object. Both
  paths are timed interleaved on the same host, so the ratio needs no
  yardstick; it is the PR's acceptance criterion ("partial decode is
  provably cheaper than whole-clip decode at GOP >= 8") as a number;
* an **absolute floor** on ``miss_length_ratio`` — a GOP-cache miss
  must cost about the same in a long clip as in a short one. The same
  four GOPs are read from a 32-frame and a 256-frame clip (64x48, GOP
  8) with the decoder's frame memo warm, so a miss is all fetch, merge
  and validation; the ratio is the short clip's thread CPU per miss
  over the long clip's, timed in interleaved rounds. A miss whose work
  grows with the object reads about 0.5 here, one that follows its
  GOP's dependency closure about 1.0.

Each repeat's deterministic outputs (outcomes, per-seek PSNR of the
served frame against the source clip, byte accounting) are hashed and
must agree across repeats — a nondeterministic seek path can never
publish a latency exhibit.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.codec import EncoderConfig
from repro.metrics import psnr
from repro.service import VideoObjectStore
from repro.video import SceneConfig, VideoSequence, synthesize_scene

from bench_codec_throughput import yardstick_rate

OUTPUT = Path("BENCH_seek_latency.json")

#: Frozen recipe per scale:
#: (width, height, frames, gop_sizes, seeks, seed).
_RECIPES = {
    "quick": (64, 48, 32, (8, 4), 12, 5),
    "full": (96, 64, 48, (8, 4), 24, 5),
}

#: Timing repeats (best-of) per scale.
_REPEATS = {"quick": 3, "full": 3}

#: Miss-length recipe (same at every scale): width, height, short and
#: long clip frames, GOP, anchors of the GOPs read, timed rounds, seed.
_MISS_RECIPE = (64, 48, 32, 256, 8, (0, 8, 16, 24), 15, 5)


def _run_once(video, gop_size, seeks, seed):
    """One timed pass; returns (record dict, deterministic digest)."""
    store = VideoObjectStore(
        config=EncoderConfig(crf=28, gop_size=gop_size, bframes=1),
        seek_cache=0)
    object_id = store.put("bench", video)
    record = store.record("bench", object_id)
    rng = np.random.default_rng(seed)
    displays = rng.integers(0, record.frames, size=seeks)
    draw_seeds = rng.integers(0, 2**63 - 1, size=seeks + 1)

    determinism = []
    seek_ms = []
    for which in range(seeks):
        # A copy carries no decoder frame memo: every timed op decodes
        # all of its frames, so the ratio compares partial with whole
        # decodes rather than memo hits.
        store = copy.deepcopy(store)
        begin = time.perf_counter()
        result = store.get_frame(
            "bench", object_id, int(displays[which]),
            rng=np.random.default_rng(int(draw_seeds[which])))
        seek_ms.append((time.perf_counter() - begin) * 1000.0)
        determinism.append({
            "display": int(displays[which]),
            "outcome": result.outcome,
            "psnr_db": (None if result.frame is None
                        else round(psnr(video.frames[result.display],
                                        result.frame), 3)),
            "frames_decoded": result.frames_decoded,
            "bytes_read": result.bytes_read,
        })
    store = copy.deepcopy(store)
    begin = time.perf_counter()
    full = store.get("bench", object_id,
                     rng=np.random.default_rng(int(draw_seeds[seeks])))
    full_ms = (time.perf_counter() - begin) * 1000.0
    determinism.append({"full_outcome": full.outcome})

    mean_seek = float(np.mean(seek_ms))
    rec = {
        "label": f"gop{gop_size}",
        "gop_size": gop_size,
        "seeks": seeks,
        "seeks_per_second": 1000.0 / mean_seek,
        "seek_p50_ms": float(np.percentile(seek_ms, 50)),
        "seek_p99_ms": float(np.percentile(seek_ms, 99)),
        "full_read_ms": full_ms,
        "full_reads_per_second": 1000.0 / full_ms,
        "seek_speedup": full_ms / mean_seek,
    }
    digest = hashlib.sha256(
        json.dumps(determinism, sort_keys=True).encode()).hexdigest()
    return rec, digest


def _miss_length_record():
    """Warm-memo GOP-miss CPU at two clip lengths (see the module
    docstring); returns the ``miss_length`` clip record."""
    width, height, short_frames, long_frames, gop, anchors, rounds, seed = \
        _MISS_RECIPE
    long_clip = synthesize_scene(SceneConfig(
        width=width, height=height, num_frames=long_frames, seed=seed))
    short_clip = VideoSequence(long_clip.frames[:short_frames],
                               fps=long_clip.fps)
    store = VideoObjectStore(
        config=EncoderConfig(crf=28, gop_size=gop, bframes=1),
        seek_cache=0)
    objects = {"short": store.put("bench", short_clip),
               "long": store.put("bench", long_clip)}

    def misses(name):
        # One device seed per GOP: every re-read returns the same bytes,
        # so after the warm pass each decode is a frame-memo hit.
        began = time.thread_time()
        for anchor in anchors:
            store.get_frame("bench", objects[name], anchor,
                            rng=np.random.default_rng(seed + anchor))
        return (time.thread_time() - began) / len(anchors) * 1e6

    for name in objects:
        misses(name)
    cpu_us = {name: [] for name in objects}
    for which in range(rounds):
        for name in (("short", "long") if which % 2 == 0
                     else ("long", "short")):
            cpu_us[name].append(misses(name))
    short_us = float(np.median(cpu_us["short"]))
    long_us = float(np.median(cpu_us["long"]))
    return {
        "label": "miss_length",
        "short_frames": short_frames,
        "long_frames": long_frames,
        "short_miss_cpu_us": short_us,
        "long_miss_cpu_us": long_us,
        "miss_length_ratio": short_us / long_us,
    }


def test_seek_latency(scale):
    del scale  # recipe geometry is fixed per REPRO_BENCH_SCALE below
    scale_name = os.environ.get("REPRO_BENCH_SCALE", "quick")
    width, height, frames, gop_sizes, seeks, seed = _RECIPES[scale_name]
    repeats = _REPEATS[scale_name]
    yardstick = yardstick_rate()
    video = synthesize_scene(SceneConfig(
        width=width, height=height, num_frames=frames, seed=seed))

    clips = []
    for gop_size in gop_sizes:
        best = None
        digests = set()
        for _ in range(repeats):
            rec, digest = _run_once(video, gop_size, seeks, seed)
            digests.add(digest)
            if best is None or rec["seeks_per_second"] > \
                    best["seeks_per_second"]:
                best = rec
        assert len(digests) == 1, (
            f"seek path is nondeterministic at gop={gop_size}: "
            f"{len(digests)} distinct digests across {repeats} runs")
        clips.append(best)
    misses = _miss_length_record()
    clips.append(misses)

    print()
    print(format_table(
        ("gop", "seeks/s", "p50 ms", "p99 ms", "full ms", "speedup"),
        [(c["label"], f"{c['seeks_per_second']:.2f}",
          f"{c['seek_p50_ms']:.1f}", f"{c['seek_p99_ms']:.1f}",
          f"{c['full_read_ms']:.1f}", f"{c['seek_speedup']:.2f}x")
         for c in clips if "seek_speedup" in c],
        title=f"seek latency, {frames}f {width}x{height}, "
              f"{seeks} seeks (best of {repeats})"))
    print(f"warm GOP miss: {misses['short_miss_cpu_us']:.0f} us CPU at "
          f"{misses['short_frames']} frames, "
          f"{misses['long_miss_cpu_us']:.0f} us at "
          f"{misses['long_frames']} frames "
          f"(miss_length_ratio {misses['miss_length_ratio']:.2f})")
    print(f"yardstick: {yardstick:.1f} ops/s")

    payload = {
        "exhibit": "seek_latency",
        "scale": scale_name,
        "recipe": {"width": width, "height": height, "frames": frames,
                   "gop_sizes": list(gop_sizes), "seeks": seeks,
                   "seed": seed},
        "yardstick_ops_per_second": yardstick,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "clips": clips,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT.resolve()}")
