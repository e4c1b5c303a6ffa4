"""Batched encode-farm throughput: stacked clips vs one-at-a-time.

Times the same 32-clip corpus two ways — per-clip
(``Encoder.encode`` + ``Decoder.decode`` per clip, the pre-farm
pipeline) and batched (``encode_batch_with_recon`` at widths 1, 8, 16,
and 32, which stacks all clips through each vectorized stage and
reuses the encoder's closed-loop reconstruction instead of
re-decoding) — and writes ``BENCH_batch_throughput.json``. Width 1 is
what every one-clip ``put`` runs; its ``batch1`` row is informational
(no floor, no baseline row).  The
committed snapshot ``benchmarks/baselines/batch_throughput.json`` plus
``tools/check_perf.py`` gate two things in CI:

* yardstick-normalized ``clips_per_second`` per label (regression band,
  like the codec-throughput gate);
* the absolute ``batch_speedup`` floor — the ratio is self-normalized
  (both paths timed on the same host in the same run), so it is gated
  host-independently: >= 2.0x at width 32, >= 1.5x at width 8.

The two paths are interleaved within each timing repeat (per-clip
pass, then each batch width, repeated) so cache and scheduler noise
lands on both alternatives equally; each label keeps its best repeat.
Before any timing, the batched streams are asserted byte-identical to
the per-clip streams, at ``bframes=1`` as well as at the timed config —
the farm's speed is only interesting because it changes nothing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.codec import EncoderConfig
from repro.codec.batch import encode_batch_with_recon
from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder
from repro.video.frame import VideoSequence

from bench_codec_throughput import yardstick_rate

OUTPUT = Path("BENCH_batch_throughput.json")

#: Corpus geometry per scale: (clips, width, height, frames). Many
#: small clips — the Monte Carlo campaign workload the farm exists
#: for — not a few large ones.
_CORPUS = {
    "quick": (32, 48, 32, 8),
    "full": (32, 48, 32, 24),
}

#: Timing repeats (best-of) per scale.
_REPEATS = {"quick": 5, "full": 5}

#: Batch widths measured; the corpus splits evenly into each.
BATCH_WIDTHS = (1, 8, 16, 32)

_CONFIG = EncoderConfig(crf=24, gop_size=8)


def _noise_clip(seed, width, height, frames):
    """Panning sensor-noise content: dense residuals, real motion."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 200, size=(height, width), dtype=np.int32)
    stack = []
    for t in range(frames):
        frame = np.clip(
            base + rng.integers(-20, 20, size=base.shape) + 10 * t % 50,
            0, 255)
        stack.append(np.roll(frame, shift=t, axis=1))
    return VideoSequence.from_array(np.stack(stack).astype(np.uint8))


def _corpus(scale_name):
    """A noisy-sensor capture campaign: many small panning-noise clips.

    This is the paper's approximate-storage workload shape — dense
    residual content from one sensor, arriving as a stream of short
    uniform clips — and the shape the farm batches best: every clip in
    a batch reaches the same coding decisions at the same time, so the
    stacked kernels stay fully occupied.
    """
    clips, width, height, frames = _CORPUS[scale_name]
    return [_noise_clip(200 + index, width, height, frames)
            for index in range(clips)]


def _per_clip_pass(videos, config=_CONFIG):
    """The pre-farm pipeline: encode then decode every clip."""
    streams = []
    for video in videos:
        encoded = Encoder(config).encode(video)
        # A fresh decoder per clip, as a one-clip pipeline has: the
        # reference pass must not reuse a memo across repeats.
        list(Decoder().decode(encoded))
        streams.append(encoded)
    return streams


def _batched_pass(videos, width, config=_CONFIG):
    """The farm pipeline: stacked encode with closed-loop recon."""
    streams = []
    for start in range(0, len(videos), width):
        encoded, _recon = encode_batch_with_recon(
            videos[start:start + width], config)
        streams.extend(encoded)
    return streams


def test_batch_throughput(scale):
    del scale  # corpus geometry is fixed per REPRO_BENCH_SCALE below
    scale_name = os.environ.get("REPRO_BENCH_SCALE", "quick")
    repeats = _REPEATS[scale_name]
    videos = _corpus(scale_name)
    yardstick = yardstick_rate()

    # Correctness first: the batched path must produce the exact bytes
    # the per-clip path produces, at every width.
    reference = [s.serialize() for s in _per_clip_pass(videos)]
    for width in BATCH_WIDTHS:
        batched = [s.serialize() for s in _batched_pass(videos, width)]
        assert batched == reference, (
            f"width-{width} batched streams diverge from per-clip")
    # B-frames take the same batched decision path; check it at the
    # widest batch too. Untimed: the timed passes stay at _CONFIG.
    bframe_config = dataclasses.replace(_CONFIG, bframes=1)
    widest = BATCH_WIDTHS[-1]
    per_clip = [s.serialize()
                for s in _per_clip_pass(videos, bframe_config)]
    batched = [s.serialize()
               for s in _batched_pass(videos, widest, bframe_config)]
    assert batched == per_clip, (
        f"width-{widest} batched B-frame streams diverge from per-clip")

    # Interleaved best-of timing: each repeat runs every alternative.
    labels = ["per-clip"] + [f"batch{w}" for w in BATCH_WIDTHS]
    best = {label: float("inf") for label in labels}
    for _ in range(repeats):
        start = time.perf_counter()
        _per_clip_pass(videos)
        best["per-clip"] = min(best["per-clip"],
                               time.perf_counter() - start)
        for width in BATCH_WIDTHS:
            start = time.perf_counter()
            _batched_pass(videos, width)
            best[f"batch{width}"] = min(best[f"batch{width}"],
                                        time.perf_counter() - start)

    num_clips = len(videos)
    frames = len(videos[0])
    rows = []
    records = []
    for label in labels:
        seconds = best[label]
        speedup = best["per-clip"] / seconds
        rows.append((label, f"{seconds:.2f}",
                     f"{num_clips / seconds:.2f}",
                     f"{num_clips * frames / seconds:.1f}",
                     f"{speedup:.2f}x"))
        record = {
            "label": label,
            "clips": num_clips,
            "frames_per_clip": frames,
            "seconds": seconds,
            "clips_per_second": num_clips / seconds,
            "frames_per_second": num_clips * frames / seconds,
            "batch_speedup": speedup,
        }
        if label.startswith("batch"):
            record["batch_size"] = int(label[len("batch"):])
        records.append(record)

    print()
    print(
        format_table(
            ("path", "seconds", "clips/s", "frames/s", "speedup"),
            rows,
            title=f"batched encode-farm throughput (best of {repeats})",
        )
    )
    print(f"yardstick: {yardstick:.1f} ops/s")

    payload = {
        "exhibit": "batch_throughput",
        "scale": scale_name,
        "config": {"crf": _CONFIG.crf, "gop_size": _CONFIG.gop_size},
        "corpus": {"clips": num_clips,
                   "width": videos[0].width,
                   "height": videos[0].height,
                   "frames": frames},
        "yardstick_ops_per_second": yardstick,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "clips": records,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT.resolve()}")
