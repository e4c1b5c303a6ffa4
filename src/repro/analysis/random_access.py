"""Random-access read exhibit: seek latency × quality × compression.

The paper's evaluation decodes whole clips; serving and dataset-loading
workloads ask for *one frame now*. This exhibit ports the lerobot video
benchmark's metric set (per-seek load time, compression ratio) onto
approximate storage: a grid of (GOP size × CRF × shard age) cells, each
ingesting the clip into a :class:`~repro.service.store.VideoObjectStore`
and serving a seeded schedule of random ``get_frame`` seeks, reporting

* **compression ratio** — raw pixel bits over total container bits;
* **seek latency** — wall-clock p50/p99 over cache-miss seeks, plus
  the measured speedup of a partial-GOP seek over one whole-clip read
  (the number the ``seek-perf-gate`` CI exhibit floors);
* **PSNR under damage** — mean PSNR of each served frame against the
  source clip, with the four-outcome tally (clean / corrected /
  concealed / refused) showing *how* the quality was served;
* **read economics** — mean fraction of the object's ciphertext the
  seek actually pulled off the shards, and GOP-cache hit counts.

Everything except the wall-clock latencies is deterministic given the
sweep seed, and :meth:`RandomAccessResult.sweep_digest` hashes exactly
that deterministic subset — the ``seek-smoke`` CI job runs the frozen
demo recipe twice and asserts digest equality.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codec.config import EncoderConfig
from ..errors import AnalysisError
from ..metrics.psnr import psnr
from ..obs import trace as obs_trace
from ..service.shards import ShardPool
from ..service.store import VideoObjectStore
from ..storage.mlc import MLCCellModel
from ..video.frame import VideoSequence

#: Default sweep axes for the demo recipe: two GOP regimes the paper's
#: Table 2 brackets, two quality targets, nominal and aged shards.
DEFAULT_GOP_SIZES: Tuple[int, ...] = (4, 12)
DEFAULT_CRFS: Tuple[int, ...] = (24, 32)
DEFAULT_AGES: Tuple[Optional[float], ...] = (None, 3650.0)

#: Tenant the exhibit ingests under.
TENANT = "seek-exhibit"


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass(frozen=True)
class SeekCell:
    """One (GOP size, CRF, shard age) cell of the sweep."""

    gop_size: int
    crf: int
    t_days: Optional[float]
    compression_ratio: float
    psnr_db: float                 #: mean over served frames
    outcomes: Dict[str, int]
    seeks: int
    cache_hits: int
    frames_decoded_mean: float     #: per cold seek
    bytes_read_fraction: float     #: mean fetched/total per cold seek
    seek_p50_ms: float             #: cold (cache-miss) seeks only
    seek_p99_ms: float
    full_read_ms: float            #: one whole-clip read of the object
    speedup: float                 #: full_read_ms / mean cold seek ms

    def digest_fields(self) -> Dict[str, object]:
        """The deterministic subset (no wall-clock numbers)."""
        return {
            "gop_size": self.gop_size,
            "crf": self.crf,
            "t_days": self.t_days,
            "compression_ratio": round(self.compression_ratio, 6),
            "psnr_db": round(self.psnr_db, 3),
            "outcomes": dict(sorted(self.outcomes.items())),
            "seeks": self.seeks,
            "cache_hits": self.cache_hits,
            "frames_decoded_mean": round(self.frames_decoded_mean, 4),
            "bytes_read_fraction": round(self.bytes_read_fraction, 6),
        }


@dataclass
class RandomAccessResult:
    """A full random-access sweep over the (GOP × CRF × age) grid."""

    cells: List[SeekCell]
    seed: int
    width: int
    height: int
    frames: int

    def sweep_digest(self) -> str:
        """SHA-256 over the deterministic sweep outputs.

        Latency numbers are wall-clock and excluded; two runs of the
        same recipe on any machine must produce the same digest.
        """
        payload = {
            "seed": self.seed, "width": self.width,
            "height": self.height, "frames": self.frames,
            "cells": [cell.digest_fields() for cell in self.cells],
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed, "width": self.width,
            "height": self.height, "frames": self.frames,
            "sweep_digest": self.sweep_digest(),
            "cells": [{**cell.digest_fields(),
                       "seek_p50_ms": cell.seek_p50_ms,
                       "seek_p99_ms": cell.seek_p99_ms,
                       "full_read_ms": cell.full_read_ms,
                       "speedup": cell.speedup}
                      for cell in self.cells],
        }


def run_random_access_sweep(
        video: VideoSequence,
        gop_sizes: Sequence[int] = DEFAULT_GOP_SIZES,
        crfs: Sequence[int] = DEFAULT_CRFS,
        ages: Sequence[Optional[float]] = DEFAULT_AGES,
        seeks: int = 24,
        seed: int = 17,
        shards: int = 3,
        seek_cache: int = 16,
        cell_model: Optional[MLCCellModel] = None,
        bframes: int = 1) -> RandomAccessResult:
    """Sweep random-access reads over GOP size × CRF × shard age.

    Each cell builds a fresh store (so shard ages don't bleed across
    cells), ingests the clip, and serves ``seeks`` frame reads at
    displays drawn from a seed-derived schedule. Per-seek device error
    draws are seeded from the same schedule, so outcomes, PSNR, and
    byte accounting replay exactly; only the latencies are wall-clock.
    """
    if seeks < 1:
        raise AnalysisError(f"need at least one seek, got {seeks}")
    if not gop_sizes or not crfs or not ages:
        raise AnalysisError("every sweep axis needs at least one value")
    cells: List[SeekCell] = []
    raw_bits = 8 * video.total_pixels
    master = np.random.SeedSequence(seed)
    with obs_trace.span("seek.sweep", cells=len(gop_sizes) * len(crfs)
                        * len(ages), seeks=seeks):
        for gop_size in gop_sizes:
            for crf in crfs:
                for age in ages:
                    cell_seed, master = master.spawn(2)
                    cells.append(_run_cell(
                        video, gop_size, crf, age, seeks, cell_seed,
                        shards, seek_cache, cell_model, bframes,
                        raw_bits))
    return RandomAccessResult(cells=cells, seed=seed, width=video.width,
                              height=video.height, frames=len(video))


def _run_cell(video: VideoSequence, gop_size: int, crf: int,
              age: Optional[float], seeks: int,
              cell_seed: np.random.SeedSequence, shards: int,
              seek_cache: int, cell_model: Optional[MLCCellModel],
              bframes: int, raw_bits: int) -> SeekCell:
    config = EncoderConfig(crf=crf, gop_size=gop_size, bframes=bframes)
    pool = ShardPool(count=shards, t_days=age,
                     cell_model=cell_model or MLCCellModel())
    store = VideoObjectStore(pool=pool, config=config,
                             seek_cache=seek_cache)
    object_id = store.put(TENANT, video)
    record = store.record(TENANT, object_id)
    ratio = raw_bits / max(record.total_bits, 1)
    schedule_rng = np.random.default_rng(cell_seed)
    displays = schedule_rng.integers(0, record.frames, size=seeks)
    draw_seeds = schedule_rng.integers(0, 2**63 - 1, size=seeks + 1)
    outcomes: Dict[str, int] = {}
    psnrs: List[float] = []
    cold_ms: List[float] = []
    cold_frames: List[int] = []
    cold_fraction: List[float] = []
    cache_hits = 0
    for which in range(seeks):
        begin = time.perf_counter()
        result = store.get_frame(
            TENANT, object_id, int(displays[which]),
            rng=np.random.default_rng(int(draw_seeds[which])))
        elapsed_ms = (time.perf_counter() - begin) * 1000.0
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        if result.frame is not None:
            psnrs.append(psnr(video.frames[result.display], result.frame))
        if result.cache_hit:
            cache_hits += 1
        else:
            cold_ms.append(elapsed_ms)
            cold_frames.append(result.frames_decoded)
            cold_fraction.append(result.bytes_read
                                 / max(result.bytes_total, 1))
    begin = time.perf_counter()
    store.get(TENANT, object_id,
              rng=np.random.default_rng(int(draw_seeds[seeks])))
    full_ms = (time.perf_counter() - begin) * 1000.0
    mean_cold = float(np.mean(cold_ms)) if cold_ms else float("nan")
    return SeekCell(
        gop_size=gop_size, crf=crf, t_days=age,
        compression_ratio=float(ratio),
        psnr_db=float(np.mean(psnrs)) if psnrs else float("nan"),
        outcomes=outcomes, seeks=seeks, cache_hits=cache_hits,
        frames_decoded_mean=(float(np.mean(cold_frames))
                             if cold_frames else 0.0),
        bytes_read_fraction=(float(np.mean(cold_fraction))
                             if cold_fraction else 0.0),
        seek_p50_ms=_percentile(cold_ms, 50.0),
        seek_p99_ms=_percentile(cold_ms, 99.0),
        full_read_ms=full_ms,
        speedup=(full_ms / mean_cold if cold_ms and mean_cold > 0
                 else float("nan")))
