"""The batched multi-clip encode farm.

Encoding a corpus of clips one ``Encoder.encode`` call at a time leaves
two kinds of throughput on the table: the vectorized kernels never see
more than one clip of work per numpy call, and the trial machinery
ships every clip's frames to workers by value. The farm fixes both by
reframing corpus encoding as a *campaign*:

* each clip is split into GOP-aligned work units
  (:func:`~repro.codec.batch.gop_unit_bounds`) — independently
  encodable slices whose streams are bitwise identical to the
  whole-clip encode;
* the units become ``KIND_ENCODE_UNIT`` :class:`TrialSpec` records
  scheduled through the standard campaign executor, which stacks
  same-geometry units into one
  :func:`~repro.codec.encoder.encode_batch_with_recon` call
  (one numpy call per stage for the whole stack);
* clip frames travel to workers through one shared-memory segment
  (:class:`~repro.runtime.shm.SharedClipStore`) instead of per-worker
  pickles.

Because the units are ordinary trials, everything the runtime already
provides — journals and resume, watchdogs, crash quarantine, progress,
observability — applies to corpus encodes unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..codec.batch import gop_unit_bounds
from ..codec.config import EncoderConfig
from ..errors import AnalysisError, GopStructureError
from ..obs.progress import ProgressReporter
from ..video.frame import VideoSequence
from .executor import run_campaign
from .journal import TrialJournal
from .shm import SharedClipStore, pack_clips
from .trials import (
    DEFAULT_BATCH_SIZE,
    KIND_ENCODE_UNIT,
    RunStats,
    TrialContext,
    TrialOutcome,
    TrialResult,
    TrialSpec,
    spawn_trial_seeds,
)


@dataclass(frozen=True)
class ClipEncodeResult:
    """Aggregated rate/quality for one clip of the farm."""

    clip_index: int
    #: Total serialized stream bits over the clip's units.
    bits: int
    #: Frame-averaged PSNR of the reconstruction vs the source — the
    #: exact ``video_psnr`` value a whole-clip encode+decode would score,
    #: reassembled from the units' per-frame PSNRs.
    psnr_db: float
    units: int
    failed_units: int = 0

    @property
    def complete(self) -> bool:
        """True when every unit of the clip encoded successfully."""
        return self.failed_units == 0


@dataclass(frozen=True)
class FarmResult:
    """Everything an encode-farm run produced."""

    clips: List[ClipEncodeResult]
    stats: RunStats = field(compare=False, default=None)
    #: Raw per-unit campaign outcomes, spec-ordered (units of clip 0,
    #: then clip 1, ...). Failures occupy their slots.
    outcomes: List[TrialOutcome] = field(compare=False, default_factory=list)


def clip_unit_bounds(num_frames: int,
                     config: EncoderConfig) -> List[Tuple[int, int]]:
    """Work-unit bounds for one clip, with a whole-clip fallback.

    GOP-aligned units when the structure supports splitting; for
    configurations :func:`gop_unit_bounds` refuses with a
    :class:`GopStructureError` (``bframes > 0``), the clip becomes a
    single whole-clip unit. The farm still encodes such corpora — it
    just cannot split them, trading granularity for correctness instead
    of refusing the corpus. Equal-length whole-clip units still stack
    into one batched encode, like any same-geometry units.
    """
    try:
        return gop_unit_bounds(num_frames, config)
    except GopStructureError:
        return [(0, num_frames)]


def build_encode_unit_specs(clips: Sequence[VideoSequence],
                            config: EncoderConfig,
                            rng: np.random.Generator) -> List[TrialSpec]:
    """GOP-unit trial grid for a corpus: one spec per (clip, GOP).

    Units are emitted clip-major in display order, each with its own
    spawned seed (encode units are deterministic, but seeds keep the
    journal digests campaign-unique and leave room for stochastic
    trial kinds built on top). Clips whose GOP structure cannot split
    (B-frames) contribute one whole-clip unit each.
    """
    if not clips:
        raise AnalysisError("encode farm needs at least one clip")
    bounds = [clip_unit_bounds(len(clip), config) for clip in clips]
    seeds = spawn_trial_seeds(rng, sum(len(b) for b in bounds))
    specs: List[TrialSpec] = []
    for clip_index, clip_bounds in enumerate(bounds):
        for start, stop in clip_bounds:
            specs.append(TrialSpec(
                index=len(specs), kind=KIND_ENCODE_UNIT,
                seed=seeds[len(specs)], clip_ref=clip_index,
                unit_start=start, unit_stop=stop))
    return specs


def build_farm_context(clips: Sequence[VideoSequence],
                       config: EncoderConfig,
                       use_shared_memory: bool = True,
                       batch_size: Optional[int] = None) -> TrialContext:
    """Campaign context for an encode farm.

    Clips are packed into a :class:`SharedClipStore` when
    ``use_shared_memory`` is set, else shipped as a plain tuple; both
    are indexed identically by the trial layer.
    """
    return TrialContext(clips=pack_clips(clips, use_shared_memory),
                        encoder_config=config,
                        batch_size=batch_size)


def _aggregate_clip(clip_index: int,
                    unit_outcomes: Sequence[TrialOutcome]
                    ) -> ClipEncodeResult:
    bits = 0
    frame_values: List[float] = []
    failed = 0
    for outcome in unit_outcomes:
        if not isinstance(outcome, TrialResult) or outcome.aux is None:
            failed += 1
            continue
        bits += int(outcome.aux["bits"])
        frame_values.extend(outcome.aux["frame_psnrs"])
    # Frame-weighted mean over the concatenated per-frame PSNRs: units
    # partition the clip, so with no failures this equals the whole-clip
    # video_psnr exactly. Failed units are skipped-and-scaled.
    psnr_db = float(np.mean(frame_values)) if frame_values else 0.0
    return ClipEncodeResult(clip_index=clip_index, bits=bits,
                            psnr_db=psnr_db, units=len(unit_outcomes),
                            failed_units=failed)


def encode_farm(clips: Sequence[VideoSequence],
                config: Optional[EncoderConfig] = None,
                workers: Optional[int] = None,
                batch_size: Optional[int] = None,
                chunksize: Optional[int] = None,
                timeout: Optional[float] = None,
                journal: Union[TrialJournal, str, Path, None] = None,
                progress: Union[bool, ProgressReporter, None] = None,
                rng: Optional[np.random.Generator] = None,
                use_shared_memory: bool = True) -> FarmResult:
    """Encode a corpus of clips as one batched campaign.

    Returns per-clip rate/quality aggregates plus the campaign's
    :class:`RunStats`. Results are bitwise independent of the worker
    count, batch width, and shared-memory setting: those only change
    *how* units are executed, never what each unit encodes.

    ``batch_size`` defaults to :data:`DEFAULT_BATCH_SIZE`, and
    ``chunksize`` to one batch width per chunk so pool scheduling hands
    workers whole batchable groups.
    """
    config = config or EncoderConfig()
    rng = rng or np.random.default_rng(0)
    specs = build_encode_unit_specs(clips, config, rng)
    context = build_farm_context(clips, config, use_shared_memory,
                                 batch_size)
    if chunksize is None:
        chunksize = (DEFAULT_BATCH_SIZE if batch_size is None
                     else max(1, int(batch_size)))
    try:
        outcomes, stats = run_campaign(
            context, specs, workers=workers, chunksize=chunksize,
            timeout=timeout, journal=journal, progress=progress)
    finally:
        store = context.clips
        if isinstance(store, SharedClipStore):
            store.close()
    results = []
    cursor = 0
    for clip_index, clip in enumerate(clips):
        count = len(clip_unit_bounds(len(clip), config))
        results.append(_aggregate_clip(
            clip_index, outcomes[cursor:cursor + count]))
        cursor += count
    return FarmResult(clips=results, stats=stats, outcomes=list(outcomes))
