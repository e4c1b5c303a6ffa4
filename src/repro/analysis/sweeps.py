"""Error-rate sweeps: the paper's Monte Carlo quality measurements.

A sweep injects bit flips into a chosen subset of a video's payload bits
at each error rate, decodes, and measures the quality change against the
clean coded video — the engine behind Figures 9 and 10. It follows the
paper's Section 6.4 methodology:

* per (rate, run), the flip count is binomial over the targeted bits;
* at very low rates one flip is forced and the measured loss is scaled
  by the probability that any flip would occur;
* per video, the *maximum* loss across runs is reported (the paper's
  deliberately conservative choice), alongside the mean.

Trials execute on :mod:`repro.runtime`: every (rate, run) pair becomes
an independent :class:`~repro.runtime.TrialSpec` with its own spawned
RNG seed, so results are bitwise identical whether the campaign runs
serially (``workers=0``) or over any number of worker processes.

The engine's fault tolerance surfaces here as *skip-and-scale*
aggregation: trials quarantined by the executor (watchdog timeout,
worker crash) are excluded from a rate's statistics instead of aborting
the sweep — each :class:`SweepPoint` reports how many of its runs
survived — and a ``journal`` path makes the whole sweep resumable after
an interruption, bitwise identical to an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import AnalysisError
from ..codec.encoded import EncodedVideo
from ..metrics.psnr import video_psnr
from ..runtime import (
    RunStats,
    TrialContext,
    TrialResult,
    build_sweep_specs,
    run_campaign,
)
from ..storage.injection import rare_event_scale
from ..video.frame import VideoSequence
from .binning import BitRange

#: The paper's error-probability axis (Figures 9 and 10).
PAPER_ERROR_RATES = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


@dataclass
class SweepPoint:
    """Aggregated quality outcome at one error rate."""

    rate: float
    mean_change_db: float  #: mean quality change (negative = loss)
    max_loss_db: float     #: worst loss across runs (positive dB)
    mean_flips: float
    runs: int              #: trials that survived (failures excluded)
    forced_fraction: float
    failed: int = 0        #: trials quarantined by the executor


@dataclass
class SweepResult:
    """One full error-rate sweep."""

    points: List[SweepPoint]
    targeted_bits: int
    #: Wall-clock/throughput accounting; excluded from equality so
    #: serial and parallel runs of one campaign compare bitwise equal.
    stats: Optional[RunStats] = field(default=None, compare=False,
                                      repr=False)

    def losses(self) -> List[float]:
        return [p.max_loss_db for p in self.points]


def quality_sweep(encoded: EncodedVideo,
                  reference: VideoSequence,
                  clean_decoded: VideoSequence,
                  ranges: Optional[Sequence[BitRange]],
                  rates: Sequence[float] = PAPER_ERROR_RATES,
                  runs: int = 10,
                  rng: Optional[np.random.Generator] = None,
                  workers: Optional[int] = None,
                  timeout: Optional[float] = None,
                  max_retries: Optional[int] = None,
                  journal: Union[str, Path, None] = None,
                  progress: Optional[bool] = None) -> SweepResult:
    """Sweep error rates over the given bit ranges.

    Args:
        encoded: the clean encoded video.
        reference: the raw original (quality is PSNR against this).
        clean_decoded: error-free decode of ``encoded``.
        ranges: injection targets as (frame, start bit, end bit); None
            targets every payload bit.
        rates: error probabilities to sweep.
        runs: Monte Carlo repetitions per rate.
        rng: randomness source (seeded for reproducibility); per-trial
            streams are spawned from it, so a fixed seed gives bitwise
            identical results at any worker count.
        workers: worker processes (None = ``REPRO_NUM_WORKERS``,
            0 = serial).
        timeout: per-trial wall-clock budget in seconds (None =
            ``REPRO_TRIAL_TIMEOUT``, 0 = no watchdog).
        max_retries: crash-retry budget before a trial is quarantined
            (None = ``REPRO_MAX_RETRIES``).
        journal: checkpoint file path; an interrupted sweep re-invoked
            with the same journal resumes, re-running only missing
            trials and producing bitwise-identical results.
        progress: live terminal status line (None = ``REPRO_PROGRESS``);
            observational only, never changes the numbers.
    """
    if runs < 1:
        raise AnalysisError(f"runs must be >= 1, got {runs}")
    rng = rng or np.random.default_rng(0)
    payloads = encoded.frame_payloads()
    if ranges is None:
        ranges = [(index, 0, 8 * len(payload))
                  for index, payload in enumerate(payloads)
                  if len(payload)]
    targeted_bits = sum(end - start for _f, start, end in ranges)
    clean_psnr = video_psnr(reference, clean_decoded)

    context = TrialContext(
        encoded_blob=_without_trace(encoded).serialize(),
        reference=reference,
        clean_psnr=clean_psnr,
        ranges_table=(tuple(ranges),),
    )
    specs = build_sweep_specs(rates, runs, rng, ranges_ref=0,
                              force_at_least_one=True)
    results, stats = run_campaign(context, specs, workers=workers,
                                  timeout=timeout, max_retries=max_retries,
                                  journal=journal, progress=progress)

    points: List[SweepPoint] = []
    for rate_index, rate in enumerate(rates):
        trial_slice = results[rate_index * runs:(rate_index + 1) * runs]
        survivors = [t for t in trial_slice if isinstance(t, TrialResult)]
        failed = len(trial_slice) - len(survivors)
        if not survivors:
            # every run at this rate was quarantined: keep the point so
            # the sweep's shape is preserved, but mark it empty
            points.append(SweepPoint(
                rate=rate, mean_change_db=float("nan"), max_loss_db=0.0,
                mean_flips=0.0, runs=0, forced_fraction=0.0,
                failed=failed))
            continue
        changes: List[float] = []
        flips: List[int] = []
        forced = 0
        for trial in survivors:
            change = trial.value_db
            if trial.forced:
                forced += 1
                change *= rare_event_scale(targeted_bits, rate)
            changes.append(change)
            flips.append(trial.num_flips)
        points.append(SweepPoint(
            rate=rate,
            mean_change_db=float(np.mean(changes)),
            max_loss_db=float(max(0.0, -min(changes))),
            mean_flips=float(np.mean(flips)),
            runs=len(survivors),
            forced_fraction=forced / len(survivors),
            failed=failed,
        ))
    return SweepResult(points=points, targeted_bits=targeted_bits,
                       stats=stats)


def _without_trace(encoded: EncodedVideo) -> EncodedVideo:
    """A trace-free view for shipping to workers (decode ignores it)."""
    if encoded.trace is None:
        return encoded
    return EncodedVideo(header=encoded.header, frames=encoded.frames,
                        trace=None)
