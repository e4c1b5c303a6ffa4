"""Retention sweep: quality over the device lifetime, per mitigation.

The paper evaluates storage quality at one read point (the scrub
interval). This exhibit extends the axis: the same stored video is read
back at a grid of retention times, under a grid of *mitigation
configurations* — scrubbing interval, re-read retry depth, and decoder
error concealment — so the lifetime story becomes measurable:

* unmitigated quality degrades monotonically with retention time
  (drift widens, raw BER climbs, uncorrectable blocks multiply);
* each mitigation claws measurable quality back at long retention, and
  the per-mitigation ``storage_*`` / ``decode_*`` counters show *why*
  (how many scrub rewrites were spent, how many re-reads recovered a
  block, how many slices were concealed).

Every (config, t_days, run) cell is an independent
:data:`~repro.runtime.trials.KIND_RETENTION_READ` trial on the campaign
engine, so sweeps inherit the watchdog, crash recovery, journaling, and
parallelism of every other exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..codec.config import EncoderConfig
from ..core.assignment import PAPER_TABLE1, ClassAssignment
from ..core.pipeline import ApproximateVideoStore
from ..errors import AnalysisError
from ..metrics.psnr import video_psnr
from ..obs import metrics as obs_metrics
from ..runtime import (
    KIND_RETENTION_READ,
    RunStats,
    TrialContext,
    TrialResult,
    TrialSpec,
    run_campaign,
    spawn_trial_seeds,
)
from ..storage.ecc import PRECISE_SCHEME, scheme_by_name
from ..storage.mlc import MLCCellModel
from ..video.frame import VideoSequence

#: Retention grid for the headline exhibit: scrub point out to a decade.
DEFAULT_T_GRID: Tuple[float, ...] = (90.0, 365.0, 1000.0, 3650.0)


def lifetime_substrate() -> MLCCellModel:
    """The drift-dominated substrate the retention exhibit runs on.

    The paper's default substrate is write-noise-dominated: drift grows
    only logarithmically, so even a decade of retention barely moves the
    raw BER and BCH blocks essentially never fail. That is the *right*
    model for the paper's single read point, but it makes a lifetime
    exhibit vacuous. This variant lets stochastic drift dominate aging:
    BCH-6 block failures go from ~2e-10 at the 90-day scrub point to
    ~0.12 at a decade — sparse partial damage, exactly the regime where
    scrubbing, re-read retries, and concealment are measurable (total
    damage would drown every mitigation; none would show nothing).
    """
    return MLCCellModel(write_sigma=0.012, drift_sigma=0.022)

#: Counter names whose per-config deltas the sweep reports.
TRACKED_COUNTERS: Tuple[str, ...] = (
    "storage_scrubs_total",
    "storage_scrub_cell_writes_total",
    "storage_read_retries_total",
    "storage_retry_recovered_total",
    "storage_uncorrectable_blocks_total",
    "storage_miscorrected_blocks_total",
    "decode_concealed_slices_total",
    "decode_concealed_mbs_total",
)


@dataclass(frozen=True)
class MitigationConfig:
    """One lifetime-mitigation setting swept against the retention grid."""

    label: str
    scrub_days: Optional[float] = None  #: scrub interval (None = never)
    retries: int = 0                    #: re-read ladder depth
    conceal: bool = False               #: decoder error concealment

    def __post_init__(self) -> None:
        if self.scrub_days is not None and not self.scrub_days > 0:
            raise AnalysisError(
                f"config {self.label!r}: scrub interval must be > 0 days")
        if self.retries < 0:
            raise AnalysisError(
                f"config {self.label!r}: retries must be >= 0")


#: The default mitigation ladder: nothing, then each knob in isolation,
#: then everything at once.
DEFAULT_CONFIGS: Tuple[MitigationConfig, ...] = (
    MitigationConfig(label="unmitigated"),
    MitigationConfig(label="scrub-90d", scrub_days=90.0),
    MitigationConfig(label="retry-3", retries=3),
    MitigationConfig(label="conceal", conceal=True),
    MitigationConfig(label="all", scrub_days=90.0, retries=3, conceal=True),
)


@dataclass(frozen=True)
class RetentionPoint:
    """Aggregated quality of one (config, retention time) cell."""

    config: str
    t_days: float
    psnr_db: float        #: mean over completed runs
    worst_psnr_db: float  #: worst completed run
    runs: int             #: completed runs behind the aggregate
    failed: int = 0       #: quarantined trials at this cell


@dataclass
class RetentionResult:
    """A full retention sweep: curves, counters, and run accounting."""

    points: List[RetentionPoint]
    configs: Tuple[MitigationConfig, ...]
    clean_psnr_db: float
    scheme: Optional[str]  #: single-scheme axis, or None for Table 1
    #: Per-config deltas of :data:`TRACKED_COUNTERS` over the campaign.
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    stats: Dict[str, RunStats] = field(default_factory=dict)

    def series(self, label: str) -> List[RetentionPoint]:
        """One config's quality curve, ordered by retention time."""
        curve = sorted((p for p in self.points if p.config == label),
                       key=lambda p: p.t_days)
        if not curve:
            known = sorted({p.config for p in self.points})
            raise AnalysisError(
                f"unknown mitigation config {label!r}; known: {known}")
        return curve

    def quality_at(self, label: str, t_days: float) -> float:
        for point in self.series(label):
            if point.t_days == t_days:
                return point.psnr_db
        raise AnalysisError(
            f"config {label!r} has no point at t={t_days} days")


def single_scheme_assignment(scheme_name: str) -> ClassAssignment:
    """A uniform assignment storing every stream under one ECC scheme.

    Gives the retention sweep a per-scheme axis: how does BCH-6 age
    versus BCH-16? Headers stay precise, like every design in the paper.
    """
    scheme = scheme_by_name(scheme_name)
    if scheme.t == 0:
        raise AnalysisError(
            "raw (t=0) storage has no uncorrectable-block signal; pick a "
            "BCH scheme for the retention axis")
    return ClassAssignment(boundaries=(0,), schemes=(scheme,),
                           header_scheme=PRECISE_SCHEME)


def run_retention_sweep(
        video: VideoSequence,
        t_days: Sequence[float] = DEFAULT_T_GRID,
        configs: Sequence[MitigationConfig] = DEFAULT_CONFIGS,
        scheme: Optional[str] = None,
        config: Optional[EncoderConfig] = None,
        cell_model: Optional[MLCCellModel] = None,
        runs: int = 3,
        rng: Optional[np.random.Generator] = None,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        journal: Union[str, Path, None] = None,
        progress: bool = False,
        exact_ecc: bool = False) -> RetentionResult:
    """Sweep read-back quality over retention time × mitigation config.

    One campaign runs per mitigation config (so the per-config counter
    deltas are attributable); within a campaign, every (t_days, run)
    cell is an independent seeded trial. The seed list is spawned once
    and shared by every config, so each (t_days, run) cell sees the
    same storage noise under every mitigation — a paired comparison,
    not independent samples. ``journal`` is treated as a path
    *prefix*: each config journals to ``<prefix>.<label>.jsonl``,
    because journals are per-campaign. ``cell_model`` defaults to
    :func:`lifetime_substrate` — the drift-dominated variant — rather
    than the paper's write-noise-dominated default.
    """
    grid = [float(t) for t in t_days]
    if not grid:
        raise AnalysisError("retention sweep needs at least one t_days")
    if any(t < 0 for t in grid):
        raise AnalysisError(f"retention times must be >= 0: {grid}")
    labels = [c.label for c in configs]
    if len(set(labels)) != len(labels):
        raise AnalysisError(f"duplicate mitigation labels: {labels}")
    if not labels:
        raise AnalysisError("retention sweep needs at least one config")
    rng = rng or np.random.default_rng(90)
    assignment = (PAPER_TABLE1 if scheme is None
                  else single_scheme_assignment(scheme))
    store = ApproximateVideoStore(config=config, assignment=assignment,
                                  cell_model=cell_model
                                  or lifetime_substrate(),
                                  exact_ecc=exact_ecc)
    stored = store.put(video)
    clean = store.reconstruct(stored)
    clean_psnr = float(video_psnr(video, clean))
    from .experiments import _slim_stored
    context = TrialContext(reference=video, store=store,
                           stored=_slim_stored(stored))
    points: List[RetentionPoint] = []
    counters: Dict[str, Dict[str, int]] = {}
    stats: Dict[str, RunStats] = {}
    seeds = spawn_trial_seeds(rng, len(grid) * runs)
    for cfg in configs:
        specs: List[TrialSpec] = []
        for t_index, t in enumerate(grid):
            for run in range(runs):
                index = t_index * runs + run
                specs.append(TrialSpec(
                    index=index, kind=KIND_RETENTION_READ, seed=seeds[index],
                    t_days=t, scrub_days=cfg.scrub_days, retries=cfg.retries,
                    conceal=cfg.conceal))
        journal_path = (None if journal is None
                        else f"{journal}.{cfg.label}.jsonl")
        with obs_metrics.counter_deltas(*TRACKED_COUNTERS) as moved:
            outcomes, run_stats = run_campaign(
                context, specs, workers=workers, timeout=timeout,
                journal=journal_path, progress=progress)
        counters[cfg.label] = {name: delta for name, delta in moved.items()
                               if delta}
        stats[cfg.label] = run_stats
        for t_index, t in enumerate(grid):
            cell = outcomes[t_index * runs:(t_index + 1) * runs]
            values = [o.value_db for o in cell if isinstance(o, TrialResult)]
            failed = runs - len(values)
            if not values:
                points.append(RetentionPoint(
                    config=cfg.label, t_days=t, psnr_db=float("nan"),
                    worst_psnr_db=float("nan"), runs=0, failed=failed))
                continue
            points.append(RetentionPoint(
                config=cfg.label, t_days=t,
                psnr_db=float(np.mean(values)),
                worst_psnr_db=float(min(values)),
                runs=len(values), failed=failed))
    return RetentionResult(points=points, configs=tuple(configs),
                           clean_psnr_db=clean_psnr, scheme=scheme,
                           counters=counters, stats=stats)
