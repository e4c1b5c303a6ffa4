"""The scenario matrix: hostile content × injected faults, with invariants.

Every robustness mechanism in the repo — the executor's crash
quarantine, the journal's torn-tail recovery, the farm's skip-and-scale
aggregation, the device's never-silently-corrupted contract — was built
against *friendly* content and *assumed* faults. This exhibit runs the
cross product that proves they compose: each content suite (the
friendly synthetic baseline plus every :mod:`~repro.video.adversarial`
generator) is pushed through the pipeline while a seeded
:class:`~repro.runtime.chaos.ChaosPolicy` injects one fault class per
cell, and each cell asserts the invariant that fault class must not
break:

========================  ==============================================
fault cell                invariant
========================  ==============================================
``none``                  campaign completes; content-model gap checks
                          (importance ranking, predictor prune audit)
                          run here and *flag* rather than fail
``device_overrate``       reads fail beyond the modeled rates, yet every
                          extra failure surfaces as an uncorrectable
                          block (nothing silently miscorrected) and the
                          campaign still completes
``trial_error``           an injected mid-trial exception fails exactly
                          that trial; every survivor is bitwise equal to
                          the fault-free run
``worker_crash``          a killed worker process is quarantined after
                          retries; survivors bitwise equal
``shm_loss``              a shared-memory clip segment vanishing
                          mid-campaign fails one encode unit; the farm
                          skip-and-scales and other clips are untouched
``journal_torn``          a torn journal tail aborts the writer; a
                          resume completes the campaign and the final
                          journal is exactly what an uninterrupted run
                          would have written
========================  ==============================================

Determinism is the point: the same ``seed`` produces the same fault
schedule (:func:`~repro.runtime.chaos.schedule_digest` per cell) and
the same journal digest, so the whole matrix is a replayable regression
artifact — the JSON report it emits is compared across runs in CI.

The repair matrix (fault × replication × repair, below) shares the
driver: the same :class:`MatrixCell`, armed-chaos block and
:class:`MatrixReport`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..codec.config import EncoderConfig
from ..codec.encoder import _encode_clean
from ..core.importance import compute_importance, macroblock_bits
from ..core.pipeline import ApproximateVideoStore
from ..errors import AnalysisError, ChaosError
from ..metrics.psnr import video_psnr
from ..obs import metrics as obs_metrics
from ..runtime import chaos
from ..runtime.executor import run_campaign
from ..runtime.farm import encode_farm
from ..runtime.journal import (
    JOURNAL_VERSION,
    campaign_digest,
    spec_digest,
)
from ..runtime.shm import SharedClipStore, pack_clips
from ..runtime.trials import (
    KIND_STORED_READ,
    TrialContext,
    TrialResult,
    TrialSpec,
    spawn_trial_seeds,
)
from ..video.adversarial import ADVERSARIAL_PRESETS, make_adversarial_suite
from ..video.frame import VideoSequence
from ..video.synthesis import SceneConfig, synthesize_scene
from .binning import equal_storage_bins
from .experiments import _slim_stored
from .predictor import (
    DEFAULT_EPSILON_DB,
    probe_and_predict,
    prune_dominated,
)
from .sweeps import quality_sweep

#: Fault cells, in execution order. ``none`` must stay first: it is the
#: paired baseline every other cell's bitwise comparisons run against.
DEFAULT_FAULTS: Tuple[str, ...] = (
    "none", "device_overrate", "trial_error", "worker_crash", "shm_loss",
    "journal_torn",
)

#: Every content suite: the friendly baseline plus the full hostile set.
ALL_CONTENTS: Tuple[str, ...] = (
    ("friendly",) + tuple(name for name, _ in ADVERSARIAL_PRESETS))

#: The CI-sized subset (--quick): baseline plus the three generators
#: that stress distinct codec assumptions (reference reuse, temporal
#: ordering, transform energy compaction).
QUICK_CONTENTS: Tuple[str, ...] = (
    "friendly", "scene_cut_storm", "timeline_shuffle", "high_freq_texture")

#: Importance-inversion tolerance: damaging the most important bin may
#: score up to this much *less* loss than the least important bin
#: before the content is flagged as an importance-model gap.
IMPORTANCE_GAP_TOLERANCE_DB = 0.5

#: Extra dB of slack (beyond the prune epsilon) a pruned CRF point gets
#: against ground truth before the prune is flagged as wrong.
PREDICTOR_AUDIT_SLACK_DB = 1.0


def build_content(name: str, width: int, height: int, num_frames: int,
                  seed: int) -> VideoSequence:
    """Materialize one named content suite at the matrix geometry."""
    if name == "friendly":
        return synthesize_scene(SceneConfig(
            width=width, height=height, num_frames=num_frames, seed=seed,
            num_objects=2))
    return make_adversarial_suite(width, height, num_frames, names=[name],
                                  seed=seed)[0][1]


@dataclass
class MatrixCell:
    """One cell's verdict, in either matrix."""

    #: The cell's coordinates in axis order: ``content, fault`` in the
    #: scenario matrix, ``fault, replicas, repair`` in the repair matrix.
    axes: Dict[str, object]
    #: Named invariant verdicts (all must hold for :attr:`passed`).
    invariants: Dict[str, bool] = field(default_factory=dict)
    #: Model gaps and environment skips: recorded, never failing.
    flags: List[str] = field(default_factory=list)
    #: Parent-side chaos schedule fingerprint while this cell ran. Cells
    #: are built disarmed (both runners refuse an ambient policy), so a
    #: cell that never arms keeps the disarmed digest.
    schedule_digest: str = field(default_factory=chaos.schedule_digest)
    #: Chaos events fired in the parent during this cell.
    chaos_events: int = 0
    #: Cell-specific numbers (trial values, counter deltas, bits).
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Every invariant held. Model-gap flags never clear this."""
        return all(self.invariants.values())

    def to_dict(self) -> dict:
        """JSON-ready cell: its axes, then the verdict fields."""
        data = dataclasses.asdict(self)
        return {**data.pop("axes"), "passed": self.passed, **data}


@dataclass
class MatrixReport:
    """A full matrix run: every cell plus the matrix-wide verdicts."""

    cells: List[MatrixCell]
    seed: int
    #: Ordered geometry: ``width, height, num_frames``, then ``trials``
    #: (scenario matrix) or ``objects, reads`` (repair matrix).
    geometry: Dict[str, int]
    #: Canonical digest of the torn-then-resumed campaign journal. The
    #: scenario matrix sets it; the repair matrix has none.
    journal_digest: Optional[str] = None

    @property
    def passed(self) -> bool:
        """Every cell's invariants held (flags never fail a run)."""
        return all(cell.passed for cell in self.cells)

    @property
    def flagged(self) -> List[Tuple[object, ...]]:
        """(*axes, flag) for every recorded model gap / skip."""
        return [(*c.axes.values(), flag)
                for c in self.cells for flag in c.flags]

    @property
    def matrix_digest(self) -> str:
        """Replayable fingerprint of the whole matrix outcome.

        Folds every cell's fault schedule, invariant verdicts, and
        measured values (via exact float repr) plus the journal digest.
        Wall-clock and throughput never enter, so two runs with one
        seed must produce one digest — CI compares them byte for byte.
        """
        payload = {
            "seed": self.seed,
            "geometry": list(self.geometry.values()),
            "cells": [{
                **c.axes, "passed": c.passed, "invariants": c.invariants,
                "flags": c.flags, "schedule": c.schedule_digest,
                "events": c.chaos_events,
                "details": {k: repr(v) for k, v in sorted(c.details.items())},
            } for c in self.cells],
        }
        if self.journal_digest is not None:
            payload["journal"] = self.journal_digest
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:32]

    def to_dict(self) -> dict:
        """JSON-ready report: all cells plus the derived verdicts."""
        data = {"cells": [cell.to_dict() for cell in self.cells],
                "seed": self.seed, **self.geometry, "passed": self.passed,
                "matrix_digest": self.matrix_digest}
        if self.journal_digest is not None:
            data["journal_digest"] = self.journal_digest
        return data


def journal_file_digest(path: Union[str, Path]) -> str:
    """Order-independent content digest of one campaign journal.

    Sorted-line hashing, because a resumed journal holds the same
    records as an uninterrupted run's journal but possibly reordered.
    """
    lines = sorted(Path(path).read_bytes().splitlines())
    return hashlib.sha256(b"\n".join(lines)).hexdigest()[:32]


def _expected_journal_lines(specs: Sequence[TrialSpec],
                            context: TrialContext,
                            outcomes: Sequence[TrialResult]) -> List[bytes]:
    """The exact lines an uninterrupted journaled campaign writes."""
    lines = [json.dumps({"type": "header", "version": JOURNAL_VERSION,
                         "campaign": campaign_digest(specs, context)})]
    for spec, outcome in zip(specs, outcomes):
        record = {"type": "trial", "digest": spec_digest(spec),
                  "index": outcome.index, "value_db": outcome.value_db,
                  "num_flips": outcome.num_flips, "forced": outcome.forced}
        if outcome.aux is not None:
            record["aux"] = outcome.aux
        lines.append(json.dumps(record))
    return sorted(line.encode() for line in lines)


def _cell_seed(seed: int, content: str, fault: str) -> int:
    """Stable per-cell chaos seed, independent of matrix ordering."""
    digest = hashlib.sha256(f"{seed}|{content}|{fault}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _check_entry(matrix: str,
                 *axes: Tuple[str, Sequence[str], Sequence[str]]) -> None:
    """Refuse an ambient chaos policy, and any ``(label, names, known)``
    axis naming something it does not know."""
    if chaos.active() is not None:
        raise AnalysisError(
            f"{matrix} matrix manages its own chaos policies; disarm the "
            "ambient one first")
    for label, names, known in axes:
        unknown = [name for name in names if name not in known]
        if unknown:
            raise AnalysisError(
                f"unknown {label} {unknown}; known: {list(known)}")


@contextmanager
def _armed(cell: MatrixCell, policy: chaos.ChaosPolicy) -> Iterator[None]:
    """Run the block under ``policy``, record the cell's schedule, disarm."""
    chaos.arm(policy)
    try:
        yield
    finally:
        cell.schedule_digest = chaos.schedule_digest()
        cell.chaos_events = len(chaos.chaos_events())
        chaos.disarm()


def _values(outcomes: Sequence[object]) -> List[Optional[float]]:
    return [o.value_db if isinstance(o, TrialResult) else None
            for o in outcomes]


# ----------------------------------------------------------------------
# Content-model gap checks (run in the fault-free cell; they flag)
# ----------------------------------------------------------------------

def importance_ranking_flags(video: VideoSequence, config: EncoderConfig,
                             seed: int) -> List[str]:
    """Does importance-based partitioning still rank damage correctly?

    Damages the most- and least-important equal-storage bins at one
    error rate with *paired* randomness. On content the importance
    model understands, hurting the top bin must hurt at least as much
    as hurting the bottom bin (within tolerance); an inversion is a
    genuine model gap on that content and is returned as a flag.
    """
    encoded, clean = _encode_clean(video, config)
    assert encoded.trace is not None
    importance = compute_importance(encoded.trace)
    bins = equal_storage_bins(macroblock_bits(encoded.trace, importance),
                              num_bins=4)
    if not bins[0].ranges or not bins[-1].ranges:
        return ["importance-bins-degenerate"]
    sweeps = {}
    for label, bucket in (("bottom", bins[0]), ("top", bins[-1])):
        sweeps[label] = quality_sweep(
            encoded, video, clean, bucket.ranges, rates=(1e-3,), runs=3,
            rng=np.random.default_rng(seed), workers=0)
    top_loss = sweeps["top"].points[0].max_loss_db
    bottom_loss = sweeps["bottom"].points[0].max_loss_db
    if top_loss + IMPORTANCE_GAP_TOLERANCE_DB < bottom_loss:
        return [f"importance-inversion: top-bin loss {top_loss:.2f} dB < "
                f"bottom-bin loss {bottom_loss:.2f} dB at rate 1e-3"]
    return []


def predictor_prune_flags(video: VideoSequence, config: EncoderConfig,
                          crf_grid: Sequence[int] = (20, 28, 36)
                          ) -> List[str]:
    """Audit CRF-grid prune decisions against ground-truth encodes.

    Every point the predictor prunes as dominated is re-checked against
    real encodes of the full grid: if no ground-truth point with
    strictly fewer bits reaches the pruned point's true PSNR within
    epsilon + slack, the prune threw away a genuinely useful operating
    point on this content — a predictor model gap, returned as a flag.
    """
    predictions = probe_and_predict(video, crf_grid, config)
    keep = prune_dominated(predictions)
    if all(keep):
        return []
    truth = {}
    for crf in crf_grid:
        encoded, decoded = _encode_clean(
            video, dataclasses.replace(config, crf=crf))
        truth[crf] = (8 * len(encoded.serialize()),
                      float(video_psnr(video, decoded)))
    budget = DEFAULT_EPSILON_DB + PREDICTOR_AUDIT_SLACK_DB
    flags = []
    for prediction, kept in zip(predictions, keep):
        if kept:
            continue
        bits, psnr = truth[prediction.crf]
        dominated = any(
            other_bits < bits and other_psnr >= psnr - budget
            for crf, (other_bits, other_psnr) in truth.items()
            if crf != prediction.crf)
        if not dominated:
            flags.append(
                f"predictor-pruned-nondominated: crf {prediction.crf} "
                f"(truth {bits} bits / {psnr:.2f} dB) has no cheaper "
                f"ground-truth point within {budget:.2f} dB")
    return flags


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------

def run_scenario_matrix(contents: Optional[Sequence[str]] = None,
                        faults: Sequence[str] = DEFAULT_FAULTS,
                        width: int = 64, height: int = 48,
                        num_frames: int = 6, trials: int = 4,
                        seed: int = 0,
                        config: Optional[EncoderConfig] = None,
                        journal_dir: Union[str, Path, None] = None,
                        model_checks: bool = True) -> MatrixReport:
    """Run the (content × fault) scenario matrix.

    Serial except the ``worker_crash`` cell (which needs a pool to have
    a worker to kill), so in-parent fault ordinals are deterministic.
    ``journal_dir`` holds the ``journal_torn`` cell's journals (a
    temporary directory when None). Same ``seed`` → same content, same
    trial seeds, same fault schedule, same :attr:`MatrixReport.matrix_digest`.
    """
    contents = list(QUICK_CONTENTS if contents is None else contents)
    _check_entry("scenario", ("scenario contents", contents, ALL_CONTENTS),
                 ("fault cells", faults, DEFAULT_FAULTS))
    if trials < 3:
        raise AnalysisError(f"the matrix needs >= 3 trials, got {trials}")
    config = config or EncoderConfig(crf=30, gop_size=4)
    cells: List[MatrixCell] = []
    journal_digest = ""
    own_tmp = tempfile.TemporaryDirectory() if journal_dir is None else None
    journal_root = Path(own_tmp.name if own_tmp else journal_dir)
    journal_root.mkdir(parents=True, exist_ok=True)
    try:
        for content in contents:
            video = build_content(content, width, height, num_frames, seed)
            store = ApproximateVideoStore(config=config)
            stored = store.put(video)
            context = TrialContext(reference=video, store=store,
                                   stored=_slim_stored(stored))
            rng = np.random.default_rng([seed, contents.index(content)])
            seeds = spawn_trial_seeds(rng, trials)
            specs = [TrialSpec(index=i, kind=KIND_STORED_READ,
                               seed=seeds[i]) for i in range(trials)]
            baseline, _stats = run_campaign(context, specs, workers=0)
            baseline_values = _values(baseline)
            for fault in faults:
                cell = _run_fault_cell(
                    fault, content, video, context, specs, baseline_values,
                    config, seed, journal_root, model_checks)
                if cell.details.get("journal_digest"):
                    journal_digest = str(cell.details["journal_digest"])
                cells.append(cell)
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()
    return MatrixReport(cells=cells, seed=seed, geometry=dict(
        width=width, height=height, num_frames=num_frames, trials=trials),
        journal_digest=journal_digest)


def _run_fault_cell(fault: str, content: str, video: VideoSequence,
                    context: TrialContext, specs: List[TrialSpec],
                    baseline_values: List[Optional[float]],
                    config: EncoderConfig, seed: int, journal_root: Path,
                    model_checks: bool) -> MatrixCell:
    cell = MatrixCell(axes={"content": content, "fault": fault})
    cell_seed = _cell_seed(seed, content, fault)

    if fault == "none":
        cell.invariants["campaign_completes"] = all(
            value is not None for value in baseline_values)
        cell.details["values"] = baseline_values
        if model_checks:
            cell.flags += importance_ranking_flags(video, config, cell_seed)
            cell.flags += predictor_prune_flags(video, config)
        return cell

    if fault == "device_overrate":
        policy = chaos.ChaosPolicy(seed=cell_seed, device_fault_rate=0.9)
        with _armed(cell, policy), obs_metrics.counter_deltas(
                "storage_uncorrectable_blocks_total",
                "storage_miscorrected_blocks_total",
                "chaos_device_read_total") as moved:
            outcomes, stats = run_campaign(context, specs, workers=0)
            # The retry ladder must not pretend to fix chaos damage:
            # faults are keyed by payload content, so a re-read faults
            # identically and the block must stay *visibly* bad.
            context.store.read(context.stored,
                               rng=np.random.default_rng(cell_seed),
                               read_retries=2)
        events = moved["chaos_device_read_total"]
        uncorrectable = moved["storage_uncorrectable_blocks_total"]
        cell.invariants["campaign_completes"] = (stats.failed == 0)
        cell.invariants["damage_visible"] = (uncorrectable >= events)
        cell.invariants["no_silent_miscorrection"] = (
            moved["storage_miscorrected_blocks_total"] == 0)
        if events == 0:
            cell.flags.append("no-device-fault-fired")
        cell.details.update(device_events=events,
                            uncorrectable_blocks=uncorrectable,
                            values=_values(outcomes))
        return cell

    if fault == "trial_error":
        victim = 1
        with _armed(cell, chaos.ChaosPolicy(seed=cell_seed,
                                            fail_trials=(victim,))):
            outcomes, stats = run_campaign(context, specs, workers=0)
        values = _values(outcomes)
        cell.invariants["victim_fails"] = (stats.failed == 1
                                           and values[victim] is None)
        cell.invariants["survivors_bitwise_equal"] = all(
            values[i] == baseline_values[i]
            for i in range(len(values)) if i != victim)
        cell.details.update(values=values, victim=victim)
        return cell

    if fault == "worker_crash":
        if os.name != "posix":  # pragma: no cover - posix-only runtime
            cell.flags.append("worker-pool-unavailable")
            cell.invariants["skipped"] = True
            return cell
        victim = 1
        with _armed(cell, chaos.ChaosPolicy(seed=cell_seed,
                                            crash_trials=(victim,))):
            outcomes, stats = run_campaign(context, specs, workers=2,
                                           max_retries=2)
        values = _values(outcomes)
        cell.invariants["victim_quarantined"] = (
            stats.quarantined == 1 and values[victim] is None)
        cell.invariants["survivors_bitwise_equal"] = all(
            values[i] == baseline_values[i]
            for i in range(len(values)) if i != victim)
        cell.details.update(values=values, victim=victim,
                            retried=stats.retried,
                            pool_restarts=stats.pool_restarts)
        return cell

    if fault == "shm_loss":
        clips = [video, build_content("friendly", video.width, video.height,
                                      len(video), seed + 1)]
        probe = pack_clips(clips, use_shared_memory=True)
        if not isinstance(probe, SharedClipStore):
            cell.flags.append("shared-memory-unavailable")
            cell.invariants["skipped"] = True
            return cell
        probe.close()
        baseline_farm = encode_farm(clips, config, workers=0, batch_size=1,
                                    use_shared_memory=True)
        with _armed(cell, chaos.ChaosPolicy(seed=cell_seed, shm_fail_at=0)):
            farm = encode_farm(clips, config, workers=0, batch_size=1,
                               use_shared_memory=True)
        failed_units = sum(c.failed_units for c in farm.clips)
        cell.invariants["exactly_one_unit_lost"] = (failed_units == 1)
        cell.invariants["other_clip_untouched"] = (
            farm.clips[1].bits == baseline_farm.clips[1].bits
            and farm.clips[1].psnr_db == baseline_farm.clips[1].psnr_db
            and farm.clips[1].complete)
        cell.invariants["lost_clip_scaled"] = (
            farm.clips[0].failed_units == 1
            and farm.clips[0].units == baseline_farm.clips[0].units)
        cell.details.update(
            failed_units=failed_units,
            bits=[c.bits for c in farm.clips],
            baseline_bits=[c.bits for c in baseline_farm.clips])
        return cell

    if fault == "journal_torn":
        journal_path = journal_root / f"scenario.{content}.jsonl"
        journal_path.unlink(missing_ok=True)
        with _armed(cell, chaos.ChaosPolicy(seed=cell_seed,
                                            journal_tear_at=1)):
            try:
                run_campaign(context, specs, workers=0,
                             journal=str(journal_path))
                cell.invariants["writer_crashes"] = False
            except ChaosError:
                cell.invariants["writer_crashes"] = True
        with obs_metrics.counter_deltas("journal_torn_tails_total") as moved:
            outcomes, stats = run_campaign(context, specs, workers=0,
                                           journal=str(journal_path))
        values = _values(outcomes)
        cell.invariants["torn_tail_detected"] = (
            moved["journal_torn_tails_total"] == 1)
        cell.invariants["resume_completes"] = (stats.failed == 0
                                               and stats.resumed >= 1)
        cell.invariants["resume_bitwise_equal"] = (
            values == baseline_values)
        cell.invariants["journal_canonical"] = (
            sorted(journal_path.read_bytes().splitlines())
            == _expected_journal_lines(
                specs, context,
                [o for o in outcomes if isinstance(o, TrialResult)]))
        cell.details.update(values=values, resumed=stats.resumed,
                            journal_digest=journal_file_digest(journal_path))
        return cell

    raise AnalysisError(f"unknown fault cell {fault!r}")


# ----------------------------------------------------------------------
# The repair matrix: fault × replication × repair
# ----------------------------------------------------------------------

#: Fault cells of the self-healing matrix.
REPAIR_FAULTS: Tuple[str, ...] = (
    "single_shard_storm", "correlated_burst", "burst_on_scrub")


def _storm_victim(store) -> str:
    """The shard holding the most blobs (ties → smallest id).

    Storming the fullest shard maximizes the blast radius, which is
    the point: the invariants must hold on the worst single-domain
    loss the placement allows.
    """
    counts = {shard_id: len(shard.blobs)
              for shard_id, shard in store.pool.shards.items()}
    return min(counts, key=lambda sid: (-counts[sid], sid))


def _repair_outcomes(store, tenant: str, ids: Sequence[str],
                     reads: int, entropy: Sequence[int]) -> Dict[str, int]:
    """``reads`` seeded reads per object; outcome tally."""
    tally = {"clean": 0, "corrected": 0, "concealed": 0, "refused": 0}
    for op, object_id in enumerate(object_id
                                   for object_id in ids
                                   for _ in range(reads)):
        rng = np.random.default_rng([*entropy, op])
        result = store.get(tenant, object_id, rng=rng)
        tally[result.outcome] += 1
    return tally


def run_repair_matrix(faults: Sequence[str] = REPAIR_FAULTS,
                      replicas_axis: Sequence[int] = (1, 2),
                      repair_axis: Sequence[bool] = (False, True),
                      width: int = 48, height: int = 32,
                      num_frames: int = 4, objects: int = 2,
                      reads: int = 3, seed: int = 0,
                      config: Optional[EncoderConfig] = None
                      ) -> MatrixReport:
    """Run the (fault × replication × repair) self-healing matrix.

    Each cell builds a fresh 4-shard pool and replicated store, ingests
    ``objects`` clips, reads every object ``reads`` times under the
    armed fault, optionally runs the repair daemon to convergence, and
    re-reads. Per-cell invariants:

    * always: nothing silently miscorrected; chaos damage that fired
      is visible (uncorrectable blocks / refusals, never clean lies);
    * ``single_shard_storm`` at R≥2: **zero refused reads** — every
      read escalates to an unstormed replica (no data loss);
    * repair arm: the daemon converges within three passes (empty
      backlog, no placement violations), the store ends fully
      replicated on healthy shards, and a storm's quarantined victim
      is drained to empty;
    * ``single_shard_storm`` + repair: the post-repair read round is
      storm-free (the victim no longer serves) — every read clean.

    Same ``seed`` → same fault schedule and the same
    :attr:`MatrixReport.matrix_digest`.
    """
    _check_entry("repair", ("repair fault cells", faults, REPAIR_FAULTS))
    if any(r < 1 for r in replicas_axis):
        raise AnalysisError(f"replicas axis must be >= 1: "
                            f"{list(replicas_axis)}")
    config = config or EncoderConfig(crf=30, gop_size=4)
    clips = [synthesize_scene(SceneConfig(
        width=width, height=height, num_frames=num_frames,
        seed=seed + index, num_objects=2)) for index in range(objects)]
    cells = [_run_repair_cell(fault, replicas, repair, clips, config,
                              reads, seed)
             for fault in faults for replicas in replicas_axis
             for repair in repair_axis]
    return MatrixReport(cells=cells, seed=seed, geometry=dict(
        width=width, height=height, num_frames=num_frames, objects=objects,
        reads=reads))


def _run_repair_cell(fault: str, replicas: int, repair: bool,
                     clips: Sequence[VideoSequence], config: EncoderConfig,
                     reads: int, seed: int) -> MatrixCell:
    from ..service.repair import replication_health, run_repair_pass
    from ..service.shards import QUARANTINED, ShardPool
    from ..service.store import VideoObjectStore

    cell = MatrixCell(axes={"fault": fault, "replicas": replicas,
                            "repair": repair})
    cell_seed = _cell_seed(seed, fault, f"r{replicas}-{repair}")
    storm = fault == "single_shard_storm"
    tenant = "matrix"
    scrubbed = fault == "burst_on_scrub"
    pool = ShardPool(count=4, read_retries=1, quarantine_after=2,
                     scrub_days=365.0 if scrubbed else None)
    store = VideoObjectStore(pool=pool, config=config, replicas=replicas)
    ids = store.put_many(tenant, clips)
    if scrubbed:
        # Age the written keys to the far end of the scrub interval:
        # the burst lands on cells already carrying a cycle's worth of
        # drift, and repair rewrites (which stamp the moved clock) read
        # as fresh afterwards.
        pool.advance_all(360.0)
    victim = _storm_victim(store)
    if storm:
        policy = chaos.ChaosPolicy(seed=cell_seed, shard_storm=victim,
                                   device_burst_blocks=3)
    else:
        # burst_on_scrub draws at a higher rate: uncoded (t=0) streams
        # return before the device's chaos seam, so a low rate can
        # leave a cell with no coded blob faulting at all.
        rate = 0.7 if fault == "correlated_burst" else 0.9
        policy = chaos.ChaosPolicy(seed=cell_seed, device_burst_rate=rate,
                                   device_burst_blocks=3)
    with _armed(cell, policy):
        with obs_metrics.counter_deltas(
                "storage_miscorrected_blocks_total",
                "storage_uncorrectable_blocks_total",
                "chaos_device_storm_total",
                "chaos_device_burst_total") as moved:
            storm_tally = _repair_outcomes(store, tenant, ids, reads,
                                           [cell_seed, 1])
        events = (moved["chaos_device_storm_total"]
                  + moved["chaos_device_burst_total"])
        uncorrectable = moved["storage_uncorrectable_blocks_total"]
        cell.invariants["no_silent_miscorrection"] = (
            moved["storage_miscorrected_blocks_total"] == 0)
        cell.invariants["damage_visible"] = (events == 0
                                             or uncorrectable >= events)
        if events == 0:
            cell.flags.append("no-chaos-fault-fired")
        if storm and replicas >= 2:
            cell.invariants["zero_refusals"] = (storm_tally["refused"] == 0)
            cell.invariants["no_data_loss"] = (
                sum(storm_tally.values()) == len(ids) * reads
                and storm_tally["refused"] == 0)
        cell.details.update(
            victim=victim, storm_outcomes=storm_tally, chaos_fired=events,
            uncorrectable_blocks=uncorrectable,
            backlog_after_storm=store.repair.backlog())
        if not repair:
            return cell
        reports = []
        for _ in range(3):
            report = run_repair_pass(store)
            reports.append(report.to_dict())
            if (report.backlog == 0 and report.scan_enqueued == 0
                    and report.tickets_drained == 0):
                break
        health = replication_health(store)
        cell.invariants["repair_converges"] = (
            reports[-1]["backlog"] == 0
            and reports[-1]["scan_enqueued"] == 0
            and reports[-1]["tickets_drained"] == 0)
        cell.invariants["fully_replicated"] = (
            health["under_replicated"] == 0)
        if storm:
            victim_shard = store.pool.shard(victim)
            cell.invariants["victim_drained"] = (
                victim_shard.health == QUARANTINED
                and len(victim_shard.blobs) == 0)
        post_tally = _repair_outcomes(store, tenant, ids, reads,
                                      [cell_seed, 2])
        if storm:
            cell.invariants["post_repair_clean"] = (
                post_tally["refused"] == 0
                and post_tally["concealed"] == 0)
        cell.details.update(repair_passes=reports, health=health,
                            post_outcomes=post_tally)
    return cell
