"""Self-contained fault-injection trials.

A Monte Carlo campaign — the unit of work behind every exhibit in the
paper's evaluation — is a list of :class:`TrialSpec` objects executed
against one shared :class:`TrialContext`. The split mirrors the cost
structure of the workload:

* the **context** carries the heavy, trial-invariant state (the encoded
  stream, the reference and clean-decode sequences, bit-range tables,
  or a stored video plus its store); pool workers inherit it when they
  fork, and each parses the encoded stream exactly once;
* each **spec** is a tiny picklable record: what to damage (an error
  rate over bit ranges, a single flip position, or a storage read) and
  a pre-spawned RNG seed.

Seeds come from :meth:`numpy.random.SeedSequence.spawn`, so every trial
owns an independent, reproducible random stream. Because randomness is
fixed per spec *before* execution, results are bitwise identical at any
worker count and in any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import AnalysisError
from ..codec.decoder import Decoder
from ..codec.encoded import EncodedVideo
from ..metrics.psnr import psnr as frame_psnr
from ..metrics.psnr import video_psnr
from ..storage.device import ScrubPolicy
from ..storage.injection import BitRange, inject_into_payloads, inject_single_flip
from ..video.frame import VideoSequence

#: Trial kinds (plain strings keep specs trivially picklable).
KIND_SWEEP = "sweep"              #: binomial flips over bit ranges
KIND_SINGLE_FLIP = "single_flip"  #: one deterministic flip (Figure 3)
KIND_STORED_READ = "stored_read"  #: full storage round trip (Figure 11)
KIND_RETENTION_READ = "retention_read"  #: aged read with lifetime knobs
KIND_ENCODE_UNIT = "encode_unit"  #: batchable clip/GOP encode work unit

#: Upper bound on same-geometry encode units stacked into one batched
#: kernel call when the campaign sets none.
DEFAULT_BATCH_SIZE = 16

#: Failure kinds a trial can be quarantined with.
FAILURE_TIMEOUT = "timeout"  #: exceeded its wall-clock watchdog budget
FAILURE_ERROR = "error"      #: raised an exception inside the trial
FAILURE_CRASH = "crash"      #: killed its worker process (segfault/OOM/exit)


@dataclass(frozen=True)
class RunStats:
    """Wall-clock and fault accounting for one campaign.

    Attached to experiment results (``compare=False`` fields) so
    benchmark JSON and reports can show throughput — and, since the
    fault-tolerance layer, how gracefully the campaign degraded — not
    just quality.
    """

    started_unix: float      #: campaign start, seconds since the epoch
    elapsed_seconds: float   #: wall-clock duration of the campaign
    workers: int             #: resolved worker count (0 = in-process serial)
    trials: int              #: number of trials in the campaign
    #: Trials whose final outcome is a :class:`TrialFailure` (any kind).
    failed: int = 0
    #: Subset of ``failed`` abandoned only after crash/hang retries were
    #: exhausted (poison trials).
    quarantined: int = 0
    #: Chunk resubmissions performed while recovering from worker
    #: crashes or hard hangs.
    retried: int = 0
    #: Trials restored from a campaign journal instead of re-executed.
    resumed: int = 0
    #: Times the worker pool had to be respawned.
    pool_restarts: int = 0

    @property
    def trials_per_second(self) -> float:
        """Campaign throughput (infinite for a zero-duration run)."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.trials / self.elapsed_seconds

    @property
    def completed(self) -> int:
        """Trials that produced a usable :class:`TrialResult`."""
        return self.trials - self.failed


@dataclass(frozen=True)
class TrialSpec:
    """One independent inject→decode→measure trial.

    Specs must stay small and picklable: anything heavy belongs in the
    shared :class:`TrialContext`. ``seed`` is a child
    :class:`numpy.random.SeedSequence` spawned by the campaign builder.
    """

    index: int
    kind: str
    rate: float = 0.0
    seed: Optional[np.random.SeedSequence] = None
    #: Index into ``TrialContext.ranges_table`` (None = all payload bits).
    ranges_ref: Optional[int] = None
    force_at_least_one: bool = True
    #: For KIND_SINGLE_FLIP: (coded frame index, bit position).
    flip_payload: Optional[int] = None
    flip_bit: Optional[int] = None
    #: For KIND_SINGLE_FLIP: display index of the frame to measure.
    measure_frame: Optional[int] = None
    #: For KIND_RETENTION_READ: retention time of the read, in days.
    t_days: Optional[float] = None
    #: For KIND_RETENTION_READ: scrub interval in days (None = never).
    scrub_days: Optional[float] = None
    #: For KIND_RETENTION_READ: re-read retry depth for detected-
    #: uncorrectable blocks (None = resolve from REPRO_READ_RETRIES).
    retries: Optional[int] = None
    #: For KIND_RETENTION_READ: conceal uncorrectable slices on decode.
    conceal: bool = False
    #: For KIND_ENCODE_UNIT: index into ``TrialContext.clips``.
    clip_ref: Optional[int] = None
    #: For KIND_ENCODE_UNIT: display-frame bounds of the work unit
    #: (None/None = the whole clip).
    unit_start: Optional[int] = None
    unit_stop: Optional[int] = None


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial, in units the campaign builder aggregates."""

    index: int
    value_db: float      #: kind-dependent measurement (see execute_trial)
    num_flips: int = 0
    forced: bool = False
    #: Kind-specific extras, JSON-serializable (journaled verbatim).
    #: Encode units report ``bits`` and per-frame PSNRs so the farm can
    #: aggregate rate and frame-weighted quality across units.
    aux: Optional[dict] = None


@dataclass(frozen=True)
class TrialFailure:
    """A trial the campaign gave up on — quarantined, not fatal.

    Campaigns degrade gracefully: a failure occupies the trial's slot in
    the (spec-ordered) result list so aggregation can skip-and-scale
    instead of aborting, and :class:`RunStats` counts it.
    """

    index: int
    kind: str          #: FAILURE_TIMEOUT | FAILURE_ERROR | FAILURE_CRASH
    message: str = ""
    attempts: int = 1  #: executions consumed before quarantining


#: What campaigns actually return per spec: a measurement or a failure.
TrialOutcome = Union[TrialResult, TrialFailure]


@dataclass
class TrialContext:
    """Heavy shared state, inherited by every forked worker process.

    Exactly one of the two families of fields is populated:

    * stream trials (sweep / single flip): ``encoded_blob`` (a
      serialized :class:`EncodedVideo`, parsed once per worker),
      ``reference``/``clean``/``clean_psnr``, and ``ranges_table``;
    * stored-read trials: ``store`` (an ``ApproximateVideoStore``) and
      ``stored`` (its ``StoredVideo``), plus ``reference``.
    """

    encoded_blob: Optional[bytes] = None
    reference: Optional[VideoSequence] = None
    clean: Optional[VideoSequence] = None
    clean_psnr: Optional[float] = None
    #: Shared bit-range sets; specs point into this by index so a spec,
    #: which is pickled to a worker, never carries a range list.
    ranges_table: Tuple[Tuple[BitRange, ...], ...] = ()
    store: Optional[object] = None   # ApproximateVideoStore
    stored: Optional[object] = None  # StoredVideo
    #: Encode-farm clips: a tuple of ``VideoSequence``.
    clips: Optional[object] = None
    #: Encoder configuration for KIND_ENCODE_UNIT trials.
    encoder_config: Optional[object] = None
    #: Encode-batch width for this campaign (None =
    #: :data:`DEFAULT_BATCH_SIZE`); carried here so it reaches workers.
    batch_size: Optional[int] = None


class WorkerState:
    """Per-process state built from a :class:`TrialContext` exactly once."""

    def __init__(self, context: TrialContext) -> None:
        self.context = context
        self.decoder = Decoder()
        self.encoded: Optional[EncodedVideo] = None
        self.payloads: Optional[List[bytes]] = None
        if context.encoded_blob is not None:
            self.encoded = EncodedVideo.deserialize(context.encoded_blob)
            self.payloads = self.encoded.frame_payloads()


def spawn_trial_seeds(rng: np.random.Generator,
                      count: int) -> List[np.random.SeedSequence]:
    """Spawn ``count`` independent child seeds from a generator.

    One entropy value is drawn from ``rng`` (advancing its stream, so
    repeated campaigns on the same generator get fresh children) to
    root a :class:`~numpy.random.SeedSequence`, whose ``spawn`` then
    yields one statistically independent child per trial. Because the
    draw happens up front in the campaign builder, the seeds — and
    therefore the results — are identical at any worker count.
    """
    root = np.random.SeedSequence(int(rng.integers(0, 2 ** 63)))
    return root.spawn(count)


#: Extension point: extra trial kinds beyond the built-in three.
#: Handlers registered *before* a pool spawns are inherited by forked
#: workers; tests also use this to inject crashing/hanging trials.
TrialHandler = Callable[["WorkerState", "TrialSpec"], TrialResult]
_KIND_HANDLERS: Dict[str, TrialHandler] = {}


def register_trial_kind(kind: str, handler: TrialHandler) -> None:
    """Register a custom trial kind executed by :func:`execute_trial`.

    Built-in kinds cannot be overridden; re-registering a custom kind
    replaces its handler.
    """
    if kind in (KIND_SWEEP, KIND_SINGLE_FLIP, KIND_STORED_READ,
                KIND_RETENTION_READ, KIND_ENCODE_UNIT):
        raise AnalysisError(f"cannot override built-in trial kind {kind!r}")
    _KIND_HANDLERS[kind] = handler


def unregister_trial_kind(kind: str) -> None:
    """Remove a custom trial kind (missing kinds are ignored)."""
    _KIND_HANDLERS.pop(kind, None)


def execute_trial(state: WorkerState, spec: TrialSpec) -> TrialResult:
    """Run one trial against prepared worker state.

    Measurement semantics by kind:

    * ``KIND_SWEEP`` — ``value_db`` is the (unscaled) PSNR change of the
      damaged decode versus the clean decode; the campaign builder
      applies the paper's rare-event scaling for forced flips;
    * ``KIND_SINGLE_FLIP`` — ``value_db`` is the damaged PSNR of the
      measured frame against its clean decode;
    * ``KIND_STORED_READ`` — ``value_db`` is the whole-video PSNR of a
      storage round trip against the raw reference;
    * ``KIND_RETENTION_READ`` — like ``KIND_STORED_READ`` but the read
      happens at ``spec.t_days`` of retention with the spec's scrubbing,
      re-read retry, and concealment mitigations applied.
    """
    context = state.context
    if spec.kind == KIND_SWEEP:
        if state.payloads is None or context.reference is None \
                or context.clean_psnr is None:
            raise AnalysisError("sweep trial needs an encoded-stream context")
        if spec.rate <= 0.0:
            return TrialResult(spec.index, 0.0, 0, False)
        rng = np.random.default_rng(spec.seed)
        ranges = (None if spec.ranges_ref is None
                  else context.ranges_table[spec.ranges_ref])
        outcome = inject_into_payloads(
            state.payloads, spec.rate, rng, ranges=ranges,
            force_at_least_one=spec.force_at_least_one)
        if outcome.num_flips == 0:
            return TrialResult(spec.index, 0.0, 0, False)
        damaged = state.decoder.decode(
            state.encoded.with_payloads(outcome.payloads))
        change = video_psnr(context.reference, damaged) - context.clean_psnr
        return TrialResult(spec.index, float(change), outcome.num_flips,
                           outcome.forced)
    if spec.kind == KIND_SINGLE_FLIP:
        if state.payloads is None or context.clean is None:
            raise AnalysisError("flip trial needs an encoded-stream context")
        damaged_payloads = inject_single_flip(
            state.payloads, spec.flip_payload, spec.flip_bit)
        damaged = state.decoder.decode(
            state.encoded.with_payloads(damaged_payloads))
        value = frame_psnr(context.clean[spec.measure_frame],
                           damaged[spec.measure_frame])
        return TrialResult(spec.index, float(value), 1, False)
    if spec.kind in (KIND_STORED_READ, KIND_RETENTION_READ):
        # A stored read is a retention read with the spec's defaults.
        if context.store is None or context.stored is None \
                or context.reference is None:
            raise AnalysisError(f"{spec.kind} trial needs a store context")
        rng = np.random.default_rng(spec.seed)
        scrub = (None if spec.scrub_days is None
                 else ScrubPolicy(interval_days=spec.scrub_days))
        damaged = context.store.read(
            context.stored, rng=rng, t_days=spec.t_days, scrub=scrub,
            read_retries=spec.retries, conceal=spec.conceal)
        return TrialResult(spec.index,
                           float(video_psnr(context.reference, damaged)), 0,
                           False)
    if spec.kind == KIND_ENCODE_UNIT:
        return execute_trial_batch(state, [spec])[0]
    handler = _KIND_HANDLERS.get(spec.kind)
    if handler is not None:
        return handler(state, spec)
    raise AnalysisError(f"unknown trial kind {spec.kind!r}")


# ----------------------------------------------------------------------
# Encode-unit trials (the batched encode farm)
# ----------------------------------------------------------------------

def _unit_video(context: TrialContext, spec: TrialSpec) -> VideoSequence:
    """Materialize the clip slice an encode-unit spec points at."""
    if context.clips is None or context.encoder_config is None:
        raise AnalysisError(
            "encode-unit trial needs clips and an encoder config")
    clip = context.clips[spec.clip_ref]
    if spec.unit_start is None and spec.unit_stop is None:
        return clip
    start = 0 if spec.unit_start is None else spec.unit_start
    stop = len(clip) if spec.unit_stop is None else spec.unit_stop
    return clip.subsequence(start, stop)


def _encode_unit_result(spec: TrialSpec, unit: VideoSequence,
                        encoded: EncodedVideo,
                        recon: np.ndarray) -> TrialResult:
    """Score one encoded unit: rate in bits, quality per frame.

    ``value_db`` is the unit's frame-averaged PSNR; ``aux`` carries the
    per-frame PSNR list so the farm reconstructs the whole-clip
    ``video_psnr`` exactly (units partition the clip's frames, and
    ``video_psnr`` is the mean over frames).
    """
    source = unit.to_array()
    frame_values = [float(frame_psnr(source[i], recon[i]))
                    for i in range(source.shape[0])]
    bits = 8 * len(encoded.serialize())
    value = float(np.mean(frame_values))
    return TrialResult(spec.index, value, 0, False,
                       aux={"bits": bits, "frame_psnrs": frame_values})


def execute_trial_batch(state: WorkerState,
                        specs: Sequence[TrialSpec]) -> List[TrialResult]:
    """Execute a group of encode-unit trials as one batched encode.

    All specs must be ``KIND_ENCODE_UNIT``. Same-geometry units are
    stacked through the batched kernels by
    :func:`~repro.codec.encoder.encode_batch_with_recon` (mixed
    geometries become one stack per geometry), and the encoder's
    closed-loop reconstruction is the measured one: it equals a clean
    decode of the stream bit for bit, so no unit is decoded.
    """
    from ..codec.encoder import encode_batch_with_recon

    for spec in specs:
        if spec.kind != KIND_ENCODE_UNIT:
            raise AnalysisError(
                f"execute_trial_batch got a {spec.kind!r} trial")
    context = state.context
    if context.clips is None or context.encoder_config is None:
        raise AnalysisError(
            "encode-unit trial needs clips and an encoder config")
    units = [_unit_video(context, spec) for spec in specs]
    encodeds, recons = encode_batch_with_recon(units,
                                               context.encoder_config)
    return [_encode_unit_result(spec, unit, encoded, recon)
            for spec, unit, encoded, recon
            in zip(specs, units, encodeds, recons)]


def build_sweep_specs(rates: Sequence[float], runs: int,
                      rng: np.random.Generator,
                      ranges_ref: Optional[int] = None,
                      force_at_least_one: bool = True) -> List[TrialSpec]:
    """The (rate × run) trial grid behind :func:`quality_sweep`."""
    seeds = spawn_trial_seeds(rng, len(rates) * runs)
    specs: List[TrialSpec] = []
    for rate_index, rate in enumerate(rates):
        for run in range(runs):
            index = rate_index * runs + run
            specs.append(TrialSpec(
                index=index, kind=KIND_SWEEP, rate=float(rate),
                seed=seeds[index], ranges_ref=ranges_ref,
                force_at_least_one=force_at_least_one))
    return specs
