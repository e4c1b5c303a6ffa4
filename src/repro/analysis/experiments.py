"""Experiment runners: one per table/figure in the paper's evaluation.

Each ``run_*`` function reproduces the measurement behind one exhibit:

=============  ===========================================================
Exhibit        Runner
=============  ===========================================================
Figure 3       :func:`run_figure3`  — PSNR vs position of a flipped MB
Figure 8       :func:`run_figure8`  — BCH overhead/capability table
Figure 9       :func:`run_figure9`  — quality loss per equal-storage bin
Figure 10      :func:`run_figure10` — cumulative loss per importance class
Table 1        :func:`run_table1`   — budget-driven ECC assignment
Figure 11      :func:`run_figure11` — density vs quality for 3 designs
Section 5      :func:`run_section5` — encryption-mode compatibility
Section 8      :func:`run_section8` — slices / B-frames / CAVLC ablations
Section 4.3.1  :func:`run_overhead` — analysis cost vs encoding cost
=============  ===========================================================

Absolute numbers depend on the synthetic content and the scaled-down
geometry; the *shapes* (orderings, crossovers, win factors) are the
reproduction targets — see EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codec.config import EncoderConfig, EntropyCoder
from ..codec.decoder import Decoder
from ..codec.encoded import EncodedVideo
from ..codec.encoder import Encoder, _encode_clean
from ..codec.types import FrameType
from ..core.assignment import (
    DEFAULT_QUALITY_BUDGET_DB,
    PAPER_TABLE1,
    ClassAssignment,
    QualityCurve,
    assign_schemes,
)
from ..core.classes import (
    class_bit_ranges,
    class_storage_distribution,
    storage_fraction_by_class,
)
from ..core.importance import compute_importance, macroblock_bits
from ..core.pipeline import ApproximateVideoStore
from ..crypto.analysis import ModeVerdict, analyze_all_modes
from ..errors import AnalysisError
from ..metrics.psnr import video_psnr
from ..runtime import (
    KIND_SINGLE_FLIP,
    KIND_STORED_READ,
    ArtifactCache,
    RunStats,
    TrialContext,
    TrialResult,
    TrialSpec,
    run_campaign,
    session_cache,
    spawn_trial_seeds,
)
from ..storage.density import ideal_density, slc_density, uniform_density
from ..storage.ecc import figure8_table
from ..video.frame import VideoSequence
from .binning import equal_storage_bins
from .sweeps import PAPER_ERROR_RATES, SweepResult, quality_sweep


# ----------------------------------------------------------------------
# Figure 3 — damage vs flipped-MB position
# ----------------------------------------------------------------------

@dataclass
class Figure3Result:
    """PSNR of the damaged frame as a function of the flipped MB."""

    psnr_grid: np.ndarray      #: (mb_rows, mb_cols) mean PSNR in dB
    samples_grid: np.ndarray   #: flips contributing per cell
    #: Wall-clock/throughput accounting; excluded from equality so
    #: serial and parallel campaigns compare bitwise equal.
    stats: Optional[RunStats] = field(default=None, compare=False,
                                      repr=False)

    def corners(self) -> Tuple[float, float]:
        """(top-left PSNR, bottom-right PSNR) — the paper's contrast."""
        return float(self.psnr_grid[0, 0]), float(self.psnr_grid[-1, -1])


def run_figure3(video: VideoSequence,
                config: Optional[EncoderConfig] = None,
                max_frames: Optional[int] = None,
                workers: Optional[int] = None,
                cache: Optional[ArtifactCache] = None) -> Figure3Result:
    """Flip one bit per macroblock position in inter-only P-frames and
    measure the affected frame's PSNR against the clean decode.

    Every probe is an independent single-flip trial, fanned out over the
    trial engine; being fully deterministic, the grid is identical at
    any worker count.
    """
    config = config or EncoderConfig()
    cache = cache or session_cache()
    encoded = cache.encode(video, config)
    assert encoded.trace is not None
    clean = cache.clean_decode(video, config)

    mb_rows = encoded.trace.mb_rows
    mb_cols = encoded.trace.mb_cols
    totals = np.zeros((mb_rows, mb_cols))
    counts = np.zeros((mb_rows, mb_cols))

    eligible = [
        frame for frame in encoded.trace.frames
        if frame.frame_type == FrameType.P
    ]
    if max_frames is not None:
        eligible = eligible[:max_frames]
    if not eligible:
        raise AnalysisError("no P-frames to probe; lengthen the video")

    specs = []
    cells = []  # (row, col) per spec, aligned by index
    for frame in eligible:
        for mb in frame.macroblocks:
            if mb.bit_end <= mb.bit_start:
                continue  # skip MBs that emitted no attributable bits
            bit = (mb.bit_start + mb.bit_end) // 2
            specs.append(TrialSpec(
                index=len(specs), kind=KIND_SINGLE_FLIP,
                flip_payload=frame.coded_index, flip_bit=bit,
                measure_frame=frame.display_index))
            cells.append(divmod(mb.mb_index, mb_cols))
    context = TrialContext(
        encoded_blob=EncodedVideo(header=encoded.header,
                                  frames=encoded.frames,
                                  trace=None).serialize(),
        clean=clean,
    )
    results, stats = run_campaign(context, specs, workers=workers)
    for trial, (row, col) in zip(results, cells):
        if not isinstance(trial, TrialResult):
            continue  # quarantined probe: its cell just gets fewer samples
        totals[row, col] += trial.value_db
        counts[row, col] += 1
    grid = np.where(counts > 0, totals / np.maximum(counts, 1), np.nan)
    return Figure3Result(psnr_grid=grid, samples_grid=counts, stats=stats)


# ----------------------------------------------------------------------
# Figure 8 — the ECC menu
# ----------------------------------------------------------------------

def run_figure8(raw_ber: float = 1e-3) -> List[dict]:
    """Overhead and correction capability per BCH scheme."""
    return figure8_table(raw_ber)


# ----------------------------------------------------------------------
# Figure 9 — equal-storage bins
# ----------------------------------------------------------------------

@dataclass
class Figure9Result:
    """Per-bin quality-loss curves plus per-bin max importance."""

    sweeps: List[SweepResult]          #: one per bin, ascending importance
    max_importance_log2: List[float]   #: Figure 9(b)
    rates: Tuple[float, ...]

    def losses_matrix(self) -> np.ndarray:
        """(bins, rates) max-loss matrix in dB."""
        return np.array([s.losses() for s in self.sweeps])


def run_figure9(video: VideoSequence,
                config: Optional[EncoderConfig] = None,
                num_bins: int = 16,
                rates: Sequence[float] = PAPER_ERROR_RATES,
                runs: int = 8,
                rng: Optional[np.random.Generator] = None,
                workers: Optional[int] = None,
                cache: Optional[ArtifactCache] = None) -> Figure9Result:
    """Inject errors into one equal-storage importance bin at a time."""
    config = config or EncoderConfig()
    rng = rng or np.random.default_rng(42)
    cache = cache or session_cache()
    encoded = cache.encode(video, config)
    assert encoded.trace is not None
    clean = cache.clean_decode(video, config)
    importance = compute_importance(encoded.trace)
    mb_bits = macroblock_bits(encoded.trace, importance)
    bins = equal_storage_bins(mb_bits, num_bins)
    sweeps = []
    for bucket in bins:
        sweeps.append(quality_sweep(
            encoded, video, clean, bucket.ranges, rates=rates, runs=runs,
            rng=rng, workers=workers))
    return Figure9Result(
        sweeps=sweeps,
        max_importance_log2=[float(np.log2(max(b.max_importance, 1.0)))
                             for b in bins],
        rates=tuple(rates),
    )


# ----------------------------------------------------------------------
# Figure 10 — importance classes
# ----------------------------------------------------------------------

@dataclass
class Figure10Result:
    """Cumulative loss per importance class + storage distribution."""

    class_indices: List[int]
    curves: List[QualityCurve]              #: cumulative, Figure 10(a)
    cumulative_storage: List[float]         #: Figure 10(b)
    storage_fractions: Dict[int, float]     #: per-class (non-cumulative)
    rates: Tuple[float, ...]


def run_figure10(video: VideoSequence,
                 config: Optional[EncoderConfig] = None,
                 rates: Sequence[float] = PAPER_ERROR_RATES,
                 runs: int = 8,
                 rng: Optional[np.random.Generator] = None,
                 workers: Optional[int] = None,
                 cache: Optional[ArtifactCache] = None
                 ) -> Figure10Result:
    """Cumulative quality loss when all classes <= i are exposed."""
    config = config or EncoderConfig()
    rng = rng or np.random.default_rng(43)
    cache = cache or session_cache()
    encoded = cache.encode(video, config)
    assert encoded.trace is not None
    clean = cache.clean_decode(video, config)
    importance = compute_importance(encoded.trace)
    mb_bits = macroblock_bits(encoded.trace, importance)
    distribution = class_storage_distribution(mb_bits)
    class_indices = [entry.class_index for entry in distribution]

    curves: List[QualityCurve] = []
    cumulative_bits = 0
    total_bits = sum(entry.bits for entry in distribution)
    cumulative_storage: List[float] = []
    for entry in distribution:
        ranges = class_bit_ranges(mb_bits, entry.class_index)
        sweep = quality_sweep(encoded, video, clean, ranges, rates=rates,
                              runs=runs, rng=rng, workers=workers)
        curves.append(QualityCurve(
            class_index=entry.class_index,
            points={p.rate: -p.max_loss_db for p in sweep.points},
        ))
        cumulative_bits += entry.bits
        cumulative_storage.append(cumulative_bits / total_bits)
    return Figure10Result(
        class_indices=class_indices,
        curves=curves,
        cumulative_storage=cumulative_storage,
        storage_fractions=storage_fraction_by_class(mb_bits),
        rates=tuple(rates),
    )


def run_figure10_suite(videos: Sequence[Tuple[str, VideoSequence]],
                       config: Optional[EncoderConfig] = None,
                       rates: Sequence[float] = PAPER_ERROR_RATES,
                       runs: int = 8,
                       rng: Optional[np.random.Generator] = None,
                       workers: Optional[int] = None
                       ) -> Figure10Result:
    """Figure 10 aggregated over a video suite, as the paper does.

    Per class and rate the suite-worst (maximum) loss is kept — the
    paper's conservative accounting — and storage distributions are
    averaged with equal weight per video.
    """
    if not videos:
        raise AnalysisError("empty video suite")
    rng = rng or np.random.default_rng(49)
    per_video = [run_figure10(video, config, rates=rates, runs=runs,
                              rng=rng, workers=workers)
                 for _name, video in videos]

    all_classes = sorted({index for result in per_video
                          for index in result.class_indices})
    merged_curves: List[QualityCurve] = []
    for class_index in all_classes:
        points: Dict[float, float] = {}
        for rate in rates:
            losses = []
            for result in per_video:
                # Use this video's largest class <= class_index (its
                # cumulative curve is defined at every class it has).
                candidates = [c for c in result.curves
                              if c.class_index <= class_index]
                if candidates:
                    losses.append(candidates[-1].loss_at(rate))
            points[rate] = -max(losses) if losses else 0.0
        merged_curves.append(QualityCurve(class_index=class_index,
                                          points=points))

    # Merge storage distributions with equal weight per video.
    fraction_sums: Dict[int, float] = {}
    for result in per_video:
        video_total = sum(result.storage_fractions.values())
        for index, fraction in result.storage_fractions.items():
            fraction_sums[index] = (fraction_sums.get(index, 0.0)
                                    + fraction / video_total)
    storage_fractions = {index: value / len(per_video)
                         for index, value in fraction_sums.items()}
    cumulative = []
    running = 0.0
    for index in all_classes:
        running += storage_fractions.get(index, 0.0)
        cumulative.append(running)
    return Figure10Result(
        class_indices=all_classes,
        curves=merged_curves,
        cumulative_storage=cumulative,
        storage_fractions=storage_fractions,
        rates=tuple(rates),
    )


# ----------------------------------------------------------------------
# Table 1 — ECC assignment
# ----------------------------------------------------------------------

def run_table1(figure10: Figure10Result,
               budget_db: float = DEFAULT_QUALITY_BUDGET_DB
               ) -> ClassAssignment:
    """Derive the assignment from measured class curves (Section 7.2).

    Pure post-processing of a :func:`run_figure10` result: the Monte
    Carlo work already happened on the trial engine, so this step has
    no trials (and no ``workers`` knob) of its own.
    """
    return assign_schemes(figure10.curves, figure10.storage_fractions,
                          budget_db=budget_db)


# ----------------------------------------------------------------------
# Figure 11 — overall storage gains
# ----------------------------------------------------------------------

@dataclass
class DesignPoint:
    """One (density, quality) point of Figure 11."""

    design: str
    crf: int
    cells_per_pixel: float
    psnr_db: float


@dataclass
class Figure11Result:
    """Density/quality points for Uniform / Variable / Ideal, per CRF."""

    points: List[DesignPoint]
    #: Headline metrics at the most error-intolerant setting (lowest CRF).
    ecc_overhead_reduction: float
    density_gain_vs_uniform: float
    density_gain_vs_slc: float
    worst_quality_loss_db: float

    def by_design(self, design: str) -> List[DesignPoint]:
        return [p for p in self.points if p.design == design]


def _slim_stored(stored):
    """A copy of a StoredVideo without the encoding trace or timings.

    The read path never touches the trace, and it dominates the pickle
    shipped to worker processes. The importance analysis wall-clock is
    zeroed too: the campaign journal folds this object's pickle into
    the campaign digest, and a timing that changes every run would
    orphan the journal on resume (two identical campaigns would look
    like different ones).
    """
    from dataclasses import replace

    slim = replace(stored,
                   importance=replace(stored.importance,
                                      analysis_seconds=0.0))
    encoded = slim.protected.encoded
    if encoded.trace is None:
        return slim
    slim_encoded = EncodedVideo(header=encoded.header,
                                frames=encoded.frames, trace=None)
    return replace(slim,
                   protected=replace(slim.protected,
                                     encoded=slim_encoded))


def run_figure11(videos: Sequence[Tuple[str, VideoSequence]],
                 crfs: Sequence[int] = (16, 20, 24),
                 assignment: ClassAssignment = PAPER_TABLE1,
                 gop_size: int = 12,
                 runs: int = 5,
                 rng: Optional[np.random.Generator] = None,
                 workers: Optional[int] = None) -> Figure11Result:
    """The headline experiment: uniform vs variable vs ideal correction.

    For each CRF, every suite video is encoded, analyzed, partitioned,
    and stored; densities are aggregated over the suite and quality is
    the suite-mean PSNR (with the variable design's loss taken as the
    worst Monte Carlo run, per the paper's conservative accounting).
    The per-video storage reads are independent stored-read trials on
    the trial engine; each owns a spawned seed, so results are bitwise
    identical at any worker count.
    """
    rng = rng or np.random.default_rng(44)
    points: List[DesignPoint] = []
    headline: Dict[str, float] = {}
    for crf in sorted(crfs):
        config = EncoderConfig(crf=crf, gop_size=gop_size)
        store = ApproximateVideoStore(config=config, assignment=assignment)
        uniform_cells = variable_cells = ideal_cells = slc_cells = 0.0
        pixels = 0
        clean_psnrs: List[float] = []
        approx_psnrs: List[float] = []
        overhead_bits_uniform = overhead_bits_variable = 0.0
        for _name, video in videos:
            stored = store.put(video)
            clean = store.reconstruct(stored)
            clean_value = video_psnr(video, clean)
            clean_psnrs.append(clean_value)
            seeds = spawn_trial_seeds(rng, runs)
            context = TrialContext(reference=video, store=store,
                                   stored=_slim_stored(stored))
            specs = [TrialSpec(index=i, kind=KIND_STORED_READ,
                               seed=seeds[i])
                     for i in range(runs)]
            results, _stats = run_campaign(context, specs, workers=workers)
            worst = min([clean_value]
                        + [trial.value_db for trial in results
                           if isinstance(trial, TrialResult)])
            approx_psnrs.append(worst)
            report = stored.density()
            total_bits = report.payload_bits + report.header_bits
            uniform = uniform_density(total_bits, video.total_pixels)
            ideal = ideal_density(total_bits, video.total_pixels)
            slc = slc_density(total_bits, video.total_pixels)
            uniform_cells += uniform.cells
            variable_cells += report.cells
            ideal_cells += ideal.cells
            slc_cells += slc.cells
            pixels += video.total_pixels
            overhead_bits_uniform += uniform.stored_bits - total_bits
            overhead_bits_variable += report.stored_bits - total_bits
        clean_mean = float(np.mean(clean_psnrs))
        approx_mean = float(np.mean(approx_psnrs))
        points.append(DesignPoint("uniform", crf, uniform_cells / pixels,
                                  clean_mean))
        points.append(DesignPoint("variable", crf, variable_cells / pixels,
                                  approx_mean))
        points.append(DesignPoint("ideal", crf, ideal_cells / pixels,
                                  clean_mean))
        if crf == min(crfs):  # most error-intolerant setting
            headline["reduction"] = 1.0 - (overhead_bits_variable
                                           / overhead_bits_uniform)
            headline["vs_uniform"] = uniform_cells / variable_cells - 1.0
            headline["vs_slc"] = slc_cells / variable_cells
            headline["loss"] = clean_mean - approx_mean
    return Figure11Result(
        points=points,
        ecc_overhead_reduction=headline["reduction"],
        density_gain_vs_uniform=headline["vs_uniform"],
        density_gain_vs_slc=headline["vs_slc"],
        worst_quality_loss_db=headline["loss"],
    )


# ----------------------------------------------------------------------
# Approximation vs compression — the paper's central thesis
# ----------------------------------------------------------------------

@dataclass
class ApproxVsCompressResult:
    """Equal-storage comparison of the two ways to save cells.

    ``approx_*`` is VideoApp's variable correction at the base CRF;
    ``compress_*`` is uniform (precise) correction at the smallest CRF
    whose cell footprint fits within the approximate design's. The
    paper's thesis — "quality/density points that neither compression
    nor approximation can achieve alone" — holds when approx quality
    exceeds compress quality at no more storage.
    """

    base_crf: int
    compress_crf: int
    approx_cells_per_pixel: float
    compress_cells_per_pixel: float
    approx_psnr_db: float
    compress_psnr_db: float

    @property
    def approximation_wins(self) -> bool:
        return (self.approx_psnr_db > self.compress_psnr_db
                and self.approx_cells_per_pixel
                <= self.compress_cells_per_pixel * 1.001)


def run_approximation_vs_compression(
        video: VideoSequence,
        base_crf: int = 22,
        gop_size: int = 12,
        assignment: Optional[ClassAssignment] = None,
        runs: int = 4,
        max_crf_search: int = 20,
        budget_db: float = DEFAULT_QUALITY_BUDGET_DB,
        rng: Optional[np.random.Generator] = None
        ) -> ApproxVsCompressResult:
    """Answer the paper's Section 8 question — "can approximation bring
    higher objectively measured benefits compared to deterministic
    video compression?" — on one video.

    The approximate design stores the base-CRF encode with variable ECC
    (worst Monte Carlo quality over ``runs`` reads); by default the
    class assignment is derived from this content's own measured
    Figure-10 curves — the paper's methodology, which matters here
    because damage per flip depends on video size, so thresholds tuned
    for 500-frame 720p footage (``PAPER_TABLE1``) are too permissive for
    short clips. The compression design raises CRF until the uniformly
    protected encode fits in no more cells, then decodes cleanly.
    """
    from ..core.pipeline import ApproximateVideoStore

    rng = rng or np.random.default_rng(53)
    config = EncoderConfig(crf=base_crf, gop_size=gop_size)
    if assignment is None:
        curves = run_figure10(video, config, rates=(1e-8, 1e-6, 1e-4, 1e-3),
                              runs=runs, rng=rng)
        assignment = assign_schemes(curves.curves,
                                    curves.storage_fractions,
                                    budget_db=budget_db)
    store = ApproximateVideoStore(config=config, assignment=assignment)
    stored = store.put(video)
    approx_report = stored.density()
    worst = video_psnr(video, store.reconstruct(stored))
    for _run in range(runs):
        worst = min(worst, video_psnr(video, store.read(stored, rng=rng)))

    # Walk the compression rate-distortion curve (uniform protection)
    # until it fits inside the approximate design's cell budget, then
    # interpolate quality at *exactly* that budget — CRF is discrete but
    # the comparison must be at equal storage.
    decoder = Decoder()
    points = []  # (cells, psnr, crf), cells decreasing with crf
    compress_crf = base_crf
    for candidate in range(base_crf, min(base_crf + max_crf_search, 51) + 1):
        encoded = Encoder(EncoderConfig(crf=candidate,
                                        gop_size=gop_size)).encode(video)
        report = uniform_density(encoded.total_bits, video.total_pixels)
        quality = video_psnr(video, decoder.decode(encoded))
        points.append((report.cells, quality, candidate))
        if report.cells <= approx_report.cells:
            compress_crf = candidate
            break
    else:
        raise AnalysisError(
            f"no CRF within +{max_crf_search} matches the approximate "
            f"design's footprint; raise max_crf_search"
        )
    target = approx_report.cells
    if len(points) == 1 or points[-1][0] >= target:
        compress_quality = points[-1][1]
    else:
        (cells_hi, quality_hi, _), (cells_lo, quality_lo, _) = \
            points[-2], points[-1]
        weight = (target - cells_lo) / max(cells_hi - cells_lo, 1e-9)
        compress_quality = quality_lo + weight * (quality_hi - quality_lo)
    return ApproxVsCompressResult(
        base_crf=base_crf,
        compress_crf=compress_crf,
        approx_cells_per_pixel=approx_report.cells_per_pixel,
        compress_cells_per_pixel=target / video.total_pixels,
        approx_psnr_db=worst,
        compress_psnr_db=compress_quality,
    )


# ----------------------------------------------------------------------
# Section 5 — encryption
# ----------------------------------------------------------------------

def run_section5() -> Dict[str, ModeVerdict]:
    """Mode-by-mode requirements scorecard (ECB/CBC/OFB/CTR)."""
    return analyze_all_modes()


# ----------------------------------------------------------------------
# Section 8 — encoder-knob ablations
# ----------------------------------------------------------------------

@dataclass
class AblationPoint:
    """One encoder variant's approximability profile."""

    name: str
    payload_bits: int
    unreferenced_fraction: float   #: storage in MBs of importance ~1
    low_class_fraction: float      #: storage in classes 0-2 (no ECC)
    loss_at_probe_db: float        #: max loss, probe rate over all bits


def run_section8(video: VideoSequence,
                 base_crf: int = 24,
                 gop_size: int = 12,
                 probe_rate: float = 1e-5,
                 runs: int = 5,
                 rng: Optional[np.random.Generator] = None,
                 workers: Optional[int] = None) -> List[AblationPoint]:
    """Slices, B-frames, and CAVLC vs the conservative baseline."""
    rng = rng or np.random.default_rng(45)
    cache = session_cache()
    variants = [
        ("baseline (CABAC, 1 slice)", EncoderConfig(crf=base_crf,
                                                    gop_size=gop_size)),
        ("2 slices", EncoderConfig(crf=base_crf, gop_size=gop_size,
                                   slices=2)),
        ("B-frames x2", EncoderConfig(crf=base_crf, gop_size=gop_size,
                                      bframes=2)),
        ("CAVLC", EncoderConfig(crf=base_crf, gop_size=gop_size,
                                entropy_coder=EntropyCoder.CAVLC)),
    ]
    out: List[AblationPoint] = []
    for name, config in variants:
        encoded = cache.encode(video, config)
        assert encoded.trace is not None
        clean = cache.clean_decode(video, config)
        importance = compute_importance(encoded.trace)
        mb_bits = macroblock_bits(encoded.trace, importance)
        total = sum(mb.bit_end - mb.bit_start for mb in mb_bits)
        unreferenced = sum(
            mb.bit_end - mb.bit_start for mb in mb_bits
            if mb.importance <= 1.0 + 1e-9)
        fractions = storage_fraction_by_class(mb_bits)
        low = sum(fraction for index, fraction in fractions.items()
                  if index <= 2)
        sweep = quality_sweep(encoded, video, clean, None,
                              rates=(probe_rate,), runs=runs, rng=rng,
                              workers=workers)
        out.append(AblationPoint(
            name=name,
            payload_bits=encoded.payload_bits,
            unreferenced_fraction=unreferenced / total,
            low_class_fraction=low,
            loss_at_probe_db=sweep.points[0].max_loss_db,
        ))
    return out


# ----------------------------------------------------------------------
# Section 6.1 — metric agreement
# ----------------------------------------------------------------------

@dataclass
class MetricAgreementResult:
    """Rank agreement between PSNR and the other quality metrics.

    The paper reports only PSNR but verified its methodology "relates
    well" to SSIM, MS-SSIM, and VIFP for bit-flip distortions; this
    experiment quantifies that with Spearman rank correlations across a
    set of independently damaged decodes.
    """

    trials: int
    psnr_values: List[float]
    metric_values: Dict[str, List[float]]
    spearman: Dict[str, float]


def _spearman(a: Sequence[float], b: Sequence[float]) -> float:
    ranks_a = np.argsort(np.argsort(a)).astype(float)
    ranks_b = np.argsort(np.argsort(b)).astype(float)
    if np.std(ranks_a) == 0 or np.std(ranks_b) == 0:
        return 1.0
    return float(np.corrcoef(ranks_a, ranks_b)[0, 1])


def run_metric_agreement(video: VideoSequence,
                         config: Optional[EncoderConfig] = None,
                         rates: Sequence[float] = (1e-5, 1e-4, 1e-3),
                         trials_per_rate: int = 4,
                         rng: Optional[np.random.Generator] = None
                         ) -> MetricAgreementResult:
    """Damage the video at several rates; score with all four metrics."""
    from ..metrics import video_ms_ssim, video_ssim, video_vifp
    from ..storage.injection import inject_into_payloads

    config = config or EncoderConfig()
    rng = rng or np.random.default_rng(50)
    decoder = Decoder()
    encoded, clean = _encode_clean(video, config)
    payloads = encoded.frame_payloads()

    psnr_values: List[float] = []
    others: Dict[str, List[float]] = {"ssim": [], "ms_ssim": [], "vifp": []}
    for rate in rates:
        for _trial in range(trials_per_rate):
            result = inject_into_payloads(payloads, rate, rng,
                                          force_at_least_one=True)
            damaged = decoder.decode(encoded.with_payloads(result.payloads))
            psnr_values.append(video_psnr(clean, damaged))
            others["ssim"].append(video_ssim(clean, damaged))
            others["ms_ssim"].append(video_ms_ssim(clean, damaged))
            others["vifp"].append(video_vifp(clean, damaged))
    spearman = {name: _spearman(psnr_values, values)
                for name, values in others.items()}
    return MetricAgreementResult(
        trials=len(psnr_values),
        psnr_values=psnr_values,
        metric_values=others,
        spearman=spearman,
    )


# ----------------------------------------------------------------------
# Section 7.3 — quality vs approximability
# ----------------------------------------------------------------------

@dataclass
class CrfApproximabilityPoint:
    """How approximable one CRF setting's output is."""

    crf: int
    payload_bits: int
    clean_psnr_db: float
    loss_at_probe_db: float  #: max loss with all bits exposed at the probe


def run_crf_approximability(video: VideoSequence,
                            crfs: Sequence[int] = (16, 20, 24),
                            gop_size: int = 12,
                            probe_rate: float = 1e-5,
                            runs: int = 5,
                            rng: Optional[np.random.Generator] = None,
                            workers: Optional[int] = None
                            ) -> List[CrfApproximabilityPoint]:
    """The paper's counter-intuitive Section 7.3 finding.

    Higher-quality encodes carry *less* information per bit, yet are
    slightly less approximable: larger frames mean more flips per frame
    at a fixed error rate, and each flip still poisons its whole frame
    under CABAC.
    """
    rng = rng or np.random.default_rng(47)
    cache = session_cache()
    points = []
    for crf in sorted(crfs):
        config = EncoderConfig(crf=crf, gop_size=gop_size)
        encoded = cache.encode(video, config)
        clean = cache.clean_decode(video, config)
        sweep = quality_sweep(encoded, video, clean, None,
                              rates=(probe_rate,), runs=runs, rng=rng,
                              workers=workers)
        points.append(CrfApproximabilityPoint(
            crf=crf,
            payload_bits=encoded.payload_bits,
            clean_psnr_db=video_psnr(video, clean),
            loss_at_probe_db=sweep.points[0].max_loss_db,
        ))
    return points


# ----------------------------------------------------------------------
# GOP-size ablation — I-frame checkpoints (Section 2.3.1)
# ----------------------------------------------------------------------

@dataclass
class GopAblationPoint:
    """One I-frame period's storage/containment trade."""

    gop_size: int
    payload_bits: int
    max_importance: float
    loss_at_probe_db: float


def run_gop_ablation(video: VideoSequence,
                     gop_sizes: Sequence[int] = (4, 8, 16),
                     crf: int = 24,
                     probe_rate: float = 1e-4,
                     runs: int = 4,
                     rng: Optional[np.random.Generator] = None,
                     workers: Optional[int] = None
                     ) -> List[GopAblationPoint]:
    """The checkpointing trade the paper states in Section 2.3.1:
    I-frames "limit the propagation of eventual errors, at the expense
    of extra storage". Shorter GOPs cost bits (more intra frames) but
    cap every macroblock's importance — and hence the damage a flip can
    do — at the GOP boundary.
    """
    rng = rng or np.random.default_rng(52)
    cache = session_cache()
    points = []
    for gop_size in sorted(gop_sizes):
        config = EncoderConfig(crf=crf, gop_size=gop_size)
        encoded = cache.encode(video, config)
        assert encoded.trace is not None
        clean = cache.clean_decode(video, config)
        importance = compute_importance(encoded.trace)
        sweep = quality_sweep(encoded, video, clean, None,
                              rates=(probe_rate,), runs=runs, rng=rng,
                              workers=workers)
        points.append(GopAblationPoint(
            gop_size=gop_size,
            payload_bits=encoded.payload_bits,
            max_importance=importance.max_importance(),
            loss_at_probe_db=sweep.points[0].max_loss_db,
        ))
    return points


# ----------------------------------------------------------------------
# Substrate ablation — levels/cell and scrub interval (Section 6.2)
# ----------------------------------------------------------------------

@dataclass
class SubstratePoint:
    """One MLC design point and the ECC it needs for precise storage."""

    levels: int
    scrub_days: float
    raw_ber: float
    bits_per_cell: int
    required_scheme: str       #: weakest scheme reaching 1e-16
    net_bits_per_cell: float   #: bits/cell after that scheme's overhead

    @property
    def density_vs_slc(self) -> float:
        return self.net_bits_per_cell


def run_substrate_ablation(levels_options: Sequence[int] = (4, 8, 16),
                           scrub_days_options: Sequence[float] = (7.0, 90.0,
                                                                  365.0)
                           ) -> List[SubstratePoint]:
    """Why the paper's 8-level / 3-month substrate is the design point.

    For each (levels, scrub interval): the raw BER of a cell population
    with the paper-calibrated write noise, the weakest Figure 8 scheme
    that still reaches precise storage (1e-16), and the *net* density
    after paying that scheme's overhead. Denser cells or lazier
    scrubbing raise the raw BER until no menu scheme suffices.
    """
    from ..storage.ecc import SCHEME_MENU
    from ..storage.mlc import MLCCellModel

    points = []
    for levels in levels_options:
        for scrub_days in scrub_days_options:
            model = MLCCellModel(levels=levels,
                                 scrub_interval_days=scrub_days)
            raw = model.raw_bit_error_rate()
            chosen = None
            for scheme in sorted((s for s in SCHEME_MENU if s.t > 0),
                                 key=lambda s: s.t):
                if scheme.block_failure_rate(raw) <= 1e-16:
                    chosen = scheme
                    break
            if chosen is None:
                points.append(SubstratePoint(
                    levels=levels, scrub_days=scrub_days, raw_ber=raw,
                    bits_per_cell=model.bits_per_cell,
                    required_scheme="(none sufficient)",
                    net_bits_per_cell=0.0))
                continue
            net = model.bits_per_cell / (1.0 + chosen.overhead)
            points.append(SubstratePoint(
                levels=levels, scrub_days=scrub_days, raw_ber=raw,
                bits_per_cell=model.bits_per_cell,
                required_scheme=chosen.name,
                net_bits_per_cell=net))
    return points


# ----------------------------------------------------------------------
# Section 4.3.1 — analysis overhead
# ----------------------------------------------------------------------

@dataclass
class OverheadResult:
    encode_seconds: float
    analysis_seconds: float

    @property
    def ratio(self) -> float:
        """Analysis time relative to encoding time (paper: 2-3%)."""
        return self.analysis_seconds / self.encode_seconds


def run_overhead(video: VideoSequence,
                 config: Optional[EncoderConfig] = None) -> OverheadResult:
    """Time the importance analysis against the encode it follows."""
    config = config or EncoderConfig()
    start = time.perf_counter()
    encoded = Encoder(config).encode(video)
    encode_seconds = time.perf_counter() - start
    assert encoded.trace is not None
    importance = compute_importance(encoded.trace)
    return OverheadResult(encode_seconds=encode_seconds,
                          analysis_seconds=importance.analysis_seconds)
