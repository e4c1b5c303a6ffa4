"""Deterministic load generator for the serving layer.

``repro loadgen`` drives a :class:`~repro.service.frontend.
ServiceFrontend` with N concurrent clients issuing a seeded mix of
ingests and reads, then walks the shard pool through a retention-age
grid to trace the degradation curve. Two runs with the same arguments
must report the **same run digest**: the digest covers only the
deterministic facts of each planned operation (kind, object id,
outcome, rounded PSNR, error-block counts) — never latencies, audit
ordering, or shard health counters, which legitimately vary with
thread scheduling. PSNR is measured here, against the planned source
clip: the store serves frames and keeps no reference to grade them by.

How determinism survives concurrency:

* the whole op plan (kinds, clip seeds, read targets, per-op device
  seeds) is fixed up front from the run seed via ``SeedSequence`` —
  client coroutines only *execute* the plan;
* every read draws its device errors from its own pre-spawned RNG, so
  interleaving cannot reshuffle the error patterns;
* each read targets an ingest planned *earlier* and awaits that
  ingest's future, so it always observes the object as placed;
* the ingest queue is sized to the whole plan, so overload shedding
  (tested separately) never races into the digest.

The degradation phase re-reads sample objects with every shard pinned
to each grid age, next to a **raw baseline**: the same ciphertext read
back with no ECC at that age. The exhibit's claim is the contrast —
at ages where the raw read comes back corrupted, the service still
serves every read clean, corrected, or concealed, and never silently
wrong.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codec.config import EncoderConfig
from ..metrics.psnr import video_psnr
from ..obs import trace as obs_trace
from ..storage.device import ApproximateDevice
from ..storage.ecc import NONE_SCHEME
from ..video.frame import VideoSequence
from ..video.synthesis import SceneConfig, synthesize_scene
from .frontend import ServiceFrontend
from .keyring import Keyring
from .repair import run_repair_pass
from .shards import ShardPool
from .store import VideoObjectStore, stream_key

#: Default retention-age grid (days) for the degradation phase:
#: nominal, 10 years, 100 years, and deep overhang past the paper's
#: horizon — the last two are where raw reads visibly rot.
DEFAULT_T_GRID: Tuple[Optional[float], ...] = (None, 3650.0, 36500.0,
                                               100000.0)

#: Clip geometry for generated load: small enough to keep the frozen
#: CI recipe fast, uniform so ingest batches ride the vectorized
#: encode kernel.
CLIP_WIDTH, CLIP_HEIGHT, CLIP_FRAMES = 48, 32, 4


@dataclass(frozen=True)
class PlannedOp:
    """One pre-planned client operation."""

    index: int
    client: int
    kind: str  # "ingest" | "read"
    tenant: str
    #: Ingest: the clip's scene seed. Read: unused.
    clip_seed: int = 0
    #: Read: the ingest ordinal whose object this read targets.
    target: int = -1
    #: Entropy for this op's device RNG (reads only).
    op_entropy: Tuple[int, ...] = ()


@dataclass
class LoadgenReport:
    """Everything one loadgen run measured."""

    seed: int
    clients: int
    ops: int
    read_fraction: float
    run_digest: str = ""
    ingest_count: int = 0
    read_count: int = 0
    elapsed_s: float = 0.0
    ingest_clips_per_second: float = 0.0
    read_p50_ms: float = 0.0
    read_p99_ms: float = 0.0
    outcomes: Dict[str, int] = field(default_factory=dict)
    degradation: List[dict] = field(default_factory=list)
    #: Post-repair re-reads per grid age (only when ``repair=True``).
    degradation_repair: List[dict] = field(default_factory=list)
    #: One :meth:`RepairPassReport.to_dict` per grid age repaired.
    repair_passes: List[dict] = field(default_factory=list)
    replicas: int = 1
    repair_enabled: bool = False
    shard_health: List[dict] = field(default_factory=list)
    audit_events: int = 0

    def to_dict(self) -> dict:
        """The report as plain JSON-serializable data."""
        return {
            "seed": self.seed, "clients": self.clients, "ops": self.ops,
            "read_fraction": self.read_fraction,
            "run_digest": self.run_digest,
            "ingest_count": self.ingest_count,
            "read_count": self.read_count,
            "elapsed_s": round(self.elapsed_s, 3),
            "ingest_clips_per_second": round(
                self.ingest_clips_per_second, 3),
            "read_p50_ms": round(self.read_p50_ms, 3),
            "read_p99_ms": round(self.read_p99_ms, 3),
            "outcomes": dict(sorted(self.outcomes.items())),
            "degradation": self.degradation,
            "degradation_repair": self.degradation_repair,
            "repair_passes": self.repair_passes,
            "replicas": self.replicas,
            "repair_enabled": self.repair_enabled,
            "shard_health": self.shard_health,
            "audit_events": self.audit_events,
        }

    def refusal_rate(self, phase: str = "degradation") -> float:
        """Fraction of the phase's sample reads that were refused."""
        points = (self.degradation_repair
                  if phase == "degradation_repair" else self.degradation)
        served = refused = 0
        for point in points:
            for outcome, count in point["outcomes"].items():
                served += count
                refused += count if outcome == "refused" else 0
        return refused / served if served else 0.0


def build_plan(seed: int, clients: int, ops: int,
               read_fraction: float) -> List[PlannedOp]:
    """The deterministic op plan for a run.

    Ops are dealt to clients round-robin. An op is a read with
    probability ``read_fraction`` provided at least one ingest precedes
    it in plan order (op 0 is always an ingest); each read targets a
    uniformly drawn earlier ingest. Tenants alternate between two
    names so the keyring path is always exercised.
    """
    if clients < 1 or ops < 1:
        raise ValueError("loadgen needs >= 1 client and >= 1 op")
    planner = np.random.default_rng(seed)
    entropy = np.random.SeedSequence(seed).spawn(ops)
    plan: List[PlannedOp] = []
    ingests: List[int] = []
    for index in range(ops):
        client = index % clients
        is_read = bool(ingests) and planner.random() < read_fraction
        if is_read:
            target = int(ingests[int(planner.integers(len(ingests)))])
            tenant = plan[target].tenant
            plan.append(PlannedOp(
                index=index, client=client, kind="read", tenant=tenant,
                target=target,
                op_entropy=tuple(
                    int(word)
                    for word in entropy[index].generate_state(4))))
        else:
            tenant = f"tenant-{len(ingests) % 2}"
            plan.append(PlannedOp(
                index=index, client=client, kind="ingest",
                tenant=tenant,
                clip_seed=int(planner.integers(1 << 31))))
            ingests.append(index)
    return plan


def _clip(clip_seed: int):
    """The deterministic synthetic clip for one planned ingest."""
    return synthesize_scene(SceneConfig(
        width=CLIP_WIDTH, height=CLIP_HEIGHT, num_frames=CLIP_FRAMES,
        seed=clip_seed))


def _psnr(source: VideoSequence, result) -> Optional[float]:
    """Rounded PSNR of a read's frames against the source clip;
    ``None`` for a refused read, which serves no frames."""
    if result.video is None:
        return None
    return round(video_psnr(source, result.video), 2)


def run_loadgen(clients: int = 4, ops: int = 12, seed: int = 0,
                read_fraction: float = 0.5,
                shards: Optional[int] = None,
                read_retries: Optional[int] = None,
                t_days: Optional[float] = None,
                t_grid: Sequence[Optional[float]] = DEFAULT_T_GRID,
                degradation_samples: int = 2,
                ingest_batch: Optional[int] = None,
                config: Optional[EncoderConfig] = None,
                replicas: Optional[int] = None,
                repair: bool = False) -> LoadgenReport:
    """Run one seeded load, then the degradation sweep.

    ``t_days`` ages the shard pool for the mixed phase (``None`` =
    nominal); ``t_grid`` is the degradation sweep, skipped when empty.
    The ingest queue is sized to the whole plan so backpressure never
    sheds a planned op (overload behaviour has its own unit tests).
    ``replicas`` sets the copies written per stream; ``repair`` runs a
    repair pass after each degradation grid point's sample reads and
    re-reads the samples (the ``degradation_repair`` phase) — same
    seeds, so an R=1 run and an R=2+repair run contrast cleanly.
    """
    plan = build_plan(seed, clients, ops, read_fraction)
    pool = ShardPool(count=shards, t_days=t_days,
                     read_retries=read_retries)
    store = VideoObjectStore(pool=pool, keyring=Keyring(seed=seed),
                             config=config, replicas=replicas)
    frontend = ServiceFrontend(store, queue_depth=ops + 1,
                               ingest_batch=ingest_batch)
    report = LoadgenReport(seed=seed, clients=clients, ops=ops,
                           read_fraction=read_fraction,
                           replicas=store.replicas,
                           repair_enabled=repair)
    records: List[dict] = []
    read_ms: List[float] = []
    object_ids: Dict[int, str] = {}
    #: Ingest ordinal -> the clip it uploaded, the PSNR reference.
    sources: Dict[int, VideoSequence] = {}

    async def _run() -> None:
        with obs_trace.span("service.loadgen", clients=clients,
                            ops=ops, seed=seed):
            await frontend.start()
            loop = asyncio.get_running_loop()
            placed: Dict[int, asyncio.Future] = {
                op.index: loop.create_future() for op in plan
                if op.kind == "ingest"}

            async def run_client(client_id: int) -> None:
                for op in plan:
                    if op.client != client_id:
                        continue
                    if op.kind == "ingest":
                        sources[op.index] = _clip(op.clip_seed)
                        object_id = await frontend.ingest(
                            op.tenant, sources[op.index])
                        object_ids[op.index] = object_id
                        placed[op.index].set_result(object_id)
                        records.append({
                            "op": op.index, "kind": "ingest",
                            "object_id": object_id})
                    else:
                        object_id = await placed[op.target]
                        rng = np.random.default_rng(
                            np.random.SeedSequence(
                                entropy=op.op_entropy))
                        start = time.perf_counter()
                        result = await frontend.read(
                            op.tenant, object_id, rng=rng)
                        read_ms.append(
                            (time.perf_counter() - start) * 1e3)
                        records.append({
                            "op": op.index, "kind": "read",
                            "object_id": object_id,
                            "outcome": result.outcome,
                            "psnr": _psnr(sources[op.target], result),
                            "failed_blocks": result.failed_blocks,
                            "retry_successes": result.retry_successes,
                        })
            started = time.perf_counter()
            await asyncio.gather(*(run_client(c)
                                   for c in range(clients)))
            await frontend.stop()
            report.elapsed_s = time.perf_counter() - started

    asyncio.run(_run())

    report.ingest_count = sum(1 for r in records if r["kind"] == "ingest")
    report.read_count = len(read_ms)
    if report.elapsed_s > 0:
        report.ingest_clips_per_second = (report.ingest_count
                                          / report.elapsed_s)
    if read_ms:
        report.read_p50_ms = float(np.percentile(read_ms, 50))
        report.read_p99_ms = float(np.percentile(read_ms, 99))
    for record in records:
        if record["kind"] == "read":
            outcome = record["outcome"]
            report.outcomes[outcome] = report.outcomes.get(outcome,
                                                           0) + 1

    records.extend(_degradation_sweep(
        store, pool, plan, object_ids, sources, seed, t_grid,
        degradation_samples, report, repair=repair))

    records.sort(key=lambda r: (r.get("phase", ""), r["op"]))
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    report.run_digest = digest.hexdigest()
    report.shard_health = [
        {"shard": row[0], "health": row[1], "age": row[2]}
        for row in pool.health_rows()]
    report.audit_events = len(store.audit)
    return report


def _degradation_sweep(store: VideoObjectStore, pool: ShardPool,
                       plan: List[PlannedOp],
                       object_ids: Dict[int, str],
                       sources: Dict[int, VideoSequence], seed: int,
                       t_grid: Sequence[Optional[float]],
                       samples: int, report: LoadgenReport,
                       repair: bool = False) -> List[dict]:
    """Re-read sample objects across the age grid, vs a raw baseline."""
    ingest_ordinals = sorted(object_ids)[:max(0, samples)]
    if not ingest_ordinals or not t_grid:
        return []
    per_age = (len(ingest_ordinals) + 1
               + (len(ingest_ordinals) if repair else 0))
    sweep_entropy = np.random.SeedSequence(
        [seed, 0xDECA7]).spawn(len(t_grid) * per_age)
    sweep_records: List[dict] = []
    draw = 0
    for t in t_grid:
        pool.set_age(t)
        point = {"t_days": t, "outcomes": {}, "psnr_db": [],
                 "raw_ok": True, "raw_flipped_bits": 0}
        for ordinal in ingest_ordinals:
            op = plan[ordinal]
            result = store.get(
                op.tenant, object_ids[ordinal],
                rng=np.random.default_rng(sweep_entropy[draw]))
            draw += 1
            point["outcomes"][result.outcome] = (
                point["outcomes"].get(result.outcome, 0) + 1)
            psnr = _psnr(sources[ordinal], result)
            if psnr is not None:
                point["psnr_db"].append(psnr)
            sweep_records.append({
                "phase": "degradation", "op": ordinal,
                "t_days": t, "outcome": result.outcome, "psnr": psnr,
                "failed_blocks": result.failed_blocks,
            })
        # Raw baseline: the first sample's biggest ciphertext stream
        # read back with no ECC at this age.
        op = plan[ingest_ordinals[0]]
        record = store.record(op.tenant, object_ids[ingest_ordinals[0]])
        name = max(record.stream_sha,
                   key=lambda n: record.stream_lengths[n])
        blob = pool.shard(record.placement[name]).blobs[
            stream_key(record.tenant, record.object_id, name)]
        device = ApproximateDevice(
            rng=np.random.default_rng(sweep_entropy[draw]))
        draw += 1
        _, raw_report = device.store_and_read(blob, NONE_SCHEME,
                                              t_days=t)
        point["raw_flipped_bits"] = raw_report.flipped_bits
        point["raw_ok"] = raw_report.flipped_bits == 0
        point["psnr_db"] = (round(float(np.mean(point["psnr_db"])), 2)
                            if point["psnr_db"] else None)
        report.degradation.append(point)
        if repair:
            # The sample reads above enqueued read-repair tickets for
            # anything damaged at this age; drain them (rewrites reset
            # the keys' retention age) and re-read the same samples.
            pass_report = run_repair_pass(store)
            report.repair_passes.append(
                {"t_days": t, **pass_report.to_dict()})
            healed = {"t_days": t, "outcomes": {}, "psnr_db": []}
            for ordinal in ingest_ordinals:
                op = plan[ordinal]
                result = store.get(
                    op.tenant, object_ids[ordinal],
                    rng=np.random.default_rng(sweep_entropy[draw]))
                draw += 1
                healed["outcomes"][result.outcome] = (
                    healed["outcomes"].get(result.outcome, 0) + 1)
                psnr = _psnr(sources[ordinal], result)
                if psnr is not None:
                    healed["psnr_db"].append(psnr)
                sweep_records.append({
                    "phase": "degradation_repair", "op": ordinal,
                    "t_days": t, "outcome": result.outcome,
                    "psnr": psnr, "failed_blocks": result.failed_blocks,
                })
            healed["psnr_db"] = (
                round(float(np.mean(healed["psnr_db"])), 2)
                if healed["psnr_db"] else None)
            report.degradation_repair.append(healed)
    pool.set_age(None)
    return sweep_records


def run_durability_contrast(clients: int = 4, ops: int = 12,
                            seed: int = 0, read_fraction: float = 0.5,
                            shards: Optional[int] = None,
                            read_retries: Optional[int] = None,
                            t_grid: Sequence[Optional[float]]
                            = DEFAULT_T_GRID,
                            degradation_samples: int = 2,
                            config: Optional[EncoderConfig] = None
                            ) -> dict:
    """The durability exhibit: R=1 bare vs R=2 + repair, same seeds.

    Runs the identical seeded load twice — once single-copy with no
    repair, once with two replicas and a repair pass per degradation
    age — and reports the refusal-rate and PSNR contrast. Both arms
    draw their op plans and device errors from the same seed, so every
    difference is attributable to replication + repair, and the
    combined ``contrast_digest`` replays bit-identically.
    """
    kwargs = dict(clients=clients, ops=ops, seed=seed,
                  read_fraction=read_fraction, shards=shards,
                  read_retries=read_retries, t_grid=t_grid,
                  degradation_samples=degradation_samples,
                  config=config)
    baseline = run_loadgen(replicas=1, repair=False, **kwargs)
    healed = run_loadgen(replicas=2, repair=True, **kwargs)
    deltas = []
    for base_point, healed_point in zip(baseline.degradation,
                                        healed.degradation_repair):
        if (base_point["psnr_db"] is not None
                and healed_point["psnr_db"] is not None):
            deltas.append(round(
                healed_point["psnr_db"] - base_point["psnr_db"], 2))
    digest = hashlib.sha256(
        f"{baseline.run_digest}|{healed.run_digest}".encode()
    ).hexdigest()[:32]
    return {
        "baseline": baseline.to_dict(),
        "healed": healed.to_dict(),
        "refusal_rate_baseline": round(baseline.refusal_rate(), 4),
        "refusal_rate_healed": round(
            healed.refusal_rate("degradation_repair"), 4),
        "psnr_delta_db": deltas,
        "mean_psnr_delta_db": (round(float(np.mean(deltas)), 2)
                               if deltas else None),
        "contrast_digest": digest,
    }
