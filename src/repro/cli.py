"""Command-line interface.

``python -m repro <command>`` drives the library end to end from a
shell, the way a downstream user would script it:

* ``synth``    — generate a synthetic raw clip (REPROYUV container);
* ``encode``   — raw clip -> serialized encoded video;
* ``decode``   — encoded video -> raw clip;
* ``analyze``  — VideoApp importance report for an input clip;
* ``store``    — full approximate-storage round trip with a quality and
  density report;
* ``sweep``    — Monte Carlo error-rate sweep on the trial engine
  (parallel with ``--workers``/``REPRO_NUM_WORKERS``, per-trial
  watchdogs with ``--timeout``, resumable with ``--journal``, live
  status with ``--progress``, stage timing with ``--trace``);
* ``retention`` — quality vs retention time under the lifetime
  mitigations (scrubbing, re-read retries, decoder concealment), per
  ECC scheme, on the trial engine;
* ``fuzz``     — decoder no-crash fuzz harness (random bit/byte/
  truncation corruptions under a deadline, crash corpus on failure,
  corpus replay with ``--replay``);
* ``scenarios`` / ``repair`` — the chaos × adversarial-content matrix
  and the fault × replication × repair matrix, each with a replayable
  matrix digest;
* ``serve``    — scripted session against the sharded video store
  service (put/get/share/retire/age/stats/audit commands from a
  script file, stdin, or the built-in ``--demo``);
* ``loadgen``  — seeded concurrent load against the service front-end
  with a digest-replayable report: p50/p99 read latency, ingest
  throughput, and the degradation curve over shard retention age (the
  "serving under decay" exhibit — see docs/SERVICE.md);
* ``seek``     — random-access read exhibit: per-seek latency
  (p50/p99), PSNR under damage, compression ratio, and the partial-
  versus-full-decode speedup over a GOP size × CRF × shard age grid,
  with a deterministic sweep digest (see docs/EXPERIMENTS.md);
* ``modes``    — AES block-mode compatibility scorecard.

Observability flags and the ``REPRO_*`` environment variables behind
them are documented in docs/OBSERVABILITY.md.

Encoded files serialize only headers + payloads; ``analyze`` and
``store`` therefore take the *raw* clip and re-encode (the paper's
analysis is an encoder-side step and needs the trace).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Optional, Tuple

import numpy as np

from .analysis.reporting import format_table
from .codec import Decoder, EncodedVideo, Encoder, EncoderConfig, EntropyCoder
from .core import ApproximateVideoStore, PAPER_TABLE1, compute_importance
from .crypto import StreamEncryptor, analyze_all_modes
from .metrics import video_psnr
from .settings import resolve
from .video import (
    SceneConfig,
    read_raw_video,
    synthesize_scene,
    write_raw_video,
)


def _add_encoder_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--crf", type=int, default=24,
                        help="quality target, 0..51, lower = better")
    parser.add_argument("--gop", type=int, default=12,
                        help="I-frame period in frames")
    parser.add_argument("--bframes", type=int, default=0,
                        help="B-frames between anchors")
    parser.add_argument("--slices", type=int, default=1,
                        help="slices per frame")
    parser.add_argument("--entropy", choices=["cabac", "cavlc"],
                        default="cabac", help="entropy coder")


def _encoder_config(args: argparse.Namespace) -> EncoderConfig:
    return EncoderConfig(
        crf=args.crf, gop_size=args.gop, bframes=args.bframes,
        slices=args.slices,
        entropy_coder=(EntropyCoder.CABAC if args.entropy == "cabac"
                       else EntropyCoder.CAVLC),
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    video = synthesize_scene(SceneConfig(
        width=args.width, height=args.height, num_frames=args.frames,
        seed=args.seed, num_objects=args.objects,
        noise_sigma=args.noise))
    write_raw_video(args.output, video)
    print(f"wrote {args.output}: {len(video)} frames "
          f"{video.width}x{video.height}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    video = read_raw_video(args.input)
    encoded = Encoder(_encoder_config(args)).encode(video)
    # Files written by the CLI carry the v1 seek index so downstream
    # tools get random access; --no-index emits the legacy v0 bytes.
    data = encoded.serialize(include_index=not args.no_index)
    with open(args.output, "wb") as f:
        f.write(data)
    ratio = video.total_pixels * 8 / max(encoded.payload_bits, 1)
    print(f"wrote {args.output}: {len(data)} bytes "
          f"({ratio:.1f}x compression)")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as f:
        encoded = EncodedVideo.deserialize(f.read())
    video = Decoder().decode(encoded)
    write_raw_video(args.output, video)
    print(f"wrote {args.output}: {len(video)} frames "
          f"{video.width}x{video.height}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    video = read_raw_video(args.input)
    encoded = Encoder(_encoder_config(args)).encode(video)
    assert encoded.trace is not None
    importance = compute_importance(encoded.trace)
    values = importance.flat
    print(format_table(("statistic", "value"), [
        ("frames", len(video)),
        ("macroblocks", values.size),
        ("payload bits", encoded.payload_bits),
        ("min importance", f"{values.min():.1f}"),
        ("median importance", f"{float(np.median(values)):.1f}"),
        ("max importance", f"{values.max():.1f}"),
        ("analysis time", f"{importance.analysis_seconds * 1e3:.1f} ms"),
    ], title=f"VideoApp analysis of {args.input}"))
    from .core import macroblock_bits, storage_fraction_by_class
    fractions = storage_fraction_by_class(
        macroblock_bits(encoded.trace, importance))
    print()
    print(format_table(("importance class", "storage %", "Table 1 scheme"), [
        (index, f"{100 * fraction:.1f}",
         PAPER_TABLE1.scheme_for_class(index).name)
        for index, fraction in sorted(fractions.items())
    ], title="storage by importance class"))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    video = read_raw_video(args.input)
    encryptor = None
    if args.encrypt:
        encryptor = StreamEncryptor(
            key=bytes.fromhex(args.key), master_iv=bytes.fromhex(args.iv))
    store = ApproximateVideoStore(config=_encoder_config(args),
                                  encryptor=encryptor)
    stored = store.put(video)
    report = stored.density()
    clean = store.reconstruct(stored)
    damaged = store.read(stored, rng=np.random.default_rng(args.seed))
    rows = [
        ("payload bits", report.payload_bits),
        ("precise bits (headers+pivots)", report.header_bits),
        ("stored bits incl. ECC", report.stored_bits),
        ("cells/pixel", f"{report.cells_per_pixel:.4f}"),
        ("ECC overhead", f"{100 * report.ecc_overhead:.1f}% "
                         f"(uniform: 31.3%)"),
        ("encrypted", stored.encrypted),
        ("PSNR clean decode", f"{video_psnr(video, clean):.2f} dB"),
        ("PSNR after storage", f"{video_psnr(video, damaged):.2f} dB"),
    ]
    print(format_table(("metric", "value"), rows,
                       title=f"approximate storage of {args.input}"))
    if args.output:
        write_raw_video(args.output, damaged)
        print(f"wrote read-back video to {args.output}")
    return 0


def _ecc_calibration() -> None:
    """One tiny exact-ECC round trip, recorded as an ``ecc.calibration``
    span.

    Quality sweeps inject into payload bits and never touch the BCH
    machinery, so a traced sweep would otherwise answer "where did the
    time go" with no ECC stage at all; this gives the trace a measured
    BCH encode/decode yardstick at negligible cost (one 64-byte blob).
    """
    from .obs import trace as obs_trace
    from .storage.device import ApproximateDevice
    from .storage.ecc import scheme_by_name

    with obs_trace.span("ecc.calibration"):
        device = ApproximateDevice(rng=np.random.default_rng(0), exact=True)
        device.store_and_read(bytes(range(64)), scheme_by_name("BCH-6"))


def _export_trace(tracer, trace_path: Optional[str],
                  jsonl_path: Optional[str]) -> None:
    """Drain the tracer and write the requested export files."""
    from .obs.trace import write_chrome_trace, write_jsonl

    records = tracer.drain()
    if trace_path:
        write_chrome_trace(trace_path, records)
        print(f"wrote Chrome trace ({len(records)} spans) to {trace_path}"
              f" — load in chrome://tracing or https://ui.perfetto.dev")
    if jsonl_path:
        write_jsonl(jsonl_path, records)
        print(f"wrote span JSONL ({len(records)} spans) to {jsonl_path}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_run_stats
    from .analysis.sweeps import quality_sweep
    from .obs import trace as obs_trace
    from .runtime import session_cache

    trace_path = resolve("REPRO_TRACE", args.trace or None)
    jsonl_path = args.trace_jsonl
    tracer = (obs_trace.enable() if trace_path or jsonl_path
              else obs_trace.active())
    with obs_trace.span("repro.sweep", input=args.input):
        if tracer is not None:
            _ecc_calibration()
        video = read_raw_video(args.input)
        config = _encoder_config(args)
        cache = session_cache()
        rates = tuple(float(r) for r in args.rates.split(","))
        crf_grid = (None if args.crf_grid is None else
                    [int(c) for c in args.crf_grid.split(",")])
        configs = [config]
        if crf_grid is not None:
            import dataclasses

            kept = crf_grid
            if args.prune_predicted:
                kept = _prune_crf_grid(video, crf_grid, config)
            configs = [dataclasses.replace(config, crf=c) for c in kept]
        results = []
        for point_config in configs:
            journal = args.journal
            if journal is not None and len(configs) > 1:
                journal = f"{journal}.crf{point_config.crf}"
            encoded = cache.encode(video, point_config)
            clean = cache.clean_decode(video, point_config)
            results.append((point_config, quality_sweep(
                encoded, video, clean, None, rates=rates, runs=args.runs,
                rng=np.random.default_rng(args.seed), workers=args.workers,
                timeout=args.timeout, max_retries=args.retries,
                journal=journal, progress=args.progress)))
    if tracer is not None:
        _export_trace(tracer, trace_path, jsonl_path)
    for point_config, result in results:
        print(format_table(
            ("error rate", "mean change dB", "max loss dB", "mean flips",
             "forced %", "runs"),
            [(f"{p.rate:.1e}", f"{p.mean_change_db:.3f}",
              f"{p.max_loss_db:.3f}", f"{p.mean_flips:.1f}",
              f"{100 * p.forced_fraction:.0f}",
              f"{p.runs}" + (f" ({p.failed} failed)" if p.failed else ""))
             for p in result.points],
            title=f"error-rate sweep of {args.input} at CRF "
                  f"{point_config.crf} ({result.targeted_bits} payload "
                  f"bits)"))
        print(format_run_stats(result.stats))
    return 0


def _prune_crf_grid(video, crf_grid, config):
    """Predict each grid point and drop dominated ones (with a table)."""
    from .analysis.predictor import probe_and_predict, prune_dominated

    predictions = probe_and_predict(video, crf_grid, config)
    keep = prune_dominated(predictions)
    print(format_table(
        ("crf", "predicted bits/px", "predicted PSNR dB", "verdict"),
        [(str(p.crf), f"{p.bits_per_pixel:.3f}", f"{p.psnr_db:.2f}",
          "sweep" if k else "skip (dominated)")
         for p, k in zip(predictions, keep)],
        title="predicted operating points (one probe encode)"))
    return [c for c, k in zip(crf_grid, keep) if k]


def _parse_scrub_list(raw: str):
    values = []
    for token in raw.split(","):
        token = token.strip().lower()
        if token in ("none", "off", "never"):
            values.append(None)
        else:
            values.append(float(token))
    return values


def _retention_configs(args: argparse.Namespace):
    """The mitigation grid: the default ladder, or the cross product of
    any explicitly given ``--scrub``/``--retries``/``--conceal``."""
    from .analysis.retention import DEFAULT_CONFIGS, MitigationConfig

    if args.scrub is None and args.retries is None and args.conceal is None:
        return DEFAULT_CONFIGS
    scrubs = _parse_scrub_list(args.scrub) if args.scrub else [None]
    retries = ([int(r) for r in args.retries.split(",")]
               if args.retries else [0])
    conceals = {"off": [False], "on": [True],
                "both": [False, True]}[args.conceal or "off"]
    configs = []
    for scrub in scrubs:
        for retry in retries:
            for conceal in conceals:
                label = "+".join(
                    (["scrub-%gd" % scrub] if scrub is not None else [])
                    + ([f"retry-{retry}"] if retry else [])
                    + (["conceal"] if conceal else [])) or "unmitigated"
                configs.append(MitigationConfig(
                    label=label, scrub_days=scrub, retries=retry,
                    conceal=conceal))
    return tuple(configs)


def _cmd_retention(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_run_stats
    from .analysis.retention import run_retention_sweep
    from .obs import trace as obs_trace

    trace_path = resolve("REPRO_TRACE", args.trace or None)
    tracer = obs_trace.enable() if trace_path else obs_trace.active()
    video = read_raw_video(args.input)
    grid = tuple(float(t) for t in args.t_days.split(","))
    configs = _retention_configs(args)
    with obs_trace.span("repro.retention", input=args.input):
        result = run_retention_sweep(
            video, t_days=grid, configs=configs, scheme=args.scheme,
            config=_encoder_config(args), runs=args.runs,
            rng=np.random.default_rng(args.seed), workers=args.workers,
            timeout=args.timeout, journal=args.journal,
            progress=bool(args.progress))
    if tracer is not None and trace_path:
        _export_trace(tracer, trace_path, None)
    longest = max(grid)
    rows = []
    for config in result.configs:
        for point in result.series(config.label):
            rows.append((config.label, f"{point.t_days:g}",
                         f"{point.psnr_db:.2f}",
                         f"{point.worst_psnr_db:.2f}",
                         f"{point.runs}"
                         + (f" ({point.failed} failed)"
                            if point.failed else "")))
    axis = args.scheme or "Table 1"
    print(format_table(
        ("mitigation", "t (days)", "mean PSNR dB", "worst PSNR dB", "runs"),
        rows,
        title=f"retention sweep of {args.input} ({axis}, "
              f"clean {result.clean_psnr_db:.2f} dB)"))
    counter_rows = [(label, name, str(value))
                    for label, deltas in result.counters.items()
                    for name, value in sorted(deltas.items())]
    if counter_rows:
        print(format_table(("mitigation", "counter", "delta"), counter_rows,
                           title="per-mitigation lifetime counters"))
    for stats in result.stats.values():
        print(format_run_stats(stats))
        break  # one line is representative; configs share the grid
    if args.assert_scrub_benefit:
        scrubbed = [c.label for c in result.configs
                    if c.scrub_days is not None]
        unscrubbed = [c.label for c in result.configs
                      if c.scrub_days is None and not c.retries
                      and not c.conceal]
        if not scrubbed or not unscrubbed:
            print("--assert-scrub-benefit needs both a scrubbed and an "
                  "unmitigated config in the grid")
            return 2
        best_scrubbed = max(result.quality_at(label, longest)
                            for label in scrubbed)
        baseline = max(result.quality_at(label, longest)
                       for label in unscrubbed)
        if not best_scrubbed >= baseline:
            print(f"SCRUB BENEFIT VIOLATED at t={longest:g} days: "
                  f"scrubbed {best_scrubbed:.2f} dB < "
                  f"unscrubbed {baseline:.2f} dB")
            return 1
        print(f"scrub benefit holds at t={longest:g} days: "
              f"{best_scrubbed:.2f} dB (scrubbed) >= "
              f"{baseline:.2f} dB (unscrubbed)")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import fuzz_decoder, replay_corpus
    from .obs import trace as obs_trace
    from .runtime import session_cache

    trace_path = resolve("REPRO_TRACE", args.trace or None)
    tracer = obs_trace.enable() if trace_path else obs_trace.active()
    if args.replay:
        report = replay_corpus(args.replay, timeout=args.timeout)
        source = f"corpus {args.replay}"
    else:
        if args.input:
            video = read_raw_video(args.input)
            source = args.input
        else:
            video = synthesize_scene(SceneConfig(
                width=48, height=32, num_frames=4, seed=args.seed))
            source = "synthetic 48x32x4 clip"
        encoded = session_cache().encode(video, _encoder_config(args))
        report = fuzz_decoder(
            encoded, trials=args.trials, seed=args.seed,
            timeout=args.timeout, corpus_dir=args.corpus)
    if tracer is not None and trace_path:
        _export_trace(tracer, trace_path, None)
    print(format_table(
        ("strategy", "trials"),
        sorted(report.by_strategy.items()),
        title=f"decoder fuzz of {source}: {report.trials} trials in "
              f"{report.elapsed_seconds:.1f}s"))
    if report.oversized:
        print(f"{report.oversized} corrupted containers skipped "
              f"(declared geometry over the decode-work cap)")
    if report.ok:
        if args.replay:
            print("corpus replay clean: every historical counterexample "
                  "now decodes within the no-crash contract")
        else:
            print("no-crash contract held: no crashes, no hangs")
        return 0
    corpus_dir = args.replay or args.corpus
    print(f"CONTRACT VIOLATIONS: {len(report.failures)} "
          f"({report.hangs} hangs); counterexamples in {corpus_dir}")
    for failure in report.failures:
        print(f"  trial {failure.trial} [{failure.strategy}] "
              f"{failure.exception}: {failure.message}"
              + (f" -> {failure.corpus_path}" if failure.corpus_path
                 else ""))
    return 1


def _write_json(path: str, data: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
    print(f"wrote {path}")


def _report_matrix(report, args: argparse.Namespace, title: str,
                   columns: Tuple[str, ...],
                   labels: Callable[..., Tuple[str, ...]]) -> int:
    """Print a matrix's verdict table, flags and digest; write its
    ``--json`` report; exit non-zero unless every invariant held.

    ``labels`` turns one cell's axis values into its ``columns``.
    """
    rows = []
    for cell in report.cells:
        broken = sorted(k for k, ok in cell.invariants.items() if not ok)
        status = "PASS" if cell.passed else "FAIL"
        if cell.flags:
            status += " *"
        rows.append((*labels(*cell.axes.values()), status,
                     ", ".join(broken) if broken
                     else f"{len(cell.invariants)} invariants held"))
    print(format_table(
        (*columns, "verdict", "detail"), rows,
        title=f"{title}: {len(report.cells)} cells, seed {report.seed}"))
    for *axes, flag in report.flagged:
        print(f"  flag [{' x '.join(labels(*axes))}]: {flag}")
    print(f"matrix digest: {report.matrix_digest}")
    if args.json:
        _write_json(args.json, report.to_dict())
    return 0 if report.passed else 1


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .analysis.scenarios import (ALL_CONTENTS, run_scenario_matrix)
    from .obs import trace as obs_trace

    contents = None
    if args.full:
        contents = ALL_CONTENTS
    if args.contents:
        contents = tuple(c.strip() for c in args.contents.split(","))
    with obs_trace.span("repro.scenarios", seed=args.seed):
        report = run_scenario_matrix(
            contents=contents, seed=args.seed, trials=args.trials,
            journal_dir=args.journal_dir,
            model_checks=not args.no_model_checks)
    return _report_matrix(report, args, "scenario matrix",
                          ("content", "fault"),
                          lambda content, fault: (content, fault))


def _cmd_repair(args: argparse.Namespace) -> int:
    from .analysis.scenarios import run_repair_matrix
    from .obs import trace as obs_trace

    replicas_axis = tuple(
        int(r) for r in args.replicas_axis.split(","))
    with obs_trace.span("repro.repair", seed=args.seed):
        report = run_repair_matrix(replicas_axis=replicas_axis,
                                   seed=args.seed, reads=args.reads)
    return _report_matrix(
        report, args, "repair matrix", ("fault", "replicas", "daemon"),
        lambda fault, replicas, repair: (
            fault, f"R={replicas}", "repair" if repair else "-"))


#: The ``serve --demo`` script: one shared object, one denied read,
#: one aged re-read — the operator guide's walkthrough, executable.
_DEMO_SCRIPT = """\
put alice synth:1
put alice synth:2
share alice bob
get alice @1 bob
get alice @2 carol
age 36500
get alice @1
stats
audit
"""


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import shlex

    from .errors import ServiceError
    from .service import Keyring, ServiceFrontend, ShardPool, \
        VideoObjectStore

    if args.demo:
        lines = _DEMO_SCRIPT.splitlines()
    elif args.script:
        with open(args.script, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    pool = ShardPool(count=args.shards, read_retries=args.read_retries)
    store = VideoObjectStore(pool=pool, keyring=Keyring(seed=args.seed),
                             config=_encoder_config(args),
                             replicas=args.replicas)
    frontend = ServiceFrontend(store)
    #: ``@N`` in a script names the id returned by the N-th put (1-based).
    placed_ids: List[str] = []
    #: Object id -> the clip put under it: the store keeps no
    #: reference, so ``get`` grades its frames against this.
    sources = {}

    def resolve_id(token: str) -> str:
        if token.startswith("@"):
            return placed_ids[int(token[1:]) - 1]
        return token

    def clip_for(token: str):
        if token.startswith("synth:"):
            return synthesize_scene(SceneConfig(
                width=48, height=32, num_frames=4,
                seed=int(token.split(":", 1)[1])))
        return read_raw_video(token)

    async def run_script() -> int:
        status = 0
        await frontend.start()
        op_seq = 0
        for line in lines:
            words = shlex.split(line, comments=True)
            if not words:
                continue
            verb, rest = words[0], words[1:]
            try:
                if verb == "put":
                    clip = clip_for(rest[1])
                    object_id = await frontend.ingest(rest[0], clip)
                    sources[object_id] = clip
                    placed_ids.append(object_id)
                    print(f"put {rest[0]} -> {object_id[:16]} "
                          f"(@{len(placed_ids)})")
                elif verb == "get":
                    reader = rest[2] if len(rest) > 2 else None
                    op_seq += 1
                    result = await frontend.read(
                        rest[0], resolve_id(rest[1]), reader=reader,
                        rng=np.random.default_rng(
                            (args.seed, op_seq)))
                    source = sources.get(result.object_id)
                    psnr = "-"
                    if result.video is not None and source is not None:
                        psnr = f"{video_psnr(source, result.video):.2f} dB"
                    print(f"get {result.object_id[:16]} as "
                          f"{result.reader}: {result.outcome} "
                          f"(psnr {psnr})")
                elif verb == "share":
                    store.keyring.add_tenant(rest[0])
                    store.keyring.share(rest[0], rest[1])
                    print(f"shared {rest[0]} -> {rest[1]}")
                elif verb == "retire":
                    store.keyring.retire(rest[0])
                    print(f"retired key of {rest[0]}")
                elif verb == "age":
                    pool.advance_all(float(rest[0]))
                    print(f"aged all shards by {float(rest[0]):g} days")
                elif verb == "stats":
                    print(format_table(
                        ("shard", "health", "age", "reads",
                         "uncorrectable", "blobs", "repairs",
                         "repaired@"),
                        list(pool.health_rows()),
                        title=f"{len(store)} objects on "
                              f"{len(pool)} shards "
                              f"(R={store.replicas})"))
                    print(f"repair backlog: {store.repair.backlog()}")
                elif verb == "repair":
                    rep = await frontend.repair_pass()
                    print(f"repair pass: scanned "
                          f"{rep.scanned_objects}, repaired "
                          f"{rep.objects_repaired} objects "
                          f"({rep.streams_rewritten} streams, "
                          f"{rep.cell_writes} cell writes, "
                          f"{rep.strays_deleted} strays), backlog "
                          f"{rep.backlog}")
                elif verb == "audit":
                    sys.stdout.write(store.audit.to_jsonl())
                elif verb == "quit":
                    break
                else:
                    print(f"unknown command {verb!r} (put/get/share/"
                          f"retire/age/stats/repair/audit/quit)")
                    status = 2
            except ServiceError as exc:
                # Denials, stale keys, refusals: part of the exhibit,
                # not a crash.
                print(f"{verb} failed: {type(exc).__name__}: {exc}")
        await frontend.stop()
        return status

    return asyncio.run(run_script())


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .service.loadgen import run_durability_contrast, run_loadgen

    if args.durability_contrast:
        contrast = run_durability_contrast(
            clients=args.clients, ops=args.ops, seed=args.seed,
            read_fraction=args.read_fraction, shards=args.shards,
            read_retries=args.read_retries,
            config=_encoder_config(args))
        if args.json:
            _write_json(args.json, contrast)
        print(format_table(("metric", "R=1 bare", "R=2 + repair"), [
            ("refusal rate",
             f"{contrast['refusal_rate_baseline']:.2%}",
             f"{contrast['refusal_rate_healed']:.2%}"),
            ("run digest", contrast["baseline"]["run_digest"][:16],
             contrast["healed"]["run_digest"][:16]),
        ], title=f"durability contrast, seed {args.seed}"))
        delta = contrast["mean_psnr_delta_db"]
        print(f"mean PSNR delta (healed - bare): "
              f"{'-' if delta is None else f'{delta:+.2f} dB'}")
        print(f"contrast digest: {contrast['contrast_digest']}")
        return 0

    report = run_loadgen(
        clients=args.clients, ops=args.ops, seed=args.seed,
        read_fraction=args.read_fraction, shards=args.shards,
        read_retries=args.read_retries, t_days=args.t_days,
        config=_encoder_config(args), replicas=args.replicas,
        repair=args.repair)
    if args.json:
        _write_json(args.json, report.to_dict())
    print(format_table(("metric", "value"), [
        ("clients", report.clients),
        ("ops (ingest/read)",
         f"{report.ops} ({report.ingest_count}/{report.read_count})"),
        ("ingest throughput",
         f"{report.ingest_clips_per_second:.2f} clips/s"),
        ("read p50 latency", f"{report.read_p50_ms:.1f} ms"),
        ("read p99 latency", f"{report.read_p99_ms:.1f} ms"),
        ("read outcomes",
         ", ".join(f"{k}={v}"
                   for k, v in sorted(report.outcomes.items()))
         or "-"),
    ], title=f"loadgen seed {report.seed}"))
    if report.degradation:
        print(format_table(
            ("t (days)", "outcomes", "mean PSNR dB", "raw read"),
            [("nominal" if p["t_days"] is None else f"{p['t_days']:g}",
              ", ".join(f"{k}={v}"
                        for k, v in sorted(p["outcomes"].items())),
              "-" if p["psnr_db"] is None else f"{p['psnr_db']:.2f}",
              "ok" if p["raw_ok"]
              else f"corrupt ({p['raw_flipped_bits']} flips)")
             for p in report.degradation],
            title="degradation curve (service reads vs raw device "
                  "read)"))
    if report.degradation_repair:
        print(format_table(
            ("t (days)", "outcomes", "mean PSNR dB"),
            [("nominal" if p["t_days"] is None else f"{p['t_days']:g}",
              ", ".join(f"{k}={v}"
                        for k, v in sorted(p["outcomes"].items())),
              "-" if p["psnr_db"] is None else f"{p['psnr_db']:.2f}")
             for p in report.degradation_repair],
            title="post-repair re-reads (same samples, repaired "
                  "replicas)"))
    print(f"run digest: {report.run_digest}")
    return 0


def _cmd_seek(args: argparse.Namespace) -> int:
    from .analysis.random_access import run_random_access_sweep

    if args.input:
        video = read_raw_video(args.input)
    else:
        video = synthesize_scene(SceneConfig(
            width=args.width, height=args.height,
            num_frames=args.frames, seed=args.scene_seed))
    result = run_random_access_sweep(
        video,
        gop_sizes=tuple(args.gop_sizes),
        crfs=tuple(args.crfs),
        ages=tuple(None if a <= 0 else a for a in args.ages),
        seeks=args.seeks, seed=args.seed, shards=args.shards,
        seek_cache=args.cache)
    if args.json:
        _write_json(args.json, result.to_dict())
    rows = []
    for cell in result.cells:
        rows.append((
            str(cell.gop_size), str(cell.crf),
            "nominal" if cell.t_days is None else f"{cell.t_days:g}d",
            f"{cell.compression_ratio:.1f}x",
            "-" if np.isnan(cell.psnr_db) else f"{cell.psnr_db:.2f}",
            ", ".join(f"{k}={v}"
                      for k, v in sorted(cell.outcomes.items())),
            f"{cell.bytes_read_fraction * 100:.0f}%",
            "-" if np.isnan(cell.seek_p50_ms)
            else f"{cell.seek_p50_ms:.1f}",
            "-" if np.isnan(cell.seek_p99_ms)
            else f"{cell.seek_p99_ms:.1f}",
            "-" if np.isnan(cell.speedup)
            else f"{cell.speedup:.1f}x",
        ))
    print(format_table(
        ("gop", "crf", "age", "compr", "PSNR dB", "outcomes",
         "fetched", "p50 ms", "p99 ms", "speedup"),
        rows,
        title=f"random-access seeks ({result.frames} frames "
              f"{result.width}x{result.height}, "
              f"{result.cells[0].seeks} seeks/cell, "
              f"seed {result.seed})"))
    print(f"sweep digest: {result.sweep_digest()}")
    return 0


def _cmd_modes(_args: argparse.Namespace) -> int:
    verdicts = analyze_all_modes()
    print(format_table(
        ("mode", "privacy", "bounded", "transparent", "compatible"),
        [(name, v.privacy, v.bounded_propagation,
          v.approximation_transparent, v.compatible)
         for name, v in verdicts.items()],
        title="AES mode compatibility with approximate storage"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Approximate storage of compressed and encrypted "
                    "videos (ASPLOS 2017 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate a synthetic clip")
    synth.add_argument("output")
    synth.add_argument("--width", type=int, default=128)
    synth.add_argument("--height", type=int, default=96)
    synth.add_argument("--frames", type=int, default=24)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--objects", type=int, default=3)
    synth.add_argument("--noise", type=float, default=0.0)
    synth.set_defaults(func=_cmd_synth)

    encode = commands.add_parser("encode", help="encode a raw clip")
    encode.add_argument("--no-index", action="store_true",
                        help="write the legacy v0 container without "
                             "the seek index")
    encode.add_argument("input")
    encode.add_argument("output")
    _add_encoder_args(encode)
    encode.set_defaults(func=_cmd_encode)

    decode = commands.add_parser("decode", help="decode an encoded video")
    decode.add_argument("input")
    decode.add_argument("output")
    decode.set_defaults(func=_cmd_decode)

    analyze = commands.add_parser("analyze",
                                  help="VideoApp importance report")
    analyze.add_argument("input")
    _add_encoder_args(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    store = commands.add_parser(
        "store", help="simulate the full approximate-storage round trip")
    store.add_argument("input")
    store.add_argument("--output", help="write the read-back clip here")
    store.add_argument("--seed", type=int, default=0)
    store.add_argument("--encrypt", action="store_true")
    store.add_argument("--key", default="000102030405060708090a0b0c0d0e0f")
    store.add_argument("--iv", default="f0e0d0c0b0a090807060504030201000")
    _add_encoder_args(store)
    store.set_defaults(func=_cmd_store)

    sweep = commands.add_parser(
        "sweep", help="Monte Carlo error-rate sweep (trial engine)")
    sweep.add_argument("input")
    sweep.add_argument("--rates", default="1e-6,1e-5,1e-4,1e-3,1e-2",
                       help="comma-separated error rates")
    sweep.add_argument("--runs", type=int, default=8,
                       help="Monte Carlo trials per rate")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default REPRO_NUM_WORKERS; "
                            "0 = serial); results are identical at any "
                            "worker count")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-trial wall-clock budget in seconds "
                            "(default REPRO_TRIAL_TIMEOUT; 0 = none)")
    sweep.add_argument("--retries", type=int, default=None,
                       help="crash-retry budget before a trial is "
                            "quarantined (default REPRO_MAX_RETRIES)")
    sweep.add_argument("--journal", default=None,
                       help="checkpoint file; re-running with the same "
                            "journal resumes an interrupted sweep")
    sweep.add_argument("--trace", default=None,
                       help="write a Chrome-trace JSON of campaign stage "
                            "timings here (default REPRO_TRACE; open in "
                            "chrome://tracing or Perfetto)")
    sweep.add_argument("--trace-jsonl", default=None,
                       help="also write raw span records as JSONL")
    sweep.add_argument("--progress", action="store_true", default=None,
                       help="live terminal status line (default "
                            "REPRO_PROGRESS); observational only")
    sweep.add_argument("--crf-grid", default=None,
                       help="comma-separated CRFs: run the sweep at each "
                            "grid point (overrides --crf)")
    sweep.add_argument("--prune-predicted", action="store_true",
                       help="with --crf-grid: probe-encode once, predict "
                            "each point's rate/quality from motion-search "
                            "statistics, and skip dominated points before "
                            "any campaign runs")
    _add_encoder_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    retention = commands.add_parser(
        "retention",
        help="quality vs retention time under lifetime mitigations")
    retention.add_argument("input")
    retention.add_argument("--t-days", default="90,365,1000,3650",
                           help="comma-separated retention times (days)")
    retention.add_argument("--scrub", default=None,
                           help="comma-separated scrub intervals in days "
                                "('none' = never); with --retries/"
                                "--conceal forms the mitigation grid "
                                "(default: the built-in ladder)")
    retention.add_argument("--retries", default=None,
                           help="comma-separated re-read retry depths for "
                                "detected-uncorrectable blocks")
    retention.add_argument("--conceal", choices=["off", "on", "both"],
                           default=None,
                           help="decoder error concealment axis")
    retention.add_argument("--scheme", default=None,
                           help="store everything under one ECC scheme "
                                "(e.g. BCH-6) instead of Table 1")
    retention.add_argument("--runs", type=int, default=3,
                           help="Monte Carlo trials per (config, t) cell")
    retention.add_argument("--seed", type=int, default=0)
    retention.add_argument("--workers", type=int, default=None,
                           help="worker processes (default "
                                "REPRO_NUM_WORKERS; 0 = serial)")
    retention.add_argument("--timeout", type=float, default=None,
                           help="per-trial wall-clock budget in seconds")
    retention.add_argument("--journal", default=None,
                           help="checkpoint path prefix (one journal per "
                                "mitigation config)")
    retention.add_argument("--trace", default=None,
                           help="write a Chrome-trace JSON here")
    retention.add_argument("--progress", action="store_true", default=None,
                           help="live terminal status line")
    retention.add_argument("--assert-scrub-benefit", action="store_true",
                           help="exit non-zero unless scrubbed quality >= "
                                "unscrubbed at the longest retention "
                                "(CI smoke check)")
    _add_encoder_args(retention)
    retention.set_defaults(func=_cmd_retention)

    fuzz = commands.add_parser(
        "fuzz", help="decoder no-crash fuzz harness")
    fuzz.add_argument("--input", default=None,
                      help="raw clip to encode and corrupt (default: a "
                           "small synthetic clip)")
    fuzz.add_argument("--trials", type=int, default=500)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--timeout", type=float, default=5.0,
                      help="per-trial decode deadline in seconds "
                           "(0 = none)")
    fuzz.add_argument("--corpus", default="fuzz-corpus",
                      help="directory for counterexample bitstreams")
    fuzz.add_argument("--replay", default=None, metavar="CORPUS_DIR",
                      help="replay persisted counterexamples from this "
                           "corpus directory instead of fuzzing; exits "
                           "non-zero if any historical crash reproduces")
    fuzz.add_argument("--trace", default=None,
                      help="write a Chrome-trace JSON of fuzz stage "
                           "timings here (default REPRO_TRACE)")
    _add_encoder_args(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)

    scenarios = commands.add_parser(
        "scenarios",
        help="chaos x adversarial-content survival matrix")
    scenarios.add_argument("--full", action="store_true",
                           help="run every adversarial content suite "
                                "(default: the quick CI subset)")
    scenarios.add_argument("--contents", default=None,
                           help="comma-separated content names "
                                "(overrides --full)")
    scenarios.add_argument("--trials", type=int, default=4,
                           help="Monte Carlo trials per campaign cell "
                                "(min 3: a chaos victim needs bitwise-"
                                "comparable survivors on both sides)")
    scenarios.add_argument("--seed", type=int, default=0)
    scenarios.add_argument("--journal-dir", default=None,
                           help="directory for the journal_torn cell's "
                                "journals (default: a temp dir)")
    scenarios.add_argument("--no-model-checks", action="store_true",
                           help="skip the importance-ranking and "
                                "predictor-prune model-gap audits")
    scenarios.add_argument("--json", default=None,
                           help="write the full MatrixReport here "
                                "(CI compares matrix_digest across runs)")
    scenarios.set_defaults(func=_cmd_scenarios)

    repair = commands.add_parser(
        "repair",
        help="self-healing matrix: fault x replication x repair")
    repair.add_argument("--seed", type=int, default=0)
    repair.add_argument("--reads", type=int, default=3,
                        help="reads per object per round")
    repair.add_argument("--replicas-axis", default="1,2",
                        help="comma-separated replica counts to sweep")
    repair.add_argument("--json", default=None,
                        help="write the full MatrixReport here "
                             "(CI compares matrix_digest across runs)")
    repair.set_defaults(func=_cmd_repair)

    serve = commands.add_parser(
        "serve", help="scripted session against the video store service")
    serve.add_argument("--script", default=None,
                       help="command script (default: stdin); verbs: "
                            "put TENANT RAW|synth:SEED, "
                            "get TENANT ID|@N [READER], share OWNER "
                            "READER, retire TENANT, age DAYS, stats, "
                            "repair, audit, quit")
    serve.add_argument("--demo", action="store_true",
                       help="run the built-in demo script instead")
    serve.add_argument("--seed", type=int, default=0,
                       help="keyring + read-rng seed")
    serve.add_argument("--shards", type=int, default=None,
                       help="shard pool width (default 4)")
    serve.add_argument("--read-retries", type=int, default=None,
                       help="device re-read ladder depth (default 1)")
    serve.add_argument("--replicas", type=int, default=None,
                       help="copies written per stream "
                            "(default REPRO_SERVICE_REPLICAS, else 2)")
    _add_encoder_args(serve)
    serve.set_defaults(func=_cmd_serve)

    loadgen = commands.add_parser(
        "loadgen",
        help="seeded concurrent load + degradation curve (replayable)")
    loadgen.add_argument("--clients", type=int, default=4,
                         help="concurrent client coroutines")
    loadgen.add_argument("--ops", type=int, default=12,
                         help="total planned operations")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--read-fraction", type=float, default=0.5,
                         help="probability an op is a read (given an "
                              "earlier ingest exists)")
    loadgen.add_argument("--shards", type=int, default=None,
                         help="shard pool width (default 4)")
    loadgen.add_argument("--read-retries", type=int, default=None,
                         help="device re-read ladder depth (default 1)")
    loadgen.add_argument("--t-days", type=float, default=None,
                         help="age every shard to this retention time "
                              "for the mixed phase (default: nominal)")
    loadgen.add_argument("--replicas", type=int, default=None,
                         help="copies written per stream "
                              "(default REPRO_SERVICE_REPLICAS, else 2)")
    loadgen.add_argument("--repair", action="store_true",
                         help="run a repair pass after each "
                              "degradation age and re-read the samples")
    loadgen.add_argument("--durability-contrast", action="store_true",
                         help="run the R=1 bare vs R=2+repair contrast "
                              "(same seeds) instead of a single run")
    loadgen.add_argument("--json", default=None,
                         help="write the full report (including the "
                              "run digest) here")
    _add_encoder_args(loadgen)
    loadgen.set_defaults(func=_cmd_loadgen)

    seek = commands.add_parser(
        "seek",
        help="random-access seek exhibit: latency, PSNR-under-damage, "
             "and compression over GOP size x CRF x shard age")
    seek.add_argument("--input", default=None,
                      help="raw REPROYUV clip (default: synthetic)")
    seek.add_argument("--width", type=int, default=64)
    seek.add_argument("--height", type=int, default=48)
    seek.add_argument("--frames", type=int, default=24)
    seek.add_argument("--scene-seed", type=int, default=7,
                      help="synthetic clip seed")
    seek.add_argument("--gop-sizes", type=int, nargs="+",
                      default=[4, 12], help="GOP sizes to sweep")
    seek.add_argument("--crfs", type=int, nargs="+", default=[24, 32],
                      help="CRF values to sweep")
    seek.add_argument("--ages", type=float, nargs="+",
                      default=[0.0, 3650.0],
                      help="shard ages in days (<= 0 means nominal)")
    seek.add_argument("--seeks", type=int, default=24,
                      help="frame reads per cell")
    seek.add_argument("--seed", type=int, default=17,
                      help="sweep seed (schedules + device draws)")
    seek.add_argument("--shards", type=int, default=3)
    seek.add_argument("--cache", type=int, default=16,
                      help="decoded-GOP LRU capacity (0 disables)")
    seek.add_argument("--json", default=None,
                      help="also write the report as JSON")
    seek.set_defaults(func=_cmd_seek)

    modes = commands.add_parser("modes", help="AES mode scorecard")
    modes.set_defaults(func=_cmd_modes)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .runtime import chaos
    policy = chaos.policy_from_env()
    if policy is None:
        return args.func(args)
    # REPRO_CHAOS_* set: run the whole subcommand under the injected
    # fault schedule (any exhibit becomes a chaos experiment).
    chaos.arm(policy)
    try:
        return args.func(args)
    finally:
        chaos.disarm()


if __name__ == "__main__":
    sys.exit(main())
