"""Instrumentation invariants: results never change, spans cover the
pipeline, worker spans/metrics merge across the process boundary."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis import quality_sweep
from repro.obs import metrics, trace
from repro.runtime import fork_available

RATES = (1e-4, 1e-3)
RUNS = 2


def _sweep(encoded, video, decoded, workers=0, progress=None):
    return quality_sweep(encoded, video, decoded, None, rates=RATES,
                         runs=RUNS, rng=np.random.default_rng(7),
                         workers=workers, progress=progress)


class TestDeterminism:
    def test_tracing_never_changes_results(self, encoded_small, small_video,
                                           decoded_small):
        baseline = _sweep(encoded_small, small_video, decoded_small)
        trace.enable()
        traced = _sweep(encoded_small, small_video, decoded_small)
        trace.disable()
        assert traced == baseline
        for a, b in zip(baseline.points, traced.points):
            assert a.mean_change_db == b.mean_change_db
            assert a.max_loss_db == b.max_loss_db
            assert a.mean_flips == b.mean_flips

    def test_progress_never_changes_results(self, encoded_small, small_video,
                                            decoded_small, capsys):
        baseline = _sweep(encoded_small, small_video, decoded_small)
        shown = _sweep(encoded_small, small_video, decoded_small,
                       progress=True)
        assert shown == baseline

    @pytest.mark.skipif(not fork_available(),
                        reason="parallel execution needs fork")
    def test_traced_parallel_matches_untraced_serial(
            self, encoded_small, small_video, decoded_small):
        baseline = _sweep(encoded_small, small_video, decoded_small)
        trace.enable()
        traced = _sweep(encoded_small, small_video, decoded_small,
                        workers=2)
        trace.disable()
        assert traced == baseline


class TestSpanCoverage:
    def test_serial_sweep_span_tree(self, encoded_small, small_video,
                                    decoded_small):
        trace.enable()
        _sweep(encoded_small, small_video, decoded_small)
        records = trace.active().drain()
        names = {r.name for r in records}
        for stage in ("campaign", "trial", "inject", "decode",
                      "decode.frame", "metric.psnr"):
            assert stage in names, f"missing span {stage}"
        # every trial span is a child of the campaign span
        campaign = [r for r in records if r.name == "campaign"][0]
        trials = [r for r in records if r.name == "trial"]
        assert len(trials) == len(RATES) * RUNS
        assert all(t.parent_id == campaign.span_id for t in trials)

    def test_encode_emits_aggregate_stage_spans(self, small_video,
                                                default_config):
        from repro.codec import Encoder

        trace.enable()
        Encoder(default_config).encode(small_video)
        records = trace.active().drain()
        names = {r.name for r in records}
        for stage in ("encode", "encode.frame", "encode.intra",
                      "encode.transform", "encode.entropy"):
            assert stage in names, f"missing span {stage}"
        aggregates = [r for r in records
                      if r.attrs.get("aggregate") is True]
        assert aggregates, "per-macroblock stages must aggregate"
        frames = {r.span_id: r for r in records
                  if r.name == "encode.frame"}
        assert all(a.parent_id in frames for a in aggregates)

    def test_encode_span_per_geometry_group(self, small_video):
        # One "encode" span per lockstep group: two clips of one
        # geometry share a span, a third geometry gets its own.
        from repro.codec import EncoderConfig, EntropyCoder
        from repro.codec.encoder import encode_batch_with_recon

        config = EncoderConfig(crf=24, gop_size=4,
                               entropy_coder=EntropyCoder.CAVLC)
        short = small_video.subsequence(0, 2)
        trace.enable()
        encode_batch_with_recon([small_video, short, small_video], config)
        records = trace.active().drain()
        groups = sorted((r.attrs["clips"], r.attrs["frames"],
                         r.attrs["entropy"])
                        for r in records if r.name == "encode")
        assert groups == sorted([(2, len(small_video), "CAVLC"),
                                 (1, 2, "CAVLC")])

    def test_encode_stages_split_search_and_intra(self, small_video):
        # The encoder times the motion search apart from the inter
        # decision, and the per-MB intra choice in every frame type.
        from repro.codec import Encoder, EncoderConfig

        config = EncoderConfig(crf=24, gop_size=4, bframes=1)
        trace.enable()
        Encoder(config).encode(small_video)
        records = trace.active().drain()
        frames = [r for r in records if r.name == "encode.frame"]
        assert {r.attrs["frame_type"] for r in frames} == {"I", "P", "B"}
        for frame in frames:
            stages = {r.name for r in records
                      if r.parent_id == frame.span_id}
            assert {"encode.intra", "encode.transform", "encode.entropy",
                    "encode.deblock"} <= stages
            inter = {"encode.search", "encode.inter"}
            if frame.attrs["frame_type"] == "I":
                assert not inter & stages
            else:
                assert inter <= stages

    def test_decode_stages_time_deblock_and_padding(self, encoded_small,
                                                    monkeypatch):
        # The in-loop filter and reference padding run inside the
        # per-frame stage clock, so the decode.* aggregates account for
        # the frame loop: slowed down, they show up in decode.deblock.
        from repro.codec import decoder as decoder_module
        from repro.codec.decoder import Decoder

        delay = 0.002
        calls = []

        def slowed(function):
            def wrapper(*args):
                calls.append(function.__name__)
                time.sleep(delay)
                return function(*args)
            return wrapper

        for name in ("deblock_frame", "pad_reference"):
            monkeypatch.setattr(decoder_module, name,
                                slowed(getattr(decoder_module, name)))
        trace.enable()
        Decoder().decode(encoded_small)
        records = trace.active().drain()
        assert calls.count("deblock_frame") == len(encoded_small.frames)
        assert "pad_reference" in calls
        deblock = sum(r.duration for r in records
                      if r.name == "decode.deblock")
        assert deblock >= delay * len(calls)
        decode = next(r.duration for r in records if r.name == "decode")
        stages = sum(r.duration for r in records
                     if r.attrs.get("aggregate")
                     and r.name.startswith("decode."))
        assert 0.95 * decode <= stages <= decode

    def test_bch_and_device_spans(self):
        from repro.storage.device import ApproximateDevice
        from repro.storage.ecc import scheme_by_name

        trace.enable()
        device = ApproximateDevice(rng=np.random.default_rng(0), exact=True)
        device.store_and_read(bytes(range(32)), scheme_by_name("BCH-6"))
        names = {r.name for r in trace.active().drain()}
        assert "ecc.store_read" in names
        assert "bch.encode" in names
        assert "bch.decode" in names

    def test_aes_spans(self):
        from repro.crypto import StreamEncryptor

        trace.enable()
        encryptor = StreamEncryptor(key=bytes(16), master_iv=bytes(16))
        streams = {0: b"payload-one", 1: b"payload-two"}
        encrypted = encryptor.encrypt_streams(streams)
        encryptor.decrypt_streams(encrypted)
        encryptor.decrypt_at(1, encrypted[1][3:9], 3)
        records = {r.name: r for r in trace.active().drain()}
        assert records["aes.encrypt"].attrs == {"mode": "CTR", "streams": 2}
        assert records["aes.decrypt"].attrs == {"mode": "CTR", "streams": 2}
        assert records["aes.decrypt_at"].attrs == {
            "mode": "CTR", "stream": 1, "offset": 3, "size": 6}


@pytest.mark.skipif(not fork_available(),
                    reason="parallel execution needs fork")
class TestCrossProcessMerge:
    def test_worker_spans_absorbed_with_distinct_pids(
            self, encoded_small, small_video, decoded_small):
        trace.enable()
        _sweep(encoded_small, small_video, decoded_small, workers=2)
        records = trace.active().drain()
        pids = {r.pid for r in records}
        assert os.getpid() in pids
        assert len(pids) >= 2, "no worker spans crossed the boundary"
        worker_trials = [r for r in records
                         if r.name == "trial" and r.pid != os.getpid()]
        assert len(worker_trials) == len(RATES) * RUNS

    def test_worker_metrics_merged(self, encoded_small, small_video,
                                   decoded_small):
        metrics.reset_registry()
        _sweep(encoded_small, small_video, decoded_small, workers=2)
        snap = metrics.get_registry().snapshot()
        # worker-side counters made it home
        assert snap["counters"]["trials_total"] == len(RATES) * RUNS
        assert (snap["histograms"]["trial_seconds"]["count"]
                == len(RATES) * RUNS)
        # parent-side campaign accounting
        assert snap["counters"]["campaign_runs_total"] == 1
        assert snap["counters"]["campaign_trials_total"] == len(RATES) * RUNS


class TestRuntimeMetrics:
    def test_serial_campaign_publishes_metrics(self, encoded_small,
                                               small_video, decoded_small):
        metrics.reset_registry()
        _sweep(encoded_small, small_video, decoded_small)
        snap = metrics.get_registry().snapshot()
        assert snap["counters"]["trials_total"] == len(RATES) * RUNS
        assert snap["counters"]["campaign_runs_total"] == 1
        assert snap["gauges"]["campaign_workers"] == 0
        assert snap["counters"].get("trial_failures_total", 0) == 0

    def test_journal_metrics(self, tmp_path, encoded_small, small_video,
                             decoded_small):
        metrics.reset_registry()
        journal = tmp_path / "sweep.jsonl"
        first = quality_sweep(encoded_small, small_video, decoded_small,
                              None, rates=RATES, runs=RUNS,
                              rng=np.random.default_rng(7),
                              journal=journal)
        written = metrics.get_registry().snapshot()
        # header + one record per trial
        assert (written["counters"]["journal_records_total"]
                == len(RATES) * RUNS + 1)
        metrics.reset_registry()
        resumed = quality_sweep(encoded_small, small_video, decoded_small,
                                None, rates=RATES, runs=RUNS,
                                rng=np.random.default_rng(7),
                                journal=journal)
        assert resumed == first
        restored = metrics.get_registry().snapshot()
        assert (restored["counters"]["journal_restored_total"]
                == len(RATES) * RUNS)
        assert (restored["counters"]["campaign_resumed_total"]
                == len(RATES) * RUNS)
