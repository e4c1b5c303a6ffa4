"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis.scenarios import DEFAULT_FAULTS
from repro.cli import main
from repro.obs import metrics, trace
from repro.video import frames_equal, read_raw_video


@pytest.fixture(autouse=True)
def clean_obs_state():
    """CLI runs may enable tracing; never leak it across tests."""
    yield
    trace.disable()
    metrics.reset_registry()


@pytest.fixture()
def clip(tmp_path):
    path = tmp_path / "clip.ryuv"
    assert main(["synth", str(path), "--width", "64", "--height", "48",
                 "--frames", "6", "--seed", "3"]) == 0
    return path


class TestSynth:
    def test_writes_requested_geometry(self, clip):
        video = read_raw_video(clip)
        assert len(video) == 6
        assert video.width == 64 and video.height == 48

    def test_seed_determinism(self, tmp_path):
        a = tmp_path / "a.ryuv"
        b = tmp_path / "b.ryuv"
        main(["synth", str(a), "--frames", "3", "--seed", "9",
              "--width", "32", "--height", "32"])
        main(["synth", str(b), "--frames", "3", "--seed", "9",
              "--width", "32", "--height", "32"])
        assert frames_equal(read_raw_video(a), read_raw_video(b))


class TestEncodeDecode:
    def test_roundtrip(self, clip, tmp_path, capsys):
        encoded = tmp_path / "clip.rvap"
        decoded = tmp_path / "out.ryuv"
        assert main(["encode", str(clip), str(encoded), "--crf", "26",
                     "--gop", "6"]) == 0
        assert main(["decode", str(encoded), str(decoded)]) == 0
        out = read_raw_video(decoded)
        original = read_raw_video(clip)
        assert len(out) == len(original)
        text = capsys.readouterr().out
        assert "compression" in text

    def test_cavlc_flag(self, clip, tmp_path):
        encoded = tmp_path / "clip.rvap"
        assert main(["encode", str(clip), str(encoded),
                     "--entropy", "cavlc"]) == 0
        assert encoded.stat().st_size > 0


class TestAnalyze:
    def test_prints_importance_stats(self, clip, capsys):
        assert main(["analyze", str(clip), "--crf", "26",
                     "--gop", "6"]) == 0
        text = capsys.readouterr().out
        assert "max importance" in text
        assert "storage by importance class" in text


class TestStore:
    def test_reports_density_and_quality(self, clip, capsys):
        assert main(["store", str(clip), "--crf", "26", "--gop", "6"]) == 0
        text = capsys.readouterr().out
        assert "cells/pixel" in text
        assert "PSNR after storage" in text

    def test_encrypted_store_with_output(self, clip, tmp_path, capsys):
        out = tmp_path / "readback.ryuv"
        assert main(["store", str(clip), "--crf", "26", "--gop", "6",
                     "--encrypt", "--output", str(out)]) == 0
        assert "True" in capsys.readouterr().out
        assert len(read_raw_video(out)) == 6


class TestSweep:
    def test_journaled_sweep_resumes(self, clip, tmp_path, capsys):
        journal = tmp_path / "campaign.jsonl"
        args = ["sweep", str(clip), "--rates", "1e-3", "--runs", "2",
                "--workers", "0", "--gop", "6", "--crf", "26",
                "--journal", str(journal)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert journal.exists()
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "2 resumed from journal" in second
        # Identical sweep table, trial work skipped entirely.
        assert first.splitlines()[:4] == second.splitlines()[:4]

    def test_traced_sweep_writes_valid_chrome_trace(self, clip, tmp_path,
                                                    capsys, monkeypatch):
        # A cache hit would skip the clean encode (and its spans), so
        # force the encode to actually run under the tracer.
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "0")
        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "spans.jsonl"
        assert main(["sweep", str(clip), "--rates", "1e-3", "--runs", "2",
                     "--workers", "0", "--gop", "6", "--crf", "26",
                     "--trace", str(trace_path),
                     "--trace-jsonl", str(jsonl_path)]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "X"}
        # The acceptance span tree: encode, injection, ECC, decode, and
        # quality-metric stages all present in one sweep trace.
        for stage in ("repro.sweep", "campaign", "trial", "encode",
                      "inject", "ecc.calibration", "bch.encode",
                      "bch.decode", "decode", "metric.psnr"):
            assert stage in names, f"missing span {stage}"
        assert jsonl_path.read_text().strip()

    def test_trace_env_fallback(self, clip, tmp_path, monkeypatch,
                                capsys):
        trace_path = tmp_path / "env-trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(trace_path))
        assert main(["sweep", str(clip), "--rates", "1e-3", "--runs", "1",
                     "--workers", "0", "--gop", "6", "--crf", "26"]) == 0
        assert trace_path.exists()

    def test_untraced_sweep_matches_traced(self, clip, tmp_path, capsys):
        base = ["sweep", str(clip), "--rates", "1e-3,1e-2", "--runs", "2",
                "--workers", "0", "--gop", "6", "--crf", "26",
                "--seed", "4"]
        assert main(base) == 0
        untraced = capsys.readouterr().out
        trace.disable()
        assert main(base + ["--trace", str(tmp_path / "t.json")]) == 0
        traced = capsys.readouterr().out
        table = [line for line in untraced.splitlines() if "1.0e-" in line]
        traced_table = [line for line in traced.splitlines()
                        if "1.0e-" in line]
        assert table == traced_table

    def test_progress_flag_renders_to_stderr(self, clip, capsys):
        assert main(["sweep", str(clip), "--rates", "1e-3", "--runs", "2",
                     "--workers", "0", "--gop", "6", "--crf", "26",
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "trials" in captured.err
        assert "trials" in captured.out  # the report table is untouched


class TestFuzz:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["fuzz", "--trials", "12", "--seed", "5",
                     "--corpus", str(corpus)]) == 0
        text = capsys.readouterr().out
        assert "no-crash contract held" in text
        assert not corpus.exists()  # corpus only appears on failure

    def test_fuzz_accepts_input_clip(self, clip, tmp_path, capsys):
        assert main(["fuzz", "--input", str(clip), "--trials", "6",
                     "--gop", "6", "--crf", "26",
                     "--corpus", str(tmp_path / "corpus")]) == 0
        assert str(clip) in capsys.readouterr().out

    def test_replay_of_clean_corpus_exits_zero(self, clip, tmp_path,
                                               capsys):
        # Build a one-entry corpus by hand: a valid encoded stream with
        # a payload-damage recipe; the real decoder must handle it.
        from repro.codec import Encoder, EncoderConfig

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        video = read_raw_video(clip)
        blob = Encoder(EncoderConfig(crf=26, gop_size=6)).encode(
            video).serialize()
        (corpus / "bitflip-deadbeef.rvap").write_bytes(blob)
        (corpus / "bitflip-deadbeef.json").write_text(
            json.dumps({"strategy": "bitflip"}))
        assert main(["fuzz", "--replay", str(corpus)]) == 0
        text = capsys.readouterr().out
        assert "corpus replay clean" in text
        assert str(corpus) in text

    def test_replay_missing_corpus_raises(self, tmp_path):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="does not exist"):
            main(["fuzz", "--replay", str(tmp_path / "nope")])


class TestRetention:
    ARGS = ["--scheme", "BCH-6", "--slices", "2", "--runs", "2",
            "--workers", "0", "--t-days", "90,3650"]

    def test_default_sweep_with_assertion(self, clip, capsys):
        assert main(["retention", str(clip), *self.ARGS,
                     "--assert-scrub-benefit"]) == 0
        text = capsys.readouterr().out
        assert "unmitigated" in text
        assert "scrub-90d" in text
        assert "scrub benefit holds" in text
        assert "storage_uncorrectable_blocks_total" in text

    def test_explicit_mitigation_grid(self, clip, capsys):
        assert main(["retention", str(clip), *self.ARGS,
                     "--scrub", "none,90", "--retries", "0",
                     "--conceal", "off"]) == 0
        text = capsys.readouterr().out
        assert "unmitigated" in text
        assert "scrub-90d" in text

    def test_journal_prefix_creates_per_config_files(self, clip,
                                                     tmp_path, capsys):
        prefix = tmp_path / "journal"
        assert main(["retention", str(clip), *self.ARGS, "--t-days",
                     "3650", "--runs", "1",
                     "--journal", str(prefix)]) == 0
        journals = sorted(p.name for p in tmp_path.glob("journal.*.jsonl"))
        assert journals  # one journal per mitigation config
        assert any("unmitigated" in name for name in journals)

    def test_scrub_assertion_needs_both_populations(self, clip, capsys):
        assert main(["retention", str(clip), *self.ARGS,
                     "--scrub", "90", "--assert-scrub-benefit"]) == 2
        assert "needs both" in capsys.readouterr().out


class TestModes:
    def test_scorecard(self, capsys):
        assert main(["modes"]) == 0
        text = capsys.readouterr().out
        assert "ECB" in text and "CTR" in text


class TestScenarios:
    def test_matrix_runs_and_writes_report(self, tmp_path, capsys):
        report = tmp_path / "scenarios.json"
        args = ["scenarios", "--contents", "flicker", "--trials", "3",
                "--seed", "4", "--no-model-checks",
                "--journal-dir", str(tmp_path / "journals"),
                "--json", str(report)]
        assert main(args) == 0
        text = capsys.readouterr().out
        assert "scenario matrix" in text
        assert "matrix digest" in text
        data = json.loads(report.read_text())
        assert data["passed"] is True
        assert len(data["cells"]) == len(DEFAULT_FAULTS)

    def test_repair_prints_flags_and_broken_invariants(self, tmp_path,
                                                       monkeypatch, capsys):
        from repro.analysis import scenarios
        from repro.analysis.scenarios import MatrixCell, MatrixReport

        cells = [
            MatrixCell(axes={"fault": "correlated_burst", "replicas": 1,
                             "repair": False},
                       invariants={"no_silent_miscorrection": True},
                       flags=["no-chaos-fault-fired"]),
            MatrixCell(axes={"fault": "burst_on_scrub", "replicas": 2,
                             "repair": True},
                       invariants={"repair_converges": False}),
        ]
        report = MatrixReport(cells=cells, seed=5, geometry=dict(
            width=48, height=32, num_frames=4, objects=2, reads=3))
        monkeypatch.setattr(scenarios, "run_repair_matrix",
                            lambda **kwargs: report)
        path = tmp_path / "repair.json"
        assert main(["repair", "--json", str(path)]) == 1
        text = capsys.readouterr().out
        assert ("flag [correlated_burst x R=1 x -]: no-chaos-fault-fired"
                in text)
        assert "repair_converges" in text and "FAIL" in text
        assert f"matrix digest: {report.matrix_digest}" in text
        data = json.loads(path.read_text())
        assert data["passed"] is False
        assert data["cells"][0]["flags"] == ["no-chaos-fault-fired"]

    def test_env_chaos_armed_for_any_subcommand(self, clip, monkeypatch,
                                                capsys):
        monkeypatch.setenv("REPRO_CHAOS_FAIL_TRIALS", "0")
        args = ["sweep", str(clip), "--rates", "1e-3", "--runs", "2",
                "--workers", "0", "--crf", "26", "--gop", "6"]
        assert main(args) == 0
        assert "1 failed" in capsys.readouterr().out
        # The CLI disarms on the way out.
        from repro.runtime import chaos

        assert chaos.active() is None


class TestServe:
    def test_demo_script_walks_the_lifecycle(self, capsys):
        assert main(["serve", "--demo"]) == 0
        text = capsys.readouterr().out
        assert "put alice ->" in text
        assert "as bob: clean" in text or "as bob: corrected" in text
        assert "AccessDeniedError" in text  # carol is denied
        assert "aged all shards by 36500 days" in text
        assert '"kind": "ingest"' in text  # audit JSONL tail

    def test_script_file_with_stale_key(self, tmp_path, capsys):
        script = tmp_path / "session.txt"
        script.write_text(
            "put alice synth:1\n"
            "retire alice\n"
            "get alice @1\n")
        assert main(["serve", "--script", str(script)]) == 0
        text = capsys.readouterr().out
        assert "retired key of alice" in text
        assert "StaleKeyError" in text

    def test_unknown_verb_sets_exit_code(self, capsys):
        script_out = main(["serve", "--demo"])
        assert script_out == 0
        import io
        import sys as _sys

        stdin = _sys.stdin
        _sys.stdin = io.StringIO("frobnicate\n")
        try:
            assert main(["serve"]) == 2
        finally:
            _sys.stdin = stdin
        assert "unknown command" in capsys.readouterr().out


class TestLoadgen:
    ARGS = ["--clients", "2", "--ops", "5", "--seed", "3",
            "--read-retries", "0"]

    def test_report_and_digest(self, tmp_path, capsys):
        out = tmp_path / "loadgen.json"
        assert main(["loadgen", *self.ARGS, "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "ingest throughput" in text
        assert "read p99 latency" in text
        assert "degradation curve" in text
        assert "run digest:" in text
        data = json.loads(out.read_text())
        assert data["ingest_count"] + data["read_count"] == 5
        assert len(data["run_digest"]) == 64

    def test_digest_replays_across_invocations(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["loadgen", *self.ARGS, "--json", str(a)]) == 0
        assert main(["loadgen", *self.ARGS, "--json", str(b)]) == 0
        ra = json.loads(a.read_text())
        rb = json.loads(b.read_text())
        assert ra["run_digest"] == rb["run_digest"]
        # Latencies may differ run to run; outcomes may not.
        assert ra["outcomes"] == rb["outcomes"]
        assert ra["degradation"] == rb["degradation"]
