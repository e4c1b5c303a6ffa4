"""Progress reporter: resolution, rendering, and fault visibility."""

from __future__ import annotations

import io

import pytest

from repro.errors import AnalysisError
from repro.obs.progress import ProgressReporter, format_eta
from repro.settings import resolve

PROGRESS_ENV = "REPRO_PROGRESS"


class TestResolveProgress:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(PROGRESS_ENV, "1")
        assert resolve(PROGRESS_ENV, False) is False
        monkeypatch.setenv(PROGRESS_ENV, "0")
        assert resolve(PROGRESS_ENV, True) is True

    def test_unset_env_means_off(self, monkeypatch):
        monkeypatch.delenv(PROGRESS_ENV, raising=False)
        assert resolve(PROGRESS_ENV) is False

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", "", "  "])
    def test_falsy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(PROGRESS_ENV, value)
        assert resolve(PROGRESS_ENV) is False

    @pytest.mark.parametrize("value", ["1", "true", "yes", "anything"])
    def test_truthy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(PROGRESS_ENV, value)
        assert resolve(PROGRESS_ENV) is True


class TestFormatEta:
    def test_seconds(self):
        assert format_eta(5) == "0:05"

    def test_minutes(self):
        assert format_eta(125) == "2:05"

    def test_hours(self):
        assert format_eta(3725) == "1:02:05"

    def test_negative_clamped(self):
        assert format_eta(-3) == "0:00"


def _reporter(total=10, **kwargs):
    stream = io.StringIO()
    kwargs.setdefault("min_interval", 0.0)
    return ProgressReporter(total, stream=stream, **kwargs), stream


class TestProgressReporter:
    def test_negative_total_rejected(self):
        with pytest.raises(AnalysisError):
            ProgressReporter(-1, stream=io.StringIO())

    def test_counts_and_final_line(self):
        reporter, stream = _reporter(total=3)
        reporter.begin()
        for _ in range(3):
            reporter.trial_finished(True)
        reporter.finish()
        output = stream.getvalue()
        assert "3/3 trials" in output
        assert "(100%)" in output
        assert output.endswith("\n")

    def test_failures_always_visible(self):
        # A failure repaints even under an aggressive throttle.
        stream = io.StringIO()
        reporter = ProgressReporter(10, stream=stream, min_interval=3600)
        reporter.begin()
        reporter.trial_finished(False, label="sweep rate 1e-03")
        assert "1 failed" in stream.getvalue()
        assert "sweep rate 1e-03" in stream.getvalue()

    def test_retry_and_pool_restart_rendered(self):
        reporter, stream = _reporter()
        reporter.begin()
        reporter.note_retry(2)
        reporter.note_pool_restart()
        output = stream.getvalue()
        assert "2 retried" in output
        assert "1 pool restarts" in output

    def test_resumed_counts_as_completed(self):
        reporter, stream = _reporter(total=10)
        reporter.begin(resumed=4)
        assert "4/10 trials" in stream.getvalue()
        assert "4 resumed" in stream.getvalue()

    def test_throttle_suppresses_clean_repaints(self):
        stream = io.StringIO()
        reporter = ProgressReporter(100, stream=stream, min_interval=3600)
        reporter.begin()
        painted = stream.getvalue()
        for _ in range(50):
            reporter.trial_finished(True)
        assert stream.getvalue() == painted  # nothing clean repainted

    def test_finish_idempotent(self):
        reporter, stream = _reporter(total=1)
        reporter.begin()
        reporter.trial_finished(True)
        reporter.finish()
        once = stream.getvalue()
        reporter.finish()
        assert stream.getvalue() == once

    def test_repaint_pads_over_previous_longer_line(self):
        reporter, stream = _reporter(total=10)
        reporter.begin()
        reporter.trial_finished(False, label="a very long trial label")
        reporter.trial_finished(False, label="x")
        paints = stream.getvalue().split("\r")
        # the short repaint is space-padded to blank the longer one out
        assert len(paints[-1]) >= len(paints[-2])
