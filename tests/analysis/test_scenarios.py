"""The scenario matrix: hostile content × injected fault, replayably.

A small single-content matrix must come back green (every invariant
held), reproduce its matrix digest bit-for-bit under the same seed, and
serialize losslessly to the JSON report CI consumes.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.scenarios import (
    ALL_CONTENTS,
    DEFAULT_FAULTS,
    QUICK_CONTENTS,
    build_content,
    run_repair_matrix,
    run_scenario_matrix,
)
from repro.errors import AnalysisError
from repro.runtime import ChaosPolicy, arm_chaos, disarm_chaos


@pytest.fixture(scope="module")
def small_matrix(tmp_path_factory):
    return run_scenario_matrix(
        contents=("scene_cut_storm",), seed=11, trials=3,
        journal_dir=tmp_path_factory.mktemp("journals"),
        model_checks=False)


class TestMatrix:
    def test_all_cells_green(self, small_matrix):
        assert small_matrix.passed
        assert ([c.axes["fault"] for c in small_matrix.cells]
                == list(DEFAULT_FAULTS))
        for cell in small_matrix.cells:
            assert cell.invariants, cell.axes
            assert all(cell.invariants.values()), (cell.axes,
                                                   cell.invariants)

    def test_fault_cells_record_their_schedule(self, small_matrix):
        by_fault = {c.axes["fault"]: c for c in small_matrix.cells}
        # The baseline cell runs disarmed; every chaos cell must have
        # fired at least one parent-side or declared fault.
        for fault in ("trial_error", "journal_torn"):
            assert by_fault[fault].chaos_events >= 1
        assert by_fault["none"].chaos_events == 0

    def test_same_seed_same_digest(self, small_matrix, tmp_path):
        again = run_scenario_matrix(
            contents=("scene_cut_storm",), seed=11, trials=3,
            journal_dir=tmp_path, model_checks=False)
        assert again.matrix_digest == small_matrix.matrix_digest
        assert again.journal_digest == small_matrix.journal_digest

    def test_json_report_round_trips(self, small_matrix):
        blob = json.dumps(small_matrix.to_dict(), sort_keys=True)
        loaded = json.loads(blob)
        assert loaded["passed"] is True
        assert loaded["matrix_digest"] == small_matrix.matrix_digest
        assert len(loaded["cells"]) == len(small_matrix.cells)
        assert loaded["cells"][0]["content"] == "scene_cut_storm"

    def test_report_shape(self, small_matrix):
        # CI's scenario-smoke job reads these keys from the JSON report.
        data = small_matrix.to_dict()
        assert set(data) == {"cells", "seed", "width", "height",
                             "num_frames", "trials", "journal_digest",
                             "passed", "matrix_digest"}
        for cell in data["cells"]:
            assert set(cell) == {"content", "fault", "passed",
                                 "invariants", "flags", "schedule_digest",
                                 "chaos_events", "details"}


class TestValidation:
    def test_contents_and_faults_checked(self):
        with pytest.raises(AnalysisError, match="unknown scenario"):
            run_scenario_matrix(contents=("mystery",))
        with pytest.raises(AnalysisError, match="unknown fault"):
            run_scenario_matrix(contents=("friendly",),
                                faults=("meteor_strike",))
        with pytest.raises(AnalysisError, match="trials"):
            run_scenario_matrix(contents=("friendly",), trials=2)

    def test_refuses_ambient_chaos(self):
        arm_chaos(ChaosPolicy(fail_trials=(0,)))
        try:
            with pytest.raises(AnalysisError, match="disarm"):
                run_scenario_matrix(contents=("friendly",))
        finally:
            disarm_chaos()

    def test_content_catalog(self):
        assert set(QUICK_CONTENTS) <= set(ALL_CONTENTS)
        assert "friendly" in QUICK_CONTENTS
        video = build_content("friendly", 64, 48, 4, seed=0)
        assert video.to_array().shape == (4, 48, 64)
        hostile = build_content("flicker", 64, 48, 4, seed=0)
        assert hostile.to_array().shape == (4, 48, 64)


@pytest.fixture(scope="module")
def storm_matrix():
    return run_repair_matrix(faults=("single_shard_storm",), seed=11,
                             objects=2, reads=2)


class TestRepairMatrix:
    def test_storm_column_green(self, storm_matrix):
        assert storm_matrix.passed
        assert len(storm_matrix.cells) == 4  # R x repair axes
        for cell in storm_matrix.cells:
            assert cell.invariants["no_silent_miscorrection"], cell
            assert cell.chaos_events >= 1
        by_axes = {(c.axes["replicas"], c.axes["repair"]): c
                   for c in storm_matrix.cells}
        assert by_axes[(2, False)].invariants["zero_refusals"]
        assert by_axes[(2, True)].invariants["repair_converges"]
        assert by_axes[(2, True)].invariants["victim_drained"]
        assert by_axes[(2, True)].invariants["post_repair_clean"]

    def test_same_seed_same_digest(self, storm_matrix):
        again = run_repair_matrix(faults=("single_shard_storm",),
                                  seed=11, objects=2, reads=2)
        assert again.matrix_digest == storm_matrix.matrix_digest

    def test_frozen_digest(self, storm_matrix):
        # The report holds only integers, booleans and strings, so the
        # digest is seeded and platform-stable. Refresh this literal
        # only together with the named change that moves it.
        assert storm_matrix.matrix_digest == (
            "5e52c42f4e6d572e5db99841c14fa4a3")

    def test_json_report_round_trips(self, storm_matrix):
        blob = json.dumps(storm_matrix.to_dict(), sort_keys=True)
        loaded = json.loads(blob)
        assert loaded["passed"] is True
        assert loaded["matrix_digest"] == storm_matrix.matrix_digest
        assert len(loaded["cells"]) == 4

    def test_report_shape(self, storm_matrix):
        # CI's repair-smoke job reads these keys from the JSON report.
        data = storm_matrix.to_dict()
        assert set(data) == {"cells", "seed", "width", "height",
                             "num_frames", "objects", "reads", "passed",
                             "matrix_digest"}
        for cell in data["cells"]:
            assert set(cell) == {"fault", "replicas", "repair", "passed",
                                 "invariants", "flags", "schedule_digest",
                                 "chaos_events", "details"}

    def test_unknown_fault_rejected(self):
        with pytest.raises(AnalysisError, match="unknown repair fault"):
            run_repair_matrix(faults=("meteor_strike",))
        with pytest.raises(AnalysisError, match="replicas axis"):
            run_repair_matrix(replicas_axis=(0,))

    def test_refuses_ambient_chaos(self):
        arm_chaos(ChaosPolicy(fail_trials=(0,)))
        try:
            with pytest.raises(AnalysisError, match="disarm"):
                run_repair_matrix()
        finally:
            disarm_chaos()
