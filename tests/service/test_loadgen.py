"""Tests for the deterministic load generator."""

import pytest

from repro.service import build_plan, run_loadgen

#: Small but real: 2 clients, 6 ops, one aged grid point.
QUICK = dict(clients=2, ops=6, seed=7, t_grid=(None, 100000.0),
             degradation_samples=1)


@pytest.fixture(scope="module")
def quick_report():
    return run_loadgen(**QUICK)


class TestPlan:
    def test_plan_is_deterministic(self):
        assert build_plan(3, 4, 20, 0.5) == build_plan(3, 4, 20, 0.5)
        assert build_plan(3, 4, 20, 0.5) != build_plan(4, 4, 20, 0.5)

    def test_first_op_is_an_ingest(self):
        for seed in range(5):
            assert build_plan(seed, 2, 10, 0.9)[0].kind == "ingest"

    def test_reads_target_earlier_ingests(self):
        plan = build_plan(1, 4, 40, 0.6)
        for op in plan:
            if op.kind == "read":
                target = plan[op.target]
                assert target.kind == "ingest"
                assert target.index < op.index
                assert target.tenant == op.tenant

    def test_ops_dealt_round_robin(self):
        plan = build_plan(0, 3, 9, 0.5)
        assert [op.client for op in plan] == [0, 1, 2] * 3


class TestRun:
    def test_digest_replays_bit_identically(self, quick_report):
        replay = run_loadgen(**QUICK)
        assert replay.run_digest == quick_report.run_digest
        assert replay.outcomes == quick_report.outcomes
        assert replay.degradation == quick_report.degradation

    def test_different_seed_different_digest(self, quick_report):
        other = run_loadgen(**{**QUICK, "seed": 8})
        assert other.run_digest != quick_report.run_digest

    def test_report_accounts_every_op(self, quick_report):
        assert (quick_report.ingest_count + quick_report.read_count
                == quick_report.ops)
        assert sum(quick_report.outcomes.values()) \
            == quick_report.read_count
        assert quick_report.ingest_clips_per_second > 0

    def test_degradation_never_silently_wrong(self, quick_report):
        """The acceptance invariant: at ages where the raw device read
        fails, service reads still succeed (possibly concealed) or
        refuse — no silent garbage."""
        assert quick_report.degradation
        aged = quick_report.degradation[-1]
        assert aged["t_days"] == 100000.0
        assert not aged["raw_ok"]  # the raw read really fails out here
        served = {outcome: count
                  for outcome, count in aged["outcomes"].items()}
        assert served
        assert set(served) <= {"clean", "corrected", "concealed",
                               "refused"}
        # At least one read per grid point actually returned frames.
        successes = sum(count for outcome, count in served.items()
                        if outcome != "refused")
        assert successes > 0
        # The loadgen grades served frames against its source clips.
        for point in quick_report.degradation:
            if any(outcome != "refused" for outcome in point["outcomes"]):
                assert isinstance(point["psnr_db"], float), point

    def test_to_dict_is_json_shaped(self, quick_report):
        import json

        data = quick_report.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["run_digest"] == quick_report.run_digest
