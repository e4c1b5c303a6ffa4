"""Tests of the benchmark itself, at smoke length.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import ledger, workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]
SMOKE = workloads.SMOKE


def _measure(name: str, seed: int, budget):
    """One set-up plus a run of exactly ``budget`` units per client."""
    inputs = workloads.make_inputs(name, seed, SMOKE)

    async def main():
        world = await workloads.setup(name, seed, SMOKE, inputs)
        try:
            return await workloads.measure(name, seed, SMOKE, world,
                                           inputs, 0.0, budget=budget)
        finally:
            await world.frontend.stop()

    return asyncio.run(main())


@pytest.mark.parametrize("name,budget", [("seek", [3, 3]),
                                         ("decay", [1])])
def test_same_seed_reproduces_the_per_op_digest(name, budget):
    first = _measure(name, 7, budget)
    second = _measure(name, 7, budget)
    assert first.bad == [] and second.bad == []
    assert first.ops and first.digest == second.digest


def test_different_seed_generates_different_inputs():
    one = workloads.make_inputs("playback", 1, SMOKE)
    again = workloads.make_inputs("playback", 1, SMOKE)
    other = workloads.make_inputs("playback", 2, SMOKE)
    assert all(np.array_equal(a, b) for (_, a), (_, b)
               in zip(one.corpus, again.corpus))
    assert not any(np.array_equal(a, b) for (_, a), (_, b)
                   in zip(one.corpus, other.corpus))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_restores_every_name(name):
    report = workloads.run_workload(name, 3, 0.3, trace=True, scale=SMOKE)
    assert report["bad"] == []
    assert report["traced_digest"] == report["digest"]
    assert report["absent"] == []
    assert ledger.patched_names() == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {row["name"] for row in spec["per_layer"]} <= set(
        report["layers"])
    if name == "seek":
        # Clean bursts never escalate, however many GOPs they cross.
        assert report["layers"]["store.outcome.clean"] == 1.0
        assert report["layers"]["shards.replica_reads_per_stream"] == 1.0


def test_ingest_fails_when_it_runs_out_of_sessions():
    scale = workloads.Scale(ingest_sessions=1, setups=1)
    inputs = workloads.make_inputs("ingest", 5, scale)

    async def main():
        world = await workloads.setup("ingest", 5, scale, inputs)
        try:
            return await workloads.measure("ingest", 5, scale, world,
                                           inputs, 60.0)
        finally:
            await world.frontend.stop()

    run = asyncio.run(main())
    assert run.units == [1, 1]
    assert len(run.bad) == 1 and "sessions" in run.bad[0]


def test_untraced_run_reports_every_end_to_end_metric():
    report = workloads.run_workload("playback", 2, 0.3, trace=False,
                                    scale=SMOKE)
    assert report["bad"] == []
    assert len(report["notes"]["setups"]) == SMOKE.setups
    windows = report["notes"]["windows"]
    assert sum(took for took, _, _ in windows) >= 0.3
    assert all(before > 0 and after > 0 for _, before, after in windows)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(report["metrics"][row["name"]] > 0
               for row in spec["end_to_end"])


def test_layers_lead_where_the_workload_was_chosen_for_them():
    report = workloads.run_workload("playback", 4, 0.5, trace=True,
                                    scale=SMOKE)
    layers = report["layers"]
    busiest = max((k for k in layers if k.count(".") == 2
                   and k.endswith(".busy_ms")), key=layers.get)
    assert busiest == "codec.decode.busy_ms"
    assert layers["codec.decode.calls"] == pytest.approx(1.0)
    assert 0.5 < layers["trace.coverage"] <= 1.0


def test_a_missing_name_is_recorded_as_absent():
    gone = ledger.Wrap("codec", "vanished", "repro.service.store",
                       "no_such_function")
    moved = ledger.Wrap("codec", "moved", "repro.no_such_module", "f")
    patches, absent = ledger.install(ledger.Recorder(),
                                     (gone, moved) + ledger.WRAPS[:2])
    try:
        assert absent == ["repro.service.store.no_such_function",
                          "repro.no_such_module.f"]
        assert len(patches) == 2
    finally:
        ledger.restore(patches)
    assert ledger.patched_names() == []


def test_private_names_are_never_wrapped():
    private = ledger.Wrap("store", "read_streams", "repro.service.store",
                          "VideoObjectStore._read_streams")
    with pytest.raises(ValueError):
        ledger.install(ledger.Recorder(), (private,))
    assert ledger.patched_names() == []


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(100))
    value, percentile = workloads.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(90.0)


def test_tail_of_few_samples_is_the_maximum():
    # Ten samples beyond the tail of 15 would put it at p33, under p50.
    samples = [float(s) for s in range(15)]
    assert workloads.tail(samples) == (14.0, 100.0)
    value, percentile = workloads.tail(list(range(21)))
    assert (value, percentile) == (10, pytest.approx(100 * 11 / 21))
    assert percentile >= 50.0


def _span(index, name, parent, key=None):
    return ledger.Span(index=index, name=name, op=1, parent=parent,
                       thread=0, start=0.0, end=0.0, self_wall=0.0,
                       self_cpu=0.0, cpu=0.0,
                       extra={} if key is None else {"key": key})


def test_replica_reads_count_per_store_read_not_per_op():
    recorder = ledger.Recorder()
    # One seek burst (op 1) crossing a GOP boundary: two get_frame calls
    # each read stream "s" once from its primary.
    recorder.spans += [_span(1, "shards.read_range", 0, "s"),
                       _span(0, "store.get_frame", None),
                       _span(3, "shards.read_range", 2, "s"),
                       _span(2, "store.get_frame", None)]
    assert ledger.ledger(recorder, 1)[
        "shards.replica_reads_per_stream"] == 1.0
    # A whole read that escalates stream "t" to its second replica.
    recorder.spans += [_span(5, "shards.read", 4, "t"),
                       _span(6, "shards.read", 4, "t"),
                       _span(4, "store.get", None)]
    assert ledger.ledger(recorder, 2)[
        "shards.replica_reads_per_stream"] == pytest.approx(4 / 3)


def test_runner_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "playback",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
