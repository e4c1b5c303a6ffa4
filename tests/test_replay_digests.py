"""``tools/replay_digests.py`` says why a recipe's digest moved.

The diff runs on two hand-built reports shaped like the CLI's JSON:
the top-level keys that differ, the matrix cells present on one side
only (named by their axes), and the fields that differ in each cell
present on both.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "replay_digests", REPO / "tools" / "replay_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cell(content, fault, **fields):
    return {"content": content, "fault": fault, "passed": True,
            "invariants": {"campaign_completes": True}, "flags": [],
            "schedule_digest": "aaaa", "chaos_events": 0,
            "details": {"values": [1.0, 2.0]}, **fields}


def test_matrix_diff_names_cells_and_fields(tool):
    base = {"seed": 7, "width": 64, "passed": True, "matrix_digest": "old",
            "journal_digest": "same",
            "cells": [_cell("friendly", "none"),
                      _cell("friendly", "device_overrate",
                            flags=["no-device-fault-fired"],
                            details={"values": [1.0, 2.0],
                                     "device_events": 0}),
                      _cell("friendly", "trial_error"),
                      _cell("friendly", "retired")]}
    tree = {"seed": 7, "width": 64, "passed": True, "matrix_digest": "new",
            "journal_digest": "same",
            "cells": [_cell("friendly", "none"),
                      _cell("friendly", "device_overrate",
                            invariants={"campaign_completes": True,
                                        "fault_fired": True},
                            details={"values": [1.0, 2.0],
                                     "device_events": 5}),
                      _cell("friendly", "trial_error",
                            schedule_digest="bbbb")]}
    assert tool.report_diff(tree, base) == {
        "keys": ["cells", "matrix_digest"],
        "only_in_tree": [],
        "only_in_base": ["content=friendly/fault=retired"],
        "cells": {
            "content=friendly/fault=device_overrate": [
                "details.device_events", "flags", "invariants.fault_fired"],
            "content=friendly/fault=trial_error": ["schedule_digest"],
        },
    }


def test_repair_axes_name_the_cell(tool):
    cell = {"fault": "correlated_burst", "replicas": 2, "repair": True,
            "passed": True, "invariants": {}, "flags": [],
            "schedule_digest": "aaaa", "chaos_events": 1, "details": {}}
    base = {"cells": [cell], "matrix_digest": "x"}
    tree = {"cells": [{**cell, "replicas": 1}], "matrix_digest": "y"}
    diff = tool.report_diff(tree, base)
    assert diff["only_in_tree"] == [
        "fault=correlated_burst/repair=True/replicas=1"]
    assert diff["only_in_base"] == [
        "fault=correlated_burst/repair=True/replicas=2"]
    assert diff["cells"] == {}


def test_plain_report_lists_keys_only(tool):
    base = {"sweep_digest": "a", "rows": [1, 2], "seed": 17}
    tree = {"sweep_digest": "b", "rows": [1, 3], "seed": 17, "extra": 0}
    assert tool.report_diff(tree, base) == {
        "keys": ["extra", "rows", "sweep_digest"]}


def test_digests_read_each_recipes_keys(tool):
    reports = {"repair": {"matrix_digest": "m", "cells": []},
               "seek": {"sweep_digest": "s", "rows": []}}
    assert tool.digests_of(reports) == {"repair": {"matrix_digest": "m"},
                                        "seek": {"sweep_digest": "s"}}
