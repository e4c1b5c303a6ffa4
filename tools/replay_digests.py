#!/usr/bin/env python3
"""Replay digests: run CI's replay recipes and print their digests.

The recipes are the ones ``.github/workflows/ci.yml`` replays twice and
compares: the quick and ``--full`` scenario matrices, the repair matrix,
the seek exhibit, the loadgen at R=1 and the durability contrast. Each
runs ``python -m repro`` on the ``src/`` of the tree this script sits
in, from a temporary directory, with no ``REPRO_*`` variable but the
recipe's own. No digest read here holds a wall-clock field, so equal
code prints equal digests on any host.

Usage::

    python tools/replay_digests.py               # digests as one JSON object
    python tools/replay_digests.py --base REV    # and compare with REV

``--base`` also runs the recipes on a ``git archive`` of ``REV`` in a
temporary directory, prints both trees' digests and the names that
differ, and exits 1 if any does. For each recipe that differs it also
prints why (:func:`report_diff`): the report's top-level keys that
differ and, for a matrix report, the cells present on one side only and
the fields that differ in each cell present on both.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: name -> (``repro`` arguments, extra environment, digest keys).
RECIPES: Dict[str, Tuple[List[str], Dict[str, str], Tuple[str, ...]]] = {
    "scenarios": (["scenarios", "--seed", "2017"], {},
                  ("matrix_digest", "journal_digest")),
    "scenarios_full": (["scenarios", "--full", "--seed", "2017"], {},
                       ("matrix_digest", "journal_digest")),
    "repair": (["repair", "--seed", "2017"], {}, ("matrix_digest",)),
    "seek": (["seek", "--frames", "16", "--gop-sizes", "4", "8",
              "--crfs", "30", "--ages", "0", "3650", "--seeks", "10",
              "--seed", "17"], {}, ("sweep_digest",)),
    "loadgen": (["loadgen", "--clients", "4", "--ops", "12", "--seed", "0",
                 "--read-retries", "0"], {"REPRO_SERVICE_REPLICAS": "1"},
                ("run_digest",)),
    "contrast": (["loadgen", "--durability-contrast", "--seed", "0"], {},
                 ("contrast_digest",)),
}


#: Fields of a matrix cell that hold its verdict; the others are axes.
VERDICT_FIELDS = frozenset({"passed", "invariants", "flags",
                            "schedule_digest", "chaos_events", "details"})


def run_recipes(tree: Path) -> Dict[str, dict]:
    """Every recipe's JSON report, run on ``tree``'s ``src/``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(tree / "src")
    reports: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, (args, extra, _keys) in RECIPES.items():
            report = Path(scratch, f"{name}.json")
            subprocess.run(
                [sys.executable, "-m", "repro", *args, "--json",
                 str(report)],
                cwd=scratch, env={**env, **extra}, check=True,
                stdout=subprocess.DEVNULL)
            reports[name] = json.loads(report.read_text())
    return reports


def digests_of(reports: Dict[str, dict]) -> Dict[str, Dict[str, str]]:
    """Each recipe's digest keys, read from its report."""
    return {name: {key: reports[name].get(key) for key in RECIPES[name][2]}
            for name in reports}


def _differing(ours: dict, theirs: dict) -> List[str]:
    """Keys present on one side only or holding unequal values."""
    return sorted(key for key in ours.keys() | theirs.keys()
                  if key not in ours or key not in theirs
                  or ours[key] != theirs[key])


def _cells(report: dict) -> Dict[str, dict]:
    """A matrix report's cells, each named by its axes."""
    return {"/".join(f"{key}={cell[key]}" for key in sorted(cell)
                     if key not in VERDICT_FIELDS): cell
            for cell in report.get("cells", ())}


def _cell_fields(ours: dict, theirs: dict) -> Iterable[str]:
    """Names of one cell's differing fields; a dict field names its keys."""
    for key in _differing(ours, theirs):
        if isinstance(ours.get(key), dict) and isinstance(theirs.get(key),
                                                          dict):
            yield from (f"{key}.{sub}"
                        for sub in _differing(ours[key], theirs[key]))
        else:
            yield key


def report_diff(ours: dict, theirs: dict) -> dict:
    """Why two reports of one recipe differ.

    ``keys`` lists the top-level keys that differ. A matrix report (one
    with ``cells``) also gets the cells present only in ``ours`` or only
    in ``theirs`` and, for each cell on both sides whose fields differ,
    the names of those fields.
    """
    diff: dict = {"keys": _differing(ours, theirs)}
    if "cells" in ours or "cells" in theirs:
        mine, other = _cells(ours), _cells(theirs)
        diff["only_in_tree"] = [name for name in mine if name not in other]
        diff["only_in_base"] = [name for name in other if name not in mine]
        diff["cells"] = {name: fields for name, cell in mine.items()
                         if name in other
                         and (fields := list(_cell_fields(cell,
                                                          other[name])))}
    return diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV",
                        help="also run on a git archive of REV and exit 1 "
                             "if any digest differs")
    options = parser.parse_args(argv)
    reports = run_recipes(ROOT)
    digests = digests_of(reports)
    if options.base is None:
        print(json.dumps(digests, indent=2, sort_keys=True))
        return 0
    with tempfile.TemporaryDirectory() as base:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", options.base],
            check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        base_reports = run_recipes(Path(base))
    base_digests = digests_of(base_reports)
    differs = sorted(name for name in RECIPES
                     if digests[name] != base_digests[name])
    why = {name: report_diff(reports[name], base_reports[name])
           for name in differs}
    print(json.dumps({"tree": digests, "base": base_digests,
                      "base_rev": options.base, "differs": differs,
                      "why": why}, indent=2, sort_keys=True))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
