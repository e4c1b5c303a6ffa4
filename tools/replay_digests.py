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
differ, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

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


def run_recipes(tree: Path) -> Dict[str, Dict[str, str]]:
    """Every recipe's digests, run on ``tree``'s ``src/``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(tree / "src")
    digests: Dict[str, Dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, (args, extra, keys) in RECIPES.items():
            report = Path(scratch, f"{name}.json")
            subprocess.run(
                [sys.executable, "-m", "repro", *args, "--json",
                 str(report)],
                cwd=scratch, env={**env, **extra}, check=True,
                stdout=subprocess.DEVNULL)
            data = json.loads(report.read_text())
            digests[name] = {key: data.get(key) for key in keys}
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV",
                        help="also run on a git archive of REV and exit 1 "
                             "if any digest differs")
    options = parser.parse_args(argv)
    digests = run_recipes(ROOT)
    if options.base is None:
        print(json.dumps(digests, indent=2, sort_keys=True))
        return 0
    with tempfile.TemporaryDirectory() as base:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", options.base],
            check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        base_digests = run_recipes(Path(base))
    differs = sorted(name for name in RECIPES
                     if digests[name] != base_digests[name])
    print(json.dumps({"tree": digests, "base": base_digests,
                      "base_rev": options.base, "differs": differs},
                     indent=2, sort_keys=True))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
