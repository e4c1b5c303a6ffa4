"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload seek --seed 3 --seconds 10 --trace 0

Run from the root of a checkout: the library is imported from its
``src/`` directory, never from an installed copy, and ``REPRO_*``
variables are cleared first so every knob takes its library default.
With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` an untraced run and a traced run of the same ops are
compared op by op, and the last line carries the per-layer ledger. The
full report, and with ``--trace 1`` the raw spans, are written under
``perfbench/out/``. If any output check fails the command prints the
failures to standard error, prints no result and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BENCHMARK = ROOT / "BENCHMARK.json"


def _load_library():
    """Import the checkout's library and the benchmark package."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library under {SRC}; run from the root "
                 f"of a checkout of the repository")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro
    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")
    from perfbench import workloads
    return workloads


def _metric_units(trace: bool) -> dict:
    spec = json.loads(BENCHMARK.read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "playback", "seek", "decay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    units = _metric_units(bool(args.trace))
    workloads = _load_library()
    import numpy

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        spans_path=str(OUT / f"{stem}-spans.jsonl") if args.trace else None)
    report["host"] = {"nproc": os.cpu_count(),
                      "python": platform.python_version(),
                      "numpy": numpy.__version__,
                      "platform": platform.platform()}
    source = report["layers"] if args.trace else report["metrics"]
    missing = sorted(set(units) - set(source))
    if missing:
        report["bad"].append(f"metrics not produced: {missing}")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1,
                                                 default=str))
    if report["bad"]:
        for line in report["bad"]:
            print(f"perfbench: output check failed: {line}",
                  file=sys.stderr)
        return 1

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"host={report['host']} config={report['config']}")
    print(f"# sizes={report['sizes']}")
    print(f"# notes={json.dumps(report['notes'], default=str)}")
    for name, value in sorted(report["named"].items()):
        print(f"{name:<48} {value:>14.4f} "
              f"{workloads.NAMED_UNITS.get(name, '')}")
    if args.trace:
        print(f"# absent={report['absent']}")
        for name, value in sorted(report["layers"].items()):
            print(f"{name:<48} {value:>14.4f} {units.get(name, '')}")
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
