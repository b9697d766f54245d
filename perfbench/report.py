#!/usr/bin/env python3
"""Run every workload once and print its metrics as one table.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 0] [--seconds 15] [--trace]

Each workload runs in its own ``perfbench/run.py`` process.  Without
``--trace`` the table holds the end-to-end metrics; with it, the per-layer
metrics of the traced run and the end-to-end metric each should move.
The digest line of every run names its chains' proposal, applied and
accepted counts and a hash of their final maps.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    return digest, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    results = {}
    for name in names:
        digest, results[name] = run(name, args.seed, args.seconds,
                                    int(args.trace))
        res = results[name]
        print(f"{digest}  correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}")
    if args.trace:
        sys.path.insert(0, str(HERE.parent / "src"))
        from layers import MOVES
        rows = [(m["name"], m["unit"], MOVES[m["name"]])
                for m in SPEC["per_layer"]]
    else:
        rows = [(m["name"], m["unit"], "") for m in SPEC["end_to_end"]]
    print(f"{'metric':<40} {'unit':<14}"
          + "".join(f"{n:>20}" for n in names))
    for metric, unit, moves in rows:
        vals = "".join(f"{results[n]['metrics'][metric]['value']:>20.6g}"
                       for n in names)
        print(f"{metric:<40} {unit:<14}{vals}" + (f"  -> {moves}" if moves else ""))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
