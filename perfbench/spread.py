#!/usr/bin/env python3
"""Run the benchmark over several seeds and report, per end-to-end metric,
the median and the quartile spread (Q3 - Q1) / median of the run values,
quartiles as ``statistics.quantiles(values, n=4)`` gives them.

    python3 perfbench/spread.py theta 1-10
    python3 perfbench/spread.py cap-8 3,5,8 --seconds 30

Runs are sequential; each is the command in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("seeds", type=seeds, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in args.seeds:
        begin = time.monotonic()
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: failed\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        row = "  ".join(f"{name} {vals[-1]:.5g}" for name, vals in values.items())
        print(f"seed {seed:3d}  {time.monotonic() - begin:5.1f} s  {row}", flush=True)

    if len(args.seeds) < 2:
        return 0
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{name:12s} median {med:.5g}  spread {(q3 - q1) / med:.4f}  "
              f"bound {bounds[name]}  min {min(vals):.5g}  max {max(vals):.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
