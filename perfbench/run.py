#!/usr/bin/env python3
"""thomform benchmark: exact-suite breadth, size-cap depth and theta throughput.

    python3 perfbench/run.py --workload suite-7 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. Each repetition runs in a fresh interpreter, one at a time, so no
repetition can reuse library state left by another. Repetitions continue
until ``--seconds`` of workload time is measured, with at least three; then
set-up-only interpreters run until nine set-ups are measured. Times are
reported at a reference machine speed (see ``speed.py``).

``--trace 0`` prints the end-to-end metrics (medians over repetitions).
``--trace 1`` runs the workload once untraced and twice under the span
tracer, prints the per-layer metrics, and fails if any exact count differs
between the two traced runs. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A full record, with provenance, is written to
``perfbench/out/``. The exit status is 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

WORKLOADS = ("suite-7", "cap-8", "theta")
MIN_REPS = 3
# Set-ups measured per run, counting those of the repetitions; set-up is
# short, so its median needs more of them.
MIN_SETUPS = 9
# Every run must end within 180 s; stop starting children after this.
BUDGET_S = 165.0
# Headroom over the longest child so far before starting another one.
HEADROOM = 1.3


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts one child interpreter at a time and keeps the run on budget."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.deadline = time.monotonic() + BUDGET_S
        self.longest = 0.0

    def fits(self) -> bool:
        return time.monotonic() + HEADROOM * self.longest < self.deadline

    def child(self, mode: str, full_gate: bool = False, spans_path: str | None = None) -> dict:
        job = {"workload": self.workload, "seed": self.seed, "mode": mode,
               "full_gate": full_gate, "spans_path": spans_path}
        timeout = self.deadline + (180.0 - BUDGET_S) / 2 - time.monotonic()
        job["t0"] = begin = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(job)],
                capture_output=True, text=True, timeout=timeout, env=self.env, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded the time budget")
        self.longest = max(self.longest, time.monotonic() - begin)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise BenchError(f"{mode} child exited with {proc.returncode}:\n{tail}")
        return json.loads(lines[-1])


def timed_run(runner: Runner, seconds: float) -> dict:
    reps = []
    while len(reps) < MIN_REPS or sum(r["wall_s"] for r in reps) < seconds:
        if reps and not runner.fits():
            break
        reps.append(runner.child("run", full_gate=not reps))
    setups = [(r["setup_s"], r["setup_speed"]) for r in reps]
    while len(setups) < MIN_SETUPS and runner.fits():
        r = runner.child("setup")
        setups.append((r["setup_s"], r["setup_speed"]))
    # Times at reference speed: each repetition's timings scaled by the
    # machine speed sampled during it (see speed.py).
    values = {
        "ref_wall_s": median([r["wall_s"] * r["speed"] for r in reps]),
        "setup_s": median([t * v for t, v in setups]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "ref_evals_per_s": median([r["evaluations"] / (r["wall_s"] * r["speed"]) for r in reps]),
    }
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in metrics.END_TO_END},
        "measured": {
            "wall_s": median([r["wall_s"] for r in reps]),
            "setup_s": median([t for t, _ in setups]),
            "speed": median([r["speed"] for r in reps]),
            "setups": len(setups),
        },
        "reps": reps,
        "problems": [p for r in reps for p in r["problems"]],
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
    }


def traced_run(runner: Runner) -> dict:
    OUT.mkdir(exist_ok=True)
    plain = runner.child("run")
    spans_path = str(OUT / f"spans-{runner.workload}.npz")
    traced = [runner.child("trace", full_gate=True, spans_path=spans_path),
              runner.child("trace", full_gate=True)]
    per_rep = [metrics.layer_metrics(r["trace"], r["wall_s"], plain["wall_s"]) for r in traced]
    problems = [p for r in [plain] + traced for p in r["problems"]]
    mismatched = [name for name in metrics.EXACT if per_rep[0][name] != per_rep[1][name]]
    problems += [f"{name} differs between traced runs: {per_rep[0][name]} vs {per_rep[1][name]}"
                 for name in mismatched]
    for r in traced:
        spans = r["trace"]["spans"]
        accounted = sum(s["self_s"] for s in spans.values())
        root = spans["bench.body"]["total_s"]
        if abs(accounted - root) > 1e-6 * root:
            problems.append(f"span self times {accounted} do not add up to the body {root}")
    values = {name: per_rep[0][name] if exact else median([m[name] for m in per_rep])
              for name, _, _, exact in metrics.PER_LAYER}
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _, _ in metrics.PER_LAYER},
        "reps": [plain] + traced,
        "problems": problems,
        "attempted": sum(r["attempted"] for r in [plain] + traced),
        "failed": sum(r["failed"] for r in [plain] + traced) + len(mismatched),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "thomform").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, result) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result["reps"][0]["versions"],
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "repetitions": len(result["reps"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "thomform" / "__init__.py").is_file():
        print(f"no thomform sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args.workload, args.seed)
    try:
        result = traced_run(runner) if args.trace else timed_run(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    record = {"provenance": provenance(args, result), **result}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result["problems"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(result['reps'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':44s} {failed / attempted:>16.6g} 1")
    for name, value in result.get("measured", {}).items():
        print(f"  {'measured ' + name:44s} {value:>16.6g}")
    for problem in list(dict.fromkeys(result["problems"]))[:20]:
        print(f"  problem: {problem}")
    print(f"provenance {json.dumps(record['provenance'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
