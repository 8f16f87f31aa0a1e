"""One repetition of a workload, in a fresh interpreter.

Started by ``run.py`` with one JSON argument:
``{"workload", "seed", "mode", "t0", "full_gate", "spans_path"}``. ``mode``
is ``run`` (time the workload body), ``trace`` (time it under the span
tracer) or ``setup`` (time the set-up only). ``t0`` is the parent's
``time.monotonic()`` just before starting this process, so ``setup_s``
runs from interpreter start to ready. Prints one JSON report as its last
line of standard output.

In ``run`` and ``setup`` mode a ``speed.Sampler`` runs from the start of
this script to the end of the body; its time is taken out of ``setup_s``
and ``wall_s``. ``setup_speed`` is the machine's mean speed over the
set-up and a burst of kernels right after it, ``speed`` its mean speed over
the body. ``setup`` mode stops after the set-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_PROBLEMS = 20
# Kernels timed right after the set-up, which holds only a few samples.
SETUP_BURST = 40


def main() -> int:
    job = json.loads(sys.argv[1])
    sampler = None
    if job["mode"] in ("run", "setup"):
        import speed

        sampler = speed.Sampler()
        sampler.start()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import scipy.integrate  # noqa: F401  (check_delta_limit imports it lazily)

    import thomform

    if Path(thomform.__file__).resolve().parent != SRC / "thomform":
        print(f"thomform imported from {thomform.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = job["workload"]
    inputs = workloads.build_inputs(workload, job["seed"])
    report = {
        "setup_s": time.monotonic() - job["t0"] - (sampler.spent if sampler else 0.0),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if sampler is not None:
        sampler.burst(SETUP_BURST)
        report["setup_speed"] = sampler.speed()
        if job["mode"] == "setup":
            sampler.stop()
            print(json.dumps(report))
            return 0
        body_first, body_spent = len(sampler.samples), sampler.spent
    tracer = None
    body = workloads.run_body
    if job["mode"] == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
        body = tracer.root(body)
    start = time.perf_counter()
    try:
        output = body(workload, inputs)
    except Exception as exc:  # counted as failed operations by the gate
        traceback.print_exc()
        output = exc
    report["wall_s"] = time.perf_counter() - start
    if sampler is not None:
        sampler.stop()
        report["wall_s"] -= sampler.spent - body_spent
        report["speed"] = sampler.speed(body_first)
        report["speed_samples"] = len(sampler.samples) - body_first
    if tracer is not None:
        tracer.uninstall()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = workloads.attempted(workload, inputs)
    if workload == "theta":
        problems, evaluations = workloads.gate_theta(inputs, output, job["full_gate"])
    else:
        problems = workloads.gate_checks(workload, inputs, output) + workloads.gate_ledger()
        evaluations = attempted
    forms = workloads.build_forms(workload) if job["full_gate"] else {}
    problems += workloads.gate_digests(forms)
    report.update(
        attempted=attempted,
        failed=min(len(problems), attempted),
        problems=problems[:MAX_PROBLEMS],
        evaluations=evaluations,
    )
    if tracer is not None:
        report["trace"] = tracer.summary()
        report["trace"]["sizes"] = workloads.form_sizes(forms)
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
