#!/usr/bin/env python3
"""Self-check of the benchmark: its metric lists agree, and its
correctness gate rejects deliberately corrupted results.

    python3 perfbench/check_gate.py

Exits 0 when every corruption is caught and the lists agree.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import thomform  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_lists():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    expect(declared == [m[:3] for m in metrics.PER_LAYER],
           "BENCHMARK.json per_layer matches metrics.PER_LAYER")
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    expect(declared == list(metrics.END_TO_END),
           "BENCHMARK.json end_to_end matches metrics.END_TO_END")
    interactions = json.loads((HERE / "interactions.json").read_text())
    names = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    expect(list(interactions) == [m[0] for m in metrics.PER_LAYER]
           and all(set(e["on"]) <= names and set(e["moves"]) <= e2e
                   for e in interactions.values()),
           "interactions.json maps every per-layer metric to known workloads and metrics")
    expect(tuple(metrics.CHECK_IDS) == tuple(thomform.CHECK_IDS),
           "metrics.CHECK_IDS matches thomform.CHECK_IDS")


def check_checks_gate():
    inputs = {"calls": [("theorem", 1, 2), ("theorem", 1, 1), ("berezin_combinatorial", 1, 3)]}
    results = workloads.run_body("cap-8", inputs)
    expect(workloads.gate_checks("cap-8", inputs, results) == [], "clean check results pass")

    flipped = copy.deepcopy(results)
    flipped[0].sign_sigma = -flipped[0].sign_sigma
    expect(len(workloads.gate_checks("cap-8", inputs, flipped)) == 1,
           "a flipped theorem sign is caught")
    flipped = copy.deepcopy(results)
    flipped[2].sign_sigma = -flipped[2].sign_sigma
    expect(len(workloads.gate_checks("cap-8", inputs, flipped)) == 1,
           "a flipped Berezin sign is caught")
    failed = copy.deepcopy(results)
    failed[1].status = "fail"
    expect(len(workloads.gate_checks("cap-8", inputs, failed)) == 1, "a failed verdict is caught")
    expect(workloads.gate_checks("cap-8", inputs, results[:2]) != [], "a missing result is caught")
    raised = workloads.gate_checks("cap-8", inputs, RuntimeError("boom"))
    expect(len(raised) == 3, "a raising body fails every check")

    checks = thomform.checks
    saved = checks.SIGMA_ODD
    checks.SIGMA_ODD = -saved
    try:
        expect(workloads.gate_ledger() != [], "a flipped library ledger constant is caught")
    finally:
        checks.SIGMA_ODD = saved
    expect(workloads.gate_ledger() == [], "the library ledger matches the recorded one")


def check_digest_gate():
    forms = {(3, 4): {"km": thomform.km_form_at_e(thomform.SignatureCtx(3, 4))}}
    expect(workloads.gate_digests(forms) == [], "the (3,4) Howe-operator form matches its digest")
    form = forms[(3, 4)]["km"]
    key = sorted(form.terms)[0]
    form.terms[key] = form.terms[key] * thomform.Scalar.rational(2)
    expect(len(workloads.gate_digests(forms)) == 1, "a changed form fails its digest")


def check_theta_gate():
    inputs = workloads.build_inputs("theta", seed=1)
    inputs["bound"] = 4.0  # smaller than the workload's, to keep this quick
    output = workloads.run_body("theta", inputs)
    problems, evaluations = workloads.gate_theta(inputs, output, count_vectors=True)
    expect(problems == [] and evaluations > 0, "clean theta sums pass")

    dl, sums, tail = output[0]
    key = sorted(sums)[3]
    perturbed = dict(sums)
    perturbed[key] += 1e-8
    bad = [(dl, perturbed, tail)] + output[1:]
    problems, _ = workloads.gate_theta(inputs, bad, count_vectors=False)
    expect(len(problems) == 1, "a theta sum perturbed by 1e-8 is caught")
    bad = [(dl, sums, float("inf"))] + output[1:]
    problems, _ = workloads.gate_theta(inputs, bad, count_vectors=False)
    expect(len(problems) == 1, "an infinite tail bound is caught")
    problems, _ = workloads.gate_theta(inputs, ValueError("boom"), count_vectors=False)
    expect(len(problems) == workloads.attempted("theta", inputs), "a raising theta call fails every sum")


def main() -> int:
    check_lists()
    check_checks_gate()
    check_digest_gate()
    check_theta_gate()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
