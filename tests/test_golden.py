"""Byte-identical output: SHA-256 digests of canonical text and JSON.

`golden_digests.json` holds the digests of the forms, fiber results and
suite verdicts below. A change to the exact kernel that alters any printed
coefficient, term order, verdict, witness or recorded sign changes a digest.
To record the file afresh, write `json.dumps(digests(), indent=1,
sort_keys=True)` to it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from thomform.checks import run_all
from thomform.km import km_form_at_e
from thomform.liealg import SignatureCtx
from thomform.mq import (
    fiber_integrate,
    fiber_transgression,
    fiber_umq,
    mq_phi0_at_e,
    mq_phi_at_e,
)

GOLDEN = Path(__file__).with_name("golden_digests.json")
BUILDERS = {"km": km_form_at_e, "mq0": mq_phi0_at_e, "mq": mq_phi_at_e}
SIGNATURES = [(p, q) for p in range(1, 6) for q in range(1, 7 - p)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _form_digests(name: str, form) -> dict[str, str]:
    return {
        f"{name}.str": _sha(str(form)),
        f"{name}.json": _sha(json.dumps(form.to_json(), sort_keys=True)),
    }


def signature_digests() -> dict[str, str]:
    out = {}
    for p, q in SIGNATURES:
        for kind, build in BUILDERS.items():
            out.update(_form_digests(f"{kind}.p{p}q{q}", build(SignatureCtx(p, q))))
    return out


def fiber_digests() -> dict[str, str]:
    out = {}
    for q in range(1, 6):
        umq = fiber_umq(q)
        out.update(_form_digests(f"umq.q{q}", umq))
        out.update(_form_digests(f"psi.q{q}", fiber_transgression(q)))
        out[f"integrate.q{q}"] = _sha(str(fiber_integrate(umq)))
    return out


def suite_digest() -> dict[str, str]:
    results = []
    for res in run_all(5):
        data = res.to_json()
        del data["elapsed_ms"]
        results.append(data)
    return {"run_all.5": _sha(json.dumps(results, sort_keys=True))}


def digests() -> dict[str, str]:
    return {**signature_digests(), **fiber_digests(), **suite_digest()}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "compute", [signature_digests, fiber_digests, suite_digest], ids=lambda f: f.__name__
)
def test_digests_match(golden, compute):
    got = compute()
    assert got and set(got) <= set(golden)
    changed = sorted(k for k, v in got.items() if golden[k] != v)
    assert not changed, f"output changed for {changed}"


def test_golden_covers_everything(golden):
    assert len(SIGNATURES) == 15
    expected = {"run_all.5"}
    for p, q in SIGNATURES:
        expected |= {f"{kind}.p{p}q{q}.{fmt}" for kind in BUILDERS for fmt in ("str", "json")}
    for q in range(1, 6):
        expected |= {f"{kind}.q{q}.{fmt}" for kind in ("umq", "psi") for fmt in ("str", "json")}
        expected.add(f"integrate.q{q}")
    assert set(golden) == expected
