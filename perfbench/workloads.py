"""Workload inputs, bodies and correctness gates.

Bodies call only the public API through the ``thomform`` package namespace
(``run_all``, ``run_check``, ``diagonalize_gram``, ``theta_partial_sum``),
looked up at call time so that a traced run sees the wrapped functions.
Gates run after the timed region and count every operation that failed,
raised or gave a wrong result.
"""

from __future__ import annotations

import cmath
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import thomform

HERE = Path(__file__).resolve().parent

SIGNATURE_CHECKS = (
    "theorem", "km_closed_form", "curvature", "berezin_combinatorial",
    "hermite_lemma", "closedness", "k_invariance",
)
CAP_SIGNATURES = ((4, 4), (2, 6))
SUITE_MAX_PQ = 7
SUITE_CHECKS = 174
THETA_BOUND = 10.0
THETA_TOL = 1e-10

# The global-sign ledger, recorded here independently of the library's own
# constants so that a change flipping both a constant and a computed sign
# is still caught.
LEDGER_SIGMA_EVEN = 1
LEDGER_SIGMA_ODD = -1
LEDGER_EPSILON_TRANSGRESSION = 1


def ledger_berezin_sign(q: int) -> int:
    return -1 if (q * (q - 1) // 2) % 2 else 1


def expected_sign(check_id: str, params: dict):
    """The ledger sign a check must record, or None if it records none."""
    if check_id == "theorem":
        return LEDGER_SIGMA_EVEN if params["q"] % 2 == 0 else LEDGER_SIGMA_ODD
    if check_id == "berezin_combinatorial":
        return ledger_berezin_sign(params["q"])
    if check_id == "transgression":
        return LEDGER_EPSILON_TRANSGRESSION
    return None


# -- inputs ------------------------------------------------------------


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                g[off + i][off + j] = x
        off += len(b)
    return g


def _skew(g):
    """U^T G U for U unipotent with ones on the superdiagonal."""
    n = len(g)
    u = [[int(j == i or j == i + 1) for j in range(n)] for i in range(n)]
    return [
        [sum(u[k][i] * g[k][l] * u[l][j] for k in range(n) for l in range(n)) for j in range(n)]
        for i in range(n)
    ]


HYP = [[0, 1], [1, 0]]
A2 = [[2, -1], [-1, 2]]
NEG_A2 = [[-2, 1], [1, -2]]


def theta_lattices():
    """Two even-q rank-6 lattices; odd q is avoided because every sum then
    vanishes by v -> -v and cannot catch a wrong result."""
    grams = [
        ("hyp+hyp+A2", 4, 2, _block_diag(HYP, HYP, A2)),
        ("skewed hyp+hyp-A2", 2, 4, _skew(_block_diag(HYP, HYP, NEG_A2))),
    ]
    return [
        thomform.LatticeSpec(label, p, q, tuple(tuple(Fraction(x) for x in row) for row in g))
        for label, p, q, g in grams
    ]


def build_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "suite-7":
        # run_all has one fixed order, so the seed changes nothing here.
        return {"max_pq": SUITE_MAX_PQ}
    if workload == "cap-8":
        calls = [(cid, p, q) for (p, q) in CAP_SIGNATURES for cid in SIGNATURE_CHECKS]
        rng.shuffle(calls)
        return {"calls": calls}
    if workload == "theta":
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.25))
        return {"specs": theta_lattices(), "tau": tau, "bound": THETA_BOUND}
    raise ValueError(f"unknown workload {workload!r}")


# -- bodies ------------------------------------------------------------


def run_body(workload: str, inputs: dict):
    if workload == "suite-7":
        return thomform.run_all(inputs["max_pq"])
    if workload == "cap-8":
        return [thomform.run_check(cid, p=p, q=q) for cid, p, q in inputs["calls"]]
    out = []
    for spec in inputs["specs"]:
        dl = thomform.diagonalize_gram(spec)
        sums, tail = thomform.theta_partial_sum(dl, inputs["tau"], inputs["bound"])
        out.append((dl, sums, tail))
    return out


# -- gates -------------------------------------------------------------


def attempted(workload: str, inputs: dict) -> int:
    if workload == "suite-7":
        return SUITE_CHECKS
    if workload == "cap-8":
        return len(inputs["calls"])
    return sum(spec.p ** spec.q for spec in inputs["specs"])


def gate_checks(workload: str, inputs: dict, results) -> list[str]:
    """One problem per check that is missing, did not pass, or recorded a
    sign off the ledger; an exception in the body fails them all."""
    if isinstance(results, BaseException):
        return [f"body raised {results!r}"] * attempted(workload, inputs)
    problems = []
    if workload == "cap-8":
        wanted = [(cid, {"p": p, "q": q}) for cid, p, q in inputs["calls"]]
    else:
        wanted = None
        ids = {r.check_id for r in results}
        if len(results) != SUITE_CHECKS or ids != set(thomform.CHECK_IDS) or len(ids) != 15:
            problems.append(f"{len(results)} results over {len(ids)} check ids")
    for i, res in enumerate(results):
        if wanted is not None and (i >= len(wanted) or (res.check_id, res.params) != wanted[i]):
            problems.append(f"result {i} is {res.check_id} {res.params}")
            continue
        if res.status != "pass":
            problems.append(f"{res.check_id} {res.params}: {res.status} {res.witness}")
            continue
        sign = expected_sign(res.check_id, res.params)
        if sign is not None and res.sign_sigma != sign:
            problems.append(f"{res.check_id} {res.params}: sign {res.sign_sigma} vs ledger {sign}")
        elif res.check_id == "splitting" and res.sign_sigma not in (1, -1):
            problems.append(f"splitting {res.params}: sign {res.sign_sigma}")
    if wanted is not None and len(results) != len(wanted):
        problems.append(f"{len(results)} results for {len(wanted)} calls")
    return problems


def gate_ledger() -> list[str]:
    """The library's sign constants must match the recorded ledger."""
    checks = thomform.checks
    problems = []
    for name, value in [
        ("SIGMA_EVEN", LEDGER_SIGMA_EVEN),
        ("SIGMA_ODD", LEDGER_SIGMA_ODD),
        ("EPSILON_TRANSGRESSION", LEDGER_EPSILON_TRANSGRESSION),
    ]:
        if getattr(checks, name) != value:
            problems.append(f"{name} = {getattr(checks, name)} vs ledger {value}")
    for q in range(1, 9):
        if checks.berezin_sign(q) != ledger_berezin_sign(q):
            problems.append(f"berezin_sign({q}) off the ledger")
    return problems


DIGEST_SIGNATURES = {"suite-7": ((3, 4), (2, 5)), "cap-8": CAP_SIGNATURES}


def build_forms(workload: str) -> dict:
    """The Howe-operator and Thom forms at the workload's digest signatures."""
    forms = {}
    for p, q in DIGEST_SIGNATURES.get(workload, ()):
        ctx = thomform.SignatureCtx(p, q)
        forms[(p, q)] = {"km": thomform.km_form_at_e(ctx), "mq": thomform.mq_phi_at_e(ctx)}
    return forms


def gate_digests(forms: dict) -> list[str]:
    """SHA-256 of the canonical text of the forms must match the recorded
    values: the emitted text stays byte-identical."""
    recorded = json.loads((HERE / "digests.json").read_text())
    problems = []
    for (p, q), built in forms.items():
        for kind, form in built.items():
            key = f"{kind}_{p}_{q}"
            digest = hashlib.sha256(str(form).encode()).hexdigest()
            if recorded.get(key) != digest:
                problems.append(f"{key}: digest {digest} vs recorded {recorded.get(key)}")
    return problems


def form_sizes(forms: dict) -> dict:
    """Exact sizes of the built forms: exterior terms, monomials and the
    largest numerator or denominator bit length."""
    out = {}
    for (p, q), built in forms.items():
        tag = f"p{p}q{q}"
        bits = 0
        for kind, form in built.items():
            monomials = 0
            for pg in form.terms.values():
                for poly in pg.parts.values():
                    monomials += len(poly.terms)
                    for scalar in poly.terms.values():
                        for r in scalar.terms.values():
                            bits = max(bits, r.numerator.bit_length(), r.denominator.bit_length())
            if kind == "km":
                out[f"forms.km_terms.{tag}"] = len(form.terms)
            out[f"forms.{kind}_monomials.{tag}"] = monomials
        out[f"forms.max_coeff_bits.{tag}"] = bits
    return out


# -- theta oracle --------------------------------------------------------


def _box_vectors(transform: np.ndarray, bound: float) -> np.ndarray:
    """All integer u with |T u|^2 <= bound, by a vectorised box scan."""
    a = transform.T @ transform
    ainv = np.linalg.inv(a)
    radius = np.floor(np.sqrt(bound * np.diag(ainv) + 1e-9)).astype(int)
    axes = [np.arange(-r, r + 1) for r in radius]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(a))
    norms = np.einsum("ki,ij,kj->k", grid, a, grid)
    return grid[norms <= bound + 1e-9]


def _physicists_hermite(n: int, x: np.ndarray) -> np.ndarray:
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    return np.polynomial.hermite.hermval(x, coeffs)


def theta_oracle(spec, transform: np.ndarray, tau: complex, bound: float) -> dict:
    """Per-key theta sums from the Hermite closed form of the basepoint
    form: for each choice (a_1..a_q) of positive index per negative index,
    sign * 2^-q (2 pi)^(-q/2) prod_a H_{n_a}(sqrt(2 pi) x_a) e^{-pi |x|^2}
    at x = sqrt(y) T u, times e^{i pi Re(tau) Q(u)}."""
    p, q = spec.p, spec.q
    vecs = _box_vectors(transform, bound)
    gram = np.array([[int(x) for x in row] for row in spec.gram], dtype=np.int64)
    qvals = np.einsum("ki,ij,kj->k", vecs, gram, vecs)
    phase = np.exp(1j * math.pi * tau.real * qvals)
    x = math.sqrt(tau.imag) * (vecs @ transform.T)
    gauss = np.exp(-math.pi * np.sum(x * x, axis=1))
    pref = 2.0 ** (-q) * (2 * math.pi) ** (-q / 2)
    sums = {}
    for choice in itertools.product(range(1, p + 1), repeat=q):
        gens = [(a, p + 1 + k) for k, a in enumerate(choice)]
        key = tuple(sorted(gens))
        inversions = sum(1 for i in range(q) for j in range(i + 1, q) if gens[i] > gens[j])
        vals = gauss * (pref * (-1) ** inversions)
        for a in range(1, p + 1):
            n = choice.count(a)
            if n:
                vals = vals * _physicists_hermite(n, math.sqrt(2 * math.pi) * x[:, a - 1])
        sums[key] = complex(np.sum(vals * phase))
    return {"sums": sums, "vectors": len(vecs)}


def gate_theta(inputs: dict, output, count_vectors: bool) -> tuple[list[str], int]:
    """Problems and evaluations (lattice vectors x basis keys) of one
    repetition. One problem per key sum off the oracle, plus one per failed
    lattice-level condition; a raised call fails all its key sums."""
    if isinstance(output, BaseException):
        return [f"body raised {output!r}"] * attempted("theta", inputs), 0
    problems = []
    evaluations = 0
    for spec, (dl, sums, tail) in zip(inputs["specs"], output):
        eps = np.diag([1.0] * spec.p + [-1.0] * spec.q)
        gram = np.array([[float(x) for x in row] for row in spec.gram])
        if np.max(np.abs(dl.transform.T @ eps @ dl.transform - gram)) > THETA_TOL:
            problems.append(f"{spec.label}: transform does not diagonalize the gram matrix")
        oracle = theta_oracle(spec, dl.transform, inputs["tau"], inputs["bound"])
        evaluations += oracle["vectors"] * len(sums)
        if set(sums) != set(oracle["sums"]):
            problems.append(f"{spec.label}: keys differ from the oracle")
        for key, want in oracle["sums"].items():
            got = sums.get(key)
            if got is None or not cmath.isfinite(got) or abs(got - want) > THETA_TOL:
                problems.append(f"{spec.label} {key}: {got} vs oracle {want}")
        if max((abs(v) for v in oracle["sums"].values()), default=0.0) <= 1e-3:
            problems.append(f"{spec.label}: all sums vanish, the check cannot see errors")
        if not (math.isfinite(tail) and tail > 0):
            problems.append(f"{spec.label}: tail bound {tail}")
        if count_vectors:
            from thomform.theta import enumerate_vectors

            count = len(enumerate_vectors(dl, inputs["bound"]))
            if count != oracle["vectors"]:
                problems.append(f"{spec.label}: {count} vectors vs oracle {oracle['vectors']}")
    return problems, evaluations
