"""Acceptance suite: one test per headline identity, each printing a
single PASS/FAIL line with its scope and tolerance.

Arithmetic is exact (zero tolerance) except where a tolerance is stated.
"""

import math
import time

import pytest

from thomform.checks import (
    check_annihilation,
    check_berezin_combinatorial,
    check_curvature,
    check_delta_limit,
    check_example11,
    check_fiber_integral,
    check_fiber_restriction,
    check_hermite_lemma,
    check_howe_hermite,
    check_k_invariance,
    check_closedness,
    check_splitting,
    check_theorem,
    check_transgression,
)
from thomform.theta import (
    LatticeSpec,
    diagonalize_gram,
    theta_partial_sum,
)


def _sigs(max_total):
    return [
        (p, total - p)
        for total in range(2, max_total + 1)
        for p in range(1, total)
    ]


def report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_main_identity(self):
        start = time.perf_counter()
        results = [check_theorem(p, q) for p, q in _sigs(7)]
        elapsed = time.perf_counter() - start
        ok = all(r.passed for r in results) and elapsed <= 60
        sigmas = sorted({(r.params["q"] % 2, r.sign_sigma) for r in results})
        report(
            "main identity",
            ok,
            f"exact for all p+q <= 7, sigma(q) = +1 (even q) / -1 (odd q), "
            f"observed parity->sign {sigmas}, {elapsed:.1f}s (limit 60s)",
        )

    def test_02_curvature(self):
        start = time.perf_counter()
        results = [check_curvature(p, q) for p, q in _sigs(7)]
        elapsed = time.perf_counter() - start
        ok = all(r.passed for r in results) and elapsed <= 5
        report(
            "curvature",
            ok,
            f"rho(R_e) = -1/2 sum eta^2 exact for all p+q <= 7, "
            f"{elapsed:.1f}s (limit 5s)",
        )

    def test_03_hermite_and_howe(self):
        start = time.perf_counter()
        lemma = [check_hermite_lemma(1, q) for q in range(1, 7)]
        howe = check_howe_hermite(10)
        elapsed = time.perf_counter() - start
        ok = all(r.passed for r in lemma) and howe.passed and elapsed <= 5
        report(
            "hermite lemma / howe-hermite",
            ok,
            f"exact for n <= 10 and q <= 6, {elapsed:.1f}s (limit 5s)",
        )

    def test_04_berezin_combinatorial(self):
        start = time.perf_counter()
        results = [
            check_berezin_combinatorial(p, q)
            for p in range(1, 5)
            for q in range(1, 6)
            if p + q <= 8
        ]
        elapsed = time.perf_counter() - start
        signs = sorted({(r.params["q"], r.sign_sigma) for r in results})
        ok = all(r.passed for r in results) and elapsed <= 10
        report(
            "berezin combinatorics",
            ok,
            f"tuple sums and factorials exact for p <= 4, q <= 5 with the "
            f"recorded q-sign (-1)^(q(q-1)/2) {signs}, {elapsed:.1f}s (limit 10s)",
        )

    def test_05_fiber_integral(self):
        start = time.perf_counter()
        results = [check_fiber_integral(q) for q in range(1, 6)]
        elapsed = time.perf_counter() - start
        ok = all(r.passed for r in results) and elapsed <= 1
        report(
            "fiber integral",
            ok,
            f"exactly 1 (as a ring element) for q = 1..5, {elapsed:.2f}s (limit 1s)",
        )

    def test_06_fiber_restriction(self):
        start = time.perf_counter()
        results = [check_fiber_restriction(q) for q in range(1, 6)]
        elapsed = time.perf_counter() - start
        ok = all(r.passed for r in results) and elapsed <= 1
        report(
            "fiber restriction",
            ok,
            f"equals 2^(q/2) exp(-2 pi |x|^2) dx1..dxq exactly for q = 1..5, "
            f"{elapsed:.2f}s (limit 1s)",
        )

    def test_07_annihilation(self):
        start = time.perf_counter()
        results = [check_annihilation(q) for q in range(1, 6)]
        elapsed = time.perf_counter() - start
        ok = all(r.passed for r in results) and elapsed <= 1
        report(
            "annihilation",
            ok,
            f"(d + 2 sqrt(pi) i(s)) kills the exponent kernel exactly for "
            f"q = 1..5, {elapsed:.2f}s (limit 1s)",
        )

    def test_08_transgression(self):
        start = time.perf_counter()
        results = [check_transgression(q) for q in range(1, 8)]
        elapsed = time.perf_counter() - start
        ok = all(r.passed for r in results) and elapsed <= 5
        report(
            "transgression",
            ok,
            f"L_E U = epsilon d(i_E U) exact along the Euler field E, the "
            f"scaling family t d/dt (t*U) = epsilon d(t*psi) at t = 1, with "
            f"global epsilon = +1 for q = 1..7, {elapsed:.1f}s (limit 5s)",
        )

    def test_09_delta_limit(self):
        start = time.perf_counter()
        at_100 = check_delta_limit(t=100.0, tol=1e-5)
        at_300 = check_delta_limit(t=300.0, tol=1e-6)
        elapsed = time.perf_counter() - start
        ok = at_100.passed and at_300.passed and elapsed <= 5
        report(
            "delta limit",
            ok,
            "q=1, three test functions; error <= 1e-5 at t=100 (the exact "
            "error is ~1/(4 pi t^2) ~ 8e-6, so 1e-6 is unreachable there) "
            f"and <= 1e-6 at t=300, {elapsed:.1f}s (limit 5s)",
        )

    def test_10_closedness_and_invariance(self):
        start = time.perf_counter()
        results = [check_closedness(p, q) for p, q in _sigs(6)]
        results += [check_k_invariance(p, q) for p, q in _sigs(6)]
        elapsed = time.perf_counter() - start
        ok = all(r.passed for r in results) and elapsed <= 30
        report(
            "closedness / invariance",
            ok,
            f"d phi = 0 and L_X phi = 0 exactly for all p+q <= 6, "
            f"{elapsed:.1f}s (limit 30s)",
        )

    def test_11_signature_1_1_closed_form(self):
        start = time.perf_counter()
        res = check_example11()
        elapsed = time.perf_counter() - start
        ok = res.passed and res.params["points"] == 20 and elapsed <= 1
        report(
            "signature (1,1) closed form",
            ok,
            f"machinery vs closed form to 1e-12 at 20 (t,v) points, "
            f"{elapsed:.2f}s (limit 1s)",
        )

    def test_12_splitting(self):
        start = time.perf_counter()
        results = [check_splitting(1, 1, 1, 1), check_splitting(1, 1, 1, 2)]
        elapsed = time.perf_counter() - start
        ok = all(r.passed for r in results) and elapsed <= 5
        signs = [r.sign_sigma for r in results]
        report(
            "splitting",
            ok,
            f"block product exact for (1,1)+(1,1) and (1,1)+(1,2), "
            f"orientation signs {signs}, {elapsed:.1f}s (limit 5s)",
        )

    def test_13_theta(self):
        import itertools
        from fractions import Fraction

        import numpy as np

        from references import gram_value
        from thomform.km import km_form_at_e
        from thomform.liealg import SignatureCtx

        start = time.perf_counter()
        spec = LatticeSpec(
            "hyp", 1, 1,
            ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        )
        dl = diagonalize_gram(spec)
        tau = 0.4 + 0.8j
        km = km_form_at_e(SignatureCtx(1, 1))
        ok = True
        tails = []
        for bound in range(0, 7):
            sums, tail = theta_partial_sum(dl, tau, float(bound))
            tails.append(tail)
            oracle = {k[0]: 0j for k in km.terms}
            for u in itertools.product(range(-10, 11), repeat=2):
                v = dl.transform @ np.array(u, dtype=float)
                if v @ v <= bound + 1e-9:
                    qv = float(gram_value(spec, u))
                    phase = complex(
                        math.cos(math.pi * tau.real * qv),
                        math.sin(math.pi * tau.real * qv),
                    )
                    for (i_set, _j), pg in km.terms.items():
                        oracle[i_set] += (
                            pg.eval(list(math.sqrt(tau.imag) * v)) * phase
                        )
            ok = ok and all(abs(sums[k] - oracle[k]) <= 1e-10 for k in sums)
        ok = ok and all(a > b for a, b in zip(tails, tails[1:]))
        elapsed = time.perf_counter() - start
        ok = ok and elapsed <= 5
        report(
            "theta partial sums",
            ok,
            f"(1,1) matches brute force to 1e-10 for bounds 0..6, tails "
            f"monotone, {elapsed:.1f}s (limit 5s)",
        )
