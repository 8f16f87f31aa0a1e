"""Lattice diagonalization, vector enumeration, and theta partial sums."""

import itertools
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from references import gram_value
from thomform.km import km_form_at_e
from thomform.liealg import SignatureCtx
from thomform.theta import (
    MAX_BOX_POINTS,
    DiagonalizedLattice,
    LatticeSpec,
    diagonalize_gram,
    enumerate_vectors,
    gram_values,
    majorant_matrix,
    tail_estimate,
    theta_partial_sum,
)


def frac_gram(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


HYPERBOLIC = LatticeSpec("hyp", 1, 1, frac_gram([[0, 1], [1, 0]]))
DIAG_11 = LatticeSpec("std", 1, 1, frac_gram([[1, 0], [0, -1]]))
DIAG_2 = LatticeSpec("scaled", 1, 1, frac_gram([[2, 0], [0, -2]]))
SIG_21 = LatticeSpec("sig21", 2, 1, frac_gram([[2, 1, 0], [1, 2, 0], [0, 0, -1]]))
HYP_HYP = LatticeSpec("hyp+hyp", 2, 2, frac_gram(
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
))
# non-integral entries (denominators 2 and 3, lcm 6); signature (2,1)
THIRDS = LatticeSpec("thirds", 2, 1, frac_gram(
    [["3/2", "1/3", 0], ["1/3", 1, "1/2"], [0, "1/2", "-2/3"]]
))
HYP_HYP_FILE = Path(__file__).resolve().parent.parent / "examples" / "hyp_hyp.json"


def residual(dl: DiagonalizedLattice) -> float:
    eps = np.diag([float(d) for d in dl.diag])
    gram = np.array([[float(x) for x in row] for row in dl.spec.gram])
    return float(np.max(np.abs(dl.transform.T @ eps @ dl.transform - gram)))


class TestDiagonalize:
    def test_hyperbolic_plane(self):
        dl = diagonalize_gram(HYPERBOLIC)
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
        assert np.max(np.abs(dl.transform - expected)) < 1e-12
        assert dl.diag == (1, -1)

    def test_identity_case(self):
        dl = diagonalize_gram(DIAG_11)
        assert np.max(np.abs(dl.transform - np.eye(2))) < 1e-12

    def test_scaling_case(self):
        dl = diagonalize_gram(DIAG_2)
        assert np.max(np.abs(dl.transform - math.sqrt(2.0) * np.eye(2))) < 1e-12

    @pytest.mark.parametrize("spec", [HYPERBOLIC, DIAG_11, DIAG_2, SIG_21], ids=lambda s: s.label)
    def test_round_trip_residual(self, spec):
        assert residual(diagonalize_gram(spec)) <= 1e-10

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            diagonalize_gram(LatticeSpec("deg", 1, 1, frac_gram([[1, 1], [1, 1]])))

    def test_signature_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diagonalize_gram(LatticeSpec("bad", 2, 0, frac_gram([[1, 0], [0, -1]])))

    @pytest.mark.parametrize("gram,name", [
        ([[0, 10**400], [10**400, 0]], "gram[0][1]"),
        ([[0, Fraction(1, 10**400)], [Fraction(1, 10**400), 0]], "gram[0][1]"),
        # entries that fit a float, and an entry of S or of S^T G S that does not
        ([[Fraction(1, 10**300), 10**10], [10**10, 0]], "S[0][1] of S^T G S"),
        ([[2, 10**300], [10**300, 1]], "(S^T G S)[1][1]"),
    ], ids=["huge", "tiny", "congruence", "diagonal"])
    def test_a_value_past_a_float_is_named(self, gram, name):
        with pytest.raises(ValueError, match=re.escape(f"{name} does not fit a float")):
            diagonalize_gram(LatticeSpec("far", 1, 1, frac_gram(gram)))

    def test_from_json(self):
        spec = LatticeSpec.from_json(
            {"label": "hyp", "p": 1, "q": 1, "gram": [["0", "1"], ["1", "0"]]}
        )
        assert spec == HYPERBOLIC

    def test_from_json_takes_int_and_rational_string_entries(self):
        spec = LatticeSpec.from_json(
            {"label": "mixed", "p": 1, "q": 1, "gram": [[2, "1/2"], ["1/2", -3]]}
        )
        assert spec.gram == ((2, Fraction(1, 2)), (Fraction(1, 2), -3))

    @pytest.mark.parametrize("value", [True, False, 0.1, 1.0, None, [1]])
    def test_from_json_rejects_a_gram_entry_that_is_not_exact(self, value):
        data = {"label": "hyp", "p": 1, "q": 1, "gram": [["0", value], ["1", "0"]]}
        with pytest.raises(ValueError, match=r"^gram\[0\]\[1\] = "):
            LatticeSpec.from_json(data)

    @pytest.mark.parametrize("gram,name", [
        (["01", "10"], r"gram\[0\]"), ([["0", "1"], "10"], r"gram\[1\]"), ("0110", "gram"),
    ])
    def test_from_json_rejects_a_gram_row_that_is_not_an_array(self, gram, name):
        # a string row would otherwise be read character by character
        with pytest.raises(ValueError, match=f"^{name} = "):
            LatticeSpec.from_json({"label": "hyp", "p": 1, "q": 1, "gram": gram})

    @pytest.mark.parametrize("field", ["gram", "p", "q"])
    def test_from_json_names_a_missing_field(self, field):
        data = {"label": "hyp", "p": 1, "q": 1, "gram": [["0", "1"], ["1", "0"]]}
        del data[field]
        with pytest.raises(ValueError, match=f"^lattice has no '{field}' field$"):
            LatticeSpec.from_json(data)

    @pytest.mark.parametrize("field,value", [("p", 1.9), ("q", True), ("p", "1"), ("q", 1.0)])
    def test_from_json_rejects_a_non_integer_signature(self, field, value):
        data = {"label": "hyp", "p": 1, "q": 1, "gram": [["0", "1"], ["1", "0"]], field: value}
        with pytest.raises(ValueError, match=f"^lattice {field} = "):
            LatticeSpec.from_json(data)


    @pytest.mark.parametrize("entry", [1.0, True], ids=["float", "bool"])
    def test_constructor_rejects_a_gram_entry_that_is_not_exact(self, entry):
        # a float has no exact Q(v,v); a bool is not an integer entry
        gram = ((Fraction(0), entry), (entry, Fraction(0)))
        with pytest.raises(ValueError, match=rf"^gram\[0\]\[1\] = {entry!r} "):
            LatticeSpec("x", 1, 1, gram)

    def test_constructor_rejects_a_float_signature(self):
        with pytest.raises(ValueError, match=r"^lattice p = 1\.0 is not an integer$"):
            LatticeSpec("x", 1.0, 1, frac_gram([[0, 1], [1, 0]]))

    def test_int_entries_diagonalize_as_exactly_as_fractions(self):
        # int / int would be a float division, inexact for the pivot 3
        gram = [[3, 1, 0], [1, 2, 1], [0, 1, -2]]
        ints = LatticeSpec("ints", 2, 1, tuple(map(tuple, gram)))
        assert ints.gram == frac_gram(gram)
        assert diagonalize_gram(ints).transform.tolist() == (
            diagonalize_gram(LatticeSpec("fractions", 2, 1, frac_gram(gram))).transform.tolist()
        )

    def test_a_small_scale_lattice_has_a_row_sign(self):
        """diag(1e-30, -1e-30) is non-degenerate, but every entry of its
        transform is 1e-15: the row sign compares against the row's own
        scale. The theta sum uses bound 0, the zero vector alone, because
        any positive bound scans about 1e30 box points."""
        e = Fraction(1, 10**30)
        tiny = LatticeSpec("tiny", 1, 1, frac_gram([[e, 0], [0, -e]]))
        dl = diagonalize_gram(tiny)
        gram = np.array([[float(x) for x in row] for row in tiny.gram])
        assert residual(dl) <= 1e-10 * np.max(np.abs(gram))
        sums, _tail = theta_partial_sum(dl, 1j, 0)
        expected: dict = {}
        for (i_set, _j), pg in km_form_at_e(SignatureCtx(1, 1)).terms.items():
            expected[i_set] = expected.get(i_set, 0) + pg.eval([0.0, 0.0])
        assert sums == expected


class TestEnumerate:
    def test_bound_zero(self):
        dl = diagonalize_gram(HYPERBOLIC)
        assert enumerate_vectors(dl, 0.0) == [(0, 0)]

    def test_unit_ball_standard(self):
        dl = diagonalize_gram(DIAG_11)
        assert enumerate_vectors(dl, 1.0) == [
            (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)
        ]

    def test_exhaustive_against_product_scan(self):
        dl = diagonalize_gram(SIG_21)
        bound = 6.0
        a = majorant_matrix(dl)
        brute = sorted(
            u
            for u in itertools.product(range(-8, 9), repeat=3)
            if np.array(u) @ a @ np.array(u) <= bound + 1e-9
        )
        assert enumerate_vectors(dl, bound) == brute

    def test_negation_symmetry(self):
        dl = diagonalize_gram(HYPERBOLIC)
        vs = set(enumerate_vectors(dl, 5.0))
        assert vs == {tuple(-x for x in u) for u in vs}


class TestThetaSum:
    def brute(self, spec, tau, bound, radius):
        dl = diagonalize_gram(spec)
        ctx = SignatureCtx(spec.p, spec.q)
        km = km_form_at_e(ctx)
        y, x = tau.imag, tau.real
        out = {k[0]: 0j for k in km.terms}
        n = spec.p + spec.q
        for u in itertools.product(range(-radius, radius + 1), repeat=n):
            v = dl.transform @ np.array(u, dtype=float)
            if v @ v <= bound + 1e-9:
                qv = float(gram_value(spec, u))
                phase = complex(math.cos(math.pi * x * qv), math.sin(math.pi * x * qv))
                for (i_set, _j), pg in km.terms.items():
                    out[i_set] += pg.eval(list(math.sqrt(y) * v)) * phase
        return out

    @pytest.mark.parametrize("spec,radius", [
        pytest.param(spec, radius, id=spec.label)
        for spec, radius in [(HYPERBOLIC, 12), (DIAG_11, 12), (DIAG_2, 12), (SIG_21, 4), (HYP_HYP, 3)]
    ])
    @pytest.mark.parametrize("bound", [0.0, 2.0, 4.0, 6.0])
    def test_matches_brute_force(self, spec, radius, bound):
        # the brute cube must hold enumerate_vectors' box, whose half side in
        # coordinate i is floor(sqrt(bound * (A^-1)_ii)) for the majorant A
        dl = diagonalize_gram(spec)
        box = np.sqrt(bound * np.diag(np.linalg.inv(majorant_matrix(dl))) + 1e-9)
        assert radius >= np.floor(box).max()
        tau = 0.7 + 0.9j
        sums, _tail = theta_partial_sum(dl, tau, bound)
        oracle = self.brute(spec, tau, bound, radius)
        assert set(sums) == set(oracle)
        for key in sums:
            assert abs(sums[key] - oracle[key]) <= 1e-10

    def test_zero_at_bound_zero(self):
        sums, _ = theta_partial_sum(diagonalize_gram(HYPERBOLIC), 1j, 0.0)
        assert all(abs(v) < 1e-15 for v in sums.values())

    def test_keys_match_form_support(self):
        dl = diagonalize_gram(SIG_21)
        sums, _ = theta_partial_sum(dl, 1j, 1.0)
        km = km_form_at_e(SignatureCtx(2, 1))
        assert set(sums) == {key[0] for key in km.terms}

    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            theta_partial_sum(diagonalize_gram(HYPERBOLIC), 1.0 + 0j, 1.0)

    @pytest.mark.parametrize("tau,bound,name", [
        (complex(0.5, math.nan), 4.0, "tau"),
        (complex(math.inf, 1.0), 4.0, "tau"),
        (0.5 + 1j, math.inf, "bound"),
        (0.5 + 1j, math.nan, "bound"),
    ])
    def test_rejects_non_finite(self, tau, bound, name):
        dl = diagonalize_gram(HYPERBOLIC)
        with pytest.raises(ValueError, match=name):
            theta_partial_sum(dl, tau, bound)

    # a phase past floats turns every sum to NaN, a y past floats the tail
    @pytest.mark.filterwarnings("ignore:.*encountered in multiply:RuntimeWarning")
    @pytest.mark.parametrize("tau", [complex(1e308, 1.0), complex(0.1, 1e308)])
    def test_a_sum_or_tail_past_floats_names_tau(self, tau):
        dl = diagonalize_gram(HYP_HYP)
        with pytest.raises(ValueError, match=re.escape(f"tau = {tau} is out of range")):
            theta_partial_sum(dl, tau, 1.0)

    @pytest.mark.parametrize("bound", [math.inf, math.nan, -1.0])
    def test_enumerate_rejects_bad_bound(self, bound):
        with pytest.raises(ValueError, match="bound"):
            enumerate_vectors(diagonalize_gram(HYPERBOLIC), bound)

    @pytest.mark.parametrize("bound", [1e300, sys.float_info.max])
    def test_enumerate_refuses_a_box_side_past_maxsize(self, bound):
        with pytest.raises(ValueError, match=rf"^bound = {re.escape(str(bound))} .*{sys.maxsize}$"):
            enumerate_vectors(diagonalize_gram(HYPERBOLIC), bound)

    def test_enumerate_refuses_a_degenerate_box_before_scanning(self):
        # diag(1e-30, -1e-30): about 4e30 points at bound 1, each side below maxsize
        tiny = LatticeSpec("tiny", 1, 1, frac_gram([[Fraction(1, 10**30), 0], [0, Fraction(-1, 10**30)]]))
        with pytest.raises(ValueError, match=rf"^bound = 1.0 needs a box of \d{{31}} points, more than {MAX_BOX_POINTS}$"):
            enumerate_vectors(diagonalize_gram(tiny), 1.0)

    @pytest.mark.parametrize("spec", [SIG_21, HYP_HYP, THIRDS], ids=lambda s: s.label)
    def test_builds_the_form_once_and_q_exactly(self, spec, monkeypatch):
        import thomform.theta as theta

        calls = {"km": 0}
        batches = []

        def counting_km(ctx):
            calls["km"] += 1
            return km_form_at_e(ctx)

        def recording_gram_values(spec, vecs):
            out = gram_values(spec, vecs)
            batches.append((list(vecs), out))
            return out

        monkeypatch.setattr(theta, "km_form_at_e", counting_km)
        monkeypatch.setattr(theta, "gram_values", recording_gram_values)
        dl = diagonalize_gram(spec)
        sums, tail = theta_partial_sum(dl, 0.3 + 1.1j, 3.0)
        assert calls == {"km": 1}
        [(vecs, qs)] = batches
        assert vecs == enumerate_vectors(dl, 3.0) and len(vecs) > 1
        assert qs.dtype == np.float64
        exact = np.array([float(gram_value(spec, u)) for u in vecs])
        assert qs.tobytes() == exact.tobytes()
        km = km_form_at_e(SignatureCtx(spec.p, spec.q))
        assert tail == theta.tail_estimate(dl, km, 1.1, 3.0)

    def test_thirds_exercises_the_lcm_denominator(self):
        # Q(v,v) of the enumerated vectors has denominators 2, 3 and 6, so
        # the bit-for-bit test above sees numerators over D = 6
        vecs = enumerate_vectors(diagonalize_gram(THIRDS), 3.0)
        assert {gram_value(THIRDS, u).denominator for u in vecs} == {1, 2, 3, 6}

    def test_tail_bounds_the_omitted_terms(self):
        # hyp + hyp, signature (2,2): even q, so the sums do not vanish by
        # v -> -v and the omitted terms are seen
        dl = diagonalize_gram(HYP_HYP)
        tau = 0.3 + 0.6j
        ref, _ = theta_partial_sum(dl, tau, 30.0)
        assert max(abs(v) for v in ref.values()) > 1e-3
        for bound in range(1, 9):
            sums, tail = theta_partial_sum(dl, tau, float(bound))
            assert tail >= max(abs(ref[k] - sums[k]) for k in ref)

    @pytest.mark.parametrize("spec", [HYPERBOLIC, SIG_21], ids=lambda s: s.label)
    def test_cauchy_in_the_bound(self, spec):
        dl = diagonalize_gram(spec)
        tau = 0.3 + 1.1j
        prev_sums, prev_tail = theta_partial_sum(dl, tau, 0.0)
        for bound in range(1, 7):
            sums, tail = theta_partial_sum(dl, tau, float(bound))
            delta = max(abs(sums[k] - prev_sums[k]) for k in sums)
            assert delta <= prev_tail
            prev_sums, prev_tail = sums, tail

    def test_tail_bounds_the_series_past_the_shell_cap(self):
        # at y = 1e-4 the shell terms are still above 1e-30 of the total
        # 10,000 shells past the bound; the estimate must still bound the
        # whole series, here summed with no cap
        dl = diagonalize_gram(HYPERBOLIC)
        km = km_form_at_e(SignatureCtx(1, 1))
        y, bound = 1e-4, 4.0
        cp = sum(abs(float(c)) for pg in km.terms.values() for _m, c in pg.items())
        deg = max(sum(m) for pg in km.terms.values() for m, _c in pg.items())
        lmin = min(np.linalg.eigvalsh(majorant_matrix(dl)))
        series, k, term = 0.0, math.floor(bound), 1.0
        while term >= 1e-30 * max(series, 1.0):
            term = ((2 * math.sqrt((k + 1) / lmin) + 3) ** 2 * cp
                    * (1 + math.sqrt(y * (k + 1))) ** deg * math.exp(-math.pi * y * k))
            series += term
            k += 1
        assert k > bound + 10_000
        tail = tail_estimate(dl, km, y, bound)
        assert series <= tail <= 1.1 * series

    def test_tail_refuses_growing_terms_at_the_shell_cap(self):
        km = km_form_at_e(SignatureCtx(1, 1))
        with pytest.raises(ValueError, match=r"y = 1e-05$"):
            tail_estimate(diagonalize_gram(HYPERBOLIC), km, 1e-5, 4.0)

    def test_tail_estimates_decrease(self):
        dl = diagonalize_gram(HYPERBOLIC)
        tails = [theta_partial_sum(dl, 1j, float(b))[1] for b in range(0, 7)]
        assert all(a > b for a, b in zip(tails, tails[1:]))


class TestModularity:
    """hyp+hyp is even unimodular of signature (2,2), so the theta series of
    the basepoint form has weight (p+q)/2 = 2: S(-1/tau) = tau^2 S(tau) for
    every exterior basis key, up to the two tail estimates."""

    TAU = 0.3 + 1.1j
    BOUND = 14.0

    @pytest.fixture(scope="class")
    def sums(self):
        dl = diagonalize_gram(LatticeSpec.load(str(HYP_HYP_FILE)))
        return [theta_partial_sum(dl, tau, self.BOUND) for tau in (self.TAU, -1 / self.TAU)]

    def test_committed_lattice_is_hyp_plus_hyp(self):
        spec = LatticeSpec.load(str(HYP_HYP_FILE))
        assert (spec.p, spec.q) == (2, 2)
        assert spec.gram == HYP_HYP.gram

    def test_weight_two(self, sums):
        (s, tail), (s_inv, tail_inv) = sums
        assert max(abs(v) for v in s.values()) > 1e-2
        allowed = abs(self.TAU) ** 2 * tail + tail_inv + 1e-12
        for key in s:
            assert abs(s_inv[key] - self.TAU**2 * s[key]) <= allowed, key

    def test_weight_one_misses(self, sums):
        (s, _tail), (s_inv, _tail_inv) = sums
        assert max(abs(s_inv[key] - self.TAU * s[key]) for key in s) > 1e-3
