"""The verification harness: dispatch, determinism, witnesses, suites."""

import gc
import math

import pytest

from thomform.checks import (
    CHECK_IDS,
    CheckResult,
    check_example11,
    check_splitting,
    example11_machinery,
    example11_paper,
    run_all,
    run_check,
)


class TestDispatch:
    def test_unknown_check_id(self):
        with pytest.raises(ValueError):
            run_check("no_such_check", p=1, q=1)

    def test_oversized_params(self):
        with pytest.raises(ValueError):
            run_check("theorem", p=5, q=5)

    def test_fiber_cap_names_the_bound(self):
        with pytest.raises(ValueError, match=r"^transgression: q = 8 .* 1 <= q <= 7$"):
            run_check("transgression", q=8)

    def test_every_id_is_runnable(self):
        for cid in CHECK_IDS:
            if cid == "splitting":
                res = run_check(cid, p1=1, q1=1, p2=1, q2=1)
            elif cid in ("howe_hermite", "delta_limit", "example11"):
                res = run_check(cid)
            elif cid in ("fiber_integral", "fiber_restriction", "annihilation", "transgression"):
                res = run_check(cid, q=1)
            else:
                res = run_check(cid, p=1, q=1)
            assert res.passed, res.to_json()

    def test_json_shape(self):
        res = run_check("theorem", p=1, q=2)
        data = res.to_json()
        assert data["status"] == "pass"
        assert data["sign_sigma"] == 1
        assert set(data) == {
            "check_id", "params", "status", "sign_sigma", "witness", "elapsed_ms"
        }


class TestDeterminism:
    def test_repeated_runs_identical(self):
        a = run_check("berezin_combinatorial", p=2, q=3)
        b = run_check("berezin_combinatorial", p=2, q=3)
        assert (a.status, a.witness, a.sign_sigma) == (b.status, b.witness, b.sign_sigma)

    def test_run_all_order_is_stable(self):
        ids1 = [(r.check_id, tuple(sorted(r.params.items()))) for r in run_all(3)]
        ids2 = [(r.check_id, tuple(sorted(r.params.items()))) for r in run_all(3)]
        assert ids1 == ids2


class TestRunAll:
    def test_signature_enumeration(self):
        def theorem_sigs(max_pq):
            return [
                (r.params["p"], r.params["q"]) for r in run_all(max_pq) if r.check_id == "theorem"
            ]

        assert theorem_sigs(2) == [(1, 1)]
        assert theorem_sigs(3) == [(1, 1), (1, 2), (2, 1)]

    def test_all_pass_at_4(self):
        res = run_all(4)
        bad = [r.to_json() for r in res if not r.passed]
        assert not bad, bad

    def test_cap_enforced(self):
        for max_pq in (9, 1, 3.5, True):
            with pytest.raises(ValueError, match=r"require 2 <= max_pq <= 8$"):
                run_all(max_pq)


class TestWitnesses:
    @pytest.mark.parametrize("signed", [True, False])
    def test_sides_of_two_weights_fail_and_name_them(self, signed):
        from thomform import checks
        from thomform.scalars import PolyGauss
        from thomform.superforms import FiberCtx, SuperForm

        ctx = FiberCtx(1)
        lhs = SuperForm(ctx, {((1,), ()): PolyGauss.gaussian([1])})
        rhs = SuperForm(ctx, {((1,), ()): PolyGauss.gaussian([2])})
        if signed:
            res = checks._signed_check("theorem", {}, lhs, rhs, "sigma", 1)
        else:
            res = checks._zero_check("fiber_restriction", {}, lhs, rhs)
        assert res.status == "fail" and res.witness.endswith("two Gaussian weights: (1,) and (2,)")

    def test_unequal_sides_that_subtract_to_zero_fail(self):
        # x over the denominator 2 with numerator 2 is x, but not in its
        # least denominator: the stores compare unequal and subtract to zero
        from thomform import checks
        from thomform.scalars import PolyGauss
        from thomform.superforms import FiberCtx, SuperForm

        ctx, x = FiberCtx(1), PolyGauss.var(1, 1)
        unreduced = PolyGauss._of(1, x.g, x.s, {k: 2 * v for k, v in x.atoms.items()}, 2)
        lhs, rhs = SuperForm(ctx, {((1,), ()): x}), SuperForm(ctx, {((1,), ()): unreduced})
        res = checks._signed_check("theorem", {}, lhs, rhs, "sigma", 1)
        assert res.status == "fail" and "subtract to zero" in res.witness

    def test_failing_check_carries_witness(self):
        # delta_limit with an unreachable tolerance must fail with a witness
        res = run_check("delta_limit", t=2.0, tol=1e-12)
        assert res.status == "fail"
        assert res.witness

    def test_delta_limit_integrates_the_library_form(self, monkeypatch):
        # the check must see the library's Thom form: doubling it doubles
        # every integral, so the limit is 2 f(0) and the check fails
        import thomform.checks as checks

        assert run_check("delta_limit").passed
        real = checks.fiber_umq
        monkeypatch.setattr(checks, "fiber_umq", lambda q: real(q).scale(2))
        res = run_check("delta_limit")
        assert res.status == "fail"
        assert res.witness.startswith("f=1: integral ")

    def test_transgression_fails_with_a_stray_term_in_d_psi(self, monkeypatch):
        # a term of d psi that L_E U lacks, of d psi's weight, is a failure
        # with a witness
        import thomform.checks as checks
        from thomform.scalars import PolyGauss
        from thomform.superforms import FiberCtx, SuperForm

        real = checks.exterior_derivative
        stray = SuperForm(FiberCtx(1), {((), ()): PolyGauss.gaussian([2])})
        monkeypatch.setattr(checks, "exterior_derivative", lambda a, grads: real(a, grads) + stray)
        res = run_check("transgression", q=1)
        assert res.status == "fail" and res.witness == "-1 * exp(-pi*(2*x1^2))"

    @pytest.mark.parametrize("t", [float("inf"), float("nan"), "100"])
    def test_delta_limit_rejects_non_finite_t(self, t):
        with pytest.raises(ValueError, match="delta_limit"):
            run_check("delta_limit", t=t)

    @pytest.mark.parametrize("t", [1e4, 1e6])
    def test_delta_limit_sees_the_narrow_spike(self, t):
        # the spike of t*U has width ~1/t; the error is far below tol
        assert run_check("delta_limit", t=t, tol=1e-8).passed

    def test_delta_limit_rejects_a_t_past_floats(self):
        # the weight 2 t^2 of t*U at t = 1e200 is no float
        with pytest.raises(ValueError, match=r"delta_limit: t = 1e\+200 is out of range"):
            run_check("delta_limit", t=1e200)


class TestSignLedger:
    @pytest.mark.parametrize("constant,cid,params,label", [
        ("SIGMA_EVEN", "theorem", {"p": 1, "q": 2}, "sigma(2)"),
        ("EPSILON_TRANSGRESSION", "transgression", {"q": 2}, "epsilon"),
        ("SIGMA_SPLITTING", "splitting", {"p1": 1, "q1": 1, "p2": 1, "q2": 1}, "splitting sign"),
    ])
    def test_sign_off_the_ledger_fails(self, monkeypatch, constant, cid, params, label):
        import thomform.checks as checks

        monkeypatch.setattr(checks, constant, -getattr(checks, constant))
        res = run_check(cid, **params)
        assert res.status == "fail" and res.sign_sigma == 1
        assert res.witness == f"sign +1 violates the recorded {label} = -1"


class TestBerezinWork:
    @pytest.mark.parametrize("p,q,wedges", [(1, 1, 1), (3, 2, 9), (4, 4, 69), (2, 6, 27)])
    def test_one_wedge_per_count_vector(self, monkeypatch, p, q, wedges):
        """Each eta product is one wedge on the product one count smaller:
        C(p+q, q) - 1 wedges, one per non-zero count vector of sum <= q."""
        from thomform.superforms import SuperForm

        calls = []
        real = SuperForm.wedge

        def counting(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(SuperForm, "wedge", counting)
        assert run_check("berezin_combinatorial", p=p, q=q).passed
        assert len(calls) == math.comb(p + q, q) - 1 == wedges


# Every check but delta_limit (scipy's quad) at its smallest sizes.
SMALLEST = [
    *((cid, {"p": p, "q": q}) for cid in (
        "theorem", "km_closed_form", "curvature", "berezin_combinatorial",
        "hermite_lemma", "closedness", "k_invariance",
    ) for p, q in [(1, 1), (1, 2), (2, 1)]),
    *((cid, {"q": 1}) for cid in (
        "fiber_integral", "fiber_restriction", "annihilation", "transgression",
    )),
    ("howe_hermite", {"nmax": 1}),
    ("example11", {}),
    ("splitting", {"p1": 1, "q1": 1, "p2": 1, "q2": 1}),
]


@pytest.mark.parametrize("cid,params", SMALLEST)
def test_a_check_leaves_no_reference_cycle(cid, params):
    """What a check builds is freed by reference counting alone: with the
    cyclic collector off, a run leaves nothing for `gc.collect` to find."""
    run_check(cid, **params)  # imports and first-use state settle first
    gc.collect()
    gc.disable()
    try:
        run_check(cid, **params)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestLieLayerWork:
    """The Lie layer differentiates each coefficient of phi once: at most n
    partial derivatives per coefficient, however many Lie elements act.
    `derive` and `gradient` both take their partials through
    `PolyGauss._partials`, so that is where they are counted."""

    @pytest.mark.parametrize("cid", ["closedness", "k_invariance"])
    @pytest.mark.parametrize("p,q", [(2, 3), (3, 2)])
    def test_at_most_n_derivatives_per_coefficient(self, monkeypatch, cid, p, q):
        import thomform.checks as checks
        from thomform.liealg import SignatureCtx
        from thomform.scalars import PolyGauss

        phi = checks.km_form_at_e(SignatureCtx(p, q))
        monkeypatch.setattr(checks, "km_form_at_e", lambda ctx: phi)
        calls = []
        real = PolyGauss._partials

        def counting(self, indices, *args):
            indices = tuple(indices)
            calls.extend(indices)
            return real(self, indices, *args)

        monkeypatch.setattr(PolyGauss, "_partials", counting)
        assert run_check(cid, p=p, q=q).passed
        assert 0 < len(calls) <= (p + q) * len(phi.terms)

    def test_closedness_and_k_invariance_share_one_gradient(self, monkeypatch):
        """Within one `run_all`, both checks of a signature together take at
        most n partial derivatives per coefficient of phi."""
        from collections import Counter

        import thomform.checks as checks
        from thomform.liealg import SignatureCtx
        from thomform.scalars import PolyGauss

        derives = Counter()
        running = []
        real_partials = PolyGauss._partials

        def counting(self, indices, *args):
            indices = tuple(indices)
            if running:
                derives[running[-1]] += len(indices)
            return real_partials(self, indices, *args)

        def tracked(check):
            def run(p, q):
                running.append((p, q))
                try:
                    return check(p, q)
                finally:
                    running.pop()
            return run

        monkeypatch.setattr(PolyGauss, "_partials", counting)
        for name in ("check_closedness", "check_k_invariance"):
            monkeypatch.setattr(checks, name, tracked(getattr(checks, name)))
        assert all(r.passed for r in run_all(5))
        sigs = [(p, n - p) for n in range(2, 6) for p in range(1, n)]
        assert set(derives) == set(sigs)
        for p, q in sigs:
            terms = len(checks.km_form_at_e(SignatureCtx(p, q)).terms)
            assert derives[p, q] <= (p + q) * terms, (p, q)


class TestSharedForm:
    """`run_all` builds each signature's form and gradients once, for that
    signature only; `run_check` always builds afresh."""

    def test_one_build_per_signature(self, monkeypatch):
        from collections import Counter

        import thomform.checks as checks

        builds = Counter()
        real = checks.km_form_at_e

        def counting(ctx):
            builds[ctx.p, ctx.q] += 1
            return real(ctx)

        monkeypatch.setattr(checks, "km_form_at_e", counting)
        assert all(r.passed for r in run_all(5))
        expected = Counter((p, n - p) for n in range(2, 6) for p in range(1, n))
        expected[1, 1] += 1  # example11, for all its points
        # splitting: the combined signature, then each distinct block signature
        expected.update([(2, 2), (1, 1)])
        expected.update([(2, 3), (1, 1), (1, 2)])
        assert builds == expected

    @pytest.mark.parametrize("fault,caught", [
        ("form_doubles_a_term", ["theorem", "km_closed_form", "closedness", "k_invariance"]),
        ("gradient_drops_d1", ["closedness", "k_invariance"]),
    ])
    def test_fault_after_run_all_is_seen(self, monkeypatch, fault, caught):
        import thomform.checks as checks
        from thomform.scalars import PolyGauss
        from thomform.superforms import SuperForm

        assert all(r.passed for r in run_all(3))
        assert checks._shared.get() is None
        if fault == "form_doubles_a_term":
            real_form = checks.km_form_at_e

            def faulty(ctx):
                (key, pg), *rest = real_form(ctx).terms.items()
                return SuperForm(ctx, [(key, pg * 2), *rest])

            monkeypatch.setattr(checks, "km_form_at_e", faulty)
        else:
            real_gradient = PolyGauss.gradient
            monkeypatch.setattr(
                PolyGauss, "gradient", lambda f: [PolyGauss(f.n)] + real_gradient(f)[1:]
            )
        for cid in caught:
            assert not run_check(cid, p=2, q=1).passed, cid
        failed = {r.check_id for r in run_all(3) if r.params.get("p") == 2 and not r.passed}
        assert failed == set(caught)

    def test_shared_form_is_dropped_when_a_check_raises(self, monkeypatch):
        import thomform.checks as checks

        def boom(p, q):
            raise RuntimeError("planted")

        monkeypatch.setattr(checks, "check_curvature", boom)
        with pytest.raises(RuntimeError, match="planted"):
            run_all(2)
        assert checks._shared.get() is None


class TestExample11:
    def test_default_points(self):
        assert check_example11().passed

    def test_value_at_unit(self):
        import math

        lhs = example11_machinery(1.0, 1.0, 0.0)
        assert abs(lhs - math.exp(-math.pi) / math.sqrt(2.0)) < 1e-14
        assert abs(lhs - example11_paper(1.0, 1.0, 0.0)) < 1e-14

    def test_zero_vector(self):
        assert example11_machinery(2.0, 0.0, 0.0) == 0.0
        assert example11_paper(2.0, 0.0, 0.0) == 0.0


class TestSplitting:
    def test_1_1_plus_1_1(self):
        res = check_splitting(1, 1, 1, 1)
        assert res.passed and res.sign_sigma in (1, -1)

    def test_1_1_plus_1_2(self):
        assert check_splitting(1, 1, 1, 2).passed

    def test_block_vanishing(self):
        # with v supported in block 1 only, the block-2 factor (q2 = 1) is
        # x-linear, so the restricted form vanishes at v2 = 0
        from thomform.checks import block_var_maps, _relabel
        from thomform.km import km_form_at_e
        from thomform.liealg import SignatureCtx

        ctx = SignatureCtx(2, 2)
        map1, map2 = block_var_maps(1, 1, 1, 1)
        f2 = _relabel(km_form_at_e(SignatureCtx(1, 1)), ctx, map2)
        point = [0.3, 0.0, -0.7, 0.0]  # block-2 coordinates set to zero
        for pg in f2.terms.values():
            assert pg.eval(point) == 0.0
