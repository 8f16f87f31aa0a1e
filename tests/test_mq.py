"""Berezin-exponential Thom form: basepoint values, fiber forms,
scaling, transgression, the Euler field, integration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import exp_even
from references import fiber_d as wedge_fiber_d
from thomform.liealg import SignatureCtx, curvature_at_e, eta
from thomform.km import coefficient_gradients, exterior_derivative, km_form_at_e
from thomform.mq import (
    _exp,
    _thom,
    fiber_euler,
    fiber_integrate,
    fiber_omega,
    fiber_scale_pullback,
    fiber_section,
    fiber_transgression,
    fiber_umq,
    mq_phi0_at_e,
    mq_phi_at_e,
)
from thomform.scalars import PolyGauss, Scalar, gauss_exp
from thomform.superforms import FiberCtx, SuperForm

SQRT2 = Scalar.term(1, e2=1)


def d(a: SuperForm) -> SuperForm:
    """The library's one d, through `FiberCtx.d_fields`."""
    return exterior_derivative(a, coefficient_gradients(a))


class TestBasepointForm:
    def test_phi0_1_1(self):
        ctx = SignatureCtx(1, 1)
        expected = SuperForm(
            ctx,
            {
                (((1, 2),), ()): PolyGauss.gaussian([Fraction(0), Fraction(2)])
                * PolyGauss.var(2, 1) * SQRT2 * Scalar.rational(-1)
            },
        )
        assert mq_phi0_at_e(ctx) == expected

    def test_phi_1_1(self):
        ctx = SignatureCtx(1, 1)
        expected = SuperForm(
            ctx,
            {
                (((1, 2),), ()): PolyGauss.gaussian([Fraction(1), Fraction(1)])
                * PolyGauss.var(2, 1) * SQRT2 * Scalar.rational(-1)
            },
        )
        assert mq_phi_at_e(ctx) == expected

    def test_phi_gaussians_are_the_majorant(self):
        for p, q in [(1, 2), (2, 2), (3, 1), (2, 3)]:
            ctx = SignatureCtx(p, q)
            majorant = tuple([Fraction(1)] * (p + q))
            for pg in mq_phi_at_e(ctx).terms.values():
                assert set(pg.parts) == {majorant}

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 2)])
    def test_main_identity_with_recorded_sign(self, p, q):
        ctx = SignatureCtx(p, q)
        sigma = 1 if q % 2 == 0 else -1
        rhs = mq_phi_at_e(ctx).scale(
            Scalar.term(Fraction(sigma), e2=-q)
        )  # sigma * 2^{-q/2}
        assert km_form_at_e(ctx) == rhs


def berezin_exponential(a: SuperForm, gauss: list) -> SuperForm:
    """(-1)^{q(q+1)/2} (2 pi)^{-q/2} exp(-pi sum_i gauss[i] x_i^2) int^B exp(a),
    through the whole power series exp_even(a), every z0 degree expanded:
    the reference for the top-degree builder."""
    q = len(a.ctx.z0)
    sign = -1 if (q * (q + 1) // 2) % 2 else 1
    weight = PolyGauss.gaussian(gauss) * Scalar.term(sign, e2=-q, epi=-q)
    return exp_even(a).berezin().scale(weight)


def basepoint_exponent(ctx: SignatureCtx) -> SuperForm:
    """2 sqrt(pi) sum_alpha x_alpha eta_alpha + rho(R_e)."""
    a = SuperForm(ctx, (
        (key, pg * PolyGauss.var(ctx.nvars, alpha) * Scalar.term(2, epi=1))
        for alpha in range(1, ctx.p + 1)
        for key, pg in eta(ctx, alpha).terms.items()
    ))
    return a + curvature_at_e(ctx)


class TestTopDegreeExponential:
    @pytest.mark.parametrize(
        "p,q", [(p, n - p) for n in range(2, 7) for p in range(1, n)] + [(2, 7), (3, 6)]
    )
    def test_equals_the_full_expansion(self, p, q):
        ctx = SignatureCtx(p, q)
        a = basepoint_exponent(ctx)
        assert mq_phi0_at_e(ctx) == berezin_exponential(a, [0] * p + [2] * q)
        assert mq_phi_at_e(ctx) == berezin_exponential(a, [1] * (p + q))

    @pytest.mark.parametrize("q", range(1, 8))
    def test_fiber_form_equals_the_full_expansion(self, q):
        ctx = FiberCtx(q)
        minus_two_sqrt_pi = PolyGauss.const(q, Scalar.term(-2, epi=1))
        a = SuperForm(ctx, {((i,), (i,)): minus_two_sqrt_pi for i in ctx.z0})
        assert fiber_umq(q) == berezin_exponential(a, [2] * q)


@st.composite
def thom_exponents(draw, q=None):
    """(a, r, gauss): a of bidegree (1,1) with up to three terms per z0
    column, r of bidegree (2,2), both with polynomial coefficients, over a
    small fiber or signature context with q z0 indices (1-3 if not given)."""
    q = q or draw(st.integers(1, 3))
    if draw(st.booleans()):
        ctx, gens = FiberCtx(q), list(range(1, q + 1))
    else:
        ctx = SignatureCtx(draw(st.integers(1, 2)), q)
        gens = ctx.p_pairs()
    n = ctx.nvars

    def coeff():
        const = draw(st.integers(-3, 3))
        slopes = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        pg = PolyGauss.const(n, Scalar.rational(const))
        for i, c in enumerate(slopes, start=1):
            pg = pg + PolyGauss.var(n, i) * Scalar.rational(c)
        return pg

    def subsets(pool, k):
        return st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True).map(
            lambda xs: tuple(sorted(xs))
        )

    a_terms = [
        (((g,), (mu,)), coeff())
        for mu in ctx.z0
        for g in draw(st.lists(st.sampled_from(gens), max_size=3, unique=True))
    ]
    r_terms = []
    if len(gens) >= 2 and len(ctx.z0) >= 2:
        for _ in range(draw(st.integers(0, 2))):
            r_terms.append(((draw(subsets(gens, 2)), draw(subsets(list(ctx.z0), 2))), coeff()))
    gauss = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return SuperForm(ctx, a_terms), SuperForm(ctx, r_terms), gauss


class TestThomFactorization:
    @settings(max_examples=40, deadline=None)
    @given(thom_exponents())
    def test_equals_the_full_expansion(self, drawn):
        # exp(a) as prod_mu (1 + a_mu) against a^k / k! term by term
        a, r, gauss = drawn
        assert _thom(a, r, gauss) == berezin_exponential(a + r, gauss)


class TestExp:
    """`_exp` over every z0 degree is weight times the power series exp_even,
    and over some degrees, those degrees of it."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("q", range(1, 6))
    def test_hermite_argument(self, p, q):
        ctx = SignatureCtx(p, q)
        e1 = eta(ctx, 1)
        a, r = e1.scale(PolyGauss.var(ctx.nvars, 1) * 2), -e1.wedge(e1)
        assert _exp(a, r, PolyGauss.one(ctx.nvars), range(q + 1)) == exp_even(a + r)

    @pytest.mark.parametrize("q", range(1, 6))
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_drawn_pairs(self, q, data):
        a, r, gauss = data.draw(thom_exponents(q))
        weight = PolyGauss.gaussian(gauss) * Scalar.term(Fraction(3, 2), e2=1)
        full = exp_even(a + r).scale(weight)
        assert _exp(a, r, weight, range(q + 1)) == full
        degrees = data.draw(st.sets(st.integers(0, q)))
        part = SuperForm(a.ctx, ((k, pg) for k, pg in full.terms.items() if len(k[1]) in degrees))
        assert _exp(a, r, weight, degrees) == part


class TestFiberUmq:
    @pytest.mark.parametrize("q", range(1, 6))
    def test_closed_form(self, q):
        ctx = FiberCtx(q)
        expected = SuperForm(
            ctx,
            {
                (tuple(ctx.z0), ()): PolyGauss.gaussian([Fraction(2)] * q)
                * Scalar.term(Fraction(1), e2=q)
            },
        )
        assert fiber_umq(q) == expected

    @pytest.mark.parametrize("q", range(1, 6))
    def test_fiber_integral_is_one(self, q):
        assert fiber_integrate(fiber_umq(q)) == Scalar.one()

    @pytest.mark.parametrize("q", range(1, 5))
    def test_top_degree_is_d_closed(self, q):
        assert not d(fiber_umq(q))


class TestTransgression:
    def test_the_check_builds_u_once(self, monkeypatch):
        from thomform import checks, mq

        calls, real = [], mq.fiber_umq

        def counting(q):
            calls.append(q)
            return real(q)

        monkeypatch.setattr(mq, "fiber_umq", counting)
        monkeypatch.setattr(checks, "fiber_umq", counting)
        assert checks.run_check("transgression", q=3).passed
        assert calls == [3]

    def test_psi_q1(self):
        ctx = FiberCtx(1)
        expected = SuperForm(
            ctx,
            {((), ()): PolyGauss.gaussian([Fraction(2)]) * PolyGauss.var(1, 1)
             * SQRT2},
        )
        assert fiber_transgression(1) == expected

    def test_psi_vanishes_at_origin(self):
        for q in range(1, 4):
            psi = fiber_transgression(q)
            for pg in psi.terms.values():
                assert abs(pg.eval([0.0] * q)) == 0.0

    def test_psi_q2_has_the_slot_signs(self):
        # i_E (2 G dx1^dx2) = 2 G (x1 dx2 - x2 dx1), G = e^{-2 pi |x|^2}
        ctx = FiberCtx(2)
        two_g = PolyGauss.gaussian([Fraction(2)] * 2) * Scalar.rational(2)
        expected = SuperForm(ctx, {
            ((2,), ()): two_g * PolyGauss.var(2, 1),
            ((1,), ()): -two_g * PolyGauss.var(2, 2),
        })
        assert fiber_transgression(2) == expected


class TestScalePullback:
    def test_rational_example(self):
        u = fiber_umq(1)
        out = fiber_scale_pullback(u, Fraction(3))
        ctx = FiberCtx(1)
        expected = SuperForm(
            ctx,
            {((1,), ()): PolyGauss.gaussian([Fraction(18)])
             * (SQRT2 * Scalar.rational(3))},
        )
        assert out == expected

    def test_identity_at_one(self):
        for q in (1, 2, 3):
            u = fiber_umq(q)
            assert fiber_scale_pullback(u, Fraction(1)) == u
            psi = fiber_transgression(q)
            assert fiber_scale_pullback(psi, Fraction(1)) == psi

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fiber_scale_pullback(fiber_umq(1), Fraction(0))


class TestFiberCalculus:
    def test_d_squares_to_zero(self):
        ctx = FiberCtx(3)
        a = fiber_omega(ctx)
        assert not d(d(a))

    def test_d_berezin_exchange(self):
        for q in (1, 2, 3):
            ctx = FiberCtx(q)
            a = fiber_omega(ctx).wedge(
                SuperForm(ctx, {((), (1,)): PolyGauss.var(q, 1)})
                + SuperForm.one(ctx)
            )
            assert d(a.berezin()) == d(a).berezin()

    def test_product_rule_example(self):
        # d(sqrt2 x e^{-2 pi x^2}) = sqrt2 (1 - 4 pi x^2) e^{-2 pi x^2} dx
        psi = fiber_transgression(1)
        out = d(psi)
        ctx = FiberCtx(1)
        x2 = PolyGauss.var(1, 1) * PolyGauss.var(1, 1)
        poly = PolyGauss.one(1) + x2 * Scalar.term(Fraction(-4), epi=2)
        expected = SuperForm(
            ctx, {((1,), ()): PolyGauss.gaussian([Fraction(2)]) * poly * SQRT2}
        )
        assert out == expected


def euler_vector(ctx: FiberCtx) -> SuperForm:
    """E = sum_i x_i d/dx_i as the contraction argument sum_i x_i dx_i."""
    return SuperForm(ctx, {((i,), ()): PolyGauss.var(ctx.q, i) for i in ctx.z0})


@st.composite
def fiber_forms(draw, q: int, degree: int) -> SuperForm:
    """Up to three terms of dx-degree ``degree`` (any z0 set), each
    coefficient one to three terms c x^mono exp(-pi sum g_i x_i^2) over one
    Gaussian key g drawn for the form."""
    ctx = FiberCtx(q)
    subsets = st.lists(st.sampled_from(ctx.z0), unique=True).map(lambda xs: tuple(sorted(xs)))
    dx_sets = st.lists(
        st.sampled_from(ctx.z0), unique=True, min_size=degree, max_size=degree
    ).map(lambda xs: tuple(sorted(xs)))
    gauss = st.lists(st.sampled_from([0, 1, 2, Fraction(1, 2)]), min_size=q, max_size=q)
    mono = st.lists(st.integers(0, 2), min_size=q, max_size=q).map(tuple)
    scalar = st.builds(
        lambda r, e2, epi: Scalar.term(r, e2=e2, epi=epi),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        st.integers(0, 1),
        st.integers(-1, 1),
    )
    g = draw(gauss.map(gauss_exp))
    coeff = st.lists(st.tuples(mono, scalar), min_size=1, max_size=3)
    terms = draw(st.dictionaries(
        st.tuples(dx_sets, subsets), coeff.map(lambda pairs: PolyGauss.from_items(q, g, pairs)),
        max_size=3,
    ))
    return SuperForm(ctx, terms)


class TestFiberD:
    @pytest.mark.parametrize("q,degree", [(q, k) for q in range(1, 4) for k in range(q + 1)])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_equals_the_generator_wedges(self, q, degree, data):
        # the flat d against sum_i dx_i ^ d/dx_i as q wedges (tests/references.py)
        a = data.draw(fiber_forms(q, degree))
        assert d(a) == wedge_fiber_d(a)


class TestEulerField:
    @pytest.mark.parametrize("q,degree", [(q, k) for q in range(1, 4) for k in range(q + 1)])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_cartan_formula(self, q, degree, data):
        # L_E = d i_E + i_E d on every fiber form
        a = data.draw(fiber_forms(q, degree))
        e = euler_vector(a.ctx)
        assert fiber_euler(a) == d(a.contract(e)) + d(a).contract(e)

    @pytest.mark.parametrize(
        "mono,i_set", [((0, 0), ()), ((2, 1), ()), ((1, 0), (2,)), ((0, 3), (1, 2))]
    )
    def test_homogeneous_polynomial_forms_scale_by_their_degree(self, mono, i_set):
        # x^mono dx_I is homogeneous of degree |mono| + |I| under x -> t x
        ctx = FiberCtx(2)
        a = SuperForm(ctx, {(i_set, ()): PolyGauss.from_items(2, (0, 0), [(mono, Scalar.one())])})
        assert fiber_euler(a) == a.scale(sum(mono) + len(i_set))

    def test_gaussian_slope(self):
        # E e^{-2 pi x^2} = -4 pi x^2 e^{-2 pi x^2}
        ctx = FiberCtx(1)
        g = PolyGauss.gaussian([2])
        x2 = PolyGauss.var(1, 1) * PolyGauss.var(1, 1)
        expected = SuperForm(ctx, {((), ()): g * x2 * Scalar.term(-4, epi=2)})
        assert fiber_euler(SuperForm(ctx, {((), ()): g})) == expected


class TestAnnihilation:
    @pytest.mark.parametrize("q", range(1, 6))
    def test_kernel_identity(self, q):
        ctx = FiberCtx(q)
        om = fiber_omega(ctx)
        two_sqrt_pi = Scalar.term(Fraction(2), epi=1)
        res = d(om) + om.contract(fiber_section(ctx)).scale(two_sqrt_pi)
        assert not res

    @pytest.mark.parametrize("q", range(1, 4))
    def test_kernel_identity_on_powers(self, q):
        ctx = FiberCtx(q)
        om = fiber_omega(ctx)
        two_sqrt_pi = Scalar.term(Fraction(2), epi=1)
        power = om
        for _ in range(q):
            power = power.wedge(om)
            res = d(power) + power.contract(fiber_section(ctx)).scale(
                two_sqrt_pi
            )
            assert not res


class TestFiberIntegrate:
    def test_odd_integrand_vanishes(self):
        ctx = FiberCtx(2)
        a = SuperForm(
            ctx,
            {((1, 2), ()): PolyGauss.gaussian([Fraction(1), Fraction(1)])
                * PolyGauss.var(2, 1)},
        )
        assert fiber_integrate(a) == Scalar()

    def test_ignores_lower_degree(self):
        ctx = FiberCtx(2)
        a = SuperForm(
            ctx, {((1,), ()): PolyGauss.gaussian([Fraction(1), Fraction(1)])}
        )
        assert fiber_integrate(a) == Scalar()

    def test_hand_value_q1(self):
        # sqrt2 * moment(0, 2) = sqrt2 * 2^{-1/2} = 1
        assert fiber_integrate(fiber_umq(1)) == Scalar.one()
