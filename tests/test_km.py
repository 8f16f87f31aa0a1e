"""The basepoint q-form from Howe operators: values, closed form,
closedness, invariance."""

import random
from fractions import Fraction

import pytest

from thomform.km import (
    coefficient_gradients,
    exterior_derivative,
    hermite,
    km_closed_form,
    km_form_at_e,
    lie_derivative,
)
from thomform.liealg import LieElement, SignatureCtx, coadjoint_action
from thomform.scalars import Poly, PolyGauss, Scalar
from thomform.superforms import SuperForm, sort_with_sign

SIGS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (4, 2)]


class TestHermite:
    def test_first_three(self):
        x = Poly.var(1, 1)
        assert hermite(0) == Poly.one(1)
        assert hermite(1) == x * Scalar.rational(2)
        assert hermite(2) == x * x * Scalar.rational(4) - Poly.const(
            1, Scalar.rational(2)
        )

    @pytest.mark.parametrize("n", range(2, 11))
    def test_three_term_recurrence(self, n):
        # H_{n+1} = 2x H_n - 2n H_{n-1}
        x2 = Poly.var(1, 1) * Scalar.rational(2)
        assert hermite(n + 1) == x2 * hermite(n) - hermite(n - 1) * Scalar.rational(
            2 * n
        )


class TestValueExamples:
    def test_signature_1_1(self):
        ctx = SignatureCtx(1, 1)
        expected = SuperForm(
            ctx,
            {
                (((1, 2),), ()): PolyGauss.gaussian(
                    [Fraction(1), Fraction(1)], Poly.var(2, 1)
                )
            },
        )
        assert km_form_at_e(ctx) == expected

    def test_signature_1_2_value_at_zero(self):
        ctx = SignatureCtx(1, 2)
        form = km_form_at_e(ctx)
        coeff = form.terms[(((1, 2), (1, 3)), ())]
        # at v = 0 only the constant survives: -1/(4 pi)
        const = Scalar()
        for g, poly in coeff.parts.items():
            zero_mono = tuple([0] * 3)
            if zero_mono in poly.terms:
                const = const + poly.terms[zero_mono]
        assert const == Scalar.term(Fraction(-1, 4), epi=-2)

    def test_bidegree(self):
        for p, q in SIGS[:5]:
            ctx = SignatureCtx(p, q)
            assert {(len(i), len(j)) for i, j in km_form_at_e(ctx).terms} == {(q, 0)}


class TestClosedForm:
    @pytest.mark.parametrize("p,q", SIGS)
    def test_howe_equals_hermite_expansion(self, p, q):
        ctx = SignatureCtx(p, q)
        assert km_form_at_e(ctx) == km_closed_form(ctx)


class TestClosedness:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
    def test_d_vanishes(self, p, q):
        phi = km_form_at_e(SignatureCtx(p, q))
        assert not exterior_derivative(phi, coefficient_gradients(phi))

    def test_d_not_identically_zero(self):
        # sanity: d detects a non-closed form
        ctx = SignatureCtx(1, 1)
        a = SuperForm(
            ctx, {((), ()): PolyGauss.gaussian([Fraction(1), Fraction(1)])}
        )
        assert exterior_derivative(a, coefficient_gradients(a))


def rescaled_closed_form(ctx: SignatureCtx, seed: int) -> SuperForm:
    """`km_closed_form` with a random rational scale on each exterior key:
    neither closed nor K-invariant once p >= 2, so a dropped term shows."""
    rng = random.Random(seed)
    return SuperForm(ctx, (
        (key, pg * Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))
        for key, pg in km_closed_form(ctx).terms.items()
    ))


def per_row_action(x: LieElement, f: PolyGauss) -> PolyGauss:
    """-sum_kl m_kl x_l d_k f with one `derive` per non-zero row k, for
    each X anew: the reference for the shared-gradient Lie layer."""
    rows: dict = {}
    for (k, l), c in x._entries().items():
        rows.setdefault(k, []).append((l, c))
    out = PolyGauss(f.n)
    for k, row in rows.items():
        dk = f.derive(k)
        for l, c in row:
            out = out + dk * PolyGauss.from_poly(Poly.var(f.n, l)) * Scalar.rational(-c)
    return out


def per_pair_exterior_derivative(ctx: SignatureCtx, a: SuperForm) -> SuperForm:
    out = SuperForm(ctx)
    for pair in ctx.p_pairs():
        x = LieElement.basis(ctx, *pair)
        for (i_set, j_set), pg in a.terms.items():
            new_i, sign = sort_with_sign((pair,) + i_set)
            if sign:
                out = out + SuperForm(ctx, {(new_i, j_set): per_row_action(x, pg) * sign})
    return out


def per_row_lie_derivative(x: LieElement, a: SuperForm) -> SuperForm:
    acted = SuperForm(x.ctx, {key: per_row_action(x, pg) for key, pg in a.terms.items()})
    return coadjoint_action(x, a) + acted


SIGS_TO_5 = [(p, n - p) for n in range(2, 6) for p in range(1, n)]


class TestAgainstPerRowReference:
    @pytest.mark.parametrize("p,q", SIGS_TO_5)
    def test_exterior_derivative(self, p, q):
        ctx = SignatureCtx(p, q)
        a = rescaled_closed_form(ctx, seed=10 * p + q)
        res = exterior_derivative(a, coefficient_gradients(a))
        assert res == per_pair_exterior_derivative(ctx, a)
        assert p == 1 or res

    @pytest.mark.parametrize("p,q", SIGS_TO_5)
    def test_lie_derivative(self, p, q):
        ctx = SignatureCtx(p, q)
        a = rescaled_closed_form(ctx, seed=10 * p + q)
        grads = coefficient_gradients(a)
        results = []
        for pair in ctx.k_pairs():
            x = LieElement.basis(ctx, *pair)
            res = lie_derivative(x, a, grads)
            assert res == per_row_lie_derivative(x, a)
            results.append(res)
        assert p == 1 or any(results)


class TestInvariance:
    @pytest.mark.parametrize("p,q", [(2, 1), (1, 2), (2, 2), (3, 2)])
    def test_k_basis_annihilates(self, p, q):
        ctx = SignatureCtx(p, q)
        phi = km_form_at_e(ctx)
        grads = coefficient_gradients(phi)
        for pair in ctx.k_pairs():
            assert not lie_derivative(LieElement.basis(ctx, *pair), phi, grads)

    def test_nonzero_on_noninvariant_form(self):
        ctx = SignatureCtx(2, 1)
        a = SuperForm(
            ctx,
            {((), ()): PolyGauss.gaussian([Fraction(1)] * 3, Poly.var(3, 1))},
        )
        x = LieElement.basis(ctx, 1, 2)
        assert lie_derivative(x, a, coefficient_gradients(a))
