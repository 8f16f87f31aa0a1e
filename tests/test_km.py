"""The basepoint q-form from Howe operators: values, closed form,
closedness, invariance."""

import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import bracket_dual_coadjoint_action
from thomform import km
from thomform.km import (
    coefficient_gradients,
    exterior_derivative,
    hermite,
    km_closed_form,
    km_form_at_e,
    lie_derivative,
)
from thomform.liealg import LieElement, SignatureCtx
from thomform.scalars import PolyGauss, Scalar, _add_into, gauss_exp, howe_shift
from thomform.superforms import SuperForm, merge_sorted, sort_with_sign

SIGS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (4, 2)]


class TestHermite:
    def test_first_three(self):
        x = PolyGauss.var(1, 1)
        assert hermite(0) == PolyGauss.one(1)
        assert hermite(1) == x * Scalar.rational(2)
        assert hermite(2) == x * x * Scalar.rational(4) - PolyGauss.const(
            1, Scalar.rational(2)
        )

    @pytest.mark.parametrize("n", range(2, 11))
    def test_three_term_recurrence(self, n):
        # H_{n+1} = 2x H_n - 2n H_{n-1}
        x2 = PolyGauss.var(1, 1) * Scalar.rational(2)
        assert hermite(n + 1) == x2 * hermite(n) - hermite(n - 1) * Scalar.rational(
            2 * n
        )


class TestValueExamples:
    def test_signature_1_1(self):
        ctx = SignatureCtx(1, 1)
        expected = SuperForm(
            ctx,
            {
                (((1, 2),), ()): PolyGauss.gaussian([Fraction(1), Fraction(1)])
                * PolyGauss.var(2, 1)
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


def per_tuple_km_form(ctx: SignatureCtx) -> SuperForm:
    """The operator product folded over mu in increasing order, one
    `howe_shift` per index tuple and per mu, wedging each new generator on
    the right: the reference for the count-vector build of `km_form_at_e`."""

    def step(acc: dict[tuple, PolyGauss], mu: int):
        for i_set, pg in acc.items():
            for alpha in range(1, ctx.p + 1):
                new_i, sign = sort_with_sign(i_set + ((alpha, mu),))
                if sign:
                    pg2 = howe_shift(pg, alpha)
                    yield new_i, pg2 if sign > 0 else -pg2

    acc = {(): PolyGauss.gaussian([Fraction(1)] * ctx.nvars)}
    for mu in ctx.z0:
        acc = _add_into({}, step(acc, mu))
    scale = Scalar.term(Fraction(1), e2=-2 * ctx.q)  # 2^{-q}
    return SuperForm(ctx, (((i_set, ()), pg * scale) for i_set, pg in acc.items()))


SIGS_TO_6 = [(p, n - p) for n in range(2, 7) for p in range(1, n)]


class TestCountVectorBuild:
    @pytest.mark.parametrize("p,q", SIGS_TO_6 + [(4, 4), (2, 6)])
    def test_equals_per_tuple_fold(self, p, q):
        ctx = SignatureCtx(p, q)
        phi = km_form_at_e(ctx)
        ref = per_tuple_km_form(ctx)
        assert phi == ref
        assert list(phi.terms) == list(ref.terms)

    @pytest.mark.parametrize("p,q,shifts", [(4, 4, 69), (2, 6, 27), (3, 3, 19), (1, 4, 4)])
    def test_one_howe_shift_per_count_vector(self, monkeypatch, p, q, shifts):
        calls = []

        def counting(a, i):
            calls.append(i)
            return howe_shift(a, i)

        monkeypatch.setattr(km, "howe_shift", counting)
        km_form_at_e(SignatureCtx(p, q))
        assert len(calls) == shifts == math.comb(p + q, q) - 1

    @pytest.mark.parametrize("p,q,distinct", [(4, 4, 66), (2, 6, 12)])
    def test_closed_form_negates_once_per_count_vector(self, p, q, distinct):
        ctx = SignatureCtx(p, q)
        closed = km_closed_form(ctx)
        assert len({id(pg) for pg in closed.terms.values()}) == distinct
        assert len({id(pg) for pg in km_form_at_e(ctx).terms.values()}) == distinct
        assert closed == km_form_at_e(ctx)

    @pytest.mark.parametrize("p,q", [(4, 4), (2, 6), (3, 3), (1, 4)])
    def test_one_gradient_per_distinct_coefficient(self, monkeypatch, p, q):
        phi = km_form_at_e(SignatureCtx(p, q))
        calls = []
        real = PolyGauss.gradient

        def counting(self):
            calls.append(id(self))
            return real(self)

        monkeypatch.setattr(PolyGauss, "gradient", counting)
        grads = coefficient_gradients(phi)
        distinct = {id(pg) for pg in phi.terms.values()}
        assert sorted(calls) == sorted(distinct)
        assert len(calls) <= 2 * math.comb(p + q - 1, q)
        for key, pg in phi.terms.items():
            assert grads[key] == pg.gradient()


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
            out = out + dk * PolyGauss.var(f.n, l) * Scalar.rational(-c)
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
    return bracket_dual_coadjoint_action(x, a) + acted


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


class TestSharedCoefficients:
    """Keys that share one coefficient object share one gradient list, and
    `lie_derivative` applies the field once per list."""

    @pytest.mark.parametrize("p,q", [(3, 2), (2, 3)])
    def test_lie_derivative_under_p_block_generators(self, p, q):
        ctx = SignatureCtx(p, q)
        f = PolyGauss.gaussian([1] * ctx.nvars) * PolyGauss.var(ctx.nvars, 1) * Fraction(3, 7)
        g = f * PolyGauss.var(ctx.nvars, 2) * Fraction(-2, 5)
        keys = list(km_closed_form(ctx).terms)
        a = SuperForm(ctx, {key: (f, g)[k % 2] for k, key in enumerate(keys)})
        grads = coefficient_gradients(a)
        assert len({id(grad) for grad in grads.values()}) == 2 < len(keys)
        p_block = [pair for pair in ctx.k_pairs() if pair[1] <= p]
        assert p_block
        for pair in p_block:
            x = LieElement.basis(ctx, *pair)
            res = lie_derivative(x, a, grads)
            assert res and res == per_row_lie_derivative(x, a)


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
            {((), ()): PolyGauss.gaussian([Fraction(1)] * 3) * PolyGauss.var(3, 1)},
        )
        x = LieElement.basis(ctx, 1, 2)
        assert lie_derivative(x, a, coefficient_gradients(a))


# -- the flat kernel on drawn forms ---------------------------------------


def rich_weights(n: int):
    """One Gaussian weight, drawn per example; no constructed form has a
    weight with unequal or fractional entries."""
    return st.lists(
        st.sampled_from([0, 1, 2, Fraction(1, 2), Fraction(3, 2)]), min_size=n, max_size=n
    ).map(gauss_exp)


def rich_coefficients(n: int, g):
    """Coefficients no constructed form has, over the one weight g: several
    monomials, and two-term scalars in sqrt2 and sqrt(pi) powers."""
    scalars = st.dictionaries(
        st.tuples(st.integers(-1, 2), st.integers(-2, 2)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
        min_size=1, max_size=2,
    ).map(Scalar)
    atoms = st.lists(st.tuples(
        st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple),
        scalars,
    ), min_size=1, max_size=4)
    return atoms.map(lambda mc: PolyGauss.from_items(n, g, mc))


def rich_forms(ctx: SignatureCtx):
    """Sums of omega_I (x) e_J, |I|, |J| <= 2, with `rich_coefficients` of
    one drawn weight."""
    slots = st.sets(st.sampled_from(ctx.p_pairs()), max_size=2).map(sorted).map(tuple)
    z0 = st.sets(st.sampled_from(ctx.z0), max_size=2).map(sorted).map(tuple)
    return rich_weights(ctx.nvars).flatmap(lambda g: st.dictionaries(
        st.tuples(slots, z0), rich_coefficients(ctx.nvars, g), min_size=1, max_size=3
    )).map(lambda terms: SuperForm(ctx, terms))


def items_product(a: PolyGauss, b: PolyGauss) -> PolyGauss:
    """a * b term by term through `items`: exponents add, `Scalar` multiplies."""
    return PolyGauss.from_items(a.n, gauss_exp(map(add, a.g, b.g)), (
        (tuple(map(add, ma, mb)), ca * cb) for ma, ca in a.items() for mb, cb in b.items()
    ))


def items_derive(f: PolyGauss, i: int) -> PolyGauss:
    """d/dx_i through `items`: x^m exp(-pi sum_j g_j x_j^2) gives
    m_i x^(m - e_i) - 2 pi g_i x^(m + e_i), times the same Gaussian."""
    k, g = i - 1, f.g

    def terms():
        for m, c in f.items():
            if m[k]:
                yield m[:k] + (m[k] - 1,) + m[k + 1 :], c * m[k]
            yield m[:k] + (m[k] + 1,) + m[k + 1 :], c * Scalar.term(-2 * g[k], epi=2)

    return PolyGauss.from_items(f.n, g, terms())


def koszul_wedge(a: SuperForm, b: SuperForm) -> SuperForm:
    out = SuperForm(a.ctx)
    for (ia, ja), pga in a.terms.items():
        for (ib, jb), pgb in b.terms.items():
            (i_set, si), (j_set, sj) = merge_sorted(ia, ib), merge_sorted(ja, jb)
            sign = si * sj * (-1) ** (len(ja) * len(ib))
            if sign:
                out = out + SuperForm(a.ctx, {(i_set, j_set): items_product(pga, pgb) * sign})
    return out


DRAWN = SignatureCtx(2, 2)


class TestKernelOnDrawnForms:
    """The flat wedge, gradient, d and L_X agree with term-by-term references
    on coefficients with drawn Gaussian weights, monomials and sqrt terms."""

    @settings(max_examples=25, deadline=None)
    @given(rich_forms(DRAWN), rich_forms(DRAWN))
    def test_wedge(self, a, b):
        assert a.wedge(b) == koszul_wedge(a, b)

    @settings(max_examples=25, deadline=None)
    @given(rich_weights(DRAWN.nvars).flatmap(lambda g: rich_coefficients(DRAWN.nvars, g)))
    def test_gradient(self, f):
        grad = f.gradient()
        assert grad == [f.derive(i) for i in range(1, f.n + 1)]
        assert grad == [items_derive(f, i) for i in range(1, f.n + 1)]

    @settings(max_examples=15, deadline=None)
    @given(rich_forms(DRAWN))
    def test_exterior_derivative(self, a):
        res = exterior_derivative(a, coefficient_gradients(a))
        assert res == per_pair_exterior_derivative(DRAWN, a)

    @settings(max_examples=15, deadline=None)
    @given(rich_forms(DRAWN))
    def test_lie_derivative(self, a):
        grads = coefficient_gradients(a)
        for pair in DRAWN.k_pairs():
            x = LieElement.basis(DRAWN, *pair)
            assert lie_derivative(x, a, grads) == per_row_lie_derivative(x, a)
