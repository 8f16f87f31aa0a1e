"""so(p,q) structure: brackets, Cartan splitting, curvature, actions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import bracket_dual_coadjoint_action, generator
from thomform import km, liealg
from thomform.liealg import (
    LieElement,
    SignatureCtx,
    bracket,
    curvature_at_e,
    eta,
    schwartz_action,
)
from thomform.km import coefficient_gradients, km_form_at_e, lie_derivative
from thomform.scalars import PolyGauss, Scalar
from thomform.superforms import SuperForm

CTXS = [SignatureCtx(p, q) for p, q in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]]
SMALL = [SignatureCtx(p, n - p) for n in range(2, 7) for p in range(1, n)]
UP_TO_8 = [SignatureCtx(p, n - p) for n in range(2, 9) for p in range(1, n)]


def all_pairs(ctx):
    """Every basis pair (i, j), i < j, in lexicographic order."""
    return list(itertools.combinations(range(1, ctx.n + 1), 2))


def combination(ctx, *terms):
    """sum_i r_i x_i over the (r_i, x_i) of ``terms``, from coordinate pairs:
    `LieElement` has no vector space operators."""
    return LieElement(ctx, ((pair, r * c) for r, x in terms for pair, c in x.coords.items()))


def elements(ctx):
    coeff = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3)
    return st.dictionaries(
        st.sampled_from(all_pairs(ctx)), coeff, max_size=4
    ).map(lambda c: LieElement(ctx, c))


class TestBrackets:
    def test_known_values_2_1(self):
        c = SignatureCtx(2, 1)
        x12 = LieElement.basis(c, 1, 2)
        x13 = LieElement.basis(c, 1, 3)
        x23 = LieElement.basis(c, 2, 3)
        assert bracket(x12, x13) == combination(c, (-1, x23))
        assert bracket(x12, x23) == x13

    def test_known_values_2_2(self):
        c = SignatureCtx(2, 2)
        assert bracket(
            LieElement.basis(c, 1, 3), LieElement.basis(c, 2, 3)
        ) == LieElement.basis(c, 1, 2)
        assert bracket(
            LieElement.basis(c, 1, 3), LieElement.basis(c, 2, 4)
        ) == LieElement(c)

    def test_p_bracket_identity(self):
        # the closed form in the liealg docstring, with X_{ji} = -X_{ij}:
        # [X_{a mu}, X_{b nu}] = delta_{mu nu} X_{ab} - delta_{ab} X_{mu nu}
        for c in SMALL:
            for (a, mu), (b, nu) in itertools.product(c.p_pairs(), repeat=2):
                lhs = bracket(LieElement.basis(c, a, mu), LieElement.basis(c, b, nu))
                rhs = []
                if mu == nu and a != b:
                    rhs.append(((min(a, b), max(a, b)), 1 if a < b else -1))
                if a == b and mu != nu:
                    rhs.append(((min(mu, nu), max(mu, nu)), -1 if mu < nu else 1))
                assert lhs == LieElement(c, rhs)

    @pytest.mark.parametrize("ctx", CTXS, ids=str)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_antisymmetry_and_jacobi(self, ctx, data):
        x = data.draw(elements(ctx))
        y = data.draw(elements(ctx))
        z = data.draw(elements(ctx))
        assert bracket(x, y) == combination(ctx, (-1, bracket(y, x)))
        jac = combination(
            ctx,
            (1, bracket(x, bracket(y, z))),
            (1, bracket(y, bracket(z, x))),
            (1, bracket(z, bracket(x, y))),
        )
        assert jac == LieElement(ctx)

    @pytest.mark.parametrize("ctx", CTXS, ids=str)
    def test_cartan_relations(self, ctx):
        # [k,k] in k, [k,p] in p, [p,p] in k, on basis elements
        for a in ctx.k_pairs():
            for b in ctx.k_pairs():
                assert bracket(
                    LieElement.basis(ctx, *a), LieElement.basis(ctx, *b)
                ).in_k()
            for b in ctx.p_pairs():
                br = bracket(LieElement.basis(ctx, *a), LieElement.basis(ctx, *b))
                assert set(br.coords) <= set(ctx.p_pairs())
        for a in ctx.p_pairs():
            for b in ctx.p_pairs():
                assert bracket(
                    LieElement.basis(ctx, *a), LieElement.basis(ctx, *b)
                ).in_k()


class TestCanonicalCoords:
    def test_pairs_merge_and_drop(self):
        ctx = SignatureCtx(2, 1)
        x = LieElement(ctx, [((1, 2), 1), ((1, 3), 2), ((1, 2), -1), ((2, 3), 0)])
        assert x.coords == {(1, 3): Fraction(2)}
        assert combination(ctx, (1, x), (-1, x)) == LieElement(ctx)
        assert combination(ctx, (0, x)) == LieElement(ctx)

    def test_rejects_a_bad_pair_with_a_non_zero_coefficient(self):
        ctx = SignatureCtx(2, 1)
        with pytest.raises(ValueError, match="bad basis pair"):
            LieElement(ctx, {(2, 1): 1})
        assert LieElement(ctx, {(2, 1): 0}) == LieElement(ctx)

    def test_zero_test_is_bool(self):
        ctx = SignatureCtx(1, 1)
        x = LieElement.basis(ctx, 1, 2)
        assert not LieElement(ctx) and not combination(ctx, (1, x), (-1, x))
        assert not bracket(x, x)
        assert x and bool(combination(ctx, (Fraction(1, 2), x))) and not combination(ctx, (0, x))

    def test_has_no_vector_space_operators(self):
        # equality and the zero test stay; arithmetic is a loud TypeError
        ctx = SignatureCtx(2, 1)
        x, y = LieElement.basis(ctx, 1, 2), LieElement.basis(ctx, 1, 2)
        assert x is not y and x == y and x != LieElement.basis(ctx, 1, 3)
        for op in (lambda: x + y, lambda: x - y, lambda: -x, lambda: x * 2, lambda: 2 * x):
            with pytest.raises(TypeError):
                op()


class TestCurvature:
    @pytest.mark.parametrize(
        "p,q", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 4), (5, 2), (3, 4)]
    )
    def test_equals_eta_squares(self, p, q):
        ctx = SignatureCtx(p, q)
        rhs = SuperForm(ctx)
        for alpha in range(1, p + 1):
            e = eta(ctx, alpha)
            rhs = rhs + e.wedge(e)
        assert curvature_at_e(ctx) == rhs.scale(Scalar.rational(Fraction(-1, 2)))

    def test_explicit_1_2(self):
        ctx = SignatureCtx(1, 2)
        expected = SuperForm(
            ctx,
            {(((1, 2), (1, 3)), (2, 3)): PolyGauss.one(3)},
        )
        assert curvature_at_e(ctx) == expected


class TestSchwartzAction:
    def test_on_gaussian(self):
        ctx = SignatureCtx(2, 1)
        g = PolyGauss.gaussian([Fraction(1)] * 3)
        x12 = LieElement.basis(ctx, 1, 2)
        out = schwartz_action(x12, g.gradient())
        assert not out  # rotation in a positive 2-plane fixes |x|^2

    def test_on_boost(self):
        ctx = SignatureCtx(1, 1)
        g = PolyGauss.gaussian([Fraction(1), Fraction(1)])
        x12 = LieElement.basis(ctx, 1, 2)
        out = schwartz_action(x12, g.gradient())
        # boost moves the Gaussian: -(Xv).grad = 4 pi x1 x2 g
        expected = g * PolyGauss.var(2, 1) * PolyGauss.var(2, 2) * Scalar.term(4, epi=2)
        assert out == expected

    def test_bracket_compatibility(self):
        ctx = SignatureCtx(2, 1)
        f = PolyGauss.gaussian([Fraction(1)] * 3) * PolyGauss.var(3, 1) * PolyGauss.var(3, 3)
        def act(x, g):
            return schwartz_action(x, g.gradient())

        for a, b in itertools.combinations(all_pairs(ctx), 2):
            x = LieElement.basis(ctx, *a)
            y = LieElement.basis(ctx, *b)
            lhs = act(x, act(y, f)) - act(y, act(x, f))
            assert lhs == act(bracket(x, y), f)


def slot_action(x, a):
    """`lie_derivative` on a form with constant coefficients: there the
    action on coefficients vanishes, so this is the coadjoint action on the
    exterior slots alone."""
    grads = coefficient_gradients(a)
    assert not any(d for grad in grads.values() for d in grad), "a coefficient is not constant"
    return lie_derivative(x, a, grads)


class TestCoadjointAction:
    def test_z0_rotation_example(self):
        ctx = SignatureCtx(1, 2)
        x23 = LieElement.basis(ctx, 2, 3)
        a = SuperForm(ctx, {((), (2,)): PolyGauss.one(3)})
        out = slot_action(x23, a)
        assert out == SuperForm(ctx, {((), (3,)): PolyGauss.one(3)})

    def test_dual_action_example(self):
        ctx = SignatureCtx(2, 1)
        x12 = LieElement.basis(ctx, 1, 2)
        w13 = SuperForm(ctx, {(((1, 3),), ()): PolyGauss.one(3)})
        out = slot_action(x12, w13)
        expected = SuperForm(
            ctx, {(((2, 3),), ()): PolyGauss.const(3, Scalar.rational(-1))}
        )
        assert out == expected

    def test_requires_k(self):
        ctx = SignatureCtx(1, 1)
        with pytest.raises(ValueError):
            slot_action(
                LieElement.basis(ctx, 1, 2), SuperForm.one(ctx)
            )

    def test_is_a_derivation(self):
        ctx = SignatureCtx(2, 2)
        x = LieElement(ctx, {(1, 2): 1, (3, 4): 1})
        a = eta(ctx, 1)
        b = eta(ctx, 2) + generator(ctx, (1, 3))
        lhs = slot_action(x, a.wedge(b))
        rhs = slot_action(x, a).wedge(b) + a.wedge(slot_action(x, b))
        assert lhs == rhs


def k_elements(ctx):
    coeff = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3)
    return st.dictionaries(
        st.sampled_from(ctx.k_pairs()), coeff, min_size=1, max_size=4
    ).map(lambda c: LieElement(ctx, c))


def monomial_forms(ctx):
    """Sums of omega_I (x) e_J with |I|, |J| <= 2: no invariance hides a slot."""
    slots = st.sets(st.sampled_from(ctx.p_pairs()), max_size=2)
    z0 = st.sets(st.sampled_from(ctx.z0), max_size=2)
    keys = st.lists(st.tuples(slots, z0), min_size=1, max_size=4)
    one = PolyGauss.one(ctx.nvars)
    return keys.map(lambda ks: SuperForm(
        ctx, {(tuple(sorted(i)), tuple(sorted(j))): one for i, j in ks}
    ))


class TestColumnRule:
    """`lie_derivative`'s slot moves read columns of X; the reference
    brackets. The km form, whose coefficients are not constant, is compared
    with the same reference in test_km.py."""

    @pytest.mark.parametrize("ctx", [c for c in SMALL if c.k_pairs()], ids=str)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_matches_the_bracket_dual_action(self, ctx, data):
        x = data.draw(k_elements(ctx))
        etas = [eta(ctx, alpha) for alpha in range(1, ctx.p + 1)]
        eta_eta = etas[0].wedge(etas[-1]) + etas[0].wedge(etas[0])
        drawn = data.draw(monomial_forms(ctx))
        for form in [curvature_at_e(ctx), eta_eta, drawn]:
            assert slot_action(x, form) == bracket_dual_coadjoint_action(x, form)

    def test_calls_no_bracket(self, monkeypatch):
        def no_bracket(x, y):
            raise AssertionError("lie_derivative called bracket")

        monkeypatch.setattr(liealg, "bracket", no_bracket)
        assert not hasattr(km, "bracket")
        ctx = SignatureCtx(3, 2)
        x = LieElement(ctx, {(1, 2): 1, (4, 5): 1})
        assert slot_action(x, eta(ctx, 1).wedge(eta(ctx, 2)))


class TestCartanSplit:
    @pytest.mark.parametrize("ctx", SMALL, ids=str)
    def test_splitting_is_direct(self, ctx):
        # p joins the two blocks {1..p} and z0; k stays inside one of them
        p_part = [(i, j) for i in range(1, ctx.p + 1) for j in ctx.z0]
        assert ctx.p_pairs() == p_part
        assert sorted(ctx.k_pairs() + p_part) == all_pairs(ctx)
        x = LieElement(ctx, {pair: n for n, pair in enumerate(all_pairs(ctx), start=1)})
        k_part = LieElement(ctx, {pair: x.coords[pair] for pair in ctx.k_pairs()})
        rest = combination(ctx, (1, x), (-1, k_part))
        assert k_part.in_k() and not rest.in_k()
        assert set(rest.coords) == set(p_part)


def realization(ctx, i, j):
    """The module docstring's matrix of X_ij, from matrix units."""
    n, p = ctx.n, ctx.p
    m = [[0] * n for _ in range(n)]
    sign_ij, sign_ji = (1, 1) if i <= p < j else (1, -1) if j <= p else (-1, 1)
    m[i - 1][j - 1] = sign_ij
    m[j - 1][i - 1] = sign_ji
    return m


def dense(x):
    """sum c X_ij over the coordinates of x, from the realization alone."""
    n = x.ctx.n
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in x.coords.items():
        for r, row in enumerate(realization(x.ctx, i, j)):
            for col, v in enumerate(row):
                m[r][col] += c * v
    return m


def from_dense(ctx, m):
    """The element whose realization is m, which must lie in so(p,q)."""
    x = LieElement(ctx, {
        (i, j): m[i - 1][j - 1] * realization(ctx, i, j)[i - 1][j - 1]
        for i, j in all_pairs(ctx)
    })
    assert dense(x) == m, "not in so(p,q)"
    return x


def dense_bracket(x, y):
    a, b = dense(x), dense(y)
    n = len(a)
    comm = [
        [sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return from_dense(x.ctx, comm)


def dense_schwartz_action(x, f):
    """-sum_k (Xv)_k d_k f, with (Xv)_k built as a polynomial."""
    n = x.ctx.n
    m = dense(x)
    out = PolyGauss(n)
    for k in range(1, n + 1):
        lin = PolyGauss(n)
        for l in range(1, n + 1):
            lin = lin + PolyGauss.var(n, l) * Scalar.rational(m[k - 1][l - 1])
        out = out - f.derive(k) * lin
    return out


class TestSparseLayer:
    @pytest.mark.parametrize("ctx", SMALL, ids=str)
    def test_matrix_is_the_realization(self, ctx):
        for i, j in all_pairs(ctx):
            x = LieElement.basis(ctx, i, j)
            assert x._entries() == {
                (r + 1, c + 1): v
                for r, row in enumerate(realization(ctx, i, j))
                for c, v in enumerate(row) if v
            }

    @pytest.mark.parametrize("ctx", SMALL, ids=str)
    def test_basis_brackets_match_dense(self, ctx):
        basis = [LieElement.basis(ctx, *pair) for pair in all_pairs(ctx)]
        for x in basis:
            for y in basis:
                assert bracket(x, y) == dense_bracket(x, y)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_brackets_match_dense(self, data):
        ctx = data.draw(st.sampled_from(UP_TO_8))
        coeff = st.fractions(
            min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7
        )
        draw = st.dictionaries(st.sampled_from(all_pairs(ctx)), coeff, max_size=12)
        x = LieElement(ctx, data.draw(draw))
        y = LieElement(ctx, data.draw(draw))
        assert bracket(x, y) == dense_bracket(x, y)

    def test_from_entries_rejects_non_members(self):
        # the membership check that bracket keeps
        ctx = SignatureCtx(2, 2)
        for entry in [(1, 3), (1, 2), (3, 4), (2, 2)]:
            with pytest.raises(ValueError, match="so\\(p,q\\)"):
                LieElement._from_entries(ctx, {entry: Fraction(1)})  # a lone entry
        for i, j in all_pairs(ctx):  # and both entries of an element pass
            x = LieElement(ctx, {(i, j): 3})
            assert LieElement._from_entries(ctx, x._entries()) == x

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2)])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_schwartz_action_matches_dense(self, p, q, data):
        ctx = SignatureCtx(p, q)
        x = data.draw(elements(ctx))
        for pg in km_form_at_e(ctx).terms.values():
            assert schwartz_action(x, pg.gradient()) == dense_schwartz_action(x, pg)
