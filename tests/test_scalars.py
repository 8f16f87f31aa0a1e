"""Exact scalar ring, polynomials, and Gaussian-weighted polynomials."""

import itertools
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import thomform
from thomform.scalars import (
    NotRepresentable,
    Poly,
    PolyGauss,
    Scalar,
    _add_into,
    _fold_sqrt2,
    gauss_exp,
    gauss_moment,
    howe_shift,
    linear_field,
    sqrt_in_ring,
)

SQRT2 = Scalar.term(1, e2=1)
PI = Scalar.term(1, epi=2)

fractions = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=8
)

scalars = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(-4, 4)),
    fractions,
    max_size=4,
).map(Scalar)



def assert_str_faithful(c, atoms, zero):
    """Over every sum of at most two atoms, shifted by c: two values print
    the same text exactly when they are equal."""
    values = [c + v for v in [zero] + atoms + [a + b for a, b in itertools.combinations(atoms, 2)]]
    texts = [str(v) for v in values]
    for a, text_a in zip(values, texts):
        for b, text_b in zip(values, texts):
            assert (text_a == text_b) == (a == b), (text_a, text_b)


# Each atom differs from another in one printed feature: a rational, a
# sqrt2 or pi power, a variable exponent, a Gaussian entry, a sum in
# parentheses.
SCALAR_ATOMS = [
    Scalar.term(r, e2=e2, epi=epi)
    for r, e2, epi in [(1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 0, 1), (1, 0, 2), (-1, 0, -1)]
]
POLY_ATOMS = [
    Poly(2, {m: c})
    for m in [(0, 0), (1, 0), (2, 0), (0, 1)]
    for c in [Scalar.one(), SQRT2, Scalar.one() + SQRT2]
]
POLYGAUSS_ATOMS = [
    PolyGauss.gaussian(g, p)
    for g in [(0, 0), (1, 0), (2, 0), (Fraction(1, 2), 1)]
    for p in [Poly.one(2), Poly.var(2, 1), Poly.one(2) + Poly.var(2, 1)]
]

class TestScalarRing:
    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == Scalar.rational(2)

    def test_sqrt_pi_squares_to_pi(self):
        assert Scalar.term(1, epi=1) * Scalar.term(1, epi=1) == PI
        assert PI != Scalar.rational(3)  # pi is never folded

    def test_float_value(self):
        s = Scalar.term(Fraction(3, 2), e2=1, epi=-2)
        assert math.isclose(float(s), 1.5 * math.sqrt(2) / math.pi)

    @given(scalars, scalars, scalars)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Scalar() == a
        assert a * Scalar.one() == a
        assert a - a == Scalar()

    @given(scalars, scalars, st.sampled_from([1, -1]))
    def test_unit_factor_equals_the_general_product(self, s, w, u):
        # the expected value is built coefficient by coefficient, not by a product
        unit = Scalar.rational(u)
        expected = Scalar._of({k: u * r for k, r in s.terms.items()})
        general = s * (unit + w) - s * w
        assert s * unit == unit * s == s * u == u * s == expected == general

    @given(scalars, scalars)
    def test_float_is_a_homomorphism(self, a, b):
        assert math.isclose(
            float(a * b), float(a) * float(b), rel_tol=1e-9, abs_tol=1e-9
        )

    @given(scalars)
    def test_str_is_faithful(self, c):
        assert_str_faithful(c, SCALAR_ATOMS, Scalar())

    def test_power(self):
        s = Scalar.term(Fraction(1, 2), e2=1)
        assert s * s * s * s == Scalar.rational(Fraction(4, 16))


polys = st.builds(
    lambda terms: Poly(2, terms),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), scalars, max_size=3
    ),
)


class TestPoly:
    @given(polys, polys)
    def test_derivative_is_linear(self, a, b):
        assert (a + b).derive(1) == a.derive(1) + b.derive(1)

    @given(polys, polys)
    def test_leibniz(self, a, b):
        assert (a * b).derive(1) == a.derive(1) * b + a * b.derive(1)

    @given(polys)
    def test_partials_commute(self, a):
        assert a.derive(1).derive(2) == a.derive(2).derive(1)

    @given(polys)
    def test_str_is_faithful(self, c):
        assert_str_faithful(c, POLY_ATOMS, Poly(2))

    def test_eval(self):
        p = Poly.var(2, 1) * Poly.var(2, 2) + Poly.one(2)
        assert math.isclose(p.eval([2.0, 3.0]), 7.0)

    @pytest.mark.parametrize("i", [0, 3, -1])
    def test_var_rejects_index_out_of_range(self, i):
        with pytest.raises(ValueError, match="out of range"):
            Poly.var(2, i)

    @pytest.mark.parametrize("i", [0, 3, -1])
    def test_derive_rejects_index_out_of_range(self, i):
        with pytest.raises(ValueError, match="out of range"):
            (Poly.var(2, 1) * Poly.var(2, 2)).derive(i)

    def test_bool_is_non_zero(self):
        assert Poly.var(2, 1) and not Poly(2) and not Poly.var(2, 1) - Poly.var(2, 1)


class TestCanonicalSums:
    """Every constructor takes a mapping or (key, value) pairs, merges equal
    keys and drops zero sums."""

    def test_scalar_pairs(self):
        s = Scalar([((0, 0), 1), ((2, 0), Fraction(1, 2)), ((1, 1), 3), ((1, 1), -3)])
        assert s == Scalar.rational(2)  # sqrt2^2 / 2 folds into the rational
        assert Scalar([((0, 0), 1), ((0, 0), -1)]).terms == {}

    def test_poly_pairs(self):
        x = (1, 0)
        p = Poly(2, [(x, Scalar.one()), ((0, 1), Scalar.one()), (x, -Scalar.one())])
        assert p == Poly.var(2, 2) and list(p.terms) == [(0, 1)]
        assert Poly(2, iter([(x, Scalar())])).terms == {}

    def test_poly_checks_every_monomial(self):
        with pytest.raises(ValueError, match="monomial length"):
            Poly(2, [((1,), Scalar())])

    def test_polygauss_pairs(self):
        g = (Fraction(1), Fraction(0))
        x = Poly.var(2, 1)
        pg = PolyGauss(2, [(g, x), (g, x), ((Fraction(0),) * 2, x), (g, x * -2)])
        assert pg == PolyGauss.from_poly(x)
        assert not PolyGauss(2, [(g, x), (g, -x)])
        with pytest.raises(ValueError, match="dimension"):
            PolyGauss(2, [((Fraction(0),), Poly(2))])

    @given(scalars, scalars)
    def test_sums_stay_canonical(self, a, b):
        for value in (a + b, a * b, a - a, a * 0):
            assert all(value.terms.values())
        p = Poly(2, {(1, 0): a, (0, 1): b})
        for value in (p + p, p * p, p - p, p.derive(1), p * Scalar()):
            assert all(value.terms.values())
        assert not p - p


class TestPolyGauss:
    def test_gaussian_derivative(self):
        g = PolyGauss.gaussian([Fraction(1), Fraction(1)])
        d = g.derive(1)
        expected = g * PolyGauss.from_poly(
            Poly.var(2, 1) * Scalar.term(Fraction(-2), epi=2)
        )
        assert d == expected

    def test_leibniz_with_gaussian(self):
        g = PolyGauss.gaussian([Fraction(2)])
        x = PolyGauss.from_poly(Poly.var(1, 1))
        assert (g * x).derive(1) == g.derive(1) * x + g * x.derive(1)

    @given(st.dictionaries(st.tuples(fractions, fractions), polys, max_size=2))
    def test_str_is_faithful(self, parts):
        assert_str_faithful(PolyGauss(2, parts), POLYGAUSS_ATOMS, PolyGauss(2))

    @given(st.dictionaries(st.tuples(fractions, fractions), polys, max_size=2))
    def test_items_round_trip(self, parts):
        pg = PolyGauss(2, parts)
        assert PolyGauss.from_items(2, pg.items()) == pg
        assert len(list(pg.items())) == sum(len(p.terms) for p in pg.parts.values())

    def test_map_vars(self):
        g = PolyGauss.gaussian([Fraction(1)], Poly.var(1, 1))
        h = g.map_vars({1: 3}, 3)
        assert math.isclose(h.eval([9.0, 9.0, 0.5]), g.eval([0.5]))


class TestGaussMoment:
    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(8)])
    @pytest.mark.parametrize("n", range(0, 9))
    def test_matches_quadrature(self, n, c):
        exact = float(gauss_moment(n, c))
        num, _ = quad(
            lambda x: x ** n * math.exp(-float(c) * math.pi * x * x),
            -math.inf,
            math.inf,
        )
        assert abs(exact - num) <= 1e-12 * max(1.0, abs(num))

    def test_odd_moments_vanish(self):
        assert gauss_moment(3, Fraction(2)) == Scalar()

    def test_normalization_examples(self):
        assert gauss_moment(0, Fraction(1)) == Scalar.one()
        assert gauss_moment(0, Fraction(2)) == Scalar.term(
            Fraction(1, 2), e2=1
        )  # 2^{-1/2}

    def test_unrepresentable_exponent(self):
        with pytest.raises(NotRepresentable):
            gauss_moment(0, Fraction(3))
        with pytest.raises(NotRepresentable):
            gauss_moment(2, Fraction(-1))

    def test_sqrt_in_ring(self):
        assert sqrt_in_ring(Fraction(9, 4)) == Scalar.rational(Fraction(3, 2))
        assert sqrt_in_ring(Fraction(2)) == SQRT2
        with pytest.raises(NotRepresentable):
            sqrt_in_ring(Fraction(5))


class TestHoweShift:
    def test_single_application(self):
        g = PolyGauss.gaussian([Fraction(1)])
        out = howe_shift(g, 1)
        expected = g * PolyGauss.from_poly(Poly.var(1, 1) * Scalar.rational(2))
        assert out == expected

    @settings(max_examples=20)
    @given(st.integers(1, 10))
    def test_matches_scaled_hermite(self, n):
        from thomform.km import hermite_scaled

        g = PolyGauss.gaussian([Fraction(1)])
        lhs = g
        for _ in range(n):
            lhs = howe_shift(lhs, 1)
        rhs = (
            PolyGauss.from_poly(hermite_scaled(n, 1, 1))
            * g
            * Scalar.term(Fraction(1), e2=-n, epi=-n)
        )
        assert lhs == rhs


gauss_entries = st.one_of(st.integers(-2, 2), st.sampled_from([Fraction(1, 2), Fraction(-3, 2)]))


class TestMixedTypeProducts:
    """An operand a type does not know is handed to the other operand's
    __rmul__: a Scalar scales a Poly or PolyGauss from either side, and an
    unsupported pair raises TypeError."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_scalar_times_poly(self, n):
        x = Poly.var(n, 1)
        expected = Poly(n, {(1,) + (0,) * (n - 1): SQRT2})
        assert SQRT2 * x == expected == x * SQRT2

    def test_scalar_times_polygauss(self):
        g = PolyGauss.gaussian([1, 1])
        assert Scalar.one() * g == g
        assert SQRT2 * g == g * SQRT2 == PolyGauss.gaussian(
            [1, 1], Poly.const(2, SQRT2)
        )

    def test_poly_times_polygauss_is_a_type_error(self):
        x, g = Poly.var(2, 1), PolyGauss.gaussian([1, 1])
        with pytest.raises(TypeError):
            x * g
        with pytest.raises(TypeError):
            g * x

    @pytest.mark.parametrize(
        "value", [SQRT2, Poly.var(2, 1), PolyGauss.gaussian([1, 1])]
    )
    def test_float_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            value * 0.5
        with pytest.raises(TypeError):
            0.5 * value


class TestKernelReferences:
    """The integer fast paths agree with the Fraction formulas they replace."""

    @pytest.mark.parametrize("r", [Fraction(1), Fraction(-3, 7), Fraction(5, 4), Fraction(0)])
    def test_fold_sqrt2_matches_fraction_power(self, r):
        for e2 in range(-12, 13):
            for epi in (-1, 0, 3):
                assert _fold_sqrt2(e2, epi, r) == ((e2 % 2, epi), r * Fraction(2) ** (e2 // 2))

    def test_gauss_exp_is_int_exactly_when_integral(self):
        values = [0, 2, -3, Fraction(4, 2), Fraction(0), Fraction(1, 2), Fraction(-3, 4), "5/3", 3.0]
        for value, entry in zip(values, gauss_exp(values)):
            assert entry == Fraction(value)
            assert (type(entry) is int) == (Fraction(value).denominator == 1)

    @given(
        st.dictionaries(st.tuples(gauss_entries, gauss_entries), polys, max_size=2),
        st.dictionaries(st.tuples(gauss_entries, gauss_entries), polys, max_size=2),
    )
    def test_int_and_fraction_keys_agree(self, a_parts, b_parts):
        def both(parts):
            as_fraction = {tuple(map(Fraction, g)): p for g, p in parts.items()}
            as_int = {gauss_exp(g): p for g, p in parts.items()}
            return PolyGauss(2, as_fraction), PolyGauss(2, as_int)

        (af, ai), (bf, bi) = both(a_parts), both(b_parts)
        assert af == ai and str(af) == str(ai)
        for f, i in [(af + bf, ai + bi), (af + bi, ai + bf), (af * bf, ai * bi), (af * bi, ai * bf)]:
            assert f == i and str(f) == str(i)

    def test_constructed_forms_have_int_keys(self):
        from thomform.km import km_form_at_e
        from thomform.liealg import SignatureCtx
        from thomform.mq import fiber_umq, mq_phi_at_e

        ctx = SignatureCtx(2, 2)
        for form in (km_form_at_e(ctx), mq_phi_at_e(ctx), fiber_umq(3)):
            keys = [g for pg in form.terms.values() for g in pg.parts]
            assert keys and all(type(c) is int for g in keys for c in g)


def general_sum(a: Scalar, b: Scalar) -> Scalar:
    return Scalar._of(_add_into(dict(a.terms), b.terms.items()))


def general_product(a: Scalar, b: Scalar) -> Scalar:
    return Scalar._of(_add_into({}, (
        _fold_sqrt2(a2 + b2, api + bpi, ra * rb)
        for (a2, api), ra in a.terms.items()
        for (b2, bpi), rb in b.terms.items()
    )))


# One non-zero term; few keys, so that two draws often share one, and any
# sqrt2 power, so that odd e2 on both sides carries a factor 2.
single_terms = st.builds(
    lambda r, e2, epi: Scalar.term(r, e2=e2, epi=epi),
    fractions.filter(bool), st.integers(-3, 3), st.integers(-1, 1),
)


class TestSingleTermFastPaths:
    """The one-term sum, the one-term product and the +-1 linear field agree
    with the general `_add_into` results."""

    @given(single_terms, single_terms)
    def test_sum(self, a, b):
        assert (a + b).terms == general_sum(a, b).terms
        assert (a + -a).terms == general_sum(a, -a).terms == {}

    @given(single_terms, single_terms)
    def test_product(self, a, b):
        assert (a * b).terms == general_product(a, b).terms

    @pytest.mark.parametrize("a2,b2", [(1, 1), (1, -1), (-1, -1), (3, 1)])
    def test_odd_sqrt2_powers_carry(self, a2, b2):
        a = Scalar.term(Fraction(3, 5), e2=a2, epi=1)
        b = Scalar.term(Fraction(-7, 2), e2=b2, epi=-1)
        carry = Fraction(2) ** ((a2 + b2) // 2)
        expected = Scalar.rational(Fraction(3, 5) * Fraction(-7, 2) * carry)
        assert (a * b).terms == general_product(a, b).terms == expected.terms

    def test_cancelling_sum_is_zero(self):
        a = Scalar.term(Fraction(5, 3), e2=1, epi=-2)
        b = Scalar.term(Fraction(-5, 3), e2=1, epi=-2)
        assert (a + b).terms == {} and not a + b

    @given(
        st.dictionaries(st.tuples(gauss_entries, gauss_entries), polys, max_size=2),
        st.dictionaries(
            st.tuples(st.integers(1, 2), st.integers(1, 2)),
            st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)]),
            max_size=3,
        ),
    )
    def test_linear_field(self, parts, entries):
        grad = PolyGauss(2, parts).gradient()
        expected = PolyGauss.from_items(2, (
            (g, tuple(e + (i == l - 1) for i, e in enumerate(mono)),
             general_product(s, Scalar.rational(c)))
            for (k, l), c in entries.items()
            for g, mono, s in grad[k - 1].items()
        ))
        assert linear_field(grad, entries) == expected


def test_only_scalars_knows_the_coefficient_format():
    """Every other module walks a PolyGauss through items()/from_items()."""
    package = pathlib.Path(thomform.__file__).parent
    readers = sorted(
        path.name for path in package.glob("*.py")
        if path.name != "scalars.py" and ".parts" in path.read_text()
    )
    assert readers == []
