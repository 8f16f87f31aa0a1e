"""Exact scalar ring, polynomials, and Gaussian-weighted polynomials."""

import inspect
import itertools
import math
import pathlib
import re
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import thomform
from references import generator
from thomform.scalars import (
    Inhomogeneous,
    NotRepresentable,
    Poly,
    PolyGauss,
    Scalar,
    _add_into,
    _W,
    _FlatSum,
    _fold_sqrt2,
    gauss_exp,
    gauss_moment,
    howe_shift,
    sqrt_in_ring,
)

SQRT2 = Scalar.term(1, e2=1)
PI = Scalar.term(1, epi=2)

fractions = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=8
)

scalar_grades = st.tuples(st.integers(0, 1), st.integers(-4, 4))


def scalars_at(s):
    """r * sqrt2^e2 * sqrt(pi)^epi for the grade s = (e2, epi), zero included."""
    e2, epi = s
    return fractions.map(lambda r: Scalar.term(r, e2=e2, epi=epi))


# One graded rational each.
scalars = scalar_grades.flatmap(scalars_at)


def same_grade_scalars(k: int):
    """k scalars of one drawn grade."""
    return scalar_grades.flatmap(lambda s: st.tuples(*[scalars_at(s)] * k))


def shifted_sums(c, atoms, zero) -> list:
    """c plus each sum of at most two atoms."""
    return [c + v for v in [zero] + atoms + [a + b for a, b in itertools.combinations(atoms, 2)]]


def assert_faithful(values):
    """Two values print the same text exactly when they are equal."""
    texts = [str(v) for v in values]
    for a, text_a in zip(values, texts):
        for b, text_b in zip(values, texts):
            assert (text_a == text_b) == (a == b), (text_a, text_b)


def assert_grouped_str_faithful(c, groups: dict, key, zero):
    """Over every sum of at most two atoms of one group of ``groups`` {key:
    atoms}, shifted by c in the group of c's ``key``, and c itself when no
    group has its key: two values print the same text exactly when they are
    equal. Values of two groups do not add."""
    values = [] if key(c) in groups else [c]
    for k, atoms in groups.items():
        values += shifted_sums(c if key(c) == k else zero, atoms, zero)
    assert_faithful(values)


# The term of x^mono of the coordinate y_i = sqrt(pi) x_i reads in y: c * y^mono.
def in_y(mono: tuple, c: Scalar) -> Scalar:
    return c * Scalar.term(1, epi=sum(mono))


def weighted(g, terms) -> PolyGauss:
    """The sum of c * y^mono over ``terms`` {mono: Scalar}, y = sqrt(pi) x,
    times the one Gaussian exp(-pi sum_i g_i x_i^2), in two variables; g is
    kept as given. Coefficients c of one grade give one grade."""
    return PolyGauss.from_items(2, g, ((m, in_y(m, c)) for m, c in terms.items()))


ZERO_WEIGHT = (0, 0)

# Each atom differs from another in one printed feature: a rational, a
# sqrt2 or pi power, a variable exponent, a Gaussian entry, a sum in
# parentheses. {grade: atoms of that one grade}
SCALAR_ATOMS = {
    (e2, epi): [Scalar.term(r, e2=e2, epi=epi) for r in (1, 2, Fraction(-1, 3))]
    for e2, epi in [(0, 0), (1, 0), (0, 1), (0, 2), (0, -1), (1, 3)]
}
# {grade: atoms of that one grade}
POLY_ATOMS = {
    PolyGauss.const(2, c).s: [weighted(ZERO_WEIGHT, {m: c}) for m in [(0, 0), (1, 0), (2, 0), (0, 1)]]
    for c in [Scalar.one(), SQRT2, Scalar.term(1, epi=1)]
}
# The stored record of x_1, read from the `parts` view.
X_POLY = PolyGauss.var(2, 1).parts[ZERO_WEIGHT]
# {(weight, grade): atoms of that one weight and grade (0, 0)}
POLYGAUSS_ATOMS = {
    (gauss_exp(g), (0, 0)): [
        weighted(gauss_exp(g), terms)
        for terms in [{(0, 0): Scalar.one()}, {(1, 0): Scalar.one()},
                      {(0, 0): Scalar.one(), (1, 0): Scalar.one()}]
    ]
    for g in [(0, 0), (1, 0), (2, 0), (Fraction(1, 2), 1)]
}

class TestScalarRing:
    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == Scalar.rational(2)

    def test_sqrt_pi_squares_to_pi(self):
        assert Scalar.term(1, epi=1) * Scalar.term(1, epi=1) == PI
        assert PI != Scalar.rational(3)  # pi is never folded

    def test_float_value(self):
        s = Scalar.term(Fraction(3, 2), e2=1, epi=-2)
        assert math.isclose(float(s), 1.5 * math.sqrt(2) / math.pi)

    @given(same_grade_scalars(3), scalars)
    def test_ring_axioms(self, abc, d):
        # sums within one grade, products of any two
        a, b, c = abc
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * d == d * a
        assert (a * b) * d == a * (b * d)
        assert d * (b + c) == d * b + d * c
        assert a + Scalar() == a
        assert a * Scalar.one() == a
        assert a + -a == Scalar()

    @given(scalars, scalars_at((0, 0)), st.sampled_from([1, -1]))
    def test_unit_factor_equals_the_general_product(self, s, w, u):
        # the expected value is built coefficient by coefficient, not by a product
        unit = Scalar.rational(u)
        expected = Scalar._of({k: u * r for k, r in s.terms.items()})
        general = s * (unit + w) + -(s * w)
        assert s * unit == unit * s == s * u == u * s == expected == general

    @given(same_grade_scalars(2), scalars)
    def test_float_is_a_homomorphism(self, ab, d):
        a, b = ab
        assert math.isclose(float(a * d), float(a) * float(d), rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(float(a + b), float(a) + float(b), rel_tol=1e-9, abs_tol=1e-9)

    @given(scalars)
    def test_str_is_faithful(self, c):
        # c shifts the atoms of its own grade; the others print unshifted
        assert_grouped_str_faithful(c, SCALAR_ATOMS, lambda v: next(iter(v.terms), None), Scalar())

    def test_power(self):
        s = Scalar.term(Fraction(1, 2), e2=1)
        assert s * s * s * s == Scalar.rational(Fraction(4, 16))


# One grade (e2, gamma), drawn per example.
grades = st.tuples(st.integers(0, 1), st.integers(-1, 1))


def poly_terms_at(s):
    """{monomial: coefficient}, each coefficient of the one grade s, read in y."""
    e2, gamma = s
    return st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        fractions.map(lambda r: Scalar.term(r, e2=e2, epi=gamma)),
        max_size=3,
    )


poly_terms = grades.flatmap(poly_terms_at)
# Polynomials in y: weight zero, one grade.
polys = poly_terms.map(lambda terms: weighted(ZERO_WEIGHT, terms))
# One Gaussian weight: one the atoms carry, or any.
weights = st.one_of(
    st.sampled_from([g for g, _s in POLYGAUSS_ATOMS]),
    st.tuples(fractions, fractions).map(gauss_exp),
)


def monomial(mono: tuple, c: Scalar) -> PolyGauss:
    """c * y^mono in two variables, y_i = sqrt(pi) x_i, from `PolyGauss.const`
    and `PolyGauss.var`."""
    out = PolyGauss.const(2, c)
    for i, e in enumerate(mono, start=1):
        for _ in range(e):
            out = out * PolyGauss.var(2, i) * Scalar.term(1, epi=1)
    return out


# Polynomials in y as PolyGauss, of one grade, times one Gaussian weight
# drawn per example: none, or one.
def polygausses_at(weight: PolyGauss, s):
    return poly_terms_at(s).map(
        lambda terms: sum((monomial(m, c) for m, c in terms.items()), PolyGauss(2)) * weight
    )


one_weight = st.sampled_from([PolyGauss.one(2), PolyGauss.gaussian([1, Fraction(1, 2)])])
polygausses = st.tuples(one_weight, grades).flatmap(lambda ws: polygausses_at(*ws))


def same_weight_polygausses(k: int):
    """k polygausses of one drawn weight and grade."""
    return st.tuples(one_weight, grades).flatmap(lambda ws: st.tuples(*[polygausses_at(*ws)] * k))


class TestPoly:
    """`Poly` is the stored format only; the polynomial derivative, product
    algebra, evaluation and constructors are checked on polynomials built
    as `PolyGauss`."""

    @given(same_weight_polygausses(2))
    def test_derivative_is_linear(self, ab):
        a, b = ab
        assert (a + b).derive(1) == a.derive(1) + b.derive(1)

    @given(polygausses, polygausses)
    def test_leibniz(self, a, b):
        assert (a * b).derive(1) == a.derive(1) * b + a * b.derive(1)

    @given(polygausses)
    def test_partials_commute(self, a):
        assert a.derive(1).derive(2) == a.derive(2).derive(1)

    @given(polygausses, same_weight_polygausses(2))
    def test_product_laws(self, a, bc):
        b, c = bc
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * PolyGauss.one(2) == a and not a * PolyGauss(2)

    @pytest.mark.parametrize("i", [0, 3, -1])
    def test_derive_rejects_index_out_of_range(self, i):
        with pytest.raises(ValueError, match="out of range"):
            (PolyGauss.var(2, 1) * PolyGauss.var(2, 2)).derive(i)

    @given(polys)
    def test_str_is_faithful(self, c):
        # c shifts the atoms of its own grade; the others print unshifted
        assert_grouped_str_faithful(c, POLY_ATOMS, lambda v: v.s, PolyGauss(2))

    def test_eval(self):
        # y1 y2 + 1 = pi x1 x2 + 1
        p = weighted(ZERO_WEIGHT, {(1, 1): Scalar.one(), (0, 0): Scalar.one()})
        assert math.isclose(p.eval([2.0, 3.0]), 6 * math.pi + 1)

    @pytest.mark.parametrize("i", [0, 3, -1])
    def test_var_rejects_index_out_of_range(self, i):
        with pytest.raises(ValueError, match="out of range"):
            PolyGauss.var(2, i)

    def test_bool_is_non_zero(self):
        x = PolyGauss.var(2, 1)
        assert x and not PolyGauss(2) and not x + -x


class TestCanonicalSums:
    """Every constructor takes a mapping or (key, value) pairs, merges equal
    keys and drops zero sums."""

    def test_scalar_pairs(self):
        s = Scalar([((0, 0), 1), ((2, 0), Fraction(1, 2)), ((1, 1), 3), ((1, 1), -3)])
        assert s == Scalar.rational(2)  # sqrt2^2 / 2 folds into the rational
        assert Scalar([((0, 0), 1), ((0, 0), -1)]).terms == {}

    def test_poly_pairs(self):
        x, one, z = (1, 0), Scalar.one(), ZERO_WEIGHT
        p = PolyGauss.from_items(2, z, [(x, one), ((0, 1), one), (x, -one)])
        assert p == PolyGauss.var(2, 2) and [m for m, _c in p.items()] == [(0, 1)]
        assert not PolyGauss.from_items(2, z, iter([(x, Scalar())]))

    def test_poly_checks_every_monomial(self):
        with pytest.raises(ValueError, match="dimension"):
            PolyGauss.from_items(2, ZERO_WEIGHT, [((1,), Scalar())])

    def test_polygauss_pairs(self):
        g, x, one = (1, 0), (1, 0), Scalar.one()
        pg = PolyGauss.from_items(2, g, [(x, one), (x, one), ((0, 1), one), (x, -2 * one)])
        assert pg == PolyGauss.gaussian(g) * PolyGauss.var(2, 2)
        assert not PolyGauss.from_items(2, g, [(x, one), (x, -one)])
        with pytest.raises(ValueError, match="dimension"):
            PolyGauss.from_items(2, (0,), [((0, 0), one)])

    @given(same_grade_scalars(2), polys)
    def test_sums_stay_canonical(self, ab, pg):
        a, b = ab
        for value in (a + b, a * b, a + -a, a * 0):
            assert all(value.terms.values()) and len(value.terms) <= 1
        for value in (pg + pg, pg * pg, pg - pg, -pg, pg.derive(1), pg * Scalar(), pg * 0):
            assert all(c for _mono, c in value.items())
        assert not pg - pg


class TestPolyGauss:
    def test_gaussian_derivative(self):
        g = PolyGauss.gaussian([Fraction(1), Fraction(1)])
        d = g.derive(1)
        expected = g * PolyGauss.var(2, 1) * Scalar.term(Fraction(-2), epi=2)
        assert d == expected

    def test_leibniz_with_gaussian(self):
        g = PolyGauss.gaussian([Fraction(2)])
        x = PolyGauss.var(1, 1)
        assert (g * x).derive(1) == g.derive(1) * x + g * x.derive(1)

    @given(weights, poly_terms)
    def test_str_is_faithful(self, g, terms):
        # c shifts the atoms of its own weight and grade; the others print unshifted
        assert_grouped_str_faithful(
            weighted(g, terms), POLYGAUSS_ATOMS, lambda v: (v.g, v.s), PolyGauss(2)
        )

    @given(weights, poly_terms)
    def test_items_round_trip(self, g, terms):
        pg = weighted(g, terms)
        assert PolyGauss.from_items(2, pg.g, pg.items()) == pg
        assert len(list(pg.items())) == sum(len(p.terms) for p in pg.parts.values())
        assert len(pg.parts) == (1 if pg else 0)

    def test_map_vars(self):
        g = PolyGauss.gaussian([Fraction(1)]) * PolyGauss.var(1, 1)
        h = g.map_vars({1: 3}, 3)
        assert math.isclose(h.eval([9.0, 9.0, 0.5]), g.eval([0.5]))


class TestOneWeight:
    """A value, and a sum, carries one Gaussian weight: products add
    weights, zero adds to any weight, and a sum of two weights raises
    ValueError naming both."""

    G, H = (1, 0), (Fraction(1, 2), 2)

    def test_a_sum_of_two_weights_raises(self):
        a = PolyGauss.gaussian(self.G) * PolyGauss.var(2, 1)
        b = PolyGauss.gaussian(self.H)
        for two_weights in (lambda: a + b, lambda: b - a, lambda: a + PolyGauss.one(2)):
            with pytest.raises(ValueError, match="two Gaussian weights"):
                two_weights()
        with pytest.raises(ValueError, match=re.escape(f"{self.G} and {gauss_exp(self.H)}")):
            a + b

    def test_a_sum_of_two_weights_raises_across_outer_keys(self):
        a, b = PolyGauss.gaussian(self.G), PolyGauss.gaussian(self.H)
        with pytest.raises(ValueError, match="two Gaussian weights"):
            _FlatSum(2).add(0, a).add(1, b)
        with pytest.raises(ValueError, match="two Gaussian weights"):
            _FlatSum(2).add_product(0, a, a).add_product(1, a, b)

    def test_superforms_of_two_weights_do_not_add_or_wedge(self):
        from thomform.superforms import FiberCtx, SuperForm

        ctx = FiberCtx(2)
        a = SuperForm(ctx, {((1,), ()): PolyGauss.gaussian(self.G)})
        b = SuperForm(ctx, {((1,), ()): PolyGauss.gaussian(self.H)})
        with pytest.raises(ValueError, match="two Gaussian weights"):
            a + b
        # under disjoint keys a form of two weights is refused where it is built
        mixed = {((1,), ()): PolyGauss.gaussian(self.G), ((2,), ()): PolyGauss.gaussian(self.H)}
        both = re.escape(f"two Gaussian weights: {self.G} and {gauss_exp(self.H)}")
        with pytest.raises(ValueError, match=both):
            SuperForm(ctx, mixed)
        with pytest.raises(ValueError, match=both):
            a + SuperForm(ctx, {((2,), ()): PolyGauss.gaussian(self.H)})
        # a store of two weights, which only `_of` holds: the wedge lands both
        # products in one sum, under different keys
        with pytest.raises(ValueError, match="two Gaussian weights"):
            SuperForm._of(ctx, mixed).wedge(SuperForm.one(ctx))
        assert a.wedge(generator(ctx, 2)) == SuperForm(
            ctx, {((1, 2), ()): PolyGauss.gaussian(self.G)}
        )

    def test_products_add_weights(self):
        a = PolyGauss.gaussian(self.G) * PolyGauss.var(2, 2)
        b = PolyGauss.gaussian(self.H) * Scalar.term(3, e2=1)
        product = a * b
        assert product.g == gauss_exp([Fraction(3, 2), 2]) and set(product.parts) == {product.g}
        expected = PolyGauss.gaussian([Fraction(3, 2), 2]) * PolyGauss.var(2, 2)
        assert product == expected * Scalar.term(3, e2=1)
        assert (a * PolyGauss.var(2, 1)).g == a.g

    def test_zero_adds_to_any_weight(self):
        zero = PolyGauss(2)
        g, h = PolyGauss.gaussian(self.G), PolyGauss.gaussian(self.H)
        assert zero.g == (0, 0) and zero.parts == {} and list(zero.items()) == []
        assert zero + g == g + zero == g and zero - h == -h
        cancelled = g - g  # a zero reached from weight G adds to weight H
        assert not cancelled and cancelled + h == h == h + cancelled
        assert not zero * g and (zero * g).g == (0, 0) and zero * g + h == h
        assert not g * 0 and g * 0 + h == h
        assert _FlatSum(2).add_field(None, [zero, zero], {(1, 2): 1}).total() == zero


class TestOneGrade:
    """A coefficient carries one grade (e2, gamma): its term at x^m is a
    rational times sqrt2^e2 sqrt(pi)^(gamma + |m|). Products add grades,
    d/dx_i puts a value one grade up and a factor x_i one grade down, zero
    adds to any grade, and a sum of two grades under one outer key raises
    ValueError naming both."""

    X, ONE = PolyGauss.var(2, 1), PolyGauss.one(2)  # grades (0, -1) and (0, 0)
    Y = X * Scalar.term(1, epi=1)  # y_1 = sqrt(pi) x_1: grade (0, 0)

    def test_a_scalar_of_two_grades_raises(self):
        # sqrt2^3 folds to 2 sqrt2: the grade (1, 0)
        both = re.escape("one scalar, two grades: (0, 0) and (1, 0)")
        for two_grades in (
            lambda: Scalar.one() + SQRT2, lambda: Scalar({(0, 0): 1, (1, 0): 1}),
            lambda: Scalar([((0, 0), 1), ((3, 0), 1)]),
        ):
            with pytest.raises(Inhomogeneous, match=both):
                two_grades()
        # a grade that cancels leaves one
        assert Scalar([((0, 0), 1), ((1, 0), 1), ((1, 0), -1)]) == Scalar.one()
        assert Scalar() + SQRT2 == SQRT2 == SQRT2 + Scalar()

    def test_from_items_of_two_grades_raises(self):
        one = Scalar.one()
        with pytest.raises(ValueError, match=re.escape("two grades: (0, 0) and (0, -1)")):
            PolyGauss.from_items(2, ZERO_WEIGHT, [((0, 0), one), ((1, 0), one)])
        with pytest.raises(ValueError, match="two grades"):
            PolyGauss.const(2, one + SQRT2)
        # x^m with sqrt(pi)^|m| is one grade
        same = PolyGauss.from_items(2, ZERO_WEIGHT, [((0, 0), one), ((1, 0), in_y((1, 0), one))])
        assert same == self.ONE + self.Y and same.s == (0, 0)

    def test_a_sum_of_two_grades_raises(self):
        for two_grades in (
            lambda: self.X + self.ONE, lambda: self.X - self.Y,
            lambda: self.ONE + SQRT2 * self.ONE, lambda: self.ONE + self.ONE * Scalar.term(1, epi=2),
        ):
            with pytest.raises(ValueError, match="two grades"):
                two_grades()
        with pytest.raises(ValueError, match=re.escape("(0, -1) and (0, 0)")):
            self.X + self.Y

    def test_a_product_sum_of_two_grades_raises(self):
        with pytest.raises(ValueError, match="two grades"):
            _FlatSum(2).add_product(0, self.ONE, self.ONE).add_product(0, self.ONE, self.X)
        # each outer key holds its own grade
        sums = _FlatSum(2).add_product(0, self.ONE, self.ONE).add_product(1, self.ONE, self.X)
        assert sums.result() == {0: self.ONE, 1: self.X}

    def test_superforms_of_two_grades_do_not_build_or_add(self):
        from thomform.superforms import FiberCtx, SuperForm

        ctx, key = FiberCtx(2), ((1,), ())
        with pytest.raises(ValueError, match="two grades"):
            SuperForm(ctx, [(key, self.ONE), (key, self.X)])
        with pytest.raises(ValueError, match="two grades"):
            SuperForm(ctx, {key: self.ONE}) + SuperForm(ctx, {key: self.X})
        # under two keys, two grades
        both = SuperForm(ctx, {key: self.ONE, ((2,), ()): self.X})
        assert {pg.s for pg in both.terms.values()} == {(0, 0), (0, -1)}

    def test_grades_move_by_degree(self):
        f = PolyGauss.gaussian([1, 2]) * Scalar.term(3, e2=1) * self.Y
        assert f.s == (1, 0)
        assert [d.s for d in f.gradient()] == [(1, 1), (1, 1)]
        assert _FlatSum(2).add(None, f, 1, 2).total().s == (1, -1)
        assert (f * f).s == (0, 0)  # sqrt2 * sqrt2 folds into the rational
        assert (f * f) == PolyGauss.gaussian([2, 4]) * self.Y * self.Y * 18
        assert howe_shift(f, 1).s == (1, -1)

    def test_zero_adds_to_any_grade(self):
        cancelled = self.X - self.X
        assert not cancelled and cancelled + self.ONE == self.ONE == self.ONE + cancelled
        assert PolyGauss(2).s == (0, 0) and PolyGauss(2) + self.X == self.X


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
        expected = g * PolyGauss.var(1, 1) * Scalar.rational(2)
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
            hermite_scaled(n, 1, 1)
            * g
            * Scalar.term(Fraction(1), e2=-n, epi=-n)
        )
        assert lhs == rhs


gauss_entries = st.one_of(st.integers(-2, 2), st.sampled_from([Fraction(1, 2), Fraction(-3, 2)]))
gauss_weights = st.tuples(gauss_entries, gauss_entries).map(gauss_exp)


class TestMixedTypeProducts:
    """An operand a type does not know is handed to the other operand's
    __rmul__: a Scalar scales a PolyGauss from either side, and an
    unsupported pair raises TypeError. `Poly` is stored, never computed
    on: it is not scaled or negated."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_scalar_times_poly(self, n):
        x = PolyGauss.var(n, 1)
        expected = PolyGauss.from_items(n, (0,) * n, [((1,) + (0,) * (n - 1), SQRT2)])
        assert SQRT2 * x == expected == x * SQRT2

    def test_scalar_times_polygauss(self):
        g = PolyGauss.gaussian([1, 1])
        assert Scalar.one() * g == g
        assert SQRT2 * g == g * SQRT2 == weighted((1, 1), {(0, 0): SQRT2})

    def test_scalar_times_stored_poly_is_a_type_error(self):
        for scale in (SQRT2, 2, Fraction(1, 2)):
            with pytest.raises(TypeError):
                scale * X_POLY
            with pytest.raises(TypeError):
                X_POLY * scale

    def test_negating_a_stored_poly_is_a_type_error(self):
        with pytest.raises(TypeError):
            -X_POLY

    def test_poly_times_poly_is_a_type_error(self):
        # a product of polynomials is taken on PolyGauss only
        with pytest.raises(TypeError):
            X_POLY * PolyGauss.var(2, 2).parts[ZERO_WEIGHT]

    def test_poly_times_polygauss_is_a_type_error(self):
        x, g = X_POLY, PolyGauss.gaussian([1, 1])
        with pytest.raises(TypeError):
            x * g
        with pytest.raises(TypeError):
            g * x

    @pytest.mark.parametrize(
        "value", [SQRT2, X_POLY, PolyGauss.gaussian([1, 1])]
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

    @given(gauss_weights, grades.flatmap(lambda s: st.tuples(*[poly_terms_at(s)] * 2)),
           gauss_weights)
    def test_int_and_fraction_keys_agree(self, ga, ab_terms, gb):
        a_terms, b_terms = ab_terms

        def both(g, terms):
            return weighted(tuple(map(Fraction, g)), terms), weighted(g, terms)

        # a sum takes b at a's weight, a product at its own
        (af, ai), (sf, si), (bf, bi) = both(ga, a_terms), both(ga, b_terms), both(gb, b_terms)
        assert af == ai and str(af) == str(ai)
        pairs = [(af + sf, ai + si), (af + si, ai + sf), (af * bf, ai * bi), (af * bi, ai * bf)]
        for f, i in pairs:
            assert f == i and str(f) == str(i)

    def test_constructed_forms_store_fractions_in_lowest_terms(self):
        from thomform.km import km_form_at_e
        from thomform.liealg import SignatureCtx
        from thomform.mq import fiber_umq, mq_phi_at_e

        ctx = SignatureCtx(2, 2)
        for form in (km_form_at_e(ctx), mq_phi_at_e(ctx), fiber_umq(3)):
            values = [
                r
                for pg in form.terms.values()
                for _mono, s in pg.items()
                for r in s.terms.values()
            ]
            assert values and all(
                type(r) is Fraction and r and r.denominator > 0
                and math.gcd(r.numerator, r.denominator) == 1
                for r in values
            )

    def test_constructed_forms_have_int_keys(self):
        """Every constructed form carries one Gaussian weight over all its
        coefficients, with int entries."""
        from thomform.km import km_closed_form, km_form_at_e
        from thomform.liealg import SignatureCtx
        from thomform.mq import fiber_transgression, fiber_umq, mq_phi0_at_e, mq_phi_at_e

        ctxs = [SignatureCtx(p, n - p) for n in range(2, 7) for p in range(1, n)]
        forms = [
            build(ctx) for ctx in ctxs
            for build in (km_form_at_e, km_closed_form, mq_phi0_at_e, mq_phi_at_e)
        ] + [build(q) for q in range(1, 6) for build in (fiber_umq, fiber_transgression)]
        for form in forms:
            keys = {pg.g for pg in form.terms.values()}
            assert len(keys) == 1 and all(type(c) is int for g in keys for c in g), keys


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
    """One-term sums and products, and the +-1 linear field of the flat sum,
    agree with the general `_add_into` results."""

    @given(single_terms, single_terms)
    def test_sum(self, a, b):
        if a.terms.keys() == b.terms.keys():
            assert (a + b).terms == general_sum(a, b).terms
        else:  # the general sum would hold two grades
            with pytest.raises(Inhomogeneous, match="one scalar, two grades"):
                a + b
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
        gauss_weights,
        poly_terms,
        st.dictionaries(
            st.tuples(st.integers(1, 2), st.integers(1, 2)),
            st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)]),
            max_size=3,
        ),
    )
    def test_linear_field(self, g, terms, entries):
        grad = weighted(g, terms).gradient()
        expected = PolyGauss.from_items(2, g, (
            (tuple(e + (i == l - 1) for i, e in enumerate(mono)),
             general_product(s, Scalar.rational(c)))
            for (k, l), c in entries.items()
            for mono, s in grad[k - 1].items()
        ))
        assert _FlatSum(2).add_field(None, grad, entries).total() == expected


# A grade (e2, gamma) with negative sqrt2 powers, folded where it is stored.
flat_grades = st.tuples(st.integers(-3, 2), st.integers(-1, 1))


def flat_coefficients(g, s):
    """Coefficients of the one Gaussian weight g and the one grade s whose
    rationals have denominators 1-7, so that the common denominator of a
    flat sum is lifted mid-sum."""
    e2, gamma = s
    return st.lists(st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    ), min_size=1, max_size=3).map(lambda atoms: PolyGauss.from_items(2, g, (
        (mono, Scalar.term(r, e2=e2, epi=gamma + sum(mono))) for mono, r in atoms
    )))


def flat_ops_at(g, outer_grades):
    """Adds and products into one sum of weight g, of grade
    ``outer_grades[outer]`` under each outer key: an add with a shift takes
    a coefficient one grade up, and a product's factors draw one weight and
    grade and the other is what completes them to g and the outer's grade."""

    def add(outer, shift):
        e2, gamma = outer_grades[outer]
        return st.tuples(
            st.just("add"), st.just(outer), flat_coefficients(g, (e2, gamma + bool(shift))),
            st.fractions(min_value=-3, max_value=3, max_denominator=7), st.just(shift),
        )

    def product(outer, ga, sa):
        return st.tuples(
            st.just("product"), st.just(outer), flat_coefficients(ga, sa),
            flat_coefficients(gauss_exp(map(sub, g, ga)), tuple(map(sub, outer_grades[outer], sa))),
            st.booleans(),
        )

    return st.lists(st.one_of(
        st.tuples(st.integers(0, 1), st.sampled_from([None, 1, 2])).flatmap(lambda os: add(*os)),
        st.tuples(st.integers(0, 1), gauss_weights, flat_grades).flatmap(lambda x: product(*x)),
    ), min_size=1, max_size=6)


# One weight, and one grade per outer key 0 and 1.
flat_sums = st.tuples(gauss_weights, st.tuples(flat_grades, flat_grades))
flat_ops = flat_sums.flatmap(lambda gs: flat_ops_at(*gs))


def fraction_atoms(ops) -> dict:
    """The atoms of ``ops`` as {(outer, g, mono, sqrt key): Fraction}, each
    term a Fraction product summed through `_add_into`."""

    def terms(op):
        if op[0] == "add":
            _, outer, pg, c, shift = op
            for mono, s in pg.items():
                if shift is not None:
                    mono = tuple(e + (i == shift - 1) for i, e in enumerate(mono))
                yield from (((outer, pg.g, mono, sk), r * c) for sk, r in s.terms.items())
        else:
            _, outer, a, b, negate = op
            g = tuple(map(sum, zip(a.g, b.g)))
            for (ma, sa), (mb, sb) in itertools.product(a.items(), b.items()):
                mono = tuple(map(sum, zip(ma, mb)))
                for (a2, api), ra in sa.terms.items():
                    for (b2, bpi), rb in sb.terms.items():
                        sk, r = _fold_sqrt2(a2 + b2, api + bpi, ra * rb)
                        yield (outer, g, mono, sk), -r if negate else r

    atoms: dict = {}
    for op in ops:
        _add_into(atoms, terms(op))
    return atoms


def flat_sum(ops) -> _FlatSum:
    acc = _FlatSum(2)
    for op in ops:
        if op[0] == "add":
            acc.add(*op[1:])
        else:
            acc.add_product(*op[1:])
    return acc


def negated(ops) -> list:
    return [
        (kind, outer, a, -b, c) if kind == "add" else (kind, outer, a, b, not c)
        for kind, outer, a, b, c in ops
    ]


class TestIntegerFlatSum:
    """`_FlatSum` on integer numerators over one common denominator equals
    the same sum taken over Fractions."""

    @settings(max_examples=60, deadline=None)
    @given(flat_ops)
    def test_equals_the_fraction_sum(self, ops):
        result = flat_sum(ops).result()
        assert all(result.values())
        assert {
            (outer, pg.g, mono, sk): r
            for outer, pg in result.items()
            for mono, s in pg.items()
            for sk, r in s.terms.items()
        } == fraction_atoms(ops)

    @settings(max_examples=30, deadline=None)
    @given(flat_sums.flatmap(lambda gs: st.tuples(flat_ops_at(*gs), flat_ops_at(*gs))))
    def test_a_sum_and_its_negation_cancel(self, ops_more):
        ops, more = ops_more
        assert flat_sum(ops + more + negated(ops)).result() == flat_sum(more).result()
        assert flat_sum(ops + negated(ops)).result() == {}

    def test_a_lift_rescales_what_is_stored(self):
        x = PolyGauss.var(2, 1)
        acc = _FlatSum(2).add(0, x, Fraction(1, 2)).add(0, x, Fraction(1, 3))
        assert acc.den == 6
        assert acc.result() == {0: x * Fraction(5, 6)}


FIELD = 1 << (_W - 1)  # every stored exponent field of an atom is below this


def packed(mono: tuple, epi: int = 0) -> PolyGauss:
    return PolyGauss.from_items(len(mono), (0,) * len(mono), [(mono, Scalar.term(1, epi=epi))])


class TestExponentFields:
    """An exponent of x that leaves its field of an atom raises
    OverflowError, where it is packed and where a sum of atoms is handed
    over; it never carries or borrows into the next field. The sqrt(pi)
    power is the grade's, stored once and unbounded."""

    @pytest.mark.parametrize("mono,epi", [
        ((FIELD, 0), 0), ((0, FIELD), 0), ((0, 2 * FIELD), 0), ((0, -1), 0),
    ])
    def test_packing_refuses_an_exponent_past_its_field(self, mono, epi):
        with pytest.raises(OverflowError):
            packed(mono, epi)

    def test_the_extreme_exponents_are_stored(self):
        for mono, epi in [((FIELD - 1, FIELD - 1), 2 * FIELD), ((0, 1), -2 * FIELD)]:
            assert list(packed(mono, epi).items()) == [(mono, Scalar.term(1, epi=epi))]

    @pytest.mark.parametrize("n", [1, 2])
    def test_an_operation_past_the_field_raises(self, n):
        top = packed((FIELD - 1,) + (0,) * (n - 1))
        x = PolyGauss.var(n, 1)
        for overflow in (
            lambda: top * x,
            lambda: x * top,
            lambda: (top * PolyGauss.gaussian([1] * n)).derive(1),
            lambda: _FlatSum(n).add_field(None, [top] * n, {(1, 1): 1}).total(),
        ):
            with pytest.raises(OverflowError):
                overflow()


def test_poly_only_stores():
    """`Poly` is the bare record of the `parts` view: its fields only;
    `PolyGauss` computes on its store and prints from `items`."""
    defined = {
        name for name, member in vars(Poly).items()
        if inspect.isfunction(member) or isinstance(member, staticmethod)
    }
    assert defined == {"__init__"}


def test_only_scalars_knows_the_coefficient_format():
    """Every other module walks a PolyGauss through items()/from_items() and
    builds one without naming Poly, and the package does not export it."""
    package = pathlib.Path(thomform.__file__).parent
    modules = [path for path in package.glob("*.py") if path.name != "scalars.py"]
    readers = sorted(path.name for path in modules if ".parts" in path.read_text())
    assert readers == []
    namers = sorted(
        path.name for path in modules
        if re.search(r"\b(Poly|from_poly)\b", path.read_text())
    )
    assert namers == []
    assert "Poly" not in thomform.__all__ and not hasattr(thomform, "Poly")
