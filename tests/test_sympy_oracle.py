"""The Gaussian derivative rule, the Hermite recurrences, the Gaussian
moments and the Howe-operator form against sympy.

Each value is rebuilt as a sympy expression, with sqrt2 and sqrt(pi) as
free symbols (or, for the moments, as sympy's own sqrt(2) and sqrt(pi)),
and compared exactly with sympy's own derivative, Hermite polynomial or
integral, or (for the Howe-operator form) built by sympy's own
differentiation. No library arithmetic enters the reference side.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from thomform.km import hermite, hermite_scaled, km_closed_form, km_form_at_e
from thomform.liealg import SignatureCtx
from thomform.scalars import Poly, PolyGauss, Scalar, gauss_exp, gauss_moment, linear_field

N = 3  # variables; the last one plays the scaling variable t
X = sympy.symbols(f"x1:{N + 1}")
S2, SPI = sympy.symbols("sqrt2 sqrtpi", positive=True)
PI = SPI**2


def rational(r) -> sympy.Rational:
    r = Fraction(r)
    return sympy.Rational(r.numerator, r.denominator)


def to_sympy(pg: PolyGauss, t: int | None = None):
    """sum c x^mono exp(-pi E); with t, E carries the factor x_t^2."""
    total = 0
    for g, mono, c in pg.items():
        coeff = sum(rational(r) * S2**e2 * SPI**epi for (e2, epi), r in c.terms.items())
        exponent = sum(rational(cj) * x**2 for cj, x in zip(g, X))
        if t is not None:
            exponent *= X[t - 1] ** 2
        total += coeff * sympy.Mul(*(x**e for x, e in zip(X, mono))) * sympy.exp(-PI * exponent)
    return total


def random_polygauss(rng: random.Random) -> PolyGauss:
    """One or two Gaussian parts, each over one to three random terms
    r sqrt2^e2 sqrtpi^epi x^mono with e2 in {0, 1}."""
    entries = [0, 1, 2, Fraction(1, 2), Fraction(-3, 4)]
    items = []
    for _ in range(rng.randint(1, 2)):
        g = gauss_exp(rng.choice(entries) for _ in range(N))
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, 2) for _ in range(N))
            r = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            items.append((g, mono, Scalar.term(r, e2=rng.randint(0, 1), epi=rng.randint(-1, 1))))
    return PolyGauss.from_items(N, items)


def assert_same(ours, theirs):
    assert sympy.expand(ours - theirs, power_exp=True) == 0


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("i", range(1, N + 1))
def test_derive_without_t(seed, i):
    pg = random_polygauss(random.Random(seed))
    assert_same(to_sympy(pg.derive(i)), sympy.diff(to_sympy(pg), X[i - 1]))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("i", range(1, N + 1))
def test_derive_with_t(seed, i):
    """i < N differentiates in a fiber variable, i = N in t itself; the t
    entry of the Gaussian is random too, not only the 0 that
    `fiber_scale_pullback_symbolic` gives it."""
    pg = random_polygauss(random.Random(100 + seed))
    assert_same(to_sympy(pg.derive(i, N), N), sympy.diff(to_sympy(pg, N), X[i - 1]))


@pytest.mark.parametrize("seed", SEEDS)
def test_linear_field(seed):
    rng = random.Random(200 + seed)
    pg = random_polygauss(rng)
    entries = {
        (rng.randint(1, N), rng.randint(1, N)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        for _ in range(rng.randint(1, 4))
    }
    f = to_sympy(pg)
    expected = sum(
        rational(c) * X[l - 1] * sympy.diff(f, X[k - 1]) for (k, l), c in entries.items()
    )
    assert_same(to_sympy(linear_field(pg.gradient(), entries)), expected)


def poly_to_sympy(p: Poly):
    return to_sympy(PolyGauss.from_poly(p))


@pytest.mark.parametrize("n", range(0, 11))
def test_hermite(n):
    assert_same(poly_to_sympy(hermite(n, N, 2)), sympy.hermite(n, X[1]))


@pytest.mark.parametrize("n", range(0, 11))
def test_hermite_scaled(n):
    y = S2 * SPI * X[1]  # sqrt(2 pi) x2
    ours = poly_to_sympy(hermite_scaled(n, N, 2))
    theirs = sympy.expand(sympy.hermite(n, y)).replace(
        # fold sqrt2^e into 2^(e//2) sqrt2^(e%2), as the library stores it
        lambda e: e.is_Pow and e.base == S2,
        lambda e: 2 ** (e.exp // 2) * S2 ** (e.exp % 2),
    )
    assert_same(ours, theirs)


@pytest.mark.parametrize("c", [1, 2, Fraction(1, 2)], ids=str)
@pytest.mark.parametrize("n", range(0, 13))
def test_gauss_moment(n, c):
    x = sympy.Symbol("x", real=True)
    theirs = sympy.integrate(
        x**n * sympy.exp(-rational(c) * sympy.pi * x**2), (x, -sympy.oo, sympy.oo)
    )
    ours = sum(
        rational(r) * sympy.sqrt(2) ** e2 * sympy.sqrt(sympy.pi) ** epi
        for (e2, epi), r in gauss_moment(n, c).terms.items()
    )
    assert sympy.simplify(ours - theirs) == 0


def howe_form_reference(p: int, q: int) -> tuple[tuple, dict]:
    """2^(-q) prod_mu sum_alpha omega_{alpha mu} (x_alpha - (1/2pi) d_alpha) e^(-pi |x|^2),
    by sympy alone: for each choice (alpha_1..alpha_q), the operators
    applied with sympy.diff, keyed by the sorted generators and signed by
    the parity of the permutation that sorts omega_{alpha_1,p+1} ^ ... ^
    omega_{alpha_q,p+q}. Returns the variables and the coefficients."""
    xs = sympy.symbols(f"x1:{p + q + 1}")
    gauss = sympy.exp(-sympy.pi * sum(x**2 for x in xs))
    out = {}
    for alphas in itertools.product(range(1, p + 1), repeat=q):
        f = gauss
        for a in alphas:
            f = xs[a - 1] * f - sympy.diff(f, xs[a - 1]) / (2 * sympy.pi)
        gens = [(a, p + 1 + k) for k, a in enumerate(alphas)]
        inversions = sum(gens[i] > gens[j] for i in range(q) for j in range(i + 1, q))
        out[tuple(sorted(gens))] = (-1) ** inversions * f / 2**q
    return xs, out


def exact_to_sympy(pg: PolyGauss, xs):
    """sum c x^mono exp(-pi sum g x^2) with sympy's own sqrt(2) and sqrt(pi)."""
    total = 0
    for g, mono, c in pg.items():
        coeff = sum(
            rational(r) * sympy.sqrt(2) ** e2 * sympy.sqrt(sympy.pi) ** epi
            for (e2, epi), r in c.terms.items()
        )
        weight = sympy.exp(-sympy.pi * sum(rational(cj) * x**2 for cj, x in zip(g, xs)))
        total += coeff * sympy.Mul(*(x**e for x, e in zip(xs, mono))) * weight
    return total


@pytest.mark.parametrize("build", [km_form_at_e, km_closed_form], ids=lambda f: f.__name__)
@pytest.mark.parametrize("p,q", [(p, n - p) for n in range(2, 5) for p in range(1, n)])
def test_howe_operator_form(build, p, q):
    xs, reference = howe_form_reference(p, q)
    form = build(SignatureCtx(p, q))
    assert {i_set for i_set, _j in form.terms} == set(reference)
    assert all(j_set == () for _i, j_set in form.terms)
    for (i_set, _j), pg in form.terms.items():
        diff = (exact_to_sympy(pg, xs) - reference[i_set]) * sympy.exp(
            sympy.pi * sum(x**2 for x in xs)
        )
        assert sympy.expand(sympy.powsimp(sympy.expand(diff))) == 0, i_set
