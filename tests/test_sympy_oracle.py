"""The Gaussian derivative rule, the Hermite recurrences, the Gaussian
moments, the Howe-operator form and the transgression family against sympy.

Each value is rebuilt as a sympy expression, with sqrt2 and sqrt(pi) as
free symbols (or, for the moments and forms, as sympy's own sqrt(2) and
sqrt(pi)), and compared exactly with sympy's own derivative, Hermite
polynomial or integral, or (for the Howe-operator form and the
transgression family) built by sympy's own differentiation and
substitution. No library arithmetic enters the reference side. The
theorem itself is checked with no library algebra on either side: the
sympy Howe form against the Berezin matching oracle of `references`.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from references import berezin_matching
from thomform.checks import SIGMA_EVEN, SIGMA_ODD
from thomform.km import (
    coefficient_gradients,
    exterior_derivative,
    hermite_scaled,
    km_closed_form,
    km_form_at_e,
)
from thomform.liealg import SignatureCtx
from thomform.mq import fiber_transgression, fiber_umq
from thomform.scalars import PolyGauss, Scalar, _FlatSum, gauss_exp, gauss_moment

N = 3  # variables
X = sympy.symbols(f"x1:{N + 1}")
S2, SPI = sympy.symbols("sqrt2 sqrtpi", positive=True)
PI = SPI**2


def rational(r) -> sympy.Rational:
    r = Fraction(r)
    return sympy.Rational(r.numerator, r.denominator)


def to_sympy(pg: PolyGauss):
    """sum c x^mono exp(-pi sum_j g_j x_j^2)."""
    total = 0
    exponent = sum(rational(cj) * x**2 for cj, x in zip(pg.g, X))
    for mono, c in pg.items():
        coeff = sum(rational(r) * S2**e2 * SPI**epi for (e2, epi), r in c.terms.items())
        total += coeff * sympy.Mul(*(x**e for x, e in zip(X, mono))) * sympy.exp(-PI * exponent)
    return total


def random_polygauss(rng: random.Random) -> PolyGauss:
    """One random Gaussian weight and one random grade (e2, gamma), e2 in
    {0, 1}, over one to five random terms r sqrt2^e2 sqrtpi^(gamma + |mono|) x^mono."""
    entries = [0, 1, 2, Fraction(1, 2), Fraction(-3, 4)]
    g = gauss_exp(rng.choice(entries) for _ in range(N))
    e2, gamma = rng.randint(0, 1), rng.randint(-1, 1)
    items = []
    for _ in range(rng.randint(1, 5)):
        mono = tuple(rng.randint(0, 2) for _ in range(N))
        r = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        items.append((mono, Scalar.term(r, e2=e2, epi=gamma + sum(mono))))
    return PolyGauss.from_items(N, g, items)


def assert_same(ours, theirs):
    assert sympy.expand(ours - theirs, power_exp=True) == 0


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("i", range(1, N + 1))
def test_derive_without_t(seed, i):
    pg = random_polygauss(random.Random(seed))
    assert_same(to_sympy(pg.derive(i)), sympy.diff(to_sympy(pg), X[i - 1]))


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
    assert_same(to_sympy(_FlatSum(N).add_field(None, pg.gradient(), entries).total()), expected)


@pytest.mark.parametrize("n", range(0, 11))
def test_hermite(n):
    """Read in y = sqrt(2 pi) x2, `hermite_scaled` is sympy's H_n(y)."""
    y = sympy.Symbol("y")
    ours = to_sympy(hermite_scaled(n, N, 2)).subs(X[1], y / (S2 * SPI))
    assert_same(ours.subs(S2, sympy.sqrt(2)), sympy.hermite(n, y))


@pytest.mark.parametrize("n", range(0, 11))
def test_hermite_scaled(n):
    y = S2 * SPI * X[1]  # sqrt(2 pi) x2
    ours = to_sympy(hermite_scaled(n, N, 2))
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
    weight = sympy.exp(-sympy.pi * sum(rational(cj) * x**2 for cj, x in zip(pg.g, xs)))
    for mono, c in pg.items():
        coeff = sum(
            rational(r) * sympy.sqrt(2) ** e2 * sympy.sqrt(sympy.pi) ** epi
            for (e2, epi), r in c.terms.items()
        )
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


@pytest.mark.parametrize("p,q", [(p, n - p) for n in range(2, 5) for p in range(1, n)])
def test_theorem_without_library_algebra(p, q):
    """phi_KM = sigma(q) 2^(-q/2) phi_MQ, the recorded sign sigma(q), with
    phi_KM built by sympy and phi_MQ by `references.berezin_matching`; both
    carry the majorant exp(-pi |x|^2), divided out here."""
    xs, howe = howe_form_reference(p, q)
    mq, sigma = berezin_matching(p, q), SIGMA_EVEN if q % 2 == 0 else SIGMA_ODD
    assert set(howe) == set(mq)
    majorant = sympy.exp(sympy.pi * sum(x**2 for x in xs))
    for i_set, terms in mq.items():
        rhs = sum(
            rational(r) * sympy.sqrt(2) ** e2 * sympy.sqrt(sympy.pi) ** epi
            * sympy.Mul(*(x**e for x, e in zip(xs, mono)))
            for mono, scalar in terms.items() for (e2, epi), r in scalar.items()
        )
        diff = howe[i_set] * majorant - sigma * rhs / sympy.sqrt(2) ** q
        assert sympy.expand(sympy.powsimp(sympy.expand(diff))) == 0, i_set


T = sympy.Symbol("t", positive=True)


def fiber_form_to_sympy(form, xs, t_slots: bool = True) -> dict:
    """The pullback t* along x -> t x of a fiber form, by sympy substitution:
    {dx set: coefficient}, each x_i replaced by t x_i and, with ``t_slots``,
    each dx slot contributing its factor t."""
    scaled = {x: T * x for x in xs}
    return {
        i_set: exact_to_sympy(pg, xs).subs(scaled, simultaneous=True)
        * (T ** len(i_set) if t_slots else 1)
        for (i_set, _j), pg in form.terms.items()
    }


def sympy_fiber_d(form: dict, xs) -> dict:
    """d = sum_i dx_i ^ d/dx_i on {dx set: coefficient}: sorting dx_i ^ dx_I
    moves dx_i past each slot of I below i, one sign each."""
    out: dict = {}
    for i_set, f in form.items():
        for i, x in enumerate(xs, start=1):
            if i not in i_set:
                key = tuple(sorted(i_set + (i,)))
                sign = (-1) ** sum(j < i for j in i_set)
                out[key] = out.get(key, 0) + sign * sympy.diff(f, x)
    return out


@pytest.mark.parametrize("q", range(1, 4))
def test_exterior_derivative_on_a_fiber(q):
    """The one d, through `FiberCtx.d_fields`, on psi against sympy's d."""
    psi, xs = fiber_transgression(q), sympy.symbols(f"x1:{q + 1}")
    ours = exterior_derivative(psi, coefficient_gradients(psi))
    theirs = sympy_fiber_d({i: exact_to_sympy(pg, xs) for (i, _j), pg in psi.terms.items()}, xs)
    assert all(j_set == () for _i, j_set in ours.terms)
    weight = sympy.exp(2 * sympy.pi * sum(x**2 for x in xs))  # psi's Gaussian, undone
    for key in {i for i, _j in ours.terms} | set(theirs):
        pg = ours.terms.get((key, ()))
        diff = ((exact_to_sympy(pg, xs) if pg else 0) - theirs.get(key, 0)) * weight
        assert sympy.expand(sympy.powsimp(sympy.expand(diff))) == 0, key


def t_family_residual(u, psi, t_slots: bool = True) -> dict:
    """t d/dt (t*U) - d(t*psi) by key, nonzero entries only, with U and psi
    pulled back and differentiated in sympy alone."""
    xs = sympy.symbols(f"x1:{u.ctx.q + 1}")
    lhs = {k: T * sympy.diff(f, T) for k, f in fiber_form_to_sympy(u, xs, t_slots).items()}
    rhs = sympy_fiber_d(fiber_form_to_sympy(psi, xs, t_slots), xs)
    weight = sympy.exp(2 * sympy.pi * T**2 * sum(x**2 for x in xs))  # U's Gaussian at t x
    out = {}
    for key in set(lhs) | set(rhs):
        diff = (lhs.get(key, 0) - rhs.get(key, 0)) * weight
        diff = sympy.expand(sympy.powsimp(sympy.expand(diff)))
        if diff != 0:
            out[key] = diff
    return out


@pytest.mark.parametrize("q", range(1, 5))
def test_identity_in_t_and_x(q):
    """t d/dt (t*U) = d(t*psi) for every t > 0, the family that the
    `transgression` check checks at t = 1 as L_E U = d psi."""
    assert not t_family_residual(fiber_umq(q), fiber_transgression(q))


@pytest.mark.parametrize("fault", ["doubled_psi", "dropped_slot_factor"])
@pytest.mark.parametrize("q", [1, 2])
def test_identity_in_t_and_x_sees_a_fault(q, fault):
    u, psi = fiber_umq(q), fiber_transgression(q)
    if fault == "doubled_psi":
        assert t_family_residual(u, psi.scale(2))
    else:
        assert t_family_residual(u, psi, t_slots=False)
