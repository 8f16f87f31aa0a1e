"""Test-side references shared by several test modules: each restates a
library operator from its definition, independently of the flat kernel."""

import itertools
from fractions import Fraction
from functools import reduce

from thomform.liealg import LieElement, bracket
from thomform.scalars import PolyGauss, _add_into
from thomform.superforms import SuperForm, sort_with_sign


def generator(ctx, gen) -> SuperForm:
    """A single one-form generator, bidegree (1,0)."""
    return SuperForm(ctx, {((gen,), ()): PolyGauss.one(ctx.nvars)})


def fiber_d(a: SuperForm) -> SuperForm:
    """d = sum_i dx_i ^ d/dx_i on a fiber, as q wedges of a generator on
    the form with each coefficient differentiated."""
    ctx = a.ctx
    return SuperForm(ctx, (
        kv
        for i in ctx.z0
        for kv in generator(ctx, i).wedge(
            SuperForm(ctx, ((k, pg.derive(i)) for k, pg in a.terms.items()))
        ).terms.items()
    ))


def exp_even(a: SuperForm) -> SuperForm:
    """exp(a) as the power series sum_k a^k / k!, for a nilpotent even a:
    every term must have bidegree (k,k) with k >= 1, so the series stops at
    z0 degree q. The reference for `mq._exp`'s column product."""
    if any(len(i_set) != len(j_set) or not j_set for i_set, j_set in a.terms):
        raise ValueError("exp argument must be nilpotent: bidegree (k,k) with k >= 1")
    power = SuperForm.one(a.ctx)
    terms = dict(power.terms)
    fact = 1
    for k in range(1, len(a.ctx.z0) + 1):
        power = power.wedge(a)
        if not power:
            break
        fact *= k
        _add_into(terms, power.scale(Fraction(1, fact)).terms.items())
    return SuperForm(a.ctx, terms)


def gram_value(spec, u: tuple[int, ...]) -> Fraction:
    """Q(v,v) = u^T G u, exactly, for a `theta.LatticeSpec`."""
    total = Fraction(0)
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, uj in enumerate(u):
            if uj:
                total += spec.gram[i][j] * ui * uj
    return total


def bracket_dual_coadjoint_action(x, a):
    """The coadjoint action from its definition: -omega([X, .]) on each p*
    slot, through one bracket per p-pair, and column j of the z0 block of X
    on each z0 slot e_j."""
    ctx = x.ctx
    dual = {}  # omega_P -> {P': coefficient of omega_P' in X . omega_P}
    for pprime in ctx.p_pairs():
        for p_key, c in bracket(x, LieElement.basis(ctx, *pprime)).coords.items():
            dual.setdefault(p_key, {})[pprime] = -c
    rho = {}
    for (j2, j), c in x._entries().items():
        if min(j2, j) > ctx.p:
            rho.setdefault(j, []).append((j2, c))

    def terms():
        for (i_set, j_set), pg in a.terms.items():
            for pos, gen in enumerate(i_set):
                for gen2, c in dual.get(gen, {}).items():
                    new_i, sign = sort_with_sign(i_set[:pos] + (gen2,) + i_set[pos + 1 :])
                    if sign:
                        yield (new_i, j_set), pg * Fraction(sign * c)
            for pos, j in enumerate(j_set):
                for j2, c in rho.get(j, ()):
                    new_j, sign = sort_with_sign(j_set[:pos] + (j2,) + j_set[pos + 1 :])
                    if sign:
                        yield (i_set, new_j), pg * Fraction(sign * c)

    return SuperForm(ctx, terms())


# -- an independent Berezin integral ------------------------------------------
# A Grassmann element is {word: {(monomial, k): Fraction}}, the coefficient of
# a word a polynomial in x times sqrt(pi)^k. A word is a sorted tuple of
# generators: a one-form g as (0, g), then z0 vectors e_mu as (1, mu).


def _grassmann_add(out: dict, word: tuple, coeff: dict) -> None:
    terms = out.setdefault(word, {})
    for key, r in coeff.items():
        terms[key] = terms.get(key, 0) + r
        if not terms[key]:
            del terms[key]
    if not terms:
        del out[word]


def grassmann_product(a: dict, b: dict) -> dict:
    """a * b: each pair of words concatenated and sorted, with the sign of
    its inversions; a repeated generator gives zero."""
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = u + v
            if len(set(w)) < len(w):
                continue
            sign = (-1) ** sum(x > y for i, x in enumerate(w) for y in w[i + 1:])
            for (ma, ka), ra in cu.items():
                for (mb, kb), rb in cv.items():
                    mono = tuple(e + f for e, f in zip(ma, mb))
                    _grassmann_add(out, tuple(sorted(w)), {(mono, ka + kb): sign * ra * rb})
    return out


def _z0_part(word: tuple) -> tuple:
    return tuple(mu for kind, mu in word if kind == 1)


def _matchings(cols: list):
    """Every perfect matching of ``cols``, as a list of pairs."""
    if not cols:
        yield []
    for i in range(1, len(cols)):
        for rest in _matchings(cols[1:i] + cols[i + 1:]):
            yield [(cols[0], cols[i])] + rest


def _thom_top(a: dict, r: dict, z0: tuple, n: int) -> dict:
    """(-1)^{q(q+1)/2} (2 pi)^{-q/2} int^B exp(a + r) for a = sum_mu a_mu of
    z0 degree 1 and r of z0 degree 2, both even, as {I: {monomial:
    {(e2, epi): r}}}, e2 in {0, 1}. The top z0 degree is the sum over subsets
    S of the columns of prod_{mu in S} a_mu times r's perfect matchings of
    the other columns."""
    q, unit = len(z0), {(): {((0,) * n, 0): Fraction(1)}}
    parts: dict = {}
    for element in (a, r):
        for word, coeff in element.items():
            parts.setdefault(_z0_part(word), {})[word] = coeff
    top: dict = {}
    for k in range(q + 1):
        for cols in itertools.combinations(z0, k):
            columns = reduce(grassmann_product, (parts.get((mu,), {}) for mu in cols), unit)
            rest = [mu for mu in z0 if mu not in cols]
            for matching in _matchings(rest):
                term = reduce(grassmann_product, (parts.get(pair, {}) for pair in matching), columns)
                for word, coeff in term.items():
                    _grassmann_add(top, word, coeff)
    # sqrt2^-q = 2^-(q//2) for even q, sqrt2 * 2^-(q//2 + 1) for odd q
    sign = -1 if (q * (q + 1) // 2) % 2 else 1
    factor, e2 = Fraction(sign, 2 ** (q // 2 + q % 2)), q % 2
    out: dict = {}
    for word, coeff in top.items():
        if _z0_part(word) == z0:
            i_set = tuple(g for kind, g in word if kind == 0)
            out[i_set] = {mono: {(e2, k - q): c * factor} for (mono, k), c in coeff.items()}
    return out


def berezin_matching(p: int, q: int) -> dict:
    """The basepoint Thom form at signature (p, q), without its Gaussian,
    as `_thom_top` of A = 2 sqrt(pi) sum_alpha x_alpha eta_alpha and
    R = -1/2 sum_alpha eta_alpha ^ eta_alpha, eta_alpha = sum_mu
    omega_{alpha mu} e_mu, all in `grassmann_product`."""
    n, z0 = p + q, tuple(range(p + 1, p + q + 1))
    zero = (0,) * n
    a: dict = {}
    r: dict = {}
    for alpha in range(1, p + 1):
        eta = {((0, (alpha, mu)), (1, mu)): {(zero, 0): Fraction(1)} for mu in z0}
        x_alpha = tuple(int(i == alpha) for i in range(1, n + 1))
        for word in eta:
            _grassmann_add(a, word, {(x_alpha, 1): Fraction(2)})
        for word, coeff in grassmann_product(eta, eta).items():
            _grassmann_add(r, word, {key: c * Fraction(-1, 2) for key, c in coeff.items()})
    return _thom_top(a, r, z0, n)


def fiber_berezin_matching(q: int) -> dict:
    """`fiber_umq(q)` without its Gaussian, as `_thom_top` of
    A = -2 sqrt(pi) sum_i dx_i e_i and no curvature."""
    z0 = tuple(range(1, q + 1))
    a = {((0, i), (1, i)): {((0,) * q, 1): Fraction(-2)} for i in z0}
    return _thom_top(a, {}, z0, q)
