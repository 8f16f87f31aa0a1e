"""The positive-degree Schwartz form on p* (x) Lambda z0, two ways.

`km_form_at_e` applies the product of annihilation-style raising operators
to the standard Gaussian; `km_closed_form` evaluates the Hermite-polynomial
expansion directly. The two must agree coefficient-by-coefficient, exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .liealg import SignatureCtx, schwartz_action, coadjoint_action, LieElement
from .scalars import Poly, PolyGauss, Scalar, _add_into, howe_shift
from .superforms import SuperForm, sort_with_sign


def _hermite(n: int, nvars: int, var: int, e2: int, epi: int) -> Poly:
    """H_n(s x_var) for s = sqrt(2)^e2 sqrt(pi)^epi, from the raising recurrence
    in y = s x, where d/dy = s^(-1) d/dx: h_{n+1} = 2 s x h_n - s^(-1) h_n'.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    h = Poly.one(nvars)
    y2 = Poly.var(nvars, var) * Scalar.term(2, e2=e2, epi=epi)
    inv = Scalar.term(1, e2=-e2, epi=-epi)
    for _ in range(n):
        h = y2 * h - h.derive(var) * inv
    return h


def hermite(n: int, nvars: int = 1, var: int = 1) -> Poly:
    """Physicists' Hermite polynomial H_n in the given variable."""
    return _hermite(n, nvars, var, 0, 0)


def hermite_scaled(n: int, nvars: int, var: int) -> Poly:
    """H_n(sqrt(2 pi) x_var) as a polynomial with coefficients in the ring."""
    return _hermite(n, nvars, var, 1, 1)


def gaussian_plus(ctx: SignatureCtx) -> PolyGauss:
    """exp(-pi (x_1^2 + ... + x_n^2)), the majorant Gaussian."""
    return PolyGauss.gaussian([Fraction(1)] * ctx.nvars)


def _omega_key(p: int, alphas: tuple[int, ...]) -> tuple[tuple, int]:
    """The sorted key and sign of omega_{alpha_1, p+1} ^ ... ^ omega_{alpha_q, p+q}."""
    return sort_with_sign(tuple((a, p + 1 + k) for k, a in enumerate(alphas)))


def km_form_at_e(ctx: SignatureCtx) -> SuperForm:
    """Apply the operator product: 2^{-q} prod_mu (sum_alpha A_{alpha mu})
    to exp(-pi |x|^2), where A_{alpha mu} = omega_{alpha mu} (x)
    (x_alpha - (1/2pi) d/dx_alpha) acting on coefficients.

    The factors for distinct mu anticommute; we fold over mu in increasing
    order and wedge the new generator on the right, so the resulting index
    tuples read omega_{alpha_1, p+1} ^ ... ^ omega_{alpha_q, p+q}.
    """

    def step(acc: dict[tuple, PolyGauss], mu: int):
        for i_set, pg in acc.items():
            for alpha in range(1, ctx.p + 1):
                new_i, sign = sort_with_sign(i_set + ((alpha, mu),))
                if sign:
                    pg2 = howe_shift(pg, alpha)
                    yield new_i, pg2 if sign > 0 else -pg2

    acc = {(): gaussian_plus(ctx)}
    for mu in ctx.z0:
        acc = _add_into({}, step(acc, mu))
    scale = Scalar.term(Fraction(1), e2=-2 * ctx.q)  # 2^{-q}
    return SuperForm(ctx, (((i_set, ()), pg * scale) for i_set, pg in acc.items()))


def km_closed_form(ctx: SignatureCtx) -> SuperForm:
    """2^{-q} (2 pi)^{-q/2} sum over tuples (alpha_1..alpha_q) in [1,p]^q of

        omega_{alpha_1, p+1} ^ ... ^ omega_{alpha_q, p+q}
          (x) prod_alpha H_{n_alpha}(sqrt(2 pi) x_alpha) exp(-pi |x|^2)

    where n_alpha counts occurrences of alpha in the tuple.
    """
    p, q = ctx.p, ctx.q
    pref = Scalar.term(Fraction(1), e2=-3 * q, epi=-q)  # 2^{-q} (2pi)^{-q/2}
    gauss = gaussian_plus(ctx)

    def term(alphas: tuple[int, ...]):
        sorted_i, sign = _omega_key(p, alphas)
        poly = Poly.one(ctx.nvars)
        for alpha in range(1, p + 1):
            if alpha in alphas:
                poly = poly * hermite_scaled(alphas.count(alpha), ctx.nvars, alpha)
        pg = PolyGauss.from_poly(poly) * gauss * (pref * Scalar.rational(sign))
        return (sorted_i, ()), pg

    return SuperForm(ctx, map(term, itertools.product(range(1, p + 1), repeat=q)))


def exterior_derivative(a: SuperForm, grads: dict) -> SuperForm:
    """Invariant exterior derivative at the base point:
    d = sum over p-pairs of (omega_{alpha mu} ^ .) composed with the
    infinitesimal action of X_{alpha mu} on coefficients. ``grads`` is
    `coefficient_gradients(a)`, so every p-pair shares one gradient.
    """
    ctx = a.ctx
    xs = [(pair, LieElement.basis(ctx, *pair)) for pair in ctx.p_pairs()]

    def terms():
        for key in a.terms:
            i_set, j_set = key
            for pair, x in xs:
                new_i, sign = sort_with_sign((pair,) + i_set)
                if sign:
                    pg2 = schwartz_action(x, grads[key])
                    yield (new_i, j_set), pg2 if sign > 0 else -pg2

    return SuperForm(ctx, terms())


def coefficient_gradients(a: SuperForm) -> dict[tuple, list[PolyGauss]]:
    """The gradient of each coefficient of ``a``, by exterior key."""
    return {key: pg.gradient() for key, pg in a.terms.items()}


def lie_derivative(x: LieElement, a: SuperForm, grads: dict) -> SuperForm:
    """Action of X in k on a form with Schwartz coefficients: the coadjoint
    action on the exterior slots plus the infinitesimal action on the
    coefficient functions. Invariance means this vanishes. ``grads`` is
    `coefficient_gradients(a)`, so several X share one gradient.
    """
    return SuperForm(x.ctx, itertools.chain(
        coadjoint_action(x, a).terms.items(),
        ((key, schwartz_action(x, grads[key])) for key in a.terms),
    ))
