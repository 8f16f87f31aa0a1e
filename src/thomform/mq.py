"""Berezin-exponential construction of the Thom form.

`mq_phi0_at_e` and `mq_phi_at_e` build the form at the basepoint over the
full signature context; the `fiber_*` functions work on a single fiber R^q
(coframe dx_1..dx_q), where `_euler` states the Euler field; their d is
`km.exterior_derivative`, through `FiberCtx.d_fields`. The basepoint
forms and `fiber_umq` are all built by `_thom`, the Berezin integral of
`_exp`, the one exponential: it forms exp(a) as the product over z0 columns
mu of (1 + a_mu), times sum_b r^b / b!, and builds only the z0 degrees asked
for (`_thom` the top one, the hermite_lemma check every one).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .liealg import SignatureCtx, curvature_at_e
from .scalars import PolyGauss, Scalar, _FlatSum, gauss_exp, gauss_moment
from .superforms import FiberCtx, SuperForm


def mq_prefactor(q: int) -> Scalar:
    """(-1)^{q(q+1)/2} (2 pi)^{-q/2}."""
    sign = -1 if (q * (q + 1) // 2) % 2 else 1
    return Scalar.term(Fraction(sign), e2=-q, epi=-q)


def _exp(a: SuperForm, r: SuperForm, weight, degrees) -> SuperForm:
    """weight * the terms of exp(a + r) of z0 degree in ``degrees``, for a of
    bidegree (1,1) and r of bidegree (2,2). Both are even, so they commute,
    and the part of z0 degree k is sum_b [exp a]_(k-2b) ^ r^b / b!, [exp a]_j
    the part of z0 degree j: only those parts are built, in one flat sum. The
    columns a_mu of a (its terms with J = (mu,)) are even and square to zero,
    so exp a = prod_mu (1 + a_mu), one wedge per column. ``weight`` (a
    `Scalar` or a `PolyGauss`) commutes with everything, so it and 1/b!
    scale each r^b.
    """
    ctx, q = a.ctx, len(a.ctx.z0)
    exp_a = one = SuperForm.one(ctx)
    for mu in ctx.z0:
        a_mu = SuperForm._of(ctx, {key: pg for key, pg in a.terms.items() if key[1] == (mu,)})
        # exp_a ^ (1 + a_mu): the two parts' z0 sets differ, so nothing merges
        exp_a = exp_a + exp_a.wedge(a_mu)
    acc = _FlatSum(ctx.nvars)
    r_pow = itertools.accumulate([r] * (q // 2), SuperForm.wedge, initial=one)
    for b, r_b in enumerate(r_pow):
        part = {key: pg for key, pg in exp_a.terms.items() if len(key[1]) + 2 * b in degrees}
        scaled = r_b.scale(weight * Fraction(1, math.factorial(b)))
        SuperForm._of(ctx, part)._wedge_into(scaled, acc)
    return SuperForm._of(ctx, acc.result())


def _thom(a: SuperForm, r: SuperForm, gauss: list) -> SuperForm:
    """(-1)^{q(q+1)/2} (2 pi)^{-q/2} exp(-pi sum_i gauss[i] x_i^2) int^B exp(a + r):
    the Berezin integral keeps only the top z0 degree q, so `_exp` builds only that."""
    q = len(a.ctx.z0)
    return _exp(a, r, PolyGauss.gaussian(gauss) * mq_prefactor(q), (q,)).berezin()


def _basepoint_thom(ctx: SignatureCtx, gauss: list) -> SuperForm:
    """`_thom` of A = 2 sqrt(pi) sum_alpha x_alpha eta_alpha and R = rho(R_e)."""
    two_sqrt_pi = Scalar.term(Fraction(2), epi=1)
    a = SuperForm(ctx, (
        ((((alpha, mu),), (mu,)), PolyGauss.var(ctx.nvars, alpha) * two_sqrt_pi)
        for alpha in range(1, ctx.p + 1)
        for mu in ctx.z0
    ))
    return _thom(a, curvature_at_e(ctx), gauss)


def mq_phi0_at_e(ctx: SignatureCtx) -> SuperForm:
    """(-1)^{q(q+1)/2} (2 pi)^{-q/2} e^{2 pi Q|z0(v,v)}
    int^B exp(2 sqrt(pi) sum_alpha x_alpha eta_alpha + rho(R_e)).
    """
    # e^{2 pi Q|z0(v,v)} = exp(-2 pi sum_mu x_mu^2)
    return _basepoint_thom(ctx, [0] * ctx.p + [2] * ctx.q)


def mq_phi_at_e(ctx: SignatureCtx) -> SuperForm:
    """e^{-pi Q(v,v)} phi^0(v): with phi^0's Gaussian this is the majorant,
    the one Gaussian the Berezin integral is multiplied by."""
    return _basepoint_thom(ctx, [1] * ctx.nvars)


# -- fiber-level forms -------------------------------------------------


def fiber_section(ctx: FiberCtx) -> SuperForm:
    """The tautological section s = sum_i x_i (x) e_i, bidegree (0,1)."""
    return SuperForm(ctx, {((), (i,)): PolyGauss.var(ctx.nvars, i) for i in ctx.z0})


def fiber_ds(ctx: FiberCtx) -> SuperForm:
    """ds = sum_i dx_i (x) e_i, bidegree (1,1)."""
    one = PolyGauss.one(ctx.nvars)
    return SuperForm(ctx, {((i,), (i,)): one for i in ctx.z0})


def fiber_omega(ctx: FiberCtx) -> SuperForm:
    """2 pi |s|^2 + 2 sqrt(pi) ds, the exponent kernel on a fiber (curvature
    vanishes there)."""
    xs = [PolyGauss.var(ctx.nvars, i) for i in ctx.z0]
    quad = sum((x * x for x in xs), PolyGauss(ctx.nvars)) * Scalar.term(Fraction(2), epi=2)
    out = SuperForm(ctx, {((), ()): quad})
    return out + fiber_ds(ctx).scale(Scalar.term(Fraction(2), epi=1))


def fiber_umq(q: int) -> SuperForm:
    """Thom-form restriction to a fiber: the standard prefactor times
    e^{-2 pi |x|^2} times the Berezin integral of exp(-2 sqrt(pi) ds), built
    by `_thom` with no curvature term (it vanishes on a fiber).
    Equals 2^{q/2} e^{-2 pi |x|^2} dx_1 ^ ... ^ dx_q.
    """
    ctx = FiberCtx(q)
    a = fiber_ds(ctx).scale(Scalar.term(Fraction(-2), epi=1))
    return _thom(a, SuperForm(ctx), [2] * q)


def _euler(ctx: FiberCtx) -> dict[tuple[int, int], int]:
    """E = sum_i x_i d/dx_i, the generator of x -> t x, as entries {(k, l): c_kl}
    of sum c_kl x_l d/dx_k: `_contract_euler` contracts it, `fiber_euler` applies it."""
    return {(i, i): 1 for i in ctx.z0}


def fiber_transgression(q: int) -> SuperForm:
    """psi = i_E U for the Euler field E (see `_contract_euler`)."""
    return _contract_euler(fiber_umq(q))


def _contract_euler(a: SuperForm) -> SuperForm:
    """i_E a, E passed to `contract` as sum c_kl x_l dx_k (each term names its slot)."""
    ctx = a.ctx
    entries = _euler(ctx).items()
    euler = SuperForm(ctx, ((((k,), ()), PolyGauss.var(ctx.q, l) * c) for (k, l), c in entries))
    return a.contract(euler)


def fiber_euler(a: SuperForm) -> SuperForm:
    """The Lie derivative L_E a along the Euler field: E on each coefficient,
    plus the coefficient once per dx slot, since L_E dx_i = dx_i."""
    ctx, acc = a.ctx, _FlatSum(a.ctx.nvars)
    euler = _euler(ctx)
    for key, pg in a.terms.items():
        acc.add_field(key, pg.gradient(), euler)
        if key[0]:
            acc.add(key, pg, len(key[0]))
    return SuperForm._of(ctx, acc.result())


def fiber_scale_pullback(a: SuperForm, t: Fraction) -> SuperForm:
    """Pull back along x -> t x for an exact positive rational t."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scaling parameter must be positive")

    def pull(pg: PolyGauss, slots: int) -> PolyGauss:
        # the weight gains t^2, each monomial t^(degree), each dx-slot one more t
        return PolyGauss.from_items(a.ctx.nvars, gauss_exp([c * t * t for c in pg.g]), (
            (mono, coeff * Scalar.rational(t ** (sum(mono) + slots)))
            for mono, coeff in pg.items()
        ))

    return SuperForm(a.ctx, ((key, pull(pg, len(key[0]))) for key, pg in a.terms.items()))


def fiber_integrate(a: SuperForm) -> Scalar:
    """Integrate the top-fiber-degree component over R^q, exactly, via
    iterated one-dimensional Gaussian moments."""
    top = tuple(a.ctx.z0)

    def values():
        for (i_set, j_set), pg in a.terms.items():
            if i_set != top or j_set:
                continue
            for mono, val in pg.items():
                for e, c in zip(mono, pg.g):
                    val = val * gauss_moment(e, c)
                yield val

    return sum(values(), Scalar())
