"""Berezin-exponential construction of the Thom form.

`mq_phi0_at_e` and `mq_phi_at_e` build the form at the basepoint over the
full signature context; the `fiber_*` functions work on a single fiber R^q
(coframe dx_1..dx_q), optionally carrying the scaling parameter t as an
extra polynomial variable (see `FiberCtx`). The basepoint forms and
`fiber_umq` are all built by `_thom`, the one Berezin-exponential builder,
which forms exp(a) as the product over z0 columns mu of (1 + a_mu).
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


def _thom(a: SuperForm, r: SuperForm, gauss: list) -> SuperForm:
    """(-1)^{q(q+1)/2} (2 pi)^{-q/2} exp(-pi sum_i gauss[i] x_i^2) int^B exp(a + r)
    for a of bidegree (1,1) and r of bidegree (2,2). Both are even, so they
    commute, and the top z0 degree q of exp(a + r), the only one the
    Berezin integral keeps, is sum_b [exp a]_(q-2b) ^ r^b / b!, [exp a]_k
    the part of z0 degree k: only that sum is built, in one flat sum. The
    columns a_mu of a (its terms with J = (mu,)) are even and square to
    zero, so exp a = prod_mu (1 + a_mu), one wedge per column. The Gaussian
    commutes with everything, so it and 1/b! scale each r^b.
    """
    ctx, q = a.ctx, len(a.ctx.z0)
    weight = PolyGauss.gaussian(gauss) * mq_prefactor(q)
    exp_a = one = SuperForm.one(ctx)
    for mu in ctx.z0:
        a_mu = SuperForm._of(ctx, {key: pg for key, pg in a.terms.items() if key[1] == (mu,)})
        # exp_a ^ (1 + a_mu): the two parts' z0 sets differ, so nothing merges
        exp_a = exp_a + exp_a.wedge(a_mu)
    top = _FlatSum(ctx.nvars)
    r_pow = itertools.accumulate([r] * (q // 2), SuperForm.wedge, initial=one)
    for b, r_b in enumerate(r_pow):
        part = {key: pg for key, pg in exp_a.terms.items() if len(key[1]) == q - 2 * b}
        scaled = r_b.scale(weight * Fraction(1, math.factorial(b)))
        SuperForm._of(ctx, part)._wedge_into(scaled, top)
    return SuperForm._of(ctx, top.result()).berezin()


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


def fiber_transgression(q: int) -> SuperForm:
    """psi = i_E U with E = sum_i x_i d/dx_i the Euler (fiber-scaling) field,
    passed to `contract` as sum_i x_i dx_i: each term names the slot it removes."""
    ctx = FiberCtx(q)
    euler = SuperForm(ctx, {((i,), ()): PolyGauss.var(ctx.nvars, i) for i in ctx.z0})
    return fiber_umq(q).contract(euler)


def fiber_d(a: SuperForm) -> SuperForm:
    """Exterior derivative d = sum_i dx_i ^ d/dx_i on a fiber."""
    ctx = a.ctx
    t = ctx.nvars if ctx.with_t else None

    def terms(i: int):
        da = a.map_coeffs(lambda pg: pg.derive(i, t))
        return SuperForm.generator(ctx, i).wedge(da).terms.items()

    return SuperForm(ctx, itertools.chain.from_iterable(map(terms, ctx.z0)))


def fiber_ddt(a: SuperForm) -> SuperForm:
    """d/dt on a form over a with_t context; `PolyGauss.derive` applies the
    chain rule to the t-scaled Gaussian."""
    if not a.ctx.with_t:
        raise ValueError("ddt requires a t-carrying context")
    t = a.ctx.nvars
    return a.map_coeffs(lambda pg: pg.derive(t, t))


def fiber_scale_pullback(a: SuperForm, t: Fraction) -> SuperForm:
    """Pull back along x -> t x for an exact positive rational t."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scaling parameter must be positive")
    ctx = a.ctx
    if ctx.with_t:
        raise ValueError("rational pullback applies to t-free forms")
    n = ctx.nvars

    def pull(pg: PolyGauss, slots: int) -> PolyGauss:
        # each monomial gains t^(degree), each dx-slot one more t
        return PolyGauss.from_items(n, (
            (
                gauss_exp([c * t * t for c in g]),
                mono,
                coeff * Scalar.rational(t ** (sum(mono) + slots)),
            )
            for g, mono, coeff in pg.items()
        ))

    return SuperForm(ctx, ((key, pull(pg, len(key[0]))) for key, pg in a.terms.items()))


def fiber_scale_pullback_symbolic(a: SuperForm) -> SuperForm:
    """Pull back along x -> t x with t carried as an extra variable.

    Input lives over FiberCtx(q); output over FiberCtx(q, with_t=True).
    Each monomial gains t^(total degree) and each dx-slot one more factor
    of t. The Gaussian keeps its entries c: `PolyGauss.derive` with ``t``
    reads each as c t^2 x_i^2, but text and `eval` show it without t^2:
    the text of ``fiber_scale_pullback_symbolic(fiber_umq(1))`` is
    ``1*sqrt2*x2 * exp(-pi*(2*x1^2)) dx[1]``.
    """
    ctx = a.ctx
    if ctx.with_t:
        raise ValueError("form already carries t")
    ctx_t = FiberCtx(ctx.q, with_t=True)
    n = ctx_t.nvars

    def pull(pg: PolyGauss, slots: int) -> PolyGauss:
        return PolyGauss.from_items(n, (
            (g + (0,), mono + (sum(mono) + slots,), coeff) for g, mono, coeff in pg.items()
        ))

    return SuperForm(ctx_t, ((key, pull(pg, len(key[0]))) for key, pg in a.terms.items()))


def fiber_integrate(a: SuperForm) -> Scalar:
    """Integrate the top-fiber-degree component over R^q, exactly, via
    iterated one-dimensional Gaussian moments."""
    ctx = a.ctx
    if ctx.with_t:
        raise ValueError("integration applies to t-free forms")
    q = ctx.q
    top = tuple(ctx.z0)

    def values():
        for (i_set, j_set), pg in a.terms.items():
            if i_set != top or j_set:
                continue
            for g, mono, val in pg.items():
                for i in range(q):
                    val = val * gauss_moment(mono[i], g[i])
                yield val

    return sum(values(), Scalar())
