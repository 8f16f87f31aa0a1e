"""Test-side references shared by several test modules: each restates a
library operator from its definition, independently of the flat kernel."""

from fractions import Fraction

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
