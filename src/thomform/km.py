"""The positive-degree Schwartz form on p* (x) Lambda z0, two ways.

`km_form_at_e` applies the product of annihilation-style raising operators
to the standard Gaussian; `km_closed_form` expands it in `hermite_scaled`,
the one Hermite polynomial. The two must agree exactly, term by term.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .liealg import LieElement, SignatureCtx, _slot_moves, schwartz_action
from .scalars import PolyGauss, Scalar, _FlatSum, howe_shift
from .superforms import SuperForm, merge_sorted, sort_with_sign


def hermite_scaled(n: int, nvars: int, var: int) -> PolyGauss:
    """H_n(y) at y = sqrt(2 pi) x_var, of the one grade (n mod 2, 0), from the
    three-term recurrence H_{k+1} = 2 y H_k - 2k H_{k-1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    prev, h = PolyGauss(nvars), PolyGauss.one(nvars)
    y2 = PolyGauss.var(nvars, var) * Scalar.term(2, e2=1, epi=1)
    for k in range(n):
        prev, h = h, y2 * h - prev * (2 * k)
    return h


def _omega_key(p: int, alphas: tuple[int, ...]) -> tuple[tuple, int]:
    """The sorted key and sign of omega_{alpha_1, p+1} ^ ... ^ omega_{alpha_q, p+q}."""
    return sort_with_sign(tuple((a, p + 1 + k) for k, a in enumerate(alphas)))


def _one_fewer(counts: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The largest alpha with n_alpha > 0, and ``counts`` with that n_alpha one smaller."""
    alpha = max(a for a, n in enumerate(counts, start=1) if n)
    return alpha, counts[: alpha - 1] + (counts[alpha - 1] - 1,) + counts[alpha:]


def _graded_counts(p: int, q: int) -> list[tuple[int, ...]]:
    """Every count vector (n_1..n_p) with 0 < sum <= q, by sum: each comes
    after its `_one_fewer`."""
    boxed = itertools.product(range(q + 1), repeat=p)
    return sorted((c for c in boxed if 0 < sum(c) <= q), key=sum)


def _omega_form(ctx: SignatureCtx, coeffs: dict[tuple[int, ...], PolyGauss]) -> SuperForm:
    """Sum over (alpha_1..alpha_q) in [1,p]^q of omega_{alpha_1,p+1} ^ ... ^
    omega_{alpha_q,p+q} (x) coeffs[n], n the tuple's count vector. Each coefficient
    is negated at most once: the tuples of one count vector and sign share one object."""
    p, signed = ctx.p, {}

    def term(alphas: tuple[int, ...]):
        sorted_i, sign = _omega_key(p, alphas)
        key = (tuple(map(alphas.count, range(1, p + 1))), sign)
        if key not in signed:
            signed[key] = coeffs[key[0]] if sign > 0 else -coeffs[key[0]]
        return (sorted_i, ()), signed[key]

    return SuperForm(ctx, map(term, itertools.product(range(1, p + 1), repeat=ctx.q)))


def km_form_at_e(ctx: SignatureCtx) -> SuperForm:
    """Apply the operator product: 2^{-q} prod_mu (sum_alpha A_{alpha mu})
    to exp(-pi |x|^2), where A_{alpha mu} = omega_{alpha mu} (x)
    (x_alpha - (1/2pi) d/dx_alpha) acting on coefficients.

    The tuple (alpha_1..alpha_q) gives omega_{alpha_1, p+1} ^ ... ^
    omega_{alpha_q, p+q}. The shifts in distinct x_alpha commute, so its
    coefficient depends only on the count vector (n_alpha): each is one
    `howe_shift` of the coefficient one count smaller, in the index it
    adds, C(p+q, q) - 1 shifts in all; `_omega_form` places them.
    """
    scale = Scalar.term(Fraction(1), e2=-2 * ctx.q)  # 2^{-q}
    built = {(0,) * ctx.p: PolyGauss.gaussian([1] * ctx.nvars) * scale}
    for counts in _graded_counts(ctx.p, ctx.q):
        alpha, fewer = _one_fewer(counts)
        built[counts] = howe_shift(built[fewer], alpha)
    return _omega_form(ctx, built)


def km_closed_form(ctx: SignatureCtx) -> SuperForm:
    """2^{-q} (2 pi)^{-q/2} sum over tuples (alpha_1..alpha_q) in [1,p]^q of

        omega_{alpha_1, p+1} ^ ... ^ omega_{alpha_q, p+q}
          (x) prod_alpha H_{n_alpha}(sqrt(2 pi) x_alpha) exp(-pi |x|^2)

    where n_alpha counts occurrences of alpha in the tuple. The coefficient
    depends on the tuple only through (n_alpha), so it is built once per
    count vector, and each Hermite factor once per (n, alpha).
    """
    p, q = ctx.p, ctx.q
    pref = Scalar.term(Fraction(1), e2=-3 * q, epi=-q)  # 2^{-q} (2pi)^{-q/2}
    weight = PolyGauss.gaussian([1] * ctx.nvars) * pref
    factor = functools.cache(lambda n, alpha: hermite_scaled(n, ctx.nvars, alpha))
    return _omega_form(ctx, {
        counts: math.prod((factor(n, a) for a, n in enumerate(counts, 1) if n), start=weight)
        for counts in _graded_counts(p, q) if sum(counts) == q
    })


def exterior_derivative(a: SuperForm, grads: dict) -> SuperForm:
    """d = sum over the generators w of `ctx.d_fields()` of (w ^ .) composed
    with w's field on coefficients: X_{alpha mu}'s action for omega_{alpha mu}
    at the base point, d/dx_i for dx_i on a fiber. ``grads`` is
    `coefficient_gradients(a)`, so every generator shares one gradient."""
    ctx = a.ctx
    signed = [(gen, {1: f, -1: {kl: -c for kl, c in f.items()}}) for gen, f in ctx.d_fields()]
    acc = _FlatSum(ctx.nvars)
    for i_set, j_set in a.terms:
        # merge_sorted counts gen from after i_set; d puts it in front
        parity = -1 if len(i_set) % 2 else 1
        for gen, field in signed:
            new_i, sign = merge_sorted(i_set, (gen,))
            if sign:
                acc.add_field((new_i, j_set), grads[i_set, j_set], field[sign * parity])
    return SuperForm._of(ctx, acc.result())


def coefficient_gradients(a: SuperForm) -> dict[tuple, list[PolyGauss]]:
    """The gradient of each coefficient of ``a``, by exterior key: one
    `gradient()` per distinct coefficient object, so keys that share a
    coefficient share one list. The lists are shared and read-only."""
    by_id = {id(pg): pg.gradient() for pg in {id(pg): pg for pg in a.terms.values()}.values()}
    return {key: by_id[id(pg)] for key, pg in a.terms.items()}


def lie_derivative(x: LieElement, a: SuperForm, grads: dict) -> SuperForm:
    """Action of X in k on a form with Schwartz coefficients: the coadjoint
    action on the exterior slots plus the infinitesimal action on the
    coefficient functions, one `schwartz_action` per distinct gradient list
    of ``grads`` = `coefficient_gradients(a)`. Invariance means this vanishes.
    """
    acc = _FlatSum(x.ctx.nvars)
    for key, pg, c in _slot_moves(x, a):
        acc.add(key, pg, c)
    fields = {id(g): schwartz_action(x, g) for g in {id(g): g for g in grads.values()}.values()}
    for key in a.terms:
        if fields[id(grads[key])]:
            acc.add(key, fields[id(grads[key])])
    return SuperForm._of(x.ctx, acc.result())
