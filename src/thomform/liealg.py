"""so(p,q) in the basis X_ij = T(e_i ^ e_j), with the k/p splitting.

Matrix conventions: E_ij is the matrix unit with a 1 in row i, column j.

    X_{alpha mu} = E_{alpha mu} + E_{mu alpha}   (p-part, alpha <= p < mu)
    X_{alpha beta} = E_{alpha beta} - E_{beta alpha}
    X_{nu mu} = -E_{nu mu} + E_{mu nu}           (both > p, nu < mu)

With this realization, for p-pairs and the convention X_{ji} = -X_{ij},
[X_{alpha mu}, X_{beta nu}] equals
delta_{mu nu} X_{alpha beta} - delta_{alpha beta} X_{mu nu}.

`SignatureCtx` owns both conventions: `in_p` is the split and `x_entries`
the sign table above. An element is held by its coordinates; its matrix has
at most two non-zero entries per coordinate, so brackets and actions work on
the sparse entries. Elements compare and test for zero, with no vector space
operators; k acts on forms through `_slot_moves`, which `lie_derivative` sums.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .scalars import PolyGauss, Scalar, _add_into, _FlatSum, _pairs
from .superforms import Key, SuperForm, merge_sorted

Pair = tuple[int, int]


@dataclass(frozen=True)
class SignatureCtx:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("signature requires p >= 1 and q >= 1")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def nvars(self) -> int:
        return self.n

    @property
    def z0(self) -> tuple[int, ...]:
        return tuple(range(self.p + 1, self.n + 1))

    def in_p(self, i: int, j: int) -> bool:
        """The Cartan split: X_ij (i < j) is in p iff it joins the two blocks."""
        return i <= self.p < j

    def x_entries(self, i: int, j: int, c: Fraction) -> tuple[Fraction, Fraction]:
        """Entries (i, j) and (j, i) of c X_ij, i < j: the sign table of the
        module docstring. A sign -1 negates c; nothing is multiplied."""
        if self.in_p(i, j):
            return c, c
        if j <= self.p:
            return c, -c
        return -c, c

    def _pairs(self, in_p: bool) -> list[Pair]:
        pairs = itertools.combinations(range(1, self.n + 1), 2)
        return [(i, j) for i, j in pairs if self.in_p(i, j) == in_p]

    def p_pairs(self) -> list[Pair]:
        return self._pairs(True)

    def k_pairs(self) -> list[Pair]:
        return self._pairs(False)

    def gen_str(self, g) -> str:
        return f"w[{g[0]},{g[1]}]"

    def d_fields(self) -> list[tuple[Pair, dict[Pair, Fraction]]]:
        """Each generator omega_{alpha mu} of d, with the action field of X_{alpha mu}."""
        return [(pair, _action_field(LieElement.basis(self, *pair))) for pair in self.p_pairs()]


class LieElement:
    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: SignatureCtx, coords: Mapping[Pair, Fraction] | Iterable | None = None):
        self.ctx = ctx
        self.coords = _add_into({}, ((pair, Fraction(c)) for pair, c in _pairs(coords)))
        for i, j in self.coords:
            if not (1 <= i < j <= ctx.n):
                raise ValueError(f"bad basis pair ({i},{j})")

    @staticmethod
    def basis(ctx: SignatureCtx, i: int, j: int) -> "LieElement":
        return LieElement(ctx, {(i, j): Fraction(1)})

    def _check(self, other: "LieElement"):
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")

    def __eq__(self, other):
        return isinstance(other, LieElement) and self.ctx == other.ctx and self.coords == other.coords

    def __bool__(self):
        return bool(self.coords)

    def in_k(self) -> bool:
        in_p = self.ctx.in_p
        return not any(in_p(i, j) for i, j in self.coords)

    def _entries(self) -> dict[Pair, Fraction]:
        """Non-zero matrix entries {(row, col): value}, 1-based."""
        x_entries = self.ctx.x_entries
        out: dict[Pair, Fraction] = {}
        for (i, j), c in self.coords.items():
            out[(i, j)], out[(j, i)] = x_entries(i, j, c)
        return out

    @staticmethod
    def _from_entries(ctx: SignatureCtx, entries: Mapping[Pair, Fraction]) -> "LieElement":
        """Coordinates of the matrix with these entries (absent ones are
        zero); raises ValueError unless the matrix is in so(p,q)."""

        def coords():
            # a non-zero diagonal entry (i == j) fails the test below
            for i, j in sorted({(min(r, c), max(r, c)) for r, c in entries}):
                upper, lower = entries.get((i, j), 0), entries.get((j, i), 0)
                c = ctx.x_entries(i, j, upper)[0]  # each sign is its own inverse
                if ctx.x_entries(i, j, c) != (upper, lower):
                    raise ValueError("matrix is not in so(p,q)")
                yield (i, j), c

        return LieElement(ctx, coords())

    def __str__(self) -> str:
        items = sorted(self.coords.items())
        parts = (f"X[{i},{j}]" if c == 1 else f"{c}*X[{i},{j}]" for (i, j), c in items)
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"LieElement({self})"


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """The commutator XY - YX, formed from the sparse matrix entries."""
    x._check(y)
    ys = y._entries().items()

    def products():
        for (i, k), u in x._entries().items():
            for (l, j), v in ys:
                if k == l:  # (XY)_ij += X_ik Y_kj
                    yield (i, j), u * v
                if j == i:  # (YX)_lk -= Y_li X_ik
                    yield (l, k), -v * u

    return LieElement._from_entries(x.ctx, _add_into({}, products()))


def eta(ctx: SignatureCtx, alpha: int) -> SuperForm:
    """eta_alpha = sum_mu omega_{alpha mu} (x) e_mu, bidegree (1,1)."""
    if not 1 <= alpha <= ctx.p:
        raise ValueError(f"alpha={alpha} out of range for p={ctx.p}")
    one = PolyGauss.one(ctx.nvars)
    terms = {(((alpha, mu),), (mu,)): one for mu in ctx.z0}
    return SuperForm(ctx, terms)


def curvature_at_e(ctx: SignatureCtx) -> SuperForm:
    """rho(R_e) in Lambda^2 p* (x) Lambda^2 z0, from R_e(X, Y) = -[X, Y] in k.

    The so(z0) block is read as Lambda^2 z0 via A -> sum <A e_nu, e_mu> e_nu ^ e_mu
    (<e_mu, e_nu> = delta on z0): row mu, column nu gives e_nu ^ e_mu, nu < mu.
    """
    pairs = ctx.p_pairs()

    def terms():
        for ia, pa in enumerate(pairs):
            for pb in pairs[ia + 1 :]:
                br = bracket(LieElement.basis(ctx, *pa), LieElement.basis(ctx, *pb))
                for (mu, nu), c in br._entries().items():
                    if ctx.p < nu < mu:
                        pg = PolyGauss.const(ctx.nvars, Scalar.rational(-c))
                        yield ((min(pa, pb), max(pa, pb)), (nu, mu)), pg

    return SuperForm(ctx, terms())


def _action_field(x: LieElement) -> dict[Pair, Fraction]:
    """{(k, l): -m_kl}: the linear field of `schwartz_action`."""
    return {kl: -c for kl, c in x._entries().items()}


def schwartz_action(x: LieElement, grad: list[PolyGauss]) -> PolyGauss:
    """Infinitesimal left action (X f)(v) = d/dt f(exp(-tX) v)|_0 = -(Xv). grad f,
    given ``grad`` = f.gradient(), so one differentiation of f serves every X.

    (Xv)_k = sum_l m_kl x_l, so this is the linear field -sum m_kl x_l d_k.
    """
    if len(grad) != x.ctx.n:
        raise ValueError("dimension mismatch")
    return _FlatSum(len(grad)).add_field(None, grad, _action_field(x)).total()


def _slot_moves(x: LieElement, a: SuperForm) -> Iterator[tuple[Key, PolyGauss, Fraction]]:
    """(key, coefficient, c) for each term of the coadjoint action of X in k
    on ``a``, by the columns of X's matrix: e_j -> sum_r m_rj e_r on each z0
    slot and on both indices of each omega_{alpha mu} slot. Coefficients
    are untouched.

    This is (X . omega)(Y) = -omega([X, Y]) on p*: p is R^p (x) R^q, where X
    acts by its two diagonal blocks, and each block is antisymmetric, so
    minus the transpose is the matrix itself.
    """
    if not x.in_k():
        raise ValueError("coadjoint action requires an element of k")
    cols: dict[int, list[tuple[int, Fraction]]] = {}
    for (r, j), c in x._entries().items():
        cols.setdefault(j, []).append((r, c))

    @functools.cache
    def images(gen):
        """(image, c) for each index of a z0 slot j or a p* slot (alpha, mu)."""
        if not isinstance(gen, tuple):
            return cols.get(gen, [])
        alpha, mu = gen
        return [((r, mu), c) for r, c in cols.get(alpha, ())] + [
            ((alpha, r), c) for r, c in cols.get(mu, ())
        ]

    for key, pg in a.terms.items():
        for side, slots in enumerate(key):
            for pos, gen in enumerate(slots):
                if not images(gen):
                    continue
                rest = slots[:pos] + slots[pos + 1 :]
                # gen2 stands at pos, not at the end: len(rest) - pos fewer swaps
                flip = (len(rest) - pos) % 2 == 1
                for gen2, c in images(gen):
                    moved, sign = merge_sorted(rest, (gen2,))
                    if sign:
                        new_key = (moved, key[1]) if side == 0 else (key[0], moved)
                        yield new_key, pg, -c if (sign < 0) != flip else c

