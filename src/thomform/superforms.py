"""Bigraded exterior algebra Lambda(p*) (x) Lambda(z0) with PolyGauss coefficients.

Keys are pairs (I, J): I a strictly increasing tuple of one-form
generators, J one of z0 indices; the constructor rejects any other key. A
form is falsy exactly when it is zero. The product follows the bigraded
Koszul rule (w (x) s) ^ (e (x) t) = (-1)^(jk) (w ^ e) (x) (s ^ t).

The same class serves both the symmetric-space algebra (generators are
(alpha, mu) pairs for omega_{alpha mu}) and fiber forms (generators are
integers for dx_i); only the context differs. The class has no exponential:
`mq._exp` builds exp(a + r) from wedges, and `sizes` and `str` read each
coefficient through `PolyGauss.items`, its (monomial, coefficient) pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping

from .scalars import Inhomogeneous, PolyGauss, Scalar, _add_into, _FlatSum, _pairs

Key = tuple[tuple, tuple]


def merge_sorted(a: tuple, b: tuple) -> tuple[tuple, int]:
    """Concatenate-and-sort: a strictly increasing, b in any order.

    Returns (sorted tuple, sign of the permutation that sorts a + b); sign 0
    when a generator repeats.
    """
    out = list(a)
    sign = 1
    for x in b:
        pos = bisect_right(out, x)
        if pos and out[pos - 1] == x:
            return (), 0
        if (len(out) - pos) % 2:
            sign = -sign
        out.insert(pos, x)
    return tuple(out), sign


def sort_with_sign(seq: tuple) -> tuple[tuple, int]:
    return merge_sorted((), seq)


def _one_weight(terms: dict) -> dict:
    """``terms``; coefficients of two Gaussian weights raise Inhomogeneous naming both."""
    weights = dict.fromkeys(pg.g for pg in terms.values())
    if len(weights) > 1:
        raise Inhomogeneous("one form, two Gaussian weights: {} and {}".format(*weights))
    return terms


@dataclass(frozen=True)
class FiberCtx:
    """Context for forms on a single fiber R^q with coframe dx_1..dx_q and
    coefficients in x_1..x_q."""

    q: int

    @property
    def nvars(self) -> int:
        return self.q

    @property
    def z0(self) -> tuple[int, ...]:
        return tuple(range(1, self.q + 1))

    def gen_str(self, g) -> str:
        return f"dx[{g}]"

    def d_fields(self) -> list[tuple[int, dict]]:
        """Each generator dx_i of d, with d/dx_i as the field {(i, None): 1}."""
        return [(i, {(i, None): 1}) for i in self.z0]


class SuperForm:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms: Mapping[Key, PolyGauss] | Iterable | None = None):
        self.ctx = ctx
        self.terms = _one_weight(_add_into(
            {}, (((tuple(i_set), tuple(j_set)), pg) for (i_set, j_set), pg in _pairs(terms))
        ))
        for key, pg in self.terms.items():
            if pg.n != ctx.nvars:
                raise ValueError("coefficient dimension mismatch")
            if key != (tuple(sorted(set(key[0]))), tuple(sorted(set(key[1])))):
                raise ValueError(f"key {key}: I and J must be strictly increasing")

    @staticmethod
    def _of(ctx, terms: dict) -> "SuperForm":
        f = SuperForm.__new__(SuperForm)
        f.ctx, f.terms = ctx, terms
        return f

    # -- constructors -------------------------------------------------
    @staticmethod
    def one(ctx) -> "SuperForm":
        return SuperForm(ctx, {((), ()): PolyGauss.one(ctx.nvars)})

    # -- linear structure -----------------------------------------------
    def _check(self, other: "SuperForm"):
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")

    def __add__(self, other: "SuperForm") -> "SuperForm":
        self._check(other)
        terms = _add_into(dict(self.terms), other.terms.items())
        return SuperForm._of(self.ctx, _one_weight(terms))

    def __neg__(self):
        return SuperForm._of(self.ctx, {k: -pg for k, pg in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "SuperForm":
        c = PolyGauss.const(self.ctx.nvars, c) if type(c) is Scalar else c  # packed once
        return SuperForm(self.ctx, ((k, pg * c) for k, pg in self.terms.items()))

    def __eq__(self, other):
        return (
            isinstance(other, SuperForm)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def sizes(self) -> tuple[int, int, int]:
        """(exterior terms, monomials, largest numerator or denominator
        bit length over all coefficients)."""
        coeffs = [c for pg in self.terms.values() for _mono, c in pg.items()]
        return len(self.terms), len(coeffs), max(map(Scalar.bit_height, coeffs), default=0)

    # -- products --------------------------------------------------------
    def wedge(self, other: "SuperForm") -> "SuperForm":
        return SuperForm._of(self.ctx, self._wedge_into(other, _FlatSum(self.ctx.nvars)).result())

    def _wedge_into(self, other: "SuperForm", acc: _FlatSum) -> _FlatSum:
        """Add self ^ other into ``acc`` by the Koszul rule; returns ``acc``.
        Both sides are grouped by J: one merge per pair of J groups, and a
        pair that overlaps is skipped whole."""
        self._check(other)
        left, right = {}, {}  # {J: [(I, coefficient)]}
        for form, groups in ((self, left), (other, right)):
            for (i_set, j_set), pg in form.terms.items():
                groups.setdefault(j_set, []).append((i_set, pg))
        for ja, rows_a in left.items():
            for jb, rows_b in right.items():
                j_set, sj = merge_sorted(ja, jb)
                if not sj:
                    continue
                for ia, pga in rows_a:
                    for ib, pgb in rows_b:
                        i_set, si = merge_sorted(ia, ib)
                        if si:
                            sign = si * sj * (-1 if (len(ja) * len(ib)) % 2 else 1)
                            acc.add_product((i_set, j_set), pga, pgb, sign < 0)
        return acc

    def berezin(self) -> "SuperForm":
        """Project onto the top z0 component e_{min}^...^e_{max}, stripping it."""
        top = tuple(self.ctx.z0)
        out = {(i, ()): pg for (i, j), pg in self.terms.items() if j == top}
        return SuperForm(self.ctx, out)

    def contract(self, v: "SuperForm") -> "SuperForm":
        """Interior product i(v) for a vector v on either factor: each term
        of v holds one generator, bidegree (1,0) or (0,1). A slot holding
        that generator is removed, times its coefficient in v, with the sign
        (-1)^(slots before it), the I slots counted before the J slots."""
        self._check(v)
        coeffs: dict[tuple[int, object], PolyGauss] = {}
        for (i_set, j_set), pg in v.terms.items():
            if len(i_set) + len(j_set) != 1:
                raise ValueError("contraction argument must have bidegree (1,0) or (0,1)")
            coeffs[(0, i_set[0]) if i_set else (1, j_set[0])] = pg

        acc = _FlatSum(self.ctx.nvars)
        for (i_set, j_set), pg in self.terms.items():
            for factor, gens, before in ((0, i_set, 0), (1, j_set, len(i_set))):
                for pos, g in enumerate(gens):
                    if (factor, g) in coeffs:
                        rest = gens[:pos] + gens[pos + 1 :]
                        key = (rest, j_set) if factor == 0 else (i_set, rest)
                        acc.add_product(key, pg, coeffs[(factor, g)], (before + pos) % 2)
        return SuperForm._of(self.ctx, acc.result())

    # -- text / json -------------------------------------------------------
    def _key_str(self, i_set: tuple, j_set: tuple) -> str:
        chunks = []
        if i_set:
            chunks.append("^".join(self.ctx.gen_str(g) for g in i_set))
        if j_set:
            chunks.append("^".join(f"e[{j}]" for j in j_set))
        return " ".join(chunks)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (len(k[0]), len(k[1]), k)):
            pg = self.terms[key]
            ks = self._key_str(*key)
            cs = str(pg)
            if ks:
                if sum(1 for _ in pg.items()) > 1:
                    cs = f"({cs})"
                parts.append(f"{cs} {ks}")
            else:
                parts.append(cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"SuperForm({self})"

    def to_json(self) -> dict:
        items = []
        for (i_set, j_set) in sorted(self.terms, key=lambda k: (len(k[0]), len(k[1]), k)):
            pg = self.terms[(i_set, j_set)]
            items.append(
                {
                    "gens": [list(g) if isinstance(g, tuple) else g for g in i_set],
                    "z0": list(j_set),
                    "coeff": str(pg),
                }
            )
        return {"terms": items}

