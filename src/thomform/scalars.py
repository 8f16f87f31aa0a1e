"""Exact scalars in Q(sqrt2, sqrt(pi)) and polynomial-times-Gaussian functions.

Everything here is immutable value data with exact rational arithmetic, and
every value has one canonical form, so equality means equal functions. A
`PolyGauss` is P(x) times one Gaussian: it stores its Gaussian exponent
``g`` ((0,)*n for zero) and {packed-int atom: int numerator} over one least
denominator ``den`` (gcd 1 with the numerators; 1 for zero), with no zero
numerator: `==` compares ``g``, the dict and ``den``. An atom packs
x^mono sqrt2^e2 sqrt(pi)^epi: e2 in {0, 1} in bit 0, then epi + 2^(W-2) and
the exponents of x_1..x_n in W-bit fields (W = `_W`). A stored field stays
below its top bit, so adding two atoms never carries into the next field;
`_pack` and `_FlatSum.result` raise OverflowError for an exponent that leaves it.

`_FlatSum` is the one sum: +, -, products, partials, linear fields, wedge, d
and L_X add int numerators into it, and `result` hands its dicts over as the
stores after one gcd pass, building no Fraction, Scalar or Poly. A sum holds
one Gaussian weight: products add weights, zero adds to any weight, and a
non-zero contribution of another weight raises ValueError naming both.
`parts`, the {g: Poly} view that `items`, `str` and `eval` read, is built on
first read; `Poly` is only its record. `_add_into` merges every sparse sum
(`Scalar`, `SuperForm`, `LieElement`, the flat dicts), dropping what cancels.

Gaussian exponent keys follow one rule: `gauss_exp` stores an integral entry
as an int and any other entry as a Fraction. The two hash and compare equal,
so values, text and JSON do not depend on it; int keys are hashed in C.

Only this module knows how a coefficient is stored, and only it names
`Poly`: other modules build a `PolyGauss` from `var`, `const`, `one`,
`gaussian` and `from_items` (the weight once, then (monomial, coefficient)
pairs), use `g`, `items` (those pairs), `derive` and `gradient`, and sum
through `_FlatSum` (a linear field of a gradient through `add_field`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add, or_
from typing import Iterable, Mapping

SQRT2 = math.sqrt(2.0)
SQRTPI = math.sqrt(math.pi)


def _add_into(out: dict, items: Iterable[tuple]) -> dict:
    """Add each (key, value) of ``items`` into ``out``, dropping a key whose
    sum is zero; returns ``out``. Values are falsy exactly when zero."""
    for key, value in items:
        old = out.get(key)
        if old is not None:
            value = old + value
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


def _pairs(terms) -> Iterable[tuple]:
    """The (key, value) pairs of a mapping, an iterable of pairs, or None."""
    if terms is None:
        return ()
    return terms.items() if hasattr(terms, "items") else terms


def _fold_sqrt2(e2: int, epi: int, r: Fraction) -> tuple[tuple[int, int], Fraction]:
    # sqrt2^e2 = 2^(e2>>1) * sqrt2^(e2&1), also for negative e2
    k = e2 >> 1
    if k:
        r = r * (1 << k) if k > 0 else r / (1 << -k)
    return (e2 & 1, epi), r


class Scalar:
    """Element of Q[sqrt2, sqrt(pi)^(+-1)] stored as {(e2, epi): rational}.

    A term (e2, epi) -> r represents r * sqrt(2)^e2 * sqrt(pi)^epi with
    e2 in {0, 1} (even powers of sqrt2 folded into the rational).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Fraction] | Iterable | None = None):
        self.terms = _add_into(
            {}, (_fold_sqrt2(e2, epi, Fraction(r)) for (e2, epi), r in _pairs(terms))
        )

    @staticmethod
    def _of(terms: dict) -> "Scalar":
        s = Scalar.__new__(Scalar)
        s.terms = terms
        return s

    # -- constructors -------------------------------------------------
    @staticmethod
    def one() -> "Scalar":
        return Scalar({(0, 0): Fraction(1)})

    @staticmethod
    def rational(r) -> "Scalar":
        return Scalar({(0, 0): Fraction(r)})

    @staticmethod
    def term(r, e2: int = 0, epi: int = 0) -> "Scalar":
        return Scalar({(e2, epi): Fraction(r)})

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar._of(_add_into(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "Scalar":
        return Scalar._of({k: -r for k, r in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.rational(other)
        return Scalar._of(_add_into({}, (
            _fold_sqrt2(a2 + b2, api + bpi, ra * rb)
            for (a2, api), ra in self.terms.items()
            for (b2, bpi), rb in other.terms.items()
        )))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.terms == other.terms

    def __float__(self) -> float:
        return sum(
            (float(r) * SQRT2**e2 * SQRTPI**epi for (e2, epi), r in self.terms.items()),
            0.0,
        )

    def __bool__(self):
        return bool(self.terms)

    def bit_height(self) -> int:
        """The largest numerator or denominator bit length of the rationals."""
        return max(
            (max(abs(r.numerator), r.denominator).bit_length() for r in self.terms.values()),
            default=0,
        )

    # -- text ------------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (e2, epi) in sorted(self.terms):
            r = self.terms[(e2, epi)]
            factors = [str(r)]
            if e2:
                factors.append("sqrt2")
            if epi:
                ex = Fraction(epi, 2)
                factors.append("pi" if ex == 1 else f"pi^({ex})")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Scalar({self})"


ONE = Scalar.one()


def _check_index(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for dimension {n}")


Monomial = tuple[int, ...]


class Poly:
    """Polynomial in x1..xn with Scalar coefficients; keys are exponent tuples.
    The non-zero record that a `PolyGauss`'s `parts` view holds: it only prints."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Monomial, Scalar]):
        self.n, self.terms = n, terms

    def __str__(self) -> str:
        parts = []
        for m in sorted(self.terms, key=lambda m: (sum(m), m)):
            c = self.terms[m]
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(m, start=1) if e
            )
            cs = str(c)
            if len(c.terms) > 1:
                cs = f"({cs})"
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)


# Canonical key rule: an integral entry is an int (hashed in C), any other a Fraction.
GaussExp = tuple[int | Fraction, ...]


def gauss_exp(coeffs: Iterable) -> GaussExp:
    return tuple(f.numerator if f.denominator == 1 else f for f in map(Fraction, coeffs))


_W = 16  # bits per field of an atom
_LOW = 1 << (_W - 1)  # every stored field value is below this
_BIAS = _LOW >> 1  # the epi field stores epi + _BIAS
_FIELD = (1 << _W) - 1


def _pack(mono: Monomial, e2: int, epi: int) -> int:
    """The atom of x^mono sqrt2^e2 sqrt(pi)^epi, for e2 in {0, 1}."""
    fields = (epi + _BIAS, *mono)
    if reduce(or_, fields) & -_LOW:
        raise OverflowError(f"x^{mono} sqrt(pi)^{epi}: an exponent leaves its {_W}-bit field")
    return sum((f << (1 + _W * i) for i, f in enumerate(fields)), e2)


class PolyGauss:
    """P(x) * exp(-pi * sum_i g_i x_i^2) with exact data.

    ``g`` is the one diagonal Gaussian exponent vector ((0,)*n for zero) and
    ``atoms`` maps each atom of P to its numerator over the least
    denominator ``den`` (see the module docstring); ``parts`` is the
    read-only {g: Poly} view of it. `PolyGauss(n)` is zero."""

    __slots__ = ("n", "g", "den", "atoms", "_parts")

    def __init__(self, n: int):
        self.n, self.g, self.den, self.atoms, self._parts = n, (0,) * n, 1, {}, None

    @staticmethod
    def _of(n: int, g: GaussExp, atoms: dict, den: int) -> "PolyGauss":
        pg = PolyGauss.__new__(PolyGauss)
        pg.n, pg.g, pg.den, pg.atoms, pg._parts = n, g, den, atoms, None
        return pg

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(n: int, c: Scalar) -> "PolyGauss":
        return PolyGauss.from_items(n, (0,) * n, [((0,) * n, c)])

    @staticmethod
    def one(n: int) -> "PolyGauss":
        return PolyGauss.const(n, ONE)

    @staticmethod
    def var(n: int, i: int) -> "PolyGauss":
        """The coordinate x_i (1-based) in n variables."""
        _check_index(i, n)
        mono = tuple(int(j == i) for j in range(1, n + 1))
        return PolyGauss.from_items(n, (0,) * n, [(mono, ONE)])

    @staticmethod
    def gaussian(coeffs: Iterable) -> "PolyGauss":
        """exp(-pi sum_i coeffs[i] x_i^2)."""
        g = gauss_exp(coeffs)
        return PolyGauss.from_items(len(g), g, [((0,) * len(g), ONE)])

    @staticmethod
    def from_items(n: int, g: GaussExp, items: Iterable[tuple[Monomial, Scalar]]) -> "PolyGauss":
        """exp(-pi sum_i g_i x_i^2) times the sum of (monomial, coefficient)
        pairs: the inverse of `items`, given the weight ``g`` once, as
        `gauss_exp` keys it."""
        if len(g) != n:
            raise ValueError("dimension mismatch")
        acc = _FlatSum(n)
        for mono, c in items:
            if len(mono) != n:
                raise ValueError("dimension mismatch")
            if c:
                acc._merge(None, g, (
                    (_pack(mono, e2, epi), r.numerator * acc._per(r.denominator))
                    for (e2, epi), r in c.terms.items()
                ))
        return acc.total()

    @property
    def parts(self) -> dict:
        """{g: Poly}, one entry (none for zero), built from the store on first read."""
        if self._parts is None:
            monos: dict = {}
            for k, v in self.atoms.items():
                f = [(k >> (1 + _W * i)) & _FIELD for i in range(self.n + 1)]
                monos.setdefault(tuple(f[1:]), {})[k & 1, f[0] - _BIAS] = Fraction(v, self.den)
            poly = Poly(self.n, {m: Scalar._of(s) for m, s in monos.items()})
            self._parts = {self.g: poly} if monos else {}
        return self._parts

    def items(self) -> Iterable[tuple[Monomial, Scalar]]:
        """Every term c * x^mono of P as (mono, c); the one weight is ``g``."""
        return (pair for p in self.parts.values() for pair in p.terms.items())

    # -- arithmetic ----------------------------------------------------
    def _check(self, other: "PolyGauss"):
        if self.n != other.n:
            raise ValueError("PolyGauss dimension mismatch")

    def __add__(self, other: "PolyGauss") -> "PolyGauss":
        self._check(other)
        return _FlatSum(self.n).add(None, self).add(None, other).total()

    def __neg__(self):
        return PolyGauss._of(self.n, self.g, {k: -v for k, v in self.atoms.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not PolyGauss:
            if type(other) is Scalar:
                other = PolyGauss.const(self.n, other)
            elif isinstance(other, (int, Fraction)):
                return _FlatSum(self.n).add(None, self, other).total()
            else:
                return NotImplemented
        self._check(other)
        return _FlatSum(self.n).add_product(None, self, other).total()

    __rmul__ = __mul__

    def derive(self, i: int) -> "PolyGauss":
        """Exact d/dx_i of P * exp(-pi sum_j c_j x_j^2) (see `_partials`)."""
        return self._partials((i,))[0]

    def gradient(self) -> list["PolyGauss"]:
        """The partial derivatives [d/dx_1, ..., d/dx_n] of self."""
        return self._partials(range(1, self.n + 1))

    def _partials(self, indices: Iterable[int]) -> list["PolyGauss"]:
        """[d/dx_i self for i in indices], in one flat sum on integers: P's
        own partial, and the Gaussian's slope -2 pi g_i x_i P."""
        n, g, terms, indices = self.n, self.g, self.atoms, tuple(indices)
        for i in indices:
            _check_index(i, n)

        acc = _FlatSum(n)
        lcm = math.lcm(*(c.denominator for c in g))  # of every slope's denominator too
        for i in indices:
            at, unit = 1 + _W * i, lcm * acc._per(self.den * lcm)
            slope = int(-2 * g[i - 1] * unit)
            acc._merge(i, g, ((k - (1 << at), v * e * unit)
                              for k, v in terms.items() if (e := (k >> at) & _FIELD)))
            if slope:  # x_i sqrt(pi)^2 P
                acc._merge(i, g, ((k + (1 << at) + 4, v * slope) for k, v in terms.items()))
        parts = acc.result()
        return [parts.get(i) or PolyGauss(n) for i in indices]

    def map_vars(self, mapping: dict[int, int], new_n: int) -> "PolyGauss":
        """Relabel variables: old 1-based index -> new 1-based index."""

        def relabel(m: tuple) -> tuple:
            m2 = [0] * new_n
            for i, e in enumerate(m, start=1):
                if e:
                    m2[mapping[i] - 1] = e
            return tuple(m2)

        pairs = ((relabel(m), c) for m, c in self.items())
        return PolyGauss.from_items(new_n, relabel(self.g), pairs)

    def eval(self, v: Iterable[float]) -> float:
        vv = list(v)
        if len(vv) != self.n:
            raise ValueError("evaluation vector length mismatch")
        value = 0.0
        for m, c in self.items():
            prod = float(c)
            for x, e in zip(vv, m):
                if e:
                    prod *= x**e
            value += prod
        return value * math.exp(-math.pi * sum(float(c) * x * x for c, x in zip(self.g, vv)))

    def __bool__(self):
        return bool(self.atoms)

    def __eq__(self, other):
        return (
            isinstance(other, PolyGauss) and self.n == other.n and self.g == other.g
            and self.den == other.den and self.atoms == other.atoms
        )

    def __str__(self) -> str:
        if not self.atoms:
            return "0"
        p = self.parts[self.g]
        ps = str(p)
        if not any(self.g):
            return ps
        if len(p.terms) > 1:
            ps = f"({ps})"
        quad = "+".join(
            f"x{i}^2" if c == 1 else f"{c}*x{i}^2" for i, c in enumerate(self.g, start=1) if c
        )
        return f"exp(-pi*({quad}))" if ps == "1" else f"{ps} * exp(-pi*({quad}))"

    def __repr__(self):
        return f"PolyGauss({self})"


class _FlatSum:
    """A sum merged flat on integers over one common denominator ``den`` and
    one Gaussian weight ``g``: an int numerator per atom in a dict per outer
    key, dropped as it cancels. A non-zero contribution of another weight
    raises ValueError. `result` hands the dicts over as the stores of
    PolyGauss values."""

    __slots__ = ("n", "g", "den", "sums")

    def __init__(self, n: int):
        self.n, self.g, self.den, self.sums = n, None, 1, {}

    def _per(self, d: int) -> int:
        """den // d. A d that does not divide den first lifts den to their lcm,
        and every stored numerator by the same factor."""
        if self.den % d:
            lift = d // math.gcd(self.den, d)
            for atoms in self.sums.values():
                atoms.update({key: v * lift for key, v in atoms.items()})
            self.den *= lift
        return self.den // d

    def _merge(self, outer, g: GaussExp, items: Iterable[tuple]) -> None:
        """Add (atom, numerator over den) pairs of weight g under ``outer``;
        drop what cancels. The first weight is the sum's; another raises."""
        if g != self.g:
            if self.g is not None:
                raise ValueError(f"one sum, two Gaussian weights: {self.g} and {g}")
            self.g = g
        if not _add_into(self.sums.setdefault(outer, {}), items):
            del self.sums[outer]

    def add(self, outer, pg: PolyGauss, c=1, shift: int | None = None) -> "_FlatSum":
        """c * pg under ``outer``, times x_shift (1-based) if given."""
        if pg.atoms and c:
            u = c.numerator * self._per(pg.den * c.denominator)
            x = 0 if shift is None else 1 << (1 + _W * shift)
            self._merge(outer, pg.g, ((k + x, v * u) for k, v in pg.atoms.items()))
        return self

    def add_field(self, outer, grad: list[PolyGauss], entries: Mapping) -> "_FlatSum":
        """sum_{k,l} c_kl x_l d/dx_k f under ``outer``, for ``grad`` = f.gradient()
        and ``entries`` {(k, l): c_kl}; l = None is no x_l factor: {(k, None): 1} is d/dx_k."""
        for (k, l), c in entries.items():
            self.add(outer, grad[k - 1], c, l)
        return self

    def add_product(self, outer, a: PolyGauss, b: PolyGauss, negate=False) -> "_FlatSum":
        """a * b under ``outer``, negated if ``negate``: weights add, atoms add
        less one epi bias, numerators multiply, and sqrt2 * sqrt2 carries out
        of bit 0 as a factor 2."""
        if a.atoms and b.atoms:
            m = self._per(a.den * b.den) * (-1 if negate else 1)
            tb = b.atoms.items()
            self._merge(outer, tuple(map(add, a.g, b.g)), (
                (ka + kb - 2 * (_BIAS + (c := ka & kb & 1)), va * vb * m << c)
                for ka, va in a.atoms.items() for kb, vb in tb
            ))
        return self

    def result(self) -> dict:
        """{outer key: PolyGauss}, owning the dicts (the sum is spent), each
        over its least denominator. An exponent at a field's top bit raises."""
        top, out = ((1 << _W * (self.n + 1)) - 1) // _FIELD * (_LOW << 1), {}  # top bits
        for outer, atoms in self.sums.items():
            if reduce(or_, atoms) & top:
                raise OverflowError(f"an exponent leaves its {_W}-bit field")
            d = math.gcd(self.den, *atoms.values())
            if d > 1:
                atoms.update({k: v // d for k, v in atoms.items()})
            out[outer] = PolyGauss._of(self.n, self.g, atoms, self.den // d)
        return out

    def total(self) -> PolyGauss:
        """The value under outer key None."""
        return self.result().get(None) or PolyGauss(self.n)


def howe_shift(a: PolyGauss, i: int) -> PolyGauss:
    """Apply x_i - (1/(2 pi)) d/dx_i, in one flat sum."""
    half_over_pi = PolyGauss.const(a.n, Scalar.term(Fraction(1, 2), epi=-2))
    acc = _FlatSum(a.n).add(None, a, 1, i)
    return acc.add_product(None, a.derive(i), half_over_pi, negate=True).total()


class NotRepresentable(ValueError):
    """sqrt(c) is not in Q(sqrt2), or a Gaussian moment diverges; nothing
    falls back to numerics."""


def _sqrt_fraction(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_in_ring(c: Fraction) -> Scalar:
    """Exact sqrt(c) as a Scalar, for c = r^2 * 2^k; raises NotRepresentable."""
    c = Fraction(c)
    if c <= 0:
        raise NotRepresentable(f"sqrt of non-positive value {c}")
    r = _sqrt_fraction(c)
    if r is not None:
        return Scalar.rational(r)
    r = _sqrt_fraction(c / 2)
    if r is not None:
        return Scalar.term(r, e2=1)
    raise NotRepresentable(f"sqrt({c}) is not in Q(sqrt2)")


def gauss_moment(n: int, c) -> Scalar:
    """Exact integral of x^n exp(-c pi x^2) over the real line.

    Zero for odd n; for even n equals (n-1)!! / (2 c pi)^(n/2) / sqrt(c).
    Requires sqrt(c) in the scalar ring and c > 0.
    """
    c = Fraction(c)
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    if c <= 0:
        raise NotRepresentable(f"Gaussian exponent {c} is not positive; integral diverges")
    if n % 2 == 1:
        return Scalar()
    inv_sqrt_c = sqrt_in_ring(1 / c)
    k = n // 2
    dfact = 1
    for j in range(1, n, 2):
        dfact *= j
    # (2 c pi)^(-n/2) = (2c)^(-k) pi^(-k)
    return Scalar.term(Fraction(dfact, (2 * c) ** k if k else 1), epi=-2 * k) * inv_sqrt_c

