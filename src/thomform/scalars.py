"""Exact scalars in Q(sqrt2, sqrt(pi)) and polynomial-times-Gaussian functions.

Everything here is immutable value data with exact Fraction arithmetic, so
equality of two objects means equality of the functions they represent.

That holds because every sparse sum is canonical: equal keys are merged and
zero coefficients dropped. One function, `_add_into`, applies that rule for
the whole package; `Scalar`, `Poly`, `PolyGauss`, `SuperForm` and
`LieElement` build their terms through it, from a mapping or from any
iterable of (key, value) pairs.

Gaussian exponent keys follow one rule: `gauss_exp` stores an integral entry
as an int and any other entry as a Fraction. The two hash and compare equal,
so values, text and JSON do not depend on it; int keys are hashed in C.

Only this module knows how a coefficient is stored; other modules use
`PolyGauss.items`, `from_items`, `derive` (with or without a symbolic t),
`gradient` and `linear_field`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
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
        a, b = self.terms, other.terms
        if len(a) == 1 and len(b) == 1:  # one term each, as in every constructed form
            (ka, ra), = a.items()
            (kb, rb), = b.items()
            if ka == kb:
                r = ra + rb
                return Scalar._of({ka: r} if r else {})
        return Scalar._of(_add_into(dict(a), b.items()))

    def __neg__(self) -> "Scalar":
        return Scalar._of({k: -r for k, r in self.terms.items()})

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.rational(other)
        for unit, factor in ((other, self), (self, other)):
            if len(unit.terms) == 1:  # a factor +-1 costs no product
                r = unit.terms.get((0, 0))
                if r == 1:
                    return factor
                if r == -1:
                    return -factor
        a, b = self.terms, other.terms
        if len(a) == 1 and len(b) == 1:  # one term each: one product, nothing to merge
            ((a2, api), ra), = a.items()
            ((b2, bpi), rb), = b.items()
            key, r = _fold_sqrt2(a2 + b2, api + bpi, ra * rb)
            return Scalar._of({key: r})
        return Scalar._of(_add_into({}, (
            _fold_sqrt2(a2 + b2, api + bpi, ra * rb)
            for (a2, api), ra in a.items()
            for (b2, bpi), rb in b.items()
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
    """Polynomial in x1..xn with Scalar coefficients; keys are exponent tuples."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | Iterable | None = None):
        self.n = n
        items = list(_pairs(terms))
        if any(len(m) != n for m, _ in items):
            raise ValueError("monomial length mismatch")
        self.terms = _add_into({}, items)

    @staticmethod
    def _of(n: int, terms: dict) -> "Poly":
        p = Poly.__new__(Poly)
        p.n, p.terms = n, terms
        return p

    @staticmethod
    def const(n: int, c: Scalar) -> "Poly":
        return Poly(n, {(0,) * n: c})

    @staticmethod
    def one(n: int) -> "Poly":
        return Poly.const(n, ONE)

    @staticmethod
    def var(n: int, i: int) -> "Poly":
        # i is 1-based
        _check_index(i, n)
        m = [0] * n
        m[i - 1] = 1
        return Poly(n, {tuple(m): ONE})

    def _check(self, other: "Poly"):
        if self.n != other.n:
            raise ValueError("polynomial dimension mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._of(self.n, _add_into(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return Poly._of(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is Poly:
            self._check(other)
            return Poly._of(self.n, _add_into({}, (
                (tuple(map(add, ma, mb)), ca * cb)
                for ma, ca in self.terms.items()
                for mb, cb in other.terms.items()
            )))
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.rational(other)
        return Poly._of(self.n, _add_into({}, ((m, a * other) for m, a in self.terms.items())))

    __rmul__ = __mul__

    def derive(self, i: int) -> "Poly":
        # d/dx_i, 1-based
        _check_index(i, self.n)
        k = i - 1
        return Poly._of(self.n, _add_into({}, (
            (m[:k] + (m[k] - 1,) + m[i:], c * m[k]) for m, c in self.terms.items() if m[k]
        )))

    def eval(self, v: Iterable[float]) -> float:
        vv = list(v)
        total = 0.0
        for m, c in self.terms.items():
            prod = float(c)
            for x, e in zip(vv, m):
                if e:
                    prod *= x**e
            total += prod
        return total

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
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


class PolyGauss:
    """Finite sum of P(x) * exp(-pi * sum_i c_i x_i^2) with exact data.

    ``parts`` maps the diagonal Gaussian exponent vector (c_1..c_n) to the
    polynomial factor.
    """

    __slots__ = ("n", "parts")

    def __init__(self, n: int, parts: Mapping[GaussExp, Poly] | Iterable | None = None):
        self.n = n
        items = list(_pairs(parts))
        if any(len(g) != n or p.n != n for g, p in items):
            raise ValueError("dimension mismatch")
        self.parts = _add_into({}, items)

    @staticmethod
    def _of(n: int, parts: dict) -> "PolyGauss":
        pg = PolyGauss.__new__(PolyGauss)
        pg.n, pg.parts = n, parts
        return pg

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_poly(p: Poly) -> "PolyGauss":
        return PolyGauss(p.n, {gauss_exp([0] * p.n): p})

    @staticmethod
    def const(n: int, c: Scalar) -> "PolyGauss":
        return PolyGauss.from_poly(Poly.const(n, c))

    @staticmethod
    def one(n: int) -> "PolyGauss":
        return PolyGauss.const(n, ONE)

    @staticmethod
    def gaussian(coeffs: Iterable, poly: Poly | None = None) -> "PolyGauss":
        g = gauss_exp(coeffs)
        n = len(g)
        return PolyGauss(n, {g: poly if poly is not None else Poly.one(n)})

    @staticmethod
    def from_items(n: int, items: Iterable[tuple[GaussExp, Monomial, Scalar]]) -> "PolyGauss":
        """The sum of (Gaussian exponent, monomial, coefficient) triples, the
        inverse of `items`; exponent keys must follow `gauss_exp`."""
        parts: dict = {}
        for g, mono, c in items:
            parts.setdefault(g, []).append((mono, c))
        return PolyGauss(n, ((g, Poly(n, terms)) for g, terms in parts.items()))

    def items(self) -> Iterable[tuple[GaussExp, Monomial, Scalar]]:
        """Every term c * x^mono * exp(-pi sum_i g_i x_i^2) as (g, mono, c)."""
        return ((g, mono, c) for g, p in self.parts.items() for mono, c in p.terms.items())

    # -- arithmetic ----------------------------------------------------
    def _check(self, other: "PolyGauss"):
        if self.n != other.n:
            raise ValueError("PolyGauss dimension mismatch")

    def __add__(self, other: "PolyGauss") -> "PolyGauss":
        self._check(other)
        return PolyGauss._of(self.n, _add_into(dict(self.parts), other.parts.items()))

    def __neg__(self):
        return PolyGauss._of(self.n, {g: -p for g, p in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is PolyGauss:
            self._check(other)
            return PolyGauss._of(self.n, _add_into({}, (
                (tuple(map(add, ga, gb)), pa * pb)
                for ga, pa in self.parts.items()
                for gb, pb in other.parts.items()
            )))
        if type(other) is not Scalar and not isinstance(other, (int, Fraction)):
            return NotImplemented
        return PolyGauss._of(
            self.n, _add_into({}, ((g, p * other) for g, p in self.parts.items()))
        )

    __rmul__ = __mul__

    def derive(self, i: int, t: int | None = None) -> "PolyGauss":
        """Exact d/dx_i of P * exp(-pi E), where E = sum_j c_j x_j^2.

        Given ``t``, the index of the scaling variable of a pullback along
        x -> t x, E = x_t^2 sum_j c_j x_j^2 instead. The Gaussian adds
        -pi (dE/dx_i) P: -2 pi c_i x_i P without t, -2 pi c_i x_i x_t^2 P for
        i != t, and -2 pi sum_j c_j x_j^2 x_t P for i = t (when c_t = 0).
        """
        _check_index(i, self.n)
        if t is not None:
            _check_index(t, self.n)
        n, k = self.n, i - 1

        def slope(g: GaussExp) -> Poly:
            # E's term c_j x^m, m = 2 e_j (+ 2 e_t), adds -pi c_j m_i x^(m - e_i)
            terms = []
            for j in range(n) if i == t else (k,):
                m = [2 * (a == j) + 2 * (a + 1 == t) for a in range(n)]
                e, m[k] = m[k], m[k] - 1
                terms.append((tuple(m), Scalar.term(-e * g[j], epi=2)))
            return Poly(n, terms)

        return PolyGauss._of(n, _add_into({}, (
            (g, p.derive(i) + p * slope(g)) for g, p in self.parts.items()
        )))

    def gradient(self) -> list["PolyGauss"]:
        """The partial derivatives [d/dx_1, ..., d/dx_n] of self."""
        return [self.derive(i) for i in range(1, self.n + 1)]

    def map_vars(self, mapping: dict[int, int], new_n: int) -> "PolyGauss":
        """Relabel variables: old 1-based index -> new 1-based index."""

        def relabel(m: tuple) -> tuple:
            m2 = [0] * new_n
            for i, e in enumerate(m, start=1):
                if e:
                    m2[mapping[i] - 1] = e
            return tuple(m2)

        return PolyGauss.from_items(
            new_n, ((relabel(g), relabel(m), c) for g, m, c in self.items())
        )

    def eval(self, v: Iterable[float]) -> float:
        vv = list(v)
        if len(vv) != self.n:
            raise ValueError("evaluation vector length mismatch")
        total = 0.0
        for g, p in self.parts.items():
            expo = -math.pi * sum(float(c) * x * x for c, x in zip(g, vv))
            total += p.eval(vv) * math.exp(expo)
        return total

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        return (
            isinstance(other, PolyGauss) and self.n == other.n and self.parts == other.parts
        )

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        chunks = []
        for g in sorted(self.parts):
            p = self.parts[g]
            ps = str(p)
            if any(g):
                if len(p.terms) > 1:
                    ps = f"({ps})"
                quad = "+".join(
                    f"x{i}^2" if c == 1 else f"{c}*x{i}^2"
                    for i, c in enumerate(g, start=1)
                    if c
                )
                if ps == "1":
                    chunks.append(f"exp(-pi*({quad}))")
                else:
                    chunks.append(f"{ps} * exp(-pi*({quad}))")
            else:
                chunks.append(ps)
        return " + ".join(chunks)

    def __repr__(self):
        return f"PolyGauss({self})"


def linear_field(grad: list[PolyGauss], entries: Mapping[tuple[int, int], Fraction]) -> PolyGauss:
    """sum_{k,l} c_kl x_l d/dx_k f, for ``grad`` = f.gradient() and ``entries``
    {(k, l): c_kl} (1-based): x_l shifts exponents, so one gradient serves
    every field."""
    def terms():
        for (k, l), c in entries.items():
            l -= 1
            if c == 1 or c == -1:  # so(p,q) basis entries: s or -s, no product
                scaled = (lambda s: s) if c == 1 else Scalar.__neg__
            else:
                scaled = Scalar.rational(c).__mul__
            for g, mono, s in grad[k - 1].items():
                yield g, mono[:l] + (mono[l] + 1,) + mono[l + 1 :], scaled(s)

    return PolyGauss.from_items(len(grad), terms())


def howe_shift(a: PolyGauss, i: int) -> PolyGauss:
    """Apply x_i - (1/(2 pi)) d/dx_i."""
    _check_index(i, a.n)
    shift = a * PolyGauss.from_poly(Poly.var(a.n, i))
    return shift - a.derive(i) * Scalar.term(Fraction(1, 2), epi=-2)


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

