"""Exact scalars in Q(sqrt2, sqrt(pi)) and polynomial-times-Gaussian functions.

Everything here is immutable value data with exact Fraction arithmetic, so
equality of two objects means equality of the functions they represent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

SQRT2 = math.sqrt(2.0)
SQRTPI = math.sqrt(math.pi)


def _fold_sqrt2(r: Fraction, e2: int) -> tuple[Fraction, int]:
    # sqrt2^e2 = 2^(e2//2) * sqrt2^(e2%2), also for negative e2
    return r * Fraction(2) ** (e2 // 2), e2 % 2


class Scalar:
    """Element of Q[sqrt2, sqrt(pi)^(+-1)] stored as {(e2, epi): rational}.

    A term (e2, epi) -> r represents r * sqrt(2)^e2 * sqrt(pi)^epi with
    e2 in {0, 1} (even powers of sqrt2 folded into the rational).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (e2, epi), r in terms.items():
                r = Fraction(r)
                if r == 0:
                    continue
                r, e2 = _fold_sqrt2(r, e2)
                key = (e2, epi)
                acc = clean.get(key, Fraction(0)) + r
                if acc == 0:
                    clean.pop(key, None)
                else:
                    clean[key] = acc
        self.terms = clean

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return Scalar({(0, 0): Fraction(1)})

    @staticmethod
    def rational(r) -> "Scalar":
        return Scalar({(0, 0): Fraction(r)})

    @staticmethod
    def term(r, e2: int = 0, epi: int = 0) -> "Scalar":
        return Scalar({(e2, epi): Fraction(r)})

    @staticmethod
    def sqrt2(power: int = 1) -> "Scalar":
        return Scalar.term(1, e2=power)

    @staticmethod
    def sqrt_pi(power: int = 1) -> "Scalar":
        return Scalar.term(1, epi=power)

    @staticmethod
    def pi(power: int = 1) -> "Scalar":
        return Scalar.term(1, epi=2 * power)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Scalar") -> "Scalar":
        out = dict(self.terms)
        for k, r in other.terms.items():
            acc = out.get(k, Fraction(0)) + r
            if acc == 0:
                out.pop(k, None)
            else:
                out[k] = acc
        s = Scalar.__new__(Scalar)
        s.terms = out
        return s

    def __neg__(self) -> "Scalar":
        s = Scalar.__new__(Scalar)
        s.terms = {k: -r for k, r in self.terms.items()}
        return s

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (a2, api), ra in self.terms.items():
            for (b2, bpi), rb in other.terms.items():
                r, e2 = _fold_sqrt2(ra * rb, a2 + b2)
                key = (e2, api + bpi)
                acc = out.get(key, Fraction(0)) + r
                if acc == 0:
                    out.pop(key, None)
                else:
                    out[key] = acc
        s = Scalar.__new__(Scalar)
        s.terms = out
        return s

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            raise ValueError("negative powers only via explicit terms")
        out = Scalar.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __float__(self) -> float:
        return sum(
            (float(r) * SQRT2**e2 * SQRTPI**epi for (e2, epi), r in self.terms.items()),
            0.0,
        )

    def __bool__(self):
        return bool(self.terms)

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

Monomial = tuple[int, ...]


class Poly:
    """Polynomial in x1..xn with Scalar coefficients; keys are exponent tuples."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        self.n = n
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for m, c in terms.items():
                if len(m) != n:
                    raise ValueError("monomial length mismatch")
                if not c.is_zero():
                    prev = clean.get(m)
                    c = prev + c if prev is not None else c
                    if c.is_zero():
                        clean.pop(m, None)
                    else:
                        clean[m] = c
        self.terms = clean

    @staticmethod
    def const(n: int, c: Scalar) -> "Poly":
        return Poly(n, {(0,) * n: c})

    @staticmethod
    def one(n: int) -> "Poly":
        return Poly.const(n, ONE)

    @staticmethod
    def var(n: int, i: int, power: int = 1) -> "Poly":
        # i is 1-based
        m = [0] * n
        m[i - 1] = power
        return Poly(n, {tuple(m): ONE})

    def _check(self, other: "Poly"):
        if self.n != other.n:
            raise ValueError("polynomial dimension mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(m, None)
            else:
                out[m] = acc
        p = Poly.__new__(Poly)
        p.n, p.terms = self.n, out
        return p

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.n = self.n
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = other if isinstance(other, Scalar) else Scalar.rational(other)
            p = Poly.__new__(Poly)
            p.n = self.n
            p.terms = {
                m: v for m, v in ((m, a * c) for m, a in self.terms.items()) if not v.is_zero()
            }
            return p
        self._check(other)
        out: dict[Monomial, Scalar] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                c = ca * cb
                acc = out.get(m)
                acc = c if acc is None else acc + c
                if acc.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = acc
        p = Poly.__new__(Poly)
        p.n, p.terms = self.n, out
        return p

    __rmul__ = __mul__

    def derive(self, i: int) -> "Poly":
        # d/dx_i, 1-based
        out: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            e = m[i - 1]
            if e == 0:
                continue
            m2 = m[: i - 1] + (e - 1,) + m[i:]
            acc = out.get(m2)
            c2 = c * e
            acc = c2 if acc is None else acc + c2
            if acc.is_zero():
                out.pop(m2, None)
            else:
                out[m2] = acc
        p = Poly.__new__(Poly)
        p.n, p.terms = self.n, out
        return p

    def map_vars(self, mapping: dict[int, int], new_n: int) -> "Poly":
        """Relabel variables: old 1-based index -> new 1-based index."""
        out: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            m2 = [0] * new_n
            for i, e in enumerate(m, start=1):
                if e:
                    m2[mapping[i] - 1] = e
            key = tuple(m2)
            acc = out.get(key)
            acc = c if acc is None else acc + c
            out[key] = acc
        return Poly(new_n, out)

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

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

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


GaussExp = tuple[Fraction, ...]


def gauss_exp(coeffs: Iterable) -> GaussExp:
    return tuple(Fraction(c) for c in coeffs)


class PolyGauss:
    """Finite sum of P(x) * exp(-pi * sum_i c_i x_i^2) with exact data.

    ``parts`` maps the diagonal Gaussian exponent vector (c_1..c_n) to the
    polynomial factor.
    """

    __slots__ = ("n", "parts")

    def __init__(self, n: int, parts: Mapping[GaussExp, Poly] | None = None):
        self.n = n
        clean: dict[GaussExp, Poly] = {}
        if parts:
            for g, p in parts.items():
                if len(g) != n or p.n != n:
                    raise ValueError("dimension mismatch")
                if p.is_zero():
                    continue
                prev = clean.get(g)
                p2 = prev + p if prev is not None else p
                if p2.is_zero():
                    clean.pop(g, None)
                else:
                    clean[g] = p2
        self.parts = clean

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(n: int) -> "PolyGauss":
        return PolyGauss(n)

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

    # -- arithmetic ----------------------------------------------------
    def _check(self, other: "PolyGauss"):
        if self.n != other.n:
            raise ValueError("PolyGauss dimension mismatch")

    def __add__(self, other: "PolyGauss") -> "PolyGauss":
        self._check(other)
        out = dict(self.parts)
        for g, p in other.parts.items():
            prev = out.get(g)
            p2 = p if prev is None else prev + p
            if p2.is_zero():
                out.pop(g, None)
            else:
                out[g] = p2
        pg = PolyGauss.__new__(PolyGauss)
        pg.n, pg.parts = self.n, out
        return pg

    def __neg__(self):
        pg = PolyGauss.__new__(PolyGauss)
        pg.n = self.n
        pg.parts = {g: -p for g, p in self.parts.items()}
        return pg

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            out = {g: p * other for g, p in self.parts.items()}
            return PolyGauss(self.n, out)
        self._check(other)
        out: dict[GaussExp, Poly] = {}
        for ga, pa in self.parts.items():
            for gb, pb in other.parts.items():
                g = tuple(a + b for a, b in zip(ga, gb))
                p = pa * pb
                prev = out.get(g)
                p = p if prev is None else prev + p
                if p.is_zero():
                    out.pop(g, None)
                else:
                    out[g] = p
        pg = PolyGauss.__new__(PolyGauss)
        pg.n, pg.parts = self.n, out
        return pg

    __rmul__ = __mul__

    def derive(self, i: int) -> "PolyGauss":
        """Exact d/dx_i; the Gaussian contributes -2*pi*c_i*x_i times itself."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range for dimension {self.n}")
        out = PolyGauss.zero(self.n)
        for g, p in self.parts.items():
            acc = p.derive(i)
            c = g[i - 1]
            if c:
                acc = acc + p * Poly.var(self.n, i) * Scalar.term(-2 * c, epi=2)
            out = out + PolyGauss(self.n, {g: acc} if not acc.is_zero() else {})
        return out

    def map_vars(self, mapping: dict[int, int], new_n: int) -> "PolyGauss":
        out: dict[GaussExp, Poly] = {}
        for g, p in self.parts.items():
            g2 = [Fraction(0)] * new_n
            for i, c in enumerate(g, start=1):
                if c:
                    g2[mapping[i] - 1] = c
            key = tuple(g2)
            p2 = p.map_vars(mapping, new_n)
            prev = out.get(key)
            out[key] = p2 if prev is None else prev + p2
        return PolyGauss(new_n, out)

    def eval(self, v: Iterable[float]) -> float:
        vv = list(v)
        if len(vv) != self.n:
            raise ValueError("evaluation vector length mismatch")
        total = 0.0
        for g, p in self.parts.items():
            expo = -math.pi * sum(float(c) * x * x for c, x in zip(g, vv))
            total += p.eval(vv) * math.exp(expo)
        return total

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other):
        return (
            isinstance(other, PolyGauss) and self.n == other.n and self.parts == other.parts
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.parts.items())))

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


def howe_shift(a: PolyGauss, i: int) -> PolyGauss:
    """Apply x_i - (1/(2 pi)) d/dx_i."""
    if not 1 <= i <= a.n:
        raise ValueError(f"index {i} out of range for dimension {a.n}")
    shift = a * PolyGauss.from_poly(Poly.var(a.n, i))
    return shift - a.derive(i) * Scalar.term(Fraction(1, 2), epi=-2)


class NotRepresentable(ValueError):
    """sqrt(c) is not in Q(sqrt2); caller should fall back to numerics."""


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
    raise NotRepresentable(
        f"sqrt({c}) is not in Q(sqrt2); use a numeric fallback for this Gaussian"
    )


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
        return Scalar.zero()
    inv_sqrt_c = sqrt_in_ring(1 / c)
    k = n // 2
    dfact = 1
    for j in range(1, n, 2):
        dfact *= j
    # (2 c pi)^(-n/2) = (2c)^(-k) pi^(-k)
    return Scalar.term(Fraction(dfact, (2 * c) ** k if k else 1), epi=-2 * k) * inv_sqrt_c

