"""Theta partial sums of the basepoint form over an integral lattice.

A Gram matrix of signature (p,q) is congruence-diagonalized over the
rationals, scaled to the standard orthonormal frame, and lattice vectors
are enumerated under the positive-definite majorant. Each vector
contributes P(sqrt(y) v_hat) * e^{i pi tau Q(v,v)} per exterior basis key,
where P is a coefficient of the basepoint form (Gaussian included, so the
Gaussian factor e^{-pi y Q+(v,v)} is part of the evaluation).

A sum builds the form once and evaluates it key by key over all vectors
at once, in float64. Q(v,v) is exact: integer numerators over the lcm of
the gram denominators. Enumeration is still a box scan: Fincke-Pohst
enumeration returns the same vectors but makes the benchmark's theta body
shorter than its speed-sampling interval, which it cannot yet time.
Gram entries, and the congruence built from them, must fit a float;
`diagonalize_gram` raises ValueError naming any that does not.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .checks import _is_int
from .km import km_form_at_e
from .liealg import SignatureCtx
from .superforms import SuperForm

MAX_BOX_POINTS = 10**7  # the most points `enumerate_vectors` scans


def _gram_entry(entry, i: int, j: int):
    """A rational string as a Fraction; `LatticeSpec` checks any other entry."""
    if not isinstance(entry, str):
        return entry
    try:
        return Fraction(entry)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"gram[{i}][{j}] = {entry!r} is not an int or rational string") from None


@dataclass(frozen=True)
class LatticeSpec:
    """p and q are ints and each gram entry an int or a Fraction, never a
    bool or a float, so Q(v,v) is exact; a ValueError names any other value."""

    label: str
    p: int
    q: int
    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for name in ("p", "q"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"lattice {name} = {getattr(self, name)!r} is not an integer")
        n = self.p + self.q
        g = self.gram
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("gram matrix must be (p+q) x (p+q)")
        for i, j in itertools.product(range(n), repeat=2):
            if not (_is_int(g[i][j]) or isinstance(g[i][j], Fraction)):
                raise ValueError(f"gram[{i}][{j}] = {g[i][j]!r} is not an int or Fraction")
        if any(g[i][j] != g[j][i] for i, j in itertools.product(range(n), repeat=2)):
            raise ValueError("gram matrix must be symmetric")

    @staticmethod
    def from_json(data: dict) -> "LatticeSpec":
        if not isinstance(data, dict):
            raise ValueError(f"lattice = {data!r} is not an object with label, p, q and gram")
        for name in ("gram", "p", "q"):
            if name not in data:
                raise ValueError(f"lattice has no {name!r} field")
        if not isinstance(data["gram"], list):
            raise ValueError(f"gram = {data['gram']!r} is not an array of rows")
        for i, row in enumerate(data["gram"]):
            if not isinstance(row, list):
                raise ValueError(f"gram[{i}] = {row!r} is not an array")
        gram = tuple(
            tuple(_gram_entry(entry, i, j) for j, entry in enumerate(row))
            for i, row in enumerate(data["gram"])
        )
        return LatticeSpec(label=str(data.get("label", "")), p=data["p"], q=data["q"], gram=gram)

    @staticmethod
    def load(path: str) -> "LatticeSpec":
        with open(path) as fh:
            return LatticeSpec.from_json(json.load(fh))


@dataclass(frozen=True)
class DiagonalizedLattice:
    spec: LatticeSpec
    transform: np.ndarray  # lattice coords -> orthonormal coords
    diag: tuple[int, ...]  # +1 (p times) then -1 (q times)


def _congruence_diagonalize(g: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Rational S with S^T G S diagonal; returns (S, diagonal entries).

    Deterministic pivoting: at each step pick the remaining index with the
    largest |G_ii| (ties by index); if all remaining diagonal entries
    vanish, symmetrize a nonzero off-diagonal entry into the diagonal first.
    """
    n = len(g)
    a = [row[:] for row in g]
    s = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    done: list[int] = []

    def add_col(dst: int, src: int, c: Fraction):
        # column operation followed by the matching row operation keeps
        # a = S^T G S in sync with S
        for i in range(n):
            a[i][dst] += c * a[i][src]
        for j in range(n):
            a[dst][j] += c * a[src][j]
        for i in range(n):
            s[i][dst] += c * s[i][src]

    for _ in range(n):
        rest = [i for i in range(n) if i not in done]
        pivot = max(rest, key=lambda i: (abs(a[i][i]), -i))
        if a[pivot][pivot] == 0:
            found = None
            for i in rest:
                for j in rest:
                    if i < j and a[i][j] != 0:
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                raise ValueError("gram matrix is degenerate")
            i, j = found
            add_col(i, j, Fraction(1))
            pivot = max(rest, key=lambda k: (abs(a[k][k]), -k))
        d = a[pivot][pivot]
        for j in range(n):
            if j != pivot and j not in done and a[pivot][j] != 0:
                add_col(j, pivot, -a[pivot][j] / d)
        done.append(pivot)
    return s, [a[i][i] for i in range(n)]


def _float(x: Fraction, name: str) -> float:
    """float(x); a ValueError names ``name`` if x overflows or a non-zero x rounds to 0."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if math.isinf(f) or (x and not f):
        raise ValueError(f"{name} does not fit a float")
    return f


def diagonalize_gram(spec: LatticeSpec) -> DiagonalizedLattice:
    """Transform T with T^T diag(+1^p, -1^q) T = gram (to 1e-10)."""
    n = spec.p + spec.q
    g = [[Fraction(e) for e in row] for row in spec.gram]  # int / int would divide in floats
    for i, j in itertools.product(range(n), repeat=2):
        _float(g[i][j], f"gram[{i}][{j}]")
    s, d = _congruence_diagonalize(g)
    pos = [i for i in range(n) if d[i] > 0]
    neg = [i for i in range(n) if d[i] < 0]
    if len(pos) != spec.p or len(neg) != spec.q:
        raise ValueError(
            f"gram signature is ({len(pos)},{len(neg)}), expected ({spec.p},{spec.q})"
        )
    order = pos + neg
    s_np = np.array([[_float(s[i][j], f"S[{i}][{j}] of S^T G S") for j in order] for i in range(n)])
    scale = np.diag([math.sqrt(abs(_float(d[j], f"(S^T G S)[{j}][{j}]"))) for j in order])
    transform = scale @ np.linalg.inv(s_np)
    for i in range(n):  # deterministic row signs: first nonzero entry positive
        row = transform[i]  # nonzero relative to the row, so any scale has a lead
        lead = row[np.nonzero(np.abs(row) > 1e-12 * np.abs(row).max())[0][0]]
        if lead < 0:
            transform[i] = -row
    return DiagonalizedLattice(
        spec=spec, transform=transform, diag=tuple([1] * spec.p + [-1] * spec.q)
    )


def majorant_matrix(dl: DiagonalizedLattice) -> np.ndarray:
    """Q+ in lattice coordinates: A = T^T T."""
    return dl.transform.T @ dl.transform


def _check_bound(bound: float) -> None:
    if not (math.isfinite(bound) and bound >= 0):
        raise ValueError(f"bound must be a finite number >= 0, got {bound}")


def enumerate_vectors(dl: DiagonalizedLattice, bound: float) -> list[tuple[int, ...]]:
    """All integer vectors with Q+(v,v) <= bound, sorted, by a scan of the box that
    holds them; a box past 10^7 points (`MAX_BOX_POINTS`) raises ValueError first."""
    _check_bound(bound)
    a = majorant_matrix(dl)
    n = a.shape[0]
    ainv = np.linalg.inv(a)
    out = []
    ranges = []
    for i in range(n):
        reach = bound * float(ainv[i, i]) + 1e-9
        radius = math.isqrt(int(reach)) if math.isfinite(reach) else math.inf
        if 2 * radius + 1 > sys.maxsize:
            raise ValueError(f"bound = {bound} needs a box side longer than {sys.maxsize}")
        ranges.append(range(-radius, radius + 1))
    if (points := math.prod(map(len, ranges))) > MAX_BOX_POINTS:
        raise ValueError(
            f"bound = {bound} needs a box of {points} points, more than {MAX_BOX_POINTS}")
    for u in itertools.product(*ranges):
        v = np.array(u, dtype=float)
        if v @ a @ v <= bound + 1e-9:
            out.append(tuple(u))
    out.sort()
    return out


def tail_estimate(dl: DiagonalizedLattice, km: SuperForm, y: float, bound: float) -> float:
    """Upper bound for the omitted terms with Q+(v,v) > bound.

    ``km`` is the basepoint form of the lattice's signature. Vectors in the
    shell k < Q+ <= k+1 number at most (2 sqrt((k+1)/lmin)+3)^n
    (lmin = least eigenvalue of the majorant); each contributes at most
    Cp (1 + sqrt(y (k+1)))^deg e^{-pi y k} where Cp sums the absolute
    polynomial coefficients of the basepoint form and deg is its degree.

    Shells are summed until a term is below 1e-30 of the total, at most
    10,000 shells past the bound. The term ratio never rises with k (each
    factor is log-concave in k, times e^{-pi y k}), so the rest is then at
    most a geometric series; while the terms still grow, a ValueError names y.
    """
    cp = 0.0
    deg = 0
    for pg in km.terms.values():
        for mono, c in pg.items():
            cp += abs(float(c))
            deg = max(deg, sum(mono))
    a = majorant_matrix(dl)
    lmin = min(np.linalg.eigvalsh(a))
    n = a.shape[0]

    def shell_term(k: int) -> float:
        shell = (2.0 * math.sqrt((k + 1) / lmin) + 3.0) ** n
        return shell * cp * (1.0 + math.sqrt(y * (k + 1))) ** deg * math.exp(-math.pi * y * k)

    total = 0.0
    k = math.floor(bound)
    while True:
        term = shell_term(k)
        total += term
        k += 1
        if term < 1e-30 * max(total, 1.0):
            return total
        if k > bound + 10_000:
            ratio = shell_term(k) / term
            if ratio >= 1:
                raise ValueError(f"tail_estimate: terms still grow past 10000 shells at y = {y}")
            return total + term * ratio / (1 - ratio)


def gram_values(spec: LatticeSpec, vecs: list[tuple[int, ...]]) -> np.ndarray:
    """Q(v,v) for every vector, each the float nearest the exact value.

    With D the lcm of the gram denominators, D*Q(v,v) = u^T (D G) u is an
    integer, computed in Python ints (object arrays), so no entry can
    overflow; num / D rounds the exact quotient once, as float() of the
    exact Fraction u^T G u does.
    """
    d = math.lcm(*(e.denominator for row in spec.gram for e in row))
    dg = np.array([[e.numerator * (d // e.denominator) for e in row] for row in spec.gram],
                  dtype=object)
    u = np.array(vecs, dtype=object).reshape(len(vecs), len(spec.gram))
    nums = ((u @ dg) * u).sum(axis=1)
    return np.array([num / d for num in nums], dtype=float)


def theta_partial_sum(
    dl: DiagonalizedLattice, tau: complex, bound: float
) -> tuple[dict[tuple, complex], float]:
    """Partial theta sum per exterior basis key, plus the tail estimate.

    Each lattice vector v contributes, for every basis key of the
    basepoint form, coefficient(sqrt(y) v_hat) * e^{i pi x Q(v,v)} where
    tau = x + i y and v_hat = transform v.

    The form is built once per sum. The vectors (the box scan of
    `enumerate_vectors`) are evaluated together: one matrix product gives
    every point, `gram_values` gives every Q(v,v) exactly, the form's one
    Gaussian weight is evaluated once, and each key's coefficient, its
    terms turned to floats once, is evaluated over all
    points and reduced by two dot products with the cosines and sines of
    the phases.
    """
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise ValueError(f"tau must be finite, got {tau}")
    _check_bound(bound)
    y = tau.imag
    if y <= 0:
        raise ValueError("tau must have positive imaginary part")
    x = tau.real
    ctx = SignatureCtx(dl.spec.p, dl.spec.q)
    km = km_form_at_e(ctx)
    vecs = enumerate_vectors(dl, bound)
    u = np.array(vecs, dtype=float).reshape(len(vecs), ctx.nvars)
    points = math.sqrt(y) * (u @ dl.transform.T)
    angle = math.pi * x * gram_values(dl.spec, vecs)
    cos, sin = np.cos(angle), np.sin(angle)
    g = next(iter(km.terms.values())).g  # the form's one Gaussian weight
    weight = np.exp(-math.pi * (points * points @ np.array(g, dtype=float)))
    sums: dict[tuple, complex] = {}
    for (i_set, _j), pg in km.terms.items():
        vals = np.zeros(len(vecs))
        for mono, c in pg.items():
            term = float(c) * weight
            for i, e in enumerate(mono):
                if e:
                    term = term * points[:, i] ** e
            vals += term
        sums[i_set] = complex(vals @ cos, vals @ sin)
    return sums, tail_estimate(dl, km, y, bound)
