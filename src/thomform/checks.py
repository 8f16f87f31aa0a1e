"""Named, reproducible verification checks.

Each check binds one identity to an exact (or explicitly toleranced)
pass/fail result. Convention-dependent signs are recorded in the
global-sign constants below and required to be constant in their scope;
a check fails if a computed sign deviates.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .km import (
    _graded_counts,
    _omega_key,
    _one_fewer,
    coefficient_gradients,
    exterior_derivative,
    hermite,
    hermite_scaled,
    km_closed_form,
    km_form_at_e,
    lie_derivative,
)
from .liealg import LieElement, SignatureCtx, curvature_at_e, eta
from .mq import (
    _contract_euler,
    _exp,
    fiber_euler,
    fiber_integrate,
    fiber_omega,
    fiber_scale_pullback,
    fiber_section,
    fiber_umq,
    mq_phi_at_e,
)
from .scalars import PolyGauss, Scalar, howe_shift
from .superforms import FiberCtx, SuperForm

MAX_PQ = 8

# Recorded convention signs (the global-sign ledger). These are empirical
# constants of this implementation's orientation choices; the checks verify
# they are the *only* signs that make the identities hold, uniformly.
SIGMA_EVEN = 1     # main-theorem sign for even q (forced by the (1,2) value)
SIGMA_ODD = -1     # main-theorem sign for odd q
EPSILON_TRANSGRESSION = 1   # L_E U = eps * d(i_E U), E the Euler field
SIGMA_SPLITTING = 1  # restricted form = sign * (block-1 form ^ block-2 form)


def berezin_sign(q: int) -> int:
    """Recorded sign relating int^B eta_1^{n_1}..eta_p^{n_p} to the
    factorial-weighted tuple sum: (-1)^{q(q-1)/2}."""
    return -1 if (q * (q - 1) // 2) % 2 else 1


@dataclass
class CheckResult:
    check_id: str
    params: dict[str, Any]
    status: str                 # "pass" | "fail" | "skipped"
    witness: str | None = None
    sign_sigma: int | None = None
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict[str, Any]:
        return {
            "check_id": self.check_id,
            "params": self.params,
            "status": self.status,
            "sign_sigma": self.sign_sigma,
            "witness": self.witness,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }


# While `run_all` checks one signature: its context and what its checks have
# built for it so far, so that they share one form and one set of gradients.
# None otherwise, so every other call builds afresh.
_shared: ContextVar[tuple[SignatureCtx, dict[str, Any]] | None] = ContextVar(
    "_shared", default=None
)


def _built(ctx: SignatureCtx, name: str, build: Callable[[], Any]) -> Any:
    """``build()``, made once per signature while `run_all` checks ``ctx``."""
    shared = _shared.get()
    if shared is None or shared[0] != ctx:
        return build()
    values = shared[1]
    if name not in values:
        values[name] = build()
    return values[name]


def _phi(ctx: SignatureCtx) -> SuperForm:
    return _built(ctx, "phi", lambda: km_form_at_e(ctx))


def _phi_and_gradients(ctx: SignatureCtx) -> tuple[SuperForm, dict]:
    phi = _phi(ctx)
    return phi, _built(ctx, "grads", lambda: coefficient_gradients(phi))


def _witness(lhs: SuperForm, rhs: SuperForm) -> str:
    """Canonical text of the first term of lhs - rhs, for sides that compare
    unequal; sides of two Gaussian weights do not subtract, and name them."""
    try:
        diff = lhs - rhs
    except ValueError as exc:
        return str(exc)
    if not diff:
        return "the sides compare unequal but subtract to zero: a store is not canonical"
    key = sorted(diff.terms)[0]
    return str(SuperForm(diff.ctx, {key: diff.terms[key]}))


def _zero_check(check_id, params, lhs: SuperForm, rhs: SuperForm) -> CheckResult:
    """Pass when lhs == rhs; fail with a witness otherwise."""
    if lhs == rhs:
        return CheckResult(check_id, params, "pass")
    return CheckResult(check_id, params, "fail", witness=_witness(lhs, rhs))


def _signed_check(check_id, params, lhs: SuperForm, rhs: SuperForm, label: str, expected: int):
    """Pass when lhs == s * rhs for s = ``expected``, the recorded ``label``
    sign; fail with a witness when no sign s = +-1 works, or when s is off
    the ledger."""
    if lhs == rhs:
        sign = 1
    elif lhs == -rhs:
        sign = -1
    else:
        return CheckResult(check_id, params, "fail", witness=_witness(lhs, rhs))
    if sign != expected:
        return CheckResult(
            check_id, params, "fail", sign_sigma=sign,
            witness=f"sign {sign:+d} violates the recorded {label} = {expected:+d}",
        )
    return CheckResult(check_id, params, "pass", sign_sigma=sign)


# -- individual checks -------------------------------------------------


def check_theorem(p: int, q: int) -> CheckResult:
    ctx = SignatureCtx(p, q)
    lhs = _phi(ctx)
    rhs = mq_phi_at_e(ctx).scale(Scalar.term(Fraction(1), e2=-q))  # 2^{-q/2}
    expected = SIGMA_EVEN if q % 2 == 0 else SIGMA_ODD
    return _signed_check("theorem", {"p": p, "q": q}, lhs, rhs, f"sigma({q})", expected)


def check_km_closed_form(p: int, q: int) -> CheckResult:
    ctx = SignatureCtx(p, q)
    return _zero_check("km_closed_form", {"p": p, "q": q}, _phi(ctx), km_closed_form(ctx))


def check_curvature(p: int, q: int) -> CheckResult:
    ctx = SignatureCtx(p, q)
    etas = [eta(ctx, alpha) for alpha in range(1, p + 1)]
    rhs = SuperForm(ctx, (kv for e in etas for kv in e.wedge(e).terms.items()))
    rhs = rhs.scale(Scalar.rational(Fraction(-1, 2)))
    return _zero_check("curvature", {"p": p, "q": q}, curvature_at_e(ctx), rhs)


def check_berezin_combinatorial(p: int, q: int) -> CheckResult:
    """int^B eta_1^{n1} ^ ... ^ eta_p^{np} = sign(q) n1!..np! * sum over
    tuples (a_1..a_q) with the given occurrence counts of
    omega_{a_1,p+1} ^ ... ^ omega_{a_q,p+q}. Each eta product is one wedge on
    the one of `_one_fewer` counts, in `_graded_counts` order as in
    `km_form_at_e`: C(p+q, q) - 1 in all."""
    params = {"p": p, "q": q}
    ctx = SignatureCtx(p, q)
    etas = [eta(ctx, a) for a in range(1, p + 1)]
    sign = berezin_sign(q)
    by_counts: dict[tuple, list] = {}
    for alphas in itertools.product(range(1, p + 1), repeat=q):
        counts = tuple(alphas.count(a) for a in range(1, p + 1))
        by_counts.setdefault(counts, []).append(alphas)
    products = {(0,) * p: SuperForm.one(ctx)}
    for counts in _graded_counts(p, q):
        alpha, fewer = _one_fewer(counts)
        products[counts] = products[fewer].wedge(etas[alpha - 1])
    for counts in sorted(by_counts):
        lhs = products[counts].berezin()
        coeff = sign * math.prod(map(math.factorial, counts))
        rhs = SuperForm(ctx, (
            ((key, ()), PolyGauss.const(ctx.nvars, Scalar.rational(coeff * s)))
            for key, s in (_omega_key(p, alphas) for alphas in by_counts[counts])
        ))
        if lhs != rhs:
            return CheckResult(
                "berezin_combinatorial", params, "fail",
                witness=f"counts {counts}: " + _witness(lhs, rhs),
                sign_sigma=sign,
            )
    return CheckResult("berezin_combinatorial", params, "pass", sign_sigma=sign)


def check_hermite_lemma(p: int, q: int) -> CheckResult:
    """exp(2 x eta - eta^2) = sum_n H_n(x)/n! eta^n for eta of bidegree (1,1),
    as an identity in the super algebra with a polynomial parameter x. The
    left side is built by `_exp`, the exponential behind every Thom form."""
    ctx = SignatureCtx(p, q)
    e1, one = eta(ctx, 1), PolyGauss.one(ctx.nvars)
    lhs = _exp(e1.scale(PolyGauss.var(ctx.nvars, 1) * 2), -e1.wedge(e1), one, range(q + 1))
    power = SuperForm.one(ctx)
    pairs = list(power.terms.items())
    for n in range(1, q + 1):
        power = power.wedge(e1)
        hn = hermite(n, ctx.nvars, 1)
        pairs += (
            (k, pg * hn * Scalar.rational(Fraction(1, math.factorial(n))))
            for k, pg in power.terms.items()
        )
    rhs = SuperForm(ctx, pairs)
    return _zero_check("hermite_lemma", {"p": p, "q": q}, lhs, rhs)


def check_howe_hermite(nmax: int) -> CheckResult:
    """(x - (1/2pi) d/dx)^n e^{-pi x^2} = (2pi)^{-n/2} H_n(sqrt(2pi) x) e^{-pi x^2}."""
    params = {"nmax": nmax}
    gauss = PolyGauss.gaussian([Fraction(1)])
    lhs = gauss
    for n in range(1, nmax + 1):
        lhs = howe_shift(lhs, 1)
        scale = Scalar.term(Fraction(1), e2=-n, epi=-n)  # (2 pi)^{-n/2}
        rhs = hermite_scaled(n, 1, 1) * gauss * scale
        if lhs != rhs:
            return CheckResult(
                "howe_hermite", params, "fail", witness=f"n={n}: {lhs} != {rhs}"
            )
    return CheckResult("howe_hermite", params, "pass")


def check_fiber_integral(q: int) -> CheckResult:
    val = fiber_integrate(fiber_umq(q))
    if val == Scalar.one():
        return CheckResult("fiber_integral", {"q": q}, "pass")
    return CheckResult("fiber_integral", {"q": q}, "fail", witness=str(val))


def check_fiber_restriction(q: int) -> CheckResult:
    ctx = FiberCtx(q)
    gauss = PolyGauss.gaussian([Fraction(2)] * q)
    expected = SuperForm(
        ctx, {(tuple(ctx.z0), ()): gauss * Scalar.term(Fraction(1), e2=q)}
    )
    return _zero_check("fiber_restriction", {"q": q}, fiber_umq(q), expected)


def check_annihilation(q: int) -> CheckResult:
    ctx = FiberCtx(q)
    om = fiber_omega(ctx)
    two_sqrt_pi = Scalar.term(Fraction(2), epi=1)
    res = exterior_derivative(om, coefficient_gradients(om))
    res = res + om.contract(fiber_section(ctx)).scale(two_sqrt_pi)
    return _zero_check("annihilation", {"q": q}, res, SuperForm(ctx))


def check_transgression(q: int) -> CheckResult:
    """L_E U = epsilon d psi, psi = i_E U, E the Euler field: the scaling family
    t d/dt (t*U) = epsilon d(t*psi) at t = 1, and at every t > 0 its pullback."""
    u = fiber_umq(q)
    psi = _contract_euler(u)
    lhs, rhs = fiber_euler(u), exterior_derivative(psi, coefficient_gradients(psi))
    return _signed_check("transgression", {"q": q}, lhs, rhs, "epsilon", EPSILON_TRANSGRESSION)


def check_delta_limit(t: float, tol: float) -> CheckResult:
    """For q=1, int (t*U) f -> f(0) as t -> infinity, tested at the given t.

    t*U is the library's `fiber_scale_pullback(fiber_umq(1), t)`; its dx_1
    coefficient is integrated against each test function through its own
    `eval`. The exact error at finite t is of order 1/(4 pi t^2) (about
    8e-6 at t=100 for the Gaussian test function), so the default
    tolerance is the tight O(1/t^2) envelope 1e-5 at t=100.
    """
    from scipy.integrate import quad

    params = {"q": 1, "t": t, "tol": tol}
    tests: list[tuple[str, Callable[[float], float]]] = [
        ("1", lambda r: 1.0),
        ("cos r", math.cos),
        ("exp(-r^2)", lambda r: math.exp(-r * r)),
    ]
    density = fiber_scale_pullback(fiber_umq(1), Fraction(t)).terms[((1,), ())]
    for name, f in tests:
        val, _err = quad(lambda r: density.eval([r]) * f(r), -math.inf, math.inf)
        if abs(val - f(0.0)) > tol:
            return CheckResult(
                "delta_limit", params, "fail",
                witness=f"f={name}: integral {val!r} vs f(0)={f(0.0)!r}",
            )
    return CheckResult("delta_limit", params, "pass")


def check_closedness(p: int, q: int) -> CheckResult:
    res = exterior_derivative(*_phi_and_gradients(SignatureCtx(p, q)))
    return _zero_check("closedness", {"p": p, "q": q}, res, SuperForm(res.ctx))


def check_k_invariance(p: int, q: int) -> CheckResult:
    ctx = SignatureCtx(p, q)
    phi, grads = _phi_and_gradients(ctx)
    for pair in ctx.k_pairs():
        res = lie_derivative(LieElement.basis(ctx, *pair), phi, grads)
        if res:
            return CheckResult(
                "k_invariance", {"p": p, "q": q}, "fail",
                witness=f"X{pair}: " + _witness(res, SuperForm(ctx)),
            )
    return CheckResult("k_invariance", {"p": p, "q": q}, "pass")


def _example11_coefficient() -> PolyGauss:
    """The omega_12 coefficient of the signature-(1,1) basepoint form."""
    return km_form_at_e(SignatureCtx(1, 1)).terms[(((1, 2),), ())]


def _example11_at(coeff: PolyGauss, t: float, x: float, xp: float) -> float:
    """`example11_machinery` for the basepoint coefficient ``coeff``, via
    equivariance: evaluate it at g_t^{-1} v in the orthonormal coordinates
    x1 = (x/t + t x')/sqrt(2), x2 = (x/t - t x')/sqrt(2).
    """
    root2 = math.sqrt(2.0)
    x1 = (x / t + t * xp) / root2
    x2 = (x / t - t * xp) / root2
    return coeff.eval([x1, x2])


def example11_machinery(t: float, x: float, xp: float) -> float:
    """Coefficient of dt/t of the signature-(1,1) form at the point t."""
    return _example11_at(_example11_coefficient(), t, x, xp)


def example11_paper(t: float, x: float, xp: float) -> float:
    """2^{-1/2} e^{-pi[(x/t)^2 + (t x')^2]} (x/t + t x'), the closed form."""
    a = x / t
    b = t * xp
    return (a + b) * math.exp(-math.pi * (a * a + b * b)) / math.sqrt(2.0)


# The (t, x, x') points and tolerance of example11; the `example11` command shares the tolerance.
EXAMPLE11_POINTS = [
    (t, vx / 4, vxp / 4)
    for t in (1.0, 2.0, 0.5, 1.5, 5.0)
    for vx, vxp in [(4, 0), (0, 4), (3, -2), (-5, 7)]
]
EXAMPLE11_TOL = 1e-12


def check_example11() -> CheckResult:
    params = {"points": len(EXAMPLE11_POINTS), "tol": EXAMPLE11_TOL}
    coeff = _example11_coefficient()
    for (t, x, xp) in EXAMPLE11_POINTS:
        lhs = _example11_at(coeff, t, x, xp)
        rhs = example11_paper(t, x, xp)
        if abs(lhs - rhs) > EXAMPLE11_TOL:
            return CheckResult(
                "example11", params, "fail",
                witness=f"(t,x,x')=({t},{x},{xp}): {lhs!r} != {rhs!r}",
            )
    return CheckResult("example11", params, "pass")


def _relabel(form: SuperForm, target: SignatureCtx, var_map: dict[int, int]) -> SuperForm:
    """Re-index a basepoint form into a larger signature context."""
    # relabeling of p-pairs and z0 slots is order-preserving per block
    return SuperForm(target, (
        (
            (
                tuple(sorted((var_map[a], var_map[m]) for a, m in i_set)),
                tuple(sorted(var_map[j] for j in j_set)),
            ),
            pg.map_vars(var_map, target.nvars),
        )
        for (i_set, j_set), pg in form.terms.items()
    ))


def block_var_maps(p1, q1, p2, q2):
    """Index maps for the block-ordered combined basis
    (positives of block 1, positives of block 2, negatives of 1, negatives of 2)."""
    map1 = {a: a for a in range(1, p1 + 1)}
    map1.update({p1 + m: p1 + p2 + m for m in range(1, q1 + 1)})
    map2 = {a: p1 + a for a in range(1, p2 + 1)}
    map2.update({p2 + m: p1 + p2 + q1 + m for m in range(1, q2 + 1)})
    return map1, map2


def check_splitting(p1: int, q1: int, p2: int, q2: int) -> CheckResult:
    params = {"sig1": [p1, q1], "sig2": [p2, q2]}
    ctx = SignatureCtx(p1 + p2, q1 + q2)
    map1, map2 = block_var_maps(p1, q1, p2, q2)
    block1 = set(map1.values())
    block2 = set(map2.values())

    combined = km_form_at_e(ctx)
    restricted = SuperForm(
        ctx,
        {
            key: pg
            for key, pg in combined.terms.items()
            if all(
                ({a, m} <= block1) or ({a, m} <= block2) for a, m in key[0]
            )
        },
    )

    # one build per distinct block signature
    blocks = {sig: km_form_at_e(SignatureCtx(*sig)) for sig in dict.fromkeys([(p1, q1), (p2, q2)])}
    f1 = _relabel(blocks[p1, q1], ctx, map1)
    f2 = _relabel(blocks[p2, q2], ctx, map2)
    return _signed_check(
        "splitting", params, restricted, f1.wedge(f2), "splitting sign", SIGMA_SPLITTING
    )


# -- registry ----------------------------------------------------------


def _is_int(value) -> bool:
    """An integer, and not a bool: a size is never truncated from a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ParamSpec:
    """The parameters a check (or a command sized like one) takes, in order.

    With a ``cap`` the parameters are integers (not bools, not floats),
    each at least 1, that sum to at most ``cap``; without one they are
    positive finite real numbers (not bools, not strings), converted to float.
    """

    names: tuple[str, ...]
    cap: int | None = None
    defaults: dict[str, Any] = field(default_factory=dict)

    def rule(self) -> str:
        names = ", ".join(self.names)
        if self.cap is None:
            return f"{names} finite and > 0"
        if len(self.names) == 1:
            return f"1 <= {names} <= {self.cap}"
        return f"{names} >= 1 and {' + '.join(self.names)} <= {self.cap}"

    def validate(self, what: str, params: dict[str, Any]) -> dict[str, Any]:
        """``params`` with defaults filled in, in order (floats converted); a
        ValueError naming ``what`` for an unknown, missing or out-of-range
        parameter."""
        unknown = sorted(set(params) - set(self.names))
        if unknown:
            takes = ", ".join(self.names) or "no parameters"
            raise ValueError(f"{what}: unknown parameter {', '.join(unknown)}; takes {takes}")
        given = {**self.defaults, **params}
        missing = [name for name in self.names if name not in given]
        if missing:
            raise ValueError(f"{what}: missing parameter {', '.join(missing)}")
        values = {name: given[name] for name in self.names}
        if self.cap is None:
            ok = all(isinstance(v, numbers.Real) and type(v) is not bool for v in values.values())
            values = {k: float(v) if ok else v for k, v in values.items()}
            ok = ok and all(0 < v < math.inf for v in values.values())
        else:
            ok = all(map(_is_int, values.values()))
            values = {k: int(v) if ok else v for k, v in values.items()}
            ok = ok and min(values.values()) >= 1 and sum(values.values()) <= self.cap
        if not ok:
            shown = ", ".join(f"{k} = {v!r}" for k, v in values.items())
            raise ValueError(f"{what}: {shown} is out of range; require {self.rule()}")
        return values


SIGNATURE = ParamSpec(("p", "q"), cap=MAX_PQ)
FIBER = ParamSpec(("q",), cap=MAX_PQ - 1)

# Every check, in suite order. Check ``id`` runs the module function
# ``check_<id>``, looked up when it runs.
CHECKS: dict[str, ParamSpec] = {
    "theorem": SIGNATURE,
    "km_closed_form": SIGNATURE,
    "curvature": SIGNATURE,
    "berezin_combinatorial": SIGNATURE,
    "hermite_lemma": SIGNATURE,
    "closedness": SIGNATURE,
    "k_invariance": SIGNATURE,
    "fiber_integral": FIBER,
    "fiber_restriction": FIBER,
    "annihilation": FIBER,
    "transgression": FIBER,
    "howe_hermite": ParamSpec(("nmax",), cap=2 * MAX_PQ, defaults={"nmax": 10}),
    "delta_limit": ParamSpec(("t", "tol"), defaults={"t": 100.0, "tol": 1e-5}),
    "example11": ParamSpec(()),
    "splitting": ParamSpec(("p1", "q1", "p2", "q2"), cap=MAX_PQ),
}

CHECK_IDS = list(CHECKS)


def run_check(check_id: str, **params) -> CheckResult:
    """Run one named check; see CHECKS for the ids and their parameters."""
    start = time.perf_counter()
    if check_id not in CHECKS:
        raise ValueError(f"unknown check id: {check_id}")
    values = CHECKS[check_id].validate(check_id, params)
    res = globals()[f"check_{check_id}"](**values)
    res.elapsed = time.perf_counter() - start
    return res


def run_all(max_pq: int) -> list[CheckResult]:
    """Every applicable check over all signatures with p, q >= 1 and
    p + q <= max_pq, in deterministic order.

    The checks of one signature share one `km_form_at_e` and one
    `coefficient_gradients` of it, built on first use and dropped when the
    signature is done; every other check builds its own.
    """
    if not (_is_int(max_pq) and 2 <= max_pq <= MAX_PQ):
        raise ValueError(f"max_pq = {max_pq!r} is out of range; require 2 <= max_pq <= {MAX_PQ}")

    sigs = [
        (p, q)
        for total in range(2, max_pq + 1)
        for p in range(1, total)
        for q in [total - p]
    ]
    results: list[CheckResult] = []
    for (p, q) in sigs:
        token = _shared.set((SignatureCtx(p, q), {}))
        try:
            for cid, spec in CHECKS.items():
                if spec is SIGNATURE:
                    results.append(run_check(cid, p=p, q=q))
        finally:
            _shared.reset(token)
    for q in range(1, max_pq):
        for cid, spec in CHECKS.items():
            # transgression is exercised up to q = 4 only
            if spec is FIBER and (cid != "transgression" or q <= 4):
                results.append(run_check(cid, q=q))
    for cid in ("howe_hermite", "delta_limit", "example11"):  # at their default parameters
        results.append(run_check(cid))
    for (s1, s2) in [((1, 1), (1, 1)), ((1, 1), (1, 2))]:
        if s1[0] + s1[1] + s2[0] + s2[1] <= max_pq:
            results.append(run_check("splitting", p1=s1[0], q1=s1[1], p2=s2[0], q2=s2[1]))
    return results
