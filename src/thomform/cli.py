"""Command-line interface: emit forms, run checks, fiber operations,
the signature-(1,1) closed-form comparison, and theta partial sums.

Exit status: 0 all requested work passed, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import checks
from .checks import CHECK_IDS, FIBER, SIGNATURE, run_all, run_check
from .km import km_form_at_e
from .liealg import SignatureCtx
from .mq import (
    fiber_integrate,
    fiber_transgression,
    fiber_umq,
    mq_phi0_at_e,
    mq_phi_at_e,
)
from .theta import LatticeSpec, diagonalize_gram, theta_partial_sum

SCHEMA = "thomform/1"


def _parse_tau(text: str) -> complex:
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad complex number: {text!r}")


def _parse_real(text: str) -> float:
    """An integer, decimal or p/q, as a float; an error if it does not fit one."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a real number that fits a float: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thomform",
        description="Exact symbolic forms on orthogonal symmetric spaces: "
        "construction and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_emit = sub.add_parser("emit", help="print a canonical form at the basepoint")
    p_emit.add_argument("form", choices=["km", "mq0", "mq"])
    p_emit.add_argument("--p", type=int, required=True)
    p_emit.add_argument("--q", type=int, required=True)
    p_emit.add_argument("--format", choices=["text", "json"], default="text")

    p_verify = sub.add_parser("verify", help="run verification checks")
    which = p_verify.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true")
    which.add_argument("--check", choices=sorted(CHECK_IDS))
    p_verify.add_argument("--max-pq", type=int, help="with --all (default 4)")
    p_verify.add_argument("--p", type=int, help="p; for splitting, p1 of the first block")
    p_verify.add_argument("--q", type=int, help="q; for splitting, q1 of the first block")
    p_verify.add_argument("--p2", type=int)
    p_verify.add_argument("--q2", type=int)
    p_verify.add_argument("--format", choices=["text", "json"], default="json")

    p_fiber = sub.add_parser("fiber", help="fiberwise Thom-form operations")
    p_fiber.add_argument("--q", type=int, required=True)
    p_fiber.add_argument("--op", choices=["umq", "psi", "integrate"], required=True)

    p_ex = sub.add_parser(
        "example11", help="signature (1,1): machinery vs the closed form"
    )
    p_ex.add_argument("--t", type=_parse_real, required=True)
    p_ex.add_argument("--x", type=_parse_real, required=True)
    p_ex.add_argument("--xp", type=_parse_real, required=True)

    p_theta = sub.add_parser("theta", help="theta partial sum over a lattice")
    p_theta.add_argument("--lattice", required=True, help="lattice JSON file")
    p_theta.add_argument("--tau", type=_parse_tau, required=True)
    p_theta.add_argument("--bound", type=float, required=True)
    for command in sub.choices.values():  # a handler's usage errors show its own usage line
        command.set_defaults(parser=command)
    return parser


def _emit(args, parser) -> int:
    SIGNATURE.validate("emit", {"p": args.p, "q": args.q})
    ctx = SignatureCtx(args.p, args.q)
    form = {"km": km_form_at_e, "mq0": mq_phi0_at_e, "mq": mq_phi_at_e}[args.form](ctx)
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "p": args.p, "q": args.q,
                          "form": args.form, "terms": form.to_json()}, indent=2))
    else:
        print(form)
    return 0


def _verify(args, parser) -> int:
    flags = {"p": args.p, "q": args.q, "p2": args.p2, "q2": args.q2}
    if args.all:
        if any(value is not None for value in flags.values()):
            parser.error("--p, --q, --p2 and --q2 are not allowed with --all")
        results = run_all(4 if args.max_pq is None else args.max_pq)
    elif args.check:
        if args.max_pq is not None:
            parser.error("--max-pq is not allowed with --check")
        if args.check == "splitting":
            flags["p1"], flags["q1"] = flags.pop("p"), flags.pop("q")
        params = {name: value for name, value in flags.items() if value is not None}
        results = [run_check(args.check, **params)]
    else:
        parser.error("verify requires --all or --check ID")
    if args.format == "json":
        print(json.dumps(
            {"schema": SCHEMA, "results": [r.to_json() for r in results]}, indent=2
        ))
    else:
        for r in results:
            extra = f" sigma={r.sign_sigma:+d}" if r.sign_sigma is not None else ""
            wit = f" [{r.witness}]" if r.witness else ""
            print(f"{r.status.upper():4s} {r.check_id} {r.params}{extra}{wit}")
        print(
            f"{sum(r.passed for r in results)}/{len(results)} checks passed "
            f"(recorded signs: sigma_even={checks.SIGMA_EVEN:+d}, "
            f"sigma_odd={checks.SIGMA_ODD:+d}, epsilon={checks.EPSILON_TRANSGRESSION:+d}, "
            f"splitting={checks.SIGMA_SPLITTING:+d})"
        )
    return 0 if all(r.passed for r in results) else 1


def _fiber(args, parser) -> int:
    FIBER.validate("fiber", {"q": args.q})
    if args.op == "umq":
        print(fiber_umq(args.q))
    elif args.op == "psi":
        print(fiber_transgression(args.q))
    else:
        print(fiber_integrate(fiber_umq(args.q)))
    return 0


def _example11(args, parser) -> int:
    from .checks import example11_machinery, example11_paper

    if args.t <= 0:  # a t that rounds to 0.0 included
        parser.error("t must be positive")
    if not math.isfinite(args.x / args.t + args.t * args.xp):  # else NaN on both sides
        parser.error("x/t + t*x' must fit a float")
    lhs = example11_machinery(args.t, args.x, args.xp)
    rhs = example11_paper(args.t, args.x, args.xp)
    print(f"machinery:   {lhs!r}")
    print(f"closed form: {rhs!r}")
    print(f"difference:  {abs(lhs - rhs)!r}")
    return 0 if abs(lhs - rhs) <= checks.EXAMPLE11_TOL else 1


def _theta(args, parser) -> int:
    spec = LatticeSpec.load(args.lattice)
    SIGNATURE.validate("theta", {"p": spec.p, "q": spec.q})
    dl = diagonalize_gram(spec)
    sums, tail = theta_partial_sum(dl, args.tau, args.bound)
    gen_str = SignatureCtx(spec.p, spec.q).gen_str
    print(json.dumps({
        "schema": SCHEMA,
        "label": spec.label,
        "tau": [args.tau.real, args.tau.imag],
        "bound": args.bound,
        "tail_estimate": tail,
        "coefficients": {
            "^".join(map(gen_str, k)): [v.real, v.imag] for k, v in sorted(sums.items())
        },
    }, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler = {
        "emit": _emit,
        "verify": _verify,
        "fiber": _fiber,
        "example11": _example11,
        "theta": _theta,
    }[args.command]
    try:
        return handler(args, args.parser)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
