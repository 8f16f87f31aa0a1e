"""The library has no public name that only its tests reach.

`run_all(4)`, every CLI subcommand and output format, and one out-of-range
`run_check` run under `sys.setprofile`; every public (non-underscore,
non-dunder) function, method and property defined in `src/thomform/*.py`
must be entered at least once. A name that none of them reaches restates a
rule the library already states elsewhere: delete it and move its tests onto
the live code, or name it in `KEPT` with the reason it stays.
"""

import contextlib
import importlib
import inspect
import io
import pathlib
import sys

import pytest

import thomform
from thomform import cli
from thomform.checks import run_all, run_check

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

KEPT = {
    "SuperForm.sizes": "the sizes interface (terms, monomials, bit height) for the benchmark",
    "Scalar.bit_height": "the coefficient bit height that SuperForm.sizes reports",
    "PolyGauss.parts": "the {g: Poly} view that the benchmark's size walk reads; delete it "
    "and Poly once the benchmark reads SuperForm.sizes",
}

CLI_RUNS = [
    ["emit", "km", "--p", "1", "--q", "2"],
    ["emit", "mq0", "--p", "2", "--q", "1", "--format", "json"],
    ["emit", "mq", "--p", "1", "--q", "1"],
    ["verify", "--all", "--max-pq", "2", "--format", "text"],
    ["verify", "--check", "theorem", "--p", "1", "--q", "1"],
    ["verify", "--check", "splitting", "--p", "1", "--q", "1", "--p2", "1", "--q2", "1"],
    ["fiber", "--q", "1", "--op", "umq"],
    ["fiber", "--q", "1", "--op", "psi"],
    ["fiber", "--q", "1", "--op", "integrate"],
    ["example11", "--t", "2", "--x", "1", "--xp", "1"],
    ["theta", "--lattice", str(EXAMPLES / "hyp_hyp.json"), "--tau", "0.25+1i", "--bound", "2"],
]


def public_surface() -> dict:
    """{code object: "module.name" or "Class.name"} for every public function,
    method and property getter defined in the package's modules."""
    out = {}
    package = pathlib.Path(thomform.__file__).parent
    for path in sorted(package.glob("[!_]*.py")):
        module = importlib.import_module(f"thomform.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out[obj.__code__] = f"{path.stem}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member) and member.__module__ == module.__name__:
                        out[member.__code__] = f"{name}.{attr}"
    return out


def reached_codes() -> set:
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_all(4)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in CLI_RUNS]
        with pytest.raises(ValueError, match="out of range"):
            run_check("theorem", p=9, q=9)
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(CLI_RUNS)
    return seen


def test_every_public_name_is_reached():
    surface = public_surface()
    assert set(KEPT) <= set(surface.values())
    seen = reached_codes()
    unreached = sorted(name for code, name in surface.items() if code not in seen)
    assert unreached == sorted(KEPT)
