"""Command-line surface: output stability, exit codes, schema."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from thomform import cli
from thomform.checks import CHECK_IDS, run_check

CMD = [sys.executable, "-m", "thomform"]
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run(*args):
    """`thomform` with ``args``, run in this process through `cli.main`: its
    exit code and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(CMD + list(args), code, out.getvalue(), err.getvalue())


class TestModule:
    """`python -m thomform` runs `cli.main` and exits with its code."""

    def test_a_command_exits_0(self):
        res = subprocess.run(CMD + ["emit", "km", "--p", "1", "--q", "1"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stdout.strip() == "x1 * exp(-pi*(x1^2+x2^2)) w[1,2]"

    def test_a_usage_error_exits_2(self):
        res = subprocess.run(CMD + ["frobnicate"], capture_output=True, text=True)
        assert res.returncode == 2
        assert res.stdout == "" and res.stderr.startswith("usage: thomform ")


class TestEmit:
    def test_km_1_1(self):
        res = run("emit", "km", "--p", "1", "--q", "1")
        assert res.returncode == 0
        assert res.stdout.strip() == "x1 * exp(-pi*(x1^2+x2^2)) w[1,2]"

    def test_byte_stable(self):
        a = run("emit", "mq", "--p", "1", "--q", "2")
        b = run("emit", "mq", "--p", "1", "--q", "2")
        assert a.stdout == b.stdout and a.returncode == 0

    def test_json_schema_key(self):
        res = run("emit", "km", "--p", "1", "--q", "1", "--format", "json")
        data = json.loads(res.stdout)
        assert data["schema"] == "thomform/1"

    def test_size_cap(self):
        res = run("emit", "km", "--p", "5", "--q", "5")
        assert res.returncode == 2


class TestVerify:
    def test_single_check_json(self):
        res = run("verify", "--check", "theorem", "--p", "1", "--q", "2")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["schema"] == "thomform/1"
        (entry,) = data["results"]
        assert entry["status"] == "pass" and entry["sign_sigma"] == 1

    def test_all_small(self):
        res = run("verify", "--all", "--max-pq", "3")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert all(r["status"] == "pass" for r in data["results"])

    def test_text_format(self):
        res = run(
            "verify", "--check", "curvature", "--p", "1", "--q", "1",
            "--format", "text",
        )
        assert res.returncode == 0
        assert res.stdout.startswith("PASS curvature")

    def test_text_summary_line(self):
        res = run("verify", "--all", "--max-pq", "3", "--format", "text")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[-1] == (
            f"{len(lines) - 1}/{len(lines) - 1} checks passed (recorded signs: "
            "sigma_even=+1, sigma_odd=-1, epsilon=+1, splitting=+1)"
        )

    def test_missing_params(self):
        res = run("verify", "--check", "theorem")
        assert res.returncode == 2

    def test_bare_verify_shows_its_own_usage(self):
        res = run("verify")
        assert res.returncode == 2
        assert res.stderr.startswith("usage: thomform verify ")
        assert "verify requires --all or --check ID" in res.stderr

    # each contradiction is a usage error: nothing runs, nothing is ignored
    @pytest.mark.parametrize("args,message", [
        (["--all", "--max-pq", "2", "--check", "theorem", "--p", "9", "--q", "9"],
         "argument --check: not allowed with argument --all"),
        (["--all", "--max-pq", "2", "--p", "9", "--q", "9"], "are not allowed with --all"),
        (["--check", "theorem", "--p", "1", "--q", "1", "--max-pq", "99"],
         "--max-pq is not allowed with --check"),
    ])
    def test_contradictory_flags_are_usage_errors(self, args, message):
        res = run("verify", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("usage: thomform verify ")
        assert message in res.stderr

    def test_max_pq_past_cap(self):
        res = run("verify", "--all", "--max-pq", "9")
        assert res.returncode == 2
        assert "max_pq <= 8" in res.stderr

    def test_splitting_params(self):
        res = run(
            "verify", "--check", "splitting",
            "--p", "1", "--q", "1", "--p2", "1", "--q2", "1",
        )
        assert res.returncode == 0


class TestFiber:
    def test_integrate(self):
        res = run("fiber", "--q", "1", "--op", "integrate")
        assert res.returncode == 0
        assert res.stdout.strip() == "1"

    def test_umq(self):
        res = run("fiber", "--q", "1", "--op", "umq")
        assert res.returncode == 0
        assert res.stdout.strip() == "1*sqrt2 * exp(-pi*(2*x1^2)) dx[1]"

    def test_size_cap(self):
        res = run("fiber", "--q", "8", "--op", "umq")
        assert res.returncode == 2
        assert "fiber: q = 8 is out of range; require 1 <= q <= 7" in res.stderr

    def test_psi(self):
        res = run("fiber", "--q", "1", "--op", "psi")
        assert res.returncode == 0
        assert "x1" in res.stdout


class TestExample11:
    def test_match(self):
        res = run("example11", "--t", "2", "--x", "1", "--xp", "1")
        assert res.returncode == 0
        assert "difference" in res.stdout

    def test_bad_t(self):
        res = run("example11", "--t", "0", "--x", "1", "--xp", "1")
        assert res.returncode == 2
        assert res.stderr.startswith("usage: thomform example11 ")
        assert "t must be positive" in res.stderr

    def test_takes_integers_decimals_and_fractions(self):
        res = run("example11", "--t", "3/2", "--x", "0.25", "--xp=-1")
        assert res.returncode == 0
        assert "difference" in res.stdout

    # 1e400 overflows a float; 1e-400 is positive but rounds to t = 0.0
    @pytest.mark.parametrize("flag,value", [
        ("--t", "1e400"), ("--x", "1e400"), ("--xp", "1e400"), ("--t", "1e-400"), ("--x", "1/0"),
    ])
    def test_value_must_fit_a_float(self, flag, value):
        args = {"--t": "2", "--x": "1", "--xp": "1", flag: value}
        res = run("example11", *(f"{k}={v}" for k, v in args.items()))
        assert res.returncode == 2
        assert res.stdout == ""
        assert "usage:" in res.stderr and "Traceback" not in res.stderr

    # each value fits a float, but x/t, t x' or their sum does not
    @pytest.mark.parametrize("t,x,xp", [
        ("1e300", "1", "1e300"), ("1e-300", "1e10", "1"), ("1", "1e308", "1e308"),
    ])
    def test_point_must_fit_a_float(self, t, x, xp):
        res = run("example11", "--t", t, "--x", x, "--xp", xp)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "usage:" in res.stderr and "Traceback" not in res.stderr


class TestTheta:
    @pytest.fixture()
    def lattice_file(self, tmp_path):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(
            {"label": "hyp", "p": 1, "q": 1, "gram": [["0", "1"], ["1", "0"]]}
        ))
        return str(path)

    def test_runs(self, lattice_file):
        res = run(
            "theta", "--lattice", lattice_file, "--tau", "0.5+1i", "--bound", "2",
        )
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["schema"] == "thomform/1"
        assert "w[1,2]" in data["coefficients"]
        assert data["tail_estimate"] > 0

    @pytest.mark.parametrize("field,value", [("p", 1.9), ("q", True), ("p", "1")])
    def test_signature_must_be_an_integer(self, tmp_path, field, value):
        data = {"label": "hyp", "p": 1, "q": 1, "gram": [["0", "1"], ["1", "0"]], field: value}
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(data))
        res = run("theta", "--lattice", str(path), "--tau", "1i", "--bound", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert f"lattice {field} = " in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("field", ["gram", "p", "q"])
    def test_missing_field_is_named(self, tmp_path, field):
        data = {"label": "hyp", "p": 1, "q": 1, "gram": [["0", "1"], ["1", "0"]]}
        del data[field]
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(data))
        res = run("theta", "--lattice", str(path), "--tau", "1i", "--bound", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: lattice has no '{field}' field\n"

    @pytest.mark.parametrize("value", [True, 0.1])
    def test_gram_entry_must_be_exact(self, tmp_path, value):
        data = {"label": "hyp", "p": 1, "q": 1, "gram": [["0", "1"], [value, "0"]]}
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(data))
        res = run("theta", "--lattice", str(path), "--tau", "1i", "--bound", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "gram[1][0] = " in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("gram,name", [(["01", "10"], "gram[0] = "), ("0110", "gram = ")])
    def test_gram_rows_must_be_arrays(self, tmp_path, gram, name):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"label": "hyp", "p": 1, "q": 1, "gram": gram}))
        res = run("theta", "--lattice", str(path), "--tau", "1i", "--bound", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert name in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("value", ["1/0", "1/2x"])
    def test_gram_entry_must_be_a_rational(self, tmp_path, value):
        data = {"label": "hyp", "p": 1, "q": 1, "gram": [["0", value], ["1", "0"]]}
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(data))
        res = run("theta", "--lattice", str(path), "--tau", "1i", "--bound", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "gram[0][1] = " in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("data", [[1, 2], "gram", 3])
    def test_lattice_must_be_an_object(self, tmp_path, data):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(data))
        res = run("theta", "--lattice", str(path), "--tau", "1i", "--bound", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "lattice = " in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("entry", [str(10**400), f"1/{10**400}"], ids=["huge", "tiny"])
    def test_gram_entry_past_a_float_exits_2(self, tmp_path, entry):
        data = {"label": "far", "p": 1, "q": 1, "gram": [["0", entry], [entry, "0"]]}
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(data))
        res = run("theta", "--lattice", str(path), "--tau", "1i", "--bound", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: gram[0][1] does not fit a float\n"

    def test_bound_past_the_box_limit_exits_2(self, lattice_file):
        res = run("theta", "--lattice", lattice_file, "--tau", "1i", "--bound", "1e300")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: bound = 1e+300 ") and res.stderr.count("\n") == 1

    def test_committed_example_runs(self):
        res = run(
            "theta", "--lattice", str(EXAMPLES / "hyp_hyp.json"),
            "--tau", "0.25+1i", "--bound", "8",
        )
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["label"] == "hyp+hyp" and "w[1,3]^w[1,4]" in data["coefficients"]

    def test_missing_file(self):
        res = run("theta", "--lattice", "/no/such.json", "--tau", "1i", "--bound", "1")
        assert res.returncode == 2

    @pytest.mark.parametrize("tau,bound,name", [
        ("0.5+nani", "4", "tau"),
        ("0.5+1i", "inf", "bound"),
        ("0.5+1i", "nan", "bound"),
    ])
    def test_non_finite_input(self, lattice_file, tau, bound, name):
        res = run("theta", "--lattice", lattice_file, "--tau", tau, "--bound", bound)
        assert res.returncode == 2
        assert res.stdout == ""
        assert name in res.stderr and "Traceback" not in res.stderr


class TestUsage:
    def test_no_command(self):
        res = run()
        assert res.returncode == 2

    def test_unknown_command(self):
        res = run("frobnicate")
        assert res.returncode == 2


SIGNATURE_LIMITS = (
    {"p": 1, "q": 1}, {"p": 1, "q": 8}, {"p": 0, "q": 1}, {"p": 1, "q": 1, "p2": 1},
    {"p": 1.5, "q": 1}, {"p": True, "q": 1},
)
FIBER_LIMITS = ({"q": 1}, {"q": 8}, {"q": 0}, {"q": 1, "p": 1}, {"q": 2.9}, {"q": True})

# Per check: the smallest legal parameters, the first size past the cap, a
# zero, a parameter the check does not take, a size that is not an integer
# and a bool. delta_limit and example11 are not sized; their legal case is
# the defaults.
LIMITS = {
    **dict.fromkeys(
        ["theorem", "km_closed_form", "curvature", "berezin_combinatorial",
         "hermite_lemma", "closedness", "k_invariance"],
        SIGNATURE_LIMITS,
    ),
    **dict.fromkeys(
        ["fiber_integral", "fiber_restriction", "annihilation", "transgression"],
        FIBER_LIMITS,
    ),
    "howe_hermite": (
        {"nmax": 1}, {"nmax": 17}, {"nmax": 0}, {"p": 1}, {"nmax": 2.5}, {"nmax": True},
    ),
    "delta_limit": ({}, None, {"t": 0}, {"p": 1}, None, {"t": True}),
    "example11": ({}, None, None, {"p": 1}, None, None),
    "splitting": (
        {"p1": 1, "q1": 1, "p2": 1, "q2": 1},
        {"p1": 1, "q1": 1, "p2": 1, "q2": 6},
        {"p1": 1, "q1": 0, "p2": 1, "q2": 1},
        {"p1": 1, "q1": 1, "p2": 1, "q2": 1, "p3": 1},
        {"p1": 1, "q1": 1, "p2": 1, "q2": 1.5},
        {"p1": 1, "q1": 1, "p2": 1, "q2": True},
    ),
}

CASES = [
    pytest.param(cid, params, kind == "legal", id=f"{cid}-{kind}")
    for cid in CHECK_IDS
    for kind, params in zip(
        ("legal", "past_cap", "zero", "unknown", "non_integral", "bool"), LIMITS[cid]
    )
    if params is not None
]


def verify_args(cid, params):
    """`thomform verify` arguments for run_check(cid, **params), or None
    when the command line has no flag for one of the parameters or parses
    one of the values differently (its flags take decimal integers)."""
    first = ("p1", "q1") if cid == "splitting" else ("p", "q")
    flags = dict(zip(first + ("p2", "q2"), ("--p", "--q", "--p2", "--q2")))
    if not set(params) <= set(flags) or any(type(v) is not int for v in params.values()):
        return None
    return ["verify", "--check", cid] + [
        arg for name, value in params.items() for arg in (flags[name], str(value))
    ]


@pytest.mark.parametrize("cid,params,legal", CASES)
def test_run_check_and_cli_agree(cid, params, legal):
    if legal:
        assert run_check(cid, **params).passed
    else:
        with pytest.raises(ValueError, match=f"^{cid}: "):
            run_check(cid, **params)
    args = verify_args(cid, params)
    if args is not None:
        res = run(*args)
        assert res.returncode == (0 if legal else 2), res.stderr
        assert legal or f"error: {cid}: " in res.stderr
