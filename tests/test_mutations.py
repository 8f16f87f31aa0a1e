"""Mutation gate: every check can fail, and every planted fault is seen.

Each entry of ``MUTATIONS`` plants one small fault in the library: it
replaces one or two snippets in the source of one library function and
installs the result with ``monkeypatch``. Under each fault every check runs at its smallest legal
size and at the next sizes up (``SIZES``). The gate holds both ways:

- every check id returns ``fail`` under at least one mutation at its
  smallest legal size;
- every mutation makes at least one check return ``fail``.

A check that raises under a mutation has not caught it: only a ``fail``
verdict counts. Without a mutation every run passes.
"""

import __future__
import inspect
import textwrap
import warnings

import pytest
from scipy.integrate import IntegrationWarning

import thomform
from thomform import checks, cli, km, liealg, mq, scalars, superforms, theta
from thomform.checks import CHECKS, FIBER, SIGNATURE, run_check
from thomform.liealg import SignatureCtx
from thomform.scalars import PolyGauss
from thomform.superforms import SuperForm

MODULES = (thomform, scalars, superforms, liealg, km, mq, checks, theta, cli)

# name -> [(owner, function name, {snippet: replacement}), ...]
MUTATIONS = {
    # the one Koszul rule, behind wedge and the Thom form's accumulator
    "wedge_drops_koszul_sign": [
        (SuperForm, "_wedge_into", {"(-1 if (len(ja) * len(ib)) % 2 else 1)": "1"}),
    ],
    # the one derivative rule, behind both derive and gradient
    "derive_drops_gaussian_slope": [
        (PolyGauss, "_partials", {"slope = int(-2 * g[i - 1] * unit)": "slope = 0"}),
    ],
    "derive_drops_the_exponent_factor": [
        (PolyGauss, "_partials", {"v * e * unit": "v * unit"}),
    ],
    # flipping the YX term alone gives XY + YX, which is not in so(p,q):
    # bracket itself raises, in every check, so the whole commutator is flipped
    "bracket_returns_yx_minus_xy": [
        (liealg, "bracket", {
            "yield (i, j), u * v": "yield (i, j), -u * v",
            "yield (l, k), -v * u": "yield (l, k), v * u",
        }),
    ],
    "mq_prefactor_sign_flipped": [
        (mq, "mq_prefactor", {"sign = -1 if": "sign = 1 if"}),
    ],
    # the Thom form one (2 pi)^(q/2) too large: at (1,1) its coefficients sit
    # one grade above the Howe form's, so the sides do not subtract, and the
    # witness names the two grades
    "mq_prefactor_drops_the_pi_power": [
        (mq, "mq_prefactor", {"epi=-q": "epi=0"}),
    ],
    # the 1/b! of r^b / b! in the one exponential: b! = 1 for b <= 1, so
    # only q >= 4 sees it; SIZES holds (1,4) for it
    "exp_drops_the_r_power_factorials": [
        (mq, "_exp", {"weight * Fraction(1, math.factorial(b))": "weight"}),
    ],
    # the one exponential of the Thom forms and the Hermite lemma:
    # exp(a) = prod_mu (1 + a_mu) carries the 1/k! of a^k / k!, and doubling
    # each column scales z0 degree k by 2^k
    "top_degree_drops_factorials": [
        (mq, "_exp", {
            "exp_a + exp_a.wedge(a_mu)": "exp_a + exp_a.wedge(a_mu).scale(2)",
        }),
    ],
    # the transpose acts as -X: k_invariance at (2,1) sees it; the slot
    # moves are the coadjoint action that lie_derivative sums
    "coadjoint_takes_rows_for_columns": [
        (liealg, "_slot_moves", {
            "cols.setdefault(j, []).append((r, c))": "cols.setdefault(r, []).append((j, c))",
        }),
    ],
    # the Howe constant 1/2 for 1/(2 pi): x_i f and (1/2) d/dx_i f lie two
    # grades apart, so the Howe form is refused where it is summed
    "howe_shift_drops_the_pi": [
        (scalars, "howe_shift", {"epi=-2": "epi=0"}),
    ],
    "gauss_moment_doubled": [
        (scalars, "gauss_moment", {"epi=-2 * k) * inv_sqrt_c": "epi=-2 * k) * inv_sqrt_c * 2"}),
    ],
    # at (1,1) both sides of curvature and of closedness vanish because
    # w ^ w = 0: only a repeated generator that survives reaches them
    "repeated_generator_absorbed": [
        (superforms, "merge_sorted", {"return (), 0": "continue"}),
    ],
    # at (1,1) k = 0, so k_invariance has no generator to test unless the
    # Cartan split is wrong
    "cartan_split_puts_p_in_k": [
        (SignatureCtx, "in_p", {"return i <= self.p < j": "return False"}),
    ],
    "berezin_below_top_degree": [
        (SuperForm, "berezin", {"top = tuple(self.ctx.z0)": "top = tuple(self.ctx.z0)[1:]"}),
    ],
    # L_E dx_i = dx_i: at q = 1 only transgression reads the slot term
    "euler_drops_slot_factor": [
        (mq, "fiber_euler", {"acc.add(key, pg, len(key[0]))": "None"}),
    ],
    "contract_drops_sign": [
        (SuperForm, "contract", {"(before + pos) % 2)": "0)"}),
    ],
    # the one product rule, behind PolyGauss * PolyGauss and wedge: the one
    # weight sum of a product
    "gaussian_product_keeps_left_weight": [
        (scalars._FlatSum, "add_product", {"tuple(map(add, a.g, b.g))": "a.g"}),
    ],
    # sqrt2 * sqrt2 of the two grades, folded once per product
    "product_skips_the_sqrt2_fold": [
        (scalars._FlatSum, "add_product", {" << (a2 & b2)": ""}),
    ],
    # the field of d and of L_X: x_l d/dx_k with c_kl dropped
    "linear_field_drops_its_coefficient": [
        (scalars._FlatSum, "add_field", {"grad[k - 1], c, l)": "grad[k - 1], 1, l)"}),
    ],
    # the one d of both spaces: the sign of moving its generator into place
    "d_drops_the_merge_sign": [
        (km, "exterior_derivative", {"field[sign * parity]": "field[parity]"}),
    ],
    # a denominator that does not divide the common one lifts it, and the
    # numerators already stored must be rescaled with it
    "flat_sum_skips_the_rescale": [
        (scalars._FlatSum, "_per", {"v * lift for key": "v for key"}),
    ],
    # equality compares the stored numerators and denominator, so a value
    # left over a denominator that is not least differs from its equal
    "flat_result_keeps_unreduced_denominator": [
        (scalars._FlatSum, "result", {"d = math.gcd(": "d = 1 or math.gcd("}),
    ],
}


def _sizes(cid: str) -> list[dict]:
    """The smallest legal parameters of ``cid`` first, then the next sizes up."""
    spec = CHECKS[cid]
    if spec is SIGNATURE:  # (1,4): the first r^2, where 1/b! is not 1
        return [{"p": 1, "q": 1}, {"p": 1, "q": 2}, {"p": 2, "q": 1}, {"p": 2, "q": 2},
                {"p": 1, "q": 4}]
    if spec is FIBER:
        return [{"q": 1}, {"q": 2}]
    if cid == "howe_hermite":
        return [{"nmax": 1}, {"nmax": 2}]
    if cid == "splitting":
        return [{"p1": 1, "q1": 1, "p2": 1, "q2": 1}]
    return [{}]  # delta_limit and example11 are not sized


SIZES = {cid: _sizes(cid) for cid in CHECKS}


def _mutate(mp: pytest.MonkeyPatch, owner, name: str, replacements: dict) -> None:
    """Install ``owner.name`` with each snippet of ``replacements`` replaced
    in its source; a module-level function is rebound wherever the package
    imported it."""
    fn = getattr(owner, name)
    module = inspect.getmodule(fn)
    source = textwrap.dedent(inspect.getsource(fn))
    for snippet, replacement in replacements.items():
        assert source.count(snippet) == 1, f"{name}: {snippet!r} must occur once"
        source = source.replace(snippet, replacement)
    code = compile(
        source, module.__file__, "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace: dict = {}
    exec(code, vars(module), namespace)
    if inspect.isclass(owner):
        mp.setattr(owner, name, namespace[name])
        return
    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                mp.setattr(mod, attr, namespace[name])


def _verdicts() -> dict:
    """{(check id, sorted params): status}, where a raised exception is
    recorded as ``raised`` and never as ``fail``."""
    out = {}
    for cid, sizes in SIZES.items():
        for params in sizes:
            try:
                with warnings.catch_warnings():  # a planted fault may upset quad
                    warnings.simplefilter("ignore", IntegrationWarning)
                    status = run_check(cid, **params).status
            except Exception as exc:  # a crash is not a catch
                status = f"raised {type(exc).__name__}"
            out[(cid, tuple(sorted(params.items())))] = status
    return out


@pytest.fixture(scope="module")
def verdicts() -> dict:
    """Verdicts of every run, by mutation (None: the unmutated library)."""
    out = {None: _verdicts()}
    for name, edits in MUTATIONS.items():
        with pytest.MonkeyPatch.context() as mp:
            for edit in edits:
                _mutate(mp, *edit)
            out[name] = _verdicts()
    return out


def test_every_run_passes_without_a_mutation(verdicts):
    assert set(verdicts[None].values()) == {"pass"}, verdicts[None]


@pytest.mark.parametrize("name", MUTATIONS)
def test_every_mutation_fails_a_check(verdicts, name):
    assert "fail" in verdicts[name].values(), verdicts[name]


@pytest.mark.parametrize("cid", CHECKS)
def test_every_check_fails_under_a_mutation_at_its_smallest_size(verdicts, cid):
    key = (cid, tuple(sorted(SIZES[cid][0].items())))
    assert any(v[key] == "fail" for name, v in verdicts.items() if name is not None), key


def test_the_top_degree_fault_reaches_the_basepoint_and_fiber_forms(verdicts):
    failed = {cid for (cid, _), v in verdicts["top_degree_drops_factorials"].items() if v == "fail"}
    assert "theorem" in failed
    assert failed & {"fiber_integral", "fiber_restriction"}, failed


def test_the_thom_forms_and_the_hermite_lemma_share_one_exponential(verdicts):
    """A fault in `_exp` fails the theorem and the Hermite lemma alike: the
    doubled column at (1,1), the dropped 1/b! at (1,4) and not below."""
    one_one, one_four = (("p", 1), ("q", 1)), (("p", 1), ("q", 4))
    assert verdicts["top_degree_drops_factorials"][("hermite_lemma", one_one)] == "fail"
    b_fact = verdicts["exp_drops_the_r_power_factorials"]
    for cid in ("theorem", "hermite_lemma"):
        assert b_fact[(cid, one_four)] == "fail"
        assert {b_fact[(cid, tuple(sorted(s.items())))] for s in SIZES[cid][:4]} == {"pass"}


def test_kernel_faults_reach_their_checks(verdicts):
    """theorem sees the product rule, closedness or k_invariance the
    derivative rule, k_invariance at (2,1) the shared slot moves,
    k_invariance at (2,2) the flat sum's denominator lift, and howe_hermite
    at nmax = 2 the least denominator that equality compares; sides that
    compare unequal but subtract to zero fail theorem and splitting."""

    def failed(name: str) -> set:
        return {key for key, v in verdicts[name].items() if v == "fail"}

    assert "theorem" in {cid for cid, _ in failed("gaussian_product_keeps_left_weight")}
    slope = {cid for cid, _ in failed("derive_drops_gaussian_slope")}
    assert slope & {"closedness", "k_invariance"}, slope
    assert ("k_invariance", (("p", 2), ("q", 1))) in failed("coadjoint_takes_rows_for_columns")
    assert ("k_invariance", (("p", 2), ("q", 2))) in failed("flat_sum_skips_the_rescale")
    unreduced = failed("flat_result_keeps_unreduced_denominator")
    assert ("howe_hermite", (("nmax", 2),)) in unreduced
    assert {
        ("theorem", (("p", 1), ("q", 2))),
        ("theorem", (("p", 2), ("q", 2))),
        ("splitting", (("p1", 1), ("p2", 1), ("q1", 1), ("q2", 1))),
    } <= unreduced


def test_the_d_fault_reaches_both_spaces(verdicts):
    """One d serves the symmetric space and the fiber: a fault in it fails
    closedness at (2,1) and transgression at q = 2."""
    assert verdicts["d_drops_the_merge_sign"][("closedness", (("p", 2), ("q", 1)))] == "fail"
    assert verdicts["d_drops_the_merge_sign"][("transgression", (("q", 2),))] == "fail"


def test_a_dropped_pi_power_fails_theorem_with_two_grades():
    """Sides one grade apart do not subtract: theorem fails, and does not
    raise, with a witness that names both grades."""
    with pytest.MonkeyPatch.context() as mp:
        for edit in MUTATIONS["mq_prefactor_drops_the_pi_power"]:
            _mutate(mp, *edit)
        for p, q in [(1, 1), (1, 2), (2, 2)]:
            res = run_check("theorem", p=p, q=q)
            assert res.status == "fail", (p, q)
            assert res.witness.startswith("one coefficient, two grades: "), res.witness


def test_a_howe_constant_without_pi_fails_theorem_with_two_grades(verdicts):
    """The Howe form's sum of two grades is refused where it is built:
    theorem fails at (1,1), and does not raise, naming both grades."""
    assert verdicts["howe_shift_drops_the_pi"][("theorem", (("p", 1), ("q", 1)))] == "fail"
    with pytest.MonkeyPatch.context() as mp:
        for edit in MUTATIONS["howe_shift_drops_the_pi"]:
            _mutate(mp, *edit)
        res = run_check("theorem", p=1, q=1)
    assert res.witness == "one coefficient, two grades: (0, -1) and (0, 1)"


def test_no_sum_of_two_weights_or_grades_escapes_a_check(verdicts):
    """A planted fault that sums two weights or grades fails the check
    where the sum is built; it never raises out of `run_check`."""
    raised = {
        (name, key) for name, runs in verdicts.items() for key, v in runs.items()
        if v == "raised Inhomogeneous"
    }
    assert raised == set()


def test_the_slot_fault_reaches_transgression_at_q1(verdicts):
    assert verdicts["euler_drops_slot_factor"][("transgression", (("q", 1),))] == "fail"


def test_every_mutation_is_undone(verdicts):
    assert verdicts[None] == _verdicts()
