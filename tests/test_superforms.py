"""Bigraded exterior algebra: wedge, Berezin integral, contraction,
and the even exponential."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import exp_even, generator
from thomform.km import km_form_at_e
from thomform.liealg import SignatureCtx, eta
from thomform.mq import mq_phi_at_e
from thomform.scalars import PolyGauss, Scalar
from thomform.superforms import (
    FiberCtx,
    SuperForm,
    merge_sorted,
    sort_with_sign,
)

CTX = FiberCtx(3)


def random_forms(ctx, max_terms=3):
    gens = st.lists(
        st.sampled_from(list(ctx.z0)), unique=True, max_size=ctx.q
    ).map(lambda xs: tuple(sorted(xs)))
    coeff = st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
    ).map(lambda f: PolyGauss.const(ctx.nvars, Scalar.rational(f)))
    return st.dictionaries(st.tuples(gens, gens), coeff, max_size=max_terms).map(
        lambda terms: SuperForm(ctx, terms)
    )


class TestCanonicalSums:
    def test_pairs_merge_and_drop(self):
        one = PolyGauss.one(CTX.nvars)
        f = SuperForm(CTX, [(((1,), ()), one), (([1], []), one), (((2,), ()), one),
                            (((2,), ()), -one)])
        assert f.terms == {((1,), ()): one * 2}
        assert not SuperForm(CTX, [(((1,), ()), one), (((1,), ()), -one)])

    def test_rejects_coefficient_of_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            SuperForm(CTX, {((1,), ()): PolyGauss.one(CTX.nvars + 1)})

    @pytest.mark.parametrize("key", [((2, 1), ()), ((1, 1), ()), ((), (2, 1)), ((), (2, 2))])
    def test_rejects_a_key_that_is_not_strictly_increasing(self, key):
        # ((2, 1), ()) would otherwise compare unequal to -{((1, 2), ()): one}
        with pytest.raises(ValueError, match="strictly increasing"):
            SuperForm(FiberCtx(2), {key: PolyGauss.one(2)})

    @given(random_forms(CTX), random_forms(CTX))
    def test_results_stay_canonical(self, a, b):
        for f in (a + b, a - a, a.wedge(b), a.scale(0)):
            assert all(f.terms.values())
        assert not (a - a)


def sorted_with_inversions(seq: tuple) -> tuple[tuple, int]:
    """The reference: sorted seq and (-1)^(pairs out of order), ((), 0) on a repeat."""
    if len(set(seq)) < len(seq):
        return (), 0
    inversions = sum(x > y for i, x in enumerate(seq) for y in seq[i + 1 :])
    return tuple(sorted(seq)), -1 if inversions % 2 else 1


increasing = st.sets(st.integers(0, 6), max_size=5).map(lambda xs: tuple(sorted(xs)))


class TestMergeSorted:
    def test_repeat_kills(self):
        assert merge_sorted((1,), (1,))[1] == 0

    def test_transposition_sign(self):
        merged, sign = merge_sorted((2,), (1,))
        assert merged == (1, 2) and sign == -1

    @given(increasing, st.lists(st.integers(0, 6), max_size=4).map(tuple))
    def test_counts_inversions_for_b_in_any_order(self, a, b):
        assert merge_sorted(a, b) == sorted_with_inversions(a + b)
        assert sort_with_sign(b) == sorted_with_inversions(b)

    @given(increasing, st.integers(0, 6))
    def test_one_slot_move(self, slots, g):
        # replacing slots[pos] with g: insert g into the rest, counted from pos
        for pos in range(len(slots)):
            rest = slots[:pos] + slots[pos + 1 :]
            moved, sign = merge_sorted(rest, (g,))
            flip = -1 if (len(rest) - pos) % 2 else 1
            expected = sort_with_sign(slots[:pos] + (g,) + slots[pos + 1 :])
            assert (moved, sign * flip) == expected


class TestWedge:
    @settings(max_examples=50)
    @given(random_forms(CTX), random_forms(CTX), random_forms(CTX))
    def test_associative(self, a, b, c):
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    @settings(max_examples=50)
    @given(random_forms(CTX), random_forms(CTX), random_forms(CTX))
    def test_bilinear(self, a, b, c):
        assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)

    def test_graded_commutativity(self):
        # total degrees 1 and 1 -> anticommute
        a = generator(CTX, 1)
        b = SuperForm(CTX, {((), (2,)): PolyGauss.one(CTX.nvars)})
        assert a.wedge(b) == b.wedge(a).scale(Scalar.rational(-1))

    def test_koszul_sign_example(self):
        # (dx1 (x) e1) ^ (dx2 (x) e2) carries the (-1)^{|J_a||I_b|} sign
        one = PolyGauss.one(CTX.nvars)
        a = SuperForm(CTX, {((1,), (1,)): one})
        b = SuperForm(CTX, {((2,), (2,)): one})
        assert a.wedge(b) == SuperForm(CTX, {((1, 2), (1, 2)): -one})

    def test_odd_squares_vanish(self):
        one = PolyGauss.one(CTX.nvars)
        a = SuperForm(CTX, {((1,), ()): one, ((), (2,)): one})
        assert not a.wedge(a)


class TestBerezin:
    def test_projects_top_component(self):
        one = PolyGauss.one(CTX.nvars)
        a = SuperForm(
            CTX,
            {((1,), (1, 2, 3)): one, ((2,), (1, 2)): one, ((), ()): one},
        )
        assert a.berezin() == SuperForm(CTX, {((1,), ()): one})

    def test_eta_squared_example(self):
        ctx = SignatureCtx(1, 2)
        e1 = eta(ctx, 1)
        sq = e1.wedge(e1)
        out = sq.berezin()
        expected = SuperForm(
            ctx,
            {((((1, 2)), ((1, 3))), ()): PolyGauss.const(3, Scalar.rational(-2))},
        )
        assert out == expected


class TestContract:
    def test_is_an_odd_derivation(self):
        ctx = FiberCtx(2)
        s = SuperForm(
            ctx,
            {
                ((), (i,)): PolyGauss.var(2, i)
                for i in ctx.z0
            },
        )
        a = generator(ctx, 1)
        b = generator(ctx, 2)
        ab = a.wedge(b)
        lhs = ab.contract(s)
        rhs = a.contract(s).wedge(b) - a.wedge(b.contract(s))
        assert lhs == rhs

    def test_kills_sections(self):
        ctx = FiberCtx(2)
        s = SuperForm(
            ctx, {((), (1,)): PolyGauss.one(2)}
        )
        a = SuperForm(ctx, {((), (2,)): PolyGauss.one(2)})
        assert not a.contract(s)

    def test_removes_a_one_form_slot_with_its_sign(self):
        ctx = FiberCtx(2)
        one = PolyGauss.one(2)
        dx1_dx2 = SuperForm(ctx, {((1, 2), ()): one})
        assert dx1_dx2.contract(generator(ctx, 1)) == generator(ctx, 2)
        assert dx1_dx2.contract(generator(ctx, 2)) == -generator(ctx, 1)

    def test_counts_the_one_form_slots_before_the_fiber_slots(self):
        # dx1 ^ e1: removing e1 passes one slot, removing dx1 none
        ctx = FiberCtx(2)
        one = PolyGauss.one(2)
        a = SuperForm(ctx, {((1,), (1,)): one})
        e1 = SuperForm(ctx, {((), (1,)): one})
        assert a.contract(e1) == -generator(ctx, 1)
        assert a.contract(generator(ctx, 1)) == e1
        assert a.contract(e1 + generator(ctx, 1)) == e1 - generator(ctx, 1)

    def test_is_an_odd_derivation_on_the_one_form_factor(self):
        ctx = FiberCtx(2)
        v = SuperForm(ctx, {((i,), ()): PolyGauss.var(2, i) for i in ctx.z0})
        one = PolyGauss.one(2)
        b = SuperForm(ctx, {((1, 2), (1,)): one, ((2,), ()): one})
        odd = SuperForm(ctx, {((2,), ()): one})
        even = SuperForm(ctx, {((1,), (2,)): one})
        for part, sign in ((odd, -1), (even, 1)):  # (-1)^(total degree)
            lhs = part.wedge(b).contract(v)
            rhs = part.contract(v).wedge(b) + part.wedge(b.contract(v)).scale(sign)
            assert lhs == rhs

    @pytest.mark.parametrize("key", [((), ()), ((1, 2), ()), ((1,), (1,)), ((), (1, 2))])
    def test_rejects_an_argument_that_is_not_a_vector(self, key):
        ctx = FiberCtx(2)
        with pytest.raises(ValueError, match="bidegree"):
            SuperForm.one(ctx).contract(SuperForm(ctx, {key: PolyGauss.one(2)}))


class TestExpEven:
    """The power-series reference exp_even of `references`, which `mq._exp`
    is checked against."""

    def test_addition_rule_on_diagonal(self):
        # exp(a + b) = exp(a) exp(b) for commuting diagonal nilpotents
        ctx = SignatureCtx(2, 2)
        a = eta(ctx, 1)
        b = eta(ctx, 2)
        assert exp_even(a + b) == exp_even(a).wedge(exp_even(b))

    def test_nilpotent_series_truncates(self):
        ctx = SignatureCtx(1, 2)
        e1 = eta(ctx, 1)
        sq = e1.wedge(e1)
        out = exp_even(sq)
        assert out == SuperForm.one(ctx) + sq  # sq^2 = 0 in z0-degree > q

    def test_rejects_off_diagonal(self):
        ctx = FiberCtx(2)
        with pytest.raises(ValueError):
            exp_even(generator(ctx, 1))
        # a (0,0) term is not nilpotent: a Gaussian is multiplied in by the caller
        quad = PolyGauss.var(2, 1) * PolyGauss.var(2, 1) * Scalar.term(Fraction(-2), epi=2)
        with pytest.raises(ValueError, match="nilpotent"):
            exp_even(SuperForm(ctx, {((), ()): quad}))


class TestHermiteLemma:
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 3), (1, 6), (2, 4)])
    def test_exponential_generates_hermite(self, p, q):
        from thomform.checks import check_hermite_lemma

        assert check_hermite_lemma(p, q).passed


def benchmark_form_sizes():
    """``form_sizes`` of the benchmark harness, which walks the coefficient tower."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.form_sizes


class TestSizes:
    def test_counts(self):
        one = PolyGauss.one(CTX.nvars)
        x = PolyGauss.var(CTX.nvars, 1) * Scalar.term(Fraction(-5, 12), epi=1)  # in y, as 1
        f = SuperForm(CTX, {((1,), ()): one + x, ((2,), (3,)): x})
        assert f.sizes() == (2, 3, 4)  # 12 has 4 bits
        assert SuperForm(CTX).sizes() == (0, 0, 0)

    @pytest.mark.parametrize("p,q", [(4, 4), (2, 6)])
    def test_matches_the_benchmark_tower_walk(self, p, q):
        ctx = SignatureCtx(p, q)
        km, mq = km_form_at_e(ctx), mq_phi_at_e(ctx)
        tag = f"p{p}q{q}"
        assert benchmark_form_sizes()({(p, q): {"km": km, "mq": mq}}) == {
            f"forms.km_terms.{tag}": km.sizes()[0],
            f"forms.km_monomials.{tag}": km.sizes()[1],
            f"forms.mq_monomials.{tag}": mq.sizes()[1],
            f"forms.max_coeff_bits.{tag}": max(km.sizes()[2], mq.sizes()[2]),
        }


class TestRendering:
    def test_str(self):
        ctx = SignatureCtx(1, 2)
        one = PolyGauss.one(3)
        a = SuperForm(ctx, {(((1, 2), (1, 3)), (2,)): one})
        assert str(a) == "1 w[1,2]^w[1,3] e[2]"

    def test_json_round_trippable_keys(self):
        ctx = FiberCtx(2)
        a = SuperForm(ctx, {((1, 2), ()): PolyGauss.one(2)})
        data = a.to_json()
        assert isinstance(data, dict) and data
