import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soficapprox import growth, profile
from soficapprox.growth import (
    INF,
    MAX_SLOPE_BITS,
    Affine,
    BlockStep,
    Compose,
    EventualAffine,
    Exhausted,
    GrowthFn,
    Infinity,
    Linear,
    Power,
    Tabulated,
    compare_pf,
    compose,
    growth_profile,
    is_infinite,
    is_slow,
    linearize,
    ll,
    lt_eventually,
    parse_growth,
    power,
    sim,
)

from oracles import (reference_growth_eval, reference_growth_profile, reference_growth_walk,
                     reference_minimal_onset, reference_power_orders)

simple_growths = st.one_of(
    st.integers(1, 40).map(Affine),
    st.integers(2, 5).map(Linear),
    st.builds(
        lambda b1, step, o1, o2: BlockStep((b1, b1 + step), (o1, o1 + o2)),
        st.integers(1, 30), st.integers(1, 30), st.integers(1, 10), st.integers(0, 10)),
    st.builds(Tabulated,
              st.integers(1, 6).map(lambda c: tuple(i + c for i in range(4))),
              st.integers(6, 9)),
)

growths = st.recursive(
    simple_growths,
    lambda inner: st.one_of(
        st.builds(Compose, inner, inner),
        st.builds(Power, inner, st.integers(1, 3)),
    ),
    max_leaves=3,
)


class TestEval:
    def test_affine(self):
        assert Affine(1)(7) == 8

    def test_power_of_successor(self):
        p = power(Affine(1), 3)
        assert all(p(n) == n + 3 for n in range(50))

    def test_infinity_sentinel(self):
        assert Infinity()(5) == INF

    def test_infinite_argument(self):
        assert Affine(2)(INF) == INF

    def test_linear_at_zero(self):
        assert Linear(2)(0) == 2

    def test_blockstep_blocks(self):
        g = BlockStep((4, 12), (2, 5))
        assert g(0) == 2 and g(3) == 5
        assert g(4) == 9 and g(11) == 16
        assert g(12) == 17 and g(100) == 105  # final offset continues

    def test_tabulated(self):
        g = Tabulated((3, 4, 5), 4)
        assert g(0) == 3 and g(2) == 5 and g(3) == 7

    def test_semigroup_law(self):
        f, g, h = Affine(2), Linear(2), Affine(5)
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        assert all(left(n) == right(n) for n in range(100))

    def test_power_is_iterated_compose(self):
        g = Linear(2)
        p3 = power(g, 3)
        c3 = compose(g, compose(g, g))
        assert all(p3(n) == c3(n) for n in range(50))

    @given(growths, st.integers(0, 300))
    def test_membership_invariant(self, g, n):
        assert g(n) > n
        assert g(n + 1) >= g(n)

    @given(growths, st.integers(0, 300))
    def test_values_evaluate_every_point(self, g, n):
        assert g.values(n) == [g(i) for i in range(n + 1)]

    def test_blockstep_values_in_closed_form(self):
        rng = random.Random(11)
        for _ in range(300):
            k = rng.randint(1, 6)
            breaks = tuple(sorted(rng.sample(range(1, 80), k)))
            g = BlockStep(breaks, tuple(sorted(rng.randint(1, 25) for _ in range(k))))
            below_first, past_last = rng.randint(0, breaks[0] - 1), breaks[-1] + rng.randint(0, 40)
            for n in (0, below_first, breaks[0], rng.randint(0, 100), breaks[-1] - 1, past_last):
                assert g.values(n) == [g(i) for i in range(n + 1)], (g, n)

    def test_bad_constructions_rejected(self):
        with pytest.raises(ValueError):
            Affine(0)
        with pytest.raises(ValueError):
            Linear(1)
        with pytest.raises(ValueError):
            BlockStep((5, 3), (1, 2))
        with pytest.raises(ValueError):
            BlockStep((3, 5), (2, 1))
        with pytest.raises(ValueError):
            Tabulated((0,), 3)  # violates g(0) > 0
        with pytest.raises(ValueError):
            Tabulated((3, 9), 2)  # does not join monotonically onto its tail


class TestParse:
    @pytest.mark.parametrize("text", [
        "affine:3",
        "linear:2",
        "blockstep:4,2;12,5",
        "compose(affine:1,linear:2)",
        "power(affine:1,3)",
        "infinity",
        "compose(power(affine:2,2),blockstep:7,3)",
        "table:3,4,5+4",
    ])
    def test_round_trip(self, text):
        assert parse_growth(text).spec() == text

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_growth("cubic:3")

    @given(st.recursive(
        st.one_of(simple_growths, st.just(Infinity()),
                  st.builds(lambda b, o: BlockStep((b,), (o,)), st.integers(1, 30),
                            st.integers(1, 10)),
                  st.integers(1, 9).map(lambda c: Tabulated((), c))),
        lambda inner: st.one_of(st.builds(Compose, inner, inner),
                                st.builds(Power, inner, st.integers(1, 3))),
        max_leaves=6))
    @settings(max_examples=1000, deadline=None)
    def test_nested_specs_parse_back(self, g):
        assert parse_growth(g.spec()) == g

    def test_comma_operands_are_parenthesized(self):
        g = Compose(BlockStep((1, 2), (1, 1)), Affine(1))
        assert g.spec() == "compose((blockstep:1,1;2,1),affine:1)"
        assert Power(Tabulated((3, 4), 2), 2).spec() == "power((table:3,4+2),2)"
        assert parse_growth("compose(affine:1,(linear:2))") == Compose(Affine(1), Linear(2))

    def test_nesting_limit_counts_compose_levels_not_wrappers(self):
        g = BlockStep((1, 2), (1, 1))
        for _ in range(64):
            g = Compose(g, Affine(1))
        assert parse_growth(g.spec()) == g
        with pytest.raises(ValueError, match="deeper than 64 levels"):
            parse_growth(Compose(g, Affine(1)).spec())

    @pytest.mark.parametrize("text", [
        "blockstep:1", "compose(blockstep:1,1;2,1,affine:1)", "table:a+2",
        "power(affine:1,x)", "power(affine:1,0)", "compose(affine:1)", "affine:0",
    ])
    def test_malformed_spec_named_in_one_line(self, text):
        with pytest.raises(ValueError) as exc:
            parse_growth(text)
        message = str(exc.value)
        assert message.startswith("cannot parse growth spec '") and "\n" not in message


class TestPrec:
    def test_affine_pair(self):
        v = lt_eventually(Affine(1), Affine(2))
        assert v.outcome == "true" and v.n0 == 0

    def test_affine_pair_false(self):
        v = lt_eventually(Affine(5), Affine(2))
        assert v.outcome == "false"
        f, g = Affine(5), Affine(2)
        assert f(v.witness) >= g(v.witness)

    def test_affine_below_linear(self):
        v = lt_eventually(Affine(2), Linear(2))
        assert v.outcome == "true" and v.n0 == 3

    def test_linear_never_below_affine(self):
        assert lt_eventually(Linear(2), Affine(50)).outcome == "false"

    def test_infinity_dominates(self):
        assert lt_eventually(Affine(1), Infinity()).outcome == "true"
        assert lt_eventually(Infinity(), Linear(5)).outcome == "false"

    def test_equal_functions_not_strict(self):
        assert lt_eventually(Affine(3), Affine(3)).outcome == "false"

    @given(growths, growths)
    @settings(max_examples=60)
    def test_verdicts_match_evaluation(self, f, g):
        v = lt_eventually(f, g)
        if v.outcome == "true":
            assert all(f(n) < g(n) for n in range(v.n0, v.n0 + 50))
            if v.n0 > 0:
                assert f(v.n0 - 1) >= g(v.n0 - 1)
        elif v.outcome == "false":
            assert f(v.witness) >= g(v.witness)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_piece_steps_match_the_walk_down(self, data):
        near = data.draw(st.integers(0, 300))
        f, g = data.draw(leaf_growths(near)), data.draw(leaf_growths(near))
        lf, lg = linearize(f), linearize(g)
        if (lf.a, lf.c) > (lg.a, lg.c):
            f, g, lf, lg = g, f, lg, lf
        assume((lf.a, lf.c) != (lg.a, lg.c))
        # a point from which the eventual forms keep f below g
        start = max(lf.n_from, lg.n_from, 1)
        if lf.a < lg.a:
            start = max(start, (lf.c - lg.c) // (lg.a - lf.a) + 1)
        start += data.draw(st.integers(0, 20))
        onset = reference_minimal_onset(f, g, start)
        assert growth._minimal_onset(f, g, start) == onset
        assert lt_eventually(f, g).n0 == onset

    def test_block_step_onset_far_out(self):
        # f < g everywhere; a walk down from the break takes 7 s
        start = time.perf_counter()
        assert lt_eventually(BlockStep((10**7,), (5,)), Affine(10)).n0 == 0
        assert lt_eventually(Affine(10), BlockStep((10**7, 10**7 + 1), (5, 11))).n0 == 10**7
        assert time.perf_counter() - start < 1


class TestPowerDomination:
    def test_affine_below_linear_all_powers(self):
        v = ll(Affine(1), Linear(2))
        assert v.outcome == "true"

    def test_affine_pair_fails_at_some_power(self):
        v = ll(Affine(1), Affine(7))
        assert v.outcome == "false" and v.k == 7
        # power 6 still passes, power 7 does not
        assert lt_eventually(Power(Affine(1), 6), Affine(7)).outcome == "true"
        assert lt_eventually(Power(Affine(1), 7), Affine(7)).outcome == "false"

    def test_linear_eventually_outgrows(self):
        v = ll(Linear(2), Linear(100))
        assert v.outcome == "false" and v.k == 7  # 2^7 = 128 > 100

    def test_infinite_right_side(self):
        assert ll(Linear(3), Infinity()).outcome == "true"

    def test_huge_offset_fails_at_once(self):
        start = time.perf_counter()
        v = ll(Affine(1), Affine(10**12))
        assert time.perf_counter() - start < 0.1
        assert v.outcome == "false" and v.k == 10**12


class TestSim:
    def test_affine_pair(self):
        v = sim(Affine(1), Affine(2))
        assert v.outcome == "true" and v.k == 3

    def test_linear_vs_affine_exact_false(self):
        v = sim(Linear(2), Affine(1))
        assert v.outcome == "false"

    def test_same_function(self):
        v = sim(Linear(3), Linear(3))
        assert v.outcome == "true" and v.k == 2  # strictness needs one power up

    def test_offset_ratio_decides_k(self):
        v = sim(Affine(1), Affine(100))
        assert v.outcome == "true" and v.k == 101


# block-step and table specs hold commas, so they parse only at the top level
parseable_specs = st.one_of(
    simple_growths.map(lambda g: g.spec()),
    st.recursive(
        st.one_of(st.integers(1, 40).map("affine:{}".format),
                  st.integers(2, 5).map("linear:{}".format), st.just("infinity")),
        lambda inner: st.one_of(st.builds("compose({},{})".format, inner, inner),
                                st.builds("power({},{})".format, inner, st.integers(1, 3))),
        max_leaves=4),
).map(parse_growth)


class _Square(GrowthFn):
    """n -> n^2 + 1: a member of the calculus with no eventually affine form."""

    def _eval(self, n):
        return n * n + 1


class TestClosedFormOrders:
    @given(st.one_of(parseable_specs, growths), st.one_of(parseable_specs, growths))
    @settings(max_examples=200, deadline=None)
    def test_ll_and_sim_agree_with_the_power_loops(self, f, g):
        k_max = 60
        ll_k, sim_k = reference_power_orders(f, g, k_max)
        v_ll, v_sim = ll(f, g), sim(f, g)
        if ll_k is not None:
            assert (v_ll.outcome, v_ll.k) == ("false", ll_k)
        else:
            assert v_ll.outcome == "true" or v_ll.k > k_max
        if sim_k is not None:
            assert (v_sim.outcome, v_sim.k) == ("true", sim_k)
        else:
            assert v_sim.outcome == "false" or v_sim.k > k_max

    @pytest.mark.parametrize("f, g", [(_Square(), Affine(1)), (Affine(1), _Square()),
                                      (_Square(), Infinity()), (Infinity(), _Square()),
                                      (compose(Affine(1), _Square()), Linear(2))])
    def test_no_affine_form_rejected(self, f, g):
        for order in (lt_eventually, ll, sim):
            with pytest.raises(ValueError, match="no eventually affine form") as exc:
                order(f, g)
            assert "\n" not in str(exc.value)


class TestSlowness:
    def test_affine_slow(self):
        assert is_slow(Affine(31)).verdict == "slow"

    def test_linear_not_slow(self):
        assert is_slow(Linear(2)).verdict == "not_slow"

    def test_infinity_not_slow(self):
        assert is_slow(Infinity()).verdict == "not_slow"

    def test_blockstep_with_good_blocks(self):
        # block ends chosen so 1 - j/g(j) < 1/stage at stages 2 and 3
        g = BlockStep((10, 100), (2, 5))
        verdict = is_slow(g)
        assert verdict.verdict == "slow"
        assert len(verdict.blocks) == 2
        assert all(check.ok for check in verdict.blocks)

    def test_blockstep_with_bad_block(self):
        g = BlockStep((3, 6), (2, 4))  # gap at first end: 1 - 2/4 = 1/2, not < 1/2
        verdict = is_slow(g)
        assert verdict.verdict == "not_slow"
        assert not verdict.blocks[0].ok

    @pytest.mark.parametrize("g, verdict", [
        (compose(Affine(3), Affine(4)), "slow"),
        (compose(Linear(2), Affine(1)), "not_slow"),
        (power(Tabulated((2, 3, 5, 6), 3), 3), "slow"),
        (compose(Affine(1), Infinity()), "not_slow"),
    ])
    def test_decided_by_the_eventually_affine_form(self, g, verdict):
        out = is_slow(g)
        assert out.verdict == verdict
        assert out.blocks is None

    @given(growths.filter(lambda g: not isinstance(g, BlockStep)))
    @settings(max_examples=200, deadline=None)
    def test_slow_exactly_at_slope_one(self, g):
        form = linearize(g)
        assert (is_slow(g).verdict == "slow") == (form.a == 1)
        # past the onset g gains exactly N over [N, 2N] iff its slope is 1
        n = max(form.n_from, 1)
        assert (g(2 * n) - g(n) == n) == (form.a == 1)

    @given(growths, growths)
    @settings(max_examples=200, deadline=None)
    def test_slowness_closed_under_composition(self, g, h):
        slopes = (linearize(g).a, linearize(h).a)
        assert (is_slow(compose(g, h)).verdict == "slow") == (slopes == (1, 1))

    def test_no_affine_form_rejected(self):
        with pytest.raises(ValueError, match="no eventually affine form") as exc:
            is_slow(_Square())
        assert "\n" not in str(exc.value)


@st.composite
def growths_with_r(draw):
    """A growth function or Infinity, and an r that is at times just below
    a/(a - 1) for the function's eventual slope a >= 2, where the least m
    whose gap is below 1/r runs far out."""
    g = draw(st.one_of(growths, st.just(Infinity())))
    form = linearize(g)
    if form is not None and form.a > 1 and draw(st.booleans()):
        return g, Fraction(form.a, form.a - 1) - Fraction(1, draw(st.integers(form.a, 10**6)))
    return g, draw(st.one_of(st.integers(1, 10**6),
                             st.fractions(min_value=1, max_value=60, max_denominator=20)))


@st.composite
def leaf_growths(draw, near: int, offset: int = 1):
    """A block-step, table, affine or linear function; a block-step's breaks
    lie near ``near`` and one of its blocks has ``offset``, and a table ends
    near ``near`` (up to 60 entries)."""
    kind = draw(st.sampled_from(("blockstep", "table", "affine", "linear")))
    if kind == "affine":
        return Affine(draw(st.integers(1, 60)))
    if kind == "linear":
        return Linear(draw(st.integers(2, 4)))
    if kind == "blockstep":
        deltas = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
        breaks = sorted({max(1, near + d) for d in deltas})
        offsets = draw(st.lists(st.integers(1, 60), min_size=len(breaks) - 1,
                                max_size=len(breaks) - 1))
        return BlockStep(tuple(breaks), tuple(sorted(offsets + [offset])))
    length = draw(st.integers(max(0, min(near, 60) - 3), min(near, 60) + 3))
    rises = sorted(draw(st.lists(st.integers(1, 40), min_size=length, max_size=length)))
    tail = max(1, rises[-1] - 1 if rises else 1) + draw(st.integers(0, 5))
    return Tabulated(tuple(i + rise for i, rise in enumerate(rises)), tail)


class TestGrowthProfile:
    def test_successor_at_two(self):
        assert growth_profile(Affine(1), 2, 100) == 3

    def test_rejection_at_two_is_strict(self):
        # n = 2 has m = 1 with (2-1)/2 = 1/2, not < 1/2
        assert growth_profile(Affine(1), 2, 2) == Exhausted(2)

    def test_infinity_exhausted(self):
        for n_max in (1, 10, 1000):
            out = growth_profile(Infinity(), 2, n_max)
            assert isinstance(out, Exhausted)
            assert out.note

    def test_one_exhausted_type(self):
        assert profile.Exhausted is Exhausted
        assert Exhausted(5) == Exhausted(5, records=(), note="")

    def test_linear_impossible(self):
        out = growth_profile(Linear(2), 3, 500)
        assert isinstance(out, Exhausted)
        assert "impossible" in out.note

    @pytest.mark.parametrize("spec,a", [("power(linear:2,2)", 4),
                                        ("compose(linear:2,affine:1)", 2)])
    def test_slope_decides_the_note_for_every_kind(self, spec, a):
        out = growth_profile(parse_growth(spec), 3, 5000)
        assert out == Exhausted(5000, note=(
            f"impossible for every n: g(m) <= n forces m <= n/{a}, "
            f"so (n - m)/n >= {Fraction(a - 1, a)} >= 1/r"))

    @given(growths, st.integers(0, 300))
    @settings(max_examples=100)
    def test_values_at_least_slope_times_point(self, g, m):
        # the inequality the up-front note rests on
        assert g(m) >= linearize(g).a * m

    def test_linear_feasible_for_small_r(self):
        assert growth_profile(Linear(2), Fraction(3, 2), 100) == 2

    @given(growths, st.integers(1, 6))
    @settings(max_examples=60)
    def test_result_is_a_value_of_g(self, g, r):
        out = growth_profile(g, r, 400)
        if isinstance(out, int):
            assert any(g(m) == out for m in range(out + 1))

    @given(st.one_of(growths, st.just(Infinity())),
           st.one_of(st.integers(1, 60),
                     st.fractions(min_value=1, max_value=60, max_denominator=20)),
           st.integers(1, 2000))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_n_bisection(self, g, r, n_max):
        assert growth_profile(g, r, n_max) == reference_growth_profile(g, r, n_max)

    @given(growths_with_r(), st.integers(1, 5000))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_the_walk_over_m(self, g_r, n_max):
        g, r = g_r
        assert growth_profile(g, r, n_max) == reference_growth_walk(g, r, n_max)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_piece_steps_match_the_walk_over_m(self, data):
        # on a block of offset o the least m is (r - 1)o + 1, near a break
        r = data.draw(st.fractions(min_value=1, max_value=40, max_denominator=12))
        offset = data.draw(st.integers(1, 60))
        g = data.draw(leaf_growths(int((r - 1) * offset), offset))
        n_max = data.draw(st.integers(1, 5000))
        assert growth_profile(g, r, n_max) == reference_growth_walk(g, r, n_max)

    def test_block_steps_answer_far_out(self):
        # the least m is (10^8 - 1) * 5 + 1, which a walk over m takes 20 s to reach
        start = time.perf_counter()
        assert growth_profile(BlockStep((10**7,), (5,)), 10**8, 10**12) == 500000001
        assert time.perf_counter() - start < 1

    def test_closed_form_answers_far_out(self):
        # the least m is 5 * (10^7 - 1) + 1, which a walk over m takes minutes to reach
        start = time.perf_counter()
        assert growth_profile(Affine(5), 10**7, 10**12) == 50000001
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("f,g", [
        (Affine(1), Affine(2)),
        (Affine(2), Affine(7)),
        (Affine(1), Linear(2)),
    ])
    def test_order_respected_by_profiles(self, f, g):
        assert lt_eventually(f, g).outcome == "true"
        for r in (Fraction(5, 4), Fraction(4, 3), Fraction(3, 2)):
            pf = growth_profile(f, r, 2000)
            pg = growth_profile(g, r, 2000)
            if isinstance(pf, int) and isinstance(pg, int):
                assert pf <= pg


class TestComparePf:
    def test_reflexive(self):
        table = {Fraction(r): r for r in range(1, 6)}
        assert compare_pf(table, table, 1, 1, 0, [2, 3, 4])

    def test_affine_profiles(self):
        rs = [2, 3, 4, 5]
        u = {Fraction(r): growth_profile(Affine(1), r, 100) for r in rs}
        v = {Fraction(r): growth_profile(Affine(2), r, 100) for r in rs}
        assert compare_pf(u, v, 1, 1, 2, rs)

    def test_squared_successor_with_halved_argument(self):
        rs = list(range(2, 11))
        u = {Fraction(r): growth_profile(power(Affine(1), 2), r, 200) for r in rs}
        v = {Fraction(r, 2): growth_profile(Affine(1), Fraction(r, 2), 200) for r in rs}
        assert compare_pf(u, v, 4, Fraction(1, 2), 0, rs)

    def test_missing_sample_is_error(self):
        with pytest.raises(ValueError):
            compare_pf({Fraction(2): 3}, {Fraction(2): 3}, 1, 2, 0, [2])

    def test_failure_detected(self):
        u = {Fraction(2): 100}
        v = {Fraction(2): 1}
        assert not compare_pf(u, v, 1, 1, 0, [2])


class TestPowerClosedForm:
    @given(st.one_of(growths, st.builds(Power, growths, st.integers(1, 4))),
           st.integers(0, 80))
    @settings(max_examples=150)
    def test_closed_form_equals_iteration(self, g, n):
        assert g(n) == reference_growth_eval(g, n)

    def test_power_of_infinity_falls_back_to_iteration(self):
        g = power(compose(Affine(1), Infinity()), 3)
        assert linearize(g) is None
        assert g(4) == INF

    def test_thirty_nested_powers_evaluate_at_once(self):
        g = Affine(1)
        for _ in range(30):
            g = power(g, 2)
        start = time.perf_counter()
        assert [g(n) for n in range(1000)] == [n + 2 ** 30 for n in range(1000)]
        assert time.perf_counter() - start < 1


    @given(growths, st.integers(1, 6))
    @settings(max_examples=80)
    def test_power_form_equals_composed_form(self, g, k):
        composed = g
        for _ in range(k - 1):
            composed = compose(g, composed)
        assert linearize(power(g, k)) == linearize(composed)

    def test_huge_exponent_evaluates_at_once(self):
        g = parse_growth("power(affine:1,100000000)")
        start = time.perf_counter()
        assert linearize(g) == EventualAffine(1, 100_000_000, 0)
        assert [g(n) for n in range(100)] == [n + 100_000_000 for n in range(100)]
        # below the base's threshold, iteration stops once the value clears it
        h = power(BlockStep((50, 5000), (1, 3)), 10**9)
        assert h(0) == reference_growth_eval(power(BlockStep((50, 5000), (1, 3)), 5000), 0) \
            + 3 * (10**9 - 5000)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("spec, ok", [
        ("power(linear:2,4095)", True), ("power(linear:2,4096)", False),
        ("power(linear:3,2584)", True), ("power(linear:3,2585)", False),
        ("power(linear:2,100000000)", False), ("power(power(linear:2,64),63)", True),
        ("power(power(linear:2,64),64)", False), ("power(affine:7,100000000)", True),
    ])
    def test_slope_cap_at_parse_time(self, spec, ok):
        if ok:
            assert linearize(parse_growth(spec)).a < 2 ** MAX_SLOPE_BITS
        else:
            with pytest.raises(ValueError, match=f"slope of 2\\^{MAX_SLOPE_BITS} or more"):
                parse_growth(spec)


class TestLinearize:
    @given(growths)
    @settings(max_examples=80)
    def test_linearize_agrees_with_eval(self, g):
        form = linearize(g)
        assert form is not None
        for n in range(form.n_from, form.n_from + 40):
            assert g(n) == form.a * n + form.c

    def test_infinite_detection(self):
        assert is_infinite(compose(Affine(1), Infinity()))
        assert not is_infinite(power(Linear(2), 4))
