import itertools
import random

import pytest

from soficapprox.gadgets import (
    MAX_SIZE,
    StageTrace,
    _delta_power,
    _gamma_points,
    cube_of_transpositions_is_identity,
    delta,
    encode_check,
    example_check,
    stage_construction,
    three_cycle,
    three_cycle_chunk,
    three_cycle_squared,
)
from soficapprox.growth import Affine
from soficapprox.lazyperm import BoundWitness, audit, finitary
from soficapprox.permcore import compose, identity, transposition

from oracles import all_perms, compose_lazy, gamma_pair, reference_example_check


class TestThreeCycle:
    def test_cubes_to_identity(self):
        h = three_cycle()
        assert all(h(h(h(m))) == m for m in range(300))

    def test_square_agrees_with_composition(self):
        h, h2 = three_cycle(), three_cycle_squared()
        hh = compose_lazy(h, h)
        assert all(h2(m) == hh(m) for m in range(300))

    def test_chunk_builds_with_affine_31(self):
        gc = three_cycle_chunk(horizon=200)
        assert gc.bound == Affine(31)


class TestExample:
    def test_at_99(self):
        report = example_check(99)
        assert report.m_star == 68
        assert report.holds

    def test_at_300(self):
        assert example_check(300).holds

    def test_small_degree_rejected(self):
        with pytest.raises(ValueError):
            example_check(32)

    def test_degree_past_the_cap_refused(self):
        for n in (MAX_SIZE + 1, 10**11):
            with pytest.raises(ValueError, match=f"^degree {n} exceeds the largest gadget "
                                                 f"size, {MAX_SIZE}$"):
                example_check(n)

    @pytest.mark.parametrize("n", [33, 34, 35, 99, 100, 101, 250, 400])
    def test_deviation_small_across_residues(self, n):
        report = example_check(n)
        assert report.deviation <= 5


    def test_matches_pointwise_completions(self):
        for n in range(33, 201):
            report = example_check(n)
            assert (report.m_star, report.fix_count) == reference_example_check(n), n
            assert report.deviation == abs(report.m_star - report.fix_count)


class TestDelta:
    def test_defining_values(self):
        d = delta()
        assert d(1) == 0
        assert [d(2 * n) for n in range(5)] == [2, 4, 6, 8, 10]
        assert [d(2 * n + 3) for n in range(5)] == [1, 3, 5, 7, 9]

    def test_audit_against_three_step(self):
        out = audit(delta(), Affine(3), 10_000)
        assert isinstance(out, BoundWitness)

    def test_inverse_round_trip(self):
        d = delta()
        assert all(d.backward(d(m)) == m for m in range(500))


class TestGammaPairs:
    @pytest.mark.parametrize("j", list(range(40)))
    def test_exactly_one_common_point(self, j):
        g1, g2 = gamma_pair(j)
        s1 = {m for m in range(200) if g1(m) != m}
        s2 = {m for m in range(200) if g2(m) != m}
        assert len(s1) == 2 and len(s2) == 2
        assert len(s1 & s2) == 1
        assert s1 & s2 == {j}

    def test_marker_points_distinct(self):
        for j in range(100):
            pts = _gamma_points(j)
            assert len(set(pts)) == 4
            assert pts[0] == j

    def test_delta_power_matches_stepping(self):
        d = delta()
        for x in range(201):
            forward = backward = x
            for i in range(201):
                assert _delta_power(x, i) == forward and _delta_power(x, -i) == backward, (x, i)
                forward, backward = d(forward), d.backward(backward)

    def test_common_point_is_the_index(self):
        assert all(_gamma_points(j)[0] == j for j in range(10**4 + 1))


class TestTranspositionCriterion:
    def test_exhaustive_up_to_degree_twelve(self):
        pairs = list(itertools.combinations(range(12), 2))
        for a, b in pairs:
            for c, d in pairs:
                expected = bool({a, b} & {c, d})
                assert cube_of_transpositions_is_identity((a, b), (c, d)) == expected

    def test_matches_group_arithmetic_in_s5(self):
        ident = identity(5)
        pairs = list(itertools.combinations(range(5), 2))
        for a, b in pairs:
            for c, d in pairs:
                t1 = transposition(5, a, b)
                t2 = transposition(5, c, d)
                prod = compose(t1, t2)
                cubed = compose(prod, compose(prod, prod))
                assert (cubed == ident) == cube_of_transpositions_is_identity((a, b), (c, d))


class TestEncode:
    def test_identity_diagonal(self):
        rho = finitary(())
        assert encode_check(rho, 5, 5, 1000) is True
        assert encode_check(rho, 5, 6, 1000) is False

    def test_transposition_moves_point(self):
        rho = finitary((1, 0))
        assert encode_check(rho, 0, 1, 1000) is True
        assert encode_check(rho, 0, 0, 1000) is False
        assert encode_check(rho, 1, 0, 1000) is True

    def test_horizon_too_small(self):
        with pytest.raises(ValueError):
            encode_check(finitary(()), 5, 5, 6)

    def test_agrees_with_direct_evaluation(self):
        rng = random.Random(20_26)
        for _ in range(20):
            images = list(range(50))
            rng.shuffle(images)
            rho = finitary(images)
            for k in range(0, 60, 3):
                for n in range(0, 60, 3):
                    direct = (images[k] if k < 50 else k) == n
                    assert encode_check(rho, k, n, 1000) == direct

    def test_adversarial_small_permutations(self):
        # exhaustive over S_5 acting on the first five points, where marker
        # triples overlap the most
        for p in all_perms(5):
            rho = finitary(p.images)
            for k in range(8):
                for n in range(8):
                    direct = (p.images[k] if k < 5 else k) == n
                    assert encode_check(rho, k, n, 100) == direct


class TestStages:
    def test_empty_trace_never_injective(self):
        fmap, outcome = stage_construction(StageTrace(()), 30)
        assert outcome.fired == 0
        assert outcome.prefix_end == 0
        assert outcome.collisions_beyond
        assert fmap[0] == fmap[1] == 2

    def test_four_fired_stages(self):
        trace = StageTrace((True, False, True, True, False, True))
        fmap, outcome = stage_construction(trace, 30)
        assert outcome.fired == 4
        assert outcome.prefix_end == 12
        assert outcome.involution_on_prefix
        assert outcome.collisions_beyond
        # repaired region is explicitly an involution
        assert all(fmap[fmap[x]] == x for x in range(12))

    def test_saturated_trace(self):
        trace = StageTrace((True,) * 15)
        fmap, outcome = stage_construction(trace, 30)
        assert outcome.fired == 15
        assert outcome.prefix_end == 30
        assert outcome.involution_on_prefix
        assert outcome.collisions_beyond  # vacuous: no block beyond the prefix

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            stage_construction(StageTrace(()), 31)

    def test_horizon_past_the_cap_refused(self):
        for horizon in (MAX_SIZE + 2, 99999999999):  # multiples of 3 past the cap
            with pytest.raises(ValueError, match=f"^horizon {horizon} exceeds the largest "
                                                 f"gadget size, {MAX_SIZE}$"):
                stage_construction(StageTrace((True,)), horizon)

    def test_plain_sequence_accepted(self):
        _, outcome = stage_construction([1, 0, 1], 9)
        assert outcome.fired == 2
