from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from soficapprox.permcore import (
    CycleType,
    Perm,
    all_cycle_types,
    block_sum,
    block_sum_images,
    compose,
    cycle_type,
    cycle_type_representative,
    disagreements,
    fixed_point_count,
    format_perm,
    hamming_distance,
    identity,
    inverse,
    parse_perm,
    representatives,
    transposition,
)


def perms(min_degree=1, max_degree=8):
    return st.integers(min_degree, max_degree).flatmap(
        lambda n: st.permutations(range(n)).map(lambda xs: Perm(tuple(xs))))


def same_degree_perms(count, min_degree=1, max_degree=8):
    return st.integers(min_degree, max_degree).flatmap(
        lambda n: st.tuples(*[st.permutations(range(n)).map(lambda xs: Perm(tuple(xs)))
                              for _ in range(count)]))


class TestCompose:
    def test_identity(self):
        assert compose(identity(3), identity(3)) == identity(3)

    def test_hand_evaluation(self):
        p = transposition(3, 0, 1)
        q = transposition(3, 0, 2)
        assert compose(p, q).images == (2, 0, 1)

    @given(perms())
    def test_inverse_law(self, p):
        assert compose(p, inverse(p)) == identity(p.degree)
        assert compose(inverse(p), p) == identity(p.degree)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(2), identity(3))


class TestCycleData:
    def test_fixed_points_identity(self):
        assert fixed_point_count(identity(5)) == 5

    def test_fixed_points_three_cycle(self):
        assert fixed_point_count(Perm((1, 2, 0))) == 0

    def test_cycle_type_transposition(self):
        assert cycle_type(transposition(4, 0, 1)).parts == (2, 1, 1)

    @given(same_degree_perms(2))
    def test_conjugation_invariance(self, pk):
        p, k = pk
        conj = compose(inverse(k), compose(p, k))
        assert cycle_type(conj) == cycle_type(p)


class TestHamming:
    def test_zero_on_equal(self):
        assert hamming_distance(identity(4), identity(4)) == 0

    def test_disjoint_transpositions_in_s3(self):
        assert hamming_distance(transposition(3, 0, 1), transposition(3, 0, 2)) == 1

    def test_transposition_vs_identity(self):
        assert hamming_distance(transposition(4, 0, 1), identity(4)) == Fraction(1, 2)
        assert disagreements(transposition(4, 0, 1), identity(4)) == 2

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(identity(2), identity(3))

    @given(same_degree_perms(3))
    def test_metric_axioms(self, pqr):
        p, q, r = pqr
        assert (hamming_distance(p, q) == 0) == (p == q)
        assert hamming_distance(p, q) == hamming_distance(q, p)
        assert hamming_distance(p, r) <= hamming_distance(p, q) + hamming_distance(q, r)

    @given(same_degree_perms(3))
    def test_bi_invariance(self, pqk):
        p, q, k = pqk
        d = hamming_distance(p, q)
        assert hamming_distance(compose(k, p), compose(k, q)) == d
        assert hamming_distance(compose(p, k), compose(q, k)) == d


class TestBlockSum:
    def test_single_part(self):
        p = transposition(3, 0, 2)
        assert block_sum([(p, 1)]) == p

    def test_two_copies(self):
        assert block_sum([(transposition(2, 0, 1), 2)]).images == (1, 0, 3, 2)

    def test_mixed_parts(self):
        assert block_sum([(identity(2), 1), (transposition(2, 0, 1), 1)]).images == (0, 1, 3, 2)

    def test_empty(self):
        assert block_sum([]) == identity(0)

    @given(st.lists(
        st.tuples(same_degree_perms(2, max_degree=5), st.integers(0, 3)),
        min_size=0, max_size=4))
    def test_blockwise_homomorphism(self, slots):
        lefts = [(pq[0], mult) for pq, mult in slots]
        rights = [(pq[1], mult) for pq, mult in slots]
        composed = [(compose(pq[0], pq[1]), mult) for pq, mult in slots]
        assert block_sum(composed) == compose(block_sum(lefts), block_sum(rights))

    @given(st.lists(st.tuples(perms(max_degree=5), st.integers(0, 3)), max_size=4))
    def test_images_are_the_block_sums(self, parts):
        images = block_sum_images(parts)
        assert type(images) is tuple
        assert images == block_sum(parts).images

    def test_negative_multiplicity_rejected(self):
        for build in (block_sum, block_sum_images):
            with pytest.raises(ValueError, match="^negative multiplicity -1$"):
                build([(identity(2), -1)])


class TestCycleTypeRepresentative:
    def test_identity_type(self):
        assert cycle_type_representative(CycleType((1, 1, 1)), 3) == identity(3)

    def test_full_cycle(self):
        assert cycle_type_representative(CycleType((3,)), 3).images == (1, 2, 0)

    def test_double_transposition(self):
        assert cycle_type_representative(CycleType((2, 2)), 4).images == (1, 0, 3, 2)

    def test_sum_mismatch(self):
        with pytest.raises(ValueError):
            cycle_type_representative(CycleType((2,)), 3)

    def test_representative_has_its_type(self):
        # every partition of n once, in ascending order of the representatives'
        # images, which the search's first candidates keep
        partition_counts = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)
        for n in range(1, 13):
            types = all_cycle_types(n)
            images = [cycle_type_representative(t, n).images for t in types]
            assert len(set(types)) == partition_counts[n - 1]
            assert images == sorted(images) == list(representatives(n))
            for t in types:
                assert cycle_type(cycle_type_representative(t, n)) == t


class TestSerialization:
    def test_format(self):
        assert format_perm(Perm((1, 0, 2))) == "[1 0 2]"

    def test_parse_bracket(self):
        assert parse_perm("[1 0 2]") == Perm((1, 0, 2))

    def test_parse_cycles(self):
        assert parse_perm("(0 1)(2 3)") == Perm((1, 0, 3, 2))
        assert parse_perm("(0 1)", degree=4) == transposition(4, 0, 1)

    def test_parse_rejects_repeats(self):
        with pytest.raises(ValueError):
            parse_perm("(0 1)(1 2)")

    @given(perms())
    def test_round_trip(self, p):
        assert parse_perm(format_perm(p)) == p

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))

    def test_rejects_booleans(self):
        # bool is an int subclass, so True and False would pass as 1 and 0
        with pytest.raises(ValueError, match="not a permutation"):
            Perm((True, False))
