import bisect
import itertools
import os
import random
import re
from dataclasses import fields
from fractions import Fraction
from itertools import accumulate

import pytest

from soficapprox.chunk import Chunk, induced_chunk, parse_chunk, parse_chunk_file
from soficapprox.gadgets import three_cycle, three_cycle_chunk, three_cycle_squared
from soficapprox.growth import (Affine, BlockStep, GrowthFn, Linear, Tabulated,
                               compose as compose_growth, growth_profile, is_slow)
from soficapprox.lazyperm import (
    MAX_HORIZON,
    AuditViolation,
    BoundWitness,
    GChunk,
    GChunkError,
    LazyPerm,
    StageReport,
    SuppReport,
    audit,
    build_gchunk,
    finitary,
    identity_lazy,
    inverse_lazy,
    property_profile,
    realize,
    supp_morphism,
    supp_quality,
)
from soficapprox.permcore import Perm, block_sum_images, hamming_distance, identity
from soficapprox.profile import disagreement_counts, measure, sofic_profile

from conftest import DATA, data_path
from oracles import (ChunkMap, chunk_compatibility, chunk_mult, compose_lazy, displacement,
                     is_homomorphism, max_m_with_value_at_most, property_holds_mask,
                     reference_audit, reference_blocksum_carrier, reference_gchunk_error,
                     reference_measure, reference_realize, reference_supp_morphism,
                     reference_supp_quality)


def pair_swap() -> LazyPerm:
    """The fixed-point-free involution swapping 2k and 2k+1."""
    flip = lambda m: m + 1 if m % 2 == 0 else m - 1
    return LazyPerm(flip, flip, "gadget:pairswap")


def z2_pair_swap_gchunk(horizon=600, bound=Affine(1)):
    c = parse_chunk("unit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\na * a = 1\n")
    return build_gchunk(c, {"a": pair_swap()}, bound, horizon)


def unchecked_gchunk(chunk, carriers, bound, horizon):
    """A g-chunk over ``carriers`` built without ``build_gchunk``'s audits and
    table check: its tables read the forward values on [0, horizon] as given."""
    carriers = {chunk.unit: identity_lazy(), **carriers}
    values = {e: list(map(carriers[e].forward, range(horizon + 1)))
              for e in chunk.elements if e != chunk.unit}
    return GChunk(chunk, carriers, bound, horizon, values, bound.values(horizon))


class CountingBound(GrowthFn):
    """A growth function that counts its evaluations."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def _eval(self, n):
        self.calls += 1
        return self.inner(n)

    def spec(self):
        return self.inner.spec()


class TestLazyPerm:
    def test_finitary_round_trip(self):
        p = finitary((2, 0, 1))
        assert [p(m) for m in range(5)] == [2, 0, 1, 3, 4]
        assert [p.backward(m) for m in range(5)] == [1, 2, 0, 3, 4]

    def test_finitary_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            finitary((0, 0))

    def test_compose_and_inverse(self):
        h = three_cycle()
        hh = compose_lazy(h, h)
        assert all(hh(m) == three_cycle_squared()(m) for m in range(60))
        inv = inverse_lazy(h)
        assert all(inv(h(m)) == m for m in range(60))


class TestAudit:
    def test_identity_any_bound(self):
        out = audit(identity_lazy(), Affine(1), 500)
        assert isinstance(out, BoundWitness)
        assert out.audited_horizon == 500

    def test_three_cycle_bounded_by_two_step(self):
        out = audit(three_cycle(), Affine(2), 2000)
        assert isinstance(out, BoundWitness)

    def test_zero_offset_not_constructible(self):
        with pytest.raises(ValueError):
            Affine(0)

    def test_injectivity_violation(self):
        broken = LazyPerm(lambda m: 0, lambda m: 0, "broken")
        out = audit(broken, Affine(1), 50)
        assert isinstance(out, AuditViolation)
        assert out.kind == "injectivity"

    def test_roundtrip_violation(self):
        broken = LazyPerm(lambda m: m + 1, lambda m: m + 1, "broken")
        out = audit(broken, Affine(2), 50)
        assert isinstance(out, AuditViolation)
        assert out.kind == "roundtrip"

    def test_bound_violation_reports_first_pair(self):
        jump = finitary((7, 1, 2, 3, 4, 5, 6, 0))
        out = audit(jump, Affine(3), 100)
        assert isinstance(out, AuditViolation)
        assert out.kind == "bound"
        assert (out.m, out.n) == (0, 0)  # forward(0) = 7 > g(0) = 3

    def test_bounded_composition(self):
        h = three_cycle()
        s = pair_swap()
        assert isinstance(audit(h, Affine(2), 400), BoundWitness)
        assert isinstance(audit(s, Affine(1), 400), BoundWitness)
        both = compose_lazy(h, s)
        assert isinstance(audit(both, compose_growth(Affine(2), Affine(1)), 400),
                          BoundWitness)

    def test_values_outside_the_naturals_rejected(self):
        c = parse_chunk("unit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\n")
        down = LazyPerm(lambda m: m - 1, lambda m: m + 1, "shift")
        up = inverse_lazy(down)  # its backward map sends 0 to -1, off its forward image
        for p, message in ((down, "forward(0) is negative, outside the naturals"),
                           (up, "backward(0) is negative, outside the naturals")):
            out = audit(p, Affine(2), 50)
            assert out.kind == "range" and str(out) == message
            with pytest.raises(GChunkError, match=rf"^carrier of 'a': {re.escape(message)}$"):
                build_gchunk(c, {"a": p}, Affine(2), 50)

    def test_each_map_evaluated_once_per_point(self):
        # a finitary involution inside the horizon: the backward map runs at
        # the forward values only, and the product a * a reads the stored values
        rng = random.Random(4)
        images = list(range(30))
        for x, y in zip(*[iter(rng.sample(range(30), 20))] * 2):
            images[x], images[y] = y, x
        c = parse_chunk("unit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\na * a = 1\n")
        horizon = 40
        for run in (lambda p: audit(p, Affine(30), horizon),
                    lambda p: build_gchunk(c, {"a": p}, Affine(30), horizon)):
            carrier, calls = counting(finitary(images))
            run(carrier)
            assert calls == {"forward": horizon + 1, "backward": horizon + 1}
        # an evaluator carrier whose values pass the horizon: each map runs
        # once more at each distinct value of the other past it, here the
        # forward map's 31 -> 32 and the backward map's 30 -> 32
        carrier, calls = counting(three_cycle())
        assert isinstance(audit(carrier, Affine(2), 31), BoundWitness)
        assert calls == {"forward": 33, "backward": 33}


def counting(p: LazyPerm) -> tuple[LazyPerm, dict[str, int]]:
    """``p`` with each map counting its evaluations."""
    calls = {"forward": 0, "backward": 0}

    def counted(side, fn):
        def call(m):
            calls[side] += 1
            return fn(m)
        return call

    return LazyPerm(counted("forward", p.forward), counted("backward", p.backward),
                    p.descriptor), calls


def tabled(forward: list[int], backward: list[int], table: bool = False) -> LazyPerm:
    """Carrier acting by the two lists on their prefixes and as the identity
    beyond; the lists need not be inverse to each other.  With ``table`` the
    carrier keeps them as its table, as ``finitary`` carriers do."""
    return LazyPerm(lambda m: forward[m] if m < len(forward) else m,
                    lambda m: backward[m] if m < len(backward) else m, "planted",
                    (tuple(forward), tuple(backward)) if table else None)


def evaluators(p: LazyPerm) -> LazyPerm:
    """``p`` without its table: audited by evaluation."""
    return LazyPerm(p.forward, p.backward, p.descriptor)


def block_shuffle(rng: random.Random, c: int, start: int, stop: int) -> list[int]:
    """Images on [start, stop) shuffling consecutive blocks of at most c + 1
    points; the first block rotates, so start moves up and its preimage is
    larger than start."""
    size = min(rng.randint(2, c + 1), stop - start)
    images = list(range(start + 1, start + size)) + [start]
    while start + len(images) < stop:
        lo = start + len(images)
        block = list(range(lo, min(stop, lo + rng.randint(1, c + 1))))
        rng.shuffle(block)
        images += block
    return images


def inverse_list(images: list[int]) -> list[int]:
    back = [0] * len(images)
    for m, v in enumerate(images):
        back[v] = m
    return back


class Dip(GrowthFn):
    """n + c, except n - 1 at the one point k."""

    def __init__(self, c, k):
        self.c, self.k = c, k

    def _eval(self, n):
        return n - 1 if n == self.k else n + self.c

    def spec(self):
        return f"dip:{self.c},{self.k}"


PLANTED = ["none", "injectivity", "roundtrip-forward", "roundtrip-backward",
           "forward-bound-0", "forward-bound-H", "forward-bound", "backward-bound-0",
           "backward-bound-H", "backward-bound", "unit-backward", "unit-past-H", "dip",
           "table-past-H", "inverse-past-H", "image-past-table"]


def planted_case(kind: str, seed: int, table: bool = False):
    """(chunk, carriers, bound, horizon, the planted violation or None) for a
    random carrier bounded by n + c with one violation of ``kind`` planted.
    The carrier shuffles blocks of [0, H) and of [H, span) separately, so H
    starts a block and some points of [0, H] have preimages past H.  With
    ``table`` every carrier keeps its two lists as its table."""
    def carrier(forward, backward):
        return tabled(forward, backward, table)

    rng = random.Random(seed)
    c, horizon = rng.randint(1, 5), rng.randint(20, 60)
    images = (block_shuffle(rng, c, 0, horizon)
              + block_shuffle(rng, c, horizon, horizon + rng.randint(2, 3 * c + 2)))
    chunk = parse_chunk("unit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\n")
    bound, back, want = Affine(c), None, None
    unit = carrier([], []) if table else identity_lazy()
    if kind == "injectivity":
        j = rng.randint(1, horizon)
        back = inverse_list(images)
        images[j] = images[rng.randrange(j)]
        want = AuditViolation("injectivity", j)
    elif kind == "roundtrip-forward":
        m1, m2 = sorted(rng.sample(range(horizon + 1), 2))
        back = inverse_list(images)
        back[images[m1]], back[images[m2]] = m2, m1
        want = AuditViolation("roundtrip", m1)
    elif kind == "roundtrip-backward":
        # a swap of a random k < H with a point past H moves images[k] off the
        # image of [0, H]; so the rotation at H does with H
        k, t = rng.randrange(horizon), rng.randrange(horizon + 1, len(images))
        images[k], images[t] = images[t], images[k]
        v = rng.choice(sorted(set(range(horizon + 1)).difference(images[:horizon + 1])))
        back = inverse_list(images)
        back[v] = len(images) + 3  # a fixed point of the forward map
        want = AuditViolation("roundtrip", v, side="backward")
    elif kind.startswith(("forward-bound", "backward-bound")):
        side = kind.split("-")[0]
        # a point the transposition below moves first in the checked direction
        if side == "forward":
            ks = [k for k in range(horizon + 1) if images[k] >= k]
        else:
            ks = [k for k in range(horizon + 1) if images.index(k) > k]
        k = {"0": 0, "H": horizon}.get(kind.rsplit("-", 1)[1], None)
        k = rng.choice(ks) if k is None else k
        t = k + 2 * c + 1 + rng.randint(0, c)
        images += range(len(images), t + 1)
        if side == "forward":  # k takes t's image, beyond k + c
            images[k], images[t] = images[t], images[k]
        else:  # the point sent to k now goes to t, so k's preimage is beyond k + c
            p, q = images.index(k), images.index(t)
            images[p], images[q] = t, k
        want = AuditViolation("bound", k, n=k, side=side)
    elif kind == "unit-backward":
        k1, k2 = sorted(rng.sample(range(horizon + 1), 2))
        unit_back = list(range(horizon + 1))
        unit_back[k1], unit_back[k2] = k2, k1
        unit = carrier([], unit_back)
        want = AuditViolation("roundtrip", k1)
    elif kind == "unit-past-H":  # the unit moves a's image of H, so 1 * a = a fails there
        unit = carrier(list(range(images[horizon])) + [images[horizon] + 1], [])
    elif kind == "dip":  # the unit fails at k, and every other carrier by k
        k = rng.randint(0, horizon)
        bound, want = Dip(c, k), AuditViolation("bound", k, n=k)
    elif kind == "table-past-H":
        # block three-cycles h over the z3 table; H starts a block turning
        # H -> H + 1 -> H + 2, and h is wrong at H + 1, which no audit reads
        chunk = parse_chunk_file(data_path("z3.chunk"))
        images = []
        while len(images) < horizon + 3:
            lo = len(images)
            block = [lo + 1, lo + 2, lo] if lo == horizon else rng.choice(
                [[lo], [lo + 1, lo + 2, lo], [lo + 2, lo, lo + 1]])
            if lo < horizon < lo + len(block):
                block = list(range(lo, horizon))
            images += block
        square = [images[v] for v in images]
        broken = list(images)
        broken[horizon + 1] = horizon + 7
        carriers = {"1": unit, "h": carrier(broken, inverse_list(images)),
                    "h2": carrier(square, inverse_list(square))}
        return chunk, carriers, Affine(2), horizon, None
    elif kind == "inverse-past-H":
        # the inverse list is right on [0, H] only: the backward map at H's
        # image H + 1 gives another point
        images.append(len(images))
        back = inverse_list(images)
        back[horizon + 1], back[-1] = back[-1], back[horizon + 1]
        want = AuditViolation("roundtrip", horizon)
    elif kind == "image-past-table":
        # j goes to the first point past the list, which the identity there
        # also takes; the inverse list does not send it back
        j = rng.randrange(horizon)
        back = inverse_list(images)
        images[j] = len(images)
        want = AuditViolation("roundtrip", j)
    if back is None:
        back = inverse_list(images)
    return chunk, {"1": unit, "a": carrier(images, back)}, bound, horizon, want


class TestAuditAgainstReference:
    """``audit`` and ``build_gchunk`` against the point-by-point checks of
    ``reference_audit`` and ``reference_gchunk_error``, on random carriers
    with one planted violation of each kind."""

    @pytest.mark.parametrize("kind", PLANTED)
    @pytest.mark.parametrize("seed", range(6))
    def test_same_first_violation(self, kind, seed):
        self.check(kind, *planted_case(kind, seed))

    @pytest.mark.parametrize("kind", PLANTED)
    @pytest.mark.parametrize("seed", range(6))
    def test_same_first_violation_through_tables(self, kind, seed):
        case = planted_case(kind, seed, table=True)
        assert all(p.table is not None for p in case[1].values())
        self.check(kind, *case)

    def check(self, kind, chunk, carriers, bound, horizon, planted):
        for e in chunk.elements:
            got, want = audit(carriers[e], bound, horizon), reference_audit(carriers[e], bound,
                                                                            horizon)
            assert got == want, e
            if e == ("1" if kind in ("dip", "unit-backward") else "a"):
                assert (want if isinstance(want, AuditViolation) else None) == planted
        given = [carriers]
        if kind not in ("unit-backward", "unit-past-H"):
            # the unit carrier is the identity, so build_gchunk may supply it
            given.append({e: p for e, p in carriers.items() if e != chunk.unit})
        for named, elements in itertools.product(given, (chunk.elements, chunk.elements[::-1])):
            reordered = Chunk(elements, chunk.unit, chunk.table)  # the unit first and last
            message = reference_gchunk_error(reordered, named, bound, horizon)
            if kind == "none":
                assert message is None
                build_gchunk(reordered, named, bound, horizon)
                continue
            assert message is not None
            with pytest.raises(GChunkError) as info:
                build_gchunk(reordered, named, bound, horizon)
            assert str(info.value) == message
        if kind == "unit-backward":
            assert message == f"carrier of '1': {planted}"
        if kind == "table-past-H":
            assert message == f"table says h * h = h2 but carriers disagree at {horizon}"
        if kind == "unit-past-H":
            assert message == f"table says 1 * a = a but carriers disagree at {horizon}"


class TestGChunkBuild:
    def test_three_cycle_chunk_builds(self):
        gc = three_cycle_chunk(horizon=300)
        assert set(gc.carriers) == {"1", "h", "h2"}
        assert (gc.bound, gc.horizon) == (Affine(31), 300)

    def test_unit_must_be_identity(self):
        c = parse_chunk("unit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\na * a = 1\n")
        with pytest.raises(GChunkError):
            build_gchunk(c, {"1": pair_swap(), "a": pair_swap()}, Affine(1), 50)

    def test_table_consistency_enforced(self):
        c = parse_chunk("unit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\na * a = 1\n")
        # a * a = 1 is what the valid table says, but the carrier squares to its inverse
        with pytest.raises(GChunkError, match="table says a \\* a = 1 but carriers disagree at 0"):
            build_gchunk(c, {"a": three_cycle()}, Affine(2), 50)
        # built without the check, the restrictions read the carrier as it is
        gc = unchecked_gchunk(c, {"a": three_cycle()}, Affine(2), 50)
        assert supp_morphism(gc, 3)["a"] == Perm((1, 2, 0))

    def test_chunk_validated(self):
        c = parse_chunk("unit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\na * a = a\n")
        with pytest.raises(ValueError, match="^chunk fails validation: left cancellation"):
            build_gchunk(c, {"a": pair_swap()}, Affine(1), 50)

    def test_horizon_past_the_cap_refused_before_any_evaluation(self, z3):
        bound = CountingBound(Affine(2))
        h, h_calls = counting(three_cycle())
        h2, h2_calls = counting(three_cycle_squared())
        for horizon in (MAX_HORIZON + 1, 10**20):
            with pytest.raises(ValueError, match=f"^horizon {horizon} exceeds the largest "
                                                 f"audited prefix, {MAX_HORIZON}$"):
                build_gchunk(z3, {"h": h, "h2": h2}, bound, horizon)
        assert (bound.calls, sum(h_calls.values()), sum(h2_calls.values())) == (0, 0, 0)

    def test_unbounded_carrier_rejected(self):
        c = parse_chunk("unit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\na * a = 1\n")
        wide = finitary((9, 1, 2, 3, 4, 5, 6, 7, 8, 0))
        with pytest.raises(GChunkError):
            build_gchunk(c, {"a": wide}, Affine(2), 50)


class TestTablePath:
    """Table carriers are audited from their tables and built as their
    evaluators would be."""

    @pytest.mark.parametrize("name, depth", [("z3", 24), ("klein", 16)])
    def test_blocksum_gchunk_matches_the_block_walk(self, name, depth, request):
        chunk = request.getfixturevalue(name)
        real = realize(chunk, [sofic_profile(chunk, r, 6).assignment
                               for r in range(2, depth + 1)])
        horizon = max(1000, 2 * real.layout[-1])  # as ``sofic supp`` at the last degree
        others = [e for e in chunk.elements if e != chunk.unit]
        tabled_gc = build_gchunk(chunk, {e: real.carrier(e) for e in others}, real.g, horizon)
        walked_gc = build_gchunk(chunk, {e: LazyPerm(*reference_blocksum_carrier(real, e),
                                                     "walk") for e in others},
                                 real.g, horizon)
        assert tabled_gc.values == walked_gc.values
        assert tabled_gc.bound_values == walked_gc.bound_values
        for n in range(1, horizon + 1):
            assert tabled_gc.extremes(n) == walked_gc.extremes(n), n
            assert tabled_gc.images(n) == walked_gc.images(n), n

    def test_table_carriers_evaluated_only_past_the_horizon(self, z3):
        # block three-cycles whose table ends past H, with H inside a block:
        # h * h reads h at the b-values past H
        horizon = 31
        h_images = block_sum_images([(Perm((1, 2, 0)), 12)])
        called = {"h forward": [], "h backward": [], "h2 forward": [], "h2 backward": []}

        def recording(name, table):
            def side(which, values):
                def call(m):
                    called[f"{name} {which}"].append(m)
                    return values[m] if m < len(values) else m
                return call
            return LazyPerm(side("forward", table[0]), side("backward", table[1]), name, table)

        h_table = (h_images, tuple(inverse_list(list(h_images))))
        carriers = {"h": recording("h", h_table), "h2": recording("h2", h_table[::-1])}
        build_gchunk(z3, carriers, Affine(2), horizon)
        assert called["h forward"] and called["h2 forward"]
        assert all(m > horizon for m in called["h forward"] + called["h2 forward"])
        assert called["h backward"] == called["h2 backward"] == []

    @staticmethod
    def outcome(run):
        try:
            return run()
        except GChunkError as exc:
            return str(exc)

    @pytest.mark.parametrize("seed", range(8))
    def test_inverse_and_composite_build_like_their_evaluators(self, z3, seed):
        # h a block three-cycle table, h2 its inverse or its square, each
        # against copies of the same maps without tables, under bounds that
        # hold and bounds that fail
        rng = random.Random(seed)
        perms = [Perm((0,)), Perm((1, 2, 0)), Perm((2, 0, 1))]
        h = finitary(block_sum_images([(rng.choice(perms), 1) for _ in range(rng.randint(5, 30))]))
        horizon = rng.randint(4, 120)
        inverse, square = inverse_lazy(h), compose_lazy(h, h)
        assert inverse.table == h.table[::-1] and square.table is None
        for h2 in (inverse, square):
            for bound in (Affine(1), Affine(2), Linear(2), Dip(2, rng.randint(0, horizon))):
                for p in (h, h2):
                    assert audit(p, bound, horizon) == audit(evaluators(p), bound, horizon)
                tabled_gc = self.outcome(lambda: build_gchunk(z3, {"h": h, "h2": h2},
                                                              bound, horizon))
                plain_gc = self.outcome(lambda: build_gchunk(
                    z3, {"h": evaluators(h), "h2": evaluators(h2)}, bound, horizon))
                if isinstance(plain_gc, str):
                    assert tabled_gc == plain_gc
                    continue
                assert tabled_gc.values == plain_gc.values
                for n in range(1, horizon + 1):
                    assert tabled_gc.extremes(n) == plain_gc.extremes(n)
                    assert tabled_gc.images(n) == plain_gc.images(n)


class TestSuppMorphism:
    def test_identity_carrier(self):
        gc = z2_pair_swap_gchunk()
        for n in (1, 4, 9):
            assert supp_morphism(gc, n)["1"] == identity(n)

    def test_three_cycle_at_six(self):
        gc = three_cycle_chunk(horizon=100)
        sigma = supp_morphism(gc, 6)
        assert sigma["h"] == Perm((1, 2, 0, 4, 5, 3))

    def test_three_cycle_at_seven_greedy_fix(self):
        gc = three_cycle_chunk(horizon=100)
        sigma = supp_morphism(gc, 7)
        assert sigma["h"] == Perm((1, 2, 0, 4, 5, 3, 6))

    def test_non_injective_carrier_rejected(self):
        c = parse_chunk("unit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\na * a = 1\n")
        broken = LazyPerm(lambda m: 0 if m < 2 else m, lambda m: m, "broken")
        with pytest.raises(GChunkError, match="^carrier of 'a': forward not injective at 1$"):
            build_gchunk(c, {"a": broken}, Affine(1), 5)


class TestSuppQuality:
    def test_identity_only_chunk(self):
        c = Chunk(("1",), "1", {("1", "1"): "1"})
        gc = build_gchunk(c, {}, Affine(1), 100)
        for n in (1, 10, 50):
            report = supp_quality(gc, n, 2)
            assert report.quality.defect == 0

    def test_three_cycle_at_99(self):
        gc = three_cycle_chunk(horizon=400)
        report = supp_quality(gc, 99, 2)
        assert report.m_star == 68
        assert report.defect_bound == Fraction(2 * (99 - 68), 99)
        assert report.defect_bound_holds

    def test_statement_three_on_pair_swap(self):
        gc = z2_pair_swap_gchunk()
        for n in (8, 21, 100):
            report = supp_quality(gc, n, 2)
            assert report.separation_hypothesis or not report.conclusion_expected
            if report.conclusion_expected:
                assert report.expansiveness_ok


    def test_three_cycle_matches_reference(self):
        # the shared counts against reference_measure of the supp morphism
        # and a separate loop over pairs for the separation hypothesis
        gc = three_cycle_chunk(horizon=400)
        for n in range(1, 121):
            for r in (1, 2, Fraction(7, 2)):
                assert supp_quality(gc, n, r) == reference_supp_quality(gc, n, r), (n, r)

    def test_pair_swap_matches_reference(self):
        gc = z2_pair_swap_gchunk()
        for n in range(1, 60):
            assert supp_quality(gc, n, 3) == reference_supp_quality(gc, n, 3), n

    def test_bounded_carriers_match_reference_field_by_field(self):
        # the integer decisions against the Fraction comparisons they replace
        seen = {}
        for seed in range(8):
            gc, ref = bounded_gchunk(seed, 99), bounded_gchunk(seed, 99)
            for n in range(1, 100):
                for r in (1, Fraction(3, 2), 2, Fraction(7, 3), 5):
                    got, want = supp_quality(gc, n, r), reference_supp_quality(ref, n, r)
                    for name in SuppReport._fields:
                        value = getattr(got, name)
                        assert value == getattr(want, name), (seed, n, r, name)
                        assert type(value) is type(getattr(want, name)), name
                        seen.setdefault(name, set()).add(value)
        for name in ("separation_hypothesis", "conclusion_expected", "expansiveness_ok"):
            assert {True, False} <= seen[name], name
        # the paper's bound 2(n - m*)/n, which no built g-chunk breaks
        assert seen["defect_bound_holds"] == {True, None}

    def test_three_cycle_matches_reference_field_by_field(self):
        gc = three_cycle_chunk(horizon=200)
        for n in range(1, 201):
            for r in (1, Fraction(3, 2), 2, 5):
                got, want = supp_quality(gc, n, r), reference_supp_quality(gc, n, r)
                for name in SuppReport._fields:
                    value = getattr(got, name)
                    assert value == getattr(want, name), (n, r, name)
                    assert type(value) is type(getattr(want, name)), (n, r, name)

    def test_reports_reject_attribute_assignment(self):
        report = supp_quality(three_cycle_chunk(horizon=100), 40, 2)
        for record, name in ((report, "m_star"), (report, "extra"),
                             (report.quality, "defect"), (report.quality, "extra")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert report.m_star == 9 and report.quality.defect == 0

    def test_equal_reports_hash_equal(self):
        # two g-chunks built apart give equal reports, which are equal keys
        first, second = three_cycle_chunk(horizon=100), three_cycle_chunk(horizon=100)
        for n in (5, 40, 99):
            a, b = supp_quality(first, n, Fraction(3, 2)), supp_quality(second, n, Fraction(3, 2))
            assert a == b and a is not b and hash(a) == hash(b)
            assert a.quality == b.quality and hash(a.quality) == hash(b.quality)
            assert len({a, b}) == 1


@pytest.mark.parametrize("r", [0, -1, Fraction(1, 2)])
def test_supp_scans_reject_r_below_one(r):
    gc = three_cycle_chunk(horizon=100)
    for scan in (lambda: supp_quality(gc, 40, r), lambda: property_profile(gc, r, 40),
                 lambda: property_holds_mask(gc, r, range(1, 10))):
        with pytest.raises(ValueError, match="r must be at least 1"):
            scan()


class TestPropertyProfile:
    def test_identity_only_chunk(self):
        c = Chunk(("1",), "1", {("1", "1"): "1"})
        gc = build_gchunk(c, {}, Affine(1), 100)
        assert property_profile(gc, 2, 50) == 1

    def test_three_cycle_within_growth_bound(self):
        gc = three_cycle_chunk(horizon=600)
        for r in (2, 3):
            bound = growth_profile(Affine(31), 2 * r, 500)
            got = property_profile(gc, r, 500)
            assert isinstance(bound, int)
            assert got <= bound

    def test_property_not_monotone_for_three_cycle(self):
        gc = three_cycle_chunk(horizon=100)
        mask = property_holds_mask(gc, 2, range(1, 4))
        assert mask[0] is True     # degree 1 is degenerate
        assert mask[1] is False    # degree 2 pushes the square to distance 1

    def test_mask_matches_reference(self):
        gc = three_cycle_chunk(horizon=300)
        for r in (1, 2, 3, Fraction(5, 2)):
            want = [reference_measure(gc.chunk, reference_supp_morphism(gc, n)).defect <= 1 / r
                    for n in range(1, 121)]
            assert property_holds_mask(gc, r, range(1, 121)) == want, r

    def test_pair_swap_scan(self):
        gc = z2_pair_swap_gchunk()
        assert property_profile(gc, 2, 50) == 1
        # the swap's restrictions square to the identity at every degree
        assert all(property_holds_mask(gc, 2, range(1, 30)))


def bounded_gchunk(seed, horizon):
    """Random carrier r shuffling consecutive blocks of at most c + 1 points,
    its inverse s unless r is an involution, its square, and the products
    they define, bounded by n + c."""
    rng = random.Random(seed)
    c = rng.randint(1, 12)
    span, images = rng.randint(2 * c + 2, 90), []
    while len(images) < span:
        block = list(range(len(images), len(images) + rng.randint(1, c + 1)))
        rng.shuffle(block)
        images.extend(block)
    inverse = [images.index(v) for v in range(len(images))]
    square = [images[v] for v in images]
    table = {("1", "1"): "1", ("1", "r"): "r", ("r", "1"): "r"}
    carriers = {"r": finitary(images)}
    if inverse == images:
        table[("r", "r")] = "1"
    else:
        table.update({("1", "s"): "s", ("s", "1"): "s", ("r", "s"): "1", ("s", "r"): "1"})
        carriers["s"] = finitary(inverse)
        if square == inverse:
            table.update({("r", "r"): "s", ("s", "s"): "r"})
        else:
            table.update({("1", "q"): "q", ("q", "1"): "q", ("r", "r"): "q"})
            carriers["q"] = finitary(square)
    return build_gchunk(Chunk(("1",) + tuple(carriers), "1", table), carriers, Affine(c),
                        horizon)


def far_swap_gchunk(horizon):
    """The swap 0 <-> 500 next to a three-cycle of blocks, with no products
    between them; the swap's free points span the whole prefix below 500."""
    c = parse_chunk("unit 1\nelem t\nelem h\n1 * 1 = 1\n1 * t = t\nt * 1 = t\n"
                    "t * t = 1\n1 * h = h\nh * 1 = h\n")
    swap = finitary([500] + list(range(1, 500)) + [0])
    return build_gchunk(c, {"t": swap, "h": three_cycle()}, Affine(500), horizon)


def query_orders(degrees, seed=0):
    shuffled = list(degrees)
    random.Random(seed).shuffle(shuffled)
    repeated = [n for pair in zip(shuffled, shuffled[::-1]) for n in pair]
    return {"ascending": list(degrees), "descending": list(degrees)[::-1],
            "shuffled": shuffled, "repeated": repeated}


class TestRestrictionTables:
    """Every query on one g-chunk, in any order, equals the point-by-point
    greedy completion; each order runs on a g-chunk of its own."""

    CASES = ([(f"bounded-{seed}", lambda seed=seed: bounded_gchunk(seed, 129),
               range(1, 130)) for seed in range(5)]
             + [("far-swap", lambda: far_swap_gchunk(519),
                 list(range(1, 40)) + list(range(490, 520)))])

    @pytest.mark.parametrize("name,make,degrees", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "repeated"])
    def test_queries_match_reference_in_any_order(self, name, make, degrees, order):
        gc = make()
        assert max(degrees) == gc.horizon  # the queries reach the audited horizon
        ref = make()
        settled = set()
        for n in query_orders(degrees)[order]:
            r = Fraction(2 + n % 5, 2)
            assert supp_quality(gc, n, r) == reference_supp_quality(ref, n, r), n
            assert supp_morphism(gc, n) == reference_supp_morphism(ref, n), n
            settled.add(gc.settled[n])
        # both the carriers' own counts and the free-point corrections are compared
        assert settled == {True, False}

    BOUNDS = [Affine(1), Affine(5), Linear(3), BlockStep((7, 30), (2, 6)),
              Tabulated((3, 9, 9, 9, 12), 8)]

    @pytest.mark.parametrize("bound", BOUNDS, ids=[g.spec() for g in BOUNDS])
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "repeated"])
    def test_m_star_read_off_the_stored_bound_values(self, bound, order):
        horizon = 80
        gc = z2_pair_swap_gchunk(horizon, bound)
        got = {n: supp_quality(gc, n, 2).m_star
               for n in query_orders(range(1, horizon + 1))[order]}
        want = {n: max_m_with_value_at_most(bound, n) for n in range(1, horizon + 1)}
        assert got == want
        assert (None in got.values()) == (bound(0) > 1)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "repeated"])
    def test_mask_matches_reference_in_any_order(self, order):
        for make in (lambda: bounded_gchunk(7, 119), lambda: far_swap_gchunk(119)):
            gc = make()
            degrees = query_orders(range(1, 120), seed=3)[order]
            for r in (2, Fraction(7, 2)):
                want = [reference_measure(gc.chunk, reference_supp_morphism(gc, n)).defect
                        <= 1 / r for n in degrees]
                assert property_holds_mask(gc, r, degrees) == want

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "repeated"])
    def test_non_injective_carrier_same_error_in_any_order(self, order):
        # injective on the audited prefix; 15 and 20 share the image 12 beyond it,
        # which the reference first sees at degree 21; every degree past the
        # horizon is refused, before and after the collision
        def forward(m):
            return {12: 30, 15: 12, 20: 12, 30: 15}.get(m, m)

        c = parse_chunk("unit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\n")
        gc = build_gchunk(c, {"a": LazyPerm(forward, lambda m: m, "collides")}, Affine(20), 10)
        for n in query_orders(range(1, 45), seed=5)[order]:
            if n <= 10:
                assert supp_morphism(gc, n) == reference_supp_morphism(gc, n)
                continue
            for query in (lambda: supp_morphism(gc, n), lambda: supp_quality(gc, n, 2),
                          lambda: property_holds_mask(gc, 2, [n])):
                with pytest.raises(ValueError) as info:
                    query()
                assert str(info.value) == f"degree {n} lies past the audited horizon 10"

    def test_audit_values_seed_the_tables(self):
        calls = []

        def forward(m):
            calls.append(m)
            return m + 1 if m % 2 == 0 else m - 1

        c = parse_chunk("unit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\na * a = 1\n")
        gc = build_gchunk(c, {"a": LazyPerm(forward, forward, "pairswap")}, Affine(1), 99)
        audited = len(calls)
        for n in range(1, 100):
            supp_quality(gc, n, 2)
        assert len(calls) == audited  # degrees up to 99 read the values 0..99
        with pytest.raises(ValueError, match="^degree 100 lies past the audited horizon 99$"):
            supp_quality(gc, 100, 2)
        assert len(calls) == audited

    @pytest.mark.parametrize("carriers", [1, 2])
    def test_bound_evaluated_once_per_point(self, carriers, z3):
        bound = CountingBound(Affine(2))
        if carriers == 1:
            gc = z2_pair_swap_gchunk(99, bound)
        else:
            gc = build_gchunk(z3, {"h": three_cycle(), "h2": three_cycle_squared()}, bound, 99)
        assert bound.calls == 100
        for n in range(1, 100):
            supp_quality(gc, n, 2)
        assert bound.calls == 100  # degrees up to the horizon read the audit's values
        with pytest.raises(ValueError, match="^degree 100 lies past the audited horizon 99$"):
            supp_quality(gc, 100, 2)
        assert bound.calls == 100

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "repeated"])
    def test_no_evaluation_after_the_build(self, order, z3):
        horizon = 60
        bound = CountingBound(Affine(2))
        h, h_calls = counting(three_cycle())
        h2, h2_calls = counting(three_cycle_squared())
        gc = build_gchunk(z3, {"h": h, "h2": h2}, bound, horizon)
        ref = build_gchunk(z3, {"h": three_cycle(), "h2": three_cycle_squared()}, Affine(2),
                           horizon)
        built = (bound.calls, dict(h_calls), dict(h2_calls))
        for n in query_orders(range(1, horizon + 1), seed=2)[order]:
            assert supp_quality(gc, n, 2) == reference_supp_quality(ref, n, 2), n
            assert supp_morphism(gc, n) == reference_supp_morphism(ref, n), n
            assert property_holds_mask(gc, 2, [n]) == property_holds_mask(ref, 2, [n])
        for query in (lambda: supp_quality(gc, horizon + 1, 2),
                      lambda: supp_morphism(gc, horizon + 1),
                      lambda: property_holds_mask(gc, 2, [horizon + 1])):
            with pytest.raises(ValueError, match="^degree 61 lies past the audited horizon 60$"):
                query()
        assert (bound.calls, h_calls, h2_calls) == built

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "repeated"])
    def test_values_past_the_horizon_never_read(self, order):
        # the identity on [0, 20] that swaps 21 with -1: its audit at horizon 20
        # passes, and no degree may read the value -1 beyond it
        swap = {21: -1, -1: 21}
        p, calls = counting(LazyPerm(lambda m: swap.get(m, m), lambda m: swap.get(m, m),
                                     "negative-past-20"))
        c = parse_chunk("unit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\n")
        gc = build_gchunk(c, {"a": p}, Affine(1), 20)
        built = dict(calls)
        for n in query_orders(range(18, 26), seed=4)[order]:
            if n <= 20:
                assert supp_morphism(gc, n)["a"] == identity(n)
                assert supp_quality(gc, n, 2).quality.defect == 0
                continue
            for query in (lambda: supp_quality(gc, n, 2), lambda: supp_morphism(gc, n),
                          lambda: property_holds_mask(gc, 2, [n])):
                with pytest.raises(ValueError) as info:
                    query()
                assert str(info.value) == f"degree {n} lies past the audited horizon 20"
        assert calls == built

    def test_one_off_query_builds_at_its_degree(self):
        gc = z2_pair_swap_gchunk(200)
        supp_quality(gc, 90, 2)
        assert gc.size == 90
        supp_quality(gc, 91, 2)
        assert gc.size == 200  # then the whole audited prefix


def reference_extremes(gc, n):
    """The worst product count and the closest pair count (None without a
    pair) of the point-by-point restrictions."""
    _, products, pairs = disagreement_counts(gc.chunk, reference_supp_morphism(gc, n))
    return max(products, default=0), min(pairs, default=None)


def single_element_gchunk(horizon):
    return build_gchunk(Chunk(("1",), "1", {("1", "1"): "1"}), {}, Affine(1), horizon)


def unit_products_gchunk(horizon):
    """Two carriers whose only defined products are unit products."""
    c = parse_chunk("unit 1\nelem h\nelem t\n1 * 1 = 1\n1 * h = h\nh * 1 = h\n"
                    "1 * t = t\nt * 1 = t\n")
    swap = finitary([40] + list(range(1, 40)) + [0])
    return build_gchunk(c, {"h": three_cycle(), "t": swap}, Affine(40), horizon)


def settled_factor_gchunk(horizon):
    """a * b = c where b swaps the first two points of each block of four and
    a reverses each block: at degree 4q + 2, b has no free point while a and
    c have two, and their greedy completions disagree there."""
    c = parse_chunk("unit 1\nelem a\nelem b\nelem c\n1 * 1 = 1\n1 * a = a\na * 1 = a\n"
                    "1 * b = b\nb * 1 = b\n1 * c = c\nc * 1 = c\na * b = c\n")
    span = range(horizon + 4 - horizon % 4)
    a = [m - m % 4 + 3 - m % 4 for m in span]
    b = [m ^ 1 if m % 4 < 2 else m for m in span]
    carriers = {"a": finitary(a), "b": finitary(b), "c": finitary([a[v] for v in b])}
    return build_gchunk(c, carriers, Affine(3), horizon)


class TestExtremes:
    """``GChunk.extremes`` against the max and min of the point-by-point
    counts at every degree up to the horizon, in any order, each order on a
    g-chunk of its own."""

    CASES = ([(f"bounded-{seed}", lambda seed=seed: bounded_gchunk(seed, 129), {True, False})
              for seed in range(5)]
             + [("far-swap", lambda: far_swap_gchunk(519), {True, False}),
                ("three-cycle", lambda: three_cycle_chunk(horizon=150), {True, False}),
                ("single-element", lambda: single_element_gchunk(60), {True}),
                ("unit-products", lambda: unit_products_gchunk(90), {True, False}),
                ("settled-factor", lambda: settled_factor_gchunk(90), {True, False}),
                ("involution", lambda: z2_pair_swap_gchunk(90), {True, False}),
                ("order-three", lambda: order_three_gchunk(0, 90), {True, False})])

    @pytest.mark.parametrize("name,make,settled", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "repeated"])
    def test_match_reference_in_any_order(self, name, make, settled, order):
        gc, ref = make(), make()
        seen = set()
        for n in query_orders(range(1, gc.horizon + 1), seed=6)[order]:
            got = gc.extremes(n)
            assert got == reference_extremes(ref, n), n
            assert type(got[0]) is int
            seen.add(gc.settled[n])
        assert seen == settled

    def test_single_element_has_no_pair(self):
        gc = single_element_gchunk(30)
        assert {gc.extremes(n) for n in range(1, 31)} == {(0, None)}

    def test_unit_products_count_zero(self):
        gc = unit_products_gchunk(90)
        got = {n: gc.extremes(n) for n in range(1, 91)}
        assert {worst for worst, _ in got.values()} == {0}
        # the unsettled degrees move the closest pair off the carriers' own count
        assert any(not gc.settled[n] and closest != min(
            bisect.bisect_left(points, n) for points in gc.pair_points)
            for n, (_, closest) in got.items())

    def test_product_counts_where_only_its_composite_is_free(self):
        gc = settled_factor_gchunk(90)
        for n in range(6, 91, 4):
            assert gc.extremes(n)[0] == 2 == reference_extremes(gc, n)[0], n

    def test_settled_degree_reads_the_pair_bisections(self):
        gc = bounded_gchunk(3, 129)
        gc.extremes(129)
        for n in range(1, 130):
            if gc.settled[n]:
                assert gc.extremes(n) == (0, min(bisect.bisect_left(points, n)
                                                 for points in gc.pair_points))

    def test_degrees_outside_the_prefix_refused(self):
        gc = three_cycle_chunk(horizon=40)
        with pytest.raises(ValueError, match="^degree must be positive$"):
            gc.extremes(0)
        with pytest.raises(ValueError, match="^degree 41 lies past the audited horizon 40$"):
            gc.extremes(41)


def order_three_gchunk(seed, horizon):
    """r fixes some points and turns blocks of three, each one way or the
    other, so that r * r = s is its inverse; bounded by n + 2."""
    rng = random.Random(seed)
    images = []
    while len(images) <= horizon:
        start = len(images)
        turn = rng.choice((0, 1, 2))
        images += [start] if turn == 0 else [start + (i + turn) % 3 for i in range(3)]
    table = {("1", "1"): "1", ("1", "r"): "r", ("r", "1"): "r", ("1", "s"): "s",
             ("s", "1"): "s", ("r", "r"): "s", ("s", "s"): "r", ("r", "s"): "1",
             ("s", "r"): "1"}
    return build_gchunk(Chunk(("1", "r", "s"), "1", table),
                        {"r": finitary(images), "s": finitary(inverse_list(images))},
                        Affine(2), horizon)


def partial_group_gchunk(seed, horizon):
    """A cyclic group of order 3 to 6 acting on blocks of as many points by
    rotation, or the symmetric group on three points acting on blocks of
    three, each block relabelled at random, over part of the group table:
    every unit product and each other product with probability 1/2.  So
    some products and pairs have their inverse twin in the table and some
    do not, and some inverse pairs are defined one way only."""
    rng = random.Random(seed)
    if seed % 2:
        k = 3
        group = sorted(itertools.permutations(range(k)))
    else:
        k = rng.randint(3, 6)
        group = [tuple((i + t) % k for i in range(k)) for t in range(k)]
    names = {g: f"g{i}" if i else "1" for i, g in enumerate(group)}  # group[0] is the identity
    table = {}
    for a in group:
        for b in group:
            if names[a] == "1" or names[b] == "1" or rng.random() < 0.5:
                table[(names[a], names[b])] = names[tuple(a[i] for i in b)]
    labels = [rng.sample(range(k), k) for _ in range(horizon // k + 1)]
    carriers = {}
    for g in group[1:]:
        images = []
        for start, label in zip(itertools.count(0, k), labels):
            back = inverse_list(label)
            images += [start + label[g[back[i]]] for i in range(k)]
        carriers[names[g]] = finitary(images)
    return build_gchunk(Chunk(tuple(names.values()), "1", table), carriers, Affine(k), horizon)


def one_sided_gchunk(horizon, order=("x", "y")):
    """x * y = 1 holds on [0, horizon] but y * x = 1 does not: x is the
    three-cycle h of blocks except that it also sends w = horizon + 3 to
    1 = x(0), and y is h's inverse after swapping 1 with h(w), which lies
    past the horizon.  So y's restrictions are not the inverses of x's."""
    h, w = three_cycle(), horizon + 3
    hw = h(w)
    x = LazyPerm(lambda m: 1 if m == w else h.forward(m), h.backward, "x")
    y = LazyPerm(lambda m: w if m == 1 else 0 if m == hw else h.backward(m),
                 lambda m: 1 if m == w else hw if m == 0 else h.forward(m), "y")
    table = {("1", "1"): "1", ("1", "x"): "x", ("x", "1"): "x", ("1", "y"): "y",
             ("y", "1"): "y", ("x", "y"): "1"}
    return build_gchunk(Chunk(("1",) + order, "1", table), {"x": x, "y": y}, Affine(w + 2),
                        horizon)


def inverse_orbits(gc):
    """The inverse orbits {(a, b, ab), (b^-1, a^-1, (ab)^-1)} of the products
    that may count above 0, and {{x, y}, {x^-1, y^-1}} of the distinct
    pairs, found from the table alone."""
    table, unit = gc.chunk.table, gc.chunk.unit
    inv = {unit: unit}
    inv.update((x, y) for (x, y), c in table.items() if c == unit and table.get((y, x)) == unit)
    products = {(a, b, ab) for (a, b), ab in table.items()
                if not gc.chunk.is_unit_product(a, b, ab) and not (ab == unit and inv.get(a) == b)}
    product_orbits = set()
    for a, b, ab in products:
        twin = (inv[b], inv[a], inv[ab]) if {a, b, ab} <= inv.keys() else (a, b, ab)
        product_orbits.add(frozenset({(a, b, ab), twin} & products))
    pair_orbits = set()
    for x, y in itertools.combinations(gc.chunk.elements, 2):
        twin = {inv[x], inv[y]} if {x, y} <= inv.keys() else {x, y}
        pair_orbits.add(frozenset({frozenset((x, y)), frozenset(twin)}))
    return product_orbits, pair_orbits


def kept_once_per_orbit(kept, orbits):
    """Whether ``kept`` holds exactly one member of each orbit and nothing else."""
    return len(kept) == len(orbits) and all(
        sum(p in orbit for p in kept) == 1 for orbit in orbits)


def inverse_pairs(gc):
    table, unit = gc.chunk.table, gc.chunk.unit
    return [(x, y) for (x, y), c in table.items()
            if c == unit and table.get((y, x)) == unit and unit not in (x, y)]


class TestInverseRestrictions:
    """Where the table defines x * y = e and y * x = e, y's degree-n
    restriction is the inverse of x's, and a g-chunk reads it off x's."""

    MAKERS = ([lambda seed=seed: bounded_gchunk(seed, 129) for seed in range(10)]
              + [lambda: three_cycle_chunk(horizon=150)])

    @pytest.mark.parametrize("make", MAKERS, ids=[f"bounded-{s}" for s in range(10)]
                             + ["three-cycle"])
    def test_restriction_of_an_inverse_is_the_inverse(self, make):
        gc = make()
        pairs = inverse_pairs(gc)
        assert pairs
        for n in range(1, gc.horizon + 1):
            images, ref = gc.images(n), reference_supp_morphism(gc, n)
            assert images == {e: list(p.images) for e, p in ref.items()}, n
            for x, y in pairs:
                assert images[y] == inverse_list(images[x]), (n, x, y)

    @pytest.mark.parametrize("make", [lambda: z2_pair_swap_gchunk(99),
                                      lambda: bounded_gchunk(2, 129),
                                      lambda: bounded_gchunk(31, 129),
                                      lambda: far_swap_gchunk(519)],
                             ids=["pair-swap", "bounded-2", "bounded-31", "far-swap"])
    def test_involution_fixes_its_free_points(self, make):
        gc = make()
        involutions = [x for x, y in inverse_pairs(gc) if x == y]
        assert involutions
        moved = 0
        for n in range(1, gc.horizon + 1):
            images, ref = gc.images(n), reference_supp_morphism(gc, n)
            for x in involutions:
                assert images[x] == list(ref[x].images), (n, x)
                free = [m for m in range(n) if gc.carriers[x](m) >= n]
                assert [images[x][m] for m in free] == free, (n, x)
                moved += len(free)
        assert moved  # some degree has free points

    def test_orbits_counted_once(self):
        gc = three_cycle_chunk(horizon=60)
        assert gc.scans == [("h", "h2")]
        # (h2, h2, h) is the twin of (h, h, h2); (h, h2, 1) and (h2, h, 1) count 0
        assert gc.products == [("h", "h", "h2")]
        assert gc.pairs == [("1", "h"), ("h", "h2")]  # (1, h2) is the twin of (1, h)
        gc = z2_pair_swap_gchunk(60)
        assert (gc.scans, gc.products, gc.pairs) == ([("a", "a")], [], [("1", "a")])

    @pytest.mark.parametrize("order", [("x", "y"), ("y", "x")], ids=["xy", "yx"])
    @pytest.mark.parametrize("queries", ["ascending", "descending", "shuffled", "repeated"])
    def test_one_table_entry_derives_nothing(self, order, queries):
        gc, ref = one_sided_gchunk(40, order), one_sided_gchunk(40, order)
        assert gc.scans == [(order[0], None), (order[1], None)]
        assert ("x", "y", "1") in gc.products
        assert len(gc.pairs) == 3
        differ = 0
        for n in query_orders(range(1, 41), seed=7)[queries]:
            assert gc.extremes(n) == reference_extremes(ref, n), n
            sigma = reference_supp_morphism(ref, n)
            assert supp_morphism(gc, n) == sigma, n
            differ += sigma["y"].images != tuple(inverse_list(list(sigma["x"].images)))
        assert differ  # the lemma's conclusion fails here, so nothing may use it

    @pytest.mark.parametrize("seed", range(24))
    def test_partial_group_tables_match_reference(self, seed):
        gc = partial_group_gchunk(seed, 60)
        product_orbits, pair_orbits = inverse_orbits(gc)
        assert kept_once_per_orbit(gc.products, product_orbits)
        assert kept_once_per_orbit([frozenset(q) for q in gc.pairs], pair_orbits)
        for n in range(1, 61):
            assert gc.extremes(n) == reference_extremes(gc, n), n
            assert supp_morphism(gc, n) == reference_supp_morphism(gc, n), n


class TestRealize:
    def sigma(self, chunk, depth, n_max=6):
        return [sofic_profile(chunk, r, n_max).assignment for r in range(2, depth + 1)]

    def test_z2_realization(self, z2):
        real = realize(z2, self.sigma(z2, 6))
        assert real.m == (2, 2, 2, 2, 2)
        for st in real.stages:
            assert st.defect == 0
            assert st.slow_lhs < st.slow_threshold
            assert st.g_gap < st.slow_threshold
        assert is_slow(real.g).verdict == "slow"

    def test_multiplicities_are_minimal(self, z2):
        real = realize(z2, self.sigma(z2, 6))
        # defect is identically zero for copies of an exact embedding, so only
        # the block-end inequalities constrain each multiplicity: recompute the
        # least f by direct evaluation and compare
        cum = 0
        total_m = 0
        for idx, st in enumerate(real.stages):
            n = idx + 2
            prev_m = total_m
            total_m += st.m_n
            f = 1
            while not (Fraction(prev_m, cum + f * st.m_n - 1 + prev_m
                                 if cum + f * st.m_n - 1 + prev_m else 1) < Fraction(1, n)
                       and Fraction(total_m, cum + f * st.m_n - 1 + total_m) < Fraction(1, n)):
                f += 1
            assert st.f_n == f
            cum += f * st.m_n

    def test_single_stage_degenerate(self, z2):
        real = realize(z2, self.sigma(z2, 2))
        assert real.depth == 2
        # one block: the stage assignment is f(2) consecutive certificate copies
        from soficapprox.permcore import block_sum
        expected = {e: block_sum([(real.sigma[0][e], real.f[0])]) for e in z2.elements}
        assert real.block_sum_assignment(2) == expected

    def test_z3_realization(self, z3):
        real = realize(z3, self.sigma(z3, 6))
        assert real.m == (3, 3, 3, 3, 3)
        carrier = real.carrier("h")
        top = real.layout[-1]
        # block sums of three-cycles: every constructed point sits in a 3-cycle
        for m in range(top):
            assert carrier(carrier(carrier(m))) == m
        assert all(carrier(m) == m for m in range(top, top + 20))
        assert is_slow(real.g).verdict == "slow"

    def test_round_trip_through_supp(self, z3):
        real = realize(z3, self.sigma(z3, 5))
        gc = real.gchunk()
        for stage_n, degree in zip(range(2, real.depth + 1), real.layout):
            assert supp_morphism(gc, degree) == real.block_sum_assignment(stage_n)

    def test_displacement_formula(self, z2, z3):
        for chunk in (z2, z3):
            real = realize(chunk, self.sigma(chunk, 5))
            for stage_n in range(2, real.depth + 1):
                assignment = real.block_sum_assignment(stage_n)
                for i, e1 in enumerate(chunk.elements):
                    for e2 in chunk.elements[i + 1:]:
                        assert hamming_distance(assignment[e1], assignment[e2]) \
                            == displacement(real, stage_n, e1, e2)

    def test_quality_thresholds_at_every_stage(self, z3):
        real = realize(z3, self.sigma(z3, 6))
        for stage_n in range(2, real.depth + 1):
            assignment = real.block_sum_assignment(stage_n)
            quality = measure(z3, assignment)
            eps = Fraction(1, stage_n - 1)
            assert quality.defect <= eps
            assert quality.expansiveness >= 1 - eps

    def test_carrier_bounded_by_g(self, z3):
        real = realize(z3, self.sigma(z3, 5))
        horizon = real.layout[-1] + 30
        for e in z3.elements:
            out = audit(real.carrier(e), real.g, horizon)
            assert isinstance(out, BoundWitness)

    @pytest.mark.parametrize("name", ["z3", "klein"])
    @pytest.mark.parametrize("depth", [8, 16])
    def test_carrier_tables_match_the_block_walk(self, name, depth, request):
        chunk = request.getfixturevalue(name)
        real = realize(chunk, self.sigma(chunk, depth))
        points = range(real.layout[-1] + 11)
        for e in chunk.elements:
            carrier, (forward, backward) = real.carrier(e), reference_blocksum_carrier(real, e)
            assert carrier.descriptor == f"blocksum:depth={depth}"
            assert list(map(carrier.forward, points)) == list(map(forward, points))
            assert list(map(carrier.backward, points)) == list(map(backward, points))

    def test_trivial_chunk_realization(self, trivial):
        real = realize(trivial, self.sigma(trivial, 4))
        assert real.m == (1, 1, 1)
        assert all(st.defect == 0 for st in real.stages)


class TestRealizedChunk:
    def sigma(self, chunk, depth, n_max=6):
        return [sofic_profile(chunk, r, n_max).assignment for r in range(2, depth + 1)]

    def test_exact_certificates_keep_the_whole_table(self, z2, z3, klein):
        for chunk in (z2, z3, klein):
            real = realize(chunk, self.sigma(chunk, 5))
            dropped, extra = chunk_compatibility(real)
            assert dropped == () and extra == ()
            assert real.realized_chunk() == chunk

    def test_inexact_stage_drops_its_products(self, z4trace):
        # the r = 2 certificate has defect 1/2, so the carriers compose only
        # approximately on h * h; the realized chunk loses that product while
        # the name map onto the abstract chunk stays a homomorphism
        real = realize(z4trace, self.sigma(z4trace, 5))
        assert any(st.defect > 0 for st in real.stages)
        dropped, extra = chunk_compatibility(real)
        assert ("h", "h") in dropped
        assert extra == ()
        reduced = real.realized_chunk()
        assert reduced.product("h", "h") is None
        from soficapprox.chunk import validate
        assert validate(reduced).ok
        name_map = ChunkMap(reduced, {e: e for e in reduced.elements})
        assert is_homomorphism(name_map, chunk_mult(z4trace), target_unit="1")
        # and it is not an isomorphism: the abstract table strictly extends
        assert set(z4trace.table) > set(reduced.table)

    def test_gchunk_round_trip_with_inexact_stages(self, z4trace):
        real = realize(z4trace, self.sigma(z4trace, 5))
        gc = real.gchunk()
        for stage_n, degree in zip(range(2, real.depth + 1), real.layout):
            assert supp_morphism(gc, degree) == real.block_sum_assignment(stage_n)


class TestClosedFormMultiplicities:
    """``realize`` against the trial-and-measure loop of ``reference_realize``,
    which builds every trial block sum and measures it."""

    def check(self, chunk, sigma):
        real = realize(chunk, sigma)
        f, stages = reference_realize(chunk, sigma)
        assert list(real.f) == f
        assert list(real.layout) == [st.degree for st in stages]
        offsets = tuple(accumulate(stage[chunk.unit].degree for stage in sigma))
        assert real.g.spec() == BlockStep(real.layout, offsets).spec()
        for got, want in zip(real.stages, stages, strict=True):
            for field in fields(StageReport):
                assert getattr(got, field.name) == getattr(want, field.name), \
                    (got.n, field.name)
        return real

    def searched(self, chunk, depth):
        return [sofic_profile(chunk, r, 8).assignment for r in range(2, depth + 1)]

    @pytest.mark.parametrize("name", sorted(
        name for name in os.listdir(DATA) if name.endswith(".chunk")))
    def test_fixture_chunks(self, name):
        chunk = parse_chunk_file(data_path(name))
        real = self.check(chunk, self.searched(chunk, 6))
        if name == "z4trace.chunk":
            assert real.stages[0].defect > 0

    def g_gap_only(self, real, n):
        """Least f(n) meeting the g_gap inequality alone."""
        prev_degree = real.layout[n - 3]
        total_m = sum(real.m[:n - 1])
        return next(f for f in itertools.count(1)
                    if Fraction(total_m, prev_degree + f * real.m[n - 2] - 1 + total_m)
                    < Fraction(1, n))

    def test_expansiveness_ceiling_binds(self):
        # {0,3,5,6} in Z9: at stage 6 the g_gap inequality alone allows f = 7,
        # but the expansiveness ceiling needs f = 9
        elems = [f"g{i}" for i in (0, 3, 5, 6)]
        chunk = induced_chunk(elems, "g0", lambda a, b: f"g{(int(a[1:]) + int(b[1:])) % 9}")
        real = self.check(chunk, self.searched(chunk, 6))
        assert (self.g_gap_only(real, 6), real.f[-1]) == (7, 9)

    def test_defect_ceiling_binds(self, z2):
        # a -> one 3-cycle plus transpositions (and a fixed point when 3r is
        # even) at degree 3r: a*a misses the unit on 3 points, defect exactly
        # 1/r at every stage, and from stage 5 on the defect ceiling binds
        def assignment(r):
            n = 3 * r
            images = [1, 2, 0] + ([3] if n % 2 == 0 else [])
            for x in range(len(images), n, 2):
                images += [x + 1, x]
            out = {"1": identity(n), "a": Perm(tuple(images))}
            assert measure(z2, out).defect == Fraction(1, r)
            return out

        real = self.check(z2, [assignment(r) for r in range(2, 8)])
        assert (self.g_gap_only(real, 6), real.f[4]) == (7, 16)

    def test_thresholds_checked_on_the_assignment(self, z4trace):
        # the r = 2 witness has defect 1/2, above 1/3, so given again as the
        # r = 3 stage it fails that stage's thresholds
        witness = sofic_profile(z4trace, 2, 8).assignment
        assert not measure(z4trace, witness).meets(Fraction(3))
        with pytest.raises(ValueError, match="r = 3 does not meet its thresholds"):
            realize(z4trace, [witness, witness])

    def test_separation_checked_at_its_boundary(self, z2):
        # a -> identity at degree 2: no defect, but the pair differs at no
        # point, one short of n - radius = 1; passed on, it would make the
        # expansiveness denominator (n-1)a_q - (n-2)m zero
        forged = {"1": identity(2), "a": identity(2)}
        assert measure(z2, forged).defect == 0
        with pytest.raises(ValueError, match="r = 2 does not meet its thresholds"):
            realize(z2, [forged])

    @pytest.mark.parametrize("sigma, message", [
        ([], "need at least the r = 2 stage assignment"),
        ([{"1": identity(2)}], "r = 2 covers different elements"),
        ([{"1": identity(2), "a": Perm((1, 0))}, {"1": identity(2), "a": identity(3)}],
         r"r = 3 is not a map into one S_m .*mixed degrees \[2, 3\]"),
        ([{"1": Perm((1, 0)), "a": Perm((1, 0))}],
         "r = 2 is not a map into one S_m .*unit must map to the identity"),
    ], ids=["empty", "missing-element", "mixed-degrees", "unit-moved"])
    def test_stage_shape_checked(self, z2, sigma, message):
        with pytest.raises(ValueError, match=message):
            realize(z2, sigma)
