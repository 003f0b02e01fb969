"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance and time budget is pinned here; the random
criteria use fixed seeds so reports are reproducible byte for byte.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from oracles import brute_force_feasible, brute_force_least_n, displacement

from soficapprox.chunk import Chunk, parse_chunk_file
from soficapprox.gadgets import (
    StageTrace,
    cube_of_transpositions_is_identity,
    delta,
    encode_check,
    example_check,
    stage_construction,
    three_cycle_chunk,
)
from soficapprox.growth import Affine, Infinity, Linear, compare_pf, growth_profile, is_slow, power
from soficapprox.growth import Exhausted as GrowthExhausted
from soficapprox.lazyperm import (
    BoundWitness,
    audit,
    build_gchunk,
    finitary,
    property_profile,
    realize,
    supp_morphism,
    supp_quality,
)
from soficapprox.permcore import Perm, compose, hamming_distance
from soficapprox.profile import measure, sofic_profile
from soficapprox.profile import Exhausted as SearchExhausted

import itertools

from conftest import data_path


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:02d} FAIL: {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} PASS: {description} ({elapsed:.2f}s)")
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s >= {limit_seconds}s"


def load(name):
    return parse_chunk_file(data_path(name))


def test_criterion_01_profile_oracle_equivalence():
    with criterion(1, "pruned search equals exhaustive enumeration "
                      "(|E| <= 3, n <= 5, r in {2,3})", 60.0):
        from soficapprox.profile import _backtrack
        for name in ("trivial.chunk", "z2.chunk", "z3.chunk",
                     "open2.chunk", "z4trace.chunk"):
            c = load(name)
            for r in (2, 3):
                for n in range(1, 6):
                    witness, _ = _backtrack(c, Fraction(r), n)
                    assert (witness is not None) == brute_force_feasible(c, r, n), \
                        (name, r, n)
                expected = brute_force_least_n(c, r, 5)
                got = sofic_profile(c, r, 5)
                if expected is None:
                    assert isinstance(got, SearchExhausted)
                else:
                    assert got.n == expected


def test_criterion_02_small_profiles_with_sound_certificates():
    with criterion(2, "prof(2) = 2 for the order-2 chunk and 3 for the order-3 chunk, "
                      "certificates re-measured", 5.0):
        z2, z3 = load("z2.chunk"), load("z3.chunk")
        cert2 = sofic_profile(z2, 2, 5)
        assert cert2.n == 2
        assert measure(z2, cert2.assignment) == cert2.quality
        assert cert2.quality.meets(Fraction(2))
        cert3 = sofic_profile(z3, 2, 5)
        assert cert3.n == 3
        assert measure(z3, cert3.assignment) == cert3.quality
        assert cert3.quality.meets(Fraction(2))


def test_criterion_03_growth_profile_values():
    with criterion(3, "growth profiles: successor at r=2 is 3; infinite and "
                      "doubling cases exhaust", 1.0):
        assert growth_profile(Affine(1), 2, 100) == 3
        for n_max in (1, 7, 500):
            assert isinstance(growth_profile(Infinity(), 2, n_max), GrowthExhausted)
            assert isinstance(growth_profile(Infinity(), Fraction(7, 2), n_max),
                              GrowthExhausted)
        out = growth_profile(Linear(2), 3, 400)
        assert isinstance(out, GrowthExhausted)
        assert "impossible" in out.note


def test_criterion_04_metric_axioms_and_bi_invariance():
    with criterion(4, "Hamming metric axioms and bi-invariance, 10^4 random "
                      "triples per degree 2..8", 30.0):
        rng = random.Random(0x50F1C)
        for n in range(2, 9):
            base = list(range(n))
            def draw():
                imgs = base[:]
                rng.shuffle(imgs)
                return Perm(tuple(imgs))
            for _ in range(10_000):
                p, q, s, k = draw(), draw(), draw(), draw()
                dpq = hamming_distance(p, q)
                assert (dpq == 0) == (p == q)
                assert dpq == hamming_distance(q, p)
                assert hamming_distance(p, s) <= dpq + hamming_distance(q, s)
                assert hamming_distance(compose(k, p), compose(k, q)) == dpq
                assert hamming_distance(compose(p, k), compose(q, k)) == dpq
            p = draw()
            assert hamming_distance(p, p) == 0


def test_criterion_05_property_profile_bounded_by_growth_profile():
    with criterion(5, "supp-morphism defect profile of the three-cycle chunk "
                      "stays within the growth profile at 2r", 30.0):
        gc = three_cycle_chunk(horizon=600)
        for r in (2, 3):
            bound = growth_profile(Affine(31), 2 * r, 500)
            assert isinstance(bound, int) and bound <= 500
            got = property_profile(gc, r, 500)
            assert isinstance(got, int)
            assert got <= bound


def _random_bounded_finitary(rng, c, span):
    """Permutation shuffling within consecutive blocks of size <= c + 1."""
    images = []
    start = 0
    while start < span:
        size = rng.randint(1, c + 1)
        size = min(size, span - start)
        block = list(range(start, start + size))
        rng.shuffle(block)
        images.extend(block)
        start += size
    return images


def test_criterion_06_supp_defect_bound_randomized():
    with criterion(6, "supp defect <= 2(n - m*)/n for 50 randomized bounded "
                      "chunks, all n <= 300", 120.0):
        rng = random.Random(0xB10C)
        for trial in range(50):
            c = rng.randint(1, 40)
            span = rng.randint(2 * c + 2, 200)
            images = _random_bounded_finitary(rng, c, span)
            rho = finitary(images)
            rho_inv_images = [0] * span
            for x, v in enumerate(images):
                rho_inv_images[v] = x
            carriers = {"1": None, "r": rho}
            elements = ["1", "r"]
            table = {("1", "1"): "1", ("1", "r"): "r", ("r", "1"): "r"}
            if rho_inv_images == images:
                table[("r", "r")] = "1"  # involution
            else:
                elements.append("ri")
                carriers["ri"] = finitary(rho_inv_images)
                table.update({("1", "ri"): "ri", ("ri", "1"): "ri",
                              ("r", "ri"): "1", ("ri", "r"): "1"})
                squared = [images[images[x]] for x in range(span)]
                if squared == rho_inv_images:
                    table[("r", "r")] = "ri"  # order three
                    table[("ri", "ri")] = "r"
            del carriers["1"]
            chunk = Chunk(tuple(elements), "1", table)
            gc = build_gchunk(chunk, carriers, Affine(c), horizon=320)
            for n in range(1, 301):
                report = supp_quality(gc, n, 2)
                if report.m_star is None:
                    continue
                assert report.defect_bound_holds, (trial, c, n)


def test_criterion_07_realization_round_trip():
    with criterion(7, "block-direct-sum realization: thresholds, slowness, "
                      "supp round trip, displacement formula", 120.0):
        for name in ("z2.chunk", "z3.chunk"):
            chunk = load(name)
            real = realize(chunk, [sofic_profile(chunk, r, 6).assignment for r in range(2, 7)])
            # (a) every stage meets the (1 - 1/(n-1))-expansive 1/(n-1) thresholds
            for stage_n in range(2, real.depth + 1):
                assignment = real.block_sum_assignment(stage_n)
                quality = measure(chunk, assignment)
                eps = Fraction(1, stage_n - 1)
                assert quality.defect <= eps
                assert quality.expansiveness is None or quality.expansiveness >= 1 - eps
            # (b) both block-end slowness inequalities, and g is judged slow
            total_m = 0
            for st in real.stages:
                prev_m = total_m
                total_m += st.m_n
                den = st.degree - 1 + prev_m
                assert st.slow_lhs == (Fraction(prev_m, den) if den else Fraction(0))
                assert st.slow_lhs < Fraction(1, st.n)
                gj = real.g(st.degree - 1)
                assert Fraction(gj - (st.degree - 1), gj) < Fraction(1, st.n)
            assert is_slow(real.g).verdict == "slow"
            # (c) supp morphisms of the realized carriers reproduce the stages
            gc = real.gchunk()
            for stage_n, degree in zip(range(2, real.depth + 1), real.layout):
                assert supp_morphism(gc, degree) == real.block_sum_assignment(stage_n)
            # (d) displacement formula matches measured distances exactly
            for stage_n in range(2, real.depth + 1):
                assignment = real.block_sum_assignment(stage_n)
                for i, e1 in enumerate(chunk.elements):
                    for e2 in chunk.elements[i + 1:]:
                        assert hamming_distance(assignment[e1], assignment[e2]) \
                            == displacement(real, stage_n, e1, e2)


def test_criterion_08_example_inequality_full_range():
    with criterion(8, "three-cycle example deviation |m* - Fix| <= 5 for "
                      "every n in 33..400", 30.0):
        for n in range(33, 401):
            report = example_check(n)
            assert report.holds, (n, report.deviation)


def test_criterion_09_shift_and_encoding_suite():
    with criterion(9, "shift audited to 10^4; cube criterion exhaustive to "
                      "degree 12; encoding agrees with direct evaluation", 60.0):
        out = audit(delta(), Affine(3), 10_000)
        assert isinstance(out, BoundWitness)

        pairs = list(itertools.combinations(range(12), 2))
        for t1 in pairs:
            for t2 in pairs:
                expected = bool(set(t1) & set(t2))
                assert cube_of_transpositions_is_identity(t1, t2) == expected

        rng = random.Random(0xE14C0)
        for _ in range(200):
            span = rng.randint(2, 50)
            images = list(range(span))
            rng.shuffle(images)
            rho = finitary(images)
            direct = lambda x: images[x] if x < span else x
            for k in range(61):
                expected_n = direct(k)
                for n in range(61):
                    assert encode_check(rho, k, n, 1000) == (expected_n == n), \
                        (images, k, n)


def test_criterion_10_stage_gadget():
    with criterion(10, "stagewise map: collisions without firings, order-2 "
                       "prefix of exactly 3t points with them", 5.0):
        _, outcome = stage_construction(StageTrace(()), 300)
        assert outcome.fired == 0 and outcome.prefix_end == 0
        assert outcome.collisions_beyond
        for t in range(0, 21):
            flags = tuple(True for _ in range(t))
            fmap, outcome = stage_construction(StageTrace(flags), 300)
            assert outcome.fired == t
            assert outcome.prefix_end == 3 * t
            assert outcome.involution_on_prefix
            assert outcome.collisions_beyond
            if 3 * t < 300:
                # the first unrepaired block is genuinely non-injective
                assert fmap[3 * t] == fmap[3 * t + 1]


def test_criterion_11_profile_domination_instance():
    with criterion(11, "squared-successor profile dominated by the successor "
                       "profile at halved argument (C=4, C'=1/2, C''=0)", 5.0):
        rs = [Fraction(r) for r in range(2, 11)]
        squared = power(Affine(1), 2)
        u = {r: growth_profile(squared, r, 400) for r in rs}
        v = {r / 2: growth_profile(Affine(1), r / 2, 400) for r in rs}
        assert all(isinstance(val, int) for val in u.values())
        assert all(isinstance(val, int) for val in v.values())
        C, Cp, Cpp = 4, Fraction(1, 2), 0
        assert compare_pf(u, v, C, Cp, Cpp, rs)
        print(f"    constants used: C = {C}, C' = {Cp}, C'' = {Cpp}")
