import concurrent.futures
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import factorial
from operator import ne

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficapprox import profile
from soficapprox.chunk import Chunk, induced_chunk, validate
from soficapprox.cli import main
from soficapprox.permcore import (Perm, all_cycle_types, compose, cycle_type_representative,
                                  hamming_distance, identity, inverse, transposition)
from soficapprox.profile import (
    DegreeRecord,
    Exhausted,
    ProfileCertificate,
    _agreement_set,
    _backtrack,
    _bitset_pool,
    _decode,
    _hamming_ball,
    _lex_rank,
    _pool_kinds,
    _product_key,
    _rank_masks,
    _search_degree,
    _search_plan,
    disagreement_counts,
    measure,
    profile_table,
    replay_records,
    sofic_profile,
    threshold_radius,
)


from conftest import data_path
from oracles import (all_perms, brute_force_feasible, brute_force_least_n, decide_product,
                     reference_backtrack, reference_measure, rename_chunk)


class TestMeasure:
    def test_exact_homomorphism_has_zero_defect(self, z2):
        f = {"1": identity(2), "a": transposition(2, 0, 1)}
        q = measure(z2, f)
        assert q.defect == 0
        assert q.expansiveness == 1

    def test_z2_in_s3(self, z2):
        f = {"1": identity(3), "a": transposition(3, 0, 1)}
        q = measure(z2, f)
        assert q.defect == 0
        assert q.expansiveness == Fraction(2, 3)

    def test_z2_three_cycle_image(self, z2):
        f = {"1": identity(3), "a": Perm((1, 2, 0))}
        q = measure(z2, f)
        assert q.defect == 1
        assert q.expansiveness == 1

    def test_singleton_sentinel(self, trivial):
        q = measure(trivial, {"1": identity(1)})
        assert q.defect == 0
        assert q.expansiveness is None

    def test_unit_not_identity_rejected(self, z2):
        with pytest.raises(ValueError):
            measure(z2, {"1": transposition(2, 0, 1), "a": identity(2)})

    def test_degree_mismatch_rejected(self, z2):
        with pytest.raises(ValueError):
            measure(z2, {"1": identity(2), "a": transposition(3, 0, 1)})


class TestThresholdRadius:
    """One integer per degree decides both 1/r thresholds on counts of points."""

    RS = sorted({Fraction(p, q) for q in range(1, 5) for p in range(q, 20)})

    def test_grid_has_the_usual_parameters(self):
        assert {1, Fraction(3, 2), Fraction(7, 3), 2, 3, 19} <= set(self.RS)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_counts_pass_exactly_when_their_fractions_do(self, n):
        for r in self.RS:
            radius = threshold_radius(n, r)
            eps, eps2 = 1 / r, 1 / (2 * r)
            for k in range(n + 1):
                d = Fraction(k, n)
                assert (k <= radius) == (d <= eps), (n, r, k)
                assert (k >= n - radius) == (d >= 1 - eps), (n, r, k)
                # supp_quality's gap and expansiveness tests at 2r
                assert (k <= radius // 2) == (d <= eps2), (n, r, k)
                assert (k >= n - radius // 2) == (d >= 1 - eps2), (n, r, k)
            assert radius // 2 == threshold_radius(n, 2 * r)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_radius_does_not_grow_with_r(self, n):
        radii = [threshold_radius(n, r) for r in self.RS]
        assert radii == sorted(radii, reverse=True)
        assert radii[0] == n  # r = 1 admits every count


def random_assignment(rng, c, n):
    images = {e: Perm(tuple(rng.sample(range(n), n))) for e in c.elements}
    images[c.unit] = identity(n)
    return images


def random_partial_chunk(rng, size):
    """Elements e0..e{size-1} with unit e0 and a random partial table; measure
    reads any table, valid or not."""
    elems = tuple(f"e{i}" for i in range(size))
    table = {(a, b): rng.choice(elems) for a in elems for b in elems if rng.random() < 0.5}
    return Chunk(elems, "e0", table)


class TestMeasureAgainstReference:
    """``measure`` over the shared counts against ``reference_measure``, which
    composes ``Perm`` values and compares ``Fraction`` distances."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_assignments(self, seed, z2, z3, klein, open2, z4trace, trivial):
        rng = random.Random(seed)
        chunks = [z2, z3, klein, open2, z4trace, trivial]
        chunks += [random_partial_chunk(rng, size) for size in (1, 2, 3, 4, 5)]
        for c in chunks:
            for n in range(0, 8):
                f = random_assignment(rng, c, n)
                assert measure(c, f) == reference_measure(c, f), (c, f)

    def test_degree_zero(self, z3, trivial):
        for c in (z3, trivial):
            f = {e: Perm(()) for e in c.elements}
            assert measure(c, f) == reference_measure(c, f)
        assert measure(z3, {e: Perm(()) for e in z3.elements}).expansiveness == 0

    def test_single_element_chunk(self, trivial):
        for n in range(1, 6):
            f = {"1": identity(n)}
            assert measure(trivial, f) == reference_measure(trivial, f)
            assert measure(trivial, f).expansiveness is None

    @pytest.mark.parametrize("f, message", [
        ({"1": identity(3), "h": Perm((1, 2, 0))}, "not total"),
        ({"1": identity(3), "h": Perm((1, 0)), "h2": identity(3)}, "mixed degrees"),
        ({"1": Perm((1, 0, 2)), "h": Perm((1, 2, 0)), "h2": Perm((2, 0, 1))}, "identity"),
    ])
    def test_errors_match(self, z3, f, message):
        for fn in (measure, reference_measure, disagreement_counts):
            with pytest.raises(ValueError, match=message):
                fn(z3, f)

    def test_counts_in_table_and_element_order(self, z3):
        f = {"1": identity(3), "h": Perm((1, 2, 0)), "h2": Perm((1, 2, 0))}
        n, products, pairs = disagreement_counts(z3, f)
        assert n == 3
        assert products == [3 * hamming_distance(f[ab], compose(f[a], f[b]))
                            for (a, b), ab in z3.table.items()]
        assert pairs == [3, 3, 0]  # (1, h), (1, h2), (h, h2)


class TestSoficProfile:
    def test_trivial_chunk(self, trivial):
        cert = sofic_profile(trivial, 2, 5)
        assert cert.n == 1
        assert cert.assignment == {"1": identity(1)}
        assert cert.quality.expansiveness is None

    def test_z2_at_two(self, z2):
        cert = sofic_profile(z2, 2, 5)
        assert cert.n == 2
        assert cert.assignment["a"] == Perm((1, 0))
        assert [rec.degree for rec in cert.infeasible] == [1]
        assert all(rec.nodes > 0 for rec in cert.infeasible)

    def test_z3_at_two(self, z3):
        cert = sofic_profile(z3, 2, 5)
        assert cert.n == 3
        assert cert.assignment["h"] == Perm((1, 2, 0))
        assert cert.assignment["h2"] == Perm((2, 0, 1))
        assert [rec.degree for rec in cert.infeasible] == [1, 2]

    def test_exhausted_outcome(self, z3):
        result = sofic_profile(z3, 2, 2)
        assert isinstance(result, Exhausted)
        assert result.n_max == 2
        assert [rec.degree for rec in result.records] == [1, 2]

    def test_invalid_chunk_rejected(self):
        bad = Chunk(("1", "a"), "1", {("1", "1"): "1"})
        with pytest.raises(ValueError):
            sofic_profile(bad, 2, 3)

    def test_replay_validates_before_searching(self, z3, searched):
        # the z3 table without h * 1 = h, under z3's genuine r = 2 records
        table = {key: ab for key, ab in z3.table.items() if key != ("h", "1")}
        bad = Chunk(z3.elements, z3.unit, table)
        with pytest.raises(ValueError, match=r"^chunk fails validation: h \* 1 = undef"):
            replay_records(bad, 2, [DegreeRecord(1, 1), DegreeRecord(2, 4)])
        assert searched == []

    def test_r_equal_one_vacuous(self, z2):
        cert = sofic_profile(z2, 1, 3)
        assert cert.n == 1
        assert cert.vacuous

    def test_workers_match_sequential(self, z3):
        seq = sofic_profile(z3, 2, 4)
        par = sofic_profile(z3, 2, 4, workers=2)
        assert par.n == seq.n
        assert par.assignment == seq.assignment
        assert par.infeasible == seq.infeasible

    @pytest.mark.parametrize("workers, pool_sizes", [(500, [2, 3, 5]), (4, [2, 3, 4])])
    def test_pool_gets_no_more_workers_than_candidates(self, capsys, monkeypatch, workers,
                                                       pool_sizes):
        sizes = []

        class InlinePool:
            """Records the pool size and runs the tasks in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        argv = ["profile", "--chunk", data_path("klein.chunk"), "--r", "3"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert sequential.startswith("prof = 4\n")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        assert main(["--workers", str(workers)] + argv) == 0
        assert capsys.readouterr().out == sequential
        # one pool per degree 2..4, with at most p(n) = 2, 3, 5 candidates
        assert sizes == pool_sizes

    def test_one_worker_never_imports_the_pool(self):
        script = ("import sys; from soficapprox.cli import main; "
                  f"main(['profile', '--chunk', {data_path('klein.chunk')!r}, '--r', '3']); "
                  "print('concurrent.futures' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(profile.__file__)))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert done.stdout.startswith("prof = 4\n") and done.stdout.endswith("\nFalse\n")


class TestOracleEquivalence:
    @pytest.mark.parametrize("fixture", ["trivial", "z2", "z3", "open2", "z4trace"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_matches_brute_force_per_degree(self, fixture, r, request):
        c = request.getfixturevalue(fixture)
        for n in range(1, 6):
            from soficapprox.profile import _backtrack
            witness, _ = _backtrack(c, Fraction(r), n)
            assert (witness is not None) == brute_force_feasible(c, r, n), (fixture, r, n)

    @pytest.mark.parametrize("fixture", ["trivial", "z2", "z3", "open2", "z4trace"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_matches_brute_force_least_n(self, fixture, r, request):
        c = request.getfixturevalue(fixture)
        expected = brute_force_least_n(c, r, 5)
        got = sofic_profile(c, r, 5)
        if expected is None:
            assert isinstance(got, Exhausted)
        else:
            assert got.n == expected


class TestProfileTable:
    def test_z2_table(self, z2):
        results = profile_table(z2, [2, 3], 5)
        assert [res.n for res in results] == [2, 2]

    def test_trivial_table(self, trivial):
        results = profile_table(trivial, [2, 5, 10], 5)
        assert [res.n for res in results] == [1, 1, 1]

    def test_z3_table(self, z3):
        results = profile_table(z3, [2, 3], 5)
        assert [res.n for res in results] == [3, 3]

    @pytest.mark.parametrize("fixture", ["z2", "z3", "klein"])
    def test_monotone_in_r(self, fixture, request):
        c = request.getfixturevalue(fixture)
        rs = [Fraction(3, 2), 2, 3, 4]
        results = profile_table(c, rs, 6)
        values = [res.n for res in results]
        assert values == sorted(values)


def sweep_chunk(name, request):
    if name == "Z9{0,1,6,7,8}":
        return cyclic_chunk(9, [0, 1, 6, 7, 8])
    return request.getfixturevalue(name)


SWEEP_RS = [1, Fraction(3, 2), 2, 3, 4, 5]


@pytest.fixture
def searched(monkeypatch):
    """The (r, n) of every degree search, in call order."""
    calls = []
    search = profile._search_degree
    monkeypatch.setattr(profile, "_search_degree",
                        lambda c, r, n, workers, plan: calls.append((r, n))
                        or search(c, r, n, workers, plan))
    return calls


def memo_key(r, n):
    return n, n * r.denominator // r.numerator, -(-n * (r.numerator - r.denominator) // r.numerator)


class TestSweep:
    """``profile_table`` decides each r from the last r's least degree, on
    degree outcomes shared through one memo; its answers are
    ``sofic_profile``'s without the records."""

    @pytest.mark.parametrize("name", ["z2", "z3", "klein", "z4trace", "Z9{0,1,6,7,8}"])
    def test_matches_sofic_profile(self, name, request):
        c = sweep_chunk(name, request)
        swept = profile_table(c, SWEEP_RS, 6)
        for r, got in zip(SWEEP_RS, swept):
            cert = sofic_profile(c, r, 6)
            assert (got.r, got.n, got.assignment, got.quality) == \
                (cert.r, cert.n, cert.assignment, cert.quality), (name, r)
            assert got.infeasible == ()

    def test_order_duplicates_and_exhaustion(self, searched):
        # at n_max = 4, Z9{0,1,6,7,8} has least degree 4 at r <= 2 and none at r >= 3
        c = cyclic_chunk(9, [0, 1, 6, 7, 8])
        rs = [2, 5, Fraction(3, 2), 2, 3]
        got = profile_table(c, rs, 4)
        # r = 2 reads degree 4 (radius 2) from r = 3/2, and r = 5 follows r = 3 unsearched
        assert searched == [(Fraction(3, 2), n) for n in range(1, 5)] + [(3, 4)]
        assert [res.n if isinstance(res, ProfileCertificate) else None for res in got] == \
            [4, None, 4, 4, None]
        assert [res.r for res in got if isinstance(res, ProfileCertificate)] == \
            [2, Fraction(3, 2), 2]
        assert got[1] == got[4] == Exhausted(4)
        assert got[0] == got[3]
        for r, res in zip(rs, got):
            expected = sofic_profile(c, r, 4)
            if isinstance(expected, Exhausted):
                assert res == Exhausted(4)
            else:
                assert (res.n, res.assignment) == (expected.n, expected.assignment)

    def test_searches_each_degree_once_from_the_last_least(self, searched):
        c = cyclic_chunk(9, [0, 1, 6, 7, 8])
        least = {r: sofic_profile(c, r, 6).n for r in SWEEP_RS}
        searched.clear()
        profile_table(c, reversed(SWEEP_RS), 6)
        keys = [memo_key(r, n) for r, n in searched]
        assert len(keys) == len(set(keys))
        assert [r for r, _ in searched] == sorted(r for r, _ in searched)
        for r, n in searched:
            below = [least[s] for s in SWEEP_RS if s < r]
            assert n >= max(below, default=1)
            assert n <= least[r]

    def test_realize_searches_each_degree_once(self, z3, searched, capsys):
        least = {r: sofic_profile(z3, r, 8).n for r in range(2, 25)}
        outs = []
        for workers in ("1", "2"):
            searched.clear()
            assert main(["--workers", workers, "realize", "--chunk", data_path("z3.chunk"),
                         "--depth", "24"]) == 0
            outs.append(capsys.readouterr().out)
            keys = {memo_key(r, n) for r, n in searched}
            # stage by stage from degree 1, the searches would number 69
            assert len(searched) == len(keys) == 4
            assert all(r == 2 or n >= least[r - 1] for r, n in searched)
        assert outs[0] == outs[1]

    def test_rejects_r_below_one_before_searching(self, z3, searched):
        with pytest.raises(ValueError, match="r must be at least 1"):
            profile_table(z3, [3, Fraction(1, 2)], 4)
        assert searched == []


class TestWitnessProperties:
    def test_certificate_soundness(self, z3):
        cert = sofic_profile(z3, 2, 5)
        assert measure(z3, cert.assignment) == cert.quality
        assert cert.quality.meets(Fraction(2))

    def test_conjugation_preserves_quality(self, z3):
        cert = sofic_profile(z3, 2, 5)
        rng = random.Random(7)
        for _ in range(10):
            images = list(range(cert.n))
            rng.shuffle(images)
            k = Perm(tuple(images))
            conj = {e: compose(inverse(k), compose(p, k))
                    for e, p in cert.assignment.items()}
            assert measure(z3, conj) == cert.quality

    @pytest.mark.parametrize("fixture,order", [("z2", 2), ("z3", 3), ("klein", 4)])
    def test_group_trace_bounded_by_group_order(self, fixture, order, request):
        c = request.getfixturevalue(fixture)
        for r in (2, 3, 5):
            cert = sofic_profile(c, r, order)
            assert cert.n <= order

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_left_regular_representation_is_perfect(self, order):
        def mult(a, b):
            return f"g{(int(a[1:]) + int(b[1:])) % order}"
        elems = [f"g{i}" for i in range(order)]
        c = induced_chunk(elems, "g0", mult)
        regular = {}
        for i, e in enumerate(elems):
            regular[e] = Perm(tuple((i + j) % order for j in range(order)))
        q = measure(c, regular)
        assert q.defect == 0
        assert q.expansiveness == 1 or order == 1


class TestDecideProduct:
    def make_cert(self, chunk, r=3, n_max=6):
        cert = sofic_profile(chunk, r, n_max)
        assert isinstance(cert, ProfileCertificate)
        return cert

    def test_equal_square(self, z2):
        cert = self.make_cert(z2)
        assert decide_product(z2, "a", "a", "1", cert) == "equal"

    def test_distinct_square(self, z2):
        cert = self.make_cert(z2)
        assert decide_product(z2, "a", "a", "a", cert) == "distinct"

    def test_unit_law(self, z2):
        cert = self.make_cert(z2)
        assert decide_product(z2, "1", "a", "a", cert) == "equal"

    def test_wrong_r_rejected(self, z2):
        cert = sofic_profile(z2, 2, 5)
        with pytest.raises(ValueError):
            decide_product(z2, "a", "a", "1", cert)

    def test_weak_certificate_rejected(self):
        # hand-built r=3 "certificate" landing the product distance in the gap
        elems = ("1", "i", "j", "k")
        table = {("1", e): e for e in elems}
        table.update({(e, "1"): e for e in elems if e != "1"})
        c = Chunk(elems, "1", table)
        assignment = {
            "1": identity(4),
            "i": identity(4),
            "j": transposition(4, 0, 1),
            "k": Perm((1, 0, 3, 2)),
        }
        cert = ProfileCertificate(Fraction(3), 4, assignment,
                                  measure(c, assignment), ())
        with pytest.raises(ValueError, match="too weak"):
            decide_product(c, "i", "j", "k", cert)


def test_measure_defect_zero_without_any_products():
    c = Chunk(("1", "a"), "1", {})
    q = measure(c, {"1": identity(2), "a": transposition(2, 0, 1)})
    assert q.defect == 0
    assert q.expansiveness == 1


class TestRandomizedOracleEquivalence:
    """Differential testing on random valid partial tables beyond the corpus.

    Dropping non-unit products from a group trace never breaks validation
    (every checked condition only quantifies over defined entries), so random
    subtables of small group traces give a rich pool of valid chunks.
    """

    def random_chunks(self, rng, count):
        from soficapprox.chunk import induced_chunk, validate
        from soficapprox.permcore import compose as pcompose, identity

        pool = []
        s3 = all_perms(3)
        names = {p: f"p{i}" for i, p in enumerate(s3)}
        back = {v: k for k, v in names.items()}
        while len(pool) < count:
            if rng.random() < 0.5:
                order = rng.randint(2, 6)
                size = rng.randint(2, min(3, order))
                elems = [f"g{i}" for i in range(size)]
                mult = lambda a, b, k=order: f"g{(int(a[1:]) + int(b[1:])) % k}"
                c = induced_chunk(elems, "g0", mult)
            else:
                extra = rng.sample([p for p in s3 if p != identity(3)], rng.randint(1, 2))
                elems = [names[identity(3)]] + [names[p] for p in extra]
                c = induced_chunk(elems, names[identity(3)],
                                  lambda a, b: names[pcompose(back[a], back[b])])
            droppable = [key for key in c.table
                         if c.unit not in key and c.table[key] != key[0] and c.table[key] != key[1]]
            keep = dict(c.table)
            for key in droppable:
                if rng.random() < 0.4:
                    del keep[key]
            c = Chunk(c.elements, c.unit, keep)
            if validate(c).ok:
                pool.append(c)
        return pool

    def test_random_partial_tables_match_oracle(self):
        from soficapprox.profile import _backtrack

        rng = random.Random(0xD1FF)
        for c in self.random_chunks(rng, 12):
            for r in (2, 3):
                for n in range(1, 5):
                    witness, _ = _backtrack(c, Fraction(r), n)
                    assert (witness is not None) == brute_force_feasible(c, r, n), \
                        (c, r, n)


def cyclic_chunk(m, elems=None):
    elems = range(m) if elems is None else elems
    return induced_chunk([str(x) for x in elems], "0",
                         lambda a, b: str((int(a) + int(b)) % m))


def symmetric3_chunk(images):
    names = {p: "".join(map(str, p.images)) for p in all_perms(3)}
    back = {v: k for k, v in names.items()}
    return induced_chunk(list(images), "012", lambda a, b: names[compose(back[a], back[b])])


def column_major(c):
    """The same chunk with its table listed column by column, which changes
    the first product that fixes each element."""
    pos = {e: i for i, e in enumerate(c.elements)}
    items = sorted(c.table.items(), key=lambda kv: (pos[kv[0][1]], pos[kv[0][0]]))
    return Chunk(c.elements, c.unit, dict(items))


REFERENCE_CASES = [
    ("Z5", cyclic_chunk(5), 5, 5),
    ("Z6", cyclic_chunk(6), 6, 6),
    ("Z5-reordered", cyclic_chunk(5, [0, 3, 2, 1, 4]), 5, 5),
    ("Z5@7/2", cyclic_chunk(5), Fraction(7, 2), 5),
    ("Z5{0,1,2,4}-columns", column_major(cyclic_chunk(5, [0, 1, 2, 4])), 5, 5),
    ("Z9{0,1,6,7,8}", cyclic_chunk(9, [0, 1, 6, 7, 8]), 3, 5),
    ("S3", symmetric3_chunk(["012", "021", "102", "120", "201", "210"]), 2, 6),
    ("S3-reordered", symmetric3_chunk(["012", "201", "021", "102", "120", "210"]), 3, 5),
    ("S3-columns", column_major(symmetric3_chunk(["012", "120", "021", "102", "201", "210"])),
     3, 5),
]


class TestReferenceSearch:
    """The integer, ball-driven search against the full-pool ``Fraction``
    search it replaced: same witness and same node count at every degree."""

    @pytest.mark.parametrize("fixture", ["trivial", "z2", "z3", "open2", "z4trace", "klein"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_fixture_chunks(self, fixture, r, request):
        c = request.getfixturevalue(fixture)
        for n in range(1, 6):
            assert _search_degree(c, Fraction(r), n, 1) == reference_backtrack(c, r, n), n

    @pytest.mark.parametrize("name,c,r,n_max", REFERENCE_CASES, ids=[k[0] for k in REFERENCE_CASES])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_group_chunks(self, name, c, r, n_max, workers):
        for n in range(1, n_max + 1):
            assert _search_degree(c, Fraction(r), n, workers) == reference_backtrack(c, r, n), n

    def test_cases_cover_every_ball_role(self):
        roles = {ball[0] for _, c, _, _ in REFERENCE_CASES
                 for ball in _search_plan(c)[2] if ball is not None}
        assert roles == {0, 1, 2}  # new element as left factor, right factor, product

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ball_is_filtered_symmetric_group(self, n):
        everything = list(itertools.permutations(range(n)))
        centres = everything if n <= 4 else random.Random(n).sample(everything, 4 if n < 8 else 2)
        for centre in centres:
            for radius in range(n + 1):
                expected = [p for p in everything if sum(map(ne, p, centre)) <= radius]
                assert list(_hamming_ball(centre, radius)) == expected, (centre, radius)
            assert _hamming_ball(centre, 0) == _hamming_ball(centre, 1) == [centre]

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("radius", [2, 3, 4])
    def test_ball_lists_each_member_once_in_lex_order(self, n, radius):
        # S_n is too large to filter here: the members must be strictly
        # increasing, within the radius, and as many as the ball has
        rng = random.Random(10 * n + radius)
        for _ in range(3):
            centre = tuple(rng.sample(range(n), n))
            ball = list(_hamming_ball(centre, radius))
            assert all(p < q for p, q in zip(ball, ball[1:]))
            assert all(sorted(p) == list(range(n)) and sum(map(ne, p, centre)) <= radius
                       for p in ball)
            assert len(ball) == profile._ball_size(n, radius)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lex_rank_is_listing_index(self, n):
        listing = all_perms(n)
        assert [_lex_rank(p.images) for p in listing] == [listing.index(p) for p in listing]
        assert len(listing) == factorial(n)


def forced_chunks(rng, count):
    """Random partial tables of subgroups of Z_m with at least one ball
    triple: each non-unit product is kept with probability 0.7."""
    chunks = []
    while len(chunks) < count:
        m = rng.randint(4, 12)
        c = cyclic_chunk(m, [0] + rng.sample(range(1, m), rng.randint(3, 4)))
        keep = {k: v for k, v in c.table.items() if c.is_unit_product(*k, v) or rng.random() < 0.7}
        c = Chunk(c.elements, c.unit, keep)
        if validate(c).ok and any(_search_plan(c)[2]):
            chunks.append(c)
    return chunks


class TestForcedDepths:
    """A ball of radius 0 or 1 is its centre alone, so its depth places
    that centre or fails: same witness and nodes as the full-pool search."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_partial_tables_match_reference(self, seed):
        chunks = forced_chunks(random.Random(seed), 14)
        balls = [_search_plan(c)[2] for c in chunks]
        assert {ball[0] for plan in balls for ball in plan if ball} == {0, 1, 2}
        assert any(x and y for plan in balls for x, y in zip(plan, plan[1:]))  # two in a row
        assert any(plan[-1] for plan in balls)  # a forced last depth
        outcomes = set()
        for c in chunks:
            # radius 0 at r = n + 1 and radius 1 at r = n; degree 5 at
            # radius 1 costs the reference seconds on some tables
            for n, r in [(n, Fraction(n + 1)) for n in range(2, 6)] + \
                        [(n, Fraction(n)) for n in range(2, 5)]:
                got = _backtrack(c, r, n)
                assert got == reference_backtrack(c, r, n), (c, r, n)
                outcomes.add((threshold_radius(n, r), got[0] is not None))
        assert outcomes == {(0, False), (0, True), (1, False), (1, True)}

    def test_z12_records_below_degree_7(self):
        c = cyclic_chunk(12, [0, 1, 6, 8, 9])
        assert _search_plan(c)[2] == [None, None, None, (2, 1, 3, 4)]  # 9 = 1 + 8, forced
        found = sofic_profile(c, 4, 6)
        assert isinstance(found, Exhausted)
        assert found.records == tuple(DegreeRecord(d, k) for d, k in enumerate(
            (1, 4, 9, 1493, 262207, 10540091), start=1))


# Pool kinds by depth at one degree: a chunk, r, the degree and each depth's
# kind.  {0,1,6,8,9} in Z12 at r = 4 is tests/data/z12r4trace.cert, whose
# forced last depth at degree 7 draws 1.2 M ball centres.
POOL_KIND_ROWS = [
    ("Z7@7 n=7", cyclic_chunk(7), 7, 7, ["first"] + ["forced"] * 5),
    ("Z12{0,1,6,8,9}@4 n=7", cyclic_chunk(12, [0, 1, 6, 8, 9]), 4, 7,
     ["first", "decided", "decided", "forced"]),
    ("Z12{0,1,6,8,9}@4 n=8", cyclic_chunk(12, [0, 1, 6, 8, 9]), 4, 8, ["first"] + ["decided"] * 3),
    ("Z12@3 n=9", cyclic_chunk(12), 3, 9, ["first"] + ["decided"] * 10),
    ("Z12@3 n=10", cyclic_chunk(12), 3, 10, ["first"] + ["ball"] * 10),
    ("Z12@3 n=11", cyclic_chunk(12), 3, 11, ["first"] + ["ball"] * 10),
    ("Z19{0,2,3,6,11,12,15}@4 n=9", cyclic_chunk(19, [0, 2, 3, 6, 11, 12, 15]), 4, 9,
     ["first", "decided", "ball", "decided", "ball", "ball"]),
    ("Z19{0,2,3,6,11,12,15}@4 n=10", cyclic_chunk(19, [0, 2, 3, 6, 11, 12, 15]), 4, 10,
     ["first", "decided", "ball", "decided", "ball", "ball"]),
    ("Z19{0,2,3,6,11,12,15}@4 n=11", cyclic_chunk(19, [0, 2, 3, 6, 11, 12, 15]), 4, 11,
     ["first", "all", "ball", "all", "ball", "ball"]),
]


@pytest.mark.parametrize("name,c,r,n,kinds", POOL_KIND_ROWS, ids=[row[0] for row in POOL_KIND_ROWS])
def test_pool_kinds_by_depth(name, c, r, n, kinds):
    assert _pool_kinds(_search_plan(c)[2], n, threshold_radius(n, Fraction(r))) == kinds


def closure(gens, n):
    """The group that ``gens`` generate in S_n, as image tuples."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        g = todo.pop()
        for s in gens:
            h = tuple(s[x] for x in g)
            if h not in group:
                group.add(h)
                todo.append(h)
    return group


# The symmetries of a square as permutations of its corners, the rotations first.
DIHEDRAL4 = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2),
             (0, 3, 2, 1), (2, 1, 0, 3), (1, 0, 3, 2), (3, 2, 1, 0)]


def dihedral4_chunk(indices):
    names = {p: f"d{i}" for i, p in enumerate(DIHEDRAL4)}
    back = {v: k for k, v in names.items()}
    return induced_chunk([f"d{i}" for i in indices], "d0",
                         lambda a, b: names[tuple(back[a][x] for x in back[b])])


def partial_traces(rng, count):
    """Random partial traces with three non-unit elements, of Z_m and of D4
    in turn; each non-unit product is kept with probability 0.7."""
    chunks = []
    while len(chunks) < count:
        if len(chunks) % 2:
            c = dihedral4_chunk([0] + rng.sample(range(1, 8), 3))
        else:
            m = rng.randint(5, 16)
            c = cyclic_chunk(m, [0] + rng.sample(range(1, m), 3))
        keep = {k: v for k, v in c.table.items() if c.is_unit_product(*k, v) or rng.random() < 0.7}
        c = Chunk(c.elements, c.unit, keep)
        if validate(c).ok:
            chunks.append(c)
    return chunks


@st.composite
def renamed_cyclic_traces(draw):
    """A partial trace of Z_m (m <= 10) with up to five elements, each non-unit
    product kept or dropped, and an injective renaming of its elements."""
    m = draw(st.integers(2, 10))
    others = draw(st.lists(st.integers(1, m - 1), unique=True, min_size=1,
                           max_size=min(4, m - 1)))
    c = cyclic_chunk(m, [0] + others)
    c = Chunk(c.elements, c.unit, {k: v for k, v in c.table.items()
                                   if c.is_unit_product(*k, v) or draw(st.booleans())})
    new = draw(st.lists(st.text("abcxyz019_", min_size=1, max_size=3),
                        min_size=len(c.elements), max_size=len(c.elements), unique=True))
    return c, dict(zip(c.elements, new))


class TestRenaming:
    """Renaming the elements, each kept in its position, renames the profile:
    the search reads positions, never names."""

    @given(renamed_cyclic_traces(), st.sampled_from([2, 3]), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_profile_keeps_degree_records_and_witness(self, traced, r, n_max):
        c, names = traced
        want = sofic_profile(c, r, n_max)
        got = sofic_profile(rename_chunk(c, names), r, n_max)
        if isinstance(want, Exhausted):
            assert got == want
        else:
            assert (got.n, got.infeasible, got.quality) == (want.n, want.infeasible, want.quality)
            assert got.assignment == {names[x]: p for x, p in want.assignment.items()}


class TestOrbitCounts:
    """The second depth adds a failed subtree's count for each of its root's
    conjugates under the centralizer of the first image, without searching
    them: same witness and nodes as the full-pool search."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_centralizer_gens_generate_the_centralizer(self, n):
        everything = list(itertools.permutations(range(n)))
        for t in all_cycle_types(n):
            c = cycle_type_representative(t, n).images
            gens = profile._centralizer_gens(c)
            assert all(tuple(s[x] for x in c) == tuple(c[x] for x in s) for s in gens), c
            group = closure(gens, n)
            order = 1
            for k in set(t.parts):
                m_k = t.parts.count(k)
                order *= k ** m_k * factorial(m_k)
            assert len(group) == order, c
            if n <= 5:
                assert group == {s for s in everything
                                 if tuple(s[x] for x in c) == tuple(c[x] for x in s)}, c

    def test_conjugates_are_the_orbit(self):
        rng = random.Random(5)
        everything = list(itertools.permutations(range(5)))
        for t in all_cycle_types(5):
            c = cycle_type_representative(t, 5).images
            group = closure(profile._centralizer_gens(c), 5)
            for g in rng.sample(everything, 6):
                orbit = {tuple(s[g[x]] for x in profile._inverse(s)) for s in group}
                assert profile._conjugates(g, profile._centralizer_gens(c)) == orbit, (c, g)

    def test_random_partial_traces_match_reference(self, monkeypatch, orbit_sizes):
        # 30 traces, at r = 3 and 4 and every degree up to 6: about 650,000
        # reference nodes; the first two also on two workers at r = 3
        searched, orbits = Counter(), Counter()

        def search(c, r, n, want):
            """One degree, counted under its second depth's pool kind and
            whether that depth has a ball triple: a depth without one and a
            ball cut out of a bitset are both decided."""
            balls_at = _search_plan(c)[2]
            key = (_pool_kinds(balls_at, n, threshold_radius(n, r))[1], balls_at[1] is not None)
            orbit_sizes.clear()
            assert _backtrack(c, r, n) == want, (c, r, n)
            searched[key] += 1
            orbits[key] += any(size > 1 for size in orbit_sizes)
            return key

        chunks = partial_traces(random.Random(24), 30)
        for c in chunks:
            for r in map(Fraction, (3, 4)):
                for n in range(1, 7):
                    want = reference_backtrack(c, r, n)
                    if search(c, r, n, want) == ("decided", True):
                        # with no ranks allowed per ball member, the ball
                        # is listed and checked instead of cut out of a bitset
                        with monkeypatch.context() as m:
                            m.setattr(profile, "_RANKS_PER_BALL_MEMBER", 0)
                            assert search(c, r, n, want) == ("ball", True)
                    if c in chunks[:2] and r == 3:
                        assert _search_degree(c, r, n, 2) == want, (c, n)
        assert set(searched) == {("forced", True), ("decided", False), ("decided", True),
                                 ("ball", True)}
        assert orbits[("forced", True)] == 0
        assert orbits[("decided", False)] and orbits[("decided", True)] \
            and orbits[("ball", True)], orbits


def passes_checks(f, new, triples, radius, min_sep, cand):
    """``_backtrack``'s checks on ``cand`` as the image of element ``new``."""
    g = f[:new] + [cand]
    return (all(sum(map(ne, h, cand)) >= min_sep for h in f[:new])
            and all(sum(map(ne, g[ab], [g[a][v] for v in g[b]])) <= radius
                    for a, b, ab in triples))


class TestBitsetPool:
    """Free depths draw their candidates from bitsets over the lex ranks of
    S_n; the pool must be exactly the candidates that pass the checks."""

    def test_rank_masks_mark_each_image(self):
        for n in range(1, 7):
            masks = _rank_masks(n)
            for i, p in enumerate(itertools.permutations(range(n))):
                assert [[masks[x][v] >> i & 1 for v in range(n)] for x in range(n)] == \
                    [[int(p[x] == v) for v in range(n)] for x in range(n)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_decode_lists_set_ranks_in_order(self, n):
        everything = list(itertools.permutations(range(n)))
        rng = random.Random(n)
        full = (1 << len(everything)) - 1
        for live in (0, full, 1, 1 << (len(everything) - 1), rng.getrandbits(len(everything)),
                     sum(1 << rng.randrange(len(everything)) for _ in range(3))):
            want = [p for i, p in enumerate(everything) if live >> i & 1]
            assert list(_decode(live, n)) == want

    @pytest.mark.parametrize("n", range(1, 8))
    def test_pool_is_filtered_symmetric_group(self, n):
        everything = list(itertools.permutations(range(n)))
        rng = random.Random(100 + n)
        new = 3  # elements 0 (the unit), 1 and 2 are placed
        ident = tuple(range(n))
        # squares, the only shapes of a validated chunk in which the new
        # element occurs twice, and shapes in which it occurs once, also
        # those only an unvalidated table has, such as (e, b, c) with b != c
        shapes = [(3, 3, 1), (3, 3, 0), (0, 3, 1), (0, 1, 3),
                  (3, 0, 2), (1, 2, 3), (3, 2, 1), (2, 3, 1)]
        for trial in range(6 if n < 7 else 1):
            f = [ident] + [rng.choice(everything) for _ in range(new - 1)] + [ident]
            if trial == 5:
                f[1] = f[2] = ident  # the square (3, 3, 1) then asks for an involution
            for r in map(Fraction, (1, Fraction(3, 2), 2, 3, 7)):
                num, den = r.numerator, r.denominator
                radius, min_sep = n * den // num, -(-n * (num - den) // num)
                separated = (1 << len(everything)) - 1
                for g in f[:new] if min_sep > 0 else ():
                    # the separation set: agreeing with g in at most the radius
                    separated &= ~_agreement_set(g, radius + 1, False)
                for triples in [[]] + [[t] for t in shapes] + [rng.sample(shapes, 3)]:
                    want = [p for p in everything
                            if passes_checks(f, new, triples, radius, min_sep, p)]
                    assert list(_bitset_pool(f, new, triples, radius, separated,
                                             _agreement_set)) == want, (f, triples, r)

    def test_backtrack_matches_reference_on_sparse_traces(self):
        # five traces, three of them searched up to degree 6, with five free
        # depths past the first among them: 129956 reference nodes in all
        rng = random.Random(23)
        free_depths = degree_6 = 0
        for _ in range(5):
            m = rng.randint(9, 14)
            c = cyclic_chunk(m, [0] + sorted(rng.sample(range(1, m), 4)))
            free_depths += _search_plan(c)[2][1:].count(None)
            for n in range(1, 7):
                got = _backtrack(c, Fraction(3), n)
                assert got == reference_backtrack(c, 3, n), (c, n)
                if got[0] is not None:
                    break
            degree_6 += n == 6
        assert free_depths == 5 and degree_6 == 3

    def test_mask_size_rule_both_sides(self, monkeypatch):
        c = cyclic_chunk(12, [0, 4, 6, 9, 10])
        want = {n: reference_backtrack(c, 3, n) for n in (5, 6)}
        built = []
        rank_masks = profile._rank_masks

        def spy(n):
            built.append(n)
            return rank_masks(n)

        monkeypatch.setattr(profile, "_rank_masks", spy)
        monkeypatch.setattr(profile, "_MASK_TABLE_BYTES", 5 * 5 * factorial(5) // 8)
        balls_at = _search_plan(c)[2]
        assert _pool_kinds(balls_at, 5, 1) == ["first", "decided", "decided", "forced"]
        assert _pool_kinds(balls_at, 6, 2) == ["first", "all", "all", "ball"]
        assert _backtrack(c, Fraction(3), 5) == want[5]
        assert built and max(built) == 5  # degree 5 sits exactly at the limit
        built.clear()
        assert _backtrack(c, Fraction(3), 6) == want[6]
        assert built == []  # degree 6 is past it: S_6 one candidate at a time

    @pytest.mark.parametrize("n", range(1, 8))
    def test_centre_set_counts_agreements(self, n):
        # a triple in which the new element occurs once: the agreements with
        # the ball centre, one mask per point, are the agreements of the product
        everything = list(itertools.permutations(range(n)))
        rng = random.Random(300 + n)
        new = 3
        shapes = [(3, 1, 2), (1, 3, 2), (1, 2, 3), (3, 2, 2), (0, 3, 1), (2, 0, 3)]
        assert {t.index(new) for t in shapes} == {0, 1, 2}
        for _ in range(4 if n < 7 else 2):
            f = [tuple(range(n))] + [rng.choice(everything) for _ in range(new - 1)] + [None]
            for t in shapes:
                for radius in range(n):
                    want = sum(1 << i for i, p in enumerate(everything)
                               if passes_checks(f, new, [t], radius, 0, p))
                    assert _agreement_set(*_product_key(f, new, t, radius)) == want, \
                        (f, t, radius)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_agreement_set_counts_agreements(self, n):
        everything = list(itertools.permutations(range(n)))
        rng = random.Random(500 + n)
        for _ in range(3 if n < 7 else 1):
            p = rng.choice(everything)
            for k in range(1, n + 2):
                for square in (False, True):
                    want = sum(1 << i for i, q in enumerate(everything)
                               if sum(q[q[x]] == v if square else q[x] == v
                                      for x, v in enumerate(p)) >= k)
                    assert _agreement_set(p, k, square) == want, (p, k, square)

    def test_masks_built_only_for_a_drawn_bitset_pool(self, monkeypatch):
        built = []
        rank_masks = profile._rank_masks
        monkeypatch.setattr(profile, "_rank_masks", lambda n: built.append(n) or rank_masks(n))
        # Z4 at r = 4: every depth has a ball triple of radius at most 1
        c = cyclic_chunk(4)
        for n in range(1, 5):
            assert _backtrack(c, Fraction(4), n) == reference_backtrack(c, 4, n), n
        assert built == []
        # at r = 2 degree 4 has radius 2, so its ball depths draw bitsets
        assert _backtrack(c, Fraction(2), 4) == reference_backtrack(c, 2, 4)
        assert built and max(built) == 4

    @pytest.mark.parametrize("ranks_per_member,table_bytes,drawn", [
        (45, 6 * 6 * 720 // 8, True),  # exactly at both limits: bitset pools
        (44, 6 * 6 * 720 // 8, False),  # too few ranks per member
        (45, 6 * 6 * 720 // 8 - 1, False),  # masks over the budget
    ])
    def test_ball_pool_rule_both_sides(self, monkeypatch, ranks_per_member, table_bytes, drawn):
        # Z5 at r = 3, degree 6: every depth past the first is a ball of
        # radius 2 with 16 members, and S_6 has 720 = 45 * 16 ranks
        c = cyclic_chunk(5)
        built = []
        rank_masks = profile._rank_masks
        monkeypatch.setattr(profile, "_rank_masks", lambda n: built.append(n) or rank_masks(n))
        monkeypatch.setattr(profile, "_RANKS_PER_BALL_MEMBER", ranks_per_member)
        monkeypatch.setattr(profile, "_BALL_MASK_TABLE_BYTES", table_bytes)
        assert _pool_kinds(_search_plan(c)[2], 6, 2) == \
            ["first"] + ["decided" if drawn else "ball"] * 3
        assert _backtrack(c, Fraction(3), 6) == reference_backtrack(c, 3, 6)
        # without bitset pools each ball is stepped through and checked
        assert max(built, default=0) == (6 if drawn else 0)

    def test_ball_size_counts_the_ball(self):
        for n in range(1, 7):
            everything = list(itertools.permutations(range(n)))
            for radius in range(n + 2):
                assert profile._ball_size(n, radius) == \
                    sum(sum(map(ne, p, everything[0])) <= radius for p in everything)

    def test_plan_skips_unit_products_only(self, klein):
        for triples in _search_plan(klein)[1]:
            assert not any((a == 0 and b == ab) or (b == 0 and a == ab) for a, b, ab in triples)
        assert sum(map(len, _search_plan(klein)[1])) == 9  # 16 products less 7 unit products
        loose = Chunk(("1", "a", "b"), "1", {("1", "a"): "b", ("a", "1"): "a", ("a", "a"): "a"})
        assert _search_plan(loose)[1:] == ([[(1, 1, 1)], [(0, 1, 2)]], [None, (2, 0, 1, 2)],
                                           [[(1, 1, 1)], []])


def at_least_by_popcount(k, sets, width):
    """Bits below ``width`` set in at least ``k`` of ``sets``, one bit at a time."""
    columns = zip(*(format(s, f"0{width}b").encode() for s in sets))
    return int("".join("1" if col.count(ord("1")) >= k else "0" for col in columns), 2)


class TestAtLeast:
    """``_at_least`` skips the counters that can no longer reach k; it must
    still mark exactly the bits set in at least k of the sets."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_popcount(self, n):
        width = factorial(n)
        masks = _rank_masks(n)
        rng = random.Random(400 + n)
        for k in range(1, n + 2):
            random_sets = [rng.getrandbits(width) for _ in range(n)]
            mask_rows = [masks[x][rng.randrange(n)] for x in range(n)]
            image_rows = [masks[x][v] for x, v in enumerate(rng.sample(range(n), n))]
            for sets in (random_sets, mask_rows, image_rows):
                got = profile._at_least(k, sets)
                assert got == at_least_by_popcount(k, sets, width), (n, k, sets)
                assert k <= n or got == 0  # a k above the number of sets marks nothing

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_matches_popcount_at_degree_9(self, k):
        masks = _rank_masks(9)
        rng = random.Random(409 + k)
        sets = [masks[x][v] for x, v in enumerate(rng.sample(range(9), 9))]
        assert profile._at_least(k, sets) == at_least_by_popcount(k, sets, factorial(9))

    def test_schedule_drops_counters_that_cannot_reach_k(self):
        # n = 9, r = 3: a product test needs 6 of 9 agreements
        schedule = profile._counter_schedule(9, 6)
        assert sum(2 * len(steps) + first for steps, first in schedule) == 44  # 69 unpruned
        assert schedule[-1] == ((5,), False)  # only the counter of k - 1 is read


def lifetime_traces(rng, count):
    """Partial traces of Z_m and D4 with a triple whose deepest member other
    than its new element is placed at least two depths above it, and a
    product at every depth past the first, which keeps the reference quick."""
    chunks = []
    while len(chunks) < count:
        c = partial_traces(rng, 2)[len(chunks) % 2]  # of Z_m and of D4 in turn
        triples_at = _search_plan(c)[1]
        if all(triples_at[1:]) and any(
                1 <= max((x for x in t if x != new), default=0) <= new - 2
                for new, triples in enumerate(triples_at, start=1) for t in triples):
            chunks.append(c)
    return chunks


class TestAgreementCache:
    """Each degree builds its agreement sets through one bounded cache: the
    same witness and nodes as the reference, no set built twice while the
    cache holds it, and the same again with room for one set only."""

    def test_random_partial_traces_match_reference(self, monkeypatch):
        built = []
        agreement_set = profile._agreement_set

        def spy(p, k, square):
            built.append((p, k, square))
            return agreement_set(p, k, square)

        monkeypatch.setattr(profile, "_agreement_set", spy)
        chunks = lifetime_traces(random.Random(25), 8)
        cached_builds = one_set_builds = 0
        for c in chunks:
            balls_at = _search_plan(c)[2]
            for r in map(Fraction, (3, 4)):
                for n in range(1, 7):
                    want = reference_backtrack(c, r, n)
                    kinds = _pool_kinds(balls_at, n, threshold_radius(n, r))
                    built.clear()
                    assert _backtrack(c, r, n) == want, (c, r, n)
                    # up to n = 6 the cache has room for every set a degree builds
                    assert len(set(built)) == len(built), (c, r, n)
                    cached_builds += len(built)
                    with monkeypatch.context() as m:
                        # room for the n * n masks and one set of n!/8 bytes
                        # (for n >= 3; below that a byte holds more)
                        m.setattr(profile, "_MASK_TABLE_BYTES",
                                  -(-(n * n + 1) * factorial(n) // 8))
                        # which narrows the cache alone, not the pools
                        assert _pool_kinds(balls_at, n, threshold_radius(n, r)) == kinds
                        built.clear()
                        assert _backtrack(c, r, n) == want, (c, r, n)
                        # a set is built again only once another replaced it
                        assert n < 3 or all(map(ne, built, built[1:])), (c, r, n)
                        one_set_builds += len(built)
                    if c in chunks[:3]:
                        assert _search_degree(c, r, n, 2) == want, (c, r, n)
        assert 0 < cached_builds < one_set_builds, (cached_builds, one_set_builds)


# Rows of the ROADMAP baseline table at r = 3, whose ball depths draw decided
# bitset pools from degree 6 on: the least degree, the lex ranks of the
# witness images in element order, and the nodes of every degree below it.
BASELINE_ROWS = [
    ("Z16{0,2,4,7,9,14}", 16, (0, 2, 4, 7, 9, 14), 6, (0, 150, 288, 169, 247, 360),
     (1, 4, 39, 461, 11647)),
    ("Z13{0,1,6,8,9,12}", 13, (0, 1, 6, 8, 9, 12), 6, (0, 147, 181, 598, 666, 258),
     (1, 4, 63, 1013, 32167)),
    ("Z12{0,1,2,4,5,7}", 12, (0, 1, 2, 4, 5, 7), 8, (0, 5889, 11560, 2592, 23632, 35136),
     (1, 4, 21, 125, 847, 974171, 12237135)),
]


@pytest.mark.parametrize("name,m,elems,least,ranks,nodes", BASELINE_ROWS,
                         ids=[row[0] for row in BASELINE_ROWS])
def test_baseline_rows_keep_witness_and_records(name, m, elems, least, ranks, nodes):
    cert = sofic_profile(cyclic_chunk(m, elems), 3, least)
    assert cert.n == least
    assert [_lex_rank(cert.assignment[str(x)].images) for x in elems] == list(ranks)
    assert cert.infeasible == tuple(DegreeRecord(d, k) for d, k in enumerate(nodes, start=1))


def test_z10_row_whose_sets_overflow_the_cache(monkeypatch):
    # Full Z10 at r = 3: degree 9 asks for more agreement sets than its cache
    # holds, so it drops and rebuilds some.  Pinned: the least degree, the
    # lex ranks of the witness images in element order and the nodes of
    # every degree below it, none of which a dropped set may change.
    built = []
    agreement_set = profile._agreement_set

    def spy(p, k, square):
        built.append((p, k, square))
        return agreement_set(p, k, square)

    monkeypatch.setattr(profile, "_agreement_set", spy)
    cert = sofic_profile(cyclic_chunk(10), 3, 9)
    at_9 = [key for key in built if len(key[0]) == 9]
    # more distinct sets than the cache's room beside the masks, some built twice
    assert len(set(at_9)) > 8 * profile._MASK_TABLE_BYTES // factorial(9) - 9 * 9
    assert len(at_9) > len(set(at_9))
    assert cert.n == 9
    assert [_lex_rank(cert.assignment[str(x)].images) for x in range(10)] == \
        [0, 46209, 90976, 128564, 104220, 231072, 277065, 320505, 342827, 161397]
    assert cert.infeasible == tuple(DegreeRecord(d, k) for d, k in enumerate(
        (1, 4, 21, 149, 1087, 336971, 4415055, 60883222), start=1))


# Full Z10 at r = 4 and r = 5, whose ball depths at degrees 9 and 10 have
# radius 2 and are stepped through and checked, not cut out of bitsets: r,
# the least degree, the lex ranks of the witness images in element order,
# and the nodes of every degree below it.
CHECKED_BALL_ROWS = [
    ("Z10@4", 4, 9, (0, 46233, 52144, 98371, 144580, 190698, 236256, 277800, 286560, 322560),
     (1, 4, 15, 149, 1087, 9371, 80655, 60883222)),
    ("Z10@5", 5, 10,
     (0, 409112, 455340, 864434, 1273452, 1681992, 2087040, 2463120, 2570400, 2903040),
     (1, 4, 15, 101, 1087, 9371, 80655, 846742, 10160670)),
]


@pytest.mark.parametrize("name,r,least,ranks,nodes", CHECKED_BALL_ROWS,
                         ids=[row[0] for row in CHECKED_BALL_ROWS])
def test_checked_ball_rows_keep_witness_and_records(name, r, least, ranks, nodes):
    cert = sofic_profile(cyclic_chunk(10), r, least)
    assert cert.n == least
    assert [_lex_rank(cert.assignment[str(x)].images) for x in range(10)] == list(ranks)
    assert cert.infeasible == tuple(DegreeRecord(d, k) for d, k in enumerate(nodes, start=1))
