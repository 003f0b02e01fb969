import glob
import itertools
import os
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficapprox.chunk import (
    Chunk,
    ChunkParseError,
    format_chunk,
    induced_chunk,
    parse_chunk,
    parse_chunk_file,
    validate,
)
from soficapprox.permcore import compose, identity, transposition

from conftest import DATA
from oracles import (ChunkMap, all_perms, chunk_mult, compose_maps, is_homomorphism,
                     reference_validate, rename_chunk)


class TestValidate:
    def test_z2_valid(self, z2):
        assert validate(z2).ok

    def test_unit_law_violation(self):
        c = Chunk(("1", "a"), "1",
                  {("1", "1"): "1", ("1", "a"): "1", ("a", "1"): "a"})
        report = validate(c)
        assert not report.ok
        assert any("1 * a" in v for v in report.unit_violations)

    def test_cancellation_violation(self):
        c = Chunk(("1", "a", "b", "d", "c"), "1", {
            **{("1", x): x for x in ("1", "a", "b", "d", "c")},
            **{(x, "1"): x for x in ("a", "b", "d", "c")},
            ("a", "b"): "c",
            ("a", "d"): "c",
        })
        report = validate(c)
        assert any("left cancellation" in v for v in report.cancellation_violations)

    def test_associativity_violation(self):
        # x*y = p, y*z = q, (xy)z = r but x(yz) = s, with all results distinct
        # so cancellation stays clean and only associativity trips
        elems = ("1", "x", "y", "z", "p", "q", "r", "s")
        table = {("1", e): e for e in elems}
        table.update({(e, "1"): e for e in elems if e != "1"})
        table.update({("x", "y"): "p", ("y", "z"): "q",
                      ("p", "z"): "r", ("x", "q"): "s"})
        report = validate(Chunk(elems, "1", table))
        assert not report.cancellation_violations
        assert report.associativity_violations


@st.composite
def partial_tables(draw):
    """A chunk of 1 to 7 elements parsed from text that lists its products
    in a drawn order.  Each entry is the cyclic product with the drawn unit,
    left out, an explicit ``undef``, or any element, at a drawn rate of
    noise, and the unit's products may be kept exact, so that the tables
    break unit laws, cancellation and associativity in every mix."""
    n = draw(st.integers(1, 7))
    elems = [f"e{i}" for i in range(n)]
    u = draw(st.integers(0, n - 1))
    exact_unit = draw(st.booleans())
    kinds = ["absent", "undef", "any"] + ["cyclic"] * draw(st.sampled_from([1, 3, 12]))
    lines = [f"unit {e}" if i == u else f"elem {e}" for i, e in enumerate(elems)]
    for i, j in draw(st.permutations([(i, j) for i in range(n) for j in range(n)])):
        kind = "cyclic" if exact_unit and u in (i, j) else draw(st.sampled_from(kinds))
        if kind == "cyclic":
            lines.append(f"e{i} * e{j} = e{(i + j - u) % n}")
        elif kind == "undef":
            lines.append(f"e{i} * e{j} = undef")
        elif kind == "any":
            lines.append(f"e{i} * e{j} = {draw(st.sampled_from(elems))}")
    return parse_chunk("\n".join(lines) + "\n")


def same_report(c):
    got, want = validate(c), reference_validate(c)
    assert got.unit_violations == want.unit_violations
    assert got.cancellation_violations == want.cancellation_violations
    assert got.associativity_violations == want.associativity_violations


def embedded_chunk(cert_path):
    with open(cert_path, encoding="utf-8") as fh:
        return parse_chunk(fh.read().split("chunk-begin\n", 1)[1].split("chunk-end", 1)[0])


class TestValidateAgainstReference:
    """The reads off the row and column views give the triple loop's report,
    violation for violation and in its order."""

    @given(partial_tables())
    @settings(max_examples=200, deadline=None)
    def test_random_partial_tables(self, c):
        same_report(c)

    @pytest.mark.parametrize("path", sorted(glob.glob(f"{DATA}/*.chunk")),
                             ids=os.path.basename)
    def test_fixture_chunks(self, path):
        same_report(parse_chunk_file(path))

    @pytest.mark.parametrize("path", sorted(glob.glob(f"{DATA}/*.cert")),
                             ids=os.path.basename)
    def test_certificate_chunks(self, path):
        same_report(embedded_chunk(path))

    @given(partial_tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_renaming_maps_every_message(self, c, data):
        # names of at most three characters, none of them reserved or spaced
        new = data.draw(st.lists(st.text(string.ascii_letters + string.digits + "_",
                                         min_size=1, max_size=3),
                                 min_size=len(c.elements), max_size=len(c.elements),
                                 unique=True))
        names = dict(zip(c.elements, new))

        def renamed(messages):
            return tuple(re.sub(r"[^\s()]+", lambda m: names.get(m[0], m[0]), msg)
                         for msg in messages)

        want, got = validate(c), validate(rename_chunk(c, names))
        assert got.unit_violations == renamed(want.unit_violations)
        assert got.cancellation_violations == renamed(want.cancellation_violations)
        assert got.associativity_violations == renamed(want.associativity_violations)


class TestInducedChunk:
    def test_trivial(self):
        c = induced_chunk(["e"], "e", lambda a, b: "e")
        assert c.table == {("e", "e"): "e"}
        assert validate(c).ok

    def test_full_cyclic_three(self):
        def mult(a, b):
            return f"g{(int(a[1:]) + int(b[1:])) % 3}"
        c = induced_chunk(["g0", "g1", "g2"], "g0", mult)
        assert len(c.table) == 9
        assert validate(c).ok

    def test_partial_when_product_escapes(self):
        def mult(a, b):
            return f"g{(int(a[1:]) + int(b[1:])) % 3}"
        c = induced_chunk(["g0", "g1"], "g0", mult)
        assert c.product("g1", "g1") is None
        assert validate(c).ok

    def test_unit_missing(self):
        with pytest.raises(ValueError):
            induced_chunk(["a"], "e", lambda a, b: "e")

    def test_all_subsets_of_s3_validate(self):
        s3 = all_perms(3)
        ident = identity(3)
        others = [p for p in s3 if p != ident]
        names = {p: f"p{i}" for i, p in enumerate(s3)}
        back = {v: k for k, v in names.items()}

        def mult(a, b):
            return names[compose(back[a], back[b])]

        for size in range(0, len(others) + 1):
            for extra in itertools.combinations(others, size):
                elems = [names[ident]] + [names[p] for p in extra]
                c = induced_chunk(elems, names[ident], mult)
                assert validate(c).ok, elems

    @pytest.mark.parametrize("order", range(1, 9))
    def test_cyclic_group_traces_validate(self, order):
        def mult(a, b):
            return f"g{(int(a[1:]) + int(b[1:])) % order}"
        for size in range(1, order + 1):
            elems = [f"g{i}" for i in range(size)]
            c = induced_chunk(elems, "g0", mult)
            assert validate(c).ok


class TestHomomorphism:
    def test_identity_map(self, z3):
        m = ChunkMap(z3, {e: e for e in z3.elements})
        assert is_homomorphism(m, chunk_mult(z3), target_unit=z3.unit)

    def test_z2_into_s2(self, z2):
        m = ChunkMap(z2, {"1": identity(2), "a": transposition(2, 0, 1)})
        assert is_homomorphism(m, compose)

    def test_z3_into_s2_fails(self, z3):
        t = transposition(2, 0, 1)
        m = ChunkMap(z3, {"1": identity(2), "h": t, "h2": t})
        assert not is_homomorphism(m, compose)

    def test_composition_of_homomorphisms(self, z2):
        to_perms = ChunkMap(z2, {"1": identity(2), "a": transposition(2, 0, 1)})
        renamed = Chunk(("e", "x"), "e",
                        {("e", "e"): "e", ("e", "x"): "x", ("x", "e"): "x", ("x", "x"): "e"})
        rename = ChunkMap(renamed, {"e": "1", "x": "a"})
        assert is_homomorphism(rename, chunk_mult(z2), target_unit="1")
        composed = compose_maps(to_perms, rename)
        assert is_homomorphism(composed, compose)

    def test_bijective_without_homomorphic_inverse(self, z2, open2):
        # open2 leaves a*a undefined; z2 defines it.  The identity-on-names map
        # open2 -> z2 is a bijective homomorphism whose inverse is not one.
        fwd = ChunkMap(open2, {"1": "1", "a": "a"})
        assert is_homomorphism(fwd, chunk_mult(z2), target_unit="1")
        bwd = ChunkMap(z2, {"1": "1", "a": "a"})
        assert not is_homomorphism(bwd, chunk_mult(open2), target_unit="1")
        # the transported table is strictly smaller
        assert set(z2.table) > set(open2.table)


class TestTextFormat:
    def test_round_trip_fixtures(self, z2, z3, z4trace, open2, klein, trivial):
        for c in (z2, z3, z4trace, open2, klein, trivial):
            text = format_chunk(c)
            again = parse_chunk(text)
            assert again == c
            assert format_chunk(again) == text

    def test_unit_position_preserved(self):
        c = Chunk(("a", "1"), "1", {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a"})
        assert parse_chunk(format_chunk(c)) == c

    def test_comments_and_undef(self):
        text = "# a comment\nunit 1\nelem a\n1 * 1 = 1\n1 * a = a\na * 1 = a\na * a = undef\n"
        c = parse_chunk(text)
        assert c.product("a", "a") is None

    def test_parse_error_carries_line(self):
        with pytest.raises(ChunkParseError) as err:
            parse_chunk("unit 1\nelem a\nbogus line here\n")
        assert err.value.line == 3

    def test_duplicate_product_rejected(self):
        with pytest.raises(ChunkParseError):
            parse_chunk("unit 1\n1 * 1 = 1\n1 * 1 = 1\n")

    def test_undeclared_element_rejected(self):
        with pytest.raises(ChunkParseError):
            parse_chunk("unit 1\n1 * a = a\n")

    @given(st.integers(2, 8), st.integers(1, 8))
    def test_round_trip_cyclic_traces(self, order, size):
        size = min(size, order)

        def mult(a, b):
            return f"g{(int(a[1:]) + int(b[1:])) % order}"

        c = induced_chunk([f"g{i}" for i in range(size)], "g0", mult)
        assert parse_chunk(format_chunk(c)) == c
