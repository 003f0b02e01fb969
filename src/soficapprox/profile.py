"""Morphism quality measurement and certified sofic-profile search.

Every quality figure of an assignment comes from ``disagreement_counts``: per
defined product, the number of points where f(ab) and f(a)f(b) differ, and per
distinct pair of elements, the number where their images differ.  ``measure``
takes the max and min of these over the degree; ``lazyperm`` weighs the same
counts across the stages of a block sum and reads its supp scans from them.

``sofic_profile`` finds the least degree n admitting a unit-preserving map
E -> S_n whose multiplicative defect is at most 1/r on every defined product
and whose distinct elements stay at Hamming distance at least 1 - 1/r.  The
search is exhaustive per degree: it backtracks over assignments in chunk
element order and restricts the first assigned element to canonical
cycle-type representatives.  That restriction loses nothing because
conjugating an entire assignment by a fixed permutation preserves distances,
products, and the unit, so every feasible assignment has a conjugate whose
first element is canonical.

The search works on raw image tuples with one integer threshold per
degree, ``threshold_radius``: with k the number of points where two images
differ, a product passes the defect test when k is at most the radius and a
pair passes the separation test when the images agree in at most the radius.
Each depth draws its candidates, in lex order, from a pool of one of five
kinds, which ``_pool_kinds`` names once per degree by this rule:

- ``first``: the first element takes the cycle-type representatives.
- An element that occurs once in a product whose other two members are
  assigned (a ball triple) lies in a Hamming ball: bi-invariance of the
  metric turns that product's defect test into "within the radius of one
  centre permutation", so no member needs that test again.  At radius 0
  or 1 the depth is ``forced``: the ball is its centre alone, since no two
  permutations differ in exactly one point.  A larger ball is ``decided``
  at n <= 9 unless it is small beside S_n (fewer than n!/2048 members:
  radius 2 at n = 9); otherwise it is a ``ball``, listed support by support.
- A depth without a ball triple is ``decided`` up to n = 10.
- ``all`` is S_n, for a depth without a ball triple from n = 11 on, where
  the bitsets below outgrow ``_MASK_TABLE_BYTES``, and for a ball of
  radius n (r = 1) from n = 10 on.

Every pool but a decided one is checked one candidate at a time.  A decided
pool is read off S_n bitsets: per point x and value v, one integer has bit
i set iff the lex rank-i permutation maps x to v.  Counting set bits across
such integers, a whole word of candidates at a time, gives exactly the
candidates that pass the separation test against every earlier image and
the defect test of every product the depth makes checkable, so they are
taken unchecked.  A product in which the new
element occurs once is a ball, counted as agreements with its centre; the
only other shape a validated chunk has is a square a * a = c.  Every such
set is an agreement set, the ranks that agree with one permutation in at
least k points (or whose square does), so it depends on (permutation, k,
square) alone: the separation set of an image g is the complement of g's
set at k = radius + 1, a ball's set is its centre's at k = n - radius,
and a square's is f(ab)'s as a square.  Each degree builds them through
one least-recently-used cache, held to what ``_MASK_TABLE_BYTES`` leaves
beside the masks (1,398 sets of 45 KB at n = 9), so a set is built again
only after the cache dropped it; the separation sets against each prefix
of placed images are and-ed once into a chain that every deeper pool
shares until one of those images moves.  ``_at_least`` counts with k
counters, where counter j marks the bits set in more than j of the sets
so far, and updates counter j at the i-th of m sets only while j + 1
plus the m - 1 - i sets still to come can reach k; that schedule is
cached per (m, k), and at n = 9, r = 3 it does 44 instead of 69
big-integer operations per product test.

``Perm`` values are built only for the witness.

Degrees proven infeasible are recorded with the number of search nodes that
exhausted them, so a returned certificate documents minimality, not just
feasibility.  A node is one candidate of a call's full pool (the canonical
representatives at depth 0, all of S_n in lex order after it) up to the one
that completed a witness, or the whole pool when the call fails.  A ball or
a bitset leaves out only permutations that fail a check, so it changes which
candidates are tried but not which one completes a witness, nor this count,
which each call adds in closed form: ``n!`` or the witness image's lex rank
plus one.

The same conjugation invariance lets the second element skip subtrees
without changing this count.  Conjugating by a permutation s that commutes
with the first image f1 fixes the unit's and f1's images and preserves every
distance and product, so it maps the second depth's pool onto itself, and
the subtree below a candidate g onto the subtree below s g s^-1, call for
call.  Every call of a failed subtree adds ``n!``, so the subtrees of g's
orbit under the centralizer C(f1) all fail in the same count.  When a
candidate's subtree fails, each orbit-mate is therefore entered in a memo
with that count, and on reaching it the search adds the count instead of
placing it.  The lex-first witness lies below the lex-first member of the
first orbit that does not fail, which is searched as before, so witnesses
and node counts are unchanged.  This applies at the second depth unless it
is forced (a ball centre has no mates) or the last; the
deeper depths would need the generators of C(f1) ∩ C(f2) and beyond.
C(f1) is the product over cycle lengths k of C_k wreath S_{m_k}, with m_k
cycles of length k, and ``_centralizer_gens`` lists generators for it.  The
orbit walk conjugates by each generator as a map paired with an
``itemgetter`` of its inverse, both built once per first image.

Every caller that needs several r (``sofic realize``, ``profile --all-r``
and both scripts) shares one sweep, ``profile_table``.  An assignment that
meets the 1/r' thresholds meets the 1/r ones for every r < r', so the sweep
takes the r in increasing order and starts each at the least degree of the
one before it.  The search reads r only through a degree's radius (the
separation threshold is n minus it), so the sweep memoizes each degree's
outcome on (n, radius) and searches none twice.  Its results carry no
records: only ``sofic_profile``, which searches every degree from 1 and
backs ``profile --r`` and ``--emit-cert``, claims minimality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, compress, permutations, repeat
from math import comb, factorial
from operator import eq, itemgetter, ne, or_
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .chunk import Chunk, validated
from .growth import Exhausted, quality_parameter
from .permcore import Perm, cycles_of, representatives


class MorphismQuality(NamedTuple):
    """Measured defect and expansiveness of an assignment E -> S_n.

    ``expansiveness`` is None for single-element chunks, where the min over
    distinct pairs is vacuous (treated as the top value by every threshold).

    A NamedTuple rather than a frozen dataclass, because every supp degree
    builds one: 0.21 us against 0.31 us for the frozen dataclass (timeit,
    Python 3.11.7).  It is immutable and hashable, and compares equal to a
    plain tuple of the same values.
    """

    defect: Fraction
    expansiveness: Fraction | None

    @classmethod
    def from_counts(cls, n: int, products: list[int], pairs: list[int]) -> MorphismQuality:
        """Quality from ``disagreement_counts``; at degree 0 every distance is 0."""
        n = n or 1
        return cls(Fraction(max(products, default=0), n),
                   Fraction(min(pairs), n) if pairs else None)

    def meets(self, r: Fraction) -> bool:
        eps = 1 / r
        if self.defect > eps:
            return False
        return self.expansiveness is None or self.expansiveness >= 1 - eps


@dataclass(frozen=True)
class DegreeRecord:
    """One degree proven infeasible, with the node count that exhausted it."""

    degree: int
    nodes: int


@dataclass(frozen=True)
class ProfileCertificate:
    """A least-degree witness with its measured quality and the records of
    the degrees below it proven infeasible.

    Only ``sofic_profile`` makes that minimality claim, so only its results
    are emitted as certificates; the results of ``profile_table`` carry
    ``infeasible=()``.
    """

    r: Fraction
    n: int
    assignment: dict[str, Perm]
    quality: MorphismQuality
    infeasible: tuple[DegreeRecord, ...]

    @property
    def vacuous(self) -> bool:
        # At r = 1 the thresholds are defect <= 1 and expansiveness >= 0,
        # which every assignment meets.
        return self.r == 1


def threshold_radius(n: int, r: Fraction) -> int:
    """The most points in which two permutations of degree n may differ
    within 1/r: floor(n/r).

    A count k of points passes the defect test k/n <= 1/r iff k <= radius,
    and the separation test k/n >= 1 - 1/r iff k >= n - radius.
    """
    return n * r.denominator // r.numerator


def disagreement_counts(c: Chunk, f: Mapping[str, Perm]) -> tuple[int, list[int], list[int]]:
    """Degree n of the assignment and its disagreement counts.

    The first list has, per defined product in table order, the number of
    points where f(ab) and f(a)f(b) differ; the second, per distinct pair in
    element order, the number where the two images differ.  Defect and
    expansiveness are the max and min of these counts over n.  Raises
    ValueError unless the assignment is total, all images have one degree,
    and the unit maps to the identity.
    """
    missing = [e for e in c.elements if e not in f]
    if missing:
        raise ValueError(f"assignment not total, missing {missing}")
    img = {e: f[e].images for e in c.elements}
    degrees = {len(p) for p in img.values()}
    if len(degrees) > 1:
        raise ValueError(f"images of mixed degrees {sorted(degrees)}")
    n = degrees.pop()
    if img[c.unit] != tuple(range(n)):
        raise ValueError("unit must map to the identity permutation")
    elems = c.elements
    return (n,
            [sum(map(ne, img[ab], map(img[a].__getitem__, img[b])))
             for (a, b), ab in c.table.items()],
            [sum(map(ne, img[x], img[y])) for i, x in enumerate(elems) for y in elems[i + 1:]])


def measure(c: Chunk, f: Mapping[str, Perm]) -> MorphismQuality:
    """Exact defect (max over defined products) and expansiveness (min over pairs)."""
    return MorphismQuality.from_counts(*disagreement_counts(c, f))


def _search_plan(c: Chunk) -> tuple[tuple[str, ...], list[list[tuple[int, int, int]]],
                                    list[tuple[int, int, int, int] | None],
                                    list[list[tuple[int, int, int]]]]:
    """Assignment order and, per depth, what that depth makes checkable.

    Elements are numbered 0 for the unit and ``i + 1`` for ``order[i]``; the
    element at depth ``i`` is number ``i + 1``.  Per depth the plan lists the
    product triples ``(a, b, ab)`` that become fully checkable there, other
    than the unit products (e, b, b) and (a, e, a); the ball triple: the
    first of them in which the new element occurs exactly once, as
    ``(role, a, b, ab)`` where ``role`` is the new element's place (0 left
    factor, 1 right factor, 2 product), or None if there is none; and the
    triples a candidate not taken from a bitset is checked on: all but the
    ball triple, which every member of the ball passes.  The plan depends
    on the chunk alone, so a search builds it once for all its degrees.
    """
    order = tuple(e for e in c.elements if e != c.unit)
    number = {e: i + 1 for i, e in enumerate(order)}
    number[c.unit] = 0
    triples_at: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for (a, b), ab in c.table.items():
        if c.is_unit_product(a, b, ab):
            continue  # holds for every assignment
        triple = (number[a], number[b], number[ab])
        triples_at[max(triple) - 1].append(triple)
    balls_at = [next(((t.index(new), *t) for t in triples if t.count(new) == 1), None)
                for new, triples in enumerate(triples_at, start=1)]
    checks_at = [[t for t in triples if ball is None or t != ball[1:]]
                 for triples, ball in zip(triples_at, balls_at)]
    return order, triples_at, balls_at, checks_at


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(p.__getitem__, q))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, v in enumerate(p):
        out[v] = x
    return tuple(out)


@lru_cache(maxsize=None)  # called with the first candidates only
def _centralizer_gens(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Generators of the centralizer of ``p`` in S_n: each cycle of length
    at least 2 as a permutation, and for each two consecutive cycles of one
    length, the involution swapping them point for point in cycle order."""
    n = len(p)
    cycles = sorted(cycles_of(Perm(p)), key=len)
    gens = []
    for cycle in cycles:
        if len(cycle) > 1:
            g = list(range(n))
            for x in cycle:
                g[x] = p[x]
            gens.append(tuple(g))
    for u, v in zip(cycles, cycles[1:]):
        if len(u) == len(v):
            g = list(range(n))
            for x, y in zip(u, v):
                g[x], g[y] = y, x
            gens.append(tuple(g))
    return tuple(gens)


@lru_cache(maxsize=None)  # one per first candidate, as for _centralizer_gens
def _conjugators(gens: tuple[tuple[int, ...], ...]) -> tuple[tuple[Callable, Callable], ...]:
    """Per generator s: s as a map and an ``itemgetter`` that composes with
    s^-1 on the right, so that conjugating h by s is s(h(s^-1(x))).  ``gens``
    move at least two points, so n >= 2 and the getter returns a tuple."""
    return tuple((s.__getitem__, itemgetter(*_inverse(s))) for s in gens)


def _conjugates(g: tuple[int, ...], gens: tuple[tuple[int, ...], ...]) -> set[tuple[int, ...]]:
    """The orbit of ``g`` under conjugation by the group ``gens`` generate."""
    pairs = _conjugators(gens)
    orbit = {g}
    todo = [g]
    while todo:
        h = todo.pop()
        for s, after_inverse in pairs:
            k = tuple(map(s, after_inverse(h)))  # s h s^-1
            if k not in orbit:
                orbit.add(k)
                todo.append(k)
    return orbit


def _ball_centre(role: int, fa: tuple[int, ...], fb: tuple[int, ...],
                 fab: tuple[int, ...]) -> tuple[int, ...]:
    """The image the unknown factor of ``f(ab) ~ f(a)f(b)`` would need for
    zero defect; by bi-invariance its defect equals its distance from this."""
    if role == 2:
        return _compose(fa, fb)
    if role == 0:
        return _compose(fab, _inverse(fb))
    return _compose(_inverse(fa), fab)


def _hamming_ball(centre: tuple[int, ...], radius: int) -> list[tuple[int, ...]]:
    """Permutations differing from ``centre`` in at most ``radius`` points, in lex order.

    A member differs from the centre exactly on a support S of k <= radius
    points, where it permutes the centre's values by a derangement of S, so
    each k contributes comb(n, k) times the derangements of k points, as
    ``_ball_size`` counts.  The members are listed support by support and
    then sorted."""
    if radius <= 1:
        return [centre]  # no two permutations differ in exactly one point
    n = len(centre)
    members = [centre]
    for k in range(2, min(radius, n) + 1):
        deranged = [d for d in permutations(range(k)) if all(map(ne, d, range(k)))]
        for support in combinations(range(n), k):
            values = [centre[x] for x in support]
            for d in deranged:
                member = list(centre)
                for x, i in zip(support, d):
                    member[x] = values[i]
                members.append(tuple(member))
    members.sort()
    return members


# The S_n bitsets of one degree take n * n * n! / 8 bytes, and its cached
# agreement sets, n! / 8 bytes each, fill what they leave of this.  Free depths
# at degrees whose bitsets would exceed it enumerate S_n one candidate at a time.
_MASK_TABLE_BYTES = 64 << 20


@lru_cache(maxsize=2)  # the degree searched, and the one below it that built it
def _rank_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """``masks[x][v]`` has bit i set iff the rank-i permutation of S_n in lex
    order maps x to v.

    Built from S_{n-1}: ranks ``v0 * (n-1)!`` on hold the permutations with
    first image v0, whose tails run through S_{n-1} in lex order with every
    value from v0 up raised by one.
    """
    if n == 1:
        return ((1,),)
    prev = _rank_masks(n - 1)
    block = factorial(n - 1)
    masks = [[0] * n for _ in range(n)]
    for v0 in range(n):
        shift = v0 * block
        masks[0][v0] = ((1 << block) - 1) << shift
        for x in range(1, n):
            row = masks[x]
            for u, m in enumerate(prev[x - 1]):
                row[u + (u >= v0)] |= m << shift
    return tuple(map(tuple, masks))


# A ball depth, whose other pool is its ball listed by support and checked,
# draws a bitset pool only where S_n has at most this many ranks per ball
# member and the masks fit in the smaller budget below (n <= 9).  Per call,
# with four earlier images and one product, a bitset pool cost 1.0-1.2 times
# as much as the checked ball at 1.8k ranks per member (n = 9, radius 3),
# 2.5-5.5 times at 9.8k (n = 9, radius 2) and 42-48 times at 79k (n = 10,
# radius 2).  Searching all of Z10 to degree 9 at r = 3 (radius 3), bitset
# pools still took 16-18 s against 24-27 s with this bound at 1000, which
# checks the balls of degrees 8 and 9; at r = 4 (radius 2), with the bound
# at 10^4, they took 2.1-2.8 s against 0.7-1.0 s.  At n = 10, radius 4, a
# pool cost 1.0-1.4 times the checked ball and built 45 MB of masks.
_RANKS_PER_BALL_MEMBER = 2048
_BALL_MASK_TABLE_BYTES = 4 << 20


def _ball_size(n: int, radius: int) -> int:
    """The number of permutations of S_n within ``radius`` points of one."""
    deranged = [1, 0]  # derangements of 0, 1, ... points
    for k in range(2, radius + 1):
        deranged.append((k - 1) * (deranged[-1] + deranged[-2]))
    return sum(comb(n, k) * deranged[k] for k in range(min(radius, n) + 1))


def _pool_kinds(balls_at: Sequence[tuple[int, int, int, int] | None], n: int,
                radius: int) -> list[str]:
    """Per depth of one degree, the kind of pool it draws, by the rule of
    the module docstring.  ``balls_at`` is ``_search_plan``'s."""
    full = factorial(n)
    bitsets = n * n * full <= 8 * _MASK_TABLE_BYTES
    # a small ball in a large S_n is cheaper to check than to cut out of a bitset
    ball_bitsets = (bitsets and n * n * full <= 8 * _BALL_MASK_TABLE_BYTES
                    and full <= _RANKS_PER_BALL_MEMBER * _ball_size(n, radius))
    ball = ("forced" if radius <= 1 else "decided" if ball_bitsets
            else "ball" if radius < n else "all")
    free = "decided" if bitsets else "all"
    return ["first"] + [free if b is None else ball for b in balls_at[1:]]


@lru_cache(maxsize=2)
def _all_ranks(n: int) -> int:
    return (1 << factorial(n)) - 1


@lru_cache(maxsize=None)
def _counter_schedule(m: int, k: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """Per set of ``_at_least(k, sets)`` with ``m`` sets: the counters j >= 1
    that set updates from counter j - 1, from the top, and whether it
    updates counter 0.  After set i, counter j can still reach
    counter k - 1 only if j + 1 plus the m - 1 - i sets to come reach k, so
    the others are left alone (none at all when k > m)."""
    return tuple((tuple(range(min(i, k - 1), max(0, k - m + i - 1), -1)),
                  i <= m - k)
                 for i in range(m))


def _at_least(k: int, sets: list[int]) -> int:
    """Bits set in at least ``k`` >= 1 of ``sets``."""
    more_than = [0] * k  # more_than[j]: bits set in more than j of the sets so far
    for s, (steps, first) in zip(sets, _counter_schedule(len(sets), k)):
        for j in steps:
            more_than[j] |= more_than[j - 1] & s
        if first:
            more_than[0] |= s
    return more_than[k - 1]


def _square_agreements(masks: tuple[tuple[int, ...], ...], c: tuple[int, ...]) -> list[int]:
    """Per point x, the ranks whose permutation p squares to ``c`` at x:
    p(x) = y and p(y) = c(x) for some y."""
    n = len(masks)
    return [reduce(or_, (masks[x][y] & masks[y][cx] for y in range(n))) for x, cx in enumerate(c)]


def _agreement_set(p: tuple[int, ...], k: int, square: bool) -> int:
    """Ranks of S_n whose permutation agrees with ``p`` in at least ``k``
    >= 1 points, or, when ``square``, whose square does."""
    masks = _rank_masks(len(p))
    sets = _square_agreements(masks, p) if square else [masks[x][v] for x, v in enumerate(p)]
    return _at_least(k, sets)


def _product_key(f: list[tuple[int, ...]], new: int, triple: tuple[int, int, int],
                 radius: int) -> tuple[tuple[int, ...], int, bool]:
    """The ``_agreement_set`` arguments of the ranks whose permutation, as
    the image of element ``new``, passes the defect test of ``triple``:
    f(ab) and f(a)f(b) agree in at least ``n - radius`` >= 1 points.  Where
    the new element occurs once, agreeing at x means agreeing with the ball
    centre at x.

    ``triple`` comes from ``_search_plan`` on a validated chunk, so a new
    element occurring twice makes it a square a * a = c with c != a: a * a = a,
    a * b = a and b * a = a (b != e) each contradict a * e = a = e * a by
    cancellation."""
    a, b, ab = triple
    k = len(f[0]) - radius
    if triple.count(new) == 1:
        return _ball_centre(triple.index(new), f[a], f[b], f[ab]), k, False
    return f[ab], k, True


def _bitset_pool(f: list[tuple[int, ...]], new: int, triples: list[tuple[int, int, int]],
                 radius: int, separated: int,
                 agreements: Callable[[tuple[int, ...], int, bool], int]
                 ) -> Iterator[tuple[int, ...]]:
    """The permutations that pass ``_backtrack``'s checks as the image of
    element ``new``, in lex order, found on bitsets over the lex ranks of S_n.

    ``separated`` holds the ranks that pass every separation test against
    ``f[:new]``; a candidate agreeing with f(a)f(b) at fewer than
    ``n - radius`` points fails that product's defect test.  ``agreements``
    gives each product set: ``_agreement_set`` itself, or ``_backtrack``'s
    cache of it, which builds a set again only after dropping it.
    """
    n = len(f[0])
    live = separated
    if radius < n:
        for t in triples:
            if not live:
                break
            live &= agreements(*_product_key(f, new, t, radius))
    return _decode(live, n)


_BITS = bytes.maketrans(b"01", b"\0\1")


def _decode(live: int, n: int) -> Iterator[tuple[int, ...]]:
    """The permutations whose lex ranks are set in ``live``, in increasing
    rank order.  Unranking one costs about as much as stepping ``permutations``
    over 200 ranks, so a set denser than that is read off the full listing."""
    bits = format(live, "b")[::-1]
    if live.bit_count() * 200 > factorial(n):
        return compress(permutations(range(n)), bits.encode().translate(_BITS))
    return _unrank_each(bits, n)


def _unrank_each(bits: str, n: int) -> Iterator[tuple[int, ...]]:
    radix = [factorial(k) for k in range(n - 1, -1, -1)]
    i = bits.find("1")
    while i >= 0:
        rest, images, rank = list(range(n)), [], i
        for step in radix:
            q, rank = divmod(rank, step)
            images.append(rest.pop(q))
        yield tuple(images)
        i = bits.find("1", i + 1)


def _lex_rank(p: tuple[int, ...]) -> int:
    """Index of ``p`` in the lex listing of S_n, from its Lehmer code."""
    n = len(p)
    rank = 0
    for i, v in enumerate(p):
        rank = rank * (n - i) + sum(1 for w in p[i + 1:] if w < v)
    return rank


def _backtrack(c: Chunk, r: Fraction, n: int,
               first_candidates: Sequence[tuple[int, ...]] | None = None,
               plan: tuple | None = None) -> tuple[dict[str, Perm] | None, int]:
    """Exhaustive search at one degree.  Returns (witness or None, nodes).

    ``c`` must pass ``chunk.validate``, as every public entry checks, since
    the bitset pools rely on it (see ``_product_key``).
    ``first_candidates`` are image tuples for the first non-unit element; the
    default, ``representatives(n)``, is the cycle-type representatives.
    Each call adds to the node count the length of its full pool when it
    fails, and the witness image's place in that pool when it succeeds.
    Past depth 0 the full pool is S_n in lex order, so that is ``n!`` or the
    lex rank plus one, whatever part of the pool the call actually tries:
    a forced call, whose one candidate is the ball centre, adds ``n!``
    unless that centre completes a witness.  The second depth skips the
    conjugates of each candidate whose subtree failed, adding that subtree's
    count for each, as the module docstring explains.  ``plan`` is
    ``_search_plan(c)``, built here when not given.
    """
    order, triples_at, balls_at, checks_at = _search_plan(c) if plan is None else plan
    ident = tuple(range(n))
    if not order:
        # Single-element chunk: the unit assignment is the whole witness.
        return {c.unit: Perm(ident)}, 1

    radius = threshold_radius(n, r)
    full = factorial(n)
    kinds = _pool_kinds(balls_at, n, radius)
    first = representatives(n) if first_candidates is None else first_candidates
    f: list[tuple[int, ...]] = [ident] * (len(order) + 1)
    # allowed[k]: the ranks that pass the separation tests against f[:k], or
    # None until a bitset pool needs it after f[k - 1] is placed.  Placing
    # f[k] resets allowed[k + 1], and depth ``new`` draws a pool only after
    # depths 1..new-1 were placed in order since any of them last changed, so
    # every entry up to allowed[new] is either None or built from the current f.
    allowed: list[int | None] = [None] * (len(order) + 2)
    # the agreement sets of this degree, n!/8 bytes each, in the room that
    # _MASK_TABLE_BYTES leaves beside the masks; the least recently used go first
    agreements = lru_cache(maxsize=max(0, 8 * _MASK_TABLE_BYTES // full - n * n))(_agreement_set)
    nodes = 0

    def separated(new: int) -> int:
        k = new
        while k > 0 and allowed[k] is None:
            k -= 1
        if allowed[0] is None:
            allowed[0] = _all_ranks(n)
        for i in range(k, new):
            allowed[i + 1] = allowed[i]
            if radius < n:
                allowed[i + 1] &= ~agreements(f[i], radius + 1, False)
        return allowed[new]

    def extend(new: int) -> bool:
        nonlocal nodes
        kind = kinds[new - 1]
        # checked: whether the candidates still need the checks
        if kind == "forced" or kind == "ball":
            role, a, b, ab = balls_at[new - 1]
            centre = _ball_centre(role, f[a], f[b], f[ab])
            drawn, checked = ((centre,) if kind == "forced" else _hamming_ball(centre, radius)), True
        elif kind == "decided":
            drawn, checked = _bitset_pool(f, new, triples_at[new - 1], radius, separated(new),
                                          agreements), False
        else:
            drawn, checked = (first if kind == "first" else permutations(ident)), True
        # skipped[g]: the count of a failed subtree whose root is conjugate
        # to g under C(f[1]), for each g still ahead in the pool
        skipped: dict[tuple[int, ...], int] | None = \
            {} if new == 2 and kind != "forced" and new < len(order) else None
        checks = checks_at[new - 1]
        earlier = f[:new]
        for cand in drawn:
            if skipped:
                count = skipped.pop(cand, 0)
                if count:
                    nodes += count
                    continue
            f[new] = cand
            # Products first: at the forced depth of {0,1,6,8,9} in Z12 at
            # r = 4, degree 7, each of the 1.2 M centres fails a product test
            # and 49% fail a separation test.
            if checked and not (
                    all(sum(map(ne, f[ab], map(f[a].__getitem__, f[b]))) <= radius
                        for a, b, ab in checks)
                    and all(sum(map(eq, g, cand)) <= radius for g in earlier)):
                continue
            allowed[new + 1] = None
            before = nodes
            if new == len(order) or extend(new + 1):
                nodes += (first.index(cand) if new == 1 else _lex_rank(cand)) + 1
                return True
            if skipped is not None:
                mates = _conjugates(cand, _centralizer_gens(f[1]))
                mates.discard(cand)
                skipped.update(dict.fromkeys(mates, nodes - before))
        nodes += len(first) if new == 1 else full
        return False

    if not extend(1):
        return None, nodes
    witness = {c.unit: Perm(ident)}
    witness.update((e, Perm(f[i + 1])) for i, e in enumerate(order))
    return witness, nodes


def _search_degree(c: Chunk, r: Fraction, n: int, workers: int,
                   plan: tuple | None = None) -> tuple[dict[str, Perm] | None, int]:
    plan = _search_plan(c) if plan is None else plan
    cands = representatives(n)
    if workers <= 1 or not plan[0] or len(cands) <= 1:
        return _backtrack(c, r, n, cands, plan)
    # Imported here: with the logging module it pulls in, it would add about
    # 4 ms to the start of every process, though most search at one worker.
    from concurrent.futures import ProcessPoolExecutor

    # Split the canonical first-element candidates across workers.  Results are
    # consumed in candidate order, so the reported witness and node totals are
    # identical to the sequential search.  The pool starts all its workers at
    # the first task, so it gets no more than there are candidates.
    nodes = 0
    with ProcessPoolExecutor(max_workers=min(workers, len(cands))) as pool:
        for witness, sub_nodes in pool.map(_backtrack, repeat(c), repeat(r), repeat(n),
                                           ([cand] for cand in cands), repeat(plan)):
            nodes += sub_nodes
            if witness is not None:
                return witness, nodes
    return None, nodes


def _checked(c: Chunk, rs: Iterable, n_max: int) -> list[Fraction]:
    """The quality parameters as Fractions, once each is known to be at
    least 1, ``n_max`` positive and the chunk a group trace."""
    rs = [quality_parameter(r) for r in rs]
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    validated(c)
    return rs


def _least_degree(c: Chunk, r: Fraction, n_from: int, n_max: int, workers: int,
                  memo: dict[tuple[int, int], tuple[dict[str, Perm] | None, int]],
                  plan: tuple) -> ProfileCertificate | Exhausted:
    """Least feasible degree from ``n_from`` to ``n_max``, with a record of
    each degree searched below it.  Degree outcomes are read from and added
    to ``memo`` under (n, radius), all that ``_backtrack`` reads of r: its
    separation threshold is n - radius.  ``plan`` is ``_search_plan(c)``."""
    records: list[DegreeRecord] = []
    for n in range(n_from, n_max + 1):
        key = (n, threshold_radius(n, r))
        if key not in memo:
            memo[key] = _search_degree(c, r, n, workers, plan)
        witness, nodes = memo[key]
        if witness is not None:
            return ProfileCertificate(r, n, witness, measure(c, witness), tuple(records))
        records.append(DegreeRecord(n, nodes))
    return Exhausted(n_max, tuple(records))


def sofic_profile(c: Chunk, r, n_max: int, *, workers: int = 1) -> ProfileCertificate | Exhausted:
    """Least feasible degree for the 1/r thresholds, or Exhausted(n_max),
    with the record of every degree below it proven infeasible.

    r = 1 is accepted; the resulting certificate is flagged vacuous since
    both thresholds degenerate.
    """
    (r,) = _checked(c, [r], n_max)
    return _least_degree(c, r, 1, n_max, workers, {}, _search_plan(c))


def replay_records(c: Chunk, r, records, *, workers: int = 1) -> None:
    """Re-run the search at each recorded degree.  Raises ValueError unless
    the degree is infeasible and exhausts in exactly the recorded nodes,
    or the chunk does not pass ``chunk.validate``, checked before any search."""
    validated(c)
    r = quality_parameter(r)
    plan = _search_plan(c)
    for rec in records:
        witness, nodes = _search_degree(c, r, rec.degree, workers, plan)
        if witness is not None:
            raise ValueError(f"degree {rec.degree} is feasible, but is recorded as infeasible")
        if nodes != rec.nodes:
            raise ValueError(f"degree {rec.degree} exhausts in {nodes} nodes, "
                             f"but is recorded with {rec.nodes}")


def profile_table(c: Chunk, rs, n_max: int, *,
                  workers: int = 1) -> list[ProfileCertificate | Exhausted]:
    """``sofic_profile`` at every r of ``rs``, in their order, with
    ``infeasible=()``, from one sweep: the distinct r in increasing order,
    each from the least degree of the one before, sharing one memo of degree
    outcomes.  Once one r is exhausted at ``n_max``, every larger r is too.
    """
    rs = _checked(c, rs, n_max)
    plan = _search_plan(c)
    memo: dict = {}
    least: dict[Fraction, ProfileCertificate | Exhausted] = {}
    n_from = 1
    for r in sorted(set(rs)):
        found = _least_degree(c, r, n_from, n_max, workers, memo, plan)
        if isinstance(found, Exhausted):
            least[r] = Exhausted(n_max)
            n_from = n_max + 1
        else:
            least[r] = replace(found, infeasible=())
            n_from = found.n
    return [least[r] for r in rs]
