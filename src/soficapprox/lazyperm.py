"""Evaluable permutations of the naturals with growth-bound certificates.

A ``LazyPerm`` carries total forward and backward evaluators plus a text
descriptor, and, for a carrier that is a finite table (the identity, whose
table is empty, ``finitary`` and a realization's block sums), the table
itself.  Nothing here can verify bijectivity of a black-box function on all
of the naturals; ``audit`` checks that both maps take values in the
naturals, injectivity, the inverse round trips, and the two-sided growth
bound on an explicit horizon H and says so in the witness it returns.  A
table proves the first three on all of the naturals: its images are a
permutation of [0, len) and its second list is their inverse exactly when
the images lie in [0, len) and the second list takes each image back to its
point, two whole-list passes.  Its values on [0, H] are then slices, and
only the bound is checked.  A carrier without a table, or whose table fails
that proof, is evaluated once at each point of [0, H] in each direction;
each round trip reads one map's values at the other's through ``_read``,
which evaluates a map again only at points past H, once each.
``build_gchunk`` audits every carrier, the unit's included, the same way.

``supp_morphism`` restricts carriers to a finite prefix and completes the
partial injection to a permutation by the greedy rule: unmatched domain
points, in increasing order, go to unmatched range points in increasing
order.  The gadgets' modified restrictions use the same rule.  The degree-n
restriction of a carrier therefore equals the carrier except at its free
points, the m < n it sends to n or beyond.  ``build_gchunk`` reads every
carrier's forward values and the bound's once on the audited prefix [0, H]
(``LazyPerm.values``, ``GrowthFn.values``), and the ``GChunk`` keeps them,
which every degree 1..H reads; a degree past H (or a horizon past
``MAX_HORIZON``) is refused, since nothing checked the carriers there.  The
table check composes the stored values through the same ``_read``.
``supp_quality`` and the ``property_profile`` scans read the defect,
expansiveness and separation hypothesis of each restriction from two
integers, ``GChunk.extremes``: the largest product count and the smallest
pair count of its disagreement counts (as ``profile.disagreement_counts``
defines them); no per-product or per-pair list is built.  A pair counts the
carriers' own disagreements below n, found by bisection in a sorted list of
the points where they disagree, plus a correction at its free points.  A
product counts only at free points, since the table check proved that the
carriers compose exactly on [0, H], so one whose factor and composite have
none counts 0.  At a settled degree, where no carrier has a free point, the
answer is 0 and the least of the pairs' bisections.  m* is a bisection in
the stored bound values, which are monotone.

Restriction commutes with inversion.  Where the table defines both
x * y = e and y * x = e, the table check proved x o y = y o x = id on
[0, H] and the audit proved both carriers injective there, so at every
degree n <= H, D_n(y) = R_n(x) and R_n(y) = D_n(x): a point v < n with
y(v) < n is x(y(v)), and a point v = x(m) with m < n has y(v) = m.  The
greedy rule pairs both sides in increasing order, so y's restriction is the
inverse of x's, and an involution fixes its free points.  The Hamming
distance does not change when both arguments are inverted, so
(a, b, ab) and (b^-1, a^-1, (ab)^-1) count alike, (x, y) and
(x^-1, y^-1) count alike, and a product (x, y, e) of mutual inverses counts
0.  A g-chunk therefore scans one carrier per inverse pair and counts one
product and one pair per inverse orbit.  A single table entry proves
nothing, and nothing is derived from it.

``realize`` assembles the block-direct-sum family out of one stage
assignment per r, choosing each multiplicity minimally so that every stage
meets its quality thresholds and both block-end slowness inequalities.  A
block sum's disagreement counts are the multiplicity-weighted sums of the
per-stage counts, so each least multiplicity is a maximum of integer
ceilings (stated on ``realize``), and no block sum is built or measured.
A realization's carriers tabulate the block sum in both directions once,
so each evaluation is one lookup.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, count, islice, repeat
from operator import gt, le, ne
from typing import Callable, Mapping, NamedTuple, Sequence

from .chunk import Chunk, validated
from .growth import BlockStep, Exhausted, GrowthFn, growth_profile, quality_parameter
from .permcore import Perm, block_sum, block_sum_images
from .profile import MorphismQuality, disagreement_counts, threshold_radius


# The longest audited prefix build_gchunk accepts.  A g-chunk keeps about 200
# bytes per audited point per carrier (the values, the audit's lists and the
# restriction tables): 0.42 GB at H = 10**6 for the two gadget carriers of a
# three-cycle chunk, built in about 3.5 s (Python 3.11).
MAX_HORIZON = 10**6


class GChunkError(ValueError):
    """A carrier family failed its construction-time audit."""


@dataclass(frozen=True)
class LazyPerm:
    """A permutation of the naturals given by forward/backward evaluators.

    ``table``, when present, is the pair (images, preimages) the evaluators
    look up: the forward map sends m < len(images) to images[m], the backward
    map v < len(preimages) to preimages[v], and both fix every larger point,
    so the identity's table is empty.  ``audit`` proves a table in whole-list
    passes and evaluates only a carrier without one, or whose table fails.
    """

    forward: Callable[[int], int]
    backward: Callable[[int], int]
    descriptor: str
    table: tuple[Sequence[int], Sequence[int]] | None = field(default=None, repr=False,
                                                              compare=False)

    def __call__(self, m: int) -> int:
        return self.forward(m)

    def __repr__(self) -> str:
        return f"LazyPerm({self.descriptor})"

    def values(self, h: int) -> list[int]:
        """The forward values at 0, ..., h: a slice of the table, or each
        point evaluated once."""
        if self.table is None:
            return list(map(self.forward, range(h + 1)))
        images = self.table[0]
        return [*islice(images, h + 1), *range(len(images), h + 1)]


def identity_lazy() -> LazyPerm:
    """The identity: a table carrier whose empty table fixes every point."""
    return _tabulated((), "identity")


def finitary(images: Sequence[int]) -> LazyPerm:
    """Permutation acting as ``images`` on a prefix and as the identity beyond."""
    images = tuple(images)
    n = len(images)
    if sorted(images) != list(range(n)):
        raise ValueError(f"prefix {images!r} is not a permutation of 0..{n - 1}")
    return _tabulated(images, f"table:[{' '.join(map(str, images))}]+id")


def _tabulated(images: tuple[int, ...], descriptor: str) -> LazyPerm:
    """``finitary(images)`` of a permutation ``images`` under another
    descriptor: both directions are tabulated once, and each evaluation is
    one lookup.  The carrier keeps the two tuples as its table."""
    n = len(images)
    back = tuple(sorted(range(n), key=images.__getitem__))
    return LazyPerm(
        lambda m: images[m] if m < n else m,
        lambda m: back[m] if m < n else m,
        descriptor,
        (images, back),
    )


def inverse_lazy(p: LazyPerm) -> LazyPerm:
    """p with its two maps, and the two lists of its table, swapped."""
    return LazyPerm(p.backward, p.forward, f"({p.descriptor})^-1",
                    None if p.table is None else p.table[::-1])


@dataclass(frozen=True)
class BoundWitness:
    """Audit record: two-sided bound by g verified on [0, audited_horizon]."""

    g: GrowthFn
    audited_horizon: int


@dataclass(frozen=True)
class AuditViolation:
    """First failure found by an audit; which check, and where."""

    kind: str  # "range" | "injectivity" | "roundtrip" | "bound"
    m: int
    n: int | None = None
    side: str = "forward"

    def __str__(self) -> str:
        if self.kind == "bound":
            return f"{self.side}({self.m}) exceeds g({self.n})"
        if self.kind == "roundtrip":
            return f"inverse round trip fails at {self.m} ({self.side})"
        if self.kind == "range":
            return f"{self.side}({self.m}) is negative, outside the naturals"
        return f"forward not injective at {self.m}"


def audit(p: LazyPerm, g: GrowthFn, horizon: int) -> BoundWitness | AuditViolation:
    """Check that both maps take values in the naturals, injectivity, round
    trips, and rho(m) <= g(n) for all m <= n <= horizon.

    The bound is two-sided (forward and backward).  Violations are data; the
    first one found is returned, in that order of checks.  A carrier whose
    table is a permutation with its inverse is a permutation of the naturals,
    so only the bound is left to check, on values read off the table.  Any
    other carrier's two maps are evaluated once at each point of
    [0, horizon], and each once more at each distinct value of the other map
    past it (see ``_evaluated_backward``).
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    bound_values = g.values(horizon)
    violation = _audit(p, p.values(horizon), bound_values, _suffix_minima(bound_values))
    return BoundWitness(g, horizon) if violation is None else violation


def _audit(p: LazyPerm, fwd: list[int], bound_values: Sequence,
           floor: Sequence) -> AuditViolation | None:
    """The first violation of ``audit`` given the forward values ``fwd`` on
    [0, H] (``p.values(H)``), the bound values on the same points and their
    ``_suffix_minima``, or None.  The backward values on [0, H] come off p's
    table when ``_table_backward`` proves it, and from ``_evaluated_backward``
    otherwise."""
    bwd = _table_backward(p, len(fwd))
    if bwd is None:
        bwd = _evaluated_backward(p, fwd)
        if isinstance(bwd, AuditViolation):
            return bwd
    f_excess = _first_excess(fwd, bound_values, floor)
    b_excess = _first_excess(bwd, bound_values, floor)
    if f_excess is not None and (b_excess is None or f_excess[1] <= b_excess[1]):
        return AuditViolation("bound", *f_excess, side="forward")
    if b_excess is not None:
        return AuditViolation("bound", *b_excess, side="backward")
    return None


def _table_backward(p: LazyPerm, size: int) -> list[int] | None:
    """p's backward values on [0, size) read off its table, or None when p
    has no table or the table is not a permutation with its inverse.

    The images are a permutation of [0, len) with inverse ``preimages`` when
    they lie in [0, len) and preimages[images[m]] = m at every m: that makes
    them injective, hence onto [0, len).  p is then a permutation of the
    naturals, so every check of ``audit`` but the bound holds at every point.
    """
    if p.table is None:
        return None
    images, preimages = p.table
    n = len(images)
    if (len(preimages) != n or (n and (min(images) < 0 or max(images) >= n))
            or list(map(preimages.__getitem__, images)) != list(range(n))):
        return None
    return [*islice(preimages, size), *range(n, size)]


def _evaluated_backward(p: LazyPerm, fwd: list[int]) -> list[int] | AuditViolation:
    """p's backward values on [0, H], each point evaluated once, given its
    forward values ``fwd`` there, or the first violation of the range,
    injectivity and round-trip checks.

    The backward map must take each forward value back to its point.  A
    repeated forward value breaks that, so injectivity is looked at only
    once this round trip fails.  When every forward value lies in [0, H],
    fwd is a permutation of [0, H] with the backward values as its inverse,
    so the backward round trip holds; otherwise the forward map must take
    each backward value back to its point.  Each round trip reads one map's
    values at the other's through ``_read``.
    """
    size = len(fwd)
    if min(fwd) < 0:
        return AuditViolation("range", next(m for m, v in enumerate(fwd) if v < 0))
    bwd = inverse_lazy(p).values(size - 1)
    points = list(range(size))
    m = _first_difference(_read(bwd, p.backward, fwd), points)
    if m is not None:
        seen: set[int] = set()
        for k, v in enumerate(fwd):
            if v in seen:
                return AuditViolation("injectivity", k)
            seen.add(v)
        return AuditViolation("roundtrip", m)
    if max(fwd) >= size:
        if min(bwd) < 0:
            return AuditViolation("range", next(v for v, u in enumerate(bwd) if u < 0),
                                  side="backward")
        v = _first_difference(_read(fwd, p.forward, bwd), points)
        if v is not None:
            return AuditViolation("roundtrip", v, side="backward")
    return bwd


def _read(known: Sequence[int], fn: Callable[[int], int], points: list[int]) -> list[int]:
    """fn at each of ``points``, which are naturals: ``known`` holds fn's
    values on a prefix, and fn is evaluated once at each distinct point past
    it."""
    size, past = len(known), {}
    return [known[v] if v < size else past[v] if v in past else past.setdefault(v, fn(v))
            for v in points]


def _first_difference(xs: list[int], ys: list[int]) -> int | None:
    """The first m with xs[m] != ys[m], or None; a scan runs only once the
    lists are known to differ."""
    return None if xs == ys else next(compress(count(), map(ne, xs, ys)))


def _suffix_minima(bound_values: Sequence) -> Sequence:
    """min(g(n), ..., g(H)) at each n: g itself when g is monotone, as every
    member of the calculus is.  A value at m exceeds it exactly when the
    running maximum exceeds g at some n >= m."""
    if all(map(le, bound_values, islice(bound_values, 1, None))):
        return bound_values
    return list(accumulate(reversed(bound_values), min))[::-1]


def _first_excess(values: list[int], bound_values: Sequence,
                  floor: Sequence) -> tuple[int, int] | None:
    """(m, n) for the least n with max(values[:n + 1]) > g(n), where m is the
    point of that maximum, or None.  ``values`` is injective and ``floor`` is
    ``_suffix_minima(bound_values)``."""
    if not any(map(gt, values, floor)):
        return None
    peaks = list(accumulate(values, max))
    n = next(n for n, (v, gn) in enumerate(zip(peaks, bound_values)) if v > gn)
    return values.index(peaks[n]), n


class _ScanTable(NamedTuple):
    """What the free-point scan of one carrier x reads, over [0, size).

    ``back`` is >= n at v < n exactly when v is in R_n(x): x's preimage of
    each value (``size`` where there is none), or, for x with an inverse
    y != x, y's values, since R_n(x) = D_n(y).  An involution has none: its
    R_n is its D_n.
    """
    vals: Sequence[int]              # x's forward values
    vals_max: Sequence[int]          # running maxima of vals
    back: Sequence[int] | None
    back_max: Sequence[int] | None   # running maxima of back


@dataclass(eq=False)
class GChunk:
    """A chunk whose elements are carried by lazy permutations bounded by g,
    with the tables its degree-n supp restrictions read, for n <= H.

    ``build_gchunk`` hands over the forward values ``values`` (per element
    other than the unit) and ``bound_values`` it audited on [0, H]; the
    queries evaluate nothing.  The degree-n restriction of a carrier rho
    equals rho except at its free points D_n = {m < n : rho(m) >= n}, which
    go, in increasing order, to R_n = {v < n : no m < n has rho(m) = v} in
    increasing order.  The unit is the identity.

    Where the table defines both x * y = e and y * x = e, y's restriction is
    the inverse of x's at every degree (the lemma of the module docstring).
    ``scans`` lists each carrier whose free points are scanned, the first of
    its inverse pair in element order, with its inverse: itself for an
    involution, which fixes its free points; None when the table proves no
    inverse.  The inverse's free points are the scanned ones, turned round.
    Per scanned carrier the tables hold running maxima of its values and of
    a sequence that marks R_n (``_ScanTable``), so that D_n and R_n lie in a
    window found by bisection.

    ``products`` keeps one non-unit product per inverse orbit
    {(a, b, ab), (b^-1, a^-1, (ab)^-1)}, the first in table order, and
    drops the products (x, y, e) of mutual inverses, which count 0.
    ``pairs`` keeps one distinct pair per orbit {(x, y), (x^-1, y^-1)}, the
    first in element order, and per kept pair the tables hold the sorted
    points below ``size`` where the carriers themselves disagree.  Products
    need no table: ``extremes`` relies on the table check's proof that the
    carriers compose exactly on [0, H].  Both ``extremes`` and ``images``
    rely on its proof of the inverses, so they are correct only for tables
    that passed it.

    A degree is settled when no carrier has a free point there: each
    carrier's running maximum below n is below n, so every restriction is
    its carrier.  The tables mark every settled degree up to ``size``.

    The first query builds the tables over its own n points; a later degree
    beyond them builds them once over [0, H].  A degree past H is refused.
    The audit proved every carrier injective on [0, H], so no two points
    below n share an image.
    """

    chunk: Chunk
    carriers: dict[str, LazyPerm]
    bound: GrowthFn
    horizon: int
    values: Mapping[str, Sequence[int]] = field(repr=False)
    bound_values: list = field(repr=False)

    def __post_init__(self) -> None:
        elements, unit, table = self.chunk.elements, self.chunk.unit, self.chunk.table
        self.vals = {unit: range(self.horizon + 1), **self.values}
        # Both x * y = e and y * x = e prove y the inverse of x; cancellation
        # makes it unique.  The unit's restriction is the identity.
        inverse = {unit: unit}
        inverse.update((x, y) for (x, y), c in table.items()
                       if c == unit and table.get((y, x)) == unit)
        self.scans: list[tuple[str, str | None]] = []
        for x in self.values:
            if x not in (y for _, y in self.scans):
                self.scans.append((x, inverse.get(x)))
        # the unit products (e, b, b) and (a, e, a) count 0 like (x, x^-1, e)
        self.products, twins = [], set()
        for (a, b), ab in table.items():
            if (self.chunk.is_unit_product(a, b, ab) or (ab == unit and inverse.get(a) == b)
                    or (a, b, ab) in twins):
                continue
            self.products.append((a, b, ab))
            if a in inverse and b in inverse and ab in inverse:
                twins.add((inverse[b], inverse[a], inverse[ab]))
        self.pairs, twins = [], set()
        for i, x in enumerate(elements):
            for y in elements[i + 1:]:
                if (x, y) in twins:
                    continue
                self.pairs.append((x, y))
                if x in inverse and y in inverse:
                    twins.update(((inverse[x], inverse[y]), (inverse[y], inverse[x])))
        self.size = 0

    def _grow(self, n: int) -> None:
        """Build the tables for a degree n outside 1..``size``."""
        if n < 1:
            raise ValueError("degree must be positive")
        if n > self.horizon:
            raise ValueError(f"degree {n} lies past the audited horizon {self.horizon}")
        size = self.horizon if self.size else n
        ident = range(size)
        self.tables = {}
        for x, y in self.scans:
            head = self.vals[x][:size]
            if y == x:
                back = None
            elif y is None:
                preimage = dict(zip(head, ident))
                back = list(map(preimage.get, ident, repeat(size)))
            else:
                back = self.vals[y][:size]
            self.tables[x] = _ScanTable(self.vals[x], list(accumulate(head, max)), back,
                                        None if back is None else list(accumulate(back, max)))
        self.pair_points = [list(compress(ident, map(ne, self.vals[x], self.vals[y])))
                            for x, y in self.pairs]
        # settled[n]: the running maximum of every carrier below n is below
        # n; an inverse has free points exactly where its partner has
        tops = map(max, zip(ident, *(t.vals_max for t in self.tables.values())))
        self.settled = [False] + list(map(gt, range(1, size + 1), tops))
        self.size = size

    def _free(self, n: int) -> dict[str, dict[int, int]]:
        """Per element with free points at a degree n in 1..``size``, those
        points mapped to their images; empty at a settled degree.  The unit
        has none.  The inverse y of a scanned carrier x maps R_n(x) back to
        D_n(x), and an involution fixes its free points."""
        free = {}
        for x, y in self.scans:
            vals, vals_max, back, back_max = self.tables[x]
            if vals_max[n - 1] >= n:
                dom = [m for m in range(bisect_left(vals_max, n, 0, n), n) if vals[m] >= n]
                if x == y:
                    free[x] = dict(zip(dom, dom))
                    continue
                rng = [v for v in range(bisect_left(back_max, n, 0, n), n) if back[v] >= n]
                free[x] = dict(zip(dom, rng))
                if y is not None:
                    free[y] = dict(zip(rng, dom))
        return free

    def images(self, n: int) -> dict[str, list[int]]:
        """Image lists of the degree-n restrictions."""
        if not 0 < n <= self.size:
            self._grow(n)
        free = self._free(n)
        out = {}
        for e in self.chunk.elements:
            out[e] = images = list(islice(self.vals[e], n))
            for m, v in free.get(e, {}).items():
                images[m] = v
        return out

    def extremes(self, n: int) -> tuple[int, int | None]:
        """The largest product count and the smallest pair count of
        ``profile.disagreement_counts`` of the degree-n restrictions; the
        second is None when the chunk has no pair.

        A pair counts the carriers' disagreements below n plus a correction
        at the free points of either member.  A product (a, b, ab) counts
        where its restrictions differ among the free points of b and ab: at
        any other m, b(m) and ab(m) = a(b(m)) are below n, so no restriction
        leaves its carrier there.  A dropped product counts 0 or as the one
        kept from its orbit, and a dropped pair as the one kept from its
        orbit.  At a settled degree every product counts 0, and the answer is
        read before any free point: 0 and the least of the pairs' bisections.
        """
        if not 0 < n <= self.size:
            self._grow(n)
        if self.settled[n]:
            return 0, min(map(bisect_left, self.pair_points, repeat(n))) if self.pairs else None
        free, t, none = self._free(n), self.vals, {}
        worst = 0
        for a, b, ab in self.products:
            fb, fab = free.get(b, none), free.get(ab, none)
            if fb or fab:
                va, vb, vab, fa = t[a], t[b], t[ab], free.get(a, none)
                k = 0
                for m, w in fb.items():
                    k += fab.get(m, vab[m]) != fa.get(w, va[w])
                for m, u in fab.items():
                    if m not in fb:
                        w = vb[m]
                        k += u != fa.get(w, va[w])
                if k > worst:
                    worst = k
        closest = None
        for (x, y), points in zip(self.pairs, self.pair_points):
            k = bisect_left(points, n)
            fx, fy = free.get(x, none), free.get(y, none)
            if fx or fy:
                vx, vy = t[x], t[y]
                # At a free point of one member only, that carrier's value is
                # n or more and the other's is below n: the carriers disagree.
                for m, u in fx.items():
                    if m in fy:
                        k += (u != fy[m]) - (vx[m] != vy[m])
                    else:
                        k -= u == vy[m]
                for m, v in fy.items():
                    if m not in fx:
                        k -= v == vx[m]
            if closest is None or k < closest:
                closest = k
        return worst, closest


def build_gchunk(chunk: Chunk, carriers: Mapping[str, LazyPerm], bound: GrowthFn,
                 horizon: int) -> GChunk:
    """Validate the chunk, audit every carrier and the table consistency,
    then assemble the g-chunk.

    The unit's carrier defaults to ``identity_lazy()``, and its forward
    values on the horizon must be the points.  Then every carrier, the
    unit's included, gets the checks of ``audit`` in element order.  Where
    the table defines a*b = c, the carriers of a and b must compose to the
    carrier of c pointwise on the audited prefix.  That holds for a*e = a,
    and for e*b = b unless a b-value passes the horizon, so those are not
    composed.

    Each carrier's forward values on the horizon are read once, by
    ``LazyPerm.values`` (a slice of a table, or one evaluation per point),
    and the bound's by ``GrowthFn.values``; the audits, the table check and
    the g-chunk's restriction tables read those values.  The table check
    reads a's values at b's through ``_read``, so a's forward map is
    evaluated again only at b-values past the horizon, once per point and
    product.
    """
    validated(chunk)
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon {horizon} exceeds the largest audited prefix, {MAX_HORIZON}")
    unit = chunk.unit
    carriers = dict(carriers)
    carriers.setdefault(unit, identity_lazy())
    missing = [e for e in chunk.elements if e not in carriers]
    if missing:
        raise GChunkError(f"no carrier for elements {missing}")

    values = {unit: carriers[unit].values(horizon)}
    moved = _first_difference(values[unit], list(range(horizon + 1)))
    if moved is not None:
        raise GChunkError(f"unit carrier moves {moved}")
    bound_values = bound.values(horizon)
    floor = _suffix_minima(bound_values)
    for e in chunk.elements:
        if e not in values:
            values[e] = carriers[e].values(horizon)
        violation = _audit(carriers[e], values[e], bound_values, floor)
        if violation is not None:
            raise GChunkError(f"carrier of {e!r}: {violation}")

    for (a, b), c in chunk.table.items():
        if b == unit or (a == unit and max(values[b]) <= horizon):
            continue  # the unit's values are the points of [0, H]
        bad = _first_difference(_read(values[a], carriers[a].forward, values[b]), values[c])
        if bad is not None:
            raise GChunkError(f"table says {a} * {b} = {c} but carriers disagree at {bad}")

    del values[unit]  # the tables take the unit to the identity at every degree
    return GChunk(chunk, carriers, bound, horizon, values, bound_values)


def supp_morphism(gc: GChunk, n: int) -> dict[str, Perm]:
    """Degree-n restriction of every carrier, greedily completed to bijections.

    A carrier's pairs (m, rho(m)) with both sides below n are kept; leftover
    domain points are matched to leftover range points in increasing order.
    The unit goes to the identity.
    """
    return {e: Perm(tuple(images)) for e, images in gc.images(n).items()}


class SuppReport(NamedTuple):
    """Measured quality of the degree-n supp morphism against the g-bounds.

    ``defect_bound_holds`` is false only if the code is wrong: a product
    counts only at free points of b or ab, and the audited bound leaves each
    carrier at most n - m* of them.

    A NamedTuple rather than a frozen dataclass, because a scan builds one
    per degree: the frozen dataclass set its ten fields through
    ``object.__setattr__``, 1.06 us a report against 0.26 us for the tuple
    (timeit, Python 3.11.7), where a settled degree's ``GChunk.extremes``
    takes 0.48 us.  It is immutable and hashable, and compares equal to a
    plain tuple of the same values.
    """

    n: int
    r: Fraction
    m_star: int | None
    quality: MorphismQuality
    defect_bound: Fraction | None          # 2(n - m*)/n when m* exists
    defect_bound_holds: bool | None
    separation_hypothesis: bool            # g(n - |Fix|) >= n for distinct pairs
    conclusion_expected: bool              # hypothesis and (n - m*)/n <= 1/(2r)
    expansiveness_threshold: Fraction      # 1 - 1/(2r)
    expansiveness_ok: bool


@lru_cache(maxsize=16)
def _supp_parameters(r) -> tuple[Fraction, Fraction, int, int]:
    """r as a Fraction, the expansiveness threshold 1 - 1/(2r), and the
    numerator and denominator of 1/(2r), built once per r rather than at
    every degree of a scan."""
    r = quality_parameter(r)
    num, den = r.denominator, 2 * r.numerator
    return r, 1 - Fraction(num, den), num, den


_ZERO = Fraction(0)


def supp_quality(gc: GChunk, n: int, r) -> SuppReport:
    """The degree-n supp report.  Each condition is decided on the two
    integers of ``GChunk.extremes`` against the radius of 2r; the Fractions
    are only reported."""
    r, expansiveness_threshold, num, den = _supp_parameters(r)
    worst, closest = gc.extremes(n)
    radius = n * num // den  # floor(n/(2r)), as threshold_radius(n, 2r)
    # the largest m with g(m) <= n: g is monotone with g(m) > m
    m_star = bisect_right(gc.bound_values, n, 0, n + 1) - 1
    if m_star < 0:
        m_star = defect_bound = bound_holds = None
        gap_small = False
    else:
        defect_bound = Fraction(2 * (n - m_star), n)
        bound_holds = worst <= 2 * (n - m_star)
        gap_small = n - m_star <= radius
    # Growth functions are monotone, so the closest pair decides the hypothesis.
    hypothesis = closest is None or gc.bound_values[closest] >= n
    quality = MorphismQuality(Fraction(worst, n) if worst else _ZERO,
                              None if closest is None else Fraction(closest, n))
    # positional, in field order: keyword arguments build the report slower
    return SuppReport(n, r, m_star, quality, defect_bound, bound_holds, hypothesis,
                      hypothesis and gap_small, expansiveness_threshold,
                      closest is None or closest >= n - radius)


def supp_defect_holds(gc: GChunk, n: int, r: Fraction) -> bool:
    """Whether the degree-n supp morphism has defect at most 1/r."""
    return gc.extremes(n)[0] <= threshold_radius(n, r)


def property_profile(gc: GChunk, r, n_max: int) -> int | Exhausted:
    """Least degree at which the supp morphism's defect drops to 1/r.

    Cross-checked against growth_profile(bound, 2r): whenever that bound is
    finite and within n_max, the returned degree may not exceed it.  The
    defect need not be monotone in n, so degrees past the returned one may
    fail again; ``supp_defect_holds`` tests any one degree.
    """
    r = quality_parameter(r)
    found = None
    for n in range(1, n_max + 1):
        if supp_defect_holds(gc, n, r):
            found = n
            break
    bound = growth_profile(gc.bound, 2 * r, n_max)
    if isinstance(bound, int):
        if found is None or found > bound:
            raise RuntimeError(
                f"supp defect stays above 1/r through degree {bound}, which the "
                "growth profile of the declared bound guarantees to suffice")
    if found is None:
        return Exhausted(n_max)
    return found


# -- block-direct-sum realization ----------------------------------------------

@dataclass(frozen=True)
class StageReport:
    """Quality of the stage-n block sum and its slowness inequalities.

    ``slow_lhs`` uses the stage sums below n; ``g_gap`` is 1 - j/g(j) at the
    block end j = degree - 1 of the realized growth bound, whose block-n
    offset sums through n.  The two differ by one stage of block sizes and the
    construction keeps both below 1/n.
    """

    n: int
    m_n: int
    f_n: int
    degree: int                      # total degree through this stage
    defect: Fraction
    expansiveness: Fraction | None
    slow_lhs: Fraction
    g_gap: Fraction
    slow_threshold: Fraction


@dataclass(frozen=True)
class Realization:
    """Block-direct-sum family realizing a chunk inside permutations of N.

    Stage i (i = 2..depth) contributes f_i consecutive copies of the degree
    m_i stage assignment; beyond the constructed blocks every carrier is
    the identity.  ``g`` is the block-step growth function of the layout and
    bounds every carrier exactly, blockwise.
    """

    chunk: Chunk
    m: tuple[int, ...]
    f: tuple[int, ...]
    layout: tuple[int, ...]          # cumulative degrees, one per stage
    sigma: tuple[dict[str, Perm], ...]
    g: BlockStep
    stages: tuple[StageReport, ...]

    @property
    def depth(self) -> int:
        return len(self.m) + 1

    def block_sum_assignment(self, n: int) -> dict[str, Perm]:
        """The stage-n block sum: f(i) copies of each stage assignment, i = 2..n."""
        if not 2 <= n <= self.depth:
            raise ValueError(f"stage {n} outside 2..{self.depth}")
        return {
            e: block_sum([(self.sigma[i - 2][e], self.f[i - 2]) for i in range(2, n + 1)])
            for e in self.chunk.elements
        }

    def carrier(self, e: str) -> LazyPerm:
        """The block sum of every stage's image of ``e``, tabulated in both
        directions once, and the identity from ``layout[-1]`` on."""
        if e not in self.chunk.elements:
            raise ValueError(f"element {e!r} not in chunk")
        images = block_sum_images([(s[e], f_n) for s, f_n in zip(self.sigma, self.f)])
        return _tabulated(images, f"blocksum:depth={self.depth}")

    def exact_products(self) -> dict[tuple[str, str], str]:
        """Pairs whose carriers compose to another carrier exactly.

        Block sums compose blockwise and the tails are identities, so equality
        of total functions reduces to per-stage equality of finite
        permutations; no horizon is involved.
        """
        out: dict[tuple[str, str], str] = {}
        elems = self.chunk.elements
        stage_images = [{e: s[e].images for e in elems} for s in self.sigma]
        for a in elems:
            for b in elems:
                composites = [
                    tuple(imgs[a][imgs[b][x]] for x in range(len(imgs[b])))
                    for imgs in stage_images
                ]
                for c in elems:
                    if all(imgs[c] == comp
                           for imgs, comp in zip(stage_images, composites)):
                        out[(a, b)] = c
                        break
        return out

    def realized_chunk(self) -> Chunk:
        """The carriers' own chunk: the induced table of exact compositions.

        When some stage assignment has positive defect, products of the abstract
        table drop out here; the name-preserving bijection onto the abstract
        chunk is then a homomorphism that is not an isomorphism.
        """
        return Chunk(self.chunk.elements, self.chunk.unit, self.exact_products())

    def gchunk(self, horizon: int | None = None) -> GChunk:
        """The realized g-chunk: carriers over the induced (exact) table."""
        if horizon is None:
            horizon = self.layout[-1] + self.m[-1]
        carriers = {e: self.carrier(e) for e in self.chunk.elements}
        return build_gchunk(self.realized_chunk(), carriers, self.g, horizon)


def realize(c: Chunk, sigma: Sequence[Mapping[str, Perm]]) -> Realization:
    """Assemble the realization from stage assignments at r = 2, 3, ..., depth.

    ``sigma[i]`` maps each element to its permutation at r = i + 2; the
    stage's degree m is read off its images.

    Each multiplicity f(n) is the least positive integer making the stage-n
    block sum a (1 - 1/(n-1))-expansive 1/(n-1)-morphism while keeping both
    block-end slowness quantities below 1/n.  A block sum's disagreement
    counts are the f-weighted sums of the per-stage ``disagreement_counts``,
    so with D the degree and K_p, A_q the weighted counts of product p and
    pair q through stage n-1, and m = m_n, k_p, a_q the stage-n
    assignment's counts, every constraint is linear in f and f(n) is the
    largest of 1 and

    - ceil(((n-1)K_p - D) / (m - (n-1)k_p)) over products (defect),
    - ceil(((n-2)D - (n-1)A_q) / ((n-1)a_q - (n-2)m)) over pairs
      (expansiveness),
    - floor(((n-1)S + 1 - D) / m) + 1 with S = m_2 + ... + m_n (g_gap).

    Both denominators are positive because the stage-n assignment meets
    r = n, which is checked on its counts: n k_p <= m gives
    (n-1)k_p < m, and n a_q >= (n-1)m gives (n-1)a_q > (n-2)m.  The
    stage-sum ratio slow_lhs never exceeds g_gap, since x/(degree-1+x) does
    not decrease in x, so its inequality follows.
    """
    validated(c)
    if not sigma:
        raise ValueError("need at least the r = 2 stage assignment")
    counts = []
    for r, stage in enumerate(sigma, start=2):
        if set(stage) != set(c.elements):
            raise ValueError(f"stage at r = {r} covers different elements")
        try:
            m, k, a = disagreement_counts(c, stage)
        except ValueError as exc:
            raise ValueError(f"stage at r = {r} is not a map into one S_m "
                             f"sending the unit to the identity: {exc}") from None
        if m < 1:
            raise ValueError(f"stage at r = {r} has degree {m}, below 1")
        radius = threshold_radius(m, Fraction(r))
        if any(k_p > radius for k_p in k) or any(a_q < m - radius for a_q in a):
            raise ValueError(f"stage at r = {r} does not meet its thresholds")
        counts.append((m, k, a))

    m_list = [m for m, _, _ in counts]
    stages: list[StageReport] = []
    k_run = [0] * len(c.table)
    a_run = [0] * len(counts[0][2])
    degree = sum_m = 0
    for n, (m, k, a) in enumerate(counts, start=2):
        sum_m_prev, sum_m = sum_m, sum_m + m
        # ceil(x / y) is -((-x) // y) for y > 0
        f_n = max([1, ((n - 1) * sum_m + 1 - degree) // m + 1]
                  + [-((degree - (n - 1) * K) // (m - (n - 1) * k_p))
                     for K, k_p in zip(k_run, k)]
                  + [-(((n - 1) * A - (n - 2) * degree) // ((n - 1) * a_q - (n - 2) * m))
                     for A, a_q in zip(a_run, a)])
        k_run = [K + f_n * k_p for K, k_p in zip(k_run, k)]
        a_run = [A + f_n * a_q for A, a_q in zip(a_run, a)]
        degree += f_n * m
        slow_den = degree - 1 + sum_m_prev
        stages.append(StageReport(
            n=n, m_n=m, f_n=f_n, degree=degree,
            defect=Fraction(max(k_run, default=0), degree),
            expansiveness=Fraction(min(a_run), degree) if a_run else None,
            slow_lhs=Fraction(sum_m_prev, slow_den) if slow_den else Fraction(0),
            g_gap=Fraction(sum_m, degree - 1 + sum_m),
            slow_threshold=Fraction(1, n)))

    layout = tuple(st.degree for st in stages)
    return Realization(
        chunk=c, m=tuple(m_list), f=tuple(st.f_n for st in stages), layout=layout,
        sigma=tuple(map(dict, sigma)),
        g=BlockStep(layout, tuple(accumulate(m_list))), stages=tuple(stages))
