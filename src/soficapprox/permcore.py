"""Finite permutations with the normalized Hamming metric.

Permutations act on ``{0, ..., n-1}``.  Composition is functional:
``compose(p, q)`` maps ``x`` to ``p(q(x))``.  Every distance is an exact
``fractions.Fraction``; no float enters any metric or threshold comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import ne
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Perm:
    """A permutation of ``{0, ..., n-1}`` stored as its one-line image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        seen = [False] * n
        for v in self.images:
            if type(v) is not int or not 0 <= v < n or seen[v]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {self.images!r}")
            seen[v] = True

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths (fixed points included as parts of size 1).

    Parts are normalized to descending order; their sum is the degree of any
    permutation with this type.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not isinstance(p, int) or p < 1 for p in self.parts):
            raise ValueError(f"cycle-type parts must be positive integers: {self.parts!r}")
        ordered = tuple(sorted(self.parts, reverse=True))
        object.__setattr__(self, "parts", ordered)

    @property
    def degree(self) -> int:
        return sum(self.parts)


def identity(n: int) -> Perm:
    return Perm(tuple(range(n)))


def transposition(n: int, i: int, j: int) -> Perm:
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"bad transposition ({i} {j}) in degree {n}")
    images = list(range(n))
    images[i], images[j] = j, i
    return Perm(tuple(images))


def compose(p: Perm, q: Perm) -> Perm:
    """The permutation x -> p(q(x)).  Degrees must agree."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    qi = q.images
    pi = p.images
    return Perm(tuple(pi[qi[x]] for x in range(len(pi))))


def inverse(p: Perm) -> Perm:
    out = [0] * p.degree
    for x, v in enumerate(p.images):
        out[v] = x
    return Perm(tuple(out))


def fixed_point_count(p: Perm) -> int:
    return sum(1 for x, v in enumerate(p.images) if x == v)


def cycles_of(p: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycles, each starting at its least point, ordered by that point."""
    seen = [False] * p.degree
    out = []
    for start in range(p.degree):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = p.images[x]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> CycleType:
    return CycleType(tuple(len(c) for c in cycles_of(p)))


def disagreements(p: Perm, q: Perm) -> int:
    """Number of points where p and q differ; p and q have the same degree."""
    return sum(map(ne, p.images, q.images))


def hamming_distance(p: Perm, q: Perm) -> Fraction:
    """d(p, q) = 1 - |Fix(p^-1 q)| / n, i.e. the fraction of points where p, q differ."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    n = p.degree
    if n == 0:
        return Fraction(0)
    return Fraction(disagreements(p, q), n)


def block_sum(parts: Sequence[tuple[Perm, int]]) -> Perm:
    """Direct sum acting on consecutive disjoint blocks.

    Each ``(perm, multiplicity)`` contributes ``multiplicity`` consecutive
    copies of ``perm``, in the given order.  Empty input gives the degree-0
    identity.
    """
    return Perm(block_sum_images(parts))


def block_sum_images(parts: Sequence[tuple[Perm, int]]) -> tuple[int, ...]:
    """The one-line images of ``block_sum(parts)``, not wrapped in a ``Perm``:
    the blocks of validated parts are a permutation, so callers that hold
    ``Perm`` parts need no second check."""
    images: list[int] = []
    offset = 0
    for perm, mult in parts:
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult}")
        for _ in range(mult):
            images.extend(map(offset.__add__, perm.images))
            offset += perm.degree
    return tuple(images)


def cycle_type_representative(t: CycleType, n: int) -> Perm:
    """Canonical member of the conjugacy class of type ``t`` in degree ``n``.

    Cycles occupy consecutive points, longest parts first; within a cycle each
    point maps to its successor and the last point closes back.
    """
    if t.degree != n:
        raise ValueError(f"parts {t.parts} sum to {t.degree}, not {n}")
    return Perm(_representative_images(t.parts))


def _representative_images(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The images of the representative of the cycle type with ``parts``,
    longest first: a permutation, so they need no check."""
    images: list[int] = []
    for part in parts:
        start = len(images)
        images.extend(range(start + 1, start + part))
        images.append(start)
    return tuple(images)


def _partitions(n: int, cap: int) -> Iterable[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def representatives(n: int) -> tuple[tuple[int, ...], ...]:
    """The images of every cycle type's representative in degree n, in
    ascending order: the order of ``all_cycle_types``."""
    return tuple(sorted(map(_representative_images, _partitions(n, n))))


@lru_cache(maxsize=None)
def all_cycle_types(n: int) -> tuple[CycleType, ...]:
    """All cycle types of degree n, ordered by their representative's image tuple."""
    return tuple(CycleType(parts)
                 for parts in sorted(_partitions(n, n), key=_representative_images))


def format_perm(p: Perm) -> str:
    return "[" + " ".join(str(v) for v in p.images) + "]"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_perm(text: str, degree: int | None = None) -> Perm:
    """Parse ``[i0 i1 ...]`` one-line form or ``(0 1)(2 3)`` cycle form.

    Fixed points are implicit in cycle form, so its degree is taken from
    ``degree`` when given, else from the largest point mentioned.
    """
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated image list: {text!r}")
        body = text[1:-1].replace(",", " ").split()
        images = tuple(int(tok) for tok in body)
        if degree is not None and len(images) != degree:
            raise ValueError(f"image list has degree {len(images)}, expected {degree}")
        return Perm(images)
    if text == "" or text == "()":
        return identity(degree if degree is not None else 0)
    if not text.startswith("("):
        raise ValueError(f"cannot parse permutation: {text!r}")
    if _CYCLE_RE.sub("", text).strip():
        raise ValueError(f"stray text outside cycles: {text!r}")
    cycles = []
    top = -1
    for span in _CYCLE_RE.findall(text):
        pts = [int(tok) for tok in span.replace(",", " ").split()]
        cycles.append(pts)
        top = max(top, max(pts, default=-1))
    n = degree if degree is not None else top + 1
    if top >= n:
        raise ValueError(f"cycle point {top} exceeds degree {n}")
    images = list(range(n))
    used: set[int] = set()
    for pts in cycles:
        for i, x in enumerate(pts):
            if x in used:
                raise ValueError(f"point {x} appears twice in {text!r}")
            used.add(x)
            images[x] = pts[(i + 1) % len(pts)]
    return Perm(tuple(images))
