"""Finite chunks: subsets of a group with the induced partial multiplication.

A chunk stores an ordered element list, a distinguished unit, and a partial
table; absent entries mean the product falls outside the chunk.  Validation
checks only conditions every group trace must satisfy (unit laws,
cancellation, partial associativity); passing them does not certify abstract
embeddability into a group.

Text format, one statement per line (``#`` starts a comment)::

    unit 1
    elem a
    a * a = 1
    a * b = undef

Unspecified products default to undef.  ``unit``/``elem`` lines declare
elements in order of first appearance; printing is canonical and round-trips
bit-exactly through the parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

_RESERVED = {"unit", "elem", "undef", "*", "=", "#"}


class ChunkParseError(ValueError):
    """Malformed chunk/gchunk text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class Chunk:
    """Finite partial group: ordered elements, unit, partial product table."""

    elements: tuple[str, ...]
    unit: str
    table: dict[tuple[str, str], str]

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate elements")
        for e in self.elements:
            if not e or e in _RESERVED or any(ch.isspace() for ch in e):
                raise ValueError(f"bad element identifier {e!r}")
        if self.unit not in self.elements:
            raise ValueError(f"unit {self.unit!r} not among elements")
        members = set(self.elements)
        for (a, b), c in self.table.items():
            if a not in members or b not in members or c not in members:
                raise ValueError(f"table entry {a} * {b} = {c} mentions unknown element")

    def product(self, a: str, b: str) -> str | None:
        return self.table.get((a, b))

    def is_unit_product(self, a: str, b: str, ab: str) -> bool:
        """True for e * b = b and a * e = a, which every unit-preserving map
        into a permutation group satisfies exactly."""
        return (a == self.unit and b == ab) or (b == self.unit and a == ab)

    def __repr__(self) -> str:
        return f"Chunk({list(self.elements)}, unit={self.unit!r}, {len(self.table)} products)"


@dataclass(frozen=True)
class ValidationReport:
    """Every violated unit law, cancellation failure, and associativity failure."""

    unit_violations: tuple[str, ...] = ()
    cancellation_violations: tuple[str, ...] = ()
    associativity_violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not (self.unit_violations or self.cancellation_violations
                    or self.associativity_violations)

    def all_violations(self) -> tuple[str, ...]:
        return self.unit_violations + self.cancellation_violations + self.associativity_violations


def _repeats(line: dict[str, str]) -> list[tuple[str, str, str]]:
    """(first, later, v) for each key of a row or column whose value v an
    earlier key already took; empty at once when the values are distinct."""
    if len(set(line.values())) == len(line):
        return []
    first: dict[str, str] = {}
    return [(first[v], k, v) for k, v in line.items() if first.setdefault(v, k) != k]


def validate(c: Chunk) -> ValidationReport:
    """Check unit laws, two-sided cancellation, and partial associativity.

    Every law is read off two views of the table, built once in element
    order: the rows a -> {b: a*b} and the columns b -> {a: a*b}.  Violations
    are data, not errors, and keep their order: the unit laws element by
    element, left cancellation row by row, right cancellation column by
    column, then associativity by (a, b, d), each in element order.  An
    empty report means all three families of conditions hold.
    """
    elems, u, get = c.elements, c.unit, c.table.get
    rows = {a: {b: v for b in elems if (v := get((a, b))) is not None} for a in elems}
    cols = {b: {a: row[b] for a, row in rows.items() if b in row} for b in elems}

    unit_bad = [f"{a} * {b} = {got or 'undef'} (expected {x})"
                for x in elems
                for a, b, got in ((u, x, rows[u].get(x)), (x, u, rows[x].get(u)))
                if got != x]
    cancel_bad = [f"left cancellation: {a} * {first} = {a} * {b} = {v}"
                  for a, row in rows.items() for first, b, v in _repeats(row)]
    cancel_bad += [f"right cancellation: {first} * {b} = {a} * {b} = {v}"
                   for b, col in cols.items() for first, a, v in _repeats(col)]

    assoc_bad = []
    for a, ra in rows.items():
        for b, ab in ra.items():
            rab = rows[ab]
            for d, bd in rows[b].items():
                left, right = rab.get(d), ra.get(bd)
                if left != right and left is not None and right is not None:
                    assoc_bad.append(f"({a} * {b}) * {d} = {left} but {a} * ({b} * {d}) = {right}")

    return ValidationReport(tuple(unit_bad), tuple(cancel_bad), tuple(assoc_bad))


def validated(c: Chunk) -> Chunk:
    """``c``, once it passes ``validate``, else a one-line ValueError naming
    every violation: the gate of every search and realization entry."""
    report = validate(c)
    if not report.ok:
        raise ValueError("chunk fails validation: " + "; ".join(report.all_violations()))
    return c


def induced_chunk(elems: Sequence[str], unit: str,
                  mult_oracle: Callable[[str, str], str]) -> Chunk:
    """Chunk of an ambient multiplication: keep a*b exactly when it lands in elems."""
    if unit not in elems:
        raise ValueError(f"unit {unit!r} not in element list")
    members = set(elems)
    table = {}
    for a in elems:
        for b in elems:
            v = mult_oracle(a, b)
            if v in members:
                table[(a, b)] = v
    return Chunk(tuple(elems), unit, table)


# -- text format ------------------------------------------------------------

def format_chunk(c: Chunk) -> str:
    """Canonical text: element declarations in order, then products row-major."""
    lines = []
    for e in c.elements:
        lines.append(f"unit {e}" if e == c.unit else f"elem {e}")
    for a in c.elements:
        for b in c.elements:
            v = c.product(a, b)
            if v is not None:
                lines.append(f"{a} * {b} = {v}")
    return "\n".join(lines) + "\n"


def parse_chunk(text: str) -> Chunk:
    elements: list[str] = []
    members: set[str] = set()
    unit: str | None = None
    table: dict[tuple[str, str], str] = {}
    explicit_undef: set[tuple[str, str]] = set()

    def declare(name: str, lineno: int) -> None:
        if not name or name in _RESERVED or any(ch.isspace() for ch in name):
            raise ChunkParseError(lineno, f"bad element identifier {name!r}")
        if name not in members:
            members.add(name)
            elements.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "unit":
            if len(toks) != 2:
                raise ChunkParseError(lineno, "expected: unit NAME")
            if unit is not None:
                raise ChunkParseError(lineno, f"unit already declared as {unit!r}")
            declare(toks[1], lineno)
            unit = toks[1]
        elif toks[0] == "elem":
            if len(toks) != 2:
                raise ChunkParseError(lineno, "expected: elem NAME")
            declare(toks[1], lineno)
        elif len(toks) == 5 and toks[1] == "*" and toks[3] == "=":
            a, b, v = toks[0], toks[2], toks[4]
            for name in (a, b) + ((v,) if v != "undef" else ()):
                if name not in members:
                    raise ChunkParseError(lineno, f"undeclared element {name!r}")
            key = (a, b)
            if key in table or key in explicit_undef:
                raise ChunkParseError(lineno, f"product {a} * {b} defined twice")
            if v == "undef":
                explicit_undef.add(key)
            else:
                table[key] = v
        else:
            raise ChunkParseError(lineno, f"cannot parse statement {line!r}")

    if unit is None:
        raise ChunkParseError(len(text.splitlines()) or 1, "no unit declared")
    return Chunk(tuple(elements), unit, table)


def parse_chunk_file(path: str) -> Chunk:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_chunk(fh.read())
