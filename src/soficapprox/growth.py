"""Growth functions on the naturals-with-infinity and their profile calculus.

Members of the calculus are monotone functions g with g(n) > n everywhere and
g(inf) = inf.  Symbolic kinds (affine, linear, block-step, tabulated,
composition, power, infinity) evaluate lazily and exactly.  Every kind is
either identically infinite or eventually affine, and the comparison orders
are decided exactly from those forms; a function with neither is rejected.

``growth_profile`` computes the least n such that some m has g(m) <= n and
(n - m)/n < 1/r, with the strict inequality taken exactly; the infimum over an
empty set is reported as Exhausted.  Both slowness and the profile depend only
on the gap 1 - m/g(m): g is slow when the gap tends to 0, and the profile at r
is the least g(m) whose gap is below 1/r.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Mapping, Sequence

INF = math.inf  # top element; comparisons against ints are exact


class GrowthFn:
    """Base class; subclasses implement ``_eval`` on finite arguments."""

    def __call__(self, n):
        if n == INF:
            return INF
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"argument must be a natural number or INF, got {n!r}")
        return self._eval(n)

    def _eval(self, n: int):
        raise NotImplementedError

    def values(self, n: int) -> list:
        """g(0), ..., g(n), each point evaluated once."""
        return list(map(self, range(n + 1)))

    def spec(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.spec()


@dataclass(frozen=True, repr=False)
class Affine(GrowthFn):
    """n -> n + c with c >= 1."""

    c: int

    def __post_init__(self) -> None:
        if not isinstance(self.c, int) or self.c < 1:
            raise ValueError(f"affine offset must be a positive integer, got {self.c!r}")

    def _eval(self, n: int) -> int:
        return n + self.c

    def values(self, n: int) -> list[int]:
        return list(range(self.c, n + self.c + 1))

    def spec(self) -> str:
        return f"affine:{self.c}"

    def __repr__(self) -> str:
        return f"Affine({self.c})"


@dataclass(frozen=True, repr=False)
class Linear(GrowthFn):
    """n -> a*n for n >= 1, with a >= 2.

    a*0 = 0 would break g(n) > n at the origin, so the value at 0 is defined
    as a, which keeps monotonicity and the strict bound testable everywhere.
    """

    a: int

    def __post_init__(self) -> None:
        if not isinstance(self.a, int) or self.a < 2:
            raise ValueError(f"linear slope must be an integer >= 2, got {self.a!r}")

    def _eval(self, n: int) -> int:
        return self.a * n if n >= 1 else self.a

    def spec(self) -> str:
        return f"linear:{self.a}"

    def __repr__(self) -> str:
        return f"Linear({self.a})"


@dataclass(frozen=True, repr=False)
class BlockStep(GrowthFn):
    """n -> n + offset of the block containing n.

    ``breaks`` are the strictly increasing block end points; block k covers
    [breaks[k-1], breaks[k]) (the first starts at 0) and carries offsets[k].
    Beyond the last break the final offset continues, so the function is total
    and eventually affine.  Realizations emit one (break, offset) pair per
    construction stage.
    """

    breaks: tuple[int, ...]
    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.breaks) != len(self.offsets) or not self.breaks:
            raise ValueError("need equally many breaks and offsets, at least one pair")
        if any(not isinstance(b, int) or b < 1 for b in self.breaks):
            raise ValueError(f"breaks must be positive integers: {self.breaks!r}")
        if list(self.breaks) != sorted(set(self.breaks)):
            raise ValueError(f"breaks must be strictly increasing: {self.breaks!r}")
        if any(not isinstance(o, int) or o < 1 for o in self.offsets):
            raise ValueError(f"offsets must be positive integers: {self.offsets!r}")
        if list(self.offsets) != sorted(self.offsets):
            raise ValueError(f"offsets must be non-decreasing: {self.offsets!r}")

    def _eval(self, n: int) -> int:
        k = bisect_right(self.breaks, n)
        return n + self.offsets[min(k, len(self.offsets) - 1)]

    def values(self, n: int) -> list[int]:
        """g(0), ..., g(n) in closed form: one range per block."""
        out: list[int] = []
        starts = (0,) + self.breaks[:-1]
        ends = self.breaks[:-1] + (n + 1,)  # the last offset continues past its break
        for start, end, offset in zip(starts, ends, self.offsets):
            out.extend(range(start + offset, min(end, n + 1) + offset))
        return out

    def spec(self) -> str:
        return "blockstep:" + ";".join(f"{b},{o}" for b, o in zip(self.breaks, self.offsets))

    def __repr__(self) -> str:
        return f"BlockStep(breaks={self.breaks}, offsets={self.offsets})"


@dataclass(frozen=True, repr=False)
class Tabulated(GrowthFn):
    """Explicit prefix table followed by an affine tail n -> n + tail_c."""

    prefix: tuple[int, ...]
    tail_c: int

    def __post_init__(self) -> None:
        if not isinstance(self.tail_c, int) or self.tail_c < 1:
            raise ValueError(f"tail offset must be a positive integer, got {self.tail_c!r}")
        prev = None
        for i, v in enumerate(self.prefix):
            if not isinstance(v, int) or v <= i:
                raise ValueError(f"table value {v!r} at {i} violates g(n) > n")
            if prev is not None and v < prev:
                raise ValueError(f"table not monotone at {i}")
            prev = v
        if self.prefix and self.prefix[-1] > len(self.prefix) + self.tail_c:
            raise ValueError("table does not join monotonically onto its tail")

    def _eval(self, n: int) -> int:
        if n < len(self.prefix):
            return self.prefix[n]
        return n + self.tail_c

    def spec(self) -> str:
        body = ",".join(str(v) for v in self.prefix)
        return f"table:{body}+{self.tail_c}"

    def __repr__(self) -> str:
        return f"Tabulated({list(self.prefix)}, tail_c={self.tail_c})"


@dataclass(frozen=True, repr=False)
class Compose(GrowthFn):
    """n -> outer(inner(n))."""

    outer: GrowthFn
    inner: GrowthFn

    def _eval(self, n: int):
        return self.outer(self.inner(n))

    def spec(self) -> str:
        return f"compose({_operand_spec(self.outer)},{self.inner.spec()})"

    def __repr__(self) -> str:
        return f"Compose({self.outer!r}, {self.inner!r})"


@dataclass(frozen=True, repr=False)
class Power(GrowthFn):
    """k-fold composition of the base with itself, k >= 1."""

    base: GrowthFn
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"power must be a positive integer, got {self.k!r}")

    @cached_property
    def _base_form(self) -> EventualAffine | None:
        return linearize(self.base)

    @cached_property
    def _form(self) -> EventualAffine | None:
        return linearize(self)

    def _eval(self, n: int):
        # Iterate only until the value clears the base's threshold, where the
        # remaining steps are affine; iterating all k steps would cost k base
        # calls, and k^depth for nested powers.
        base, v, steps = self._base_form, n, self.k
        while steps and (base is None or v < base.n_from):
            v = self.base(v)
            steps -= 1
            if v == INF:
                return INF
        if not steps:
            return v
        form = self._form if steps == self.k else _power_form(base, steps)
        return form.a * v + form.c

    def spec(self) -> str:
        return f"power({_operand_spec(self.base)},{self.k})"

    def __repr__(self) -> str:
        return f"Power({self.base!r}, {self.k})"


@dataclass(frozen=True, repr=False)
class Infinity(GrowthFn):
    """Identically infinite; bounds nothing and has an empty profile set."""

    def _eval(self, n: int):
        return INF

    def spec(self) -> str:
        return "infinity"

    def __repr__(self) -> str:
        return "Infinity()"


def compose(outer: GrowthFn, inner: GrowthFn) -> Compose:
    return Compose(outer, inner)


def power(g: GrowthFn, k: int) -> Power:
    return Power(g, k)


# -- spec strings -------------------------------------------------------------

MAX_NESTING = 64  # compose/power levels a spec may nest; deeper specs are rejected
MAX_SLOPE_BITS = 4096  # powers whose eventual slope reaches 2^this are rejected


def parse_growth(text: str) -> GrowthFn:
    """The growth function a spec string names; ``g.spec()`` parses back to g.

    A compose or power operand may be wrapped in one pair of parentheses,
    which ``spec`` adds around a left operand with a top-level comma (a
    block-step or table spec).  Malformed specs raise a one-line ValueError.
    """
    return _parse(text, 0)


def _parse(text: str, depth: int) -> GrowthFn:
    """``text`` as a spec nested in ``depth`` compose/power levels."""
    text = text.strip()
    head, _, body = text.partition("(")
    if head in ("compose", "power") and body.endswith(")"):
        if depth == MAX_NESTING:
            raise ValueError(f"growth spec nests compose/power deeper than {MAX_NESTING} levels")
        left, right = _split_top_comma(text, body[:-1])
        if head == "compose":
            return Compose(_parse_operand(left, depth + 1), _parse_operand(right, depth + 1))
        base = _parse_operand(left, depth + 1)
        try:
            g = Power(base, int(right))
        except ValueError as exc:
            raise ValueError(f"cannot parse growth spec {text!r}: {exc}") from None
        form, k = g._base_form, g.k
        # a^k is computed only once its bit length is known to stay below 2 * MAX_SLOPE_BITS
        if form is not None and form.a > 1 and (
                (form.a.bit_length() - 1) * k >= MAX_SLOPE_BITS
                or form.a ** k >= 1 << MAX_SLOPE_BITS):
            raise ValueError(f"power of a slope-{form.a} spec to exponent {k} has a slope "
                             f"of 2^{MAX_SLOPE_BITS} or more")
        return g
    if text == "infinity":
        return Infinity()
    kind, _, body = text.partition(":")
    try:
        if kind == "affine":
            return Affine(int(body))
        if kind == "linear":
            return Linear(int(body))
        if kind == "blockstep":
            pairs = [part.split(",") for part in body.split(";")]
            if any(len(pair) != 2 for pair in pairs):
                raise ValueError("expected 'break,offset' pairs separated by ';'")
            return BlockStep(tuple(int(b) for b, _ in pairs), tuple(int(o) for _, o in pairs))
        if kind == "table":
            values, _, tail = body.rpartition("+")
            return Tabulated(tuple(int(v) for v in values.split(",")) if values else (),
                             int(tail))
    except ValueError as exc:
        raise ValueError(f"cannot parse growth spec {text!r}: {exc}") from None
    raise ValueError(f"cannot parse growth spec {text!r}")


def _parse_operand(text: str, depth: int) -> GrowthFn:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return _parse(text, depth)


def _operand_spec(g: GrowthFn) -> str:
    """``g.spec()`` as the left operand of a compose or power: parenthesized
    when it has a comma outside parentheses, which would end the operand."""
    spec = g.spec()
    depths = accumulate({"(": 1, ")": -1}.get(ch, 0) for ch in spec)
    if any(ch == "," and depth == 0 for ch, depth in zip(spec, depths)):
        return f"({spec})"
    return spec


def _split_top_comma(text: str, body: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1:]
    raise ValueError(f"cannot parse growth spec {text!r}: expected two operands")


# -- symbolic analysis --------------------------------------------------------

@dataclass(frozen=True)
class EventualAffine:
    """g(n) = a*n + c exactly for all n >= n_from."""

    a: int
    c: int
    n_from: int


def is_infinite(g: GrowthFn) -> bool:
    if isinstance(g, Infinity):
        return True
    if isinstance(g, Compose):
        return is_infinite(g.outer) or is_infinite(g.inner)
    if isinstance(g, Power):
        return is_infinite(g.base)
    return False


def linearize(g: GrowthFn) -> EventualAffine | None:
    """Exact eventually-affine form, or None (infinite or unknown shape)."""
    if isinstance(g, Affine):
        return EventualAffine(1, g.c, 0)
    if isinstance(g, Linear):
        return EventualAffine(g.a, 0, 1)
    if isinstance(g, BlockStep):
        return EventualAffine(1, g.offsets[-1], g.breaks[-1])
    if isinstance(g, Tabulated):
        return EventualAffine(1, g.tail_c, len(g.prefix))
    if isinstance(g, Compose):
        fo, fi = linearize(g.outer), linearize(g.inner)
        if fo is None or fi is None:
            return None
        # inner(n) > n >= outer's threshold once n clears both thresholds
        return EventualAffine(fo.a * fi.a, fo.a * fi.c + fo.c,
                              max(fi.n_from, fo.n_from))
    if isinstance(g, Power):
        form = linearize(g.base)
        return None if form is None else _power_form(form, g.k)
    return None


def _power_form(form: EventualAffine, k: int) -> EventualAffine:
    """The k-fold composition of n -> a*n + c: n + k*c for a = 1, else
    a^k*n + c*(a^k - 1)/(a - 1); it holds from the same threshold, because
    every step maps a point at or above the threshold above it."""
    if form.a == 1:
        return EventualAffine(1, k * form.c, form.n_from)
    a_k = form.a ** k
    return EventualAffine(a_k, form.c * (a_k - 1) // (form.a - 1), form.n_from)


@dataclass(frozen=True)
class PrecVerdict:
    """Outcome of the eventual strict comparison f(n) < g(n).

    ``true`` carries the minimal onset n0; ``false`` carries a point from
    which f(n) >= g(n) persists.
    """

    outcome: str  # "true" | "false"
    n0: int | None = None
    witness: int | None = None
    note: str = ""


def _order_form(g: GrowthFn) -> EventualAffine | None:
    """None for an identically infinite g, else its eventually affine form;
    the orders decide nothing else."""
    if is_infinite(g):
        return None
    form = linearize(g)
    if form is None:
        raise ValueError(f"{g!r} has no eventually affine form, so no eventual order is decided")
    return form


def _piece(g: GrowthFn, form: EventualAffine | None,
           n: int) -> tuple[int, int | None, int, int]:
    """(start, end, a, c) with g(m) = a*m + c for start <= m < end, or for
    every m >= start when end is None: the piece of g that holds n.

    ``form`` is ``linearize(g)``.  A block-step has a piece per block, the
    last continuing past its break; every other kind has a piece per point
    below the form's ``n_from`` (a = 0, c = g(n)) and the form from there on.
    """
    if isinstance(g, BlockStep):
        k = min(bisect_right(g.breaks, n), len(g.breaks) - 1)
        end = g.breaks[k] if k < len(g.breaks) - 1 else None
        return (g.breaks[k - 1] if k else 0), end, 1, g.offsets[k]
    if form is not None and n >= form.n_from:
        return form.n_from, None, form.a, form.c
    return n, n + 1, 0, g(n)


def _minimal_onset(f: GrowthFn, g: GrowthFn, start: int) -> int:
    """Given that f < g pointwise from ``start`` on, find the minimal onset,
    one piece of f and g at a time down from ``start``."""
    lf, lg = linearize(f), linearize(g)
    n = start
    while n > 0:
        low_f, _, a_f, c_f = _piece(f, lf, n - 1)
        low_g, _, a_g, c_g = _piece(g, lg, n - 1)
        # f - g = slope*m + gap on [low, n), and f < g on [n, start)
        low, slope, gap = max(low_f, low_g), a_f - a_g, c_f - c_g
        if slope * (n - 1) + gap >= 0:
            return n
        if slope < 0 and gap // -slope >= low:  # f - g >= 0 from gap/-slope down
            return gap // -slope + 1
        n = low
    return 0


def lt_eventually(f: GrowthFn, g: GrowthFn) -> PrecVerdict:
    """Decide whether f(n) < g(n) for all large n, exactly.

    a_f*n + c_f < a_g*n + c_g for all large n exactly when (a_f, c_f) <
    (a_g, c_g) lexicographically.
    """
    lf, lg = _order_form(f), _order_form(g)
    if lf is None:
        return PrecVerdict("false", witness=0, note="left side is identically infinite")
    if lg is None:
        return PrecVerdict("true", n0=0, note="finite values stay below infinity")
    base = max(lf.n_from, lg.n_from, 1)
    if (lf.a, lf.c) < (lg.a, lg.c):
        if lf.a == lg.a:
            onset = base
        else:
            # a_f*n + c_f < a_g*n + c_g from n > (c_f - c_g)/(a_g - a_f)
            onset = max(base, (lf.c - lg.c) // (lg.a - lf.a) + 1)
        return PrecVerdict("true", n0=_minimal_onset(f, g, onset), note="eventually affine")
    if lf.a == lg.a:
        witness = base
    else:
        witness = max(base, (lg.c - lf.c) // (lf.a - lg.a) + 1)
    return PrecVerdict("false", witness=witness, note="eventually affine")


def _least_power_reaching(base: EventualAffine, a: int, c: int) -> int | None:
    """The least k >= 1 with base^k >= n -> a*n + c eventually, or None if no
    power reaches it.

    The form of base^k increases in k.  A slope-1 base has base^k = n + k*c_b,
    which reaches only slope-1 forms, first at k = ceil(c / c_b).  A base of
    slope >= 2 reaches any form within about log2(a) + 2 steps.
    """
    if base.a == 1:
        return max(1, -(-c // base.c)) if a == 1 else None
    k = 1
    while ((power := _power_form(base, k)).a, power.c) < (a, c):
        k += 1
    return k


@dataclass(frozen=True)
class PowerVerdict:
    """Outcome of ``ll`` or ``sim``, which compare composition powers.

    k is the least failing power for a false ``ll``, the least working power
    for a true ``sim``, and None otherwise.
    """

    outcome: str  # "true" | "false"
    k: int | None = None
    note: str = ""


def ll(f: GrowthFn, g: GrowthFn) -> PowerVerdict:
    """Decide whether f^k < g eventually for every k >= 1, exactly; it fails
    first at the least k with f^k reaching g."""
    lf, lg = _order_form(f), _order_form(g)
    if lf is None:
        return PowerVerdict("false", k=1, note="left side infinite")
    if lg is None:
        return PowerVerdict("true", note="right side infinite")
    k_fail = _least_power_reaching(lf, lg.a, lg.c)
    if k_fail is None:
        return PowerVerdict("true", note="slope 1 below slope >= 2")
    return PowerVerdict("false", k=k_fail, note=f"the power k = {k_fail} reaches the right side")


def sim(f: GrowthFn, g: GrowthFn) -> PowerVerdict:
    """Decide whether some k has f < g^k and g < f^k eventually, exactly.

    Each side holds from its least k on, so the least k for both is the
    larger of the two.  On integer forms (a, c) > (a_f, c_f) is (a, c) >=
    (a_f, c_f + 1), so g^k > f is g^k reaching n -> a_f*n + c_f + 1.
    """
    lf, lg = _order_form(f), _order_form(g)
    if lf is None and lg is None:
        return PowerVerdict("false", note="infinite functions never compare strictly")
    if lf is None or lg is None:
        return PowerVerdict("false", note="one side is infinite, the other is not")
    k_left = _least_power_reaching(lg, lf.a, lf.c + 1)
    if k_left is None:
        return PowerVerdict("false", note=f"{g.spec()} never dominates slope {lf.a}")
    k_right = _least_power_reaching(lf, lg.a, lg.c + 1)
    if k_right is None:
        return PowerVerdict("false", note=f"{f.spec()} never dominates slope {lg.a}")
    return PowerVerdict("true", k=max(k_left, k_right))


# -- slowness -----------------------------------------------------------------

@dataclass(frozen=True)
class BlockCheck:
    """One block-end inequality 1 - j/g(j) < 1/stage at j = break - 1."""

    stage: int
    end: int
    gap: Fraction
    threshold: Fraction
    ok: bool


@dataclass(frozen=True)
class SlownessVerdict:
    verdict: str  # "slow" | "not_slow"
    evidence: str
    blocks: tuple[BlockCheck, ...] | None = None


def is_slow(g: GrowthFn) -> SlownessVerdict:
    """Slowness means n/g(n) -> 1.

    A BlockStep is judged by the construction's inequality at each block end:
    1 - j/g(j) < 1/stage, with stages numbered 2, 3, ... in break order.
    Every other kind is decided by the slope a of its eventually affine form,
    along which n/g(n) tends to 1/a: slope 1 is slow, slope >= 2 is not, and
    an identically infinite g is not slow.  A function with no eventually
    affine form raises the orders' one-line ValueError.
    """
    if isinstance(g, BlockStep):
        checks = []
        all_ok = True
        for k, b in enumerate(g.breaks):
            j = b - 1
            gj = g(j)
            gap = Fraction(gj - j, gj)  # = 1 - j/g(j)
            threshold = Fraction(1, k + 2)
            ok = gap < threshold
            all_ok = all_ok and ok
            checks.append(BlockCheck(k + 2, j, gap, threshold, ok))
        verdict = "slow" if all_ok else "not_slow"
        return SlownessVerdict(verdict, "block-end inequalities", blocks=tuple(checks))
    form = _order_form(g)
    if form is None:
        return SlownessVerdict("not_slow", "n/infinity tends to 0")
    return SlownessVerdict("slow" if form.a == 1 else "not_slow",
                           f"eventually g(n) = {form.a}n + {form.c}, "
                           f"so n/g(n) tends to {Fraction(1, form.a)}")


# -- profiles -----------------------------------------------------------------

@dataclass(frozen=True)
class Exhausted:
    """No profile value up to n_max.

    A sofic-profile search attaches the ``DegreeRecord`` of every degree it
    proved infeasible; a growth profile may attach a note on why its defining
    set is empty.
    """

    n_max: int
    records: tuple = ()
    note: str = ""


def quality_parameter(r) -> Fraction:
    """``r`` as a Fraction, once it is known to be at least 1."""
    r = Fraction(r)
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    return r


def growth_profile(g: GrowthFn, r, n_max: int) -> int | Exhausted:
    """Least n <= n_max with some m satisfying g(m) <= n and (n - m)/n < 1/r.

    For fixed m those n run from g(m) up to, not including, r*m/(r - 1) (with
    no upper end when r = 1), which is non-empty exactly when the gap
    1 - m/g(m) is below 1/r.  g is monotone, so the profile is the least g(m)
    with 1 - m/g(m) < 1/r: g(m0) for the least such m0, or Exhausted when
    g(m0) exceeds n_max.

    An eventual slope a with 1 - 1/a >= 1/r decides the empty set up front:
    g(m) >= a*m at every m, since Linear(a) is at least a*m, every other leaf
    is at least m, and composition multiplies slopes.  Otherwise the m are
    tried one ``_piece`` at a time from 0: where g(m) = a*m + c, the gap is
    below 1/r iff m(a - r(a - 1)) > c(r - 1), and a - r(a - 1) is positive
    (r at a = 0, 1 at a = 1, and at a larger eventual slope by the test
    above), so a piece gives its least such m in closed form.  g is
    monotone, so its values stay above n_max once one exceeds it, which
    g(m) > m makes happen by m = n_max.
    """
    r = quality_parameter(r)
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    if is_infinite(g):
        return Exhausted(n_max, note="g(m) <= n holds for no m: the defining set is empty")
    form = linearize(g)
    if form is not None and (form.a - 1) * r >= form.a:
        return Exhausted(n_max, note=(
            f"impossible for every n: g(m) <= n forces m <= n/{form.a}, "
            f"so (n - m)/n >= {Fraction(form.a - 1, form.a)} >= 1/r"))
    start = 0
    while True:
        start, end, a, c = _piece(g, form, start)
        m = max(start, c * (r - 1) // (a - r * (a - 1)) + 1)
        if end is None or m < end:
            return a * m + c if a * m + c <= n_max else Exhausted(n_max)
        if a * (end - 1) + c > n_max:
            return Exhausted(n_max)
        start = end


def compare_pf(u: Mapping, v: Mapping, C, Cp, Cpp, sample_rs: Sequence) -> bool:
    """Check u(r) <= C * v(Cp * r) + Cpp at every sampled r, exactly.

    Both tables must cover every sampled argument, including the rescaled
    ones; a missing entry is an error, not a silent pass.
    """
    C, Cp, Cpp = Fraction(C), Fraction(Cp), Fraction(Cpp)
    u_tab = {Fraction(k): val for k, val in u.items()}
    v_tab = {Fraction(k): val for k, val in v.items()}
    for r in sample_rs:
        r = Fraction(r)
        if r not in u_tab:
            raise ValueError(f"sample r = {r} outside the left table")
        if Cp * r not in v_tab:
            raise ValueError(f"rescaled sample {Cp * r} outside the right table")
        if u_tab[r] > C * v_tab[Cp * r] + Cpp:
            return False
    return True
