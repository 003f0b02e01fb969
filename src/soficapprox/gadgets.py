"""Executable desk-scale gadgets: the three-cycle family, the two-step shift
with its transposition-pair encoding of point evaluation, and the stagewise
map whose limit is a permutation exactly when its trace keeps firing.

Everything here is a finite, deterministic construction; the infinite claims
the gadgets come from are only ever checked on explicit horizons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .chunk import Chunk
from .growth import Affine
from .lazyperm import GChunk, LazyPerm, build_gchunk, identity_lazy


# The most points ``example_check`` (its degree n) and ``stage_construction``
# (its horizon) allocate; larger sizes are refused before any allocation.  At
# the cap ``example_check`` peaks at about 0.11 GB in 1.0 s and
# ``stage_construction`` at about 56 MB in 0.2 s (Python 3.11).
MAX_SIZE = 10**6


def _greedy_completion(rule: Callable[[int], int | None], n: int, what: str) -> tuple[int, ...]:
    """Images of a permutation of 0..n-1 that sends m to rule(m) wherever that
    is a point below n; the other points, in increasing order, go to the
    unused images in increasing order.  ``what`` names the rule in the error
    raised when two points would share an image."""
    images: list[int | None] = [None] * n
    used = [False] * n
    for m in range(n):
        v = rule(m)
        if v is not None and v < n:
            if used[v]:
                raise ValueError(f"{what} not injective below {n}")
            images[m] = v
            used[v] = True
    free = iter([v for v in range(n) if not used[v]])
    return tuple(img if img is not None else next(free) for img in images)


# -- the three-cycle chunk ------------------------------------------------------

# The three-cycle chunk's bound is g(n) = n + THREE_CYCLE_OFFSET.
THREE_CYCLE_OFFSET = 31


def _h_forward(m: int) -> int:
    q, rem = divmod(m, 3)
    return 3 * q + (rem + 1) % 3


def _h_backward(m: int) -> int:
    q, rem = divmod(m, 3)
    return 3 * q + (rem - 1) % 3


def three_cycle() -> LazyPerm:
    """h cycles every block {3k, 3k+1, 3k+2} upward: 3k -> 3k+1 -> 3k+2 -> 3k."""
    return LazyPerm(_h_forward, _h_backward, "gadget:threecycle")


def three_cycle_squared() -> LazyPerm:
    return LazyPerm(_h_backward, _h_forward, "gadget:threecycle2")


def three_cycle_chunk(horizon: int = 1500) -> GChunk:
    """The chunk {1, h, h^2} of block three-cycles, bounded by n + 31."""
    table = {}
    names = ("1", "h", "h2")
    cyclic = {("h", "h"): "h2", ("h", "h2"): "1", ("h2", "h"): "1", ("h2", "h2"): "h"}
    for x in names:
        table[("1", x)] = x
        table[(x, "1")] = x
    table.update(cyclic)
    chunk = Chunk(names, "1", table)
    carriers = {"1": identity_lazy(), "h": three_cycle(), "h2": three_cycle_squared()}
    return build_gchunk(chunk, carriers, Affine(THREE_CYCLE_OFFSET), horizon)


@dataclass(frozen=True)
class ExampleReport:
    """Deviation between m* and the fixed points of sigma(h)^-2 sigma(h^2)."""

    n: int
    m_star: int
    fix_count: int
    deviation: int
    holds: bool  # deviation <= 5


def _example_sigma_h(n: int) -> tuple[int, ...]:
    """Prefix restriction of h, greedily completed on the trailing partial block."""
    return _greedy_completion(_h_forward, n, "h")


def _example_sigma_h2(n: int) -> tuple[int, ...]:
    """The modified square: h^2 where g(l) <= n, identity where g(l-2) > n.

    With g(l) = l + c, c = ``THREE_CYCLE_OFFSET``, the two zones are
    l <= n - c and l >= n - c + 3; the two transition points in between are
    filled by the greedy completion rule.
    h^2 agrees with the inverse of h.
    """
    c = THREE_CYCLE_OFFSET
    return _greedy_completion(
        lambda m: _h_backward(m) if m <= n - c else m if m - 2 > n - c else None,
        n, "the modified square of h")


def example_check(n: int) -> ExampleReport:
    """Verify |m* - |Fix(sigma(h)^-2 sigma(h^2))|| <= 5 at degree n >= 33."""
    if n < 33:
        raise ValueError(f"degree {n} too small, need n >= 33")
    if n > MAX_SIZE:
        raise ValueError(f"degree {n} exceeds the largest gadget size, {MAX_SIZE}")
    m_star = n - THREE_CYCLE_OFFSET  # largest m with g(m) <= n
    sh = _example_sigma_h(n)
    sh2 = _example_sigma_h2(n)
    # Fix(p^-2 q) counts the points where p(p(x)) and q(x) agree.
    fix = sum(1 for x in range(n) if sh[sh[x]] == sh2[x])
    deviation = abs(m_star - fix)
    return ExampleReport(n=n, m_star=m_star, fix_count=fix,
                         deviation=deviation, holds=deviation <= 5)


# -- the two-step shift and the evaluation encoding ------------------------------

def _delta_forward(m: int) -> int:
    if m == 1:
        return 0
    if m % 2 == 0:
        return m + 2
    return m - 2


def _delta_backward(m: int) -> int:
    if m == 0:
        return 1
    if m % 2 == 0:
        return m - 2
    return m + 2


def delta() -> LazyPerm:
    """The shift along ... 5 -> 3 -> 1 -> 0 -> 2 -> 4 -> ...; bounded by n + 3."""
    return LazyPerm(_delta_forward, _delta_backward, "gadget:delta")


def _delta_power(point: int, i: int) -> int:
    """delta^i(point), in closed form: delta moves each point one place along
    ..., 5, 3, 1, 0, 2, 4, ..., where 2t sits at place t and 2t + 1 at place
    -t - 1, so delta^i(point) is the point at its place plus i."""
    place = point // 2 if point % 2 == 0 else -(point // 2) - 1
    place += i
    return 2 * place if place >= 0 else -2 * place - 1


def _gamma_points(j: int) -> tuple[int, int, int, int]:
    """Support points of the marker transpositions through j.

    The transpositions at index j are the base ones (0 1), (0 2), (0 3)
    conjugated by a power of the shift, with the sign convention fixed so
    that their shared support point is exactly j.  Returns (j, partner1,
    partner2, partner3); the partners are pairwise distinct for every index.
    """
    if j < 0:
        raise ValueError("pair index must be a natural number")
    if j % 2 == 0:
        i = j // 2
    else:
        i = -(j // 2 + 1)
    common = _delta_power(0, i)
    first = _delta_power(1, i)
    second = _delta_power(2, i)
    third = _delta_power(3, i)
    assert common == j, (j, common)
    return common, first, second, third


def _swap_apply(t: tuple[int, int], x: int) -> int:
    a, b = t
    if x == a:
        return b
    if x == b:
        return a
    return x


def cube_of_transpositions_is_identity(t1: tuple[int, int], t2: tuple[int, int]) -> bool:
    """Evaluate ((t1 t2))^3 pointwise on its support closure.

    The product moves nothing outside the union of the two supports, so
    checking the cube there decides identity exactly.
    """
    pts = set(t1) | set(t2)
    for x in pts:
        y = x
        for _ in range(3):
            y = _swap_apply(t1, _swap_apply(t2, y))
        if y != x:
            return False
    return True


def encode_check(rho: LazyPerm, k: int, n: int, horizon: int) -> bool:
    """Evaluate the cube equations that encode rho(k) = n; exact for every rho.

    The conjugated marker transpositions through k have supports
    {rho(k), rho(p)}; each must meet the supports of all three markers through
    n.  A two-point support can meet three sets {n, a}, {n, b}, {n, d} with
    pairwise distinct partners only by containing n itself, so the conjunction
    of the six cube equations holds exactly when rho(k) = n.  Two reference
    markers would leave a two-point escape ({a, b} covers both) and misread
    permutations that happen to map one marker triple onto another.

    rho must be finitary with support inside the horizon; the markers at k and
    n and the conjugated ones must also act inside it.
    """
    if k < 0 or n < 0:
        raise ValueError("points must be natural numbers")
    gn = _gamma_points(n)
    gk = _gamma_points(k)
    conj = tuple(rho.forward(p) for p in gk)
    top = max(max(gn), max(gk), max(conj))
    if top >= horizon:
        raise ValueError(f"horizon {horizon} too small, need points up to {top}")
    references = [(gn[0], gn[1]), (gn[0], gn[2]), (gn[0], gn[3])]
    conjugated = [(conj[0], conj[1]), (conj[0], conj[2])]
    return all(cube_of_transpositions_is_identity(ref, sig)
               for sig in conjugated for ref in references)


# -- the stagewise map ------------------------------------------------------------

@dataclass(frozen=True)
class StageTrace:
    """Which stages fired; each firing repairs one more block of the base map."""

    flags: tuple[bool, ...]

    @property
    def fired(self) -> int:
        return sum(1 for f in self.flags if f)


@dataclass(frozen=True)
class StageOutcome:
    fired: int
    prefix_end: int              # repaired region [0, prefix_end)
    involution_on_prefix: bool
    collisions_beyond: bool      # every later block still sends two points together


def stage_construction(trace: StageTrace | Sequence[bool], horizon: int) -> tuple[list[int], StageOutcome]:
    """Replay the stages over a finite trace and inspect the resulting map.

    The base map sends 3l and 3l+1 both to 3l+2 and 3l+2 to 3l+1, so no block
    is injective.  Each fired stage finds the first 3l still mapping to 3l+2
    and pins it to itself, turning that block into an order-2 permutation.
    """
    if horizon < 3 or horizon % 3:
        raise ValueError("horizon must be a positive multiple of 3")
    if horizon > MAX_SIZE:
        raise ValueError(f"horizon {horizon} exceeds the largest gadget size, {MAX_SIZE}")
    if not isinstance(trace, StageTrace):
        trace = StageTrace(tuple(bool(f) for f in trace))

    fmap = []
    for l in range(horizon // 3):
        fmap.extend([3 * l + 2, 3 * l + 2, 3 * l + 1])
    fired = 0
    for flag in trace.flags:
        if not flag:
            continue
        fired += 1
        for l in range(horizon // 3):
            if fmap[3 * l] == 3 * l + 2:
                fmap[3 * l] = 3 * l
                break
        # once every stored block is repaired, later firings act beyond the horizon

    prefix_end = 3 * min(fired, horizon // 3)
    prefix = fmap[:prefix_end]
    involution = (sorted(prefix) == list(range(prefix_end))
                  and all(fmap[fmap[x]] == x for x in range(prefix_end)))
    collisions = all(
        fmap[3 * l] == fmap[3 * l + 1] == 3 * l + 2
        for l in range(prefix_end // 3, horizon // 3))
    return fmap, StageOutcome(
        fired=fired, prefix_end=prefix_end,
        involution_on_prefix=involution, collisions_beyond=collisions)
