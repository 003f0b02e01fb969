"""Independent oracles the acceptance suite checks the library against.

Everything here deliberately avoids the library's search and measurement
paths: feasibility is decided by plain enumeration over all assignments, with
thresholds written out directly.  ``reference_backtrack`` keeps the library's
original per-degree search, which tried every candidate and compared
``Fraction`` distances, as the reference for witnesses and node counts.
``reference_realize`` keeps the original trial-and-measure choice of
realization multiplicities, which builds every trial block sum and measures
it with ``reference_measure``, as the reference for the closed form.
``reference_measure`` and ``reference_supp_quality`` keep the original
quality figures, which composed validated permutations and compared
``Fraction`` distances pair by pair, as the reference for the shared
disagreement counts.  ``reference_supp_morphism`` keeps the point-by-point
greedy completion of every carrier at every degree, as the reference for the
restriction tables a g-chunk keeps.  ``reference_audit`` and
``reference_gchunk_error`` keep the carrier audit and the table check as
first written, point by point and with the unit audited like any carrier, as
the reference for the whole-list checks; ``reference_blocksum_carrier`` keeps
the block walk (a bisection and a divmod per evaluation) that the tabulated
block-sum carriers replace.  ``reference_example_check`` keeps the gadget's
own greedy completions, and ``reference_growth_eval`` evaluates a growth spec
by iterating every power, without the closed form.  ``reference_power_orders``
keeps the k loops that decided ``ll`` and ``sim`` power by power, as the
reference for the closed forms.  ``reference_growth_profile`` keeps the growth
profile's scan over every n with a bisection for the largest m at each, as
the reference for the least g(m) whose gap is below 1/r, and
``reference_growth_walk`` keeps the walk over every m that the closed form
for the least such m replaced, and ``reference_minimal_onset`` the walk down
over every n that finds where f < g begins.  ``reference_validate`` keeps
the chunk check's triple loop of ``Chunk.product`` calls, as the reference
for the reads off the row and column views.  ``compose_lazy``
and ``decide_product`` are helpers that only the tests use: the composite of
two carriers, audited by evaluation, and the r = 3 decision of one product
from a certificate.  So are the chunk maps (``ChunkMap``, ``is_homomorphism``,
``compose_maps``, ``chunk_mult``, ``rename_chunk``), ``gamma_pair``, the
realization checks ``chunk_compatibility`` and ``displacement``, and
``property_holds_mask``.
"""

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from soficapprox.chunk import Chunk, ValidationReport
from soficapprox.gadgets import _gamma_points
from soficapprox.growth import (INF, Compose, Exhausted, GrowthFn, Power, is_infinite, linearize,
                                lt_eventually, quality_parameter)
from soficapprox.lazyperm import (AuditViolation, BoundWitness, GChunk, LazyPerm, Realization,
                                  StageReport, SuppReport, supp_defect_holds)
from soficapprox.permcore import (Perm, all_cycle_types, block_sum, compose,
                                  cycle_type_representative, disagreements, hamming_distance,
                                  identity, inverse)
from soficapprox.profile import MorphismQuality, ProfileCertificate


@lru_cache(maxsize=8)
def all_perms(n):
    """Every element of S_n in lexicographic image-tuple order."""
    return tuple(Perm(images) for images in itertools.permutations(range(n)))


def reference_validate(c: Chunk) -> ValidationReport:
    """``chunk.validate`` as first written, a triple loop of ``Chunk.product``
    calls: check unit laws, two-sided cancellation, and partial associativity.

    Violations are data, not errors; an empty report means all three families
    of conditions hold.
    """
    unit_bad = []
    u = c.unit
    for x in c.elements:
        if c.product(u, x) != x:
            got = c.product(u, x)
            unit_bad.append(f"{u} * {x} = {got if got is not None else 'undef'} (expected {x})")
        if c.product(x, u) != x:
            got = c.product(x, u)
            unit_bad.append(f"{x} * {u} = {got if got is not None else 'undef'} (expected {x})")

    cancel_bad = []
    for a in c.elements:
        seen: dict[str, str] = {}
        for b in c.elements:
            v = c.product(a, b)
            if v is None:
                continue
            if v in seen and seen[v] != b:
                cancel_bad.append(f"left cancellation: {a} * {seen[v]} = {a} * {b} = {v}")
            seen.setdefault(v, b)
    for b in c.elements:
        seen = {}
        for a in c.elements:
            v = c.product(a, b)
            if v is None:
                continue
            if v in seen and seen[v] != a:
                cancel_bad.append(f"right cancellation: {seen[v]} * {b} = {a} * {b} = {v}")
            seen.setdefault(v, a)

    assoc_bad = []
    for a in c.elements:
        for b in c.elements:
            ab = c.product(a, b)
            if ab is None:
                continue
            for d in c.elements:
                bd = c.product(b, d)
                if bd is None:
                    continue
                left = c.product(ab, d)
                right = c.product(a, bd)
                if left is not None and right is not None and left != right:
                    assoc_bad.append(
                        f"({a} * {b}) * {d} = {left} but {a} * ({b} * {d}) = {right}")

    return ValidationReport(tuple(unit_bad), tuple(cancel_bad), tuple(assoc_bad))


def brute_force_feasible(c, r, n):
    """Enumerate every assignment of S_n images; no pruning, no canonicalization."""
    eps = Fraction(1) / Fraction(r)
    elems = [e for e in c.elements if e != c.unit]
    for images in itertools.product(all_perms(n), repeat=len(elems)):
        f = dict(zip(elems, images))
        f[c.unit] = identity(n)
        ok = True
        for (a, b), ab in c.table.items():
            if hamming_distance(f[ab], compose(f[a], f[b])) > eps:
                ok = False
                break
        if ok:
            for x, y in itertools.combinations(c.elements, 2):
                if hamming_distance(f[x], f[y]) < 1 - eps:
                    ok = False
                    break
        if ok:
            return True
    return False


def brute_force_least_n(c, r, n_max):
    for n in range(1, n_max + 1):
        if brute_force_feasible(c, r, n):
            return n
    return None


def reference_backtrack(c, r, n):
    """The per-degree search as first written: every candidate drawn from the
    full pool and checked with ``Fraction`` distances.  Returns (witness or
    None, nodes), where nodes counts every candidate tried."""
    eps = 1 / Fraction(r)
    order = [e for e in c.elements if e != c.unit]
    pos = {e: i for i, e in enumerate(order)}
    pos[c.unit] = -1
    triples_at = [[] for _ in order]
    for (a, b), ab in c.table.items():
        last = max(pos[a], pos[b], pos[ab])
        if last >= 0:
            triples_at[last].append((a, b, ab))
    assigned = {c.unit: identity(n)}
    if not order:
        return dict(assigned), 1
    first = [cycle_type_representative(t, n) for t in all_cycle_types(n)]
    nodes = 0

    def extend(depth):
        nonlocal nodes
        e = order[depth]
        for cand in first if depth == 0 else all_perms(n):
            nodes += 1
            if any(hamming_distance(assigned[o], cand) < 1 - eps
                   for o in [c.unit] + order[:depth]):
                continue
            assigned[e] = cand
            if all(hamming_distance(assigned[ab], compose(assigned[a], assigned[b])) <= eps
                   for a, b, ab in triples_at[depth]):
                if depth + 1 == len(order):
                    return dict(assigned)
                found = extend(depth + 1)
                if found is not None:
                    return found
            del assigned[e]
        return None

    return extend(0), nodes


def reference_realize(c, sigma):
    """The realization multiplicities as first computed: for each stage
    assignment ``sigma[i]`` (r = i + 2), try f = 1, 2, ... and build and
    measure the full block sum until the quality thresholds and both
    block-end slowness inequalities hold.  Returns (f list, stage reports)."""
    f_list, stages = [], []
    degree = sum_m = 0
    for idx, stage in enumerate(sigma):
        n = idx + 2
        m = stage[c.unit].degree
        sum_m_prev, sum_m = sum_m, sum_m + m
        eps = Fraction(1, n - 1)
        for f_n in itertools.count(1):
            assignment = {
                e: block_sum([(sigma[i][e], f_list[i]) for i in range(idx)]
                             + [(stage[e], f_n)])
                for e in c.elements
            }
            quality = reference_measure(c, assignment)
            total = degree + f_n * m
            slow_den = total - 1 + sum_m_prev
            slow_lhs = Fraction(sum_m_prev, slow_den) if slow_den else Fraction(0)
            g_gap = Fraction(sum_m, total - 1 + sum_m)
            if (quality.defect <= eps
                    and (quality.expansiveness is None or quality.expansiveness >= 1 - eps)
                    and slow_lhs < Fraction(1, n) and g_gap < Fraction(1, n)):
                break
        f_list.append(f_n)
        degree = total
        stages.append(StageReport(
            n=n, m_n=m, f_n=f_n, degree=degree,
            defect=quality.defect, expansiveness=quality.expansiveness,
            slow_lhs=slow_lhs, g_gap=g_gap, slow_threshold=Fraction(1, n)))
    return f_list, stages


def reference_measure(c, f):
    """Defect and expansiveness as first measured: one composed ``Perm`` per
    defined product and one ``Fraction`` distance per product and pair."""
    missing = [e for e in c.elements if e not in f]
    if missing:
        raise ValueError(f"assignment not total, missing {missing}")
    degrees = {f[e].degree for e in c.elements}
    if len(degrees) > 1:
        raise ValueError(f"images of mixed degrees {sorted(degrees)}")
    n = degrees.pop()
    if f[c.unit] != identity(n):
        raise ValueError("unit must map to the identity permutation")
    defect = Fraction(0)
    for (a, b), ab in c.table.items():
        defect = max(defect, hamming_distance(f[ab], compose(f[a], f[b])))
    expansiveness = None
    if len(c.elements) > 1:
        expansiveness = min(hamming_distance(f[x], f[y])
                            for x, y in itertools.combinations(c.elements, 2))
    return MorphismQuality(defect, expansiveness)


def reference_supp_morphism(gc, n):
    """The degree-n supp restrictions as first built: every carrier evaluated
    on 0..n-1, the pairs with both sides below n kept, and the leftover points
    matched in increasing order, one point at a time."""
    if n < 1:
        raise ValueError("degree must be positive")
    sigma = {}
    for e in gc.chunk.elements:
        if e == gc.chunk.unit:
            sigma[e] = identity(n)
            continue
        images, used = [None] * n, [False] * n
        for m in range(n):
            v = gc.carriers[e].forward(m)
            if v < n:
                if used[v]:
                    raise ValueError(f"carrier of {e!r} not injective below {n}")
                images[m] = v
                used[v] = True
        sigma[e] = Perm(tuple(_greedy_fill(images, used)))
    return sigma


def reference_supp_quality(gc, n, r):
    """The supp report as first computed: ``reference_measure`` of
    ``reference_supp_morphism``, and the separation hypothesis from a second
    loop over pairs."""
    r = Fraction(r)
    sigma = reference_supp_morphism(gc, n)
    quality = reference_measure(gc.chunk, sigma)
    m_star = max_m_with_value_at_most(gc.bound, n)
    defect_bound = bound_holds = None
    if m_star is not None:
        defect_bound = Fraction(2 * (n - m_star), n)
        bound_holds = quality.defect <= defect_bound
    hypothesis = all(gc.bound(disagreements(sigma[x], sigma[y])) >= n
                     for x, y in itertools.combinations(gc.chunk.elements, 2))
    gap_small = m_star is not None and Fraction(n - m_star, n) <= 1 / (2 * r)
    threshold = 1 - 1 / (2 * r)
    return SuppReport(
        n=n, r=r, m_star=m_star, quality=quality,
        defect_bound=defect_bound, defect_bound_holds=bound_holds,
        separation_hypothesis=hypothesis,
        conclusion_expected=hypothesis and gap_small,
        expansiveness_threshold=threshold,
        expansiveness_ok=quality.expansiveness is None or quality.expansiveness >= threshold)


def _greedy_fill(images, used):
    free = iter([v for v in range(len(images)) if not used[v]])
    return [img if img is not None else next(free) for img in images]


def reference_example_check(n, c=31):
    """(m*, fix count) of the three-cycle example with the restrictions of h
    and of the modified square built point by point, as first written."""
    def h_forward(m):
        q, rem = divmod(m, 3)
        return 3 * q + (rem + 1) % 3

    def h_backward(m):
        q, rem = divmod(m, 3)
        return 3 * q + (rem - 1) % 3

    images, used = [None] * n, [False] * n
    for m in range(n):
        if h_forward(m) < n:
            images[m] = h_forward(m)
            used[images[m]] = True
    sh = _greedy_fill(images, used)
    images, used = [None] * n, [False] * n
    for m in range(n):
        if m <= n - c:
            images[m] = h_backward(m)
        elif m - 2 > n - c:
            images[m] = m
        if images[m] is not None:
            used[images[m]] = True
    sh2 = _greedy_fill(images, used)
    return n - c, sum(1 for x in range(n) if sh[sh[x]] == sh2[x])


def reference_growth_eval(g: GrowthFn, n):
    """g(n) with every power applied by iteration and every composition
    evaluated inside out; leaf kinds evaluate directly."""
    if n == INF:
        return INF
    if isinstance(g, Power):
        for _ in range(g.k):
            n = reference_growth_eval(g.base, n)
        return n
    if isinstance(g, Compose):
        return reference_growth_eval(g.outer, reference_growth_eval(g.inner, n))
    return g(n)


def reference_power_orders(f: GrowthFn, g: GrowthFn, k_max: int):
    """``ll`` and ``sim`` by trying every power k <= k_max in turn.

    Returns (ll_k, sim_k): the first k with f^k < g failing, and the first k
    with f < g^k and g < f^k both holding, each None when no k <= k_max
    decides it.
    """
    ll_k = next((k for k in range(1, k_max + 1)
                 if lt_eventually(Power(f, k), g).outcome == "false"), None)
    sim_k = next((k for k in range(1, k_max + 1)
                  if lt_eventually(f, Power(g, k)).outcome == "true"
                  and lt_eventually(g, Power(f, k)).outcome == "true"), None)
    return ll_k, sim_k


def max_m_with_value_at_most(g: GrowthFn, n: int) -> int | None:
    """Largest m with g(m) <= n (None if even g(0) > n).  Monotone bisection."""
    if g(0) > n:
        return None
    lo, hi = 0, n  # g(m) > m forces any solution below n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if g(mid) <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def reference_growth_profile(g: GrowthFn, r, n_max: int):
    """``growth_profile`` as first written: every n = 1..n_max in turn, with
    the largest m having g(m) <= n found by bisection and tested."""
    r = quality_parameter(r)
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    if is_infinite(g):
        return Exhausted(n_max, note="g(m) <= n holds for no m: the defining set is empty")
    for n in range(1, n_max + 1):
        m = max_m_with_value_at_most(g, n)
        if m is None:
            continue
        if Fraction(n - m, n) < 1 / r:
            return n
    note = ""
    form = linearize(g)
    if form is not None and Fraction(form.a - 1, form.a) >= 1 / r:
        note = (f"impossible for every n: g(m) <= n forces m <= n/{form.a}, "
                f"so (n - m)/n >= {Fraction(form.a - 1, form.a)} >= 1/r")
    return Exhausted(n_max, note=note)


def reference_growth_walk(g: GrowthFn, r, n_max: int):
    """``growth_profile`` before its closed form: every m in turn from 0,
    until g(m) exceeds n_max or the gap 1 - m/g(m) falls below 1/r."""
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
    m = 0
    while (gm := g(m)) <= n_max:
        if r * (gm - m) < gm:  # 1 - m/g(m) < 1/r, cleared of fractions
            return gm
        m += 1
    return Exhausted(n_max)


def reference_minimal_onset(f: GrowthFn, g: GrowthFn, start: int) -> int:
    """``growth._minimal_onset`` before it stepped a piece at a time: given
    that f < g from ``start`` on, walk n down one point at a time while
    f(n - 1) < g(n - 1)."""
    n = start
    while n > 0 and f(n - 1) < g(n - 1):
        n -= 1
    return n


def reference_audit(p, g, horizon):
    """``audit`` as first written: every check point by point, the backward
    round trip at every point of [0, horizon], and the bound read in order
    with running maxima.  It predates the check that values lie in the
    naturals, so compare it on carriers whose values do."""
    fwd = [p.forward(m) for m in range(horizon + 1)]
    violation = _reference_violation(p, fwd, [g(n) for n in range(horizon + 1)])
    return BoundWitness(g, horizon) if violation is None else violation


def _reference_violation(p, fwd, bound_values):
    seen = {}
    for m, v in enumerate(fwd):
        if v in seen:
            return AuditViolation("injectivity", m)
        seen[v] = m
    for m, v in enumerate(fwd):
        if p.backward(v) != m:
            return AuditViolation("roundtrip", m, side="forward")
    bwd = [p.backward(m) for m in range(len(fwd))]
    for m, v in enumerate(bwd):
        if p.forward(v) != m:
            return AuditViolation("roundtrip", m, side="backward")
    run_max_f = run_max_b = -1
    arg_f = arg_b = 0
    for n, gn in enumerate(bound_values):
        if fwd[n] > run_max_f:
            run_max_f, arg_f = fwd[n], n
        if bwd[n] > run_max_b:
            run_max_b, arg_b = bwd[n], n
        if run_max_f > gn:
            return AuditViolation("bound", arg_f, n=n, side="forward")
        if run_max_b > gn:
            return AuditViolation("bound", arg_b, n=n, side="backward")
    return None


def reference_gchunk_error(chunk, carriers, bound, horizon):
    """The message ``build_gchunk``'s checks raised as first written, or
    None: the unit's forward map checked on the horizon, then every carrier,
    the unit's included, audited in element order, then every product of
    the table point by point, a's forward map evaluated at each b-value past
    the horizon as often as it occurs."""
    carriers = dict(carriers)
    carriers.setdefault(chunk.unit, LazyPerm(lambda m: m, lambda m: m, "identity"))
    points = range(horizon + 1)
    unit_forward = carriers[chunk.unit].forward
    moved = next((m for m in points if unit_forward(m) != m), None)
    if moved is not None:
        return f"unit carrier moves {moved}"
    values = {chunk.unit: points}
    bound_values = [bound(n) for n in points]
    for e in chunk.elements:
        if e not in values:
            values[e] = [carriers[e].forward(m) for m in points]
        violation = _reference_violation(carriers[e], values[e], bound_values)
        if violation is not None:
            return f"carrier of {e!r}: {violation}"
    for (a, b), c in chunk.table.items():
        va, vb, vc, fa = values[a], values[b], values[c], carriers[a].forward
        bad = next((m for m in points
                    if (va[v] if 0 <= (v := vb[m]) <= horizon else fa(v)) != vc[m]), None)
        if bad is not None:
            return f"table says {a} * {b} = {c} but carriers disagree at {bad}"
    return None


def reference_blocksum_carrier(real, e):
    """The forward and backward maps of ``real.carrier(e)`` as first
    written: a bisection in the layout and a divmod within the block at
    every evaluation, and the identity from the last block end on."""
    layout, sizes, top = real.layout, real.m, real.layout[-1]

    def walk(tables):
        def fn(x):
            if x >= top:
                return x
            k = bisect_right(layout, x)
            start = layout[k - 1] if k else 0
            size = sizes[k]
            off = x - start
            return start + (off // size) * size + tables[k][off % size]
        return fn

    return (walk([s[e].images for s in real.sigma]),
            walk([inverse(s[e]).images for s in real.sigma]))


def compose_lazy(p: LazyPerm, q: LazyPerm) -> LazyPerm:
    """p after q.  The composite keeps no table, so it is audited by
    evaluation."""
    return LazyPerm(
        lambda m: p.forward(q.forward(m)),
        lambda m: q.backward(p.backward(m)),
        f"({p.descriptor})o({q.descriptor})",
    )


def decide_product(c, i: str, j: str, k: str, cert: ProfileCertificate) -> str:
    """Decide whether i*j = k from an r = 3 certificate covering {unit, i, j, k}.

    Measures d(f(i)f(j), f(k)) and answers "equal" below 1/3 and "distinct"
    from 2/3 up.  The middle band cannot occur for a genuine certificate of a
    group trace, so hitting it means the certificate is unfit for the chunk.
    """
    if cert.r != 3:
        raise ValueError(f"certificate must be at r = 3, got r = {cert.r}")
    for e in (i, j, k):
        if e not in c.elements:
            raise ValueError(f"element {e!r} not in chunk")
        if e not in cert.assignment:
            raise ValueError(f"certificate does not cover element {e!r}")
    f = cert.assignment
    d = hamming_distance(compose(f[i], f[j]), f[k])
    if d < Fraction(1, 3):
        return "equal"
    if d >= Fraction(2, 3):
        return "distinct"
    raise ValueError(f"certificate too weak: d(f({i})f({j}), f({k})) = {d} lies in [1/3, 2/3)")


@dataclass(frozen=True)
class ChunkMap:
    """Total assignment from a source chunk's elements into some target."""

    source: Chunk
    images: dict

    def __post_init__(self) -> None:
        missing = [e for e in self.source.elements if e not in self.images]
        if missing:
            raise ValueError(f"map not total, missing {missing}")


def is_homomorphism(m: ChunkMap, target_mult, target_unit=None) -> bool:
    """True iff m preserves the unit and every defined product of the source.

    ``target_unit`` may be omitted when the images are ``Perm`` values, in
    which case the identity permutation of the right degree is assumed.
    """
    c = m.source
    fu = m.images[c.unit]
    if target_unit is None:
        if isinstance(fu, Perm):
            target_unit = identity(fu.degree)
        else:
            raise ValueError("target_unit required for non-permutation targets")
    if fu != target_unit:
        return False
    for (a, b), ab in c.table.items():
        if target_mult(m.images[a], m.images[b]) != m.images[ab]:
            return False
    return True


def compose_maps(outer: ChunkMap, inner: ChunkMap) -> ChunkMap:
    """(outer o inner), defined when inner's images are elements of outer's source."""
    images = {e: outer.images[inner.images[e]] for e in inner.source.elements}
    return ChunkMap(inner.source, images)


def rename_chunk(c: Chunk, names: dict[str, str]) -> Chunk:
    """``c`` with each element x called ``names[x]``, kept in its position."""
    return Chunk(tuple(names[e] for e in c.elements), names[c.unit],
                 {(names[a], names[b]): names[v] for (a, b), v in c.table.items()})


def chunk_mult(c: Chunk):
    """The chunk's own partial multiplication, None where undefined."""
    return lambda a, b: c.product(a, b)


def gamma_pair(j: int) -> tuple[LazyPerm, LazyPerm]:
    """Two transpositions whose supports share exactly the point j."""
    common, first, second, _ = _gamma_points(j)
    return _transposition_lazy(common, first), _transposition_lazy(common, second)


def _transposition_lazy(a: int, b: int) -> LazyPerm:
    def swap(m: int) -> int:
        if m == a:
            return b
        if m == b:
            return a
        return m
    return LazyPerm(swap, swap, f"transposition:({a} {b})")


def chunk_compatibility(real: Realization):
    """(dropped, extra): abstract products the carriers miss, and
    carrier-exact products the abstract chunk does not define the same way.

    The name-preserving map from the realized chunk onto the abstract one
    is a homomorphism exactly when ``extra`` is empty.
    """
    induced = real.exact_products()
    dropped = tuple(sorted(
        key for key, val in real.chunk.table.items()
        if induced.get(key) != val))
    extra = tuple(sorted(
        key for key, val in induced.items()
        if real.chunk.table.get(key) != val))
    return dropped, extra


def displacement(real: Realization, n: int, e1: str, e2: str) -> Fraction:
    """Block-sum distance predicted from per-stage disagreement counts."""
    if not 2 <= n <= real.depth:
        raise ValueError(f"stage {n} outside 2..{real.depth}")
    num = sum(f_i * disagreements(s[e1], s[e2])
              for f_i, s in zip(real.f[:n - 1], real.sigma))
    return Fraction(num, real.layout[n - 2])


def property_holds_mask(gc: GChunk, r, n_range) -> list[bool]:
    """Per degree of ``n_range``, whether its supp morphism has defect at most 1/r."""
    r = quality_parameter(r)
    return [supp_defect_holds(gc, n, r) for n in n_range]
