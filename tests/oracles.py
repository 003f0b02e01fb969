"""Independent oracles the acceptance suite checks the library against.

Everything here deliberately avoids the library's search and measurement
paths: feasibility is decided by plain enumeration over all assignments, with
thresholds written out directly.  ``reference_backtrack`` keeps the library's
original per-degree search, which tried every candidate and compared
``Fraction`` distances, as the reference for witnesses and node counts.
``reference_realize`` keeps the original trial-and-measure choice of
realization multiplicities, which builds every trial block sum and measures
it with ``measure``, as the reference for the closed form.
"""

import itertools
from fractions import Fraction

from soficapprox.lazyperm import StageReport
from soficapprox.permcore import (all_cycle_types, all_perms, block_sum, compose,
                                  cycle_type_representative, hamming_distance, identity)
from soficapprox.profile import measure


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


def reference_realize(c, certs):
    """The realization multiplicities as first computed: for each stage, try
    f = 1, 2, ... and build and measure the full block sum until the quality
    thresholds and both block-end slowness inequalities hold.  Returns
    (f list, stage reports)."""
    f_list, stages = [], []
    degree = sum_m = 0
    for idx, cert in enumerate(certs):
        n = idx + 2
        sum_m_prev, sum_m = sum_m, sum_m + cert.n
        eps = Fraction(1, n - 1)
        for f_n in itertools.count(1):
            assignment = {
                e: block_sum([(certs[i].assignment[e], f_list[i]) for i in range(idx)]
                             + [(cert.assignment[e], f_n)])
                for e in c.elements
            }
            quality = measure(c, assignment)
            total = degree + f_n * cert.n
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
            n=n, m_n=cert.n, f_n=f_n, degree=degree,
            defect=quality.defect, expansiveness=quality.expansiveness,
            slow_lhs=slow_lhs, g_gap=g_gap, slow_threshold=Fraction(1, n)))
    return f_list, stages
