"""Layer probes on fixed inputs, independent of any workload.

``micro_ops`` times the ``permcore`` kernels per operation at n = 8, 64 and
1024, and a block sum of degree 1590 (the depth-24 z3 layout's size).
``profile_split`` certifies the full Z8 chunk at r = 8 twice in one
interpreter: with ``n_max = 7``, which is the minimality proof alone, and
with ``n_max = 8``; the witness degree's share is the difference.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

DEGREES = (8, 64, 1024)
REPEATS = 7
# Multiplicities of a degree-3 block in a block sum of degree 3 * 530 = 1590.
BLOCK_MULTS = (2, 3) + tuple(range(5, 47, 2))


def _per_op(fn, args, ops: int) -> float:
    """Median over repeats of the seconds per call."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(ops):
            fn(*args)
        times.append((perf_counter() - start) / ops)
    return statistics.median(times)


def micro_ops() -> dict[str, float]:
    from soficapprox import permcore
    rng = random.Random(8)
    out = {}
    for n in DEGREES:
        ops = max(200, 100_000 // n)
        p_images = list(range(n))
        q_images = list(range(n))
        rng.shuffle(p_images)
        rng.shuffle(q_images)
        p, q = permcore.Perm(tuple(p_images)), permcore.Perm(tuple(q_images))
        out[f"permcore.compose_ns.n{n}"] = 1e9 * _per_op(permcore.compose, (p, q), ops)
        out[f"permcore.hamming_ns.n{n}"] = 1e9 * _per_op(permcore.hamming_distance, (p, q), ops)
        out[f"permcore.perm_new_ns.n{n}"] = 1e9 * _per_op(permcore.Perm, (p.images,), ops)
    cycle = permcore.Perm((1, 2, 0))
    parts = [(cycle, f) for f in BLOCK_MULTS]
    out["permcore.block_sum_us"] = 1e6 * _per_op(permcore.block_sum, (parts,), 20)
    return out


def profile_split(chunk_text: str, r: int, degree: int) -> dict[str, float]:
    """Minimality proof versus full certification of one chunk, at one worker."""
    from soficapprox import chunk, profile
    c = chunk.parse_chunk(chunk_text)
    start = perf_counter()
    proof = profile.sofic_profile(c, r, degree - 1)
    minimality_s = perf_counter() - start
    start = perf_counter()
    cert = profile.sofic_profile(c, r, degree)
    full_s = perf_counter() - start
    if not isinstance(proof, profile.Exhausted) or getattr(cert, "n", None) != degree:
        raise RuntimeError(f"expected degree {degree} to be the least feasible")
    if proof.records != cert.infeasible:
        raise RuntimeError("minimality records differ between the two runs")
    nodes = [rec.nodes for rec in cert.infeasible]
    out = {
        "profile.minimality_s": minimality_s,
        "profile.witness_s": full_s - minimality_s,
        "profile.minimality_nodes": sum(nodes),
        "profile.nodes_per_s": sum(nodes) / minimality_s,
    }
    for rec in cert.infeasible:
        out[f"profile.minimality_nodes.d{rec.degree}"] = rec.nodes
    return out
