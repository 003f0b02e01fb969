#!/usr/bin/env python3
"""Build the block-direct-sum realization of a chunk and report every stage.

For each stage the report shows the certificate degree, the chosen
multiplicity, the running total degree, the block-sum quality, and the two
block-end slowness quantities against their 1/n threshold.  The
growth bound's own block checks follow, and the report ends by checking
that the degree-n supp restrictions of the block-sum carriers reproduce
every stage; the exit status is 1 when they do not.  A file that cannot be
read or parsed, or a bad parameter, prints one ``error:`` line to stderr and
exits 1.

Example:
    python scripts/realization_report.py tests/data/z3.chunk --depth 8 \
        --emit /tmp/z3_realization.json
"""

import argparse
import sys

from soficapprox.chunk import parse_chunk_file
from soficapprox.cli import emit_realization, format_rational
from soficapprox.growth import is_slow
from soficapprox.lazyperm import realize, supp_morphism
from soficapprox.profile import Exhausted, profile_table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("chunk")
    ap.add_argument("--depth", type=int, default=6)
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--emit", default=None)
    args = ap.parse_args(argv)

    try:
        return report(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def report(args):
    """Print the report; 0 when the supp restrictions reproduce every stage,
    1 when they do not, 2 when a profile search is exhausted."""
    c = parse_chunk_file(args.chunk)
    certs = profile_table(c, range(2, args.depth + 1), args.n_max, workers=args.workers)
    for r, cert in enumerate(certs, start=2):
        if isinstance(cert, Exhausted):
            print(f"profile search exhausted at r = {r} (n_max = {cert.n_max})")
            return 2
        print(f"certificate r = {r}: degree {cert.n}, "
              f"defect {format_rational(cert.quality.defect)}, "
              f"expansiveness {format_rational(cert.quality.expansiveness)}")

    real = realize(c, [cert.assignment for cert in certs])
    print()
    print("stage   m   f  degree     defect  expansiveness   slow_lhs      g_gap  threshold")
    for st in real.stages:
        print(f"{st.n:5d} {st.m_n:3d} {st.f_n:3d} {st.degree:7d} "
              f"{format_rational(st.defect):>10} {format_rational(st.expansiveness):>14} "
              f"{format_rational(st.slow_lhs):>10} {format_rational(st.g_gap):>10} "
              f"{format_rational(st.slow_threshold):>10}")
    print()
    print(f"growth bound: {real.g.spec()}")
    verdict = is_slow(real.g)
    print(f"slow: {verdict.verdict}")
    for check in verdict.blocks or ():
        print(f"  stage {check.stage}: gap {check.gap} < {check.threshold}: "
              f"{'ok' if check.ok else 'VIOLATED'}")

    gc = real.gchunk()
    agree = all(
        supp_morphism(gc, degree) == real.block_sum_assignment(stage_n)
        for stage_n, degree in zip(range(2, real.depth + 1), real.layout))
    print(f"supp restrictions reproduce every stage: {'yes' if agree else 'NO'}")

    if args.emit:
        emit_realization(args.emit, real)
        print(f"wrote {args.emit}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
