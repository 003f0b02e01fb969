#!/usr/bin/env python3
"""Sweep sofic profiles of chunk files over a range of quality parameters.

A file that cannot be read or parsed, or a bad parameter, prints one
``error:`` line to stderr and exits 1.

Example:
    python scripts/profile_sweep.py tests/data/z2.chunk tests/data/z3.chunk \
        --rs 2/1,3/1,4/1 --n-max 6
"""

import argparse
import sys
import time

from soficapprox.chunk import parse_chunk_file
from soficapprox.cli import parse_rational
from soficapprox.profile import Exhausted, profile_table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("chunks", nargs="+", help="chunk files to sweep")
    ap.add_argument("--rs", default="2/1,3/1,4/1,5/1")
    ap.add_argument("--n-max", type=int, default=6)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    try:
        rs = [parse_rational(tok) for tok in args.rs.split(",")]
    except ValueError as exc:
        ap.error(f"--rs: {exc}")
    try:
        return sweep(args.chunks, rs, args.n_max, args.workers)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def sweep(paths, rs, n_max, workers):
    """Print one row of least degrees per chunk file, one column per r."""
    header = "chunk".ljust(28) + "".join(f"r={r}".rjust(10) for r in rs) + "    time"
    print(header)
    print("-" * len(header))
    for path in paths:
        c = parse_chunk_file(path)
        start = time.perf_counter()
        results = profile_table(c, rs, n_max, workers=workers)
        elapsed = time.perf_counter() - start
        cells = []
        for res in results:
            cells.append("--" if isinstance(res, Exhausted) else str(res.n))
        print(path.ljust(28) + "".join(cell.rjust(10) for cell in cells)
              + f"  {elapsed:6.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
