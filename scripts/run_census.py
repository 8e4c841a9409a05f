#!/usr/bin/env python3
"""Run orbit censuses over a list of small finite fields and print a summary.

Example:
    python3 scripts/run_census.py --fields 3 4 5 9 --max-ext 6
    python3 scripts/run_census.py --fields 5 --json out/gf5.json --csv out/gf5.csv
"""

import argparse
import json
import sys
import time
from pathlib import Path

from evoalg import GF, BudgetExceeded, FieldError, census
from evoalg.serialize import census_to_csv, census_to_json, dumps, key_str


def field_of(q: int):
    """GF(q) for q = p^k, p being the least factor of q below 2^16, or q
    itself when there is none; the library refuses a p that is not prime."""
    if q < 2:
        raise SystemExit(f"{q} is not a prime power")
    p = next((d for d in range(2, min(q, 1 << 16)) if q % d == 0), q)
    k, n = 0, q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise SystemExit(f"{q} is not a prime power")
    return GF(p, k) if k > 1 else GF(p)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fields", type=int, nargs="+", default=[2, 3, 4, 5, 9])
    ap.add_argument("--max-ext", type=int, default=6)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--json", help="write the last report as JSON to this path")
    ap.add_argument("--csv", help="write the last report as CSV to this path")
    args = ap.parse_args()

    last = None
    for q in args.fields:
        try:
            F = field_of(q)
            t0 = time.perf_counter()
            rep = census(F, max_witness_ext=args.max_ext, jobs=args.jobs)
        except (BudgetExceeded, FieldError) as e:
            print(f"run_census.py: {e}", file=sys.stderr)
            return 1
        dt = time.perf_counter() - t0
        status = "ok" if rep.ok else "FLAGS FALSE"
        print(
            f"{F!r:10} {dt:7.2f}s  msc={rep.total_evolution_msc:6d} "
            f"|GL2|={rep.gl2_order:6d} keys={len(rep.records):3d}  {status}"
        )
        for r in rep.records:
            print(
                f"    {key_str(r.key):24} count={r.orbit_size_in_evolution_subset:5d} "
                f"orbits={len(r.orbit_representatives):2d} "
                f"|Aut|={r.brute_aut_order:5d} dim Der={r.der_dim}"
            )
        last = rep
        if not rep.ok:
            return 2
    if last is not None and args.json:
        Path(args.json).write_text(dumps(census_to_json(last)))
    if last is not None and args.csv:
        Path(args.csv).write_text(census_to_csv(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
