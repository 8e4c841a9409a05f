#!/usr/bin/env python3
"""Print the automorphism-order and derivation-dimension tables of the
canonical 2-dimensional evolution algebras over chosen finite fields,
computed two ways (closed form and brute force) and cross-checked.

Example:
    python3 scripts/aut_der_tables.py --fields 4 5 7 9
"""

import argparse
import sys

from evoalg import (
    CanonicalKey,
    Fel,
    aut_closed_form,
    aut_instantiate,
    brute_aut,
    canonical_msc,
    der_solve,
)
from run_census import field_of


def keys_for(field):
    ks = []
    q = field.order
    pair = next(
        (x, y)
        for x in range(q)
        for y in range(x + 1, q)
        if field.mul(x, y) != field.one
    )
    eq = next(x for x in range(q) if field.mul(x, x) != field.one)
    ks.append(("E1(b,c), b!=c", CanonicalKey(field, "E1", (Fel(field, pair[0]), Fel(field, pair[1])))))
    ks.append(("E1(b,b)", CanonicalKey(field, "E1", (Fel(field, eq), Fel(field, eq)))))
    ks.append(("E2(b), b!=0", CanonicalKey(field, "E2", (Fel(field, field.one),))))
    ks.append(("E2(0)", CanonicalKey(field, "E2", (Fel(field, field.zero),))))
    for lab in ("E3", "E4", "E5", "E6"):
        ks.append((lab, CanonicalKey(field, lab)))
    return ks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fields", type=int, nargs="+", default=[4, 5, 7, 9])
    args = ap.parse_args()
    for q in args.fields:
        F = field_of(q)
        print(f"\n{F!r}  (characteristic {F.char})")
        print(f"  {'family':16} {'|Aut| closed':>12} {'|Aut| brute':>12} {'dim Der':>8}")
        for name, k in keys_for(F):
            inst = aut_instantiate(aut_closed_form(k, F), F)
            scan = brute_aut(canonical_msc(k), F)
            mark = "" if set(inst) == set(scan) else "  MISMATCH"
            dim = der_solve(canonical_msc(k)).dim
            print(f"  {name:16} {len(inst):12d} {len(scan):12d} {dim:8d}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
