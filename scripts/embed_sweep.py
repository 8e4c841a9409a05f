#!/usr/bin/env python3
"""Find the root behind every embedding GF(p^k) -> GF(p^(d k)) in a fixed
list, time each, and print one digest over them all.

The list is p in {2, 3, 5, 7, 13}, d in {2, 3} and every k >= 2 with
d * k * log2 p <= 96, 201 embeddings in all. Both fields are built first,
untimed; then `embed(GF(p, k), GF(p, d k))` finds its root, the raw image of
the generator of GF(p^k), from cold in this process. The script prints the
total time, the slowest ten, and the sha256 of the lines "p k d root" in
sweep order: equal digests mean equal roots. With --expect SHA256 it exits 1
when the digest differs.

Example:
    PYTHONPATH=src python3 scripts/embed_sweep.py --expect fbad389f522ac8f58da8c111361b6d46ad5582a28a5345a51e28fa74b9267511
"""

import argparse
import hashlib
import math
import time

from evoalg import GF
from evoalg.fields import embed

PRIMES = (2, 3, 5, 7, 13)
DEGREES = (2, 3)
MAX_BITS = 96


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", metavar="SHA256", help="exit 1 unless the digest is this one")
    args = parser.parse_args()
    digest, times = hashlib.sha256(), []
    for p in PRIMES:
        for d in DEGREES:
            k = 2
            while d * k * math.log2(p) <= MAX_BITS:
                src, dst = GF(p, k), GF(p, d * k)
                start = time.perf_counter()
                root = embed(src, dst).raw(p)  # p is the index of the generator x
                times.append((time.perf_counter() - start, p, k, d))
                digest.update(f"{p} {k} {d} {root}\n".encode())
                k += 1
    times.sort(reverse=True)
    print(f"{len(times)} embeddings, {sum(t for t, *_ in times):.1f} s in all")
    print("slowest ten:", ", ".join(f"GF({p}^{k}) -> GF({p}^{d * k}) {t:.2f} s" for t, p, k, d in times[:10]))
    print("sha256:", digest.hexdigest())
    if args.expect is not None and digest.hexdigest() != args.expect:
        print("sha256 differs from the expected", args.expect)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
