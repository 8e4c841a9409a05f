#!/usr/bin/env python3
"""Build the default modulus of every extension field the size budget admits
over a list of primes, time each build, and print one digest over them all.

The primes are every prime below 64 and 127, 131, 251, 257, 65521, 65537,
10^9 + 7, 2^31 - 1 and 10^24 + 7; k runs from 2 up to the largest k with
k * ceil(log2 p) inside the size budget, 1,382 fields in all. Each field is
built once, from cold, in this process. The script prints the fields that
took over 1 s, the slowest five, and the sha256 of the lines "p k modulus",
the modulus low degree first, in sweep order: equal digests mean equal moduli.
With --expect SHA256 it exits 1 when the digest differs.

Example:
    PYTHONPATH=src python3 scripts/moduli_sweep.py --expect 76a6cf7b2a2589458d973987534efc8a9c7c2614ee8b0a961354f0005721356f
"""

import argparse
import hashlib
import time

from evoalg import GF
from evoalg.fields import _SIZE_BUDGET

PRIMES = [p for p in range(2, 64) if all(p % d for d in range(2, p))] + [
    127, 131, 251, 257, 65521, 65537, 10**9 + 7, 2**31 - 1, 10**24 + 7,
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", metavar="SHA256", help="exit 1 unless the digest is this one")
    args = parser.parse_args()
    digest, times = hashlib.sha256(), []
    for p in PRIMES:
        GF(p)  # primality is proved here, outside the timed builds
        for k in range(2, _SIZE_BUDGET // (p - 1).bit_length() + 1):
            start = time.perf_counter()
            modulus = GF(p, k).modulus
            times.append((time.perf_counter() - start, p, k))
            digest.update(f"{p} {k} {' '.join(map(str, modulus))}\n".encode())
    times.sort(reverse=True)
    print(f"{len(times)} fields, {sum(t for t, _, _ in times):.1f} s in all")
    print("over 1 s:", ", ".join(f"GF({p}^{k}) {t:.2f} s" for t, p, k in times if t > 1) or "none")
    print("slowest five:", ", ".join(f"GF({p}^{k}) {t:.2f} s" for t, p, k in times[:5]))
    print("sha256:", digest.hexdigest())
    if args.expect is not None and digest.hexdigest() != args.expect:
        print("sha256 differs from the expected", args.expect)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
