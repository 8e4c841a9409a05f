"""Record the outputs the benchmark checks against (expected.json).

    python3 perfbench/record.py

Run it only on a commit whose outputs are trusted: it records the census
digests, the default extension moduli and the CLI outputs that later runs
must reproduce byte for byte.
"""

from __future__ import annotations

import json
import os
import sys

import large
from common import BENCH_DIR, import_library, is_prime
from run import CENSUS_FIELDS, CLI_CALLS, _cli_subprocess, _digest


def main() -> int:
    ev = import_library()
    census = {}
    for name, desc, jobs in CENSUS_FIELDS:
        if jobs == 1 and name not in census:
            report = ev.census(ev.field_make(desc))
            census[name] = _digest(ev.serialize.dumps(ev.serialize.census_to_json(report)))
            print(name, report.flags, file=sys.stderr)
    moduli = {}
    degrees = [(p, 2) for p in range(100, 251) if is_prime(p)]
    degrees += [(p, 3) for p in large.E3_PRIMES] + list(large.DESCRIPTORS)
    for p, k in degrees:
        moduli[f"{p}^{k}"] = list(ev.field_make({"kind": "GF", "p": p, "k": k}).modulus)
    cli = []
    for sub, argv in CLI_CALLS:
        code, stdout = _cli_subprocess(argv)
        cli.append({"subcommand": sub, "exit": code, "stdout_sha256": _digest(stdout)})
    with open(os.path.join(BENCH_DIR, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({"census": census, "moduli": moduli, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
