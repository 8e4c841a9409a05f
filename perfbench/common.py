"""Helpers shared by the workloads: locating the library, exact integer
arithmetic used to generate and check inputs (no floating point), latency
statistics, memory and set-up measurement."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


class BenchError(RuntimeError):
    """The benchmark cannot run or cannot check its outputs."""


def import_library():
    """Import evoalg from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "evoalg", "__init__.py")):
        raise BenchError(f"no evoalg package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import evoalg
    import evoalg.cli  # noqa: F401  (not imported by the package itself)
    import evoalg.serialize  # noqa: F401

    where = os.path.dirname(os.path.abspath(evoalg.__file__))
    if where != os.path.join(SRC, "evoalg"):
        raise BenchError(f"evoalg imported from {where}, not from {SRC}")
    return evoalg


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def load_expected() -> dict:
    path = os.path.join(BENCH_DIR, "expected.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read recorded outputs {path}: {e}") from None


# ---------------------------------------------------------------------------
# exact integer arithmetic
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def int_root(x: int, n: int):
    """Exact integer n-th root of x >= 0 by Newton's method, or None."""
    if x < 2:
        return x
    r = 1 << ((x.bit_length() + n - 1) // n)  # r**n >= x
    while True:
        nxt = ((n - 1) * r + x // r ** (n - 1)) // n
        if nxt >= r:
            break
        r = nxt
    return r if r**n == x else None


def rational_root_exists(u: Fraction, n: int) -> bool:
    """Whether x^n = u has a rational solution."""
    if u == 0:
        return True
    if u < 0:
        if n % 2 == 0:
            return False
        u = -u
    return int_root(u.numerator, n) is not None and int_root(u.denominator, n) is not None


# ---------------------------------------------------------------------------
# statistics and measurement
# ---------------------------------------------------------------------------

def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


# percentile reported as tail_ms: the highest with at least ten samples above it
# in a run (queries 2800 ops at their best of six passes, cli 105 calls,
# large_field 43 ops at their best of ten passes); census has 4 ops at their
# best of 15 passes, where p90 is the slowest of them
TAIL_PERCENTILE = {"queries": 99, "cli": 90, "large_field": 75, "census": 90}


def latency_metrics(latencies_s, workload) -> dict:
    lat = sorted(latencies_s)
    return {
        "p50_ms": percentile(lat, 50) * 1e3,
        "tail_ms": percentile(lat, TAIL_PERCENTILE[workload]) * 1e3,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import evoalg
t1 = time.perf_counter()
for d in json.loads(sys.argv[1]):
    F = evoalg.field_make(d)
    F.mul(F.one, F.one)  # first arithmetic builds the lookup tables
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t0]))
"""

SETUP_PROBES = 30


class SetupProbes:
    """Set-up time: fresh interpreters that import evoalg and build the
    workload's named fields and their tables. The probes are spread over the
    run, between its timed passes, so that a slow stretch of the machine
    holds only some of them; the figures reported are medians."""

    def __init__(self, field_descs, count=SETUP_PROBES):
        self.arg = json.dumps(list(field_descs))
        self.count = count
        self.imports: list = []
        self.totals: list = []

    def _probe(self):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, self.arg],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()[-400:]}")
        imp, tot = json.loads(out.stdout)
        self.imports.append(imp)
        self.totals.append(tot)

    def catch_up(self, progress: float):
        """Probe until the share of probes made reaches progress (0 to 1)."""
        while len(self.totals) < min(self.count, math.ceil(self.count * progress)):
            self._probe()

    def medians(self) -> tuple[float, float]:
        """(import evoalg, import plus the named fields), in seconds."""
        self.catch_up(1.0)
        return statistics.median(self.imports), statistics.median(self.totals)


def interpreter_ms(repeats: int = 15) -> float:
    """Median wall time of `python -c pass`, in milliseconds."""
    ts = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts) * 1e3
