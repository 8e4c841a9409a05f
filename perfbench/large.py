"""`large_field` workload: fields built per op, and witnesses that need a root
in a large extension field.

Every op names a field no earlier op of the pass used, and each pass runs in
a fresh interpreter, so no op finds its field or embedding already interned.

The cost of the current root search is the index of the first root in the
extension's element order. The extension modulus is x^k + c0 (the first
irreducible in base-p scan order), so alpha^k = n = -c0, and the roots of
x^k = u sit at index m*p^j for a radicand u = m^k n^j (j = 1 for squares;
j = 1 or 2 for cubes, the two classes of non-cubes). A uniformly random
non-square or non-cube radicand therefore gives a known distribution of that
index: for E4, min(m, p - m) * p with m uniform, so the first root lies
uniformly in the first half of the range; for E3, half the radicands have
their root at m*alpha (a scan of at most p^2 elements) and half at m*alpha^2,
with m the smallest of its three conjugates. The generator places the ops'
roots at stratified quantiles of that exact distribution, and assigns the
quantiles to the primes so that the pass's total scan comes closest to its
mean under random radicands (scan_share_of_mean reports the ratio). Seeds
then change the entries, not the work.

E4 primes are the next primes after stratified log-spaced points of
[100, 250] (four, evenly on a log scale), jittered by 1% per seed, so the p^2
growth shows across the pass; E3 uses every p = 1 mod 3 in [13, 43]. Larger
E4 primes make single ops that take seconds, whose time follows the host's
drift rather than the code (see NOTES.md).
"""

from __future__ import annotations

import itertools
import random

import checks
from common import next_prime

E4_TAGS = ("2.2.1", "2.1.1")  # alternate over the E4 primes, smallest first
E4_COUNT = 4
E4_TARGETS = tuple(100 * 2.5 ** ((i + 0.5) / E4_COUNT) for i in range(E4_COUNT))  # 112 .. 221
E3_PRIMES = (13, 19, 31, 37, 43)  # every p = 1 mod 3 in [13, 43]
DESCRIPTORS = tuple((2, k) for k in range(2, 21)) + tuple((3, k) for k in range(2, 15))
BIG_P_TARGETS = (2e12, 8e12)
JITTER = 0.01


def _first_nonpower(p, n):
    """Smallest c0 with -c0 not an n-th power mod p: the constant term of the
    library's default degree-n modulus x^n + c0."""
    for c0 in range(1, p):
        if pow(-c0 % p, (p - 1) // n, p) != 1:
            return c0
    raise ValueError(f"every element of GF({p}) is an {n}-th power")


def _cube_roots_of_unity(p):
    for g in range(2, p):
        w = pow(g, (p - 1) // 3, p)
        if w != 1:
            return (1, w, w * w % p)
    raise ValueError(f"GF({p}) has no primitive cube root of unity")


def root_positions(p, k):
    """Sorted (index, m, j) of the first root over all radicands u = m^k n^j
    that have no root in GF(p), each radicand weighted equally."""
    if k == 2:
        return sorted((min(m, p - m) * p, min(m, p - m), 1) for m in range(1, p))
    ws = _cube_roots_of_unity(p)
    out = []
    for m in range(1, p):
        low = min(m * w % p for w in ws)
        out += [(low * p, low, 1), (low * p * p, low, 2)]
    return sorted(out)


def _mean_index(dist):
    return sum(d[0] for d in dist) / len(dist)


def stratified_levels(primes_k):
    """Quantile level of each prime's root: the levels (i + 0.5) / n, assigned
    to the primes so that the summed first-root index is closest to its mean
    under random radicands."""
    dists = [root_positions(p, k) for p, k in primes_k]
    n = len(dists)
    levels = [(i + 0.5) / n for i in range(n)]
    mean = sum(_mean_index(d) for d in dists)
    best = min(
        itertools.permutations(levels),
        key=lambda perm: abs(sum(d[int(u * len(d))][0] for d, u in zip(dists, perm)) - mean),
    )
    return list(best)


# fixed across seeds: the levels are assigned on the unjittered primes
E4_LEVELS = stratified_levels([(next_prime(round(t)), 2) for t in E4_TARGETS])
E3_LEVELS = stratified_levels([(p, 3) for p in E3_PRIMES])


def _e4(rng, p, tag, m):
    n = -_first_nonpower(p, 2) % p  # alpha^2 = n
    u = m * m * n % p  # roots +-m*alpha; the radicand has no root in GF(p)
    if tag == "2.2.1":
        A = rng.randrange(1, p)
        B = pow(u * A, p - 2, p)  # u = 1/(A B)
        return (A, B, 0, 0)
    while True:  # 2.1.1: u = b lam^2 / (a s^2) with s = a + b lam^2
        s, lam = rng.randrange(1, p), rng.randrange(1, p)
        den = (1 + u * s * s) % p
        if den:
            break
    a = s * pow(den, p - 2, p) % p
    b = (s - a) * pow(lam * lam, p - 2, p) % p
    return (a, b, lam * a % p, lam * b % p)


def _e3(rng, p, m, j):
    n = -_first_nonpower(p, 3) % p  # alpha^3 = n
    u = m**3 * n**j % p  # roots m*alpha^j times the cube roots of unity
    c = rng.randrange(1, p)
    b = pow(u * c * c, p - 2, p)  # u = 1/(b c^2)
    return (0, b, c, 0)


def generate(seed):
    """JSON-ready op list for one pass."""
    rng = random.Random(seed)
    ops = []
    e4_primes = [next_prime(round(t * (1 + rng.uniform(-JITTER, JITTER)))) for t in E4_TARGETS]
    for i, (p, u) in enumerate(zip(e4_primes, E4_LEVELS)):
        dist = root_positions(p, 2)
        index, m, _ = dist[int(u * len(dist))]
        tag = E4_TAGS[i % len(E4_TAGS)]
        ops.append({"kind": "e4", "tag": tag, "p": p, "k": 2, "abcd": _e4(rng, p, tag, m), "root_index": index})
    for p, u in zip(E3_PRIMES, E3_LEVELS):
        dist = root_positions(p, 3)
        index, m, j = dist[int(u * len(dist))]
        ops.append({"kind": "e3", "tag": "1.4", "p": p, "k": 3, "abcd": _e3(rng, p, m, j), "root_index": index})
    for p, k in DESCRIPTORS:
        ops.append({"kind": "descriptor", "p": p, "k": k})
    for t in BIG_P_TARGETS:
        p = next_prime(int(t * (1 + rng.uniform(-JITTER, JITTER))))
        while True:
            a, b, c, d = (rng.randrange(1, p) for _ in range(4))
            if (a * d - b * c) % p:
                break
        ops.append({"kind": "bigp", "tag": "1.1", "p": p, "abcd": (a, b, c, d)})
    rng.shuffle(ops)
    return ops


def scan_share_of_mean(ops):
    """Summed first-root index of the E4 and of the E3 ops, as a share of its
    mean under uniformly random radicands."""
    out = {}
    for kind in ("e4", "e3"):
        sel = [op for op in ops if op["kind"] == kind]
        mean = sum(_mean_index(root_positions(op["p"], op["k"])) for op in sel)
        out[kind] = sum(op["root_index"] for op in sel) / mean
    return out


def run_op(ev, op):
    kind = op["kind"]
    if kind == "descriptor":
        return ev.field_make({"kind": "GF", "p": op["p"], "k": op["k"]})
    F = ev.field_make({"kind": "GF", "p": op["p"], "k": 1})
    return ev.classify(ev.EvolutionMsc(F, tuple(op["abcd"])))


def check(ev, op, out, expected):
    kind = op["kind"]
    if kind == "descriptor":
        want = expected["moduli"][f"{op['p']}^{op['k']}"]
        return None if list(out.modulus) == want else f"modulus {list(out.modulus)} != recorded {want}"
    F = ev.field_make({"kind": "GF", "p": op["p"], "k": 1})
    E = ev.EvolutionMsc(F, tuple(op["abcd"]))
    if out.trace[0] != op["tag"]:
        return f"trace {out.trace} for an input generated as {op['tag']}"
    want = None if kind == "bigp" else expected["moduli"][f"{op['p']}^{op['k']}"]
    if kind != "bigp" and out.witness_field.k != op["k"]:
        return f"witness field degree {out.witness_field.k}, expected {op['k']}"
    return checks.check_field_witness(ev, E, out, want)
