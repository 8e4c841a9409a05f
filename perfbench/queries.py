"""`queries` workload: a seeded stream of everyday library calls.

Ops are stratified rather than drawn independently, so every seed gets the
same mix: per round, each op kind (classify twice, der_solve, aut, iso_test)
meets each field slot (Q seven times, each finite field once) and each of the
ten trace tags once. Within a cell the entries are random. Over finite fields
the cells that need a square or cube root alternate between radicands that
have a root in the base field and radicands that need an extension; over Q,
half of the 1.4 inputs have b = c, whose cube root is rational.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks
from spans import TAGS

FIELDS = (
    ("Q", {"kind": "Q"}),
    ("GF5", {"kind": "GF", "p": 5, "k": 1}),
    ("GF7", {"kind": "GF", "p": 7, "k": 1}),
    ("GF13", {"kind": "GF", "p": 13, "k": 1}),
    ("GF4", {"kind": "GF", "p": 2, "k": 2}),
    ("GF8", {"kind": "GF", "p": 2, "k": 3}),
    ("GF9", {"kind": "GF", "p": 3, "k": 2}),
    ("GF25", {"kind": "GF", "p": 5, "k": 2}),
)
FIELD_SLOTS = ("Q",) * 7 + tuple(name for name, _ in FIELDS[1:])
KINDS = ("classify", "classify", "der", "aut", "iso")
ROUNDS = 4
Q_MAX_DIGITS = 400  # entry heights log-uniform up to 10^400
ISO_SCALE_DIGITS = 20
ROOT_DEGREE = {"1.4": 3, "2.2.1": 2, "2.3": 2, "2.1.1": 2}


class _Gen:
    def __init__(self, rng, F):
        self.rng, self.F = rng, F
        self.cycle: dict = {}  # (root degree, has root) -> radicands used

    def nz(self):
        F, rng = self.F, self.rng
        if F.order is not None:
            return rng.randrange(1, F.order)
        return self.rational(Q_MAX_DIGITS)

    def rational(self, max_digits):
        rng = self.rng

        def height():
            k = rng.randint(1, max_digits)
            return rng.randrange(10 ** (k - 1), 10**k)

        return Fraction(rng.choice((1, -1)) * height(), height())

    def any(self):
        return 0 if self.rng.random() < 0.25 else self.nz()

    def is_power(self, u, n):
        F = self.F
        q = F.order
        return (q - 1) % n != 0 or F.pow_raw(u, (q - 1) // n) == F.one

    def with_radicand(self, tag, u):
        """Entries of the given shape whose witness needs a root of x^n = u."""
        F, nz = self.F, self.nz
        z = F.zero
        if tag == "1.4":  # u = 1/(b c^2)
            c = nz()
            return (z, F.inv(F.mul(u, F.mul(c, c))), c, z)
        if tag in ("2.2.1", "2.3"):  # u = 1/(A B)
            A = nz()
            B = F.inv(F.mul(u, A))
            return (A, B, z, z) if tag == "2.2.1" else (z, z, B, A)
        while True:  # 2.1.1: u = b lam^2 / (a s^2), s = a + b lam^2
            s, lam = nz(), nz()
            den = F.add(F.one, F.mul(u, F.mul(s, s)))
            if den != z:
                break
        a = F.div(s, den)
        b = F.div(F.sub(s, a), F.mul(lam, lam))
        return (a, b, F.mul(lam, a), F.mul(lam, b))

    def shape(self, tag, cube_b_eq_c=False):
        F, nz = self.F, self.nz
        z = F.zero
        while True:
            if tag == "zero":
                return (z, z, z, z)
            if tag == "1.1":
                a, b, c, d = nz(), self.any(), self.any(), nz()
                if F.sub(F.mul(a, d), F.mul(b, c)) != z:
                    return (a, b, c, d)
                continue
            if tag == "1.2":
                return (nz(), nz(), nz(), z)
            if tag == "1.3":
                return (z, nz(), nz(), nz())
            if tag == "1.4":
                b = nz()
                return (z, b, b if cube_b_eq_c else nz(), z)
            if tag == "2.2.1":
                return (nz(), nz(), z, z)
            if tag == "2.2.2":
                return (z, nz(), z, z)
            if tag == "2.3":
                return (z, z, nz(), nz())
            a, lam = nz(), nz()
            if tag == "2.1.2":
                b = F.neg(F.div(a, F.mul(lam, lam)))
                return (a, b, F.mul(lam, a), F.mul(lam, b))
            b = nz()  # 2.1.1
            if F.add(a, F.mul(b, F.mul(lam, lam))) != z:
                return (a, b, F.mul(lam, a), F.mul(lam, b))

    def algebra(self, tag, cell_index):
        """Entries for one op; cell_index alternates the root status. Over a
        finite field the radicand comes from a fixed cycle through the
        elements with that status, so the root search costs the same for
        every seed; the seed only varies the entries around it."""
        F = self.F
        if F.order is None:
            return self.shape(tag, cube_b_eq_c=(tag == "1.4" and cell_index % 2 == 0))
        n = ROOT_DEGREE.get(tag)
        if n is None:
            return self.shape(tag)
        want_root = cell_index % 2 == 0
        pool = [u for u in range(1, F.order) if self.is_power(u, n) == want_root]
        if not pool:  # every element is an n-th power
            return self.shape(tag)
        k = self.cycle.get((n, want_root), 0)
        self.cycle[(n, want_root)] = k + 1
        return self.with_radicand(tag, pool[k % len(pool)])

    def partner(self, abcd, tag, cell_index):
        """Second algebra of an iso op: a monomial change of basis of the
        first (isomorphic), or a fresh algebra of the same shape."""
        F = self.F
        if cell_index % 2:
            return self.algebra(tag, cell_index // 2)
        x = self.rational(ISO_SCALE_DIGITS) if F.order is None else self.nz()
        y = self.rational(ISO_SCALE_DIGITS) if F.order is None else self.nz()
        a, b, c, d = abcd
        # entries in the basis (x e1, y e2), with e1*e1 = a e1 + c e2 and
        # e2*e2 = b e1 + d e2
        out = (
            F.mul(a, x),
            F.div(F.mul(b, F.mul(y, y)), x),
            F.div(F.mul(c, F.mul(x, x)), y),
            F.mul(d, y),
        )
        if self.rng.random() < 0.5:
            out = out[::-1]  # swap e1 and e2
        return out


def generate(ev, seed):
    """The op list: dicts with kind, field name, tag and entries."""
    rng = random.Random(seed)
    fields = {name: ev.field_make(desc) for name, desc in FIELDS}
    gens = {name: _Gen(rng, F) for name, F in fields.items()}
    counters: dict = {}
    ops = []
    for _ in range(ROUNDS):
        for kind in KINDS:
            for fname in FIELD_SLOTS:
                for tag in TAGS:
                    gen = gens[fname]
                    cell = (kind, fname, tag)
                    i = counters.get(cell, 0)
                    counters[cell] = i + 1
                    abcd = gen.algebra(tag, i)
                    op = {"kind": kind, "field": fname, "tag": tag, "abcd": abcd}
                    if kind == "iso":
                        op["abcd2"] = gen.partner(abcd, tag, i)
                    ops.append(op)
    rng.shuffle(ops)
    for op in ops:
        F = fields[op["field"]]
        op["E"] = ev.EvolutionMsc(F, op["abcd"])
        if "abcd2" in op:
            op["E2"] = ev.EvolutionMsc(F, op["abcd2"])
    return ops


def run_op(ev, op):
    kind, E = op["kind"], op["E"]
    if kind == "classify":
        return ev.classify(E)
    if kind == "der":
        return ev.der_solve(E)
    if kind == "aut":
        key = ev.classify(E).key
        try:
            desc = ev.aut_closed_form(key, E.field)
        except ev.UnsupportedKey:
            return key, None, None  # E0: documented refusal
        elements = ev.aut_instantiate(desc, E.field) if E.field.order is not None else None
        return key, desc, elements
    try:
        return ev.iso_test(E, op["E2"])
    except ev.NeedsExtension:
        return "NeedsExtension"


def summary(op, out):
    """A comparable digest of an op's output, for later passes."""
    kind = op["kind"]
    if kind == "classify":
        return (out.key, out.witness, out.needs_extension, out.trace, out.lam)
    if kind == "aut":
        key, desc, elements = out
        return (key, None if desc is None else desc.finite_elements,
                None if elements is None else tuple(elements))
    return out


def check(ev, op, out):
    kind, E = op["kind"], op["E"]
    if kind == "classify":
        return checks.check_classify(ev, E, op["tag"], out)
    if kind == "der":
        return checks.check_der(ev, E, op["tag"], out)
    if kind == "aut":
        return checks.check_aut(ev, E, out)
    return checks.check_iso(ev, E, op["E2"], out)


def known_defect(op, out, reason) -> bool:
    """Failures of the open Q cube-root defect: the float cube root behind
    the witnesses of 1.4 inputs misses exact roots above ~10^48 and overflows
    above ~10^308. It can only miss a root, never invent one, and square roots
    are exact (math.isqrt), so nothing else is excused. Iso ops keep the tag
    of their first algebra on both sides."""
    if op["field"] != "Q" or op["tag"] != "1.4":
        return False
    if isinstance(out, Exception):
        return isinstance(out, OverflowError)
    return reason.startswith("Q-root")


def properties(ops, outs, find_root_facts) -> dict:
    """Input properties later claims may depend on."""
    tags: dict = {}
    kinds: dict = {}
    for op in ops:
        tags[op["tag"]] = tags.get(op["tag"], 0) + 1
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    digits = sorted(
        max(len(str(abs(v.numerator))), len(str(v.denominator)))
        for op in ops if op["field"] == "Q" for v in op["abcd"] if v != 0
    )
    q14 = [op for op in ops if op["field"] == "Q" and op["tag"] == "1.4"]
    cls = [(op, out) for op, out in zip(ops, outs) if op["kind"] == "classify" and hasattr(out, "trace")]
    needs_ext = sum(
        1 for op, out in cls if out.needs_extension is not None or out.witness_field is not op["E"].field
    )
    cands = sorted(f["cand"] for f in find_root_facts)

    def q(xs, p):
        return xs[min(len(xs) - 1, int(p * len(xs)))] if xs else 0

    return {
        "ops": len(ops),
        "kind_mix": kinds,
        "tag_mix": tags,
        "q_share": sum(op["field"] == "Q" for op in ops) / len(ops),
        "classify_needs_extension_share": needs_ext / max(1, len(cls)),
        "q_entry_digits_p10_p50_p90_max": [q(digits, 0.1), q(digits, 0.5), q(digits, 0.9), q(digits, 1.0)],
        "q_1.4_b_eq_c_share": sum(op["abcd"][1] == op["abcd"][2] for op in q14) / max(1, len(q14)),
        "find_root_calls": len(cands),
        "scan_candidates_p50_p90_max": [q(cands, 0.5), q(cands, 0.9), q(cands, 1.0)],
    }
