"""Canonical forms of 2-dimensional evolution algebras.

Every evolution algebra over an exact field is assigned one of the labels

    E0                      zero algebra
    E1{b', c'}  b'c' != 1   [[1,0,0,b'],[c',0,0,1]]   (unordered pair)
    E2(b')                  [[1,0,0,b'],[1,0,0,0]]
    E3                      [[0,0,0,1],[1,0,0,0]]
    E4                      [[1,0,0,1],[0,0,0,0]]
    E5                      [[1,0,0,-1],[-1,0,0,1]]
    E6                      [[0,0,0,1],[0,0,0,0]]

together with an explicit basis change onto the canonical representative.
Keys and parameters come from rational formulas in the entries alone; only
the witness may require adjoining a square or cube root. Finite fields are
extended automatically; over Q a missing root is reported as a first-class
`needs_extension` result instead of an error.

The `trace` of a result records the decision path with the stable tags
1.1, 1.2, 1.3, 1.4, 2.1.1, 2.1.2, 2.2.1, 2.2.2, 2.3 and "zero".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import (
    GF,
    Fel,
    FieldCtx,
    MixedFields,
    NeedsExtension,
    Poly,
    embed,
    find_root,
)
from .msc import BasisChange, EvolutionMsc, Mat2, transform

LABELS = ("E0", "E1", "E2", "E3", "E4", "E5", "E6")

_PARAM_COUNT = {"E0": 0, "E1": 2, "E2": 1, "E3": 0, "E4": 0, "E5": 0, "E6": 0}


class InvalidParams(ValueError):
    """Canonical-key parameters violate the family constraints."""


class UnsupportedKey(ValueError):
    """The request is not defined for this label (the zero algebra, mostly)."""


class CanonicalKey:
    """Classification label with its parameters.

    The E1 pair is unordered; it is stored sorted in the canonical element
    order so that equal keys have equal encodings.
    """

    __slots__ = ("field", "label", "params")

    def __init__(self, field: FieldCtx, label: str, params=()):
        if label not in LABELS:
            raise InvalidParams(f"unknown label {label!r}")
        ps = tuple(Fel(field, field.coerce(p)) for p in params)
        if len(ps) != _PARAM_COUNT[label]:
            raise InvalidParams(
                f"{label} takes {_PARAM_COUNT[label]} parameter(s), got {len(ps)}"
            )
        if label == "E1":
            if (ps[0] * ps[1]).raw == field.one:
                raise InvalidParams("E1 pair must satisfy b'c' != 1")
            ps = tuple(sorted(ps, key=lambda e: e.sort_key()))
        self.field = field
        self.label = label
        self.params = ps

    def __eq__(self, other):
        return (
            isinstance(other, CanonicalKey)
            and other.field is self.field
            and other.label == self.label
            and other.params == self.params
        )

    def __hash__(self):
        return hash((id(self.field), self.label, self.params))

    def sort_key(self):
        return (self.label, tuple(p.sort_key() for p in self.params))

    def __repr__(self):
        if self.params:
            inner = ", ".join(str(p) for p in self.params)
            return f"{self.label}({inner})"
        return self.label


def same_key(k1: CanonicalKey, k2: CanonicalKey) -> bool:
    """Label and parameter equality; the E1 pair compares unordered."""
    if k1.field is not k2.field:
        raise MixedFields("keys over different fields")
    return k1 == k2


def canonical_msc(key: CanonicalKey) -> EvolutionMsc:
    """The canonical representative algebra of a key."""
    f = key.field
    one, zero = f.one, f.zero
    if key.label == "E0":
        return EvolutionMsc(f, (zero, zero, zero, zero))
    if key.label == "E1":
        s1, s2 = key.params
        return EvolutionMsc(f, (one, s1.raw, s2.raw, one))
    if key.label == "E2":
        return EvolutionMsc(f, (one, key.params[0].raw, one, zero))
    if key.label == "E3":
        return EvolutionMsc(f, (zero, one, one, zero))
    if key.label == "E4":
        return EvolutionMsc(f, (one, one, zero, zero))
    if key.label == "E5":
        m1 = f.neg(one)
        return EvolutionMsc(f, (one, m1, m1, one))
    return EvolutionMsc(f, (zero, one, zero, zero))  # E6


@dataclass(frozen=True)
class ClassificationResult:
    key: CanonicalKey
    witness: BasisChange | None
    witness_field: FieldCtx
    needs_extension: Poly | None
    trace: tuple[str, ...]
    lam: Fel | None  # proportionality factor of the degenerate two-row case


# basis change carrying [[1,0,0,0],[0,0,0,0]] onto the E2(0) representative:
# new basis f1 = e1 + e2, f2 = -e2
_FIX_TO_E20 = ((1, 0), (1, -1))


def _diag(f: FieldCtx, x, y) -> Mat2:
    return Mat2(f, ((x, f.zero), (f.zero, y)))


def _rowswap(m: Mat2) -> Mat2:
    return Mat2(m.field, (m.e[1], m.e[0]))


def _root_witness(f: FieldCtx, raw_coeffs):
    """find_root wrapper on raw coefficients: (field2, root_raw, embedding)
    or the polynomial that would be needed over Q."""
    poly = Poly(f, tuple(Fel(f, c) for c in raw_coeffs))
    try:
        k, root, emb = find_root(f, poly)
    except NeedsExtension:
        return None, None, None, poly
    return k, root.raw, emb, None


def classify(E: EvolutionMsc) -> ClassificationResult:
    """Canonical key of an evolution algebra, with a basis change onto the
    canonical representative.

    The key is computed with rational operations only and always succeeds.
    The witness may need a square or cube root: finite fields extend
    automatically (witness_field records where the witness lives), while over
    Q a missing root leaves witness = None and sets needs_extension to the
    exact polynomial.
    """
    f = E.field
    a, b, c, d = E.abcd
    zero, one = f.zero, f.one
    mul, sub, div, neg = f.mul, f.sub, f.div, f.neg

    witness: BasisChange | None
    needs: Poly | None = None
    wfield: FieldCtx = f
    lam_raw = None

    if a == zero and b == zero and c == zero and d == zero:
        key = CanonicalKey(f, "E0")
        return ClassificationResult(
            key, BasisChange.identity(f), f, None, ("zero",), None
        )

    det = sub(mul(a, d), mul(b, c))
    if det != zero:
        if a != zero and d != zero:
            # case 1.1 -> E1{ab/d^2, cd/a^2}
            b2 = div(mul(a, b), mul(d, d))
            c2 = div(mul(c, d), mul(a, a))
            key = CanonicalKey(f, "E1", (Fel(f, b2), Fel(f, c2)))
            ginv = _diag(f, f.inv(a), f.inv(d))
            if key.params[0].raw != b2:
                ginv = ginv.mul(Mat2.swap(f))  # land on the sorted pair order
            return ClassificationResult(
                key, BasisChange(ginv), f, None, ("1.1",), None
            )
        if a != zero:
            # case 1.2 (d = 0, so b, c != 0) -> E2(bc^2/a^3)
            key = CanonicalKey(f, "E2", (Fel(f, div(mul(b, mul(c, c)), mul(a, mul(a, a)))),))
            ginv = _diag(f, f.inv(a), div(c, mul(a, a)))
            return ClassificationResult(
                key, BasisChange(ginv), f, None, ("1.2",), None
            )
        if d != zero:
            # case 1.3 (a = 0, so b, c != 0): swap the basis, then as in 1.2
            key = CanonicalKey(f, "E2", (Fel(f, div(mul(c, mul(b, b)), mul(d, mul(d, d)))),))
            ginv = _rowswap(_diag(f, f.inv(d), div(b, mul(d, d))))
            return ClassificationResult(
                key, BasisChange(ginv), f, None, ("1.3",), None
            )
        # case 1.4 (a = d = 0, b, c != 0) -> E3; xi1^3 = 1/(bc^2)
        key = CanonicalKey(f, "E3")
        u = f.inv(mul(b, mul(c, c)))
        k, xi1, emb, needs = _root_witness(f, (neg(u), zero, zero, one))
        if needs is None:
            eta2 = k.mul(emb.raw(c), k.mul(xi1, xi1))
            witness = BasisChange(_diag(k, xi1, eta2))
            wfield = k
        else:
            witness = None
        return ClassificationResult(key, witness, wfield, needs, ("1.4",), None)

    # det == 0, not the zero algebra
    row1_zero = a == zero and b == zero
    row2_zero = c == zero and d == zero
    if row1_zero or row2_zero:
        # one nonzero row (A, B); a leading swap reduces the row-1-zero case
        A, B = (d, c) if row1_zero else (a, b)
        if A != zero and B != zero:
            # case 2.2.1 -> E4; eta2^2 = 1/(AB)
            key = CanonicalKey(f, "E4")
            tag = "2.2.1"
            u = f.inv(mul(A, B))
            k, eta2, emb, needs = _root_witness(f, (neg(u), zero, one))
            ginv0 = (
                None if needs is not None else _diag(k, emb.raw(f.inv(A)), eta2)
            )
        elif A != zero:
            # case 2.2.1 with B = 0 -> E2(0), composed with the unit fixup
            key = CanonicalKey(f, "E2", (Fel(f, zero),))
            tag = "2.2.1"
            k = f
            ginv0 = _diag(f, f.inv(A), one).mul(Mat2.of(f, _FIX_TO_E20))
        else:
            # case 2.2.2 (A = 0, B != 0) -> E6
            key = CanonicalKey(f, "E6")
            tag = "2.2.2"
            k = f
            ginv0 = _diag(f, B, one)
        if needs is not None:
            witness = None
        else:
            witness = BasisChange(_rowswap(ginv0) if row1_zero else ginv0)
            wfield = k
        trace = ("2.3", tag) if row1_zero else (tag,)
        return ClassificationResult(key, witness, wfield, needs, trace, None)

    # both rows nonzero and proportional: (c,d) = lam * (a,b)
    lam_raw = div(c, a) if a != zero else div(d, b)
    lam = Fel(f, lam_raw)
    if a != zero and b != zero:
        s = f.add(a, mul(b, mul(lam_raw, lam_raw)))
        if s == zero:
            # case 2.1.2 -> E5, rational witness diag(1/a, 1/(b*lam))
            key = CanonicalKey(f, "E5")
            ginv = _diag(f, f.inv(a), f.inv(mul(b, lam_raw)))
            return ClassificationResult(
                key, BasisChange(ginv), f, None, ("2.1.2",), lam
            )
        # case 2.1.1 -> E4; eta1^2 = b*lam^2 / (a*s^2)
        key = CanonicalKey(f, "E4")
        u = div(mul(b, mul(lam_raw, lam_raw)), mul(a, mul(s, s)))
        k, eta1, emb, needs = _root_witness(f, (neg(u), zero, one))
        if needs is not None:
            witness = None
        else:
            xi1 = emb.raw(f.inv(s))
            xi2 = emb.raw(div(lam_raw, s))
            eta2 = k.mul(emb.raw(neg(div(a, mul(b, lam_raw)))), eta1)
            witness = BasisChange(Mat2(k, ((xi1, eta1), (xi2, eta2))))
            wfield = k
        return ClassificationResult(key, witness, wfield, needs, ("2.1.1",), lam)

    # exactly one of a, b is zero -> E2(0) through [[1,0,0,0],[0,0,0,0]]
    key = CanonicalKey(f, "E2", (Fel(f, zero),))
    if b == zero:
        # lam = c/a != 0
        ginv1 = Mat2(f, ((f.inv(a), zero), (div(lam_raw, a), one)))
    else:
        # a = 0, lam = d/b != 0
        bl2 = mul(b, mul(lam_raw, lam_raw))
        ginv1 = Mat2(f, ((f.inv(bl2), one), (f.inv(mul(b, lam_raw)), zero)))
    ginv = ginv1.mul(Mat2.of(f, _FIX_TO_E20))
    return ClassificationResult(key, BasisChange(ginv), f, None, ("2.1.1",), lam)


def _common_field(f1: FieldCtx, f2: FieldCtx) -> FieldCtx:
    """Smallest field containing both witness fields."""
    if f1 is f2:
        return f1
    k = math.lcm(f1.k, f2.k)
    return f1 if f1.k == k else (f2 if f2.k == k else GF(f1.char, k))


def iso_test(E: EvolutionMsc, F: EvolutionMsc) -> BasisChange | None:
    """An explicit basis change carrying E onto F (possibly over a common
    extension field), or None when their keys differ.

    Over Q, raises NeedsExtension when a required witness root is irrational.
    """
    if E.field is not F.field:
        raise MixedFields("both algebras must share the base field")
    re = classify(E)
    rf = classify(F)
    if not same_key(re.key, rf.key):
        return None
    for r in (re, rf):
        if r.needs_extension is not None:
            raise NeedsExtension(r.needs_extension)
    common = _common_field(re.witness_field, rf.witness_field)
    up = lambda A: A.over(embed(A.field, common))
    # E's witness, then the inverse of F's, over the common field
    composite = BasisChange(up(re.witness.ginv).mul(up(rf.witness.g)))
    assert transform(up(E), composite) == up(F), "witness composition failed"
    return composite


def t2_to_t1(field: FieldCtx, label: str, params=()) -> CanonicalKey:
    """Translate the labels of the six-family presentation used in earlier
    complex classifications into this artifact's canonical keys.

    Accepted labels: E1, E2, E3, E4, E5 (two parameters, product != 1),
    E6 (one parameter); the suffixed spellings E5ab and E6c work too.
    """
    norm = label.strip()
    if norm in ("E5ab", "E5_ab"):
        norm = "E5"
    if norm in ("E6c", "E6_c"):
        norm = "E6"
    ps = tuple(Fel(field, field.coerce(p)) for p in params)
    fixed = {"E1": 0, "E2": 0, "E3": 0, "E4": 0, "E5": 2, "E6": 1}
    if norm not in fixed:
        raise InvalidParams(f"unknown label {label!r}")
    if len(ps) != fixed[norm]:
        raise InvalidParams(f"{norm} takes {fixed[norm]} parameter(s), got {len(ps)}")
    if norm == "E1":
        return CanonicalKey(field, "E2", (Fel(field, field.zero),))
    if norm == "E2":
        return CanonicalKey(field, "E4")
    if norm == "E3":
        return CanonicalKey(field, "E5")
    if norm == "E4":
        return CanonicalKey(field, "E6")
    if norm == "E5":
        a, b = ps
        if (a * b).raw == field.one:
            raise InvalidParams("E5 parameters must satisfy ab != 1")
        return CanonicalKey(field, "E1", (a, b))
    c = ps[0]
    if c.is_zero:
        return CanonicalKey(field, "E3")  # the member missing from that list
    inv_c3 = field.inv(field.mul(c.raw, field.mul(c.raw, c.raw)))
    return CanonicalKey(field, "E2", (Fel(field, inv_c3),))
