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
from typing import NamedTuple

from .fields import (
    GF,
    Fel,
    FieldCtx,
    FieldTooLarge,
    MixedFields,
    NeedsExtension,
    Poly,
    _root_raw,
    embed,
)
from .msc import BasisChange, EvolutionMsc, Mat2, transform_evolution_raw

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
            if field.prod_eq(ps[0].raw, ps[1].raw, field.one, field.one):
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


class ClassificationResult(NamedTuple):
    key: CanonicalKey
    witness: BasisChange | None
    witness_field: FieldCtx
    needs_extension: Poly | None
    trace: tuple[str, ...]
    lam: Fel | None  # proportionality factor of the degenerate two-row case


def _root_witness(f: FieldCtx, raw_coeffs, witness: bool):
    """`_root_raw` for a witness: (field2, raw root, embedding, None), or
    (f, None, None, the polynomial when Q holds no root, None without a witness)."""
    if not witness:
        return f, None, None, None
    K, r, emb = _root_raw(f, raw_coeffs)
    return K, r, emb, None if r is not None else Poly(f, raw_coeffs)


def _classify_raw(f: FieldCtx, abcd, witness: bool = True):
    """The decision tree of `classify` on raw entries: (label, raw params,
    raw g^-1 entries over the witness field or None, witness field,
    missing-root Poly or None, trace, raw lambda or None). Each case states
    its g^-1 in closed form; the E2(0) cases reach [[1,0,0,0],[0,0,0,0]] and
    then take the basis f1 = e1 + e2, f2 = -e2: g^-1 times ((1, 0), (1, -1)).
    Cases 1.3 and 2.1.1 with a = 0 are 1.2 and 2.1.1 with b = 0 after swapping
    e1 and e2, (a, b, c, d) -> (d, c, b, a): they take that case's g^-1 with
    its rows swapped, as case 2.3 does 2.2's. witness=False skips the three
    root steps (g^-1 None). Raw 0 is falsy."""
    a, b, c, d = abcd
    zero, one = f.zero, f.one
    mul, sqr, div, inv, neg = f.mul, f.sqr, f.div, f.inv, f.neg

    if not (a or b or c or d):
        return "E0", (), ((one, zero), (zero, one)), f, None, ("zero",), None

    if not f.prod_eq(a, d, b, c):
        if a and d:
            # case 1.1 -> E1{ab/d^2, cd/a^2}, g^-1 = diag(1/a, 1/d); putting the
            # pair in CanonicalKey's (stable) order swaps the columns of g^-1
            b2, c2 = div(mul(a, b), sqr(d)), div(mul(c, d), sqr(a))
            if f.sort_key(c2) < f.sort_key(b2):
                return "E1", (c2, b2), ((zero, inv(a)), (inv(d), zero)), f, None, ("1.1",), None
            return "E1", (b2, c2), ((inv(a), zero), (zero, inv(d))), f, None, ("1.1",), None
        if a or d:
            # case 1.2 (d = 0, so b, c != 0) -> E2(bc^2/a^3), g^-1 = diag(1/a, c/a^2);
            # case 1.3 (a = 0) is 1.2 on (A, B, C) = (d, c, b), rows swapped back
            A, B, C = (a, b, c) if a else (d, c, b)
            A2 = sqr(A)
            ginv = ((inv(A), zero), (zero, div(C, A2)))
            params = (div(mul(B, sqr(C)), mul(A, A2)),)
            return "E2", params, ginv if a else (ginv[1], ginv[0]), f, None, ("1.2" if a else "1.3",), None
        # case 1.4 (a = d = 0, b, c != 0) -> E3, g^-1 = diag(xi, c xi^2) with xi^3 = 1/(bc^2)
        K, xi, emb, needs = _root_witness(f, (neg(inv(mul(b, sqr(c)))), zero, zero, one), witness)
        ginv = None if xi is None else ((xi, zero), (zero, K.mul(emb.raw(c), K.sqr(xi))))
        return "E3", (), ginv, K, needs, ("1.4",), None

    # det == 0, not the zero algebra
    row1_zero = not (a or b)
    if row1_zero or not (c or d):
        # one nonzero row (A, B); a leading swap reduces the row-1-zero case
        A, B = (d, c) if row1_zero else (a, b)
        K, needs = f, None
        if A and B:
            # case 2.2.1 -> E4, g^-1 = diag(1/A, eta) with eta^2 = 1/(AB)
            label, params, tag = "E4", (), "2.2.1"
            K, eta, emb, needs = _root_witness(f, (neg(inv(mul(A, B))), zero, one), witness)
            ginv = None if eta is None else ((emb.raw(inv(A)), zero), (zero, eta))
        elif A:
            # case 2.2.1 with B = 0 -> E2(0): diag(1/A, 1), then the fix-up
            label, params, tag = "E2", (zero,), "2.2.1"
            ginv = ((inv(A), zero), (one, neg(one)))
        else:
            # case 2.2.2 (A = 0, B != 0) -> E6, g^-1 = diag(B, 1)
            label, params, tag = "E6", (), "2.2.2"
            ginv = ((B, zero), (zero, one))
        if row1_zero:  # case 2.3: the same change with the rows of g^-1 swapped
            return label, params, ginv and (ginv[1], ginv[0]), K, needs, ("2.3", tag), None
        return label, params, ginv, K, needs, (tag,), None

    # both rows nonzero and proportional: (c,d) = lam * (a,b)
    lam = div(c, a) if a else div(d, b)
    if a and b:
        if f.prod_eq(a, sqr(a), neg(b), sqr(c)):  # s = a + b lam^2 = (a^3 + bc^2)/a^2 = 0
            # case 2.1.2 -> E5, rational witness diag(1/a, 1/(b*lam))
            return "E5", (), ((inv(a), zero), (zero, inv(mul(b, lam)))), f, None, ("2.1.2",), lam
        # case 2.1.1 -> E4, g^-1 = ((1/s, eta), (lam/s, -a eta/(b lam))) with
        # eta^2 = b*lam^2 / (a*s^2)
        bl2 = mul(b, sqr(lam))
        s = f.add(a, bl2)
        K, eta, emb, needs = _root_witness(f, (neg(div(bl2, mul(a, sqr(s)))), zero, one), witness)
        e2 = None if eta is None else K.mul(emb.raw(neg(div(a, mul(b, lam)))), eta)
        ginv = None if eta is None else ((emb.raw(inv(s)), eta), (emb.raw(div(lam, s)), e2))
        return "E4", (), ginv, K, needs, ("2.1.1",), lam

    # exactly one of a, b is zero -> E2(0): if b = 0, ((1/a, 0), (c/a^2, 1)) reaches
    # [[1,0,0,0],[0,0,0,0]], then the fix-up; a = 0 is that on (A, C) = (d, b), rows swapped back
    A, C = (a, c) if a else (d, b)
    ginv = ((inv(A), zero), (f.add(div(C, sqr(A)), one), neg(one)))
    return "E2", (zero,), ginv if a else (ginv[1], ginv[0]), f, None, ("2.1.1",), lam


def classify(E: EvolutionMsc, witness: bool = True) -> ClassificationResult:
    """Canonical key of an evolution algebra, with a basis change onto the
    canonical representative.

    The key is computed with rational operations only and always succeeds.
    The witness may need a square or cube root: finite fields extend
    automatically (witness_field records where the witness lives), while over
    Q a missing root leaves witness = None and sets needs_extension to the
    exact polynomial. With witness=False no root is sought; both stay None.
    """
    f = E.field
    label, params, ginv, K, needs, trace, lam = _classify_raw(f, E.abcd, witness)
    key = CanonicalKey(f, label, tuple(Fel(f, p) for p in params))
    change = None if ginv is None else BasisChange(Mat2(K, ginv))
    return ClassificationResult(key, change, K, needs, trace, None if lam is None else Fel(f, lam))


def _common_field(f1: FieldCtx, f2: FieldCtx) -> FieldCtx:
    """Smallest field containing both witness fields."""
    if f1 is f2:
        return f1
    k = math.lcm(f1.k, f2.k)
    return f1 if f1.k == k else (f2 if f2.k == k else GF(f1.char, k))


def iso_test(E: EvolutionMsc, F: EvolutionMsc) -> BasisChange | None:
    """An explicit basis change carrying E onto F (possibly over a common
    extension field), or None when their keys differ.

    E's image under the composite, from the closed form of the action on
    evolution algebras, must equal F, or AssertionError is raised. Over Q,
    raises NeedsExtension when a required witness root is irrational.
    """
    if E.field is not F.field:
        raise MixedFields("both algebras must share the base field")
    try:
        re, rf = classify(E), classify(F)
    except FieldTooLarge:  # a witness field past the size budget: the keys may still differ
        if not same_key(classify(E, False).key, classify(F, False).key):
            return None
        raise
    if not same_key(re.key, rf.key):
        return None
    for r in (re, rf):
        if r.needs_extension is not None:
            raise NeedsExtension(r.needs_extension)
    common = _common_field(re.witness_field, rf.witness_field)
    up = lambda A: A.over(embed(A.field, common))
    # E's witness, then the inverse of F's, over the common field
    composite = BasisChange(up(re.witness.ginv).mul(up(rf.witness.g)))
    abcd = tuple(map(embed(E.field, common).raw, E.abcd))
    a1, a2, a4, b1, b2, b4 = transform_evolution_raw(common, abcd, composite.ginv.e)
    if ((a1, a2, a2, a4), (b1, b2, b2, b4)) != up(F).rows:
        raise AssertionError("witness composition failed")
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
        if field.prod_eq(a.raw, b.raw, field.one, field.one):
            raise InvalidParams("E5 parameters must satisfy ab != 1")
        return CanonicalKey(field, "E1", (a, b))
    c = ps[0]
    if c.is_zero:
        return CanonicalKey(field, "E3")  # the member missing from that list
    inv_c3 = field.inv(field.mul(c.raw, field.mul(c.raw, c.raw)))
    return CanonicalKey(field, "E2", (Fel(field, inv_c3),))
