"""Automorphism groups of the canonical 2-dimensional evolution algebras.

A matrix g is an automorphism of the algebra with structure constants E when
g is invertible and gE - E(g (x) g) = 0. For each canonical label the group
has a known closed form: a finite list of matrices plus up to one parametric
family, evaluated in the field; only E5's family tests the characteristic.

The six-element group of E3 is generated by the cube roots of unity; when
x^2 + x + 1 has no root in the base field the extra elements live in its
quadratic extension, and those with an entry y != y^q drop out. In
characteristic 3 the same recipe degenerates to {identity, swap}, which the
brute-force oracle confirms.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .classify import CanonicalKey, UnsupportedKey
from .fields import Fel, FieldCtx, InfiniteField, MixedFields, NeedsExtension, Poly, find_root
from .msc import BasisChange, Mat2, Msc, transform

_ENUMERATE_MAX = 10_000  # automorphisms listed by one `aut_instantiate`


class BudgetExceeded(ValueError):
    """The requested brute-force computation is beyond desk scale."""


def aut_check(E: Msc, g: Mat2) -> bool:
    """True iff g is invertible and gE - E(g (x) g) vanishes entrywise.

    The change whose g^-1 is g carries E to g^-1 E (g (x) g), which is E
    exactly when gE = E(g (x) g)."""
    f = E.field
    if g.field is not f:
        raise MixedFields("matrix and structure constants over different fields")
    (p, q), (r, s) = g.e
    if f.sub(f.mul(p, s), f.mul(q, r)) == f.zero:
        return False
    return transform(E, BasisChange(g)) == E


class TSPoly:
    """Tiny polynomial in the parameters t and s with rational integer
    coefficients, evaluated exactly inside any field."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        cleaned = []
        for exps, c in sorted(terms.items()):
            c = Fraction(c)
            if c:
                cleaned.append((exps, c))
        self.terms = tuple(cleaned)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in self.terms:
            ms = []
            if i:
                ms.append("t" if i == 1 else f"t^{i}")
            if j:
                ms.append("s" if j == 1 else f"s^{j}")
            mono = " ".join(ms)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for piece in parts[1:]:
            out += piece if piece.startswith("-") else "+" + piece
        return out

    def __repr__(self):
        return f"TSPoly({self.render()!r})"


def _eval_terms(f: FieldCtx, terms, t, s):
    """The value at raw t, s of terms whose coefficients are raw in f."""
    acc = f.zero
    for (i, j), v in terms:
        for _ in range(i):
            v = f.mul(v, t)
        for _ in range(j):
            v = f.mul(v, s)
        acc = f.add(acc, v)
    return acc


_T = (1, 0)
_S = (0, 1)
_1 = (0, 0)


@dataclass(frozen=True)
class ParamFamily:
    """A parametric family of automorphisms: a 2x2 matrix of polynomials in t
    (and s), minus finitely many excluded parameter values."""

    field: FieldCtx
    entries: tuple  # 2x2 of TSPoly
    param_count: int  # 1 or 2
    excluded: tuple  # ((param_name, Fraction), ...) meaning param != value

    def admissible_raw(self, t, s=None) -> bool:
        for name, value in self.excluded:
            bad = self.field.coerce(value)
            if (t if name == "t" else s) == bad:
                return False
        return True

    def matrix_at(self, t: Fel, s: Fel | None = None) -> Mat2:
        f = self.field
        if t.field is not f or (s is not None and s.field is not f):
            raise MixedFields("parameters must lie in the family's field")
        if (s is None) != (self.param_count == 1):
            raise ValueError(f"family takes {self.param_count} parameter(s)")
        if not self.admissible_raw(t.raw, None if s is None else s.raw):
            raise ValueError("parameter value is excluded")
        return self.matrix_raw(self.raw_terms(), t.raw, None if s is None else s.raw)

    def raw_terms(self) -> tuple:
        """The entries' terms, their coefficients converted into the field."""
        co = self.field.coerce
        return tuple(tuple(tuple((e, co(c)) for e, c in p.terms) for p in row) for row in self.entries)

    def matrix_raw(self, terms, t, s) -> Mat2:
        """The member at raw t, s from `raw_terms()`, without `matrix_at`'s checks."""
        f = self.field
        return Mat2(f, tuple(tuple(_eval_terms(f, p, t, s) for p in row) for row in terms))

    def entries_text(self):
        return [[p.render() for p in row] for row in self.entries]

    def excluded_text(self):
        return [f"{name} != {value}" for name, value in self.excluded]


@dataclass(frozen=True)
class AutDescription:
    """Closed-form automorphism group of a canonical representative."""

    key: CanonicalKey
    base_field: FieldCtx
    element_field: FieldCtx  # quadratic extension when the cube roots of unity
    # live outside the base field (E3 only); the base field otherwise
    finite_elements: tuple  # Mat2 over element_field
    families: tuple  # ParamFamily over base_field
    missing_root: Poly | None = dc_field(default=None)


def _dedupe(mats):
    seen, out = set(), []
    for m in mats:
        if m not in seen:
            seen.add(m)
            out.append(m)
    return tuple(out)


def aut_closed_form(key: CanonicalKey, field: FieldCtx) -> AutDescription:
    """The known automorphism group description for a canonical label over
    the field."""
    if field is not key.field:
        raise MixedFields("key and field disagree")
    if key.label == "E0":
        raise UnsupportedKey("the zero algebra is all of GL(2), not described here")
    f = field
    ident = Mat2.identity(f)
    swap = Mat2.swap(f)
    elements: tuple = (ident,)
    families: tuple = ()
    element_field = f
    missing = None

    if key.label == "E1":
        s1, s2 = key.params
        elements = _dedupe((ident, swap)) if s1 == s2 else (ident,)
    elif key.label == "E2":
        if key.params[0].is_zero:
            fam = ParamFamily(
                f,
                (
                    (TSPoly({_1: 1}), TSPoly({})),
                    (TSPoly({_T: 1}), TSPoly({_1: 1, _T: -1})),
                ),
                1,
                (("t", Fraction(1)),),
            )
            families = (fam,)
            elements = ()
        else:
            elements = (ident,)
    elif key.label == "E3":
        try:
            k, omega, emb = find_root(f, Poly(f, (1, 1, 1)))
        except NeedsExtension as e:
            elements = (ident, swap)
            missing = e.poly
        else:
            roots = [k.one, omega.raw, k.mul(omega.raw, omega.raw)]
            mats = []
            for x in roots:
                mats.append(Mat2(k, ((x, k.zero), (k.zero, k.mul(x, x)))))
            for y in roots:
                mats.append(Mat2(k, ((k.zero, y), (k.mul(y, y), k.zero))))
            elements = _dedupe(mats)
            element_field = k
    elif key.label == "E4":
        elements = _dedupe((ident, Mat2(f, ((f.one, f.zero), (f.zero, f.neg(f.one))))))
    elif key.label == "E5":
        excl = () if f.char == 2 else (("t", Fraction(1, 2)),)
        fam = ParamFamily(
            f,
            (
                (TSPoly({_T: 1}), TSPoly({_1: 1, _T: -1})),
                (TSPoly({_1: 1, _T: -1}), TSPoly({_T: 1})),
            ),
            1,
            excl,
        )
        families = (fam,)
        elements = ()
    elif key.label == "E6":
        fam = ParamFamily(
            f,
            ((TSPoly({(2, 0): 1}), TSPoly({_S: 1})), (TSPoly({}), TSPoly({_T: 1}))),
            2,
            (("t", Fraction(0)),),
        )
        families = (fam,)
        elements = ()

    return AutDescription(key, f, element_field, elements, families, missing)


def _base_field_elements(desc: AutDescription) -> tuple:
    """The finite elements with entries y in the base field (y^q = y), as
    matrices over it. Those of E3 outside it hold only 0 and 1, which every
    field of characteristic p encodes alike."""
    F, K = desc.base_field, desc.element_field
    if K is F:
        return desc.finite_elements
    out = []
    for m in desc.finite_elements:
        if all(K.pow_raw(y, F.order) == y for r in m.e for y in r):
            if not all(y < F.char for r in m.e for y in r):
                raise AssertionError("entry outside the prime field")
            out.append(Mat2(F, m.e))
    return tuple(out)


def aut_order(desc: AutDescription) -> int | None:
    """Number of automorphisms with entries in the base field, without listing
    them: over GF(q), the finite elements in it plus
    (q - excluded values) * q^(param_count - 1) per family; over Q, None when
    a family is present."""
    q, inside = desc.base_field.order, len(_base_field_elements(desc))
    if q is None:
        return None if desc.families else inside
    return inside + sum((q - len(f.excluded)) * q ** (f.param_count - 1) for f in desc.families)


def aut_instantiate(desc: AutDescription, field: FieldCtx) -> list:
    """All automorphisms of the description with entries in the given finite
    field: the finite elements that lie in it plus every admissible family
    member. Duplicate-free, deterministic order. A group of more than
    `_ENUMERATE_MAX` elements is refused."""
    if field is not desc.base_field:
        raise MixedFields("instantiation field must be the description's base field")
    if field.order is None:
        raise InfiniteField("cannot enumerate over an infinite field")
    if (n := aut_order(desc)) > _ENUMERATE_MAX:
        raise BudgetExceeded(f"listing {n} automorphisms over {field} refused (more than {_ENUMERATE_MAX})")
    f = field
    out = list(_base_field_elements(desc))
    for fam in desc.families:
        terms = fam.raw_terms()
        for t in range(f.order):
            if fam.admissible_raw(t):
                ss = range(f.order) if fam.param_count == 2 else (None,)
                out.extend(fam.matrix_raw(terms, t, s) for s in ss)
    return list(_dedupe(out))
