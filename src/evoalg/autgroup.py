"""Automorphism groups of the canonical 2-dimensional evolution algebras.

A matrix g is an automorphism of the algebra with structure constants E when
g is invertible and gE - E(g (x) g) = 0. For each canonical label the group
has a known closed form: a finite list of matrices plus up to one parametric
family, with the shape depending only on whether the characteristic is 2.

The six-element group of E3 is generated by the cube roots of unity; when
x^2 + x + 1 has no root in the base field the extra elements live in its
quadratic extension and drop out of base-field instantiation. In
characteristic 3 the same recipe degenerates to {identity, swap}, which the
brute-force oracle confirms.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .classify import CanonicalKey, UnsupportedKey
from .fields import Fel, FieldCtx, InfiniteField, MixedFields, NeedsExtension, Poly, embed, find_root
from .msc import BasisChange, Mat2, Msc, transform


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

    def eval_raw(self, f: FieldCtx, t, s=None):
        acc = f.zero
        for (i, j), c in self.terms:
            v = f.coerce(c)
            for _ in range(i):
                v = f.mul(v, t)
            for _ in range(j):
                v = f.mul(v, s)
            acc = f.add(acc, v)
        return acc

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
        sr = None if s is None else s.raw
        rows = tuple(
            tuple(p.eval_raw(f, t.raw, sr) for p in row) for row in self.entries
        )
        return Mat2(f, rows)

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
    char_regime: str  # "not2" | "char2"
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
    """The known automorphism group description for a canonical label, in the
    regime of the field's characteristic."""
    if field is not key.field:
        raise MixedFields("key and field disagree")
    if key.label == "E0":
        raise UnsupportedKey("the zero algebra is all of GL(2), not described here")
    f = field
    regime = "char2" if f.char == 2 else "not2"
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
        excl = () if regime == "char2" else (("t", Fraction(1, 2)),)
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

    return AutDescription(key, f, element_field, regime, elements, families, missing)


def aut_order(desc: AutDescription) -> int | None:
    """Number of automorphisms with entries in the base field, without listing
    them: over GF(q), the finite elements whose entries satisfy y^q = y, plus
    (q - excluded values) * q^(param_count - 1) per family; over Q, None when
    a family is present."""
    q, K = desc.base_field.order, desc.element_field
    if q is None:
        return None if desc.families else len(desc.finite_elements)
    inside = sum(all(K.pow_raw(y, q) == y for r in m.e for y in r) for m in desc.finite_elements)
    return inside + sum((q - len(f.excluded)) * q ** (f.param_count - 1) for f in desc.families)


def aut_instantiate(desc: AutDescription, field: FieldCtx) -> list:
    """All automorphisms of the description with entries in the given finite
    field: the finite elements that lie in it plus every admissible family
    member. Duplicate-free, deterministic order."""
    if field is not desc.base_field:
        raise MixedFields("instantiation field must be the description's base field")
    if field.order is None:
        raise InfiniteField("cannot enumerate over an infinite field")
    f = field
    out = []
    if desc.element_field is f:
        out.extend(desc.finite_elements)
    else:
        image = embed(f, desc.element_field).image_raw_map()
        for m in desc.finite_elements:
            pulled = []
            for row in m.e:
                prow = tuple(image.get(x) for x in row)
                if None in prow:
                    pulled = None
                    break
                pulled.append(prow)
            if pulled is not None:
                out.append(Mat2(f, tuple(pulled)))
    for fam in desc.families:
        if fam.param_count == 1:
            for t in range(f.order):
                if fam.admissible_raw(t):
                    out.append(fam.matrix_at(Fel(f, t)))
        else:
            for t in range(f.order):
                if not fam.admissible_raw(t):
                    continue
                for s in range(f.order):
                    out.append(fam.matrix_at(Fel(f, t), Fel(f, s)))
    return list(_dedupe(out))
