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

from fractions import Fraction
from typing import NamedTuple

from .classify import CanonicalKey, UnsupportedKey
from .fields import Fel, FieldCtx, FieldTooLarge, InfiniteField, MixedFields, NeedsExtension, Poly, _horner, find_root
from .msc import BasisChange, Mat2, Msc, SingularChange, transform

_ENUMERATE_MAX = 10_000  # automorphisms listed by one `aut_instantiate`


class BudgetExceeded(ValueError):
    """The requested brute-force computation is beyond desk scale."""


def aut_check(E: Msc, g: Mat2) -> bool:
    """True iff g is invertible and gE - E(g (x) g) vanishes entrywise.

    The change whose g^-1 is g carries E to g^-1 E (g (x) g), which is E
    exactly when gE = E(g (x) g)."""
    if g.field is not E.field:
        raise MixedFields("matrix and structure constants over different fields")
    try:
        return transform(E, BasisChange(g)) == E
    except SingularChange:
        return False


# the parametric families by label, E20 being E2(0): the 2x2 entries as
# (parameter, integer coefficients, constant term first), the number of
# parameters and the excluded values (parameter != value). They read
# E20 [[1, 0], [t, 1-t]], t != 1; E5 [[t, 1-t], [1-t, t]], t != 1/2 outside
# characteristic 2; E6 [[t^2, s], [0, t]], t != 0.
_FAMILIES = {
    "E20": (((("t", (1,)), ("t", ())), (("t", (0, 1)), ("t", (1, -1)))), 1, (("t", Fraction(1)),)),
    "E5": (((("t", (0, 1)), ("t", (1, -1))), (("t", (1, -1)), ("t", (0, 1)))), 1, (("t", Fraction(1, 2)),)),
    "E6": (((("t", (0, 0, 1)), ("s", (0, 1))), (("t", ()), ("t", (0, 1)))), 2, (("t", Fraction(0)),)),
}


def _render(var: str, coeffs) -> str:
    """The text of the polynomial in var: "0", "1", "t", "1-t", "t^2"."""
    out = ""
    for i, c in enumerate(coeffs):
        if c:
            mono = "" if i == 0 else var if i == 1 else f"{var}^{i}"
            term = str(c) if not mono else mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}"
            out += term if not out or term.startswith("-") else "+" + term
    return out or "0"


class ParamFamily(NamedTuple):
    """A parametric family of automorphisms: a 2x2 matrix whose entries are
    polynomials in the parameter t (or s), minus finitely many excluded
    parameter values."""

    field: FieldCtx
    entries: tuple  # 2x2 of (parameter name, integer coefficients, constant term first)
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
        return self.matrix_raw(t.raw, None if s is None else s.raw)

    def matrix_raw(self, t, s=None) -> Mat2:
        """The member at raw t, s, without `matrix_at`'s checks."""
        f, co = self.field, self.field.coerce
        return Mat2(f, [[_horner(f, [co(c) for c in cs], s if v == "s" else t) for v, cs in row] for row in self.entries])

    def entries_text(self):
        return [[_render(v, cs) for v, cs in row] for row in self.entries]

    def excluded_text(self):
        return [f"{name} != {value}" for name, value in self.excluded]


class AutDescription(NamedTuple):
    """Closed-form automorphism group of a canonical representative."""

    key: CanonicalKey
    base_field: FieldCtx
    element_field: FieldCtx  # quadratic extension when the cube roots of unity
    # live outside the base field (E3 only); the base field otherwise
    finite_elements: tuple  # Mat2 over element_field
    families: tuple  # ParamFamily over base_field
    missing_root: Poly | None = None


def aut_closed_form(key: CanonicalKey, field: FieldCtx) -> AutDescription:
    """The known automorphism group description for a canonical label over
    the field."""
    if field is not key.field:
        raise MixedFields("key and field disagree")
    if key.label == "E0":
        raise UnsupportedKey("the zero algebra is all of GL(2), not described here")
    f, label = field, key.label
    if label == "E2" and key.params[0].is_zero:
        label = "E20"
    if label in _FAMILIES:
        entries, count, excluded = _FAMILIES[label]
        if label == "E5" and f.char == 2:
            excluded = ()
        return AutDescription(key, f, f, (), (ParamFamily(f, entries, count, excluded),))
    ident = Mat2.identity(f)
    swap = Mat2.swap(f)
    elements: tuple = (ident,)
    element_field = f
    missing = None

    if label == "E1":
        s1, s2 = key.params
        if s1 == s2:
            elements = (ident, swap)
    elif label == "E3":
        unity = Poly(f, (1, 1, 1))  # x^2 + x + 1, whose roots are the primitive cube roots of unity
        try:
            k, omega, emb = find_root(f, unity)
        except (NeedsExtension, FieldTooLarge):  # over Q, or past the size budget
            elements = (ident, swap)
            missing = unity
        else:
            roots = [k.one, omega.raw, k.mul(omega.raw, omega.raw)]
            mats = []
            for x in roots:
                mats.append(Mat2(k, ((x, k.zero), (k.zero, k.mul(x, x)))))
            for y in roots:
                mats.append(Mat2(k, ((k.zero, y), (k.mul(y, y), k.zero))))
            elements = tuple(dict.fromkeys(mats))
            element_field = k
    elif label == "E4":
        elements = tuple(dict.fromkeys((ident, Mat2(f, ((f.one, f.zero), (f.zero, f.neg(f.one)))))))

    return AutDescription(key, f, element_field, elements, (), missing)


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
    member, in a deterministic order. Duplicate-free: the members of a
    family differ in their parameters, and no description has both finite
    elements and a family. A group of more than `_ENUMERATE_MAX` elements
    is refused."""
    if field is not desc.base_field:
        raise MixedFields("instantiation field must be the description's base field")
    if field.order is None:
        raise InfiniteField("cannot enumerate over an infinite field")
    if (n := aut_order(desc)) > _ENUMERATE_MAX:
        raise BudgetExceeded(f"listing {n} automorphisms over {field} refused (more than {_ENUMERATE_MAX})")
    out = list(_base_field_elements(desc))
    q, co = field.order, field.coerce
    for fam in desc.families:
        # per entry, whether it reads s and its value at every raw parameter value
        raw = [(v == "s", [co(k) for k in cs]) for row in fam.entries for v, cs in row]
        (ia, a), (ib, b), (ic, c), (id_, d) = [(in_s, [_horner(field, cs, x) for x in range(q)]) for in_s, cs in raw]
        bad = {co(value) for _name, value in fam.excluded}  # every family excludes values of t
        ss = range(q) if fam.param_count == 2 else (0,)
        for t in range(q):
            if t not in bad:
                for s in ss:
                    p = (t, s)
                    out.append(Mat2(field, ((a[p[ia]], b[p[ib]]), (c[p[ic]], d[p[id_]]))))
    return out
