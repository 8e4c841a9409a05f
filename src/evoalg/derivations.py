"""Derivation algebras of 2-dimensional algebras.

A matrix D is a derivation of the algebra with structure constants E when
E(D (x) I + I (x) D) - DE = 0. The condition is linear in D, so Der(E) is
the nullspace of an 8x4 exact linear system; `der_solve` builds that system
from the residuals of the four unit matrices and reduces it by Gaussian
elimination over the field. Over Q, rank 4 modulo the fixed prime 2^61 - 1
proves Der(E) = 0 first; any other outcome takes the exact elimination. The
known answers for the canonical representatives are exposed by
`der_closed_form` as a cross-check, never as the computation: one table of
generators evaluated in the field, plus E4 in characteristic 2 and E3 in
characteristic 3.

Bases are normalized to reduced row echelon form in the coordinate order
(x, y, z, t) with leading coefficient 1, so equal subspaces have equal bases.
"""

from __future__ import annotations

from typing import NamedTuple

from .classify import CanonicalKey, UnsupportedKey
from .fields import GF, FieldCtx, FieldError, MixedFields
from .msc import Mat2, Msc

_MOD_P = GF(2**61 - 1)  # the prime of der_solve's rank certificate over Q


def _der_residual_raw(E: Msc, De):
    """Raw 2x4 residual E(D (x) I + I (x) D) - DE for raw 2x2 entries De."""
    f = E.field
    (x, y), (z, t) = De
    add, mul, sub = f.add, f.mul, f.sub
    xt = add(x, t)
    x2 = add(x, x)
    t2 = add(t, t)
    zero = f.zero
    # D (x) I + I (x) D in the column order (1,1),(1,2),(2,1),(2,2)
    M = (
        (x2, y, y, zero),
        (z, xt, zero, y),
        (z, zero, xt, y),
        (zero, z, z, t2),
    )
    rows = E.rows
    out = []
    for i in (0, 1):
        Ei = rows[i]
        Di = De[i]
        row = []
        for j in range(4):
            lhs = f.zero
            for l in range(4):
                e = Ei[l]
                if e != zero:
                    lhs = add(lhs, mul(e, M[l][j]))
            rhs = add(mul(Di[0], rows[0][j]), mul(Di[1], rows[1][j]))
            row.append(sub(lhs, rhs))
        out.append(tuple(row))
    return tuple(out)


def der_check(E: Msc, D: Mat2) -> bool:
    """True iff D satisfies the derivation condition for E."""
    if D.field is not E.field:
        raise MixedFields("matrix and structure constants over different fields")
    return not any(v for row in _der_residual_raw(E, D.e) for v in row)


def lie_bracket(D1: Mat2, D2: Mat2) -> Mat2:
    """Commutator D1 D2 - D2 D1."""
    if D1.field is not D2.field:
        raise MixedFields("commutator of matrices over different fields")
    f = D1.field
    a = D1.mul(D2)
    b = D2.mul(D1)
    return Mat2(
        f,
        tuple(
            tuple(f.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.e, b.e)
        ),
    )


def _rref(rows, f: FieldCtx):
    """Reduced row echelon form with unit pivots; returns (rows, pivot cols),
    zero rows dropped."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    pr = 0
    for col in range(n):
        pivot = next((r for r in range(pr, m) if rows[r][col] != f.zero), None)
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = f.inv(rows[pr][col])
        rows[pr] = [f.mul(inv, v) for v in rows[pr]]
        for r in range(m):
            if r != pr and rows[r][col] != f.zero:
                c = rows[r][col]
                rows[r] = [f.sub(v, f.mul(c, w)) for v, w in zip(rows[r], rows[pr])]
        pivots.append(col)
        pr += 1
        if pr == m:
            break
    return [tuple(r) for r in rows[:pr]], pivots


def _nullspace(rows, f: FieldCtx):
    """Canonical basis (RREF rows) of the nullspace of the system rows."""
    red, pivots = _rref(rows, f)
    n = len(rows[0])
    free = [c for c in range(n) if c not in pivots]
    vecs = []
    for fc in free:
        v = [f.zero] * n
        v[fc] = f.one
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(red[i][fc])
        vecs.append(v)
    return _rref(vecs, f)[0]


class DerBasis(NamedTuple):
    """Basis of a derivation algebra, rows in reduced echelon normal form."""

    field: FieldCtx
    basis: tuple  # of Mat2

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vectors(self):
        """The basis as flat (x, y, z, t) coordinate tuples."""
        return tuple((m.e[0][0], m.e[0][1], m.e[1][0], m.e[1][1]) for m in self.basis)


def _basis_from_vectors(f: FieldCtx, vecs) -> DerBasis:
    mats = tuple(Mat2(f, ((v[0], v[1]), (v[2], v[3]))) for v in vecs)
    return DerBasis(f, mats)


def _unit_residuals(E: Msc) -> tuple:
    """Residuals R1..R4 of the four unit matrices as 8 flat raw entries each,
    `_der_residual_raw` at each unit written out in the rows of E; that of
    D = [[x, y], [z, t]] is x R1 + y R2 + z R3 + t R4."""
    f = E.field
    add, sub, neg, z = f.add, f.sub, f.neg, f.zero
    (a0, a1, a2, a3), (b0, b1, b2, b3) = E.rows
    return (
        (a0, z, z, neg(a3), add(b0, b0), b1, b2, z),
        (neg(b0), sub(a0, b1), sub(a0, b2), sub(add(a1, a2), b3), z, b0, b0, add(b1, b2)),
        (add(a1, a2), a3, a3, z, sub(add(b1, b2), a0), sub(b3, a1), sub(b3, a2), neg(a3)),
        (z, a1, a2, add(a3, a3), neg(b0), z, z, b3),
    )


def der_solve(E: Msc) -> DerBasis:
    """Exact nullspace of the derivation condition for E. Over Q, rank 4 of
    the system reduced into GF(P), P = 2^61 - 1, proves Der(E) = 0: reduction
    is a ring map, so a 4x4 minor nonzero mod P is nonzero over Q (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 5). A lower rank mod P,
    or a denominator that P divides, takes the exact elimination."""
    if E.field.order is None:
        try:
            if len(_rref(zip(*_unit_residuals(Msc.of(_MOD_P, E.rows))), _MOD_P)[1]) == 4:
                return DerBasis(E.field, ())
        except FieldError:  # P divides a denominator
            pass
    system = list(zip(*_unit_residuals(E)))  # 8 rows, one coefficient per unit
    return _basis_from_vectors(E.field, _nullspace(system, E.field))


# generating vectors (x, y, z, t) of the known derivation algebras, evaluated
# in the field; normalized through the same RREF as der_solve
_CLOSED = {
    "E1": (),
    "E2b": (),
    "E20": ((0, 0, 1, -1),),
    "E3": (),
    "E4": (),
    "E5": ((-1, 1, 1, -1),),
    "E6": ((2, 0, 0, 1), (0, 1, 0, 0)),
}
# the derivation algebras that grow in one characteristic, by (char, label)
_CLOSED_IN_CHAR = {(2, "E4"): ((0, 0, 0, 1),), (3, "E3"): ((2, 0, 0, 1),)}


def der_closed_form(key: CanonicalKey, field: FieldCtx) -> DerBasis:
    """The known derivation algebra of a canonical representative, by label
    and, for E4 and E3, the field's characteristic."""
    if field is not key.field:
        raise MixedFields("key and field disagree")
    if key.label == "E0":
        raise UnsupportedKey("the zero algebra has every matrix as a derivation")
    label = key.label
    if label == "E2":
        label = "E20" if key.params[0].is_zero else "E2b"
    gens = _CLOSED_IN_CHAR.get((field.char, label), _CLOSED[label])
    vecs = [tuple(field.coerce(c) for c in g) for g in gens]
    return _basis_from_vectors(field, _rref(vecs, field)[0])
