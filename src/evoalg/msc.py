"""Structure constants of 2-dimensional algebras and the basis-change action.

An algebra is a 2x4 matrix of structure constants (rows = output coordinates,
columns = input pairs (1,1),(1,2),(2,1),(2,2)). A change of basis g acts by
A |-> g A (g^-1 (x) g^-1); `BasisChange` is parametrized by the entries of
g^-1, which keeps the closed-form transformed entries of evolution algebras
free of nested inversions.

Matrices store raw field encodings internally; entries come back as `Fel`.
"""

from __future__ import annotations

from typing import NamedTuple

from .fields import Fel, FieldCtx, MixedFields


class SingularChange(ValueError):
    """The proposed basis change is not invertible."""


def _same_field(a, b) -> FieldCtx:
    if a.field is not b.field:
        raise MixedFields(f"{a.field} vs {b.field}")
    return a.field


class Mat2:
    """2x2 matrix over one field."""

    __slots__ = ("field", "e")

    def __init__(self, field: FieldCtx, entries):
        (a, b), (c, d) = entries
        self.field = field
        self.e = ((a, b), (c, d))

    @classmethod
    def of(cls, field: FieldCtx, entries) -> "Mat2":
        (a, b), (c, d) = entries
        co = field.coerce
        return cls(field, ((co(a), co(b)), (co(c), co(d))))

    @classmethod
    def identity(cls, field: FieldCtx) -> "Mat2":
        return cls(field, ((field.one, field.zero), (field.zero, field.one)))

    @classmethod
    def swap(cls, field: FieldCtx) -> "Mat2":
        return cls(field, ((field.zero, field.one), (field.one, field.zero)))

    def over(self, emb) -> "Mat2":
        """This matrix over emb.dst, carried entry by entry along emb."""
        if emb.src is not self.field:
            raise MixedFields(f"embedding of {emb.src} applied over {self.field}")
        if emb.dst is self.field:
            return self
        return Mat2(emb.dst, tuple(tuple(map(emb.raw, row)) for row in self.e))

    def entry(self, i: int, j: int) -> Fel:
        return Fel(self.field, self.e[i][j])

    def det(self) -> Fel:
        f = self.field
        (a, b), (c, d) = self.e
        return Fel(f, f.sub(f.mul(a, d), f.mul(b, c)))

    def mul(self, other: "Mat2") -> "Mat2":
        f = _same_field(self, other)
        (a, b), (c, d) = self.e
        (x, y), (z, w) = other.e
        return Mat2(
            f,
            (
                (f.add(f.mul(a, x), f.mul(b, z)), f.add(f.mul(a, y), f.mul(b, w))),
                (f.add(f.mul(c, x), f.mul(d, z)), f.add(f.mul(c, y), f.mul(d, w))),
            ),
        )

    def inverse(self) -> "Mat2":
        f = self.field
        (a, b), (c, d) = self.e
        det = f.sub(f.mul(a, d), f.mul(b, c))
        if det == f.zero:
            raise SingularChange("matrix is singular")
        di = f.inv(det)
        return Mat2(
            f,
            (
                (f.mul(d, di), f.neg(f.mul(b, di))),
                (f.neg(f.mul(c, di)), f.mul(a, di)),
            ),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Mat2)
            and other.field is self.field
            and other.e == self.e
        )

    def __hash__(self):
        return hash((id(self.field), self.e))

    def __repr__(self):
        t = self.field.text
        return f"Mat2({self.field}, {[[t(x) for x in row] for row in self.e]})"


class Msc:
    """2x4 matrix of structure constants over one field."""

    __slots__ = ("field", "rows")

    def __init__(self, field: FieldCtx, rows):
        r0, r1 = rows
        self.field = field
        self.rows = (tuple(r0), tuple(r1))
        if len(self.rows[0]) != 4 or len(self.rows[1]) != 4:
            raise ValueError("a structure-constant matrix has 2 rows of 4 entries")

    @classmethod
    def of(cls, field: FieldCtx, rows) -> "Msc":
        co = field.coerce
        return cls(field, tuple(tuple(co(x) for x in row) for row in rows))

    def over(self, emb) -> "Msc":
        """These structure constants over emb.dst, carried entry by entry along emb."""
        if emb.src is not self.field:
            raise MixedFields(f"embedding of {emb.src} applied over {self.field}")
        if emb.dst is self.field:
            return self
        return Msc(emb.dst, tuple(tuple(map(emb.raw, row)) for row in self.rows))

    def entry(self, i: int, j: int) -> Fel:
        return Fel(self.field, self.rows[i][j])

    def is_zero(self) -> bool:
        return not any(x for row in self.rows for x in row)

    def to_evolution(self) -> "EvolutionMsc":
        if not is_evolution(self):
            raise ValueError("matrix is not in evolution form")
        r0, r1 = self.rows
        return EvolutionMsc(self.field, (r0[0], r0[3], r1[0], r1[3]))

    def __eq__(self, other):
        return (
            isinstance(other, Msc)
            and other.field is self.field
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((id(self.field), self.rows))

    def __repr__(self):
        t = self.field.text
        return f"Msc({self.field}, {[[t(x) for x in row] for row in self.rows]})"


class EvolutionMsc(Msc):
    """Evolution-form structure constants [[a,0,0,b],[c,0,0,d]]."""

    __slots__ = ()

    def __init__(self, field: FieldCtx, abcd):
        a, b, c, d = abcd
        z = field.zero
        super().__init__(field, ((a, z, z, b), (c, z, z, d)))

    @classmethod
    def of(cls, field: FieldCtx, abcd) -> "EvolutionMsc":
        co = field.coerce
        a, b, c, d = abcd
        return cls(field, (co(a), co(b), co(c), co(d)))

    @property
    def abcd(self):
        r0, r1 = self.rows
        return (r0[0], r0[3], r1[0], r1[3])


def is_evolution(A: Msc) -> bool:
    """True iff both middle columns (the mixed products) vanish."""
    r0, r1 = A.rows
    return not (r0[1] or r0[2] or r1[1] or r1[2])


def det2x2(E: EvolutionMsc) -> Fel:
    """ad - bc of the associated 2x2 matrix [[a,b],[c,d]]."""
    f = E.field
    a, b, c, d = E.abcd
    return Fel(f, f.sub(f.mul(a, d), f.mul(b, c)))


class BasisChange:
    """Invertible change of basis, stored through the entries of g^-1."""

    __slots__ = ("ginv", "_g")

    def __init__(self, ginv: Mat2):
        f = ginv.field
        (x1, e1), (x2, e2) = ginv.e
        if f.prod_eq(x1, e2, x2, e1):
            raise SingularChange("basis change must be invertible")
        self.ginv = ginv
        self._g = None

    @classmethod
    def of(cls, field: FieldCtx, ginv_entries) -> "BasisChange":
        return cls(Mat2.of(field, ginv_entries))

    @classmethod
    def from_g(cls, g: Mat2) -> "BasisChange":
        return cls(g.inverse())

    @classmethod
    def identity(cls, field: FieldCtx) -> "BasisChange":
        return cls(Mat2.identity(field))

    @classmethod
    def swap(cls, field: FieldCtx) -> "BasisChange":
        return cls(Mat2.swap(field))

    @property
    def field(self) -> FieldCtx:
        return self.ginv.field

    @property
    def delta(self) -> Fel:
        return self.ginv.det()

    @property
    def g(self) -> Mat2:
        if self._g is None:
            self._g = self.ginv.inverse()
        return self._g

    def then(self, nxt: "BasisChange") -> "BasisChange":
        """The basis change doing `self` first, then `nxt`."""
        return BasisChange(self.ginv.mul(nxt.ginv))

    def inverse(self) -> "BasisChange":
        return BasisChange(self.g)

    def __eq__(self, other):
        return isinstance(other, BasisChange) and other.ginv == self.ginv

    def __hash__(self):
        return hash(self.ginv)

    def __repr__(self):
        return f"BasisChange(ginv={self.ginv!r})"


def _kron4_raw(f: FieldCtx, m):
    """Raw 4x4 Kronecker square of a raw 2x2 matrix, rows/columns ordered
    (1,1),(1,2),(2,1),(2,2)."""
    (a, b), (c, d) = m
    mul = f.mul
    return (
        (mul(a, a), mul(a, b), mul(b, a), mul(b, b)),
        (mul(a, c), mul(a, d), mul(b, c), mul(b, d)),
        (mul(c, a), mul(c, b), mul(d, a), mul(d, b)),
        (mul(c, c), mul(c, d), mul(d, c), mul(d, d)),
    )


def kron_square(m: Mat2):
    """Kronecker square m (x) m as a 4x4 grid of elements."""
    raw = _kron4_raw(m.field, m.e)
    return tuple(tuple(Fel(m.field, x) for x in row) for row in raw)


def _act_raw(f: FieldCtx, m, rows, K):
    """Raw product m . rows . K of a 2x2, a 2x4 and a 4x4 matrix, skipping the
    zero entries of `rows`."""
    z = f.zero
    add, mul = f.add, f.mul
    X = []
    for row in rows:
        acc = [z, z, z, z]
        for l in range(4):
            x = row[l]
            if x != z:
                Kl = K[l]
                for j in range(4):
                    acc[j] = add(acc[j], mul(x, Kl[j]))
        X.append(acc)
    (a, b), (c, d) = m
    x0, x1 = X
    return (
        tuple(add(mul(a, x0[j]), mul(b, x1[j])) for j in range(4)),
        tuple(add(mul(c, x0[j]), mul(d, x1[j])) for j in range(4)),
    )


def transform(A: Msc, change: BasisChange) -> Msc:
    """Transport of structure constants: g A (g^-1 (x) g^-1)."""
    f = A.field
    if change.field is not f:
        raise MixedFields("structure constants and basis change over different fields")
    return Msc(f, _act_raw(f, change.g.e, A.rows, _kron4_raw(f, change.ginv.e)))


class TransformedEntries(NamedTuple):
    """Closed-form entries of a transformed evolution algebra; the two middle
    columns of each row agree by construction, so each row keeps one of them."""

    a1: Fel
    a2: Fel
    a4: Fel
    b1: Fel
    b2: Fel
    b4: Fel

    def as_msc(self) -> Msc:
        f = self.a1.field
        return Msc(
            f,
            (
                (self.a1.raw, self.a2.raw, self.a2.raw, self.a4.raw),
                (self.b1.raw, self.b2.raw, self.b2.raw, self.b4.raw),
            ),
        )


def transform_evolution_raw(f: FieldCtx, abcd, ginv) -> tuple:
    """Raw (a1, a2, a4, b1, b2, b4) of the image of the evolution algebra with
    raw entries `abcd` under the change with raw g^-1 entries `ginv`,
    evaluated from the direct closed forms in the entries of g^-1."""
    a, b, c, d = abcd
    (x1, e1), (x2, e2) = ginv
    add, sub, mul, sqr = f.add, f.sub, f.mul, f.sqr
    di = f.inv(sub(mul(x1, e2), mul(x2, e1)))  # 1/delta
    u1 = sub(mul(a, e2), mul(c, e1))  # a*eta2 - c*eta1
    u2 = sub(mul(b, e2), mul(d, e1))  # b*eta2 - d*eta1
    v1 = sub(mul(c, x1), mul(a, x2))  # -a*xi2 + c*xi1
    v2 = sub(mul(d, x1), mul(b, x2))  # -b*xi2 + d*xi1
    xx1, xx2, xe1, xe2 = sqr(x1), sqr(x2), mul(x1, e1), mul(x2, e2)
    ee1, ee2 = sqr(e1), sqr(e2)
    a1 = mul(di, add(mul(xx1, u1), mul(xx2, u2)))
    a2 = mul(di, add(mul(xe1, u1), mul(xe2, u2)))
    a4 = mul(di, add(mul(ee1, u1), mul(ee2, u2)))
    b1 = mul(di, add(mul(xx1, v1), mul(xx2, v2)))
    b2 = mul(di, add(mul(xe1, v1), mul(xe2, v2)))
    b4 = mul(di, add(mul(ee1, v1), mul(ee2, v2)))
    return a1, a2, a4, b1, b2, b4


def transform_evolution(E: EvolutionMsc, change: BasisChange) -> TransformedEntries:
    """Transformed entries of an evolution algebra, evaluated from the direct
    closed forms in the entries of g^-1 (not via the generic matrix product;
    the two routes are compared in the test suite)."""
    f = E.field
    if change.field is not f:
        raise MixedFields("structure constants and basis change over different fields")
    return TransformedEntries(*(Fel(f, r) for r in transform_evolution_raw(f, E.abcd, change.ginv.e)))
