"""Brute-force ground truth over small finite fields.

Everything here goes through the defining conditions directly: GL(2,q) is
enumerated, isomorphisms are found by trying every invertible change of
basis, automorphisms and derivations by scanning all matrices. The census
partitions the whole evolution subset of a field's structure-constant space
into orbits, one pass over GL(2,q) modulo scalars per orbit. Seeding one
orbit from each key's canonical representative, the same pass collects the
changes fixing it, so the closed-form automorphism groups are compared with
these stabilizers, and the classifier and the derivation solver with the
orbits and the derivation scans.

The census's loops run over the field's own `tables` (see `_orbit_raw` and
`_der_scan_raw`). Every stabilizer element is checked again through
`aut_check`, the generic product, so the oracle does not rest on the closed
forms alone. Witnesses are checked by the closed forms on raw entries, on
the witness field's tables up to order _TABLE_MAX and by field methods above
it, and once per witness field and key through the generic `transform`. The
census carries each algebra, and each stabilizer element g^-1, as one
integer index (`_index`), so its partition is one list of orbit ids over the
q^4 indices; entries are decoded (`_entries`) only for phase 1, the orbit
kernel and the representatives, and the closed-form automorphisms are
encoded instead.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple

from .autgroup import BudgetExceeded, aut_check, aut_closed_form, aut_instantiate
from .classify import CanonicalKey, _classify_raw, canonical_msc
from .derivations import _unit_residuals, der_solve, der_closed_form
from .fields import _TABLE_MAX, Fel, FieldCtx, InfiniteField, MixedFields, embed
from .msc import BasisChange, EvolutionMsc, Mat2, Msc, transform, transform_evolution_raw

_GL_MAX_ORDER = 32  # enumeration scans q^4 matrices
_CENSUS_MAX_ORDER = 16


def _check_scan(field: FieldCtx, what: str):
    if field.order is None:
        raise InfiniteField(f"{what} needs a finite field")
    if field.order > _GL_MAX_ORDER:
        raise BudgetExceeded(f"{what} over {field} refused")


def _gl2_raw(f: FieldCtx):
    """Raw entries ((a, b), (c, d)) of every invertible 2x2 matrix over a
    finite field, in lexicographic order. It is the one GL(2,q) enumerator:
    `brute_aut` and `gl2_enumerate` promise that order, and `_gl_table` reads
    the scalar classes off its front."""
    _check_scan(f, "GL(2) enumeration")
    q = f.order
    sub, mul, z = f.sub, f.mul, f.zero
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if sub(mul(a, d), mul(b, c)) != z:
                        yield ((a, b), (c, d))


def gl2_enumerate(field: FieldCtx):
    """All invertible 2x2 matrices as basis changes, the enumerated entries
    being those of g^-1, in lexicographic canonical-order on the rows."""
    for m in _gl2_raw(field):
        yield BasisChange(Mat2(field, m))


def brute_iso(E: Msc, F: Msc, K: FieldCtx):
    """First basis change over K carrying E onto F, or None."""
    if E.field is not F.field:
        raise MixedFields("both algebras must share a base field")
    emb = embed(E.field, K)
    ek, fk = E.over(emb), F.over(emb)
    for change in gl2_enumerate(K):
        if transform(ek, change) == fk:
            return change
    return None


def brute_aut(E: Msc, field: FieldCtx) -> list:
    """All g in GL(2, field) with gE = E(g (x) g), in enumeration order."""
    if E.field is not field:
        raise MixedFields("structure constants must lie in the scanned field")
    mats = (Mat2(field, m) for m in _gl2_raw(field))
    return [g for g in mats if aut_check(E, g)]


def brute_der(E: Msc, field: FieldCtx) -> list:
    """All matrices (invertible or not) satisfying the derivation condition,
    in `itertools.product` order of their raw entries (x, y, z, t)."""
    if E.field is not field:
        raise MixedFields("structure constants must lie in the scanned field")
    _check_scan(field, "derivation scan")
    return [Mat2(field, ((x, y), (z, t))) for x, y, z, t in sorted(_der_scan_raw(E))]


def _der_scan_raw(E: Msc) -> set:
    """`brute_der` as a set of raw (x, y, z, t) tuples, over the field tables;
    `brute_der` sorts it into `itertools.product` order.

    The residual is linear in D: it is x R1 + y R2 + z R3 + t R4 for the
    residuals R1..R4 of the four unit matrices. The t values are grouped by
    -t R4, so each (x, y, z) finds the t that cancel x R1 + y R2 + z R3 in one
    lookup. Since mu D is a derivation whenever D is, only (0, 0, 0) and the
    (x, y, z) whose first nonzero entry is 1 are visited, and each hit is
    scaled by every unit mu. No linear algebra is involved, so the scan stays
    independent of `der_solve`."""
    add, _, mul, neg, _ = E.field.tables
    q = len(mul)
    # R[k][c]: the residual of c times the k-th unit matrix, as 8 raw entries
    R1, R2, R3, R4 = ([[mc[v] for v in r] for mc in mul] for r in _unit_residuals(E))
    cancel: dict[tuple, list] = {}  # -t R4 -> the t giving it
    for t in range(q):
        cancel.setdefault(tuple(neg[v] for v in R4[t]), []).append(t)
    out, scaled = set(), [row[1:] for row in mul]  # scaled[c]: c times every unit
    for x, y in [(0, 0), (0, 1)] + [(1, y) for y in range(q)]:
        xy = [add[add[u][v]] for u, v in zip(R1[x], R2[y])]  # add-table rows of x R1 + y R2
        for z in range(2 if x == y == 0 else q):
            for t in cancel.get(tuple(map(list.__getitem__, xy, R3[z])), ()):
                out.update(zip(scaled[x], scaled[y], scaled[z], scaled[t]))
    return out


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

class CensusRecord(NamedTuple):
    key: CanonicalKey
    orbit_representatives: tuple  # EvolutionMsc
    orbit_size_in_evolution_subset: int
    brute_aut_order: int
    der_dim: int


class CensusReport(NamedTuple):
    field: FieldCtx
    gl2_order: int
    total_evolution_msc: int
    max_witness_ext: int
    records: tuple  # CensusRecord, sorted by key
    flags: dict  # keys_vs_orbits_ok, witnesses_ok, aut_closed_form_ok, der_closed_form_ok

    @property
    def ok(self) -> bool:
        return all(self.flags.values())


def _image_raw(tables, abcd, ginv) -> tuple:
    """`msc.transform_evolution_raw` by the same closed forms on a field's
    `tables`, with g^-1's products read off `_gl_row`."""
    add, sub, mul, *_ = tables
    (a, b, c, d), ((x1, e1), (x2, e2)) = abcd, ginv
    ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
    xe1, xe2, xx1, xx2, ee1, ee2, di = _gl_row(tables, ginv)
    u1, u2 = sub[ma[e2]][mc[e1]], sub[mb[e2]][md[e1]]
    v1, v2 = sub[mc[x1]][ma[x2]], sub[md[x1]][mb[x2]]
    return (di[add[xx1[u1]][xx2[u2]]], di[add[xe1[u1]][xe2[u2]]], di[add[ee1[u1]][ee2[u2]]],
            di[add[xx1[v1]][xx2[v2]]], di[add[xe1[v1]][xe2[v2]]], di[add[ee1[v1]][ee2[v2]]])


def _verify_witness(F: FieldCtx, abcd, label, params, ginv, K, max_ext: int, targets: dict) -> bool:
    """The raw witness ginv over K of `_classify_raw(F, abcd)`, with raw key
    (label, params), lands on the canonical form within the allowed extension
    degree, by the closed forms on raw entries. `targets` maps (witness field
    K, raw key) to the lift of F's raw elements into K and the raw image due
    there; the first algebra of each is also checked through the generic
    `transform`. Up to order _TABLE_MAX the image is evaluated on K's tables
    (`_image_raw`), above it by the field methods of `transform_evolution_raw`.
    The census's hot loop `_orbit_raw` writes the same closed forms inline,
    to drop most images after their middle entries a2 and b2; the tests pin
    both against `transform_evolution_raw`."""
    if ginv is None or K.k // F.k > max_ext:
        return False
    if (K, label, params) not in targets:
        emb = embed(F, K)
        # the canonical representative over F, carried to K, is the one over K
        C = canonical_msc(CanonicalKey(F, label, tuple(Fel(F, p) for p in params))).over(emb)
        target = tuple(row[j] for row in C.rows for j in (0, 1, 3))
        targets[K, label, params] = [emb.raw(v) for v in range(F.order)], target
        if transform(EvolutionMsc(F, abcd).over(emb), BasisChange(Mat2(K, ginv))) != C:
            return False
    lift, target = targets[K, label, params]
    a, b, c, d = abcd
    abcd = lift[a], lift[b], lift[c], lift[d]
    if K.order > _TABLE_MAX:
        return transform_evolution_raw(K, abcd, ginv) == target
    return _image_raw(K.tables, abcd, ginv) == target


def _phase1(F: FieldCtx, max_ext: int):
    """Classify and witness-check every evolution algebra over F, in index
    order, on raw entries. Returns whether every witness held and the raw key
    (label, params) of each algebra, one shared tuple per distinct key."""
    targets, shared = {}, {}
    ok, keys = True, []
    for i in range(F.order**4):
        abcd = _entries(F.order, i)
        label, params, ginv, K, *_ = _classify_raw(F, abcd)
        keys.append(shared.setdefault((label, params), (label, params)))
        ok &= _verify_witness(F, abcd, label, params, ginv, K, max_ext, targets)
    return ok, keys


def _gl_row(tables, ginv) -> tuple:
    """The mul-table rows of x1*e1, x2*e2, x1^2, x2^2, e1^2, e2^2 and delta^-1:
    all that the closed forms of the image need of g^-1 = ((x1, e1), (x2, e2))."""
    _, sub, mul, _, inv = tables
    (x1, e1), (x2, e2) = ginv
    mx1, mx2, me1, me2 = mul[x1], mul[x2], mul[e1], mul[e2]
    return (mul[mx1[e1]], mul[mx2[e2]], mul[mx1[x1]], mul[mx2[x2]], mul[me1[e1]], mul[me2[e2]],
            mul[inv[sub[mx1[e2]][mx2[e1]]]])


def _gl_table(f: FieldCtx) -> list:
    """GL(2,q) modulo scalars for the census orbit kernel: one g^-1 =
    ((x1, e1), (x2, e2)) per scalar class, the one whose first row's first
    nonzero entry is 1, as (x1, e1, x2, e2) followed by its `_gl_row`.
    `_gl2_raw` lists those classes first, in lexicographic order, so the scan
    stops at the first x1 above 1."""
    classes = itertools.takewhile(lambda m: m[0][0] < 2, _gl2_raw(f))
    return [(*m[0], *m[1], *_gl_row(f.tables, m)) for m in classes if (m[0][0] or m[0][1]) == 1]


def _index(q: int, a: int, b: int, c: int, d: int) -> int:
    """The census index of the raw entries (a, b, c, d) of an evolution algebra,
    or of a g^-1 = ((a, b), (c, d)), over a field of order q."""
    return a + q * (b + q * (c + q * d))


def _entries(q: int, i: int) -> tuple:
    """The raw entries (a, b, c, d) of census index i: the inverse of `_index`."""
    return i % q, i // q % q, i // (q * q) % q, i // (q * q * q)


def _orbit_raw(tables, gl, abcd):
    """Census indices of the evolution images of one evolution algebra under
    the census class table `gl` (see `_gl_table`), and those of the g^-1 whose
    change fixes it.

    Each image comes from the closed forms of `msc.transform_evolution`; an
    image is dropped as soon as its middle entry a2, then b2, is nonzero, which
    needs no delta^-1 since delta is a unit. Those tests depend only on the
    class of g^-1, because the change of mu g^-1 carries the algebra to mu
    times its image under g^-1; so each class that passes them yields the q-1
    images mu m, and mu g^-1 fixes the algebra where mu m is it."""
    add, sub, mul, *_ = tables
    q, units = len(mul), mul[1:]
    a, b, c, d = abcd
    seed = _index(q, a, b, c, d)
    ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
    members, stab = set(), []
    for x1, e1, x2, e2, xe1, xe2, xx1, xx2, ee1, ee2, di in gl:
        u1 = sub[ma[e2]][mc[e1]]
        u2 = sub[mb[e2]][md[e1]]
        if add[xe1[u1]][xe2[u2]]:
            continue
        v1 = sub[mc[x1]][ma[x2]]
        v2 = sub[md[x1]][mb[x2]]
        if add[xe1[v1]][xe2[v2]]:
            continue
        m0 = di[add[xx1[u1]][xx2[u2]]]
        m1 = di[add[ee1[u1]][ee2[u2]]]
        m2 = di[add[xx1[v1]][xx2[v2]]]
        m3 = di[add[ee1[v1]][ee2[v2]]]
        for mu in units:
            m = _index(q, mu[m0], mu[m1], mu[m2], mu[m3])
            members.add(m)
            if m == seed:
                stab.append(_index(q, mu[x1], mu[e1], mu[x2], mu[e2]))
    return members, stab


def census(field: FieldCtx, max_witness_ext: int = 6, jobs: int = 1) -> CensusReport:
    """Classify every evolution algebra over a small finite field and check
    the classifier, automorphism and derivation machinery against brute force.

    One pass over GL(2,q), a scalar class and its q - 1 multiples at a time,
    per orbit yields both the orbit partition and, for the orbit seeded from
    each key's canonical representative C, the changes fixing C: their g^-1
    form Aut(C), which the closed forms are compared with. The pass computes
    images from the closed-form transform over field tables; each element of
    Aut(C) (C not E0) is then checked again through the generic product, and
    a miss clears `aut_closed_form_ok`. Keys stay raw (label, parameters)
    tuples until one `CanonicalKey` is made per distinct key.

    Flags:
      keys_vs_orbits_ok   every GL(2,q)-orbit has a constant key and holds
                          the canonical representative of no other key
      witnesses_ok        every witness lands exactly on its canonical form
                          within the allowed extension degree, by the
                          closed forms and, once per witness field and
                          key, by the generic product
      aut_closed_form_ok  instantiated closed forms match the stabilizers
                          found in the orbit pass, and the generic product
                          fixes C under each of them
      der_closed_form_ok  solver, closed forms and derivation scans agree

    The census runs in this process; `jobs` is accepted for compatibility
    and has no effect.
    """
    if field.order is None:
        raise InfiniteField("census needs a finite field")
    q = field.order
    if q > _CENSUS_MAX_ORDER:
        raise BudgetExceeded(f"census over {field} refused (order {q} > {_CENSUS_MAX_ORDER})")
    F = field
    total = q**4

    # phase 1: classify + witness verification
    witnesses_ok, keys = _phase1(F, max_witness_ext)  # raw keys, index order
    canon = {rk: CanonicalKey(F, rk[0], tuple(Fel(F, p) for p in rk[1])) for rk in set(keys)}
    by_sort_key = lambda rk: canon[rk].sort_key()

    # phase 2: orbit partition of the evolution subset under the full group,
    # seeded from each key's canonical representative, then the rest in index
    # order
    tables, gl = F.tables, _gl_table(F)
    aut_of: dict[tuple, list] = {}  # raw key -> indices of the g^-1 fixing its representative
    orbit_of = [-1] * total  # orbit id of each algebra: the index its orbit was seeded from
    orbits: dict[tuple, list] = {}  # raw key -> (smallest member, size) of each of its orbits

    def seeds():
        for rk in sorted(canon, key=by_sort_key):
            C = canonical_msc(canon[rk]).abcd
            members, aut_of[rk] = _orbit_raw(tables, gl, C)
            yield _index(q, *C), members, rk
        for i in range(total):
            if orbit_of[i] < 0:
                yield i, _orbit_raw(tables, gl, _entries(q, i))[0], keys[i]

    keys_vs_orbits_ok = True
    for seed, members, rk in seeds():
        if orbit_of[seed] >= 0:  # a canonical representative in an earlier seed's orbit
            keys_vs_orbits_ok = False
            continue
        for m in members:
            if orbit_of[m] >= 0 or keys[m] != rk:  # in an earlier orbit, or of another key
                keys_vs_orbits_ok = False
            orbit_of[m] = seed
        orbits.setdefault(rk, []).append((min(members), len(members)))
    keys_vs_orbits_ok &= -1 not in orbit_of

    # phase 3: per-key records, each orbit represented by its smallest member,
    # in index order, and oracle comparisons
    aut_ok = der_ok = True
    records = []
    for rk in sorted(orbits, key=by_sort_key):
        k, reps, stab = canon[rk], sorted(orbits[rk]), aut_of.pop(rk)
        C, aut_order = canonical_msc(k), len(stab)  # distinct: one per scalar class and unit
        solved = der_solve(C)
        if k.label != "E0":  # E0's stabilizer, all of GL(2,q), is only counted
            inst = aut_instantiate(aut_closed_form(k, F), F)
            # the stabilizer against the closed forms, and, the two being
            # equal, again through the generic product
            if {_index(q, *m.e[0], *m.e[1]) for m in inst} != set(stab) or not all(aut_check(C, m) for m in inst):
                aut_ok = False
            if der_closed_form(k, F) != solved:
                der_ok = False
        del stab  # E0's, all of GL(2,q), is freed before its Der scan
        if _der_scan_raw(C) != _span_raw(tables, solved.vectors()):
            der_ok = False
        records.append(
            CensusRecord(
                key=k,
                orbit_representatives=tuple(EvolutionMsc(F, _entries(q, rep)) for rep, _ in reps),
                orbit_size_in_evolution_subset=sum(size for _, size in reps),
                brute_aut_order=aut_order,
                der_dim=solved.dim,
            )
        )

    flags = {
        "keys_vs_orbits_ok": keys_vs_orbits_ok,
        "witnesses_ok": witnesses_ok,
        "aut_closed_form_ok": aut_ok,
        "der_closed_form_ok": der_ok,
    }
    return CensusReport(
        field=F,
        gl2_order=(q - 1) * len(gl),
        total_evolution_msc=total,
        max_witness_ext=max_witness_ext,
        records=tuple(records),
        flags=flags,
    )


def _span_raw(tables, vecs) -> set:
    """All field-linear combinations of raw (x, y, z, t) vectors."""
    add, _, mul, *_ = tables
    span = {(0, 0, 0, 0)}
    for v in vecs:
        rows, multiples = ([add[a] for a in s] for s in span), [[mc[b] for b in v] for mc in mul]
        span = {tuple(map(list.__getitem__, r, cv)) for r in rows for cv in multiples}
    return span
