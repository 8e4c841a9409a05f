"""Brute-force ground truth over small finite fields.

Everything here goes through the defining conditions directly: GL(2,q) is
enumerated, isomorphisms are found by trying every invertible change of
basis, automorphisms and derivations by scanning all matrices. The census
partitions the whole evolution subset of a field's structure-constant space
into orbits, one pass over GL(2,q) per orbit. Seeding one orbit from each
key's canonical representative, the same pass collects the changes fixing
it, so the closed-form automorphism groups are compared with these
stabilizers, and the classifier and the derivation solver with the orbits
and the derivation scans.

The census's two q^6 loops run over plain-integer field tables: the orbit
pass evaluates the closed forms of `msc.transform_evolution` and drops an
image as soon as a middle entry is nonzero, and `brute_der` solves the
derivation condition, which is linear in the matrix, as a table lookup per
(x, y, z). Every stabilizer element is checked again through `aut_check`,
the generic product, so the oracle does not rest on the closed forms alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .autgroup import aut_check, aut_closed_form, aut_instantiate
from .classify import CanonicalKey, canonical_msc, classify
from .derivations import _der_residual_raw, der_solve, der_closed_form
from .fields import Fel, FieldCtx, InfiniteField, MixedFields, embed, field_make
from .msc import BasisChange, EvolutionMsc, Mat2, Msc, transform

_GL_MAX_ORDER = 32  # enumeration scans q^4 matrices
_CENSUS_MAX_ORDER = 16


class BudgetExceeded(ValueError):
    """The requested brute-force computation is beyond desk scale."""


def _check_scan(field: FieldCtx, what: str):
    if field.order is None:
        raise InfiniteField(f"{what} needs a finite field")
    if field.order > _GL_MAX_ORDER:
        raise BudgetExceeded(f"{what} over {field} refused")


def _gl2_raw(f: FieldCtx):
    """Raw entries ((a, b), (c, d)) of every invertible 2x2 matrix over a
    finite field, in lexicographic order."""
    _check_scan(f, "GL(2) enumeration")
    q = f.order
    sub, mul, z = f.sub, f.mul, f.zero
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if sub(mul(a, d), mul(b, c)) != z:
                        yield ((a, b), (c, d))


def _tables(f: FieldCtx):
    """Plain-integer add, sub and mul tables of a finite field, indexed
    [a][b] by raw encodings (raw zero is 0, raw one is 1)."""
    r = range(f.order)
    return tuple([[op(a, b) for b in r] for a in r] for op in (f.add, f.sub, f.mul))


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
    in `itertools.product` order of their raw entries (x, y, z, t).

    The residual is linear in D: it is x R1 + y R2 + z R3 + t R4 for the
    residuals R1..R4 of the four unit matrices. The t values are grouped by
    -t R4, so each (x, y, z) finds the t that cancel x R1 + y R2 + z R3 in one
    lookup. No linear algebra is involved, so the scan stays independent of
    `der_solve`."""
    if E.field is not field:
        raise MixedFields("structure constants must lie in the scanned field")
    _check_scan(field, "derivation scan")
    q = field.order
    add, sub, mul = _tables(field)
    # R[k][c]: the residual of c times the k-th unit matrix, as 8 raw entries
    R = []
    for u in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        r0, r1 = _der_residual_raw(E, (u[:2], u[2:]))
        R.append([[mc[v] for v in r0 + r1] for mc in mul])
    R1, R2, R3, R4 = R
    cancel: dict[tuple, list] = {}  # -t R4 -> the t giving it, ascending
    neg = sub[0]
    for t in range(q):
        cancel.setdefault(tuple(neg[v] for v in R4[t]), []).append(t)
    out = []
    for x in range(q):
        for y in range(q):
            xy = [add[u][v] for u, v in zip(R1[x], R2[y])]
            for z in range(q):
                ts = cancel.get(tuple(add[u][v] for u, v in zip(xy, R3[z])))
                if ts:
                    out.extend(Mat2(field, ((x, y), (z, t))) for t in ts)
    return out


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusRecord:
    key: CanonicalKey
    orbit_representatives: tuple  # EvolutionMsc
    orbit_size_in_evolution_subset: int
    brute_aut_order: int
    der_dim: int


@dataclass(frozen=True)
class CensusReport:
    field: FieldCtx
    gl2_order: int
    total_evolution_msc: int
    max_witness_ext: int
    records: tuple  # CensusRecord, sorted by key
    flags: dict  # keys_vs_orbits_ok, witnesses_ok, aut_closed_form_ok, der_closed_form_ok

    @property
    def ok(self) -> bool:
        return all(self.flags.values())


def _abcd_of_index(q: int, idx: int):
    out = []
    for _ in range(4):
        idx, r = divmod(idx, q)
        out.append(r)
    return tuple(out)


def _verify_witness(E: EvolutionMsc, res, max_ext: int):
    """Witness transported onto the canonical representative, within the
    allowed extension degree. Returns (ok, extension degree)."""
    F = E.field
    if res.witness is None:
        return False, None
    K = res.witness_field
    ext_deg = K.k // F.k
    if ext_deg > max_ext:
        return False, ext_deg
    # the canonical representative over F, carried to K, is the one over K
    emb = embed(F, K)
    return transform(E.over(emb), res.witness) == canonical_msc(res.key).over(emb), ext_deg


def _phase1_chunk(desc: dict, lo: int, hi: int, max_ext: int):
    """Classify and witness-check the evolution algebras with indices
    [lo, hi); returns plain picklable tuples."""
    F = field_make(desc)
    q = F.order
    out = []
    for idx in range(lo, hi):
        abcd = _abcd_of_index(q, idx)
        E = EvolutionMsc(F, abcd)
        res = classify(E)
        ok, _ = _verify_witness(E, res, max_ext)
        out.append((res.key.label, tuple(p.raw for p in res.key.params), ok))
    return out


def _gl_table(f: FieldCtx, tables) -> list:
    """GL(2,q) for the census orbit kernel: per g^-1 = ((x1, e1), (x2, e2)),
    its entries, the mul-table rows of x1*e1, x2*e2, x1^2, x2^2, e1^2, e2^2
    and delta^-1, and g^-1 itself."""
    _, sub, mul = tables
    out = []
    for m in _gl2_raw(f):
        (x1, e1), (x2, e2) = m
        mx1, mx2, me1, me2 = mul[x1], mul[x2], mul[e1], mul[e2]
        out.append((
            x1, e1, x2, e2,
            mul[mx1[e1]], mul[mx2[e2]],
            mul[mx1[x1]], mul[mx2[x2]], mul[me1[e1]], mul[me2[e2]],
            mul[f.inv(sub[mx1[e2]][mx2[e1]])],
            m,
        ))
    return out


def _orbit_raw(tables, gl, abcd):
    """Evolution images of one evolution algebra under the census group table
    `gl` (see `_gl_table`), and the g^-1 whose change fixes it.

    Each image comes from the closed forms of `msc.transform_evolution`; an
    image is dropped as soon as its middle entry a2, then b2, is nonzero, which
    needs no delta^-1 since delta is a unit."""
    add, sub, mul = tables
    a, b, c, d = abcd
    ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
    members, stab = set(), []
    for x1, e1, x2, e2, xe1, xe2, xx1, xx2, ee1, ee2, di, ginv in gl:
        u1 = sub[ma[e2]][mc[e1]]
        u2 = sub[mb[e2]][md[e1]]
        if add[xe1[u1]][xe2[u2]]:
            continue
        v1 = sub[mc[x1]][ma[x2]]
        v2 = sub[md[x1]][mb[x2]]
        if add[xe1[v1]][xe2[v2]]:
            continue
        m = (
            di[add[xx1[u1]][xx2[u2]]],
            di[add[ee1[u1]][ee2[u2]]],
            di[add[xx1[v1]][xx2[v2]]],
            di[add[ee1[v1]][ee2[v2]]],
        )
        members.add(m)
        if m == abcd:
            stab.append(ginv)
    return members, stab


def census(field: FieldCtx, max_witness_ext: int = 6, jobs: int = 1) -> CensusReport:
    """Classify every evolution algebra over a small finite field and check
    the classifier, automorphism and derivation machinery against brute force.

    One pass over GL(2,q) per orbit yields both the orbit partition and, for
    the orbit seeded from each key's canonical representative C, the changes
    fixing C: their g^-1 form Aut(C), which the closed forms are compared with.
    The pass computes images from the closed-form transform over field
    tables; each element of Aut(C) (C not E0) is then checked again through
    the generic product, and a miss clears `aut_closed_form_ok`.

    Flags:
      keys_vs_orbits_ok   every GL(2,q)-orbit has a constant key and holds
                          the canonical representative of no other key
      witnesses_ok        every witness lands exactly on its canonical form
                          within the allowed extension degree
      aut_closed_form_ok  instantiated closed forms match the stabilizers
                          found in the orbit pass, and the generic product
                          fixes C under each of them
      der_closed_form_ok  solver, closed forms and derivation scans agree

    The result is deterministic and independent of `jobs`.
    """
    if field.order is None:
        raise InfiniteField("census needs a finite field")
    q = field.order
    if q > _CENSUS_MAX_ORDER:
        raise BudgetExceeded(f"census over {field} refused (order {q} > {_CENSUS_MAX_ORDER})")
    F = field
    total = q**4
    desc = F.descriptor()

    # phase 1: classify + witness verification, partitionable over workers
    if jobs > 1:
        from multiprocessing import get_context  # imported only where a census forks

        bounds = [(total * w // jobs, total * (w + 1) // jobs) for w in range(jobs)]
        with get_context("fork").Pool(jobs) as pool:
            chunks = pool.starmap(
                _phase1_chunk, [(desc, lo, hi, max_witness_ext) for lo, hi in bounds]
            )
        raw_results = [r for chunk in chunks for r in chunk]
    else:
        raw_results = _phase1_chunk(desc, 0, total, max_witness_ext)

    keys = []
    witnesses_ok = True
    for label, params, ok in raw_results:
        keys.append(CanonicalKey(F, label, tuple(Fel(F, p) for p in params)))
        witnesses_ok = witnesses_ok and ok

    # phase 2: orbit partition of the evolution subset under the full group,
    # seeded from each key's canonical representative, then the rest in index
    # order
    tables = _tables(F)
    gl = _gl_table(F, tables)
    key_by_abcd = {_abcd_of_index(q, idx): keys[idx] for idx in range(total)}
    assigned: set[tuple] = set()
    orbits: list[tuple] = []  # (members, key)
    aut_of: dict[CanonicalKey, set] = {}
    shared = False  # some canonical representative lies in an earlier seed's orbit
    for k in sorted(set(keys), key=lambda kk: kk.sort_key()):
        C = canonical_msc(k).abcd
        members, stab = _orbit_raw(tables, gl, C)
        aut_of[k] = {Mat2(F, m) for m in stab}
        if C in assigned:
            shared = True
            continue
        orbits.append((members, k))
        assigned |= members
    for idx in range(total):
        abcd = _abcd_of_index(q, idx)
        if abcd not in assigned:
            members = _orbit_raw(tables, gl, abcd)[0]
            orbits.append((members, key_by_abcd[abcd]))
            assigned |= members
    keys_vs_orbits_ok = (
        not shared
        and len(assigned) == sum(len(members) for members, _ in orbits) == total
        and all(key_by_abcd[m] == k for members, k in orbits for m in members)
    )

    # phase 3: per-key aggregation, each orbit represented by its smallest
    # member in index order, and oracle comparisons
    index_of = lambda abcd: sum(v * q**i for i, v in enumerate(abcd))
    reps = sorted((min(map(index_of, members)), len(members), k) for members, k in orbits)
    by_key: dict[CanonicalKey, dict] = {}
    for rep, size, k in reps:
        slot = by_key.setdefault(k, {"reps": [], "size": 0})
        slot["reps"].append(rep)
        slot["size"] += size

    aut_ok = True
    der_ok = True
    records = []
    for k in sorted(by_key, key=lambda kk: kk.sort_key()):
        C = canonical_msc(k)
        solved = der_solve(C)
        der_scan = brute_der(C, F)
        span = _span_matrices(F, solved)
        if set(der_scan) != span:
            der_ok = False
        if k.label != "E0":
            inst = aut_instantiate(aut_closed_form(k, F), F)
            # the stabilizer against the closed forms, and again through the
            # generic product
            if set(inst) != aut_of[k] or not all(aut_check(C, m) for m in aut_of[k]):
                aut_ok = False
            if der_closed_form(k, F) != solved:
                der_ok = False
        records.append(
            CensusRecord(
                key=k,
                orbit_representatives=tuple(
                    EvolutionMsc(F, _abcd_of_index(q, rep)) for rep in by_key[k]["reps"]
                ),
                orbit_size_in_evolution_subset=by_key[k]["size"],
                brute_aut_order=len(aut_of[k]),
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
        gl2_order=len(gl),
        total_evolution_msc=total,
        max_witness_ext=max_witness_ext,
        records=tuple(records),
        flags=flags,
    )


def _span_matrices(f: FieldCtx, basis) -> set:
    """All field-linear combinations of a derivation basis, as matrices."""
    vecs = basis.vectors()
    if not vecs:
        return {Mat2(f, ((f.zero, f.zero), (f.zero, f.zero)))}
    out = set()
    for coeffs in itertools.product(range(f.order), repeat=len(vecs)):
        acc = [f.zero] * 4
        for c, v in zip(coeffs, vecs):
            if c != f.zero:
                for i in range(4):
                    acc[i] = f.add(acc[i], f.mul(c, v[i]))
        out.add(Mat2(f, ((acc[0], acc[1]), (acc[2], acc[3]))))
    return out
