"""Output checks, run outside the timed region. Each returns None when the
output is right and a one-line reason when it is not."""

from __future__ import annotations

from fractions import Fraction

from common import rational_root_exists


def _lift(ev, key, K):
    """The key's canonical representative over the extension K."""
    F = key.field
    if K is F:
        return ev.canonical_msc(key)
    emb = ev.embed(F, K)
    key_k = ev.CanonicalKey(K, key.label, tuple(ev.Fel(K, emb.raw(p.raw)) for p in key.params))
    return ev.canonical_msc(key_k)


def _embed_algebra(ev, E, K):
    if K is E.field:
        return E
    emb = ev.embed(E.field, K)
    return ev.EvolutionMsc(K, tuple(emb.raw(v) for v in E.abcd))


def expected_radicand(E, tag):
    """(u, n) when classifying E over Q needs a rational root of x^n = u,
    computed from the entries; None when no root is needed."""
    a, b, c, d = E.abcd
    if tag == "1.4":
        return Fraction(1) / (b * c * c), 3
    if tag in ("2.2.1", "2.3"):
        A, B = (d, c) if tag == "2.3" else (a, b)
        return (Fraction(1) / (A * B), 2) if A != 0 and B != 0 else None
    if tag == "2.1.1" and a != 0 and b != 0:
        lam = c / a
        s = a + b * lam * lam
        return b * lam * lam / (a * s * s), 2
    return None


def check_classify(ev, E, tag, res):
    if res.trace[0] != tag:
        return f"trace {res.trace} for an input generated as {tag}"
    if E.field.order is None:
        need = expected_radicand(E, tag)
        expect_ext = need is not None and not rational_root_exists(*need)
        if res.needs_extension is not None:
            if not expect_ext:  # the direction of the known float cube-root defect
                return "Q-root: needs_extension although the exact integer root exists"
            return None if res.witness is None else "witness given alongside needs_extension"
        if expect_ext:
            return _witness_reason(ev, E, res) or "witness given although no rational root exists"
    return _witness_reason(ev, E, res)


def _witness_reason(ev, E, res):
    """The witness, in its own field, carries E exactly onto the canonical form."""
    if res.witness is None:
        return "no witness"
    K = res.witness_field
    if ev.transform(_embed_algebra(ev, E, K), res.witness) != _lift(ev, res.key, K):
        return "witness does not land on the canonical representative"
    return None


# label of the canonical form each generated shape must reach; E1 and E2 stand
# for any parameters, since the derivation algebra only sees whether the E2
# parameter is zero, and generated 1.2/1.3 inputs have a nonzero one
_LABEL = {"1.1": ("E1", (0, 0)), "1.2": ("E2", (1,)), "1.3": ("E2", (1,)), "1.4": ("E3", ()),
          "2.2.1": ("E4", ()), "2.3": ("E4", ()), "2.1.1": ("E4", ()), "2.2.2": ("E6", ()),
          "2.1.2": ("E5", ())}


def check_der(ev, E, tag, basis):
    """Dimension against the closed form of the label the shape reaches (not
    taken from classify, whose witness search can fail on Q)."""
    if tag == "zero":
        want = 4
    else:
        label, params = _LABEL[tag]
        want = ev.der_closed_form(ev.CanonicalKey(E.field, label, params), E.field).dim
    if basis.dim != want:
        return f"der dim {basis.dim}, closed form says {want}"
    if not all(ev.der_check(E, D) for D in basis.basis):
        return "a basis element fails der_check"
    return None


def check_aut(ev, E, out):
    key, desc, elements = out
    if key.label == "E0":
        return None if desc is None else "E0 got a closed-form description"
    F = E.field
    C = ev.canonical_msc(key)
    K = desc.element_field
    CK = _lift(ev, key, K)
    mats = list(desc.finite_elements)
    bad = [m for m in mats if not ev.aut_check(CK, m)]
    if F.order is None:
        for fam in desc.families:
            t = next(ev.Fel(F, Fraction(v)) for v in (2, 3, 5, 7) if fam.admissible_raw(Fraction(v), Fraction(7)))
            s = ev.Fel(F, Fraction(7)) if fam.param_count == 2 else None
            mats.append(fam.matrix_at(t, s))
            if not ev.aut_check(C, mats[-1]):
                bad.append(mats[-1])
    else:
        if not elements:
            return "empty automorphism group"
        bad += [g for g in elements if not ev.aut_check(C, g)]
    return f"{len(bad)} element(s) fail aut_check" if bad else None


def check_iso(ev, E, F, out):
    """out is a basis change, None, or the string 'NeedsExtension'."""
    if out == "NeedsExtension":
        if E.field.order is not None:
            return "NeedsExtension over a finite field"
        re, rf = ev.classify(E), ev.classify(F)
        if not ev.same_key(re.key, rf.key):
            return "NeedsExtension for algebras with different keys"
        needs = [expected_radicand(X, r.trace[0]) for X, r in ((E, re), (F, rf))]
        if all(n is None or rational_root_exists(*n) for n in needs):
            return "Q-root: iso_test needs an extension although the exact roots are rational"
        return None
    if out is None:
        same = ev.same_key(ev.classify(E).key, ev.classify(F).key)
        return "no isomorphism found for equal keys" if same else None
    K = out.field
    if ev.transform(_embed_algebra(ev, E, K), out) != _embed_algebra(ev, F, K):
        return "composite does not carry E onto F"
    return None


def check_field_witness(ev, E, res, want_ext_modulus=None):
    """Large-field ops: witness lands on the canonical form, and the witness
    field carries the recorded modulus."""
    K = res.witness_field
    if want_ext_modulus is not None and list(getattr(K, "modulus", ())) != want_ext_modulus:
        return f"witness field modulus {getattr(K, 'modulus', None)} != recorded {want_ext_modulus}"
    return _witness_reason(ev, E, res)
