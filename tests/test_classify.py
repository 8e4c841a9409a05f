import hashlib
import importlib
import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import (
    GF,
    QQ,
    BasisChange,
    CanonicalKey,
    EvolutionMsc,
    Fel,
    InvalidParams,
    Mat2,
    MixedFields,
    Msc,
    NeedsExtension,
    Poly,
    FieldTooLarge,
    canonical_msc,
    classify,
    det2x2,
    embed,
    iso_test,
    same_key,
    t2_to_t1,
    transform,
)
from evoalg import fields as fields_mod
from evoalg.oracle import brute_iso, gl2_enumerate
from evoalg.serialize import dumps, result_to_json

from conftest import F3, F4, F5, F7, F9, basis_change_st, big_q_evolution_st, evolution_st

CL = importlib.import_module("evoalg.classify")

ALLOWED_TAGS = {"zero", "1.1", "1.2", "1.3", "1.4", "2.1.1", "2.1.2", "2.2.1", "2.2.2", "2.3"}


def all_evolution(field):
    q = field.order
    for idx in range(q**4):
        v, digits = idx, []
        for _ in range(4):
            v, r = divmod(v, q)
            digits.append(r)
        yield EvolutionMsc(field, tuple(digits))


def verified(E, res):
    """transform(E, witness) lands exactly on the canonical representative."""
    if res.witness is None:
        return False
    K = res.witness_field
    if K is E.field:
        return transform(E, res.witness) == canonical_msc(res.key)
    emb = embed(E.field, K)
    ek = EvolutionMsc(K, tuple(emb.raw(v) for v in E.abcd))
    kk = CanonicalKey(
        K, res.key.label, tuple(Fel(K, emb.raw(p.raw)) for p in res.key.params)
    )
    return transform(ek, res.witness) == canonical_msc(kk)


class TestExamples:
    def test_e1_over_q(self):
        E = EvolutionMsc.of(QQ, (2, 3, 5, 7))
        res = classify(E)
        assert res.key.label == "E1"
        assert [str(p) for p in res.key.params] == ["6/49", "35/4"]
        assert res.witness.ginv == Mat2.of(QQ, (("1/2", 0), (0, "1/7")))
        # direct evaluation of the closed-form entries confirms the target
        assert transform(E, res.witness) == Msc.of(
            QQ, ((1, 0, 0, "6/49"), ("35/4", 0, 0, 1))
        )

    @pytest.mark.parametrize("c", ["2", "-1", "5/3"])
    def test_e6c_goes_to_e2_c_cubed_inverse(self, c):
        E = EvolutionMsc.of(QQ, (0, 1, 1, c))
        res = classify(E)
        cc = QQ.el(c)
        assert res.key == CanonicalKey(QQ, "E2", (1 / (cc * cc * cc),))
        assert verified(E, res)

    def test_zero_algebra(self):
        res = classify(EvolutionMsc.of(QQ, (0, 0, 0, 0)))
        assert res.key.label == "E0" and res.trace == ("zero",)
        assert res.witness.ginv == Mat2.identity(QQ)

    def test_e3_witness_needs_cubic_extension_of_gf7(self):
        # xi1^3 = 1/(b c^2) = 1/18 = 1/4 = 2 (mod 7); cubes mod 7 are {0,1,6}
        assert {pow(x, 3, 7) for x in range(7)} == {0, 1, 6}
        E = EvolutionMsc.of(F7, (0, 2, 3, 0))
        res = classify(E)
        assert res.key.label == "E3"
        assert res.witness_field.order == 7**3
        assert verified(E, res)

    def test_e4_with_rational_square_root_in_gf7(self):
        # eta2^2 = 1/(ab) = 1/2 = 4 has the root 2
        E = EvolutionMsc.of(F7, (1, 2, 0, 0))
        res = classify(E)
        assert res.key.label == "E4"
        assert res.witness.ginv == Mat2.of(F7, ((1, 0), (0, 2)))
        assert transform(E, res.witness) == Msc.of(F7, ((1, 0, 0, 1), (0, 0, 0, 0)))

    def test_lambda_recorded_only_for_proportional_rows(self):
        res = classify(EvolutionMsc.of(QQ, (2, -8, 1, -4)))
        assert res.key.label == "E5" and str(res.lam) == "1/2"
        res = classify(EvolutionMsc.of(QQ, (2, 3, 5, 7)))
        assert res.lam is None

    @pytest.mark.parametrize(
        "abcd,trace",
        [
            ((2, 3, 5, 7), ("1.1",)),
            ((2, 3, 5, 0), ("1.2",)),
            ((0, 1, 1, 2), ("1.3",)),
            ((0, 2, 3, 0), ("1.4",)),
            ((1, 1, 1, 1), ("2.1.1",)),
            ((2, -8, 1, -4), ("2.1.2",)),
            ((0, 3, 0, 6), ("2.1.1",)),
            ((1, 2, 0, 0), ("2.2.1",)),
            ((3, 0, 0, 0), ("2.2.1",)),
            ((0, 3, 0, 0), ("2.2.2",)),
            ((0, 0, 1, 2), ("2.3", "2.2.1")),
            ((0, 0, 0, 5), ("2.3", "2.2.1")),
            ((0, 0, 3, 0), ("2.3", "2.2.2")),
            ((0, 0, 0, 0), ("zero",)),
        ],
    )
    def test_trace_pins(self, abcd, trace):
        res = classify(EvolutionMsc.of(QQ, abcd))
        assert res.trace == trace
        assert set(res.trace) <= ALLOWED_TAGS


class TestNeedsExtensionOverQ:
    def test_e3_cubic(self):
        res = classify(EvolutionMsc.of(QQ, (0, 2, 3, 0)))
        assert res.witness is None
        assert res.needs_extension == Poly(QQ, [Fraction(-1, 18), 0, 0, 1])
        assert res.key.label == "E3"  # the key never needs the root

    def test_e4_quadratic(self):
        res = classify(EvolutionMsc.of(QQ, (1, 3, 0, 0)))
        assert res.key.label == "E4"
        assert res.needs_extension == Poly(QQ, [Fraction(-1, 3), 0, 1])

    def test_e3_with_a_large_rational_cube_root(self):
        E = EvolutionMsc.of(QQ, (0, Fraction(1, 10**48), 1, 0))
        res = classify(E)
        assert res.needs_extension is None and verified(E, res)
        assert res.witness.ginv.entry(0, 0).raw == 10**16

    def test_e4_with_rational_root(self):
        res = classify(EvolutionMsc.of(QQ, (1, 1, 0, 0)))
        assert res.needs_extension is None and verified(E := EvolutionMsc.of(QQ, (1, 1, 0, 0)), res)

    @pytest.mark.parametrize(
        "abcd",
        [(2, 3, 5, 7), (1, 0, 0, 1), (2, 3, 5, 0), (0, 1, 1, 2), (2, -8, 1, -4), (0, 3, 0, 0), (3, 0, 0, 0)],
    )
    def test_rational_witnesses_for_e1_e2_e5_e6(self, abcd):
        res = classify(EvolutionMsc.of(QQ, abcd))
        assert res.needs_extension is None
        assert res.witness_field is QQ
        assert verified(EvolutionMsc.of(QQ, abcd), res)


class TestCanonicalMsc:
    def test_e5(self):
        k = CanonicalKey(QQ, "E5")
        assert canonical_msc(k) == Msc.of(QQ, ((1, 0, 0, -1), (-1, 0, 0, 1)))

    def test_e2_zero(self):
        k = CanonicalKey(QQ, "E2", (0,))
        assert canonical_msc(k) == Msc.of(QQ, ((1, 0, 0, 0), (1, 0, 0, 0)))

    def test_e0(self):
        assert canonical_msc(CanonicalKey(QQ, "E0")).is_zero()

    def test_invalid_e1_pair(self):
        with pytest.raises(InvalidParams):
            CanonicalKey(QQ, "E1", (2, "1/2"))

    def test_param_counts(self):
        with pytest.raises(InvalidParams):
            CanonicalKey(QQ, "E3", (1,))
        with pytest.raises(InvalidParams):
            CanonicalKey(QQ, "E2", ())


class TestSameKey:
    def test_e1_unordered(self):
        assert same_key(CanonicalKey(QQ, "E1", (2, 3)), CanonicalKey(QQ, "E1", (3, 2)))

    def test_e2_params_differ(self):
        assert not same_key(CanonicalKey(QQ, "E2", (1,)), CanonicalKey(QQ, "E2", (2,)))

    def test_e3(self):
        assert same_key(CanonicalKey(QQ, "E3"), CanonicalKey(QQ, "E3"))

    def test_mixed_fields(self):
        with pytest.raises(MixedFields):
            same_key(CanonicalKey(F5, "E3"), CanonicalKey(F7, "E3"))


class TestIsoTest:
    def test_e1_pair_symmetry_over_gf7(self):
        A = canonical_msc(CanonicalKey(F7, "E1", (2, 3)))
        B = EvolutionMsc.of(F7, (1, 3, 2, 1))
        w = iso_test(A, B)
        assert w is not None and transform(A, w) == B

    def test_unit_algebra_iso_e2_zero_over_q(self):
        # [[1,0,0,0],[0,0,0,0]] and E2(0): new basis f1 = e1+e2, f2 = -e2
        A = EvolutionMsc.of(QQ, (1, 0, 0, 0))
        B = canonical_msc(CanonicalKey(QQ, "E2", (0,)))
        w = iso_test(A, B)
        assert w is not None and transform(A, w) == B

    def test_distinct_keys_no_witness(self):
        A = canonical_msc(CanonicalKey(F5, "E4"))
        B = canonical_msc(CanonicalKey(F5, "E6"))
        assert iso_test(A, B) is None

    def test_common_extension_field(self):
        # two E4-class algebras whose witnesses need different square roots
        A = EvolutionMsc.of(F5, (1, 2, 0, 0))  # 1/(ab) = 3, not a square mod 5
        B = EvolutionMsc.of(F5, (1, 3, 0, 0))  # 1/(ab) = 2, not a square mod 5
        w = iso_test(A, B)
        assert w is not None
        K = w.field
        emb = embed(F5, K)
        ak = EvolutionMsc(K, tuple(emb.raw(v) for v in A.abcd))
        bk = EvolutionMsc(K, tuple(emb.raw(v) for v in B.abcd))
        assert transform(ak, w) == bk

    def test_needs_extension_over_q(self):
        A = EvolutionMsc.of(QQ, (0, 2, 3, 0))
        B = EvolutionMsc.of(QQ, (0, 1, 1, 0))
        with pytest.raises(NeedsExtension):
            iso_test(A, B)

    def test_mixed_fields(self):
        with pytest.raises(MixedFields):
            iso_test(canonical_msc(CanonicalKey(F5, "E3")), canonical_msc(CanonicalKey(F7, "E3")))


class TestKeyOnly:
    """classify(E, witness=False) runs the same tree without its root steps:
    the same key, trace and lambda, and no witness where one needs a root.
    iso_test falls back on it when a witness field is past the size budget."""

    @staticmethod
    def agree(E):
        full, key = classify(E), classify(E, witness=False)
        assert (key.key, key.trace, key.lam) == (full.key, full.trace, full.lam)
        if full.key.label in ("E3", "E4"):  # the keys of the three root steps
            assert (key.witness, key.needs_extension, key.witness_field) == (None, None, E.field)
        else:
            assert key.witness == full.witness

    @pytest.mark.parametrize("field", [F4, F5], ids=str)
    def test_every_algebra_over_small_fields(self, field):
        for E in all_evolution(field):
            self.agree(E)

    @settings(max_examples=150, deadline=None)
    @given(E=big_q_evolution_st())
    def test_q_heights_to_10_400(self, E):
        self.agree(E)

    def test_iso_answers_from_the_keys_past_the_budget(self):
        # x is no cube in GF(2^256): the E3 witness needs GF(2^768)
        F = GF(2, 256)
        e3, e6 = EvolutionMsc.of(F, (0, [0, 1], 1, 0)), EvolutionMsc.of(F, (0, 1, 0, 0))
        assert classify(e3, witness=False).key.label == "E3"
        assert iso_test(e3, e6) is None and iso_test(e6, e3) is None
        with pytest.raises(FieldTooLarge):
            iso_test(e3, EvolutionMsc.of(F, (0, 1, [0, 1], 0)))


class TestRawRootStep:
    """Over a finite field the tree hands the raw coefficients of each root
    problem to the cached solver and builds no Poly."""

    # every element of GF(4) is a square, so only its cube roots need an extension
    # a set's str follows the hash seed, so its id lists the labels sorted
    @pytest.mark.parametrize(
        "field, extended_labels",
        [(F4, {"E3"}), (GF(13), {"E3", "E4"})],
        ids=lambda v: "{%s}" % ", ".join(map(repr, sorted(v))) if isinstance(v, set) else str(v),
    )
    def test_classify_raw_builds_no_poly(self, monkeypatch, field, extended_labels):
        built, init = [], Poly.__init__
        monkeypatch.setattr(Poly, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        fields_mod._finite_root.cache_clear()
        extended = set()
        for E in all_evolution(field):
            label, _, ginv, K, *_ = CL._classify_raw(field, E.abcd)
            if K is not field:
                extended.add(label)
        assert built == [] and extended == extended_labels

    # 1/(b c^2) = 1 is a cube in GF(13), 1/2 = 7 is not
    @pytest.mark.parametrize("abcd", [(0, 1, 1, 0), (0, 2, 1, 0)])
    def test_classify_shares_the_finite_root_cache(self, abcd):
        F13 = GF(13)
        E = EvolutionMsc(F13, abcd)
        fields_mod._finite_root.cache_clear()
        first = classify(E)
        info = fields_mod._finite_root.cache_info()
        assert first.trace == ("1.4",) and (info.hits, info.misses) == (0, 1)
        assert classify(E) == first
        info = fields_mod._finite_root.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    # x^3 = 1 has the rational root 1, x^3 = 1/2 none
    @pytest.mark.parametrize("abcd, rational", [((0, 1, 1, 0), True), ((0, 2, 1, 0), False)])
    def test_classify_over_q_leaves_the_cache_alone(self, abcd, rational):
        before = fields_mod._finite_root.cache_info()
        res = classify(EvolutionMsc.of(QQ, abcd))
        assert (res.witness is not None, res.needs_extension is None) == (rational, rational)
        assert fields_mod._finite_root.cache_info() == before


class TestBasisSwapSymmetry:
    """Cases 1.3 and 2.1.1 with a = 0 are 1.2 and 2.1.1 with b = 0 after
    swapping e1 and e2: the swapped algebra (d, c, b, a) takes the other case,
    with the same params and the rows of the witness swapped."""

    @staticmethod
    def check(algebras):
        seen = {"1.3": 0, "2.1.1": 0}
        for E in algebras:
            res = classify(E)
            a, b, c, d = E.abcd
            if res.trace == ("2.1.1",) and res.key.label == "E2" and not a:
                want = ("2.1.1",)
            elif res.trace == ("1.3",):
                want = ("1.2",)
            else:
                continue
            seen[res.trace[0]] += 1
            swapped = classify(EvolutionMsc(E.field, (d, c, b, a)))
            assert swapped.trace == want and (want == ("1.2",) or not c)  # c is the swapped b
            assert swapped.key == res.key
            row1, row2 = swapped.witness.ginv.e
            assert res.witness.ginv.e == (row2, row1)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("field", [F3, F4, F5, F7, F9])
    def test_every_algebra_over_small_fields(self, field):
        self.check(all_evolution(field))

    def test_seeded_algebras_over_q(self):
        rng = random.Random(31)

        def entry():  # zero a third of the time, so both cases come up
            return Fraction(0) if rng.random() < 1 / 3 else Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))

        self.check(EvolutionMsc(QQ, tuple(entry() for _ in range(4))) for _ in range(500))


def monomial_pairs(field, rng, n):
    """n pairs (E, F) with F the image of E under a change of basis
    e1 -> x e1, e2 -> y e2, half of them with the basis swapped too; over Q
    only algebras whose witness is rational."""

    def el():
        if field.order is None:
            return Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        return rng.randrange(field.order)

    pairs = []
    while len(pairs) < n:
        E = EvolutionMsc(field, tuple(field.coerce(el()) for _ in range(4)))
        x, y = el(), el()
        if not x or not y or classify(E).needs_extension is not None:
            continue
        ginv = ((x, 0), (0, y)) if len(pairs) % 2 else ((0, x), (y, 0))
        pairs.append((E, transform(E, BasisChange.of(field, ginv)).to_evolution()))
    return pairs


def same_key_pairs(algebras, rng, n):
    """n pairs of distinct algebras with one key, drawn from `algebras`."""
    bykey = {}
    for E in algebras:
        bykey.setdefault(classify(E).key, []).append(E)
    groups = [g for g in bykey.values() if len(g) > 1]
    return [tuple(rng.sample(rng.choice(groups), 2)) for _ in range(n)]


class TestCompositeCheck:
    """iso_test checks its composite with the closed form of the action on
    evolution algebras. On seeded iso pairs, with the true witness of E and
    with that witness followed by a random change, it accepts exactly when
    the generic `transform` carries E onto F over the common field."""

    @staticmethod
    def verdicts(monkeypatch, E, F, m):
        """(iso_test accepts, transform(up(E), composite) == up(F)) when E's
        witness is followed by the change with g^-1 = m."""
        real = CL.classify

        def skewed(alg):
            res = real(alg)
            if alg is not E:
                return res
            ginv = res.witness.ginv.mul(Mat2.of(res.witness_field, m))
            return res._replace(witness=BasisChange(ginv))

        re, rf = skewed(E), real(F)
        common = CL._common_field(re.witness_field, rf.witness_field)
        up = lambda A: A.over(embed(A.field, common))
        composite = BasisChange(up(re.witness.ginv).mul(up(rf.witness.g)))
        generic = transform(up(E), composite) == up(F)
        monkeypatch.setattr(CL, "classify", skewed)
        try:
            got = CL.iso_test(E, F)
        except AssertionError:
            return False, generic
        finally:
            monkeypatch.undo()
        assert got == composite
        return True, generic

    def check(self, monkeypatch, pairs, rng):
        seen = set()  # verdicts on the skewed witnesses; most are rejected
        for E, F in pairs:
            assert self.verdicts(monkeypatch, E, F, ((1, 0), (0, 1))) == (True, True)
            p = E.field.char or 101
            while True:
                m = tuple(tuple(rng.randrange(p) for _ in range(2)) for _ in range(2))
                if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p:
                    break
            accepts, generic = self.verdicts(monkeypatch, E, F, m)
            assert accepts == generic, (E, F, m)
            seen.add(accepts)
        assert False in seen

    def test_over_q(self, monkeypatch):
        rng = random.Random(171)
        self.check(monkeypatch, monomial_pairs(QQ, rng, 30), rng)

    def test_over_gf7(self, monkeypatch):
        rng = random.Random(172)
        pairs = monomial_pairs(F7, rng, 20) + same_key_pairs(
            [EvolutionMsc(F7, tuple(rng.randrange(7) for _ in range(4))) for _ in range(300)], rng, 20
        )
        self.check(monkeypatch, pairs, rng)

    def test_e4_over_gf5_in_gf25(self, monkeypatch):
        rng = random.Random(173)
        e4 = [EvolutionMsc(F5, (a, b, 0, 0)) for a in range(1, 5) for b in range(1, 5)]
        e4 += [EvolutionMsc(F5, (0, 0, c, d)) for c in range(1, 5) for d in range(1, 5)]
        pairs = [
            (E, F)
            for E, F in same_key_pairs(e4, rng, 60)
            if CL._common_field(classify(E).witness_field, classify(F).witness_field).order == 25
        ]
        assert len(pairs) >= 20
        self.check(monkeypatch, pairs, rng)

    def test_e3_over_gf4(self, monkeypatch):
        rng = random.Random(174)
        e3 = [EvolutionMsc(F4, (0, b, c, 0)) for b in range(1, 4) for c in range(1, 4)]
        pairs = list(itertools.combinations(e3, 2))
        assert {classify(E).witness_field.order for E in e3} == {4, 64}
        self.check(monkeypatch, pairs, rng)


class TestT2Map:
    def test_e6c_nonzero(self):
        assert t2_to_t1(QQ, "E6c", ("2",)) == CanonicalKey(QQ, "E2", ("1/8",))

    def test_e6c_zero_is_the_missing_algebra(self):
        assert t2_to_t1(QQ, "E6", ("0",)).label == "E3"

    def test_plain_labels(self):
        assert t2_to_t1(QQ, "E1").label == "E2"
        assert t2_to_t1(QQ, "E1").params[0].is_zero
        assert t2_to_t1(QQ, "E2").label == "E4"
        assert t2_to_t1(QQ, "E3").label == "E5"
        assert t2_to_t1(QQ, "E4").label == "E6"

    def test_e5ab(self):
        assert t2_to_t1(QQ, "E5ab", (2, 3)) == CanonicalKey(QQ, "E1", (2, 3))
        with pytest.raises(InvalidParams):
            t2_to_t1(QQ, "E5", (2, "1/2"))

    def test_t2_forms_classify_to_the_mapped_keys(self):
        # the displayed representatives of the six-family list classify to
        # exactly the keys the translation promises
        forms = {
            "E1": (1, 0, 0, 0),
            "E2": (1, 1, 0, 0),
            "E3": (1, -1, 1, -1),
            "E4": (0, 0, 1, 0),
        }
        for label, abcd in forms.items():
            got = classify(EvolutionMsc.of(QQ, abcd)).key
            assert same_key(got, t2_to_t1(QQ, label))
        got = classify(EvolutionMsc.of(QQ, (1, 3, 2, 1))).key
        assert same_key(got, t2_to_t1(QQ, "E5", (2, 3)))
        got = classify(EvolutionMsc.of(QQ, (0, 1, 1, 5))).key
        assert same_key(got, t2_to_t1(QQ, "E6", (5,)))


class TestInvariantsSmallFields:
    @pytest.mark.parametrize("field", [F3, F4, F5])
    def test_witness_validity_exhaustive(self, field):
        for E in all_evolution(field):
            res = classify(E)
            assert verified(E, res), (E, res.key)
            if res.key.label == "E1":
                s1, s2 = res.key.params
                assert (s1 * s2).raw != field.one

    def test_key_invariance_exhaustive_gf3(self):
        changes = list(gl2_enumerate(F3))
        for E in all_evolution(F3):
            k = classify(E).key
            for w in changes:
                B = transform(E, w)
                try:
                    E2 = B.to_evolution()
                except ValueError:
                    continue
                assert classify(E2).key == k

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_key_invariance_random_gf5(self, data):
        E = data.draw(evolution_st(F5))
        w = data.draw(basis_change_st(F5))
        B = transform(E, w)
        try:
            E2 = B.to_evolution()
        except ValueError:
            return
        assert classify(E2).key == classify(E).key

    @pytest.mark.parametrize("field", [F3, F4, F5, F7])
    def test_idempotence(self, field):
        keys = [
            CanonicalKey(field, "E0"),
            CanonicalKey(field, "E3"),
            CanonicalKey(field, "E4"),
            CanonicalKey(field, "E5"),
            CanonicalKey(field, "E6"),
            CanonicalKey(field, "E2", (0,)),
            CanonicalKey(field, "E2", (2,)),
            CanonicalKey(field, "E1", (0, 0)),
        ]
        # first distinct pair with product != 1 in this field
        pair = next(
            (x, y)
            for x in range(field.order)
            for y in range(x + 1, field.order)
            if field.mul(x, y) != field.one
        )
        keys.append(CanonicalKey(field, "E1", (Fel(field, pair[0]), Fel(field, pair[1]))))
        for k in keys:
            assert classify(canonical_msc(k)).key == k

    def test_idempotence_over_q(self):
        for k in [
            CanonicalKey(QQ, "E1", ("6/49", "35/4")),
            CanonicalKey(QQ, "E2", ("-5/3",)),
            CanonicalKey(QQ, "E5"),
        ]:
            assert classify(canonical_msc(k)).key == k

    def test_det_classes_exhaustive_gf3(self):
        for E in all_evolution(F3):
            if E.is_zero():
                continue
            label = classify(E).key
            nonzero_det = not det2x2(E).is_zero
            in_det_class = label.label == "E1" or label.label == "E3" or (
                label.label == "E2" and not label.params[0].is_zero
            )
            assert in_det_class == nonzero_det


class TestResultDigest:
    """`result_to_json` of a seeded set of algebras over Q, GF(p) and
    GF(p^k), reaching every trace tag, the E1 pair in both orders, witnesses
    in extensions and missing roots over Q, pinned by one sha256."""

    FIELDS = (QQ, GF(2), GF(7), GF(13), GF(101), GF(2, 3), GF(3, 2), GF(5, 2))
    # recorded with the classifier that built each g^-1 from matrix products
    DIGEST = "3c1395d6f70dbe0beddcf11312d9e1ce1177fb220d8943e05114d8fa523b3288"

    def algebras(self):
        rng = random.Random(16)

        def el(f):
            if rng.random() < 0.3:
                return f.zero
            if f.order is None:
                return Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            return rng.randrange(f.order)

        for i in range(2400):
            f = self.FIELDS[i % len(self.FIELDS)]
            a, b, c, d = (el(f) for _ in range(4))
            shape = rng.randrange(3)
            if shape == 1:  # proportional rows
                lam = el(f)
                c, d = f.mul(lam, a), f.mul(lam, b)
            elif shape == 2 and f.order is None:  # rational roots more often
                c, d = a * a, b * b
            yield EvolutionMsc(f, (a, b, c, d))

    def test_pinned_digest(self):
        digest, tags, kinds = hashlib.sha256(), set(), set()
        for E in self.algebras():
            res = classify(E)
            digest.update(dumps(result_to_json(res)).encode())
            tags.update(res.trace)
            if res.key.label == "E1" and res.witness.ginv.e[0][0] == E.field.zero:
                kinds.add("E1 pair swapped")
            if res.needs_extension is not None:
                kinds.add("no rational root")
            if res.witness_field is not E.field:
                kinds.add("witness in an extension")
        assert tags == ALLOWED_TAGS
        assert kinds == {"E1 pair swapped", "no rational root", "witness in an extension"}
        assert digest.hexdigest() == self.DIGEST


class TestOracleAgreementGF3:
    def test_same_key_iff_iso_witness(self):
        algebras = [E for E in all_evolution(F3) if not E.is_zero()]
        results = {E: classify(E) for E in algebras}
        for A, B in itertools.combinations(algebras, 2):
            same = same_key(results[A].key, results[B].key)
            w = iso_test(A, B)
            assert (w is not None) == same

    def test_base_field_brute_force_respects_keys(self):
        algebras = [E for E in all_evolution(F3) if not E.is_zero()]
        keys = {E: classify(E).key for E in algebras}
        rng = random.Random(5)
        pairs = [tuple(rng.sample(algebras, 2)) for _ in range(80)]
        for A, B in pairs:
            found = brute_iso(A, B, F3)
            if found is not None:
                assert same_key(keys[A], keys[B])

    def test_extension_brute_force_sample(self):
        algebras = [E for E in all_evolution(F3) if not E.is_zero()]
        keys = {E: classify(E).key for E in algebras}
        bykey = {}
        for E in algebras:
            bykey.setdefault(keys[E].sort_key(), []).append(E)
        groups = sorted(bykey.values(), key=len, reverse=True)
        # same key: a witness must exist over the quadratic extension (all
        # GF(3) witness fields are GF(3) or GF(9))
        same_pairs = [(g[0], g[1]) for g in groups if len(g) >= 2][:6]
        for A, B in same_pairs:
            assert brute_iso(A, B, F9) is not None
        # different keys: no isomorphism even over the extension
        diff_pairs = [(groups[i][0], groups[i + 1][0]) for i in range(6)]
        for A, B in diff_pairs:
            assert brute_iso(A, B, F9) is None


_BROKEN_CHECKS = """
import importlib
from evoalg import GF, QQ, BasisChange, EvolutionMsc, Mat2, embed

A, C = (importlib.import_module("evoalg." + m) for m in ("autgroup", "classify"))

print("debug", __debug__)
E, F = EvolutionMsc.of(QQ, (1, 2, 3, 5)), EvolutionMsc.of(QQ, (1, 2, 3, 5))  # equal, not one object
classify = C.classify


def broken(alg):  # E's witness times diag(2, 1), which no automorphism of E is
    res = classify(alg)
    if alg is not E:
        return res
    ginv = res.witness.ginv.mul(Mat2.of(QQ, ((2, 0), (0, 1))))
    return res._replace(witness=BasisChange(ginv))


C.classify = broken
try:
    C.iso_test(E, F)
except AssertionError as e:
    print("iso_test:", e)
F4, F16 = GF(2, 2), GF(2, 4)
y = embed(F4, F16).raw(2)  # the generator of GF(4): y^4 = y, not in GF(2)
key = classify(EvolutionMsc.of(F4, (0, 1, 1, 0))).key
desc = A.AutDescription(key, F4, F16, (Mat2(F16, ((y, 0), (0, y))),), ())
try:
    A.aut_order(desc)
except AssertionError as e:
    print("aut_order:", e)
"""


class TestChecksUnderOptimize:
    """The composite witness check of iso_test and the prime-field check of
    the automorphism elements hold under `python -O`, which drops asserts."""

    def test_broken_composite_and_entry_raise(self):
        import evoalg

        src = str(pathlib.Path(evoalg.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_CHECKS], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "debug False",
            "iso_test: witness composition failed",
            "aut_order: entry outside the prime field",
        ]
