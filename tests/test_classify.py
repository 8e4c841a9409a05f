import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import (
    GF,
    QQ,
    CanonicalKey,
    EvolutionMsc,
    Fel,
    InvalidParams,
    Mat2,
    MixedFields,
    Msc,
    NeedsExtension,
    Poly,
    canonical_msc,
    classify,
    det2x2,
    embed,
    iso_test,
    same_key,
    t2_to_t1,
    transform,
)
from evoalg.oracle import brute_iso, gl2_enumerate

from conftest import F3, F4, F5, F7, F9, basis_change_st, evolution_st

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
