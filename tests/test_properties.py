"""Cross-module invariants beyond the per-module suites: characteristic 2/3
regimes under random basis changes, isomorphism witnesses on constructed
same-key pairs, witness-field minimality, serialization round-trips."""

import json
import random

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
    Mat2,
    canonical_msc,
    census,
    classify,
    embed,
    iso_test,
    same_key,
    transform,
)
from evoalg.serialize import (
    algebra_from_json,
    algebra_to_json,
    census_to_json,
    dumps,
    el_from_json,
    el_to_json,
    matrix_from_json,
    matrix_to_json,
    result_to_json,
)

from evoalg.fields import _int_nthroot

from conftest import F3, F4, F5, F7, F9, basis_change_st, big_q_evolution_st, evolution_st, fel_st


class TestKeyInvarianceSmallCharacteristic:
    @pytest.mark.parametrize("field", [F4, F9])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_transforms_preserve_keys(self, field, data):
        E = data.draw(evolution_st(field))
        w = data.draw(basis_change_st(field))
        B = transform(E, w)
        try:
            E2 = B.to_evolution()
        except ValueError:
            return
        assert classify(E2).key == classify(E).key


class TestIsoOnConstructedPairs:
    @pytest.mark.parametrize("field", [F3, F4, F5, F9])
    def test_diagonal_images_are_isomorphic_with_verified_witness(self, field):
        rng = random.Random(field.order)
        q = field.order
        for _ in range(60):
            E = EvolutionMsc(field, tuple(rng.randrange(q) for _ in range(4)))
            x, y = rng.randrange(1, q), rng.randrange(1, q)
            if rng.random() < 0.5:
                w = BasisChange(Mat2(field, ((x, 0), (0, y))))
            else:
                w = BasisChange(Mat2(field, ((0, x), (y, 0))))
            F = transform(E, w).to_evolution()  # stays in evolution form
            assert same_key(classify(E).key, classify(F).key)
            witness = iso_test(E, F)
            assert witness is not None  # iso_test verifies internally

    def test_iso_with_itself(self):
        for E in [
            EvolutionMsc.of(F5, (1, 2, 0, 0)),
            EvolutionMsc.of(QQ, (2, 3, 5, 7)),
            EvolutionMsc.of(F4, (0, 1, 1, 0)),
        ]:
            w = iso_test(E, E)
            assert w is not None


class TestWitnessFieldMinimality:
    def test_e4_square_vs_nonsquare_over_gf3(self):
        # 1/(ab) = 1 is a square: witness stays rational
        res = classify(EvolutionMsc.of(F3, (1, 1, 0, 0)))
        assert res.witness_field is F3
        # 1/(ab) = 1/2 = 2 is not a square mod 3: quadratic extension
        assert {F3.mul(x, x) for x in range(3)} == {0, 1}
        res = classify(EvolutionMsc.of(F3, (1, 2, 0, 0)))
        assert res.witness_field.order == 9

    def test_e3_never_extends_when_cubing_is_onto(self):
        # |GF(5)*| = 4 is coprime to 3, so every element is a cube
        assert {pow(x, 3, 5) for x in range(5)} == set(range(5))
        for b in range(1, 5):
            for c in range(1, 5):
                res = classify(EvolutionMsc.of(F5, (0, b, c, 0)))
                assert res.key.label == "E3" and res.witness_field is F5

    def test_e3_extends_by_degree_three_over_gf7(self):
        res = classify(EvolutionMsc.of(F7, (0, 2, 3, 0)))
        assert res.witness_field.k == 3

    def test_char2_squares_onto_so_e4_never_extends(self):
        for a in range(1, 4):
            for b in range(1, 4):
                res = classify(EvolutionMsc(F4, (a, b, 0, 0)))
                assert res.key.label == "E4" and res.witness_field is F4


class TestSerializationRoundTrips:
    @pytest.mark.parametrize("field", [QQ, F5, F4, F9])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_element_roundtrip(self, field, data):
        x = data.draw(fel_st(field))
        assert el_from_json(field, el_to_json(x)) == x

    @pytest.mark.parametrize("field", [QQ, F5, F4])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_algebra_roundtrip(self, field, data):
        E = data.draw(evolution_st(field))
        f2, E2 = algebra_from_json(json.loads(dumps(algebra_to_json(E))))
        assert f2 is field and E2 == E

    def test_matrix_roundtrip(self):
        m = Mat2.of(F9, (([1, 2], [0, 1]), ([2, 0], [1, 0])))
        assert matrix_from_json(F9, matrix_to_json(m)) == m

    def test_classification_result_roundtrip_through_json(self):
        E = EvolutionMsc.of(QQ, (2, 3, 5, 7))
        doc = json.loads(dumps(result_to_json(classify(E))))
        w = matrix_from_json(QQ, doc["witness"])
        target = canonical_msc(
            CanonicalKey(QQ, doc["key"]["label"], tuple(doc["key"]["params"]))
        )
        assert transform(E, BasisChange(w)) == target

    def test_census_json_is_stable(self):
        a = dumps(census_to_json(census(F3, 6)))
        b = dumps(census_to_json(census(F3, 6)))
        assert a == b


class TestLargeRationals:
    """Heights up to 10^400 (and past it, in the shapes built from a root)."""

    @settings(max_examples=40, deadline=None)
    @given(big_q_evolution_st())
    def test_witness_lands_exactly(self, E):
        res = classify(E)
        if res.witness is not None:
            assert transform(E, res.witness) == canonical_msc(res.key)

    @settings(max_examples=40, deadline=None)
    @given(big_q_evolution_st())
    def test_needs_extension_only_without_a_rational_root(self, E):
        res = classify(E)
        poly = res.needs_extension
        if poly is None:
            return
        assert res.witness is None
        *low, lead = poly.coeffs  # x^n - u
        n, u = poly.degree, -low[0] / lead
        assert not any(low[1:])
        rootless = (
            _int_nthroot(abs(u.numerator), n) is None or _int_nthroot(u.denominator, n) is None
        )
        assert rootless or (u < 0 and n % 2 == 0)


class TestEmbeddingTransportsClassification:
    @pytest.mark.parametrize("field,ext_k", [(F3, 2), (F5, 2), (F4, 2)])
    def test_keys_transport_along_embeddings(self, field, ext_k):
        # the canonical key of the embedded algebra is the embedded key
        K = GF(field.char, field.k * ext_k)
        emb = embed(field, K)
        rng = random.Random(9)
        for _ in range(40):
            E = EvolutionMsc(field, tuple(rng.randrange(field.order) for _ in range(4)))
            k1 = classify(E).key
            EK = EvolutionMsc(K, tuple(emb.raw(v) for v in E.abcd))
            k2 = classify(EK).key
            assert k2.label == k1.label
            assert tuple(emb.raw(p.raw) for p in k1.params) == tuple(
                p.raw for p in k2.params
            )
