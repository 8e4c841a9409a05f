import hashlib
import itertools
import json
from pathlib import Path

import pytest

from evoalg import (
    GF,
    QQ,
    BudgetExceeded,
    CanonicalKey,
    Fel,
    Mat2,
    MixedFields,
    Poly,
    UnsupportedKey,
    aut_check,
    aut_closed_form,
    aut_instantiate,
    aut_order,
    canonical_msc,
)
from evoalg import autgroup
from evoalg.fields import InfiniteField
from evoalg.oracle import brute_aut
from evoalg.serialize import aut_to_json, dumps, el_from_json, field_from_json

from conftest import F2, F3, F4, F5, F7, F9


def _keys_over(field, e1_pairs=(), e2_params=()):
    ks = [
        CanonicalKey(field, "E3"),
        CanonicalKey(field, "E4"),
        CanonicalKey(field, "E5"),
        CanonicalKey(field, "E6"),
        CanonicalKey(field, "E2", (0,)),
    ]
    for b in e2_params:
        ks.append(CanonicalKey(field, "E2", (Fel(field, b),)))
    for b, c in e1_pairs:
        ks.append(CanonicalKey(field, "E1", (Fel(field, b), Fel(field, c))))
    return ks


def all_keys(field):
    """Every canonical key instantiable over a small finite field."""
    q = field.order
    e1 = [
        (b, c)
        for b in range(q)
        for c in range(b, q)
        if field.mul(b, c) != field.one
    ]
    e2 = [b for b in range(1, q)]
    return _keys_over(field, e1, e2)


class TestAutCheck:
    def test_diag_1_minus1_fixes_e4(self):
        E = canonical_msc(CanonicalKey(QQ, "E4"))
        assert aut_check(E, Mat2.of(QQ, ((1, 0), (0, -1))))

    def test_swap_not_aut_of_e1_2_3(self):
        E = canonical_msc(CanonicalKey(F7, "E1", (2, 3)))
        assert not aut_check(E, Mat2.swap(F7))

    def test_identity_always(self):
        for E in [
            canonical_msc(CanonicalKey(F5, "E3")),
            canonical_msc(CanonicalKey(QQ, "E6")),
            canonical_msc(CanonicalKey(QQ, "E0")),
        ]:
            assert aut_check(E, Mat2.identity(E.field))

    def test_singular_matrix_rejected(self):
        E = canonical_msc(CanonicalKey(QQ, "E6"))
        assert not aut_check(E, Mat2.of(QQ, ((1, 1), (1, 1))))

    def test_mixed_fields(self):
        with pytest.raises(MixedFields):
            aut_check(canonical_msc(CanonicalKey(F5, "E3")), Mat2.identity(F7))


class TestClosedForm:
    def test_e6_over_gf5_has_q_q_minus_1_elements(self):
        desc = aut_closed_form(CanonicalKey(F5, "E6"), F5)
        assert desc.families[0].entries_text() == [["t^2", "s"], ["0", "t"]]
        assert desc.families[0].excluded_text() == ["t != 0"]
        assert len(aut_instantiate(desc, F5)) == 20

    def test_e4_char2_trivial(self):
        desc = aut_closed_form(CanonicalKey(F4, "E4"), F4)
        inst = aut_instantiate(desc, F4)
        assert inst == [Mat2.identity(F4)]

    def test_e5_over_q_family(self):
        desc = aut_closed_form(CanonicalKey(QQ, "E5"), QQ)
        fam = desc.families[0]
        assert fam.entries_text() == [["t", "1-t"], ["1-t", "t"]]
        assert fam.excluded_text() == ["t != 1/2"]
        m = fam.matrix_at(QQ.el(3))
        assert m == Mat2.of(QQ, ((3, -2), (-2, 3)))
        assert aut_check(canonical_msc(CanonicalKey(QQ, "E5")), m)
        with pytest.raises(ValueError):
            fam.matrix_at(QQ.el("1/2"))

    def test_e5_char2_has_no_exclusion(self):
        desc = aut_closed_form(CanonicalKey(F4, "E5"), F4)
        assert desc.families[0].excluded_text() == []
        assert len(aut_instantiate(desc, F4)) == 4

    def test_e1_equal_pair_has_swap(self):
        desc = aut_closed_form(CanonicalKey(F7, "E1", (2, 2)), F7)
        assert set(desc.finite_elements) == {Mat2.identity(F7), Mat2.swap(F7)}

    def test_e1_distinct_pair_trivial(self):
        desc = aut_closed_form(CanonicalKey(F7, "E1", (2, 3)), F7)
        assert desc.finite_elements == (Mat2.identity(F7),)

    def test_e3_over_q_lists_rational_points_and_missing_root(self):
        desc = aut_closed_form(CanonicalKey(QQ, "E3"), QQ)
        assert set(desc.finite_elements) == {Mat2.identity(QQ), Mat2.swap(QQ)}
        assert desc.missing_root == Poly(QQ, (1, 1, 1))

    def test_e3_past_the_size_budget_answers_as_over_q(self):
        # 2^129 = 2 (mod 3), so the cube roots of unity live in GF(2^258),
        # past the size budget; the group over the base field is {1, swap}
        F = GF(2, 129)
        desc = aut_closed_form(CanonicalKey(F, "E3"), F)
        assert desc.element_field is F and desc.missing_root == Poly(F, (1, 1, 1))
        assert aut_order(desc) == 2
        assert set(aut_instantiate(desc, F)) == {Mat2.identity(F), Mat2.swap(F)}

    def test_e3_root_field_is_quadratic_when_needed(self):
        desc = aut_closed_form(CanonicalKey(F5, "E3"), F5)
        assert desc.element_field.order == 25
        assert len(desc.finite_elements) == 6

    def test_e0_unsupported(self):
        with pytest.raises(UnsupportedKey):
            aut_closed_form(CanonicalKey(QQ, "E0"), QQ)

    def test_field_mismatch(self):
        with pytest.raises(MixedFields):
            aut_closed_form(CanonicalKey(F5, "E3"), F7)


class TestInstantiate:
    def test_e2_zero_over_gf7(self):
        desc = aut_closed_form(CanonicalKey(F7, "E2", (0,)), F7)
        got = aut_instantiate(desc, F7)
        want = {
            Mat2.of(F7, ((1, 0), (t, 1 - t))) for t in (0, 2, 3, 4, 5, 6)
        }
        assert set(got) == want and len(got) == 6

    def test_e3_over_gf7_matches_brute_force(self):
        # cube roots of unity mod 7: 1, 2, 4
        assert sorted(x for x in range(7) if pow(x, 3, 7) == 1) == [1, 2, 4]
        desc = aut_closed_form(CanonicalKey(F7, "E3"), F7)
        got = aut_instantiate(desc, F7)
        assert len(got) == 6
        assert set(got) == set(brute_aut(canonical_msc(CanonicalKey(F7, "E3")), F7))

    def test_e3_over_gf5_only_identity_and_swap(self):
        desc = aut_closed_form(CanonicalKey(F5, "E3"), F5)
        got = aut_instantiate(desc, F5)
        assert set(got) == {Mat2.identity(F5), Mat2.swap(F5)}

    def test_infinite_field_rejected(self):
        desc = aut_closed_form(CanonicalKey(QQ, "E5"), QQ)
        with pytest.raises(InfiniteField):
            aut_instantiate(desc, QQ)

    def test_listing_bounded_by_the_order(self, monkeypatch):
        # E6 over GF(7) has 42 automorphisms: listed at a bound of 42, refused
        # below it without listing any
        desc = aut_closed_form(CanonicalKey(F7, "E6"), F7)
        monkeypatch.setattr(autgroup, "_ENUMERATE_MAX", 42)
        assert len(aut_instantiate(desc, F7)) == aut_order(desc) == 42
        monkeypatch.setattr(autgroup, "_ENUMERATE_MAX", 41)
        with pytest.raises(BudgetExceeded, match="listing 42 automorphisms over GF.7. refused"):
            aut_instantiate(desc, F7)

    def test_e6_over_gf_101_refused(self):
        # q(q - 1) = 10,100 members, just past the bound of 10,000
        F = GF(101)
        with pytest.raises(BudgetExceeded):
            aut_instantiate(aut_closed_form(CanonicalKey(F, "E6"), F), F)

    @pytest.mark.parametrize("field", [F2, F4, F5, F9, GF(5, 2), GF(3, 3)], ids=str)
    @pytest.mark.parametrize("label", ["E20", "E5", "E6"])
    def test_listing_is_matrix_at_member_by_member(self, field, label):
        # the listing reads per-entry value tables; each member must be the
        # family's own matrix_at, in the order t then s
        key = CanonicalKey(field, "E2", (0,)) if label == "E20" else CanonicalKey(field, label)
        desc = aut_closed_form(key, field)
        (fam,) = desc.families
        ts = [t for t in field.elements() if fam.admissible_raw(t.raw)]
        ss = list(field.elements()) if fam.param_count == 2 else [None]
        want = [fam.matrix_at(t, s) for t in ts for s in ss]
        assert aut_instantiate(desc, field) == want
        q = field.order
        excluded = 0 if label == "E5" and field.char == 2 else 1
        assert len(want) == (q - excluded) * (q if label == "E6" else 1)

    def test_duplicate_free(self):
        for field in (F3, F4, F5, F9):
            for k in all_keys(field):
                got = aut_instantiate(aut_closed_form(k, field), field)
                assert len(got) == len(set(got))


class TestOracleEquality:
    @pytest.mark.parametrize("field", [F3, F4, F5])
    def test_all_keys_match_brute_force(self, field):
        for k in all_keys(field):
            inst = aut_instantiate(aut_closed_form(k, field), field)
            scan = brute_aut(canonical_msc(k), field)
            assert set(inst) == set(scan), k

    def test_sample_keys_gf7(self):
        for k in _keys_over(F7, [(2, 3), (2, 2), (0, 0)], [3]):
            inst = aut_instantiate(aut_closed_form(k, F7), F7)
            scan = brute_aut(canonical_msc(k), F7)
            assert set(inst) == set(scan), k


class TestGroupStructure:
    @pytest.mark.parametrize("field", [F4, F5, F7])
    def test_membership_and_invertibility(self, field):
        for k in all_keys(field):
            E = canonical_msc(k)
            for g in aut_instantiate(aut_closed_form(k, field), field):
                assert aut_check(E, g)
                assert not g.det().is_zero

    @pytest.mark.parametrize("field", [F4, F5, F7])
    def test_closure_under_product_and_inverse(self, field):
        for k in all_keys(field):
            got = set(aut_instantiate(aut_closed_form(k, field), field))
            for g in got:
                assert g.inverse() in got
            for g, h in itertools.product(list(got)[:12], repeat=2):
                assert g.mul(h) in got

    @pytest.mark.parametrize("field", [F3, F4, F5, F7, F9])
    def test_order_formulas(self, field):
        q = field.order

        def order_of(k):
            return len(aut_instantiate(aut_closed_form(k, field), field))

        assert order_of(CanonicalKey(field, "E6")) == q * (q - 1)
        assert order_of(CanonicalKey(field, "E2", (0,))) == q - 1
        assert order_of(CanonicalKey(field, "E5")) == (q if field.char == 2 else q - 1)
        assert order_of(CanonicalKey(field, "E4")) == (1 if field.char == 2 else 2)
        # x^2 + x + 1 splits iff q = 1 (mod 3); it degenerates in char 3
        if field.char == 3:
            want_e3 = 2
        elif q % 3 == 1:
            want_e3 = 6
        else:
            want_e3 = 2
        assert order_of(CanonicalKey(field, "E3")) == want_e3


GOLDEN = sorted((Path(__file__).parent / "data").glob("census_gf*.json"))


class TestOrderFromTheDescription:
    @pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
    def test_golden_census_aut_orders(self, path):
        # the count against the census's stabilizers and the enumeration,
        # for every key of every golden census (q <= 16)
        doc = json.loads(path.read_text())
        F = field_from_json(doc["field"])
        for rec in doc["records"]:
            k = rec["key"]
            if k["label"] == "E0":
                continue
            key = CanonicalKey(F, k["label"], [el_from_json(F, p) for p in k["params"]])
            desc = aut_closed_form(key, F)
            assert aut_order(desc) == rec["brute_aut_order"] == len(aut_instantiate(desc, F))

    def test_element_field_outside_the_base_field(self):
        # over GF(5) the cube roots of unity lie in GF(25): only the identity
        # and the swap have entries in GF(5)
        desc = aut_closed_form(CanonicalKey(F5, "E3"), F5)
        assert desc.element_field is not F5
        assert len(desc.finite_elements) == 6 and aut_order(desc) == 2

    def test_over_q(self):
        assert aut_order(aut_closed_form(CanonicalKey(QQ, "E3"), QQ)) == 2
        assert aut_order(aut_closed_form(CanonicalKey(QQ, "E4"), QQ)) == 2
        assert aut_order(aut_closed_form(CanonicalKey(QQ, "E6"), QQ)) is None


class TestAutDigest:
    """`aut_to_json` of every canonical key over GF(2), GF(3), GF(4), GF(5),
    GF(7) and GF(9) with its listed elements, and of a fixed list of keys
    over Q (E1 with an equal and an unequal pair, E2(0), E2(1), E3, E4, E5
    and E6), pinned by one sha256."""

    # recorded with the families held as polynomials in t and s
    DIGEST = "1dcb1d1939fa307da667322f63a83adcf7a98a1d9920f11c81cbbc01d87fcaf3"

    def docs(self):
        for field in (F2, F3, F4, F5, F7, F9):
            for k in all_keys(field):
                desc = aut_closed_form(k, field)
                yield aut_to_json(desc, aut_instantiate(desc, field))
        q_keys = [CanonicalKey(QQ, "E1", (2, 2)), CanonicalKey(QQ, "E1", (2, 3))]
        q_keys += [CanonicalKey(QQ, "E2", (b,)) for b in (0, 1)]
        q_keys += [CanonicalKey(QQ, label) for label in ("E3", "E4", "E5", "E6")]
        for k in q_keys:
            yield aut_to_json(aut_closed_form(k, QQ))

    def test_pinned_digest(self):
        digest = hashlib.sha256()
        for doc in self.docs():
            digest.update(dumps(doc).encode())
        assert digest.hexdigest() == self.DIGEST
