import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from evoalg import (
    GF,
    QQ,
    BasisChange,
    BudgetExceeded,
    CanonicalKey,
    EvolutionMsc,
    Fel,
    InfiniteField,
    Mat2,
    Msc,
    brute_aut,
    brute_der,
    brute_iso,
    canonical_msc,
    census,
    classify,
    gl2_enumerate,
    is_evolution,
    transform,
)
from evoalg import fields, oracle
from evoalg.derivations import der_check
from evoalg.msc import transform_evolution_raw
from evoalg.serialize import census_to_csv, census_to_json, dumps

from conftest import F2, F3, F4, F5, F7


class TestGL2:
    @pytest.mark.parametrize("field,count", [(F2, 6), (F3, 48), (F4, 180), (F5, 480), (F7, 2016)])
    def test_counts(self, field, count):
        q = field.order
        assert count == (q * q - 1) * (q * q - q)
        got = list(gl2_enumerate(field))
        assert len(got) == count

    def test_unique_and_invertible(self):
        got = list(gl2_enumerate(F3))
        assert len({bc.ginv for bc in got}) == len(got)
        for bc in got:
            assert not bc.ginv.det().is_zero

    def test_first_element_is_the_swap(self):
        # lexicographic scan order: (0,1,1,0) is the first invertible matrix
        first = next(iter(gl2_enumerate(F5)))
        assert first.ginv == Mat2.swap(F5)

    def test_infinite_field(self):
        with pytest.raises(InfiniteField):
            list(gl2_enumerate(QQ))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            list(gl2_enumerate(GF(37)))


class TestBruteIso:
    def test_self_iso_returns_stabilizer_element(self):
        E = canonical_msc(CanonicalKey(F5, "E6"))
        w = brute_iso(E, E, F5)
        assert w is not None
        assert transform(E, w) == E

    def test_e1_pair_swap(self):
        A = canonical_msc(CanonicalKey(F7, "E1", (2, 3)))
        B = EvolutionMsc.of(F7, (1, 3, 2, 1))
        w = brute_iso(A, B, F7)
        assert w is not None and transform(A, w) == B

    def test_distinct_canonical_forms(self):
        A = canonical_msc(CanonicalKey(F5, "E4"))
        B = canonical_msc(CanonicalKey(F5, "E6"))
        assert brute_iso(A, B, F5) is None

    def test_extension_scan(self):
        # not GF(3)-isomorphic (different square classes) but GF(9)-isomorphic
        A = EvolutionMsc.of(F3, (1, 1, 0, 0))
        B = EvolutionMsc.of(F3, (1, 2, 0, 0))
        assert brute_iso(A, B, F3) is None
        F9 = GF(3, 2)
        w = brute_iso(A, B, F9)
        assert w is not None


class TestBruteAut:
    def test_e4_gf7(self):
        got = brute_aut(canonical_msc(CanonicalKey(F7, "E4")), F7)
        assert set(got) == {Mat2.identity(F7), Mat2.of(F7, ((1, 0), (0, -1)))}

    def test_e6_gf7_count(self):
        got = brute_aut(canonical_msc(CanonicalKey(F7, "E6")), F7)
        assert len(got) == 42

    def test_e4_gf4_trivial(self):
        got = brute_aut(canonical_msc(CanonicalKey(F4, "E4")), F4)
        assert got == [Mat2.identity(F4)]

    def test_closed_under_product_and_inverse(self):
        got = set(brute_aut(canonical_msc(CanonicalKey(F5, "E2", (0,))), F5))
        for g in got:
            assert g.inverse() in got
        for g, h in itertools.product(got, repeat=2):
            assert g.mul(h) in got

    def test_orbit_stabilizer(self):
        for field, k in [
            (F3, CanonicalKey(F3, "E6")),
            (F3, CanonicalKey(F3, "E3")),
            (F5, CanonicalKey(F5, "E4")),
            (F5, CanonicalKey(F5, "E5")),
        ]:
            E = canonical_msc(k)
            orbit = {transform(E, bc) for bc in gl2_enumerate(field)}
            stab = brute_aut(E, field)
            gl = (field.order**2 - 1) * (field.order**2 - field.order)
            assert len(orbit) * len(stab) == gl


def der_scan_reference(E, field):
    """The derivation scan by its definition: every matrix, in
    itertools.product order of (x, y, z, t), that passes der_check."""
    mats = (Mat2(field, (m[:2], m[2:])) for m in itertools.product(range(field.order), repeat=4))
    return [D for D in mats if der_check(E, D)]


def census_keys(field):
    q = field.order
    abcds = itertools.product(range(q), repeat=4)
    return sorted({classify(EvolutionMsc(field, abcd)).key for abcd in abcds}, key=lambda k: k.sort_key())


class TestBruteDer:
    @pytest.mark.parametrize("field", [F3, F4, F5])
    def test_matches_the_definition_for_every_key(self, field):
        for k in census_keys(field):
            E = canonical_msc(k)
            assert brute_der(E, field) == der_scan_reference(E, field), k

    def test_matches_the_definition_off_canonical_form(self):
        algebras = [EvolutionMsc.of(F5, abcd) for abcd in [(1, 2, 3, 4), (0, 1, 1, 0), (2, 0, 0, 0)]]
        algebras += [Msc.of(F5, ((1, 2, 3, 4), (0, 1, 2, 3))), Msc.of(F5, ((0, 1, 4, 0), (1, 0, 0, 0)))]
        for E in algebras:
            assert brute_der(E, F5) == der_scan_reference(E, F5)

    def test_degenerate_pair_only_zero(self):
        E = canonical_msc(CanonicalKey(F5, "E1", (2, 4)))
        got = brute_der(E, F5)
        assert got == [Mat2.of(F5, ((0, 0), (0, 0)))]

    def test_e6_gf3_nine_matrices(self):
        got = brute_der(canonical_msc(CanonicalKey(F3, "E6")), F3)
        assert len(got) == 9  # dimension 2

    def test_zero_algebra_all_matrices_in_product_order(self):
        got = brute_der(canonical_msc(CanonicalKey(F3, "E0")), F3)
        assert [D.e for D in got] == [(m[:2], m[2:]) for m in itertools.product(range(3), repeat=4)]

    def test_e5_gf4_four_matrices(self):
        got = brute_der(canonical_msc(CanonicalKey(F4, "E5")), F4)
        assert len(got) == 4  # dimension 1


def scaled(field, m, mu):
    """The raw 2x2 entries m times the raw scalar mu."""
    return tuple(tuple(field.mul(mu, v) for v in r) for r in m)


class TestScalarClassTable:
    """The census group table keeps one g^-1 per scalar class."""

    FIELDS = [F2, F3, F4, F5, F7, GF(2, 3), GF(3, 2)]

    @pytest.mark.parametrize("field", FIELDS)
    def test_one_row_per_scalar_class(self, field):
        q = field.order
        rows = [r[:4] for r in oracle._gl_table(field)]
        assert len(rows) == q * (q * q - 1)
        assert all((x1 or e1) == 1 for x1, e1, _, _ in rows)
        found = set()
        for row in rows:
            for mu in range(1, q):
                g = scaled(field, (row[:2], row[2:]), mu)
                assert g not in found, g  # at most one (row, mu) per element
                found.add(g)
        assert found == set(oracle._gl2_raw(field))


class TestOrbitKernel:
    """The census orbit kernel, run on the class row of one change, against
    the generic transform under every scalar multiple of that change."""

    def check(self, field, g, abcds):
        tables = field.tables
        (x1, e1), _ = g.ginv.e
        lead = field.inv(x1 or e1)  # scales g^-1 to its class row
        row = scaled(field, g.ginv.e, lead)
        gl = [r for r in oracle._gl_table(field) if ((r[0], r[1]), (r[2], r[3])) == row]
        assert len(gl) == 1
        changes = [BasisChange(Mat2(field, scaled(field, row, mu))) for mu in range(1, field.order)]
        for abcd in abcds:
            E = EvolutionMsc(field, abcd)
            images = [transform(E, h) for h in changes]
            members, stab = oracle._orbit_raw(tables, gl, abcd)
            members = {oracle._entries(field.order, m) for m in members}
            stab = [oracle._entries(field.order, g) for g in stab]
            if is_evolution(images[0]):
                assert all(is_evolution(im) for im in images)
                assert members == {im.to_evolution().abcd for im in images}
                assert stab == [h.ginv.e[0] + h.ginv.e[1] for h, im in zip(changes, images) if im == E]
            else:
                assert not any(is_evolution(im) for im in images)
                assert members == set() and stab == []

    def test_every_change_and_algebra_gf3(self):
        abcds = list(itertools.product(range(3), repeat=4))
        for g in gl2_enumerate(F3):
            self.check(F3, g, abcds)

    def test_sample_gf4(self):
        rng = random.Random(4)
        changes = list(gl2_enumerate(F4))
        abcds = list(itertools.product(range(4), repeat=4))
        for g in rng.sample(changes, 30):
            self.check(F4, g, rng.sample(abcds, 64))


class TestTableImage:
    """The witness check's closed forms on the field tables, `_image_raw`
    (built on the orbit kernel's `_gl_row`), against the field-method closed
    forms of `transform_evolution_raw`."""

    @pytest.mark.parametrize("field", [F3, F4])
    def test_every_change_and_algebra(self, field):
        abcds = list(itertools.product(range(field.order), repeat=4))
        for ginv in oracle._gl2_raw(field):
            for abcd in abcds:
                assert oracle._image_raw(field.tables, abcd, ginv) == transform_evolution_raw(field, abcd, ginv)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_seeded_sample_over_quadratic_extensions(self, p):
        field = GF(p, 2)
        q = field.order
        rng = random.Random(q)
        for _ in range(2000):
            x1 = e1 = x2 = e2 = 0
            while field.sub(field.mul(x1, e2), field.mul(x2, e1)) == 0:
                x1, e1, x2, e2 = (rng.randrange(q) for _ in range(4))
            ginv = ((x1, e1), (x2, e2))
            abcd = tuple(rng.randrange(q) for _ in range(4))
            assert oracle._image_raw(field.tables, abcd, ginv) == transform_evolution_raw(field, abcd, ginv)

    def test_tables_up_to_the_bound_methods_above(self, monkeypatch):
        # GF(5)'s witnesses live in GF(5) and GF(25), all with tables; GF(7)'s
        # E3 witnesses need GF(343), past _TABLE_MAX, which keeps no tables
        calls = []
        generic = oracle.transform_evolution_raw
        monkeypatch.setattr(oracle, "transform_evolution_raw", lambda K, *a: calls.append(K) or generic(K, *a))
        assert census(F5).flags["witnesses_ok"] and calls == []
        GF(7, 3).__dict__.pop("tables", None)
        assert census(F7).flags["witnesses_ok"]
        assert calls and set(calls) == {GF(7, 3)}
        assert "tables" not in GF(7, 3).__dict__


class TestCensus:
    def test_gf3_partition_and_flags(self):
        rep = census(F3, 6)
        assert rep.ok
        assert rep.total_evolution_msc == 81
        assert rep.gl2_order == 48
        assert sum(r.orbit_size_in_evolution_subset for r in rep.records) == 81
        labels = {r.key.label for r in rep.records}
        assert labels == {"E0", "E1", "E2", "E3", "E4", "E5", "E6"}
        e0 = next(r for r in rep.records if r.key.label == "E0")
        assert e0.orbit_size_in_evolution_subset == 1
        assert e0.brute_aut_order == 48 and e0.der_dim == 4

    def test_records_sorted_and_representatives_classify_back(self):
        rep = census(F3, 6)
        keys = [r.key.sort_key() for r in rep.records]
        assert keys == sorted(keys)
        for r in rep.records:
            for E in r.orbit_representatives:
                assert classify(E).key == r.key

    def test_jobs_do_not_change_the_output(self):
        a = dumps(census_to_json(census(F3, 6, jobs=1)))
        b = dumps(census_to_json(census(F3, 6, jobs=2)))
        assert a == b

    def test_two_censuses_share_the_fields_tables(self):
        F3.__dict__.pop("tables", None)
        census(F3, 6)
        tables = F3.__dict__["tables"]
        census(F3, 6)
        assert F3.__dict__["tables"] is tables

    def test_csv_summary(self):
        rep = census(F2, 6)
        text = census_to_csv(rep)
        lines = text.strip().splitlines()
        assert lines[0] == "key,count,aut_order,der_dim"
        assert len(lines) == len(rep.records) + 1
        total = sum(int(line.split(",")[-3]) for line in lines[1:])
        assert total == 16

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            census(GF(17), 6)

    def test_infinite(self):
        with pytest.raises(InfiniteField):
            census(QQ, 6)

    @pytest.mark.parametrize(
        "p,k",
        [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
         pytest.param(2, 4, marks=pytest.mark.slow)],
    )
    def test_json_matches_golden(self, p, k):
        # the census JSON must not change with the census's implementation
        golden = Path(__file__).parent / "data" / f"census_gf{p**k}.json"
        assert dumps(census_to_json(census(GF(p, k)))) == golden.read_text()

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "p,k,keys,digest",
        [(5, 2, 342, "26ac31547d5c73125325c75e428b446f0cbe67f98f635714eebf49c0d9f036d1"),
         (3, 3, 396, "49994ced2e642906783a84a1ecf0c5d0b1f8115e408e74dedce9f51d927d4a4e")],
    )
    def test_past_the_cap_pinned_digest(self, monkeypatch, p, k, keys, digest):
        # GF(25) is the first extension of characteristic >= 5, and GF(27) an
        # odd-degree extension of characteristic 3 without the cube roots of
        # unity; both lie past the public cap, raised here for this one call.
        # The digests were recorded with the census that carried algebras as
        # (a, b, c, d) tuples.
        monkeypatch.setattr(oracle, "_CENSUS_MAX_ORDER", p**k)
        rep = census(GF(p, k))
        assert rep.flags == dict.fromkeys(
            ["keys_vs_orbits_ok", "witnesses_ok", "aut_closed_form_ok", "der_closed_form_ok"], True
        )
        assert len(rep.records) == keys
        assert hashlib.sha256(dumps(census_to_json(rep)).encode()).hexdigest() == digest

    @pytest.mark.parametrize("p,k", [(2, 2), (5, 1), (2, 3), (3, 2)])
    def test_jobs2_matches_golden_with_cold_and_warm_caches(self, monkeypatch, p, k):
        # a census must not depend on what the root and default-modulus
        # caches hold, nor on jobs
        golden = (Path(__file__).parent / "data" / f"census_gf{p**k}.json").read_text()
        fields._finite_root.cache_clear()
        for key in [key for key in fields._FIELDS if key[0] == "GF" and len(key) == 3]:
            monkeypatch.delitem(fields._FIELDS, key)
        F = GF(p, k)
        assert dumps(census_to_json(census(F, jobs=2))) == golden
        assert dumps(census_to_json(census(F, jobs=1))) == golden
        assert dumps(census_to_json(census(F, jobs=2))) == golden

    def test_jobs_below_one_run_in_this_process(self):
        golden = (Path(__file__).parent / "data" / "census_gf3.json").read_text()
        assert dumps(census_to_json(census(F3, jobs=0))) == golden
        assert dumps(census_to_json(census(F3, jobs=-3))) == golden

    def test_shared_seed_orbit_clears_flags(self, monkeypatch):
        # every key seeded from one representative: the later seeds land in
        # an orbit already taken, which must show in the flags, not raise
        one = canonical_msc(CanonicalKey(F3, "E4"))
        monkeypatch.setattr(oracle, "canonical_msc", lambda k: one)
        rep = census(F3, 6)
        assert not rep.flags["keys_vs_orbits_ok"]
        assert not rep.ok

    def test_leaked_index_of_another_key_clears_flags(self, monkeypatch):
        # the orbit kernel puts the last algebra, (2, 2, 2, 2), into the zero
        # algebra's orbit as well: an orbit holding an algebra of another key,
        # and an algebra in two orbits, must show in the flags, not raise
        kernel, zero, last = oracle._orbit_raw, (0, 0, 0, 0), oracle._index(3, 2, 2, 2, 2)
        leaked = []

        def leaking_kernel(tables, gl, abcd):
            members, stab = kernel(tables, gl, abcd)
            if abcd != zero:
                return members, stab
            leaked.append(abcd)
            return members | {last}, stab

        monkeypatch.setattr(oracle, "_orbit_raw", leaking_kernel)
        assert classify(EvolutionMsc(F3, (2, 2, 2, 2))).key.label != "E0"
        rep = census(F3, 6)
        assert leaked
        assert not rep.flags["keys_vs_orbits_ok"]
        assert rep.flags["witnesses_ok"] and rep.flags["aut_closed_form_ok"] and rep.flags["der_closed_form_ok"]

    def test_spot_check_catches_a_wrong_stabilizer_element(self, monkeypatch):
        # the orbit kernel also accepts a shear for every seed (over GF(3) it
        # is an automorphism of E0 and E6 only), and the closed forms are made
        # to agree with it, so only the generic-product spot check can notice
        bad = Mat2.of(F3, ((1, 1), (0, 1)))
        bad_index = oracle._index(3, *bad.e[0], *bad.e[1])
        kernel, instantiate = oracle._orbit_raw, oracle.aut_instantiate

        def wrong_kernel(tables, gl, abcd):
            members, stab = kernel(tables, gl, abcd)
            return members, stab if bad_index in stab else stab + [bad_index]

        monkeypatch.setattr(oracle, "_orbit_raw", wrong_kernel)
        monkeypatch.setattr(oracle, "aut_instantiate", lambda cf, f: instantiate(cf, f) + [bad])
        rep = census(F3, 6)
        assert not rep.flags["aut_closed_form_ok"]
        assert rep.flags["keys_vs_orbits_ok"] and rep.flags["der_closed_form_ok"]

    def test_max_ext_too_small_fails_witness_flag(self):
        # witnesses over GF(3) need a quadratic extension for some E4-class
        # algebras, so a budget of 1 must trip the witness flag
        rep = census(F3, max_witness_ext=1)
        assert not rep.flags["witnesses_ok"]
        assert rep.flags["keys_vs_orbits_ok"]


SHEARS = (((1, 1), (0, 1)), ((1, 0), (1, 1)))


def after(res, ginv):
    """Raw g^-1 entries of the witness of res = `oracle._classify_raw(...)`
    followed by the change with raw g^-1 entries `ginv`, over the witness
    field."""
    _, _, witness, K, *_ = res
    return BasisChange(Mat2(K, witness)).then(BasisChange(Mat2(K, ginv))).ginv.e


def wrong_witnesses(res):
    """Witnesses in the field of res's witness followed by a shear (images
    mostly not in evolution form) or, in fields of order above 2, by the
    scalar of raw encoding 2 (the image is a multiple of the canonical
    form)."""
    _, _, _, K, *_ = res
    scalars = [((2, 0), (0, 2))] if K.order > 2 else []
    return [after(res, ginv) for ginv in SHEARS + tuple(scalars)]


def with_witness(res, ginv):
    """res with its raw g^-1 entries replaced by `ginv`."""
    label, params, _, *rest = res
    return (label, params, ginv, *rest)


def canonical_over(field, res):
    """The embedding of field into res's witness field and the canonical
    representative of res's key carried there."""
    label, params, _, K, *_ = res
    emb = fields.embed(field, K)
    key = CanonicalKey(field, label, tuple(Fel(field, p) for p in params))
    return emb, canonical_msc(key).over(emb)


def verify(field, abcd, res, targets):
    """`oracle._verify_witness` on the raw classification res of abcd, with
    up to six extension steps allowed."""
    label, params, ginv, K, *_ = res
    return oracle._verify_witness(field, abcd, label, params, ginv, K, 6, targets)


class TestWitnessCheck:
    """The census's witness check on the raw classifier's output, by the
    closed forms of `transform_evolution_raw`, against a generic-`transform`
    check."""

    def bad_witness_census(self, monkeypatch, field, pick, make_bad, last=True):
        """Census of `field` in which the raw classifier gives the last (or
        first) algebra, in index order, whose label and witness field satisfy
        `pick` the raw witness `make_bad(res)`. Also returns that algebra's raw
        classification and the generic image under the bad witness, with the
        canonical form it should have been. An algebra that is not the first
        of its (witness field, key) pair never goes through the generic spot
        check, so only the closed forms can catch it."""
        abcds = [oracle._entries(field.order, i) for i in range(field.order**4)]
        ress = [oracle._classify_raw(field, abcd) for abcd in abcds]
        i = (max if last else min)(i for i, (l, _, _, k, *_) in enumerate(ress) if pick(l, k))
        label, params, _, K, *_ = ress[i]
        first = min(j for j, (l, ps, _, k, *_) in enumerate(ress) if k is K and (l, ps) == (label, params))
        assert (first < i) == last
        bad = make_bad(ress[i])
        real = oracle._classify_raw

        def wrong_classify(F, abcd):
            res = real(F, abcd)
            return with_witness(res, bad) if abcd == abcds[i] else res

        monkeypatch.setattr(oracle, "_classify_raw", wrong_classify)
        emb, C = canonical_over(field, ress[i])
        image = transform(EvolutionMsc(field, abcds[i]).over(emb), BasisChange(Mat2(K, bad)))
        return census(field, 6), ress[i], image, C

    def assert_only_witness_flag_cleared(self, rep):
        assert not rep.flags["witnesses_ok"]
        assert rep.flags["keys_vs_orbits_ok"]
        assert rep.flags["aut_closed_form_ok"] and rep.flags["der_closed_form_ok"]

    def test_wrong_witness_in_the_base_field(self, monkeypatch):
        pick = lambda label, K: label == "E6" and K is F3
        scale = lambda res: after(res, ((2, 0), (0, 2)))
        rep, _, image, C = self.bad_witness_census(monkeypatch, F3, pick, scale)
        assert is_evolution(image) and image != C
        self.assert_only_witness_flag_cleared(rep)

    def test_wrong_witness_in_an_extension(self, monkeypatch):
        pick = lambda label, K: label == "E4" and K is not F3
        scale = lambda res: after(res, ((2, 0), (0, 2)))
        rep, _, image, C = self.bad_witness_census(monkeypatch, F3, pick, scale)
        assert image.field.order == 9
        assert is_evolution(image) and image != C
        self.assert_only_witness_flag_cleared(rep)

    def test_image_not_in_evolution_form(self, monkeypatch):
        pick = lambda label, K: label == "E6" and K is F3
        shear = lambda res: after(res, SHEARS[1])
        rep, _, image, _ = self.bad_witness_census(monkeypatch, F3, pick, shear)
        assert not is_evolution(image)
        self.assert_only_witness_flag_cleared(rep)

    def test_spot_check_catches_wrong_closed_forms(self, monkeypatch):
        # the first algebra of a pair gets a wrong witness, and the closed
        # forms are made to evaluate its right witness in its place, so only
        # the generic spot check can notice
        pick = lambda label, K: label == "E6" and K is F3
        right_of = {}  # raw g^-1 of the wrong witness -> that of the right one

        def bad(res):
            w = after(res, SHEARS[1])
            _, _, right_of[w], *_ = res
            return w

        # (GF(3)'s witness fields have tables, so the closed forms evaluated
        # are `_image_raw`'s)
        evaluate = oracle._image_raw
        lying = lambda tables, abcd, ginv: evaluate(tables, abcd, right_of.get(ginv, ginv))
        monkeypatch.setattr(oracle, "_image_raw", lying)
        rep, _, image, C = self.bad_witness_census(monkeypatch, F3, pick, bad, last=False)
        assert image != C
        self.assert_only_witness_flag_cleared(rep)

    @pytest.mark.parametrize("field", [F2, F3, F4, F5])
    def test_closed_forms_agree_with_the_generic_transform(self, field):
        # the targets are made first, so each later call checks by the
        # closed forms alone; classify wraps the same raw output
        targets: dict = {}
        answers = set()
        q = field.order
        for abcd in (oracle._entries(q, i) for i in range(q**4)):
            E = EvolutionMsc(field, abcd)
            res = oracle._classify_raw(field, abcd)
            label, params, ginv, K, *_ = res
            full = classify(E)
            assert (full.key.label, tuple(p.raw for p in full.key.params)) == (label, params)
            assert full.witness.ginv.e == ginv and full.witness_field is K
            assert verify(field, abcd, res, targets)
            emb, C = canonical_over(field, res)
            for w in [ginv] + wrong_witnesses(res):
                generic = transform(E.over(emb), BasisChange(Mat2(K, w))) == C
                assert verify(field, abcd, with_witness(res, w), targets) == generic, (abcd, w)
                answers.add(generic)
        assert answers == {True, False}


class TestRunCensusScript:
    ROOT = Path(__file__).resolve().parent.parent

    def run_script(self, *argv, timeout=None):
        path = [str(self.ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        script = self.ROOT / "scripts" / "run_census.py"
        return subprocess.run(
            [sys.executable, str(script), *argv], capture_output=True, text=True, env=env, timeout=timeout
        )

    def test_json_and_csv_of_the_last_field(self, tmp_path):
        # the README's experiment script writes the report of its last field
        out_json, out_csv = tmp_path / "census.json", tmp_path / "census.csv"
        proc = self.run_script("--fields", "2", "3", "--json", str(out_json), "--csv", str(out_csv))
        assert proc.returncode == 0, proc.stderr
        assert out_json.read_bytes() == (self.ROOT / "tests" / "data" / "census_gf3.json").read_bytes()
        assert out_csv.read_text() == census_to_csv(census(F3))

    def test_order_zero_refused_at_once(self):
        # 0 is divisible by every prime: the order is refused before any factoring
        proc = self.run_script("--fields", "0", timeout=20)
        assert (proc.returncode, proc.stderr) == (1, "0 is not a prime power\n")

    @pytest.mark.parametrize(
        "q, err",
        [
            ("25", "census over GF(5^2) refused (order 25 > 16)"),
            ("17", "census over GF(17) refused (order 17 > 16)"),
        ],
    )
    def test_library_refusal_is_one_line(self, q, err):
        proc = self.run_script("--fields", q, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"run_census.py: {err}\n"
