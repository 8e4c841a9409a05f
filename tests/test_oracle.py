import itertools
from pathlib import Path

import pytest

from evoalg import (
    GF,
    QQ,
    BudgetExceeded,
    CanonicalKey,
    EvolutionMsc,
    InfiniteField,
    Mat2,
    brute_aut,
    brute_der,
    brute_iso,
    canonical_msc,
    census,
    classify,
    gl2_enumerate,
    transform,
)
from evoalg import oracle
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


class TestBruteDer:
    def test_degenerate_pair_only_zero(self):
        E = canonical_msc(CanonicalKey(F5, "E1", (2, 4)))
        got = brute_der(E, F5)
        assert got == [Mat2.of(F5, ((0, 0), (0, 0)))]

    def test_e6_gf3_nine_matrices(self):
        got = brute_der(canonical_msc(CanonicalKey(F3, "E6")), F3)
        assert len(got) == 9  # dimension 2

    def test_e5_gf4_four_matrices(self):
        got = brute_der(canonical_msc(CanonicalKey(F4, "E5")), F4)
        assert len(got) == 4  # dimension 1


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

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
    def test_json_matches_golden(self, p, k):
        # the census JSON must not change with the census's implementation
        golden = Path(__file__).parent / "data" / f"census_gf{p**k}.json"
        assert dumps(census_to_json(census(GF(p, k)))) == golden.read_text()

    def test_shared_seed_orbit_clears_flags(self, monkeypatch):
        # every key seeded from one representative: the later seeds land in
        # an orbit already taken, which must show in the flags, not raise
        one = canonical_msc(CanonicalKey(F3, "E4"))
        monkeypatch.setattr(oracle, "canonical_msc", lambda k: one)
        rep = census(F3, 6)
        assert not rep.flags["keys_vs_orbits_ok"]
        assert not rep.ok

    def test_max_ext_too_small_fails_witness_flag(self):
        # witnesses over GF(3) need a quadratic extension for some E4-class
        # algebras, so a budget of 1 must trip the witness flag
        rep = census(F3, max_witness_ext=1)
        assert not rep.flags["witnesses_ok"]
        assert rep.flags["keys_vs_orbits_ok"]
