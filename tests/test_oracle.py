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
    BudgetExceeded,
    CanonicalKey,
    EvolutionMsc,
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

    def test_e5_gf4_four_matrices(self):
        got = brute_der(canonical_msc(CanonicalKey(F4, "E5")), F4)
        assert len(got) == 4  # dimension 1


class TestOrbitKernel:
    """The census orbit kernel, run on a one-element group table, against the
    generic transform."""

    def check(self, field, g, abcds):
        tables = oracle._tables(field)
        gl = [row for row in oracle._gl_table(field, tables) if row[-1] == g.ginv.e]
        assert len(gl) == 1
        for abcd in abcds:
            E = EvolutionMsc(field, abcd)
            image = transform(E, g)
            members, stab = oracle._orbit_raw(tables, gl, abcd)
            if is_evolution(image):
                assert members == {image.to_evolution().abcd}
                assert stab == ([g.ginv.e] if image == E else [])
            else:
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

    @pytest.mark.parametrize(
        "p,k",
        [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
         pytest.param(2, 4, marks=pytest.mark.slow)],
    )
    def test_json_matches_golden(self, p, k):
        # the census JSON must not change with the census's implementation
        golden = Path(__file__).parent / "data" / f"census_gf{p**k}.json"
        assert dumps(census_to_json(census(GF(p, k)))) == golden.read_text()

    @pytest.mark.parametrize("p,k", [(2, 2), (5, 1), (2, 3), (3, 2)])
    def test_jobs2_matches_golden_with_cold_and_warm_caches(self, monkeypatch, p, k):
        # forked workers inherit the parent's root and default-modulus caches,
        # so a census must not depend on what they hold
        golden = (Path(__file__).parent / "data" / f"census_gf{p**k}.json").read_text()
        fields._finite_root.cache_clear()
        for key in [key for key in fields._FIELDS if key[0] == "GF" and len(key) == 3]:
            monkeypatch.delitem(fields._FIELDS, key)
        F = GF(p, k)
        assert dumps(census_to_json(census(F, jobs=2))) == golden
        assert dumps(census_to_json(census(F, jobs=1))) == golden
        assert dumps(census_to_json(census(F, jobs=2))) == golden

    def test_shared_seed_orbit_clears_flags(self, monkeypatch):
        # every key seeded from one representative: the later seeds land in
        # an orbit already taken, which must show in the flags, not raise
        one = canonical_msc(CanonicalKey(F3, "E4"))
        monkeypatch.setattr(oracle, "canonical_msc", lambda k: one)
        rep = census(F3, 6)
        assert not rep.flags["keys_vs_orbits_ok"]
        assert not rep.ok

    def test_spot_check_catches_a_wrong_stabilizer_element(self, monkeypatch):
        # the orbit kernel also accepts a shear for every seed (over GF(3) it
        # is an automorphism of E0 and E6 only), and the closed forms are made
        # to agree with it, so only the generic-product spot check can notice
        bad = Mat2.of(F3, ((1, 1), (0, 1)))
        kernel, instantiate = oracle._orbit_raw, oracle.aut_instantiate

        def wrong_kernel(tables, gl, abcd):
            members, stab = kernel(tables, gl, abcd)
            return members, stab if bad.e in stab else stab + [bad.e]

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


class TestRunCensusScript:
    def test_json_and_csv_of_the_last_field(self, tmp_path):
        # the README's experiment script writes the report of its last field
        root = Path(__file__).resolve().parent.parent
        path = [str(root / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        out_json, out_csv = tmp_path / "census.json", tmp_path / "census.csv"
        script = root / "scripts" / "run_census.py"
        argv = ["--fields", "2", "3", "--json", str(out_json), "--csv", str(out_csv)]
        proc = subprocess.run(
            [sys.executable, str(script), *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert out_json.read_bytes() == (root / "tests" / "data" / "census_gf3.json").read_bytes()
        assert out_csv.read_text() == census_to_csv(census(F3))
