import json
import subprocess
import sys

import pytest

from evoalg.cli import run

Q = {"kind": "Q"}
GF7 = {"kind": "GF", "p": 7, "k": 1}
GF5 = {"kind": "GF", "p": 5, "k": 1}
GF4 = {"kind": "GF", "p": 2, "k": 2}


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


class TestClassify:
    def test_e1_over_q(self, capsys, tmp_path):
        path = write(tmp_path, "a.json", {"field": Q, "msc": ["2", "3", "5", "7"]})
        code, out, err = invoke(capsys, "classify", "-a", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["key"] == {"label": "E1", "params": ["6/49", "35/4"]}
        assert doc["witness"] == [["1/2", "0"], ["0", "1/7"]]
        assert doc["convention"] == "g_inverse"
        assert doc["trace"] == ["1.1"]

    def test_needs_extension_exit_3(self, capsys):
        code, out, err = invoke(
            capsys, "classify", "-a", '{"field":{"kind":"Q"},"msc":["0","2","3","0"]}'
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["key"]["label"] == "E3"
        assert doc["needs_extension"] == ["-1/18", "0", "0", "1"]

    def test_msc8_evolution_accepted(self, capsys):
        code, out, _ = invoke(
            capsys,
            "classify",
            "-a",
            '{"field":{"kind":"GF","p":5,"k":1},"msc8":[[1,0,0,2],[3,0,0,4]]}',
        )
        assert code == 0

    def test_msc8_non_evolution_rejected(self, capsys):
        code, out, err = invoke(
            capsys,
            "classify",
            "-a",
            '{"field":{"kind":"GF","p":5,"k":1},"msc8":[[1,1,0,2],[3,0,0,4]]}',
        )
        assert code == 1 and "evolution" in err

    def test_malformed_json_is_diagnosed(self, capsys):
        code, out, err = invoke(capsys, "classify", "-a", '{"field": nope')
        assert code == 1 and err.startswith("evoalg:")

    def test_missing_file(self, capsys):
        code, out, err = invoke(capsys, "classify", "-a", "does-not-exist.json")
        assert code == 1 and err

    @pytest.mark.parametrize("field", [Q, GF5, GF4])
    @pytest.mark.parametrize(
        "text",
        ["1e3", "1e3000000", "1.5", " 3", "3 ", "+3", "1/-2", "1//2", "--1", "0x10", "1_000", "", "\u0663"],
    )
    def test_malformed_element_string(self, capsys, field, text):
        # the element grammar is -?n(/d)? in ASCII digits; anything else ends
        # with exit 1 and one diagnostic line, without parsing work
        alg = json.dumps({"field": field, "msc": [text, "1", "1", "1"]})
        code, out, err = invoke(capsys, "classify", "-a", alg)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("evoalg:")

    def test_huge_entry_over_q(self, capsys):
        alg = json.dumps({"field": Q, "msc": ["0", "1", str(10**400), "0"]})
        code, out, err = invoke(capsys, "classify", "-a", alg)
        assert code == 3 and err == ""
        assert json.loads(out)["needs_extension"] == [f"-1/{10**800}", "0", "0", "1"]

    @pytest.mark.parametrize("field", [GF5, GF4])
    @pytest.mark.parametrize("text", ["1/0", "abc"])
    def test_bad_element_string_over_gf(self, capsys, field, text):
        alg = json.dumps({"field": field, "msc": [text, "1", "1", "1"]})
        code, out, err = invoke(capsys, "classify", "-a", alg)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("evoalg:")


class TestAut:
    def test_enumerate_over_gf7(self, capsys):
        code, out, _ = invoke(
            capsys,
            "aut",
            "-a",
            '{"field":{"kind":"GF","p":7,"k":1},"msc":[1,0,1,0]}',
            "--enumerate",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["key"]["label"] == "E2"
        assert doc["order_over_field"] == 6
        assert len(doc["elements"]) == 6
        assert doc["families"][0]["excluded"] == ["t != 1"]

    def test_family_shape_for_e6(self, capsys):
        code, out, _ = invoke(
            capsys, "aut", "-a", '{"field":{"kind":"Q"},"msc":["0","1","0","0"]}'
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["families"] == [
            {"entries": [["t^2", "s"], ["0", "t"]], "excluded": ["t != 0"]}
        ]
        assert doc["order_over_field"] is None

    def test_enumerate_over_q_rejected(self, capsys):
        code, _, err = invoke(
            capsys,
            "aut",
            "-a",
            '{"field":{"kind":"Q"},"msc":["0","1","0","0"]}',
            "--enumerate",
        )
        assert code == 1 and "finite" in err

    def test_zero_algebra_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "aut", "-a", '{"field":{"kind":"Q"},"msc":["0","0","0","0"]}'
        )
        assert code == 1


class TestDer:
    def test_e6_over_q(self, capsys):
        code, out, _ = invoke(
            capsys, "der", "-a", '{"field":{"kind":"Q"},"msc":["0","1","0","0"]}'
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 2
        assert doc["basis"] == [[["1", "0"], ["0", "1/2"]], [["0", "1"], ["0", "0"]]]

    def test_full_msc8(self, capsys):
        code, out, _ = invoke(
            capsys,
            "der",
            "-a",
            '{"field":{"kind":"GF","p":5,"k":1},"msc8":[[1,2,3,4],[0,1,0,2]]}',
        )
        assert code == 0
        json.loads(out)


class TestIso:
    def test_witness_found(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", {"field": GF7, "msc": [1, 2, 3, 1]})
        b = write(tmp_path, "b.json", {"field": GF7, "msc": [1, 3, 2, 1]})
        code, out, _ = invoke(capsys, "iso", "-a", a, "-b", b)
        assert code == 0
        doc = json.loads(out)
        assert doc["isomorphic"] is True
        assert doc["convention"] == "g_inverse"

    def test_not_isomorphic(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", {"field": Q, "msc": ["1", "1", "0", "0"]})
        b = write(tmp_path, "b.json", {"field": Q, "msc": ["0", "1", "0", "0"]})
        code, out, _ = invoke(capsys, "iso", "-a", a, "-b", b)
        assert code == 0
        assert json.loads(out) == {"isomorphic": False}

    def test_needs_extension_exit_3(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", {"field": Q, "msc": ["0", "2", "3", "0"]})
        b = write(tmp_path, "b.json", {"field": Q, "msc": ["0", "1", "1", "0"]})
        code, out, _ = invoke(capsys, "iso", "-a", a, "-b", b)
        assert code == 3
        doc = json.loads(out)
        assert doc["isomorphic"] is True and doc["witness"] is None

    def test_field_mismatch(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", {"field": Q, "msc": ["1", "0", "0", "1"]})
        b = write(tmp_path, "b.json", {"field": GF7, "msc": [1, 0, 0, 1]})
        code, _, err = invoke(capsys, "iso", "-a", a, "-b", b)
        assert code == 1


class TestVerify:
    def test_aut_mode(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", {"field": Q, "msc": ["1", "1", "0", "0"]})
        g = write(tmp_path, "g.json", {"matrix": [["1", "0"], ["0", "-1"]]})
        code, out, _ = invoke(capsys, "verify", "-a", a, "-g", g, "--mode", "aut")
        assert code == 0 and json.loads(out) == {"mode": "aut", "valid": True}

    def test_der_mode(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", {"field": Q, "msc": ["0", "1", "0", "0"]})
        g = write(tmp_path, "g.json", {"matrix": [["2", "0"], ["0", "1"]]})
        code, out, _ = invoke(capsys, "verify", "-a", a, "-g", g, "--mode", "der")
        assert code == 0 and json.loads(out)["valid"] is True

    def test_iso_mode_closes_the_loop_with_classify(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", {"field": Q, "msc": ["2", "3", "5", "7"]})
        code, out, _ = invoke(capsys, "classify", "-a", a)
        doc = json.loads(out)
        target = write(
            tmp_path,
            "t.json",
            {"field": Q, "msc": ["1", "6/49", "35/4", "1"]},
        )
        g = write(tmp_path, "g.json", {"matrix": doc["witness"]})
        code, out, _ = invoke(
            capsys, "verify", "-a", a, "-g", g, "--mode", f"iso:{target}"
        )
        assert code == 0 and json.loads(out)["valid"] is True

    def test_invalid_matrix_reported_false(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", {"field": Q, "msc": ["1", "1", "0", "0"]})
        g = write(tmp_path, "g.json", {"matrix": [["1", "1"], ["0", "1"]]})
        code, out, _ = invoke(capsys, "verify", "-a", a, "-g", g, "--mode", "aut")
        assert code == 0 and json.loads(out)["valid"] is False

    def test_unknown_mode(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", {"field": Q, "msc": ["1", "1", "0", "0"]})
        g = write(tmp_path, "g.json", {"matrix": [["1", "0"], ["0", "1"]]})
        code, _, err = invoke(capsys, "verify", "-a", a, "-g", g, "--mode", "nope")
        assert code == 1


class TestCensus:
    def test_gf3(self, capsys, tmp_path):
        csv_path = tmp_path / "census.csv"
        code, out, _ = invoke(
            capsys,
            "census",
            "--field",
            '{"kind":"GF","p":3,"k":1}',
            "--csv",
            str(csv_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total_evolution_msc"] == 81
        assert all(doc["flags"].values())
        assert csv_path.read_text().startswith("key,count,aut_order,der_dim")

    def test_determinism_across_jobs(self, capsys):
        code1, out1, _ = invoke(capsys, "census", "--field", '{"kind":"GF","p":3,"k":1}')
        code2, out2, _ = invoke(
            capsys, "census", "--field", '{"kind":"GF","p":3,"k":1}', "--jobs", "2"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_budget_error(self, capsys):
        code, _, err = invoke(capsys, "census", "--field", '{"kind":"GF","p":17,"k":1}')
        assert code == 1 and "refused" in err


class TestT2Map:
    def test_e6c(self, capsys):
        code, out, _ = invoke(capsys, "t2map", "--label", "E6c", "--param", "2")
        assert code == 0
        assert json.loads(out) == {"label": "E2", "params": ["1/8"]}

    def test_e6c_zero(self, capsys):
        code, out, _ = invoke(capsys, "t2map", "--label", "E6c", "--param", "0")
        assert json.loads(out) == {"label": "E3", "params": []}

    def test_e2(self, capsys):
        code, out, _ = invoke(capsys, "t2map", "--label", "E2")
        assert json.loads(out) == {"label": "E4", "params": []}

    def test_e5ab_over_gf7(self, capsys):
        code, out, _ = invoke(
            capsys,
            "t2map",
            "--label",
            "E5ab",
            "--param",
            "2",
            "--param",
            "3",
            "--field",
            '{"kind":"GF","p":7,"k":1}',
        )
        assert code == 0
        assert json.loads(out) == {"label": "E1", "params": [[2], [3]]}

    def test_invalid_params(self, capsys):
        code, _, err = invoke(
            capsys, "t2map", "--label", "E5ab", "--param", "2", "--param", "1/2"
        )
        assert code == 1


class TestDeterminismAndRoundTrip:
    def test_identical_runs_are_byte_identical(self, capsys):
        args = ("classify", "-a", '{"field":{"kind":"GF","p":5,"k":1},"msc":[0,2,3,0]}')
        _, out1, _ = invoke(capsys, *args)
        _, out2, _ = invoke(capsys, *args)
        assert out1 == out2

    def test_emitted_json_reparses(self, capsys):
        for args in [
            ("classify", "-a", '{"field":{"kind":"Q"},"msc":["2","3","5","7"]}'),
            ("der", "-a", '{"field":{"kind":"Q"},"msc":["0","1","0","0"]}'),
            ("aut", "-a", '{"field":{"kind":"GF","p":5,"k":1},"msc":[0,1,1,0]}'),
        ]:
            _, out, _ = invoke(capsys, *args)
            json.loads(out)

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "evoalg", "t2map", "--label", "E6c", "--param", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"label": "E2", "params": ["1/8"]}
