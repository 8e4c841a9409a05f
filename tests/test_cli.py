import contextlib
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_prime_past_the_primality_bound(self, capsys):
        # 2^89 - 1 is prime, but Miller-Rabin with the bases up to 41 decides
        # primality only below 3317044064679887385961981
        alg = json.dumps({"field": {"kind": "GF", "p": 2**89 - 1, "k": 1}, "msc": [1, 2, 3, 4]})
        code, out, err = invoke(capsys, "classify", "-a", alg)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("evoalg: cannot decide")


# JSON values that are not integers, for descriptor slots that need one
_NOT_INT = st.one_of(
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(0, 4), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 4), max_size=2),
)
# JSON values that encode no element of GF(5) or Q
_NOT_ELEMENT = st.one_of(
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=6).filter(lambda t: not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", t)),
    st.lists(st.integers(0, 4), min_size=2, max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 4), min_size=1, max_size=2),
)


@st.composite
def _bad_field(draw):
    p, k = draw(st.sampled_from([(2, 2), (3, 2), (5, 3), (7, 1)]))
    return draw(
        st.one_of(
            st.builds(lambda v: {"kind": "GF", "p": v, "k": k}, _NOT_INT),
            st.builds(lambda v: {"kind": "GF", "p": p, "k": v}, _NOT_INT),
            st.builds(  # a modulus that is not a list
                lambda v: {"kind": "GF", "p": p, "k": k, "modulus": v},
                _NOT_INT.filter(lambda v: v is not None and not isinstance(v, list)) | st.integers(),
            ),
            st.builds(  # a modulus entry that is not an integer
                lambda m, i, v: {"kind": "GF", "p": p, "k": k, "modulus": m[:i] + [v] + m[i + 1:]},
                st.just([1] * (k + 1)),
                st.integers(0, k),
                _NOT_INT,
            ),
            st.builds(  # a modulus of the wrong length
                lambda m: {"kind": "GF", "p": p, "k": k, "modulus": m},
                st.lists(st.integers(-3, 9), max_size=8).filter(lambda m: len(m) != k + 1),
            ),
            st.builds(  # past the size budget
                lambda big: {"kind": "GF", "p": p, "k": big},
                st.integers(257, 10**30),
            ),
            st.one_of(st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2), st.none()),
            st.sampled_from([{}, {"kind": "R"}, {"kind": "GF", "p": 9, "k": 1}]),
        )
    )


@st.composite
def _malformed_doc(draw):
    good_msc = ["1", "2", "3", "4"]
    if draw(st.booleans()):
        return {"field": draw(_bad_field()), "msc": good_msc}
    field = draw(st.sampled_from([Q, GF5]))
    msc = draw(
        st.one_of(
            _NOT_INT.filter(lambda v: not isinstance(v, list)),
            st.lists(st.just("1"), max_size=6).filter(lambda m: len(m) != 4),
            st.builds(
                lambda i, v: good_msc[:i] + [v] + good_msc[i + 1:], st.integers(0, 3), _NOT_ELEMENT
            ),
        )
    )
    return {"field": field, "msc": msc}


class TestMalformedDocuments:
    """Any malformed algebra document ends with exit 1, nothing on stdout and
    exactly one diagnostic line on stderr."""

    @settings(max_examples=200, deadline=None)
    @given(doc=_malformed_doc(), cmd=st.sampled_from(["classify", "aut", "der"]))
    def test_one_line_refusal(self, doc, cmd):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([cmd, "-a", json.dumps(doc)])
        assert (code, out.getvalue()) == (1, ""), doc
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("evoalg:"), (doc, lines)

    @pytest.mark.parametrize(
        "field",
        [
            {"kind": "GF", "p": 5.9},
            {"kind": "GF", "p": 5, "k": 2.7},
            {"kind": "GF", "p": 2, "k": 2, "modulus": [1.9, 1, 1]},
            {"kind": "GF", "p": True},
        ],
    )
    def test_non_integer_descriptor(self, capsys, field):
        alg = json.dumps({"field": field, "msc": [1, 2, 3, 4]})
        code, out, err = invoke(capsys, "classify", "-a", alg)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"evoalg: bad field descriptor {field!r}: p, k and the modulus coefficients are integers"]

    def test_gf_2_800_refused_within_5_s(self, capsys):
        alg = json.dumps({"field": {"kind": "GF", "p": 2, "k": 800}, "msc": [1, 0, 0, 1]})
        start = time.perf_counter()
        code, out, err = invoke(capsys, "classify", "-a", alg)
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "evoalg: GF(p^800) with p of 2 bits is too large: "
            "k * ceil(log2 p) = 800 is past the budget of 256"
        ]


GF307_2 = {"kind": "GF", "p": 307, "k": 2}


class TestWitnessesInExtensions:
    """The output for witnesses that leave GF(307^2), recorded before
    embeddings were evaluated one value at a time."""

    @pytest.mark.parametrize(
        "msc,expected",
        [
            (
                [[0, 0], [5, 0], [1, 0], [0, 0]],
                {
                    "key": {"label": "E3", "params": []},
                    "witness": [
                        [[0, 0, 103, 0, 0, 0], [0, 0, 0, 0, 0, 0]],
                        [[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 171, 0]],
                    ],
                    "convention": "g_inverse",
                    "witness_field": {
                        "kind": "GF", "p": 307, "k": 6, "modulus": [7, 0, 0, 0, 0, 0, 1]
                    },
                    "needs_extension": None,
                    "trace": ["1.4"],
                    "lambda": None,
                },
            ),
            (
                [[1, 0], [1, 1], [0, 0], [0, 0]],
                {
                    "key": {"label": "E4", "params": []},
                    "witness": [
                        [[1, 0, 0, 0], [0, 0, 0, 0]],
                        [[0, 0, 0, 0], [103, 180, 292, 35]],
                    ],
                    "convention": "g_inverse",
                    "witness_field": {"kind": "GF", "p": 307, "k": 4, "modulus": [5, 1, 0, 0, 1]},
                    "needs_extension": None,
                    "trace": ["2.2.1"],
                    "lambda": None,
                },
            ),
        ],
        ids=["non-cube-E3", "non-square-E4"],
    )
    def test_classify_output_is_unchanged(self, capsys, msc, expected):
        alg = json.dumps({"field": GF307_2, "msc": msc})
        code, out, err = invoke(capsys, "classify", "-a", alg)
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2) + "\n"


def _evoalg(*argv):
    return subprocess.run(
        [sys.executable, "-m", "evoalg", *argv], capture_output=True, text=True
    )


class TestPastTheDigitLimit:
    """Python refuses int <-> str conversions past 4300 digits by default; the
    command line lifts that limit, since the input size bounds the work."""

    def test_results(self):
        a, d = "7" * 3000, "3" * 2999 + "1"
        alg = json.dumps({"field": Q, "msc": [a, "1", "1", d]})
        proc = _evoalg("classify", "-a", alg)
        assert (proc.returncode, proc.stderr) == (0, "")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            # E1{ab/d^2, cd/a^2} with b = c = 1
            want = {str(Fraction(int(a), int(d) ** 2)), str(Fraction(int(d), int(a) ** 2))}
            params = json.loads(proc.stdout)["key"]["params"]
            assert set(params) == want and max(map(len, params)) > 4300
        finally:
            sys.set_int_max_str_digits(limit)
        proc = _evoalg("aut", "-a", alg)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["key"]["label"] == "E1"

    def test_inputs(self):
        alg = json.dumps({"field": Q, "msc": ["1" * 5000, "0", "0", "1"]})
        proc = _evoalg("classify", "-a", alg)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["key"]["label"] == "E1"

    def test_in_process_run_restores_the_limit(self, capsys):
        a, d = "7" * 3000, "3" * 2999 + "1"
        alg = json.dumps({"field": Q, "msc": [a, "1", "1", d]})
        limit = sys.get_int_max_str_digits()
        code, out, err = invoke(capsys, "classify", "-a", alg)
        assert (code, err) == (0, "")
        assert max(map(len, json.loads(out)["key"]["params"])) > 4300
        assert sys.get_int_max_str_digits() == limit


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

    def test_order_over_a_large_prime_field(self, capsys):
        # counted from the description: q(q - 1) members of the E6 family
        alg = '{"field":{"kind":"GF","p":10007,"k":1},"msc":[0,1,0,0]}'
        t0 = time.perf_counter()
        code, out, _ = invoke(capsys, "aut", "-a", alg)
        assert time.perf_counter() - t0 < 2.0
        assert code == 0
        assert json.loads(out)["order_over_field"] == 100130042

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
