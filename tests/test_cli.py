import contextlib
import hashlib
import io
import json
import pickle
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import QQ, EvolutionMsc, Mat2, NeedsExtension, Poly, brute_aut, embed, field_make, iso_test
from evoalg import cli
from evoalg.cli import run
from evoalg.serialize import matrix_to_json

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

    @pytest.mark.parametrize("levels", [1500, 100_000])
    @pytest.mark.parametrize("where", ["inline", "file", "param"])
    def test_nesting_past_the_bound(self, capsys, tmp_path, where, levels):
        # json's decoder refuses 1,500 levels on some interpreters and parses
        # them on others; 100,000 pass its limit everywhere. Both end in the
        # same one-line refusal.
        deep = "[" * levels + "]" * levels
        alg = '{"field":{"kind":"Q"},"msc":' + deep + "}"
        if where == "file":
            (tmp_path / "deep.json").write_text(alg)
            alg = str(tmp_path / "deep.json")
        argv = ["t2map", "--label", "E6c", "--param", deep] if where == "param" else ["classify", "-a", alg]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines() == ["evoalg: JSON document nested deeper than 64 levels"]

    @pytest.mark.parametrize("cmd", ["classify", "census"])
    def test_file_not_utf8(self, capsys, tmp_path, cmd):
        # a UTF-16 byte-order mark is no valid UTF-8
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"kind":"Q"}')
        argv = ["census", "--field", str(path)] if cmd == "census" else ["classify", "-a", str(path)]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("evoalg:"), lines

    @pytest.mark.parametrize("cmd", ["classify", "census"])
    def test_utf8_byte_order_mark_is_ignored(self, capsys, tmp_path, cmd):
        # some editors start UTF-8 files with a BOM, which JSON parsers may ignore
        doc = {"kind": "GF", "p": 3, "k": 1} if cmd == "census" else {"field": Q, "msc": ["2", "3", "5", "7"]}
        outs = []
        for name, bom in [("plain.json", b""), ("bom.json", b"\xef\xbb\xbf")]:
            path = tmp_path / name
            path.write_bytes(bom + json.dumps(doc).encode())
            argv = ["census", "--field", str(path)] if cmd == "census" else ["classify", "-a", str(path)]
            code, out, err = invoke(capsys, *argv)
            assert (code, err) == (0, ""), err
            outs.append(out)
        assert outs[1] == outs[0] != ""

    @pytest.mark.parametrize("open_,close", [("[", "]"), ('{"a":', "}")])
    def test_nesting_bound_is_exact(self, open_, close):
        at_bound = open_ * 64 + "0" * (open_ == '{"a":') + close * 64
        assert cli._parse_json(at_bound) == json.loads(at_bound)
        with pytest.raises(cli.SchemaError, match="deeper than 64 levels"):
            cli._parse_json(open_ + at_bound + close)

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


def _gf_alg(p, k, *entries):
    """An algebra document over GF(p^k); an int entry is a constant, a list
    the low coefficients of a polynomial in the generator x."""
    def vec(e):
        cs = e if isinstance(e, list) else [e]
        return cs + [0] * (k - len(cs))

    return json.dumps({"field": {"kind": "GF", "p": p, "k": k}, "msc": [vec(e) for e in entries]})


def _q_alg(*entries):
    return json.dumps({"field": Q, "msc": list(entries)})


_X = [0, 1]  # the generator of GF(p^k)
_P = 3317044064679887385961813  # prime, 168 below fields._MR_BOUND
_BIG, _BIG2 = "7" * 4300, "3" * 4299 + "1"
_DEEP = "[" * 65 + "]" * 65  # one level past cli._JSON_MAX_DEPTH

# (id, argv, exit code, slow): each subcommand on the largest input its
# schema admits; fresh-process times on 2 cores are 0.1-0.3 s, and 0.8-1.1 s
# for the slow cases
_EDGE_INPUTS = [
    # x is no cube in GF(2^256), so the witness needs GF(2^768), past the size
    # budget; aut and iso answer from the keys, which need no witness
    ("classify-e3-gf2^256", ["classify", "-a", _gf_alg(2, 256, 0, _X, 1, 0)], 1, False),
    ("aut-e3-gf2^256", ["aut", "-a", _gf_alg(2, 256, 0, _X, 1, 0)], 0, False),
    ("iso-e3-e6-gf2^256", ["iso", "-a", _gf_alg(2, 256, 0, _X, 1, 0), "-b", _gf_alg(2, 256, 0, 1, 0, 0)], 0, False),
    # witnesses in GF(3^128) and GF(2^252), whose embeddings take seconds; aut needs none
    ("aut-e4-gf3^64", ["aut", "-a", _gf_alg(3, 64, 1, _X, 0, 0)], 0, False),
    ("aut-e3-gf2^84", ["aut", "-a", _gf_alg(2, 84, 0, _X, 1, 0)], 0, False),
    # the cube roots of unity of E3's group live in GF(2^258), past the budget
    ("aut-e3-gf2^129", ["aut", "-a", _gf_alg(2, 129, 0, 1, 1, 0)], 0, False),
    ("der-e3-gf2^256", ["der", "-a", _gf_alg(2, 256, 0, _X, 1, 0)], 0, False),
    ("census-gf2^256", ["census", "--field", '{"kind":"GF","p":2,"k":256}'], 1, False),
    ("classify-e3-gf3^128", ["classify", "-a", _gf_alg(3, 128, 0, _X, 1, 0)], 0, True),
    ("aut-e3-gf3^128", ["aut", "-a", _gf_alg(3, 128, 0, _X, 1, 0), "--enumerate"], 0, True),
    ("census-gf16", ["census", "--field", '{"kind":"GF","p":2,"k":4}'], 0, True),
    # 2 is no square mod _P: the E4 witness lies in GF(_P^2)
    ("classify-e4-mr-bound", ["classify", "-a", _gf_alg(_P, 1, 1, 2, 0, 0)], 0, False),
    ("aut-e4-mr-bound", ["aut", "-a", _gf_alg(_P, 1, 1, 2, 0, 0), "--enumerate"], 0, False),
    ("der-e4-mr-bound", ["der", "-a", _gf_alg(_P, 1, 1, 2, 0, 0)], 0, False),
    ("iso-e4-mr-bound", ["iso", "-a", _gf_alg(_P, 1, 1, 2, 0, 0), "-b", _gf_alg(_P, 1, 1, 1, 0, 0)], 0, False),
    ("verify-e4-mr-bound", ["verify", "-a", _gf_alg(_P, 1, 1, 2, 0, 0), "-g", f"[[1,0],[0,{_P - 1}]]", "--mode", "aut"], 0, False),
    ("classify-q-4300-digits", ["classify", "-a", _q_alg(_BIG, "1", "1", _BIG2)], 0, False),
    ("classify-q-4300-digits-cube-root", ["classify", "-a", _q_alg("0", _BIG, "1", "0")], 3, False),
    ("der-q-4300-digits", ["der", "-a", _q_alg(_BIG, "1", "1", _BIG2)], 0, False),
    ("iso-q-4300-digits", ["iso", "-a", _q_alg(_BIG, "1", "1", _BIG2), "-b", _q_alg(_BIG2, "1", "1", _BIG)], 0, False),
    ("t2map-q-4300-digits", ["t2map", "--label", "E6c", "--param", f"{_BIG}/{_BIG2}"], 0, False),
    ("classify-65-levels", ["classify", "-a", '{"field":{"kind":"Q"},"msc":' + _DEEP + "}"], 1, False),
    ("verify-65-levels", ["verify", "-a", _q_alg("1", "0", "0", "1"), "-g", _DEEP, "--mode", "aut"], 1, False),
    ("census-65-levels", ["census", "--field", _DEEP], 1, False),
    ("t2map-zero-denominator", ["t2map", "--label", "E6", "--param", "1/0"], 1, False),
    ("verify-iso-no-target", ["verify", "-a", _q_alg("1", "0", "0", "1"), "-g", "[[1,0],[0,1]]", "--mode", "iso:"], 1, False),
    # argument errors: one line, no usage text
    ("classify-no-algebra", ["classify"], 1, False),
    ("unknown-subcommand", ["frob"], 1, False),
    ("census-jobs-not-int", ["census", "--field", json.dumps(GF5), "--jobs", "x"], 1, False),
    ("unknown-flag", ["classify", "-a", _q_alg("1", "0", "0", "1"), "--frob"], 1, False),
    # 5 is no cube mod 2^61 - 1 and 2 no square mod 999999999989: witnesses in
    # GF(p^3) and GF(p^2), whose moduli are the binomials x^3 - 5 and x^2 + 2
    ("classify-e3-gf2^61-1", ["classify", "-a", _gf_alg(2**61 - 1, 1, 0, 5, 1, 0)], 0, False),
    ("classify-e4-2.1.1-gf999999999989", ["classify", "-a", _gf_alg(999999999989, 1, 1, 2, 1, 2)], 0, False),
    # 3 is no square mod 998244353 = 119 * 2^23 + 1, so the E4 witness lies in
    # GF(p^2); 1/2 is a cube mod 109, whose p - 1 = 4 * 27
    ("classify-e4-gf998244353", ["classify", "-a", _gf_alg(998244353, 1, 1, 3, 0, 0)], 0, False),
    ("classify-e3-gf109", ["classify", "-a", _gf_alg(109, 1, 0, 2, 1, 0)], 0, False),
]
_ONE_SECOND = {
    "aut-e4-gf3^64", "aut-e3-gf2^84", "aut-e3-gf2^129", "classify-e3-gf2^61-1", "classify-e4-2.1.1-gf999999999989",
    "classify-e4-gf998244353", "classify-e3-gf109",
}  # wall bound 1 s instead of 10 s
_GOLDEN = {
    "aut-e3-gf2^256": "aut_e3_gf2_256.json",
    "iso-e3-e6-gf2^256": "iso_e3_e6_gf2_256.json",
    "classify-e3-gf2^61-1": "classify_e3_gf2_61m1.json",
    "classify-e4-2.1.1-gf999999999989": "classify_e4_gf999999999989.json",
    "classify-e4-gf998244353": "classify_e4_gf998244353.json",
    "classify-e3-gf109": "classify_e3_gf109.json",
}


class TestEdgeInputs:
    """Each subcommand on the largest or deepest input the schema admits, in
    a fresh process: a documented exit code, no traceback, at most one
    stderr line, within a wall bound."""

    @pytest.mark.parametrize(
        "name, argv, code",
        [pytest.param(name, argv, code, id=name, marks=[pytest.mark.slow] if slow else []) for name, argv, code, slow in _EDGE_INPUTS],
    )
    def test_bounded_with_one_line(self, name, argv, code):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "evoalg", *argv], capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < (1 if name in _ONE_SECOND else 10)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) <= 1
        assert (proc.stdout == "") == (code == 1)
        if name in _GOLDEN:
            assert proc.stdout == (Path(__file__).parent / "data" / _GOLDEN[name]).read_text()

    @pytest.mark.parametrize(
        "name, fault",
        [
            ("t2map-zero-denominator", "bad rational '1/0': zero denominator"),
            ("verify-iso-no-target", "iso: needs a target algebra"),
            ("classify-no-algebra", "required: -a/--algebra"),
            ("unknown-subcommand", "invalid choice: 'frob'"),
            ("census-jobs-not-int", "--jobs: invalid int value: 'x'"),
            ("unknown-flag", "unrecognized arguments: --frob"),
        ],
    )
    def test_error_line_names_the_fault(self, name, fault):
        argv = next(argv for n, argv, _code, _slow in _EDGE_INPUTS if n == name)
        proc = _evoalg(*argv)
        assert proc.returncode == 1 and proc.stderr.startswith("evoalg: ") and fault in proc.stderr

    def test_e3_golden_automorphisms_are_those_of_gf4(self):
        # E3's group needs only the cube roots of unity: the brute-force group
        # over GF(4), carried into GF(2^256), is the golden listing
        F, K = field_make({"kind": "GF", "p": 2, "k": 256}), field_make({"kind": "GF", "p": 2, "k": 2})
        emb = embed(K, F)
        want = {tuple(tuple(map(emb.raw, row)) for row in g.e) for g in brute_aut(EvolutionMsc.of(K, (0, 1, 1, 0)), K)}
        doc = json.loads((Path(__file__).parent / "data" / "aut_e3_gf2_256.json").read_text())
        assert len(want) == 6 and {tuple(tuple(map(F.parse, row)) for row in m) for m in doc["finite"]} == want


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

    def test_enumerate_past_the_bound_refused(self, capsys):
        # E6 over GF(251) has q(q - 1) = 62,750 automorphisms; counting them
        # is instant, listing them would print 11 MB
        alg = '{"field":{"kind":"GF","p":251,"k":1},"msc":[0,1,0,0]}'
        start = time.perf_counter()
        code, out, err = invoke(capsys, "aut", "-a", alg, "--enumerate")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.splitlines() == ["evoalg: listing 62750 automorphisms over GF(251) refused (more than 10000)"]

    def test_enumerate_over_q_rejected(self, capsys):
        code, _, err = invoke(
            capsys,
            "aut",
            "-a",
            '{"field":{"kind":"Q"},"msc":["0","1","0","0"]}',
            "--enumerate",
        )
        assert code == 1 and "finite" in err

    @pytest.mark.parametrize(
        "p, k, enumerate_, digest",
        [
            (2, 1, False, "5e53aa94bde7b372ddaf4e13519890803280328141f1d772190dcbc171cc0b8a"),
            (2, 1, True, "b501536466dd592b9537058648b88cadea3a0085650f26ad09b14f5c8b0009ab"),
            (5, 1, False, "9d68d282ef293ca5096337a6a5025bc91fd9aa0704f3594cd89304e9dff00bf2"),
            (5, 1, True, "ae8799db810535b49f4b20e9d8128d04cc8a2432b4646f97ce9e52fe596960de"),
            (2, 3, False, "ed5261b74da381cbe35dd0bc956256a1b4c760c9b9f5ef1959ddfd946df74639"),
            (2, 3, True, "8f7dabf283e41c01ad8ce2fa38b469fd0e08d12867f34fa8495a7a1470486ec2"),
            (2, 5, False, "2ba08c44d41444db1972399c1145a1e99de2ef38530908334a76cccb7a14805b"),
            (2, 5, True, "9f67a4db73e957c7ccfa317a37a8fd2fdd02d9e87fe87cde0b696d5a8958a19a"),
            (5, 3, False, "bca5b39f99e1f046678382ad0aeff7b2338995cfd52bc46ea34e57cbe9b2f2c3"),
            (5, 3, True, "2a3adcf8565ad89c4dbf1750e396b730004d9028b5e6a488d86391765bad9217"),
        ],
    )
    def test_e3_without_cube_roots_of_unity_is_pinned(self, capsys, p, k, enumerate_, digest):
        # x^2 + x + 1 has no root in these fields, so the six-element closed
        # form lives in the quadratic extension; the stdout digests pin the
        # JSON byte for byte
        alg = json.dumps({"field": {"kind": "GF", "p": p, "k": k}, "msc": [0, 1, 1, 0]})
        code, out, err = invoke(capsys, "aut", "-a", alg, *(["--enumerate"] if enumerate_ else []))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_enumerate_e3_over_gf_2_15_needs_no_table_of_the_field(self, capsys):
        desc = {"kind": "GF", "p": 2, "k": 15}
        alg = json.dumps({"field": desc, "msc": [0, 1, 1, 0]})
        t0 = time.perf_counter()
        code, out, err = invoke(capsys, "aut", "-a", alg, "--enumerate")
        assert time.perf_counter() - t0 < 2.0
        assert (code, err) == (0, "")
        doc = json.loads(out)
        F = field_make(desc)
        assert doc["order_over_field"] == 2
        assert doc["elements"] == [
            matrix_to_json(Mat2.identity(F)),
            matrix_to_json(Mat2.swap(F)),
        ]

    def test_e3_over_gf_2_61_builds_no_embedding_root(self):
        # the cube roots of unity lie in GF(4) and x^2 + x + 1 has prime-field
        # coefficients, so the GF(2^61) -> GF(2^122) embedding never needs
        # the image of the generator; a fresh process keeps the caches cold
        alg = json.dumps({"field": {"kind": "GF", "p": 2, "k": 61}, "msc": [0, 1, 1, 0]})
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "evoalg", "aut", "-a", alg], capture_output=True, text=True, timeout=60
        )
        assert time.perf_counter() - start < 5
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["order_over_field"] == 2

    def test_zero_algebra_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "aut", "-a", '{"field":{"kind":"Q"},"msc":["0","0","0","0"]}'
        )
        assert code == 1

    def test_e6_family_listing_matches_the_golden_file(self):
        # E6 is the two-parameter family: entries "t^2" and "s", q(q - 1) members
        alg = '{"field":{"kind":"GF","p":5,"k":1},"msc":[0,1,0,0]}'
        proc = _evoalg("aut", "-a", alg, "--enumerate")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (Path(__file__).parent / "data" / "aut_e6_gf5.json").read_text()


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

    def test_inline_matrix_array(self, capsys):
        a = json.dumps({"field": Q, "msc": ["1", "1", "0", "0"]})
        code, out, err = invoke(capsys, "verify", "-a", a, "-g", "[[1,0],[0,1]]", "--mode", "aut")
        assert (code, err) == (0, "") and json.loads(out) == {"mode": "aut", "valid": True}

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

    def test_unwritable_csv_prints_nothing(self, capsys, tmp_path):
        code, out, err = invoke(
            capsys,
            "census",
            "--field",
            '{"kind":"GF","p":2,"k":1}',
            "--csv",
            str(tmp_path / "missing" / "x.csv"),
        )
        assert (code, out) == (1, "")
        assert err.startswith("evoalg: ") and err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_refused(self, capsys, jobs):
        code, out, err = invoke(
            capsys, "census", "--field", '{"kind":"GF","p":2,"k":1}', "--jobs", jobs
        )
        assert (code, out) == (1, "")
        assert err.startswith("evoalg: ") and err.count("\n") == 1

    @pytest.mark.parametrize("max_ext", ["0", "-2"])
    def test_max_ext_below_one_refused(self, capsys, max_ext):
        code, out, err = invoke(
            capsys, "census", "--field", '{"kind":"GF","p":2,"k":1}', "--max-ext", max_ext
        )
        assert (code, out) == (1, "")
        assert err.startswith("evoalg: ") and err.count("\n") == 1

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


class TestNeedsExtensionMessage:
    """The message of NeedsExtension is built when it is shown; its text, the
    polynomial it carries and the one-line report of the command line stay
    as they were when it was built at once."""

    CUBIC = "needs an extension containing a root of Poly(Q, ['-1/18', '0', '0', '1'])"

    def test_text_and_poly(self):
        with pytest.raises(NeedsExtension) as info:
            iso_test(EvolutionMsc.of(QQ, (0, 2, 3, 0)), EvolutionMsc.of(QQ, (0, 1, 1, 0)))
        e = info.value
        assert str(e) == self.CUBIC
        assert e.poly == Poly(QQ, [Fraction(-1, 18), 0, 0, 1])
        assert str(pickle.loads(pickle.dumps(e))) == self.CUBIC
        big = EvolutionMsc.of(QQ, (0, Fraction(2 * 10**60 + 1, 3), 3, 0))
        with pytest.raises(NeedsExtension) as info:
            iso_test(big, EvolutionMsc.of(QQ, (0, 1, 1, 0)))
        assert str(info.value) == (
            "needs an extension containing a root of Poly(Q, "
            "['-1/6" + "0" * 59 + "3', '0', '0', '1'])"
        )

    def test_command_line_report(self, capsys, monkeypatch):
        def raise_it(alg):
            raise NeedsExtension(Poly(QQ, [Fraction(-1, 18), 0, 0, 1]))

        monkeypatch.setattr(cli, "classify", raise_it)
        code, out, err = invoke(capsys, "classify", "-a", '{"field":{"kind":"Q"},"msc":["0","2","3","0"]}')
        assert (code, out, err) == (1, "", f"evoalg: {self.CUBIC}\n")
