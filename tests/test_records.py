"""The seven result records are immutable named tuples, and importing the
command line loads neither `dataclasses` nor `inspect`."""

import os
import pathlib
import subprocess
import sys

import pytest

import evoalg
from evoalg import (
    GF,
    QQ,
    AutDescription,
    BasisChange,
    CensusRecord,
    CensusReport,
    ClassificationResult,
    DerBasis,
    EvolutionMsc,
    Mat2,
    ParamFamily,
    TransformedEntries,
    aut_closed_form,
    census,
    classify,
    der_solve,
    transform_evolution,
)


def _records():
    """Per record type, a function that builds one afresh."""
    E, F5 = EvolutionMsc.of(QQ, (1, 2, 3, 5)), GF(5)
    E6 = EvolutionMsc.of(F5, (0, 1, 0, 0))
    change = BasisChange(Mat2.of(QQ, ((1, 1), (0, 1))))

    def aut():
        return aut_closed_form(classify(E6, witness=False).key, F5)

    return {
        ClassificationResult: lambda: classify(E),
        TransformedEntries: lambda: transform_evolution(E, change),
        ParamFamily: lambda: aut().families[0],
        AutDescription: aut,
        DerBasis: lambda: der_solve(E6),
        CensusRecord: lambda: census(GF(2)).records[0],
        CensusReport: lambda: census(GF(2)),
    }


_RECORDS = _records()


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda c: c.__name__)
class TestRecords:
    def test_fields_by_name(self, cls):
        rec = _RECORDS[cls]()
        assert type(rec) is cls and rec._fields
        assert tuple(getattr(rec, name) for name in rec._fields) == tuple(rec)

    def test_immutable(self, cls):
        rec = _RECORDS[cls]()
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)
        with pytest.raises(AttributeError):
            rec.extra = None

    def test_equal_records_hash_alike(self, cls):
        a, b = _RECORDS[cls](), _RECORDS[cls]()
        assert a == b and a is not b
        if cls is CensusReport:  # its flags are a dict, as they were before
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_repr_names_each_field(self, cls):
        rec = _RECORDS[cls]()
        inner = ", ".join(f"{name}={getattr(rec, name)!r}" for name in rec._fields)
        assert repr(rec) == f"{cls.__name__}({inner})"

    def test_replace(self, cls):
        rec = _RECORDS[cls]()
        name = rec._fields[-1]
        new = rec._replace(**{name: None})
        assert getattr(new, name) is None and new[:-1] == rec[:-1]


def test_aut_description_defaults_missing_root_to_none():
    desc = AutDescription(*_RECORDS[AutDescription]()[:5])
    assert desc.missing_root is None and desc == _RECORDS[AutDescription]()


def test_properties_and_methods_kept():
    res, te = _RECORDS[ClassificationResult](), _RECORDS[TransformedEntries]()
    assert res.witness is not None and te.as_msc().field is QQ
    fam = _RECORDS[ParamFamily]()
    assert fam.entries_text() == [["t^2", "s"], ["0", "t"]] and fam.excluded_text() == ["t != 0"]
    assert fam.admissible_raw(1, 0) and not fam.admissible_raw(0, 1)
    assert fam.matrix_raw(2, 3) == Mat2.of(GF(5), ((4, 3), (0, 2)))
    basis = _RECORDS[DerBasis]()
    assert basis.dim == 2 and len(basis.vectors()) == 2
    assert _RECORDS[CensusReport]().ok


def test_fresh_cli_import_loads_no_dataclasses():
    src = str(pathlib.Path(evoalg.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, evoalg.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
