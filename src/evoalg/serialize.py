"""JSON encodings shared by the CLI and the file formats.

Element text encoding: rationals as strings "n/d" (the denominator omitted
when 1, e.g. "-3"); GF(p^k) elements as arrays of k integers
[c0, ..., c_{k-1}]. Field descriptors: {"kind":"Q"} |
{"kind":"GF","p":5,"k":1} | {"kind":"GF","p":2,"k":2,"modulus":[1,1,1]}.
Algebras: {"field": <descriptor>, "msc": [a,b,c,d]} for evolution form, or
{"field": <descriptor>, "msc8": [[..4..],[..4..]]} for a full 2x4 matrix.

Basis changes are always written through the entries of g^-1 and tagged
"convention": "g_inverse".
"""

from __future__ import annotations

import json

from .autgroup import AutDescription, aut_instantiate
from .classify import CanonicalKey, ClassificationResult
from .derivations import DerBasis
from .fields import Fel, FieldCtx, FieldError, Poly, field_make
from .msc import EvolutionMsc, Mat2, Msc
from .oracle import CensusReport


class SchemaError(ValueError):
    """Input JSON does not match the expected shape."""


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def field_from_json(obj) -> FieldCtx:
    if not isinstance(obj, dict):
        raise SchemaError(f"field descriptor must be an object, got {obj!r}")
    try:
        return field_make(obj)
    except FieldError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad field descriptor {obj!r}: {e}") from None


def el_to_json(x: Fel):
    return x.field.text(x.raw)


def el_from_json(f: FieldCtx, obj) -> Fel:
    return Fel(f, f.parse(obj))


def poly_to_json(p: Poly) -> list:
    return p.text()


def matrix_to_json(m: Mat2) -> list:
    t = m.field.text
    return [[t(v) for v in row] for row in m.e]


def matrix_from_json(f: FieldCtx, obj) -> Mat2:
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or any(not isinstance(r, list) or len(r) != 2 for r in obj)
    ):
        raise SchemaError("a matrix is a 2x2 array of elements")
    return Mat2(f, tuple(tuple(f.parse(v) for v in row) for row in obj))


def algebra_from_json(obj):
    """(field, Msc-or-EvolutionMsc) from an algebra document."""
    if not isinstance(obj, dict):
        raise SchemaError("algebra document must be an object")
    f = field_from_json(obj.get("field"))
    if "msc" in obj:
        entries = obj["msc"]
        if not isinstance(entries, list) or len(entries) != 4:
            raise SchemaError('"msc" must be an array [a, b, c, d]')
        return f, EvolutionMsc(f, tuple(f.parse(v) for v in entries))
    if "msc8" in obj:
        rows = obj["msc8"]
        if (
            not isinstance(rows, list)
            or len(rows) != 2
            or any(not isinstance(r, list) or len(r) != 4 for r in rows)
        ):
            raise SchemaError('"msc8" must be a 2x4 array')
        return f, Msc(f, tuple(tuple(f.parse(v) for v in row) for row in rows))
    raise SchemaError('algebra document needs "msc" or "msc8"')


def algebra_to_json(E: Msc) -> dict:
    t = E.field.text
    if isinstance(E, EvolutionMsc):
        return {"field": E.field.descriptor(), "msc": [t(v) for v in E.abcd]}
    return {
        "field": E.field.descriptor(),
        "msc8": [[t(v) for v in row] for row in E.rows],
    }


def key_to_json(k: CanonicalKey) -> dict:
    return {"label": k.label, "params": [el_to_json(p) for p in k.params]}


def key_str(k: CanonicalKey) -> str:
    if not k.params:
        return k.label
    inner = ",".join(
        json.dumps(el_to_json(p), separators=(",", ":")) for p in k.params
    )
    return f"{k.label}({inner})"


def result_to_json(res: ClassificationResult) -> dict:
    return {
        "key": key_to_json(res.key),
        "witness": None if res.witness is None else matrix_to_json(res.witness.ginv),
        "convention": "g_inverse",
        "witness_field": res.witness_field.descriptor(),
        "needs_extension": (
            None if res.needs_extension is None else poly_to_json(res.needs_extension)
        ),
        "trace": list(res.trace),
        "lambda": None if res.lam is None else el_to_json(res.lam),
    }


def aut_to_json(desc: AutDescription, elements=None) -> dict:
    out = {
        "key": key_to_json(desc.key),
        "field": desc.base_field.descriptor(),
        "finite": [matrix_to_json(m) for m in desc.finite_elements],
        "families": [
            {"entries": fam.entries_text(), "excluded": fam.excluded_text()}
            for fam in desc.families
        ],
        "order_over_field": None,
    }
    if desc.element_field is not desc.base_field:
        out["element_field"] = desc.element_field.descriptor()
    if desc.base_field.order is not None:
        out["order_over_field"] = len(
            elements if elements is not None else aut_instantiate(desc, desc.base_field)
        )
    elif not desc.families:
        out["order_over_field"] = len(desc.finite_elements)
    if elements is not None:
        out["elements"] = [matrix_to_json(m) for m in elements]
    return out


def der_to_json(basis: DerBasis) -> dict:
    return {"dim": basis.dim, "basis": [matrix_to_json(m) for m in basis.basis]}


def census_to_json(report: CensusReport) -> dict:
    t = report.field.text
    return {
        "field": report.field.descriptor(),
        "gl2_order": report.gl2_order,
        "total_evolution_msc": report.total_evolution_msc,
        "max_witness_ext": report.max_witness_ext,
        "records": [
            {
                "key": key_to_json(r.key),
                "orbit_representatives": [
                    [t(v) for v in rep.abcd] for rep in r.orbit_representatives
                ],
                "orbit_size_in_evolution_subset": r.orbit_size_in_evolution_subset,
                "brute_aut_order": r.brute_aut_order,
                "der_dim": r.der_dim,
            }
            for r in report.records
        ],
        "flags": dict(report.flags),
    }


def census_to_csv(report: CensusReport) -> str:
    lines = ["key,count,aut_order,der_dim"]
    for r in report.records:
        lines.append(
            f'"{key_str(r.key)}",{r.orbit_size_in_evolution_subset},'
            f"{r.brute_aut_order},{r.der_dim}"
        )
    return "\n".join(lines) + "\n"
