"""Command-line front end.

One subcommand per invocation; exactly one JSON document on stdout,
diagnostics on stderr. Exit codes: 0 success, 1 input/schema error,
2 internal consistency failure (census flags false), 3 a result over Q
that needs a field extension (the result is still printed).
"""

from __future__ import annotations

import argparse
import json
import sys

from .autgroup import aut_closed_form, aut_instantiate, aut_check
from .classify import classify, iso_test, t2_to_t1, UnsupportedKey, InvalidParams
from .derivations import der_check, der_solve
from .fields import Fel, FieldError, NeedsExtension, field_make
from .msc import BasisChange, EvolutionMsc, SingularChange, transform
from .oracle import BudgetExceeded, census
from .serialize import (
    SchemaError,
    algebra_from_json,
    aut_to_json,
    census_to_csv,
    census_to_json,
    der_to_json,
    dumps,
    field_from_json,
    matrix_from_json,
    matrix_to_json,
    poly_to_json,
    result_to_json,
)

_INPUT_ERRORS = (
    SchemaError,
    FieldError,
    SingularChange,
    UnsupportedKey,
    InvalidParams,
    BudgetExceeded,
    OSError,
    json.JSONDecodeError,
)


_JSON_MAX_DEPTH = 64  # nested arrays and objects; the schemas here need far fewer


def _parse_json(text: str):
    # json's own depth limit depends on the interpreter, so every document
    # past the bound is refused here, parsed or not
    try:
        doc = json.loads(text)
    except RecursionError:
        pass
    else:
        level = [doc]
        for _ in range(_JSON_MAX_DEPTH):
            level = [v for x in level if isinstance(x, (list, dict)) for v in (x.values() if isinstance(x, dict) else x)]
        if not any(isinstance(x, (list, dict)) for x in level):
            return doc
    raise SchemaError(f"JSON document nested deeper than {_JSON_MAX_DEPTH} levels")


def _load_json(path: str):
    if path.strip().startswith(("{", "[")):
        return _parse_json(path)
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is ignored (RFC 8259 8.1)
            return _parse_json(fh.read())
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def _load_evolution(path: str):
    f, alg = algebra_from_json(_load_json(path))
    if not isinstance(alg, EvolutionMsc):
        try:
            alg = alg.to_evolution()
        except ValueError:
            raise SchemaError(
                "this command needs an algebra in evolution form"
            ) from None
    return f, alg


def _emit(obj) -> None:
    sys.stdout.write(dumps(obj))


def _cmd_classify(args) -> int:
    f, alg = _load_evolution(args.algebra)
    res = classify(alg)
    _emit(result_to_json(res))
    return 3 if res.needs_extension is not None else 0


def _cmd_aut(args) -> int:
    f, alg = _load_evolution(args.algebra)
    desc = aut_closed_form(classify(alg, witness=False).key, f)
    elements = None
    if args.enumerate:
        if f.order is None:
            raise SchemaError("--enumerate needs a finite field")
        elements = aut_instantiate(desc, f)
    _emit(aut_to_json(desc, elements))
    return 0


def _cmd_der(args) -> int:
    f, alg = algebra_from_json(_load_json(args.algebra))
    _emit(der_to_json(der_solve(alg)))
    return 0


def _cmd_iso(args) -> int:
    fa, A = _load_evolution(args.algebra_a)
    fb, B = _load_evolution(args.algebra_b)
    if fa is not fb:
        raise SchemaError("both algebras must be over the same field")
    try:
        w = iso_test(A, B)
    except NeedsExtension as e:
        _emit(
            {
                "isomorphic": True,
                "witness": None,
                "convention": "g_inverse",
                "needs_extension": poly_to_json(e.poly),
            }
        )
        return 3
    if w is None:
        _emit({"isomorphic": False})
        return 0
    _emit(
        {
            "isomorphic": True,
            "witness": matrix_to_json(w.ginv),
            "convention": "g_inverse",
            "witness_field": w.field.descriptor(),
        }
    )
    return 0


def _cmd_verify(args) -> int:
    f, alg = algebra_from_json(_load_json(args.algebra))
    gobj = _load_json(args.matrix)
    if isinstance(gobj, dict):
        gf = field_from_json(gobj["field"]) if "field" in gobj else f
        if gf is not f:
            raise SchemaError("matrix field must match the algebra field")
        gobj = gobj.get("matrix")
    g = matrix_from_json(f, gobj)
    mode = args.mode
    if mode == "aut":
        valid = aut_check(alg, g)
    elif mode == "der":
        valid = der_check(alg, g)
    elif mode == "iso:":
        raise SchemaError("mode iso: needs a target algebra (iso:<path or JSON document>)")
    elif mode.startswith("iso:"):
        ft, target = algebra_from_json(_load_json(mode[4:]))
        if ft is not f:
            raise SchemaError("target algebra must be over the same field")
        valid = transform(alg, BasisChange(g)) == target
    else:
        raise SchemaError(f"unknown mode {mode!r} (use aut, der or iso:<target>)")
    _emit({"mode": mode, "valid": bool(valid)})
    return 0


def _cmd_census(args) -> int:
    if args.jobs < 1:
        raise SchemaError(f"--jobs must be at least 1, got {args.jobs}")
    if args.max_ext < 1:
        raise SchemaError(f"--max-ext must be at least 1, got {args.max_ext}")
    f = field_from_json(_load_json(args.field))
    report = census(f, max_witness_ext=args.max_ext)
    if args.csv:  # first, so a failed write leaves stdout empty
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(census_to_csv(report))
    _emit(census_to_json(report))
    return 0 if report.ok else 2


def _cmd_t2map(args) -> int:
    f = field_from_json(_load_json(args.field)) if args.field else field_make({"kind": "Q"})
    params = tuple(Fel(f, f.parse(_maybe_json(p))) for p in args.param or [])
    key = t2_to_t1(f, args.label, params)
    _emit({"label": key.label, "params": [f.text(p.raw) for p in key.params]})
    return 0


def _maybe_json(s: str):
    s = s.strip()
    if s.startswith("["):
        return _parse_json(s)
    return s


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # the one `evoalg: ...` line of any input error, no usage lines
        raise SchemaError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="evoalg",
        description=(
            "Classify 2-dimensional evolution algebras over exact fields, "
            "compute their automorphism groups and derivation algebras, and "
            "cross-check against brute force over small finite fields."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="canonical form, witness and decision trace")
    p.add_argument("-a", "--algebra", required=True, help="algebra JSON (path or inline)")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser(
        "aut", help="closed-form automorphism group of the canonical representative"
    )
    p.add_argument("-a", "--algebra", required=True)
    p.add_argument(
        "--enumerate",
        action="store_true",
        help="also list every element (finite fields only)",
    )
    p.set_defaults(fn=_cmd_aut)

    p = sub.add_parser("der", help="basis of the derivation algebra")
    p.add_argument("-a", "--algebra", required=True)
    p.set_defaults(fn=_cmd_der)

    p = sub.add_parser("iso", help="explicit isomorphism between two algebras, if any")
    p.add_argument("-a", "--algebra-a", required=True)
    p.add_argument("-b", "--algebra-b", required=True)
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("verify", help="check a matrix as automorphism/derivation/witness")
    p.add_argument("-a", "--algebra", required=True)
    p.add_argument("-g", "--matrix", required=True, help="2x2 matrix JSON (path or inline)")
    p.add_argument(
        "--mode",
        required=True,
        help="aut | der | iso:<target algebra path> (iso reads the matrix as g^-1)",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("census", help="orbit census with brute-force cross-checks")
    p.add_argument("--field", required=True, help="field descriptor JSON (path or inline)")
    p.add_argument("--max-ext", type=int, default=6, help="witness extension budget")
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; the census runs in one process")
    p.add_argument("--csv", help="also write a CSV summary to this path")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser(
        "t2map", help="translate labels of the six-family complex classification"
    )
    p.add_argument("--label", required=True, help="E1..E4, E5ab (2 params), E6c (1 param)")
    p.add_argument("--param", action="append", help="parameter value (repeatable)")
    p.add_argument("--field", help="field descriptor (default: Q)")
    p.set_defaults(fn=_cmd_t2map)

    return ap


def run(argv) -> int:
    # results can run past Python's default 4300-digit limit on int <-> str
    # conversions; the input size already bounds the work, so lift it for the
    # call and give the caller's limit back afterwards
    lift = hasattr(sys, "set_int_max_str_digits")  # the limit came in 3.10.7
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit:  # --help; parse errors raise SchemaError
        return 0
    except _INPUT_ERRORS as e:
        print(f"evoalg: {e}", file=sys.stderr)
        return 1
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
