"""Command-line front end.

Every command takes a quandle source (``--quandle SPEC`` or ``--file
PATH``) plus a field (``--field Q`` or ``--field 'GF(p)'``) and writes a
deterministic JSON report to stdout; the ``tables`` command instead prints
one PASS/FAIL line per bundled reference-table entry.  Exit status is 0 on
success, 1 on computation or verification failure, 2 on usage errors.
Rationals serialize as ``"num/den"`` strings, prime-field residues as
integers; no floats appear anywhere.  Set QUANDLIB_VERBOSE=1 for extra
detail in reports.  Quandle orders above ``quandles.MAX_ORDER`` (64), from a
spec or a file, are refused as a ``value_error`` with exit status 1 before
any table is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .fields import FieldSpec
from .linalg import Matrix, SubspaceBasis
from .quandles import (
    AxiomViolation,
    NotAGroupError,
    Quandle,
    from_json_dict,
    parse_quandle_spec,
    props,
)
from .algebra import augmentation_ideal, jx_ideal
from .derivations import derivation_space, dihedral_symmetry_report
from .lietransform import _inner_split, inner_derivations, lie_transformation_algebra
from . import tables as table_mod
from .linalg import span_sum


def _verbose() -> bool:
    return os.environ.get("QUANDLIB_VERBOSE", "0") not in ("", "0")


def _scalar_json(f: FieldSpec, v):
    return int(v) if f.is_prime_field else str(v)


def _vector_json(f: FieldSpec, vec):
    return [_scalar_json(f, v) for v in vec]


def _matrix_json(m: Matrix):
    return [_vector_json(m.field, m.row(i)) for i in range(m.nrows)]


def _basis_json(b: SubspaceBasis):
    return [_vector_json(b.field, vec) for vec in b.vectors]


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _fail(kind: str, message: str, **extra) -> int:
    _emit({"error": dict(kind=kind, message=message, **extra)})
    return 1


def _load_quandle(args) -> Quandle:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("JSON nesting is too deep") from None
        return from_json_dict(data)
    return parse_quandle_spec(args.quandle)


def _quandle_source(args) -> str:
    return args.file if args.file else args.quandle


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> int:
    q = _load_quandle(args)
    _emit({"ok": True, "quandle": q.to_json_dict()})
    return 0


def _cmd_props(args) -> int:
    q = _load_quandle(args)
    p = props(q)
    _emit({
        "quandle": _quandle_source(args),
        "n": q.n,
        "involutive": p.involutive,
        "latin": p.latin,
        "medial": p.medial,
        "connected": p.connected,
        "orbits": [list(o) for o in p.orbits],
    })
    return 0


def _cmd_derivations(args) -> int:
    q = _load_quandle(args)
    f = FieldSpec.from_name(args.field)
    der = derivation_space(q, f)
    _emit({
        "quandle": _quandle_source(args),
        "field": f.name,
        "dim": der.dim,
        "basis": [_matrix_json(m) for m in der.basis],
    })
    return 0


def _cmd_symmetries(args) -> int:
    q = _load_quandle(args)
    f = FieldSpec.from_name(args.field)
    der = derivation_space(q, f)
    elements = []
    for i, m in enumerate(der.basis):
        rep = dihedral_symmetry_report(m, q.n)
        elements.append({
            "index": i,
            "checks": {
                name: {
                    "applicable": c.applicable,
                    "holds": c.holds,
                    "counterexample": list(c.counterexample) if c.counterexample else None,
                    "relation": c.description,
                }
                for name, c in sorted(rep.checks.items())
            },
        })
    _emit({
        "quandle": _quandle_source(args),
        "field": f.name,
        "dim": der.dim,
        "elements": elements,
    })
    return 0


def _cmd_lietransform(args) -> int:
    q = _load_quandle(args)
    f = FieldSpec.from_name(args.field)
    transf = lie_transformation_algebra(q, f)
    inner = _inner_split(q, f, transf)
    payload = {
        "quandle": _quandle_source(args),
        "field": f.name,
        "dim": transf.dim,
        "basis": _basis_json(transf.subspace),
        "inner_dim": inner.inner_dim,
        "outer_dim": inner.outer_dim,
    }
    if _verbose():
        payload["generator_log"] = list(transf.generator_log)
    _emit(payload)
    return 0


def _cmd_inner(args) -> int:
    q = _load_quandle(args)
    f = FieldSpec.from_name(args.field)
    inner = inner_derivations(q, f)
    _emit({
        "quandle": _quandle_source(args),
        "field": f.name,
        "derivation_dim": inner.derivation_dim,
        "transformation_dim": inner.transformation_dim,
        "inner_dim": inner.inner_dim,
        "outer_dim": inner.outer_dim,
        "basis": _basis_json(inner.basis),
    })
    return 0


def _cmd_ideals(args) -> int:
    q = _load_quandle(args)
    f = FieldSpec.from_name(args.field)
    aug = augmentation_ideal(q, f)
    jx = jx_ideal(q, f)
    jx_inside = span_sum(aug, jx) == aug if jx.dim else True
    _emit({
        "quandle": _quandle_source(args),
        "field": f.name,
        "augmentation_ideal": {"dim": aug.dim, "basis": _basis_json(aug)},
        "commutator_right_ideal": {
            "dim": jx.dim,
            "basis": _basis_json(jx),
            "contained_in_augmentation_ideal": jx_inside,
        },
    })
    return 0


def _cmd_tables(args) -> int:
    results = table_mod.run_all()
    verbose = _verbose()
    failures = 0
    for r in results:
        if r.ok:
            print(f"PASS  {r.label}  (dim {r.solver_dim})")
        else:
            failures += 1
            print(
                f"FAIL  {r.label}  recorded dim {r.recorded_dim}, "
                f"computed dim {r.solver_dim}, spans match: {r.spans_match}"
            )
        if verbose and r.note:
            print(f"      note: {r.note}")
    print(f"OVERALL {'PASS' if failures == 0 else 'FAIL'} "
          f"({len(results) - failures}/{len(results)} entries verified)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 with a JSON error object
        _emit({"error": {"kind": "usage", "message": message}})
        raise SystemExit(2)


def _add_quandle_args(p: argparse.ArgumentParser, with_field: bool = True) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--quandle", help="builtin spec, e.g. dihedral:6, trivial:3, "
                                       "alexander:5,2, conjugation:s3, catalog:4.6")
    src.add_argument("--file", help="JSON file with {\"n\": int, \"table\": [[int]]}")
    if with_field:
        p.add_argument("--field", default="Q", help="Q (default) or GF(p)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quandlib", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the three quandle axioms")
    _add_quandle_args(p, with_field=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("props", help="structural predicates and orbits")
    _add_quandle_args(p, with_field=False)
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("derivations", help="derivation space of the quandle algebra")
    _add_quandle_args(p)
    p.set_defaults(func=_cmd_derivations)

    p = sub.add_parser("symmetries", help="coefficient symmetry report per basis derivation")
    _add_quandle_args(p)
    p.set_defaults(func=_cmd_symmetries)

    p = sub.add_parser("lietransform", help="Lie transformation algebra")
    _add_quandle_args(p)
    p.set_defaults(func=_cmd_lietransform)

    p = sub.add_parser("inner", help="inner/outer derivation split")
    _add_quandle_args(p)
    p.set_defaults(func=_cmd_inner)

    p = sub.add_parser("ideals", help="augmentation ideal and the commutator right ideal")
    _add_quandle_args(p)
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("tables", help="verify all bundled reference tables")
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except AxiomViolation as exc:
        return _fail("axiom_violation", str(exc), axiom=exc.axiom, witness=list(exc.witness))
    except NotAGroupError as exc:
        return _fail("not_a_group", str(exc), witness=list(exc.witness))
    except OSError as exc:
        return _fail("file_error", str(exc))
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        return _fail("value_error", str(exc))


if __name__ == "__main__":
    sys.exit(main())
