"""Command-line front end.

Every command takes a quandle source (``--quandle SPEC`` or ``--file
PATH``) plus a field (``--field Q`` or ``--field 'GF(p)'``) and writes a
deterministic JSON report to stdout; the ``tables`` command instead prints
one PASS/FAIL line per bundled reference-table entry.  Exit status is 0 on
success, 1 on computation or verification failure, 2 on usage errors.
Rationals serialize as ``"num/den"`` strings, prime-field residues as
integers; no floats appear anywhere.  Set QUANDLIB_VERBOSE=1 for extra
detail in reports.  A quandle's order must be at least 1 and at most
``quandles.MAX_ORDER`` (64), from a spec or a file, and a file may hold at
most ``MAX_FILE_BYTES`` (1 MiB); anything else is refused as a
``value_error`` with exit status 1 before any table is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .quandles import (
    AxiomViolation,
    NotAGroupError,
    Quandle,
    from_json_dict,
    parse_quandle_spec,
    props,
)

# Only the quandle layer is loaded with this module: each command imports the
# modules it computes with on its first line, so ``validate`` never compiles
# the solver and ``derivations`` never compiles the operator closure.

# Largest ``--file`` accepted, read before any JSON is parsed.
MAX_FILE_BYTES = 1 << 20


def _verbose() -> bool:
    return os.environ.get("QUANDLIB_VERBOSE", "0") not in ("", "0")


def _rows_json(f: FieldSpec, rows):
    return [[int(v) if f.is_prime_field else str(v) for v in row] for row in rows]


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _fail(kind: str, message: str, **extra) -> int:
    _emit({"error": dict(kind=kind, message=message, **extra)})
    return 1


def _load_quandle(args) -> Quandle:
    if args.file is not None:
        with open(args.file, "rb") as fh:
            raw = fh.read(MAX_FILE_BYTES + 1)
        if len(raw) > MAX_FILE_BYTES:
            raise ValueError(f"file exceeds the limit MAX_FILE_BYTES = {MAX_FILE_BYTES}")
        try:
            data = json.loads(raw.decode("utf-8"))
        except RecursionError:
            raise ValueError("JSON nesting is too deep") from None
        return from_json_dict(data)
    return parse_quandle_spec(args.quandle)


# ---------------------------------------------------------------------------
# commands: each maps a quandle and a field (None without --field) to the
# report's entries beyond the "quandle"/"field" header


def _cmd_validate(q: Quandle, f: FieldSpec | None) -> dict:
    return {"ok": True, "quandle": q.to_json_dict()}


def _cmd_props(q: Quandle, f: FieldSpec | None) -> dict:
    p = props(q)
    return {
        "n": q.n,
        "involutive": p.involutive,
        "latin": p.latin,
        "medial": p.medial,
        "connected": p.connected,
        "orbits": [list(o) for o in p.orbits],
    }


def _cmd_derivations(q: Quandle, f: FieldSpec) -> dict:
    from .derivations import derivation_space
    der = derivation_space(q, f)
    return {"dim": der.dim, "basis": [_rows_json(f, m.to_lists()) for m in der.basis]}


def _cmd_symmetries(q: Quandle, f: FieldSpec) -> dict:
    from .derivations import derivation_space, dihedral_symmetry_report
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
    return {"dim": der.dim, "elements": elements}


def _cmd_lietransform(q: Quandle, f: FieldSpec) -> dict:
    from .lietransform import _inner_split, lie_transformation_algebra
    transf = lie_transformation_algebra(q, f)
    inner = _inner_split(q, f, transf)
    payload = {
        "dim": transf.dim,
        "basis": _rows_json(f, transf.subspace.vectors),
        "inner_dim": inner.inner_dim,
        "outer_dim": inner.outer_dim,
    }
    if _verbose():
        payload["generator_log"] = list(transf.generator_log)
    return payload


def _cmd_inner(q: Quandle, f: FieldSpec) -> dict:
    from .lietransform import inner_derivations
    inner = inner_derivations(q, f)
    return {
        "derivation_dim": inner.derivation_dim,
        "transformation_dim": inner.transformation_dim,
        "inner_dim": inner.inner_dim,
        "outer_dim": inner.outer_dim,
        "basis": _rows_json(f, inner.basis.vectors),
    }


def _cmd_ideals(q: Quandle, f: FieldSpec) -> dict:
    from .algebra import augmentation_ideal, jx_ideal
    from .linalg import span_sum
    aug = augmentation_ideal(q, f)
    jx = jx_ideal(q, f)
    return {
        "augmentation_ideal": {"dim": aug.dim, "basis": _rows_json(f, aug.vectors)},
        "commutator_right_ideal": {
            "dim": jx.dim,
            "basis": _rows_json(f, jx.vectors),
            "contained_in_augmentation_ideal": span_sum(aug, jx) == aug,
        },
    }


# name -> (help, takes --field, command), in the order ``--help`` lists them
_COMMANDS = {
    "validate": ("check the three quandle axioms", False, _cmd_validate),
    "props": ("structural predicates and orbits", False, _cmd_props),
    "derivations": ("derivation space of the quandle algebra", True, _cmd_derivations),
    "symmetries": ("coefficient symmetry report per basis derivation", True, _cmd_symmetries),
    "lietransform": ("Lie transformation algebra", True, _cmd_lietransform),
    "inner": ("inner/outer derivation split", True, _cmd_inner),
    "ideals": ("augmentation ideal and the commutator right ideal", True, _cmd_ideals),
}


def _run(args) -> int:
    """Print a command's report; a bad spec is reported before a bad field."""
    if args.command == "tables":
        return _run_tables()
    _, with_field, command = _COMMANDS[args.command]
    q = _load_quandle(args)
    header = {"quandle": args.quandle if args.file is None else args.file}
    f = None
    if with_field:
        from .fields import FieldSpec
        f = FieldSpec.from_name(args.field)
        header["field"] = f.name
    _emit({**header, **command(q, f)})
    return 0


def _run_tables() -> int:
    from .tables import run_all
    results = run_all()
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quandlib", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, with_field, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--quandle", help="builtin spec, e.g. dihedral:6, trivial:3, "
                                           "alexander:5,2, conjugation:s3, catalog:4.6")
        src.add_argument("--file", help="JSON file with {\"n\": int, \"table\": [[int]]}")
        if with_field:
            p.add_argument("--field", default="Q", help="Q (default) or GF(p)")
    sub.add_parser("tables", help="verify all bundled reference tables")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _run(args)
    except AxiomViolation as exc:
        return _fail("axiom_violation", str(exc), axiom=exc.axiom, witness=list(exc.witness))
    except NotAGroupError as exc:
        return _fail("not_a_group", str(exc), witness=list(exc.witness))
    except OSError as exc:
        return _fail("file_error", str(exc))
    except KeyError as exc:  # str() would quote the message
        return _fail("value_error", str(exc.args[0]) if exc.args else "")
    except (ValueError, ZeroDivisionError) as exc:
        return _fail("value_error", str(exc))


if __name__ == "__main__":
    sys.exit(main())
