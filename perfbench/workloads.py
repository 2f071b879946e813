"""The benchmark's workloads: seeded inputs, operations and exact output checks.

Each workload is a closed loop with one client: the benchmark process runs one
operation at a time, and cli-sweep keeps at most one child process alive.
``setup(seed, root)`` builds a workload's passes, each a list of
operations; the same seed always gives the same passes, and a run cycles
through them.  The seed picks the random relabelings
(``quandles.relabel``), the Alexander units and one of the four primes
below 2**31.  Orders are fixed, so the cost scale does not depend on the seed.

Each workload's operations form a grid, one operation per cell, with no
repeats: derive-ladder is the fixed ladder of ROADMAP item 1 plus one
relabeled solve per small order and field; transform-closure is every
closure operation on dihedral 6 and 8 and the affine form on Alexander 5
and 7; cli-sweep is every command on every kind of input.  Q is used only
where a Q operation stays below a few seconds, so that a run of a few tens
of seconds holds the hundred latency samples a 90th percentile needs.

Expected values live in ``expected.json``, written by ``record.py`` from the
unrelabeled inputs.  A relabeled result is pulled back through its
permutation and canonicalized before it is compared, so one recorded value
covers every relabeling.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import quandlib as ql

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORK_DIR = ".perfbench_out"  # relative to the checkout root

LARGE_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)  # the four primes below 2**31


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]  # None when the output is correct
    malformed: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    setup: Callable[[int, str], list[list[Op]]]
    universe: Callable[[str], Iterator[tuple[str, Callable[[], dict]]]]


# The in-process workloads build this many passes, each with fresh seeded
# relabelings, so that a run's figures average over relabelings instead of
# resting on one per operation.
RELABELINGS = 3


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# A field kind is "Q", "GF(3)" or "large", a prime below 2**31 that the seed picks.
def _fields(kind: str) -> list:
    if kind == "large":
        return [ql.GF(p) for p in LARGE_PRIMES]
    return [ql.FieldSpec.from_name(kind)]


def _field(kind: str, large: int):
    return ql.GF(large) if kind == "large" else ql.FieldSpec.from_name(kind)


def _isomorphism_invariants(q) -> tuple:
    p = ql.props(q)
    return p.involutive, p.latin, p.medial, p.connected, sorted(len(o) for o in p.orbits)


def relabeled(spec: str, perm: list[int]):
    """``spec``'s quandle relabeled by ``perm``; its props must match the base's."""
    base = ql.parse_quandle_spec(spec)
    q = ql.relabel(base, perm)
    if _isomorphism_invariants(q) != _isomorphism_invariants(base):
        raise RuntimeError(f"relabel changed the structural predicates of {spec}")
    return q


def _seeded_input(spec: str, relabel: bool, rng: random.Random):
    """(quandle, perm): ``spec`` relabeled by a seeded permutation, or as built."""
    n = ql.parse_quandle_spec(spec).n
    perm = list(range(n))
    if not relabel:
        return ql.parse_quandle_spec(spec), perm
    rng.shuffle(perm)
    return relabeled(spec, perm), perm


def _input_label(spec: str, relabel: bool, perm: list[int]) -> str:
    """``spec``, with its relabeling when there is one; a label names one input."""
    return f"{spec}~{','.join(map(str, perm))}" if relabel else spec


# Alexander choices share the multiplicative order of the unit, so the
# seed's pick does not move cost much.
_ALEX = {5: ("alexander:5,2", "alexander:5,3"), 7: ("alexander:7,3", "alexander:7,5"),
         9: ("alexander:9,2", "alexander:9,5"),
         11: ("alexander:11,2", "alexander:11,6", "alexander:11,7", "alexander:11,8"),
         13: ("alexander:13,2", "alexander:13,6", "alexander:13,7", "alexander:13,11")}


# ---------------------------------------------------------------------------
# in-process operations: derivation spaces and operator algebras

def _digest(vectors) -> str:
    text = json.dumps([[str(v) for v in vec] for vec in vectors])
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _pulled_back(basis, n: int, perm: list[int]) -> str:
    """Digest of the canonical span of flattened n x n maps of a relabeled quandle, pulled back.

    A map M' of the relabeled algebra corresponds to M[a][b] = M'[perm a][perm b];
    this holds in either flattening.
    """
    back = [tuple(vec[perm[a] * n + perm[b]] for a in range(n) for b in range(n))
            for vec in basis.vectors]
    return _digest(ql.span_from_vectors(basis.field, n * n, back).vectors)


def summarize(r, n: int, perm: list[int]) -> dict:
    """The labelling-free values of a derivation space that the recorded values pin down."""
    return {"dim": r.dim, "span": _pulled_back(r.subspace, n, perm)}


def _derive_op(spec: str, f, relabel: bool, rng: random.Random, expected: dict) -> Op:
    q, perm = _seeded_input(spec, relabel, rng)
    label = f"derivations {_input_label(spec, relabel, perm)} {f.name}"
    want = expected.get(f"derivations {spec} {f.name}")

    def check(result) -> str | None:
        for i, d in enumerate(result.basis):
            if not ql.verify_structure_relations(d, q).ok:
                return f"basis matrix {i} breaks the structure relations"
        got = summarize(result, q.n, perm)
        if got != want:
            return f"got {got}, recorded {want}"
        return None

    return Op(label, lambda: ql.derivation_space(q, f), check)


# (spec choices, field kind, relabeled).  The fixed ladder of ROADMAP item 1
# keeps its natural labelling: relabeling alone moves one order-32 solve
# between 2.8 and 8.3 s, a spread no seed-to-seed bound absorbs.  Order 32
# runs over GF(3) only: over Q it takes 5-7 s, half of a pass, which leaves
# so few passes in a run that each latency percentile rests on two or three
# samples of one solve.
# The relabeled rungs are every even dihedral order from 4 to 14 and every
# Alexander order from 5 to 13, over Q and over the seed's large prime.
DERIVE_SLOTS = (
    [((f"dihedral:{n}",), fk, False) for n in (8, 16, 24, 32) for fk in ("Q", "GF(3)")
     if (n, fk) != (32, "Q")]
    + [((f"catalog:{label}",), "Q", False) for label in ql.catalog_labels()
       if label.startswith("4.")]
    + [((f"dihedral:{n}",), fk, True) for n in range(4, 15, 2) for fk in ("Q", "large")]
    + [(_ALEX[n], fk, True) for n in sorted(_ALEX) for fk in ("Q", "large")]
)


def derive_setup(seed: int, root: str) -> list[list[Op]]:
    rng = random.Random(f"derive-ladder/{seed}")
    large = rng.choice(LARGE_PRIMES)
    expected = load_expected()
    return [[_derive_op(rng.choice(specs), _field(fk, large), relabel, rng, expected)
             for specs, fk, relabel in DERIVE_SLOTS] for _ in range(RELABELINGS)]


def derive_universe(root: str):
    seen = set()
    for specs, field_kind, _ in DERIVE_SLOTS:
        for spec in specs:
            for f in _fields(field_kind):
                key = f"derivations {spec} {f.name}"
                if key not in seen:
                    seen.add(key)

                    def compute(spec=spec, f=f):
                        q = ql.parse_quandle_spec(spec)
                        return summarize(ql.derivation_space(q, f), q.n, list(range(q.n)))
                    yield key, compute


# transform-closure: operator closures, each result conjugated back by its
# relabeling.  Operation name -> (function, summary of a result).
def _summary_lie(r, n, perm):
    return {"dim": r.dim, "span": _pulled_back(r.subspace, n, perm)}


def _summary_inner(r, n, perm):
    return {"dims": [r.inner_dim, r.outer_dim, r.derivation_dim, r.transformation_dim],
            "span": _pulled_back(r.basis, n, perm)}


def _summary_lr(r, n, perm):
    return {"dims": [r.lr_dim, r.transformation_dim],
            "contained": r.contains_transformation_algebra, "strict": r.strict,
            "span": _pulled_back(r.basis, n, perm)}


def _summary_affine(r, n, perm):
    return {"all_contained": r.all_contained, "failures": list(r.failures),
            "dims": [r.span_dim, r.transformation_dim]}


TRANSFORM_OPS = {
    "lietransform": (ql.lie_transformation_algebra, _summary_lie),
    "inner": (ql.inner_derivations, _summary_inner),
    "lr_form_bound": (ql.lr_form_bound, _summary_lr),
    "alexander_form": (ql.alexander_canonical_form, _summary_affine),
}

# (operation, spec choices, field kind, relabeled): every closure operation
# on dihedral 6 over Q and GF(p) and on dihedral 8 over GF(p), the closure
# of dihedral 10 over GF(3), and the affine form of Alexander 5 and 7, which
# must stay unrelabeled because relabel drops the affine parameters.
TRANSFORM_SLOTS = (
    [(op, ("dihedral:6",), fk, True) for op in ("lietransform", "inner", "lr_form_bound")
     for fk in ("Q", "large")]
    + [(op, ("dihedral:8",), "large", True) for op in ("lietransform", "inner", "lr_form_bound")]
    + [("lietransform", ("dihedral:10",), "GF(3)", True)]
    + [("alexander_form", _ALEX[5], fk, False) for fk in ("Q", "large")]
    + [("alexander_form", _ALEX[7], "GF(3)", False)]
)


def _transform_op(name: str, spec: str, f, relabel: bool, rng: random.Random,
                  expected: dict) -> Op:
    fn, summary = TRANSFORM_OPS[name]
    q, perm = _seeded_input(spec, relabel, rng)
    want = expected.get(f"{name} {spec} {f.name}")

    def check(result) -> str | None:
        got = summary(result, q.n, perm)
        return None if got == want else f"got {got}, recorded {want}"

    return Op(f"{name} {_input_label(spec, relabel, perm)} {f.name}",
              lambda: fn(q, f), check)


def transform_setup(seed: int, root: str) -> list[list[Op]]:
    rng = random.Random(f"transform-closure/{seed}")
    large = rng.choice(LARGE_PRIMES)
    expected = load_expected()
    return [[_transform_op(name, rng.choice(specs), _field(fk, large), relabel, rng, expected)
             for name, specs, fk, relabel in TRANSFORM_SLOTS] for _ in range(RELABELINGS)]


def transform_universe(root: str):
    for name, specs, field_kind, _ in TRANSFORM_SLOTS:
        fn, summary = TRANSFORM_OPS[name]
        for spec in specs:
            for f in _fields(field_kind):
                def compute(spec=spec, f=f, fn=fn, summary=summary):
                    q = ql.parse_quandle_spec(spec)
                    return summary(fn(q, f), q.n, list(range(q.n)))
                yield f"{name} {spec} {f.name}", compute


# ---------------------------------------------------------------------------
# cli-sweep: short subprocess calls of the quandlib command

_FILE_SPECS = ("catalog:4.4", "catalog:4.6", "catalog:4.7", "dihedral:4")
_FILES = tuple(f"{WORK_DIR}/inputs/{spec.replace(':', '-')}.json" for spec in _FILE_SPECS)
# Kinds of input, each with the sources the seed picks from.  Sources of a
# kind have the same order, so the pick does not move cost much; the --file
# inputs are fixed relabelings, since a recorded stdout depends on the labels.
CLI_INPUTS = {
    "catalog": tuple(f"catalog:{label}" for label in ql.catalog_labels()
                     if label.startswith("4.")),
    "dihedral": ("dihedral:6",),
    "trivial": ("trivial:4",),
    "conjugation": ("conjugation:s3",),
    "alexander": _ALEX[5],
    "file": _FILES,
}
# (command, field kinds the seed picks from, or None for no --field).  The
# operator closures run over Q, where ROADMAP item 2 removes Fraction matmul.
CLI_COMMANDS = (
    ("validate", None),
    ("props", None),
    ("derivations", ("Q", "GF(3)", "large")),
    ("ideals", ("Q", "GF(3)", "large")),
    ("lietransform", ("Q",)),
    ("inner", ("Q",)),
)
# Every command on every kind of input, symmetries (dihedral only) and tables once.
CLI_SLOTS = (
    [(command, CLI_INPUTS[kind], fks) for kind in CLI_INPUTS for command, fks in CLI_COMMANDS]
    + [("symmetries", CLI_INPUTS["dihedral"], ("Q", "GF(3)", "large")), ("tables", (), None)]
)
MALFORMED_PER_PASS = 4

# Malformed --file inputs that give the documented JSON error object.
MALFORMED = {
    "no-table": '{"n": 3}',
    "order-mismatch": '{"n": 3, "table": [[0, 1], [1, 1]]}',
    "column-not-permutation": '{"table": [[0, 1], [0, 1]]}',
    "float-entry": '{"table": [[0, 1.5], [1, 1]]}',
    "not-json": "n=3 table=012",
    "entry-out-of-range": '{"table": [[0, 2, 1], [2, 1, 0], [1, 0, 5]]}',
    "not-distributive": '{"table": [[0, 2, 1], [1, 1, 0], [2, 0, 2]]}',
    "ragged": '{"table": [[0, 0], [1]]}',
}
# Malformed --file inputs that end in a traceback instead of the documented
# JSON error object at the commit that introduced this benchmark (an open
# ROADMAP item).  The passes leave them out, because a benchmark workload
# must be one on which no operation fails; ``open_defects`` calls them once
# per run, outside the passes, and the run reports what it finds.
TRACEBACK_SHAPES = {
    "table-not-list": '{"table": 5}',
    "top-level-list": "[]",
}
_MALFORMED_COMMANDS = ("validate", "props", "derivations", "ideals")


def _argv(command: str, source: str | None, field: str | None) -> list[str]:
    argv = [command]
    if source is not None:
        argv += ["--file", source] if source.endswith(".json") else ["--quandle", source]
    if field is not None:
        argv += ["--field", field]
    return argv


def write_inputs(root: str) -> None:
    """Write the --file inputs: fixed relabelings of small quandles, and malformed files."""
    inputs = os.path.join(root, WORK_DIR, "inputs")
    os.makedirs(inputs, exist_ok=True)
    for spec, path in zip(_FILE_SPECS, _FILES):
        perm = list(range(ql.parse_quandle_spec(spec).n))
        random.Random(f"file/{spec}").shuffle(perm)
        with open(os.path.join(root, path), "w", encoding="utf-8") as fh:
            json.dump(relabeled(spec, perm).to_json_dict(), fh)
    for name, text in {**MALFORMED, **TRACEBACK_SHAPES}.items():
        with open(os.path.join(inputs, f"malformed-{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)


def cli_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "QUANDLIB_VERBOSE")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli(prefix: list[str], argv: list[str], root: str, env: dict):
    proc = subprocess.run(prefix + argv, cwd=root, env=env, capture_output=True, timeout=150)
    return proc.returncode, proc.stdout, proc.stderr


def _stdout_digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:32]


def _check_recorded(want: dict | None):
    def check(result) -> str | None:
        rc, stdout, stderr = result
        got = {"rc": rc, "stdout": _stdout_digest(stdout)}
        if got != want:
            return f"got {got}, recorded {want}; stderr {stderr[-200:]!r}"
        return None
    return check


def check_json_error(result) -> str | None:
    """The documented contract: a JSON {"error": {...}} object and exit code 1 or 2."""
    rc, stdout, stderr = result
    if b"Traceback" in stderr:
        return f"traceback instead of a JSON error: {stderr.strip().splitlines()[-1]!r}"
    try:
        error = json.loads(stdout)["error"]
        if not (isinstance(error["kind"], str) and isinstance(error["message"], str)):
            raise TypeError("error kind and message must be strings")
    except (ValueError, KeyError, TypeError) as exc:
        return f"stdout is not a JSON error object ({exc})"
    if rc not in (1, 2):
        return f"exit code {rc}"
    return None


def cli_setup(seed: int, root: str, prefix: list[str] | None = None) -> list[list[Op]]:
    """One pass: the --file inputs are fixed, so there is nothing to vary between passes."""
    rng = random.Random(f"cli-sweep/{seed}")
    large = rng.choice(LARGE_PRIMES)
    expected = load_expected()
    write_inputs(root)
    env = cli_env(root)
    prefix = prefix or [sys.executable, "-m", "quandlib.cli"]
    calls = []
    for command, sources, field_kinds in CLI_SLOTS:
        source = rng.choice(sources) if sources else None
        field = _field(rng.choice(field_kinds), large).name if field_kinds else None
        argv = _argv(command, source, field)
        calls.append((argv, _check_recorded(expected.get(" ".join(argv))), False))
    for name in rng.sample(sorted(MALFORMED), MALFORMED_PER_PASS):
        argv = _argv(rng.choice(_MALFORMED_COMMANDS),
                     f"{WORK_DIR}/inputs/malformed-{name}.json", None)
        calls.append((argv, check_json_error, True))
    rng.shuffle(calls)
    return [[Op(" ".join(argv), (lambda argv=argv: run_cli(prefix, argv, root, env)), check,
                malformed)
             for argv, check, malformed in calls]]


def open_defects(root: str) -> list[str]:
    """Every TRACEBACK_SHAPES call that breaks the JSON-error contract, with the reason."""
    write_inputs(root)
    env = cli_env(root)
    found = []
    for name in sorted(TRACEBACK_SHAPES):
        argv = _argv("validate", f"{WORK_DIR}/inputs/malformed-{name}.json", None)
        reason = check_json_error(run_cli([sys.executable, "-m", "quandlib.cli"], argv, root, env))
        if reason is not None:
            found.append(f"{' '.join(argv)}: {reason}")
    return found


def _record_cli(argv: list[str]) -> dict:
    from quandlib.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return {"rc": rc, "stdout": _stdout_digest(out.getvalue().encode())}


def cli_universe(root: str):
    write_inputs(root)
    seen = set()
    for command, sources, field_kinds in CLI_SLOTS:
        fields = [f.name for fk in field_kinds for f in _fields(fk)] if field_kinds else [None]
        for source in sources or (None,):
            for field in fields:
                argv = _argv(command, source, field)
                key = " ".join(argv)
                if key not in seen:
                    seen.add(key)
                    yield key, (lambda argv=argv: _record_cli(argv))


WORKLOADS = {
    "derive-ladder": Workload("derive-ladder", True, derive_setup, derive_universe),
    "transform-closure": Workload("transform-closure", True, transform_setup,
                                  transform_universe),
    "cli-sweep": Workload("cli-sweep", False, cli_setup, cli_universe),
}
