"""In-memory span tracer that wraps quandlib's entry points from outside.

The library itself is not modified: ``Tracer.install`` replaces each traced
function with a wrapper in every ``quandlib`` module that binds it (modules
re-import names, e.g. ``lietransform``, ``tables`` and ``cli`` each hold
their own ``derivation_space``), and ``Tracer.uninstall`` puts the originals
back.  A span is ``[name, start, end, parent, op, attrs]`` where ``parent``
is the index of the enclosing span in the same list (-1 at the root) and
``op`` is the benchmark's operation id.  Spans stay in memory until the
benchmark writes them out at the end of a run.

``layer_metrics`` turns a list of spans into the per-layer metrics named in
``PER_LAYER``.  The ``fields`` layer has no span of its own: its calls are
per scalar and wrapping them would swamp the run, so its cost shows in the
``.Q`` / ``.GFp`` splits of the linalg metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Per-layer metric -> the end-to-end metric it should move, and on which
# workload.  Units and directions are in BENCHMARK.json.
PER_LAYER: dict[str, str] = {
    "linalg.insert_s": "pass_s on derive-ladder",
    "linalg.insert_s.Q": "pass_s on derive-ladder",
    "linalg.insert_s.GFp": "pass_s on derive-ladder",
    "linalg.inserts": "pass_s on derive-ladder",
    "linalg.inserts_independent": "pass_s on derive-ladder",
    "linalg.insert_yield": "pass_s on derive-ladder",
    "linalg.finalize_s": "pass_s on derive-ladder",
    "linalg.max_row_fill": "pass_s on derive-ladder",
    "linalg.matmul_s": "pass_s on transform-closure",
    "linalg.matmul_s.Q": "pass_s on transform-closure",
    "linalg.matmul_s.GFp": "pass_s on transform-closure",
    "linalg.matmul_calls": "pass_s on transform-closure",
    "linalg.intersect_s": "pass_s on transform-closure",
    "linalg.membership_s": "pass_s on transform-closure",
    "derivations.self_s": "pass_s and peak_rss_mb on derive-ladder",
    "derivations.rows_generated": "pass_s and peak_rss_mb on derive-ladder",
    "derivations.rows_inserted": "pass_s and peak_rss_mb on derive-ladder",
    "derivations.dedup_ratio": "pass_s and peak_rss_mb on derive-ladder",
    "derivations.kernel_dim": "pass_s and peak_rss_mb on derive-ladder",
    "lietransform.self_s": "pass_s on transform-closure",
    "lietransform.closure_calls": "pass_s on transform-closure, op_p90_s on cli-sweep",
    "lietransform.brackets": "pass_s on transform-closure",
    "lietransform.brackets_zero": "pass_s on transform-closure",
    "lietransform.brackets_independent": "pass_s on transform-closure",
    "lietransform.bracket_yield": "pass_s on transform-closure",
    "algebra.operators_s": "pass_s on transform-closure",
    "algebra.ideals_s": "op_p50_s on cli-sweep",
    "quandles.build_s": "setup_s on every workload, op_p50_s on cli-sweep",
    "quandles.props_s": "setup_s on every workload, op_p50_s on cli-sweep",
    "tables.load_s": "op_p90_s on cli-sweep",
    "tables.golden_s": "op_p90_s on cli-sweep",
    "tables.compare_self_s": "op_p90_s on cli-sweep",
    "cli.process_s": "op_p50_s on cli-sweep",
    "cli.import_s": "op_p50_s on cli-sweep",
    "cli.main_self_s": "op_p50_s on cli-sweep",
    "cli.output_bytes": "op_p50_s on cli-sweep",
    "trace.overhead_s": "nothing; it is traced pass_s minus untraced pass_s",
}


def _field_tag(p) -> str:
    return "Q" if p is None else "GFp"


def _note_field(args, result):
    return {"field": _field_tag(args[0].p)}


def _note_insert(args, result):
    return {"field": _field_tag(args[0].p), "independent": bool(result)}


def _note_finalize_entry(args):
    rows = args[0].rows
    return {"field": _field_tag(args[0].p),
            "fill": max((len(r) for r in rows.values()), default=0)}


def _note_matmul(args, result):
    return {"field": _field_tag(args[0].field.p)}


def _note_commutator(args, result):
    return {"zero": result.is_zero}


def _note_kernel(args, result):
    return {"kernel_dim": result.dim}


# (module, attribute path, span name, note on the result, note at entry)
TARGETS = (
    ("quandlib.linalg", "_Echelon.insert", "linalg.insert", _note_insert, None),
    ("quandlib.linalg", "_Echelon.insert_dense", "linalg.insert_dense", _note_field, None),
    ("quandlib.linalg", "_Echelon.finalize", "linalg.finalize", None, _note_finalize_entry),
    ("quandlib.linalg", "Matrix.__matmul__", "linalg.matmul", _note_matmul, None),
    ("quandlib.linalg", "span_from_vectors", "linalg.span_from_vectors", None, None),
    ("quandlib.linalg", "span_intersect", "linalg.span_intersect", None, None),
    ("quandlib.linalg", "contains", "linalg.contains", None, None),
    ("quandlib.derivations", "derivation_space", "derivations.derivation_space", _note_kernel, None),
    ("quandlib.lietransform", "lie_transformation_algebra", "lietransform.closure", None, None),
    ("quandlib.lietransform", "commutator", "lietransform.commutator", _note_commutator, None),
    ("quandlib.lietransform", "inner_derivations", "lietransform.inner_derivations", None, None),
    ("quandlib.algebra", "left_mult", "algebra.left_mult", None, None),
    ("quandlib.algebra", "right_mult", "algebra.right_mult", None, None),
    ("quandlib.algebra", "augmentation_ideal", "algebra.augmentation_ideal", None, None),
    ("quandlib.algebra", "jx_ideal", "algebra.jx_ideal", None, None),
    ("quandlib.quandles", "parse_quandle_spec", "quandles.parse_quandle_spec", None, None),
    ("quandlib.quandles", "from_json_dict", "quandles.from_json_dict", None, None),
    ("quandlib.quandles", "validate", "quandles.validate", None, None),
    ("quandlib.quandles", "relabel", "quandles.relabel", None, None),
    ("quandlib.quandles", "trivial", "quandles.trivial", None, None),
    ("quandlib.quandles", "dihedral", "quandles.dihedral", None, None),
    ("quandlib.quandles", "alexander", "quandles.alexander", None, None),
    ("quandlib.quandles", "conjugation", "quandles.conjugation", None, None),
    ("quandlib.quandles", "catalog_lookup", "quandles.catalog_lookup", None, None),
    ("quandlib.quandles", "props", "quandles.props", None, None),
    ("quandlib.tables", "load_entries", "tables.load_entries", None, None),
    ("quandlib.tables", "golden_span", "tables.golden_span", None, None),
    ("quandlib.tables", "compare_entry", "tables.compare_entry", None, None),
)


class Tracer:
    """Collects spans while installed; one instance per traced section."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, attrs])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by another process below span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _, attrs in child_spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par,
                               self.op, attrs])

    def _wrap(self, name, fn, note, note_entry):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, note_entry(args) if note_entry else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if note is not None:
                span = tracer.spans[idx]
                span[5] = {**(span[5] or {}), **note(args, result)}
            return result

        return traced

    def _count_rows(self, gen_fn):
        """Count the Leibniz rows a generator yields into its enclosing span."""
        tracer = self

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            owner = tracer.stack[-1] if tracer.stack else None
            count = 0
            for row in gen_fn(*args, **kwargs):
                count += 1
                yield row
            if owner is not None:
                span = tracer.spans[owner]
                span[5] = {**(span[5] or {}), "rows_generated": count}

        return counted

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, path, name, note, note_entry in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(name, original, note, note_entry))
            else:
                original = getattr(module, attr)
                self._rebind(original, self._wrap(name, original, note, note_entry))
        derivations = importlib.import_module("quandlib.derivations")
        rows = derivations._leibniz_sparse_rows
        self._rebind(rows, self._count_rows(rows))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace every binding of ``original`` in the loaded quandlib modules."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "quandlib" or mod_name.startswith("quandlib.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


# ---------------------------------------------------------------------------
# per-layer metrics

_INSERTS = ("linalg.insert", "linalg.insert_dense")
_LIE_LAYER = ("lietransform.closure", "lietransform.commutator", "lietransform.inner_derivations")

# Span name -> the group whose outermost spans give an ``X_s`` metric.
_GROUP = {
    "linalg.insert": "linalg.insert_s",
    "linalg.insert_dense": "linalg.insert_s",
    "linalg.finalize": "linalg.finalize_s",
    "linalg.matmul": "linalg.matmul_s",
    "linalg.span_intersect": "linalg.intersect_s",
    "linalg.contains": "linalg.membership_s",
    "algebra.left_mult": "algebra.operators_s",
    "algebra.right_mult": "algebra.operators_s",
    "algebra.augmentation_ideal": "algebra.ideals_s",
    "algebra.jx_ideal": "algebra.ideals_s",
    "quandles.props": "quandles.props_s",
    "tables.load_entries": "tables.load_s",
    "tables.golden_span": "tables.golden_s",
    "cli.process": "cli.process_s",
    "cli.import": "cli.import_s",
}
for _name in ("parse_quandle_spec", "from_json_dict", "validate", "relabel", "trivial",
              "dihedral", "alexander", "conjugation", "catalog_lookup"):
    _GROUP["quandles." + _name] = "quandles.build_s"
_BIT = {group: 1 << i for i, group in enumerate(sorted(set(_GROUP.values())))}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def echelon_owner(spans: list[list], idx: int) -> int:
    """Index of the nearest enclosing span that is not part of an echelon insert."""
    parent = spans[idx][3]
    while parent >= 0 and spans[parent][0] in _INSERTS:
        parent = spans[parent][3]
    return parent


def echelon_counts(spans: list[list]) -> dict[str, tuple[int, int]]:
    """(inserts, independent inserts) per name of the span that owns the inserts."""
    counts: dict[str, tuple[int, int]] = {}
    for idx, span in enumerate(spans):
        if span[0] == "linalg.insert":
            owner = echelon_owner(spans, idx)
            name = spans[owner][0] if owner >= 0 else ""
            inserts, independent = counts.get(name, (0, 0))
            counts[name] = (inserts + 1, independent + span[5]["independent"])
    return counts


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every metric of ``PER_LAYER`` except the tracing overhead, from one span list.

    ``X_s`` is the time inside the outermost spans of X; ``X.self_s`` is the
    time of X's spans minus the time of their child spans.  Echelon counts
    are attributed to the nearest non-echelon span, so the kernel
    canonicalization inside a solve does not count as the solve's rows.
    Parents precede their children in ``spans``.
    """
    out: dict[str, float] = {name: 0 for name in PER_LAYER if name != "trace.overhead_s"}
    child_time = [0.0] * len(spans)
    ancestors = [0] * len(spans)  # bit set of the groups enclosing each span
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            ancestors[i] = ancestors[parent] | _BIT.get(_GROUP.get(spans[parent][0]), 0)
        group = _GROUP.get(name)
        if group is not None and not ancestors[i] & _BIT[group]:
            out[group] += end - start
            field = (attrs or {}).get("field")
            if field and group + "." + field in out:
                out[group + "." + field] += end - start

    def self_time(names) -> float:
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] in names)

    def count(name, flag=None) -> int:
        return sum(1 for s in spans if s[0] == name and (flag is None or (s[5] or {}).get(flag)))

    def attr_sum(name, key) -> float:
        return sum((s[5] or {}).get(key, 0) for s in spans if s[0] == name)

    inserts = [i for i, s in enumerate(spans) if s[0] == "linalg.insert"]
    independent = [i for i in inserts if spans[i][5]["independent"]]
    owner_of = {i: echelon_owner(spans, i) for i in inserts}
    rows_inserted = echelon_counts(spans).get("derivations.derivation_space", (0, 0))[0]
    # A closure's first commutator marks the end of its seed inserts.
    first_bracket: dict[int, float] = {}
    for s in spans:
        if s[0] == "lietransform.commutator" and s[3] >= 0:
            first_bracket.setdefault(s[3], s[1])
    bracket_independent = sum(
        1 for i in independent
        if owner_of[i] in first_bracket and spans[i][1] > first_bracket[owner_of[i]]
    )
    brackets = count("lietransform.commutator")
    rows_generated = attr_sum("derivations.derivation_space", "rows_generated")

    out.update({
        "linalg.inserts": len(inserts),
        "linalg.inserts_independent": len(independent),
        "linalg.insert_yield": _ratio(len(independent), len(inserts)),
        "linalg.max_row_fill": max((s[5]["fill"] for s in spans if s[0] == "linalg.finalize"),
                                   default=0),
        "linalg.matmul_calls": count("linalg.matmul"),
        "derivations.self_s": self_time(("derivations.derivation_space",)),
        "derivations.rows_generated": rows_generated,
        "derivations.rows_inserted": rows_inserted,
        "derivations.dedup_ratio": _ratio(rows_inserted, rows_generated),
        "derivations.kernel_dim": attr_sum("derivations.derivation_space", "kernel_dim"),
        "lietransform.self_s": self_time(_LIE_LAYER),
        "lietransform.closure_calls": count("lietransform.closure"),
        "lietransform.brackets": brackets,
        "lietransform.brackets_zero": count("lietransform.commutator", "zero"),
        "lietransform.brackets_independent": bracket_independent,
        "lietransform.bracket_yield": _ratio(bracket_independent, brackets),
        "tables.compare_self_s": self_time(("tables.compare_entry",)),
        "cli.main_self_s": self_time(("cli.main",)),
        "cli.output_bytes": attr_sum("cli.process", "output_bytes"),
    })
    return out

