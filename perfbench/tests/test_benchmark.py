"""Checks of the benchmark itself: tracer counters, output checks and its spec.

    python3 -m pytest perfbench/tests

The counter values were measured on unrelabeled inputs at the commit that
introduced the benchmark; a change that moves one of them changed the work
the library does, which a performance change must report as such.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import quandlib as ql
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(spans.__file__))


def traced(name, *args):
    """Call ``quandlib.<name>`` under the tracer; the name is looked up once installed."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = getattr(ql, name)(*args)
    finally:
        tracer.uninstall()
    return result, tracer.spans


def test_derivation_counters_dihedral_24():
    result, recorded = traced("derivation_space", ql.dihedral(24), ql.RATIONALS)
    metrics = spans.layer_metrics(recorded)
    assert metrics["derivations.rows_generated"] == 13824
    assert metrics["derivations.rows_inserted"] == 10320
    assert spans.echelon_counts(recorded)["derivations.derivation_space"] == (10320, 564)
    assert metrics["derivations.kernel_dim"] == result.dim == 12


def test_closure_counters_dihedral_8():
    result, recorded = traced("lie_transformation_algebra", ql.dihedral(8), ql.RATIONALS)
    metrics = spans.layer_metrics(recorded)
    assert metrics["lietransform.closure_calls"] == 1
    assert metrics["lietransform.brackets"] == 732
    assert metrics["lietransform.brackets_zero"] == 77
    assert spans.echelon_counts(recorded)["lietransform.closure"] == (672, 28)
    assert metrics["linalg.matmul_calls"] == 1464
    assert result.dim == 28


def test_counters_repeat_and_tracer_restores_the_library():
    original = ql.lie_transformation_algebra
    runs = [traced("lie_transformation_algebra", ql.dihedral(6), ql.GF(3))[1] for _ in range(2)]
    counts = [{k: v for k, v in spans.layer_metrics(r).items() if "_s" not in k} for r in runs]
    assert counts[0] == counts[1]
    assert ql.lie_transformation_algebra is original
    assert ql.linalg._Echelon.insert.__qualname__ == "_Echelon.insert"


def test_setup_is_a_function_of_the_seed():
    setup = workloads.WORKLOADS["derive-ladder"].setup
    labels = [[op.label for ops in setup(seed, ROOT) for op in ops] for seed in (1, 1, 2)]
    assert labels[0] == labels[1]
    first = setup(1, ROOT)[0]
    again = setup(1, ROOT)[0]
    assert [op.run() == other.run() for op, other in zip(first[:6], again[:6])] == [True] * 6


def test_relabeled_results_pull_back_to_the_recorded_span():
    f = ql.RATIONALS
    base = ql.dihedral(6)
    perm = list(range(6))
    random.Random(7).shuffle(perm)
    want = workloads.summarize(ql.derivation_space(base, f), 6, list(range(6)))
    moved = ql.derivation_space(ql.relabel(base, perm), f)
    assert workloads.summarize(moved, 6, perm) == want
    assert workloads.load_expected()["derivations dihedral:6 Q"] == want


def test_relabeled_closures_conjugate_back_to_the_recorded_values():
    f = ql.GF(2147483647)
    base = ql.dihedral(6)
    perm = list(range(6))
    random.Random(3).shuffle(perm)
    expected = workloads.load_expected()
    for name in ("lietransform", "inner", "lr_form_bound"):
        fn, summary = workloads.TRANSFORM_OPS[name]
        got = summary(fn(ql.relabel(base, perm), f), 6, perm)
        assert got == expected[f"{name} dihedral:6 {f.name}"]


def test_every_operation_of_a_seed_passes_its_check():
    ops = workloads.WORKLOADS["transform-closure"].setup(5, ROOT)[1]
    assert [op.check(op.run()) for op in ops] == [None] * len(ops)


def test_json_error_contract_check():
    good = (1, b'{"error": {"kind": "value_error", "message": "bad"}}\n', b"")
    assert workloads.check_json_error(good) is None
    assert workloads.check_json_error((1, b"", b"Traceback (most recent call last):\nX"))
    assert workloads.check_json_error((0, good[1], b""))
    assert workloads.check_json_error((1, b'{"ok": true}', b""))


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
