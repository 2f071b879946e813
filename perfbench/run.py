"""Run one quandlib benchmark workload and print its metrics.

    python3 perfbench/run.py --workload derive-ladder --seed 1 --seconds 36 --trace 0

Run from a checkout of the repository; the library is imported from its
``src`` directory.  One run sets the workload up, then runs passes over the
workload's operations, cycling through the passes the set-up built, until
``--seconds`` of passes are measured; between passes it sets up again, and
reports the median set-up time.  Every operation's output is
checked exactly, outside the timed section; a failed check counts in
``failed`` and never stops the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics of the traced ones
and the tracing overhead, and writes the spans to
``.perfbench_out/spans-<workload>.jsonl``.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 9
MIN_P90_SAMPLES = 100  # a 90th percentile needs ten samples beyond it



def import_quandlib():
    """Import quandlib from the checkout's ``src``; exit 2 when it is not there."""
    found = os.path.isfile(os.path.join(SRC, "quandlib", "__init__.py"))
    if found:
        sys.path.insert(0, SRC)
        import quandlib
        found = os.path.abspath(quandlib.__file__).startswith(SRC + os.sep)
    if not found:
        print(f"error: no quandlib sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)


def run_info() -> str:
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "quandlib"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return (f"commit {commit}, src sha256 {digest.hexdigest()[:16]}, "
            f"python {sys.version.split()[0]}, nproc {os.cpu_count()}; "
            "no CPU pinning or frequency control is applied")


class Runner:
    """Runs the set-up's passes in turn and keeps the check results."""

    def __init__(self, passes: list[list], in_process: bool):
        self.passes = passes
        self.in_process = in_process
        # label -> an output that passed its check; a label names one input
        self.verified: dict[str, object] = {}
        self.attempted = 0
        self.failures: list[tuple[bool, str, str]] = []  # (malformed input, label, reason)

    def run_pass(self, n: int, passes=None, tracer=None,
                 tag: str = "") -> tuple[float, list[float]]:
        """Run the ``n``-th pass: the set-up's passes are used in turn."""
        ops = (passes or self.passes)[n % len(self.passes)]
        results, latencies = [], []
        gc.collect()
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{tag}{i}"
                idx = tracer.open("op" if self.in_process else "cli.process", {"label": op.label})
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                result = RuntimeError(traceback.format_exc(limit=3))
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.close(idx)
                if not self.in_process:
                    tracer.spans[idx][5]["output_bytes"] = \
                        0 if isinstance(result, Exception) else len(result[1])
                    tracer.adopt(read_child_spans(), idx)
            results.append(result)
        pass_s = time.perf_counter() - start
        self._check(ops, results)
        return pass_s, latencies

    def _check(self, ops, results) -> None:
        for op, result in zip(ops, results):
            self.attempted += 1
            if op.label in self.verified and self.verified[op.label] == result:
                continue
            if isinstance(result, Exception):
                reason = f"raised: {result}"
            else:
                reason = op.check(result)
            if reason is None:
                self.verified[op.label] = result
            else:
                self.failures.append((op.malformed, op.label, reason))


def child_spans_path() -> str:
    return os.path.join(ROOT, ".perfbench_out", "child-spans.json")


def read_child_spans() -> list:
    path = child_spans_path()
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return []
    finally:
        if os.path.exists(path):
            os.remove(path)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def measure(runner: Runner, seconds: float, set_up_until) -> tuple[dict, dict]:
    """End-to-end metrics (except set-up) from untraced passes.

    After each pass, ``set_up_until(share)`` repeats the set-up until the
    set-ups done keep pace with the share of the run measured, so that
    set-up times sample the same spells of a shared machine as the passes.
    """
    min_passes = math.ceil(MIN_P90_SAMPLES / len(runner.passes[0]))
    pass_times, latencies = [], []
    while len(pass_times) < min_passes or \
            sum(pass_times) + statistics.median(pass_times) / 2 <= seconds:
        pass_s, lat = runner.run_pass(len(pass_times))
        pass_times.append(pass_s)
        latencies += lat
        set_up_until(min(1.0, sum(pass_times) / seconds))
    set_up_until(1.0)
    who = resource.RUSAGE_SELF if runner.in_process else resource.RUSAGE_CHILDREN
    p90 = statistics.quantiles(latencies, n=10)[8]
    values = {
        "pass_s": statistics.median(pass_times),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    notes = {
        "pass_s": f"median of {len(pass_times)} passes of {len(runner.passes[0])} operations: "
                  + " ".join(fmt(t) for t in pass_times),
        "op_p50_s": f"{len(latencies)} samples",
        "op_p90_s": f"{len(latencies)} samples, {sum(x > p90 for x in latencies)} beyond",
        "peak_rss_mb": "benchmark process" if runner.in_process else "largest child",
    }
    return values, notes


def measure_traced(runner: Runner, traced_passes, setup, seconds: float, spans_out: str) -> dict:
    """Per-layer metrics from traced passes, alternated with untraced ones.

    Each traced pass runs the operations of the untraced pass before it, so
    their difference is the tracing overhead.  Each traced pass's spans
    start with those of one traced ``setup()``, so the quandles layer's
    set-up work is counted.  All spans are written to ``spans_out`` at the
    end, one JSON list per line.
    """
    import spans

    setup_tracer = spans.Tracer()
    setup_tracer.op = "setup"
    setup_tracer.install()
    try:
        setup()
    finally:
        setup_tracer.uninstall()
    n_setup = len(setup_tracer.spans)
    all_spans = list(setup_tracer.spans)
    plain, traced, per_pass = [], [], []
    while not plain or not traced or \
            sum(plain) + sum(traced) + statistics.median(plain + traced) / 2 <= seconds:
        if len(traced) == len(plain):
            plain.append(runner.run_pass(len(plain))[0])
            continue
        tracer = spans.Tracer()
        tracer.spans = list(setup_tracer.spans)
        tracer.install()
        try:
            n = len(traced)
            traced.append(runner.run_pass(n, traced_passes, tracer, f"{n}.")[0])
        finally:
            tracer.uninstall()
        per_pass.append(spans.layer_metrics(tracer.spans))
        base = len(all_spans) - n_setup
        for name, start, end, parent, op, attrs in tracer.spans[n_setup:]:
            all_spans.append([name, start, end, parent + base if parent >= n_setup else parent,
                              op, attrs])
    with open(spans_out, "w", encoding="utf-8") as fh:
        for span in all_spans:
            fh.write(json.dumps(span) + "\n")
    overhead = statistics.median(traced) - statistics.median(plain)
    print(f"# tracing overhead: traced pass_s {fmt(statistics.median(traced))} s "
          f"({len(traced)} passes) - untraced {fmt(statistics.median(plain))} s "
          f"({len(plain)} passes) = {fmt(overhead)} s")
    print(f"# {len(all_spans)} spans written to {os.path.relpath(spans_out, ROOT)}")
    values = {}
    for name in per_pass[0]:
        per = [m[name] for m in per_pass]
        values[name] = per[0] if len(set(per)) == 1 else statistics.median(per)
    values["trace.overhead_s"] = overhead
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_quandlib()
    import spans
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None or wl.name not in why:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(why)}")
    os.makedirs(os.path.join(ROOT, workloads.WORK_DIR), exist_ok=True)
    print(f"# workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# why: {why[wl.name]}")
    print(f"# run: {run_info()}")

    env = workloads.cli_env(ROOT)
    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import quandlib.cli"], cwd=ROOT, env=env,
                       check=True, timeout=60)
        built = wl.setup(args.seed, ROOT)
        setup_times.append(time.perf_counter() - t0)
        return built

    def set_up_until(share: float) -> None:
        while len(setup_times) < round(share * SETUP_REPEATS):
            set_up()

    runner = Runner(set_up(), wl.in_process)

    if args.trace:
        traced_passes = runner.passes if wl.in_process else wl.setup(
            args.seed, ROOT, [sys.executable, os.path.join(HERE, "traced_cli.py"),
                              child_spans_path()])
        values = measure_traced(runner, traced_passes, lambda: wl.setup(args.seed, ROOT),
                                args.seconds,
                                os.path.join(ROOT, workloads.WORK_DIR, f"spans-{wl.name}.jsonl"))
        notes = {name: f"should move {moves}" for name, moves in spans.PER_LAYER.items()}
        listed = bench["per_layer"]
    else:
        values, notes = measure(runner, args.seconds, set_up_until)
        values["setup_s"] = statistics.median(setup_times)
        notes["setup_s"] = f"median of {len(setup_times)} set-ups, spread over the run"
        listed = bench["end_to_end"]
    metrics = {}
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:34s} {fmt(values[name]):>12s} {unit:5s} {metric['better']} is better"
              f"{', bound ' + str(metric['bound']) if 'bound' in metric else ''}; {notes[name]}")

    if not wl.in_process:
        for defect in workloads.open_defects(ROOT):
            print(f"# open defect, outside the passes and not counted in failed: {defect}")
    failed = len(runner.failures)
    print(f"{'error_rate':34s} {fmt(failed / runner.attempted):>12s} ratio lower is better; "
          f"{failed} failed of {runner.attempted} attempted")
    for malformed, label, reason in sorted(set(runner.failures)):
        print(f"# FAILED{' (malformed input)' if malformed else ''}: {label}: {reason}")
    print(json.dumps({
        "correct": all(malformed for malformed, _, _ in runner.failures),
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
