"""Steadiness self-check: do two sets of benchmark runs of one commit agree?

    python3 perfbench/tests/steadiness.py

Runs ``perfbench/run.py`` once per seed on every workload of BENCHMARK.json,
in two sets of ten seeds (1-10 and 11-20), with BENCHMARK.json's command
and run length.  The runs of the two sets alternate, so that a slow or
fast spell of a shared machine falls on both sets instead of on one.  For every end-to-end metric it reports each set's spread
(the distance between the first and third quartile, as a share of the
median) and the drift of the second set's median from the first's.  A
metric agrees when both spreads and the size of the drift are within the
metric's bound.  Exits 1 when a metric disagrees or a run fails; the raw
results are kept in ``.perfbench_out/steadiness.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEEDS = 10
SETS = 2


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    results: dict[str, list[list[dict]]] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results[workload] = [[] for _ in range(SETS)]
        for i in range(SEEDS):
            for k, runs in enumerate(results[workload]):
                seed = k * SEEDS + i + 1
                runs.append(run_once(bench["command"], workload, seed, bench["run_seconds"]))
                print(f"{workload} set {k + 1} seed {seed}: {runs[-1]['wall_s']:.1f} s wall, "
                      f"correct {runs[-1]['correct']}, failed {runs[-1]['failed']}",
                      file=sys.stderr, flush=True)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    ok = True
    for workload, sets in results.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[run["metrics"][name]["value"] for run in runs] for runs in sets]
            spreads = [spread(v) for v in values]
            medians = [statistics.median(v) for v in values]
            drifts = [m / medians[0] - 1 for m in medians[1:]]
            agrees = all(s <= bound for s in spreads) and all(abs(d) <= bound for d in drifts)
            ok &= agrees
            print(f"{workload:18s} {name:12s} bound {bound:.2f}  median "
                  + " ".join(f"{m:.4g}" for m in medians)
                  + "  spread " + " ".join(f"{s:.3f}" for s in spreads)
                  + "  drift " + " ".join(f"{d:+.3f}" for d in drifts)
                  + f"  {'agrees' if agrees else 'DISAGREES'}")
        incorrect = sum(not run["correct"] for runs in sets for run in runs)
        if incorrect:
            ok = False
            print(f"{workload}: {incorrect} runs reported incorrect outputs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
