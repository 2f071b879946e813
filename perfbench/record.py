"""Record the values the benchmark checks outputs against.

    python3 perfbench/record.py

Computes every operation any seed can produce, on unrelabeled inputs, with
the library in ``src``, and writes ``perfbench/expected.json``.  Run it only
at a commit whose outputs are trusted: afterwards the benchmark reports any
difference from these values as an incorrect output.
"""

import json
import os
import sys
import time

from run import ROOT, import_quandlib


def main() -> int:
    import_quandlib()
    import workloads

    os.chdir(ROOT)  # --file inputs are named relative to the checkout root
    expected = {}
    for wl in workloads.WORKLOADS.values():
        start = time.perf_counter()
        for key, compute in wl.universe(ROOT):
            expected[key] = compute()
        print(f"{wl.name}: {len(expected)} values so far, {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
