"""Run the quandlib command under the span tracer (the cli-sweep traced run).

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.json COMMAND [ARGS...]

Behaves like ``python -m quandlib.cli COMMAND [ARGS...]``, same output and
exit status, and also writes the call's spans to SPANS.json, a failing
call's included: the import of ``quandlib.cli``, ``cli.main`` and every
library span below it.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    idx = tracer.open("cli.import")
    import quandlib.cli
    tracer.close(idx)
    tracer.install()
    idx = tracer.open("cli.main")
    try:
        return quandlib.cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
