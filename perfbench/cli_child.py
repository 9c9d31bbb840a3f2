"""Traced stand-in for ``python -m formalcalc.cli``.

    python3 perfbench/cli_child.py OUT.json ARG...

Imports ``formalcalc.cli`` (timing the import), installs the benchmark's
span wrappers, runs ``main(ARG...)`` and exits with its status, as the real
entry point does.  The span summary and the raw spans go to OUT.json, once,
at exit.  stdout and stderr are the command's own.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import formalcalc.cli as cli

    import_s = perf_counter() - start
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.begin_job(0)
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.end_job()
        summary = tracer.summary()
        summary.update(spans.table_sizes(tracer))
        summary["import_s"] = import_s
        summary["spans"] = tracer.spans
        with open(out_path, "w") as fh:
            json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
