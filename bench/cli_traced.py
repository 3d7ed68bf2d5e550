"""Run ``psidiff.cli.main`` with the benchmark's tracer installed.

Usage: ``python bench/cli_traced.py <psidiff arguments>``. It behaves like
``python -m psidiff.cli`` and writes its spans, as JSON, to the file named by
the ``BENCH_TRACE_OUT`` environment variable.
"""

import json
import os
import sys

import tracing


def main() -> int:
    from psidiff import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["BENCH_TRACE_OUT"], "w") as out:
            json.dump(tracer.export(), out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
