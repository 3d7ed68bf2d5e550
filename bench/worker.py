"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload <name> --seed <n> --units <k>
                            [--setup-samples <m>] [--trace-out <path>]

Draws the same operations as ``run.py`` from the seed, imports psidiff,
parses the number specs, runs every operation once in order and prints one
JSON object: ``ops`` as ``[unit, op, latency_s, reference_s, record,
errors]`` per operation, where ``reference_s`` is the mean time of
``ops.reference_s`` just before and just after the operation, and
``rss_kb``, the peak resident memory of the process that ran them (for
cli_mix, of the largest CLI child).

With ``--setup-samples``, the pass also times that many fresh interpreters
that import psidiff and parse the workload's specs, spread evenly between the
operations so that they see the same host as the operations do; ``setup``
lists ``[wall_s, reference_s]`` for each.

With ``--trace-out`` the operations run under ``tracing.Tracer``, followed by
one in-process pass over README's CLI commands so that each layer is touched,
and the tracer's export is written to that path as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gen
import ops

ROOT = Path(__file__).resolve().parent.parent
SETUP_CODE = ("import sys, psidiff; from psidiff.numspec import parse_number; "
              "[parse_number(s) for s in sys.stdin.read().split()]")
README_COMMANDS = (  # the CLI block of README.md, plus the JSON form of its profile
    ["constants", "--digits", "10"],
    ["expand", "--number", "surd:(0+sqrt(2))/1"],
    ["psi", "--number", "tau", "--t", "137"],
    ["profile", "--alpha", "surd:(0+sqrt(2))/1", "--beta", "tau", "--from", "1", "--bound", "1000"],
    ["profile", "--alpha", "surd:(0+sqrt(2))/1", "--beta", "tau", "--from", "1", "--bound", "1000",
     "--output", "json"],
    ["witness", "--alpha", "surd:(0+sqrt(2))/1", "--beta", "tau", "--from", "4", "--bound", "1000000"],
    ["word", "--alpha", "surd:(0+sqrt(2))/1", "--beta", "tau", "--count", "10"],
    ["lemmas", "--alpha", "surd:(0+sqrt(2))/1", "--beta", "tau", "--max-depth", "60"],
    ["construct-optimal", "--epsilon", "0.06"],
    ["verify-optimal", "--epsilon", "0.06", "--from", "1000000", "--bound", "1000000000000"],
)


def coverage_pass() -> None:
    """One in-process call of README's commands plus ``d_at``, so every layer is traced."""
    from psidiff import cli, imf, numspec

    with contextlib.redirect_stdout(io.StringIO()):
        for argv in README_COMMANDS:
            cli.main(list(argv))
    imf.d_at(numspec.parse_number("surd:(0+sqrt(2))/1"), numspec.parse_number("tau"), 10**12)


def setup_seconds(specs: str) -> float:
    """Wall time of one fresh interpreter that imports psidiff and parses ``specs``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], input=specs.encode(),
                   env=ops.child_env(ROOT), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_pass(workload: str, units: list[list[dict]], setup_samples: int = 0,
             tracer=None) -> tuple[list, list, int]:
    if workload == "cli_mix":
        child_out = None
        if tracer is not None:
            child_out = ROOT / ".bench_out" / f"child-{os.getpid()}.json"
        runner = ops.CliProcess(ROOT, child_out)
        execute = runner.run
        if tracer is not None:
            def execute(op):
                record, errors = runner.run(op)
                with contextlib.suppress(OSError, ValueError):
                    tracer.merge(json.loads(child_out.read_text()), tracer.op)
                child_out.unlink(missing_ok=True)  # a child that fails to write must not reuse spans
                return record, errors
    else:
        runner = ops.InProcess(workload)
        runner.parse(gen.specs(units))
        execute = runner.run
    specs = "\n".join(gen.specs(units[:1] if workload == "cli_mix" else units))
    n_ops = sum(map(len, units))
    setup_at = Counter(k * n_ops // setup_samples for k in range(setup_samples))
    results, setup = [], []
    before = ops.reference_s()
    for u, unit in enumerate(units):
        for j, op in enumerate(unit):
            for _ in range(setup_at[len(results)]):
                wall = setup_seconds(specs)
                after = ops.reference_s()
                setup.append([wall, (before + after) / 2])
                before = after
            if tracer is not None:
                tracer.op = len(results)
            start = time.perf_counter()
            record, errors = execute(op)
            latency = time.perf_counter() - start
            after = ops.reference_s()
            results.append([u, j, latency, (before + after) / 2, record, errors])
            before = after
    if workload == "cli_mix":
        rss_kb = runner.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return results, setup, rss_kb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--setup-samples", type=int, default=0)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()
    sys.path[1:1] = [str(ROOT / "src")]
    units = gen.generate(args.workload, args.seed, args.units)
    if args.trace_out is None:
        results, setup, rss_kb = run_pass(args.workload, units, args.setup_samples)
    else:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            results, setup, rss_kb = run_pass(args.workload, units, args.setup_samples, tracer)
            tracer.op = -1
            start = time.perf_counter()
            coverage_pass()
            traced_s = time.perf_counter() - start + sum(r[2] for r in results)
        finally:
            tracer.uninstall()
        args.trace_out.write_text(json.dumps({**tracer.export(), "traced_s": traced_s}))
    json.dump({"ops": results, "setup": setup, "rss_kb": rss_kb}, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
