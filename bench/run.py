"""psidiff benchmark: seeded workloads, end-to-end metrics and a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload profile_scan --seed 1 --seconds 30 --trace 0

Workloads (reasons in BENCHMARK.json): cli_mix, profile_scan and lemma_depth,
plus deep_t, which runs the same way but is not gated (see README.md). Load
is a closed loop with one client: one in-process caller, or one
``python -m psidiff.cli`` process at a time.

A run draws a fixed list of operations from the seed, sized by ``--seconds``,
and runs it once in a fresh interpreter (``worker.py``). Every output is then
checked against mpmath (``checks.py``), outside the timed region.

Times are scaled to the host's full speed. A shared host can run at 0.6x its
speed for seconds at a time, so each measured time is multiplied by
``REFERENCE_S / r``, where ``r`` is the time of a fixed pure-Python loop
(``ops.reference_s``) measured right before and after it, and
``REFERENCE_S`` is that loop's time at full speed. The report prints the
unscaled figures too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a list of
half the size untraced and then traced, and prints the per-layer metrics
with the tracing overhead. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gen
import ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC, TESTS = ROOT / "src", ROOT / "tests"
OUT = ROOT / ".bench_out"
# About the seconds one unit of each workload takes on a 2-vCPU x86-64 VM at the seed
# commit. A run draws max(1, round(seconds / unit)) units: the work is fixed by the seed and
# --seconds, whatever the speed of the code under test.
UNIT_S = {"cli_mix": 2.2, "deep_t": 12.0, "profile_scan": 3.5, "lemma_depth": 4.3}
REFERENCE_S = 0.003  # ops.reference_s at full speed on that VM
SETUP_SAMPLES = 15  # fresh interpreters timed between the operations (worker.SETUP_CODE)
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
D_AT_CURVE = ((12, 5), (1000, 3), (10000, 1), (30000, 1))  # (exponent of t, repeats)
DICHOTOMY_CURVE = ((60, 3), (120, 3), (200, 1))  # (depth, repeats)
MODULES = ("exact", "contfrac", "imf", "theorems", "cli", "numspec")


def provenance(args) -> dict:
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "commit": commit, "src_lines": lines,
    }


# -- fresh interpreters --------------------------------------------------------------


def interpreter_seconds(code: str) -> float:
    """Wall time of one fresh interpreter running ``code``, spawn to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=ops.child_env(ROOT),
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def median_seconds(code: str, samples: int = 9) -> float:
    return statistics.median(interpreter_seconds(code) for _ in range(samples))


def scaled(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference


def worker_pass(args, n_units: int, setup_samples: int = 0,
                trace_out: Path | None = None) -> dict:
    """A fresh ``worker.py`` over the list: its ``ops``, ``setup`` and ``rss_kb``."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--units", str(n_units),
            "--setup-samples", str(setup_samples)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    proc = subprocess.run(argv, cwd=ROOT, env=ops.child_env(ROOT), capture_output=True, text=True,
                          timeout=170)
    if proc.returncode:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def tail(latencies: list[float]) -> tuple[float, int, float] | None:
    """(percentile, samples beyond it, value) for the highest percentile with >= 10 beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # nearest-rank percentile
        if n - rank >= 10:
            return p, n - int(rank), ordered[int(rank) - 1]
    return None


# -- checks --------------------------------------------------------------------------


def check_results(workload, units, results, rerun=None) -> tuple[int, Counter, list[str]]:
    """(failed ops, failures by code, problems) of one pass over the list.

    Every output is checked against mpmath, and every failure must be one the
    checks can confirm; anything else is a problem and makes the run
    incorrect. A ``rerun`` of the same list must reproduce the outputs.
    """
    import checks

    checker = checks.Checker()
    failed, codes, problems = 0, Counter(), []
    for i, (u, j, _, _, record, errors) in enumerate(results):
        op = units[u][j]
        problem = None
        if rerun is not None and rerun[i][4:] != [record, errors]:
            problem = "output differs between the untraced and the traced run"
        else:
            try:
                getattr(checker, workload)(op, record)
                checker.confirm_failures(workload, op, record, errors)
            except checks.Mismatch as exc:
                problem = str(exc)
            except Exception as exc:  # an output the checks cannot read is wrong too
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        codes.update(errors)
        if problem:
            codes["check_mismatch"] += 1
            problems.append(f"op {op.get('command', '')}{u}.{j}: {problem}")
        if errors or problem:
            failed += 1
    return failed, codes, problems


# -- runs ----------------------------------------------------------------------------


def end_to_end(args, units) -> tuple[dict, dict]:
    out = worker_pass(args, len(units), SETUP_SAMPLES)
    results = out["ops"]
    check_start = time.perf_counter()
    failed, codes, problems = check_results(args.workload, units, results)
    check_s = time.perf_counter() - check_start
    walls = [r[2] for r in results]
    times = [scaled(r[2], r[3]) for r in results]
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(scaled(*x) for x in out["setup"]), "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (out["rss_kb"] / 1024, "MB"),
    }
    unscaled = {"setup_s": statistics.median(x[0] for x in out["setup"]),
                "ops_per_s": n / sum(walls),
                "op_p50_ms": statistics.median(walls) * 1e3}
    info = {"attempted": n, "failed": failed, "codes": codes, "problems": problems,
            "tail": tail(times), "seconds_timed": sum(walls), "check_s": check_s,
            "unscaled": unscaled}
    return metrics, info


def probes(seed: int) -> dict:
    """Untraced, scaled curves on a seed-drawn pair: d_at over t, scan_dichotomy over depth."""
    from psidiff import imf, numspec, theorems

    rng = random.Random(f"probe:{seed}")
    out = {}
    for name, curve, call in (
        ("imf.d_at.t1e{}_ms", D_AT_CURVE, lambda a, b, e: imf.d_at(a, b, 10**e)),
        ("theorems.scan_dichotomy.depth{}_ms", DICHOTOMY_CURVE, theorems.scan_dichotomy),
    ):
        alpha, beta = (numspec.parse_number(x.spec) for x in gen.cross_field_pair(rng))
        for size, repeats in curve:
            times = []
            for _ in range(repeats):
                before = ops.reference_s()
                start = time.perf_counter()
                call(alpha, beta, size)
                elapsed = time.perf_counter() - start
                times.append(scaled(elapsed, (before + ops.reference_s()) / 2))
            out[name.format(size)] = statistics.median(times) * 1e3
    return out


def traced_run(args, units) -> tuple[dict, dict]:
    import tracing

    interpreter_s = median_seconds("pass")
    import_s = median_seconds("import psidiff") - interpreter_s
    untraced = worker_pass(args, len(units))["ops"]
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{os.getpid()}.json"
    try:
        traced = worker_pass(args, len(units), trace_out=trace_path)["ops"]
        data = json.loads(trace_path.read_text())
    finally:
        trace_path.unlink(missing_ok=True)
    tracer = tracing.Tracer()
    tracer.merge(data)
    curves = probes(args.seed)

    check_start = time.perf_counter()
    failed, codes, problems = check_results(args.workload, units, untraced, traced)
    check_s = time.perf_counter() - check_start
    untraced_rate = len(untraced) / sum(scaled(r[2], r[3]) for r in untraced)
    traced_rate = len(traced) / sum(scaled(r[2], r[3]) for r in traced)
    metrics = layer_metrics(tracer, data["traced_s"], untraced_rate, traced_rate, curves,
                            interpreter_s, import_s)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_spans(spans_path)
    info = {"attempted": len(untraced), "failed": failed, "codes": codes, "problems": problems,
            "tail": None, "seconds_timed": sum(r[2] for r in untraced),
            "spans": len(tracer.spans) // 5, "spans_path": spans_path.relative_to(ROOT),
            "traced_wall": data["traced_s"], "check_s": check_s}
    return metrics, info


def layer_metrics(tracer, wall, untraced_rate, traced_rate, curves, interpreter_s, import_s):
    m: dict[str, tuple[float, str]] = {}

    def stats(name, *wanted):
        calls, _, self_s = tracer.stat(name)
        if "calls" in wanted:
            m[f"{name}.calls"] = (calls, "count")
        if "self_s" in wanted:
            m[f"{name}.self_s"] = (self_s, "s")
        return calls

    def ratio(part, whole):
        return part / whole if whole else 0.0

    c = tracer.counts
    calls = stats("exact.refine_compare", "calls", "self_s")
    m["exact.refine_compare.undecided"] = (c["exact.refine_compare.undecided"], "count")
    m["exact.refine_compare.exact_share"] = (ratio(c["exact.refine_compare.exact"], calls), "ratio")
    stats("exact.enclosure", "calls", "self_s")
    bits = sorted(tracer.enclosure_bits.elements())
    m["exact.enclosure.bits_p50"] = (statistics.median(bits) if bits else 0, "bits")
    m["exact.enclosure.bits_max"] = (max(bits, default=0), "bits")
    stats("exact.sign", "calls", "self_s")
    stats("exact.render_decimal", "calls", "self_s")
    hits, misses = c["exact.squarefree_decompose.hits"], c["exact.squarefree_decompose.misses"]
    m["exact.squarefree_decompose.calls"] = (hits + misses, "count")
    m["exact.squarefree_decompose.hit_ratio"] = (ratio(hits, hits + misses), "ratio")

    stats("contfrac.convergent_stream", "calls", "self_s")
    yielded = c["contfrac.convergent_stream.yielded"]
    m["contfrac.convergent_stream.yielded"] = (yielded, "count")
    points = tracer.stat("imf.psi")[0] + tracer.stat("imf.inv_psi")[0]
    m["contfrac.yielded_per_point"] = (ratio(yielded, points), "1/point")
    for name in ("convergents", "tail", "value", "expand_quadratic"):
        stats(f"contfrac.{name}", "calls", "self_s")

    for name in ("psi", "inv_psi", "breakpoint_profile", "sign_changes", "profile_to_csv",
                 "merged_word"):
        stats(f"imf.{name}", "self_s")
    stats("imf.d_at", "calls", "self_s")
    m["imf.breakpoints"] = (c["imf.breakpoints"], "count")
    calls = stats("imf.DValue.sign", "calls", "self_s")
    m["imf.DValue.sign.exact_share"] = (ratio(c["imf.DValue.sign.exact"], calls), "ratio")
    stats("imf.DValue.render", "self_s")

    for name in ("find_witness", "scan_lemma_conseq", "scan_lemma_conseq1", "scan_interleave_gap",
                 "scan_dichotomy", "construct_optimal", "verify_near_optimality"):
        stats(f"theorems.{name}", "self_s")
    stats("theorems.check_dichotomy", "calls")
    for name, value in curves.items():
        m[name] = (value, "ms")

    m["cli.interpreter_s"] = (interpreter_s, "s")
    m["cli.import_s"] = (import_s, "s")
    stats("cli.main", "self_s")
    stats("numspec.parse_number", "calls", "self_s")

    module_self = Counter()
    for name in tracer.names:
        module_self[name.split(".")[0]] += tracer.stat(name)[2]
    for module in MODULES:
        m[f"{module}.self_share"] = (ratio(module_self[module], wall), "ratio")
    m["trace.overhead_ops_per_s"] = (untraced_rate - traced_rate, "1/s")
    m["trace.overhead_share"] = (ratio(untraced_rate - traced_rate, untraced_rate), "ratio")
    return m


# -- report ----------------------------------------------------------------------------


def report(args, prov, metrics, info) -> None:
    print(f"# psidiff benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    n, failed = info["attempted"], info["failed"]
    print(f"# {n} operations timed in {info['seconds_timed']:.2f} s (closed loop, one client); "
          f"outputs checked in {info['check_s']:.2f} s")
    width = max(map(len, metrics))
    share_base = info.get("traced_wall")
    for name, (value, unit) in metrics.items():
        line = f"{name:<{width}}  {value:>14.6g} {unit}"
        if share_base and name.endswith(".self_s"):
            line += f"   ({value / share_base:6.1%} of traced time)"
        print(line)
    if not args.trace:
        print("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in info["unscaled"].items()))
        t = info["tail"]
        if t is None:
            print(f"{'op_tail_ms':<{width}}  undefined: {n} operations leave fewer than ten "
                  f"samples beyond p{TAIL_PERCENTILES[-1]:g}")
        else:
            print(f"{'op_tail_ms':<{width}}  {t[2] * 1e3:>14.6g} ms   "
                  f"(p{t[0]:g}, {t[1]} samples beyond it, n={n})")
    print(f"{'fail_ratio':<{width}}  {failed / n:>14.6g} ratio   ({failed}/{n}; by code "
          f"{json.dumps(dict(sorted(info['codes'].items())))})")
    if args.trace:
        print(f"# {info['spans']} spans written to {info['spans_path']}")
    for problem in info["problems"][:20]:
        print(f"# PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "psidiff" / "__init__.py", TESTS / "_oracles.py") if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a psidiff checkout",
              file=sys.stderr)
        return 2
    sys.path[1:1] = [str(SRC), str(TESTS)]

    prov = provenance(args)
    seconds = args.seconds / 2 if args.trace else args.seconds  # a traced run times the list twice
    units = gen.generate(args.workload, args.seed, max(1, round(seconds / UNIT_S[args.workload])))
    metrics, info = (traced_run if args.trace else end_to_end)(args, units)
    report(args, prov, metrics, info)
    print(json.dumps({
        "correct": not info["problems"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
