"""The benchmark still runs on the package: ``bench/`` imported as it is.

``run.py --workload deep_t`` calls ``exact.refine_compare`` and ``Comparison`` itself, and
``run.py --trace 1`` wraps the names ``bench/tracing.py`` lists. Neither mode is gated, so
a change that drops one of those names would otherwise show only when someone runs them.
Here the tracer is installed and uninstalled around the 10**12 rung of one ``gen.deep_t``
unit, run through ``ops.InProcess``. The gated in-process workloads call the library with
their own arguments, ``cap_bits`` passed by position among them, so one unit of
``profile_scan`` and of ``lemma_depth`` runs through ``ops.InProcess`` and is checked by
``checks.Checker`` and ``confirm_failures``, as ``run.py`` checks it. So does one unit of
``cli_mix``, through ``ops.CliProcess``: the CLI's stdout on drawn pairs, checked against
mpmath as in a benchmark run.
"""

import pathlib
import random
import sys

import pytest

from psidiff import exact, theorems

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leaves bench/ as it is
    import gen
    import ops
    import tracing

    return gen, ops, tracing


def test_deep_t_rung_runs_traced(bench):
    gen, ops, tracing = bench
    unit = gen.deep_t(random.Random(1), 1)[0]
    op = next(op for op in unit if op["t_exp"] == 12)
    runner = ops.InProcess("deep_t")
    runner.parse([op["alpha"].spec, op["beta"].spec])
    originals = exact.refine_compare, theorems.find_witness, exact.QuadExt.enclosure
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert exact.refine_compare is not originals[0]
        rec, errors = runner.run(op)
    finally:
        tracer.uninstall()
    assert (exact.refine_compare, theorems.find_witness, exact.QuadExt.enclosure) == originals
    assert errors == []
    assert rec["verdict"] in ("less", "greater")
    assert tracer.calls[tracer.ids["exact.refine_compare"]] == 1


@pytest.mark.parametrize("workload", ["profile_scan", "lemma_depth", "cli_mix"])
def test_gated_workload_unit_runs_and_checks(bench, workload):
    gen, ops, _ = bench
    import checks

    unit = getattr(gen, workload)(random.Random(1), 1)[0]
    if workload == "cli_mix":  # nine fresh ``python -m psidiff.cli`` processes
        runner = ops.CliProcess(BENCH.parent)
    else:
        runner = ops.InProcess(workload)
        runner.parse(sorted({num.spec for op in unit for num in (op["alpha"], op["beta"])}))
    checker, ran = checks.Checker(), 0
    for op in unit:
        rec, errors = runner.run(op)
        getattr(checker, workload)(op, rec)
        checker.confirm_failures(workload, op, rec, errors)
        ran += not errors
    assert ran  # at least one operation ran every step
