"""The benchmark's ungated modes still run on the package: ``bench/`` imported as it is.

``run.py --workload deep_t`` calls ``exact.refine_compare`` and ``Comparison`` itself, and
``run.py --trace 1`` wraps the names ``bench/tracing.py`` lists. Neither mode is gated, so
a change that drops one of those names would otherwise show only when someone runs them.
Here the tracer is installed and uninstalled around the 10**12 rung of one ``gen.deep_t``
unit, run through ``ops.InProcess``.
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
