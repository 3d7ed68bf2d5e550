"""The operations each workload times, run in-process or as CLI subprocesses.

An operation returns ``(record, errors)``: the record holds the outputs the
checks read, and ``errors`` the codes of the steps that failed. A failed step
ends its group of steps, as it would end the CLI command it mirrors.
Library calls go through module attributes at call time, so a tracer
installed on those attributes sees them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

CAP_BITS = 4096  # the CLI's default --precision-cap-bits
M61 = (1 << 61) - 1  # denominators too large to print are compared modulo this prime
BENCH = Path(__file__).resolve().parent


def child_env(root: Path) -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env


def reference_s() -> float:
    """Best of two runs of a fixed pure-Python loop: how fast the host runs right now.

    The loop mixes small-int arithmetic, a continued-fraction walk in
    ``Fraction`` and dict and list allocation, as psidiff's own work does. It
    takes about 3 ms on a 2-vCPU x86-64 VM at full speed; ``run.py`` scales
    each measured time by this loop's time next to it.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(8_000):
            total += i * i % 7
        p, q, p_prev, q_prev, x = 1, 1, 1, 0, Fraction(0)
        for i in range(120):
            a = i % 5 + 1
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
            x = (x + Fraction(p, q)) / 2
        table = {(i, i % 13): [i, i * i] for i in range(2000)}
        total += sum(v[1] for v in table.values()) % 7
        best = min(best, time.perf_counter() - start)
    return best


def error_code(exc: BaseException) -> str:
    """A psidiff error's own code, else the exception's type name."""
    code = getattr(exc, "code", None)
    return code if isinstance(code, str) else type(exc).__name__


class InProcess:
    """Runs deep_t, profile_scan and lemma_depth operations on parsed numbers."""

    def __init__(self, workload: str):
        from psidiff import exact, imf, numspec, theorems

        self.exact, self.imf, self.numspec, self.theorems = exact, imf, numspec, theorems
        self.run = getattr(self, workload)
        self.cfs: dict = {}

    def parse(self, specs: list[str]) -> None:
        self.cfs = {spec: self.numspec.parse_number(spec) for spec in specs}

    def deep_t(self, op: dict):
        imf, exact = self.imf, self.exact
        alpha, beta = self.cfs[op["alpha"].spec], self.cfs[op["beta"].spec]
        t = 10 ** op["t_exp"]
        rec: dict = {}
        try:
            d = imf.d_at(alpha, beta, t)
            rec["sign"] = d.sign()
            verdict = exact.refine_compare(d.abs_enclosure,
                                           lambda bits: exact.c_enclosure(bits) * t)
            rec["verdict"] = verdict.value
            if verdict is exact.Comparison.UNDECIDED:
                return rec, ["undecided"]
            pa, pb = imf.psi(alpha, t), imf.psi(beta, t)
            rec["psi"] = [[pa.index, pa.q % M61], [pb.index, pb.q % M61]]
            rec["d"] = d.render(12)
        except Exception as exc:  # every failure is counted by its code
            return rec, [error_code(exc)]
        return rec, []

    def profile_scan(self, op: dict):
        """``profile --output json``, then ``word`` and ``witness`` on the same pair."""
        imf, exact, theorems = self.imf, self.exact, self.theorems
        alpha, beta = self.cfs[op["alpha"].spec], self.cfs[op["beta"].spec]
        digits, rec, errors = op["digits"], {}, []
        try:
            profile = imf.breakpoint_profile(alpha, beta, 1, op["bound"])
            rec["entries"] = [
                {"t": e.t,
                 "inv_psi_alpha": exact.render_decimal(e.inv_psi_alpha, digits),
                 "inv_psi_beta": exact.render_decimal(e.inv_psi_beta, digits),
                 "d": e.d.render(digits)}
                for e in profile.entries
            ]
            rec["sign_changes"] = imf.sign_changes(profile, CAP_BITS)
        except Exception as exc:
            errors.append(error_code(exc))
        try:
            word = imf.merged_word(alpha, beta, op["count"])
            rec["word"] = [[x.kind, x.n, x.s, x.value] for x in word.letters]
        except Exception as exc:
            errors.append(error_code(exc))
        try:
            witness = theorems.find_witness(alpha, beta, op["from"], op["bound"], CAP_BITS)
            rec["witness"] = witness.to_json(digits)
        except Exception as exc:
            errors.append(error_code(exc))
        return rec, errors

    def lemma_depth(self, op: dict):
        """``lemmas`` at the drawn depth, then ``verify-optimal`` at the drawn epsilon."""
        theorems = self.theorems
        alpha, beta = self.cfs[op["alpha"].spec], self.cfs[op["beta"].spec]
        depth, digits, rec, errors = op["depth"], op["digits"], {}, []
        try:
            rec["conseq"] = [list(x) for x in theorems.scan_lemma_conseq(alpha, beta, depth)]
            rec["conseq1"] = [list(x) for x in theorems.scan_lemma_conseq1(alpha, beta, depth)]
            rec["interleave_gap"] = [
                c.to_json(digits) for c in theorems.scan_interleave_gap(alpha, beta, depth, CAP_BITS)]
            rec["dichotomy"] = [
                r.to_json(digits) for r in theorems.scan_dichotomy(alpha, beta, depth, CAP_BITS)]
        except Exception as exc:
            errors.append(error_code(exc))
        try:
            pair = theorems.construct_optimal(Fraction(op["epsilon"]), CAP_BITS)
            rec["pair"] = pair.to_json(digits)
            report = theorems.verify_near_optimality(pair, op["from"], op["bound"], None, CAP_BITS)
            rec["report"] = report.to_json(digits)
        except Exception as exc:
            errors.append(error_code(exc))
        return rec, errors


class CliProcess:
    """Runs each cli_mix operation as one fresh ``python -m psidiff.cli`` process.

    With ``trace_out`` set, the child is ``cli_traced.py`` instead, which wraps
    the same ``cli.main`` and leaves its spans in that file.
    """

    def __init__(self, root: Path, trace_out: Path | None = None):
        self.env = child_env(root)
        self.trace_out = trace_out
        if trace_out is not None:
            self.env["BENCH_TRACE_OUT"] = str(trace_out)
        self.root = root
        self.max_rss_kb = 0

    def run(self, op: dict):
        if self.trace_out is None:
            argv = [sys.executable, "-m", "psidiff.cli", *op["argv"]]
        else:
            argv = [sys.executable, str(BENCH / "cli_traced.py"), *op["argv"]]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, env=self.env, cwd=self.root)
        with proc.stdout:
            out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)  # reaps the child and reads its peak RSS
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        rec = {"exit": proc.returncode, "stdout": out}
        if proc.returncode == 0:
            return rec, []
        try:
            return rec, [json.loads(out)["error"]["code"]]
        except (ValueError, KeyError, TypeError):
            return rec, [f"exit_{proc.returncode}"]
