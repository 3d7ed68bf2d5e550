"""CLI surface: output shapes, determinism, exit codes."""

import json
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import pytest

from psidiff import (QuadExt, breakpoint_profile, cli, construct_optimal, d_at, merged_word,
                     parse_number, psi, verify_near_optimality)
from psidiff.errors import UndecidedSignError
from psidiff.exact import _STR_BITS

from _oracles import (brute_force_psi_table, mp_const, mp_exact, mp_quadext, mp_rational,
                      mp_rounded, scaled_int)

SQRT2 = "surd:(0+sqrt(2))/1"
SQRT3 = "surd:(0+sqrt(3))/1"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def fresh(*argv, timeout=60) -> subprocess.CompletedProcess:
    """``python -m psidiff.cli`` run in a fresh interpreter, whose first radicands are this
    call's; a hang fails after ``timeout`` seconds instead of stalling the suite."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "psidiff.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


def run_fresh(*argv, timeout=60):
    """(exit code, JSON stdout) of ``fresh``."""
    proc = fresh(*argv, timeout=timeout)
    return proc.returncode, json.loads(proc.stdout)


class TestCommands:
    def test_constants(self, capsys):
        code, payload = run_json(capsys, "constants", "--digits", "10")
        assert code == 0
        assert payload["C"].startswith("0.47818")
        assert payload["K"].startswith("0.2720")
        assert payload["2C+1"].startswith("1.95636")
        assert payload["tau"] == "1.6180339887"

    def test_constants_obey_precision_cap(self, capsys):
        # 2000 digits need about 6650 bits; every decimal is exact, at any --digits
        code, payload = run_json(capsys, "constants", "--digits", "2000")
        assert code == 0
        with mpmath.workdps(2050):
            error = abs(mpmath.mpf(payload["C"]) - mp_const("C", dps=2050))
            assert error <= mpmath.mpf(10) ** -2000 / 2

    def test_constants_past_the_int_to_str_limit(self, capsys):
        code, payload = run_json(capsys, "constants", "--digits", "5000")
        assert code == 0
        with mpmath.workdps(5050):
            for name in ("tau", "phi", "K", "C"):
                assert scaled_int(payload[name]) == mp_rounded(mp_const(name, 5050), 5000), name
            assert scaled_int(payload["2C+1"]) == mp_rounded(2 * mp_const("C", 5050) + 1, 5000)

    def test_expand(self, capsys):
        code, payload = run_json(capsys, "expand", "--number", SQRT2)
        assert code == 0
        assert payload["expansion"] == "[1;(2)]"

    def test_expand_cf_passthrough(self, capsys):
        code, payload = run_json(capsys, "expand", "--number", "cf:[0;5,(1)]")
        assert code == 0
        assert payload["expansion"] == "[0;5,(1)]"
        assert payload["preperiod"] == [5] and payload["period"] == [1]

    def test_psi(self, capsys):
        code, payload = run_json(capsys, "psi", "--number", SQRT2, "--t", "3")
        assert code == 0
        assert payload["q"] == 2
        assert payload["psi_exact"] == "3-2√2"

    def test_witness(self, capsys):
        code, payload = run_json(
            capsys, "witness", "--alpha", SQRT2, "--beta", "tau", "--from", "4",
            "--bound", "1000000",
        )
        assert code == 0
        assert payload["t"] == 5
        assert payload["verdict"] == "greater"

    def test_profile_csv(self, capsys):
        code, out = run(
            capsys, "profile", "--alpha", SQRT2, "--beta", "tau", "--from", "1",
            "--bound", "13", "--digits", "6",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,inv_psi_alpha,inv_psi_beta,d,digits=6"
        assert len(lines) == 8

    def test_profile_json(self, capsys):
        code, payload = run_json(
            capsys, "profile", "--alpha", SQRT2, "--beta", "tau", "--from", "1",
            "--bound", "13", "--output", "json",
        )
        assert code == 0
        assert [e["t"] for e in payload["entries"]] == [1, 2, 3, 5, 8, 12, 13]
        assert payload["sign_changes"] == [2, 3, 5, 8, 12]

    def test_word(self, capsys):
        code, payload = run_json(
            capsys, "word", "--alpha", SQRT2, "--beta", "tau", "--count", "10"
        )
        assert code == 0
        assert payload["word"] == "B,B,T,B,T,Q,T,T,Q,T"

    def test_lemmas(self, capsys):
        code, payload = run_json(
            capsys, "lemmas", "--alpha", SQRT2, "--beta", "tau", "--max-depth", "30"
        )
        assert code == 0
        assert payload["conseq"] == [[0, 1]]
        assert payload["conseq1"] == []
        kinds = {cert["kind"] for cert in payload["interleave_gap"]}
        assert kinds == {"interleave_gap_a"}
        assert all(rec["verdict"] in ("first_branch", "second_branch", "both")
                   for rec in payload["dichotomy"])

    def test_construct_optimal(self, capsys):
        code, payload = run_json(capsys, "construct-optimal", "--epsilon", "0.06")
        assert code == 0
        assert (payload["U"], payload["V"]) == (7, -3)
        assert payload["theta"] == "[0;5,(1)]"

    def test_verify_optimal(self, capsys):
        code, payload = run_json(
            capsys, "verify-optimal", "--epsilon", "0.06", "--from", "1000000",
            "--bound", "1000000000",
        )
        assert code == 0
        assert payload["report"]["verdict"] == "pass"

    def test_verify_optimal_max_ratio_correctly_rounded(self, capsys):
        code, payload = run_json(
            capsys, "verify-optimal", "--epsilon", "0.06", "--from", "1",
            "--bound", "100000000000000000000", "--digits", "60",
        )
        assert code == 0
        report = payload["report"]
        assert report["t"] == 809
        top = QuadExt(Fraction(445, 1618), Fraction(199, 1618), 5)
        with mpmath.workdps(100):
            scaled = int(mpmath.nint(mp_quadext(top, 100) * mpmath.mpf(10) ** 60))
        expected = f"0.{scaled:060d}"
        assert expected.endswith("088461007")
        assert report["decimal"]["max_ratio_lo"] == expected
        assert report["decimal"]["max_ratio_hi"] == expected

    def test_ints_past_the_int_to_str_limit(self, capsys):
        # q_n of [0;(1000)] passes 4300 digits near n = 1433; json's int.__repr__ stops there
        code, out = run(capsys, "word", "--alpha", "cf:[0;(1000)]", "--beta", "cf:[0;(999)]",
                        "--count", "3000")
        assert code == 0
        payload = json.loads(out, parse_int=scaled_int)
        word = merged_word(parse_number("cf:[0;(1000)]"), parse_number("cf:[0;(999)]"), 3000)
        assert payload["letters"] == [
            {"kind": letter.kind, "n": letter.n, "s": letter.s, "value": letter.value}
            for letter in word.letters
        ]
        assert word.letters[-1].value >= 10**4300

    def test_psi_at_a_t_past_the_int_to_str_limit(self, capsys):
        t = "1" + "0" * 4400
        code, out = run(capsys, "psi", "--number", "tau", "--t", t)
        assert code == 0
        payload = json.loads(out, parse_int=scaled_int)
        value = psi(parse_number("tau"), 10**4400)
        assert payload["t"] == 10**4400
        assert (payload["index"], payload["q"]) == (value.index, value.q)
        assert payload["inv_psi_exact"] == str(value.inv_value)

    def test_range_past_the_int_to_str_limit(self, capsys):
        t = 10**4400
        code, out = run(capsys, "profile", "--alpha", "tau", "--beta", SQRT2, "--output", "json",
                        "--from", "1" + "0" * 4400, "--bound", "1" + "0" * 4401)
        assert code == 0
        payload = json.loads(out, parse_int=scaled_int)
        profile = breakpoint_profile(parse_number("tau"), parse_number(SQRT2), t, 10 * t)
        assert [e["t"] for e in payload["entries"]] == [e.t for e in profile.entries]

    def test_slack_past_the_int_to_str_limit(self, capsys):
        slack = Fraction(1, 10**4400)
        code, payload = run_json(capsys, "verify-optimal", "--epsilon", "1/1000",
                                 "--bound", "10000000", "--slack", "1/1" + "0" * 4400)
        assert code == 0
        pair = construct_optimal(Fraction(1, 1000))
        report = verify_near_optimality(pair, 10**6, 10**7, slack)
        assert payload["report"] == report.to_json(12)

    @pytest.mark.parametrize("command", ["construct-optimal", "verify-optimal"])
    def test_epsilon_past_the_int_to_str_limit(self, capsys, command):
        # 0.001<5000 zeros>1 = (10**5001 + 1)/10**5004, just above 1/1000: the pair of 1/1000
        code, payload = run_json(capsys, command, "--epsilon", "0.001" + "0" * 5000 + "1")
        assert code == 0
        pair = payload if command == "construct-optimal" else payload["pair"]
        assert (pair["U"], pair["V"], pair["theta"]) == (1235, -762, "[0;26,1,2,(1)]")
        assert pair["epsilon"] == "1" + "0" * 5000 + "1/1" + "0" * 5004
        if command == "verify-optimal":
            assert payload["report"]["verdict"] == "pass"


class TestErrorsAndExitCodes:
    @pytest.mark.parametrize("command, epsilon", [
        pytest.param("construct-optimal", "1e-400", id="construct-optimal"),
        pytest.param("verify-optimal", "1e-400", id="verify-optimal"),
        # a denominator past _STR_BITS, which the message names by a power of two above epsilon
        pytest.param("construct-optimal", "1e-5000", id="construct-optimal-1e-5000"),
    ])
    def test_search_exhausted(self, capsys, command, epsilon):
        # the screen passes no U below the limit; the whole scan takes about a second
        code, payload = run_json(capsys, command, "--epsilon", epsilon)
        assert code == 1
        assert payload["error"]["code"] == "search_exhausted"
        message, e = payload["error"]["message"], int(epsilon[3:])
        if (10**e).bit_length() > _STR_BITS:
            k = int(message.rpartition("for epsilon below 2^-")[2])
            assert 2**k < 10**e <= 2**(k + 2)
        else:
            assert message.endswith(f"for epsilon 1/1{'0' * e}")

    def test_search_exhausted_costs_no_more_for_a_tiny_epsilon(self):
        # the screen's precision stops growing with epsilon's denominator: 1e-100000 took
        # about a minute while it grew, and takes under a second now
        code, payload = run_fresh("construct-optimal", "--epsilon", "1e-100000", timeout=20)
        assert code == 1
        assert payload["error"]["code"] == "search_exhausted"

    @pytest.mark.parametrize("argv", [
        ("word", "--alpha", "tau", "--beta", SQRT2, "--count"),
        ("lemmas", "--alpha", "tau", "--beta", SQRT2, "--max-depth"),
        ("constants", "--digits"),
        ("profile", "--alpha", "tau", "--beta", SQRT2, "--bound"),
    ], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
    def test_walk_past_its_budget_is_refused(self, argv):
        """A count, depth or digit count past ``cli.BUDGET`` is refused as it is read, before
        any walk: at 10**8 either walk allocated until it ended in a MemoryError traceback,
        and ``constants --digits 10**6`` ran for over a minute. A profile's rows are bounded
        before any walk by each number's last index at --bound less that at --from, plus one:
        on these two numbers 7,397 to 10**1000, which runs (7,395 rows), and 22,192 to
        10**3000, which ran for 7.5 s and printed 134 MB; ``witness`` keeps any --bound."""
        over, within = str(cli.BUDGET + 1), str(cli.BUDGET)
        if argv[0] == "profile":
            over, within = "1" + "0" * 3000, "1" + "0" * 1000
        proc = fresh(*argv, over, timeout=30)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["code"] == "invalid_input"
        assert "Traceback" not in proc.stderr
        if argv[0] == "profile":
            proc = fresh(*argv, within, timeout=30)
            assert proc.returncode == 0 and proc.stdout.count("\n") == 1 + 7395
            assert fresh("witness", *argv[1:], over, timeout=30).returncode == 0
            return
        dest = argv[-1][2:].replace("-", "_")
        assert getattr(cli.build_parser().parse_args([*argv, within]), dest) == cli.BUDGET

    def test_verify_optimal_range_past_its_budget_is_refused(self):
        """``verify-optimal`` counts the merged steps of tau and theta over [max(--from, regime
        floor), --bound] off the ladder before any walk: at --epsilon 0.06, 9,514 to 10**1000,
        which runs, and 57,363 to 10**6000, which ran for 4 s and is refused."""
        start = time.perf_counter()
        proc = fresh("verify-optimal", "--epsilon", "0.06", "--bound", "1" + "0" * 6000,
                     timeout=30)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 1
        error = json.loads(proc.stdout)["error"]
        assert error["code"] == "invalid_input" and "57363 steps" in error["message"]
        assert "Traceback" not in proc.stderr
        proc = fresh("verify-optimal", "--epsilon", "0.06", "--bound", "1" + "0" * 1000,
                     timeout=30)
        assert proc.returncode == 0 and json.loads(proc.stdout)["report"]["verdict"] == "pass"

    @pytest.mark.parametrize("argv", [
        ("construct-optimal", "--epsilon", "1e999999999"),
        ("construct-optimal", "--epsilon", "1e-999999999"),
        ("verify-optimal", "--epsilon", "0.06", "--slack", "1e-999999999"),
        # Fraction's digit separators, which once took the text past the exponent's budget
        ("construct-optimal", "--epsilon", "1e-999_999_999"),
    ], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
    def test_exponent_past_its_budget_is_refused(self, argv):
        """An exponent of --epsilon or --slack past ``cli._EXPONENTS`` is refused before its
        power of ten is formed: 1e+-999999999 ran past a 30 s timeout, and ``verify-optimal
        --slack 1e-1000000`` took 19.5 s; at the budget, 1e-100000, either command answers."""
        start = time.perf_counter()
        proc = fresh(*argv, timeout=30)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["code"] == "invalid_input"
        assert "Traceback" not in proc.stderr

    def test_exponent_at_its_budget_is_read(self, capsys):
        code, payload = run_json(capsys, "verify-optimal", "--epsilon", "0.06",
                                 "--slack", f"1e-{cli._EXPONENTS}")
        assert code == 0 and payload["report"]["kind"] == "near_optimality"
        assert cli._fraction(f"2_5e{cli._EXPONENTS}") == 25 * 10**cli._EXPONENTS

    def test_bad_number_spec(self, capsys):
        code, payload = run_json(capsys, "expand", "--number", "surd:(1+sqrt(4))/1")
        assert code == 1
        assert payload["error"]["code"] == "invalid_input"

    def test_rational_input(self, capsys):
        code, payload = run_json(capsys, "psi", "--number", "cf:[0;2,3]", "--t", "5")
        assert code == 1
        assert payload["error"]["code"] == "rational_input"

    def test_integral_pair(self, capsys):
        code, payload = run_json(
            capsys, "witness", "--alpha", "tau", "--beta", "cf:[2;(1)]", "--from", "1",
            "--bound", "100",
        )
        assert code == 1
        assert payload["error"]["code"] == "integral_sum_or_diff"

    def test_not_found_in_range(self, capsys):
        code, payload = run_json(
            capsys, "witness", "--alpha", SQRT2, "--beta", "tau", "--from", "1",
            "--bound", "1",
        )
        assert code == 1
        assert payload["error"]["code"] == "not_found_in_range"

    def test_undecided_maps_to_exit_2(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise UndecidedSignError("forced for the exit-code contract")

        monkeypatch.setattr("psidiff.theorems.find_witness", boom)
        code, payload = run_json(
            capsys, "witness", "--alpha", SQRT2, "--beta", "tau", "--from", "1",
            "--bound", "10",
        )
        assert code == 2
        assert payload["error"]["code"] == "undecided_sign"

    def test_exact_zero_step_exits_2_only_for_sign_changes(self, capsys):
        # d(t) = 0 at t = 2: the JSON lists sign changes, which need a strict sign; the CSV not
        pair = ("--alpha", "cf:[0;(1,2)]", "--beta", "cf:[0;2,(1,2)]")
        code, payload = run_json(capsys, "profile", *pair, "--output", "json")
        assert (code, payload["error"]["code"]) == (2, "undecided_sign")
        code, out = run(capsys, "profile", *pair, "--bound", "8")
        assert code == 0 and out.splitlines()[2] == "2,3.732050807569,3.732050807569,0.000000000000"

    def test_small_cap_candidate_exits_0(self, capsys):
        # U = 7's approximation error rounded up at 25 digits: an exact integer test decides it
        epsilon = "271091358675974865898427/5000000000000000000000000"
        code, payload = run_json(capsys, "construct-optimal", "--epsilon", epsilon)
        assert code == 0
        assert (payload["U"], payload["V"]) == (7, -3)

    def test_unknown_command_exits_1(self, capsys):
        assert cli.main(["no-such-command"]) == 1

    def test_reversed_range(self, capsys):
        # an empty range, not one below the regime
        code, payload = run_json(capsys, "verify-optimal", "--epsilon", "0.06",
                                 "--from", "1000000", "--bound", "10")
        assert code == 1
        assert payload["error"] == {"code": "invalid_input", "message": "need t_min <= t_max"}
        code, payload = run_json(capsys, "verify-optimal", "--epsilon", "0.06",
                                 "--from", "1", "--bound", "10")
        assert "below the verified regime" in payload["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["verify-optimal", "--epsilon", "0.06", "--slack", "-1/100"],
        ["verify-optimal", "--epsilon", "-1/100"],
        ["construct-optimal", "--epsilon", "-1/100"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_negative_fraction_value(self, capsys, argv):
        # argparse's negative-number pattern knows no fractions; both spellings parse alike
        code, out = run(capsys, *argv)
        assert (code, out) == run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
        if argv[-2] == "--slack":
            assert code == 0 and json.loads(out)["report"]["verdict"] == "fail"
        else:
            assert code == 1 and json.loads(out)["error"]["code"] == "invalid_input"

    @pytest.mark.parametrize("flag, argv", [
        (1, ["expand", "--number", "-tau"]),
        (1, ["word", "--alpha", "-tau", "--beta", "tau", "--count", "3"]),
        (3, ["word", "--alpha", "tau", "--beta", "-surd:(0+sqrt(2))/1", "--count", "3"]),
    ], ids=["number", "alpha", "beta"])
    def test_spec_that_begins_with_a_minus(self, capsys, flag, argv):
        # argparse takes -tau for an option; the error names the spec, as --number=-tau does
        code, out = run(capsys, *argv)
        joined = [*argv[:flag], f"{argv[flag]}={argv[flag + 1]}", *argv[flag + 2:]]
        assert (code, out) == run(capsys, *joined)
        error = json.loads(out)["error"]
        assert code == 1 and error["code"] == "invalid_input"
        assert repr(argv[flag + 1]) in error["message"]

    @pytest.mark.parametrize("argv", [
        ["verify-optimal", "--epsilon", "0.06", "--from", "1e5"],
        ["psi", "--number", "tau", "--t", "12.5"],
        ["profile", "--alpha", SQRT2, "--beta", "tau", "--bound", "1/2"],
        ["witness", "--alpha", SQRT2, "--beta", "tau", "--from", "x"],
        ["constants", "--digits", "x"],
        ["word", "--alpha", SQRT2, "--beta", "tau", "--count", "1e3"],
        ["lemmas", "--alpha", SQRT2, "--beta", "tau", "--max-depth", "2.0"],
        ["witness", "--alpha", SQRT2, "--beta", "tau", "--bound", "1e6"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_integer_flag_type_error(self, capsys, argv):
        # the message names the option's grammar, not the Python function that read it
        code, payload = run_json(capsys, *argv)
        assert code == 1 and payload["error"]["code"] == "invalid_input"
        assert payload["error"]["message"].endswith(
            f"argument {argv[-2]}: invalid integer value: '{argv[-1]}'")

    @pytest.mark.parametrize("argv", [
        ["constants", "--digits"],
        ["word", "--alpha", SQRT2, "--beta", "tau", "--count"],
        ["lemmas", "--alpha", SQRT2, "--beta", "tau", "--max-depth"],
    ], ids=lambda argv: f"{argv[0]} {argv[-1]}")
    def test_long_count_is_refused(self, capsys, argv):
        # past 4300 digits a count, depth or digit count would start a run that never ends
        code, payload = run_json(capsys, *argv, "1" + "0" * 4400)
        assert code == 1 and payload["error"]["code"] == "invalid_input"
        assert f"argument {argv[-1]}: invalid integer value: '1000" in payload["error"]["message"]

    @pytest.mark.parametrize("flag, value", [
        ("--digits", "0"), ("--precision-cap-bits", "63"), ("--precision-cap-bits", "4096"),
    ])
    @pytest.mark.parametrize("argv", [
        ["constants"],
        ["expand", "--number", "tau"],
        ["psi", "--number", "tau", "--t", "5"],
        ["profile", "--alpha", SQRT2, "--beta", "tau"],
        ["witness", "--alpha", SQRT2, "--beta", "tau"],
        ["word", "--alpha", SQRT2, "--beta", "tau"],
        ["lemmas", "--alpha", SQRT2, "--beta", "tau"],
        ["construct-optimal", "--epsilon", "0.06"],
        ["verify-optimal", "--epsilon", "0.06"],
    ], ids=lambda argv: argv[0])
    def test_bad_config(self, capsys, argv, flag, value):
        """Every command rejects a shared flag out of range the same way, and so the retired
        --precision-cap-bits at any value, its old default 4096 included: the witness test
        takes its precision from its inputs."""
        code, payload = run_json(capsys, *argv, flag, value)
        message = (f"{flag} must be >= 1" if flag == "--digits"
                   else f"psidiff: unrecognized arguments: {flag} {value}")
        assert code == 1
        assert payload["error"] == {"code": "invalid_input", "message": message}


WIDE_DPS = 2050


def rendered_and_expected(name: str, out: str) -> list[tuple[str, mpmath.mpf]]:
    """Each 2000-digit decimal of a command's output, with its value from mpmath."""
    alpha, beta = parse_number(SQRT2), parse_number("tau")
    if name == "profile_csv":
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        columns = ("t", "inv_psi_alpha", "inv_psi_beta", "d")
        name, payload = "profile_json", {"entries": [dict(zip(columns, row)) for row in rows]}
    else:
        payload = json.loads(out)
    pairs = []
    if name == "psi":
        pairs += [(payload[key], mp_exact(payload[f"{key}_exact"])) for key in ("psi", "inv_psi")]
    elif name == "witness":
        exact, dec = payload["exact_values"], payload["decimal"]
        d = mp_exact(exact["inv_psi_beta"]) - mp_exact(exact["inv_psi_alpha"])
        pairs += [(dec["d"], d), (dec["c_times_t"], mp_const("C", WIDE_DPS) * payload["t"])]
        assert mpmath.mpf(dec["ratio_lower_bound"]) <= abs(d) / payload["t"]
    elif name == "profile_json":
        profile = breakpoint_profile(alpha, beta, 1, 30)
        assert [int(e["t"]) for e in payload["entries"]] == [e.t for e in profile.entries]
        for got, entry in zip(payload["entries"], profile.entries):
            a = mp_quadext(entry.inv_psi_alpha, WIDE_DPS)
            b = mp_quadext(entry.inv_psi_beta, WIDE_DPS)
            pairs += [(got["inv_psi_alpha"], a), (got["inv_psi_beta"], b), (got["d"], b - a)]
    elif name == "lemmas":
        assert payload["dichotomy"] and payload["interleave_gap"]
        for rec in payload["dichotomy"]:
            pairs += [(rec["decimal"][k], mp_exact(v)) for k, v in rec["exact_values"].items()]
        for cert in payload["interleave_gap"]:
            pairs.append((cert["decimal"]["delta"], mp_exact(cert["exact_values"]["delta"])))
            for point, field in (("first_point", "d_first"), ("second_point", "d_second")):
                d = d_at(alpha, beta, cert["indices"][point])
                b, a = (mp_quadext(x, WIDE_DPS) for x in (d.inv_psi_beta, d.inv_psi_alpha))
                pairs.append((cert["decimal"][field], b - a))
    else:  # verify_optimal
        pair, report = payload["pair"], payload["report"]
        sqrt_tau = mpmath.sqrt(mp_const("tau", WIDE_DPS))
        error = abs(mp_exact(pair["exact_values"]["approximant"]) - sqrt_tau)
        slack = mp_rational(str(5 * Fraction(pair["epsilon"])))
        pairs += [(pair["decimal"]["A"], mp_exact(pair["exact_values"]["A"])),
                  (pair["decimal"]["error"], error),
                  (report["decimal"]["c_plus_slack"], mp_const("C", WIDE_DPS) + slack)]
    return pairs


CAPPED = {
    "psi": ("psi", "--number", "tau", "--t", "1000000000000000000000000000000"),
    "witness": ("witness", "--alpha", SQRT2, "--beta", "tau", "--from", "4", "--bound", "1000000"),
    "profile_json": ("profile", "--alpha", SQRT2, "--beta", "tau", "--bound", "30",
                     "--output", "json"),
    "profile_csv": ("profile", "--alpha", SQRT2, "--beta", "tau", "--bound", "30"),
    "lemmas": ("lemmas", "--alpha", SQRT2, "--beta", "tau", "--max-depth", "6"),
    "verify_optimal": ("verify-optimal", "--epsilon", "0.06", "--from", "1000000",
                       "--bound", "1000000000000"),
}


class TestRenderingObeysPrecisionCap:
    """Each decimal is correct to 2000 digits, which need about 6650 bits, and to the default
    12: every decimal comes from an exact scaled floor, which no precision setting reaches."""

    @staticmethod
    def check(capsys, name: str, digits: int) -> None:
        code, out = run(capsys, *CAPPED[name], "--digits", str(digits))
        assert code == 0, out
        with mpmath.workdps(WIDE_DPS):
            pairs = rendered_and_expected(name, out)
            assert len(pairs) >= 2
            for rendered, expected in pairs:
                assert len(rendered.partition(".")[2]) == digits
                assert abs(mpmath.mpf(rendered) - expected) <= mpmath.mpf(10) ** -digits / 2

    @pytest.mark.parametrize("name", sorted(CAPPED))
    def test_large_cap_renders_correctly(self, capsys, name):
        self.check(capsys, name, 2000)

    @pytest.mark.parametrize("name", sorted(CAPPED))
    def test_default_cap_renders_correctly(self, capsys, name):
        self.check(capsys, name, 12)


class TestWitnessRatioBound:
    """The printed ratio_lower_bound is |d(t)|/t rounded down: at most it, within 10**-digits."""

    @pytest.mark.parametrize("digits", [12, 25, 40])
    @pytest.mark.parametrize("alpha, beta, start", [
        (SQRT2, "tau", "4"),
        (SQRT2, "tau", "100"),  # rounding half-to-even printed ...152 for 0.86112461815186...
        ("cf:[0;(1,2)]", "tau", "1"),  # and ...819 for 1.11401681881898...
        ("cf:[0;3,(1,4)]", "surd:(1+sqrt(7))/2", "10"),
        (SQRT2, "surd:(1+sqrt(8))/3", "1"),  # one field: |d(t)|/t = (1+sqrt(2))/2 exactly
        (SQRT3, "cf:[0;2,(1,2)]", "1"),  # one field: |d(t)|/t = 1 exactly
    ])
    def test_rounded_down(self, capsys, alpha, beta, start, digits):
        code, payload = run_json(capsys, "witness", "--alpha", alpha, "--beta", beta,
                                 "--from", start, "--bound", "1000000", "--digits", str(digits))
        assert code == 0
        exact = payload["exact_values"]
        printed = payload["decimal"]["ratio_lower_bound"]
        assert len(printed.partition(".")[2]) == digits
        with mpmath.workdps(digits + 30):
            d = mp_exact(exact["inv_psi_beta"]) - mp_exact(exact["inv_psi_alpha"])
            scaled = abs(d) / payload["t"] * mpmath.mpf(10) ** digits
            n = int(printed.replace(".", ""))
            assert n <= scaled < n + 1


class TestNumberSpec:
    def test_tau_named_constant(self, capsys):
        code, payload = run_json(capsys, "expand", "--number", "tau")
        assert code == 0
        assert payload["expansion"] == "[1;(1)]"

    def test_negative_surd(self, capsys):
        from fractions import Fraction

        from psidiff import QuadExt
        from psidiff.numspec import parse_number

        code, payload = run_json(capsys, "expand", "--number", "surd:(-3+sqrt(5))/2")
        assert code == 0
        assert payload["a0"] == -1  # (-3+sqrt5)/2 = -0.381966...
        cf = parse_number("surd:(-3+sqrt(5))/2")
        assert cf.value() == QuadExt(Fraction(-3, 2), Fraction(1, 2), 5)

    def test_negative_denominator_surd(self, capsys):
        from fractions import Fraction

        from psidiff.numspec import parse_surd

        x = parse_surd("surd:(1+sqrt(2))/-2")
        assert (x.a, x.b) == (Fraction(-1, 2), Fraction(-1, 2))

    def test_grammar_round_trip(self, capsys):
        from psidiff.numspec import parse_number

        for text in ("cf:[0;5,(1)]", "cf:[2;1,3,(4,1)]", "cf:[-2;(1,2)]", "cf:[0;2,3]", "cf:[7]"):
            cf = parse_number(text)
            assert f"cf:{cf}" == text

    @pytest.mark.parametrize("spec", ["cf:[0;()]", "cf:[0;1,]", "cf:[0;(1,)]"])
    def test_empty_cf_term(self, capsys, spec):
        code, payload = run_json(capsys, "expand", "--number", spec)
        assert code == 1
        assert payload["error"]["code"] == "invalid_input"
        assert payload["error"]["message"].startswith("empty term in cf spec")

    def test_malformed_specs_rejected(self, capsys):
        from psidiff.numspec import parse_number

        for bad in ("surd:(1+sqrt(2))/0", "cf:[1;(2),(3)]", "cf:[1;]", "pi", "surd:1+sqrt(2)"):
            code, payload = run_json(capsys, "expand", "--number", bad)
            assert code == 1, bad

    @pytest.mark.parametrize("spec", ["cf:[{big};(1)]", "cf:[-{big};7,{big},(2,{big})]",
                                      "cf:[0;{big}]"])
    def test_cf_terms_past_the_int_to_str_limit(self, capsys, spec):
        spec = spec.format(big="1" + "0" * 4400)
        code, out = run(capsys, "expand", "--number", spec)
        assert code == 0
        payload = json.loads(out, parse_int=scaled_int)
        cf = parse_number(spec)
        assert 10**4400 in (abs(cf.a0), *cf.preperiod)
        assert (payload["a0"], payload["preperiod"], payload["period"]) == (
            cf.a0, list(cf.preperiod), list(cf.period))
        assert payload["expansion"] == spec[3:]

    def test_surd_past_the_int_to_str_limit(self, capsys):
        # P = 10**4400 + 3 over sqrt(2): a0 = P + 1, and the period stays that of sqrt(2)
        spec = "surd:(1" + "0" * 4399 + "3+sqrt(2))/1"
        code, out = run(capsys, "expand", "--number", spec)
        assert code == 0
        payload = json.loads(out, parse_int=scaled_int)
        assert (payload["a0"], payload["preperiod"], payload["period"]) == (10**4400 + 4, [], [2])


class TestLargeRadicands:
    """Radicands whose cofactor past trial division is large: nothing factors them."""

    def test_psi_of_a_prime_radicand_past_the_table(self):
        # the period discriminants of sqrt(20011) are 20011*k^2 with large k
        code, payload = run_fresh("psi", "--number", "surd:(0+sqrt(20011))/1", "--t", "1000000")
        assert code == 0
        q = nearest_multiple_search(20011, 10**6)
        assert payload["q"] == q
        with mpmath.workdps(60):
            dist = abs(q * mpmath.sqrt(20011) - mpmath.nint(q * mpmath.sqrt(20011)))
            assert scaled_int(payload["psi"]) == mp_rounded(dist, 12)
            assert scaled_int(payload["inv_psi"]) == mp_rounded(1 / dist, 12)
            assert abs(mp_exact(payload["psi_exact"]) - dist) < mpmath.mpf(10) ** -50
        _, small = run_fresh("psi", "--number", "surd:(0+sqrt(20011))/1", "--t", "1000")
        with mpmath.workdps(60):
            assert small["q"] == brute_force_psi_table(mpmath.sqrt(20011), 1000)[-1][0] == 415

    @pytest.mark.parametrize("first", ["alpha", "beta"])
    def test_square_of_a_large_prime_keeps_the_field(self, first):
        # 109758411554087 = 104729^2 * 10007, so alpha = sqrt(10007) and beta - alpha = 1,
        # whichever radicand is seen first
        alpha, beta = "surd:(0+sqrt(109758411554087))/104729", "surd:(1+sqrt(10007))/1"
        pair = (alpha, beta) if first == "alpha" else (beta, alpha)
        code, payload = run_fresh("profile", "--alpha", pair[0], "--beta", pair[1])
        assert code == 1
        assert payload["error"]["code"] == "integral_sum_or_diff"


def nearest_multiple_search(D: int, t: int) -> int:
    """The q <= t with q*sqrt(D) nearest an integer, by brute force. Below 2**28, each float
    distance is off by under 5e-8, so floats keep every q within 1e-7 of their minimum and
    mpmath picks among those."""
    root = math.sqrt(D)
    dists = [abs(q * root - round(q * root)) for q in range(1, t + 1)]
    least = min(dists)
    with mpmath.workdps(60):
        exact = mpmath.sqrt(D)
        return min((q for q, d in enumerate(dists, 1) if d <= least + 1e-7),
                   key=lambda q: abs(q * exact - mpmath.nint(q * exact)))


class TestDeterminism:
    def test_constants_bytes_identical(self, capsys):
        _, first = run(capsys, "constants", "--digits", "15")
        _, second = run(capsys, "constants", "--digits", "15")
        assert first == second

    def test_profile_bytes_identical(self, capsys):
        args = ("profile", "--alpha", SQRT2, "--beta", SQRT3, "--from", "1", "--bound", "100000")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second
