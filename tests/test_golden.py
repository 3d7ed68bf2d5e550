"""Golden CLI transcript: README's CLI block replayed byte for byte.

Each command's stdout was captured once into ``tests/golden/<name>.out``; the
test replays the same argv through ``cli.main`` and compares bytes, so any
change to output formatting, rounding or certificate content shows here.
After a deliberate output change, regenerate with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import hashlib
import io
import pathlib
import sys

import pytest

from psidiff import cli, contfrac, numspec

GOLDEN = pathlib.Path(__file__).parent / "golden"
SQRT2 = "surd:(0+sqrt(2))/1"
# period 688: the window q_685..q_691 crosses the period's end (offset 687 -> 0)
LONG_PERIOD = "surd:(3+sqrt(4999))/29"
LONG_Q = [c.q for c in contfrac.convergents(numspec.parse_number(LONG_PERIOD), 691)]

COMMANDS = {
    "constants": ["constants", "--digits", "10"],
    "expand": ["expand", "--number", SQRT2],
    "psi": ["psi", "--number", "tau", "--t", "137"],
    "profile": ["profile", "--alpha", SQRT2, "--beta", "tau", "--from", "1", "--bound", "1000"],
    "profile_json": ["profile", "--alpha", SQRT2, "--beta", "tau", "--from", "1", "--bound", "1000",
                     "--output", "json"],
    "witness": ["witness", "--alpha", SQRT2, "--beta", "tau", "--from", "4", "--bound", "1000000"],
    "word": ["word", "--alpha", SQRT2, "--beta", "tau", "--count", "10"],
    "lemmas": ["lemmas", "--alpha", SQRT2, "--beta", "tau", "--max-depth", "60"],
    "lemmas_same_field": ["lemmas", "--alpha", SQRT2, "--beta", "surd:(1+sqrt(8))/3",
                          "--max-depth", "60"],
    "lemmas_preperiod": ["lemmas", "--alpha", "cf:[0;1,1,1,1,1,1,(1,2)]",
                         "--beta", "surd:(1+sqrt(3))/2", "--max-depth", "60"],
    "lemmas_digits40": ["lemmas", "--alpha", SQRT2, "--beta", "tau", "--max-depth", "60",
                        "--digits", "40"],
    "lemmas_tie": ["lemmas", "--alpha", SQRT2, "--beta", "cf:[0;1,(2)]", "--max-depth", "20"],
    "construct_optimal": ["construct-optimal", "--epsilon", "0.06"],
    "verify_optimal": ["verify-optimal", "--epsilon", "0.06", "--from", "1000000",
                       "--bound", "1000000000000"],
    "verify_optimal_fail": ["verify-optimal", "--epsilon", "0.06", "--from", "1000000",
                            "--bound", "1000000000000", "--slack", "0"],
    "construct_optimal_small": ["construct-optimal", "--epsilon", "1/3000"],
    "verify_optimal_wide": ["verify-optimal", "--epsilon", "1/1000", "--from", "1000000",
                            "--bound", "10000000000000000000000000000000000000000"],
    "profile_json_digits1": ["profile", "--alpha", SQRT2, "--beta", "tau", "--bound", str(10**30),
                             "--output", "json", "--digits", "1"],
    "profile_far": ["profile", "--alpha", SQRT2, "--beta", "tau",
                    "--from", "1000000000000000000000000000000000000000000000000000000000000",
                    "--bound", "100000000000000000000000000000000000000000000000000000000000000",
                    "--output", "json"],
    "witness_far": ["witness", "--alpha", "cf:[0;1,1,1,1,1,1,(1,2)]",
                    "--beta", "surd:(1+sqrt(3))/2",
                    "--from", "1000000000000000000000000000000000000000000000000000000000000",
                    "--bound", "100000000000000000000000000000000000000000000000000000000000000"],
    "verify_optimal_far": ["verify-optimal", "--epsilon", "1/100",
                           "--from", ("100000000000000000000000000000000000000000000000000000000000"
                                      "000000000000000000000000000000000000000000000000000000000000"
                                      "000000000000000000000000000000000000000000000000000000000000"
                                      "000000000000000000000"),
                           "--bound", ("100000000000000000000000000000000000000000000000000000000000"
                                       "000000000000000000000000000000000000000000000000000000000000"
                                       "000000000000000000000000000000000000000000000000000000000000"
                                       "0000000000000000000000")],
    # the period discriminants of this expansion have large cofactors past trial division
    "profile_wide_quotients": ["profile", "--alpha", "cf:[0;(1000,999,998)]", "--beta", "tau",
                               "--bound", "1000000000000", "--output", "json"],
    # 12 digits of c_times_t there need about 4360 bits; the witness test's bound there is
    # about 69,000 bits, and each step decides at 64
    "witness_deep": ["witness", "--alpha", SQRT2, "--beta", "tau",
                     "--from", str(10**1300), "--bound", str(10**1301)],
    "profile_period_wrap": ["profile", "--alpha", LONG_PERIOD, "--beta", "surd:(0+sqrt(4999))/1",
                            "--from", str(LONG_Q[685]), "--bound", str(LONG_Q[691]),
                            "--output", "csv", "--digits", "6"],
}
# past ``imf._ROWS`` the lemma scans read rows that only their reader keeps; the 4 MB output is
# pinned by its length and SHA-256 rather than kept as a golden file
DEEP_LEMMAS = ["lemmas", "--alpha", "surd:(0+sqrt(1000001))/1",
               "--beta", "surd:(0+sqrt(1000002))/1", "--max-depth", "300"]
DEEP_LEMMAS_BYTES = (3986290, "440c2113eb7710cb4b9906e803c232e11657c10a11127d9aa904182cc546e8ec")


def _stdout_bytes(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    assert code == 0
    return buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_matches_golden(name):
    assert _stdout_bytes(COMMANDS[name]) == (GOLDEN / f"{name}.out").read_bytes()


def test_deep_lemmas_match_their_hash():
    out = _stdout_bytes(DEEP_LEMMAS)
    assert (len(out), hashlib.sha256(out).hexdigest()) == DEEP_LEMMAS_BYTES


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.out").write_bytes(_stdout_bytes(argv))
        print(f"wrote {name}.out", file=sys.stderr)
