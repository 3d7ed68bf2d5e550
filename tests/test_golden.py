"""Golden CLI transcript: README's CLI block replayed byte for byte.

Each command's stdout was captured once into ``tests/golden/<name>.out``; the
test replays the same argv through ``cli.main`` and compares bytes, so any
change to output formatting, rounding or certificate content shows here.
After a deliberate output change, regenerate with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from psidiff import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
SQRT2 = "surd:(0+sqrt(2))/1"

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
    "lemmas_tie": ["lemmas", "--alpha", SQRT2, "--beta", "cf:[0;1,(2)]", "--max-depth", "20"],
    "construct_optimal": ["construct-optimal", "--epsilon", "0.06"],
    "verify_optimal": ["verify-optimal", "--epsilon", "0.06", "--from", "1000000",
                       "--bound", "1000000000000"],
    "verify_optimal_fail": ["verify-optimal", "--epsilon", "0.06", "--from", "1000000",
                            "--bound", "1000000000000", "--slack", "0"],
    "construct_optimal_small": ["construct-optimal", "--epsilon", "1/3000"],
    "verify_optimal_wide": ["verify-optimal", "--epsilon", "1/1000", "--from", "1000000",
                            "--bound", "10000000000000000000000000000000000000000"],
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
    # 12 digits of c_times_t there need about 4360 bits, past the default cap, which
    # bounds only the witness test
    "witness_deep": ["witness", "--alpha", SQRT2, "--beta", "tau",
                     "--from", str(10**1300), "--bound", str(10**1301)],
}


def _stdout_bytes(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    assert code == 0
    return buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_matches_golden(name):
    assert _stdout_bytes(COMMANDS[name]) == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.out").write_bytes(_stdout_bytes(argv))
        print(f"wrote {name}.out", file=sys.stderr)
