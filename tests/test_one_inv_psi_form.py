"""Every 1/psi and every convergent remainder comes from one cross-checked closed form.

``imf._inv_psi_at`` evaluates 1/xi_r = q_r a_{r+1} + q_{r-1} and checks it
against q_{r+1} + q_r / a_{r+2}. ``psi``, ``convergent_distance``, the
dichotomy and the interleave certificates read their reciprocals (and the
remainders, as their inverses) from it, so a corrupted tail must trip each of
them; a path that used one closed form alone, or |q x - p|, would not notice.
The remainder |q_n x - p_n| lives on here as the reference of a property test.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psidiff import (CFExpansion, check_dichotomy, cli, convergent_distance, convergents,
                     parse_number, psi, scan_dichotomy, scan_interleave_gap)
from psidiff.errors import FormMismatchError

from test_convergent_source import expansions
from test_one_merged_walk import corrupt_tail

# q = 1, 1, 2, 3, 5, 8, 13, 21, 55; tails a_8, a_10, ... are the period rotated by 1,
# so with that rotation corrupted the brackets from r = 6 (q_6 = 13) mismatch
ALPHA = CFExpansion(0, (1,) * 6, (1, 2))
SQRT2 = parse_number("surd:(0+sqrt(2))/1")

CORRUPTED = {
    "psi": lambda: psi(ALPHA, 13),
    "convergent_distance": lambda: convergent_distance(ALPHA, 6),
    "check_dichotomy": lambda: check_dichotomy(ALPHA, SQRT2, 7, 3),  # a record when intact
    "check_dichotomy_eta": lambda: check_dichotomy(SQRT2, ALPHA, 6, 9),
    "scan_dichotomy": lambda: scan_dichotomy(ALPHA, SQRT2, 12),
    "scan_interleave_gap": lambda: scan_interleave_gap(ALPHA, SQRT2, 12),
}


@pytest.mark.parametrize("name", sorted(CORRUPTED))
def test_corrupted_tail_is_caught(name, monkeypatch):
    CORRUPTED[name]()
    corrupt_tail(monkeypatch, (1, 2), 1)
    with pytest.raises(FormMismatchError):
        CORRUPTED[name]()


def test_brackets_before_the_corruption_still_evaluate(monkeypatch):
    corrupt_tail(monkeypatch, (1, 2), 1)
    assert psi(ALPHA, 12).q == 8
    assert convergent_distance(ALPHA, 5) == psi(ALPHA, 8).value


def test_cli_psi_reports_form_mismatch(monkeypatch, capsys):
    corrupt_tail(monkeypatch, (1, 2), 1)
    assert cli.main(["psi", "--number", "cf:[0;1,1,1,1,1,1,(1,2)]", "--t", "13"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "form_mismatch"


@settings(max_examples=150, deadline=None)
@given(expansions(rational=False), st.integers(0, 60))
def test_convergent_distance_is_the_remainder(cf, n):
    x, c = cf.value(), convergents(cf, n)[n]
    assert convergent_distance(cf, n) == abs(c.q * x - c.p)
