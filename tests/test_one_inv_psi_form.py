"""Every 1/psi and every convergent remainder comes from one cross-checked closed form.

``imf._inv_psi_at`` evaluates 1/xi_r = q_r a_{r+1} + q_{r-1} and checks it
against q_{r+1} + q_r / a_{r+2} as one integer identity on the tails' (A, B, Q),
with no ``QuadExt`` arithmetic: the value is its one ``exact._make``. Its bracket
(r, q_{r-1}, q_r, q_{r+1}, a_{r+1}, a_{r+2}) is plain integers and the two tails. A property
holds that identity to the ``QuadExt`` comparison of the two forms. ``psi``,
``convergent_distance``, the dichotomy and the interleave certificates read
their reciprocals (and the remainders, as their inverses) from it, so a
corrupted tail must trip each of them; a path that used one closed form alone,
or |q x - p|, would not notice. The remainder |q_n x - p_n| lives on here as
the reference of a property test.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psidiff import (CFExpansion, breakpoint_profile, check_dichotomy, cli, contfrac,
                     convergent_distance, convergents, exact, imf, parse_number, psi,
                     scan_dichotomy, scan_interleave_gap)
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


def makes_per_evaluation(monkeypatch):
    """The ``exact._make`` calls in each ``imf._inv_psi_at`` call, in order, and in all."""
    counts, makes = [], [0]
    evaluate, make = imf._inv_psi_at, exact._make

    def counted_make(*args):
        makes[0] += 1
        return make(*args)

    def counted_evaluate(*args):
        before = makes[0]
        try:
            return evaluate(*args)
        finally:
            counts.append(makes[0] - before)

    monkeypatch.setattr(exact, "_make", counted_make)
    monkeypatch.setattr(imf, "_inv_psi_at", counted_evaluate)
    return counts, makes


def test_one_make_per_evaluation(monkeypatch):
    tau = parse_number("tau")
    breakpoint_profile(SQRT2, tau, 1, 985)  # the ladders build their tails once, here
    counts, makes = makes_per_evaluation(monkeypatch)
    psi(SQRT2, 985)
    assert counts == [1]
    counts.clear()
    makes[0] = 0
    profile = breakpoint_profile(SQRT2, tau, 1, 985)
    assert len(profile.entries) == 20
    assert counts == [1] * makes[0]  # nothing else in the walk builds a QuadExt either


SHIFTS = st.just((0, 0, 0)) | st.tuples(*[st.sampled_from((0, 1, -1, 2, -3))] * 3)
TAIL_CHANGES = st.sampled_from([(1, 0), (1, 0), (1, 1), (1, -1), (2, 0), (Fraction(1, 2), 1)])


@settings(max_examples=300, deadline=None)
@given(expansions(rational=False), st.integers(1, 30), SHIFTS, TAIL_CHANGES, TAIL_CHANGES)
def test_integer_identity_is_the_quadext_identity(cf, r, shifts, change1, change2):
    """On perturbed (q_{r-1}, q_r, q_{r+1}) and tails a_{r+1}, a_{r+2} (each t -> m*t + k),
    the integer identity holds iff q_r a_{r+1} + q_{r-1} == q_{r+1} + q_r / a_{r+2}, and
    then gives the first form.

    True tails keep it under shifts with shift_{r+1} = a_{r+1} shift_r + shift_{r-1}, and
    a_{r+2} doubled keeps the identity's sqrt(D) part and breaks only its rational part.
    """
    q_prev, q, q_next = (c.q + k for c, k in zip(convergents(cf, r + 1)[r - 1:], shifts))
    t1, t2 = (contfrac.tail(cf, i) * m + k for i, (m, k) in ((r + 1, change1), (r + 2, change2)))
    first = q * t1 + q_prev
    agree = first == q_next + q / t2
    with pytest.MonkeyPatch.context() as patch:
        counts, _ = makes_per_evaluation(patch)
        try:
            value = imf._inv_psi_at(q, (r, q_prev, q, q_next, t1, t2))
        except FormMismatchError:
            value = None
    assert (counts == [1]) == agree
    assert value == (first if agree else None)
