"""Each expansion has one table of convergent rows, read by index.

``imf._table`` keeps, for the few expansions read by index last and to at most
``imf._ROWS`` rows, the walk's brackets from index 0 and each 1/xi made once beside them by
``imf._inv_psi_at``. The four lemma scans read it by index and extend it from its last row;
the walks from t (profiles, merged words, witness searches, the near-optimality check) are
seeded by the ladder and read no rows. Outputs, errors included, do not depend on what the
table holds.
"""

import itertools
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psidiff import (CFExpansion, breakpoint_profile, construct_optimal, contfrac,
                     convergent_distance, d_at, find_witness, imf, inv_psi, merged_word,
                     parse_number, psi, scan_dichotomy, scan_interleave_gap, scan_lemma_conseq,
                     scan_lemma_conseq1, verify_near_optimality)

from conftest import empty_table
from test_convergent_source import valid_pairs

SCANS = (scan_lemma_conseq, scan_lemma_conseq1, scan_interleave_gap, scan_dichotomy)
ONES, TWOS = parse_number("cf:[0;(1)]"), parse_number("cf:[0;(2)]")  # a_1 = 1: q_0 = q_1 = 1


@settings(max_examples=40, deadline=None)
@given(valid_pairs(), st.integers(0, 60))
@example((ONES, TWOS), 0)
@example((TWOS, ONES), 1)
def test_each_value_is_made_once_per_number_and_index(pair, depth):
    """Across the four lemma scans of one pair, 1/psi of a number at an index is made once;
    the number is known by its ladder's tails, which every walk's brackets hold."""
    empty_table()
    number = {id(t): i for i, cf in enumerate(pair) for t in contfrac._ladder(cf).tails}
    real, calls = imf._inv_psi_at, []

    def counting(t, bracket):
        calls.append((number[id(bracket[4])], bracket[0]))
        return real(t, bracket)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(imf, "_inv_psi_at", counting)
        for scan in SCANS:
            scan(*pair, depth)
    assert len(set(calls)) == len(calls)


@settings(max_examples=30, deadline=None)
@given(valid_pairs(), st.integers(0, 60))
def test_outputs_do_not_depend_on_the_table(pair, depth):
    warm = [scan(*pair, depth) for scan in SCANS]
    cold = []
    for scan in SCANS:
        empty_table()
        cold.append(scan(*pair, depth))
    assert warm == cold


class Unreadable(dict):
    """A row table on which any read or write raises."""

    def _refuse(self, *args):
        raise AssertionError("a walk from t touched the row table")

    get = pop = keys = values = items = __getitem__ = __setitem__ = _refuse
    __contains__ = __iter__ = __len__ = _refuse


def test_walks_from_t_read_no_rows():
    """Each walk from t returns, with both numbers' rows and values filled by a scan and the
    table made unreadable, what it returns on an empty table."""
    sqrt2, tau = parse_number("surd:(0+sqrt(2))/1"), CFExpansion(1, (), (1,))
    optimal = construct_optimal(Fraction(6, 100))
    walks = [
        ((sqrt2, tau), lambda: breakpoint_profile(sqrt2, tau, 1, 10**40)),
        ((sqrt2, tau), lambda: find_witness(sqrt2, tau, 4, 10**6)),
        ((sqrt2, tau), lambda: merged_word(sqrt2, tau, 60)),
        ((sqrt2, tau), lambda: d_at(sqrt2, tau, 10**30)),
        ((contfrac.TAU_CF, optimal.theta), lambda: verify_near_optimality(optimal, 10**6, 10**40)),
    ]
    for pair, walk in walks:
        empty_table()
        cold = walk()
        scan_dichotomy(*pair, 200)  # every row and value to index 200, past 10**40
        assert all(rows[-1][2] > 10**40 for rows, _ in imf._held.values())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(imf, "_held", Unreadable())
            assert walk() == cold


def test_near_optimality_does_not_depend_on_the_table():
    """The near-optimality check neither reads the rows tau and theta hold nor adds to them."""
    pair = construct_optimal(Fraction(6, 100))
    cold = verify_near_optimality(pair, 10**6, 10**40)
    assert not imf._held
    scan_lemma_conseq(contfrac.TAU_CF, pair.theta, 200)  # rows past 10**40, and no values
    held = {ladder: (rows, dict(values)) for ladder, (rows, values) in imf._held.items()}
    assert len(held) == 2 and all(rows[-1][2] > 10**40 for rows, _ in held.values())
    assert verify_near_optimality(pair, 10**6, 10**40) == cold
    assert {ladder: (rows, dict(values)) for ladder, (rows, values) in imf._held.items()} == held


def test_at_most_the_bound_hold_rows():
    numbers = [parse_number(f"surd:(0+sqrt({d}))/1") for d in (2, 3, 5, 6, 7, 8, 10)]
    for x, y in itertools.pairwise(numbers):
        scan_lemma_conseq(x, y, 20)
    held = [x for x in numbers if contfrac._ladder(x) in imf._held]
    assert len(held) == imf._HELD
    assert held == numbers[-imf._HELD:]
    assert len(imf._held) == imf._HELD


def test_a_read_far_past_the_rows_keeps_none():
    """A single value far past the rows comes off a walk seeded there, as before the table: it
    keeps no rows, so a deep index costs its own entry, not a table of every row below it, and
    it equals the value the rows give."""
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    far = convergent_distance(sqrt2, 3000)
    assert not imf._held
    assert imf._inv_xis(sqrt2, 0, 3000)[-1][2].inverse() == far
    assert convergent_distance(sqrt2, 3000) == far


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(0, 40), st.integers(0, 40))
def test_rows_extended_from_the_last_are_a_fresh_walk(pair, first, then):
    """Rows made in two reads, the second walking on from the first's last row, are the
    brackets of one walk from index 0."""
    cf = pair[0]
    fresh = list(itertools.islice(imf._walk(cf, 0, contfrac.convergent_state(cf, 0)),
                                  first + then + 1))
    imf._table(cf, first)
    assert list(imf._table(cf, first + then)[0]) == fresh


def test_invalid_input_is_refused_with_or_without_rows():
    """A negative index and a t below 1 raise what they raise on a number with no rows."""
    sqrt2, sqrt3 = (parse_number(f"surd:(0+sqrt({d}))/1") for d in (2, 3))
    calls = [lambda: convergent_distance(sqrt2, -1), lambda: psi(sqrt2, 0),
             lambda: inv_psi(sqrt2, 0), lambda: d_at(sqrt2, sqrt3, 0)]
    errors = []
    for call in calls:
        with pytest.raises(ValueError) as cold:
            call()
        errors.append(str(cold.value))
    scan_dichotomy(sqrt2, sqrt3, 20)
    assert len(imf._held) == 2
    for call, error in zip(calls, errors):
        with pytest.raises(ValueError, match=re.escape(error)):
            call()


def test_a_deep_read_keeps_no_rows():
    """A read by index to ``imf._ROWS`` or past it walks its rows and keeps none, and no value
    past the held rows, so no table holds more than ``imf._ROWS`` rows or values, whatever depth
    a call reached."""
    sqrt2, sqrt3 = (parse_number(f"surd:(0+sqrt({d}))/1") for d in (2, 3))
    scan_lemma_conseq(sqrt2, sqrt3, 40)
    held = dict(imf._held)
    for scan in SCANS:
        scan(sqrt2, sqrt3, imf._ROWS)
    assert imf._held == held
    assert max(len(rows) for rows, _ in imf._held.values()) == 42
    assert all(max(values, default=0) < len(rows) for rows, values in imf._held.values())


def test_threads_share_the_table_safely():
    """More threads than cores scan pairs and profile them at once, switching every
    microsecond: each gets the outputs of a lone call, none raises, and at most ``_HELD``
    expansions keep rows after."""
    numbers = [parse_number(f"surd:(0+sqrt({d}))/1") for d in (2, 3, 5, 6, 7, 10)]
    pairs = list(itertools.pairwise(numbers))

    def work(i):
        pair = pairs[i % len(pairs)]
        return [scan(*pair, 40) for scan in SCANS] + [breakpoint_profile(*pair, 1, 10**30)]

    want = [work(i) for i in range(len(pairs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(work, i) for i in range(4 * len(pairs))]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[i % len(pairs)] for i in range(len(got))]
    assert len(imf._held) <= imf._HELD
