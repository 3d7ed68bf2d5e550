"""Each lemma call builds one table of convergent rows per number, and nothing outlives it.

``imf._table`` walks a number's brackets from a first index, seeded there by one ladder lookup,
and returns them with a reader that makes each row's 1/xi, cross-checked by
``imf._inv_psi_at``, and its integer bracket once. The lemma scans read tables from index 0,
and a single read by index is a table seeded at that index.
``theorems.lemma_scans`` builds the two tables of a pair once for all four lemma scans, and
``psidiff lemmas`` makes that one call; each public scan called alone builds its own. The
walks from t (profiles, merged words, witness searches, the near-optimality check) are
seeded by the ladder and build no table. Nothing in ``imf`` holds rows or values between
calls, so outputs, errors included, do not depend on the calls made before.
"""

import contextlib
import gc
import io
import itertools
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psidiff import (CFExpansion, breakpoint_profile, cli, construct_optimal, contfrac,
                     convergent_distance, d_at, find_witness, imf, inv_psi, lemma_scans,
                     merged_word, parse_number, psi, scan_dichotomy, scan_interleave_gap,
                     scan_lemma_conseq, scan_lemma_conseq1, verify_near_optimality)

from test_convergent_source import expansions, valid_pairs
from test_golden import COMMANDS, GOLDEN
from test_one_merged_walk import count_brackets

SCANS = (scan_lemma_conseq, scan_lemma_conseq1, scan_interleave_gap, scan_dichotomy)
ONES, TWOS = parse_number("cf:[0;(1)]"), parse_number("cf:[0;(2)]")  # a_1 = 1: q_0 = q_1 = 1
SQRT2, SQRT3 = (parse_number(f"surd:(0+sqrt({d}))/1") for d in (2, 3))


def live_readers() -> list:
    """Every reader ``imf._table`` returned that is still alive."""
    gc.collect()
    return [f for f in gc.get_objects() if getattr(f, "__qualname__", "") == "_table.<locals>.read"]


def count_evaluations(monkeypatch, *numbers) -> list[tuple[int, int]]:
    """(number, r) of each ``imf._inv_psi_at`` call from now on, the number known by its
    ladder's tails, which every walk's brackets hold."""
    number = {id(t): i for i, cf in enumerate(numbers) for t in contfrac._ladder(cf).tails}
    real, calls = imf._inv_psi_at, []

    def counting(t, bracket):
        calls.append((number[id(bracket[4])], bracket[0]))
        return real(t, bracket)

    monkeypatch.setattr(imf, "_inv_psi_at", counting)
    return calls


@settings(max_examples=40, deadline=None)
@given(valid_pairs(), st.integers(0, 60))
@example((ONES, TWOS), 0)
@example((TWOS, ONES), 1)
def test_one_call_is_the_four_scans(pair, depth):
    assert lemma_scans(*pair, depth) == tuple(scan(*pair, depth) for scan in SCANS)


@settings(max_examples=40, deadline=None)
@given(valid_pairs(), st.integers(0, 60))
@example((ONES, TWOS), 0)
@example((TWOS, ONES), 1)
def test_each_value_is_made_once_per_number_and_index(pair, depth):
    """In one ``lemma_scans`` call, 1/psi of a number at an index is made and bracketed once."""
    with pytest.MonkeyPatch.context() as patch:
        calls, brackets = count_evaluations(patch, *pair), count_brackets(patch, *pair)
        lemma_scans(*pair, depth)
    assert len(set(calls)) == len(calls)
    assert len(set(brackets)) == len(brackets) == len(calls)


LEMMA_PAIRS = [("surd:(0+sqrt(2))/1", "tau"),
               ("surd:(0+sqrt(1000001))/1", "surd:(0+sqrt(1000002))/1"),
               ("surd:(0+sqrt(2))/1", "surd:(0+sqrt(3))/1"),
               ("cf:[0;1,1,1,1,1,1,(1,2)]", "surd:(1+sqrt(3))/2")]


def run_lemmas(monkeypatch, alpha: str, beta: str, depth: int):
    """One ``psidiff lemmas`` through ``cli.main``, on numbers parsed here so that the counts
    can tell them apart: its ``check_pair`` calls and the keys of its evaluations and brackets."""
    numbers = [parse_number(alpha), parse_number(beta)]
    monkeypatch.setattr(cli, "_parse", lambda *texts: numbers)
    real, checks = imf.check_pair, []
    monkeypatch.setattr(imf, "check_pair", lambda *pair: checks.append(pair) or real(*pair))
    calls, brackets = count_evaluations(monkeypatch, *numbers), count_brackets(monkeypatch, *numbers)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["lemmas", "--alpha", alpha, "--beta", beta,
                         "--max-depth", str(depth)]) == 0
    return checks, calls, brackets


@pytest.mark.parametrize("alpha, beta", LEMMA_PAIRS)
def test_one_lemmas_call_checks_once_and_evaluates_once(monkeypatch, alpha, beta):
    """One ``lemmas`` call checks the pair once and makes and brackets each 1/psi of a number at
    an index at most once, across its four scans; separate scan calls each made their own."""
    checks, calls, brackets = run_lemmas(monkeypatch, alpha, beta, 200)
    assert len(checks) == 1
    assert calls and len(set(calls)) == len(calls)
    assert len(set(brackets)) == len(brackets) == len(calls)


def test_the_dichotomy_makes_no_value_past_its_merge(monkeypatch):
    """The dichotomy reads each 1/xi_n and 1/eta_s when its merge reaches it. Here the merge
    passes n = 1 at once, so it never compares 1/xi_0, and it ends at n > 200 after s = 198, so
    a ``lemmas`` call makes 399 of the 402 values at both numbers' indices 0 .. 200; reading
    both lists whole before the merge made all 402."""
    _, calls, _ = run_lemmas(monkeypatch, *LEMMA_PAIRS[3], 200)
    assert len(calls) == 399
    assert {(i, r) for i in (0, 1) for r in range(201)} - set(calls) == {(0, 0), (1, 199), (1, 200)}


def lemmas_bytes(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(list(argv)) == 0
    return buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize("first, then", [("lemmas_preperiod", "lemmas"),
                                         ("lemmas", "lemmas_preperiod"),
                                         ("lemmas_tie", "lemmas_same_field"),
                                         ("lemmas_same_field", "lemmas_tie")])
def test_output_does_not_depend_on_call_order(first, then):
    """Two ``lemmas`` calls in one process, in either order, each print their golden bytes."""
    for name in (first, then):
        assert lemmas_bytes(COMMANDS[name]) == (GOLDEN / f"{name}.out").read_bytes()


@settings(max_examples=30, deadline=None)
@given(valid_pairs(), st.integers(0, 60))
def test_outputs_do_not_depend_on_the_table(pair, depth):
    """The four scans give the same lists in either order: none reads what another made."""
    forward = [scan(*pair, depth) for scan in SCANS]
    assert [scan(*pair, depth) for scan in reversed(SCANS)][::-1] == forward


def no_table(*args):
    raise AssertionError("a walk from t built a row table")


def test_walks_from_t_read_no_rows(monkeypatch):
    """Each walk from t returns, with ``imf._table`` made to raise, what it returned before
    the lemma scans of its pair, to index 200 (past 10**40), ran."""
    tau = CFExpansion(1, (), (1,))
    optimal = construct_optimal(Fraction(6, 100))
    walks = [
        ((SQRT2, tau), lambda: breakpoint_profile(SQRT2, tau, 1, 10**40)),
        ((SQRT2, tau), lambda: find_witness(SQRT2, tau, 4, 10**6)),
        ((SQRT2, tau), lambda: merged_word(SQRT2, tau, 60)),
        ((SQRT2, tau), lambda: d_at(SQRT2, tau, 10**30)),
        ((contfrac.TAU_CF, optimal.theta), lambda: verify_near_optimality(optimal, 10**6, 10**40)),
    ]
    colds = [walk() for _, walk in walks]
    for pair, _ in walks:
        lemma_scans(*pair, 200)
    monkeypatch.setattr(imf, "_table", no_table)
    assert [walk() for _, walk in walks] == colds


def test_near_optimality_does_not_depend_on_the_table(monkeypatch):
    """The near-optimality check builds no row table, and returns the same after the lemma
    scans of tau and theta to index 200, whose rows pass 10**40, as before them."""
    pair = construct_optimal(Fraction(6, 100))
    cold = verify_near_optimality(pair, 10**6, 10**40)
    rows, _ = imf._table(pair.theta, 0, 202)
    assert rows[-1][2] > 10**40
    lemma_scans(contfrac.TAU_CF, pair.theta, 200)
    monkeypatch.setattr(imf, "_table", no_table)
    assert verify_near_optimality(pair, 10**6, 10**40) == cold


def test_no_call_leaves_rows_held():
    """After lemma scans of many numbers, called together and apart, no reader of a row table
    is alive, and ``imf`` has no module-level container or cache that could hold rows."""
    numbers = [parse_number(f"surd:(0+sqrt({d}))/1") for d in (2, 3, 5, 6, 7, 8, 10)]
    for x, y in itertools.pairwise(numbers):
        lemma_scans(x, y, 20)
        for scan in SCANS:
            scan(x, y, 20)
    assert not live_readers()
    held = [name for name, value in vars(imf).items() if not name.startswith("__")
            and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))]
    assert held == []


def test_a_read_far_past_the_rows_keeps_none():
    """A single value far out comes off a table seeded at its index, keeping nothing, so a deep
    index costs its own entry, not a table of every row below it; it equals row 3000's value
    read off a table from index 0, and a second read gives it again."""
    far = convergent_distance(SQRT2, 3000)
    assert imf._table(SQRT2, 0, 3000)[1](3000)[2].inverse() == far
    assert imf._table(SQRT2, 3000, 3000)[1](3000)[2].inverse() == far
    assert convergent_distance(SQRT2, 3000) == far
    assert not live_readers()


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(0, 40), st.integers(0, 40))
def test_rows_are_one_walk_from_index_0(pair, first, then):
    """A table's rows are the brackets of one walk from index 0, whichever its length, and
    row ``first`` is the first row of the table seeded at that index, the first bracket of the
    walk seeded there."""
    cf = pair[0]
    fresh = list(itertools.islice(imf._walk(cf, 0, contfrac.convergent_state(cf, 0)),
                                  first + then + 1))
    assert list(imf._table(cf, 0, first + then)[0]) == fresh
    assert imf._table(cf, 0, first)[0][first] == fresh[first]
    assert imf._table(cf, first, first)[0] == (fresh[first],)
    assert next(imf._walk(cf, first, contfrac.convergent_state(cf, first))) == fresh[first]


@settings(max_examples=60, deadline=None)
@given(expansions(rational=False), st.integers(0, 60), st.integers(0, 60))
@example(ONES, 0, 0)
@example(ONES, 1, 60)
def test_a_seeded_table_is_the_table_from_index_0(cf, first, last):
    """From ``first`` on, the rows and reads of the table seeded at ``first`` equal those of
    the table from index 0, whatever the two indices."""
    first, last = sorted((first, last))
    rows, read = imf._table(cf, first, last)
    whole, read_whole = imf._table(cf, 0, last)
    assert rows == whole[first:]
    for i in range(first, last + 1):
        assert read(i) == read_whole(i)


def test_invalid_input_is_refused_with_or_without_rows():
    """A negative index, a t below 1 and a negative depth raise, after a lemma call as
    before it, what they raise in a fresh process."""
    calls = [lambda: convergent_distance(SQRT2, -1), lambda: psi(SQRT2, 0),
             lambda: inv_psi(SQRT2, 0), lambda: d_at(SQRT2, SQRT3, 0),
             lambda: lemma_scans(SQRT2, SQRT3, -1), lambda: scan_dichotomy(SQRT2, SQRT3, -1)]
    errors = []
    for call in calls:
        with pytest.raises(ValueError) as cold:
            call()
        errors.append(str(cold.value))
    lemma_scans(SQRT2, SQRT3, 20)
    for call, error in zip(calls, errors):
        with pytest.raises(ValueError, match=re.escape(error)):
            call()


def test_a_deep_read_keeps_no_rows():
    """A deep call keeps no rows, at depth 200 as at 300: once a shallow call has built the
    ladders and caches that outlive any call, a deep one leaves less than 16 KB more traced
    memory than there was before it."""
    lemma_scans(SQRT2, SQRT3, 10)
    for depth in (200, 300):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scans = lemma_scans(SQRT2, SQRT3, depth)
            assert tracemalloc.get_traced_memory()[1] - before > 2**18  # the call's own rows
            del scans
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 2**14
    assert not live_readers()


def test_threads_each_get_a_lone_calls_output():
    """More threads than cores scan pairs and profile them at once, switching every
    microsecond: each gets the outputs of a lone call, none raises, and no table outlives
    its call."""
    numbers = [parse_number(f"surd:(0+sqrt({d}))/1") for d in (2, 3, 5, 6, 7, 10)]
    pairs = list(itertools.pairwise(numbers))

    def work(i):
        pair = pairs[i % len(pairs)]
        return [lemma_scans(*pair, 40), *(scan(*pair, 40) for scan in SCANS),
                breakpoint_profile(*pair, 1, 10**30)]

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
    assert not live_readers()
