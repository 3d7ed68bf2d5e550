"""The convergent walk runs on integers, and the dichotomy merge orders by integer brackets.

``contfrac.convergent_stream`` yields (n, p_n, q_n) as plain ints, and ``imf._walk``
carries the bracket (r, q_{r-1}, q_r, q_{r+1}, alpha_{r+1}, alpha_{r+2}): recurrence
integers and two tails, read in order off the ladder by one ``contfrac.tails`` per walk.
So a pass over the breakpoints builds no ``Convergent`` record and calls no
``contfrac.tail``. In ``theorems.scan_dichotomy`` each 1/xi_n = q_n alpha_{n+1} + q_{n-1}
comes with n = q_n*floor(2**G*alpha_{n+1}) + q_{n-1}*2**G, G = ``exact.GUARD_BITS``, so that
2**G/xi_n lies strictly inside (n, n + q_n), which at G = 0 is (q_{n+1}, q_{n+1} + q_n); the
merge orders two reciprocals by one ``exact._above`` on these brackets, which reaches the exact
``exact._cmp`` only when they overlap. At any G the lemma scans give the records they give at
the default.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psidiff import (breakpoint_profile, contfrac, exact, imf, parse_number, scan_dichotomy,
                     scan_interleave_gap)
from psidiff.numspec import TAU_CF

from test_convergent_source import valid_pairs

SQRT2 = parse_number("surd:(0+sqrt(2))/1")


def test_profile_walk_builds_no_record_and_reads_no_tail(monkeypatch):
    want = breakpoint_profile(SQRT2, TAU_CF, 1, 10**100)  # the ladders are built here
    built, single, walks = [], [], []
    init, tail, tails = contfrac.Convergent.__init__, contfrac.tail, contfrac.tails
    monkeypatch.setattr(contfrac.Convergent, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    monkeypatch.setattr(contfrac, "tail", lambda *args: single.append(args) or tail(*args))
    monkeypatch.setattr(contfrac, "tails", lambda *args: walks.append(args) or tails(*args))
    assert breakpoint_profile(SQRT2, TAU_CF, 1, 10**100) == want
    assert len(want.entries) > 200
    assert built == [] and single == []
    assert [cf for cf, _ in walks] == [SQRT2, TAU_CF]  # one running read per walk


@pytest.mark.parametrize("guard_bits", [0, exact.GUARD_BITS])
def test_remainders_lie_inside_their_integer_brackets(monkeypatch, guard_bits):
    """Each bracket is q_n wide and holds 2**G/xi_n; at G = 0 it is (q_{n+1}, q_{n+1} + q_n)."""
    monkeypatch.setattr(exact, "GUARD_BITS", guard_bits)
    for cf in (SQRT2, TAU_CF, parse_number("cf:[2;1,(3,1,7)]")):
        qs = [c.q for c in contfrac.convergents(cf, 41)]
        remainders = imf._inv_xis(cf, 0, 40)
        assert [hi - lo for lo, hi, _ in remainders] == qs[:41]
        assert all(lo < x * 2**guard_bits < hi for lo, hi, x in remainders)
        if guard_bits == 0:
            assert [(lo, hi) for lo, hi, _ in remainders] == [
                (q1, q1 + q) for q, q1 in zip(qs, qs[1:])]


@pytest.mark.parametrize("guard_bits, overlapping", [(0, 14), (exact.GUARD_BITS, 0)])
def test_exact_order_runs_only_on_overlapping_brackets(monkeypatch, guard_bits, overlapping):
    """sqrt2 vs tau to depth 10: 27 orders in the merge, each one ``exact._above``, 14 of them
    with overlapping brackets at G = 0 and none at the default, and the exact ``_cmp`` runs on
    exactly those. The records equal those of a merge that orders every pair exactly."""
    monkeypatch.setattr(exact, "GUARD_BITS", guard_bits)
    orders, overlaps, cmps, exact_orders, all_exact = [], [], [], [], []
    above, cmp = exact._above, exact._cmp

    def counted(y, x, m=1, k=0):
        orders.append((y, x, m, k))
        if x[0] < y[1] and y[0] < x[1]:
            overlaps.append((y[2], x[2]))
        before = len(cmps)
        verdict = above(y, x, m, k)
        exact_orders.extend(cmps[before:])  # the _cmp this order reached, not the branch's
        return verdict

    monkeypatch.setattr(exact, "_above", counted)
    monkeypatch.setattr(exact, "_cmp",
                        lambda y, x, m=1, k=0: cmps.append((y, x)) or cmp(y, x, m, k))
    records = scan_dichotomy(SQRT2, TAU_CF, 10)
    assert (len(orders), len(overlaps)) == (27, overlapping)
    assert {(m, k) for _, _, m, k in orders} == {(1, 0)}
    assert exact_orders == overlaps
    monkeypatch.setattr(exact, "_above", lambda y, x, m=1, k=0:
                        all_exact.append((y[2], x[2])) or cmp(y[2], x[2], m, k) > 0)
    assert scan_dichotomy(SQRT2, TAU_CF, 10) == records
    assert all_exact == [(y[2], x[2]) for y, x, _, _ in orders]  # every pair ordered exactly


ONES, TWOS = parse_number("cf:[0;(1)]"), parse_number("cf:[0;(2)]")  # a_1 = 1: q_0 = q_1 = 1


@settings(max_examples=40, deadline=None)
@given(valid_pairs(), st.integers(0, 60), st.sampled_from((0, 1, 2, 8)))
@example((ONES, TWOS), 0, 0)
@example((TWOS, ONES), 0, 0)
@example((ONES, TWOS), 1, 0)
@example((TWOS, ONES), 1, 0)
def test_lemma_scans_do_not_depend_on_the_bracket_scale(pair, depth, guard_bits):
    """At G = 0, 1, 2 and 8 the brackets overlap far more often than at the default, so the
    ``_cmp`` behind the merge's, the gap inequality's and the gap point's ``exact._above`` and
    the branch's exact sign all run; the records are the default's."""
    want = scan_dichotomy(*pair, depth), scan_interleave_gap(*pair, depth)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "GUARD_BITS", guard_bits)
        assert (scan_dichotomy(*pair, depth), scan_interleave_gap(*pair, depth)) == want
