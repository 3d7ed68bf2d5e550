"""The convergent walk runs on integers, and the dichotomy merge orders by integer brackets.

``contfrac.convergent_stream`` yields (n, p_n, q_n) as plain ints, and ``imf._walk``
carries the bracket (r, q_{r-1}, q_r, q_{r+1}, alpha_{r+1}, alpha_{r+2}): recurrence
integers and two tails, read in order off the ladder by one ``contfrac.tails`` per walk.
So a pass over the breakpoints builds no ``Convergent`` record and calls no
``contfrac.tail``. In ``theorems.scan_dichotomy`` each 1/xi_n lies strictly inside
(q_{n+1}, q_{n+1} + q_n), as a_{n+1} < alpha_{n+1} < a_{n+1} + 1; the merge orders two
reciprocals by these brackets when they part, and by the exact ``<`` only when they overlap.
"""

from psidiff import (QuadExt, breakpoint_profile, contfrac, imf, parse_number, scan_dichotomy,
                     theorems)
from psidiff.numspec import TAU_CF

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


def test_remainders_lie_inside_their_integer_brackets():
    for cf in (SQRT2, TAU_CF, parse_number("cf:[2;1,(3,1,7)]")):
        qs = [c.q for c in contfrac.convergents(cf, 41)]
        remainders = imf._inv_xis(cf, 0, 40)
        assert [(lo, hi) for lo, hi, _ in remainders] == [
            (q1, q1 + q) for q, q1 in zip(qs, qs[1:])]
        assert all(lo < x < hi for lo, hi, x in remainders)


def test_exact_order_runs_only_on_overlapping_brackets(monkeypatch):
    """sqrt2 vs tau to depth 10: 27 orders in the merge, 14 of them with overlapping brackets.
    The records equal those of a merge that orders every pair exactly."""
    orders, overlaps, exact = [], [], []
    below, lt = theorems._below, QuadExt.__lt__

    def counted(x, y):
        orders.append((x, y))
        if x[0] < y[1] and y[0] < x[1]:
            overlaps.append((x[2], y[2]))
        return below(x, y)

    monkeypatch.setattr(theorems, "_below", counted)
    monkeypatch.setattr(QuadExt, "__lt__", lambda x, y: exact.append((x, y)) or lt(x, y))
    records = scan_dichotomy(SQRT2, TAU_CF, 10)
    assert (len(orders), len(overlaps)) == (27, 14)
    assert exact == overlaps
    monkeypatch.setattr(theorems, "_below", lambda x, y: x[2] < y[2])
    assert scan_dichotomy(SQRT2, TAU_CF, 10) == records
    assert len(exact) == len(overlaps) + len(orders)  # the exact merge ordered every pair
