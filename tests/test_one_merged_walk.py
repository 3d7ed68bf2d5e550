"""Passes over the breakpoints in order read one merged walk, not the ladder.

Profiles, merged words and witness searches visit the merged denominators of
both numbers in ascending order, so each breakpoint's brackets come from one
recurrence step of the two convergent streams. With the ladder's lookups made
to raise, all three must still give the same results; a per-step ladder lookup
creeping back into any of them fails here.
"""

import pytest

from psidiff import (CFExpansion, breakpoint_profile, contfrac, find_witness, merged_word,
                     parse_number)

LADDER = ("last_convergent_at_most", "convergent_state")


def passes():
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    return {
        "profile": lambda: breakpoint_profile(sqrt2, tau, 7, 10**100),
        "word": lambda: merged_word(sqrt2, tau, 50),
        "witness": lambda: find_witness(sqrt2, tau, 10, 10**6),
    }


@pytest.mark.parametrize("name", sorted(passes()))
def test_in_order_pass_needs_no_ladder(name, monkeypatch):
    want = passes()[name]()

    def no_ladder(*args, **kwargs):
        raise AssertionError("ladder lookup inside an in-order pass")

    for attr in LADDER:
        monkeypatch.setattr(contfrac, attr, no_ladder)
    assert passes()[name]() == want
