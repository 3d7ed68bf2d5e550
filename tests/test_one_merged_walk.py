"""Passes over the breakpoints in order read one merged walk, not the ladder.

Profiles, merged words, witness searches and the lemma scans visit the
convergents of both numbers in ascending order, so each bracket comes from one
recurrence step of the two convergent streams. With the ladder's lookups made
to raise, all of them must still give the same results; a per-step ladder
lookup creeping back into any of them fails here.

Along the walk, 1/psi of a number is computed once per bracket it holds, not
once per breakpoint: at a breakpoint where only the other number steps, its
value is carried over. Every new bracket is still cross-checked through both
closed forms, which a corrupted tail must trip. Rendering a profile likewise
turns each carried-over 1/psi into a decimal once, not once per row.
"""

from fractions import Fraction

import pytest

from psidiff import (CFExpansion, breakpoint_profile, cli, construct_optimal, contfrac,
                     find_witness, imf, merged_word, parse_number, scan_dichotomy,
                     scan_interleave_gap, scan_lemma_conseq, scan_lemma_conseq1,
                     theorems, verify_near_optimality)
from psidiff.errors import FormMismatchError

LADDER = ("last_convergent_at_most", "convergent_state")


def passes():
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    return {
        "profile": lambda: breakpoint_profile(sqrt2, tau, 7, 10**100),
        "word": lambda: merged_word(sqrt2, tau, 50),
        "witness": lambda: find_witness(sqrt2, tau, 10, 10**6),
        "conseq": lambda: scan_lemma_conseq(sqrt2, tau, 60),
        "conseq1": lambda: scan_lemma_conseq1(sqrt2, tau, 60),
        "interleave_gap": lambda: scan_interleave_gap(sqrt2, tau, 60),
        "dichotomy": lambda: scan_dichotomy(sqrt2, tau, 60),
    }


@pytest.mark.parametrize("name", sorted(passes()))
def test_in_order_pass_needs_no_ladder(name, monkeypatch):
    want = passes()[name]()

    def no_ladder(*args, **kwargs):
        raise AssertionError("ladder lookup inside an in-order pass")

    for attr in LADDER:
        monkeypatch.setattr(contfrac, attr, no_ladder)
    assert passes()[name]() == want


def test_one_inv_psi_per_bracket(monkeypatch):
    """The profile computes 1/psi once per distinct bracket of either number in range."""
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    t_min, t_max = 7, 10**100
    real, calls = imf._inv_psi_at, []

    def counting(cf, t, bracket):
        calls.append((cf, bracket[1].index))
        return real(cf, t, bracket)

    monkeypatch.setattr(imf, "_inv_psi_at", counting)
    breakpoint_profile(sqrt2, tau, t_min, t_max)
    # q_r increases strictly from r = 1, so the brackets met in [t_min, t_max] are
    # those of the indices r(t_min) .. r(t_max), r(t) the last index with q_r <= t
    want = {(x, r) for x in (sqrt2, tau)
            for r in range(contfrac.last_convergent_at_most(x, t_min)[0],
                           contfrac.last_convergent_at_most(x, t_max)[0] + 1)}
    assert len(calls) == len(want)
    assert set(calls) == want


def test_dichotomy_scan_evaluates_each_remainder_once(monkeypatch):
    """The scan reads 1/xi_0 .. 1/xi_depth of each number once and never calls check_dichotomy."""
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    depth, real, calls = 200, imf._inv_psi_at, []

    def counting(cf, t, bracket):
        calls.append((cf, bracket[1].index))
        return real(cf, t, bracket)

    def no_check(*args, **kwargs):
        raise AssertionError("check_dichotomy inside the scan")

    monkeypatch.setattr(imf, "_inv_psi_at", counting)
    monkeypatch.setattr(theorems, "check_dichotomy", no_check)
    assert scan_dichotomy(tau, sqrt2, depth)
    assert len(calls) <= 2 * (depth + 1)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("output", ["csv", "json"])
def test_one_render_per_bracket(output, monkeypatch, capsys):
    """A profile renders each distinct 1/psi once, plus d once per row."""
    sqrt2 = "surd:(0+sqrt(2))/1"
    argv = ["profile", "--alpha", sqrt2, "--beta", "tau", "--from", "7", "--bound", str(10**100)]
    entries = breakpoint_profile(parse_number(sqrt2), parse_number("tau"), 7, 10**100).entries
    brackets = len({e.d.alpha_index for e in entries}) + len({e.d.beta_index for e in entries})
    real, calls = imf.render_decimal, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(imf, "render_decimal", counting)
    assert cli.main([*argv, "--output", output]) == 0
    capsys.readouterr()
    assert len(calls) == brackets + len(entries)


def corrupt_tail(monkeypatch, period, offset):
    """Shift the tail of one rotation of a period by 1, so the closed forms disagree there."""
    real = contfrac._period_tail

    def corrupted(p, o):
        value = real(p, o)
        return value + 1 if (p, o) == (period, offset) else value

    monkeypatch.setattr(contfrac, "_period_tail", corrupted)


def test_cross_check_runs_on_a_bracket_that_steps_alone(monkeypatch):
    """Tails a_8, a_10, ... of alpha are corrupted: its brackets from r = 6 (q_6 = 13) mismatch.

    sqrt2 steps alone at 12 and alpha alone at 13, so the first mismatch comes at
    a breakpoint where alpha's value is new and sqrt2's is carried over.
    """
    alpha = CFExpansion(0, (1,) * 6, (1, 2))  # q = 1, 1, 2, 3, 5, 8, 13, 21, 55
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")  # q = 1, 2, 5, 12, 29
    corrupt_tail(monkeypatch, (1, 2), 1)
    assert [e.t for e in breakpoint_profile(alpha, sqrt2, 9, 12).entries] == [9, 12]
    with pytest.raises(FormMismatchError, match="t=13"):
        breakpoint_profile(alpha, sqrt2, 9, 13)


def test_witness_search_cross_checks(monkeypatch):
    alpha = CFExpansion(0, (1,) * 6, (1, 2))
    tau = CFExpansion(1, (), (1,))
    assert find_witness(alpha, tau, 9, 10**6).t == 21  # past the first corrupted bracket
    corrupt_tail(monkeypatch, (1, 2), 1)
    with pytest.raises(FormMismatchError, match="t=13"):
        find_witness(alpha, tau, 9, 10**6)


def test_near_optimality_check_cross_checks(monkeypatch):
    pair = construct_optimal(Fraction(6, 100))
    corrupt_tail(monkeypatch, pair.theta.period, 0)
    with pytest.raises(FormMismatchError):
        verify_near_optimality(pair, 10**6, 10**12)
