"""Each rendered value is floored once, and d(t) reads its parts' floors.

A ``QuadExt`` keeps (m, floor(m*x)) of its last ``_scaled_floor`` and renders at
m = 2*10**digits << GUARD_BITS, so a 1/psi carried over to the next profile row,
and every d(t) that contains it, reuse that one floor: ``DValue.render`` takes
floor(m*d) from the parts' floors, with an exact ``exact._cmp`` only when the
guard bracket straddles, and ``DValue.sign`` decides from two floors at one
scale that differ. A rational d (one field, equal irrational parts) renders from
the exact difference, ties to even, and an exact zero has the sign 0, on which
``sign_changes`` raises. The memo is
the fresh ``isqrt`` floor, and invisible to ==, hash, repr, pickle and deepcopy.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psidiff import (DValue, QuadExt, breakpoint_profile, cli, d_at, exact, parse_number,
                     render_decimal, sign_changes)
from psidiff.errors import UndecidedSignError

from test_convergent_source import valid_pairs
from test_exact_properties import RATIONALS, quadexts

SQRT2, TAU = parse_number("surd:(0+sqrt(2))/1"), parse_number("tau")
DIGITS = 12
SCALE = 2 * 10**DIGITS << exact.GUARD_BITS  # the scale every value renders at


def watch(monkeypatch):
    """(m, x) of each ``QuadExt._scaled_floor`` that missed its memo, the ``math.isqrt``
    calls, and the ``exact._cmp`` calls, each as a list that grows."""
    misses, isqrts, compares = [], [], []
    floor, isqrt, cmp = QuadExt._scaled_floor, math.isqrt, exact._cmp

    def observed_floor(x, m):
        before = x._memo
        n = floor(x, m)
        if x._memo is not before:
            misses.append((m, x))
        return n

    monkeypatch.setattr(QuadExt, "_scaled_floor", observed_floor)
    monkeypatch.setattr(math, "isqrt", lambda n: isqrts.append(n) or isqrt(n))
    monkeypatch.setattr(exact, "_cmp", lambda *args: compares.append(args) or cmp(*args))
    return misses, isqrts, compares


def straddles(d: DValue) -> bool:
    """Whether floor(M*b) - floor(M*a) leaves floor(M*d) >> GUARD_BITS open, M = SCALE."""
    k = d.inv_psi_beta._memo[1] - d.inv_psi_alpha._memo[1]
    return (k - 1) >> exact.GUARD_BITS != k >> exact.GUARD_BITS


@pytest.mark.parametrize("alpha, beta, bound", [
    (SQRT2, TAU, 985),  # two fields
    (SQRT2, parse_number("surd:(1+sqrt(2))/3"), 1136689),  # one field, every d irrational
])
def test_one_floor_per_value(alpha, beta, bound, monkeypatch):
    """The three columns as ``profile --output json`` renders them, then ``sign_changes``."""
    profile = breakpoint_profile(alpha, beta, 1, bound)
    assert len(profile.entries) == 20
    misses, isqrts, compares = watch(monkeypatch)
    for entry in profile.entries:
        render_decimal(entry.inv_psi_alpha, DIGITS)
        render_decimal(entry.inv_psi_beta, DIGITS)
        held = len(misses), len(compares)
        entry.d.render(DIGITS)
        assert len(misses) == held[0]
        assert len(compares) - held[1] == straddles(entry.d)
    values = {id(x): x for e in profile.entries for x in (e.inv_psi_alpha, e.inv_psi_beta)}
    assert sorted(id(x) for _, x in misses) == sorted(values)  # one miss per distinct 1/psi
    assert {m for m, _ in misses} == {SCALE} and len(isqrts) == len(misses)
    held = len(misses), len(compares)
    sign_changes(profile)
    assert len(misses) == held[0]
    ties = sum(e.inv_psi_beta._memo == e.inv_psi_alpha._memo for e in profile.entries)
    assert len(compares) - held[1] == ties == 0


@pytest.mark.parametrize("output", ["csv", "json"])
def test_cli_profile_floors_each_value_once(output, monkeypatch, capsys):
    """``profile`` floors each distinct 1/psi once at the render scale, and d never."""
    sqrt2 = "surd:(0+sqrt(2))/1"
    argv = ["profile", "--alpha", sqrt2, "--beta", "tau", "--from", "7", "--bound", str(10**100)]
    entries = breakpoint_profile(SQRT2, TAU, 7, 10**100).entries
    brackets = len({e.d.alpha_index for e in entries}) + len({e.d.beta_index for e in entries})
    misses, _, _ = watch(monkeypatch)
    assert cli.main([*argv, "--output", output]) == 0
    capsys.readouterr()
    rendered = [x for m, x in misses if m == SCALE]
    assert len(rendered) == len({id(x) for x in rendered}) == brackets
    assert set(rendered) == {x for e in entries for x in (e.inv_psi_alpha, e.inv_psi_beta)}


def fresh_floor(x: QuadExt, m: int) -> int:
    r = math.isqrt(x.B * x.B * x.D * m * m)
    return (x.A * m + (r if x.B >= 0 else -r - 1)) // x.Q


MULTIPLIERS = st.integers(1, 10**40) | st.sampled_from([1, 2, SCALE, 2 << 64])


@settings(max_examples=200, deadline=None)
@given(quadexts() | st.builds(lambda a: QuadExt(a, 0, 2), RATIONALS),
       st.lists(MULTIPLIERS, min_size=1, max_size=3), st.lists(st.integers(0, 2), max_size=12))
def test_memo_is_the_fresh_floor_and_invisible(x, pool, picks):
    """Repeated and alternating multipliers drawn from a small pool; rational x included."""
    blank = exact._make(x.A, x.B, x.Q, x.D)
    for m in [pool[i % len(pool)] for i in picks] + pool:
        assert x._scaled_floor(m) == fresh_floor(x, m)
        assert x._memo == (m, fresh_floor(x, m))
        assert x == blank and hash(x) == hash(blank) and repr(x) == repr(blank)
        assert pickle.dumps(x) == pickle.dumps(blank)
        for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert clone == x and clone._memo is None
    with pytest.raises(AttributeError):
        x._memo = None


@pytest.mark.parametrize("x", [exact.TAU, exact.SQRT5 * Fraction(3, 7) + 1,
                               QuadExt(Fraction(-5, 3), Fraction(2, 9), 11)])
def test_rational_d_renders_half_even(x):
    assert DValue(x + Fraction(1, 8), x, 0, 0).render(2) == "0.12"
    assert DValue(x - Fraction(1, 8), x, 0, 0).render(2) == "-0.12"
    zero = DValue(x * 1, x, 0, 0)
    assert zero.render(2) == "0.00"
    for part in (zero.inv_psi_beta, zero.inv_psi_alpha):
        render_decimal(part, 2)
    assert zero.inv_psi_beta._memo == zero.inv_psi_alpha._memo  # the filter cannot decide
    assert zero.sign() == 0


def test_same_field_profile_with_rational_steps():
    """cf:[0;(1,2)] vs cf:[0;2,(1,2)]: d is -1 at t = 1 and 0 at t = 2, 8, 30, ..."""
    profile = breakpoint_profile(parse_number("cf:[0;(1,2)]"),
                                 parse_number("cf:[0;2,(1,2)]"), 1, 10**6)
    texts = {}
    for entry in profile.entries:
        d = entry.d
        difference = d.inv_psi_beta - d.inv_psi_alpha
        for x in (d.inv_psi_alpha, d.inv_psi_beta):
            render_decimal(x, 3)
        assert d.render(3) == render_decimal(difference, 3)
        if difference.is_rational:
            texts[entry.t] = d.render(3)
        assert d.sign() == difference.sign()
    assert texts[1] == "-1.000" and texts[2] == texts[8] == texts[30] == "0.000"
    assert [entry.t for entry in profile.entries if entry.d.sign() == 0][:3] == [2, 8, 30]
    with pytest.raises(UndecidedSignError):  # a zero step has no strict sign to compare
        sign_changes(profile)


@settings(max_examples=150, deadline=None)
@given(valid_pairs(), st.integers(1, 10**40), st.sampled_from([None, 1, 7, 10**20, SCALE]),
       st.sampled_from([None, 1, 7, 10**20, SCALE]))
def test_sign_filter_agrees_with_compare(pair, t, m_beta, m_alpha):
    """With floors held at one scale, at two, or none, the sign is the exact compare's."""
    d = d_at(*pair, t)
    for x, m in ((d.inv_psi_beta, m_beta), (d.inv_psi_alpha, m_alpha)):
        if m is not None:
            x._scaled_floor(m)
    assert d.sign() == d.inv_psi_beta.compare(d.inv_psi_alpha)
