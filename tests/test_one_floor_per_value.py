"""Each rendered value is floored once, and d(t) reads its parts' floors.

A ``QuadExt`` keeps (m, floor(m*x)) of its last floor (``exact._floor``) and renders at
m = 2*10**digits << GUARD_BITS, so a 1/psi carried over to the next profile row,
and every d(t) that contains it, reuse that one floor: ``DValue.render`` takes
floor(m*d) from the parts' floors, with an exact ``exact._cmp`` only when the
guard bracket straddles, and ``DValue.sign`` decides from two floors at one
scale that differ. A rational d (one field, equal irrational parts) renders from
the exact difference, ties to even, and an exact zero has the sign 0, on which
``sign_changes`` raises. The memo is
the fresh ``isqrt`` floor, and invisible to ==, hash, repr, pickle and deepcopy.

A ``QuadExt`` keeps its exact string and its decimal at the last ``digits`` too, so a
1/psi carried over to the next row, or a 1/xi held by several dichotomy records, is
formatted once (``exact._format_scaled``); the memoized strings are a fresh clone's.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psidiff import (DValue, QuadExt, breakpoint_profile, cli, d_at, exact, parse_number,
                     render_decimal, scan_dichotomy, scan_interleave_gap, sign_changes)
from psidiff.errors import UndecidedSignError

from test_convergent_source import valid_pairs
from test_exact_properties import RATIONALS, quadexts

SQRT2, TAU = parse_number("surd:(0+sqrt(2))/1"), parse_number("tau")
DIGITS = 12
SCALE = 2 * 10**DIGITS << exact.GUARD_BITS  # the scale every value renders at


def watch(monkeypatch):
    """(m, parts) of each ``exact._floor`` call from now on, a floor that missed its memo, the
    ``math.isqrt`` calls, and the ``exact._cmp`` calls, each as a list that grows."""
    misses, isqrts, compares = [], [], []
    floor, isqrt, cmp = exact._floor, math.isqrt, exact._cmp

    def observed_floor(A, B, Q, D, m):
        misses.append((m, (A, B, Q, D)))
        return floor(A, B, Q, D, m)

    monkeypatch.setattr(exact, "_floor", observed_floor)
    monkeypatch.setattr(math, "isqrt", lambda n: isqrts.append(n) or isqrt(n))
    monkeypatch.setattr(exact, "_cmp", lambda *args: compares.append(args) or cmp(*args))
    return misses, isqrts, compares


def parts(x: QuadExt) -> tuple[int, int, int, int]:
    return x.A, x.B, x.Q, x.D


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
    roots = exact._root.cache_info().misses
    for entry in profile.entries:
        render_decimal(entry.inv_psi_alpha, DIGITS)
        render_decimal(entry.inv_psi_beta, DIGITS)
        held = len(misses), len(compares)
        entry.d.render(DIGITS)
        assert len(misses) == held[0]
        assert len(compares) - held[1] == straddles(entry.d)
    values = {id(x): x for e in profile.entries for x in (e.inv_psi_alpha, e.inv_psi_beta)}
    assert len(misses) == len(values)  # one miss per distinct 1/psi
    assert {p for _, p in misses} == {parts(x) for x in values.values()}
    assert {m for m, _ in misses} == {SCALE}
    # no isqrt per value: a floor multiplies by a cached root, and an isqrt only builds one
    assert len(isqrts) == exact._root.cache_info().misses - roots < len(misses)
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
    rendered = [p for m, p in misses if m == SCALE]
    assert len(rendered) == len(set(rendered)) == brackets
    assert set(rendered) == {parts(x) for e in entries for x in (e.inv_psi_alpha, e.inv_psi_beta)}


def watch_formats(monkeypatch) -> list:
    """(n, digits) of each ``exact._format_scaled`` call from now on."""
    calls, format_scaled = [], exact._format_scaled
    monkeypatch.setattr(exact, "_format_scaled",
                        lambda n, digits: calls.append((n, digits)) or format_scaled(n, digits))
    return calls


@pytest.mark.parametrize("output", ["csv", "json"])
def test_cli_profile_renders_each_value_once_per_column(output, monkeypatch, capsys):
    """A 1/psi carried over to the next row keeps the string it rendered: ``profile`` formats
    each distinct 1/psi once in its column, and each row's d once."""
    argv = ["profile", "--alpha", "surd:(0+sqrt(2))/1", "--beta", "tau", "--from", "7",
            "--bound", str(10**100), "--output", output]
    entries = breakpoint_profile(SQRT2, TAU, 7, 10**100).entries
    columns = [{e.inv_psi_alpha for e in entries}, {e.inv_psi_beta for e in entries}]
    calls = watch_formats(monkeypatch)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert {digits for _, digits in calls} == {DIGITS}
    assert len(calls) == len(columns[0]) + len(columns[1]) + len(entries) < 3 * len(entries)


def test_cli_lemmas_formats_each_remainder_once(monkeypatch, capsys):
    """A 1/xi held by several dichotomy records keeps its strings: ``lemmas`` formats each
    distinct xi object as often as one fresh ``str`` and one fresh decimal of it do."""
    depth = 200
    records = scan_dichotomy(SQRT2, TAU, depth)
    values = {id(x): x for r in records for x in (r.xi_prev, r.xi, r.eta)}
    assert len(values) < 3 * len(records)  # neighbouring records share an xi
    calls = watch_formats(monkeypatch)
    for cert in scan_interleave_gap(SQRT2, TAU, depth):
        cert.to_json(DIGITS)
    for x in values.values():
        clone = pickle.loads(pickle.dumps(x))
        str(clone), render_decimal(clone, DIGITS)
    once = len(calls)
    calls.clear()
    argv = ["lemmas", "--alpha", "surd:(0+sqrt(2))/1", "--beta", "tau", "--max-depth", str(depth)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == once


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


# radicands past exact._STR_BITS bits, each its own field's radicand as it stands
WIDE_RADICANDS = (2**2048 + 1, 10**650 + 3)
WIDE = st.integers(1, 10**6) | st.integers(2**exact._STR_BITS, 2**(exact._STR_BITS + 64))


@st.composite
def wide_quadexts(draw):
    """(A + B*sqrt(D))/Q with each of A, B, Q and D small or past ``exact._STR_BITS`` bits."""
    A, B = (draw(WIDE) * draw(st.sampled_from([-1, 0, 1])) for _ in range(2))
    Q = draw(WIDE)
    return QuadExt(Fraction(A, Q), Fraction(B, Q), draw(st.sampled_from((2, 5) + WIDE_RADICANDS)))


STEPS = st.lists(st.tuples(st.just("floor"), MULTIPLIERS) | st.tuples(st.just("str"), st.none())
                 | st.tuples(st.just("render"), st.integers(0, 40)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(quadexts() | wide_quadexts(), STEPS)
def test_memoized_strings_equal_a_fresh_clones(x, steps):
    """``str(x)`` and ``render_decimal(x, digits)`` equal a fresh pickle clone's after any mix
    of renders at other digits and floors at other scales, and the memo stays invisible."""
    blank = exact._make(x.A, x.B, x.Q, x.D)
    for kind, arg in steps + [("str", None), ("render", 12), ("floor", 3), ("render", 12)]:
        fresh = pickle.loads(pickle.dumps(x))
        if kind == "floor":
            assert x._scaled_floor(arg) == fresh_floor(x, arg)
        elif kind == "str":
            assert str(x) == str(fresh) == x._texts[0]
        else:
            assert render_decimal(x, arg) == render_decimal(fresh, arg) == x._texts[2]
            assert x._texts[1] == arg
        assert x == blank and hash(x) == hash(blank) and repr(x) == repr(blank)
        assert pickle.dumps(x) == pickle.dumps(blank)
        for clone in (copy.copy(x), copy.deepcopy(x)):
            assert clone == x and clone._texts == (None, None, None)
    with pytest.raises(AttributeError):
        x._texts = None


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
