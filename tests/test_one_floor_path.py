"""One floor path per level: ``exact._floor`` for a + b*sqrt(D), ``exact._guarded`` for a sum.

``_floor`` is floor(m*(A + B*sqrt(D))/Q) in integers, one multiplication by a cached
fixed-point root up to ``exact._ROOT_BITS`` and one ``isqrt`` past it, and equals the plain
``isqrt`` floor on both sides of that cap, also within 2^-200 of an integer; every
``QuadExt`` floor and the screen of ``construct_optimal`` go through it. ``_guarded`` takes floor(m*x) of a
``Root`` or a ``DValue`` from two leaf floors at m << GUARD_BITS, and pays one exact sign
test only when the guard bits straddle an integer. Here that branch is forced, with
m*x within 2^-199 above and below an integer, and each floor is held against mpmath.
The guards read the package's source: only these kernels, the root cache ``_root``,
``squarefree_decompose``, the field test ``_over`` and ``expand_quadratic`` take an ``isqrt``, and
only ``exact`` reads ``GUARD_BITS``.
"""

import json
import math
import pathlib
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psidiff
from psidiff import DValue, QuadExt, exact
from psidiff.exact import Root

from test_exact_properties import FIELDS
from test_golden import COMMANDS, GOLDEN
from test_one_refine_loop import uses_in_package

K = 200  # bits of the dyadic approximations that put m*x next to an integer


def bracket(m: int, s: int) -> tuple[int, int]:
    """(lo, lo + 2), lo/2^K < m*(sqrt(5) + s*sqrt(2)) < (lo + 2)/2^K, from two isqrt floors."""
    five, two = math.isqrt(5 * m * m << 2 * K), math.isqrt(2 * m * m << 2 * K)
    lo = five + (two if s > 0 else -two - 1)
    return lo, lo + 2


def near_integer(m: int, s: int, J: int, above: bool) -> Fraction:
    """r with m*(r + sqrt(5) + s*sqrt(2)) in (J, J + 2^(1-K)) if above, else in (J - 2^(1-K), J)."""
    lo, hi = bracket(m, s)
    return Fraction((J << K) - (lo if above else hi), m << K)


def mp_floor(m: int, r: Fraction, s: int) -> int:
    with mpmath.workdps(150):
        x = mpmath.mpf(r.numerator) / r.denominator + mpmath.sqrt(5) + s * mpmath.sqrt(2)
        return int(mpmath.floor(m * x))


CASES = [(m, s, J, above) for m in (1, 2 * 10**12, 3**40) for s in (1, -1)
         for J in (12345, -9876) for above in (True, False)]


@pytest.mark.parametrize("m, s, J, above", CASES)
def test_root_straddle_takes_one_exact_sign(m, s, J, above, monkeypatch):
    """x = (r + sqrt(5)) + s*sqrt(2), a ``Root`` over Q(sqrt(5)), with m*x next to J."""
    r = near_integer(m, s, J, above)
    x = Root(QuadExt(r, 1, 5), s, 2)
    signs, sign = [], Root.sign
    monkeypatch.setattr(Root, "sign", lambda y: signs.append(y) or sign(y))
    n = x._scaled_floor(m)
    assert len(signs) == 1
    assert n == (J if above else J - 1) == mp_floor(m, r, s)


def count_cmp(monkeypatch) -> list:
    """The arguments of each ``exact._cmp`` call from now on, the exact test of m*d vs k."""
    calls, cmp = [], exact._cmp
    monkeypatch.setattr(exact, "_cmp", lambda *args: calls.append(args) or cmp(*args))
    return calls


@pytest.mark.parametrize("m, s, J, above", CASES)
def test_dvalue_straddle_takes_one_exact_compare(m, s, J, above, monkeypatch):
    """d = b - a with b = r + s*sqrt(2) and a = -sqrt(5), two fields, and m*d next to J."""
    r = near_integer(m, s, J, above)
    d = DValue(QuadExt(r, s, 2), QuadExt(0, -1, 5), 0, 0)
    compares = count_cmp(monkeypatch)
    n = d._scaled_floor(m)
    assert len(compares) == 1
    assert n == (J if above else J - 1) == mp_floor(m, r, s)


def test_far_from_an_integer_takes_no_exact_test(monkeypatch):
    signs = []
    monkeypatch.setattr(Root, "sign", lambda y: signs.append(y))
    compares = count_cmp(monkeypatch)
    r = near_integer(10**6, 1, 7, True) + Fraction(1, 2 * 10**6)  # m*x = 7.5 and a little
    assert Root(QuadExt(r, 1, 5), 1, 2)._scaled_floor(10**6) == 7
    assert DValue(QuadExt(r, 1, 2), QuadExt(0, -1, 5), 0, 0)._scaled_floor(10**6) == 7
    assert signs == compares == []


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**30, 10**30), st.one_of(st.just(0), st.integers(-10**30, 10**30)),
       st.integers(1, 10**20), st.sampled_from(FIELDS), st.integers(1, 2**200))
@example(7, 0, 3, 5, 2**200)  # B = 0: a rational
@example(0, -1, 1, 2, 1)  # B < 0: floor(-sqrt(2)) = -2
@example(-5, -3, 7, 13, 2**200 - 1)
def test_floor_kernel_is_the_floor_of_the_scaled_value(A, B, Q, D, m):
    n = exact._floor(A, B, Q, D, m)
    x = QuadExt(Fraction(A, Q), Fraction(B, Q), D) * m
    assert n == x.floor()
    assert x - n >= 0 and x - (n + 1) < 0  # the exact order, with no floor in it


def isqrt_floor(A: int, B: int, Q: int, D: int, m: int) -> int:
    """floor(m*(A + B*sqrt(D))/Q) from one isqrt of B^2*D*m^2, the kernel before the cached root."""
    r = math.isqrt(B * B * D * m * m)
    return (A * m + (r if B >= 0 else -r - 1)) // Q


RADICANDS = FIELDS + (2**2048 + 1, 10**650 + 3)  # no squares; the last two past _STR_BITS
WIDTHS = st.integers(0, 6000).flatmap(lambda bits: st.integers(0, 2**bits))  # 0 to 6000 bits


@settings(max_examples=300, deadline=None)
@given(st.integers(-2**6000, 2**6000), WIDTHS, st.sampled_from([1, -1]), st.integers(1, 2**64),
       st.sampled_from(RADICANDS), st.integers(1, 2**200))
@example(5, 0, 1, 3, 2, 7)  # B = 0
@example(-1, 2**1000, -1, 1, 5, 1)  # a root of 2049 bits, under the cap
@example(-1, 2**3000, 1, 3, 5, 1)  # past the cap: its own isqrt
def test_floor_is_the_isqrt_floor_on_both_sides_of_the_cap(A, B, sign, Q, D, m):
    assert exact._floor(A, sign * B, Q, D, m) == isqrt_floor(A, sign * B, Q, D, m)


def near_integer_root(m: int, B: int, D: int, J: int, above: bool) -> Fraction:
    """r with m*(r + B*sqrt(D)) in (J, J + 2^-K) if above, else in (J - 2^-K, J): the one-root
    form of ``near_integer``."""
    lo = math.isqrt(B * B * D * m * m << 2 * K) * (1 if B > 0 else -1) - (B < 0)
    return Fraction((J << K) - (lo if above else lo + 1), m << K)


@pytest.mark.parametrize("m, s, J, above", CASES)
@pytest.mark.parametrize("D", [2, 5, 2**2048 + 1])
def test_floor_holds_within_2_pow_minus_199_of_an_integer(m, s, J, above, D):
    """On ``near_integer``'s values, whose m*(r + s*sqrt(2)) is the leaf of a d(t) next to J at
    m << GUARD_BITS, and on r + s*sqrt(D) with m*x itself within 2^-200 of J."""
    r = near_integer(m, s, J, above)
    for M in (m, m << exact.GUARD_BITS):
        assert exact._floor(r.numerator, s * r.denominator, r.denominator, 2, M) == isqrt_floor(
            r.numerator, s * r.denominator, r.denominator, 2, M)
    r = near_integer_root(m, s, D, J, above)
    n = exact._floor(r.numerator, s * r.denominator, r.denominator, D, m)
    assert n == isqrt_floor(r.numerator, s * r.denominator, r.denominator, D, m)
    assert n == (J if above else J - 1)


@pytest.mark.parametrize("D", RADICANDS)
def test_each_root_tier_is_the_floor_of_the_scaled_root(D):
    K = 1
    while K <= exact._ROOT_BITS:
        s = exact._root(D, K)
        assert s * s <= D << 2 * K < (s + 1) * (s + 1)  # s = floor(sqrt(D) * 2**K)
        K *= 2


def test_deep_value_builds_no_root_past_the_cap(monkeypatch):
    """d(10^30000) and its render floor by their own isqrt: no root wider than the cap is
    built, so a deep evaluation cannot grow the cache."""
    tiers, isqrts, root, isqrt = [], [], exact._root, math.isqrt
    monkeypatch.setattr(exact, "_root", lambda D, K: tiers.append(K) or root(D, K))
    monkeypatch.setattr(math, "isqrt", lambda n: isqrts.append(n.bit_length()) or isqrt(n))
    sqrt2 = psidiff.parse_number("surd:(0+sqrt(2))/1")
    d = psidiff.d_at(sqrt2, psidiff.parse_number("tau"), 10**30000)
    d.render(12)
    assert all(K <= exact._ROOT_BITS for K in tiers)
    assert sum(bits > 10**5 for bits in isqrts) == 2  # each part's own, of about 2*10^5 bits


SOURCES = sorted(pathlib.Path(psidiff.__file__).parent.glob("*.py"))


def test_a_squarefree_radicand_takes_no_field_test_isqrt(monkeypatch):
    """The d renders of the golden ``profile_wide_quotients`` pair, radicands 994018964042970013
    and 5, test the field with no ``isqrt``: 5 is below ``exact._SQUAREFREE``, so squarefree,
    and does not divide the other. Each part's floor and root are made before counting."""
    argv = COMMANDS["profile_wide_quotients"]
    alpha, beta = (psidiff.parse_number(argv[argv.index(key) + 1]) for key in ("--alpha", "--beta"))
    profile = psidiff.breakpoint_profile(alpha, beta, 1, int(argv[argv.index("--bound") + 1]))
    for entry in profile.entries:
        for part in (entry.inv_psi_alpha, entry.inv_psi_beta):
            psidiff.render_decimal(part, 12)
    calls, isqrt = [], math.isqrt
    monkeypatch.setattr(math, "isqrt", lambda n: calls.append(n) or isqrt(n))
    rendered = [entry.d.render(12) for entry in profile.entries]
    golden = json.loads((GOLDEN / "profile_wide_quotients.out").read_text())["entries"]
    assert rendered == [row["d"] for row in golden] and len(rendered) == 62
    assert (alpha.value().D, beta.value().D) == (994018964042970013, 5) and calls == []


def test_isqrt_only_in_the_kernels():
    assert set(uses_in_package("isqrt")) == {
        "exact.py in _floor", "exact.py in _root", "exact.py in Root._leaves",
        "exact.py in squarefree_decompose", "exact.py in _over", "contfrac.py in expand_quadratic"}


def test_guard_bits_read_only_inside_exact():
    assert {use.split(" in ")[0] for use in uses_in_package("GUARD_BITS")} == {"exact.py"}


def test_theorems_takes_no_isqrt():
    source = next(path for path in SOURCES if path.name == "theorems.py").read_text()
    assert "isqrt" not in source


def test_both_guarded_floors_are_the_one_kernel():
    assert Root._scaled_floor is DValue._scaled_floor is exact._guarded
