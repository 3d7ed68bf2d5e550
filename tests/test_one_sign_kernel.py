"""One sign kernel for a difference: ``exact._cmp(x, y, m, k)``, the sign of m*x - m*y - k,
its one bracketed order, ``exact._above(y, x, m, k)``, m*Y - m*X > k, its one certificate
form, ``exact._branch_sign(x, y, a, e)``, the sign of e*e - x*y once x = a*y holds, and the
running maximum of |x - y|/t that the near-optimality check keeps, ``exact._max_ratio``.

Times Qx*Qy the difference is a + b*sqrt(Dx) - c*sqrt(Dy) in integers, so the kernel is
one ``_sign`` or one ``_sign2`` and builds no ``QuadExt``. It is held to mpmath at a
precision taken from the norm bound and to the temporaries formula it replaced
(``_oracles.cmp_by_temporaries``) on rationals and elements of one or two fields, with m
up to 2**200 and k of either sign: exact ties in one field give 0, and near-ties across
two fields, m*(x - y) with x - y tiny, are never 0. ``_above`` is ``_cmp(Y, X, m, k) > 0``
on true brackets of Y and X at any scale, ties included. The interleave gap's point test,
|d| > bound/2, is ``_above(b, a, 2, bound) or _above(a, b, 2, bound)`` on the two bracketed
1/psi of d(t): a certificate's ``verified_points`` are held to mpmath at the norm-bound
precision, each point reaches ``_cmp`` at m = 2 and k = bound, b - a or a - b, exactly for the
thresholds its brackets leave open, and where |d| = k/2 exactly, in one field,
``_cmp(b, a, 2, +-k)`` is 0, so the strict test fails there and holds at k - 1. The gap
certificate refuses a step that moves, a delta at or below its threshold, by the brackets or
by ``_cmp`` on a straddle, and two points within half the bound. The branch form is held to
the temporaries formula of a product difference (``_oracles.products_by_temporaries``): its
identity x = a*y is a zero of x*1 - a*y, a forged field included, and its sign that of
e*e - x*y, exact ties included, both where the brackets decide nothing and where true
brackets decide; the maximum is held to ``max`` over the built ratios, ties in |x - y|/t
included. The decisions they take build no value either, which ``exact._make`` counts show
on a fixed pair at the default scale: the dichotomy's branch test,
the |d| > bound/2 test of the interleave-gap certificates (each certificate builds its delta
only), and the near-optimality maximum, built once at the end.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psidiff import (QuadExt, construct_optimal, d_at, exact, imf, parse_number, scan_dichotomy,
                     scan_interleave_gap, theorems, verify_near_optimality)
from psidiff.errors import DichotomyViolationError, GapViolationError, MixedFieldError
from psidiff.imf import DValue
from psidiff.numspec import TAU_CF

from _oracles import cmp_by_temporaries, mp_quadext, products_by_temporaries
from test_convergent_source import expansions, valid_pairs
from test_exact_properties import (RATIONALS, quadexts, same_field_pairs,
                                   sqrt_convergent_ties)

SQRT2 = parse_number("surd:(0+sqrt(2))/1")
DEPTH = 60
MULTIPLIERS = st.integers(1, 2**200) | st.sampled_from([1, 2, 2 << 64])
SHIFTS = st.integers(-2**200, 2**200) | st.integers(-10, 10)
OPERANDS = quadexts() | RATIONALS


@st.composite
def kernel_cases(draw):
    """(x, y, m, k, tie): any two operands, two of one field, an exact tie y = x - k/m, or a
    cross-field near-tie y = y0 - k/m with x - y0 tiny, so that m*x - m*y - k = m*(x - y0)."""
    m, k = draw(MULTIPLIERS), draw(SHIFTS)
    kind = draw(st.sampled_from(("any", "same_field", "tie", "near_tie")))
    if kind == "tie":
        x = draw(OPERANDS)
        return x, x - Fraction(k, m), m, k, True
    if kind == "near_tie":
        x, y = draw(sqrt_convergent_ties())
        return x, y - Fraction(k, m), m, k, False
    x, y = draw(same_field_pairs()) if kind == "same_field" else (draw(OPERANDS), draw(OPERANDS))
    return x, y, m, k, False


def opened(v: QuadExt | Fraction) -> tuple[int, int, QuadExt | Fraction]:
    """v as an (n, hi, value) triple whose integers decide nothing in ``_branch_sign``: with
    (0, 1) for all three, n_e*n_e = 0 < 1 = hi_x*hi_y and hi_e*hi_e = 1 > 0 = n_x*n_y."""
    return 0, 1, v


def bracketed(v: QuadExt | Fraction, g: int) -> tuple[int, int, QuadExt | Fraction] | None:
    """(f - 1, f + 1, v), f = floor(v*2**g), which holds v*2**g strictly; None unless f >= 1."""
    f = v._scaled_floor(1 << g) if isinstance(v, QuadExt) else v * 2**g // 1
    return (f - 1, f + 1, v) if f >= 1 else None


def wrap(v: QuadExt | Fraction) -> QuadExt:
    """A rational as a ``QuadExt``, for the temporaries formulas, which call ``compare``."""
    return v if isinstance(v, QuadExt) else QuadExt(v, 0, 2)


def parts(x: QuadExt | Fraction) -> tuple[int, int, int, int]:
    if isinstance(x, QuadExt):
        return x.A, x.B, x.Q, x.D
    return x.numerator, 0, x.denominator, 1


def mp_value(x: QuadExt | Fraction, dps: int) -> mpmath.mpf:
    if isinstance(x, QuadExt):
        return mp_quadext(x, dps)
    return mpmath.mpf(x.numerator) / x.denominator


def norm_dps(x, y, m: int, k: int) -> int:
    """Digits that resolve m*x - m*y - k: times L = Qx*Qy it is z = a + b*sqrt(Dx) -
    c*sqrt(Dy), a = m*A*R - m*E*Q - k*Q*R, whose conjugates multiply to a nonzero integer
    unless z = 0. Each conjugate, and each term mpmath adds, is below H = |m*A*R| + |m*E*Q| +
    |k*Q*R| + 4|b| + 4|c| (every D < 16), so a nonzero value is at least 1/(L*H**3)."""
    (A, B, Q, _), (E, F, R, _) = parts(x), parts(y)
    H = abs(m * A * R) + abs(m * E * Q) + abs(k * Q * R) + 4 * abs(m * B * R) + 4 * abs(m * F * Q)
    return (Q * R * H**4).bit_length() * 302 // 1000 + 20


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
@example((QuadExt(1, 1, 5), QuadExt(1, 1, 5) - Fraction(3, 2**200), 2**200, 3, True))
@example((QuadExt(0, 1, 2), Fraction(7, 5), 2**200, -(2**199), False))
@example((Fraction(7, 5), QuadExt(0, -1, 3), 1, 0, False))
def test_kernel_is_the_sign_of_the_difference(case):
    x, y, m, k, tie = case
    s = exact._cmp(x, y, m, k)
    assert s == -exact._cmp(y, x, m, -k)
    assert s == cmp_by_temporaries(wrap(x), wrap(y), m, k)
    if tie:
        assert s == 0
    (_, B, _, D), (_, F, _, E) = parts(x), parts(y)
    if B and F and D != E:
        assert s != 0  # sqrt(E) is not in Q(sqrt(D))
    dps = norm_dps(x, y, m, k)
    with mpmath.workdps(dps):
        value = m * mp_value(x, dps) - m * mp_value(y, dps) - k
        if s:
            assert mpmath.sign(value) == s
        else:
            assert abs(value) < mpmath.mpf(10) ** -(dps // 2)


@st.composite
def above_cases(draw):
    """(y, x, m, k, tie): two operands, of one field or of any two, or a cross-field near-tie,
    m in {1, 2} and k within 3 of m*(y - x); or an exact one-field tie m*(y - x) = k."""
    m = draw(st.sampled_from((1, 2)))
    kind = draw(st.sampled_from(("any", "same_field", "near_tie", "tie")))
    if kind == "tie":
        x, k = draw(OPERANDS), draw(st.integers(-10**6, 10**6))
        return x + Fraction(k, m), x, m, k, True
    if kind == "any":
        y, x = draw(OPERANDS), draw(OPERANDS)
    else:
        y, x = draw(same_field_pairs() if kind == "same_field" else sqrt_convergent_ties())
    return y, x, m, math.floor(m * y) - math.floor(m * x) + draw(st.integers(-2, 2)), False


@settings(max_examples=300, deadline=None)
@given(above_cases(), st.sampled_from((0, 1, 8, 64)), st.data())
@example((Fraction(3), Fraction(1), 2, 4, True), 0, None)
def test_above_is_the_sign_of_the_difference_on_true_brackets(case, guard_bits, data):
    """``exact._above(y, x, m, k)``, the one bracketed order, is ``_cmp(Y, X, m, k) > 0`` on
    true brackets n < v*2**G < h of any width, at G = 0, 1, 8 and 64: ties give False."""
    y, x, m, k, tie = case
    triples = []
    for v in (y, x):
        f = v._scaled_floor(1 << guard_bits) if isinstance(v, QuadExt) else v * 2**guard_bits // 1
        widths = (1, 0) if data is None else [
            data.draw(st.integers(low, 3) | st.integers(low, 2**80)) for low in (1, 0)]
        triples.append((f - widths[0], f + 1 + widths[1], v))  # f <= v*2**G < f + 1
    want = exact._cmp(y, x, m, k) > 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "GUARD_BITS", guard_bits)
        assert exact._above(*triples, m, k) is want
    if tie:
        assert not want


@st.composite
def branch_cases(draw):
    """(x, y, a, e, tie) with x = a*y, x, y of one field and e of any: a = x/y for a same-field
    pair, or x = a*y rational from a, y over one root; tie when e*e == x*y by construction,
    e rational and x = e*e/y."""
    kind = draw(st.sampled_from(("any", "tie", "rational_product")))
    if kind == "rational_product":
        D = draw(st.sampled_from((2, 3, 5, 7)))
        a, y = (QuadExt(0, draw(RATIONALS.filter(bool)), D) for _ in range(2))
        return a * y, y, a, draw(OPERANDS), False
    x, y = draw(same_field_pairs())
    assume(y != 0)
    if kind == "tie":
        e = draw(RATIONALS.filter(bool))
        x = e * e / y
        return x, y, x / y, e, True
    return x, y, x / y, draw(OPERANDS), False


@settings(max_examples=300, deadline=None)
@given(branch_cases())
@example((QuadExt(0, 1, 2), QuadExt(0, 2, 2), Fraction(1, 2), QuadExt(1, 1, 5), False))
def test_product_kernel_is_the_sign_of_the_difference(case):
    """Once x = a*y holds, ``exact._branch_sign(x, y, a, e)`` is the sign of e*e - x*y: by the
    exact sign where the brackets decide nothing, and by true brackets of positive x, y and e
    at one scale 2**g wherever they decide it, ties included."""
    x, y, a, e, tie = case
    s = exact._branch_sign(opened(x), opened(y), a, opened(e))
    assert s == products_by_temporaries(*map(wrap, (e, e, x, y)))
    assert s == exact._cmp(e * e, x * y)
    if tie:
        assert s == 0
    for g in (0, 8, 64):
        triples = [bracketed(v, g) for v in (x, y, e)]
        if None not in triples:
            assert exact._branch_sign(triples[0], triples[1], a, triples[2]) == s


@st.composite
def identity_cases(draw):
    """(x, y, a, e, tie): y, a of one field or rational and x of any, with tie when x == a*y by
    construction: x = a*y, in the field or rational, or a product of two roots of one field,
    a*y rational; or x with a*y's parts over another field, forged."""
    kind = draw(st.sampled_from(("any", "rational", "tie", "cross_tie", "forged")))
    e = draw(OPERANDS)
    if kind == "rational":
        return draw(RATIONALS), draw(RATIONALS), draw(RATIONALS), e, False
    a, y = draw(same_field_pairs())
    if kind == "tie":
        y = draw(st.sampled_from((y, y.a)))
        return a * y, y, a, e, True
    D1, D2 = draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=2, unique=True))
    if kind == "cross_tie":
        b, c = draw(RATIONALS.filter(bool)), draw(RATIONALS.filter(bool))
        return b * c * D2, QuadExt(0, b, D2), QuadExt(0, c, D2), e, True
    if kind == "forged":
        p, q = draw(RATIONALS), draw(RATIONALS.filter(bool))
        return QuadExt(p, q, D1), QuadExt(p, q, D2), 1, e, False
    return draw(OPERANDS), y, a, e, False


@settings(max_examples=300, deadline=None)
@given(identity_cases())
@example((QuadExt(1, 1, 3), QuadExt(1, 1, 2), 1, Fraction(1), False))
@example((QuadExt(1, 2, 2), 1, QuadExt(1, 1, 2), Fraction(1), False))  # only sqrt parts differ
def test_product_equality_is_a_zero_sign(case):
    """``exact._branch_sign`` is None exactly when x*1 - a*y is not 0, the dichotomy's identity
    check, a forged field included; when it holds, the sign is that of e*e - x*y."""
    x, y, a, e, tie = case
    s = exact._branch_sign(opened(x), opened(y), a, opened(e))
    holds = products_by_temporaries(*map(wrap, (x, 1, a, y))) == 0
    assert (s is not None) == holds
    if tie:
        assert holds
    if holds:
        assert s == products_by_temporaries(*map(wrap, (e, e, x, y)))


def test_product_kernel_refuses_two_fields():
    with pytest.raises(MixedFieldError):
        exact._branch_sign(opened(QuadExt(0, 1, 6)), opened(QuadExt(0, 1, 2)), QuadExt(0, 1, 3),
                           opened(1))


def mp_beyond_half(d, bound: int) -> bool:
    """|d| > bound/2 for d = b - a, by mpmath at twice the digits N that resolve 2*b - 2*a -+
    bound: a nonzero difference is then above 10**-N and the error far below it, so a smaller
    one is the exact tie |d| = bound/2."""
    b, a = d.inv_psi_beta, d.inv_psi_alpha
    dps = 2 * norm_dps(b, a, 2, bound)
    with mpmath.workdps(dps):
        excess = 2 * abs(mp_value(b, dps) - mp_value(a, dps)) - bound
        return excess > mpmath.mpf(10) ** -(dps // 2)


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(1, DEPTH))
def test_gap_point_kernel_is_two_signs(pair, depth):
    """A point is in a certificate's ``verified_points`` exactly when mpmath puts |d| above
    bound/2 there, in one field or across two."""
    alpha, beta = pair
    for cert in scan_interleave_gap(alpha, beta, depth):
        expected = tuple(point for point in (cert.first_point, cert.second_point)
                         if mp_beyond_half(d_at(alpha, beta, point), cert.bound))
        assert cert.verified_points == expected


@settings(max_examples=100, deadline=None)
@given(expansions(rational=False), st.integers(1, 10**30), st.integers(0, 10**40))
def test_gap_point_at_exactly_half_is_not_beyond(cf, t, k):
    """In one field |d| can be k/2 exactly: ``_cmp(b, a, 2, +-k)`` is 0 there, not d's sign,
    so the strict point test fails, and at k - 1 it has d's sign."""
    a = imf.inv_psi(cf, t)
    for s in (1, -1):
        b = a + Fraction(s * k, 2)
        assert exact._cmp(b, a, 2, s * k) == 0
        assert exact._cmp(b, a, 2, s * (k - 1)) == s


def open_thresholds(point, bound: int, g: int) -> list[int]:
    """The thresholds k of +-bound whose k*2**(g - 1) the brackets of a gap point's two 1/psi,
    at scale 2**g, leave open: 2**(g + 1)*d lies in (2*(n_b - h_a), 2*(h_b - n_a)). The point
    test reaches ``_cmp(b, a, 2, bound)`` for k = bound and ``_cmp(a, b, 2, bound)`` for -bound."""
    _, (nb, hb, _), (na, ha, _) = point
    return [k for k in (bound, -bound) if 2 * (nb - ha) < k << g < 2 * (hb - na)]


@pytest.mark.parametrize("guard_bits", [0, exact.GUARD_BITS])
def test_each_gap_point_is_two_signs_of_the_one_kernel(monkeypatch, guard_bits):
    """Every point of every certificate is decided by the brackets of its two 1/psi, or where
    they leave +-bound/2 open by ``exact._cmp`` at m = 2 and k = bound, b - a or a - b, one or
    both of them, with no form of its own. At G = 0 the brackets leave points open, and those
    reach ``_cmp``; on this pair at the default scale they leave none."""
    calls, per_cert, cmp, check = [], [], exact._cmp, theorems._gap_certificate

    def spy(x, y, m=1, k=0):
        calls.append((x, y, m, k))
        return cmp(x, y, m, k)

    def counted(*args):
        del calls[:]
        cert = check(*args)
        per_cert.append((cert, args[5:7], list(calls)))
        return cert

    monkeypatch.setattr(exact, "GUARD_BITS", guard_bits)
    monkeypatch.setattr(exact, "_cmp", spy)
    monkeypatch.setattr(theorems, "_gap_certificate", counted)
    certs = scan_interleave_gap(SQRT2, TAU_CF, 200)
    monkeypatch.undo()
    assert certs and [cert for cert, _, _ in per_cert] == certs
    assert certs == scan_interleave_gap(SQRT2, TAU_CF, 200)
    opened_points = 0
    for cert, points, seen in per_cert:
        for point in points:
            d, expected = point[0], open_thresholds(point, cert.bound, guard_bits)
            b, a = d.inv_psi_beta, d.inv_psi_alpha
            assert all(k == cert.bound for _, _, m, k in seen if m == 2)
            tests = [k if x == b else -k for x, y, m, k in seen  # a - b > bound: b - a < -bound
                     if m == 2 and (x, y) in ((b, a), (a, b))]
            assert tests in (expected, expected[:1])  # the second skipped once the first holds
            opened_points += bool(expected)
    assert opened_points > 0 if guard_bits == 0 else opened_points == 0


def forged_point(inv_beta: QuadExt, inv_alpha: QuadExt) -> theorems.GapPoint:
    """A gap point of two 1/psi with true brackets (f - 1, f + 1) at the current scale."""
    g = exact.GUARD_BITS
    return DValue(inv_beta, inv_alpha, 0, 0), bracketed(inv_beta, g), bracketed(inv_alpha, g)


def test_gap_certificate_refuses_a_step_that_moves():
    """Pattern a needs beta's 1/psi constant across the two points, and pattern b alpha's."""
    b, a = QuadExt(5, 1, 2), QuadExt(1, 1, 2)
    first, second = forged_point(b, a), forged_point(b + 1, a + 7)
    with pytest.raises(GapViolationError, match="beta step is not constant"):
        theorems._gap_certificate("a", 1, 1, 2, 3, first, second, 3)
    with pytest.raises(GapViolationError, match="alpha step is not constant"):
        theorems._gap_certificate("b", 1, 1, 2, 3, first, second, 3)


@pytest.mark.parametrize("guard_bits", [0, exact.GUARD_BITS])
@pytest.mark.parametrize("shortfall", [Fraction(0), Fraction(1, 1000)])
def test_gap_certificate_refuses_a_delta_at_or_below_the_threshold(monkeypatch, guard_bits,
                                                                   shortfall):
    """delta = bound*(quotient - 1) - shortfall is refused. A tie straddles the brackets at any
    scale, and so does a shortfall of 1/1000 at G = 0, so both reach ``_cmp`` at m = 1; at the
    default scale the brackets alone refuse the shortfall. delta = threshold + 1/1000 passes."""
    monkeypatch.setattr(exact, "GUARD_BITS", guard_bits)
    calls, cmp = [], exact._cmp
    monkeypatch.setattr(exact, "_cmp", lambda *args: calls.append(args) or cmp(*args))
    bound, quotient = 3, 3  # threshold 6
    b, a = QuadExt(5, 1, 2), QuadExt(1, 1, 2)
    first = forged_point(b, a)
    with pytest.raises(GapViolationError, match="exact gap inequality failed at pattern a"):
        theorems._gap_certificate("a", 1, 1, 2, bound, first,
                                  forged_point(b, a + 6 - shortfall), quotient)
    reached = [args for args in calls if args[2:] == (1, 6)]
    assert len(reached) == (guard_bits == 0 or shortfall == 0)
    cert = theorems._gap_certificate("a", 1, 1, 2, bound, first,
                                     forged_point(b, a + Fraction(6001, 1000)), quotient)
    assert cert.delta == Fraction(6001, 1000)


@pytest.mark.parametrize("guard_bits", [0, exact.GUARD_BITS])
def test_gap_certificate_refuses_points_within_half_the_bound(monkeypatch, guard_bits):
    """|d| = bound/2 exactly at both points, a tie the strict point test refuses; only a
    forged quotient of 1, threshold 0, lets such a pair past the gap inequality."""
    monkeypatch.setattr(exact, "GUARD_BITS", guard_bits)
    a = QuadExt(1, 1, 2)
    b = a + Fraction(3, 2)
    with pytest.raises(GapViolationError, match="neither point exceeds half the bound"):
        theorems._gap_certificate("a", 1, 1, 2, 3, forged_point(b, a), forged_point(b, a + 3), 1)


def test_gap_inequality_reaches_no_exact_sign_at_the_default_scale(monkeypatch):
    """On sqrt2 vs tau to depth 200 the brackets at 2**GUARD_BITS decide every gap inequality,
    so its ``_cmp`` at m = 1 never runs."""
    calls, cmp = [], exact._cmp
    monkeypatch.setattr(exact, "_cmp", lambda *args: calls.append(args) or cmp(*args))
    certs = scan_interleave_gap(SQRT2, TAU_CF, 200)
    assert len(certs) > 100
    assert [args for args in calls if args[2:3] in ((), (1,))] == []


@st.composite
def ratio_steps(draw):
    """(t, x, y) steps with x, y of one field, two of them often tied in |x - y|/t."""
    D = draw(st.sampled_from((2, 5)))
    steps = [(draw(st.integers(1, 2**80)), draw(quadexts(D=D)), draw(quadexts(D=D)))
             for _ in range(draw(st.integers(1, 6)))]
    assume(all(x != y for _, x, y in steps))
    if len(steps) > 1 and draw(st.booleans()):
        (t, x, y), k = steps[0], draw(st.integers(2, 9))
        steps.insert(draw(st.integers(1, len(steps))), (k * t, x * k, y * k))
    return steps


@settings(max_examples=200, deadline=None)
@given(ratio_steps())
def test_max_ratio_is_the_first_maximum_of_the_ratios(steps):
    ratios = [abs(x - y) / t for t, x, y in steps]
    top = max(ratios)
    assert exact._max_ratio(steps) == (top, steps[ratios.index(top)][0])


def test_max_ratio_refuses_two_fields():
    x, y = QuadExt(1, 1, 5), QuadExt(0, 1, 2)
    with pytest.raises(MixedFieldError):
        exact._max_ratio([(1, x, y)])
    with pytest.raises(MixedFieldError, match=r"sqrt\(2\) with sqrt\(5\)"):
        exact._max_ratio([(1, x, x + 1), (2, y, y + 1)])


def count_makes(monkeypatch) -> list:
    """The arguments of each ``exact._make`` call from now on: one per ``QuadExt`` built."""
    calls, make = [], exact._make
    monkeypatch.setattr(exact, "_make", lambda *args: calls.append(args) or make(*args))
    return calls


@pytest.mark.parametrize("alpha, beta", [(SQRT2, TAU_CF), (TAU_CF, SQRT2)])
def test_branch_builds_no_value(alpha, beta, monkeypatch):
    records = scan_dichotomy(alpha, beta, DEPTH)
    (rows, xis), (_, etas) = (imf._table(cf, 0, DEPTH) for cf in (alpha, beta))
    inv_xis, inv_etas = ([read(i) for i in range(DEPTH + 1)] for read in (xis, etas))
    makes = count_makes(monkeypatch)
    for r in records:
        branch = theorems._branch(rows[r.n], inv_xis[r.n - 1], inv_xis[r.n], inv_etas[r.s])
        assert branch is r.branch
    assert records and makes == []


@pytest.mark.parametrize("guard_bits", [0, exact.GUARD_BITS])
def test_branch_identity_check_sees_the_field(monkeypatch, guard_bits):
    """1/xi_n's coefficients over sqrt(3) instead of sqrt(2) break the identity, which is
    checked before the brackets decide the sign, as they do at the default scale."""
    monkeypatch.setattr(exact, "GUARD_BITS", guard_bits)
    r = scan_dichotomy(SQRT2, TAU_CF, DEPTH)[0]
    rows, xis = imf._table(SQRT2, 0, DEPTH)
    inv_xis = [xis(i) for i in range(DEPTH + 1)]
    inv_eta = imf._table(TAU_CF, r.s, r.s)[1](r.s)
    (nx, hx, x), (ny, hy, _), (ne, he, _) = inv_xis[r.n], inv_xis[r.n - 1], inv_eta
    if guard_bits:
        assert ne * ne >= hx * hy or he * he <= nx * ny
    forged = nx, hx, QuadExt(x.a, x.b, 3)
    assert theorems._branch(rows[r.n], inv_xis[r.n - 1], inv_xis[r.n], inv_eta) is r.branch
    with pytest.raises(DichotomyViolationError):
        theorems._branch(rows[r.n], inv_xis[r.n - 1], forged, inv_eta)


@pytest.mark.parametrize("alpha, beta", [(SQRT2, TAU_CF), (SQRT2, parse_number("cf:[0;1,(2)]"))])
def test_gap_certificate_builds_its_delta_only(alpha, beta, monkeypatch):
    makes, per_call, check = count_makes(monkeypatch), [], theorems._gap_certificate

    def counted(*args):
        before = len(makes)
        cert = check(*args)
        per_call.append(len(makes) - before)
        return cert

    monkeypatch.setattr(theorems, "_gap_certificate", counted)
    certs = scan_interleave_gap(alpha, beta, DEPTH)
    assert certs and per_call == [1] * len(certs)


@pytest.mark.parametrize("epsilon", [Fraction(6, 100), Fraction(1, 1000)])
def test_near_optimality_builds_at_most_one_value_per_new_maximum(epsilon, monkeypatch):
    pair = construct_optimal(epsilon)
    t_min, t_max = 10**6, 10**30
    report = verify_near_optimality(pair, t_min, t_max)
    steps = list(imf._d_steps(TAU_CF, pair.theta, report.t_min, t_max))
    maxima, top = 0, None
    for t, d in steps:
        ratio = abs(d.inv_psi_beta - d.inv_psi_alpha) / t
        if top is None or ratio > top:
            maxima, top = maxima + 1, ratio
    assert top == report.max_ratio
    evaluations, evaluate = [], imf._inv_psi_at
    monkeypatch.setattr(imf, "_inv_psi_at", lambda *args: evaluations.append(1) or evaluate(*args))
    makes = count_makes(monkeypatch)
    assert verify_near_optimality(pair, t_min, t_max) == report
    # besides the walk: check_pair's alpha +- beta, the maximum, built once at the end, and
    # C + slack - ratio, two steps of a Root
    assert len(makes) <= len(evaluations) + maxima + 5
    assert len(makes) - len(evaluations) < len(steps)
