"""One sign kernel for a difference: ``exact._cmp(x, y, m, k)``, the sign of m*x - m*y - k,
its form on products, ``exact._cmp_products(x, y, u, v)``, of x*y - u*v, and the running
maximum of |x - y|/t that the near-optimality check keeps, ``exact._max_ratio``. The
equality of two products, ``exact._eq_products``, is held to a zero of the product form.

Times Qx*Qy the difference is a + b*sqrt(Dx) - c*sqrt(Dy) in integers, so the kernel is
one ``_sign`` or one ``_sign2`` and builds no ``QuadExt``. It is held to mpmath at a
precision taken from the norm bound and to the temporaries formula it replaced
(``_oracles.cmp_by_temporaries``) on rationals and elements of one or two fields, with m
up to 2**200 and k of either sign: exact ties in one field give 0, and near-ties across
two fields, m*(x - y) with x - y tiny, are never 0. The product form is held to its own
temporaries formula (``_oracles.products_by_temporaries``), exact ties included, and the
maximum to ``max`` over the built ratios, ties in |x - y|/t included. The decisions they
took over build no value either, which ``exact._make`` counts show on a fixed pair: the
dichotomy's branch test, the |d| > bound/2 test of the interleave-gap certificates (each
certificate builds its delta only), and the near-optimality maximum, built once at the end.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psidiff import (QuadExt, construct_optimal, exact, imf, parse_number, scan_dichotomy,
                     scan_interleave_gap, theorems, verify_near_optimality)
from psidiff.errors import DichotomyViolationError, MixedFieldError
from psidiff.numspec import TAU_CF

from _oracles import cmp_by_temporaries, mp_quadext, products_by_temporaries
from test_exact_properties import (RATIONALS, quadexts, same_field_pairs,
                                   sqrt_convergent_ties)

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
def product_cases(draw):
    """(x, y, u, v, tie): x, y of one field and u, v of one field, the two fields alike or
    not; or an exact tie u = x*y/v, v rational."""
    x, y = draw(same_field_pairs())
    if draw(st.booleans()):
        v = draw(RATIONALS.filter(bool))
        return x, y, x * y / v, v, True
    u, v = draw(same_field_pairs())
    return x, y, u, v, False


@settings(max_examples=300, deadline=None)
@given(product_cases())
@example((QuadExt(1, 1, 5), QuadExt(1, 1, 5), QuadExt(0, 1, 2), QuadExt(0, 2, 2), False))
def test_product_kernel_is_the_sign_of_the_difference(case):
    x, y, u, v, tie = case
    s = exact._cmp_products(x, y, u, v)
    assert s == products_by_temporaries(*map(wrap, (x, y, u, v)))
    assert exact._cmp_products(x, y, u, v) == -exact._cmp_products(u, v, x, y)
    if tie:
        assert s == 0


@st.composite
def equality_cases(draw):
    """(x, y, u, v, tie): x, y of one field and u, v of one field or rational, with tie when
    x*y == u*v by construction: u = x*y/v for v rational or in x's field, or two fields whose
    products are one rational, a*b*D1 = c*e*D2; or u*v with x*y's parts over another field."""
    kind = draw(st.sampled_from(("any", "rational", "tie", "field_tie", "cross_tie", "forged")))
    x, y = draw(same_field_pairs())
    if kind == "rational":
        return draw(RATIONALS), y, draw(RATIONALS), draw(RATIONALS), False
    if kind in ("tie", "field_tie"):
        v = draw(RATIONALS.filter(bool) if kind == "tie" else quadexts(D=x.D).filter(lambda q: q != 0))
        return x, y, x * y / v, v, True
    D1, D2 = draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=2, unique=True))
    if kind == "cross_tie":
        a, c, e = (draw(RATIONALS.filter(bool)) for _ in range(3))
        b = c * e * D2 / (a * D1)
        return QuadExt(0, a, D1), QuadExt(0, b, D1), QuadExt(0, c, D2), QuadExt(0, e, D2), True
    if kind == "forged":
        a, b = draw(RATIONALS), draw(RATIONALS.filter(bool))
        return QuadExt(a, b, D1), 1, QuadExt(a, b, D2), 1, False
    u, v = draw(same_field_pairs())
    return x, y, u, v, False


@settings(max_examples=300, deadline=None)
@given(equality_cases())
def test_product_equality_is_a_zero_sign(case):
    """``exact._eq_products``, the dichotomy's identity check, is ``_cmp_products(...) == 0``."""
    x, y, u, v, tie = case
    equal = exact._eq_products(x, y, u, v)
    assert equal == (exact._cmp_products(x, y, u, v) == 0) == exact._eq_products(u, v, x, y)
    if tie:
        assert equal


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


SQRT2 = parse_number("surd:(0+sqrt(2))/1")
DEPTH = 60


def count_makes(monkeypatch) -> list:
    """The arguments of each ``exact._make`` call from now on: one per ``QuadExt`` built."""
    calls, make = [], exact._make
    monkeypatch.setattr(exact, "_make", lambda *args: calls.append(args) or make(*args))
    return calls


@pytest.mark.parametrize("alpha, beta", [(SQRT2, TAU_CF), (TAU_CF, SQRT2)])
def test_branch_builds_no_value(alpha, beta, monkeypatch):
    records = scan_dichotomy(alpha, beta, DEPTH)
    inv_xis, inv_etas = ([x for _, _, x in imf._inv_xis(cf, 0, DEPTH)] for cf in (alpha, beta))
    makes = count_makes(monkeypatch)
    for r in records:
        branch = theorems._branch(alpha, r.n, inv_xis[r.n - 1], inv_xis[r.n], inv_etas[r.s])
        assert branch is r.branch
    assert records and makes == []


def test_branch_identity_check_sees_the_field():
    """1/xi_n's coefficients over sqrt(3) instead of sqrt(2) break the identity."""
    r = scan_dichotomy(SQRT2, TAU_CF, DEPTH)[0]
    inv_xis = [x for _, _, x in imf._inv_xis(SQRT2, 0, DEPTH)]
    (_, _, inv_eta), = imf._inv_xis(TAU_CF, r.s, r.s)
    forged = QuadExt(inv_xis[r.n].a, inv_xis[r.n].b, 3)
    assert theorems._branch(SQRT2, r.n, inv_xis[r.n - 1], inv_xis[r.n], inv_eta) is r.branch
    with pytest.raises(DichotomyViolationError):
        theorems._branch(SQRT2, r.n, inv_xis[r.n - 1], forged, inv_eta)


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
