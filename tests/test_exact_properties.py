"""Generated-input properties of the exact layer against the mpmath oracles.

``QuadExt.compare`` must agree with the exact field sign on same-field pairs,
and ``refine_compare`` on their enclosures must separate exactly the unequal
ones; on cross-field pairs ``compare`` must agree with mpmath, near-ties far
past the precision cap included, which refinement leaves undecided, and with the
formula it had before it became one ``exact._sign2`` (``_oracles.cross_field_compare``),
at a precision taken from the norm bound. The other user of ``_sign2`` is held to
mpmath too: ``Root.sign`` over Q(sqrt(5)) and Q(sqrt(2)), near-ties built from
convergents included. ``QuadExt.floor`` and ``nearest_int`` are checked on
powers of (1 + sqrt(D)), which lie exponentially close to integers:
(1 + sqrt(2))**4000 is within 2**-5000 of one. ``render_decimal`` must give
mpmath's correctly rounded digits, for a ``QuadExt``, for a ``Root`` a + s*sqrt(w)
over Q(sqrt(5)) and for a cross-field d(t), whose scaled floor is checked with
its 64-bit guard bracket and without it. The field axioms hold on same-field
elements, every result keeps the stored integers (A + B*sqrt(D))/Q canonical,
equal values hash alike, and enclosures contain the mpmath value.
``Interval`` arithmetic gives the endpoints of the ``Fraction`` reference in
``_oracles``, keeps its order check, and keeps its shared denominator at the
size the enclosures it was built from fix.
"""

import math
import pickle
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from psidiff import (Comparison, DValue, Interval, QuadExt, d_at, exact, refine_compare,
                     render_decimal)
from psidiff.contfrac import convergent_state, expand_quadratic, last_convergent_at_most
from psidiff.errors import MixedFieldError
from psidiff.exact import Root, c_enclosure, squarefree_decompose

from _oracles import FractionInterval, cross_field_compare, mp_quadext
from test_convergent_source import expansions, valid_pairs

FIELDS = (2, 3, 5, 6, 7, 10, 11, 13)

RATIONALS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))


@st.composite
def quadexts(draw, D=None, rational_ok=True):
    D = draw(st.sampled_from(FIELDS)) if D is None else D
    b = draw(RATIONALS)
    if not rational_ok:
        assume(b != 0)
    return QuadExt(draw(RATIONALS), b, D)


@st.composite
def same_field_pairs(draw):
    x = draw(quadexts())
    if draw(st.booleans()):
        return x, x
    return x, draw(quadexts(D=x.D))


def unit_power(D: int, n: int) -> QuadExt:
    """(1 + sqrt(D))**n, built from integers."""
    A, B = 1, 0
    for _ in range(n):
        A, B = A + B * D, A + B
    return QuadExt(A, B, D)


def expected_render(terms: list[QuadExt], digits: int, dps: int | None = None) -> str:
    """The sum of ``terms`` rounded to ``digits`` places by mpmath."""
    dps = dps or 2 * digits + 60
    with mpmath.workdps(dps):
        value = sum(mp_quadext(x, dps) for x in terms)
        return scaled_text(int(mpmath.nint(value * mpmath.mpf(10) ** digits)), digits)


def scaled_text(n: int, digits: int) -> str:
    whole, frac = divmod(abs(n), 10**digits)
    return f"{'-' if n < 0 else ''}{whole}.{frac:0{digits}d}"


@settings(max_examples=200, deadline=None)
@given(same_field_pairs())
def test_same_field_compare_is_exact_sign(pair):
    x, y = pair
    s = (x - y).sign()
    assert x.compare(y) == s == -y.compare(x)
    # the enclosures separate exactly the unequal pairs
    refined = refine_compare(x.enclosure, y.enclosure, cap_bits=512)
    assert refined is (Comparison.LESS, Comparison.UNDECIDED, Comparison.GREATER)[s + 1]


@settings(max_examples=200, deadline=None)
@given(quadexts(rational_ok=False), quadexts(rational_ok=False))
def test_cross_field_compare_matches_oracle(x, y):
    assume(x.D != y.D)
    vx, vy = mp_quadext(x), mp_quadext(y)
    assume(abs(vx - vy) > mpmath.mpf(10) ** -40)
    assert x.compare(y) == -y.compare(x) == (-1 if vx < vy else 1)


@st.composite
def cross_field_near_ties(draw):
    """(x, y, dps): y = p/q + eps*sqrt(D2), p/q a convergent of x, eps = +-10**-e, e <= 2000.

    x is the value of a generated periodic expansion, whose convergents are at hand.

    The convergent's error is drawn near |eps|, so the two parts of x - y can cancel.
    Times L = x.Q*y.Q, x - y is a + b*sqrt(D) + c*sqrt(D2) in integers, and the product
    of its four conjugates is a nonzero integer; the other three are below L*10**8, so
    |x - y| > 10**-(4*digits(L) + 30), which dps digits resolve.
    """
    cf = draw(expansions(rational=False))
    x = cf.value()
    D2 = draw(st.sampled_from(FIELDS).filter(lambda D: D != x.D))
    e = draw(st.integers(0, 2000) | st.integers(1240, 2000))  # the latter past 4096 bits
    bits = max(0, e * 3322 // 1000 + draw(st.integers(-64, 64)))
    _, (p, _, q, _) = last_convergent_at_most(cf, 1 << bits)
    y = QuadExt(Fraction(p, q), Fraction(draw(st.sampled_from((1, -1))), 10**e), D2)
    return x, y, 4 * ((x.Q * y.Q).bit_length() * 302 // 1000 + 1) + 60


@settings(max_examples=100, deadline=None)
@given(cross_field_near_ties())
def test_cross_field_near_tie_matches_oracle(tie):
    x, y, dps = tie
    s = x.compare(y)
    with mpmath.workdps(dps):
        assert s == mpmath.sign(mp_quadext(x, dps) - mp_quadext(y, dps)) != 0
    assert y.compare(x) == -s


@st.composite
def sqrt_convergent_ties(draw):
    """(x, y) = (r + p/q + eps*sqrt(D), r + sqrt(D2)): p/q a convergent of sqrt(D2) and
    eps = +-10**-e near its error, so x - y has two small parts that can cancel."""
    D, D2 = draw(st.lists(st.sampled_from(FIELDS), min_size=2, max_size=2, unique=True))
    p, _, q, _ = convergent_state(expand_quadratic(QuadExt(0, 1, D2)), draw(st.integers(0, 400)))
    e = max(0, 2 * len(str(q)) + draw(st.integers(-3, 3)))
    r = draw(RATIONALS)
    return QuadExt(r + Fraction(p, q), Fraction(draw(st.sampled_from((1, -1))), 10**e), D), (
        QuadExt(r, 1, D2))


def cross_field_dps(x: QuadExt, y: QuadExt) -> int:
    """Digits that resolve x - y across fields: times L = Q*Q' it is z = a + b*sqrt(D) -
    c*sqrt(D'), whose four conjugates multiply to a nonzero integer; the other three are
    below H = |a| + 4|b| + 4|c| (D, D' < 16), so |x - y| >= 1/(L*H**3)."""
    a, b, c = x.A * y.Q - y.A * x.Q, x.B * y.Q, y.B * x.Q
    H = abs(a) + 4 * abs(b) + 4 * abs(c)
    return (x.Q * y.Q * H**3).bit_length() * 302 // 1000 + 20


@settings(max_examples=200, deadline=None)
@given(st.tuples(quadexts(rational_ok=False), quadexts(rational_ok=False))
       .filter(lambda pair: pair[0].D != pair[1].D) | sqrt_convergent_ties())
def test_cross_field_compare_matches_reference(pair):
    x, y = pair
    s = x.compare(y)
    assert s == cross_field_compare(x, y) == -y.compare(x) == -cross_field_compare(y, x) != 0
    dps = cross_field_dps(x, y)
    with mpmath.workdps(dps):
        assert s == mpmath.sign(mp_quadext(x, dps) - mp_quadext(y, dps))


def test_cross_field_near_tie_past_the_cap():
    # p/q is the 2000th convergent of sqrt2, and x - y is about -2.2e-1531: 4096 bits of
    # refinement cannot separate them
    x = QuadExt(0, 1, 2)
    p, _, q, _ = convergent_state(expand_quadratic(x), 1999)
    y = QuadExt(Fraction(p, q), Fraction(1, 10**1540), 3)
    assert (x.compare(y), y.compare(x)) == (-1, 1)
    assert refine_compare(x.enclosure, y.enclosure) is Comparison.UNDECIDED
    assert x < y and x <= y and y > x and y >= x and not x > y
    with pytest.raises(MixedFieldError):
        x + y


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 4000), st.sampled_from((1, -1)), st.integers(-5, 5))
@example(2, 4000, 1, 0)
def test_floor_and_nearest_int_near_integers(D, n, sign, shift):
    x = unit_power(D, n) * sign + shift
    assume(not x.is_rational)
    # For an integer m, (x - m) times its conjugate is a nonzero integer, so x
    # is about 1/(2|x|) or more from any integer: twice the digits of |x| pin
    # both its floor and its nearest integer.
    dps = 2 * (max(x.a.numerator.bit_length(), x.b.numerator.bit_length() + 4) // 3) + 30
    with mpmath.workdps(dps):
        value = mp_quadext(x, dps)
        floor, nearest = int(mpmath.floor(value)), int(mpmath.nint(value))
    assert x.floor() == math.floor(x) == floor
    assert x.nearest_int() == nearest


def test_floor_of_near_integer_power_is_exact():
    # (1+sqrt2)^4000 + (1-sqrt2)^4000 = 2A, and 0 < (1-sqrt2)^4000 < 2**-5000
    x = unit_power(2, 4000)
    assert (x.floor(), x.nearest_int()) == (2 * x.a - 1, 2 * x.a)
    assert QuadExt(-x.a, -x.b, 2).floor() == -2 * x.a


@settings(max_examples=100, deadline=None)
@given(quadexts(rational_ok=False), st.integers(1, 60))
def test_render_decimal_is_correctly_rounded(x, digits):
    assert render_decimal(x, digits) == expected_render([x], digits)


@settings(max_examples=60, deadline=None)
@given(quadexts(rational_ok=False), quadexts(rational_ok=False), st.integers(1, 40))
def test_render_decimal_of_cross_field_sum(x, y, digits):
    # x + y = x - (-y), a d(t) whose two parts lie in two fields
    assume(x.D != y.D)
    d = DValue(x, -y, 0, 0)
    assert render_decimal(d, digits) == d.render(digits) == expected_render([x, y], digits)


def is_rational_square(r: Fraction) -> bool:
    return r >= 0 and all(math.isqrt(n) ** 2 == n for n in (r.numerator, r.denominator))


@st.composite
def roots(draw):
    """Root(a, s, w): a rational or in Q(sqrt(D)), w in Q(sqrt(D)), positive and no square,
    for D = 5 or 2.

    A square w would have a square norm; w with a norm that is no square is kept. A
    rational w is a square in the field when w or w*D is a rational square.
    """
    D = draw(st.sampled_from((5, 2)))
    a = draw(RATIONALS | quadexts(D=D))
    w = draw(quadexts(D=D))
    assume(w > 0)
    if w.is_rational:
        assume(not is_rational_square(w.a) and not is_rational_square(w.a * D))
    else:
        assume(not is_rational_square(w.a * w.a - D * w.b * w.b))
    return Root(a, draw(st.sampled_from((1, -1))), w)


@st.composite
def root_near_ties(draw):
    """Root(a, -1, n) with a = p/q + eps*sqrt(D), p/q a convergent of sqrt(n) and eps =
    +-10**-e near its error, so the parts of a - sqrt(n) cancel to many digits."""
    D = draw(st.sampled_from((5, 2)))
    n = draw(st.integers(2, 60).filter(lambda n: not is_rational_square(Fraction(n))
                                        and not is_rational_square(Fraction(n * D))))
    p, _, q, _ = convergent_state(expand_quadratic(QuadExt(0, 1, n)), draw(st.integers(0, 300)))
    e = max(0, 2 * len(str(q)) + draw(st.integers(-3, 3)))
    a = QuadExt(Fraction(p, q), Fraction(draw(st.sampled_from((1, -1))), 10**e), D)
    return Root(a, -1, QuadExt(n, 0, D))


def mp_root(x: Root, dps: int) -> mpmath.mpf:
    a = x.a if isinstance(x.a, QuadExt) else QuadExt(x.a, 0, 5)
    return mp_quadext(a, dps) + x.s * mpmath.sqrt(mp_quadext(x.w, dps))


def root_dps(x: Root) -> int:
    """Digits that resolve the sign of x = a + s*sqrt(w), a = (A + B*sqrt(D))/Q and
    w = (E + F*sqrt(D))/R. Q*R*x is an algebraic integer whose conjugates multiply to a
    nonzero integer; the other three are below H = R*(|A| + 4|B|) + Q*R*(|E| + 4|F|),
    so |x| >= 1/(Q*R*H**3)."""
    a, w = (v if isinstance(v, QuadExt) else QuadExt(v, 0, 5) for v in (x.a, x.w))
    H = w.Q * (abs(a.A) + 4 * abs(a.B)) + a.Q * w.Q * (abs(w.A) + 4 * abs(w.B))
    return (a.Q * w.Q * H**3).bit_length() * 302 // 1000 + 20


@settings(max_examples=200, deadline=None)
@given(roots() | root_near_ties())
@example(Root(QuadExt(Fraction(99, 70), Fraction(1, 10**4), 5), -1, QuadExt(2, 0, 5)))
def test_root_sign_matches_mpmath(x):
    dps = root_dps(x)
    with mpmath.workdps(dps):
        assert x.sign() == mpmath.sign(mp_root(x, dps)) != 0
    assert (-x).sign() == -x.sign()


@settings(max_examples=200, deadline=None)
@given(roots(), st.integers(1, 60))
def test_root_renders_and_floors_as_mpmath(x, digits):
    # a + s*sqrt(w) times its three conjugates is a nonzero rational, so a few times
    # the digits asked for and the size of the operands resolve it
    dps = 4 * digits + 100
    with mpmath.workdps(dps):
        scaled = mp_root(x, dps) * mpmath.mpf(10) ** digits
        rounded, floor = int(mpmath.nint(scaled)), int(mpmath.floor(scaled))
        assert x.sign() == mpmath.sign(scaled) != 0
    assert render_decimal(x, digits) == scaled_text(rounded, digits)
    assert x._scaled_floor(10**digits) == floor


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(valid_pairs(), st.integers(1, 10**60), st.integers(1, 40), st.sampled_from((64, 0)))
def test_cross_field_d_renders_as_mpmath(monkeypatch, pair, t, digits, guard_bits):
    """A d(t) in two fields rounds by its scaled floor: within the 64-bit guard bracket,
    which straddles only when m*d lies within 2**-64 of an integer (1/psi lies within
    about 1/t of a rational), and with a 0-bit one, where one exact ``_cmp`` decides."""
    d = d_at(*pair, t)
    assume(d.inv_psi_beta.D != d.inv_psi_alpha.D)
    cmp, compares = exact._cmp, []
    with monkeypatch.context() as patch:
        patch.setattr(exact, "GUARD_BITS", guard_bits)
        patch.setattr(exact, "_cmp", lambda *args: compares.append(args) or cmp(*args))
        got = d.render(digits)
    assert len(compares) == 1 if guard_bits == 0 else len(compares) <= 1
    dps = 4 * (digits + len(str(t))) + 80
    assert got == expected_render([d.inv_psi_beta, -d.inv_psi_alpha], digits, dps)


def assert_canonical(x: QuadExt) -> None:
    """The integer invariants of (A + B*sqrt(D))/Q."""
    assert all(type(v) is int for v in (x.A, x.B, x.Q, x.D))
    assert x.Q > 0 and math.gcd(x.A, x.B, x.Q) == 1
    assert x.D > 1 and squarefree_decompose(x.D) == (1, x.D)


@st.composite
def same_field_triples(draw):
    D = draw(st.sampled_from(FIELDS))
    return tuple(draw(quadexts(D=D)) for _ in range(3))


@settings(max_examples=200, deadline=None)
@given(same_field_triples())
def test_field_axioms(triple):
    x, y, z = triple
    results = [x + y, y + x, x * y, y * x, (x + y) + z, x + (y + z), (x * y) * z,
               x * (y * z), x * (y + z), x * y + x * z, x - y, -x]
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x - y) + y == x and x + (-x) == 0
    if x != 0:
        assert x * x.inverse() == 1
        results.append(x.inverse())
    if y != 0:
        assert (x / y) * y == x
        results.append(x / y)
    for r in results:
        assert_canonical(r)


@settings(max_examples=200, deadline=None)
@given(quadexts(), RATIONALS, st.sampled_from(FIELDS))
def test_rational_operands_from_any_field(x, r, E):
    # a rational joins any field, as a Fraction, an int or a QuadExt of another field
    other = QuadExt(r, 0, E)
    for s in (x + r, r + x, x - r, r - x, x * r, r * x, x + other, other * x, x * int(r)):
        assert_canonical(s)
    assert x + r == x + other == r + x and x * r == other * x
    assert x - r == -(r - x)
    if r != 0:
        assert (x / r) * r == x == (x / other) * other
        assert_canonical(x / r)


# products of primes past the trial-division table, whose squares the radicand sheds
# by one square test, without factoring
LARGE_SQUARE_ROOTS = st.lists(st.sampled_from((10061, 10067, 104723, 1000003)),
                              min_size=1, max_size=3).map(math.prod)


@settings(max_examples=100, deadline=None)
@given(RATIONALS, RATIONALS, st.sampled_from(FIELDS), LARGE_SQUARE_ROOTS)
def test_large_square_factor_leaves_the_field(a, b, g, k):
    x, y = QuadExt(a, b, g * k * k), QuadExt(a, b * k, g)
    assert x == y and hash(x) == hash(y) and x.D == y.D == g
    assert_canonical(x)
    assert_canonical(y)


PRIMES_PAST_THE_TABLE = st.sampled_from((10007, 10009, 10037, 10039, 10061, 10067, 104723, 104729,
                                         1000003))


@settings(max_examples=100, deadline=None)
@given(PRIMES_PAST_THE_TABLE, PRIMES_PAST_THE_TABLE, st.sampled_from((1, *FIELDS)), RATIONALS,
       RATIONALS.filter(bool))
def test_one_field_over_two_radicands(p, r, m, a, b):
    """p*p*r*m keeps the square of p, which no trial division finds, so x and y are one value
    over two radicands of one field: equal, hashing and ordering alike, closed under + and *,
    flooring and rendering alike, and each printing over its own radicand."""
    x, y = QuadExt(a, b, p * p * r * m), QuadExt(a, b * p, r * m)
    assert (x.D, y.D) == (p * p * r * m, r * m)
    assert x == y and y == x and hash(x) == hash(y)
    assert x.compare(y) == y.compare(x) == 0 and x - y == 0 and (y - x).is_rational
    assert x + y == 2 * y and (x + y).D == x.D and (y + x).D == y.D
    assert x * y == y * y and (x * y).D == x.D and (y * x).D == y.D
    assert x.floor() == y.floor() and render_decimal(x, 30) == render_decimal(y, 30)
    assert str(x).endswith(f"√{x.D}") and str(y).endswith(f"√{y.D}")


@settings(max_examples=200, deadline=None)
@given(RATIONALS, st.sampled_from(FIELDS), st.sampled_from(FIELDS))
def test_equal_rationals_hash_alike_across_fields(r, D, E):
    x, y = QuadExt(r, 0, D), QuadExt(r, 0, E)
    assert x == y == r and hash(x) == hash(y) == hash(r)
    assert (x == r.numerator) is (r.denominator == 1)
    if r.denominator == 1:
        assert hash(x) == hash(r.numerator)
    assert {x: 1}[r] == 1 and {r: 1}[y] == 1


@settings(max_examples=200, deadline=None)
@given(quadexts(), st.integers(1, 6), RATIONALS)
def test_equal_irrationals_hash_alike(x, s, r):
    # the radicand s^2*D reduces to D, and arithmetic that cancels lands on x again
    y = QuadExt(x.a, x.b / s, x.D * s * s)
    z = (x + r) - r
    assert x == y == z and hash(x) == hash(y) == hash(z)
    assert (x.A, x.B, x.Q, x.D) == (y.A, y.B, y.Q, y.D) == (z.A, z.B, z.Q, z.D)
    w = pickle.loads(pickle.dumps(x))
    assert w == x and hash(w) == hash(x)


@settings(max_examples=200, deadline=None)
@given(quadexts(), st.integers(0, 300))
def test_enclosure_contains_value(x, bits):
    enc = x.enclosure(bits)
    assert enc.hi - enc.lo <= Fraction(1, 2**bits)
    # for these operands x lies 2**-(2*bits + 95) or more inside each end, which
    # bits + 60 decimal digits resolve
    dps = bits + 60
    with mpmath.workdps(dps):
        value = mp_quadext(x, dps)
        lo = mpmath.mpf(enc.lo.numerator) / enc.lo.denominator
        hi = mpmath.mpf(enc.hi.numerator) / enc.hi.denominator
        assert lo <= value <= hi


@st.composite
def interval_operands(draw, bits):
    """(operand, reference): an Interval on rational ends or a QuadExt enclosure at
    ``bits``, which share their denominator."""
    if draw(st.booleans()):
        enc = draw(quadexts()).enclosure(bits)
        return enc, FractionInterval(enc.lo, enc.hi)
    lo, hi = sorted((draw(RATIONALS), draw(RATIONALS)))
    return Interval(lo, hi), FractionInterval(lo, hi)


def assert_same_ends(got: Interval, want: FractionInterval) -> None:
    assert (got.lo, got.hi) == (want.lo, want.hi)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 80), RATIONALS | st.integers(-10, 10))
def test_interval_arithmetic_matches_fraction_reference(data, bits, r):
    x, rx = data.draw(interval_operands(bits))
    y, ry = data.draw(interval_operands(bits))
    for got, want in ((x - y, rx - ry), (y - x, ry - rx), (x * r, rx * r), (-x, -rx),
                      (abs(x), abs(rx))):
        assert_same_ends(got, want)


@settings(max_examples=200, deadline=None)
@given(RATIONALS, RATIONALS)
def test_interval_order_check_and_value_semantics(a, b):
    lo, hi = sorted((a, b))
    if lo < hi:
        with pytest.raises(ValueError):
            Interval(hi, lo)
    x = Interval(lo, hi)
    # the same ends over another denominator, pickled intact
    y = (Interval(hi, hi) - Interval(0, hi - lo)) * 3 * Fraction(1, 3)
    assert (y.lo, y.hi) == (x.lo, x.hi) == (lo, hi)
    z = pickle.loads(pickle.dumps(y))
    assert (z.lo_n, z.hi_n, z.den) == (y.lo_n, y.hi_n, y.den)
    with pytest.raises(AttributeError):
        x.lo_n = 0
    with pytest.raises(AttributeError):
        del x.lo_n


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 600))
def test_c_enclosure_denominator_stays_bounded(bits):
    assert c_enclosure(bits).den.bit_length() <= 2 * bits + 2


@settings(max_examples=100, deadline=None)
@given(expansions(rational=False), expansions(rational=False), st.integers(1, 10**12),
       st.integers(1, 600))
def test_d_enclosure_denominator_stays_bounded(alpha, beta, t, bits):
    assume(alpha.value().D != beta.value().D)
    assert d_at(alpha, beta, t).enclosure(bits).den.bit_length() <= bits + 2
