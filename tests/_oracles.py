"""Independent oracles used to derive and re-derive expected test values.

Everything here goes through mpmath at high working precision and never
touches the exact code paths under test (continued fractions, tails,
closed-form reciprocals), so agreement is meaningful. Two more references
use no code under test either: ``FractionInterval`` with
``fraction_sqrt_interval``, the rational interval arithmetic that
``psidiff.Interval`` replaced, kept as the reference its integer form must
match endpoint for endpoint, and ``c_alt_enclosure``, a second formula for C
computed in that arithmetic, which the tests hold against
``psidiff.exact.c_enclosure``. ``exact_uv_search`` is the one reference built on
code under test: the (U, V) search that ``construct_optimal`` replaced, which
settles every U with ``QuadExt`` arithmetic, kept as the reference the integer
search must match pair for pair. ``cross_field_compare`` is the cross-field branch
that ``QuadExt.compare`` had before it became one ``exact._sign2``, kept as the
reference that sign test must match. ``cmp_by_temporaries`` is the sign of m*x - m*y - k as
``DValue._at_least`` and the theorems' tests formed it before ``exact._cmp`` read it from
integers, through ``QuadExt`` temporaries, kept as the reference that kernel must match;
``products_by_temporaries`` is the same for x*y - u*v, as ``theorems._branch`` formed it
before ``exact._branch_sign`` read its identity and its sign from integers.
``expand_by_state_table`` is the surd expansion that ``contfrac.expand_quadratic`` ran
before it found the period from the first reduced state: it keeps every (P, Q) state in a
table and stops at the first that repeats, kept as the reference the Galois rule must match.
``screen_constants`` holds the nested ``isqrt``
formulas for floor(phi*2^K) and floor(sqrt(tau)*2^K) that ``construct_optimal``'s
screen wrote out before it read them from ``exact``'s scaled floors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from psidiff import CFExpansion, Interval, QuadExt

DPS = 60  # roughly 200 bits


def mp(ctxdps: int = DPS):
    mpmath.mp.dps = ctxdps
    return mpmath.mp


def mp_quadext(x: QuadExt, dps: int = DPS) -> mpmath.mpf:
    mp(dps)
    return mpmath.mpf(x.a.numerator) / x.a.denominator + (
        mpmath.mpf(x.b.numerator) / x.b.denominator
    ) * mpmath.sqrt(x.D)


def mp_cf_value(cf: CFExpansion, unroll: int = 200) -> mpmath.mpf:
    """Evaluate a continued fraction numerically by unrolling the period."""
    mp()
    terms = [cf.partial_quotient(j) for j in range(unroll if cf.period else len(cf.preperiod) + 1)]
    value = mpmath.mpf(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + 1 / value
    return value


def mp_dist_to_nearest(x: mpmath.mpf) -> mpmath.mpf:
    return abs(x - mpmath.nint(x))


def brute_force_psi_table(value: mpmath.mpf, t_max: int) -> list[tuple[int, mpmath.mpf]]:
    """(argmin q, min distance) of ||q*value|| over 1 <= q <= t, for t = 1..t_max."""
    best_q, best = 1, mp_dist_to_nearest(value)
    table = [(1, best)]
    for q in range(2, t_max + 1):
        dist = mp_dist_to_nearest(q * value)
        if dist < best:
            best_q, best = q, dist
        table.append((best_q, best))
    return table


def mp_const(name: str, dps: int = DPS) -> mpmath.mpf:
    mp(dps)
    sqrt5 = mpmath.sqrt(5)
    tau = (sqrt5 + 1) / 2
    phi = (sqrt5 - 1) / 2
    if name == "tau":
        return tau
    if name == "phi":
        return phi
    if name == "K":
        return mpmath.sqrt(tau) - 1
    if name == "C":
        return sqrt5 * (1 - mpmath.sqrt(phi))
    raise ValueError(name)


def c_alt_enclosure(bits: int) -> Interval:
    """The product form of C, K * (sqrt(tau) + tau**(-3/2)), in ``FractionInterval`` arithmetic
    from an enclosure of sqrt(5) rounded out to 2**-bits."""
    t = (fraction_sqrt_interval(FractionInterval.point(5), bits) + 1) * Fraction(1, 2)
    st = fraction_sqrt_interval(t, bits)
    c = (st - 1) * (st + 1 / (t * st))
    return Interval(c.lo, c.hi)


def scaled_int(rendered: str) -> int:
    """The integer a decimal string spells without its point, read in pieces, since one
    int() of a string stops at CPython's 4300-digit limit."""
    sign, digits = (-1, rendered[1:]) if rendered.startswith("-") else (1, rendered)
    digits = digits.replace(".", "")
    n = 0
    for i in range(0, len(digits), 4000):
        piece = digits[i:i + 4000]
        n = n * 10 ** len(piece) + int(piece)
    return sign * n


def mp_rational(text: str) -> mpmath.mpf:
    """mpmath value of a rational printed as n or n/d, at any length."""
    num, _, den = text.partition("/")
    return mpmath.mpf(scaled_int(num)) / scaled_int(den or "1")


_EXACT = re.compile(r"(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)√(\d+))?\Z")


def mp_exact(text: str) -> mpmath.mpf:
    """mpmath value of an exact field element as it prints: a, a+b√D or a-b√D."""
    a, sign, b, D = _EXACT.match(text).groups()
    if b is None:
        return mp_rational(a)
    root = mpmath.sqrt(scaled_int(D))
    return mp_rational(a) + (1 if sign == "+" else -1) * mp_rational(b) * root


def mp_rounded(value: mpmath.mpf, digits: int) -> int:
    """value * 10**digits rounded to the nearest integer, at the working precision."""
    return int(mpmath.nint(value * mpmath.mpf(10) ** digits))


def assert_close(rendered: str, expected: mpmath.mpf, places: int = 9) -> None:
    assert abs(mpmath.mpf(rendered) - expected) < mpmath.mpf(10) ** (-places), (
        rendered,
        str(expected),
    )


def float_uv_search(epsilon: Fraction, limit: int = 10**6) -> tuple[int, int]:
    """Re-derive the deterministic (U, V) search with plain mpmath numerics.

    Mirrors the published search order (U ascending, V nearest) including the
    coprimality, positivity, and non-integral-companion filters, but decides
    every comparison in floating point; used to cross-check the exact search.
    """
    import math

    mp()
    sqrt_tau = mpmath.sqrt(mp_const("tau"))
    phi = mp_const("phi")
    tau = mp_const("tau")
    eps = mpmath.mpf(epsilon.numerator) / epsilon.denominator
    for U in range(limit + 1):
        target = sqrt_tau - U * phi
        V = int(mpmath.nint(target))
        if abs(V + U * phi - sqrt_tau) >= eps:
            continue
        if math.gcd(U, V) != 1:
            continue
        if tau * V + U <= 0:
            continue
        theta = _float_theta(U, V)
        if abs((tau + theta) - mpmath.nint(tau + theta)) < 1e-12:
            continue
        if abs((tau - theta) - mpmath.nint(tau - theta)) < 1e-12:
            continue
        return U, V
    raise AssertionError("float search exhausted")


def exact_uv_search(epsilon: Fraction, limit: int = 10**6):
    """The (U, V) search with no screen: every U is settled in Q(sqrt(5)) by ``QuadExt``
    squarings against tau, about a dozen allocations per U. Same order and filters as
    ``construct_optimal``, and the same ``OptimalPair``, from ``theorems._build_pair``."""
    from psidiff import contfrac, theorems
    from psidiff.exact import PHI, TAU
    from psidiff.numspec import TAU_CF

    def above_sqrt_tau(x: QuadExt) -> bool:
        return x > 0 and x * x > TAU

    for U in range(limit + 1):
        s = U * PHI
        # with m = floor(-s), sqrt(tau) + 1/2 - s lies in [m + 1.77, m + 2.78)
        m = (-s).floor()
        V = m + 1 if above_sqrt_tau(s + m + Fraction(3, 2)) else m + 2
        if (math.gcd(U, V) == 1 and above_sqrt_tau(s + V + epsilon)
                and not above_sqrt_tau(s + V - epsilon)):
            pair = theorems._build_pair(epsilon, U, V)
            if contfrac.is_nonintegral_sum_and_diff(TAU_CF.value(), pair.theta.value()):
                return pair
    raise AssertionError("exact search exhausted")


def screen_constants(one: int) -> tuple[int, int]:
    """(floor(phi*one), floor(sqrt(tau)*one)) for an integer one >= 1, by nested ``isqrt``:
    phi*one = (sqrt(5*one^2) - one)/2, and sqrt(tau)*one = sqrt((one^2 + sqrt(5*one^4))/2)."""
    phi = (math.isqrt(5 * one * one) - one) >> 1
    return phi, math.isqrt(one * one + math.isqrt(5 * one**4) >> 1)


def expand_by_state_table(x: QuadExt) -> CFExpansion:
    """The expansion of an irrational x = (P + sqrt(N))/Q, read off when a (P, Q) state of the
    integer surd recursion repeats, every state kept in a table."""
    N = x.B * x.B * x.D
    P, Q = (x.A, x.Q) if x.B > 0 else (-x.A, -x.Q)
    if (N - P * P) % Q:
        P, N, Q = P * abs(Q), N * Q * Q, Q * abs(Q)
    s = math.isqrt(N)
    quotients: list[int] = []
    seen: dict[tuple[int, int], int] = {}  # (P, Q) after i quotients -> i
    while True:
        a = (P + s + (Q < 0)) // Q
        quotients.append(a)
        P = a * Q - P
        Q = (N - P * P) // Q
        j = seen.setdefault((P, Q), len(quotients))
        if j < len(quotients):
            return CFExpansion(quotients[0], tuple(quotients[1:j]), tuple(quotients[j:]))


def cross_field_compare(x: QuadExt, y: QuadExt) -> int:
    """Sign of x - y for irrational x, y in two fields, as ``QuadExt.compare`` had it.

    x - y = u - v with u = x - y.a in x's field and v = y.b*sqrt(D'); times Q*Q' they
    are a + b*sqrt(D) and c*sqrt(D'). Unlike signs decide at once; a shared sign s gives
    s*sign(u^2 - v^2), one more test in x's field.
    """
    from psidiff.exact import _sign

    a, b, c = x.A * y.Q - y.A * x.Q, x.B * y.Q, y.B * x.Q
    sa, sb, sv = (a > 0) - (a < 0), (b > 0) - (b < 0), (c > 0) - (c < 0)
    aa, bb = a * a, b * b * x.D
    su = (sa or sb) if sa * sb >= 0 else (sa if aa > bb else sb)
    if su != sv:
        return su or -sv
    return su * _sign(aa + bb - c * c * y.D, 2 * a * b, x.D)


def cmp_by_temporaries(x: QuadExt, y: QuadExt, m: int, k: int) -> int:
    """Sign of m*x - m*y - k from the temporaries m*x - k and m*y: ``(m*x - k).compare(m*y)``."""
    return (m * x - k).compare(m * y)


def products_by_temporaries(x: QuadExt, y: QuadExt, u: QuadExt, v: QuadExt) -> int:
    """Sign of x*y - u*v from the temporaries x*y and u*v: ``(x*y).compare(u*v)``."""
    return (x * y).compare(u * v)


def _float_theta(U: int, V: int) -> mpmath.mpf:
    xs = [U, V]
    while len(xs) < 64:
        xs.append(xs[-1] + xs[-2])
    k = next(i for i in range(1, len(xs)) if 1 <= xs[i - 1] < xs[i])
    # b word reversed from X_{k-1}/X_k, then theta = [0; b..., 1, 1, ...]
    num, den = xs[k - 1], xs[k]
    quotients = []
    while den:
        a, rem = divmod(num, den)
        quotients.append(a)
        num, den = den, rem
    if len(quotients) > 1 and quotients[-1] == 1:
        quotients.pop()
        quotients[-1] += 1
    b = list(reversed(quotients[1:]))
    phi = mp_const("phi")
    value = phi  # tail of all-ones block: [1; 1, 1, ...] inverted below
    for a in reversed(b):
        value = 1 / (a + value)
    return value


@dataclass(frozen=True)
class FractionInterval:
    """Closed rational interval [lo, hi] with Fraction endpoints: the reference."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def point(cls, value) -> "FractionInterval":
        return cls(value, value)

    def __add__(self, other):
        o = _as_reference(other)
        return FractionInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_reference(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FractionInterval(-self.hi, -self.lo)

    def __mul__(self, other):
        o = _as_reference(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return FractionInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_reference(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("division by interval containing zero")
        return self * FractionInterval(1 / o.hi, 1 / o.lo)

    def __rtruediv__(self, other):
        return _as_reference(other) / self

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return FractionInterval(Fraction(0), max(-self.lo, self.hi))


def _as_reference(x) -> FractionInterval:
    return x if isinstance(x, FractionInterval) else FractionInterval.point(x)


def _fraction_sqrt(q: Fraction, bits: int) -> FractionInterval:
    if q == 0:
        return FractionInterval.point(0)
    n, d = q.numerator, q.denominator
    scaled = (n * d) << (2 * bits)
    root = math.isqrt(scaled)
    lo = Fraction(root // d, 1 << bits)
    up = root if root * root == scaled else root + 1
    hi = Fraction(-((-up) // d), 1 << bits)
    return FractionInterval(lo, hi)


def fraction_sqrt_interval(x: FractionInterval, bits: int) -> FractionInterval:
    """Enclosure of {sqrt(v) : v in x} rounded out to 2**-bits; x.lo >= 0."""
    return FractionInterval(_fraction_sqrt(x.lo, bits).lo, _fraction_sqrt(x.hi, bits).hi)
