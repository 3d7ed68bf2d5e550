"""Exact arithmetic substrate: quadratic-field elements and rational intervals.

Rationals are ``fractions.Fraction`` (always canonical: positive denominator,
reduced). ``QuadExt`` is an element (A + B*sqrt(D))/Q of a real quadratic field,
held as integers with Q > 0, gcd(A, B, Q) = 1 and D squarefree; all field
operations and sign tests are exact integer arithmetic, and ``compare`` orders
elements of any two fields by at most two such sign tests. Its floor and its
dyadic enclosures come from one scaled floor, floor(x * 2**k) = (A*2**k + r)//Q
with r from isqrt(B^2*D*4**k), at k = 0 and at k = bits + 1 respectively.
``Interval`` is a rational enclosure used for quantities that are not quadratic
numbers (sqrt(tau), the optimal constant C, ...), held as integers lo_n/den and
hi_n/den over one shared denominator that arithmetic never reduces; ``.lo`` and
``.hi`` are ``Fraction`` views. It carries no working precision, so whoever
builds one passes the bits. ``refine`` is the package's only
precision-refinement loop: it starts at 64 bits, or at ``cap_bits`` when that
is lower, doubles the bits until ``decide`` settles, and reports None once the
attempt at ``cap_bits`` does not; no attempt goes past the cap.
Every caller passes a cap; ``refine_compare`` reports reaching it as
``Comparison.UNDECIDED``, the other callers raise ``UndecidedSignError``. Two
exact operands never reach the loop: the cap bounds rendering and enclosures.
``Record`` is the slotted, immutable base of the package's result records.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, TypeVar, Union

from .errors import MixedFieldError, NegativeArgumentError, UndecidedSignError

RatLike = Union[int, Fraction]

DEFAULT_CAP_BITS = 4096


@lru_cache(maxsize=8192)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split n > 0 as s*s*f with f squarefree; returns (s, f)."""
    if n <= 0:
        raise ValueError("positive integer required")
    s, f = 1, 1
    # 2 and the odd numbers below 1e4: a composite never divides once its primes are gone
    for p in itertools.chain((2,), range(3, 10_000, 2)):
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            s *= p ** (e // 2)
            if e % 2:
                f *= p
    if n > 1:
        r = math.isqrt(n)
        if r * r == n:
            s *= r
        elif n < 10**8:
            # no prime factor <= 1e4 remains, so n < 1e8 has no square divisor
            f *= n
        else:
            from sympy import factorint  # rare: large cofactor with unknown structure

            for p, e in factorint(n).items():
                s *= p ** (e // 2)
                if e % 2:
                    f *= p
    return s, f


def _as_fraction(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QuadExt:
    """Exact, immutable element (A + B*sqrt(D))/Q of Q(sqrt(D)) held as integers.

    Invariants: Q > 0, gcd(A, B, Q) = 1, D squarefree and not a square. B == 0
    means the element is rational; rationals interoperate with any field.
    ``QuadExt(a, b, D)`` takes rationals a, b and reduces the radicand, the one
    place that does: QuadExt(0, 1, 8) becomes 0 + 2*sqrt(2). Arithmetic builds
    its results from integers in the operands' field.
    """

    __slots__ = ("A", "B", "Q", "D")

    def __new__(cls, a: RatLike, b: RatLike, D: int) -> "QuadExt":
        a, b = _as_fraction(a), _as_fraction(b)
        if D <= 0:
            raise ValueError("D must be positive")
        s, f = squarefree_decompose(D)
        if f == 1:
            raise ValueError("D must not be a perfect square")
        return _make(a.numerator * b.denominator, s * b.numerator * a.denominator,
                     a.denominator * b.denominator, f)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError("QuadExt is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _make, (self.A, self.B, self.Q, self.D)

    # -- field bookkeeping -------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.Q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.Q)

    @property
    def is_rational(self) -> bool:
        return self.B == 0

    def _join(self, other: QuadExt | RatLike) -> tuple[int, int, int, int]:
        """(A, B, Q) of other and the D of the field it shares with self."""
        if isinstance(other, QuadExt):
            if other.D == self.D or other.B == 0:
                return other.A, other.B, other.Q, self.D
            if self.B == 0:
                return other.A, other.B, other.Q, other.D
            raise MixedFieldError(f"cannot combine sqrt({self.D}) with sqrt({other.D})")
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator, self.D
        raise TypeError(f"expected int, Fraction or QuadExt, got {type(other).__name__}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: QuadExt | RatLike) -> "QuadExt":
        A, B, Q, D = self._join(other)
        return _make(self.A * Q + A * self.Q, self.B * Q + B * self.Q, self.Q * Q, D)

    __radd__ = __add__

    def __sub__(self, other: QuadExt | RatLike) -> "QuadExt":
        A, B, Q, D = self._join(other)
        return _make(self.A * Q - A * self.Q, self.B * Q - B * self.Q, self.Q * Q, D)

    def __rsub__(self, other: QuadExt | RatLike) -> "QuadExt":
        return -(self - other)

    def __neg__(self) -> "QuadExt":
        return _make(-self.A, -self.B, self.Q, self.D)

    def __mul__(self, other: QuadExt | RatLike) -> "QuadExt":
        A, B, Q, D = self._join(other)
        return _make(self.A * A + self.B * B * D, self.A * B + self.B * A, self.Q * Q, D)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        """Q(A - B*sqrt(D)) / (A^2 - B^2*D); the norm vanishes only at zero."""
        n = self.A * self.A - self.B * self.B * self.D
        if n == 0:
            raise ZeroDivisionError("inverse of zero quadratic element")
        return _make(self.Q * self.A, -self.Q * self.B, n, self.D)

    def __truediv__(self, other: QuadExt | RatLike) -> "QuadExt":
        return self * _make(*self._join(other)).inverse()

    def __rtruediv__(self, other: QuadExt | RatLike) -> "QuadExt":
        return self.inverse() * other

    def __abs__(self) -> "QuadExt":
        return -self if self.sign() < 0 else self

    # -- exact order --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign: that of A and B when they agree, else compares A^2 with B^2*D."""
        return _sign(self.A, self.B, self.D)

    def compare(self, other: QuadExt | RatLike) -> int:
        """Exact sign of self - other, for a rational or an element of any field.

        Across fields, self - other = u - v with u = self - A'/Q' in self's field and
        v = B'*sqrt(D')/Q'; times Q*Q' they are a + b*sqrt(D) and c*sqrt(D'). Unlike
        signs decide at once; a shared sign s gives s*sign(u^2 - v^2), one more test in
        self's field. Never 0 there: sqrt(D') is not in Q(sqrt(D)).
        """
        if not isinstance(other, QuadExt) or other.B == 0 or self.B == 0 or other.D == self.D:
            return (self - other).sign()
        a, b, c = self.A * other.Q - other.A * self.Q, self.B * other.Q, other.B * self.Q
        sa, sb, sv = (a > 0) - (a < 0), (b > 0) - (b < 0), (c > 0) - (c < 0)
        aa, bb = a * a, b * b * self.D  # both tests below read them
        su = (sa or sb) if sa * sb >= 0 else (sa if aa > bb else sb)
        if su != sv:
            return su or -sv
        return su * _sign(aa + bb - c * c * other.D, 2 * a * b, self.D)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadExt):
            return (self.A == other.A and self.B == other.B and self.Q == other.Q
                    and (self.B == 0 or self.D == other.D))
        if isinstance(other, (int, Fraction)):
            return self.B == 0 and self.A == other.numerator and self.Q == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        if self.B == 0:
            return hash(self.a)
        return hash((self.A, self.B, self.Q, self.D))

    def __lt__(self, other: QuadExt | RatLike) -> bool:
        return self.compare(other) < 0

    def __le__(self, other: QuadExt | RatLike) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: QuadExt | RatLike) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: QuadExt | RatLike) -> bool:
        return self.compare(other) >= 0

    # -- conversions ----------------------------------------------------------

    def _scaled_floor(self, k: int) -> int:
        """floor(x * 2**k) for k >= 0, in integers alone.

        r = isqrt(B^2*D*4^k) is the floor of |B|*2^k*sqrt(D), which is irrational
        unless B == 0 (D is not a square). So B*2^k*sqrt(D) lies in [r, r + 1) or
        in (-r - 1, -r), and x*2^k has the floor of (A*2^k + r)/Q or (A*2^k - r - 1)/Q.
        """
        r = math.isqrt(self.B * self.B * self.D << 2 * k)
        return ((self.A << k) + (r if self.B >= 0 else -r - 1)) // self.Q

    def floor(self) -> int:
        """Exact integer floor, without enclosures."""
        return self._scaled_floor(0)

    __floor__ = floor

    def nearest_int(self) -> int:
        f = self.floor()
        return f + 1 if self - f > Fraction(1, 2) else f

    def dist_to_nearest_int(self) -> "QuadExt":
        """||x||: exact distance to the nearest integer."""
        return abs(self - self.nearest_int())

    def enclosure(self, bits: int) -> "Interval":
        """Rational enclosure of width <= 2**-bits: a point for a rational, else
        the dyadic [n, n + 1] / 2**(bits + 1) with n = floor(x * 2**(bits + 1))."""
        if self.B == 0:
            return _interval(self.A, self.A, self.Q)
        n = self._scaled_floor(bits + 1)
        return _interval(n, n + 1, 2 << bits)

    def __str__(self) -> str:
        if self.B == 0:
            return str(self.a)
        sign = "+" if self.B >= 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}√{self.D}"

    def __repr__(self) -> str:
        return f"QuadExt({int_repr(self.a)}, {int_repr(self.b)}, {self.D})"


def int_repr(x: object) -> str:
    """repr(x), but an int past ``sys.get_int_max_str_digits()`` in hex, which has no limit,
    also inside a tuple or as a part of a Fraction."""
    try:
        return repr(x)
    except ValueError:
        if isinstance(x, tuple):
            return f"({', '.join(map(int_repr, x))}{',' * (len(x) == 1)})"
        if isinstance(x, Fraction):
            return f"Fraction({int_repr(x.numerator)}, {int_repr(x.denominator)})"
        return hex(x)


class Record:
    """Base of the immutable records, whose fields a subclass names in ``__slots__``.

    A record is compared, hashed, pickled and copied as the pair of its class and
    its fields (``__reduce__``), and prints through ``int_repr``; slots named with a
    leading ``_`` are memos, outside all of this. ``__slots__`` is the one list of
    fields. ``__init__`` takes them in order, the later ones also by name; records
    built at every step of a walk call ``_setters`` directly.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        cls._setters = tuple(cls.__dict__[f].__set__ for f in cls._fields)

    def __init__(self, *values: object, **named: object) -> None:
        if named:
            values += tuple(named.pop(f) for f in self._fields[len(values):] if f in named)
        if named or len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        parts = (f"{f}={int_repr(getattr(self, f))}" for f in self._fields)
        return f"{type(self).__name__}({', '.join(parts)})"


def _sign(a: int, b: int, D: int) -> int:
    """Exact sign of a + b*sqrt(D): that of a and b when they agree, else by a^2 vs b^2*D."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > b * b * D else sb


def _make(A: int, B: int, Q: int, D: int) -> QuadExt:
    """(A + B*sqrt(D))/Q reduced to the invariants; Q != 0 and D already squarefree."""
    # Q first: it is often far smaller than A and B (q_r * tail at t = 10**30000),
    # and math.gcd skips the remaining arguments once the result is 1
    g = math.gcd(Q, A, B) if Q > 0 else -math.gcd(Q, A, B)
    x = object.__new__(QuadExt)
    _SET_A(x, A // g)
    _SET_B(x, B // g)
    _SET_Q(x, Q // g)
    _SET_D(x, D)
    return x


# the slots' own setters: about twice as fast as object.__setattr__, and not
# reached by the immutable classes' __setattr__
_SET_A, _SET_B, _SET_Q, _SET_D = (QuadExt.__dict__[f].__set__ for f in QuadExt.__slots__)


TAU = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
PHI = QuadExt(Fraction(-1, 2), Fraction(1, 2), 5)
SQRT5 = QuadExt(Fraction(0), Fraction(1), 5)


class Interval:
    """Closed rational interval [lo_n/den, hi_n/den], den > 0 and never reduced.

    ``Interval(lo, hi)`` takes rationals; ``lo`` and ``hi`` are Fraction views.
    """

    __slots__ = ("lo_n", "hi_n", "den")

    def __new__(cls, lo: RatLike, hi: RatLike) -> "Interval":
        lo, hi = _as_fraction(lo), _as_fraction(hi)
        return _interval(lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                         lo.denominator * hi.denominator)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError("Interval is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _interval, (self.lo_n, self.hi_n, self.den)

    @classmethod
    def point(cls, value: RatLike) -> "Interval":
        v = _as_fraction(value)
        return _interval(v.numerator, v.numerator, v.denominator)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_n, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_n, self.den)

    @property
    def width(self) -> Fraction:
        return Fraction(self.hi_n - self.lo_n, self.den)

    def midpoint(self) -> Fraction:
        return Fraction(self.lo_n + self.hi_n, 2 * self.den)

    def contains(self, value: RatLike) -> bool:
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.lo_n * other.den == other.lo_n * self.den
                and self.hi_n * other.den == other.hi_n * self.den)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def _plus(self, lo: int, hi: int, den: int) -> "Interval":
        if den == self.den:
            return _interval(self.lo_n + lo, self.hi_n + hi, den)
        return _interval(self.lo_n * den + lo * self.den, self.hi_n * den + hi * self.den,
                         self.den * den)

    def __add__(self, other: "Interval | RatLike") -> "Interval":
        return self._plus(*_parts(other))

    __radd__ = __add__

    def __sub__(self, other: "Interval | RatLike") -> "Interval":
        lo, hi, den = _parts(other)
        return self._plus(-hi, -lo, den)

    def __rsub__(self, other: "Interval | RatLike") -> "Interval":
        return (-self)._plus(*_parts(other))

    def __neg__(self) -> "Interval":
        return _interval(-self.hi_n, -self.lo_n, self.den)

    def __mul__(self, other: "Interval | RatLike") -> "Interval":
        lo, hi, den = _parts(other)
        if lo == hi:  # a rational scales the numerators
            ends = (self.lo_n * lo, self.hi_n * lo) if lo >= 0 else (self.hi_n * lo, self.lo_n * lo)
        elif self.lo_n >= 0 and lo >= 0:  # nonnegative factors: the ends multiply
            ends = (self.lo_n * lo, self.hi_n * hi)
        else:
            products = (self.lo_n * lo, self.lo_n * hi, self.hi_n * lo, self.hi_n * hi)
            ends = (min(products), max(products))
        return _interval(*ends, self.den * den)

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | RatLike") -> "Interval":
        lo, hi, den = _parts(other)
        if lo <= 0 <= hi:
            raise ZeroDivisionError("division by interval containing zero")
        return self * _interval(den * lo, den * hi, lo * hi)  # [den/hi, den/lo]

    def __rtruediv__(self, other: "Interval | RatLike") -> "Interval":
        return _interval(*_parts(other)) / self

    def __abs__(self) -> "Interval":
        if self.lo_n >= 0:
            return self
        if self.hi_n <= 0:
            return -self
        return _interval(0, max(-self.lo_n, self.hi_n), self.den)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    def __repr__(self) -> str:
        return f"Interval({int_repr(self.lo)}, {int_repr(self.hi)})"


def _interval(lo_n: int, hi_n: int, den: int) -> Interval:
    """[lo_n/den, hi_n/den] for den > 0; every path to an Interval checks the order here."""
    if lo_n > hi_n:
        raise ValueError("interval endpoints out of order")
    x = object.__new__(Interval)
    _SET_LO(x, lo_n)
    _SET_HI(x, hi_n)
    _SET_DEN(x, den)
    return x


_SET_LO, _SET_HI, _SET_DEN = (Interval.__dict__[f].__set__ for f in Interval.__slots__)


def _parts(x: "Interval | RatLike") -> tuple[int, int, int]:
    if isinstance(x, Interval):
        return x.lo_n, x.hi_n, x.den
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.numerator, x.denominator
    raise TypeError(f"expected int, Fraction or Interval, got {type(x).__name__}")


def sqrt_interval(x: Interval, bits: int) -> Interval:
    """Enclosure of {sqrt(v) : v in x}, endpoints rounded out to 2**-bits; requires x.lo >= 0.

    An integer m is at most sqrt(y) exactly when m*m <= floor(y), so the ends are
    isqrt(floor(lo * 4**bits)) and the integer ceiling of sqrt(ceil(hi * 4**bits)).
    """
    if x.lo_n < 0:
        raise NegativeArgumentError("square root of an interval reaching below zero")
    up = -((-x.hi_n << 2 * bits) // x.den)
    root = math.isqrt(up)
    return _interval(math.isqrt((x.lo_n << 2 * bits) // x.den),
                     root if root * root == up else root + 1, 1 << bits)


class Comparison(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNDECIDED = "undecided"


# Anything comparable: exact values, fixed intervals, or enclosure generators
# mapping a bit count to an Interval.
Enclosable = Union[int, Fraction, QuadExt, Interval, Callable[[int], Interval]]


def enclosure_of(x: Enclosable, bits: int) -> Interval:
    if callable(x):  # no value type is callable
        return x(bits)
    if isinstance(x, QuadExt):
        return x.enclosure(bits)
    if isinstance(x, Interval):
        return x
    if isinstance(x, (int, Fraction)):
        return Interval.point(x)
    raise TypeError(f"cannot form an enclosure of {type(x).__name__}")


def _exact_operand(x: Enclosable) -> QuadExt | None:
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, (int, Fraction)):
        return _make(x.numerator, 0, x.denominator, 2)
    return None


E, T = TypeVar("E"), TypeVar("T")


def refine(make: Callable[[int], E], decide: Callable[[E], T | None], cap_bits: int) -> T | None:
    """First non-None decide(make(bits)) for bits = min(64, cap_bits), doubled up to
    exactly cap_bits and never past it; None means the attempt at cap_bits was undecided too."""
    bits = min(64, cap_bits)
    while True:
        verdict = decide(make(bits))
        if verdict is not None:
            return verdict
        if bits >= cap_bits:
            return None
        bits = min(2 * bits, cap_bits)


def refine_compare(lhs: Enclosable, rhs: Enclosable,
                   cap_bits: int = DEFAULT_CAP_BITS) -> Comparison:
    """Decide lhs vs rhs, exactly when both are rationals or quadratic numbers.

    Two exact operands, of any fields, go to ``QuadExt.compare``, which is the
    only way EQUAL can be returned. Otherwise (a callable or an ``Interval`` on
    either side) both sides are enclosed at doubling precision from 64 bits until
    the intervals separate; UNDECIDED means the cap was reached with the
    intervals still overlapping.
    """
    xl, xr = _exact_operand(lhs), _exact_operand(rhs)
    if xl is not None and xr is not None:
        return (Comparison.LESS, Comparison.EQUAL, Comparison.GREATER)[xl.compare(xr) + 1]

    def separate(pair: tuple[Interval, Interval]) -> Comparison | None:
        el, er = pair
        if el.hi_n * er.den < er.lo_n * el.den:
            return Comparison.LESS
        if el.lo_n * er.den > er.hi_n * el.den:
            return Comparison.GREATER
        return None

    verdict = refine(lambda bits: (enclosure_of(lhs, bits), enclosure_of(rhs, bits)),
                     separate, cap_bits)
    return Comparison.UNDECIDED if verdict is None else verdict


# -- sqrt(tau) and C, of degree 4 --------------------------------------------


def sqrt_tau_enclosure(bits: int) -> Interval:
    return sqrt_interval(TAU.enclosure(bits), bits)


def c_enclosure(bits: int) -> Interval:
    """C = sqrt(5) * (1 - sqrt(phi))."""
    return SQRT5.enclosure(bits) * (1 - sqrt_interval(PHI.enclosure(bits), bits))


# -- decimal rendering --------------------------------------------------------


def _round_half_even(n: int, d: int) -> int:
    """n/d rounded to the nearest integer, ties to even, for d > 0."""
    q, r = divmod(n, d)
    return q + (2 * r > d or (2 * r == d and q & 1))


def _format_scaled(n: int, digits: int) -> str:
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def render_decimal(x: Enclosable, digits: int = 12, cap_bits: int = DEFAULT_CAP_BITS) -> str:
    """Correctly rounded decimal string with ``digits`` places (ties to even).

    A rational's enclosure is a point, which rounds exactly at the first
    attempt; irrational values are refined until both enclosure endpoints round
    to the same string. An irrational never sits on a rounding boundary, so
    reaching ``cap_bits`` first means the cap is too small for ``digits``
    places, which raises ``UndecidedSignError``.
    """
    return _render(x, digits, cap_bits, _round_half_even)


def render_decimal_down(x: Enclosable, digits: int = 12,
                        cap_bits: int = DEFAULT_CAP_BITS) -> str:
    """Like ``render_decimal`` but rounded down: the largest ``digits``-place decimal <= x."""
    return _render(x, digits, cap_bits, operator.floordiv)


def _render(x: Enclosable, digits: int, cap_bits: int,
            round_int: Callable[[int, int], int]) -> str:
    scale = 10**digits

    def rounded(enc: Interval) -> int | None:
        lo = round_int(enc.lo_n * scale, enc.den)
        return lo if lo == round_int(enc.hi_n * scale, enc.den) else None

    n = refine(lambda bits: enclosure_of(x, bits), rounded, cap_bits)
    if n is None:
        raise UndecidedSignError(f"cannot round to {digits} digits within {cap_bits} bits; "
                                 "a larger precision cap may settle it")
    return _format_scaled(n, digits)
