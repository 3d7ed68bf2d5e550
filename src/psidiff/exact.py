"""Exact arithmetic substrate: quadratic-field elements, square roots over them, and intervals.

Rationals are ``fractions.Fraction`` (always canonical: positive denominator,
reduced). ``QuadExt`` is an element (A + B*sqrt(D))/Q of a real quadratic field,
held as integers with Q > 0, gcd(A, B, Q) = 1 and D its field's one radicand in
this process, found without factoring; all field operations and sign tests are
exact integer arithmetic, and ``compare`` orders elements of any two fields by at
most two such sign tests. ``Root`` is a + s*sqrt(w)
with a and w in one such field and s = +-1, the form of sqrt(tau), of the optimal
constant C = sqrt(5) - sqrt(5*phi) and of what is built from them; one squaring
decides its sign. Each kind has one scaled floor, floor(m*x) for an integer m >= 1:
``floor`` takes it at m = 1, a dyadic enclosure at m = 2**(bits + 1), and
``render_decimal`` prints every decimal from it at m = 2*10**digits, with no
precision to choose. ``Interval`` is a rational enclosure, held as integers
lo_n/den and hi_n/den over one shared denominator that arithmetic never reduces;
``.lo`` and ``.hi`` are ``Fraction`` views. ``refine`` is the package's only
precision-refinement loop: it starts at 64 bits, or at ``cap_bits`` when that
is lower, doubles the bits until ``decide`` settles, and reports None once the
attempt at ``cap_bits`` does not; no attempt goes past the cap. Its one caller,
``refine_compare``, reports reaching the cap as ``Comparison.UNDECIDED``; two
exact operands never reach the loop.
``Record`` is the slotted, immutable base of the package's result records.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, TypeVar, Union

from .errors import MixedFieldError

RatLike = Union[int, Fraction]

DEFAULT_CAP_BITS = 4096
_COFACTORS: list[int] = []  # recorded cofactors; a field's first is its radicand


@lru_cache(maxsize=8192)
def squarefree_decompose(n: int) -> tuple[RatLike, int]:
    """Split n > 0 as s*s*f, f this process's radicand of Q(sqrt(n)); returns (s, f).

    Trial division below 1e4 leaves a cofactor c. Two radicands give one field
    exactly when their product is a square, so c is a square, or joins the field
    of the first recorded cofactor g with c*g a square (sqrt(c) = isqrt(c*g)/g *
    sqrt(g), and s may be a Fraction), or is recorded as its field's radicand.
    """
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
    r = math.isqrt(n)
    if r * r == n:
        return s * r, f
    while True:  # scanning again after the append, racing threads agree on the first entry
        for g in _COFACTORS:
            r = math.isqrt(n * g)
            if r * r == n * g:
                return s * Fraction(r, g), f * g
        _COFACTORS.append(n)


def _as_fraction(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QuadExt:
    """Exact, immutable element (A + B*sqrt(D))/Q of Q(sqrt(D)) held as integers.

    Invariants: Q > 0, gcd(A, B, Q) = 1, and D not a square and a fixed point,
    ``squarefree_decompose(D) == (1, D)``: the one radicand of its field in this
    process. D is squarefree when the first cofactor of its field seen is below
    1e12, which has at most two primes above 1e4; only that first radicand can
    leave D the square of a prime above 1e4. A pickled element carries this
    process's D. B == 0 means the element is rational; rationals interoperate with
    any field. ``QuadExt(a, b, D)`` takes rationals a, b and reduces the radicand,
    the one place that does: QuadExt(0, 1, 8) becomes 0 + 2*sqrt(2). Arithmetic
    builds its results from integers in the operands' field.
    """

    __slots__ = ("A", "B", "Q", "D")

    def __new__(cls, a: RatLike, b: RatLike, D: int) -> "QuadExt":
        if D <= 0:
            raise ValueError("D must be positive")
        s, f = squarefree_decompose(D)
        if f == 1:
            raise ValueError("D must not be a perfect square")
        a, b = _as_fraction(a), _as_fraction(b) * s
        return _make(a.numerator * b.denominator, b.numerator * a.denominator,
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

    def _scaled_floor(self, m: int) -> int:
        """floor(x * m) for an integer m >= 1, in integers alone.

        r = isqrt(B^2*D*m^2) is the floor of |B|*m*sqrt(D), which is irrational
        unless B == 0 (D is not a square). So B*m*sqrt(D) lies in [r, r + 1) or
        in (-r - 1, -r), and x*m has the floor of (A*m + r)/Q or (A*m - r - 1)/Q.
        """
        r = math.isqrt(self.B * self.B * self.D * m * m)
        return (self.A * m + (r if self.B >= 0 else -r - 1)) // self.Q

    def floor(self) -> int:
        """Exact integer floor, without enclosures."""
        return self._scaled_floor(1)

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
        return _dyadic(self, bits)

    def __str__(self) -> str:
        a, b = _ratio_str(self.A, self.Q), _ratio_str(abs(self.B), self.Q)
        return a if self.B == 0 else f"{a}{'+-'[self.B < 0]}{b}√{_format_scaled(self.D, 0)}"

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
    """(A + B*sqrt(D))/Q reduced to the invariants; Q != 0 and D already its field's radicand."""
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


class Root(Record):
    """a + s*sqrt(w): a rational or a ``QuadExt``, s = +-1, and w > 0 with no square root in
    a's field, so the value is irrational.

    Adding or subtracting an element of a's field moves a, and a positive integer k
    scales a by k and w by k*k. The sign is ``_sign`` on field elements: unlike signs
    decide at once, else one comparison of a*a with w.
    """

    __slots__ = ("a", "s", "w")

    def __add__(self, x: QuadExt | RatLike) -> "Root":
        return Root(self.a + x, self.s, self.w)

    def __sub__(self, x: QuadExt | RatLike) -> "Root":
        return Root(self.a - x, self.s, self.w)

    def __mul__(self, k: int) -> "Root":
        if k < 1:
            raise ValueError("a Root scales by a positive integer only")
        return Root(self.a * k, self.s, self.w * (k * k))

    def __neg__(self) -> "Root":
        return Root(-self.a, -self.s, self.w)

    def __abs__(self) -> "Root":
        return -self if self.sign() < 0 else self

    def sign(self) -> int:
        return _sign(self.a, self.s, self.w)

    def _scaled_floor(self, m: int) -> int:
        """floor(m*x) for an integer m >= 1.

        n = floor(m*a) + floor(s*sqrt(m*m*w)) is floor(m*x) or one less, as each floor
        drops less than 1; the sign of m*x - (n + 1) settles which. It is formed without
        dividing by m: a gcd of a huge n and m would cost more than the rest.
        floor(sqrt(z)) is isqrt(floor(z)), and floor(-sqrt(z)) one less than its
        negative, z being no square.
        """
        am, w = self.a * m, self.w * (m * m)
        r = math.isqrt(math.floor(w))
        n = math.floor(am) + (r if self.s > 0 else -r - 1)
        return n + (_sign(am - (n + 1), self.s, w) >= 0)


C = Root(SQRT5, -1, 5 * PHI)  # sqrt(5) * (1 - sqrt(phi)); 5*phi has norm -25, no square
SQRT_TAU = Root(0, 1, TAU)


class Interval:
    """Closed rational interval [lo_n/den, hi_n/den], den > 0 and never reduced.

    ``Interval(lo, hi)`` takes rationals; ``lo`` and ``hi`` are Fraction views. Its
    operations are those that enclose |d(t)| and C*t for ``refine_compare``: the
    difference of two intervals, negation, ``abs`` and scaling by a rational.
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

    def __sub__(self, other: "Interval") -> "Interval":
        if other.den == self.den:
            return _interval(self.lo_n - other.hi_n, self.hi_n - other.lo_n, self.den)
        return _interval(self.lo_n * other.den - other.hi_n * self.den,
                         self.hi_n * other.den - other.lo_n * self.den, self.den * other.den)

    def __neg__(self) -> "Interval":
        return _interval(-self.hi_n, -self.lo_n, self.den)

    def __mul__(self, k: RatLike) -> "Interval":
        """The interval scaled by a rational k: the numerators scale, and swap when k < 0."""
        k = _as_fraction(k)
        lo, hi = self.lo_n * k.numerator, self.hi_n * k.numerator
        return _interval(*((lo, hi) if k >= 0 else (hi, lo)), self.den * k.denominator)

    def __abs__(self) -> "Interval":
        if self.lo_n >= 0:
            return self
        if self.hi_n <= 0:
            return -self
        return _interval(0, max(-self.lo_n, self.hi_n), self.den)

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


def _dyadic(x: QuadExt | Root, bits: int) -> Interval:
    """[n, n + 1] / 2**(bits + 1) with n = floor(x * 2**(bits + 1)), of width 2**-(bits + 1)."""
    n = x._scaled_floor(2 << bits)
    return _interval(n, n + 1, 2 << bits)


@lru_cache(maxsize=64)
def c_enclosure(bits: int) -> Interval:
    """The dyadic enclosure of C; cached, as the witness test asks for a few bit counts only."""
    return _dyadic(C, bits)


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


# -- decimal rendering --------------------------------------------------------


def _round_half_even(n: int, d: int) -> int:
    """n/d rounded to the nearest integer, ties to even, for d > 0."""
    q, r = divmod(n, d)
    return q + (2 * r > d or (2 * r == d and q & 1))


_STR_BITS = 2000  # below 640 digits, which no int-to-str limit may reach (sys.int_info)


def _decimal(n: int, width: int) -> str:
    """The digits of n >= 0, zero-padded to ``width``.

    Past _STR_BITS, n splits at a power of ten about half its length, so that no part
    reaches CPython's int-to-str limit (Brent and Zimmermann, Modern Computer
    Arithmetic, 1.7). The high half's pad can run out, hence the guard at 0.
    """
    if n.bit_length() <= _STR_BITS:
        return str(n).zfill(width)
    k = n.bit_length() * 3 // 20  # log10(2) is about 3/10
    high, low = divmod(n, 10**k)
    return _decimal(high, max(width - k, 0)) + _decimal(low, k)


def _format_scaled(n: int, digits: int) -> str:
    """n / 10**digits as a decimal with ``digits`` places."""
    sign = "-" if n < 0 else ""
    text = _decimal(abs(n), digits + 1)
    if digits == 0:
        return f"{sign}{text}"
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, also past the int-to-str limit."""
    g = math.gcd(n, d)
    text = _format_scaled(n // g, 0)
    return text if d == g else f"{text}/{_format_scaled(d // g, 0)}"


def render_decimal(x: object, digits: int = 12) -> str:
    """x correctly rounded to ``digits`` places, ties to even.

    x is a rational, a ``QuadExt``, a ``Root``, or another exact value with a scaled
    floor (a cross-field ``imf.DValue``). A rational rounds by integer division. An
    irrational never sits on a tie, so it rounds to (floor(2*x*10**digits) + 1) // 2,
    from one scaled floor: no precision to choose, no cap to reach.
    """
    scale = 10**digits
    if isinstance(x, QuadExt) and x.B == 0:
        x = x.a
    if isinstance(x, (int, Fraction)):
        n = _round_half_even(x.numerator * scale, x.denominator)
    else:
        n = (x._scaled_floor(2 * scale) + 1) // 2
    return _format_scaled(n, digits)
