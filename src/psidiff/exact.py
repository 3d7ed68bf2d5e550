"""Exact arithmetic substrate: quadratic-field elements, square roots over them, and intervals.

Rationals are ``fractions.Fraction`` (always canonical: positive denominator,
reduced). ``QuadExt`` is an element (A + B*sqrt(D))/Q of a real quadratic field,
held as integers with Q > 0, gcd(A, B, Q) = 1 and D its field's one radicand in
this process, found without factoring; all field operations are exact integer
arithmetic, and so is the one sign test per level: ``_sign`` of a + b*sqrt(D), and
``_sign2`` of a + b*sqrt(D) + s*sqrt(e + f*sqrt(D)), one squaring into ``_sign``. ``_cmp``,
the sign of m*x - m*y - k for x, y of any two fields (``compare``, and a certificate order
where its brackets straddle), takes one of them and builds no ``QuadExt``. The lemma scans
hold their values ``Bracketed``, (n, hi, x) with n < x*2**GUARD_BITS < hi and n from
``_bracket``, and decide every order, m*y - m*x > k, by one ``_above`` on those integers,
reaching ``_cmp`` only on a straddle: the dichotomy merge, the gap inequality and the gap
point test. ``_branch_sign`` is the dichotomy's identity x = a*y, x's parts against those of
``_product(a, y)``, and the sign of e*e - x*y from the brackets, ``_cmp`` only on a straddle.
``Root`` is a + s*sqrt(w), a and w in one such field and s = +-1: sqrt(tau), the optimal
constant C = sqrt(5) - sqrt(5*phi) and what is built from them; its sign is one ``_sign2``.
One floor per level, floor(m*x) for an integer m >= 1, is exact integer arithmetic too:
``_floor`` of a + b*sqrt(D), by a fixed-point root floor(sqrt(D)*2**K) that ``_root``
caches up to K = ``_ROOT_BITS``, and ``_guarded`` of a sum of two leaf floors (a ``Root``, or
``imf.DValue`` from its parts' floors) at m << GUARD_BITS, with an exact sign test only on
a straddle. ``floor`` takes it at m = 1, a dyadic enclosure at m = 2**(bits + 1), and
``render_decimal`` every decimal at m = 2*10**digits, with no precision to choose; a
``QuadExt`` keeps its last floor in its memo and renders at m = 2*10**digits << GUARD_BITS,
where ``DValue`` reads it. Being immutable, a ``QuadExt`` also keeps its exact ``str`` and its
decimal at the last ``digits``, so a value carried over to the next profile row, or held by
several records, is formatted once. ``Interval`` is a rational enclosure, held as integers
lo_n/den and hi_n/den over one shared denominator that arithmetic never reduces; ``.lo`` and
``.hi`` are ``Fraction`` views. ``refine_compare``, the only precision-refinement loop,
encloses two values from 64 bits, doubling up to ``cap_bits`` and reporting
``Comparison.UNDECIDED`` if they still overlap there. Its one caller, the witness test
|d(t)| >= C*t (``_exceeds_c_times``), refines ``DValue.abs_enclosure`` to ``_witness_bits``,
where they always separate. ``Record`` is the immutable base of the result records.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Union

from .errors import MixedFieldError, UndecidedSignError

RatLike = Union[int, Fraction]
Parts = tuple[int, int, int, int]  # (A, B, Q, D) of (A + B*sqrt(D))/Q, not reduced
Bracketed = tuple[int, int, "QuadExt"]  # (n, hi, x) with n < x*2**GUARD_BITS < hi

DEFAULT_CAP_BITS = 4096
GUARD_BITS = 64  # extra bits of each rendered floor, which a difference of two values reads
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


class Record:
    """Base of the immutable records, whose fields a subclass names in ``__slots__``.

    A record is compared, hashed, pickled and copied as the pair of its class and
    its fields (``__reduce__``), and prints through ``int_repr``; slots named with a
    leading ``_`` are memos, outside all of this. ``__slots__`` is the one list of
    fields. Each subclass gets a constructor ``_init`` generated from them, as ``dataclasses``
    does, which sets each field through its slot's own setter and is the class's ``__init__``
    unless the class writes one. ``QuadExt`` and ``Interval`` share its ``__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        scope = {f"set_{f}": cls.__dict__[f].__set__ for f in fields}
        exec(f"def __init__(self, {', '.join(fields)}):\n"
             + "".join(f" set_{f}(self, {f})\n" for f in fields), scope)
        cls._init = scope["__init__"]
        cls._init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = cls.__dict__.get("__init__", cls._init)

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
    builds its results from integers in the operands' field. The slot ``_memo`` holds
    (m, floor(m*x)) of the last ``_scaled_floor``, and ``_texts`` (str(x), digits, decimal)
    with the ``str`` and the last ``render_decimal`` made, None where not made yet. Both are
    outside ==, hash, repr, pickling and copying; ``_make`` clears them.
    """

    __slots__ = ("A", "B", "Q", "D", "_memo", "_texts")

    def __new__(cls, a: RatLike, b: RatLike, D: int) -> "QuadExt":
        if D <= 0:
            raise ValueError("D must be positive")
        s, f = squarefree_decompose(D)
        if f == 1:
            raise ValueError("D must not be a perfect square")
        a, b = _as_fraction(a), _as_fraction(b) * s
        return _make(a.numerator * b.denominator, b.numerator * a.denominator,
                     a.denominator * b.denominator, f)

    __setattr__ = __delattr__ = Record.__setattr__

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
        A, B, Q, D = _parts(other)
        if B and self.B and D != self.D:
            raise MixedFieldError(f"cannot combine sqrt({self.D}) with sqrt({D})")
        return A, B, Q, D if B else self.D

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
        return _make(*_product(self, other))

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
        """Exact sign of self - other, for a rational or an element of any field: ``_cmp``."""
        return _cmp(self, other)

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
        return _cmp(self, other) < 0

    def __le__(self, other: QuadExt | RatLike) -> bool:
        return _cmp(self, other) <= 0

    def __gt__(self, other: QuadExt | RatLike) -> bool:
        return _cmp(self, other) > 0

    def __ge__(self, other: QuadExt | RatLike) -> bool:
        return _cmp(self, other) >= 0

    # -- conversions ----------------------------------------------------------

    def _scaled_floor(self, m: int) -> int:
        """floor(x * m) for an integer m >= 1 (``_floor``), kept in the memo."""
        memo = self._memo
        if not (memo and memo[0] == m):
            memo = (m, _floor(self.A, self.B, self.Q, self.D, m))
            _SET_MEMO(self, memo)
        return memo[1]

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
        text, digits, decimal = self._texts
        if text is None:
            A, B, Q, D = self.A, self.B, self.Q, self.D
            if (abs(A) | abs(B) | Q | D).bit_length() > _STR_BITS:
                text = _ratio_str(A, Q)
                if B:
                    text += f"{'+-'[B < 0]}{_ratio_str(abs(B), Q)}√{_format_scaled(D, 0)}"
            else:  # ``_ratio_str`` inline, one frame per value
                g = math.gcd(A, Q)
                text = str(A // g) if g == Q else f"{A // g}/{Q // g}"
                if B:
                    g = math.gcd(B, Q)
                    b = str(abs(B) // g) if g == Q else f"{abs(B) // g}/{Q // g}"
                    text = f"{text}{'+-'[B < 0]}{b}√{D}"
            _SET_TEXTS(self, (text, digits, decimal))
        return text

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


_ROOT_BITS = 4096  # the widest cached root; a floor that needs more takes its own isqrt


@lru_cache(maxsize=1024)
def _root(D: int, K: int) -> int:
    """floor(sqrt(D) * 2**K) for K a power of two: the fixed-point root ``_floor`` multiplies by."""
    return math.isqrt(D << 2 * K)


def _floor(A: int, B: int, Q: int, D: int, m: int) -> int:
    """floor(m*(A + B*sqrt(D))/Q) for Q > 0, D no square and an integer m >= 1, in integers.

    With y = N*sqrt(D), N = |B|*m, and r = floor(y), the floor is that of (A*m + r)/Q when
    B >= 0 and of (A*m - r - 1)/Q when B < 0, as y is irrational unless B == 0. r is
    (N*s) >> K with s = ``_root(D, K)`` = floor(sqrt(D)*2**K), K the least power of two with
    K >= 2*bits(N) + ceil(bits(D)/2) + 1, a fixed-point root (Brent and Zimmermann, Modern
    Computer Arithmetic, 1.5). It is exact, with no guard: N*s/2**K lies in (y - N/2**K, y],
    and an integer k <= y lies at least 1/(2y + 1) below y, as y - k = (y*y - k*k)/(y + k)
    and y*y is an integer; N*(2y + 1) < 2**(2*bits(N) + ceil(bits(D)/2) + 1) <= 2**K, so
    no integer lies in the interval but floor(y). Past K = ``_ROOT_BITS`` no root is cached,
    and r is isqrt(N*N*D), so a deep value cannot grow the cache.
    """
    N = abs(B) * m
    K = 1 << (2 * N.bit_length() + (D.bit_length() + 1) // 2).bit_length()
    r = (N * _root(D, K)) >> K if K <= _ROOT_BITS else math.isqrt(N * N * D)
    return (A * m + (r if B >= 0 else -r - 1)) // Q


def _guarded(x: object, m: int) -> int:
    """floor(m*x) for x (a ``Root`` or ``imf.DValue``) whose ``_leaves(M)`` is n, a sum of two
    floors at M = m << GUARD_BITS that is floor(M*x) or one less: floor(m*x) is n >> GUARD_BITS
    unless n + 1 shifts to the next integer k, where the exact ``x._at_least(m, k)``, m*x >= k,
    decides. Methods, not closures: two closures made per call add a fifth to a d(t) floor."""
    n = x._leaves(m << GUARD_BITS)
    j = n >> GUARD_BITS
    if (n + 1) >> GUARD_BITS == j:
        return j
    return j + x._at_least(m, j + 1)


def _sign(a: int, b: int, D: int) -> int:
    """Exact sign of a + b*sqrt(D): that of a and b when they agree, else by a^2 vs b^2*D."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > b * b * D else sb


def _sign2(a: int, b: int, s: int, e: int, f: int, D: int) -> int:
    """Exact sign of u + s*sqrt(w), u = a + b*sqrt(D), w = e + f*sqrt(D) > 0 and s = +-1: s when
    u is 0 or has the sign s, else u's sign times that of u^2 - w, one squaring (Bloemer,
    FOCS 1991), which is 0 only where w is a square in the field."""
    su = _sign(a, b, D)
    if su != -s:
        return s
    return su * _sign(a * a + b * b * D - e, 2 * a * b - f, D)


def _parts(x: QuadExt | RatLike) -> Parts:
    """(A, B, Q, D) of a ``QuadExt``; a rational n/d is (n + 0*sqrt(1))/d; else a TypeError."""
    if type(x) is QuadExt:
        return x.A, x.B, x.Q, x.D
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator, 1
    raise TypeError(f"expected int, Fraction or QuadExt, got {type(x).__name__}")


def _product(x: QuadExt | RatLike, y: QuadExt | RatLike) -> Parts:
    """(A, B, Q, D) of x*y for x and y of one field, or either rational, not reduced."""
    (A, B, Q, D), (E, F, R, Dy) = _parts(x), _parts(y)
    if B and F and D != Dy:
        raise MixedFieldError(f"cannot combine sqrt({D}) with sqrt({Dy})")
    return A * E + B * F * D, A * F + B * E, Q * R, D if B or not F else Dy


def _cmp(x: QuadExt | RatLike, y: QuadExt | RatLike, m: int = 1, k: int = 0) -> int:
    """Exact sign of m*x - m*y - k for x, y rationals or elements of any two fields, an integer
    m >= 1 and an integer k. Times Qx*Qy it is a + b*sqrt(Dx) - c*sqrt(Dy): one
    ``_sign`` when a root is absent or the fields agree, else one ``_sign2``, with w = c*c*Dy,
    never 0, as sqrt(Dy) is not in Q(sqrt(Dx)). It builds no ``QuadExt``."""
    (A, B, Q, D), (E, F, R, Dy) = _parts(x), _parts(y)
    a, b, c = m * (A * R - E * Q) - k * Q * R, m * B * R, m * F * Q
    if not c or D == Dy:
        return _sign(a, b - c, D)
    return _sign2(a, b, -1 if c > 0 else 1, c * c * Dy, 0, D)


def _branch_sign(x: Bracketed, y: Bracketed, a: QuadExt | RatLike, e: Bracketed) -> int | None:
    """Sign of e*e - x*y once x == a*y holds, for x, y, a of one field and e of any, x, y and e
    each an (n, hi, value) with 0 <= n < value*2**GUARD_BITS < hi; None when x != a*y: unequal
    rational or irrational parts, or x over another field. The dichotomy's branch, x, y, a, e =
    1/xi_n, 1/xi_{n-1}, alpha_{n+1}, 1/eta_s: the identity as x's parts against those of
    ``_product(a, y)``, then the sign by the integers when n_e*n_e >= hi_x*hi_y or hi_e*hi_e <=
    n_x*n_y, else, on a straddle only, by one ``_cmp(e*e, x*y)``."""
    (nx, hx, x), (ny, hy, y), (ne, he, e) = x, y, e
    (A, B, Q, D), (E, F, R, Dp) = _parts(x), _product(a, y)
    if A * R != E * Q or B * R != F * Q or B and D != Dp:
        return None
    if ne * ne >= hx * hy:
        return 1
    if he * he <= nx * ny:
        return -1
    return _cmp(e * e, x * y)


def _bracket(q: int, q_prev: int, tail: QuadExt) -> int:
    """n with n < 2**GUARD_BITS*(q*tail + q_prev) < n + q, for q >= 1 and an irrational tail:
    q*floor(2**GUARD_BITS*tail) + (q_prev << GUARD_BITS), the floor kept in the tail's memo."""
    return q * tail._scaled_floor(1 << GUARD_BITS) + (q_prev << GUARD_BITS)


def _above(y: Bracketed, x: Bracketed, m: int = 1, k: int = 0) -> bool:
    """m*Y - m*X > k for y = (n_y, h_y, Y) and x = (n_x, h_x, X), each n < value*2**GUARD_BITS
    < h, an integer m >= 1 and an integer k: 2**GUARD_BITS*(m*Y - m*X) lies in (m*(n_y - h_x),
    m*(h_y - n_x)), and only where that interval holds k*2**GUARD_BITS does the order reach one
    ``_cmp(Y, X, m, k)``. Every order of the lemma certificates."""
    (ny, hy, Y), (nx, hx, X), K = y, x, k << GUARD_BITS
    if m * (ny - hx) >= K:
        return True
    return m * (hy - nx) > K and _cmp(Y, X, m, k) > 0


def _max_ratio(steps: Iterable[tuple[int, QuadExt, QuadExt]]) -> tuple[QuadExt, int]:
    """The maximum of |x - y|/t over (t, x, y) with x, y of one field, and the first t at it:
    a step takes the sign s of (x - y)/t = (E + F*sqrt(D))/R and sets s*(E + F*sqrt(D))/R
    against the maximum (A + B*sqrt(D))/Q in one ``_sign``. The maximum is built at the end."""
    (A, B, Q), arg, D = (0, 0, 1), None, 0
    for t, x, y in steps:
        if x.D != y.D or D and x.D != D:
            other = D if x.D == y.D else y.D
            raise MixedFieldError(f"cannot combine sqrt({x.D}) with sqrt({other})")
        D, E, F, R = x.D, x.A * y.Q - y.A * x.Q, x.B * y.Q - y.B * x.Q, x.Q * y.Q * t
        s = _sign(E, F, D)
        if arg is None or _sign(s * E * Q - A * R, s * F * Q - B * R, D) > 0:
            (A, B, Q), arg = (s * E, s * F, R), t
    return _make(A, B, Q, D), arg


def _make(A: int, B: int, Q: int, D: int) -> QuadExt:
    """(A + B*sqrt(D))/Q reduced to the invariants; Q != 0 and D already its field's radicand."""
    # Q first: it is often far smaller than A and B (q_r * tail at t = 10**30000),
    # and math.gcd skips the remaining arguments once the result is 1
    g = math.gcd(Q, A, B) if Q > 0 else -math.gcd(Q, A, B)
    if g != 1:  # most values come reduced (every 1/psi), and a division is not free
        A, B, Q = A // g, B // g, Q // g
    x = object.__new__(QuadExt)
    _SET_A(x, A)
    _SET_B(x, B)
    _SET_Q(x, Q)
    _SET_D(x, D)
    _SET_MEMO(x, None)
    _SET_TEXTS(x, (None, None, None))
    return x


# the slots' own setters: about twice as fast as object.__setattr__, and not
# reached by the immutable classes' __setattr__
_SET_A, _SET_B, _SET_Q, _SET_D, _SET_MEMO, _SET_TEXTS = (
    QuadExt.__dict__[f].__set__ for f in QuadExt.__slots__)


TAU = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
PHI = QuadExt(Fraction(-1, 2), Fraction(1, 2), 5)
SQRT5 = QuadExt(Fraction(0), Fraction(1), 5)


class Root(Record):
    """a + s*sqrt(w): a rational or a ``QuadExt``, s = +-1, and w > 0 with no square root in
    a's field, so the value is irrational.

    Adding or subtracting an element of a's field moves a, and a positive integer k
    scales a by k and w by k*k. The sign is one ``_sign2`` in integers: with
    a = (A + B*sqrt(D))/Q and w = (E + F*sqrt(D))/R, the value times Q*R is
    R*A + R*B*sqrt(D) + s*sqrt(Q*Q*R*(E + F*sqrt(D))).
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
        (A, B, Q, D), (E, F, R, Dw) = _parts(self.a), _parts(self.w)
        k = Q * Q * R
        return _sign2(R * A, R * B, self.s, k * E, k * F, Dw if F else D)

    def _leaves(self, M: int) -> int:
        """floor(M*a) + floor(s*sqrt(M*M*w)) for ``_guarded``: floor(sqrt(z)) is isqrt(floor(z)),
        and floor(-sqrt(z)) one less than its negative, z being no square."""
        r = math.isqrt(math.floor(self.w * (M * M)))
        return math.floor(self.a * M) + (r if self.s > 0 else -r - 1)

    def _at_least(self, m: int, k: int) -> bool:
        """m*x >= k, formed without dividing by m: a gcd of a huge k and m would cost more."""
        return (self * m - k).sign() >= 0

    _scaled_floor = _guarded  # floor(m*x) for an integer m >= 1


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

    __setattr__ = __delattr__ = Record.__setattr__

    def __reduce__(self):
        return _interval, (self.lo_n, self.hi_n, self.den)

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
    GREATER = "greater"
    UNDECIDED = "undecided"


def refine_compare(lhs: Callable[[int], Interval], rhs: Callable[[int], Interval],
                   cap_bits: int = DEFAULT_CAP_BITS) -> Comparison:
    """Order the values that lhs and rhs enclose, each a map from a bit count to an Interval.

    Both are enclosed at bits = min(64, cap_bits), doubled up to exactly cap_bits and never
    past it, until the two intervals separate; UNDECIDED means they still overlap at the cap,
    which ``_witness_bits`` rules out for the witness test. Exact values need no loop (``_cmp``).
    """
    bits = min(64, cap_bits)
    while True:
        el, er = lhs(bits), rhs(bits)
        if el.hi_n * er.den < er.lo_n * el.den:
            return Comparison.LESS
        if el.lo_n * er.den > er.hi_n * el.den:
            return Comparison.GREATER
        if bits >= cap_bits:
            return Comparison.UNDECIDED
        bits = min(2 * bits, cap_bits)


def _witness_bits(b: QuadExt, a: QuadExt, t: int) -> int:
    """Bits at which the enclosures of |b - a| and C*t, 2**-bits*(1 + t/2) wide together, part
    (Burnikel et al., 2000): y = Qa*Qb*(|b - a| - C*t), an algebraic integer of degree <= 16, is
    not 0 as C has a non-real conjugate, and its conjugates are below H, so |y| >= H**-15."""
    sb, sa = (abs(x.A) + (abs(x.B) << (x.D.bit_length() + 1) // 2) for x in (b, a))
    H = a.Q * sb + b.Q * sa + 6 * a.Q * b.Q * t
    return 15 * H.bit_length() + (a.Q * b.Q * (t + 2)).bit_length()


def _exceeds_c_times(d: Record, t: int) -> bool:
    """|d| >= C*t for an ``imf.DValue`` d and an integer t >= 1, the witness test: never equal,
    so ``refine_compare`` on ``d.abs_enclosure`` capped at ``_witness_bits`` decides it."""
    verdict = refine_compare(d.abs_enclosure, lambda bits: c_enclosure(bits) * t,
                             _witness_bits(d.inv_psi_beta, d.inv_psi_alpha, t))
    if verdict is Comparison.UNDECIDED:  # never: the bound separates them
        raise UndecidedSignError(f"|d(t)| vs C*t undecided at t = {_format_scaled(t, 0)}")
    return verdict is Comparison.GREATER


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


def _read_decimal(text: str) -> int:
    """int(text) for a signed run of ASCII digits, also past CPython's int-to-str limit.

    The inverse of ``_decimal``: past _STR_BITS worth of digits, the run is read in two
    halves, high * 10**k + low. Any other text goes to ``int`` as it is.
    """
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if len(digits) <= _STR_BITS * 3 // 10 or not (digits.isascii() and digits.isdigit()):
        return int(text)
    k = len(digits) // 2
    n = _read_decimal(digits[:-k]) * 10**k + _read_decimal(digits[-k:])
    return -n if body[0] == "-" else n


def _format_scaled(n: int, digits: int) -> str:
    """n / 10**digits as a decimal with ``digits`` places: one ``str`` up to _STR_BITS bits,
    whose ``zfill`` pads after the sign, and ``_decimal``'s split past them."""
    if n.bit_length() <= _STR_BITS:
        text = str(n).zfill(digits + 1 + (n < 0))
    else:
        text = "-" * (n < 0) + _decimal(abs(n), digits + 1)
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, also past the int-to-str limit."""
    g = math.gcd(n, d)
    text = _format_scaled(n // g, 0)
    return text if d == g else f"{text}/{_format_scaled(d // g, 0)}"


def render_decimal(x: object, digits: int = 12) -> str:
    """x correctly rounded to ``digits`` places, ties to even.

    x is a rational, a ``QuadExt``, or a ``Record`` with a scaled floor (a ``Root``, an
    irrational ``imf.DValue``). A rational rounds by integer division. An irrational never
    sits on a tie, so it rounds to (floor(2*x*10**digits) + 1) // 2, from one scaled floor:
    no precision to choose, no cap to reach. A ``QuadExt`` takes it exactly as floor(M*x) >>
    GUARD_BITS, M = 2*10**digits << GUARD_BITS, and keeps floor(M*x) and the decimal: it is
    immutable, so the decimal at the same ``digits`` is the same string, rendered once.
    """
    if type(x) is QuadExt:
        text, held, decimal = x._texts
        if held != digits:
            scale = 10**digits
            if x.B:  # ``_scaled_floor`` inlined: one frame less per rendered 1/psi
                m, memo = 2 * scale << GUARD_BITS, x._memo
                if not (memo and memo[0] == m):
                    memo = (m, _floor(x.A, x.B, x.Q, x.D, m))
                    _SET_MEMO(x, memo)
                n = ((memo[1] >> GUARD_BITS) + 1) // 2
            else:
                n = _round_half_even(x.A * scale, x.Q)
            decimal = _format_scaled(n, digits)
            _SET_TEXTS(x, (text, digits, decimal))
        return decimal
    scale = 10**digits
    if isinstance(x, Record):
        n = (x._scaled_floor(2 * scale) + 1) // 2
    else:
        n = _round_half_even(x.numerator * scale, x.denominator)
    return _format_scaled(n, digits)
