"""Continued fractions of rationals and quadratic surds.

Conventions fixed throughout the package: q_{-1} = 0, q_0 = 1, partial
quotients a_j >= 1 for j >= 1, and canonical rational expansions end with a
quotient >= 2 unless the expansion is a single integer. Surd expansions are
produced by the (P, Q) state recursion, whose first repeated state yields the
preperiod and the minimal period.

Convergents come from one in-order stream, ``convergent_stream``, one
recurrence step each. It starts at index 0 (``convergents``) or, seeded with a
state from the ladder, at any index; ``imf`` seeds every walk at its lower end
with one ladder lookup per number (``last_convergent_at_most`` by bound,
``convergent_state`` by index). The ladder is built lazily per expansion: the
states ``(p_n, p_{n-1}, q_n, q_{n-1})`` of the preperiod, and the squared period
matrices ``M, M^2, M^4, ...`` of the 2x2 matrix view of continued fractions
(Gosper, HAKMEM item 101), extended only on demand. A query costs O(log n)
2x2 products plus at most one period of single recurrence steps; rational
expansions bisect the preperiod states.
The ladder never stores a table of convergents: past the preperiod it holds
only the squared powers, whose sizes double, so its memory is O(bits of the
largest q reached), about twice the bits of the largest t queried.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, islice
from typing import Iterator, Sequence

from .errors import RationalInputError
from .exact import QuadExt, Record


class CFExpansion(Record):
    """Continued fraction [a0; preperiod..., (period...)].

    An empty period means the value is rational; a nonempty period repeats
    forever, so the value is a quadratic irrational. The value and the
    convergent ladder are memoized in the slots ``_value`` and ``_ladder``,
    unset until first use.
    """

    __slots__ = ("a0", "preperiod", "period", "_value", "_ladder")

    def __init__(self, a0: int, preperiod: Sequence[int] = (), period: Sequence[int] = ()) -> None:
        preperiod, period = tuple(preperiod), tuple(period)
        if any(a < 1 for a in (*preperiod, *period)):
            raise ValueError("partial quotients after a0 must be >= 1")
        if not period and len(preperiod) >= 1 and preperiod[-1] < 2:
            raise ValueError("canonical rational expansion must end with a quotient >= 2")
        Record.__init__(self, a0, preperiod, period)

    @property
    def is_rational(self) -> bool:
        return not self.period

    def partial_quotient(self, j: int) -> int:
        """a_j for any j >= 0, unrolling the period."""
        if j < 0:
            raise IndexError("quotient index must be >= 0")
        if j == 0:
            return self.a0
        k = len(self.preperiod)
        if j <= k:
            return self.preperiod[j - 1]
        if not self.period:
            raise IndexError(f"rational expansion has no quotient a_{j}")
        return self.period[(j - k - 1) % len(self.period)]

    def quotients(self, start: int = 0) -> Iterator[int]:
        """a_start, a_start+1, ...: an infinite stream for irrational values.

        The stream starts by slicing the preperiod or rotating the period, not by
        skipping quotients.
        """
        head = (self.a0, *self.preperiod)
        yield from head[start:]
        if self.period:
            offset = max(start - len(head), 0) % len(self.period)
            yield from self.period[offset:]
            while True:
                yield from self.period

    def value(self) -> QuadExt | Fraction:
        """Exact value: a Fraction when rational, a QuadExt otherwise (memoized)."""
        cached = getattr(self, "_value", None)
        if cached is None:
            p, p_prev, q, q_prev = _ladder(self).prefix[-1]
            if self.is_rational:
                cached = Fraction(p, q)
            else:
                omega = _period_tail(self.period, 0)
                cached = (p * omega + p_prev) / (q * omega + q_prev)
            object.__setattr__(self, "_value", cached)
        return cached

    def __str__(self) -> str:
        parts = [",".join(map(str, self.preperiod))] if self.preperiod else []
        if self.period:
            parts.append("(" + ",".join(map(str, self.period)) + ")")
        if not parts:
            return f"[{self.a0}]"
        return f"[{self.a0};{','.join(parts)}]"


class Convergent(Record):
    """The n-th convergent p/q, with its index n."""

    __slots__ = ("index", "p", "q")

    def __init__(self, index: int, p: int, q: int) -> None:
        set_index, set_p, set_q = self._setters
        set_index(self, index)
        set_p(self, p)
        set_q(self, q)


def rational_to_cf(num: int, den: int) -> CFExpansion:
    """Canonical finite expansion of num/den (last quotient >= 2 unless length 1)."""
    if den < 1:
        raise ValueError("denominator must be positive")
    g = math.gcd(num, den)
    num, den = num // g, den // g
    quotients = []
    while den:
        a, rem = divmod(num, den)
        quotients.append(a)
        num, den = den, rem
    if len(quotients) > 1 and quotients[-1] == 1:
        quotients.pop()
        quotients[-1] += 1
    return CFExpansion(quotients[0], tuple(quotients[1:]))


def expand_quadratic(x: QuadExt) -> CFExpansion:
    """Eventually periodic expansion of an irrational quadratic element.

    Writes x = (P + sqrt(N))/Q with Q | N - P^2 and runs the integer surd
    recursion; the expansion is read off when a (P, Q) state repeats.
    """
    if x.is_rational:
        raise RationalInputError("expansion of a rational via expand_quadratic")
    N = x.B * x.B * x.D
    P, Q = (x.A, x.Q) if x.B > 0 else (-x.A, -x.Q)
    if (N - P * P) % Q:
        P *= abs(Q)
        N *= Q * Q
        Q *= abs(Q)
    s = math.isqrt(N)
    quotients: list[int] = []
    seen: dict[tuple[int, int], int] = {}  # (P, Q) after i quotients -> i
    while True:
        a = (P + s + (Q < 0)) // Q  # floor((P + sqrt(N))/Q), as sqrt(N) is no integer
        quotients.append(a)
        P = a * Q - P
        Q = (N - P * P) // Q
        j = seen.setdefault((P, Q), len(quotients))
        if j < len(quotients):
            return CFExpansion(quotients[0], tuple(quotients[1:j]), tuple(quotients[j:]))


State = tuple[int, int, int, int]
"""(p_n, p_{n-1}, q_n, q_{n-1}): the matrix [[p_n, p_{n-1}], [q_n, q_{n-1}]], row by row."""


def _mul(x: State, y: State) -> State:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _q_of_product(x: State, y: State) -> int:
    """The q entry of _mul(x, y), without the other three."""
    return x[2] * y[0] + x[3] * y[2]


def _step(s: State, a: int) -> State:
    """Advance one index: right-multiply by [[a, 1], [1, 0]]."""
    p, p_prev, q, q_prev = s
    return (a * p + p_prev, p, a * q + q_prev, q)


def _fold(word: Sequence[int]) -> State:
    """The product of [[a, 1], [1, 0]] over the word, (<a_1..a_n>, <a_1..a_{n-1}>,
    <a_2..a_n>, <a_2..a_{n-1}>) in continuants; the identity for an empty word."""
    return reduce(_step, word, (1, 0, 0, 1))


class _Ladder:
    """Random-access convergent source of one expansion.

    ``prefix[n]`` is the state at index n for n <= k = len(preperiod); past it,
    the state at k + j*m + r is prefix[k] * M^j followed by r single steps,
    where M is the period's matrix and M^j is assembled from ``powers[i] =
    M^(2^i)``. ``powers`` only ever grows, by rebinding to a longer tuple, so
    concurrent readers see a consistent prefix of it.
    """

    __slots__ = ("prefix", "period", "powers")

    def __init__(self, cf: CFExpansion) -> None:
        self.prefix: tuple[State, ...] = tuple(accumulate(cf.preperiod, _step,
                                                          initial=(cf.a0, 1, 1, 0)))
        self.period = cf.period
        self.powers: tuple[State, ...] = ()
        if cf.period:
            self.powers = (_fold(cf.period),)

    def power(self, i: int) -> State:
        """M^(2^i), squaring further on demand."""
        powers = self.powers
        while len(powers) <= i:
            powers = powers + (_mul(powers[-1], powers[-1]),)
            self.powers = powers
        return powers[i]

    def state(self, n: int) -> State:
        k = len(self.prefix) - 1
        if n <= k:
            return self.prefix[n]
        if not self.period:
            raise IndexError(f"rational expansion has no convergent {n}")
        j, r = divmod(n - k, len(self.period))
        s = self.prefix[k]
        i = 0
        while j:
            if j & 1:
                s = _mul(s, self.power(i))
            j >>= 1
            i += 1
        for a in self.period[:r]:
            s = _step(s, a)
        return s

    def last_at_most(self, t: int) -> tuple[int, State]:
        """Largest n with q_n <= t (t >= 1), and the state there.

        q is nondecreasing, so whole periods are taken greedily from the largest
        power of M down, then single steps finish inside one period.
        """
        prefix = self.prefix
        k = len(prefix) - 1
        if prefix[k][2] > t or not self.period:
            n = bisect_right(prefix, t, key=lambda s: s[2]) - 1
            return n, prefix[n]
        s, j = prefix[k], 0
        top = 0
        while _q_of_product(s, self.power(top)) <= t:
            top += 1
        for i in range(top - 1, -1, -1):
            if _q_of_product(s, self.powers[i]) <= t:
                s, j = _mul(s, self.powers[i]), j + (1 << i)
        n = k + j * len(self.period)
        for a in self.period:
            nxt = _step(s, a)
            if nxt[2] > t:
                break
            s, n = nxt, n + 1
        return n, s


def _ladder(cf: CFExpansion) -> _Ladder:
    ladder = getattr(cf, "_ladder", None)
    if ladder is None:
        ladder = _Ladder(cf)
        object.__setattr__(cf, "_ladder", ladder)
    return ladder


def convergent_state(cf: CFExpansion, n: int) -> State:
    """(p_n, p_{n-1}, q_n, q_{n-1}) for n >= 0, with (p_{-1}, q_{-1}) = (1, 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _ladder(cf).state(n)


def last_convergent_at_most(cf: CFExpansion, t: int) -> tuple[int, State]:
    """(r, state at r) for the largest index r with q_r <= t; a rational expansion stops at its end."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return _ladder(cf).last_at_most(t)


def convergent_stream(cf: CFExpansion,
                      start: tuple[int, State] | None = None) -> Iterator[Convergent]:
    """Convergents in order from index 0, or from n given start = (n, state at n)."""
    index, (p, p_prev, q, q_prev) = start or (0, (cf.a0, 1, 1, 0))
    yield Convergent(index, p, q)
    for a in cf.quotients(index + 1):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        index += 1
        yield Convergent(index, p, q)


def convergents(cf: CFExpansion, n: int) -> list[Convergent]:
    """Convergents 0..n; a rational expansion stops at its last index."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return list(islice(convergent_stream(cf), n + 1))


def continuant(word: Sequence[int]) -> int:
    """<a_1, ..., a_n>: denominator of [0; a_1, ..., a_n]; <> = 1."""
    for a in word:
        if a < 1:
            raise ValueError("continuant entries must be >= 1")
    return _fold(word)[0]


@lru_cache(maxsize=None)
def _period_tail(period: tuple[int, ...], offset: int) -> QuadExt:
    """Value of the purely periodic fraction on the period rotated by offset.

    Keyed by the period, not the expansion, so the cache holds no expansion
    (nor the value and ladder memoized on it) alive.
    """
    p, p_prev, q, q_prev = _fold(period[offset:] + period[:offset])
    # omega = (p*omega + p_prev) / (q*omega + q_prev)
    disc = (q_prev - p) ** 2 + 4 * q * p_prev
    if math.isqrt(disc) ** 2 == disc:
        raise RationalInputError("period block does not define an irrational")
    return QuadExt(Fraction(p - q_prev, 2 * q), Fraction(1, 2 * q), disc)


def tail(cf: CFExpansion, r: int) -> QuadExt:
    """Exact tail [a_r; a_{r+1}, ...] of a periodic expansion, r >= 1."""
    if cf.is_rational:
        raise RationalInputError("tails are defined for irrational expansions only")
    if r < 1:
        raise ValueError("tail index must be >= 1")
    k = len(cf.preperiod)
    if r >= k + 1:
        return _period_tail(cf.period, (r - k - 1) % len(cf.period))
    x = _period_tail(cf.period, 0)
    for j in range(k, r - 1, -1):
        x = cf.partial_quotient(j) + x.inverse()
    return x


def is_nonintegral_sum_and_diff(x: QuadExt, y: QuadExt) -> bool:
    """True iff neither x+y nor x-y is an integer (both inputs irrational)."""
    if x.is_rational or y.is_rational:
        raise RationalInputError("both numbers must be irrational")
    if x.D != y.D:
        return True
    for combined in (x + y, x - y):
        if combined.B == 0 and combined.Q == 1:
            return False
    return True
