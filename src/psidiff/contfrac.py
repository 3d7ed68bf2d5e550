"""Continued fractions of rationals and quadratic surds.

Conventions fixed throughout the package: q_{-1} = 0, q_0 = 1, partial
quotients a_j >= 1 for j >= 1, and canonical rational expansions end with a
quotient >= 2 unless the expansion is a single integer. Surd expansions are
produced by the (P, Q) state recursion, whose first reduced state opens the
minimal period (Galois), which ends when that state comes back.

Every single step of a convergent state here is ``_step``: the in-order stream from index 0,
``convergent_stream``, accumulates it over ``quotients``, yielding (n, p_n, q_n) as plain
ints; ``convergents`` wraps them in ``Convergent`` records, and ``construct_optimal`` reads
theta's q off it. The one other q recurrence is ``imf._walk``, which starts anywhere: at
index 0, on from the last row of ``imf``'s row table, or seeded by one ladder lookup
(``last_convergent_at_most`` by bound, ``convergent_state`` by index). The ladder, an
expansion's one memo, is built on first use: the states ``(p_n, p_{n-1}, q_n, q_{n-1})``
of the preperiod, and the squared period matrices ``M, M^2, M^4, ...`` of the 2x2 matrix view of
continued fractions (Gosper, HAKMEM item 101), extended only on demand. Both
lookups are one greedy descent, ``_Ladder.seek``, keyed by index or by bound: it
bisects the preperiod states, takes whole periods from the largest power of M down,
and finishes with at most one period of single steps, O(log n) 2x2 products. The
ladder stores no table of convergents (``imf._table`` keeps one, of at most ``imf._ROWS``
rows, for the pair read by index last): past the preperiod it holds only the squared
powers, whose sizes double, so its memory is O(bits of the largest q reached), about twice
the bits of the largest t queried.

The ladder also holds every tail and the exact value, built from the period
matrix M when the ladder is: the purely periodic tail is M's fixed point, the
period's other tails follow forwards by x -> 1/(x - a), and the preperiod's
backwards by x -> a + 1/x. So each period is folded once per expansion, and
``tails`` reads them off in order, unrolling the period, beside the stream; ``tail`` indexes
one, as ``CFExpansion.partial_quotient`` indexes the preperiod or the period.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, cycle, islice
from typing import Callable, Iterator, Sequence

from .errors import RationalInputError
from .exact import QuadExt, Record, _format_scaled


class CFExpansion(Record):
    """Continued fraction [a0; preperiod..., (period...)].

    An empty period means the value is rational; a nonempty period repeats
    forever, so the value is a quadratic irrational. The convergent ladder,
    which also holds the value and every tail, is memoized in the slot
    ``_ladder``, unset until first use.
    """

    __slots__ = ("a0", "preperiod", "period", "_ladder")

    def __init__(self, a0: int, preperiod: Sequence[int] = (), period: Sequence[int] = ()) -> None:
        preperiod, period = tuple(preperiod), tuple(period)
        if any(a < 1 for a in (*preperiod, *period)):
            raise ValueError("partial quotients after a0 must be >= 1")
        if not period and len(preperiod) >= 1 and preperiod[-1] < 2:
            raise ValueError("canonical rational expansion must end with a quotient >= 2")
        self._init(a0, preperiod, period)

    @property
    def is_rational(self) -> bool:
        return not self.period

    def partial_quotient(self, j: int) -> int:
        """a_j for any j >= 0: a0, an index into the preperiod, or one into the period."""
        k = len(self.preperiod)
        if 0 < j <= k:
            return self.preperiod[j - 1]
        if j > k and self.period:
            return self.period[(j - k - 1) % len(self.period)]
        if j == 0:
            return self.a0
        raise IndexError("quotient index must be >= 0" if j < 0 else
                         f"rational expansion has no quotient a_{j}")

    def quotients(self, start: int = 0) -> Iterator[int]:
        """a_start, a_start+1, ...: an infinite stream for irrational values.

        The stream starts by slicing the preperiod or rotating the period, not by
        skipping quotients, and is a chain of C iterators, which a walk steps with no frame.
        """
        if start < 0:
            raise IndexError("quotient index must be >= 0")
        head, period = (self.a0, *self.preperiod), self.period
        offset = max(start - len(head), 0) % (len(period) or 1)
        return chain(head[start:], period[offset:], cycle(period))

    def value(self) -> QuadExt | Fraction:
        """Exact value: a Fraction when rational, a QuadExt otherwise (from the ladder)."""
        return _ladder(self).value

    def __str__(self) -> str:
        a0, pre, period = (",".join(_format_scaled(a, 0) for a in terms)  # any length
                           for terms in ((self.a0,), self.preperiod, self.period))
        tail = ",".join(filter(None, (pre, period and f"({period})")))
        return f"[{a0};{tail}]" if tail else f"[{a0}]"


TAU_CF = CFExpansion(1, (), (1,))  # the golden ratio tau = [1;(1)]


class Convergent(Record):
    """The n-th convergent p/q, with its index n."""

    __slots__ = ("index", "p", "q")


def rational_to_cf(num: int, den: int) -> CFExpansion:
    """Canonical finite expansion of num/den by Euclid, at any common factor: the last quotient
    is num_k/den_k with num_k a multiple of den_k above it, so >= 2 unless it is the only one."""
    if den < 1:
        raise ValueError("denominator must be positive")
    quotients = []
    while den:
        a, rem = divmod(num, den)
        quotients.append(a)
        num, den = den, rem
    return CFExpansion(quotients[0], tuple(quotients[1:]))


def expand_quadratic(x: QuadExt) -> CFExpansion:
    """Eventually periodic expansion of an irrational quadratic element.

    Writes x = (P + sqrt(N))/Q with Q | N - P^2 and runs the integer surd
    recursion. After the first quotient every state is above 1, and it is reduced, its
    conjugate in (-1, 0), iff P <= isqrt(N) < P + Q; a reduced state is purely periodic
    (Galois), and a state before it is not. So the period starts at the first reduced
    state and ends when that one state comes back: no table of states is kept.
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
    first, j = None, 0  # the first reduced (P, Q), after j quotients
    while True:
        a = (P + s + (Q < 0)) // Q  # floor((P + sqrt(N))/Q), as sqrt(N) is no integer
        quotients.append(a)
        P = a * Q - P
        Q = (N - P * P) // Q
        if (P, Q) == first:
            return CFExpansion(quotients[0], tuple(quotients[1:j]), tuple(quotients[j:]))
        if first is None and P <= s < P + Q:
            first, j = (P, Q), len(quotients)


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
    concurrent readers see a consistent prefix of it. ``tails[r - 1]`` is the
    tail [a_r; a_{r+1}, ...] for 1 <= r <= k + len(period), and ``value`` the
    expansion's value.
    """

    __slots__ = ("prefix", "period", "powers", "tails", "value")

    def __init__(self, cf: CFExpansion) -> None:
        self.prefix: tuple[State, ...] = tuple(accumulate(cf.preperiod, _step,
                                                          initial=(cf.a0, 1, 1, 0)))
        self.period = cf.period
        self.powers: tuple[State, ...] = ()
        self.tails: tuple[QuadExt, ...] = ()
        if not cf.period:
            p, _, q, _ = self.prefix[-1]
            self.value: QuadExt | Fraction = Fraction(p, q)
            return
        p, p_prev, q, q_prev = m = _fold(cf.period)
        self.powers = (m,)
        # omega = (p*omega + p_prev) / (q*omega + q_prev), the root above 1
        omega = QuadExt(Fraction(p - q_prev, 2 * q), Fraction(1, 2 * q),
                        (q_prev - p) ** 2 + 4 * q * p_prev)
        # the tails at r = k+1, k, ..., 1 backwards, and at r = k+1, ..., k+L forwards
        back = list(accumulate(reversed(cf.preperiod), lambda x, a: a + x.inverse(), initial=omega))
        forward = accumulate(cf.period[:-1], lambda x, a: (x - a).inverse(), initial=omega)
        self.tails = (*back[:0:-1], *forward)
        self.value = cf.a0 + back[-1].inverse()

    def power(self, i: int) -> State:
        """M^(2^i), squaring further on demand."""
        powers = self.powers
        while len(powers) <= i:
            powers = powers + (_mul(powers[-1], powers[-1]),)
            self.powers = powers
        return powers[i]

    def seek(self, past: Callable[[int, Callable[[], int]], bool]) -> tuple[int, State]:
        """The largest n with not past(n, q), where q() is q_n, and the state there, for a test
        that is false at n = 0 and stays true once true: an index bound (n > N), which never
        calls q and so forms no product its index does not take, or a bound on q (q() > t).
        Each q below is made once per phase and reads the candidate its names hold when called."""
        prefix, period, k = self.prefix, self.period, len(self.prefix) - 1
        if not period or past(k, lambda: prefix[k][2]):
            n = bisect_left(range(k + 1), True, key=lambda i: past(i, lambda: prefix[i][2])) - 1
            return n, prefix[n]
        s, j, top, L = prefix[k], 0, 0, len(period)
        q = lambda: _q_of_product(s, self.power(top))
        while not past(k + (L << top), q):
            top += 1
        q = lambda: _q_of_product(s, x)
        for i in range(top - 1, -1, -1):
            x = self.power(i)
            if not past(k + (j + (1 << i)) * L, q):
                s, j = _mul(s, x), j + (1 << i)
        n, q = k + j * L, lambda: nxt[2]
        for a in period:
            nxt = _step(s, a)
            if past(n + 1, q):
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
    index, state = _ladder(cf).seek(lambda i, q: i > n)
    if index < n:
        raise IndexError(f"rational expansion has no convergent {n}")
    return state


def last_convergent_at_most(cf: CFExpansion, t: int) -> tuple[int, State]:
    """(r, state at r) for the largest index r with q_r <= t; a rational expansion stops at its end."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return _ladder(cf).seek(lambda i, q: q() > t)


def convergent_stream(cf: CFExpansion) -> Iterator[tuple[int, int, int]]:
    """(n, p_n, q_n) as plain ints in order from index 0; a rational expansion stops at its end."""
    for n, (p, _, q, _) in enumerate(accumulate(cf.quotients(1), _step, initial=(cf.a0, 1, 1, 0))):
        yield n, p, q


def convergents(cf: CFExpansion, n: int) -> list[Convergent]:
    """Convergents 0..n as records; a rational expansion stops at its last index."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [Convergent(*c) for c in islice(convergent_stream(cf), n + 1)]


def continuant(word: Sequence[int]) -> int:
    """<a_1, ..., a_n>: denominator of [0; a_1, ..., a_n]; <> = 1."""
    for a in word:
        if a < 1:
            raise ValueError("continuant entries must be >= 1")
    return _fold(word)[0]


def _held_tail(cf: CFExpansion, r: int) -> tuple[tuple[QuadExt, ...], int]:
    """The ladder's ``tails`` of a periodic expansion and the index in them of tail r >= 1."""
    if cf.is_rational:
        raise RationalInputError("tails are defined for irrational expansions only")
    if r < 1:
        raise ValueError("tail index must be >= 1")
    k = len(cf.preperiod)
    return _ladder(cf).tails, r - 1 if r <= k else k + (r - k - 1) % len(cf.period)


def tails(cf: CFExpansion, start: int) -> Iterator[QuadExt]:
    """The exact tails [a_r; a_{r+1}, ...] of a periodic expansion for r = start, start+1, ...
    (start >= 1), read in order off the ladder's ``tails``, unrolling the period by C iterators."""
    held, i = _held_tail(cf, start)
    return chain(held[i:], cycle(held[len(cf.preperiod):]))


def tail(cf: CFExpansion, r: int) -> QuadExt:
    """Exact tail [a_r; a_{r+1}, ...] of a periodic expansion, r >= 1: one index into the ladder."""
    held, i = _held_tail(cf, r)
    return held[i]


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
