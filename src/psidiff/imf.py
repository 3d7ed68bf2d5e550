"""The irrationality measure function psi, its reciprocal, and d(t) profiles.

psi(t) is the least distance ||q*x|| over 1 <= q <= t; it is piecewise constant
and drops exactly at convergent denominators, so d(t) = 1/psi_beta - 1/psi_alpha
is piecewise constant between the merged denominators of the two numbers. All
values are exact quadratic-field elements; d(t) is kept as a pair of them
because alpha and beta generally live in different fields.

Every 1/psi, and every convergent remainder xi_n (as the inverse of 1/xi_n), comes from
``_inv_psi_at``, which checks its two closed forms exactly against each other as one integer
identity on the tails' integers, with no field arithmetic, and builds the value with one
``exact._make``. Every bracket (r, q_{r-1}, q_r, q_{r+1}, alpha_{r+1}, alpha_{r+2}) is plain
integers and two tails, and comes from ``_walk``, the one place here that steps the q
recurrence: on the partial quotients and the ladder's tails together, both drawn from C
iterators, with no record. Every read by index comes from one ``_table``: its rows are the
brackets of one walk seeded by one ladder lookup at its first index, and its reader makes
each row's 1/xi and integer bracket once. The lemma scans read tables from index 0,
``convergent_distance`` one row at its index, and ``check_dichotomy`` rows n - 1, n and s,
taking alpha_{n+1} off row n's tail; rows and reader live as long as the call that builds
them, and nothing here holds either between calls. Walks from t, ``_brackets``, are seeded by
one ladder lookup too, and a single evaluation at t is the first step of such a walk: ``psi``
and ``inv_psi`` take the first bracket at t, ``d_at`` the first step of the merged walk. The
dichotomy scan orders the 1/xi_n by their integers. One merge, ``_merged_brackets``, steps
each of two walks of brackets only at its own denominators: the interleave scan merges the two
numbers' rows from r(1) and reads only the 1/psi its certificates hold; passes over the breakpoints
from t (profiles, merged words, witnesses, the near-optimality check) merge two ``_brackets``
walks. The merged word reads the brackets' indices; the other passes, through ``_d_steps``,
compute one exact 1/psi per convergent, not per breakpoint: at a breakpoint where only one
number steps, the other's value is carried over from the step before, and so are its guarded
floor and its rendered string, which ``QuadExt`` keeps. d(t), in one field or two, renders
and takes its sign from its parts' floors, read off their memos; ``exact._exceeds_c_times``
decides |d(t)| >= C*t by its ``abs_enclosure``.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import contfrac, exact
from .contfrac import CFExpansion, is_nonintegral_sum_and_diff
from .errors import (
    FormMismatchError,
    IntegralSumOrDiffError,
    RationalInputError,
    UndecidedSignError,
)
from .exact import DEFAULT_CAP_BITS, QuadExt, Record, _format_scaled, render_decimal


class PsiValue(Record):
    """psi at one argument: the minimizing index r, q_r, ||q_r x|| and its reciprocal."""

    __slots__ = ("index", "q", "value", "inv_value")


def _require_irrational(cf: CFExpansion) -> QuadExt:
    value = cf.value()
    if isinstance(value, Fraction):
        raise RationalInputError("psi is computed for irrational numbers only")
    return value


Bracket = tuple[int, int, int, int, QuadExt, QuadExt]
"""(r, q_{r-1}, q_r, q_{r+1}, alpha_{r+1}, alpha_{r+2}): recurrence integers and two tails."""


def _walk(cf: CFExpansion, r: int, state: contfrac.State) -> Iterator[Bracket]:
    """The brackets at r, r+1, ..., from the state at r: one step of q and one tail each, the
    quotients from a_{r+1} and the ladder's tails from alpha_{r+1} drawn from C iterators."""
    quotient, tail = cf.quotients(r + 1).__next__, contfrac.tails(cf, r + 1).__next__
    _, _, q, q_prev = state
    bracket = (r, q_prev, q, quotient() * q + q_prev, tail(), tail())
    while True:
        yield bracket
        _, _, q_prev, q, _, t = bracket
        bracket = (bracket[0] + 1, q_prev, q, quotient() * q + q_prev, t, tail())


def _table(cf: CFExpansion, first: int, last: int) -> tuple[tuple[Bracket, ...], Callable]:
    """Rows ``first`` .. ``last`` of an irrational cf, the brackets of one walk seeded at ``first``,
    and a reader of row i's ``exact.Bracketed`` (n, n + q_i, 1/xi_i), n = ``exact._bracket(q_i,
    q_{i-1}, alpha_{i+1})``, so that n < 2**GUARD_BITS/xi_i < n + q_i: the integers the lemma
    scans order 1/xi_i by. The reader makes each once per index; both go with the caller."""
    _require_irrational(cf)
    walk = _walk(cf, first, contfrac.convergent_state(cf, first))
    rows = tuple(itertools.islice(walk, last - first + 1))
    @functools.cache
    def read(i: int) -> exact.Bracketed:
        row = rows[i - first]
        value, n = _inv_psi_at(row[2], row), exact._bracket(row[2], row[1], row[4])
        return n, n + row[2], value
    return rows, read


def _brackets(cf: CFExpansion, t: int) -> Iterator[Bracket]:
    """The bracket at t, then one per later q_r in turn; r(t) is the largest index, q_r <= t.

    Past r(t) the q_r increase strictly: of q_0 = q_1 = 1, r(t) is already the last.
    """
    return _walk(cf, *contfrac.last_convergent_at_most(cf, t))


def psi(alpha: CFExpansion, t: int) -> PsiValue:
    """Exact psi_alpha(t) = ||q_r alpha|| with r the largest index, q_r <= t."""
    _require_irrational(alpha)
    bracket = next(_brackets(alpha, t))
    inv_value = _inv_psi_at(t, bracket)
    return PsiValue(bracket[0], bracket[2], inv_value.inverse(), inv_value)


def convergent_distance(alpha: CFExpansion, n: int) -> QuadExt:
    """xi_n = |q_n alpha - p_n|, the n-th convergent remainder, as the inverse of 1/xi_n.

    Equals psi_alpha(q_n) for n >= 1; at n = 0 with a_1 = 1 it differs (the
    nearest integer to alpha is then p_1, not p_0), and it is this remainder
    that satisfies xi_{n-1}/xi_n = alpha_{n+1} and the reciprocal identities.
    """
    return _table(alpha, n, n)[1](n)[2].inverse()


def inv_psi(alpha: CFExpansion, t: int) -> QuadExt:
    """1/psi_alpha(t), its two closed forms checked equal by one integer identity."""
    _require_irrational(alpha)
    return _inv_psi_at(t, next(_brackets(alpha, t)))


def _inv_psi_at(t: int, bracket: Bracket) -> QuadExt:
    """q_r a_{r+1} + q_{r-1}, checked against q_{r+1} + q_r / a_{r+2} (a_* the tails).

    The one evaluation of either closed form: every 1/psi and remainder comes from here.
    With a_{r+1} = (A1 + B1 sqrt D)/Q1 and a_{r+2} = (A2 + B2 sqrt D)/Q2, the forms
    agree iff (first - q_{r+1}) a_{r+2} = q_r, that is, with X = q_r A1 + (q_{r-1} -
    q_{r+1}) Q1 and Y = q_r B1, iff X B2 + Y A2 = 0 and X A2 + Y B2 D = q_r Q1 Q2:
    one integer identity, and the value is one ``_make``. Only a failed identity
    builds the two forms, to report them; tails of one expansion share D.
    """
    _, q_prev, q, q_next, t1, t2 = bracket
    x, y = q * t1.A + (q_prev - q_next) * t1.Q, q * t1.B
    if t1.D == t2.D and not x * t2.B + y * t2.A and x * t2.A + y * t2.B * t1.D == q * t1.Q * t2.Q:
        return exact._make(q * t1.A + q_prev * t1.Q, y, t1.Q, t1.D)
    raise FormMismatchError(f"closed forms of 1/psi disagree at t={_format_scaled(t, 0)}: "
                            f"{q * t1 + q_prev} vs {q_next + q / t2}")


def check_pair(alpha: CFExpansion, beta: CFExpansion) -> None:
    """Validate the standing hypothesis alpha +- beta not in Z."""
    a, b = _require_irrational(alpha), _require_irrational(beta)
    if not is_nonintegral_sum_and_diff(a, b):
        raise IntegralSumOrDiffError("alpha + beta or alpha - beta is an integer")


class DValue(Record):
    """d(t) = 1/psi_beta(t) - 1/psi_alpha(t), kept as two exact field elements."""

    __slots__ = ("inv_psi_beta", "inv_psi_alpha", "alpha_index", "beta_index")

    def enclosure(self, bits: int):  # an exact.Interval
        return self.inv_psi_beta.enclosure(bits) - self.inv_psi_alpha.enclosure(bits)

    def abs_enclosure(self, bits: int):
        return abs(self.enclosure(bits))

    def sign(self) -> int:
        """Sign of d = b - a, -1, 0 or 1, exact in any two fields. Floors of b and a kept at
        one scale M decide it when they differ: floor(M*b) > floor(M*a), b > a."""
        fb, fa = self.inv_psi_beta._memo, self.inv_psi_alpha._memo
        if fb and fa and fb[0] == fa[0] and fb[1] != fa[1]:
            return 1 if fb[1] > fa[1] else -1
        return exact._cmp(self.inv_psi_beta, self.inv_psi_alpha)

    def _leaves(self, M: int) -> int:
        """floor(M*b) - floor(M*a) - 1, floor(M*d) or one less, off the memos of the floors the
        parts rendered at: the leaves of ``exact._guarded``, floor(m*d) exact in any two fields."""
        b, a = self.inv_psi_beta, self.inv_psi_alpha
        fb, fa = b._memo, a._memo
        fb = fb[1] if fb and fb[0] == M else b._scaled_floor(M)
        return fb - (fa[1] if fa and fa[0] == M else a._scaled_floor(M)) - 1

    def _at_least(self, m: int, k: int) -> bool:
        """m*d >= k: the sign of m*b - m*a - k, one ``exact._cmp``."""
        return exact._cmp(self.inv_psi_beta, self.inv_psi_alpha, m, k) >= 0

    _scaled_floor = exact._guarded

    def render(self, digits: int = 12) -> str:
        """d correctly rounded to ``digits`` places: irrational from its scaled floor, and
        rational (one field, equal irrational parts) from the difference, ties to even."""
        b, a = self.inv_psi_beta, self.inv_psi_alpha
        if (over := exact._over(a.A, a.B, a.Q, a.D, b.D)) and b.B * over[2] == over[1] * b.Q:
            return render_decimal(b - a, digits)
        return exact._format_scaled((self._scaled_floor(2 * 10**digits) + 1) // 2, digits)


def d_at(alpha: CFExpansion, beta: CFExpansion, t: int) -> DValue:
    """Exact d(t) for a valid pair; raises if alpha +- beta is integral."""
    check_pair(alpha, beta)
    return next(_d_steps(alpha, beta, t, t))[1]


def _merged_brackets(walk_a: Iterable[Bracket], walk_b: Iterable[Bracket],
                     t: int) -> Iterator[tuple[int, Bracket, Bracket]]:
    """(t, alpha's bracket, beta's bracket) at t, then at each later denominator of either number.

    The one merge of the two denominator sequences, each read off its own walk of brackets from
    r(t), ``_brackets`` or rows. t ascends, and a number stepped at t exactly when the middle q of
    its bracket is t; one that did not step holds the very same bracket object.
    """
    next_a, next_b = iter(walk_a).__next__, iter(walk_b).__next__
    a, b = next_a(), next_b()
    while True:
        yield t, a, b
        t = min(a[3], b[3])
        a = next_a() if a[3] == t else a
        b = next_b() if b[3] == t else b


def _d_steps(alpha: CFExpansion, beta: CFExpansion, t_min: int,
             t_max: int) -> Iterator[tuple[int, DValue]]:
    """(t_min, d(t_min)), then (t, d(t)) at each merged denominator t in (t_min, t_max].

    The walk yields the very same bracket for a number that did not step, whose
    1/psi is then carried over; only a new bracket is evaluated and cross-checked.
    """
    held_a = held_b = inv_a = inv_b = None
    new, init = object.__new__, DValue._init  # the generated constructor, with no type call
    for t, a, b in _merged_brackets(_brackets(alpha, t_min), _brackets(beta, t_min), t_min):
        if t > t_max:
            return
        if a is not held_a:
            held_a, inv_a = a, _inv_psi_at(t, a)
        if b is not held_b:
            held_b, inv_b = b, _inv_psi_at(t, b)
        init(d := new(DValue), inv_b, inv_a, a[0], b[0])
        yield t, d


class ProfileEntry(Record):
    __slots__ = ("t", "inv_psi_alpha", "inv_psi_beta", "d")


class BreakpointProfile(Record):
    __slots__ = ("t_min", "t_max", "entries")


def breakpoint_profile(
    alpha: CFExpansion, beta: CFExpansion, t_min: int, t_max: int
) -> BreakpointProfile:
    """One entry per merged denominator in range, plus the step active at t_min."""
    if not 1 <= t_min <= t_max:
        raise ValueError("need 1 <= t_min <= t_max")
    check_pair(alpha, beta)
    entries, new, init = [], object.__new__, ProfileEntry._init  # no genexpr frame per row
    for t, d in _d_steps(alpha, beta, t_min, t_max):
        init(entry := new(ProfileEntry), t, d.inv_psi_alpha, d.inv_psi_beta, d)
        entries.append(entry)
    return BreakpointProfile(t_min, t_max, tuple(entries))


def sign_changes(profile: BreakpointProfile, cap_bits: int = DEFAULT_CAP_BITS) -> list[int]:
    """Breakpoints where the strict sign of d flips from the entry before; ``cap_bits`` is unread.

    A step on which d is exactly zero has no strict sign, so a profile with one raises
    ``UndecidedSignError`` rather than choose a side for it.
    """
    if not profile.entries:
        raise ValueError("empty profile")
    signs = [entry.d.sign() for entry in profile.entries]
    if 0 in signs:
        raise UndecidedSignError("d(t) is exactly zero")
    return [entry.t for entry, s, last in zip(profile.entries[1:], signs[1:], signs) if s != last]


class Letter(Record):
    """One letter of the merged word: kind B (both), Q (alpha only), T (beta only)."""

    __slots__ = ("kind", "n", "s", "value")


class MergedWord(Record):
    __slots__ = ("letters",)


def merged_word(alpha: CFExpansion, beta: CFExpansion, count: int) -> MergedWord:
    """First ``count`` letters of the merged word over {B, Q, T}."""
    if count < 1:
        raise ValueError("count must be >= 1")
    check_pair(alpha, beta)
    letters, merge = [], _merged_brackets(_brackets(alpha, 1), _brackets(beta, 1), 1)
    for t, a, b in itertools.islice(merge, count):
        n = a[0] if a[2] == t else None
        s = b[0] if b[2] == t else None
        kind = "T" if n is None else "Q" if s is None else "B"
        letters.append(Letter(kind, n, s, t))
    return MergedWord(tuple(letters))


def _rendered_rows(profile: BreakpointProfile,
                   digits: int) -> Iterator[tuple[int, str, str, str]]:
    """(t, 1/psi_alpha, 1/psi_beta, d) of each entry, the last three as decimals.

    A 1/psi carried over from the entry before is the same object, which keeps its string;
    a new one renders once, and d reads the floor it keeps.
    """
    for entry in profile.entries:
        yield (entry.t, render_decimal(entry.inv_psi_alpha, digits),
               render_decimal(entry.inv_psi_beta, digits), entry.d.render(digits))


def profile_to_csv(profile: BreakpointProfile, digits: int = 12) -> str:
    """CSV rendering with header t,inv_psi_alpha,inv_psi_beta,d,digits=<n>."""
    lines = [f"t,inv_psi_alpha,inv_psi_beta,d,digits={digits}"]
    lines.extend(f"{_format_scaled(t, 0)},{a},{b},{d}"
                 for t, a, b, d in _rendered_rows(profile, digits))
    return "\n".join(lines) + "\n"
