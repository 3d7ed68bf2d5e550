"""The irrationality measure function psi, its reciprocal, and d(t) profiles.

psi(t) is the least distance ||q*x|| over 1 <= q <= t; it is piecewise constant
and drops exactly at convergent denominators, so d(t) = 1/psi_beta - 1/psi_alpha
is piecewise constant between the merged denominators of the two numbers. All
values are exact quadratic-field elements; d(t) is kept as a pair of them
because alpha and beta generally live in different fields.

Single evaluations (``psi``, ``d_at``) take the convergents bracketing t from
the ladder; passes over the breakpoints in order (profiles, merged words,
witnesses, the near-optimality check) take them from one merged walk of both
convergent streams, at one recurrence step per breakpoint. Such a pass computes
one exact 1/psi per convergent, not per breakpoint: at a breakpoint where only
one number steps, the other's value is carried over from the step before.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import contfrac
from .contfrac import CFExpansion, Convergent, is_nonintegral_sum_and_diff
from .errors import (
    FormMismatchError,
    IntegralSumOrDiffError,
    RationalInputError,
    UndecidedSignError,
)
from .exact import DEFAULT_CAP_BITS, Comparison, Interval, QuadExt, refine_compare, render_decimal


@dataclass(frozen=True)
class PsiValue:
    """psi at one argument: the minimizing index r, q_r, ||q_r x|| and its reciprocal."""

    index: int
    q: int
    value: QuadExt
    inv_value: QuadExt


def _require_irrational(cf: CFExpansion) -> QuadExt:
    value = cf.value()
    if isinstance(value, Fraction):
        raise RationalInputError("psi is computed for irrational numbers only")
    return value


Bracket = tuple[Convergent, Convergent, Convergent]


def _bracketing_convergents(cf: CFExpansion, t: int) -> Bracket:
    """The bracket (c_{r-1}, c_r, c_{r+1}) at t, r the largest index with q_r <= t."""
    r, (p, p_prev, q, q_prev) = contfrac.last_convergent_at_most(cf, t)
    a = cf.partial_quotient(r + 1)
    return (Convergent(r - 1, p_prev, q_prev), Convergent(r, p, q),
            Convergent(r + 1, a * p + p_prev, a * q + q_prev))


def psi(alpha: CFExpansion, t: int) -> PsiValue:
    """Exact psi_alpha(t) = ||q_r alpha|| with r the largest index, q_r <= t."""
    x = _require_irrational(alpha)
    prev, cur, _ = _bracketing_convergents(alpha, t)
    value = abs(cur.q * x - cur.p)
    inv_value = cur.q * contfrac.tail(alpha, cur.index + 1) + prev.q
    return PsiValue(cur.index, cur.q, value, inv_value)


def convergent_distance(alpha: CFExpansion, n: int) -> QuadExt:
    """xi_n = |q_n alpha - p_n|, the n-th convergent remainder.

    Equals psi_alpha(q_n) for n >= 1; at n = 0 with a_1 = 1 it differs (the
    nearest integer to alpha is then p_1, not p_0), and it is this remainder
    that satisfies xi_{n-1}/xi_n = alpha_{n+1} and the reciprocal identities.
    """
    x = _require_irrational(alpha)
    if n < 0:
        raise ValueError("index must be >= 0")
    p, _, q, _ = contfrac.convergent_state(alpha, n)
    return abs(q * x - p)


def inv_psi(alpha: CFExpansion, t: int) -> QuadExt:
    """1/psi_alpha(t) through both closed forms, asserted exactly equal.

    Form one is q_r a_{r+1} + q_{r-1}; form two is q_{r+1} + q_r / a_{r+2}
    with a_* the exact continued-fraction tails.
    """
    _require_irrational(alpha)
    return _inv_psi_at(alpha, t, _bracketing_convergents(alpha, t))


def _inv_psi_at(alpha: CFExpansion, t: int, bracket: Bracket) -> QuadExt:
    prev, cur, nxt = bracket
    first = cur.q * contfrac.tail(alpha, cur.index + 1) + prev.q
    second = nxt.q + cur.q / contfrac.tail(alpha, cur.index + 2)
    if first != second:
        raise FormMismatchError(f"closed forms of 1/psi disagree at t={t}: {first} vs {second}")
    return first


def check_pair(alpha: CFExpansion, beta: CFExpansion) -> None:
    """Validate the standing hypothesis alpha +- beta not in Z."""
    a, b = _require_irrational(alpha), _require_irrational(beta)
    if not is_nonintegral_sum_and_diff(a, b):
        raise IntegralSumOrDiffError("alpha + beta or alpha - beta is an integer")


@dataclass(frozen=True)
class DValue:
    """d(t) = 1/psi_beta(t) - 1/psi_alpha(t), kept as two exact field elements."""

    inv_psi_beta: QuadExt
    inv_psi_alpha: QuadExt
    alpha_index: int
    beta_index: int

    def as_quadext(self) -> QuadExt | None:
        """The difference as a single element when both parts share a field."""
        if (
            self.inv_psi_beta.is_rational
            or self.inv_psi_alpha.is_rational
            or self.inv_psi_beta.D == self.inv_psi_alpha.D
        ):
            return self.inv_psi_beta - self.inv_psi_alpha
        return None

    def enclosure(self, bits: int) -> Interval:
        return self.inv_psi_beta.enclosure(bits) - self.inv_psi_alpha.enclosure(bits)

    def abs_enclosure(self, bits: int) -> Interval:
        return abs(self.enclosure(bits))

    def sign(self, cap_bits: int = DEFAULT_CAP_BITS) -> int:
        """Strict sign of d; exact in a shared field, else by refinement."""
        verdict = refine_compare(self.inv_psi_beta, self.inv_psi_alpha, cap_bits)
        if verdict is Comparison.EQUAL:
            raise UndecidedSignError("d(t) is exactly zero")
        if verdict is Comparison.UNDECIDED:
            raise UndecidedSignError(f"sign of d undecided at {cap_bits} bits")
        return 1 if verdict is Comparison.GREATER else -1

    def render(self, digits: int = 12, cap_bits: int = DEFAULT_CAP_BITS) -> str:
        exact = self.as_quadext()
        return render_decimal(self.enclosure if exact is None else exact, digits, cap_bits)


def d_at(alpha: CFExpansion, beta: CFExpansion, t: int) -> DValue:
    """Exact d(t) for a valid pair; raises if alpha +- beta is integral."""
    check_pair(alpha, beta)
    a, b = _bracketing_convergents(alpha, t), _bracketing_convergents(beta, t)
    return DValue(_inv_psi_at(beta, t, b), _inv_psi_at(alpha, t, a), a[1].index, b[1].index)


def _brackets(cf: CFExpansion) -> Iterator[Bracket]:
    """The bracket at each distinct q_r in turn; of q_0 = q_1 = 1 only r = 1 steps."""
    stream = contfrac.convergent_stream(cf)
    prev, cur = Convergent(-1, 1, 0), next(stream)
    for nxt in stream:
        if nxt.q != cur.q:
            yield prev, cur, nxt
        prev, cur = cur, nxt


def _merged_brackets(alpha: CFExpansion,
                     beta: CFExpansion) -> Iterator[tuple[int, Bracket, Bracket]]:
    """(t, alpha's bracket, beta's bracket) at each distinct denominator t of either number.

    The one merge of the two denominator sequences. t ascends from q_0 = 1, and a
    number stepped at t exactly when the middle q of its bracket is t.
    """
    walk_a, walk_b = _brackets(alpha), _brackets(beta)
    a, b, t = next(walk_a), next(walk_b), 1
    while True:
        yield t, a, b
        t = min(a[2].q, b[2].q)
        a = next(walk_a) if a[2].q == t else a
        b = next(walk_b) if b[2].q == t else b


def _d_steps(alpha: CFExpansion, beta: CFExpansion, t_min: int,
             t_max: int) -> Iterator[tuple[int, DValue]]:
    """(t_min, d(t_min)), then (t, d(t)) at each merged denominator t in (t_min, t_max].

    The walk yields the very same bracket for a number that did not step, whose
    1/psi is then carried over; only a new bracket is evaluated and cross-checked.
    """
    held_a = held_b = inv_a = inv_b = None
    for (t, a, b), (t_next, _, _) in itertools.pairwise(_merged_brackets(alpha, beta)):
        if t > t_max:
            return
        if t_next > t_min:
            t = max(t, t_min)
            if a is not held_a:
                held_a, inv_a = a, _inv_psi_at(alpha, t, a)
            if b is not held_b:
                held_b, inv_b = b, _inv_psi_at(beta, t, b)
            yield t, DValue(inv_b, inv_a, a[1].index, b[1].index)


@dataclass(frozen=True)
class ProfileEntry:
    t: int
    inv_psi_alpha: QuadExt
    inv_psi_beta: QuadExt
    d: DValue


@dataclass(frozen=True)
class BreakpointProfile:
    alpha: CFExpansion
    beta: CFExpansion
    t_min: int
    t_max: int
    entries: tuple[ProfileEntry, ...]


def breakpoint_profile(
    alpha: CFExpansion, beta: CFExpansion, t_min: int, t_max: int
) -> BreakpointProfile:
    """One entry per merged denominator in range, plus the step active at t_min."""
    if not 1 <= t_min <= t_max:
        raise ValueError("need 1 <= t_min <= t_max")
    check_pair(alpha, beta)
    entries = tuple(ProfileEntry(t, d.inv_psi_alpha, d.inv_psi_beta, d)
                    for t, d in _d_steps(alpha, beta, t_min, t_max))
    return BreakpointProfile(alpha, beta, t_min, t_max, entries)


def sign_changes(profile: BreakpointProfile, cap_bits: int = DEFAULT_CAP_BITS) -> list[int]:
    """Breakpoints where the strict sign of d flips versus the previous entry."""
    if not profile.entries:
        raise ValueError("empty profile")
    flips = []
    previous = profile.entries[0].d.sign(cap_bits)
    for entry in profile.entries[1:]:
        s = entry.d.sign(cap_bits)
        if s != previous:
            flips.append(entry.t)
        previous = s
    return flips


@dataclass(frozen=True)
class Letter:
    """One letter of the merged word: kind B (both), Q (alpha only), T (beta only)."""

    kind: str
    n: int | None
    s: int | None
    value: int

    def __str__(self) -> str:
        if self.kind == "B":
            return f"B({self.n},{self.s})"
        if self.kind == "Q":
            return f"Q({self.n})"
        return f"T({self.s})"


@dataclass(frozen=True)
class MergedWord:
    alpha: CFExpansion
    beta: CFExpansion
    letters: tuple[Letter, ...]


def merged_word(alpha: CFExpansion, beta: CFExpansion, count: int) -> MergedWord:
    """First ``count`` letters of the merged word over {B, Q, T}."""
    if count < 1:
        raise ValueError("count must be >= 1")
    check_pair(alpha, beta)
    letters = []
    for t, a, b in itertools.islice(_merged_brackets(alpha, beta), count):
        n = a[1].index if a[1].q == t else None
        s = b[1].index if b[1].q == t else None
        kind = "T" if n is None else "Q" if s is None else "B"
        letters.append(Letter(kind, n, s, t))
    return MergedWord(alpha, beta, tuple(letters))


def profile_to_csv(profile: BreakpointProfile, digits: int = 12,
                   cap_bits: int = DEFAULT_CAP_BITS) -> str:
    """CSV rendering with header t,inv_psi_alpha,inv_psi_beta,d,digits=<n>."""
    lines = [f"t,inv_psi_alpha,inv_psi_beta,d,digits={digits}"]
    for entry in profile.entries:
        lines.append(
            ",".join(
                (
                    str(entry.t),
                    render_decimal(entry.inv_psi_alpha, digits, cap_bits),
                    render_decimal(entry.inv_psi_beta, digits, cap_bits),
                    entry.d.render(digits, cap_bits),
                )
            )
        )
    return "\n".join(lines) + "\n"
