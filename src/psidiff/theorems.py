"""Machine-checkable certificates for the main inequality and its lemmas.

Witnesses certify |d(t)| >= C*t at explicit t, each test one ``exact._exceeds_c_times``.
The lemma scanners enumerate the finite coincidence patterns between the two denominator
sequences and, for the interleave pattern, verify the exact in-field inequality that drives
the contradiction. The optimality construction builds the near-extremal companion of tau from
a shifted Fibonacci-type sequence, deciding each candidate by exact ``Root`` signs, and
verifies the denominator correspondence it relies on.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction

from . import contfrac, exact, imf
from .contfrac import TAU_CF, CFExpansion, rational_to_cf
from .errors import (
    DichotomyViolationError,
    GapViolationError,
    NotFoundInRangeError,
    PreconditionFailedError,
    PsidiffError,
    SearchExhaustedError,
)
from .exact import (
    _STR_BITS,
    DEFAULT_CAP_BITS,
    PHI,
    SQRT5,
    SQRT_TAU,
    TAU,
    C,
    QuadExt,
    Record,
    _format_scaled,
    _ratio_str,
    render_decimal,
)
from .imf import DValue

_UV_SEARCH_LIMIT = 10**6


# -- Witnesses for the lower bound |d(t)| >= C*t --------------------------------


class Witness(Record):
    """A point t with |d(t)| >= C*t, certified by a separated enclosure pair.

    ``to_json`` prints |d(t)|/t rounded down as ``ratio_lower_bound``.
    """

    __slots__ = ("t", "d_value")

    def to_json(self, digits: int = 12) -> dict:
        d, scale = self.d_value, 2 * 10**digits
        # floor(scale*|d|) at the scale d renders at; -d is d with its parts swapped
        size = d if d.sign() > 0 else DValue(d.inv_psi_alpha, d.inv_psi_beta, 0, 0)
        top = size._scaled_floor(scale)
        return {
            "kind": "witness",
            "indices": {"alpha_r": d.alpha_index, "beta_l": d.beta_index},
            "t": self.t,
            "exact_values": {
                "inv_psi_alpha": str(d.inv_psi_alpha),
                "inv_psi_beta": str(d.inv_psi_beta),
            },
            "decimal": {
                "d": d.render(digits),
                "c_times_t": render_decimal(C * self.t, digits),
                # floor(x/n) = floor(floor(x)/n) for a positive integer n
                "ratio_lower_bound": _format_scaled(top // (2 * self.t), digits),
            },
            "verdict": "greater",
        }


def find_witness(
    alpha: CFExpansion,
    beta: CFExpansion,
    T: int,
    search_bound: int,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> Witness:
    """Smallest t in {T} U breakpoints of [T, search_bound] with |d(t)| >= C*t.

    Checking step left ends is exhaustive: d is constant on a step while C*t
    increases, so a witness anywhere in a step gives one at its left end. Each test is one
    ``exact._exceeds_c_times`` on the step's d, always decided; ``cap_bits`` is unread.
    """
    if not 1 <= T <= search_bound:
        raise ValueError("need 1 <= T <= search_bound")
    imf.check_pair(alpha, beta)
    for t, d in imf._d_steps(alpha, beta, T, search_bound):
        if exact._exceeds_c_times(d, t):
            return Witness(t, d)
    raise NotFoundInRangeError(f"no witness in [{_format_scaled(T, 0)}, "
                               f"{_format_scaled(search_bound, 0)}]; a larger search bound "
                               "may still contain one")


# -- Lemma scans over denominator coincidences ---------------------------------


def _coincidences(alpha: CFExpansion, beta: CFExpansion, depth: int, gap: int,
                  shift: int) -> list[tuple[int, int]]:
    """All (n, m), n, m <= depth, with (q_n, q_{n+gap}) = (t_{m+shift}, t_{m+shift+1}), sorted."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    imf.check_pair(alpha, beta)
    qs, ts = ([row[2] for row in imf._table(cf, n)[0][:n + 1]]
              for cf, n in ((alpha, depth + gap), (beta, depth + shift + 1)))
    by_pair: dict[tuple[int, int], list[int]] = {}
    for m in range(depth + 1):
        by_pair.setdefault((ts[m + shift], ts[m + shift + 1]), []).append(m)
    return [(n, m) for n in range(depth + 1) for m in by_pair.get((qs[n], qs[n + gap]), ())]


def scan_lemma_conseq(alpha: CFExpansion, beta: CFExpansion, depth: int) -> list[tuple[int, int]]:
    """All (n, m) with (q_n, q_{n+1}) = (t_m, t_{m+1}) and n, m <= depth."""
    return _coincidences(alpha, beta, depth, 1, 0)


def scan_lemma_conseq1(alpha: CFExpansion, beta: CFExpansion, depth: int) -> list[tuple[int, int]]:
    """All (n, m), n, m <= depth, with (q_n, q_{n+2}) = (t_{m+1}, t_{m+2}) and a_{n+2} = 1."""
    return [(n, m) for n, m in _coincidences(alpha, beta, depth, 2, 1)
            if alpha.partial_quotient(n + 2) == 1]


# -- The dichotomy --------------------------------------------------------------


class DichotomyBranch(Enum):
    FIRST_BRANCH = "first_branch"
    SECOND_BRANCH = "second_branch"
    BOTH = "both"


class DichotomyRecord(Record):
    __slots__ = ("n", "s", "branch", "xi_prev", "xi", "eta")

    def to_json(self, digits: int = 12) -> dict:
        return {
            "kind": "dichotomy",
            "indices": {"n": self.n, "s": self.s},
            "t": None,
            "exact_values": {
                "xi_n_minus_1": str(self.xi_prev),
                "xi_n": str(self.xi),
                "eta_s": str(self.eta),
            },
            "decimal": {
                "xi_n_minus_1": render_decimal(self.xi_prev, digits),
                "xi_n": render_decimal(self.xi, digits),
                "eta_s": render_decimal(self.eta, digits),
            },
            "verdict": self.branch.value,
        }


def check_dichotomy(alpha: CFExpansion, beta: CFExpansion, n: int, s: int) -> DichotomyBranch:
    """Which of the two lower-bound branches holds when eta_s is inside (xi_n, xi_{n-1}).

    Branch one: 1/eta_s - 1/xi_{n-1} >= t_s(beta_{s+1} + t_{s-1}/t_s)(1 - 1/sqrt(alpha_{n+1})).
    Branch two: 1/xi_n - 1/eta_s >= q_n(alpha_{n+1} + q_{n-1}/q_n)(1 - 1/sqrt(alpha_{n+1})).
    As 1/xi_n = alpha_{n+1}/xi_{n-1}, branch one says 1/eta_s >= g and branch two
    1/eta_s <= g, where g = sqrt((1/xi_{n-1})*(1/xi_n)). So exactly one holds
    unless 1/eta_s equals g, when both do. Its precondition is two ``exact._above``.
    """
    if n < 1 or s < 0:
        raise ValueError("need n >= 1 and s >= 0")
    inv_xi_prev, inv_xi = imf._inv_xis(alpha, n - 1, n)
    inv_eta, = imf._inv_xis(beta, s, s)
    if not (exact._above(inv_eta, inv_xi_prev) and exact._above(inv_xi, inv_eta)):
        raise PreconditionFailedError(f"eta_{s} is not inside (xi_{n}, xi_{n-1})")
    return _branch(alpha, n, inv_xi_prev, inv_xi, inv_eta)


def _branch(alpha: CFExpansion, n: int, inv_xi_prev: exact.Bracketed, inv_xi: exact.Bracketed,
            inv_eta: exact.Bracketed) -> DichotomyBranch:
    """The branch test of ``check_dichotomy`` on reciprocals already known to be in order.

    It compares (1/eta_s)^2 with (1/xi_{n-1})*(1/xi_n), both positive, after checking
    the identity 1/xi_n = alpha_{n+1}/xi_{n-1} that turns the branches into that
    comparison: both in one ``exact._branch_sign`` on the three ``(n, hi, value)`` of
    ``imf._inv_xis`` and the tail, in one field or across two, which decides the sign by the
    brackets, by ``exact._cmp`` only on a straddle, and reports a failed identity as None.
    """
    s = exact._branch_sign(inv_xi, inv_xi_prev, contfrac.tail(alpha, n + 1), inv_eta)
    if s is None:
        raise DichotomyViolationError(f"1/xi_{n} is not alpha_{n + 1}/xi_{n - 1}")
    return (DichotomyBranch.SECOND_BRANCH, DichotomyBranch.BOTH,
            DichotomyBranch.FIRST_BRANCH)[s + 1]


def scan_dichotomy(
    alpha: CFExpansion,
    beta: CFExpansion,
    depth: int,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> list[DichotomyRecord]:
    """check_dichotomy over every valid (n, s) with both indices <= depth.

    Both reciprocal remainder sequences are strictly increasing, so for each s
    there is at most one n with 1/eta_s strictly inside (1/xi_{n-1}, 1/xi_n); a
    single merge pass over the two in-order lists finds them all. Both lists, 1/xi_n and
    1/eta_s for indices 0 .. depth, each with its integer bracket at scale 2**GUARD_BITS,
    come from ``imf._inv_xis``, one walk per number. Every order is one ``exact._above`` on
    those brackets; no decision reads ``cap_bits``. Each record's branch is one
    ``_branch``, and each xi_n is inverted once, into a list, for every record that holds it.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    imf.check_pair(alpha, beta)
    xis = imf._inv_xis(alpha, 0, depth)
    xi: list[QuadExt | None] = [None] * (depth + 1)
    records, new, init = [], object.__new__, DichotomyRecord._init
    n = 1
    for s, eta in enumerate(imf._inv_xis(beta, 0, depth)):
        while n <= depth and not exact._above(xis[n], eta):
            n += 1
        if n > depth:
            break
        if exact._above(eta, xis[n - 1]):
            branch = _branch(alpha, n, xis[n - 1], xis[n], eta)
            for i in (n - 1, n):
                xi[i] = xi[i] or xis[i][2].inverse()
            init(record := new(DichotomyRecord), n, s, branch, xi[n - 1], xi[n], eta[2].inverse())
            records.append(record)
    return records


# -- The interleave-gap pattern -------------------------------------------------


GapPoint = tuple[DValue, exact.Bracketed, exact.Bracketed]  # d(t) and its two parts' brackets


class GapCertificate(Record):
    """Certificate for one interleave pattern occurrence.

    ``delta`` is the exact one-field value of d(first_point) - d(second_point)
    (pattern a; the reverse difference for pattern b), which must exceed
    bound*(quotient-1) >= bound; consequently |d| > bound/2 at one of the two
    points, and ``verified_points`` lists the points where that was confirmed.
    """

    __slots__ = ("pattern", "n", "m", "first_point", "second_point", "bound", "quotient",
                 "delta", "d_first", "d_second", "verified_points")

    def to_json(self, digits: int = 12) -> dict:
        scale = 10**digits
        return {
            "kind": f"interleave_gap_{self.pattern}",
            "indices": {
                "n": self.n,
                "m": self.m,
                "first_point": self.first_point,
                "second_point": self.second_point,
            },
            "t": self.verified_points[0],
            "exact_values": {"delta": str(self.delta)},
            "decimal": {
                "d_first": self.d_first.render(digits),
                "d_second": self.d_second.render(digits),
                "delta": render_decimal(self.delta, digits),
                "threshold": exact._format_scaled(self.bound * (self.quotient - 1) * scale, digits),
                "half_bound": exact._format_scaled(exact._round_half_even(self.bound * scale, 2),
                                                   digits),
            },
            "verdict": "verified",
        }


def _gap_certificate(pattern: str, n: int, m: int, first_point: int, second_point: int,
                     first: GapPoint, second: GapPoint, quotient: int) -> GapCertificate:
    """Check one occurrence, bounded by its second point, from (d, brackets) at its two points."""
    bound, d_first, d_second = second_point, first[0], second[0]
    # pattern a holds beta's 1/psi and steps alpha's; the index of each bracket in a GapPoint
    name, held, stepping = ("beta", 1, 2) if pattern == "a" else ("alpha", 2, 1)
    if first[held][2] != second[held][2]:
        raise GapViolationError(f"{name} step is not constant across the pattern")
    after, before = second[stepping], first[stepping]
    if not exact._above(after, before, 1, bound * (quotient - 1)):
        raise GapViolationError(
            f"exact gap inequality failed at pattern {pattern}, (n, m) = ({n}, {m})"
        )
    verified = [point for point, (_, b, a) in ((first_point, first), (second_point, second))
                if exact._above(b, a, 2, bound) or exact._above(a, b, 2, bound)]
    if not verified:
        raise GapViolationError(
            f"neither point exceeds half the bound at pattern {pattern}, (n, m) = ({n}, {m})"
        )
    return GapCertificate(
        pattern, n, m, first_point, second_point, bound, quotient,
        after[2] - before[2], d_first, d_second, tuple(verified),
    )


def scan_interleave_gap(
    alpha: CFExpansion,
    beta: CFExpansion,
    depth: int,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> list[GapCertificate]:
    """Certificates for every interleave pattern with indices <= depth.

    Pattern a: q_{n-1} <= t_{m-1} < q_n < t_m with a_{n+1} >= 2, evaluated at
    t_{m-1} and q_n. Pattern b swaps the roles of the two numbers. Either way the
    two points are consecutive merged denominators, the first a denominator of the
    number that does not step at the second, so merging the two numbers' rows from r(1)
    (``imf._table``'s to index depth + 2, ``imf._merged_brackets``) finds them all by their
    indices, evaluating nothing, until an index passes depth (past min(q_depth, t_depth)). Only
    an occurrence with a quotient >= 2 is evaluated, each 1/psi once per index by the table's
    reader, so every value the scan brackets (``imf._bracketed``) is one its certificates hold.
    Each comparison is ``exact._above``: the gap inequality on the stepping number's brackets,
    and the point test |d| > bound/2 on d's parts, both ways round; no decision reads ``cap_bits``.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    imf.check_pair(alpha, beta)
    matches, tables = [], (imf._table(alpha, depth + 2), imf._table(beta, depth + 2))
    walks = (rows[rows[1][2] == 1:] for rows, _ in tables)  # from r(1): row 1 if q_1 = 1

    def d(t: int, a: imf.Bracket, b: imf.Bracket) -> GapPoint:
        inv_a, inv_b = imf._bracketed(t, a, tables[0][1]), imf._bracketed(t, b, tables[1][1])
        return DValue(inv_b[2], inv_a[2], a[0], b[0]), inv_b, inv_a

    for (t0, a0, b0), (t1, a1, b1) in itertools.pairwise(imf._merged_brackets(*walks, 1)):
        if a1[0] > depth or b1[0] > depth:
            break
        if b1 is b0 and t0 == b0[2] and b0[0] < depth:  # beta holds t_{m-1} = t0
            pattern, n, m, quotient = "a", a1[0], b0[0] + 1, alpha.partial_quotient(a1[0] + 1)
        elif a1 is a0 and t0 == a0[2] and a0[0] < depth:  # alpha holds q_{n-1} = t0
            pattern, n, m, quotient = "b", a0[0] + 1, b1[0], beta.partial_quotient(b1[0] + 1)
        else:
            continue
        if quotient >= 2:
            matches.append((pattern, n, m, t0, t1, d(t0, a0, b0), d(t1, a1, b1), quotient))
    matches.sort(key=lambda match: match[0])  # stable: pattern a first, each in walk order
    return [_gap_certificate(*match) for match in matches]


# -- Sharpness: the near-optimal companion of tau --------------------------------


class OptimalPair(Record):
    """The companion number theta of tau built from the shifted sequence X.

    theta = [0; b_1, ..., b_w, (1)] where the reversed word b comes from the
    expansion X_{k-1}/X_k = [0; b_w, ..., b_1]; its convergent denominators
    satisfy s_n = X_{n + index_shift} for every n >= w - 1.
    """

    __slots__ = ("epsilon", "U", "V", "A", "k", "w", "b", "theta", "index_shift")

    def to_json(self, digits: int = 12) -> dict:
        return {
            "kind": "optimal_pair",
            "indices": {"k": self.k, "w": self.w, "index_shift": self.index_shift},
            "t": None,
            "exact_values": {
                "A": str(self.A),
                "approximant": str(self.V + self.U * PHI),
            },
            "decimal": {
                "A": render_decimal(self.A, digits),
                "error": render_decimal(abs(SQRT_TAU - (self.V + self.U * PHI)), digits),
            },
            "verdict": "constructed",
            "U": self.U,
            "V": self.V,
            "b": list(self.b),
            "theta": str(self.theta),
            "epsilon": _ratio_str(self.epsilon.numerator, self.epsilon.denominator),
        }


def construct_optimal(epsilon: Fraction, cap_bits: int = DEFAULT_CAP_BITS) -> OptimalPair:
    """Deterministic search for the near-optimal companion of tau.

    U ascends from 0; V is the nearest integer to x = sqrt(tau) - U*phi, a ``Root``, so that
    tau*V + U = tau*(V + U*phi) > 0 always. The first pair with gcd(U, V) = 1, error
    |x - V| < epsilon (the error ``to_json`` prints), and a companion theta
    with tau +- theta not integral is accepted. A screen skips U: at K = 64 + min(bits(epsilon's
    denominator), 64) + bits(U's limit), with P, S, E = floor(phi*2^K), floor(sqrt(tau)*2^K),
    ceil(epsilon*2^K) and r = (U*P - S) mod 2^K, 2^K*(U*phi - sqrt(tau)) lies in (r - 1, r + U)
    mod 2^K, so E < r <= 2^K - E - U means an error >= epsilon, at any K: the min only bounds
    the cost. A U let through errs by under epsilon + (U + 2)/2^K, below epsilon*(1 + 2^-64)
    for a denominator of at most 64 bits; exact ``Root`` signs decide it, not ``cap_bits``.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    n, d = epsilon.numerator, epsilon.denominator
    one = 1 << 64 + min(d.bit_length(), 64) + _UV_SEARCH_LIMIT.bit_length()  # 2^K
    P, E = PHI._scaled_floor(one), -(-n * one // d)
    r = -SQRT_TAU._scaled_floor(one) % one  # -S mod 2^K
    for U in range(_UV_SEARCH_LIMIT + 1):
        if r <= E or r + U > one - E:
            x = SQRT_TAU - U * PHI
            V = (x._scaled_floor(2) + 1) // 2  # floor(x + 1/2); x is irrational: no tie
            if math.gcd(U, V) == 1 and (abs(x - V) - epsilon).sign() < 0:
                pair = _build_pair(epsilon, U, V)
                if contfrac.is_nonintegral_sum_and_diff(TAU_CF.value(), pair.theta.value()):
                    return pair
        r = (r + P) & (one - 1)
    # past _STR_BITS, a bound from the bit lengths names epsilon: its digits cost quadratic time
    name = (_ratio_str(n, d) if d.bit_length() <= _STR_BITS
            else f"below 2^-{d.bit_length() - n.bit_length() - 1}")
    raise SearchExhaustedError(f"no (U, V) with U <= {_UV_SEARCH_LIMIT} for epsilon {name}")


def _build_pair(epsilon: Fraction, U: int, V: int) -> OptimalPair:
    xs = [U, V]
    while not 1 <= xs[-2] < xs[-1]:  # A > 0 guarantees the sequence eventually increases past 1
        xs.append(xs[-1] + xs[-2])
    k = len(xs) - 1
    cf = rational_to_cf(xs[k - 1], xs[k])
    if cf.a0 != 0:
        raise PsidiffError(f"X_{k - 1}/X_{k} = {xs[k - 1]}/{xs[k]} is not below 1")
    b = tuple(reversed(cf.preperiod))
    w = len(b)
    theta = CFExpansion(0, b, (1,))
    shift = k - w
    while len(xs) < k + 22:
        xs.append(xs[-1] + xs[-2])
    for n, _, s_n in itertools.islice(contfrac.convergent_stream(theta), max(w - 1, 0), w + 21):
        if s_n != xs[n + shift]:
            raise PsidiffError(
                f"denominator correspondence failed at n={n}: "
                f"s_n={s_n} != X_{n + shift}={xs[n + shift]}"
            )
    A = (TAU * V + U) / (TAU + 2)
    return OptimalPair(epsilon, U, V, A, k, w, b, theta, shift)


class NearOptimalityReport(Record):
    """The exact largest |d(t)|/t in range, first reached at argmax_t; printed as both keys."""

    __slots__ = ("max_ratio", "argmax_t", "passed", "t_min", "t_max", "slack")

    def to_json(self, digits: int = 12) -> dict:
        ratio = render_decimal(self.max_ratio, digits)
        return {
            "kind": "near_optimality",
            "indices": {"t_min": self.t_min, "t_max": self.t_max},
            "t": self.argmax_t,
            "exact_values": {},
            "decimal": {
                "max_ratio_lo": ratio,
                "max_ratio_hi": ratio,
                "c_plus_slack": render_decimal(C + self.slack, digits),
            },
            "verdict": "pass" if self.passed else "fail",
        }


def verify_near_optimality(
    pair: OptimalPair,
    t_min: int,
    t_max: int,
    slack: Fraction | None = None,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> NearOptimalityReport:
    """Check |d_{tau,theta}(t)| < (C + slack)*t over all breakpoints in range.

    A reversed range is rejected, and t_min is raised to the denominator s_{w+10}
    so that the shifted-index regime is in force. slack defaults to five epsilon,
    covering the finite-range transients of an asymptotic bound. theta lies in Q(sqrt(5)), so
    the walk keeps the exact maximum of |d(t)|/t, and the verdict is the exact sign of
    C + slack - maximum, a ``Root``; ``exact._max_ratio`` keeps the maximum in integers, two
    sign tests a step. The verdict does not read ``cap_bits``.
    """
    if slack is None:
        slack = 5 * pair.epsilon
    slack = Fraction(slack)
    if t_min > t_max:
        raise ValueError("need t_min <= t_max")
    t_lo = max(t_min, regime_floor := _regime_floor(pair))
    if t_lo > t_max:
        raise ValueError(f"range [{t_min}, {t_max}] lies below the verified regime {regime_floor}")
    imf.check_pair(TAU_CF, pair.theta)
    if pair.theta.value().D != TAU.D:
        raise PreconditionFailedError(f"theta = {pair.theta} does not lie in Q(sqrt(5))")
    steps = imf._d_steps(TAU_CF, pair.theta, t_lo, t_max)
    max_ratio, argmax_t = exact._max_ratio((t, d.inv_psi_beta, d.inv_psi_alpha) for t, d in steps)
    passed = (C + slack - max_ratio).sign() > 0
    return NearOptimalityReport(max_ratio, argmax_t, passed, t_lo, t_max, slack)


def _regime_floor(pair: OptimalPair) -> int:
    """s_{w+10}, theta's denominator from which the shifted-index regime is in force."""
    return contfrac.convergent_state(pair.theta, pair.w + 10)[2]


# -- Fibonacci / Binet ------------------------------------------------------------


def binet_fib(n: int) -> int:
    """F_n by the recurrence, checked exactly against Binet's (tau^n - (-phi)^n)/sqrt(5)."""
    if not 1 <= n <= 300:
        raise ValueError("n must be in [1, 300]")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    if (math.prod([TAU] * n) - math.prod([-PHI] * n)) / SQRT5 != a:
        raise AssertionError(f"Binet's formula for n={n} does not give F_n={a}")
    return a
