"""Machine-checkable certificates for the main inequality and its lemmas.

Witnesses certify |d(t)| >= C*t at explicit t. The lemma scanners enumerate
the finite coincidence patterns between the two denominator sequences and, for
the interleave pattern, verify the exact in-field inequality that drives the
contradiction. The optimality construction builds the near-extremal companion
of tau from a shifted Fibonacci-type sequence and verifies the denominator
correspondence it relies on.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import contfrac, imf
from .contfrac import CFExpansion, rational_to_cf
from .errors import (
    DichotomyViolationError,
    GapViolationError,
    NotFoundInRangeError,
    PreconditionFailedError,
    PsidiffError,
    SearchExhaustedError,
    UndecidedSignError,
)
from .exact import (
    DEFAULT_CAP_BITS,
    PHI,
    TAU,
    Comparison,
    Interval,
    QuadExt,
    c_enclosure,
    refine,
    refine_compare,
    render_decimal,
    render_decimal_down,
    sqrt_interval,
    sqrt_tau_enclosure,
)
from .imf import DValue, convergent_distance
from .numspec import TAU_CF

_UV_SEARCH_LIMIT = 10**6


# -- Witnesses for the lower bound |d(t)| >= C*t --------------------------------


@dataclass(frozen=True)
class Witness:
    """A point t with |d(t)| >= C*t, certified by a separated enclosure pair.

    ``to_json`` prints |d(t)|/t rounded down as ``ratio_lower_bound``.
    """

    t: int
    d_value: DValue
    ratio_lower_bound: Fraction
    comparison: Comparison

    def to_json(self, digits: int = 12, cap_bits: int = DEFAULT_CAP_BITS) -> dict:
        d = self.d_value
        exact = d.as_quadext()
        ratio = (abs(exact) / self.t if exact is not None
                 else lambda bits: d.abs_enclosure(bits) / self.t)
        return {
            "kind": "witness",
            "indices": {"alpha_r": d.alpha_index, "beta_l": d.beta_index},
            "t": self.t,
            "exact_values": {
                "inv_psi_alpha": str(d.inv_psi_alpha),
                "inv_psi_beta": str(d.inv_psi_beta),
            },
            "decimal": {
                "d": d.render(digits, cap_bits),
                "c_times_t": render_decimal(lambda bits: c_enclosure(bits) * self.t,
                                            digits, cap_bits),
                "ratio_lower_bound": render_decimal_down(ratio, digits, cap_bits),
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
    increases, so a witness anywhere in a step gives one at its left end.
    """
    if not 1 <= T <= search_bound:
        raise ValueError("need 1 <= T <= search_bound")
    imf.check_pair(alpha, beta)
    for t, d in imf._d_steps(alpha, beta, T, search_bound):
        verdict = refine_compare(d.abs_enclosure, lambda bits: c_enclosure(bits) * t, cap_bits)
        if verdict is Comparison.GREATER:
            lo = refine(d.abs_enclosure, lambda enc: enc.lo if enc.lo > 0 else None, cap_bits, 64)
            if lo is None:
                raise UndecidedSignError(f"|d({t})| not bounded away from 0 at {cap_bits} bits")
            return Witness(t, d, lo / t, verdict)
        if verdict is Comparison.UNDECIDED:
            raise UndecidedSignError(f"|d({t})| vs C*{t} undecided at {cap_bits} bits")
    raise NotFoundInRangeError(
        f"no witness in [{T}, {search_bound}]; a larger search bound may still contain one"
    )


# -- Lemma scans over denominator coincidences ---------------------------------


def scan_lemma_conseq(alpha: CFExpansion, beta: CFExpansion, depth: int) -> list[tuple[int, int]]:
    """All (n, m) with (q_n, q_{n+1}) = (t_m, t_{m+1}) and n, m <= depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    imf.check_pair(alpha, beta)
    qs, ts = ([c.q for c in contfrac.convergents(x, depth + 1)] for x in (alpha, beta))
    by_pair: dict[tuple[int, int], list[int]] = {}
    for m in range(depth + 1):
        by_pair.setdefault((ts[m], ts[m + 1]), []).append(m)
    out = []
    for n in range(depth + 1):
        for m in by_pair.get((qs[n], qs[n + 1]), ()):
            out.append((n, m))
    out.sort()
    return out


def scan_lemma_conseq1(alpha: CFExpansion, beta: CFExpansion, depth: int) -> list[tuple[int, int]]:
    """All (n, m), n, m <= depth, with (q_n, q_{n+2}) = (t_{m+1}, t_{m+2}) and a_{n+2} = 1."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    imf.check_pair(alpha, beta)
    qs, ts = ([c.q for c in contfrac.convergents(x, depth + 2)] for x in (alpha, beta))
    by_pair: dict[tuple[int, int], list[int]] = {}
    for m in range(depth + 1):
        by_pair.setdefault((ts[m + 1], ts[m + 2]), []).append(m)
    out = []
    for n in range(depth + 1):
        if alpha.partial_quotient(n + 2) != 1:
            continue
        for m in by_pair.get((qs[n], qs[n + 2]), ()):
            out.append((n, m))
    out.sort()
    return out


# -- The dichotomy --------------------------------------------------------------


class DichotomyBranch(Enum):
    FIRST_BRANCH = "first_branch"
    SECOND_BRANCH = "second_branch"
    BOTH = "both"


@dataclass(frozen=True)
class DichotomyRecord:
    n: int
    s: int
    branch: DichotomyBranch
    xi_prev: QuadExt
    xi: QuadExt
    eta: QuadExt

    def to_json(self, digits: int = 12, cap_bits: int = DEFAULT_CAP_BITS) -> dict:
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
                "xi_n_minus_1": render_decimal(self.xi_prev, digits, cap_bits),
                "xi_n": render_decimal(self.xi, digits, cap_bits),
                "eta_s": render_decimal(self.eta, digits, cap_bits),
            },
            "verdict": self.branch.value,
        }


def _strictly_less(x: QuadExt, y: QuadExt, cap_bits: int) -> bool:
    verdict = refine_compare(x, y, cap_bits)
    if verdict is Comparison.UNDECIDED:
        raise UndecidedSignError("cross-field order undecided at the precision cap")
    return verdict is Comparison.LESS

def check_dichotomy(
    alpha: CFExpansion,
    beta: CFExpansion,
    n: int,
    s: int,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> DichotomyBranch:
    """Which of the two lower-bound branches holds when eta_s is inside (xi_n, xi_{n-1}).

    Branch one: 1/eta_s - 1/xi_{n-1} >= t_s(beta_{s+1} + t_{s-1}/t_s)(1 - 1/sqrt(alpha_{n+1})).
    Branch two: 1/xi_n - 1/eta_s >= q_n(alpha_{n+1} + q_{n-1}/q_n)(1 - 1/sqrt(alpha_{n+1})).
    At least one must hold; neither holding is a violation that fails the build.
    """
    if n < 1 or s < 0:
        raise ValueError("need n >= 1 and s >= 0")
    xi = convergent_distance(alpha, n)
    xi_prev = convergent_distance(alpha, n - 1)
    eta = convergent_distance(beta, s)
    if not (_strictly_less(xi, eta, cap_bits) and _strictly_less(eta, xi_prev, cap_bits)):
        raise PreconditionFailedError(f"eta_{s} is not inside (xi_{n}, xi_{n-1})")

    _, _, q_n, q_nm1 = contfrac.convergent_state(alpha, n)
    q_nm2 = q_n - alpha.partial_quotient(n) * q_nm1  # q_{-1} = 0 at n = 1
    _, _, t_s, t_sm1 = contfrac.convergent_state(beta, s)
    inv_eta = t_s * contfrac.tail(beta, s + 1) + t_sm1
    inv_xi = q_n * contfrac.tail(alpha, n + 1) + q_nm1
    inv_xi_prev = q_nm1 * contfrac.tail(alpha, n) + q_nm2

    def factor(bits: int) -> Interval:
        root = sqrt_interval(contfrac.tail(alpha, n + 1).enclosure(bits), bits)
        return 1 - 1 / root

    def lhs_first(bits: int) -> Interval:
        return inv_eta.enclosure(bits) - inv_xi_prev.enclosure(bits)

    def rhs_first(bits: int) -> Interval:
        return inv_eta.enclosure(bits) * factor(bits)

    def lhs_second(bits: int) -> Interval:
        return inv_xi.enclosure(bits) - inv_eta.enclosure(bits)

    def rhs_second(bits: int) -> Interval:
        return inv_xi.enclosure(bits) * factor(bits)

    first = refine_compare(lhs_first, rhs_first, cap_bits)
    second = refine_compare(lhs_second, rhs_second, cap_bits)
    first_holds = first in (Comparison.GREATER, Comparison.EQUAL)
    second_holds = second in (Comparison.GREATER, Comparison.EQUAL)
    if first_holds and second_holds:
        return DichotomyBranch.BOTH
    if first_holds:
        return DichotomyBranch.FIRST_BRANCH
    if second_holds:
        return DichotomyBranch.SECOND_BRANCH
    if first is Comparison.LESS and second is Comparison.LESS:
        raise DichotomyViolationError(f"neither branch holds at (n, s) = ({n}, {s})")
    raise UndecidedSignError(f"dichotomy branches undecided at (n, s) = ({n}, {s})")


def scan_dichotomy(
    alpha: CFExpansion,
    beta: CFExpansion,
    depth: int,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> list[DichotomyRecord]:
    """check_dichotomy over every valid (n, s) with both indices <= depth.

    Both remainder sequences are strictly decreasing, so for each s there is at
    most one n with eta_s strictly inside (xi_n, xi_{n-1}); a single merge pass
    finds them all.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    imf.check_pair(alpha, beta)
    xis = [convergent_distance(alpha, n) for n in range(depth + 1)]
    records = []
    n = 1
    for s in range(depth + 1):
        eta = convergent_distance(beta, s)
        while n <= depth and not _strictly_less(xis[n], eta, cap_bits):
            n += 1
        if n > depth:
            break
        if _strictly_less(eta, xis[n - 1], cap_bits):
            branch = check_dichotomy(alpha, beta, n, s, cap_bits)
            records.append(
                DichotomyRecord(n, s, branch, xis[n - 1], xis[n], eta)
            )
    return records


# -- The interleave-gap pattern -------------------------------------------------


@dataclass(frozen=True)
class GapCertificate:
    """Certificate for one interleave pattern occurrence.

    ``delta`` is the exact one-field value of d(first_point) - d(second_point)
    (pattern a; the reverse difference for pattern b), which must exceed
    bound*(quotient-1) >= bound; consequently |d| > bound/2 at one of the two
    points, and ``verified_points`` lists the points where that was confirmed.
    """

    pattern: str
    n: int
    m: int
    first_point: int
    second_point: int
    bound: int
    quotient: int
    delta: QuadExt
    d_first: DValue
    d_second: DValue
    verified_points: tuple[int, ...]

    def to_json(self, digits: int = 12, cap_bits: int = DEFAULT_CAP_BITS) -> dict:
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
                "d_first": self.d_first.render(digits, cap_bits),
                "d_second": self.d_second.render(digits, cap_bits),
                "delta": render_decimal(self.delta, digits, cap_bits),
                "threshold": render_decimal(Fraction(self.bound * (self.quotient - 1)), digits),
                "half_bound": render_decimal(Fraction(self.bound, 2), digits),
            },
            "verdict": "verified",
        }


def _gap_certificate(
    alpha: CFExpansion,
    beta: CFExpansion,
    pattern: str,
    n: int,
    m: int,
    first_point: int,
    second_point: int,
    bound: int,
    quotient: int,
    cap_bits: int,
) -> GapCertificate:
    d_first = imf.d_at(alpha, beta, first_point)
    d_second = imf.d_at(alpha, beta, second_point)
    if pattern == "a":
        if d_first.inv_psi_beta != d_second.inv_psi_beta:
            raise GapViolationError("beta step is not constant across the pattern")
        delta = d_second.inv_psi_alpha - d_first.inv_psi_alpha
    else:
        if d_first.inv_psi_alpha != d_second.inv_psi_alpha:
            raise GapViolationError("alpha step is not constant across the pattern")
        delta = d_second.inv_psi_beta - d_first.inv_psi_beta
    if not delta > bound * (quotient - 1):
        raise GapViolationError(
            f"exact gap inequality failed at pattern {pattern}, (n, m) = ({n}, {m})"
        )
    verified = []
    half = Fraction(bound, 2)
    for point, d in ((first_point, d_first), (second_point, d_second)):
        if refine_compare(d.abs_enclosure, half, cap_bits) is Comparison.GREATER:
            verified.append(point)
    if not verified:
        raise GapViolationError(
            f"neither point exceeds half the bound at pattern {pattern}, (n, m) = ({n}, {m})"
        )
    return GapCertificate(
        pattern, n, m, first_point, second_point, bound, quotient,
        delta, d_first, d_second, tuple(verified),
    )


def scan_interleave_gap(
    alpha: CFExpansion,
    beta: CFExpansion,
    depth: int,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> list[GapCertificate]:
    """Certificates for every interleave pattern with indices <= depth.

    Pattern a: q_{n-1} <= t_{m-1} < q_n < t_m with a_{n+1} >= 2, evaluated at
    t_{m-1} and q_n. Pattern b swaps the roles of the two numbers.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    imf.check_pair(alpha, beta)
    qs, ts = ([c.q for c in contfrac.convergents(x, depth + 1)] for x in (alpha, beta))
    certificates = []
    for n in range(1, depth + 1):
        m, a = _step_index(ts, qs[n], depth), alpha.partial_quotient(n + 1)
        if m and a >= 2 and qs[n - 1] <= ts[m - 1]:
            certificates.append(_gap_certificate(alpha, beta, "a", n, m, ts[m - 1], qs[n],
                                                 qs[n], a, cap_bits))
    for m in range(1, depth + 1):
        n, b = _step_index(qs, ts[m], depth), beta.partial_quotient(m + 1)
        if n and b >= 2 and ts[m - 1] <= qs[n - 1]:
            certificates.append(_gap_certificate(alpha, beta, "b", n, m, qs[n - 1], ts[m],
                                                 ts[m], b, cap_bits))
    return certificates


def _step_index(denominators: list[int], x: int, depth: int) -> int:
    """The one m in 1..depth with denominators[m-1] < x < denominators[m], else 0.

    Denominators never decrease, so the open steps between them are disjoint.
    """
    m = bisect.bisect_right(denominators, x, 0, depth + 1)
    return m if 1 <= m <= depth and denominators[m - 1] < x else 0


# -- Sharpness: the near-optimal companion of tau --------------------------------


@dataclass(frozen=True)
class OptimalPair:
    """The companion number theta of tau built from the shifted sequence X.

    theta = [0; b_1, ..., b_w, (1)] where the reversed word b comes from the
    expansion X_{k-1}/X_k = [0; b_w, ..., b_1]; its convergent denominators
    satisfy s_n = X_{n + index_shift} for every n >= w - 1.
    """

    epsilon: Fraction
    U: int
    V: int
    A: QuadExt
    k: int
    w: int
    b: tuple[int, ...]
    theta: CFExpansion
    index_shift: int

    def to_json(self, digits: int = 12, cap_bits: int = DEFAULT_CAP_BITS) -> dict:
        return {
            "kind": "optimal_pair",
            "indices": {"k": self.k, "w": self.w, "index_shift": self.index_shift},
            "t": None,
            "exact_values": {
                "A": str(self.A),
                "approximant": str(self.V + self.U * PHI),
            },
            "decimal": {
                "A": render_decimal(self.A, digits, cap_bits),
                "error": render_decimal(self._error_enclosure, digits, cap_bits),
            },
            "verdict": "constructed",
            "U": self.U,
            "V": self.V,
            "b": list(self.b),
            "theta": str(self.theta),
            "epsilon": str(self.epsilon),
        }

    def _error_enclosure(self, bits: int) -> Interval:
        return abs((self.V + self.U * PHI).enclosure(bits) - sqrt_tau_enclosure(bits))


def _nearest_int(make: Callable[[int], Interval], cap_bits: int) -> int:
    """Nearest integer to an irrational enclosure generator."""

    def rounded(enc: Interval) -> int | None:
        lo = math.floor(enc.lo + Fraction(1, 2))
        return lo if lo == math.floor(enc.hi + Fraction(1, 2)) else None

    n = refine(make, rounded, cap_bits)
    if n is None:
        raise UndecidedSignError("nearest integer undecided at the precision cap")
    return n


def construct_optimal(epsilon: Fraction, cap_bits: int = DEFAULT_CAP_BITS) -> OptimalPair:
    """Deterministic search for the near-optimal companion of tau.

    U ascends from 0; V is the nearest integer to sqrt(tau) - U/tau. The first
    pair with approximation error < epsilon, gcd(U, V) = 1, tau*V + U > 0, and
    a companion theta with tau +- theta not integral is accepted.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    for U in range(_UV_SEARCH_LIMIT + 1):
        target = lambda bits: sqrt_tau_enclosure(bits) - (U * PHI).enclosure(bits)
        V = _nearest_int(target, cap_bits)
        sigma = V + U * PHI
        err = lambda bits: abs(sigma.enclosure(bits) - sqrt_tau_enclosure(bits))
        if refine_compare(err, epsilon, cap_bits) is not Comparison.LESS:
            continue
        if math.gcd(U, V) != 1:
            continue
        if not (TAU * V + U) > 0:
            continue
        pair = _build_pair(epsilon, U, V)
        if contfrac.is_nonintegral_sum_and_diff(TAU_CF.value(), pair.theta.value()):
            return pair
    raise SearchExhaustedError(f"no (U, V) with U <= {_UV_SEARCH_LIMIT} for epsilon {epsilon}")


def _x_sequence(U: int, V: int, length: int) -> list[int]:
    xs = [U, V]
    while len(xs) < length:
        xs.append(xs[-1] + xs[-2])
    return xs


def _build_pair(epsilon: Fraction, U: int, V: int) -> OptimalPair:
    length = 64
    while True:
        xs = _x_sequence(U, V, length)
        k = next((i for i in range(1, len(xs)) if 1 <= xs[i - 1] < xs[i]), None)
        if k is not None:
            break
        length *= 2  # A > 0 guarantees the sequence eventually increases past 1
    cf = rational_to_cf(xs[k - 1], xs[k])
    if cf.a0 != 0:
        raise PsidiffError(f"X_{k - 1}/X_{k} = {xs[k - 1]}/{xs[k]} is not below 1")
    b = tuple(reversed(cf.preperiod))
    w = len(b)
    theta = CFExpansion(0, b, (1,))
    shift = k - w
    xs = _x_sequence(U, V, w + 22 + shift)
    denominators = [c.q for c in contfrac.convergents(theta, w + 21)]
    for n in range(max(w - 1, 0), w + 21):
        if denominators[n] != xs[n + shift]:
            raise PsidiffError(
                f"denominator correspondence failed at n={n}: "
                f"s_n={denominators[n]} != X_{n + shift}={xs[n + shift]}"
            )
    A = (TAU * V + U) / (TAU + 2)
    return OptimalPair(epsilon, U, V, A, k, w, b, theta, shift)


@dataclass(frozen=True)
class NearOptimalityReport:
    max_ratio_enclosure: Interval
    argmax_t: int
    passed: bool
    t_min: int
    t_max: int
    slack: Fraction

    def to_json(self, digits: int = 12, cap_bits: int = DEFAULT_CAP_BITS) -> dict:
        return {
            "kind": "near_optimality",
            "indices": {"t_min": self.t_min, "t_max": self.t_max},
            "t": self.argmax_t,
            "exact_values": {},
            "decimal": {
                "max_ratio_lo": render_decimal(self.max_ratio_enclosure.lo, digits),
                "max_ratio_hi": render_decimal(self.max_ratio_enclosure.hi, digits),
                "c_plus_slack": render_decimal(lambda bits: c_enclosure(bits) + self.slack,
                                               digits, cap_bits),
            },
            "verdict": "pass" if self.passed else "fail",
        }


_RATIO_BITS = 192


def verify_near_optimality(
    pair: OptimalPair,
    t_min: int,
    t_max: int,
    slack: Fraction | None = None,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> NearOptimalityReport:
    """Check |d_{tau,theta}(t)| < (C + slack)*t over all breakpoints in range.

    The range is clamped from below to the denominator s_{w+10} so that the
    shifted-index regime is in force; slack defaults to five epsilon, covering
    the finite-range transients of an asymptotic bound.
    """
    if slack is None:
        slack = 5 * pair.epsilon
    slack = Fraction(slack)
    regime_floor = contfrac.convergent_state(pair.theta, pair.w + 10)[2]
    t_lo = max(t_min, regime_floor)
    if t_lo > t_max:
        raise ValueError(f"range [{t_min}, {t_max}] lies below the verified regime {regime_floor}")
    imf.check_pair(TAU_CF, pair.theta)
    passed = True
    max_lo = max_hi = argmax_t = None
    for t, d in imf._d_steps(TAU_CF, pair.theta, t_lo, t_max):
        ratio = d.abs_enclosure(_RATIO_BITS) * Fraction(1, t)
        if max_hi is None or ratio.hi > max_hi:
            max_hi = ratio.hi
            argmax_t = t
        max_lo = ratio.lo if max_lo is None else max(max_lo, ratio.lo)
        verdict = refine_compare(
            d.abs_enclosure, lambda bits, t=t: (c_enclosure(bits) + slack) * t, cap_bits
        )
        if verdict is Comparison.GREATER:
            passed = False
        elif verdict is Comparison.UNDECIDED:
            raise UndecidedSignError(f"ratio comparison undecided at t={t}")
    return NearOptimalityReport(
        Interval(max_lo, max_hi), argmax_t, passed, t_lo, t_max, slack
    )


# -- Fibonacci / Binet ------------------------------------------------------------


@lru_cache(maxsize=None)
def _golden_power(name: str, n: int, bits: int) -> Interval:
    base = (TAU if name == "tau" else PHI).enclosure(bits)
    if n == 0:
        return Interval.point(1)
    return (_golden_power(name, n - 1, bits) * base).outward(bits)


def _binet_enclosure(n: int, bits: int = 256) -> Interval:
    tau_pow = _golden_power("tau", n, bits)
    phi_pow = _golden_power("phi", n, bits)
    alternating = phi_pow if n % 2 == 0 else -phi_pow
    return (tau_pow - alternating) / sqrt_interval(Interval.point(5), bits)


def binet_fib(n: int) -> int:
    """F_n by the recurrence, cross-checked against the closed-form enclosure."""
    if not 1 <= n <= 300:
        raise ValueError("n must be in [1, 300]")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    enc = _binet_enclosure(n)
    lo, hi = math.ceil(enc.lo), math.floor(enc.hi)
    if not (lo == hi == a):
        raise AssertionError(f"Binet enclosure for n={n} does not pin F_n={a}")
    return a
