"""Seeded input generators for the four benchmark workloads.

Everything here is plain integer arithmetic written for the benchmark; nothing
imports psidiff, so the program under test only ever sees the spec strings
drawn here. Each number carries its own continued-fraction expansion (derived
independently of ``psidiff.contfrac``) for the output checks.

Workload sizes and shares are fixed constants below; the seed and the number
of units vary.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# t = 10**e on a geometric ladder of e (ratio 1.5) up to 3375, then the two deep rungs
DEEP_T_EXPONENTS = (12, 18, 27, 40, 60, 90, 135, 200, 300, 450, 675, 1000, 1500, 2250, 3375,
                    10000, 30000)
# The grammar's four kinds of spec. deep_t and lemma_depth give each kind the first
# number of an equal share of their pairs, so the mix of kinds does not vary by seed.
KINDS = ("tau", "surd", "cf", "cf_pre")
PROFILE_SAME_FIELD_SHARE = 0.5  # share of profile_scan pairs drawn from one field
PROFILE_EXPONENTS = (20, 100)  # profile bound 10**e, e stratified over this range
PROFILE_STRATA = 8
# One pair at each depth per unit. Three depths near the middle put the median
# operation among fifteen of a run's twenty-five, not among the five of one depth.
LEMMA_DEPTHS = (60, 115, 130, 145, 200)
LEMMA_VERIFY_EXPONENTS = (12, 24)
LEMMA_EPSILON_DENOMINATORS = (20, 3000)  # epsilon = 1/n, n log-uniform in this range
CLI_COMMANDS = (
    "constants", "expand", "psi", "profile", "witness",
    "word", "lemmas", "construct-optimal", "verify-optimal",
)


@dataclass(frozen=True)
class Num:
    """A generated number: its spec string, its expansion and its field."""

    spec: str
    a0: int
    pre: tuple[int, ...]
    period: tuple[int, ...]
    field: int  # squarefree part of the discriminant
    surd: tuple[int, int, int] | None = None  # (P, D, Q) for surd specs



def period_matrix(block):
    m = ((1, 0), (0, 1))
    for a in block:
        (m11, m12), (m21, m22) = m
        m = ((m11 * a + m12, m11), (m21 * a + m22, m21))
    return m


def squarefree_part(n: int) -> int:
    f, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            f *= p
        p += 1
    return f * n


def period_discriminant(period: tuple[int, ...]) -> int:
    """Discriminant of q*w^2 + (q' - p)*w - p' = 0 for w = [(period)]."""
    (p, p1), (q, q1) = period_matrix(period)
    return (q1 - p) ** 2 + 4 * q * p1


def expand_surd(P: int, D: int, Q: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(a0, preperiod, period) of (P + sqrt(D))/Q by the classical (P, Q) recursion."""
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    s = math.isqrt(D)
    quotients: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    while True:
        a = (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1
        quotients.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        if (P, Q) in seen:  # the period starts after a0, never at it
            j = seen[(P, Q)]
            return quotients[0], tuple(quotients[1:j]), tuple(quotients[j:])
        seen[(P, Q)] = len(quotients)


TAU = Num("tau", 1, (), (1,), 5)


def cf_num(a0: int, pre: tuple[int, ...], period: tuple[int, ...]) -> Num:
    body = ",".join(map(str, pre))
    body = f"{body},({','.join(map(str, period))})" if pre else f"({','.join(map(str, period))})"
    return Num(f"cf:[{a0};{body}]", a0, pre, period, squarefree_part(period_discriminant(period)))


def surd_num(P: int, D: int, Q: int) -> Num:
    a0, pre, period = expand_surd(P, D, Q)
    return Num(f"surd:({P}+sqrt({D}))/{Q}", a0, pre, period, squarefree_part(D), (P, D, Q))


def draw_cf(rng: random.Random, with_pre: bool | None = None) -> Num:
    if with_pre is None:
        with_pre = rng.random() < 0.5
    pre = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3))) if with_pre else ()
    period = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
    return cf_num(rng.randint(-2, 3), pre, period)


def draw_surd(rng: random.Random, D: int | None = None) -> Num:
    if D is None:
        D = rng.randint(2, 150)
        while math.isqrt(D) ** 2 == D:
            D = rng.randint(2, 150)
    Q = rng.choice((-1, 1)) * rng.randint(1, 9)
    return surd_num(rng.randint(-12, 12), D, Q)


def draw_any(rng: random.Random) -> Num:
    u = rng.random()
    if u < 0.15:
        return TAU
    return draw_surd(rng) if u < 0.55 else draw_cf(rng)


def draw_kind(rng: random.Random, kind: str) -> Num:
    if kind == "tau":
        return TAU
    return draw_surd(rng) if kind == "surd" else draw_cf(rng, kind == "cf_pre")


def integral_sum_or_diff(x: Num, y: Num) -> bool:
    """True when x + y or x - y is an integer (only possible within one field)."""
    if x.field != y.field or x.surd is None or y.surd is None:
        return False
    (P1, D1, Q1), (P2, D2, Q2) = x.surd, y.surd
    if D1 != D2:
        return False
    # x +- y = (P1 Q2 +- P2 Q1)/(Q1 Q2) + (Q2 +- Q1)/(Q1 Q2) sqrt(D)
    for sgn in (1, -1):
        if Q2 + sgn * Q1 == 0 and (P1 * Q2 + sgn * P2 * Q1) % (Q1 * Q2) == 0:
            return True
    return False


def cross_field_pair(rng, kind: str | None = None, draw=draw_any) -> tuple[Num, Num]:
    """alpha of ``kind`` (else from ``draw``), beta from ``draw`` in another field."""
    alpha = draw(rng) if kind is None else draw_kind(rng, kind)
    beta = draw(rng)
    while beta.field == alpha.field:
        beta = draw(rng)
    return alpha, beta


def same_field_pair(rng) -> tuple[Num, Num]:
    """Two surds with the same radicand, alpha +- beta not integral."""
    alpha = draw_surd(rng)
    beta = draw_surd(rng, alpha.surd[1])
    while integral_sum_or_diff(alpha, beta):
        beta = draw_surd(rng, alpha.surd[1])
    return alpha, beta


def _stratified(rng, lo: float, hi: float, strata: int) -> list[float]:
    """One uniform draw from each of ``strata`` equal slices of [lo, hi], shuffled."""
    width = (hi - lo) / strata
    values = [lo + width * (k + rng.random()) for k in range(strata)]
    rng.shuffle(values)
    return values


# -- workloads: each returns a list of units; a unit is a list of op dicts ------


def deep_t(rng: random.Random, units: int) -> list[list[dict]]:
    """One unit per cross-field pair: the pair evaluated up the whole t ladder."""
    out = []
    for i in range(units):
        alpha, beta = cross_field_pair(rng, KINDS[i % len(KINDS)])
        out.append([{"alpha": alpha, "beta": beta, "t_exp": e} for e in DEEP_T_EXPONENTS])
    return out


def profile_scan(rng: random.Random, units: int) -> list[list[dict]]:
    """Units of PROFILE_STRATA pairs whose bounds cover 10**20..10**100 evenly."""
    out = []
    for _ in range(units):
        unit = []
        for k, e in enumerate(_stratified(rng, *PROFILE_EXPONENTS, PROFILE_STRATA)):
            same = k < PROFILE_STRATA * PROFILE_SAME_FIELD_SHARE  # strata are shuffled
            alpha, beta = same_field_pair(rng) if same else cross_field_pair(rng, draw=draw_cf)
            unit.append({
                "alpha": alpha, "beta": beta, "same_field": same,
                "bound": 10 ** round(e), "from": rng.randint(1, 50),
                "count": rng.randint(10, 40), "digits": 12,
            })
        out.append(unit)
    return out


def lemma_depth(rng: random.Random, units: int) -> list[list[dict]]:
    """Units of one cross-field pair at each depth of LEMMA_DEPTHS.

    The kind of alpha (one of KINDS, or any kind) rotates across units, so
    that every five units give each depth each kind once.
    """
    out = []
    kinds = (*KINDS, None)
    for u in range(units):
        unit = []
        verify = _stratified(rng, *LEMMA_VERIFY_EXPONENTS, len(LEMMA_DEPTHS))
        log_n = _stratified(rng, *map(math.log, LEMMA_EPSILON_DENOMINATORS), len(LEMMA_DEPTHS))
        for i, (depth, ve, ln) in enumerate(zip(LEMMA_DEPTHS, verify, log_n)):
            alpha, beta = cross_field_pair(rng, kinds[(i + u) % len(kinds)])
            unit.append({
                "alpha": alpha, "beta": beta, "depth": depth,
                "epsilon": f"1/{round(math.exp(ln))}", "from": 10**6, "bound": 10 ** round(ve),
                "digits": 12,
            })
        out.append(unit)
    return out


def cli_argv(rng: random.Random, command: str) -> tuple[list[str], dict]:
    """Arguments for one CLI command at README sizes, and what the check needs."""
    if command == "constants":
        digits = rng.randint(8, 40)
        return ["constants", "--digits", str(digits)], {"digits": digits}
    if command in ("expand", "psi"):
        x = draw_any(rng)
        if command == "expand":
            return ["expand", "--number", x.spec], {"number": x}
        t = round(math.exp(rng.uniform(0, math.log(10**12))))
        return ["psi", "--number", x.spec, "--t", str(t)], {"number": x, "t": t, "digits": 12}
    if command in ("construct-optimal", "verify-optimal"):
        eps = f"{rng.randint(5, 100) / 1000:.3f}"
        argv = [command, "--epsilon", eps]
        info = {"epsilon": eps, "digits": 12}
        if command == "verify-optimal":
            bound = 10 ** rng.randint(9, 12)
            argv += ["--from", str(10**6), "--bound", str(bound)]
            info.update({"from": 10**6, "bound": bound})
        return argv, info
    alpha, beta = cross_field_pair(rng)
    argv = [command, "--alpha", alpha.spec, "--beta", beta.spec]
    info = {"alpha": alpha, "beta": beta, "digits": 12}
    if command == "profile":
        bound = 10 ** rng.randint(2, 12)
        argv += ["--from", "1", "--bound", str(bound)]
        info.update({"from": 1, "bound": bound})
    elif command == "witness":
        start, bound = rng.randint(1, 1000), 10 ** rng.randint(6, 12)
        argv += ["--from", str(start), "--bound", str(bound)]
        info.update({"from": start, "bound": bound})
    elif command == "word":
        count = rng.randint(10, 40)
        argv += ["--count", str(count)]
        info["count"] = count
    elif command == "lemmas":
        argv += ["--max-depth", "60"]
        info["depth"] = 60
    return argv, info


def cli_mix(rng: random.Random, units: int) -> list[list[dict]]:
    """Units of nine CLI calls, one per README subcommand, in seeded order."""
    out = []
    for _ in range(units):
        commands = list(CLI_COMMANDS)
        rng.shuffle(commands)
        unit = []
        for command in commands:
            argv, info = cli_argv(rng, command)
            unit.append({"command": command, "argv": argv, **info})
        out.append(unit)
    return out


WORKLOADS = {"cli_mix": cli_mix, "deep_t": deep_t, "profile_scan": profile_scan,
             "lemma_depth": lemma_depth}


def generate(workload: str, seed: int, units: int) -> list[list[dict]]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), units)


def specs(units: list[list[dict]]) -> list[str]:
    """Every number spec the workload passes to the program, in first-use order."""
    seen: dict[str, None] = {}
    for unit in units:
        for op in unit:
            for key in ("alpha", "beta", "number"):
                if key in op:
                    seen.setdefault(op[key].spec)
    return list(seen)
