"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import random
import time
from fractions import Fraction

from psidiff import (
    CFExpansion,
    PHI,
    SQRT5,
    TAU,
    binet_fib,
    breakpoint_profile,
    construct_optimal,
    continuant,
    convergent_distance,
    convergents,
    find_witness,
    inv_psi,
    psi,
    refine_compare,
    render_decimal,
    scan_dichotomy,
    scan_interleave_gap,
    sign_changes,
    tail,
    verify_near_optimality,
)
from psidiff.exact import C, SQRT_TAU, Comparison, c_enclosure
from psidiff.numspec import parse_number

from _oracles import brute_force_psi_table, mp_cf_value

SQRT2 = parse_number("surd:(0+sqrt(2))/1")
SQRT3 = parse_number("surd:(0+sqrt(3))/1")
TAU_CF = parse_number("tau")
NINE_SQRT2_7 = parse_number("surd:(9+sqrt(2))/7")
FIVE1 = parse_number("cf:[0;5,(1)]")

FIVE_NUMBERS = (SQRT2, SQRT3, TAU_CF, NINE_SQRT2_7, FIVE1)
THREE_PAIRS = ((SQRT2, TAU_CF), (SQRT2, SQRT3), (TAU_CF, FIVE1))


class _Budget:
    def __init__(self, number: int, name: str, seconds: float):
        self.number, self.name, self.seconds = number, name, seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.name}): {status} in {elapsed:.2f}s "
              f"(budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.number} exceeded its runtime budget"
        return False


def test_criterion_1_constants():
    with _Budget(1, "constants", 1):
        assert render_decimal(C, 10).startswith("0.47818")
        assert render_decimal(SQRT_TAU - 1, 10).startswith("0.2720")
        assert render_decimal(C * 2 + 1, 10).startswith("1.95636")


def test_criterion_2_oracle_equivalence():
    with _Budget(2, "oracle equivalence", 60):
        t_max = 5000
        for cf in FIVE_NUMBERS:
            x = cf.value()
            table = brute_force_psi_table(mp_cf_value(cf), t_max)
            exact_dist_cache = {}
            for t in range(1, t_max + 1):
                value = psi(cf, t)
                q_star, rough = table[t - 1]
                assert value.q == q_star, (cf, t)
                if q_star not in exact_dist_cache:
                    exact_dist_cache[q_star] = (q_star * x).dist_to_nearest_int()
                assert value.value == exact_dist_cache[q_star], (cf, t)
                assert abs(float(rough) - float(value.value.enclosure(64).lo)) < 1e-12


def test_criterion_3_witnesses():
    with _Budget(3, "lower-bound witnesses", 30):
        for alpha, beta in THREE_PAIRS:
            pair_start = time.monotonic()
            for T in (10, 10**3, 10**6):
                witness = find_witness(alpha, beta, T, 10**12)
                assert witness.t >= T
                assert witness.to_json()["verdict"] == "greater"
                recheck = refine_compare(
                    witness.d_value.abs_enclosure,
                    lambda bits: c_enclosure(bits) * witness.t,
                )
                assert recheck is Comparison.GREATER
            assert time.monotonic() - pair_start < 10


def test_criterion_4_sign_changes():
    with _Budget(4, "sign changes", 5):
        profile = breakpoint_profile(SQRT2, TAU_CF, 1, 13)
        signs = {entry.t: entry.d.sign() for entry in profile.entries}
        assert (signs[1], signs[2], signs[3], signs[5]) == (1, -1, 1, -1)
        flips = sign_changes(profile)
        assert [t for t in flips if t <= 5] == [2, 3, 5]
        # the exact step values force two further flips before 13 (see ledger)
        assert flips == [2, 3, 5, 8, 12]
        wide = breakpoint_profile(SQRT2, SQRT3, 1, 10**6)
        assert len(sign_changes(wide)) >= 10


def _random_periodic(rng: random.Random) -> CFExpansion:
    a0 = rng.randint(0, 3)
    pre = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
    period = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
    return CFExpansion(a0, pre, period)


def test_criterion_5_identity_suite():
    with _Budget(5, "identity suite", 30):
        rng = random.Random(0x5EED)
        cases = 1000

        for _ in range(cases):  # determinant identity
            cf = _random_periodic(rng)
            convs = convergents(cf, rng.randint(1, 14))
            i = rng.randrange(1, len(convs))
            a, b = convs[i - 1], convs[i]
            assert b.p * a.q - a.p * b.q == (-1) ** (b.index - 1)

        for _ in range(cases):  # continuant reversal
            word = [rng.randint(1, 9) for _ in range(rng.randint(0, 30))]
            assert continuant(word) == continuant(word[::-1])

        for _ in range(cases):  # concatenation identity
            left = [rng.randint(1, 9) for _ in range(rng.randint(1, 15))]
            right = [rng.randint(1, 9) for _ in range(rng.randint(1, 15))]
            assert continuant(left + right) == (
                continuant(left) * continuant(right)
                + continuant(left[:-1]) * continuant(right[1:])
            )

        for _ in range(cases):  # both closed forms of 1/psi agree (else FormMismatch)
            cf = _random_periodic(rng)
            t = rng.randint(1, 10**6)
            value = inv_psi(cf, t)
            assert value == psi(cf, t).inv_value

        for _ in range(cases):  # integer-shift identity
            cf = _random_periodic(rng)
            n = rng.randint(0, 12)
            convs = convergents(cf, n)
            q_n = convs[n].q
            q_prev = convs[n - 1].q if n >= 1 else 0
            denom = q_n * tail(cf, n + 1) + q_prev
            assert convergent_distance(cf, n) * denom == 1
            shifted = q_n * cf.value() - (-1) ** n * denom.inverse()
            assert shifted == convs[n].p

        for _ in range(cases):  # xi_{n-1}/xi_n = alpha_{n+1}
            cf = _random_periodic(rng)
            n = rng.randint(1, 10)
            ratio = convergent_distance(cf, n - 1) / convergent_distance(cf, n)
            assert ratio == tail(cf, n + 1)


def test_criterion_6_lemma_checkers():
    with _Budget(6, "lemma checkers", 30):
        for alpha, beta in THREE_PAIRS:
            records = scan_dichotomy(alpha, beta, 60)  # raises on any violation
            assert records
        for alpha, beta in THREE_PAIRS:
            scan_interleave_gap(alpha, beta, 60)  # raises on any failed certificate
        certs = {(c.pattern, c.n, c.m): c for c in scan_interleave_gap(SQRT2, TAU_CF, 60)}
        cert = certs[("a", 3, 6)]
        assert cert.second_point == 12 and cert.bound == 12
        assert 12 in cert.verified_points
        d12 = cert.d_second.abs_enclosure(64)
        assert d12.lo > 6
        assert cert.d_second.render(4) == "-16.0263"


def test_criterion_7_optimality_construction():
    with _Budget(7, "optimality construction", 20):
        pair = construct_optimal(Fraction(6, 100))
        assert (pair.U, pair.V) == (7, -3)
        assert str(pair.theta) == "[0;5,(1)]"
        assert pair.index_shift == 3
        xs = [pair.U, pair.V]
        while len(xs) < 40:
            xs.append(xs[-1] + xs[-2])
        denoms = [c.q for c in convergents(pair.theta, 25)]
        for n in range(pair.w, pair.w + 20):
            assert denoms[n] == xs[n + 3]
        report = verify_near_optimality(pair, 10**6, 10**12, slack=5 * pair.epsilon)
        assert report.passed
        c_band = c_enclosure(83)  # narrower than 2**-80
        assert report.max_ratio > c_band.lo - Fraction(3, 10)
        assert report.max_ratio < c_band.hi + Fraction(3, 10)


def test_criterion_8_binet_fibonacci():
    with _Budget(8, "Binet/Fibonacci", 1):
        expected_a, expected_b = 1, 1
        for n in range(1, 91):
            assert (math.prod([TAU] * n) - math.prod([-PHI] * n)) / SQRT5 == expected_a
            assert binet_fib(n) == expected_a
            expected_a, expected_b = expected_b, expected_a + expected_b
