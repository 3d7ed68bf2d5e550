"""Exact-arithmetic substrate: field operations, enclosures, comparisons."""

import math
import random
from fractions import Fraction

import pytest

from psidiff import Comparison, Interval, PHI, QuadExt, TAU, refine_compare, render_decimal
from psidiff.errors import MixedFieldError
from psidiff.exact import C, SQRT_TAU, Root, c_enclosure, squarefree_decompose

from _oracles import assert_close, c_alt_enclosure, mp_const, mp_quadext

SQRT2 = QuadExt(0, 1, 2)


def random_quadext(rng: random.Random) -> QuadExt:
    D = rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
    a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
    b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
    return QuadExt(a, b, D)


class TestQuadArith:
    def test_floor_tau(self):
        assert TAU.floor() == 1

    def test_sqrt2_squared(self):
        assert SQRT2 * SQRT2 == QuadExt(2, 0, 2)

    def test_division_example(self):
        # (3-2*sqrt2)(3+2*sqrt2) = 1, so the inverse must be 3+2*sqrt2
        x = QuadExt(3, -2, 2)
        inv = 1 / x
        assert x * inv == 1
        assert inv == QuadExt(3, 2, 2)

    def test_mixed_field_rejected(self):
        with pytest.raises(MixedFieldError):
            SQRT2 + QuadExt(0, 1, 3)

    def test_rational_elements_cross_fields(self):
        two = QuadExt(2, 0, 7)
        assert SQRT2 + two == QuadExt(2, 1, 2)
        assert two == QuadExt(2, 0, 3)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            SQRT2 / QuadExt(0, 0, 2)

    def test_radicand_normalized(self):
        assert QuadExt(1, 1, 8) == QuadExt(1, 2, 2)
        assert QuadExt(0, Fraction(1, 2), 12) == QuadExt(0, 1, 3)

    def test_square_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(0, 1, 4)

    def test_immutable(self):
        with pytest.raises(AttributeError, match="immutable"):
            SQRT2.A = 0
        with pytest.raises(AttributeError, match="immutable"):
            del SQRT2.A
        assert SQRT2.A == 0 and SQRT2.B == 1

    def test_floor_random_against_oracle(self):
        rng = random.Random(20240811)
        for _ in range(300):
            x = random_quadext(rng)
            got = x.floor()
            approx = mp_quadext(x)
            assert got == int(math.floor(approx)), x

    def test_canonical_form_closure(self):
        rng = random.Random(11)
        for _ in range(300):
            x, y = random_quadext(rng), random_quadext(rng)
            y = QuadExt(y.a, y.b, x.D)
            for z in (x + y, x - y, x * y) + ((x / y,) if y != 0 else ()):
                assert z.a.denominator > 0 and z.b.denominator > 0
                assert math.gcd(z.a.numerator, z.a.denominator) == 1
                assert math.gcd(z.b.numerator, z.b.denominator) == 1
                # the stored integers: (A + B*sqrt(D))/Q with Q > 0 and gcd(A, B, Q) = 1
                assert all(type(v) is int for v in (z.A, z.B, z.Q, z.D))
                assert z.Q > 0 and math.gcd(z.A, z.B, z.Q) == 1 and z.D == x.D
                assert (z.a, z.b) == (Fraction(z.A, z.Q), Fraction(z.B, z.Q))

    def test_exact_order_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            x = random_quadext(rng)
            y = QuadExt(rng.choice((-1, 1)) * x.a, x.b + Fraction(rng.randint(-3, 3)), x.D)
            assert (x < y) == (mp_quadext(x) < mp_quadext(y))


class TestSquarefree:
    @pytest.mark.parametrize("n,expected", [(8, (2, 2)), (12, (2, 3)), (5, (1, 5)), (49, (7, 1)), (360, (6, 10))])
    def test_small(self, n, expected):
        assert squarefree_decompose(n) == expected

    def test_large_square_cofactor(self):
        p = 104729  # prime above the trial-division table
        assert squarefree_decompose(p * p * 3) == (p, 3)

    @pytest.mark.parametrize("p, q, product_first", [(100003, 10037, True), (100019, 10039, False)],
                             ids=["product_first", "cofactor_first"])
    def test_square_of_a_large_prime_keeps_the_field(self, p, q, product_first):
        # sqrt(p*p*q) = p*sqrt(q) with p past the trial-division table, so nothing factors
        # p*p*q: the first radicand seen fixes the field's D. Tests share one process, so
        # each order uses primes no other test does.
        build = [lambda: QuadExt(0, 1, p * p * q), lambda: p * QuadExt(0, 1, q)]
        x, y = (make() for make in (build if product_first else build[::-1]))
        assert x == y and hash(x) == hash(y) and x.compare(y) == y.compare(x) == 0
        assert x.D == y.D == (p * p * q if product_first else q)
        assert squarefree_decompose(x.D) == (1, x.D)
        assert squarefree_decompose(q) == ((Fraction(1, p), p * p * q) if product_first else (1, q))
        assert (x - p * QuadExt(0, 1, q)).is_rational and x * x == p * p * q
        # the printed surd keeps the square under the root when p*p*q came first
        assert str(QuadExt(1, 1, q)) == (f"1+1/{p}√{p * p * q}" if product_first else f"1+1√{q}")


class TestIntervals:
    def test_tau_enclosure(self):
        enc = TAU.enclosure(32)
        assert enc.hi - enc.lo <= Fraction(1, 2**32)
        assert (TAU - enc.lo).sign() >= 0 and (TAU - enc.hi).sign() <= 0
        assert render_decimal((enc.lo + enc.hi) / 2, 10) == "1.6180339887"

    def test_rational_degenerate(self):
        enc = QuadExt(2, 0, 2).enclosure(16)
        assert enc.lo == enc.hi == 2

    def test_sqrt_exact_square(self):
        # a square factor of w comes out whole: sqrt(9*tau) = 3*sqrt(tau)
        three = SQRT_TAU * 3
        assert three.w == 9 * TAU
        assert render_decimal(three, 20) == render_decimal(Root(0, 1, TAU * 9), 20)
        assert_close(render_decimal(three, 20), 3 * (mp_const("K") + 1), places=19)

    def test_sqrt_interval_width_follows_bits(self):
        # a rational factor once cut the working precision of an enclosure of C to 64 bits
        enc = c_enclosure(4096)
        assert enc.hi - enc.lo == Fraction(1, 2**4097)

    def test_sqrt_tau(self):
        assert_close(render_decimal(SQRT_TAU, 10), mp_const("K") + 1)

    def test_sqrt_phi(self):
        got = render_decimal(Root(0, 1, PHI), 12)
        assert got.startswith("0.78615137775")

    def test_sqrt_negative_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                SQRT_TAU * k

    def test_enclosure_soundness(self):
        # exact containment certified by field sign tests, plus nesting under refinement
        rng = random.Random(20240809)
        for _ in range(1000):
            x = random_quadext(rng)
            bits = rng.choice((8, 16, 24, 40))
            coarse = x.enclosure(bits)
            fine = x.enclosure(4 * bits)
            assert (x - coarse.lo).sign() >= 0 and (x - coarse.hi).sign() <= 0
            assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
            assert coarse.hi - coarse.lo <= Fraction(1, 2**bits)

    def test_sqrt_enclosure_random(self):
        # the scaled floor of sqrt(q): n/2**40 <= sqrt(q) < (n + 1)/2**40
        rng = random.Random(99)
        for _ in range(200):
            q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
            if math.isqrt(q.numerator * q.denominator) ** 2 == q.numerator * q.denominator:
                continue  # a square; q is reduced
            n = Root(0, 1, q)._scaled_floor(2**40)
            assert Fraction(n, 2**40) ** 2 <= q < Fraction(n + 1, 2**40) ** 2


class TestRefineCompare:
    def test_two_c_plus_one_below_two(self):
        one = Interval(1, 1)
        assert refine_compare(lambda b: c_enclosure(b) * 2, lambda b: one) is Comparison.LESS
        assert (C * 2 + 1 - 2).sign() < 0

    def test_tau_phi_product_exactly_one(self):
        # an exact tie is QuadExt.compare's 0; enclosures of it never separate
        assert (TAU * PHI).compare(1) == 0
        one = Interval(1, 1)
        assert refine_compare((TAU * PHI).enclosure, lambda b: one, 256) is Comparison.UNDECIDED

    def test_equal_cross_form_undecided(self):
        # same constant through two formulas: intervals never separate
        assert refine_compare(c_enclosure, c_alt_enclosure, cap_bits=256) is Comparison.UNDECIDED

    def test_cross_field(self):
        sqrt3 = QuadExt(0, 1, 3)
        assert (SQRT2.compare(sqrt3), sqrt3.compare(SQRT2)) == (-1, 1)
        assert refine_compare(SQRT2.enclosure, sqrt3.enclosure) is Comparison.LESS
        assert refine_compare(sqrt3.enclosure, SQRT2.enclosure) is Comparison.GREATER

    def test_antisymmetry_and_exact_consistency(self):
        rng = random.Random(5)
        order = (Comparison.LESS, Comparison.UNDECIDED, Comparison.GREATER)
        for _ in range(200):
            x = random_quadext(rng)
            y = QuadExt(x.a + Fraction(rng.randint(-2, 2), 7), x.b, x.D)
            s = x.compare(y)
            assert s == -y.compare(x) == (x - y).sign()
            assert refine_compare(x.enclosure, y.enclosure, 256) is order[s + 1]
            assert refine_compare(y.enclosure, x.enclosure, 256) is order[1 - s]


class TestConstants:
    def test_reference_prefixes(self):
        assert render_decimal(C, 7).startswith("0.47818")
        assert render_decimal(SQRT_TAU - 1, 6).startswith("0.2720")

    def test_against_oracle(self):
        for name, value in (("tau", TAU), ("phi", PHI), ("K", SQRT_TAU - 1), ("C", C)):
            assert_close(render_decimal(value, 15), mp_const(name), places=15)

    def test_c_formulas_agree_and_refine(self):
        for bits in (16, 32, 64, 80):
            one = c_enclosure(bits)
            two = c_alt_enclosure(bits)
            assert one.lo <= two.hi and two.lo <= one.hi
        one, two = c_enclosure(128), c_alt_enclosure(128)
        lo, hi = max(one.lo, two.lo), min(one.hi, two.hi)
        assert lo <= hi and hi - lo < Fraction(1, 2**64)

    def test_tau_phi_enclosures_multiply_to_one(self):
        tau, phi = TAU.enclosure(40), PHI.enclosure(40)
        assert tau.lo * phi.lo <= 1 <= tau.hi * phi.hi


class TestRenderDecimal:
    def test_rational_exact(self):
        assert render_decimal(Fraction(1, 8), 2) == "0.12"  # ties to even
        assert render_decimal(Fraction(3, 8), 2) == "0.38"
        assert render_decimal(Fraction(-1, 3), 6) == "-0.333333"
        assert render_decimal(7, 3) == "7.000"

    def test_irrational(self):
        assert render_decimal(TAU, 10) == "1.6180339887"
        assert render_decimal(SQRT2, 5) == "1.41421"

    def test_zero_digits_edge(self):
        assert render_decimal(Fraction(5, 2), 1) == "2.5"
