"""Exact-arithmetic substrate: field operations, enclosures, comparisons."""

import math
import random
from fractions import Fraction

import pytest

from psidiff import Comparison, Interval, PHI, QuadExt, TAU, refine_compare, render_decimal, sqrt_interval
from psidiff.errors import MixedFieldError, NegativeArgumentError
from psidiff.exact import c_enclosure, sqrt_tau_enclosure, squarefree_decompose

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

    def test_large_composite_cofactor(self):
        p, q = 104729, 10007  # forces the full-factorization fallback
        assert squarefree_decompose(p * p * q) == (p, q)


class TestIntervals:
    def test_tau_enclosure(self):
        enc = TAU.enclosure(32)
        assert enc.width <= Fraction(1, 2**32)
        assert (TAU - enc.lo).sign() >= 0 and (TAU - enc.hi).sign() <= 0
        assert render_decimal(enc.midpoint(), 10) == "1.6180339887"

    def test_rational_degenerate(self):
        enc = QuadExt(2, 0, 2).enclosure(16)
        assert enc.lo == enc.hi == 2

    def test_sqrt_exact_square(self):
        enc = sqrt_interval(Interval.point(4), 32)
        assert enc.lo == enc.hi == 2

    def test_sqrt_interval_width_follows_bits(self):
        # a rational factor once cut the working precision of the result to 64 bits
        enc = sqrt_interval(TAU.enclosure(4096) * 2, 4096)
        assert enc.width < Fraction(1, 2**4000)

    def test_sqrt_tau(self):
        assert_close(render_decimal(sqrt_tau_enclosure, 10), mp_const("K") + 1)

    def test_sqrt_phi(self):
        got = render_decimal(lambda b: sqrt_interval(PHI.enclosure(b), b), 12)
        assert got.startswith("0.78615137775")

    def test_sqrt_negative_rejected(self):
        with pytest.raises(NegativeArgumentError):
            sqrt_interval(Interval(Fraction(-1), Fraction(1)), 64)

    def test_enclosure_soundness(self):
        # exact containment certified by field sign tests, plus nesting under refinement
        rng = random.Random(20240809)
        for _ in range(1000):
            x = random_quadext(rng)
            bits = rng.choice((8, 16, 24, 40))
            coarse = x.enclosure(bits)
            fine = x.enclosure(4 * bits)
            assert (x - coarse.lo).sign() >= 0 and (x - coarse.hi).sign() <= 0
            assert coarse.contains_interval(fine)
            assert coarse.width <= Fraction(1, 2**bits)

    def test_sqrt_enclosure_random(self):
        rng = random.Random(99)
        for _ in range(200):
            q = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**4))
            enc = sqrt_interval(Interval.point(q), 40)
            assert enc.lo * enc.lo <= q <= enc.hi * enc.hi
            assert enc.width <= Fraction(2, 2**40)


class TestRefineCompare:
    def test_two_c_plus_one_below_two(self):
        assert refine_compare(lambda b: c_enclosure(b) * 2 + 1, 2) is Comparison.LESS

    def test_tau_phi_product_exactly_one(self):
        assert refine_compare(TAU * PHI, 1) is Comparison.EQUAL

    def test_equal_cross_form_undecided(self):
        # same constant through two formulas: intervals never separate
        assert refine_compare(c_enclosure, c_alt_enclosure, cap_bits=256) is Comparison.UNDECIDED

    def test_cross_field(self):
        assert refine_compare(SQRT2, QuadExt(0, 1, 3)) is Comparison.LESS
        assert refine_compare(QuadExt(0, 1, 3), SQRT2) is Comparison.GREATER

    def test_antisymmetry_and_exact_consistency(self):
        rng = random.Random(5)
        flip = {Comparison.LESS: Comparison.GREATER, Comparison.GREATER: Comparison.LESS,
                Comparison.EQUAL: Comparison.EQUAL}
        for _ in range(200):
            x = random_quadext(rng)
            y = QuadExt(x.a + Fraction(rng.randint(-2, 2), 7), x.b, x.D)
            forward = refine_compare(x, y)
            assert flip[forward] is refine_compare(y, x)
            assert forward is (Comparison.LESS, Comparison.EQUAL, Comparison.GREATER)[(x - y).sign() + 1]


class TestConstants:
    def test_reference_prefixes(self):
        assert render_decimal(c_enclosure, 7).startswith("0.47818")
        assert render_decimal(lambda b: sqrt_tau_enclosure(b) - 1, 6).startswith("0.2720")

    def test_against_oracle(self):
        for name, value in (("tau", TAU), ("phi", PHI), ("K", lambda b: sqrt_tau_enclosure(b) - 1),
                            ("C", c_enclosure)):
            assert_close(render_decimal(value, 15), mp_const(name), places=15)

    def test_c_formulas_agree_and_refine(self):
        for bits in (16, 32, 64, 80):
            one = c_enclosure(bits)
            two = c_alt_enclosure(bits)
            assert one.overlaps(two)
        one, two = c_enclosure(128), c_alt_enclosure(128)
        lo, hi = max(one.lo, two.lo), min(one.hi, two.hi)
        assert lo <= hi and hi - lo < Fraction(1, 2**64)

    def test_tau_phi_enclosures_multiply_to_one(self):
        product = TAU.enclosure(40) * PHI.enclosure(40)
        assert product.contains(1)


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
