"""Continued-fraction engine: expansions, convergents, tails, continuants."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from psidiff import (
    CFExpansion,
    QuadExt,
    TAU,
    continuant,
    convergents,
    expand_quadratic,
    is_nonintegral_sum_and_diff,
    rational_to_cf,
    tail,
)
from psidiff.errors import RationalInputError
from psidiff.numspec import parse_number

from _oracles import mp_cf_value, mp_quadext

SQRT2_CF = CFExpansion(1, (), (2,))
TAU_CF = CFExpansion(1, (), (1,))


def random_surd(rng: random.Random) -> QuadExt:
    D = rng.choice((2, 3, 5, 6, 7, 10, 13, 19, 21))
    a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    b = Fraction(rng.choice([n for n in range(-12, 13) if n]), rng.randint(1, 12))
    return QuadExt(a, b, D)


def random_cf(rng: random.Random, rational_ok: bool = True) -> CFExpansion:
    a0 = rng.randint(-3, 4)
    pre = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
    if rational_ok and rng.random() < 0.3:
        if pre and pre[-1] == 1:
            pre = pre[:-1] + (2,)
        return CFExpansion(a0, pre)
    period = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
    return CFExpansion(a0, pre, period)


class TestExpand:
    def test_sqrt2(self):
        assert expand_quadratic(QuadExt(0, 1, 2)) == SQRT2_CF

    def test_tau(self):
        assert expand_quadratic(TAU) == TAU_CF

    def test_rational_rejected(self):
        with pytest.raises(RationalInputError):
            expand_quadratic(QuadExt(3, 0, 2))

    def test_round_trip_example(self):
        x = QuadExt(Fraction(9, 7), Fraction(1, 7), 2)
        cf = expand_quadratic(x)
        assert cf.value() == x
        enc, inner = cf.value().enclosure(48), x.enclosure(64)
        assert enc.lo <= inner.lo and inner.hi <= enc.hi

    def test_round_trip_random(self):
        rng = random.Random(20240810)
        for _ in range(200):
            x = random_surd(rng)
            assert expand_quadratic(x).value() == x


class TestRationalCF:
    @pytest.mark.parametrize(
        "num,den,expected",
        [(1, 5, CFExpansion(0, (5,))), (3, 7, CFExpansion(0, (2, 3))), (5, 1, CFExpansion(5))],
    )
    def test_examples(self, num, den, expected):
        assert rational_to_cf(num, den) == expected

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(300):
            num, den = rng.randint(-500, 500), rng.randint(1, 500)
            cf = rational_to_cf(num, den)
            assert cf.value() == Fraction(num, den)
            assert cf.is_rational
            if cf.preperiod:
                assert cf.preperiod[-1] >= 2

    def test_noncanonical_rejected(self):
        with pytest.raises(ValueError):
            CFExpansion(0, (2, 1))

    @given(st.integers(-10**40, 10**40), st.integers(1, 10**40), st.integers(1, 10**6))
    @example(1, 1, 7)  # one quotient, 7/7
    @example(-3, 2, 1)  # [-2;2]
    @example(1, 2, 3)  # 3/6, Euclid's last quotient 2
    def test_value_is_the_fraction(self, num, den, k):
        """Euclid's expansion of num/den, at any common factor k, is canonical as it comes:
        ``CFExpansion`` refuses one ending in a 1, and its value is the fraction."""
        assert rational_to_cf(k * num, k * den).value() == Fraction(num, den)


class TestConvergents:
    def test_tau_fibonacci(self):
        assert [c.q for c in convergents(TAU_CF, 5)] == [1, 1, 2, 3, 5, 8]

    def test_sqrt2_table(self):
        got = [(c.p, c.q) for c in convergents(SQRT2_CF, 4)]
        assert got == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]

    def test_index_zero(self):
        cf = random_cf(random.Random(1))
        c0 = convergents(cf, 0)[0]
        assert (c0.p, c0.q) == (cf.a0, 1)

    def test_rational_stops(self):
        assert len(convergents(CFExpansion(0, (2, 3)), 10)) == 3

    def test_determinant_identity(self):
        rng = random.Random(17)
        for _ in range(200):
            cf = random_cf(rng)
            convs = convergents(cf, 12)
            for i in range(1, len(convs)):
                a, b = convs[i - 1], convs[i]
                assert b.p * a.q - a.p * b.q == (-1) ** (b.index - 1)


class TestContinuant:
    def test_all_ones_fibonacci(self):
        assert continuant([1, 1, 1]) == 3

    def test_concatenation_example(self):
        assert continuant([1, 2, 3]) == 10
        assert continuant([1, 2]) * continuant([3]) + continuant([1]) * continuant([]) == 10

    def test_matches_cf_denominator(self):
        assert continuant([2, 3]) == 7

    def test_empty_and_single(self):
        assert continuant([]) == 1
        assert continuant([4]) == 4

    def test_reversal_symmetry(self):
        rng = random.Random(23)
        for _ in range(300):
            word = [rng.randint(1, 9) for _ in range(rng.randint(0, 30))]
            assert continuant(word) == continuant(list(reversed(word)))

    def test_concatenation_identity(self):
        rng = random.Random(29)
        for _ in range(300):
            left = [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
            right = [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
            lhs = continuant(left + right)
            rhs = continuant(left) * continuant(right) + continuant(left[:-1]) * continuant(right[1:])
            assert lhs == rhs


class TestTail:
    def test_sqrt2_tails(self):
        silver = QuadExt(1, 1, 2)
        for r in (1, 2, 5):
            assert tail(SQRT2_CF, r) == silver

    def test_tau_tails(self):
        for r in (1, 3, 8):
            assert tail(TAU_CF, r) == TAU

    def test_preperiod_then_golden(self):
        cf = parse_number("cf:[0;5,(1)]")
        assert tail(cf, 2) == TAU
        assert tail(cf, 1) == 5 + 1 / TAU

    def test_value_consistency(self):
        rng = random.Random(31)
        for _ in range(150):
            cf = random_cf(rng, rational_ok=False)
            assert cf.value() == cf.a0 + tail(cf, 1).inverse()

    def test_value_against_oracle(self):
        rng = random.Random(37)
        for _ in range(60):
            cf = random_cf(rng, rational_ok=False)
            assert abs(mp_quadext(cf.value()) - mp_cf_value(cf)) < 1e-40

    def test_rational_rejected(self):
        with pytest.raises(RationalInputError):
            tail(CFExpansion(0, (2, 3)), 1)


class TestNonintegrality:
    def test_different_fields(self):
        assert is_nonintegral_sum_and_diff(QuadExt(0, 1, 2), TAU)

    def test_sum_integral(self):
        assert not is_nonintegral_sum_and_diff(TAU, 2 - TAU)

    def test_diff_integral(self):
        assert not is_nonintegral_sum_and_diff(TAU, TAU + 1)

    def test_rational_rejected(self):
        with pytest.raises(RationalInputError):
            is_nonintegral_sum_and_diff(TAU, QuadExt(1, 0, 5))
