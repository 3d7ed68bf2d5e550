"""The witness test |d(t)| vs C*t refines to a precision computed from its step.

``exact._witness_bits(b, a, t)`` is a root-separation bound: y = Qa*Qb*(|b - a| - C*t) is
an algebraic integer of degree at most 16, never 0 because C has a non-real conjugate, so
|y| >= H**-15 for a bound H on its conjugates. At that many bits the enclosures of |d(t)|
and C*t, 2**-bits*(1 + t/2) wide together, separate. Here mpmath, at twice the bound's
precision, confirms the gap on generated pairs with t up to 10**300, and on the near tie
of tau and its near-optimal companion, which every step decides at 64 bits.
"""

from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from psidiff import exact, imf, theorems
from psidiff.exact import Comparison, c_enclosure, refine_compare
from psidiff.numspec import TAU_CF

from test_convergent_source import valid_pairs


def mp_value(x: exact.QuadExt) -> mpmath.mpf:
    return (x.A + x.B * mpmath.sqrt(x.D)) / x.Q


def gap_and_width(d: imf.DValue, t: int, bits: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """|d| - C*t and the enclosures' width 2**-bits*(1 + t/2), at twice ``bits``."""
    with mpmath.workprec(2 * bits):
        sqrt5 = mpmath.sqrt(5)
        c = sqrt5 * (1 - mpmath.sqrt((sqrt5 - 1) / 2))
        gap = abs(mp_value(d.inv_psi_beta) - mp_value(d.inv_psi_alpha)) - c * t
        return gap, mpmath.ldexp(1 + mpmath.mpf(t) / 2, -bits)


def decide(d: imf.DValue, t: int, cap: int) -> tuple[Comparison, list[int]]:
    """The witness test's verdict at ``cap`` and the bits of each attempt."""
    seen = []

    def lhs(bits):
        seen.append(bits)
        return d.abs_enclosure(bits)

    return refine_compare(lhs, lambda bits: c_enclosure(bits) * t, cap), seen


T_VALUES = st.integers(1, 1000) | st.builds(lambda m, e: m * 10**e, st.integers(1, 10**6),
                                            st.integers(0, 294))


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), T_VALUES)
def test_witness_test_decides_within_the_bound(pair, t):
    alpha, beta = pair
    d = imf.d_at(alpha, beta, t)
    bits = exact._witness_bits(d.inv_psi_beta, d.inv_psi_alpha, t)
    verdict, _ = decide(d, t, bits)
    assert verdict is not Comparison.UNDECIDED
    gap, width = gap_and_width(d, t, bits)
    assert abs(gap) > width
    assert (verdict is Comparison.GREATER) == (gap > 0)
    # the enclosures at exactly the bound separate, whatever the loop's earlier attempts
    lhs, rhs = d.abs_enclosure(bits), c_enclosure(bits) * t
    assert lhs.hi < rhs.lo or rhs.hi < lhs.lo


def test_near_tie_decides_at_64_bits():
    """tau against construct_optimal(1/1000) = [0;26,1,2,(1)]: |d(t)|/t comes within 1e-4 of C
    at step left ends in [10**200, 10**203], and each step still decides at 64 bits, far
    below its bound of about 10,900."""
    theta = theorems.construct_optimal(Fraction(1, 1000)).theta
    assert str(theta) == "[0;26,1,2,(1)]"
    steps = list(imf._d_steps(TAU_CF, theta, 10**200, 10**203))
    assert len(steps) == 30
    closest = mpmath.inf
    for t, d in steps:
        bits = exact._witness_bits(d.inv_psi_beta, d.inv_psi_alpha, t)
        verdict, seen = decide(d, t, bits)
        assert seen == [64] and bits < 11_000, (t, seen, bits)
        gap, width = gap_and_width(d, t, bits)
        assert abs(gap) > width and (verdict is Comparison.GREATER) == (gap > 0)
        closest = min(closest, abs(gap) / t)
    assert closest < 1e-4
