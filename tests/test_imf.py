"""psi, 1/psi, d(t), breakpoint profiles, sign changes, and the merged word."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psidiff import (
    CFExpansion,
    GapCertificate,
    QuadExt,
    TAU,
    breakpoint_profile,
    construct_optimal,
    convergent_distance,
    convergents,
    d_at,
    find_witness,
    inv_psi,
    merged_word,
    profile_to_csv,
    psi,
    scan_interleave_gap,
    sign_changes,
    tail,
    verify_near_optimality,
)
from psidiff.errors import IntegralSumOrDiffError
from psidiff.numspec import parse_number

from _oracles import (brute_force_psi_table, mp_cf_value, mp_exact, mp_quadext, mp_rounded,
                      scaled_int)
from test_convergent_source import expansions

SQRT2 = parse_number("surd:(0+sqrt(2))/1")
SQRT3 = parse_number("surd:(0+sqrt(3))/1")
TAU_CF = parse_number("tau")
FIVE1 = parse_number("cf:[0;5,(1)]")


def random_periodic(rng: random.Random) -> CFExpansion:
    a0 = rng.randint(0, 3)
    pre = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
    period = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
    return CFExpansion(a0, pre, period)


class TestPsi:
    def test_sqrt2_at_3(self):
        value = psi(SQRT2, 3)
        assert (value.index, value.q) == (1, 2)
        assert value.value == QuadExt(3, -2, 2)

    def test_tau_at_1_uses_the_larger_duplicate_index(self):
        value = psi(TAU_CF, 1)
        assert (value.index, value.q) == (1, 1)
        assert value.value == 2 - TAU
        assert value.inv_value == 1 + TAU

    def test_reciprocal_of_value(self):
        rng = random.Random(41)
        for _ in range(100):
            cf = random_periodic(rng)
            value = psi(cf, rng.randint(1, 10**6))
            assert value.value * value.inv_value == 1
            assert 0 < value.value < 1

    def test_small_range_against_brute_force(self):
        for cf in (SQRT2, TAU_CF, FIVE1):
            table = brute_force_psi_table(mp_cf_value(cf), 200)
            for t in range(1, 201):
                value = psi(cf, t)
                q_star, dist = table[t - 1]
                assert value.q == q_star
                assert abs(mp_quadext(value.value) - dist) < 1e-45

    def test_minkowski_bound_exact(self):
        # psi(t) <= 1/t, asserted as inv_value >= t in the field
        for cf in (SQRT2, TAU_CF, FIVE1):
            for t in (1, 2, 3, 10, 137, 5000, 10**9):
                assert psi(cf, t).inv_value >= t


class TestInvPsi:
    def test_sqrt2_at_3(self):
        assert inv_psi(SQRT2, 3) == QuadExt(3, 2, 2)

    def test_tau_at_3(self):
        assert inv_psi(TAU_CF, 3) == 2 + 3 * TAU

    def test_both_forms_randomized(self):
        # inv_psi raises FormMismatchError internally if the two forms differ
        rng = random.Random(43)
        for _ in range(200):
            cf = random_periodic(rng)
            t = rng.randint(1, 10**5)
            value = inv_psi(cf, t)
            assert value == psi(cf, t).inv_value

    def test_integer_shift_identity(self):
        rng = random.Random(47)
        for _ in range(200):
            cf = random_periodic(rng)
            n = rng.randint(0, 12)
            convs = convergents(cf, n + 1)
            q_n, q_prev = convs[n].q, convs[n - 1].q if n >= 1 else 0
            denom = q_n * tail(cf, n + 1) + q_prev
            xi = convergent_distance(cf, n)
            assert xi * denom == 1
            shifted = q_n * cf.value() - (-1) ** n * denom.inverse()
            assert shifted == convs[n].p

    def test_tail_ratio(self):
        rng = random.Random(53)
        for _ in range(200):
            cf = random_periodic(rng)
            n = rng.randint(1, 10)
            assert convergent_distance(cf, n - 1) / convergent_distance(cf, n) == tail(cf, n + 1)


class TestD:
    def test_example_values(self):
        d3 = d_at(SQRT2, TAU_CF, 3)
        assert d3.inv_psi_beta == 2 + 3 * TAU
        assert d3.inv_psi_alpha == QuadExt(3, 2, 2)
        assert d3.sign() == 1
        d5 = d_at(SQRT2, TAU_CF, 5)
        assert d5.inv_psi_beta == 3 + 5 * TAU
        assert d5.inv_psi_alpha == QuadExt(7, 5, 2)
        assert d5.sign() == -1

    def test_integral_pair_rejected(self):
        shifted = parse_number("cf:[2;(1)]")  # tau + 1
        with pytest.raises(IntegralSumOrDiffError):
            d_at(TAU_CF, shifted, 3)

    def test_same_field_difference_is_exact(self):
        d = d_at(TAU_CF, FIVE1, 1)
        assert d.as_quadext() == 3  # (5 + phi) - (1 + tau)


class TestProfile:
    def test_breakpoints_example(self):
        profile = breakpoint_profile(SQRT2, TAU_CF, 1, 13)
        assert [e.t for e in profile.entries] == [1, 2, 3, 5, 8, 12, 13]

    def test_step_signs(self):
        profile = breakpoint_profile(SQRT2, TAU_CF, 1, 13)
        signs = [e.d.sign() for e in profile.entries]
        assert signs == [1, -1, 1, -1, 1, -1, -1]

    def test_single_point_range(self):
        profile = breakpoint_profile(SQRT2, TAU_CF, 7, 7)
        assert len(profile.entries) == 1
        entry = profile.entries[0]
        assert entry.t == 7
        at5 = breakpoint_profile(SQRT2, TAU_CF, 5, 5).entries[0]
        assert entry.inv_psi_alpha == at5.inv_psi_alpha
        assert entry.inv_psi_beta == at5.inv_psi_beta

    def test_psi_nonincreasing_across_steps(self):
        profile = breakpoint_profile(SQRT2, SQRT3, 1, 10**6)
        for first, second in zip(profile.entries, profile.entries[1:]):
            assert second.inv_psi_alpha >= first.inv_psi_alpha
            assert second.inv_psi_beta >= first.inv_psi_beta

    def test_partition_merge_at_breakpoint(self):
        whole = breakpoint_profile(SQRT2, TAU_CF, 1, 13)
        left = breakpoint_profile(SQRT2, TAU_CF, 1, 7)
        right = breakpoint_profile(SQRT2, TAU_CF, 8, 13)
        assert left.entries + right.entries == whole.entries

    def test_deterministic(self):
        one = breakpoint_profile(SQRT2, TAU_CF, 1, 1000)
        two = breakpoint_profile(SQRT2, TAU_CF, 1, 1000)
        assert one == two

    def test_repr_past_the_int_to_str_limit(self):
        # integers past sys.get_int_max_str_digits() print in hex; smaller ones as before
        assert "QuadExt(Fraction(0x" in repr(d_at(SQRT2, TAU_CF, 10**5000))
        far = repr(breakpoint_profile(SQRT2, TAU_CF, 10**10000, 10**10001))
        assert far.startswith(f"BreakpointProfile(t_min={10**10000:#x}, t_max={10**10001:#x}, ")
        assert repr(breakpoint_profile(SQRT2, TAU_CF, 5, 5)).startswith(
            "BreakpointProfile(t_min=5, t_max=5, entries=(ProfileEntry(t=5, "
            "inv_psi_alpha=QuadExt(Fraction(7, 1), Fraction(5, 1), 2), ")
        witness = repr(find_witness(SQRT2, TAU_CF, 10**5000, 10**5001))
        assert witness.startswith("Witness(t=0x")
        report = verify_near_optimality(construct_optimal(Fraction(6, 100)), 10**5000, 2 * 10**5000)
        assert f"t_min={10**5000:#x}, t_max={2 * 10**5000:#x}, " in repr(report)
        c = scan_interleave_gap(SQRT2, TAU_CF, 40)[0]
        far_point = GapCertificate(c.pattern, c.n, c.m, c.first_point, c.second_point, c.bound,
                                   c.quotient, c.delta, c.d_first, c.d_second, (10**5000,))
        assert repr(far_point).endswith(f", verified_points=({10**5000:#x},))")

    def test_render_past_the_int_to_str_limit(self):
        # d(10**5000), in two fields, has 5001 digits before the point
        d = d_at(SQRT2, TAU_CF, 10**5000)
        for digits in (12, 40):
            text = d.render(digits)
            assert len(text.partition(".")[2]) == digits
            dps = 5000 + 2 * digits + 60
            with mpmath.workdps(dps):
                value = mp_quadext(d.inv_psi_beta, dps) - mp_quadext(d.inv_psi_alpha, dps)
                assert scaled_int(text) == mp_rounded(value, digits)


    def test_strings_past_the_int_to_str_limit(self):
        # the exact values and the csv t column print past 4300 digits, as the decimals do
        witness = find_witness(SQRT2, TAU_CF, 10**5000, 10**5001)
        payload, d = witness.to_json(), witness.d_value
        dps = 10100
        with mpmath.workdps(dps):
            exact = {k: mp_exact(v) for k, v in payload["exact_values"].items()}
            for name in ("inv_psi_alpha", "inv_psi_beta"):
                value = mp_quadext(getattr(d, name), dps)
                assert abs(exact[name] - value) < mpmath.mpf(10) ** -1000
            assert scaled_int(payload["decimal"]["d"]) == mp_rounded(
                exact["inv_psi_beta"] - exact["inv_psi_alpha"], 12)
        profile = breakpoint_profile(SQRT2, TAU_CF, 10**5000, 10**5000)
        (row,) = profile_to_csv(profile).splitlines()[1:]
        t, *decimals = row.split(",")
        entry = profile.entries[0]
        assert scaled_int(t) == entry.t == 10**5000
        with mpmath.workdps(dps):
            a, b = (mp_quadext(x, dps) for x in (entry.inv_psi_alpha, entry.inv_psi_beta))
            assert list(map(scaled_int, decimals)) == [mp_rounded(v, 12) for v in (a, b, b - a)]

class TestSignChanges:
    def test_example_window(self):
        profile = breakpoint_profile(SQRT2, TAU_CF, 1, 13)
        assert sign_changes(profile) == [2, 3, 5, 8, 12]

    def test_constant_sign_subrange(self):
        profile = breakpoint_profile(SQRT2, TAU_CF, 12, 13)
        assert sign_changes(profile) == []

    def test_cross_field_window(self):
        profile = breakpoint_profile(SQRT2, SQRT3, 1, 10**6)
        flips = sign_changes(profile)
        assert len(flips) >= 10


class TestMergedWord:
    def test_example_ten_letters(self):
        word = merged_word(SQRT2, TAU_CF, 10)
        assert [letter.kind for letter in word.letters] == list("BBTBTQTTQT")
        assert [letter.value for letter in word.letters] == [1, 2, 3, 5, 8, 12, 13, 21, 29, 34]
        assert (word.letters[0].n, word.letters[0].s) == (0, 1)

    def test_first_letter_is_both(self):
        word = merged_word(SQRT2, TAU_CF, 1)
        assert word.letters[0].kind == "B"
        assert word.letters[0].value == 1

    def test_precondition_propagates(self):
        with pytest.raises(IntegralSumOrDiffError):
            merged_word(TAU_CF, parse_number("cf:[2;(1)]"), 5)

    def test_profile_coherence(self):
        # letters at values <= t_max biject with profile breakpoints
        t_max = 1000
        word = merged_word(SQRT2, TAU_CF, 60)
        values = [letter.value for letter in word.letters if letter.value <= t_max]
        profile = breakpoint_profile(SQRT2, TAU_CF, 1, t_max)
        assert values == [e.t for e in profile.entries]


class TestCsv:
    def test_header_and_rows(self):
        profile = breakpoint_profile(SQRT2, TAU_CF, 1, 5)
        text = profile_to_csv(profile, digits=6)
        lines = text.strip().split("\n")
        assert lines[0] == "t,inv_psi_alpha,inv_psi_beta,d,digits=6"
        assert lines[1] == "1,2.414214,2.618034,0.203820"
        assert lines[4] == "5,14.071068,11.090170,-2.980898"
        assert len(lines) == 5


@settings(max_examples=100, deadline=None)
@given(expansions(rational=False), expansions(rational=False), st.integers(1, 10**30),
       st.integers(1, 300))
def test_d_swaps_with_its_arguments(alpha, beta, t, bits):
    assume(alpha.value().D != beta.value().D)
    forward, backward = d_at(alpha, beta, t), d_at(beta, alpha, t)
    assert (backward.inv_psi_beta, backward.inv_psi_alpha) == (forward.inv_psi_alpha,
                                                               forward.inv_psi_beta)
    assert (backward.alpha_index, backward.beta_index) == (forward.beta_index, forward.alpha_index)
    back, negated = backward.enclosure(bits), -forward.enclosure(bits)
    assert (back.lo, back.hi) == (negated.lo, negated.hi)
    assert backward.sign() == -forward.sign()


@settings(max_examples=40, deadline=None)
@given(expansions(rational=False), st.integers(1, 2000))
def test_psi_is_the_least_distance_up_to_t(cf, t):
    x = cf.value()
    distances = [(q * x).dist_to_nearest_int() for q in range(1, t + 1)]
    best = min(distances)
    value = psi(cf, t)
    assert value.value == best
    assert value.q == distances.index(best) + 1
