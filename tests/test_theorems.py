"""Witness search, lemma scans, the dichotomy, and the optimality construction."""

import itertools
import math
import sys
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psidiff import (
    Comparison,
    PHI,
    QuadExt,
    SQRT5,
    TAU,
    binet_fib,
    breakpoint_profile,
    check_dichotomy,
    construct_optimal,
    convergent_distance,
    convergents,
    d_at,
    exact,
    find_witness,
    imf,
    refine_compare,
    scan_dichotomy,
    scan_interleave_gap,
    scan_lemma_conseq,
    scan_lemma_conseq1,
    sign_changes,
    theorems,
    verify_near_optimality,
)
from psidiff.errors import (
    DichotomyViolationError,
    IntegralSumOrDiffError,
    NotFoundInRangeError,
    PreconditionFailedError,
    SearchExhaustedError,
    UndecidedSignError,
)
from psidiff.exact import SQRT_TAU, c_enclosure
from psidiff.numspec import parse_number
from psidiff.theorems import DichotomyBranch, OptimalPair

from _oracles import exact_uv_search, float_uv_search, mp_const, mp_quadext, screen_constants
from test_convergent_source import expansions, valid_pairs

SQRT2 = parse_number("surd:(0+sqrt(2))/1")
SQRT3 = parse_number("surd:(0+sqrt(3))/1")
TAU_CF = parse_number("tau")
FIVE1 = parse_number("cf:[0;5,(1)]")
# U = 7's approximation error |V + U*phi - sqrt(tau)| rounded up at 25 digits
UNDECIDED_EPS = Fraction(271091358675974865898427, 5000000000000000000000000)
EPSILONS = st.integers(2, 10**4).flatmap(lambda d: (
    st.integers(1, min(d - 1, 20)) | st.integers(1, d - 1)).map(lambda n: Fraction(n, d)))


class TestFindWitness:
    @pytest.mark.parametrize("T,expected", [(1, 2), (4, 5), (6, 6), (10, 12)])
    def test_sqrt2_tau(self, T, expected):
        witness = find_witness(SQRT2, TAU_CF, T, 10**6)
        assert witness.t == expected
        assert witness.to_json()["verdict"] == "greater"

    def test_witness_components_at_5(self):
        witness = find_witness(SQRT2, TAU_CF, 4, 10**6)
        assert witness.d_value.inv_psi_alpha == QuadExt(7, 5, 2)
        assert witness.d_value.inv_psi_beta == 3 + 5 * TAU
        ratio_lower_bound = Fraction(witness.to_json()["decimal"]["ratio_lower_bound"])
        assert ratio_lower_bound <= Fraction(2981, 5000)
        assert ratio_lower_bound > Fraction(478, 1000)

    def test_small_cap_is_unread(self):
        # |d(1)| vs C*1 needs more than 1 bit; the test takes its bits from the step instead
        small = find_witness(SQRT2, TAU_CF, 1, 10**6, cap_bits=1)
        assert small == find_witness(SQRT2, TAU_CF, 1, 10**6)

    def test_reverification(self):
        witness = find_witness(SQRT2, SQRT3, 1000, 10**12)
        verdict = refine_compare(
            witness.d_value.abs_enclosure, lambda bits: c_enclosure(bits) * witness.t
        )
        assert verdict is Comparison.GREATER

    def test_minimality_on_candidates(self):
        T = 10
        witness = find_witness(SQRT2, TAU_CF, T, 10**6)
        assert witness.t == 12
        steps = {c.q for x in (SQRT2, TAU_CF) for c in convergents(x, 40) if T <= c.q <= 10**6}
        for t in sorted({T} | steps):
            if t >= witness.t:
                break
            verdict = refine_compare(
                d_at(SQRT2, TAU_CF, t).abs_enclosure,
                lambda bits: c_enclosure(bits) * t,
            )
            assert verdict is Comparison.LESS

    def test_not_found_raises(self):
        # C*t beats |d(t)| on the first step of this pair, and only there
        with pytest.raises(NotFoundInRangeError):
            find_witness(SQRT2, TAU_CF, 1, 1)

    def test_json_schema(self):
        payload = find_witness(SQRT2, TAU_CF, 4, 10**6).to_json(8)
        assert set(payload) == {"kind", "indices", "t", "exact_values", "decimal", "verdict"}
        assert payload["t"] == 5
        assert payload["exact_values"]["inv_psi_alpha"] == "7+5√2"
        assert payload["decimal"]["d"].startswith("-2.9808978")


class TestLemmaScans:
    def test_conseq_example(self):
        assert scan_lemma_conseq(SQRT2, TAU_CF, 50) == [(0, 1)]

    def test_conseq_stops_growing(self):
        assert scan_lemma_conseq(SQRT2, SQRT3, 25) == scan_lemma_conseq(SQRT2, SQRT3, 50)

    def test_conseq_rejects_equal_numbers(self):
        with pytest.raises(IntegralSumOrDiffError):
            scan_lemma_conseq(SQRT2, SQRT2, 10)

    def test_conseq1_all_twos(self):
        assert scan_lemma_conseq1(SQRT2, TAU_CF, 50) == []

    def test_conseq1_finite(self):
        found = scan_lemma_conseq1(TAU_CF, FIVE1, 50)
        assert found == scan_lemma_conseq1(TAU_CF, FIVE1, 25)

    def test_depth_zero(self):
        assert scan_lemma_conseq1(TAU_CF, FIVE1, 0) == []


class TestDichotomy:
    def test_example_second_branch(self):
        assert check_dichotomy(SQRT2, TAU_CF, 2, 3) is DichotomyBranch.SECOND_BRANCH

    def test_first_branch_occurs(self):
        branches = {record.branch for record in scan_dichotomy(SQRT2, TAU_CF, 25)}
        assert DichotomyBranch.FIRST_BRANCH in branches
        assert DichotomyBranch.SECOND_BRANCH in branches

    def test_precondition_failure(self):
        with pytest.raises(PreconditionFailedError):
            check_dichotomy(SQRT2, TAU_CF, 2, 1)

    def test_branch_checks_the_reciprocal_identity(self, monkeypatch):
        inv_xi_prev, inv_xi = imf._inv_xis(SQRT2, 1, 2)
        inv_eta, = imf._inv_xis(TAU_CF, 3, 3)
        assert inv_xi[2] == 1 / convergent_distance(SQRT2, 2)
        calls = _count_calls(monkeypatch, "refine_compare")
        branch = theorems._branch(SQRT2, 2, inv_xi_prev, inv_xi, inv_eta)
        assert branch is DichotomyBranch.SECOND_BRANCH
        assert calls == {"refine_compare": 0}
        with pytest.raises(DichotomyViolationError):
            theorems._branch(SQRT2, 2, inv_xi_prev, (*inv_xi[:2], inv_xi[2] + 1), inv_eta)

    def test_scan_never_violates(self):
        for alpha, beta in ((SQRT2, TAU_CF), (SQRT2, SQRT3), (TAU_CF, FIVE1)):
            records = scan_dichotomy(alpha, beta, 30)
            assert records, (alpha, beta)


class TestInterleaveGap:
    def test_sqrt2_tau_example(self):
        certs = scan_interleave_gap(SQRT2, TAU_CF, 40)
        by_key = {(c.pattern, c.n, c.m): c for c in certs}
        cert = by_key[("a", 3, 6)]
        assert (cert.first_point, cert.second_point) == (8, 12)
        assert cert.bound == 12 and cert.quotient == 2
        assert cert.delta == QuadExt(10, 7, 2)  # d(8) - d(12) = 10 + 7*sqrt2
        assert cert.verified_points == (12,)

    def test_certificates_satisfy_strong_inequality(self):
        for alpha, beta in ((SQRT2, TAU_CF), (SQRT3, TAU_CF)):
            certs = scan_interleave_gap(alpha, beta, 40)
            assert certs
            for cert in certs:
                assert cert.delta > cert.bound * (cert.quotient - 1)

    def test_pattern_absent(self):
        # all partial quotients of both numbers equal 1 beyond the start
        assert scan_interleave_gap(TAU_CF, FIVE1, 40) == []

    def test_exact_half_bound_tie_is_decided(self):
        # sqrt2 vs [0;1,(2)] share a field, and |d| equals bound/2 at one point
        certs = scan_interleave_gap(SQRT2, parse_number("cf:[0;1,(2)]"), 20)
        # d(1) = 1 is exactly bound/2 = 2/2, so only the second point is verified
        d = certs[0].d_first
        assert (certs[0].first_point, d.inv_psi_beta - d.inv_psi_alpha) == (1, 1)
        assert certs[0].verified_points == (2,)
        assert len(certs) == 38

    def test_decisions_ignore_refinement(self, monkeypatch):
        # a refinement that never decides leaves every cross-field decision but the witness test
        def outputs():
            return (sign_changes(breakpoint_profile(SQRT2, TAU_CF, 1, 10**6)),
                    scan_dichotomy(SQRT2, TAU_CF, 40), scan_interleave_gap(SQRT2, TAU_CF, 40))

        expected = outputs()
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "psidiff" and hasattr(module, "refine_compare"):
                monkeypatch.setattr(module, "refine_compare",
                                    lambda *args, **kwargs: Comparison.UNDECIDED)
        assert outputs() == expected
        with pytest.raises(UndecidedSignError):
            find_witness(SQRT2, TAU_CF, 1, 10**6)

    def test_json_schema(self):
        cert = scan_interleave_gap(SQRT2, TAU_CF, 10)[0]
        payload = cert.to_json(6)
        assert set(payload) == {"kind", "indices", "t", "exact_values", "decimal", "verdict"}
        assert payload["verdict"] == "verified"


def _count_calls(monkeypatch, *names):
    """Count the calls of the named ``exact`` functions, from ``theorems`` or within ``exact``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, function=getattr(exact, name)):
            calls[name] += 1
            return function(*args)

        for module in (exact, theorems):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


class TestConstructOptimal:
    def test_known_construction(self):
        pair = construct_optimal(Fraction(6, 100))
        assert (pair.U, pair.V) == (7, -3)
        assert pair.k == 4 and pair.w == 1 and pair.b == (5,)
        assert str(pair.theta) == "[0;5,(1)]"
        assert pair.index_shift == 3

    def test_rejected_intermediates(self):
        # U=2, V=0 has error < 0.06 but gcd 2; hand-checked in the search order
        pair = construct_optimal(Fraction(6, 100))
        assert pair.U == 7

    def test_a_value_and_scaling(self):
        pair = construct_optimal(Fraction(6, 100))
        assert pair.A == (TAU * -3 + 7) / (TAU + 2)
        assert pair.A > 0
        assert pair.A * SQRT5 == pair.V + pair.U * PHI

    def test_index_correspondence(self):
        pair = construct_optimal(Fraction(6, 100))
        xs = [pair.U, pair.V]
        while len(xs) < 40:
            xs.append(xs[-1] + xs[-2])
        denoms = [c.q for c in convergents(pair.theta, 25)]
        for n in range(pair.w - 1, pair.w + 21):
            assert denoms[n] == xs[n + pair.index_shift]

    def test_matches_float_oracle(self):
        for eps in (Fraction(1, 2), Fraction(6, 100), Fraction(1, 100), Fraction(1, 20),
                    Fraction(1, 1000), Fraction(1, 3000)):
            pair = construct_optimal(eps)
            assert (pair.U, pair.V) == float_uv_search(eps)

    def test_small_epsilon_terminates(self):
        pair = construct_optimal(Fraction(1, 10000))
        error = abs(SQRT_TAU - (pair.V + pair.U * PHI))
        assert (error - Fraction(1, 10000)).sign() < 0

    def test_companion_is_admissible(self):
        # theta built at large epsilon must still satisfy tau +- theta not in Z
        pair = construct_optimal(Fraction(1, 2))
        assert (pair.U, pair.V) == (3, -1)
        from psidiff import is_nonintegral_sum_and_diff

        assert is_nonintegral_sum_and_diff(TAU, pair.theta.value())

    def test_cap_does_not_decide_candidate(self):
        # 64 bits cannot separate U = 7's error from epsilon, and the exact test needs
        # no bits; skipping U = 7 would give (15, -8)
        pair = construct_optimal(UNDECIDED_EPS, cap_bits=64)
        assert (pair.U, pair.V) == (7, -3)
        assert pair == construct_optimal(UNDECIDED_EPS)

    def test_one_refinement_per_candidate(self, monkeypatch):
        # the screen and each candidate's test run on integers, with no refinement at all
        calls = _count_calls(monkeypatch, "refine_compare")
        pair = construct_optimal(Fraction(1, 1000))
        assert pair.U == 1235
        assert calls == {"refine_compare": 0}

    @pytest.mark.parametrize("epsilon", [Fraction(1, 20), Fraction(1, 1000), Fraction(1, 10**5)])
    def test_no_allocation_per_candidate(self, monkeypatch, epsilon):
        # U reaches 15, 1235 and 87206; the QuadExt search made 202, 14279 and 1008177
        # values. A U the screen skips builds none: only the one to three it lets through
        # build values (x = sqrt(tau) - U*phi, V and the error), and _build_pair and the
        # companion check the rest, 31, 35 and 37 in all, however far U goes
        calls = []
        make = exact._make
        monkeypatch.setattr(exact, "_make", lambda *args: calls.append(1) or make(*args))
        construct_optimal(epsilon)
        assert len(calls) <= 45

    def test_small_epsilons_pinned(self):
        # the QuadExt search finds these too, in seconds rather than milliseconds
        for epsilon, U, V in ((Fraction(1, 10**5), 87206, -53895),
                              (Fraction(1, 10**6), 208599, -128920)):
            pair = construct_optimal(epsilon)
            assert (pair.U, pair.V) == (U, V)

    @settings(max_examples=80, deadline=None)
    @given(EPSILONS)
    @example(Fraction(1, 662))
    @example(Fraction(1, 663))
    @example(Fraction(1, 875))
    @example(Fraction(1, 876))
    @example(UNDECIDED_EPS)
    @example(Fraction(10**40 + 1, 10**43))  # a denominator past the screen's 64 bits for epsilon
    @example(Fraction(2**200 // 17 + 1, 2**200))
    def test_matches_exact_reference(self, epsilon):
        assert construct_optimal(epsilon) == exact_uv_search(epsilon)

    @settings(max_examples=80, deadline=None)
    @given(EPSILONS)
    @example(Fraction(99, 100))
    @example(UNDECIDED_EPS)
    def test_pair_rechecks_from_its_fields(self, epsilon):
        """U and V are coprime, V + U*phi is the nearest of its kind to sqrt(tau), and the
        error the pair prints is below epsilon, each an exact ``Root`` sign."""
        pair = construct_optimal(epsilon)
        error = abs(SQRT_TAU - (pair.V + pair.U * PHI))
        assert pair.epsilon == epsilon and math.gcd(pair.U, pair.V) == 1
        assert (error - Fraction(1, 2)).sign() < 0 and (error - epsilon).sign() < 0
        assert pair.A * SQRT5 == pair.V + pair.U * PHI

    def test_floor_neg_u_phi_small(self):
        # floor(-U*phi) = floor((U - U*sqrt(5))/2) through exact's level-1 floor kernel
        for U in range(5001):
            assert exact._floor(U, -U, 2, 5, 1) == (-(U * PHI)).floor(), U

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**12))
    def test_floor_neg_u_phi_large(self, U):
        # half of all U have frac(U*phi) >= 1/2, where a floor off by one would show
        assert exact._floor(U, -U, 2, 5, 1) == (-(U * PHI)).floor()

    @pytest.mark.parametrize("epsilon", [Fraction(6, 100), Fraction(1, 1000), UNDECIDED_EPS,
                                         Fraction(1, 10**30), Fraction(2**200 // 17 + 1, 2**200)])
    def test_screen_constants_match_nested_isqrt(self, epsilon):
        """P and S of the screen, read from PHI's and SQRT_TAU's scaled floors at its 2^K, are
        the nested-isqrt formulas the screen used before."""
        limit = theorems._UV_SEARCH_LIMIT
        one = 1 << 64 + min(epsilon.denominator.bit_length(), 64) + limit.bit_length()
        assert (PHI._scaled_floor(one), SQRT_TAU._scaled_floor(one)) == screen_constants(one)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            construct_optimal(Fraction(0))
        with pytest.raises(ValueError):
            construct_optimal(Fraction(3, 2))

    def test_exhausted_message_prints_no_huge_epsilon(self, monkeypatch):
        # printing 10**300000 took most of the call's time, quadratic in its digits
        widths = []
        decimal = exact._decimal
        monkeypatch.setattr(exact, "_decimal",
                            lambda n, width: widths.append(n.bit_length()) or decimal(n, width))
        with pytest.raises(SearchExhaustedError) as info:
            construct_optimal(Fraction(1, 10**300000))
        assert max(widths, default=0) <= exact._STR_BITS
        k = int(str(info.value).rpartition("for epsilon below 2^-")[2])
        assert 2**k < 10**300000 <= 2**(k + 2)

    def test_x_over_f_converges_to_scaled_a(self):
        pair = construct_optimal(Fraction(6, 100))
        target = pair.A * SQRT5
        xs = [pair.U, pair.V]
        fib = [1, 1]
        while len(xs) < 30:
            xs.append(xs[-1] + xs[-2])
            fib.append(fib[-1] + fib[-2])
        gaps = [abs(Fraction(xs[n], fib[n - 1]) - target) for n in range(6, 30)]
        for tighter, wider in zip(gaps[1:], gaps):
            assert tighter < wider


class TestVerifyNearOptimality:
    def test_wide_range_passes(self):
        pair = construct_optimal(Fraction(6, 100))
        report = verify_near_optimality(pair, 10**6, 10**12)
        assert report.passed
        assert report.slack == Fraction(30, 100)
        c_hi = c_enclosure(83).hi  # C within 2**-80
        assert report.max_ratio > c_hi - Fraction(3, 10)
        assert report.max_ratio < c_hi + Fraction(3, 10)

    def test_small_slack_fails(self):
        pair = construct_optimal(Fraction(6, 100))
        report = verify_near_optimality(pair, 10**6, 10**12)
        tight = report.max_ratio.enclosure(80).lo - c_enclosure(83).hi - Fraction(1, 100)
        assert tight > 0
        failing = verify_near_optimality(pair, 10**6, 10**12, slack=tight)
        assert not failing.passed

    def test_degenerate_single_breakpoint(self):
        pair = construct_optimal(Fraction(6, 100))
        t = convergents(pair.theta, pair.w + 12)[-1].q
        report = verify_near_optimality(pair, t, t)
        assert report.t_min == report.t_max == t
        assert report.argmax_t == t

    def test_range_below_regime_rejected(self):
        pair = construct_optimal(Fraction(6, 100))
        with pytest.raises(ValueError):
            verify_near_optimality(pair, 1, 10)

    def test_one_comparison_per_range(self, monkeypatch):
        # the one comparison with C + slack is a sign test in Q(sqrt(5)), not a refinement
        pair = construct_optimal(Fraction(6, 100))
        calls = _count_calls(monkeypatch, "refine_compare")
        verify_near_optimality(pair, 1, 10**40)
        assert calls == {"refine_compare": 0}

    def test_exact_maximum(self):
        report = verify_near_optimality(construct_optimal(Fraction(6, 100)), 1, 10**20)
        assert report.argmax_t == 809
        assert report.max_ratio == QuadExt(Fraction(445, 1618), Fraction(199, 1618), 5)

    def test_theta_outside_q_sqrt5_rejected(self):
        p = construct_optimal(Fraction(6, 100))
        pair = OptimalPair(p.epsilon, p.U, p.V, p.A, p.k, p.w, p.b,
                           parse_number("cf:[0;(2)]"), p.index_shift)
        with pytest.raises(PreconditionFailedError):
            verify_near_optimality(pair, 10**6, 10**9)


def _outcome(function, *args):
    try:
        return function(*args)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=30, deadline=None)
@given(st.fractions(Fraction(1, 3000), 1).filter(lambda eps: eps < 1),
       st.integers(0, 40), st.integers(0, 40))
def test_optimal_pair_ignores_the_cap(epsilon, a, b):
    pair = construct_optimal(epsilon)
    assert construct_optimal(epsilon, 64) == pair
    t_min, t_max = 10 ** min(a, b), 10 ** max(a, b)
    assert (_outcome(verify_near_optimality, pair, t_min, t_max, None, 64)
            == _outcome(verify_near_optimality, pair, t_min, t_max))


class TestBinet:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (10, 55), (90, 2880067194370816120)])
    def test_values(self, n, expected):
        assert binet_fib(n) == expected

    def test_closed_form_is_exact(self):
        for n in (1, 45, 90, 300):
            assert (math.prod([TAU] * n) - math.prod([-PHI] * n)) / SQRT5 == binet_fib(n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binet_fib(0)
        with pytest.raises(ValueError):
            binet_fib(301)


def brute_force_interleave(alpha, beta, depth):
    """(pattern, n, m) of every interleave occurrence, by the plain double loops."""
    qs, ts = ([c.q for c in convergents(x, depth + 1)] for x in (alpha, beta))
    found = []
    for n in range(1, depth + 1):
        for m in range(1, depth + 1):
            if (alpha.partial_quotient(n + 1) >= 2 and ts[m - 1] < qs[n] < ts[m]
                    and qs[n - 1] <= ts[m - 1]):
                found.append(("a", n, m))
    for m in range(1, depth + 1):
        for n in range(1, depth + 1):
            if (beta.partial_quotient(m + 1) >= 2 and qs[n - 1] < ts[m] < qs[n]
                    and ts[m - 1] <= qs[n - 1]):
                found.append(("b", n, m))
    return found


@settings(max_examples=100, deadline=None)
@given(expansions(rational=False), expansions(rational=False), st.integers(0, 40))
def test_interleave_scan_matches_double_loop(alpha, beta, depth):
    assume(alpha.value().D != beta.value().D)
    certs = scan_interleave_gap(alpha, beta, depth)
    assert [(c.pattern, c.n, c.m) for c in certs] == brute_force_interleave(alpha, beta, depth)


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(0, 40))
def test_interleave_certificates_match_single_evaluations(pair, depth):
    """Same-field pairs included: each certificate's d values are d_at at its two points."""
    alpha, beta = pair
    certs = scan_interleave_gap(alpha, beta, depth)
    assert [(c.pattern, c.n, c.m) for c in certs] == brute_force_interleave(alpha, beta, depth)
    for c in certs:
        assert c.d_first == d_at(alpha, beta, c.first_point)
        assert c.d_second == d_at(alpha, beta, c.second_point)


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(0, 40))
def test_gap_certificates_recheck_from_their_fields(pair, depth):
    """Each delta is the stepping number's 1/psi at the second point less that at the first,
    the other number's held, and exceeds bound*(quotient - 1) exactly."""
    for c in scan_interleave_gap(*pair, depth):
        part, held = (("inv_psi_alpha", "inv_psi_beta") if c.pattern == "a"
                      else ("inv_psi_beta", "inv_psi_alpha"))
        assert getattr(c.d_first, held) == getattr(c.d_second, held)
        assert c.delta == getattr(c.d_second, part) - getattr(c.d_first, part)
        assert c.bound == c.second_point and c.delta > c.bound * (c.quotient - 1)


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(0, 40))
def test_dichotomy_scan_matches_single_checks(pair, depth):
    alpha, beta = pair
    for record in scan_dichotomy(alpha, beta, depth):
        assert record.branch is check_dichotomy(alpha, beta, record.n, record.s)


@settings(max_examples=40, deadline=None)
@given(valid_pairs(), st.integers(0, 40))
def test_dichotomy_scan_misses_no_record(pair, depth):
    """The scan's (n, s) are every pair of indices <= depth that ``check_dichotomy`` takes,
    that is, for which it does not raise ``PreconditionFailedError``."""
    alpha, beta = pair
    taken = set()
    for n, s in itertools.product(range(1, depth + 1), range(depth + 1)):
        try:
            check_dichotomy(alpha, beta, n, s)
        except PreconditionFailedError:
            continue
        taken.add((n, s))
    assert {(r.n, r.s) for r in scan_dichotomy(alpha, beta, depth)} == taken


def _mp_tail(cf, r):
    """alpha_r = [a_r; a_{r+1}, ...] in mpmath, unrolled from the partial quotients alone."""
    value = mpmath.mpf(cf.partial_quotient(r + 400))
    for j in range(r + 399, r - 1, -1):
        value = cf.partial_quotient(j) + 1 / value
    return value


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(0, 40))
def test_dichotomy_branches_match_the_inequalities(pair, depth):
    """Each record's branch against the two inequalities of ``check_dichotomy``, in mpmath."""
    alpha, beta = pair
    expected = {(True, False): DichotomyBranch.FIRST_BRANCH,
                (False, True): DichotomyBranch.SECOND_BRANCH}
    with mpmath.workdps(150):
        for record in scan_dichotomy(alpha, beta, depth):
            inv_xi_prev, inv_xi, inv_eta = (1 / mp_quadext(x, 150)
                                            for x in (record.xi_prev, record.xi, record.eta))
            factor = 1 - 1 / mpmath.sqrt(_mp_tail(alpha, record.n + 1))
            first = inv_eta - inv_xi_prev - inv_eta * factor
            second = inv_xi - inv_eta - inv_xi * factor
            tie = mpmath.mpf(10) ** -100 * inv_xi
            if abs(first) > tie and abs(second) > tie:
                assert record.branch is expected[first > 0, second > 0]
            else:
                assert record.branch is DichotomyBranch.BOTH


@lru_cache(maxsize=None)
def _optimal_pair(n):
    return construct_optimal(Fraction(1, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(20, 3000), st.integers(0, 30), st.integers(0, 30))
def test_near_optimality_matches_brute_force(n, a, b):
    """The report's maximum is the exact max of |d_at(tau, theta, t)|/t over the breakpoints."""
    pair = _optimal_pair(n)
    t_min, t_max = 10 ** min(a, b), 10 ** max(a, b)
    t_lo = max(t_min, convergents(pair.theta, pair.w + 10)[-1].q)
    if t_lo > t_max:
        with pytest.raises(ValueError):
            verify_near_optimality(pair, t_min, t_max)
        return
    report = verify_near_optimality(pair, t_min, t_max)
    points = {t_lo}
    for x in (TAU_CF, pair.theta):
        qs = [c.q for c in convergents(x, 200)]
        assert qs[-1] > t_max
        points.update(q for q in qs if t_lo < q <= t_max)
    ratios = {}
    for t in sorted(points):
        d = d_at(TAU_CF, pair.theta, t)
        ratios[t] = abs(d.inv_psi_beta - d.inv_psi_alpha) / t
    top = max(ratios.values())
    assert report.max_ratio == top
    assert report.argmax_t == min(t for t, ratio in ratios.items() if ratio == top)
    with mpmath.workdps(60):
        bound = mp_const("C") + mpmath.mpf(report.slack.numerator) / report.slack.denominator
        assert report.passed == (mp_quadext(top) < bound)
