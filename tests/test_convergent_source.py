"""The per-expansion convergent source against a plain recurrence.

``convergent_state`` and ``last_convergent_at_most`` answer through the
ladder of squared period matrices; ``convergent_stream`` walks in order from
index 0, and the merged walk behind profiles, merged words and witness searches
walks in order from its seed. Every answer is compared with the three-term
recurrence written out below, on expansions drawn with and without a
preperiod, rational ones, and ones with a_1 = 1 (where q_0 = q_1 = 1); the
merged walk is compared with 1/psi built from the convergents and with
denominators merged by hand. The exact value and the surd expansion invert each
other on the same expansions.
"""

import itertools
import math
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psidiff import (CFExpansion, breakpoint_profile, convergents, d_at, expand_quadratic,
                     find_witness, is_nonintegral_sum_and_diff, merged_word, parse_number,
                     parse_surd, scan_lemma_conseq, scan_lemma_conseq1, tail)
from psidiff import contfrac
from psidiff.contfrac import convergent_state, last_convergent_at_most
from psidiff.errors import RationalInputError

from test_one_refine_loop import uses_in_package

QUOTIENT = st.one_of(st.just(1), st.integers(1, 7))


@st.composite
def expansions(draw, rational=None):
    a0 = draw(st.integers(-3, 5))
    pre = draw(st.lists(QUOTIENT, max_size=5))
    if rational is None:
        rational = draw(st.booleans())
    if rational:
        if pre and pre[-1] == 1:
            pre[-1] = 2
        return CFExpansion(a0, tuple(pre))
    return CFExpansion(a0, tuple(pre), tuple(draw(st.lists(QUOTIENT, min_size=1, max_size=4))))


def reference_states(cf: CFExpansion):
    """(n, (p_n, p_{n-1}, q_n, q_{n-1})) by the recurrence, straight from the fields."""
    p_prev, q_prev, p, q = 1, 0, cf.a0, 1
    yield 0, (p, p_prev, q, q_prev)
    tail = itertools.cycle(cf.period) if cf.period else ()
    for n, a in enumerate(itertools.chain(cf.preperiod, tail), start=1):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield n, (p, p_prev, q, q_prev)


def first_states(cf: CFExpansion, count: int):
    return [s for _, s in itertools.islice(reference_states(cf), count)]


def last_index_at_most(cf: CFExpansion, t: int) -> int:
    last = 0
    for n, (_, _, q, _) in reference_states(cf):
        if q > t:
            break
        last = n
    return last


# where the one descent switches phase: the last preperiod state and the first and last
# single step of a period, q_0 = q_1 = 1 (a_1 = 1), a rational end, and thousands of
# periods past the preperiod, each against the plain recurrence
SEEK_EXAMPLES = [(CFExpansion(0, (1, 2, 3), (4, 5)), n) for n in (2, 3, 4, 5, 6)] + [
    (CFExpansion(1, (), (1,)), 0), (CFExpansion(1, (), (1,)), 1), (CFExpansion(0, (1,), (2,)), 1),
    (CFExpansion(2, (1, 3)), 2), (CFExpansion(2, (1, 3)), 3),
    (CFExpansion(0, (2,), (1, 3)), 3001), (CFExpansion(-3, (7,), (1, 1, 4, 2)), 4002)]


def seek_examples(test):
    for cf, n in SEEK_EXAMPLES:
        test = example(cf, n)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(expansions(), st.integers(0, 300))
@seek_examples
def test_state_at_index(cf, n):
    states = first_states(cf, n + 1)
    if n < len(states):
        assert convergent_state(cf, n) == states[n]
    else:
        with pytest.raises(IndexError):
            convergent_state(cf, n)
    for i in range(min(n + 1, len(states), 12)):
        assert convergent_state(cf, i) == states[i]


def test_only_the_descent_multiplies():
    """``_Ladder.seek`` is the one descent: no other code forms a product of two states,
    apart from ``_Ladder.power``'s squaring."""
    assert set(uses_in_package("_mul")) == {"contfrac.py in _Ladder.seek",
                                            "contfrac.py in _Ladder.power"}
    assert set(uses_in_package("_q_of_product")) == {"contfrac.py in _Ladder.seek"}


@settings(max_examples=100, deadline=None)
@given(expansions(), st.integers(0, 40))
@example(CFExpansion(5), 0)  # a lone integer: index 0 only, and no step
def test_stream_steps_only_by_the_ladders_step(cf, n):
    """``convergent_stream`` forms no q of its own: ``contfrac._step`` makes each term after
    index 0, once, and a rational expansion's stream stops at its last index."""
    real, steps = contfrac._step, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contfrac, "_step", lambda s, a: steps.append(a) or real(s, a))
        stream = contfrac.convergent_stream(cf)
        got = list(stream if cf.is_rational else itertools.islice(stream, n + 1))
    states = reference_states(cf) if cf.is_rational else enumerate(first_states(cf, n + 1))
    assert got == [(i, s[0], s[2]) for i, s in states]
    assert steps == [cf.partial_quotient(i) for i in range(1, len(got))]


@settings(max_examples=100, deadline=None)
@given(expansions(), st.integers(0, 40))
def test_convergents_list(cf, n):
    got = [(c.index, c.p, c.q) for c in convergents(cf, n)]
    assert got == [(i, s[0], s[2]) for i, s in enumerate(first_states(cf, n + 1))]


@settings(max_examples=150, deadline=None)
@given(expansions(), st.integers(0, 120))
@seek_examples
def test_bracket_index_near_denominators(cf, n):
    states = first_states(cf, n + 1)
    q_n = states[-1][2]
    for t in (q_n - 1, q_n, q_n + 1):
        if t < 1:
            continue
        r, state = last_convergent_at_most(cf, t)
        assert r == last_index_at_most(cf, t)
        assert state == first_states(cf, r + 1)[r]


@settings(max_examples=150, deadline=None)
@given(expansions(), st.integers(-3, 30))
@example(CFExpansion(2, (3, 4)), 5)  # rational, past its end
@example(CFExpansion(0, (1, 2, 3), (4, 5)), 2)  # inside the preperiod
@example(CFExpansion(0, (1, 2, 3), (4, 5)), 6)  # past it, period rotated
@example(CFExpansion(0, (1, 2), (3,)), -1)  # no index, not the head sliced from its end
def test_quotients_from_start(cf, start):
    if start < 0:
        with pytest.raises(IndexError):
            next(cf.quotients(start))
        with pytest.raises(IndexError):
            cf.partial_quotient(start)
        return
    want = list(itertools.islice(cf.quotients(), start, start + 20))
    assert list(itertools.islice(cf.quotients(start), 20)) == want
    if want:
        assert cf.partial_quotient(start) == want[0]
    else:
        with pytest.raises(IndexError):
            cf.partial_quotient(start)


@settings(max_examples=150, deadline=None)
@given(expansions(rational=False))
def test_every_tail_against_the_recurrence(cf):
    """x = (p_{r-1} t_r + p_{r-2}) / (q_{r-1} t_r + q_{r-2}) and floor(t_r) = a_r for each
    tail t_r = [a_r; a_{r+1}, ...], r = 1..k + 2L + 1 (k the preperiod's length, L the period's)."""
    x = cf.value()
    last = len(cf.preperiod) + 2 * len(cf.period) + 1
    for n, (p, p_prev, q, q_prev) in itertools.islice(reference_states(cf), last):
        t_r = tail(cf, n + 1)
        assert x == (p * t_r + p_prev) / (q * t_r + q_prev)
        assert t_r.floor() == cf.partial_quotient(n + 1)


@settings(max_examples=150, deadline=None)
@given(expansions(), st.integers(-3, 0))
def test_indexed_quotient_and_tail_are_the_streams_first(cf, below):
    """``partial_quotient(j)`` and ``tail(cf, r)`` index the preperiod, the period and the
    ladder's tails: over the preperiod and three periods they are the first values of
    ``quotients(j)`` and ``tails(cf, r)``, and they raise what the streams raise."""
    span = range(len(cf.preperiod) + 3 * max(len(cf.period), 1) + 2)
    for j in span:
        want = next(cf.quotients(j), None)
        if want is None:  # a rational past its end
            with pytest.raises(IndexError):
                cf.partial_quotient(j)
        else:
            assert cf.partial_quotient(j) == want
    for reader in (cf.partial_quotient, cf.quotients):
        with pytest.raises(IndexError):
            reader(below - 1)
    for r in (*span[1:], below):
        if cf.is_rational or r < 1:
            for reader in (tail, contfrac.tails):
                with pytest.raises(RationalInputError if cf.is_rational else ValueError):
                    reader(cf, r)
        else:
            assert tail(cf, r) is next(contfrac.tails(cf, r))


@settings(max_examples=100, deadline=None)
@given(expansions(rational=False), st.integers(1, 10**40))
def test_bracket_index_far(cf, t):
    assert last_convergent_at_most(cf, t)[0] == last_index_at_most(cf, t)


@settings(max_examples=100, deadline=None)
@given(expansions())
def test_caches_leave_identity_alone(cf):
    fresh = CFExpansion(cf.a0, cf.preperiod, cf.period)
    used = CFExpansion(cf.a0, cf.preperiod, cf.period)
    first = used.value()
    assert used.value() is first
    convergent_state(used, 50 if cf.period else len(cf.preperiod))
    last_convergent_at_most(used, 10**30)
    assert first == fresh.value()
    assert used == fresh and hash(used) == hash(fresh)
    assert {used: 1}[fresh] == 1


def canonical(cf: CFExpansion) -> CFExpansion:
    """The same value with the shortest period, started as early as it can be."""
    period, pre = cf.period, cf.preperiod
    m = next(m for m in range(1, len(period) + 1)
             if len(period) % m == 0 and period == period[:m] * (len(period) // m))
    period = period[:m]
    while pre and pre[-1] == period[-1]:
        pre, period = pre[:-1], period[-1:] + period[:-1]
    return CFExpansion(cf.a0, pre, period)


@settings(max_examples=150, deadline=None)
@given(expansions(rational=False))
def test_expand_quadratic_inverts_value(cf):
    assert expand_quadratic(cf.value()) == canonical(cf)


@settings(max_examples=150, deadline=None)
@given(st.integers(-100, 100), st.integers(2, 2000), st.integers(-50, 50).filter(bool))
def test_surd_spec_value_round_trip(P, D, Q):
    assume(math.isqrt(D) ** 2 != D)
    spec = f"surd:({P}+sqrt({D}))/{Q}"
    assert parse_number(spec).value() == parse_surd(spec)


def test_deep_lookup_memory_and_indices():
    """d(t) at t = 10**10000 stores no table of convergents, and brackets correctly."""
    t = 10**10000
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    tracemalloc.start()
    try:
        d = d_at(tau, sqrt2, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert (d.alpha_index, d.beta_index) == (last_index_at_most(tau, t), last_index_at_most(sqrt2, t))


@st.composite
def valid_pairs(draw):
    """Two irrational expansions with alpha +- beta not integral; half share a field."""
    alpha, beta = draw(expansions(rational=False)), draw(expansions(rational=False))
    if draw(st.booleans()):
        beta = CFExpansion(beta.a0, beta.preperiod, alpha.period)  # same period, same field
    assume(is_nonintegral_sum_and_diff(alpha.value(), beta.value()))
    return alpha, beta


def last_index_by_q(cf: CFExpansion) -> dict[int, int]:
    """q -> index for every q_n with n <= 200 (past 10**41); a repeated q keeps its last n."""
    return {c.q: c.index for c in convergents(cf, 200)}


def reference_inv_psi(cf: CFExpansion, t: int):
    """(r, q_r*tail(r+1) + q_{r-1}), r the last index with q_r <= t, from the unseeded convergents."""
    r = last_index_at_most(cf, t)
    q = [0, *(c.q for c in convergents(cf, r))]  # q[n + 1] = q_n, q_{-1} = 0
    return r, q[r + 1] * tail(cf, r + 1) + q[r]


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(1, 10**40), st.data())
def test_merged_walk_matches_recurrence(pair, t_max, data):
    alpha, beta = pair
    denominators = sorted({*last_index_by_q(alpha), *last_index_by_q(beta)})
    on_breakpoint = [q for q in denominators if q <= t_max]
    t_min = data.draw(st.one_of(st.sampled_from(on_breakpoint), st.integers(1, t_max)))
    profile = breakpoint_profile(alpha, beta, t_min, t_max)
    assert [e.t for e in profile.entries] == sorted({t_min} | {
        q for q in denominators if t_min <= q <= t_max})
    for entry in profile.entries:
        d = entry.d
        assert (d.alpha_index, d.inv_psi_alpha) == reference_inv_psi(alpha, entry.t)
        assert (d.beta_index, d.inv_psi_beta) == reference_inv_psi(beta, entry.t)
    # a number that does not step at a breakpoint keeps the value of the step before
    letters = {x.value: x for x in merged_word(alpha, beta, len(on_breakpoint)).letters}
    for prev, entry in itertools.pairwise(profile.entries):
        letter, d = letters[entry.t], entry.d
        assert letter.n in (None, d.alpha_index) and letter.s in (None, d.beta_index)
        if letter.kind == "Q":
            assert (d.inv_psi_beta, d.beta_index) == (prev.d.inv_psi_beta, prev.d.beta_index)
        if letter.kind == "T":
            assert (d.inv_psi_alpha, d.alpha_index) == (prev.d.inv_psi_alpha, prev.d.alpha_index)


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(1, 10**40), st.data())
def test_profile_from_t_min_is_the_cut_profile(pair, t_max, data):
    """Seeded at t_min, the profile is the one from t = 1 with the steps before t_min cut."""
    alpha, beta = pair
    full = breakpoint_profile(alpha, beta, 1, t_max).entries
    t_min = data.draw(st.one_of(st.sampled_from([e.t for e in full]), st.integers(1, t_max)))
    active = [e for e in full if e.t <= t_min][-1]
    want = [(t_min, active.d), *((e.t, e.d) for e in full if e.t > t_min)]
    assert [(e.t, e.d) for e in breakpoint_profile(alpha, beta, t_min, t_max).entries] == want


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(1, 60))
def test_merged_word_matches_merged_denominators(pair, count):
    alpha, beta = pair
    qa, qb = last_index_by_q(alpha), last_index_by_q(beta)
    want = []
    for q in sorted({*qa, *qb})[:count]:
        n, s = qa.get(q), qb.get(q)
        want.append(("T" if n is None else "Q" if s is None else "B", n, s, q))
    letters = merged_word(alpha, beta, count).letters
    assert [(x.kind, x.n, x.s, x.value) for x in letters] == want


@settings(max_examples=100, deadline=None)
@given(valid_pairs(), st.integers(0, 30))
@example((CFExpansion(1, (), (1,)), CFExpansion(0, (1,), (2,))), 30)  # q_0 = q_1 = 1 on both sides
@example((CFExpansion(0, (1,), (2,)), CFExpansion(0, (1, 2), (1,))), 12)  # a_2 = 2 drops (0, 0)
def test_coincidence_scans_match_brute_force(pair, depth):
    """Both consecutive-denominator scans against a double loop over n, m <= depth."""
    alpha, beta = pair
    q, t = ([s[2] for s in first_states(x, depth + 3)] for x in (alpha, beta))
    pairs = [(n, m) for n in range(depth + 1) for m in range(depth + 1)]
    assert scan_lemma_conseq(alpha, beta, depth) == [
        (n, m) for n, m in pairs if (q[n], q[n + 1]) == (t[m], t[m + 1])]
    # a_{n+2} = 1 exactly when q_{n+2} = q_{n+1} + q_n
    assert scan_lemma_conseq1(alpha, beta, depth) == [
        (n, m) for n, m in pairs
        if (q[n], q[n + 2]) == (t[m + 1], t[m + 2]) and q[n + 2] == q[n + 1] + q[n]]


def test_witness_search_is_lazy():
    """The walk stops at the first witness: a huge search bound builds nothing past it."""
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    tracemalloc.start()
    try:
        witness = find_witness(sqrt2, tau, 1, 10**6000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert witness.t == 2
