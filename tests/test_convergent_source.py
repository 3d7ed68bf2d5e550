"""The per-expansion convergent source against a plain recurrence.

``convergent_state`` and ``last_convergent_at_most`` answer through the
ladder of squared period matrices; ``convergents`` walks in order, and so does
the merged walk behind profiles, merged words and witness searches. Every
answer is compared with the three-term recurrence written out below, on
expansions drawn with and without a preperiod, rational ones, and ones with
a_1 = 1 (where q_0 = q_1 = 1); the merged walk is compared with the ladder's
``d_at`` and with denominators merged by hand. The exact value and the surd
expansion invert each other on the same expansions.
"""

import itertools
import math
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psidiff import (CFExpansion, breakpoint_profile, convergents, d_at, expand_quadratic,
                     find_witness, is_nonintegral_sum_and_diff, merged_word, parse_number,
                     parse_surd)
from psidiff.contfrac import convergent_state, last_convergent_at_most

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


@settings(max_examples=150, deadline=None)
@given(expansions(), st.integers(0, 300))
def test_state_at_index(cf, n):
    states = first_states(cf, n + 1)
    if n < len(states):
        assert convergent_state(cf, n) == states[n]
    else:
        with pytest.raises(IndexError):
            convergent_state(cf, n)
    for i in range(min(n + 1, len(states), 12)):
        assert convergent_state(cf, i) == states[i]


@settings(max_examples=100, deadline=None)
@given(expansions(), st.integers(0, 40))
def test_convergents_list(cf, n):
    got = [(c.index, c.p, c.q) for c in convergents(cf, n)]
    assert got == [(i, s[0], s[2]) for i, s in enumerate(first_states(cf, n + 1))]


@settings(max_examples=150, deadline=None)
@given(expansions(), st.integers(0, 120))
def test_bracket_index_near_denominators(cf, n):
    states = first_states(cf, n + 1)
    q_n = states[-1][2]
    for t in (q_n - 1, q_n, q_n + 1):
        if t < 1:
            continue
        r, state = last_convergent_at_most(cf, t)
        assert r == last_index_at_most(cf, t)
        assert state == first_states(cf, r + 1)[r]


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


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(1, 10**40), st.data())
def test_merged_walk_matches_ladder(pair, t_max, data):
    alpha, beta = pair
    denominators = sorted({*last_index_by_q(alpha), *last_index_by_q(beta)})
    on_breakpoint = [q for q in denominators if q <= t_max]
    t_min = data.draw(st.one_of(st.sampled_from(on_breakpoint), st.integers(1, t_max)))
    profile = breakpoint_profile(alpha, beta, t_min, t_max)
    assert [e.t for e in profile.entries] == sorted({t_min} | {
        q for q in denominators if t_min <= q <= t_max})
    for entry in profile.entries:
        want = d_at(alpha, beta, entry.t)
        got = entry.d
        assert (got.inv_psi_alpha, got.inv_psi_beta) == (want.inv_psi_alpha, want.inv_psi_beta)
        assert (got.alpha_index, got.beta_index) == (want.alpha_index, want.beta_index)
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
