"""Passes over the breakpoints in order read one merged walk, seeded once per number.

Profiles, merged words, witness searches and the lemma scans visit the
convergents of both numbers in ascending order, so each bracket comes from one
recurrence step of the two convergent streams. The ladder only seeds a walk at
its lower end, one lookup per number, and single evaluations are the first step
of such a walk; a per-step ladder lookup creeping back into any of them fails
here, and so does a ladder lookup from anywhere but the seeding helper ``_brackets``, the
near-optimality regime floor (``theorems._regime_floor``, which ``verify-optimal``'s budget
also reads) and the CLI's step budget of ``profile`` and ``verify-optimal``, which reads
each number's last index at both ends of the range before any walk. A walk far out costs
its own entries, not every convergent below them. Every read by index is a row table,
``_table``, whose walk one lookup per number seeds at its first index: the four lemma scans
read tables from index 0, and a single evaluation by index is a table seeded there.

Along the walk, 1/psi of a number is computed once per bracket it holds, not
once per breakpoint: at a breakpoint where only the other number steps, its
value is carried over. Every new bracket is still cross-checked through both
closed forms, which a corrupted tail must trip. (That rendering floors each
carried-over 1/psi once is tested in ``test_one_floor_per_value``.)
"""

import ast
import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psidiff import (CFExpansion, QuadExt, breakpoint_profile, check_dichotomy, construct_optimal,
                     contfrac, convergent_distance, d_at, exact, find_witness, imf, inv_psi,
                     merged_word, parse_number, psi, scan_dichotomy, scan_interleave_gap,
                     scan_lemma_conseq, scan_lemma_conseq1, theorems, verify_near_optimality)
from psidiff.errors import FormMismatchError

from test_convergent_source import valid_pairs

LADDER = ("last_convergent_at_most", "convergent_state")


def passes():
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    return {
        "profile": lambda: breakpoint_profile(sqrt2, tau, 7, 10**100),
        "word": lambda: merged_word(sqrt2, tau, 50),
        "witness": lambda: find_witness(sqrt2, tau, 10, 10**6),
        "conseq": lambda: scan_lemma_conseq(sqrt2, tau, 60),
        "conseq1": lambda: scan_lemma_conseq1(sqrt2, tau, 60),
        "interleave_gap": lambda: scan_interleave_gap(sqrt2, tau, 60),
        "dichotomy": lambda: scan_dichotomy(sqrt2, tau, 60),
    }


# ladder lookups per pass: one seed per number, of a walk by bound or, for the four lemma
# scans, of each number's row table, walked from index 0
SEEDS = {"profile": 2, "word": 2, "witness": 2, "interleave_gap": 2, "dichotomy": 2,
         "conseq": 2, "conseq1": 2}


def count_ladder(monkeypatch) -> list:
    """The expansion of every ladder lookup from now on; lookups still answer."""
    lookups = []
    for attr in LADDER:
        def counting(cf, *args, real=getattr(contfrac, attr)):
            lookups.append(cf)
            return real(cf, *args)

        monkeypatch.setattr(contfrac, attr, counting)
    return lookups


@pytest.mark.parametrize("name", sorted(passes()))
def test_in_order_pass_needs_no_ladder(name, monkeypatch):
    """No lookup per step: at most one ladder lookup per number seeds the walk, on a first
    pass and on a second one, which finds nothing the first left."""
    lookups = count_ladder(monkeypatch)
    want = passes()[name]()
    assert len(lookups) == SEEDS[name]
    assert len(set(lookups)) == len(lookups)
    lookups.clear()
    assert passes()[name]() == want
    assert len(lookups) == SEEDS[name]
    assert len(set(lookups)) == len(lookups)


def test_single_evaluation_is_one_seeded_step(monkeypatch):
    """An evaluation at t, or at an index, is the first step of a walk seeded by one ladder
    lookup per number, and keeps nothing: by index it draws one quotient per value, for its
    q_{r+1}, and a second evaluation draws as many again, with the same lookups."""
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    alpha = CFExpansion(0, (1,) * 6, (1, 2))
    t = 10**50
    evaluations = [
        (lambda: d_at(sqrt2, tau, t), [sqrt2, tau]),
        (lambda: psi(tau, t), [tau]),
        (lambda: inv_psi(sqrt2, t), [sqrt2]),
    ]
    lookups = count_ladder(monkeypatch)
    for evaluate, numbers in evaluations:
        lookups.clear()
        evaluate()
        assert lookups == numbers
    real, drawn = CFExpansion.quotients, []

    def counting(cf, start=0):
        for a in real(cf, start):
            drawn.append(cf)
            yield a

    monkeypatch.setattr(CFExpansion, "quotients", counting)
    by_index = [  # the numbers seeded, and the values each draws a quotient for
        (lambda: convergent_distance(sqrt2, 40), {sqrt2: 1}),
        (lambda: check_dichotomy(alpha, sqrt2, 7, 3), {alpha: 2, sqrt2: 1}),
    ]
    for evaluate, values in by_index:
        lookups.clear()
        drawn.clear()
        want = evaluate()
        assert lookups == list(values)
        assert sorted(map(id, drawn)) == sorted(id(cf) for cf, k in values.items()
                                                for _ in range(k))
        lookups.clear()
        drawn.clear()
        assert evaluate() == want
        assert lookups == list(values)
        assert len(drawn) == sum(values.values())


def ladder_references() -> list[str]:
    """module.function of each ladder name mentioned in the package outside contfrac."""
    found = []
    for path in sorted(pathlib.Path(imf.__file__).parent.glob("*.py")):
        if path.stem == "contfrac":
            continue
        scope = [path.stem]

        class Visitor(ast.NodeVisitor):
            def visit_FunctionDef(self, node):
                scope.append(node.name)
                self.generic_visit(node)
                scope.pop()

            def generic_visit(self, node):
                name = getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
                if name in LADDER:
                    found.append(".".join(scope))
                super().generic_visit(node)

        Visitor().visit(ast.parse(path.read_text()))
    return sorted(found)


def test_only_the_seeds_touch_the_ladder():
    """Outside contfrac the ladder seeds the walks, by bound through ``_brackets`` and by index
    through the row table ``_table``, finds the regime floor and bounds the steps of
    ``profile`` and ``verify-optimal`` for their budget, nothing else."""
    assert ladder_references() == ["cli._budget_steps", "imf._brackets", "imf._table",
                                   "theorems._regime_floor"]


def test_merged_walk_yields_only_what_the_walks_yield(monkeypatch):
    """``imf._walk`` is the one place in ``imf`` that steps q: every bracket the merged walk
    yields, to profiles and to merged words alike, is an object some ``_walk`` yielded."""
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    walk, merge, walked, merged = imf._walk, imf._merged_brackets, [], []

    def walking(*args):
        for bracket in walk(*args):
            walked.append(bracket)
            yield bracket

    def merging(*args):
        for step in merge(*args):
            merged.extend(step[1:])
            yield step

    monkeypatch.setattr(imf, "_walk", walking)
    monkeypatch.setattr(imf, "_merged_brackets", merging)
    breakpoint_profile(sqrt2, tau, 1, 10**50)
    merged_word(sqrt2, tau, 50)
    assert len(merged) > 2 * 50
    ids = {id(bracket) for bracket in walked}  # ``walked`` keeps each alive, so no id is reused
    assert all(id(bracket) in ids for bracket in merged)


def test_far_window_walks_from_its_lower_end(monkeypatch):
    """The walk draws one partial quotient per entry, plus a seed and a last step per number."""
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    real, drawn = CFExpansion.quotients, []

    def counting(cf, start=0):
        for a in real(cf, start):
            drawn.append(a)
            yield a

    monkeypatch.setattr(CFExpansion, "quotients", counting)
    profile = breakpoint_profile(sqrt2, tau, 10**10000, 10**10001)
    assert profile.entries[0].d.alpha_index > 10**4  # a walk from index 0 would draw as many
    assert len(profile.entries) <= len(drawn) <= len(profile.entries) + 2 * 2


def merge_of_walks(alpha, beta, t):
    """The merge of two ``imf._brackets`` walks, written out on their generators."""
    walk_a, walk_b = imf._brackets(alpha, t), imf._brackets(beta, t)
    a, b = next(walk_a), next(walk_b)
    while True:
        yield t, a, b
        t = min(a[3], b[3])
        a = next(walk_a) if a[3] == t else a
        b = next(walk_b) if b[3] == t else b


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(1, 10**300), st.integers(1, 40))
def test_flat_merge_is_the_merge_of_two_walks(pair, t_min, steps):
    """Equal steps, each bracket that of the unseeded convergents and the tails, and a number
    that did not step holding the very same bracket, which ``_d_steps`` carries over by."""
    walks = (imf._brackets(cf, t_min) for cf in pair)
    merged = list(itertools.islice(imf._merged_brackets(*walks, t_min), steps))
    assert merged == list(itertools.islice(merge_of_walks(*pair, t_min), steps))
    for cf, column in zip(pair, (1, 2)):
        last = merged[-1][column][0]
        q = [0, *(c.q for c in contfrac.convergents(cf, last + 1))]  # q[n + 1] = q_n
        for _, *brackets in merged:
            r, *rest = brackets[column - 1]
            assert rest == [q[r], q[r + 1], q[r + 2], contfrac.tail(cf, r + 1),
                            contfrac.tail(cf, r + 2)]
    for (_, *before), (t, *after) in itertools.pairwise(merged):
        for held, now in zip(before, after):
            assert (now is held) == (held[3] != t)


def test_one_inv_psi_per_bracket(monkeypatch):
    """The profile computes 1/psi once per distinct bracket of either number in range."""
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    t_min, t_max = 7, 10**100
    real, calls = imf._inv_psi_at, []

    def counting(t, bracket):
        calls.append((bracket[4].D, bracket[0]))  # the number by its field, and r
        return real(t, bracket)

    monkeypatch.setattr(imf, "_inv_psi_at", counting)
    breakpoint_profile(sqrt2, tau, t_min, t_max)
    # q_r increases strictly from r = 1, so the brackets met in [t_min, t_max] are
    # those of the indices r(t_min) .. r(t_max), r(t) the last index with q_r <= t
    want = {(x.value().D, r) for x in (sqrt2, tau)
            for r in range(contfrac.last_convergent_at_most(x, t_min)[0],
                           contfrac.last_convergent_at_most(x, t_max)[0] + 1)}
    assert len(calls) == len(want)
    assert set(calls) == want


def count_brackets(monkeypatch, *numbers) -> list[tuple[int, int, int]]:
    """The key of each ``exact._bracket`` call from now on: the number, known by its tail's id
    (every walk's tails are its ladder's), and q_r, q_{r-1}, which fix the index r."""
    number = {id(t): i for i, cf in enumerate(numbers) for t in contfrac._ladder(cf).tails}
    real, calls = exact._bracket, []

    def counting(q, q_prev, tail):
        calls.append((number[id(tail)], q, q_prev))
        return real(q, q_prev, tail)

    monkeypatch.setattr(exact, "_bracket", counting)
    return calls


@pytest.mark.parametrize("depth", [200, 300])
def test_interleave_scan_evaluates_only_what_its_certificates_hold(monkeypatch, depth):
    """The interleave scan finds its patterns on the brackets' indices alone and computes 1/psi
    only for the occurrences it certifies: at most three values per certificate, each one that
    a certificate's d_first or d_second holds, and none twice, at index 256 and past it as
    below. It brackets each value once, though two points share it."""
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    real, calls, brackets = imf._inv_psi_at, [], count_brackets(monkeypatch, sqrt2, tau)

    def counting(t, bracket):
        calls.append((bracket[4].D, bracket[0]))  # the number by its field, and r
        return real(t, bracket)

    monkeypatch.setattr(imf, "_inv_psi_at", counting)
    certificates = scan_interleave_gap(sqrt2, tau, depth)
    assert certificates
    assert len(calls) <= 3 * len(certificates)
    held = {key for c in certificates for d in (c.d_first, c.d_second)
            for key in ((d.inv_psi_alpha.D, d.alpha_index), (d.inv_psi_beta.D, d.beta_index))}
    assert set(calls) <= held
    assert len(set(calls)) == len(calls)
    assert len(set(brackets)) == len(brackets) == len(calls)


def test_dichotomy_scan_evaluates_each_remainder_once(monkeypatch):
    """The scan reads 1/xi_0 .. 1/xi_depth of each number once, bracketing each once, and never
    calls check_dichotomy.

    It also inverts each 1/xi_n at most once: records whose indices meet hold one xi object,
    so records[i].xi is records[j].xi_prev when records[j].n = records[i].n + 1.
    """
    tau = CFExpansion(1, (), (1,))
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    depth, real, calls, brackets = 200, imf._inv_psi_at, [], count_brackets(monkeypatch, tau, sqrt2)

    def counting(t, bracket):
        calls.append((bracket[4].D, bracket[0]))  # the number by its field, and n
        return real(t, bracket)

    def no_check(*args, **kwargs):
        raise AssertionError("check_dichotomy inside the scan")

    inverted, inverse = [], QuadExt.inverse
    monkeypatch.setattr(imf, "_inv_psi_at", counting)
    monkeypatch.setattr(theorems, "check_dichotomy", no_check)
    monkeypatch.setattr(QuadExt, "inverse", lambda x: inverted.append(x) or inverse(x))
    records = scan_dichotomy(tau, sqrt2, depth)
    assert records
    assert len(calls) <= 2 * (depth + 1)
    assert len(set(calls)) == len(calls)
    assert len(set(brackets)) == len(brackets) == len(calls)
    assert len({id(x) for x in inverted}) == len(inverted)
    xis = {}
    for record in records:
        assert xis.setdefault(record.n - 1, record.xi_prev) is record.xi_prev
        assert xis.setdefault(record.n, record.xi) is record.xi
    assert any(a.n + 1 == b.n for a, b in itertools.pairwise(records))


def corrupt_tail(monkeypatch, period, offset):
    """Shift by 1 every tail that starts at this offset of this period, so the closed forms
    disagree there. It corrupts the ladder's ``tails`` of every expansion with this period,
    which the walks' ``contfrac.tails`` and the single ``contfrac.tail`` both index, so both
    see the corruption, also in a ladder built before the call."""
    held = contfrac._Ladder.tails  # the slot

    def corrupted(ladder):
        values = held.__get__(ladder)
        if ladder.period != period:
            return values
        i = len(values) - len(period) + offset  # past the preperiod's tails
        return (*values[:i], values[i] + 1, *values[i + 1:])

    monkeypatch.setattr(contfrac._Ladder, "tails", property(corrupted, held.__set__))


def test_corruption_reaches_both_tail_readers(monkeypatch):
    alpha = CFExpansion(0, (1,) * 6, (1, 2))
    intact = list(itertools.islice(contfrac.tails(alpha, 1), 12))  # the ladder is built here
    corrupt_tail(monkeypatch, (1, 2), 1)
    walked = list(itertools.islice(contfrac.tails(alpha, 1), 12))
    assert walked == [contfrac.tail(alpha, r) for r in range(1, 13)]
    assert [r for r in range(1, 13) if walked[r - 1] != intact[r - 1]] == [8, 10, 12]


def test_cross_check_runs_on_a_bracket_that_steps_alone(monkeypatch):
    """Tails a_8, a_10, ... of alpha are corrupted: its brackets from r = 6 (q_6 = 13) mismatch.

    sqrt2 steps alone at 12 and alpha alone at 13, so the first mismatch comes at
    a breakpoint where alpha's value is new and sqrt2's is carried over.
    """
    alpha = CFExpansion(0, (1,) * 6, (1, 2))  # q = 1, 1, 2, 3, 5, 8, 13, 21, 55
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")  # q = 1, 2, 5, 12, 29
    corrupt_tail(monkeypatch, (1, 2), 1)
    assert [e.t for e in breakpoint_profile(alpha, sqrt2, 9, 12).entries] == [9, 12]
    with pytest.raises(FormMismatchError, match="t=13"):
        breakpoint_profile(alpha, sqrt2, 9, 13)


def test_witness_search_cross_checks(monkeypatch):
    alpha = CFExpansion(0, (1,) * 6, (1, 2))
    tau = CFExpansion(1, (), (1,))
    assert find_witness(alpha, tau, 9, 10**6).t == 21  # past the first corrupted bracket
    corrupt_tail(monkeypatch, (1, 2), 1)
    with pytest.raises(FormMismatchError, match="t=13"):
        find_witness(alpha, tau, 9, 10**6)


def test_near_optimality_check_cross_checks(monkeypatch):
    pair = construct_optimal(Fraction(6, 100))
    corrupt_tail(monkeypatch, pair.theta.period, 0)
    with pytest.raises(FormMismatchError):
        verify_near_optimality(pair, 10**6, 10**12)
