"""Value semantics of the immutable records built on ``exact.Record``.

A record equals only a record of its own class with equal fields, hashes like
its fields, refuses assignment, pickles and copies through its constructor
(a ``CFExpansion``'s memos are left behind), and prints through ``int_repr``.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from psidiff import (
    TAU,
    CFExpansion,
    Convergent,
    DValue,
    Letter,
    NearOptimalityReport,
    PsiValue,
    Witness,
    breakpoint_profile,
    construct_optimal,
    d_at,
    merged_word,
    parse_number,
    psi,
)
from psidiff.contfrac import convergent_state

SQRT2 = parse_number("surd:(0+sqrt(2))/1")
TAU_CF = parse_number("tau")


def filled_expansion() -> CFExpansion:
    cf = CFExpansion(0, [1, 3], [2, 1, 5])
    cf.value()
    convergent_state(cf, 200)  # builds the ladder and squares its powers
    return cf


def samples():
    return [
        filled_expansion(),
        d_at(SQRT2, TAU_CF, 10**6),
        construct_optimal(Fraction(1, 10)),
        breakpoint_profile(SQRT2, TAU_CF, 1, 100),
        psi(SQRT2, 1000),
        merged_word(SQRT2, TAU_CF, 5),
    ]


@pytest.mark.parametrize("record", samples(), ids=lambda r: type(r).__name__)
def test_equal_records_hash_alike(record):
    twin = copy.copy(record)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert record != object() and record != record.__reduce__()[1]


def test_memos_take_no_part_in_equality():
    fresh, filled = CFExpansion(0, (1, 3), (2, 1, 5)), filled_expansion()
    assert getattr(fresh, "_value", None) is None and filled._value is not None
    assert fresh == filled and hash(fresh) == hash(filled)
    assert repr(fresh) == repr(filled) == "CFExpansion(a0=0, preperiod=(1, 3), period=(2, 1, 5))"


def test_equality_is_per_class():
    x, y = TAU, TAU.inverse()
    assert PsiValue(1, 2, x, y).__reduce__()[1] == Letter(1, 2, x, y).__reduce__()[1]
    assert PsiValue(1, 2, x, y) != Letter(1, 2, x, y)
    assert not PsiValue(1, 2, x, y) == Letter(1, 2, x, y)
    assert Convergent(1, 2, 3) != CFExpansion(1, (2,), (3,))
    assert Convergent(1, 2, 3) == Convergent(1, 2, 3) != Convergent(1, 2, 4)


@pytest.mark.parametrize("record", samples(), ids=lambda r: type(r).__name__)
def test_assignment_raises(record):
    field = record._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


def test_memo_slots_cannot_be_assigned_from_outside():
    cf = filled_expansion()
    with pytest.raises(AttributeError, match="immutable"):
        cf._value = 0
    with pytest.raises(AttributeError, match="immutable"):
        cf._ladder = None


@pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_pickle_and_deepcopy_roundtrip(roundtrip):
    cf = filled_expansion()
    pair = construct_optimal(Fraction(1, 10))
    profile = breakpoint_profile(SQRT2, TAU_CF, 1, 10**6)
    for record in (cf, d_at(SQRT2, TAU_CF, 10**30), pair, profile):
        back = roundtrip(record)
        assert type(back) is type(record) and back == record and back is not record
        assert hash(back) == hash(record)
    back = roundtrip(cf)
    assert back.value() == cf.value()
    assert convergent_state(back, 200) == convergent_state(cf, 200)
    assert roundtrip(pair).theta.value() == pair.theta.value()


def test_constructor_arity_and_validation():
    with pytest.raises(TypeError):
        Witness(1)
    with pytest.raises(TypeError):
        DValue(TAU, TAU, 1)
    d = d_at(SQRT2, TAU_CF, 5)
    assert Witness(t=5, d_value=d) == Witness(5, d_value=d) == Witness(5, d)
    assert Letter("B", 0, value=1, s=1) == Letter("B", 0, 1, 1)
    assert DValue(inv_psi_beta=TAU, inv_psi_alpha=TAU, alpha_index=1, beta_index=2) == (
        DValue(TAU, TAU, 1, 2))
    for bad in ({"t": 5}, {"t": 5, "d_value": d, "x": 0}, {"d_value": d}):
        with pytest.raises(TypeError):
            Witness(**bad)
    with pytest.raises(TypeError):
        Witness(5, d, t=5)
    assert CFExpansion(1, [2], [3]).preperiod == (2,)
    with pytest.raises(ValueError):
        CFExpansion(1, (0,), (1,))
    with pytest.raises(ValueError):
        CFExpansion(1, (2, 1))


def test_small_reprs_are_unchanged():
    assert repr(breakpoint_profile(SQRT2, TAU_CF, 5, 5)) == (
        "BreakpointProfile(t_min=5, t_max=5, entries=(ProfileEntry(t=5, "
        "inv_psi_alpha=QuadExt(Fraction(7, 1), Fraction(5, 1), 2), "
        "inv_psi_beta=QuadExt(Fraction(11, 2), Fraction(5, 2), 5), "
        "d=DValue(inv_psi_beta=QuadExt(Fraction(11, 2), Fraction(5, 2), 5), "
        "inv_psi_alpha=QuadExt(Fraction(7, 1), Fraction(5, 1), 2), alpha_index=2, "
        "beta_index=4)),))"
    )
    assert repr(merged_word(SQRT2, TAU_CF, 2)) == (
        "MergedWord(letters=(Letter(kind='B', n=0, s=1, value=1), "
        "Letter(kind='B', n=1, s=2, value=2)))"
    )
    assert repr(construct_optimal(Fraction(1, 10))) == (
        "OptimalPair(epsilon=Fraction(1, 10), U=7, V=-3, "
        "A=QuadExt(Fraction(7, 2), Fraction(-13, 10), 5), k=4, w=1, b=(5,), "
        "theta=CFExpansion(a0=0, preperiod=(5,), period=(1,)), index_shift=3)"
    )


def test_fractions_past_the_int_to_str_limit():
    enclosure = repr(TAU.enclosure(20000))
    assert enclosure.startswith("Interval(Fraction(0x") and ", Fraction(0x" in enclosure
    report = NearOptimalityReport(TAU, 7, True, 1, 10, Fraction(1, 10**5000))
    assert repr(report).endswith(f", slack=Fraction(1, {10**5000:#x}))")
    assert repr(NearOptimalityReport(TAU, 7, True, 1, 10, Fraction(1, 3))).endswith(
        ", slack=Fraction(1, 3))")
