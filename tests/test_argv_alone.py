"""What the CLI prints is a function of its argv alone, whatever ran before it in the process.

A value's radicand is read off its own source: a surd's off its D, an expansion's off the
discriminant of the primitive form of its period's fixed point, which every number whose
expansion ends alike shares. So no radicand, root cache or memo left by an earlier call changes
what a later one prints: each argv here prints in one process, after others and in either
order, the bytes that a fresh interpreter prints for it. One field can still have two radicands
when one of them keeps the square of a prime above 10^4, as p*q and p^3*q do; each value then
prints its own.
"""

import contextlib
import functools
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psidiff import cli, contfrac, numspec
from psidiff.errors import IntegralSumOrDiffError
from psidiff.imf import check_pair

from test_cli import fresh
from test_golden import COMMANDS

P, Q = 10007, 10009  # primes past the trial-division table
TWINS = (10007, 10037, 10067, 10091, 10139)  # p, p + 2 prime: sqrt(p*(p + 2)) = [p; (1, 2p)]
PERIOD = (1000, 999, 998)
PERIOD_RADICAND = 994018964042970013  # of every expansion that ends in a rotation of PERIOD


def in_process(argv) -> tuple[int, str]:
    """(exit code, stdout) of ``cli.main`` in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@functools.cache
def fresh_output(argv: tuple[str, ...]) -> tuple[int, str]:
    """(exit code, stdout) of the same argv in a fresh interpreter, run once per argv."""
    proc = fresh(*argv)
    return proc.returncode, proc.stdout


def test_one_field_with_two_radicands_prints_each_its_own():
    """pq's argv, then p^3 q's, then pq's again: each in either order after the other prints
    its fresh bytes, the radicand its own spec names (a p^3 q argv takes about 1.5 s)."""
    near, far = (("psi", "--number", f"surd:(1+sqrt({n}))/2", "--t", "1000")
                 for n in (P * Q, P**3 * Q))
    outputs = [in_process(argv) for argv in (near, far, near)]
    assert outputs == [fresh_output(near), fresh_output(far), fresh_output(near)]
    assert f"\\u221a{P * Q}\"" in outputs[0][1] and f"\\u221a{P**3 * Q}\"" in outputs[1][1]


def cf_variant(rotation: int, reverse: bool, a0: int, preperiod: tuple[int, ...]) -> str:
    """The spec of [a0; preperiod, (PERIOD rotated, and reversed)]."""
    period = PERIOD[rotation:] + PERIOD[:rotation]
    period = period[::-1] if reverse else period
    terms = (*map(str, preperiod), f"({','.join(map(str, period))})")
    return f"cf:[{a0};{','.join(terms)}]"


numbers = st.one_of(
    st.sampled_from([f"surd:(0+sqrt({p * (p + 2)}))/1" for p in TWINS]),
    st.builds(cf_variant, st.integers(0, 2), st.booleans(), st.integers(-2, 3),
              st.lists(st.integers(1, 5), max_size=2).map(tuple)))
argvs = st.one_of(
    st.sampled_from(sorted(tuple(argv) for argv in COMMANDS.values())),
    st.builds(lambda x, t: ("psi", "--number", x, "--t", t),
              numbers, st.sampled_from(("1000", str(10**30)))),
    st.builds(lambda x, y: ("witness", "--alpha", x, "--beta", y, "--from", "4",
                            "--bound", "1000000"), numbers, numbers))


@settings(max_examples=20, deadline=None)
@given(st.lists(argvs, min_size=2, max_size=3))
def test_each_argv_prints_its_fresh_bytes_in_either_order(drawn):
    for argv in (*drawn, *reversed(drawn)):
        assert in_process(argv) == fresh_output(argv), argv


def test_an_expansion_takes_the_radicand_of_its_class():
    """Rotations, reversals and preperiods of one period, and 3 - x, share one radicand, so a
    pair with alpha + beta or alpha - beta in Z is refused and another is not."""
    specs = [cf_variant(r, rev, a0, pre) for r in range(3) for rev in (False, True)
             for a0, pre in ((0, ()), (3, (5,)), (-2, (1, 2)))]
    xs = [numspec.parse_number(spec) for spec in specs]
    mirror = contfrac.expand_quadratic(3 - xs[0].value())
    assert {x.value().D for x in (*xs, mirror)} == {PERIOD_RADICAND}
    shifted = numspec.parse_number(cf_variant(0, False, 7, ()))
    for beta in (mirror, shifted):  # x + (3 - x) = 3, and (7 + x) - x = 7
        with pytest.raises(IntegralSumOrDiffError):
            check_pair(xs[0], beta)
    check_pair(xs[0], xs[1])  # another number of the field
