"""The CLI contract over generated arguments, not only fixed examples.

One fuzzer reads ``cli.build_parser()``: it draws any of its commands, and each option of
that command by its kind, so a new command or option is fuzzed as soon as it is declared.
Number specs come from ``number_specs``, integer options from ``integer_texts`` (up to
10**30 for ``--t``, ``--from`` and ``--bound``, which read any length, and up to 200 for
counts, depths and digits), ``--epsilon`` and ``--slack`` from ``rationals`` and
``--output`` from its choices. Half the argvs may hold junk (an integer option as a decimal,
an exponent or junk, a choice as junk, a spec mutated); in the other half every text is well
formed, so most of them reach the command, ``profile`` and ``lemmas`` on generated specs
included. Whatever the argv, ``cli.main`` returns 0, 1 or 2 without raising, prints one JSON
document (or a ``profile`` CSV), names only error codes that ``errors.py`` defines or
``invalid_input``, exits 2 only with ``undecided_sign``, names no Python function in an
error message (outside the arguments it quotes back), and prints the same bytes for the
same argv.

Narrower fuzzers cover what the general one reaches too rarely. ``construct-optimal`` and
``verify-optimal`` read ``--epsilon`` and ``--slack`` as n/d, as decimals and with
exponents, and ``--from`` and ``--bound`` as integers and at times as fractions, which they
refuse, each at times a literal past CPython's 4300-digit int-to-str limit; an epsilon in
(0, 1) always gets a pair or ``search_exhausted``. ``expand``, ``psi`` and ``word`` read
generated number specs: surds with D below 10**6 (D = k*k +- 1, D with a square factor) and
Q of either sign, cf expansions with quotients up to 10**40 and preperiods up to 50 long,
and either kind mutated into a malformed spec (a bracket gone, an empty term, a sign in the
wrong place). ``witness`` reads two such specs, unmutated, with ``--from`` and ``--bound``
up to 10**30: it finds a witness or exits 1 with a typed code, and never exits 2, since its
precision comes from a root-separation bound and not from a cap.
"""

import contextlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psidiff import cli, errors

from _oracles import scaled_int

CODES = {cls.code for cls in vars(errors).values()
         if isinstance(cls, type) and issubclass(cls, errors.PsidiffError)} | {"invalid_input"}
LONG = "0.001" + "0" * 5000 + "1"  # just above 1/1000, with 5004 places
# a name with a leading underscore, a call, or argparse's "invalid <type> value" for a
# type other than the integer grammar
PYTHON_NAME = re.compile(r"\b_\w|\w\(\)|invalid (?!integer )\w+ value")
EXACT_ZERO = ("cf:[0;(1,2)]", "cf:[0;2,(1,2)]")  # d(t) = 0 at t = 2 and 8: exit 2 allowed
SPECS = ("tau", "surd:(0+sqrt(2))/1", "surd:(1+sqrt(3))/2", "cf:[1;2,(3)]", *EXACT_ZERO)
JUNK = ("", "x", "-", "1/2", "0x10", "1e", "++3", "nan", "1 000", "½")


@st.composite
def naturals(draw, long_ok=True):
    """(text, value) of an integer >= 0: small, a power of ten give or take, or with a few
    leading digits and zeros past 4300 digits."""
    lead = draw(st.integers(0, 10**6))
    zeros = draw(st.sampled_from((0, 0, 1, 3, 12, 40) + ((4400, 5000) if long_ok else ())))
    return f"{lead}{'0' * zeros}", lead * 10**zeros


@st.composite
def rationals(draw):
    """(text, value) in one of the three forms ``_fraction`` reads; value is None for n/0."""
    sign = draw(st.sampled_from(("", "", "-", "+")))
    form = draw(st.sampled_from(("ratio", "decimal", "exponent")))
    if form == "ratio":
        (n_text, n), (d_text, d) = draw(naturals()), draw(naturals())
        text, value = f"{n_text}/{d_text}", Fraction(n, d) if d else None
    elif form == "decimal":
        whole = draw(st.sampled_from(("0", "", "1", "12")))
        zeros, (m_text, m) = draw(st.sampled_from((0, 2, 8, 4400))), draw(naturals(long_ok=False))
        places = zeros + len(m_text)
        text = f"{whole}.{'0' * zeros}{m_text}"
        value = int(whole or 0) + Fraction(m, 10**places)
    else:
        (m_text, m), e = draw(naturals(long_ok=False)), draw(st.integers(-5000, 40))
        text, value = f"{m_text}e{e}", m * Fraction(10) ** e
    return sign + text, (-value if sign == "-" and value is not None else value)


@st.composite
def ranges(draw):
    """``--from`` and ``--bound`` texts: each absent, an integer (small, a power of ten, or
    past 4300 digits, with a bound at most 10**25 times the start when both are long), or
    at times a fraction, which these integer options refuse."""
    argv = []
    from_text, _ = draw(naturals())
    if draw(st.booleans()):
        argv += ["--from", draw(st.sampled_from(("", "-"))) + from_text]
    choice = draw(st.sampled_from(("absent", "scaled", "short", "fraction")))
    if choice == "scaled":
        argv += ["--bound", from_text + "0" * draw(st.integers(0, 25))]
    elif choice == "short":
        argv += ["--bound", draw(naturals(long_ok=False))[0]]
    elif choice == "fraction":
        argv += [draw(st.sampled_from(("--from", "--bound"))), draw(rationals())[0]]
    return argv


@st.composite
def optimal_argv(draw):
    command = draw(st.sampled_from(("construct-optimal", "verify-optimal")))
    epsilon, value = draw(rationals())
    argv = [command, "--epsilon", epsilon]
    if command == "verify-optimal":
        argv += draw(ranges())
        if draw(st.booleans()):
            argv += ["--slack", draw(rationals())[0]]
    # the value stays inside: repr of a Fraction past 4300 digits raises
    return argv, value is not None and 0 < value < 1


@st.composite
def integer_texts(draw, top, junk=True):
    """An integer flag's text: an integer in [-2, top], or with ``junk`` also a decimal, an
    exponent, or junk."""
    forms = ("integer", "decimal", "exponent", "junk") if junk else ("integer",)
    form = draw(st.sampled_from(forms))
    if form == "integer":
        return str(draw(st.integers(-2, top)))
    if form == "decimal":
        return f"{draw(st.integers(0, top))}.{draw(st.integers(0, 99))}"
    if form == "exponent":
        return f"{draw(st.integers(1, 9))}e{draw(st.integers(0, len(str(top)) - 1))}"
    return draw(st.sampled_from(JUNK))


@st.composite
def surd_specs(draw):
    """surd:(P+sqrt(D))/Q with D below 10**6 (any D, k*k +- 1, or one with a square factor)
    and Q of either sign, zero at times. |Q| stays small: unless Q divides D - P*P, the
    discriminant and with it the period grow with Q*Q."""
    form = draw(st.sampled_from(("any", "near_square", "square_factor")))
    if form == "near_square":
        k = draw(st.integers(1, 999))
        D = k * k + draw(st.sampled_from((-1, 1)))
    elif form == "square_factor":
        D = draw(st.integers(2, 30)) ** 2 * draw(st.integers(1, 1100))
    else:
        D = draw(st.integers(0, 10**6 - 1))
    return f"surd:({draw(st.integers(-10**6, 10**6))}+sqrt({D}))/{draw(st.integers(-30, 30))}"


@st.composite
def cf_specs(draw):
    """cf:[a0;preperiod,(period)] with quotients up to 10**40, a preperiod up to 50 long and a
    period up to 4 long, absent at times (a rational, which may end in a 1)."""
    quotient = st.integers(1, 9) | st.integers(1, 10**40)
    a0 = draw(st.integers(-3, 3) | st.integers(-10**40, 10**40))
    pre, period = (",".join(map(str, draw(st.lists(quotient, max_size=size)))) for size in (50, 4))
    body = ",".join(filter(None, (pre, period and f"({period})")))
    return f"cf:[{a0};{body}]" if body else f"cf:[{a0}]"


MUTATIONS = ("", "", "-", "+", ",", ";", "(", ")", "[", "]")  # "" deletes


@st.composite
def number_specs(draw, mutate=True):
    """A generated surd or cf spec or one of the fixed list, with ``mutate`` half of them
    mutated: up to two characters replaced by a sign, a separator, a bracket or nothing, or
    one inserted."""
    spec = draw(surd_specs() | cf_specs() | st.sampled_from(SPECS))
    if mutate and draw(st.booleans()):
        i = draw(st.integers(0, len(spec)))
        j = draw(st.integers(i, min(i + 2, len(spec))))
        spec = spec[:i] + draw(st.sampled_from(MUTATIONS)) + spec[j:]
    return spec


PARSER = cli.build_parser()
COMMANDS = next(a for a in PARSER._actions if a.dest == "command").choices  # name -> parser


def options(parser) -> list:
    """The options of one command that take a value, in the parser's order (--help left out)."""
    return [action for action in parser._actions if action.option_strings and action.nargs != 0]


def unbounded(action) -> bool:
    """Whether an integer option reads any length, as --t, --from and --bound do."""
    try:
        action.type("1" + "0" * 5000)
    except ValueError:
        return False
    return True


RATIONAL = {"--epsilon", "--slack"}  # a free-text option that is no rational is a number spec


def option_text(action, junk: bool):
    """A strategy for one option's text, by its kind: a choice, an integer text (up to 10**30
    for an option of any length, else 200), a rational, or a number spec; with ``junk``, a
    choice may be junk, an integer text any form, and a spec mutated."""
    if action.choices is not None:
        return st.sampled_from(action.choices) | st.sampled_from(JUNK if junk else action.choices)
    if action.type is not None:
        return integer_texts(10**30 if unbounded(action) else 200, junk)
    if action.option_strings[0] in RATIONAL:
        return rationals().map(lambda pair: pair[0])
    return number_specs(mutate=junk)


@st.composite
def command_argv(draw):
    """Any command of ``cli.build_parser()``, each required option drawn and each other one
    absent or drawn, by its kind. Half the argvs may hold junk; in the other half every
    integer is an integer, every choice a choice and every spec unmutated, so that most of
    them reach the command."""
    command, junk = draw(st.sampled_from(sorted(COMMANDS))), draw(st.booleans())
    argv = [command]
    for action in options(COMMANDS[command]):
        if action.required or draw(st.booleans()):
            argv += [action.option_strings[0], draw(option_text(action, junk))]
    return argv


@st.composite
def spec_argv(draw):
    """expand, psi or word on generated number specs."""
    command = draw(st.sampled_from(("expand", "psi", "word")))
    if command == "word":
        argv = [command, "--alpha", draw(number_specs()), "--beta", draw(number_specs()),
                "--count", str(draw(st.integers(1, 60)))]
    else:
        argv = [command, "--number", draw(number_specs())]
    if command == "psi":
        argv += ["--t", str(draw(st.integers(1, 10**3) | st.integers(1, 10**30)))]
    return argv


@st.composite
def witness_argv(draw):
    """witness on two generated surd or cf specs, ``--from`` and ``--bound`` each absent or
    drawn up to 10**30."""
    argv = ["witness", "--alpha", draw(surd_specs() | cf_specs()),
            "--beta", draw(surd_specs() | cf_specs())]
    for flag in ("--from", "--bound"):
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(1, 10**3) | st.integers(1, 10**30)))]
    return argv


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def assert_contract(argv: list[str]) -> tuple[int, dict | None]:
    """(exit code, JSON error or None) of one argv, with the contract checked."""
    code, out = run(argv)
    assert code in (0, 1, 2)
    assert run(argv) == (code, out)
    if code == 0 and argv[0] == "profile" and "json" not in argv:
        return code, None  # a CSV
    payload = json.loads(out, parse_int=scaled_int)
    error = payload.get("error") if isinstance(payload, dict) else None
    if code == 0:
        assert error is None
    else:
        assert error is not None and set(error) == {"code", "message"}
        assert error["code"] in CODES
        assert (code == 2) == (error["code"] == "undecided_sign")
        # an argument the message quotes back is the user's text, not a name of the program's
        own_words = error["message"]
        for arg in argv:
            own_words = own_words.replace(repr(arg), "''")
        assert not PYTHON_NAME.search(own_words), error
    return code, error


@settings(max_examples=40, deadline=None)
@given(optimal_argv())
@example((["construct-optimal", "--epsilon", LONG], True))
@example((["verify-optimal", "--epsilon", LONG, "--slack", "-1e-4400"], True))
@example((["construct-optimal", "--epsilon", "1e-5000"], True))
@example((["verify-optimal", "--epsilon", "0.06", "--from", "1e5"], False))
@example((["construct-optimal", "--epsilon", "1" + "0" * 4400 + "/0"], False))
def test_optimal_pair_commands_keep_the_contract(case):
    argv, epsilon_in_unit = case
    code, error = assert_contract(argv)
    if argv[0] == "construct-optimal" and epsilon_in_unit:
        assert code == 0 or error["code"] == "search_exhausted", error


@settings(max_examples=200, deadline=None)
@given(command_argv())
@example(["psi", "--number", "tau", "--t", "12.5"])
@example(["word", "--alpha", "tau", "--beta", "cf:[1;2,(3)]", "--count", "1e3"])
@example(["profile", "--alpha", EXACT_ZERO[0], "--beta", EXACT_ZERO[1], "--output", "json"])
@example(["profile", "--alpha", EXACT_ZERO[0], "--beta", EXACT_ZERO[1], "--output", "xml"])
@example(["profile", "--alpha", EXACT_ZERO[0], "--beta", EXACT_ZERO[1], "--from", "3",
          "--bound", "7", "--output", "json"])  # no zero step in range: exit 0
@example(["lemmas", "--alpha", "tau", "--beta", "cf:[1;2,(3)]", "--max-depth", "x",
          "--digits", "2.5"])
@example(["lemmas", "--alpha", EXACT_ZERO[0], "--beta", EXACT_ZERO[1], "--max-depth", "200"])
@example(["constants", "--digits", "200"])
def test_every_command_keeps_the_contract(argv):
    assert_contract(argv)


def test_attach_values_lists_every_free_text_option():
    """A spec or a rational may begin with "-"; every option read as free text (no type, no
    choices) must be attached to its value, or argparse takes that value for an option."""
    found = {action.option_strings[0]: action for parser in COMMANDS.values()
             for action in options(parser)}
    attached = {flag for flag in found if cli._attach_values([flag, "-x"]) == [f"{flag}=-x"]}
    assert attached == {flag for flag, action in found.items()
                        if action.type is None and action.choices is None}


@settings(max_examples=80, deadline=None)
@given(spec_argv())
@example(["expand", "--number", "surd:(3+sqrt(24))/-5"])  # D = 5*5 - 1, Q < 0
@example(["psi", "--number", "surd:(0+sqrt(72))/1", "--t", "10"])  # 72 = 6*6*2
@example(["expand", "--number", "cf:[1;2,+]"])  # a sign where a quotient should be
@example(["expand", "--number", "cf:[1;2;3]"])
@example(["word", "--alpha", "cf:[1;2,(3]", "--beta", "tau", "--count", "5"])
@example(["psi", "--number", "cf:[0;" + ",".join([str(10**40)] * 50) + ",(7)]", "--t", "5"])
@example(["expand", "--number", "cf:[0;1,,(2)]"])  # an empty term before the period
@example(["expand", "--number", "cf:[0;,(2)]"])
def test_number_specs_keep_the_contract(argv):
    assert_contract(argv)


@settings(max_examples=60, deadline=None)
@given(witness_argv())
@example(["witness", "--alpha", EXACT_ZERO[0], "--beta", EXACT_ZERO[1], "--bound", str(10**30)])
@example(["witness", "--alpha", "surd:(0+sqrt(2))/1", "--beta", "surd:(1+sqrt(8))/3",
          "--bound", str(10**30)])  # one field: |d(t)|/t = (1+sqrt(2))/2 exactly
def test_witness_keeps_the_contract(argv):
    code, error = assert_contract(argv)
    assert code != 2, error
    if code == 0:
        payload = json.loads(run(argv)[1], parse_int=scaled_int)
        assert (payload["kind"], payload["verdict"]) == ("witness", "greater")


@pytest.mark.parametrize("spec, expansion", [
    ("cf:[0;1,,(2)]", None), ("cf:[0;,(2)]", None),
    ("cf:[0;1,(2)]", "[0;1,(2)]"), ("cf:[0;(2)]", "[0;(2)]"),
])
def test_one_comma_separates_the_period(spec, expansion):
    """Only the one comma before the period is a separator; any other is an empty term."""
    code, error = assert_contract(["expand", "--number", spec])
    if expansion is None:
        assert code == 1 and error["message"].startswith("empty term in cf spec"), error
    else:
        payload = json.loads(run(["expand", "--number", spec])[1])
        assert code == 0 and payload["expansion"] == expansion
