"""Command-line front end with deterministic, machine-readable output.

Exit codes: 0 success, 1 domain error (bad input, precondition failure),
2 a sign the program could not decide: d(t) is exactly zero where a sign change
is asked for. The witness test |d(t)| vs C*t refines to a precision computed
from its inputs, and every decimal is exact at any ``--digits``. Errors print as
JSON objects with a machine-readable ``code``.

Each command imports ``numspec``, ``imf`` and ``theorems`` only if it runs
them, so a call loads no module that its command does not use.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Callable

from .errors import PsidiffError, UndecidedSignError
from .exact import _STR_BITS, PHI, SQRT_TAU, TAU, C, _format_scaled, _read_decimal, render_decimal

# Fraction's own grammar less digit separators, n/d or a decimal with an exponent; ``re``
# compiles it on first use, so a command that reads no fraction does not pay for it
_RATIONAL = r"\s*([-+]?)(?=\d|\.\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE]([-+]?\d+))?)\s*"


def _parse(*texts: str) -> list:
    """The numbers the texts spell, loading ``numspec`` only for a command that reads one."""
    from .numspec import parse_number

    return [parse_number(text) for text in texts]


def _fraction(text: str) -> Fraction:
    """Fraction(text), its runs of digits read by ``_read_decimal``, so also past CPython's
    int-to-str limit; a text outside ``_RATIONAL`` goes to ``Fraction`` as it is."""
    match = re.fullmatch(_RATIONAL, text)
    if match is None:
        return Fraction(text)
    sign, whole, den, frac, exp = match.groups()
    if den is not None:
        n, d = _read_decimal(whole), _read_decimal(den)
        if not d:  # Fraction's own message prints n, which raises past the int-to-str limit
            raise ZeroDivisionError(f"zero denominator in {text!r}")
    else:
        frac, e = frac or "", int(exp or 0)
        n, d = _read_decimal(whole + frac) * 10 ** max(e, 0), 10 ** (len(frac) + max(-e, 0))
    return Fraction(-n if sign == "-" else n, d)


def _integer(read: Callable[[str], int]) -> Callable[[str], int]:
    """An argparse type that reads with ``read``, named for "invalid integer value: 'x'".

    t, --from and --bound are of any length (``_read_decimal``); ``int`` refuses a count,
    depth or digit count past 4300 digits, which would start a run that never ends.
    """
    def integer(text: str) -> int:
        return read(text)
    return integer


def cmd_constants(args: argparse.Namespace) -> dict:
    d = args.digits
    return {
        "tau": render_decimal(TAU, d),
        "phi": render_decimal(PHI, d),
        "K": render_decimal(SQRT_TAU - 1, d),
        "C": render_decimal(C, d),
        "2C+1": render_decimal(C * 2 + 1, d),
    }


def cmd_expand(args: argparse.Namespace) -> dict:
    cf, = _parse(args.number)
    return {
        "number": args.number,
        "expansion": str(cf),
        "a0": cf.a0,
        "preperiod": list(cf.preperiod),
        "period": list(cf.period),
    }


def cmd_psi(args: argparse.Namespace) -> dict:
    from . import imf
    cf, = _parse(args.number)
    value = imf.psi(cf, args.t)
    return {
        "number": args.number,
        "t": args.t,
        "index": value.index,
        "q": value.q,
        "psi": render_decimal(value.value, args.digits),
        "inv_psi": render_decimal(value.inv_value, args.digits),
        "psi_exact": str(value.value),
        "inv_psi_exact": str(value.inv_value),
    }


def cmd_profile(args: argparse.Namespace) -> dict | str:
    from . import imf
    alpha, beta = _parse(args.alpha, args.beta)
    profile = imf.breakpoint_profile(alpha, beta, args.from_t, args.bound)
    if args.output == "csv":
        return imf.profile_to_csv(profile, args.digits)
    return {
        "alpha": args.alpha,
        "beta": args.beta,
        "t_min": profile.t_min,
        "t_max": profile.t_max,
        "entries": [
            {"t": t, "inv_psi_alpha": inv_a, "inv_psi_beta": inv_b, "d": d_text}
            for t, inv_a, inv_b, d_text in imf._rendered_rows(profile, args.digits)
        ],
        "sign_changes": imf.sign_changes(profile),
    }


def cmd_witness(args: argparse.Namespace) -> dict:
    from . import theorems
    alpha, beta = _parse(args.alpha, args.beta)
    witness = theorems.find_witness(alpha, beta, args.from_t, args.bound)
    payload = witness.to_json(args.digits)
    payload["parameters"] = {"alpha": args.alpha, "beta": args.beta,
                             "from": args.from_t, "bound": args.bound}
    return payload


def cmd_word(args: argparse.Namespace) -> dict:
    from . import imf
    alpha, beta = _parse(args.alpha, args.beta)
    word = imf.merged_word(alpha, beta, args.count)
    return {
        "alpha": args.alpha,
        "beta": args.beta,
        "count": args.count,
        "word": ",".join(letter.kind for letter in word.letters),
        "letters": [
            {"kind": letter.kind, "n": letter.n, "s": letter.s, "value": letter.value}
            for letter in word.letters
        ],
    }


def cmd_lemmas(args: argparse.Namespace) -> dict:
    from . import theorems
    alpha, beta = _parse(args.alpha, args.beta)
    depth = args.max_depth
    return {
        "alpha": args.alpha,
        "beta": args.beta,
        "depth": depth,
        "conseq": [list(pair) for pair in theorems.scan_lemma_conseq(alpha, beta, depth)],
        "conseq1": [list(pair) for pair in theorems.scan_lemma_conseq1(alpha, beta, depth)],
        "interleave_gap": [
            cert.to_json(args.digits)
            for cert in theorems.scan_interleave_gap(alpha, beta, depth)
        ],
        "dichotomy": [
            record.to_json(args.digits)
            for record in theorems.scan_dichotomy(alpha, beta, depth)
        ],
    }


def cmd_construct_optimal(args: argparse.Namespace) -> dict:
    from . import theorems

    pair = theorems.construct_optimal(_fraction(args.epsilon))
    return pair.to_json(args.digits)


def cmd_verify_optimal(args: argparse.Namespace) -> dict:
    from . import theorems

    pair = theorems.construct_optimal(_fraction(args.epsilon))
    slack = _fraction(args.slack) if args.slack is not None else None
    report = theorems.verify_near_optimality(pair, args.from_t, args.bound, slack)
    return {"pair": pair.to_json(args.digits), "report": report.to_json(args.digits)}


class _Parser(argparse.ArgumentParser):
    """A usage error reaches ``main`` as a ValueError, to print as JSON like any other error;
    the usage line still goes to stderr."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The ``psidiff`` parser: each flag is declared once, on a parent parser (``--digits``,
    ``--number``, ``--alpha``/``--beta``, ``--epsilon``) or on the one command that reads it,
    and ``command`` adds a subcommand with its ``--from``/``--bound`` defaults and its ``func``."""
    parser = _Parser(
        prog="psidiff",
        description="Exact irrationality-measure computations for quadratic irrationals.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--digits", type=_integer(int), default=12, help="decimal digits in output")
    numbered, paired, epsilon = (_Parser(add_help=False, parents=[common]) for _ in range(3))
    numbered.add_argument("--number", required=True)
    paired.add_argument("--alpha", required=True)
    paired.add_argument("--beta", required=True)
    epsilon.add_argument("--epsilon", required=True)
    sub = parser.add_subparsers(dest="command", required=True)
    big = _integer(_read_decimal)

    def command(name: str, parent: argparse.ArgumentParser, func: Callable, help: str,
                span: tuple[int, int] | None = None) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[parent], help=help)
        if span:
            p.add_argument("--from", dest="from_t", type=big, default=span[0])
            p.add_argument("--bound", type=big, default=span[1])
        p.set_defaults(func=func)
        return p

    command("constants", common, cmd_constants, "render tau, phi, K, C")
    command("expand", numbered, cmd_expand, "continued-fraction expansion")
    p = command("psi", numbered, cmd_psi, "psi and 1/psi at an integer t")
    p.add_argument("--t", type=big, required=True)
    p = command("profile", paired, cmd_profile, "breakpoint profile of d(t)", (1, 1000))
    p.add_argument("--output", choices=("json", "csv"), default="csv")
    command("witness", paired, cmd_witness, "find t with |d(t)| >= C t", (1, 10**12))
    p = command("word", paired, cmd_word, "merged word over {B, Q, T}")
    p.add_argument("--count", type=_integer(int), default=20)
    p = command("lemmas", paired, cmd_lemmas, "coincidence and gap scans")
    p.add_argument("--max-depth", type=_integer(int), default=200)
    command("construct-optimal", epsilon, cmd_construct_optimal,
            "build the near-optimal companion of tau")
    p = command("verify-optimal", epsilon, cmd_verify_optimal,
                "verify |d| <= (C+slack) t over a range", (10**6, 10**12))
    p.add_argument("--slack", default=None)
    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """``--number -tau`` as ``--number=-tau``: argparse takes ``-tau`` for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--slack", "--epsilon", "--number", "--alpha", "--beta"):
            arg = f"{out.pop()}={arg}"
        out.append(arg)
    return out


def _json(payload: object) -> str:
    """``json.dumps(payload, indent=2)``, but each int past ``_STR_BITS`` is printed by
    ``_format_scaled``, since json's int.__repr__ stops at CPython's int-to-str limit."""
    big: list[int] = []

    def swap(x: object) -> object:
        if isinstance(x, (dict, list, tuple)):
            return {k: swap(v) for k, v in x.items()} if isinstance(x, dict) else [*map(swap, x)]
        if type(x) is int and x.bit_length() > _STR_BITS:
            big.append(x)
            return "\0"  # json prints it as "\u0000", which no argument can hold
        return x

    parts = json.dumps(swap(payload), indent=2).split('"\\u0000"')
    return "".join(p + _format_scaled(n, 0) for p, n in zip(parts, big)) + parts[-1]


def main(argv: list[str] | None = None) -> int:
    status = 0
    try:
        args = build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
        if args.digits < 1:
            raise ValueError("--digits must be >= 1")
        payload = args.func(args)
    except SystemExit as exc:  # --help, which has printed
        return 0 if not exc.code else 1
    except (PsidiffError, ValueError, ZeroDivisionError) as exc:
        payload = {"error": {"code": getattr(exc, "code", "invalid_input"), "message": str(exc)}}
        status = 2 if isinstance(exc, UndecidedSignError) else 1
    sys.stdout.write(payload if isinstance(payload, str) else _json(payload) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
