"""Command-line front end with deterministic, machine-readable output.

Exit codes: 0 success, 1 domain error (bad input, precondition failure),
2 the precision cap was reached: by a decimal rendering, or by the witness
test |d(t)| vs C*t, the one decision that refines. Errors print as JSON
objects with a machine-readable ``code``.

Each command imports ``numspec``, ``imf`` and ``theorems`` only if it runs
them, so a call loads no module that its command does not use.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import PsidiffError, UndecidedSignError
from .exact import PHI, TAU, c_enclosure, render_decimal, sqrt_tau_enclosure


def cmd_constants(args: argparse.Namespace) -> dict:
    d, cap = args.digits, args.precision_cap_bits
    return {
        "tau": render_decimal(TAU, d, cap),
        "phi": render_decimal(PHI, d, cap),
        "K": render_decimal(lambda bits: sqrt_tau_enclosure(bits) - 1, d, cap),
        "C": render_decimal(c_enclosure, d, cap),
        "2C+1": render_decimal(lambda bits: c_enclosure(bits) * 2 + 1, d, cap),
    }


def cmd_expand(args: argparse.Namespace) -> dict:
    from .numspec import parse_number

    cf = parse_number(args.number)
    return {
        "number": args.number,
        "expansion": str(cf),
        "a0": cf.a0,
        "preperiod": list(cf.preperiod),
        "period": list(cf.period),
    }


def cmd_psi(args: argparse.Namespace) -> dict:
    from . import imf
    from .numspec import parse_number

    cf = parse_number(args.number)
    value = imf.psi(cf, args.t)
    return {
        "number": args.number,
        "t": args.t,
        "index": value.index,
        "q": value.q,
        "psi": render_decimal(value.value, args.digits, args.precision_cap_bits),
        "inv_psi": render_decimal(value.inv_value, args.digits, args.precision_cap_bits),
        "psi_exact": str(value.value),
        "inv_psi_exact": str(value.inv_value),
    }


def cmd_profile(args: argparse.Namespace) -> dict | str:
    from . import imf
    from .numspec import parse_number

    alpha = parse_number(args.alpha)
    beta = parse_number(args.beta)
    profile = imf.breakpoint_profile(alpha, beta, args.from_t, args.bound)
    d, cap = args.digits, args.precision_cap_bits
    if args.output == "csv":
        return imf.profile_to_csv(profile, d, cap)
    return {
        "alpha": args.alpha,
        "beta": args.beta,
        "t_min": profile.t_min,
        "t_max": profile.t_max,
        "entries": [
            {"t": t, "inv_psi_alpha": inv_a, "inv_psi_beta": inv_b, "d": d_text}
            for t, inv_a, inv_b, d_text in imf._rendered_rows(profile, d, cap)
        ],
        "sign_changes": imf.sign_changes(profile),
    }


def cmd_witness(args: argparse.Namespace) -> dict:
    from . import theorems
    from .numspec import parse_number

    alpha = parse_number(args.alpha)
    beta = parse_number(args.beta)
    witness = theorems.find_witness(alpha, beta, args.from_t, args.bound, args.precision_cap_bits)
    payload = witness.to_json(args.digits, args.precision_cap_bits)
    payload["parameters"] = {"alpha": args.alpha, "beta": args.beta,
                             "from": args.from_t, "bound": args.bound}
    return payload


def cmd_word(args: argparse.Namespace) -> dict:
    from . import imf
    from .numspec import parse_number

    alpha = parse_number(args.alpha)
    beta = parse_number(args.beta)
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
    from .numspec import parse_number

    alpha = parse_number(args.alpha)
    beta = parse_number(args.beta)
    depth, cap = args.max_depth, args.precision_cap_bits
    return {
        "alpha": args.alpha,
        "beta": args.beta,
        "depth": depth,
        "conseq": [list(pair) for pair in theorems.scan_lemma_conseq(alpha, beta, depth)],
        "conseq1": [list(pair) for pair in theorems.scan_lemma_conseq1(alpha, beta, depth)],
        "interleave_gap": [
            cert.to_json(args.digits, cap)
            for cert in theorems.scan_interleave_gap(alpha, beta, depth)
        ],
        "dichotomy": [
            record.to_json(args.digits, cap)
            for record in theorems.scan_dichotomy(alpha, beta, depth)
        ],
    }


def cmd_construct_optimal(args: argparse.Namespace) -> dict:
    from . import theorems

    pair = theorems.construct_optimal(Fraction(args.epsilon))
    return pair.to_json(args.digits, args.precision_cap_bits)


def cmd_verify_optimal(args: argparse.Namespace) -> dict:
    from . import theorems

    cap = args.precision_cap_bits
    pair = theorems.construct_optimal(Fraction(args.epsilon))
    slack = Fraction(args.slack) if args.slack is not None else None
    report = theorems.verify_near_optimality(pair, args.from_t, args.bound, slack)
    return {"pair": pair.to_json(args.digits, cap), "report": report.to_json(args.digits, cap)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psidiff",
        description="Exact irrationality-measure computations for quadratic irrationals.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=12, help="decimal digits in output")
    common.add_argument("--precision-cap-bits", type=int, default=4096,
                        help="precision cap for decimals and the |d| vs C*t witness test")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", parents=[common], help="render tau, phi, K, C")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("expand", parents=[common], help="continued-fraction expansion")
    p.add_argument("--number", required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("psi", parents=[common], help="psi and 1/psi at an integer t")
    p.add_argument("--number", required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("profile", parents=[common], help="breakpoint profile of d(t)")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--from", dest="from_t", type=int, default=1)
    p.add_argument("--bound", type=int, default=1000)
    p.add_argument("--output", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("witness", parents=[common], help="find t with |d(t)| >= C t")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--from", dest="from_t", type=int, default=1)
    p.add_argument("--bound", type=int, default=10**12)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("word", parents=[common], help="merged word over {B, Q, T}")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--count", type=int, default=20)
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("lemmas", parents=[common], help="coincidence and gap scans")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--max-depth", type=int, default=200)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("construct-optimal", parents=[common],
                       help="build the near-optimal companion of tau")
    p.add_argument("--epsilon", required=True)
    p.set_defaults(func=cmd_construct_optimal)

    p = sub.add_parser("verify-optimal", parents=[common],
                       help="verify |d| <= (C+slack) t over a range")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--from", dest="from_t", type=int, default=10**6)
    p.add_argument("--bound", type=int, default=10**12)
    p.add_argument("--slack", default=None)
    p.set_defaults(func=cmd_verify_optimal)

    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """``--slack -1/100`` as ``--slack=-1/100``: argparse takes -1/100 for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--slack", "--epsilon"):
            arg = f"{out.pop()}={arg}"
        out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        if args.digits < 1:
            raise ValueError("--digits must be >= 1")
        if args.precision_cap_bits < 64:
            raise ValueError("--precision-cap-bits must be >= 64")
        payload = args.func(args)
    except UndecidedSignError as exc:
        print(json.dumps({"error": {"code": exc.code, "message": str(exc)}}, indent=2))
        return 2
    except PsidiffError as exc:
        print(json.dumps({"error": {"code": exc.code, "message": str(exc)}}, indent=2))
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(json.dumps({"error": {"code": "invalid_input", "message": str(exc)}}, indent=2))
        return 1
    if isinstance(payload, str):
        sys.stdout.write(payload)
    else:
        print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
