"""The number-spec grammar shared by the CLI and the library surface.

Accepted forms:
  surd:(P+sqrt(D))/Q   integers P, D > 0 non-square, Q != 0
  cf:[a0;a1,...,ak,(c1,...,cm)]   period optional, rational if absent
  tau                  the golden ratio [1;(1)]
"""

from __future__ import annotations

import re
from fractions import Fraction

from .contfrac import TAU_CF, CFExpansion, expand_quadratic
from .exact import QuadExt, _read_decimal

_SURD_RE = re.compile(r"surd:\((-?\d+)\+sqrt\((\d+)\)\)/(-?\d+)\Z")
_CF_RE = re.compile(r"cf:\[(-?\d+)(?:;(.*))?\]\Z")


def parse_surd(spec: str) -> QuadExt:
    match = _SURD_RE.match(spec)
    if not match:
        raise ValueError(f"malformed surd spec {spec!r}; expected surd:(P+sqrt(D))/Q")
    p, d, q = map(_read_decimal, match.groups())
    if q == 0:
        raise ValueError("surd denominator Q must be nonzero")
    return QuadExt(Fraction(p, q), Fraction(1, q), d)


def _parse_terms(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if "(" in text:
        head, _, tail = text.partition("(")
        period_text = tail.rstrip()
        if not period_text.endswith(")") or ")" in period_text[:-1]:
            raise ValueError("malformed period in cf spec")
        head = head.removesuffix(",") if len(head) > 1 else head  # one comma before the period
        return (_read_terms(head) if head else ()), _read_terms(period_text[:-1])
    return _read_terms(text), ()


def _read_terms(text: str) -> tuple[int, ...]:
    terms = text.split(",")
    if not all(re.fullmatch(r"\s*[-+]?\d+\s*", term) for term in terms):
        raise ValueError(f"{'malformed' if all(map(str.strip, terms)) else 'empty'} term in cf "
                         "spec; expected integers, as in 'cf:[a0;a1,...,(c1,...)]'")
    return tuple(map(_read_decimal, terms))


def parse_number(spec: str) -> CFExpansion:
    """Parse any number spec to its continued-fraction expansion."""
    if spec == "tau":
        return TAU_CF
    if spec.startswith("surd:"):
        return expand_quadratic(parse_surd(spec))
    match = _CF_RE.match(spec)
    if not match:
        raise ValueError(
            f"unrecognized number spec {spec!r}; expected 'tau', 'surd:(P+sqrt(D))/Q' "
            "or 'cf:[a0;a1,...,(c1,...)]'"
        )
    a0 = _read_decimal(match.group(1))
    rest = match.group(2)
    if rest is None:
        return CFExpansion(a0)
    pre, period = _parse_terms(rest)
    return CFExpansion(a0, pre, period)
