"""Only ``exact`` knows how a quadratic number is stored.

``QuadExt`` holds (A + B*sqrt(D))/Q as integers, and code elsewhere reads
``A``, ``B``, ``Q`` directly. Rebuilding that form from the rational views,
through ``.a.numerator``, ``.a.denominator``, ``.b.numerator`` or
``.b.denominator``, is a second representation kept by hand.

``Interval`` likewise holds its ends as integers ``lo_n``, ``hi_n`` over a
shared ``den``; code outside ``exact`` reads the ``.lo``/``.hi`` views.
"""

import ast
import pathlib

import psidiff

SOURCES = sorted(pathlib.Path(psidiff.__file__).parent.glob("*.py"))
PARTS = {"numerator", "denominator"}


class _RationalViewReads(ast.NodeVisitor):
    """Collects (innermost function, line) of each ``<expr>.a|b.numerator|denominator``."""

    def __init__(self):
        self.functions = ["<module>"]
        self.found: list[tuple[str, int]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        inner = node.value
        if node.attr in PARTS and isinstance(inner, ast.Attribute) and inner.attr in ("a", "b"):
            self.found.append((self.functions[-1], node.lineno))
        self.generic_visit(node)


def rational_view_reads(source: str) -> list[tuple[str, int]]:
    visitor = _RationalViewReads()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_one_module_knows_the_representation():
    offenders = [
        f"{path.stem}.{func} (line {line})"
        for path in SOURCES
        if path.name != "exact.py"
        for func, line in rational_view_reads(path.read_text())
    ]
    assert not offenders, f"integer form rebuilt outside exact: {', '.join(offenders)}"


def test_guard_sees_each_form():
    source = (
        "def f(x, y):\n"
        "    q = x.a.denominator * x.b.denominator\n"
        "    return x.a.numerator + y.b.numerator + x.A + x.b + x.numerator\n"
        "def g(x):\n"
        "    return x.Q, x.a\n"
    )
    assert rational_view_reads(source) == [("f", 2), ("f", 2), ("f", 3), ("f", 3)]


INTERVAL_FIELDS = {"lo_n", "hi_n", "den"}


def interval_field_reads(source: str) -> list[tuple[str, int]]:
    """(attribute, line) of each ``<expr>.lo_n|hi_n|den`` in ``source``."""
    return [(node.attr, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in INTERVAL_FIELDS]


def test_one_module_knows_how_an_interval_is_stored():
    offenders = [
        f"{path.stem}.{attr} (line {line})"
        for path in SOURCES
        if path.name != "exact.py"
        for attr, line in interval_field_reads(path.read_text())
    ]
    assert not offenders, f"Interval fields read outside exact: {', '.join(offenders)}"


def test_interval_guard_sees_each_field():
    source = ("def f(enc):\n"
              "    return enc.lo_n * enc.den, enc.hi_n, enc.lo, enc.hi, enc.denominator\n")
    assert sorted(interval_field_reads(source)) == [("den", 2), ("hi_n", 2), ("lo_n", 2)]
