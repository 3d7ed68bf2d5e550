"""Precision refinement has one loop, ``exact.refine_compare``, with one start and a cap it
never passes.

A bit count that doubles (``bits *= 2``, ``bits = min(2 * bits, cap)``,
``bits <<= 1``) anywhere else is a second, hand-written refinement loop.
``refine_compare`` takes two enclosure functions and has one caller in the
package, the witness test |d(t)| vs C*t, ``exact._exceeds_c_times``, which
``theorems.find_witness`` calls on each step and which passes it the cap
``exact._witness_bits`` computes from the step, where the enclosures always
separate. Every other decision is exact, and so is every printed decimal: no
output path mentions refinement, enclosures or the cap.
"""

import ast
import inspect
import pathlib

import pytest

import psidiff
from psidiff import cli, exact, imf, theorems
from psidiff.numspec import TAU_CF, parse_number

SOURCES = sorted(pathlib.Path(psidiff.__file__).parent.glob("*.py"))


def _atom(node: ast.AST):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant):
        return node.value
    return None


def _doubles(op: ast.operator, left: ast.AST, right: ast.AST, name: str) -> bool:
    if isinstance(op, ast.Mult):
        return {_atom(left), _atom(right)} == {name, 2}
    if isinstance(op, ast.LShift):
        return (_atom(left), _atom(right)) == (name, 1)
    return False


class _BitDoublings(ast.NodeVisitor):
    """Collects (innermost function, line) of each statement that doubles a *bits name."""

    def __init__(self):
        self.functions = ["<module>"]
        self.found: list[tuple[str, int]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name) and _doubles(node.op, target, node.value, target.id):
            self._note(target.id, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if any(
                isinstance(sub, ast.BinOp) and _doubles(sub.op, sub.left, sub.right, target.id)
                for sub in ast.walk(node.value)
            ):
                self._note(target.id, node)

    def _note(self, name: str, node: ast.stmt) -> None:
        if "bits" in name:
            self.found.append((self.functions[-1], node.lineno))


def bit_doublings(source: str) -> list[tuple[str, int]]:
    visitor = _BitDoublings()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_refine_is_the_only_bit_doubling_loop():
    found = [(path.name, func) for path in SOURCES for func, _ in bit_doublings(path.read_text())]
    assert found == [("exact.py", "refine_compare")], f"refinement loops: {found}"


def test_guard_sees_each_form():
    source = inspect.getsource(exact.refine_compare) + (
        "def f(bits):\n    bits *= 2\n    bits <<= 1\n    bits = bits * 2\n"
        "    scaled = 1 << (2 * bits)\n    length *= 2\n"
    )
    assert [func for func, _ in bit_doublings(source)] == ["refine_compare", "f", "f", "f"]


def test_find_witness_passes_its_cap(monkeypatch):
    caps, refine = [], exact.refine_compare

    def spy(lhs, rhs, cap_bits=None):
        caps.append(cap_bits)
        return refine(lhs, rhs, cap_bits)

    monkeypatch.setattr(exact, "refine_compare", spy)
    sqrt2 = parse_number("surd:(0+sqrt(2))/1")
    bounds = []
    for t in (10, 12):
        d = imf.d_at(sqrt2, TAU_CF, t)
        bounds.append(exact._witness_bits(d.inv_psi_beta, d.inv_psi_alpha, t))
    for cap_bits in (100, 1):  # unread
        assert theorems.find_witness(sqrt2, TAU_CF, 10, 10**6, cap_bits=cap_bits).t == 12
    assert caps == bounds * 2  # at t = 10 and at the witness t = 12
    assert all(64 < bound < 1000 for bound in bounds)


def test_refine_has_one_start():
    assert list(inspect.signature(exact.refine_compare).parameters) == ["lhs", "rhs", "cap_bits"]


@pytest.mark.parametrize("cap_bits", [16, 40, 64, 100, 300])
def test_refine_never_passes_the_cap(cap_bits):
    seen = []

    def lhs(bits):
        seen.append(bits)
        return exact.TAU.enclosure(bits)

    # the same value on both sides: the enclosures never separate
    assert exact.refine_compare(lhs, exact.TAU.enclosure, cap_bits) is exact.Comparison.UNDECIDED
    assert seen[0] == min(64, cap_bits) and max(seen) == seen[-1] == cap_bits
    assert all(b == min(2 * a, cap_bits) for a, b in zip(seen, seen[1:]))
    seen.clear()
    one = exact.Interval(1, 1)
    assert exact.refine_compare(lhs, lambda bits: one, cap_bits) is exact.Comparison.GREATER
    assert exact.refine_compare(lambda bits: one, lhs, cap_bits) is exact.Comparison.LESS
    assert seen == [min(64, cap_bits)] * 2  # settled at the first attempt


class _NameUses(ast.NodeVisitor):
    """Collects the scope (``Class.method``, ``function`` or ``<module>``) of each use of
    ``name``: by name, as an attribute, or imported under another name."""

    def __init__(self, name: str = "refine_compare"):
        self.name = name
        self.scopes: list[str] = []
        self.found: list[str] = []

    def _scoped(self, node: ast.AST) -> None:
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == self.name:
            self._note()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == self.name:
            self._note()
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if any(a.name == self.name and a.asname not in (None, a.name) for a in node.names):
            self._note()

    def _note(self) -> None:
        self.found.append(".".join(self.scopes) or "<module>")


def refine_compare_uses(source: str, name: str = "refine_compare") -> list[str]:
    visitor = _NameUses(name)
    visitor.visit(ast.parse(source))
    return visitor.found


def uses_in_package(name: str) -> list[str]:
    return [f"{path.name} in {scope}" for path in SOURCES
            for scope in refine_compare_uses(path.read_text(), name)]


def test_refinement_decides_only_the_witness_test():
    assert uses_in_package("refine_compare") == ["exact.py in _exceeds_c_times"]


EXACT_ONLY = {"_floor", "_sign", "_sign2", "refine_compare", "Comparison", "c_enclosure",
              "_witness_bits", "Interval"}


def names_in(source: str) -> set[str]:
    """Every name a module mentions: by name, as an attribute, or imported under any name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_decision_mechanics_are_named_only_in_exact():
    """How a verdict is reached, the level kernels, the refinement loop, its enclosures and its
    cap, is known to ``exact`` alone: other modules ask it for verdicts. ``DEFAULT_CAP_BITS``
    is not listed, as the commands keep an unread ``cap_bits`` that callers pass by position."""
    found = {path.name: sorted(names_in(path.read_text()) & EXACT_ONLY)
             for path in SOURCES if path.name != "exact.py"}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_exact_only_guard_sees_each_form():
    source = ("from .exact import _floor as floor\nfrom . import exact\n"
              "def f(x):\n    return exact.refine_compare(x, 0)\n"
              "def g(x) -> Interval:\n    return _sign2\n")
    assert names_in(source) & EXACT_ONLY == {"_floor", "refine_compare", "Interval", "_sign2"}


OUTPUT_PATHS = [exact.render_decimal, imf.DValue.render, imf.profile_to_csv, imf._rendered_rows,
                cli.cmd_constants] + [
    cls.to_json for cls in vars(theorems).values()
    if isinstance(cls, type) and cls.__module__ == theorems.__name__ and hasattr(cls, "to_json")
]


@pytest.mark.parametrize("function", OUTPUT_PATHS, ids=lambda f: f.__qualname__)
def test_output_paths_read_no_cap(function):
    """Every decimal comes from an exact scaled floor, whatever the digits."""
    source = inspect.getsource(function)
    for word in ("refine", "enclosure", "cap_bits", "precision_cap"):
        assert word not in source, f"{function.__qualname__} mentions {word}"


def test_every_certificate_is_an_output_path():
    names = {f.__qualname__ for f in OUTPUT_PATHS}
    assert {"Witness.to_json", "DichotomyRecord.to_json", "GapCertificate.to_json",
            "OptimalPair.to_json", "NearOptimalityReport.to_json"} <= names


def test_refine_compare_guard_sees_each_form():
    source = (
        "from .exact import refine_compare\n"
        "from .exact import refine_compare as decide\n"
        "class DValue:\n    def sign(self):\n        return refine_compare(self, 0)\n"
        "def f(x):\n    return exact.refine_compare(x, 0)\n"
        "def g():\n    return map(refine_compare, (), ())\n"
        "refine_compare(0, 1)\n"
    )
    assert refine_compare_uses(source) == ["<module>", "DValue.sign", "f", "g", "<module>"]
