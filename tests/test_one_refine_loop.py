"""Precision refinement has one loop, ``exact.refine``, with one start and a cap it never passes.

A bit count that doubles (``bits *= 2``, ``bits = min(2 * bits, cap)``,
``bits <<= 1``) anywhere else is a second, hand-written refinement loop.
``refine`` has one caller, ``refine_compare``, and that one caller in the
package, the witness test |d(t)| vs C*t in ``theorems.find_witness``. Every
other decision is exact, and so is every printed decimal: no output path
mentions refinement, enclosures or the cap.
"""

import ast
import inspect
import pathlib

import pytest

import psidiff
from psidiff import cli, exact, imf, theorems

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
    offenders = [
        f"{path.name}:{line} in {func}"
        for path in SOURCES
        for func, line in bit_doublings(path.read_text())
        if not (path.name == "exact.py" and func == "refine")
    ]
    assert not offenders, f"hand-written refinement loops: {', '.join(offenders)}"


def test_guard_sees_each_form():
    source = inspect.getsource(exact.refine) + (
        "def f(bits):\n    bits *= 2\n    bits <<= 1\n    bits = bits * 2\n"
        "    scaled = 1 << (2 * bits)\n    length *= 2\n"
    )
    assert [func for func, _ in bit_doublings(source)] == ["refine", "f", "f", "f"]


def test_refine_has_no_default_cap():
    assert inspect.signature(exact.refine).parameters["cap_bits"].default is inspect.Parameter.empty


def test_refine_has_one_start():
    assert list(inspect.signature(exact.refine).parameters) == ["make", "decide", "cap_bits"]


@pytest.mark.parametrize("cap_bits", [16, 40, 64])
def test_refine_never_passes_the_cap(cap_bits):
    seen = []

    def make(bits):
        seen.append(bits)
        return exact.TAU.enclosure(bits)

    assert exact.refine(make, lambda enc: None, cap_bits) is None
    assert max(seen) == seen[-1] == cap_bits
    seen.clear()
    assert exact.refine_compare(make, 1, cap_bits) is exact.Comparison.GREATER
    assert seen == [cap_bits]  # settled at the first attempt, at the cap


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
    assert uses_in_package("refine_compare") == ["theorems.py in find_witness"]


def test_refine_has_one_caller():
    assert uses_in_package("refine") == ["exact.py in refine_compare"]


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
