"""Precision refinement has one loop, ``exact.refine``, and it is always capped.

A bit count that doubles (``bits *= 2``, ``bits = min(2 * bits, cap)``,
``bits <<= 1``) anywhere else is a second, hand-written refinement loop.
"""

import ast
import inspect
import pathlib

import psidiff
from psidiff import exact

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
