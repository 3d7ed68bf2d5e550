"""Each expansion folds its period into one matrix, once.

The ladder folds the period into its matrix M when it is built, and reads
every tail and the value from M's fixed point: the period's tails follow
forwards by x -> 1/(x - a), the preperiod's backwards by x -> a + 1/x. A tail
that folded a rotation of the period again, or a value that refolded it,
shows here as a second fold; and ``_fold`` called from anywhere but the
ladder and ``continuant`` fails the source guard.
"""

import ast
import pathlib

import pytest

import psidiff
from psidiff import CFExpansion, contfrac, parse_number, tail

SOURCES = sorted(pathlib.Path(psidiff.__file__).parent.glob("*.py"))

SPECS = ["surd:(3+sqrt(4999))/29",  # period 688
         "surd:(0+sqrt(2))/1", "tau", "cf:[0;1,1,1,1,1,1,(1,2)]", "cf:[0;(1000,999,998)]",
         "cf:[-3;7,(1,1,4,2)]"]


@pytest.mark.parametrize("spec", SPECS)
def test_one_fold_per_expansion(spec, monkeypatch):
    parsed = parse_number(spec)
    cf = CFExpansion(parsed.a0, parsed.preperiod, parsed.period)  # no ladder built yet
    real, folds = contfrac._fold, []

    def counting(word):
        folds.append(word)
        return real(word)

    monkeypatch.setattr(contfrac, "_fold", counting)
    value = cf.value()
    tails = [tail(cf, r) for r in range(1, len(cf.preperiod) + 2 * len(cf.period) + 2)]
    assert folds == [cf.period]
    assert cf.value() is value and tail(cf, 1) is tails[0]


class _FoldCalls(ast.NodeVisitor):
    """module.[class.]function of each call to ``_fold``, by name or attribute."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: list[str] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) == "_fold":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def fold_callers(source: str, module: str) -> list[str]:
    visitor = _FoldCalls(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_only_the_ladder_and_continuant_fold():
    callers = [c for path in SOURCES for c in fold_callers(path.read_text(), path.stem)]
    assert sorted(callers) == ["contfrac._Ladder.__init__", "contfrac.continuant"]


def test_guard_sees_each_form():
    source = ("class L:\n    def f(self, w):\n        return _fold(w)\n"
              "def g(w):\n    return contfrac._fold(w)\n")
    assert fold_callers(source, "m") == ["m.L.f", "m.g"]
