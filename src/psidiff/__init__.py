"""Exact irrationality-measure computations for pairs of quadratic irrationals.

The public names load on first use (PEP 562): ``import psidiff`` imports no
submodule, and ``from psidiff import psi`` imports only ``psidiff.imf`` and what
it needs, so a command-line call pays for the modules its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "contfrac": ("CFExpansion", "Convergent", "continuant", "convergents", "expand_quadratic",
                 "is_nonintegral_sum_and_diff", "rational_to_cf", "tail"),
    "exact": ("Comparison", "Interval", "PHI", "QuadExt", "SQRT5", "TAU", "refine_compare",
              "render_decimal"),
    "imf": ("BreakpointProfile", "DValue", "Letter", "MergedWord", "PsiValue",
            "breakpoint_profile", "convergent_distance", "d_at", "inv_psi", "merged_word",
            "profile_to_csv", "psi", "sign_changes"),
    "numspec": ("parse_number", "parse_surd"),
    "theorems": ("DichotomyBranch", "GapCertificate", "NearOptimalityReport", "OptimalPair",
                 "Witness", "binet_fib", "check_dichotomy", "construct_optimal", "find_witness",
                 "lemma_scans", "scan_dichotomy", "scan_interleave_gap", "scan_lemma_conseq",
                 "scan_lemma_conseq1", "verify_near_optimality"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """A public name, imported from its home module on first use and kept here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
