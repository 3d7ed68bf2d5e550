"""Exception hierarchy. Every error carries a machine-readable ``code`` for the CLI."""


class PsidiffError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class MixedFieldError(PsidiffError):
    """Binary operation on quadratic-field elements with different radicands."""

    code = "mixed_field"


class RationalInputError(PsidiffError):
    """An operation that needs an irrational number received a rational one."""

    code = "rational_input"


class IntegralSumOrDiffError(PsidiffError):
    """The pair (alpha, beta) has alpha+beta or alpha-beta in Z."""

    code = "integral_sum_or_diff"


class FormMismatchError(PsidiffError):
    """Internal consistency failure: the two closed forms of 1/psi disagree."""

    code = "form_mismatch"


class UndecidedSignError(PsidiffError):
    """d(t) is exactly zero where its sign is asked for; from the witness test, never."""

    code = "undecided_sign"


class PreconditionFailedError(PsidiffError):
    """The hypothesis of a checked statement does not hold for the given indices."""

    code = "precondition_failed"


class DichotomyViolationError(PsidiffError):
    """A dichotomy branch test met 1/xi_n != alpha_{n+1}/xi_{n-1}; must never fire."""

    code = "dichotomy_violation"


class GapViolationError(PsidiffError):
    """An interleave-gap certificate failed verification; must never fire."""

    code = "gap_violation"


class NotFoundInRangeError(PsidiffError):
    """No witness below the search bound; not a refutation, the bound was too small."""

    code = "not_found_in_range"


class SearchExhaustedError(PsidiffError):
    """The (U, V) search hit its internal bound."""

    code = "search_exhausted"
