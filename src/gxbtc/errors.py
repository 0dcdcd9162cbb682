"""Exception types shared across the package."""


class GxError(Exception):
    """Base class for all gxbtc errors."""


class NormalizationError(GxError):
    """A cochain entry violates the normalization convention."""


class SnapFailure(GxError):
    """A U(1) value is too far from every admissible root of unity."""


class RootOrderTooSmall(GxError):
    """Cocycles valued in the configured roots of unity cannot represent
    every cohomology class."""


class NotACocycle(GxError):
    """A cochain required to be closed has a nontrivial coboundary."""


class NotA1Cocycle(NotACocycle):
    """A 1-cochain required to be closed has a nontrivial coboundary."""


class NotAbelianMonodromy(GxError):
    """A monodromy lookup involved a pair with no abelian member."""


class InadmissibleTuple(GxError):
    """A symbol was requested on a tuple with no fusion channel."""


class RestrictionMismatch(GxError):
    """Torsored eta restricted to the trivially graded sector disagrees
    with the closed-form monodromy correction."""


class RepresentativeDependent(GxError):
    """The pentagon-defect phase differs between representative tuples, or
    no representative defines it, so the obstruction is not well defined
    on this input."""


class GradeViolation(GxError):
    """A relabeling failed to preserve group grades."""


class MatchFailure(GxError):
    """No gauge phases reconcile two tables that are provably equivalent."""


class BudgetExceeded(GxError):
    """An equivalence search ran out of budget before reaching a verdict."""


class InvalidInput(GxError):
    """Malformed file or structurally inconsistent input data."""
