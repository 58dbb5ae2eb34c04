"""Exception hierarchy for the coxangle library.

Every error raised by the library derives from CoxangleError, so callers
(including the CLI) can distinguish domain failures from programming bugs.
"""


class CoxangleError(Exception):
    """Base class for all library errors."""


class DuplicateLabel(CoxangleError):
    """A node label occurs more than once."""


class InvalidEntry(CoxangleError):
    """A Coxeter matrix entry is malformed (m < 2, or an (i, i) edge)."""


class NotSpherical(CoxangleError):
    """A connected component matches no finite Coxeter type."""


class UnknownType(CoxangleError):
    """Builtin diagram name not recognized."""


class RankOutOfRange(CoxangleError):
    """Builtin diagram name has a rank outside the family's range."""


class UnknownNode(CoxangleError):
    """A node label is not part of the diagram."""


class NotAnAutomorphism(CoxangleError):
    """A permutation does not preserve the Coxeter matrix."""


class NonCrystallographic(CoxangleError):
    """An operation needing a root-system realization met an H-type or
    I_2(m) component with m outside {2, 3, 4, 6}."""


class DimensionMismatch(CoxangleError):
    """Vectors of different ambient dimensions were combined."""


class OrbitBudgetExceeded(CoxangleError):
    """Orbit enumeration hit the safety cap before closing."""


class OrderBudgetExceeded(CoxangleError):
    """Element-order iteration hit the safety cap (non-finite-order input)."""


class InvalidTitsDiagram(CoxangleError):
    """A Tits diagram failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class NontrivialGamma(CoxangleError):
    """Operation requires a trivial automorphism group (fold first)."""


class ZeroRelativeRank(CoxangleError):
    """The anisotropic kernel is the whole node set; minimal angle undefined."""


class ParseError(CoxangleError):
    """Diagram-specification text failed to parse; carries line/column."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
