"""Exception types shared across the package."""


class QdefError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(QdefError):
    """Operands live in right modules of different dimension."""


class ZeroScalar(QdefError):
    """A nonzero quaternion scalar was required."""


class RankDeficient(QdefError):
    """Input vectors are right-linearly dependent."""


class BasisError(QdefError):
    """Candidate basis fails orthonormality or span validation."""


class PreconditionFailed(QdefError):
    """Operator does not satisfy the hypotheses of the requested check."""


class InternalInconsistency(QdefError):
    """Two routes that must agree disagreed; signals a bug, not a math failure."""


class NoConvergence(QdefError):
    """A dense decomposition failed, or was given a non-finite matrix."""


class SingularSystem(QdefError):
    """Linear system is numerically singular (shift lies in the spectrum)."""


class SingularLeadingCoefficient(QdefError):
    """Leading band coefficient is not invertible at some row."""

    def __init__(self, n, value=None):
        self.n = n
        self.value = value
        super().__init__(f"leading band coefficient not invertible at row n={n}")


class StabilityViolation(QdefError):
    """Kernel dimensions differ across shifts where they must be constant."""

    def __init__(self, message, discordant=None):
        self.discordant = discordant or []
        super().__init__(message)


class ConfigError(QdefError):
    """Run configuration or input file cannot be parsed."""
