"""Shared exception types."""


class DimensionError(ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class BudgetExceededError(RuntimeError):
    """A computation would exceed a fixed size limit (blow-up side, oracle size)."""


class InvariantViolation(AssertionError):
    """A quantity that is guaranteed by a proved identity failed to hold."""


class CertificationError(RuntimeError):
    """Randomized search failed to produce a certificate within its trial budget."""


class SingularityError(ArithmeticError):
    """An evaluation point lies on the singular locus of a rational function."""
