"""Shared exception types."""


class DimensionError(ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class InvariantViolation(AssertionError):
    """A quantity that is guaranteed by a proved identity failed to hold."""


class CertificationError(RuntimeError):
    """No certificate within a fixed limit: sampling trials, blow-up side or oracle size."""


class SingularityError(ArithmeticError):
    """An evaluation point lies on the singular locus of a rational function."""
