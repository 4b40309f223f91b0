"""Exception types shared across the package."""


class WidthError(ValueError):
    """Bit-vector width unsupported, or two operands of different width."""


class BudgetError(RuntimeError):
    """A step would exceed the configured resource budget; refused outright."""


class VerificationError(RuntimeError):
    """A computed count disagrees with the known reference values, or a
    check that the arithmetic stays exact failed."""


class UnsupportedCombinationError(ValueError):
    """Requested target/method combination is not computable by this build."""
